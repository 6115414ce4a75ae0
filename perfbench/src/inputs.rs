//! Input generation. Everything here is a function of two seeds: the
//! fixed [`SCENARIO_SEED`] builds the Internet, its measurement
//! campaigns and atlases (and so the Fig. 5 validation pairs and the
//! delta chain); the run seed draws the request stream, the pool and
//! the coverage sample. The server under test receives only the generated atlas
//! file, the deltas and the pairs; the digest proves two runs shared
//! inputs.

use crate::workload::Workload;
use inano_atlas::{codec, Atlas, AtlasDelta};
use inano_bench::{validation_set, Scenario, ScenarioConfig};
use inano_core::{content_tag, PathPredictor, PredictorConfig};
use inano_model::rng::rng_for;
use inano_model::{AsPath, Ipv4};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;
use std::sync::Arc;

pub type Pair = (Ipv4, Ipv4);

/// Pairs in a generated request stream; senders cycle through it.
const STREAM_LEN: usize = 1 << 16;

/// The scenario every run builds. Across scenario seeds the atlas's own
/// no-route share spreads by about a fifth (interquartile range over
/// median, ten seeds), so tying the topology to the run seed would bury
/// the run-to-run differences the benchmark exists to show. Change it
/// to confirm a result on a held-out topology.
pub const SCENARIO_SEED: u64 = 1;

/// Uniform pairs in every workload's coverage sample.
const COVERAGE_PAIRS: usize = 1_000;

/// Sources and destinations of the hot pool.
pub const POOL_SRCS: usize = 32;
pub const POOL_DSTS: usize = 64;

/// Deltas the `swap_udp` origin publishes in a run of `seconds`: one
/// about every two seconds, and an even number, so the last generation
/// carries day-0 measurements again and the Fig. 5 pass reads the same
/// routing oracle on every workload.
pub fn deltas_for(seconds: f64) -> usize {
    2 * ((seconds / 4.0).floor() as usize).max(1)
}

/// Fig. 5 validation set shape: 37 agents × up to 100 destinations.
const VALIDATION_SOURCES: usize = 37;
const VALIDATION_PER_SOURCE: usize = 100;

/// One Fig. 5 pair: endpoints as addresses, plus the routing oracle's
/// forward AS path.
pub struct Validation {
    pub pair: Pair,
    pub true_as_path: AsPath,
}

pub struct Inputs {
    pub scenario_summary: String,
    /// The codec-encoded day-0 atlas: the file `inano-serve` loads.
    pub atlas_bytes: Vec<u8>,
    /// The atlas decoded from those bytes: what the server serves.
    pub atlas0: Arc<Atlas>,
    /// Canonical, cluster-attached prefixes, one address each.
    pub endpoints: usize,
    /// The request stream, in send order.
    pub stream: Vec<Pair>,
    /// The coverage sample: distinct pairs uniform over the canonical
    /// prefixes, the `cold_uniform` distribution. Its no-route share is
    /// `noroute_rate` on every workload.
    pub coverage: Vec<Pair>,
    /// The pool workloads' 32 × 64 pool, every pair once.
    pub pool: Vec<Pair>,
    pub validation: Vec<Validation>,
    /// `swap_udp` only: the relabelled delta chain and the generation
    /// each delta produces (`generations[k]` is served after delta k).
    pub deltas: Vec<AtlasDelta>,
    pub generations: Vec<Arc<Atlas>>,
    /// FNV-1a over every generated input.
    pub digest: u64,
}

/// Build every input of one run.
pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
    let sc = Scenario::build(ScenarioConfig::experiment(SCENARIO_SEED));
    let (atlas_bytes, _) = codec::encode(&sc.atlas);
    let atlas0 = Arc::new(codec::decode(&atlas_bytes).expect("a fresh encoding decodes"));
    let endpoints = canonical_endpoints(&atlas0);
    assert!(
        endpoints.len() > POOL_SRCS + POOL_DSTS,
        "scenario exposes only {} canonical prefixes",
        endpoints.len()
    );

    let mut rng = rng_for(seed, &format!("perfbench-{}", workload.name()));
    let (stream, pool): (Vec<Pair>, Vec<Pair>) = match workload {
        Workload::ColdUniform => (
            (0..STREAM_LEN)
                .map(|_| uniform_pair(&endpoints, &mut rng))
                .collect(),
            Vec::new(),
        ),
        Workload::HotPool | Workload::SwapUdp => {
            let pool = HotPool::draw(&endpoints, &mut rng);
            let stream = (0..STREAM_LEN).map(|_| pool.pair(&mut rng)).collect();
            (stream, pool.all_pairs())
        }
    };
    // Distinct uniform pairs, drawn after the stream.
    let mut seen = HashSet::new();
    let mut coverage = Vec::with_capacity(COVERAGE_PAIRS);
    while coverage.len() < COVERAGE_PAIRS {
        let p = uniform_pair(&endpoints, &mut rng);
        if seen.insert(p) {
            coverage.push(p);
        }
    }

    let oracle = sc.oracle(0);
    let validation: Vec<Validation> =
        validation_set(&sc, &oracle, VALIDATION_SOURCES, VALIDATION_PER_SOURCE)
            .into_iter()
            .filter_map(|v| {
                Some(Validation {
                    pair: (
                        prefix_addr(&atlas0, v.src_prefix)?,
                        prefix_addr(&atlas0, v.dst_prefix)?,
                    ),
                    true_as_path: v.true_as_path,
                })
            })
            .collect();

    let (deltas, generations) = if workload == Workload::SwapUdp {
        let (_, day1) = sc.atlas_for_day(1);
        relabelled_chain(&atlas0, &day1, deltas_for(seconds))
            .expect("the chain applies delta by delta")
    } else {
        (Vec::new(), vec![Arc::clone(&atlas0)])
    };

    let mut bytes = atlas_bytes.clone();
    for &(s, d) in stream.iter().chain(&coverage).chain(&pool) {
        bytes.extend_from_slice(&s.0.to_le_bytes());
        bytes.extend_from_slice(&d.0.to_le_bytes());
    }
    for v in &validation {
        bytes.extend_from_slice(&v.pair.0 .0.to_le_bytes());
        bytes.extend_from_slice(&v.pair.1 .0.to_le_bytes());
    }
    for d in &deltas {
        bytes.extend_from_slice(&d.encode().0);
    }

    Inputs {
        scenario_summary: sc.summary(),
        digest: content_tag(&bytes),
        atlas_bytes,
        atlas0,
        endpoints: endpoints.len(),
        stream,
        coverage,
        pool,
        validation,
        deltas,
        generations,
    }
}

/// One address inside an atlas prefix.
fn prefix_addr(atlas: &Atlas, pid: inano_model::PrefixId) -> Option<Ipv4> {
    atlas.prefix_as.get(&pid).map(|&(prefix, _)| prefix.nth(1))
}

/// Addresses of the prefixes whose predictions are a pure function of
/// their cluster: the only check made on an endpoint. No prediction is
/// run, so pairs with no route stay in and are counted as such.
fn canonical_endpoints(atlas: &Arc<Atlas>) -> Vec<Ipv4> {
    let resolver = PathPredictor::new(Arc::clone(atlas), PredictorConfig::graph());
    atlas
        .prefix_as
        .values()
        .map(|&(prefix, _)| prefix.nth(1))
        .filter(|&ip| resolver.resolve(ip).is_ok_and(|r| r.canonical()))
        .collect()
}

fn uniform_pair(endpoints: &[Ipv4], rng: &mut impl Rng) -> Pair {
    let s = rng.gen_range(0..endpoints.len());
    let d = (s + rng.gen_range(1..endpoints.len())) % endpoints.len();
    (endpoints[s], endpoints[d])
}

/// The many-clients-few-replicas pool: sources uniform, destinations
/// zipf(1.0) by rank.
struct HotPool {
    srcs: Vec<Ipv4>,
    dsts: Vec<Ipv4>,
    cumulative: Vec<f64>,
}

impl HotPool {
    fn draw(endpoints: &[Ipv4], rng: &mut impl Rng) -> HotPool {
        let mut shuffled = endpoints.to_vec();
        shuffled.shuffle(rng);
        let srcs = shuffled[..POOL_SRCS].to_vec();
        let dsts = shuffled[POOL_SRCS..POOL_SRCS + POOL_DSTS].to_vec();
        let cumulative = (0..POOL_DSTS)
            .scan(0.0, |acc, r| {
                *acc += 1.0 / (r as f64 + 1.0);
                Some(*acc)
            })
            .collect();
        HotPool {
            srcs,
            dsts,
            cumulative,
        }
    }

    fn all_pairs(&self) -> Vec<Pair> {
        self.srcs
            .iter()
            .flat_map(|&s| self.dsts.iter().map(move |&d| (s, d)))
            .collect()
    }

    fn pair(&self, rng: &mut impl Rng) -> Pair {
        let s = self.srcs[rng.gen_range(0..self.srcs.len())];
        let pick = rng.gen_range(0.0..*self.cumulative.last().expect("non-empty pool"));
        let d = self.cumulative.partition_point(|&c| c < pick);
        (s, self.dsts[d.min(self.dsts.len() - 1)])
    }
}

/// A chain of `n` daily deltas that alternates the day-0 and day-1
/// atlas *contents* under strictly rising day stamps: delta k turns
/// generation k-1 into day `k` carrying day `k % 2`'s measurements.
/// One extra campaign thus feeds an unbroken chain of any length.
/// Returns the deltas and every generation, `generations[0]` being
/// `day0` itself.
pub fn relabelled_chain(
    day0: &Arc<Atlas>,
    day1: &Atlas,
    n: usize,
) -> Result<(Vec<AtlasDelta>, Vec<Arc<Atlas>>), inano_model::ModelError> {
    let mut deltas = Vec::with_capacity(n);
    let mut generations = vec![Arc::clone(day0)];
    for k in 1..=n {
        let mut target = if k % 2 == 1 {
            day1.clone()
        } else {
            (**day0).clone()
        };
        target.day = generations[k - 1].day + 1;
        let prev = &generations[k - 1];
        let delta = AtlasDelta::between(prev, &target);
        let next = delta.apply(prev)?;
        deltas.push(delta);
        generations.push(Arc::new(next));
    }
    Ok((deltas, generations))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_chain(n: usize) -> (Arc<Atlas>, Vec<AtlasDelta>, Vec<Arc<Atlas>>) {
        let sc = Scenario::build(ScenarioConfig::test(5));
        let day0 = Arc::new(codec::decode(&codec::encode(&sc.atlas).0).unwrap());
        let (_, day1) = sc.atlas_for_day(1);
        let (deltas, gens) = relabelled_chain(&day0, &day1, n).unwrap();
        (day0, deltas, gens)
    }

    #[test]
    fn day_stamps_strictly_rise_and_each_delta_applies_to_the_previous_generation() {
        let (day0, deltas, gens) = small_chain(5);
        assert_eq!((deltas.len(), gens.len()), (5, 6));
        assert_eq!(gens[0].day, day0.day);
        for (k, d) in deltas.iter().enumerate() {
            assert_eq!(d.from_day, gens[k].day);
            assert_eq!(d.to_day, gens[k].day + 1);
            assert_eq!(gens[k + 1].day, d.to_day);
            // Applying delta k to generation k reproduces k+1 exactly.
            let again = d.apply(&gens[k]).unwrap();
            assert_eq!(codec::encode(&again).0, codec::encode(&gens[k + 1]).0);
            // ...and to any other generation it refuses.
            for (j, g) in gens.iter().enumerate() {
                if j != k {
                    assert!(d.apply(g).is_err(), "delta {k} applied to generation {j}");
                }
            }
        }
    }

    #[test]
    fn contents_alternate_while_days_move_on() {
        let (_, deltas, gens) = small_chain(4);
        // Odd generations carry day-1 links, even ones day-0 links.
        assert_eq!(gens[1].links, gens[3].links);
        assert_eq!(gens[2].links, gens[4].links);
        assert_ne!(gens[1].links, gens[2].links);
        // Every delta carries real changes.
        assert!(deltas.iter().all(|d| d.entry_counts() != (0, 0, 0)));
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        let sc = Scenario::build(ScenarioConfig::test(9));
        let atlas = Arc::new(sc.atlas.clone());
        let eps = canonical_endpoints(&atlas);
        let mut a = rng_for(9, "t");
        let mut b = rng_for(9, "t");
        let pa = HotPool::draw(&eps, &mut a);
        let pb = HotPool::draw(&eps, &mut b);
        let xs: Vec<Pair> = (0..100).map(|_| pa.pair(&mut a)).collect();
        let ys: Vec<Pair> = (0..100).map(|_| pb.pair(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs
            .iter()
            .all(|p| pa.srcs.contains(&p.0) && pa.dsts.contains(&p.1)));
    }
}
