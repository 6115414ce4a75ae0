//! Dense, hashed views of the atlas's AS-level tables, built once per
//! predictor and shared by its strict and relaxed graphs.
//!
//! The search asks two AS-level questions on its hot path: "was this AS
//! triple observed?" (§4.3.2) and "does this AS prefer one next hop over
//! another?" (§4.3.3). The atlas answers both from `BTreeSet`s keyed on
//! `Asn` tuples. Here every AS that owns a graph cluster gets a dense
//! `u32` id, and both tables become hash sets of id triples packed into
//! one `u128`, hashed by a cheap integer hasher: a lookup is two
//! splitmix rounds and one probe, with no tree walk.

use crate::config::PredictorConfig;
use inano_atlas::{Atlas, Triple};
use inano_model::Asn;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Sentinel dense id: "no AS" (a path that never leaves the current AS,
/// or an AS that owns no graph cluster).
pub const NO_AS: u32 = u32::MAX;

/// The splitmix64 finalizer: full avalanche, so keys that differ only
/// in their high bits still land in different buckets.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-process random seed for the hashes below. The keys they see
/// come from an atlas, which can arrive from another server; an
/// unknown seed keeps such an atlas from choosing keys that collide
/// into one bucket run.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x1d_u64))
}

/// A `Hasher` for small integer keys (ids and tuples of ids): each word
/// is folded in through [`splitmix64`], starting from the process seed.
/// Several times cheaper than SipHash.
pub struct IdHasher(u64);

impl Default for IdHasher {
    fn default() -> IdHasher {
        IdHasher(seed())
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = splitmix64(self.0 ^ n);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }
}

/// A `HashMap` over integer-like keys using [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` over integer-like keys using [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Three dense ids packed into one set key.
fn pack(a: u32, b: u32, c: u32) -> u128 {
    (u128::from(a) << 64) | (u128::from(b) << 32) | u128::from(c)
}

/// Dense AS ids plus the tables the search consults per relaxation.
pub struct AsTables {
    index: IdMap<Asn, u32>,
    /// Observed degree per dense id.
    degree: Vec<u32>,
    /// Observed 3-tuples in dense ids, stored as `(min(a, c), b,
    /// max(a, c))`: the atlas's triples are direction-free, so one
    /// orientation per triple answers both (empty unless the config
    /// enables the tuple check).
    tuples: IdSet<u128>,
    /// Observed preferences `(a, b, c)`: "a prefers b over c"
    /// (directional; empty unless the config enables preferences).
    prefs: IdSet<u128>,
}

impl AsTables {
    /// Index every AS that owns a cluster (plus the default AS that
    /// clusters without a recorded owner fall back to) and load the
    /// tables `cfg` consults. Tuples and preferences naming an AS that
    /// owns no cluster can never be queried and are left out.
    pub fn new(atlas: &Atlas, cfg: &PredictorConfig) -> AsTables {
        let mut index: IdMap<Asn, u32> = IdMap::default();
        let mut degree = Vec::new();
        for &asn in atlas
            .cluster_as
            .values()
            .chain(std::iter::once(&Asn::default()))
        {
            let next = index.len() as u32;
            index.entry(asn).or_insert_with(|| {
                degree.push(atlas.degree(asn));
                next
            });
        }
        // Sorted walks repeat their leading AS run after run: remember
        // the last lookup.
        let mut last: Option<(Asn, Option<u32>)> = None;
        let mut lead = |a: Asn| match last {
            Some((seen, id)) if seen == a => id,
            _ => {
                let id = index.get(&a).copied();
                last = Some((a, id));
                id
            }
        };
        let dense = |a: &Asn| index.get(a).copied();

        let mut tuples = IdSet::default();
        if cfg.use_tuples {
            // Only canonical entries are visible to `Atlas::has_triple`.
            tuples.reserve(atlas.tuples.len());
            let visible = atlas
                .tuples
                .iter()
                .filter(|t| Triple::canonical(t.0, t.1, t.2) == **t);
            for t in visible {
                if let (Some(a), Some(b), Some(c)) = (lead(t.0), dense(&t.1), dense(&t.2)) {
                    tuples.insert(pack(a.min(c), b, a.max(c)));
                }
            }
        }
        let mut prefs = IdSet::default();
        if cfg.use_prefs {
            prefs.reserve(atlas.prefs.len());
            for &(a, b, c) in &atlas.prefs {
                if let (Some(a), Some(b), Some(c)) = (lead(a), dense(&b), dense(&c)) {
                    prefs.insert(pack(a, b, c));
                }
            }
        }
        AsTables {
            index,
            degree,
            tuples,
            prefs,
        }
    }

    /// Dense id of an AS, if it owns a cluster.
    pub fn dense(&self, asn: Asn) -> Option<u32> {
        self.index.get(&asn).copied()
    }

    /// Observed degree of a dense AS id (0 when unobserved).
    pub fn degree(&self, dense: u32) -> u32 {
        self.degree[dense as usize]
    }

    /// Was the triple `(a, b, c)` (or its reverse) observed?
    pub fn has_triple(&self, a: u32, b: u32, c: u32) -> bool {
        self.tuples.contains(&pack(a.min(c), b, a.max(c)))
    }

    /// Does `a` prefer next hop `b` over `c`?
    pub fn prefers(&self, a: u32, b: u32, c: u32) -> bool {
        self.prefs.contains(&pack(a, b, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::ClusterId;

    #[test]
    fn tables_answer_like_the_atlas() {
        let mut atlas = Atlas::default();
        for (c, asn) in [(1u32, 10u32), (2, 20), (3, 30), (4, 40)] {
            atlas.cluster_as.insert(ClusterId::new(c), Asn::new(asn));
        }
        let t = |a, b, c| Triple::canonical(Asn::new(a), Asn::new(b), Asn::new(c));
        atlas.tuples.insert(t(10, 20, 30));
        atlas.tuples.insert(t(40, 30, 20));
        // Names an AS with no cluster: unreachable by any search.
        atlas.tuples.insert(t(10, 99, 20));
        // Not canonical, so the atlas itself never reports it.
        atlas
            .tuples
            .insert(Triple(Asn::new(40), Asn::new(10), Asn::new(20)));
        atlas
            .prefs
            .insert((Asn::new(10), Asn::new(20), Asn::new(40)));
        let tables = AsTables::new(&atlas, &PredictorConfig::full());
        let d = |a| tables.dense(Asn::new(a)).unwrap();
        for a in [10, 20, 30, 40] {
            for b in [10, 20, 30, 40] {
                for c in [10, 20, 30, 40] {
                    let (x, y, z) = (Asn::new(a), Asn::new(b), Asn::new(c));
                    assert_eq!(
                        tables.has_triple(d(a), d(b), d(c)),
                        atlas.has_triple(x, y, z)
                    );
                    assert_eq!(tables.prefers(d(a), d(b), d(c)), atlas.prefers(x, y, z));
                }
            }
        }
        assert!(tables.dense(Asn::new(99)).is_none());
        // Tables the config does not consult are not built.
        let graph = AsTables::new(&atlas, &PredictorConfig::graph());
        assert!(graph.tuples.is_empty() && graph.prefs.is_empty());
    }
}
