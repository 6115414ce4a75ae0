//! The destination-rooted route search (Figure 1 of the paper, plus the
//! §4.3 refinements).
//!
//! Dijkstra-like label setting from the destination's down/`TO_DST` node
//! over reverse edges. The label kept per node is
//! `[AS hops, exit latency]` (lexicographic, as in §4.2.1: hops dominate,
//! the exit component accumulates intra-AS latency and resets to zero at
//! AS boundaries). GRAPH mode runs three phases over the up/down graph so
//! customer routes beat peer routes beat provider routes; labels settled
//! in an earlier phase are frozen.
//!
//! Refinement hooks, applied during relaxation of an inter-AS edge
//! `v(A) → w(B)`:
//! * **3-tuple check**: the AS triple `(A, B, C)` — `C` being the first
//!   AS after `B` on `w`'s chosen path — must have been observed, unless
//!   `B`'s degree is at most the threshold (§4.3.2);
//! * **provider check**: when `B` is the destination AS and `w`'s path
//!   never leaves it, `A` must be an observed provider (ingress) for the
//!   destination prefix (§4.3.4);
//! * **preferences**: equal-hop candidates at `v` are compared by the
//!   observed preference of `A` between the two next ASes, ahead of the
//!   exit-latency comparison (§4.3.3).
//!
//! The kernel works on dense ids throughout: CSR in-edges, a dense AS id
//! per node, the predictor's packed `AsTables`
//! for triples and preferences, and labels in a per-thread scratch
//! buffer reused from search to search. What it returns is only the
//! successor of every node, which is all [`SearchResult::cluster_path`]
//! needs. The original `Option<Label>` implementation is kept under
//! `#[cfg(test)]` as the reference it is checked against.

use crate::config::PredictorConfig;
use crate::graph::PredictionGraph;
use crate::tables::{AsTables, NO_AS};
use inano_atlas::Atlas;
use inano_model::{Asn, ClusterId, PrefixId};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[cfg(test)]
pub(crate) mod reference;

/// Successor value of a node the search never reached.
const UNREACHED: u32 = u32::MAX;

/// The result of one destination-rooted search: each node's forward
/// successor toward the destination (the destination node is its own
/// successor).
pub struct SearchResult {
    pub dest_cluster: ClusterId,
    succ: Box<[u32]>,
}

impl SearchResult {
    /// A result in which no node was reached (for cache tests).
    #[cfg(test)]
    pub(crate) fn unreached(dest_cluster: ClusterId, n_nodes: usize) -> SearchResult {
        SearchResult {
            dest_cluster,
            succ: vec![UNREACHED; n_nodes].into(),
        }
    }

    /// Did the search reach this node (does it have a route)?
    pub fn reached(&self, node: u32) -> bool {
        self.succ[node as usize] != UNREACHED
    }

    /// Approximate heap footprint in bytes (what a cache should charge).
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.succ)
    }

    /// Reconstruct the forward cluster path from a node, collapsing
    /// layer transitions within a cluster.
    pub fn cluster_path(&self, g: &PredictionGraph, from: u32) -> Option<Vec<ClusterId>> {
        if !self.reached(from) {
            return None;
        }
        let mut out: Vec<ClusterId> = Vec::with_capacity(16);
        let mut cur = from;
        for _ in 0..4 * self.succ.len() {
            let c = g.node_cluster(cur);
            if out.last() != Some(&c) {
                out.push(c);
            }
            let succ = self.succ[cur as usize];
            if succ == UNREACHED {
                return None;
            }
            if succ == cur {
                return Some(out); // reached the destination node
            }
            cur = succ;
        }
        None // defensive: cycle in successor chain
    }
}

/// Per-node working label, in dense ids.
#[derive(Clone, Copy)]
struct Label {
    exit: f64,
    /// The forward successor node; [`UNREACHED`] when unlabelled.
    succ: u32,
    /// First two distinct ASes after this node's AS on the path
    /// ([`NO_AS`] when the path stays in this AS to the end).
    next2: [u32; 2],
    hops: u16,
    /// Inter-AS hops taken over reversed (unobserved-direction) edges;
    /// fewer is better at equal AS-hop count.
    rev_hops: u16,
    /// Phase in which the label was last improved; labels from earlier,
    /// already-closed phases are frozen.
    phase: u8,
}

const UNLABELLED: Label = Label {
    exit: 0.0,
    succ: UNREACHED,
    next2: [NO_AS; 2],
    hops: 0,
    rev_hops: 0,
    phase: 0,
};

impl Label {
    fn is_set(&self) -> bool {
        self.succ != UNREACHED
    }

    /// First AS after `asn` on the path this label describes.
    fn first_as_after(&self, asn: u32) -> u32 {
        match self.next2 {
            [NO_AS, _] => NO_AS,
            [a, _] if a != asn => a,
            [_, b] => b,
        }
    }

    /// Heap key: AS hops, then quantised exit cost, then node — the
    /// same total order the reference's `(hops, exit, node)` tuples
    /// give, packed into one integer compare.
    fn key(&self, node: u32) -> u128 {
        (u128::from(self.hops) << 96) | (u128::from(quant(self.exit)) << 32) | u128::from(node)
    }
}

/// Reusable per-thread search buffers.
#[derive(Default)]
struct Scratch {
    labels: Vec<Label>,
    heap: BinaryHeap<Reverse<u128>>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// What one search consults, resolved once up front.
struct Rules<'a> {
    tables: &'a AsTables,
    use_tuples: bool,
    use_prefs: bool,
    /// Dense id of the destination AS ([`NO_AS`] if it owns no cluster).
    dst_as: u32,
    /// Dense ids of the destination's observed providers, sorted; `None`
    /// when the provider check is off or the atlas records none.
    /// Providers owning no cluster can never be the previous AS and are
    /// left out.
    providers: Option<Vec<u32>>,
}

/// Run the search toward `dest_cluster` (the home of `dst_prefix`,
/// owned by `dst_as`). The 3-tuple exemption is the one `g` was built
/// with (its edges' `tuple_exempt` flags).
pub fn search(
    g: &PredictionGraph,
    atlas: &Atlas,
    cfg: &PredictorConfig,
    dest_cluster: ClusterId,
    dst_prefix: PrefixId,
    dst_as: Asn,
) -> Option<SearchResult> {
    let dest_node = g.dest_node(dest_cluster)?;
    let tables = g.tables();
    let providers = if cfg.use_providers {
        atlas.providers_for(dst_prefix, dst_as).map(|set| {
            let mut dense: Vec<u32> = set.iter().filter_map(|&a| tables.dense(a)).collect();
            dense.sort_unstable();
            dense
        })
    } else {
        None
    };
    let rules = Rules {
        tables,
        use_tuples: cfg.use_tuples,
        use_prefs: cfg.use_prefs,
        dst_as: tables.dense(dst_as).unwrap_or(NO_AS),
        providers,
    };
    let succ = SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        run(g, &rules, cfg.n_phases(), dest_node, scratch);
        scratch.labels.iter().map(|l| l.succ).collect()
    });
    Some(SearchResult { dest_cluster, succ })
}

/// The label-setting loop, leaving its labels in `scratch`.
fn run(
    g: &PredictionGraph,
    rules: &Rules<'_>,
    max_phase: u8,
    dest_node: u32,
    scratch: &mut Scratch,
) {
    let Scratch { labels, heap } = scratch;
    labels.clear();
    labels.resize(g.n_nodes(), UNLABELLED);
    labels[dest_node as usize] = Label {
        succ: dest_node,
        phase: 1,
        ..UNLABELLED
    };

    for phase in 1..=max_phase {
        // (Re-)seed the heap with every labelled node so newly enabled
        // edge classes get relaxed.
        heap.clear();
        for (idx, l) in labels.iter().enumerate() {
            if l.is_set() {
                heap.push(Reverse(l.key(idx as u32)));
            }
        }
        while let Some(Reverse(key)) = heap.pop() {
            let node = key as u32;
            let cur = labels[node as usize];
            if cur.key(node) != key {
                continue; // stale heap entry
            }
            let node_as = g.node_as(node);
            let after = cur.first_as_after(node_as);
            for e in g.in_edges(node) {
                if e.phase > phase {
                    continue;
                }
                let u = e.src;
                let held = &labels[u as usize];
                // Frozen labels from closed phases are immutable.
                if held.is_set() && held.phase < phase {
                    continue;
                }
                let u_as = g.node_as(u);
                let crossing = e.inter && u_as != node_as;
                // `better` ranks AS hops, then reversed hops, first: a
                // candidate already worse on those loses whatever the
                // checks below would say, so skip them.
                let rank = (
                    cur.hops + u16::from(crossing),
                    cur.rev_hops + u16::from(e.reversed),
                );
                if held.is_set() && rank > (held.hops, held.rev_hops) {
                    continue;
                }

                let cand = if crossing {
                    // Crossing from AS u_as into node_as. The tuple
                    // check licenses the transit through node_as; a
                    // low-degree node_as is exempt on observed-direction
                    // edges only (flagged at build time).
                    if rules.use_tuples
                        && after != NO_AS
                        && !e.tuple_exempt
                        && !rules.tables.has_triple(u_as, node_as, after)
                    {
                        continue;
                    }
                    if let Some(provs) = &rules.providers {
                        // Final entry into the destination AS.
                        if node_as == rules.dst_as
                            && after == NO_AS
                            && provs.binary_search(&u_as).is_err()
                        {
                            continue;
                        }
                    }
                    Label {
                        exit: 0.0,
                        succ: node,
                        next2: [node_as, after],
                        hops: cur.hops + 1,
                        rev_hops: cur.rev_hops + u16::from(e.reversed),
                        phase,
                    }
                } else {
                    // Intra-AS, plane-cross or self edge.
                    Label {
                        exit: cur.exit + e.latency,
                        succ: node,
                        next2: cur.next2,
                        hops: cur.hops,
                        rev_hops: cur.rev_hops + u16::from(e.reversed),
                        phase,
                    }
                };

                if better(&cand, held, u_as, rules) {
                    heap.push(Reverse(cand.key(u)));
                    labels[u as usize] = cand;
                }
            }
        }
    }
}

/// Quantised exit cost for heap ordering (0.01 ms resolution keeps the
/// ordering total and deterministic): `(exit * 100.0).round() as u64`,
/// computed without the `round` library call. Truncation is a single
/// conversion, `y - trunc(y)` is exact for every finite `y`, and the
/// casts saturate the way `round() as u64` does (negative and NaN to 0,
/// overflow to `u64::MAX`).
#[inline]
fn quant(exit: f64) -> u64 {
    let y = exit * 100.0;
    let whole = y as u64;
    whole.saturating_add(u64::from(y - whole as f64 >= 0.5))
}

/// Is `cand` a better label for a node in AS `a` than `cur`?
fn better(cand: &Label, cur: &Label, a: u32, rules: &Rules<'_>) -> bool {
    if !cur.is_set() {
        return true;
    }
    if cand.hops != cur.hops {
        return cand.hops < cur.hops;
    }
    if cand.rev_hops != cur.rev_hops {
        // Paths sticking to observed link directions win: physical
        // observation is stronger evidence than inferred preference.
        return cand.rev_hops < cur.rev_hops;
    }
    if rules.use_prefs {
        // Preference between the next ASes, when both are known and
        // differ (§4.3.3: applies to routes of the same length).
        let (b1, b2) = (cand.first_as_after(a), cur.first_as_after(a));
        if b1 != NO_AS && b2 != NO_AS && b1 != b2 {
            if rules.tables.prefers(a, b1, b2) {
                return true;
            }
            if rules.tables.prefers(a, b2, b1) {
                return false;
            }
        }
    }
    if quant(cand.exit) != quant(cur.exit) {
        return cand.exit < cur.exit;
    }
    // Deterministic final tie-break.
    cand.succ < cur.succ
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::{LinkAnnotation, Plane, Triple};
    use inano_model::LatencyMs;

    /// Line topology 1→2→3→4 plus shortcut 1→5→4; each cluster its own AS.
    fn atlas_line() -> Atlas {
        let mut a = Atlas::default();
        let cl = ClusterId::new;
        for (f, t, lat) in [
            (1u32, 2u32, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
            (1, 5, 1.0),
            (5, 4, 1.0),
        ] {
            a.links.insert(
                (cl(f), cl(t)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(lat)),
                    plane: Plane::TO_DST,
                },
            );
        }
        for c in 1..=5u32 {
            a.cluster_as.insert(cl(c), Asn::new(c));
            a.as_degree.insert(Asn::new(c), 10); // above tuple threshold
        }
        a
    }

    fn run(atlas: &Atlas, cfg: &PredictorConfig) -> (PredictionGraph, SearchResult) {
        let g = PredictionGraph::build(atlas, cfg);
        let r = search(
            &g,
            atlas,
            cfg,
            ClusterId::new(4),
            PrefixId::new(0),
            Asn::new(4),
        )
        .unwrap();
        (g, r)
    }

    fn path_of(g: &PredictionGraph, r: &SearchResult, src: u32) -> Vec<u32> {
        r.cluster_path(g, src)
            .unwrap()
            .iter()
            .map(|c| c.raw())
            .collect()
    }

    fn src_node(g: &PredictionGraph, c: u32) -> u32 {
        *g.source_nodes(ClusterId::new(c)).last().unwrap()
    }

    #[test]
    fn quant_equals_round_then_cast() {
        let reference = |x: f64| (x * 100.0).round() as u64;
        let mut specials = vec![
            0.0,
            -0.0,
            0.005,
            0.015,
            0.025,
            -0.004,
            -0.006,
            -7.5,
            0.004_999_999_999_999_999,
            1.234_5,
            2.5e13,
            9.2e16,
            1.8e17,
            1.9e17,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::EPSILON,
            f64::MIN_POSITIVE,
        ];
        // Values whose scaled form sits on or next to a half.
        for k in 0..2_000u32 {
            let half = (f64::from(k) + 0.5) / 100.0;
            specials.extend([half, half.next_up(), half.next_down()]);
        }
        let mut z = 0x1234_5678u64;
        for _ in 0..200_000 {
            z = crate::tables::splitmix64(z);
            specials.push(f64::from_bits(z));
            specials.push((z >> 11) as f64 / (1u64 << 40) as f64 * 1e3);
        }
        for x in specials {
            assert_eq!(quant(x), reference(x), "quant({x:e})");
        }
    }

    #[test]
    fn shortest_as_path_wins_without_tuples() {
        let atlas = atlas_line();
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        let (g, r) = run(&atlas, &cfg);
        // 1→5→4 (3 ASes) beats 1→2→3→4 (4 ASes).
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 5, 4]);
    }

    #[test]
    fn tuple_check_blocks_unobserved_transit() {
        let mut atlas = atlas_line();
        // Only the long path's triples are observed.
        for (a, b, c) in [(1u32, 2u32, 3u32), (2, 3, 4)] {
            atlas
                .tuples
                .insert(Triple::canonical(Asn::new(a), Asn::new(b), Asn::new(c)));
        }
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_from_src = false;
        let (g, r) = run(&atlas, &cfg);
        // (1,5,4) unobserved and AS5's degree is 10 > 5 ⇒ blocked.
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 2, 3, 4]);
    }

    #[test]
    fn low_degree_middle_as_is_exempt() {
        let mut atlas = atlas_line();
        for (a, b, c) in [(1u32, 2u32, 3u32), (2, 3, 4)] {
            atlas
                .tuples
                .insert(Triple::canonical(Asn::new(a), Asn::new(b), Asn::new(c)));
        }
        // Drop AS5's degree to the threshold: check skipped (§4.3.2,
        // "visibility into ASes at the edge is limited").
        atlas.as_degree.insert(Asn::new(5), 3);
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_from_src = false;
        let (g, r) = run(&atlas, &cfg);
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 5, 4]);
    }

    #[test]
    fn provider_check_blocks_non_provider_entry() {
        let mut atlas = atlas_line();
        // Destination AS4's only observed provider is AS3 (not AS5).
        atlas
            .providers
            .insert(Asn::new(4), [Asn::new(3)].into_iter().collect());
        let mut cfg = PredictorConfig::full();
        cfg.use_from_src = false;
        cfg.use_tuples = false;
        cfg.use_prefs = false;
        let (g, r) = run(&atlas, &cfg);
        // Figure 3's example: 1-5-4 is shorter but 5 is not a provider
        // for 4.
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 2, 3, 4]);
    }

    #[test]
    fn preferences_break_equal_length_ties() {
        // Two equal-length routes: 1→2→4... build 1→2→4 and 1→5→4 (both
        // 3 ASes) and make AS1 prefer 2 over 5.
        let mut atlas = Atlas::default();
        let cl = ClusterId::new;
        for (f, t, lat) in [(1u32, 2u32, 9.0), (2, 4, 9.0), (1, 5, 1.0), (5, 4, 1.0)] {
            atlas.links.insert(
                (cl(f), cl(t)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(lat)),
                    plane: Plane::TO_DST,
                },
            );
        }
        for c in [1u32, 2, 4, 5] {
            atlas.cluster_as.insert(cl(c), Asn::new(c));
            atlas.as_degree.insert(Asn::new(c), 10);
        }
        atlas.prefs.insert((Asn::new(1), Asn::new(5), Asn::new(2)));
        let mut cfg = PredictorConfig::with_prefs();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        // Without preferences the deterministic tie-break picks the route
        // via AS2 (inter-AS latencies do not enter the cost metric — the
        // GRAPH cost charges [1, 0] per AS crossing, §4.2.1).
        let mut cfg2 = cfg.clone();
        cfg2.use_prefs = false;
        let (g2, r2) = run(&atlas, &cfg2);
        assert_eq!(path_of(&g2, &r2, src_node(&g2, 1)), vec![1, 2, 4]);
        // The observed preference (1: 5 > 2) flips the equal-length tie
        // (Figure 3's mechanism).
        let (g, r) = run(&atlas, &cfg);
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 5, 4]);
    }

    #[test]
    fn from_src_plane_is_used_first() {
        // FROM_SRC has a direct src link 1→4 that TO_DST lacks.
        let mut atlas = Atlas::default();
        let cl = ClusterId::new;
        atlas.links.insert(
            (cl(1), cl(2)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::TO_DST,
            },
        );
        atlas.links.insert(
            (cl(2), cl(4)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::TO_DST,
            },
        );
        atlas.links.insert(
            (cl(1), cl(4)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::FROM_SRC,
            },
        );
        for c in [1u32, 2, 4] {
            atlas.cluster_as.insert(cl(c), Asn::new(c));
        }
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        let g = PredictionGraph::build(&atlas, &cfg);
        let r = search(&g, &atlas, &cfg, cl(4), PrefixId::new(0), Asn::new(4)).unwrap();
        // The FROM_SRC source node sees the direct path.
        let srcs = g.source_nodes(cl(1));
        let direct = r.cluster_path(&g, srcs[0]).unwrap();
        assert_eq!(direct.len(), 2, "FROM_SRC direct link: {direct:?}");
        // The TO_DST fallback sees the two-hop path.
        let fallback = r.cluster_path(&g, srcs[1]).unwrap();
        assert_eq!(fallback.len(), 3);
    }

    #[test]
    fn unreachable_source_has_no_label() {
        let atlas = atlas_line();
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        let (g, r) = run(&atlas, &cfg);
        // Cluster 4 is the destination; path from it to itself is trivial,
        // but nothing routes *to* cluster 1 (no in-edges toward 1 exist
        // in the reversed direction from 4)... source 4 should have a
        // label, cluster 1 reaches it, but a fresh sink-only cluster is
        // unreachable. Use node of cluster 3: it must have a label.
        assert!(r.reached(src_node(&g, 3)));
        // All labelled paths terminate at the destination.
        for n in 0..g.n_nodes() as u32 {
            if r.reached(n) {
                let p = r.cluster_path(&g, n).unwrap();
                assert_eq!(*p.last().unwrap(), ClusterId::new(4));
            }
        }
    }

    #[test]
    fn graph_mode_prefers_customer_routes() {
        // Valley-free up/down with phases: source 1 has a 2-hop route via
        // its provider 2 and a 2-hop route via its customer 5; customer
        // route must win even though its exit latency is higher.
        let mut atlas = Atlas::default();
        let cl = ClusterId::new;
        for (f, t, lat) in [(1u32, 2u32, 1.0), (2, 4, 1.0), (1, 5, 9.0), (5, 4, 9.0)] {
            atlas.links.insert(
                (cl(f), cl(t)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(lat)),
                    plane: Plane::TO_DST,
                },
            );
        }
        for c in [1u32, 2, 4, 5] {
            atlas.cluster_as.insert(cl(c), Asn::new(c));
        }
        use inano_model::Relationship::*;
        let rels = [
            ((1u32, 2u32), Provider), // 2 is 1's provider
            ((2, 1), Customer),
            ((1, 5), Customer), // 5 is 1's customer
            ((5, 1), Provider),
            ((2, 4), Customer),
            ((4, 2), Provider),
            ((5, 4), Customer), // 4 is 5's customer: 5→4 goes down
            ((4, 5), Provider),
        ];
        for ((a, b), r) in rels {
            atlas.inferred_rels.insert((Asn::new(a), Asn::new(b)), r);
        }
        let cfg = PredictorConfig::graph();
        let g = PredictionGraph::build(&atlas, &cfg);
        let r = search(&g, &atlas, &cfg, cl(4), PrefixId::new(0), Asn::new(4)).unwrap();
        let src = g.source_nodes(cl(1))[0];
        let path: Vec<u32> = r
            .cluster_path(&g, src)
            .unwrap()
            .iter()
            .map(|c| c.raw())
            .collect();
        // Customer route 1→5→4 (via customer 5, then peering into 4)
        // wins over provider route 1→2→4 despite 9ms vs 1ms exits.
        assert_eq!(path, vec![1, 5, 4]);
    }
}
