//! The reference destination-rooted search: the label-setting
//! algorithm as first written, over `Option<Label>` per node, with every
//! refinement answered straight from the atlas's `BTreeSet`/`BTreeMap`
//! tables. Kept as the oracle the dense kernel in [`super`] is checked
//! against: for every graph, destination and node the two must give the
//! same cluster path. [`edge_rows`] likewise keeps the graph's edge
//! generation as first written, per-node `Vec`s and all, as the oracle
//! for the CSR build.

use crate::config::PredictorConfig;
use crate::graph::{InEdge, PredictionGraph};
use inano_atlas::Atlas;
use inano_model::{Asn, ClusterId, PrefixId, Relationship};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// The incoming-forward edges of every node of `g`, generated the way
/// the graph builder first did, with the tuple exemption computed from
/// the atlas. Uses `g` only for its node numbering.
pub fn edge_rows(g: &PredictionGraph, atlas: &Atlas, cfg: &PredictorConfig) -> Vec<Vec<InEdge>> {
    let mut rows: Vec<Vec<InEdge>> = vec![Vec::new(); g.n_nodes()];
    let mut add = |u: u32, v: u32, latency: f64, inter: bool, phase: u8, reversed: bool| {
        let exempt = !reversed && atlas.degree(g.node_asn(v)) <= cfg.tuple_min_degree;
        rows[v as usize].push(InEdge {
            latency,
            src: u,
            phase,
            inter,
            reversed,
            tuple_exempt: exempt,
        });
    };
    if cfg.use_rel_graph {
        #[derive(Clone, Copy, Default)]
        struct PairInfo {
            lat: Option<f64>,
            to_dst: [bool; 2],
            from_src: [bool; 2],
        }
        let mut pairs: HashMap<(u32, u32), PairInfo> = HashMap::new();
        for (&(from, to), ann) in &atlas.links {
            let (cf, ct) = (g.cluster_idx[&from], g.cluster_idx[&to]);
            let key = (cf.min(ct), cf.max(ct));
            let dir = usize::from(cf > ct);
            let e = pairs.entry(key).or_default();
            if let Some(l) = ann.latency {
                e.lat = Some(e.lat.map_or(l.ms(), |x: f64| x.min(l.ms())));
            }
            e.to_dst[dir] |= ann.plane.to_dst;
            e.from_src[dir] |= ann.plane.from_src;
        }
        let directional = g.n_planes == 2;
        for (&(ci, cj), info) in &pairs {
            let (ai, aj) = (g.cluster_as[ci as usize], g.cluster_as[cj as usize]);
            let lat = info.lat.unwrap_or(cfg.default_link_latency_ms);
            let rel = if ai == aj {
                None
            } else {
                Some(
                    atlas
                        .inferred_rels
                        .get(&(ai, aj))
                        .copied()
                        .unwrap_or(Relationship::Peer),
                )
            };
            for p in 0..g.n_planes {
                let obs = if p == 0 { info.to_dst } else { info.from_src };
                let any = obs[0] || obs[1];
                let fwd_ij = if directional { obs[0] } else { any };
                let fwd_ji = if directional { obs[1] } else { any };
                let up = |c| g.node(c, p, 0);
                let down = |c| g.node(c, p, 1);
                match rel {
                    None | Some(Relationship::Sibling) => {
                        for ((x, y), seen) in [((ci, cj), fwd_ij), ((cj, ci), fwd_ji)] {
                            if seen {
                                add(up(x), up(y), lat, ai != aj, 1, false);
                                add(down(x), down(y), lat, ai != aj, 1, false);
                            }
                        }
                    }
                    Some(Relationship::Provider) => {
                        if fwd_ij {
                            add(up(ci), up(cj), lat, true, 3, false);
                        }
                        if fwd_ji {
                            add(down(cj), down(ci), lat, true, 1, false);
                        }
                    }
                    Some(Relationship::Customer) => {
                        if fwd_ji {
                            add(up(cj), up(ci), lat, true, 3, false);
                        }
                        if fwd_ij {
                            add(down(ci), down(cj), lat, true, 1, false);
                        }
                    }
                    Some(Relationship::Peer) => {
                        if fwd_ij {
                            add(up(ci), down(cj), lat, true, 2, false);
                        }
                        if fwd_ji {
                            add(up(cj), down(ci), lat, true, 2, false);
                        }
                    }
                }
            }
        }
        for c in 0..g.clusters.len() as u32 {
            for p in 0..g.n_planes {
                add(g.node(c, p, 0), g.node(c, p, 1), 0.0, false, 1, false);
            }
        }
    } else {
        let mut observed: HashSet<(u32, u32, u8)> = HashSet::new();
        for (&(from, to), ann) in &atlas.links {
            let (cf, ct) = (g.cluster_idx[&from], g.cluster_idx[&to]);
            for (plane, present) in [(0u8, ann.plane.to_dst), (1, ann.plane.from_src)] {
                if present && (plane as usize) < g.n_planes {
                    observed.insert((cf, ct, plane));
                }
            }
        }
        let mut added: HashSet<(u32, u32, u8)> = HashSet::new();
        for (&(from, to), ann) in &atlas.links {
            let (cf, ct) = (g.cluster_idx[&from], g.cluster_idx[&to]);
            let inter = g.cluster_as[cf as usize] != g.cluster_as[ct as usize];
            let lat = ann
                .latency
                .map(|l| l.ms())
                .unwrap_or(cfg.default_link_latency_ms);
            for (plane, present) in [(0u8, ann.plane.to_dst), (1, ann.plane.from_src)] {
                if !present || (plane as usize) >= g.n_planes {
                    continue;
                }
                for (a, b) in [(cf, ct), (ct, cf)] {
                    let reversed = !observed.contains(&(a, b, plane));
                    if reversed && !cfg.allow_reversed_links {
                        continue;
                    }
                    if added.insert((a, b, plane)) {
                        let (u, v) = (g.node(a, plane as usize, 0), g.node(b, plane as usize, 0));
                        add(u, v, lat, inter, 1, reversed);
                    }
                }
            }
        }
    }
    if g.n_planes == 2 {
        for c in 0..g.clusters.len() as u32 {
            for s in 0..g.n_sides {
                add(g.node(c, 1, s), g.node(c, 0, s), 0.0, false, 1, false);
            }
        }
    }
    rows
}

/// Per-node route label.
#[derive(Clone, Copy, Debug)]
pub struct Label {
    pub hops: u16,
    pub exit: f64,
    /// Inter-AS hops taken over reversed (unobserved-direction) edges;
    /// fewer is better at equal AS-hop count.
    pub rev_hops: u16,
    /// The forward successor node (toward the destination).
    pub succ: u32,
    /// First two distinct ASes after this node's AS on the path
    /// (`None` when the path stays in this AS to the end).
    pub next2: (Option<Asn>, Option<Asn>),
    /// Phase in which the label was last improved; labels from earlier,
    /// already-closed phases are frozen.
    pub phase: u8,
}

/// The result of one reference search: labels for every node.
pub struct SearchResult {
    labels: Vec<Option<Label>>,
}

impl SearchResult {
    /// Reconstruct the forward cluster path from a node, collapsing
    /// layer transitions within a cluster.
    pub fn cluster_path(&self, g: &PredictionGraph, from: u32) -> Option<Vec<ClusterId>> {
        self.labels[from as usize]?;
        let mut out: Vec<ClusterId> = Vec::with_capacity(16);
        let mut cur = from;
        for _ in 0..4 * self.labels.len() {
            let c = g.node_cluster(cur);
            if out.last() != Some(&c) {
                out.push(c);
            }
            let l = self.labels[cur as usize]?;
            if l.succ == cur {
                return Some(out); // reached the destination node
            }
            cur = l.succ;
        }
        None // defensive: cycle in successor chain
    }
}

/// Run the search toward `dest_cluster` (the home of `dst_prefix`,
/// owned by `dst_as`).
pub fn search(
    g: &PredictionGraph,
    atlas: &Atlas,
    cfg: &PredictorConfig,
    dest_cluster: ClusterId,
    dst_prefix: PrefixId,
    dst_as: Asn,
) -> Option<SearchResult> {
    let dest_node = g.dest_node(dest_cluster)?;
    let mut labels: Vec<Option<Label>> = vec![None; g.n_nodes()];
    labels[dest_node as usize] = Some(Label {
        hops: 0,
        exit: 0.0,
        rev_hops: 0,
        succ: dest_node,
        next2: (None, None),
        phase: 1,
    });

    // Providers constraint set, resolved once.
    let providers = if cfg.use_providers {
        atlas.providers_for(dst_prefix, dst_as).cloned()
    } else {
        None
    };

    let max_phase = cfg.n_phases();
    for phase in 1..=max_phase {
        // (Re-)seed the heap with every labelled node so newly enabled
        // edge classes get relaxed.
        let mut heap: BinaryHeap<Reverse<(u16, u64, u32)>> = BinaryHeap::new();
        for (idx, l) in labels.iter().enumerate() {
            if let Some(l) = l {
                heap.push(Reverse((l.hops, quant(l.exit), idx as u32)));
            }
        }
        while let Some(Reverse((hops, exitq, node))) = heap.pop() {
            let Some(cur) = labels[node as usize] else {
                continue;
            };
            if cur.hops != hops || quant(cur.exit) != exitq {
                continue; // stale heap entry
            }
            let node_as = g.node_asn(node);
            for e in g.in_edges(node) {
                if e.phase > phase {
                    continue;
                }
                let u = e.src;
                let u_as = g.node_asn(u);
                // Frozen labels from closed phases are immutable.
                if let Some(ul) = &labels[u as usize] {
                    if ul.phase < phase {
                        continue;
                    }
                }

                let cand = if e.inter && u_as != node_as {
                    // Crossing from AS u_as into node_as.
                    if cfg.use_tuples {
                        if let Some(c_after) = first_as_after(&cur, node_as) {
                            // Low-degree middle ASes are exempt (their
                            // exports are under-observed, §4.3.2) — but
                            // only on observed-direction edges. A
                            // reversed edge has no observational support
                            // of its own, so it must be licensed by an
                            // observed triple (commutativity makes
                            // inbound observations license outbound
                            // reverse traversal); otherwise reversed
                            // shortcuts through stubs would fabricate
                            // transit the Internet never provides.
                            let exempt =
                                !e.reversed && atlas.degree(node_as) <= cfg.tuple_min_degree;
                            if !exempt && !atlas.has_triple(u_as, node_as, c_after) {
                                continue;
                            }
                        }
                    }
                    if let Some(provs) = &providers {
                        // Final entry into the destination AS.
                        if node_as == dst_as
                            && first_as_after(&cur, node_as).is_none()
                            && !provs.contains(&u_as)
                        {
                            continue;
                        }
                    }
                    Label {
                        hops: cur.hops + 1,
                        exit: 0.0,
                        rev_hops: cur.rev_hops + u16::from(e.reversed),
                        succ: node,
                        next2: (Some(node_as), first_as_after(&cur, node_as)),
                        phase,
                    }
                } else {
                    // Intra-AS, plane-cross or self edge.
                    Label {
                        hops: cur.hops,
                        exit: cur.exit + e.latency,
                        rev_hops: cur.rev_hops + u16::from(e.reversed),
                        succ: node,
                        next2: cur.next2,
                        phase,
                    }
                };

                if better(&cand, &labels[u as usize], u_as, atlas, cfg) {
                    heap.push(Reverse((cand.hops, quant(cand.exit), u)));
                    labels[u as usize] = Some(cand);
                }
            }
        }
    }

    Some(SearchResult { labels })
}

/// First AS after `asn` on the path a label describes.
fn first_as_after(l: &Label, asn: Asn) -> Option<Asn> {
    match l.next2 {
        (Some(a), _) if a != asn => Some(a),
        (Some(_), b) => b,
        (None, _) => None,
    }
}

/// Quantised exit cost for heap ordering (0.01 ms resolution keeps the
/// ordering total and deterministic).
fn quant(exit: f64) -> u64 {
    (exit * 100.0).round() as u64
}

/// Is `cand` a better label for a node in AS `a` than `cur`?
fn better(cand: &Label, cur: &Option<Label>, a: Asn, atlas: &Atlas, cfg: &PredictorConfig) -> bool {
    let Some(cur) = cur else { return true };
    if cand.hops != cur.hops {
        return cand.hops < cur.hops;
    }
    if cand.rev_hops != cur.rev_hops {
        // Paths sticking to observed link directions win: physical
        // observation is stronger evidence than inferred preference.
        return cand.rev_hops < cur.rev_hops;
    }
    if cfg.use_prefs {
        // Preference between the next ASes, when both are known and
        // differ (§4.3.3: applies to routes of the same length).
        if let (Some(b1), Some(b2)) = (first_as_after(cand, a), first_as_after(cur, a)) {
            if b1 != b2 {
                if atlas.prefers(a, b1, b2) {
                    return true;
                }
                if atlas.prefers(a, b2, b1) {
                    return false;
                }
            }
        }
    }
    if quant(cand.exit) != quant(cur.exit) {
        return cand.exit < cur.exit;
    }
    // Deterministic final tie-break.
    cand.succ < cur.succ
}

/// The dense kernel against this reference, on random small atlases and
/// on the seeded test scenario, over every rung of the Figure 5 ladder.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PredictionGraph;
    use crate::tables::AsTables;
    use crate::PathPredictor;
    use inano_atlas::{LinkAnnotation, Plane, Triple};
    use inano_model::{Ipv4, LatencyMs, Prefix, Relationship};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The graphs a predictor over `cfg` searches, each with the config
    /// it was built with: strict, then relaxed when reversed links are
    /// allowed outside GRAPH mode.
    fn graphs(atlas: &Atlas, cfg: &PredictorConfig) -> Vec<(PredictorConfig, PredictionGraph)> {
        let tables = Arc::new(AsTables::new(atlas, cfg));
        let mut strict = cfg.clone();
        strict.allow_reversed_links = false;
        let mut out = vec![(
            strict.clone(),
            PredictionGraph::build_with(atlas, &strict, Arc::clone(&tables)),
        )];
        if cfg.allow_reversed_links && !cfg.use_rel_graph {
            out.push((cfg.clone(), PredictionGraph::build_with(atlas, cfg, tables)));
        }
        out
    }

    /// The CSR rows hold exactly the edges the reference generation
    /// gives each node. Directed rows keep the reference's order; the
    /// reference generated GRAPH rows in hash-map order, so those are
    /// compared as sets.
    fn assert_rows_match(g: &PredictionGraph, atlas: &Atlas, cfg: &PredictorConfig) {
        let fields = |e: &InEdge| {
            (
                e.src,
                e.latency.to_bits(),
                e.phase,
                e.inter,
                e.reversed,
                e.tuple_exempt,
            )
        };
        let want = edge_rows(g, atlas, cfg);
        for (v, row) in want.iter().enumerate() {
            let mut want: Vec<_> = row.iter().map(fields).collect();
            let mut got: Vec<_> = g.in_edges(v as u32).iter().map(fields).collect();
            if cfg.use_rel_graph {
                want.sort_unstable();
                got.sort_unstable();
            }
            assert_eq!(got, want, "{cfg:?}: in-edges of node {v}");
        }
    }

    /// Every node's path toward every destination prefix must match.
    /// Returns how many (graph, destination, node) triples had a route.
    fn assert_kernel_matches(atlas: &Atlas, cfg: &PredictorConfig) -> usize {
        let mut routed = 0;
        for (built_with, g) in graphs(atlas, cfg) {
            assert_rows_match(&g, atlas, &built_with);
            for (&prefix, &cluster) in &atlas.prefix_cluster {
                let Some(&(_, dst_as)) = atlas.prefix_as.get(&prefix) else {
                    continue;
                };
                let want = search(&g, atlas, cfg, cluster, prefix, dst_as);
                let got = crate::search::search(&g, atlas, cfg, cluster, prefix, dst_as);
                let (Some(want), Some(got)) = (want, got) else {
                    panic!("destination {cluster} in one graph but not the other");
                };
                for node in 0..g.n_nodes() as u32 {
                    let path = want.cluster_path(&g, node);
                    assert_eq!(
                        got.cluster_path(&g, node),
                        path,
                        "{cfg:?}: node {node} toward {prefix} (cluster {cluster})"
                    );
                    routed += usize::from(path.is_some());
                }
            }
        }
        routed
    }

    /// Forward paths through the predictor (exact-keyed, cached, strict
    /// then relaxed) against uncached reference searches per prefix.
    fn assert_predictor_matches(atlas: Arc<Atlas>, cfg: &PredictorConfig) {
        let p = PathPredictor::new(Arc::clone(&atlas), cfg.clone());
        let gs: Vec<PredictionGraph> = graphs(&atlas, cfg).into_iter().map(|(_, g)| g).collect();
        let reference = |src: PrefixId, dst: PrefixId| -> Option<Vec<ClusterId>> {
            let src_cluster = *atlas.prefix_cluster.get(&src)?;
            let dst_cluster = *atlas.prefix_cluster.get(&dst)?;
            let &(_, dst_as) = atlas.prefix_as.get(&dst)?;
            gs.iter().find_map(|g| {
                let r = search(g, &atlas, cfg, dst_cluster, dst, dst_as)?;
                g.source_nodes(src_cluster)
                    .into_iter()
                    .find_map(|n| r.cluster_path(g, n))
            })
        };
        // Twice over, so the second pass is served from the cache.
        for _ in 0..2 {
            for &src in atlas.prefix_cluster.keys() {
                for &dst in atlas.prefix_cluster.keys() {
                    assert_eq!(
                        p.predict_forward(src, dst).ok(),
                        reference(src, dst),
                        "{cfg:?}: {src} -> {dst}"
                    );
                }
            }
        }
    }

    fn lat(choice: u8) -> Option<LatencyMs> {
        // Few distinct values, so equal-cost ties are common.
        [None, Some(0.5), Some(1.0), Some(1.0), Some(2.5)][usize::from(choice % 5)]
            .map(LatencyMs::new)
    }

    // A small random atlas exercising every table the search reads:
    // directed links in both planes, unannotated latencies,
    // clusters with no recorded AS, canonical and non-canonical
    // triples, preference cycles, per-AS and per-prefix providers,
    // inferred relationships, prefixes whose origin differs from
    // their cluster's AS, and clusters homing several prefixes (which
    // the search cache's key must tell apart exactly when their
    // searches differ).
    prop_compose! {
        fn arb_atlas()(
            n in 3u32..12,
            n_as in 2u32..7,
            owner in proptest::collection::vec(0u32..8, 12..13),
            links in proptest::collection::vec((0u32..12, 0u32..12, 0u8..3, 0u8..5), 2..40),
            tuples in proptest::collection::vec((0u32..7, 0u32..7, 0u32..7, any::<bool>()), 0..40),
            prefs in proptest::collection::vec((0u32..7, 0u32..7, 0u32..7), 0..20),
            degrees in proptest::collection::vec(0u32..10, 7..8),
            providers in proptest::collection::vec((0u32..7, 0u32..7), 0..10),
            refined in proptest::collection::vec((0u32..20, 0u32..7), 0..5),
            rels in proptest::collection::vec((0u32..7, 0u32..7, 0u8..4), 0..20),
            origins in proptest::collection::vec(0u32..9, 12..13),
            extra in proptest::collection::vec((0u32..12, 0u32..9), 0..8),
        ) -> Atlas {
            let mut a = Atlas::default();
            let cl = ClusterId::new;
            let asn = |i: u32| Asn::new(100 + i % n_as);
            for (f, t, plane, l) in links {
                // f == t makes a self-loop, which the atlas format allows.
                let (f, t) = (f % n, t % n);
                let plane = [Plane::TO_DST, Plane::FROM_SRC, Plane::TO_DST.union(Plane::FROM_SRC)]
                    [usize::from(plane)];
                let e = a.links.entry((cl(f), cl(t))).or_insert(LinkAnnotation {
                    latency: lat(l),
                    plane,
                });
                e.plane = e.plane.union(plane);
            }
            for c in 0..n {
                // Owner 7 leaves the cluster without a recorded AS.
                if owner[c as usize] != 7 {
                    a.cluster_as.insert(cl(c), asn(owner[c as usize]));
                }
            }
            // One prefix per cluster, then extra prefixes on random
            // clusters.
            let homes = (0..n)
                .map(|c| (c, origins[c as usize]))
                .chain(extra.into_iter().map(|(c, o)| (c % n, o)));
            for (i, (c, choice)) in homes.enumerate() {
                let pid = PrefixId::new(i as u32);
                a.prefix_cluster.insert(pid, cl(c));
                // Origins 7 and 8 differ from every cluster AS but one.
                let origin = match choice {
                    7 => Asn::new(999),
                    8 => asn(owner[c as usize] + 1),
                    _ => a.cluster_as.get(&cl(c)).copied().unwrap_or(Asn::new(999)),
                };
                let ip = Ipv4((i as u32 + 1) << 16);
                a.prefix_as.insert(pid, (Prefix::new(ip, 16), origin));
            }
            let n_prefixes = a.prefix_cluster.len() as u32;
            for (x, y, z, canonical) in tuples {
                let t = if canonical {
                    Triple::canonical(asn(x), asn(y), asn(z))
                } else {
                    Triple(asn(x), asn(y), asn(z))
                };
                a.tuples.insert(t);
            }
            for (x, y, z) in prefs {
                a.prefs.insert((asn(x), asn(y), asn(z)));
            }
            for (i, d) in degrees.into_iter().enumerate() {
                a.as_degree.insert(asn(i as u32), d);
            }
            for (x, y) in providers {
                a.providers.entry(asn(x)).or_default().insert(asn(y));
            }
            for (p, y) in refined {
                a.prefix_providers
                    .entry(PrefixId::new(p % n_prefixes))
                    .or_default()
                    .insert(asn(y));
            }
            for (x, y, r) in rels {
                let r = [
                    Relationship::Provider,
                    Relationship::Customer,
                    Relationship::Peer,
                    Relationship::Sibling,
                ][usize::from(r)];
                a.inferred_rels.insert((asn(x), asn(y)), r);
            }
            a
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn kernel_matches_reference_on_random_atlases(atlas in arb_atlas()) {
            let atlas = Arc::new(atlas);
            for (_, cfg) in PredictorConfig::ladder() {
                assert_kernel_matches(&atlas, &cfg);
                assert_predictor_matches(Arc::clone(&atlas), &cfg);
                // The strict-only variant, and a tighter tuple threshold.
                let mut strict = cfg.clone();
                strict.allow_reversed_links = false;
                strict.tuple_min_degree = 2;
                assert_kernel_matches(&atlas, &strict);
            }
        }
    }

    /// Day 0's atlas of a generated scenario: the same pipeline as the
    /// bench crate's `Scenario::build`.
    fn scenario_atlas(
        topo: inano_topology::TopologyConfig,
        n_vps: usize,
        n_agents: usize,
        traceroutes_per_agent: usize,
    ) -> Atlas {
        use inano_measure::VantagePoints;
        use inano_measure::{run_campaign, CampaignConfig, Clustering, ClusteringConfig};
        use inano_routing::RoutingOracle;
        use inano_topology::{build_internet, ChurnModel};

        let seed = topo.seed;
        let net = build_internet(&topo).expect("valid topology");
        let churn = ChurnModel::new(&net);
        let clustering = Clustering::derive(
            &net,
            &ClusteringConfig {
                seed,
                ..ClusteringConfig::default()
            },
        );
        let mut rng = inano_model::rng::rng_for(seed, "scenario-vps");
        let vps = VantagePoints::choose(&net, n_vps, n_agents, &mut rng);
        let oracle = RoutingOracle::new(&net, churn.day_state(0));
        let campaign = CampaignConfig {
            seed,
            traceroutes_per_agent,
            ..CampaignConfig::default()
        };
        let day0 = run_campaign(&oracle, &clustering, &vps, &campaign);
        inano_atlas::build_atlas(
            &net,
            &clustering,
            &day0,
            &inano_atlas::AtlasConfig::default(),
        )
    }

    #[test]
    fn kernel_matches_reference_on_the_test_scenario() {
        let atlas = scenario_atlas(inano_topology::TopologyConfig::tiny(7), 10, 12, 15);
        for (name, cfg) in PredictorConfig::ladder() {
            let routed = assert_kernel_matches(&atlas, &cfg);
            assert!(routed > 0, "{name}: the scenario must route something");
        }
    }

    /// Cold search cost per destination, kernel against reference, on
    /// the experiment-scale scenario (seed 1), for the full iNano
    /// config's strict and relaxed graphs. Each destination is searched
    /// by both in alternation, so drift on a shared machine hits both
    /// alike. Run with
    /// `cargo test --release -p inano-core search_cost -- --ignored --nocapture`.
    #[test]
    #[ignore = "a measurement (about a minute at experiment scale), not a check"]
    fn search_cost_against_reference() {
        use std::time::Instant;
        let mut topo = inano_topology::TopologyConfig::scaled(0.5);
        topo.seed = 1;
        let atlas = scenario_atlas(topo, 60, 80, 100);
        let cfg = PredictorConfig::full();
        for (name, (_, g)) in ["strict", "relaxed"].iter().zip(graphs(&atlas, &cfg)) {
            let (mut kernel, mut reference, mut n) = (0.0, 0.0, 0);
            for _ in 0..3 {
                for (&prefix, &cluster) in &atlas.prefix_cluster {
                    let Some(&(_, dst_as)) = atlas.prefix_as.get(&prefix) else {
                        continue;
                    };
                    let t = Instant::now();
                    let want = search(&g, &atlas, &cfg, cluster, prefix, dst_as);
                    reference += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let got = crate::search::search(&g, &atlas, &cfg, cluster, prefix, dst_as);
                    kernel += t.elapsed().as_secs_f64();
                    assert_eq!(want.is_some(), got.is_some());
                    n += 1;
                }
            }
            let per = |s: f64| s * 1e6 / f64::from(n);
            eprintln!(
                "{name}: {} nodes, {} edges; reference {:.0} us, kernel {:.0} us per destination \
                 ({:.2}x)",
                g.n_nodes(),
                g.n_edges(),
                per(reference),
                per(kernel),
                reference / kernel
            );
        }
    }
}
