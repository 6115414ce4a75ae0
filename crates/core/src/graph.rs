//! The layered prediction graph built from the atlas.
//!
//! Node space: `(cluster, plane, side)` flattened to a dense `u32`.
//! Planes model asymmetry (§4.3.1): plane 0 is `TO_DST`, plane 1 is
//! `FROM_SRC`; a forward path may cross from `FROM_SRC` into `TO_DST`
//! exactly once (edges only exist in that direction). Sides implement the
//! valley-free up/down construction of §4.2.3 in GRAPH mode: side 0 is
//! "up", side 1 is "down".
//!
//! Edges are stored as *incoming-forward* adjacency: for a forward edge
//! `u → v`, `in_edges(v)` holds `u`, because the search backtracks from
//! the destination (settling `v` relaxes `u`). The adjacency is one flat
//! CSR array: `in_edges(v)` is `edges[offsets[v]..offsets[v + 1]]`, in
//! the order the edges were generated. Each node also carries its
//! owner's dense AS id from the predictor's shared `AsTables`.

use crate::config::PredictorConfig;
use crate::tables::{AsTables, IdMap};
use inano_atlas::{Atlas, Plane};
use inano_model::{Asn, ClusterId, Relationship};
use std::sync::Arc;

/// One reverse-stored edge.
#[derive(Clone, Copy, Debug, Default)]
pub struct InEdge {
    /// Link latency in ms (the configured default when unannotated).
    pub latency: f64,
    /// The forward-source node (relaxed when the edge's target settles).
    pub src: u32,
    /// Minimum search phase that may traverse this edge (GRAPH mode).
    pub phase: u8,
    /// Crosses an AS boundary.
    pub inter: bool,
    /// The link was only observed in the opposite direction; traversing
    /// it this way is a fallback and is deprioritised by the search.
    pub reversed: bool,
    /// The target's AS is exempt from the 3-tuple check on this edge:
    /// its degree is at most the configured threshold and the edge is
    /// not reversed (§4.3.2; see the search for why reversed edges are
    /// never exempt).
    pub tuple_exempt: bool,
}

/// The prediction graph.
pub struct PredictionGraph {
    pub n_planes: usize,
    pub n_sides: usize,
    /// Dense index per cluster.
    pub cluster_idx: IdMap<ClusterId, u32>,
    /// ClusterId per dense index.
    pub clusters: Vec<ClusterId>,
    /// Owning AS per dense cluster index.
    pub cluster_as: Vec<Asn>,
    /// Dense AS id (from `tables`) per node.
    node_as: Vec<u32>,
    /// CSR row starts: node `v`'s in-edges are
    /// `edges[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    edges: Vec<InEdge>,
    tables: Arc<AsTables>,
}

/// Edges in generation order, tagged with their target node; turned
/// into CSR by a stable counting sort once the build is done.
type Pending = Vec<(u32, InEdge)>;

impl PredictionGraph {
    pub fn n_nodes(&self) -> usize {
        self.clusters.len() * self.n_planes * self.n_sides
    }

    /// Flatten (cluster, plane, side) to a node id.
    pub fn node(&self, cluster_dense: u32, plane: usize, side: usize) -> u32 {
        ((cluster_dense as usize * self.n_planes + plane) * self.n_sides + side) as u32
    }

    /// The cluster of a node.
    pub fn node_cluster(&self, node: u32) -> ClusterId {
        self.clusters[node as usize / (self.n_planes * self.n_sides)]
    }

    /// The AS of a node.
    pub fn node_asn(&self, node: u32) -> Asn {
        self.cluster_as[node as usize / (self.n_planes * self.n_sides)]
    }

    /// The dense AS id of a node (see `AsTables::dense`).
    #[inline]
    pub fn node_as(&self, node: u32) -> u32 {
        self.node_as[node as usize]
    }

    /// Incoming-forward edges of a node, in generation order.
    #[inline]
    pub fn in_edges(&self, node: u32) -> &[InEdge] {
        let v = node as usize;
        &self.edges[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The AS tables this graph's dense AS ids index into.
    pub(crate) fn tables(&self) -> &AsTables {
        &self.tables
    }

    /// Destination entry node for a cluster: `TO_DST` plane, down side.
    pub fn dest_node(&self, cluster: ClusterId) -> Option<u32> {
        let &c = self.cluster_idx.get(&cluster)?;
        Some(self.node(c, 0, self.n_sides - 1))
    }

    /// Source nodes to try, in order: `FROM_SRC` up node first when the
    /// plane exists, then the `TO_DST` up node (§4.3.1's fallback).
    pub fn source_nodes(&self, cluster: ClusterId) -> Vec<u32> {
        let Some(&c) = self.cluster_idx.get(&cluster) else {
            return Vec::new();
        };
        let mut v = Vec::with_capacity(2);
        if self.n_planes == 2 {
            v.push(self.node(c, 1, 0));
        }
        v.push(self.node(c, 0, 0));
        v
    }

    /// Build the graph for a config, with AS tables of its own.
    pub fn build(atlas: &Atlas, cfg: &PredictorConfig) -> PredictionGraph {
        PredictionGraph::build_with(atlas, cfg, Arc::new(AsTables::new(atlas, cfg)))
    }

    /// Build the graph for a config over shared AS tables, which must
    /// have been built from the same atlas.
    pub(crate) fn build_with(
        atlas: &Atlas,
        cfg: &PredictorConfig,
        tables: Arc<AsTables>,
    ) -> PredictionGraph {
        // Dense-index every cluster that appears in the link set.
        let mut cluster_idx: IdMap<ClusterId, u32> = IdMap::default();
        cluster_idx.reserve(atlas.prefix_cluster.len());
        let mut clusters: Vec<ClusterId> = Vec::new();
        let mut cluster_as: Vec<Asn> = Vec::new();
        let mut intern = |c: ClusterId| {
            *cluster_idx.entry(c).or_insert_with(|| {
                clusters.push(c);
                cluster_as.push(atlas.as_of_cluster(c).unwrap_or_default());
                (clusters.len() - 1) as u32
            })
        };
        // Dense ends of every link, in atlas order.
        let links: Vec<(u32, u32)> = atlas
            .links
            .keys()
            .map(|&(a, b)| (intern(a), intern(b)))
            .collect();
        // Clusters referenced only by prefix attachments still need nodes.
        for &c in atlas.prefix_cluster.values() {
            intern(c);
        }

        let per_cluster = cfg.n_planes() * cfg.n_sides();
        let mut node_as = Vec::with_capacity(clusters.len() * per_cluster);
        for &asn in &cluster_as {
            let dense = tables
                .dense(asn)
                .expect("the AS tables index every cluster's AS");
            node_as.extend(std::iter::repeat_n(dense, per_cluster));
        }
        let mut g = PredictionGraph {
            n_planes: cfg.n_planes(),
            n_sides: cfg.n_sides(),
            cluster_idx,
            clusters,
            cluster_as,
            node_as,
            offsets: Vec::new(),
            edges: Vec::new(),
            tables,
        };

        let mut pending: Pending = Vec::with_capacity(4 * links.len() + g.n_nodes());
        if cfg.use_rel_graph {
            g.build_rel_edges(atlas, cfg, &links, &mut pending);
        } else {
            g.build_directed_edges(atlas, cfg, &links, &mut pending);
        }
        g.build_plane_cross_edges(&mut pending);
        g.finish(cfg, pending);
        g
    }

    /// Lay the pending edges out as CSR rows (a stable counting sort by
    /// target, so each row keeps generation order) and flag the tuple
    /// exemption per edge.
    fn finish(&mut self, cfg: &PredictorConfig, pending: Pending) {
        let n = self.n_nodes();
        let mut offsets = vec![0u32; n + 1];
        for &(v, _) in &pending {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut edges = vec![InEdge::default(); pending.len()];
        for (v, mut e) in pending {
            e.tuple_exempt =
                !e.reversed && self.tables.degree(self.node_as[v as usize]) <= cfg.tuple_min_degree;
            let slot = &mut fill[v as usize];
            edges[*slot as usize] = e;
            *slot += 1;
        }
        self.offsets = offsets;
        self.edges = edges;
    }

    fn add_forward_edge(
        pending: &mut Pending,
        u: u32,
        v: u32,
        latency: f64,
        inter: bool,
        phase: u8,
    ) {
        PredictionGraph::add_edge_full(pending, u, v, latency, inter, phase, false);
    }

    fn add_edge_full(
        pending: &mut Pending,
        u: u32,
        v: u32,
        latency: f64,
        inter: bool,
        phase: u8,
        reversed: bool,
    ) {
        pending.push((
            v,
            InEdge {
                latency,
                src: u,
                phase,
                inter,
                reversed,
                tuple_exempt: false,
            },
        ));
    }

    /// iNano mode: observed links, per plane.
    ///
    /// Links are stored with their observed direction but traversable in
    /// both: predictions must also *leave* clusters that measurements only
    /// ever entered (an arbitrary destination's stub is only seen inbound
    /// by the vantage points, yet reverse paths out of it must still be
    /// predicted — §4.3.1 composes forward *and* reverse paths for every
    /// pair). The 3-tuple, preference and provider checks carry the
    /// export-policy directionality that raw direction encoded.
    fn build_directed_edges(
        &self,
        atlas: &Atlas,
        cfg: &PredictorConfig,
        links: &[(u32, u32)],
        pending: &mut Pending,
    ) {
        let key = |a: u32, b: u32| (u64::from(a) << 32) | u64::from(b);
        // The planes each direction was observed in.
        let mut observed: IdMap<u64, Plane> = IdMap::default();
        observed.reserve(links.len());
        for (&(cf, ct), ann) in links.iter().zip(atlas.links.values()) {
            observed.insert(key(cf, ct), ann.plane);
        }
        // Add both directions of each link, marking the unobserved one.
        // A link and its twin (the opposite direction, observed in the
        // same plane) yield the same two edges: the one first in atlas
        // order adds them.
        for (&(cf, ct), (&(from, to), ann)) in links.iter().zip(&atlas.links) {
            let inter = self.cluster_as[cf as usize] != self.cluster_as[ct as usize];
            let lat = ann
                .latency
                .map(|l| l.ms())
                .unwrap_or(cfg.default_link_latency_ms);
            let twin = observed.get(&key(ct, cf)).copied().unwrap_or_default();
            let twin_first = (to, from) < (from, to);
            for (plane, present, twin_seen) in [
                (0usize, ann.plane.to_dst, twin.to_dst),
                (1, ann.plane.from_src, twin.from_src),
            ] {
                if !present || plane >= self.n_planes || (twin_seen && twin_first) {
                    continue;
                }
                let (u, v) = (self.node(cf, plane, 0), self.node(ct, plane, 0));
                PredictionGraph::add_edge_full(pending, u, v, lat, inter, 1, false);
                // The reverse direction, unless it is this same edge (a
                // self-loop) or an unobserved direction the config
                // leaves out.
                let reversed = !twin_seen;
                if cf != ct && (!reversed || cfg.allow_reversed_links) {
                    PredictionGraph::add_edge_full(pending, v, u, lat, inter, 1, reversed);
                }
            }
        }
    }

    /// GRAPH mode: the valley-free up/down construction from inferred
    /// relationships (§4.2.3).
    ///
    /// Without the asymmetry refinement, links are symmetrised — GRAPH
    /// treats the atlas as "a graph capturing the Internet's physical
    /// topology" (§4). With `use_from_src`, §4.3.1's directionality kicks
    /// in: each plane only gets edges whose *forward traffic direction*
    /// was actually observed in that plane, which is what kills the
    /// "non-existent routes" GRAPH otherwise invents.
    fn build_rel_edges(
        &self,
        atlas: &Atlas,
        cfg: &PredictorConfig,
        links: &[(u32, u32)],
        pending: &mut Pending,
    ) {
        // Per unordered cluster pair: latency plus which directions were
        // observed in which plane. Index 0 = (lo → hi), 1 = (hi → lo).
        #[derive(Clone, Copy, Default)]
        struct PairInfo {
            lat: Option<f64>,
            to_dst: [bool; 2],
            from_src: [bool; 2],
        }
        let mut by_pair: IdMap<(u32, u32), PairInfo> = IdMap::default();
        for (&(cf, ct), ann) in links.iter().zip(atlas.links.values()) {
            let key = (cf.min(ct), cf.max(ct));
            let dir = usize::from(cf > ct);
            let e = by_pair.entry(key).or_default();
            if let Some(l) = ann.latency {
                e.lat = Some(e.lat.map_or(l.ms(), |x: f64| x.min(l.ms())));
            }
            e.to_dst[dir] |= ann.plane.to_dst;
            e.from_src[dir] |= ann.plane.from_src;
        }
        // A fixed generation order, whatever the map's iteration order.
        let mut pairs: Vec<((u32, u32), PairInfo)> = by_pair.into_iter().collect();
        pairs.sort_unstable_by_key(|&(key, _)| key);

        // Directionality only applies once the asymmetry refinement is on.
        let directional = self.n_planes == 2;
        for &((ci, cj), info) in &pairs {
            let (ai, aj) = (self.cluster_as[ci as usize], self.cluster_as[cj as usize]);
            let lat = info.lat.unwrap_or(cfg.default_link_latency_ms);
            let rel = if ai == aj {
                None // intra-AS
            } else {
                Some(
                    atlas
                        .inferred_rels
                        .get(&(ai, aj))
                        .copied()
                        .unwrap_or(Relationship::Peer),
                )
            };
            for p in 0..self.n_planes {
                // Was the (ci → cj) / (cj → ci) direction observed in
                // this plane? Without directionality, any observation of
                // the pair enables both.
                let obs = match p {
                    0 => info.to_dst,
                    _ => info.from_src,
                };
                let any = obs[0] || obs[1];
                let fwd_ij = if directional { obs[0] } else { any };
                let fwd_ji = if directional { obs[1] } else { any };
                if !fwd_ij && !fwd_ji {
                    continue;
                }
                let up = |c| self.node(c, p, 0);
                let down = |c| self.node(c, p, 1);
                let mut add = |u, v, inter, phase| {
                    PredictionGraph::add_forward_edge(pending, u, v, lat, inter, phase)
                };
                match rel {
                    None | Some(Relationship::Sibling) => {
                        let inter = ai != aj;
                        for ((x, y), seen) in [((ci, cj), fwd_ij), ((cj, ci), fwd_ji)] {
                            if !seen {
                                continue;
                            }
                            add(up(x), up(y), inter, 1);
                            add(down(x), down(y), inter, 1);
                        }
                    }
                    Some(Relationship::Provider) => {
                        // aj is ai's provider: up_i→up_j carries i→j
                        // traffic (phase 3), down_j→down_i carries j→i
                        // (phase 1).
                        if fwd_ij {
                            add(up(ci), up(cj), true, 3);
                        }
                        if fwd_ji {
                            add(down(cj), down(ci), true, 1);
                        }
                    }
                    Some(Relationship::Customer) => {
                        if fwd_ji {
                            add(up(cj), up(ci), true, 3);
                        }
                        if fwd_ij {
                            add(down(ci), down(cj), true, 1);
                        }
                    }
                    Some(Relationship::Peer) => {
                        if fwd_ij {
                            add(up(ci), down(cj), true, 2);
                        }
                        if fwd_ji {
                            add(up(cj), down(ci), true, 2);
                        }
                    }
                }
            }
        }

        // Self edges up_i → down_i: the "turn downhill here" transition,
        // phase 1 so pure customer routes settle first.
        for c in 0..self.clusters.len() as u32 {
            for p in 0..self.n_planes {
                let (u, d) = (self.node(c, p, 0), self.node(c, p, 1));
                PredictionGraph::add_forward_edge(pending, u, d, 0.0, false, 1);
            }
        }
    }

    /// One-way plane crossing: (c, FROM_SRC, s) → (c, TO_DST, s).
    fn build_plane_cross_edges(&self, pending: &mut Pending) {
        if self.n_planes < 2 {
            return;
        }
        for c in 0..self.clusters.len() as u32 {
            for s in 0..self.n_sides {
                let (u, v) = (self.node(c, 1, s), self.node(c, 0, s));
                PredictionGraph::add_forward_edge(pending, u, v, 0.0, false, 1);
            }
        }
    }

    /// Total edge count (diagnostics).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges, row by row (diagnostics and tests).
    pub fn edges(&self) -> &[InEdge] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::{LinkAnnotation, Plane};
    use inano_model::LatencyMs;

    /// A hand-built 4-cluster atlas: AS1(c1) -> AS2(c2) -> AS3(c3), plus
    /// c4 in AS2 (intra link with c2).
    fn toy_atlas() -> Atlas {
        let mut a = Atlas::default();
        let cl = ClusterId::new;
        for (f, t, lat, plane) in [
            (1, 2, 5.0, Plane::TO_DST),
            (2, 3, 7.0, Plane::TO_DST),
            (2, 4, 1.0, Plane::TO_DST),
            (1, 2, 5.0, Plane::FROM_SRC),
        ] {
            let e = a.links.entry((cl(f), cl(t))).or_insert(LinkAnnotation {
                latency: Some(LatencyMs::new(lat)),
                plane,
            });
            e.plane = e.plane.union(plane);
        }
        for (c, asn) in [(1, 1), (2, 2), (3, 3), (4, 2)] {
            a.cluster_as.insert(cl(c), Asn::new(asn));
        }
        a
    }

    #[test]
    fn directed_mode_counts() {
        let atlas = toy_atlas();
        let g = PredictionGraph::build(&atlas, &PredictorConfig::with_tuples());
        // 4 clusters × 2 planes × 1 side.
        assert_eq!(g.n_nodes(), 8);
        // TO_DST: 3 links × both directions; FROM_SRC: 1 × both; cross: 4.
        assert_eq!(g.n_edges(), 12);
        // Exactly half of the link edges are reversed-direction fallbacks.
        let rev = g.edges().iter().filter(|e| e.reversed).count();
        assert_eq!(rev, 4);
    }

    #[test]
    fn single_plane_when_from_src_disabled() {
        let atlas = toy_atlas();
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_from_src = false;
        let g = PredictionGraph::build(&atlas, &cfg);
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 6); // 3 links, both directions
    }

    #[test]
    fn rel_graph_builds_up_down() {
        let mut atlas = toy_atlas();
        // AS1 customer of AS2; AS2 provider relationship to AS3 unknown →
        // default peer.
        atlas
            .inferred_rels
            .insert((Asn::new(1), Asn::new(2)), Relationship::Provider);
        atlas
            .inferred_rels
            .insert((Asn::new(2), Asn::new(1)), Relationship::Customer);
        let g = PredictionGraph::build(&atlas, &PredictorConfig::graph());
        // 4 clusters × 1 plane × 2 sides.
        assert_eq!(g.n_nodes(), 8);
        // Edges: pair (1,2): up1→up2 (ph3) + down2→down1 (ph1) = 2;
        // pair (2,3) peer: up2→down3, up3→down2 = 2;
        // pair (2,4) intra: 4 (two dirs × two layers);
        // self edges: 4. Total 12.
        assert_eq!(g.n_edges(), 12);
        let phases: Vec<u8> = g.edges().iter().map(|e| e.phase).collect();
        assert!(phases.contains(&3));
        assert!(phases.contains(&2));
    }

    #[test]
    fn node_round_trips() {
        let atlas = toy_atlas();
        let g = PredictionGraph::build(&atlas, &PredictorConfig::full());
        for c in 0..g.clusters.len() as u32 {
            for p in 0..g.n_planes {
                for s in 0..g.n_sides {
                    let n = g.node(c, p, s);
                    assert_eq!(g.node_cluster(n), g.clusters[c as usize]);
                }
            }
        }
    }

    #[test]
    fn source_and_dest_nodes() {
        let atlas = toy_atlas();
        let g = PredictionGraph::build(&atlas, &PredictorConfig::full());
        let srcs = g.source_nodes(ClusterId::new(1));
        assert_eq!(srcs.len(), 2, "FROM_SRC first, TO_DST fallback");
        assert!(g.dest_node(ClusterId::new(3)).is_some());
        assert!(g.dest_node(ClusterId::new(99)).is_none());
    }
}
