//! Per-center d-neighborhood *sites*.
//!
//! Both DMine's `localMine` and EIP's `Matchc`/`Match` decide membership
//! per candidate center inside `G_d(v_x)` ("checks whether `v_x` is in
//! `P_R(x, G_d(v_x))`", §5.1). A [`CenterSite`] materializes exactly that:
//! the induced d-ball subgraph of one center with id mappings back to `G`.
//!
//! Evaluating *inside the site* rather than inside a larger fragment keeps
//! the semantics a pure function of `(G, v_x, d)` — independent of how
//! centers were grouped onto workers — which is what makes parallel
//! support counts deterministic across any worker count `n`. (For
//! patterns of radius ≤ d whose components are connected to `x` this
//! coincides with global matching, per the locality property; components
//! that `x` cannot reach are matched within the ball, the paper's implicit
//! semantic boundary.)

use crate::fragment::PartitionStrategy;
use crate::stats::chunk_evenly;
use gpar_graph::{d_neighborhood_with, Extracted, Graph, GraphView, NeighborhoodScratch, NodeId};

/// One candidate center with its materialized d-neighborhood `G_d(v_x)`.
#[derive(Debug, Clone)]
pub struct CenterSite {
    /// The center's id in the parent graph.
    pub center_global: NodeId,
    /// The center's id inside [`CenterSite::site`].
    pub center: NodeId,
    /// The induced d-ball subgraph plus id mappings.
    pub site: Extracted,
    /// Nodes per BFS depth `0..=d` (used for extendability estimates).
    pub layer_sizes: Vec<u32>,
}

impl CenterSite {
    /// Builds the site of `center` with radius `d`.
    pub fn build<G: GraphView + ?Sized>(g: &G, center: NodeId, d: u32) -> Self {
        Self::build_with(g, center, d, &mut NeighborhoodScratch::new())
    }

    /// As [`CenterSite::build`] but reusing `scratch` for the BFS,
    /// visited marks and id translation — create one scratch per
    /// worker/thread and amortize it across every site built (EIP
    /// partitioning, mining rounds, serve warm-up and serve write repair
    /// all build thousands of sites per pass).
    pub fn build_with<G: GraphView + ?Sized>(
        g: &G,
        center: NodeId,
        d: u32,
        scratch: &mut NeighborhoodScratch,
    ) -> Self {
        let (site, center_local) = d_neighborhood_with(g, center, d, scratch);
        let mut layer_sizes = vec![0u32; d as usize + 1];
        for &(_, depth) in scratch.last_layers() {
            layer_sizes[depth as usize] += 1;
        }
        Self { center_global: center, center: center_local, site, layer_sizes }
    }

    /// The site's graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.site.graph
    }

    /// Size `|V| + |E|` of the site (the load measure for balancing).
    pub fn load(&self) -> u64 {
        self.graph().size() as u64
    }
}

/// Builds the site of every center in input order, as one flat list.
///
/// This is the work-stealing execution model's site source: instead of
/// pre-assigning sites to workers ([`partition_sites`]), callers chunk the
/// flat list into task granules ([`chunk_by_load`]) and let the executor's
/// stealing even out per-site cost skew dynamically. One traversal scratch
/// is amortized across every build.
pub fn build_sites<G: GraphView + ?Sized>(g: &G, centers: &[NodeId], d: u32) -> Vec<CenterSite> {
    let mut scratch = NeighborhoodScratch::new();
    centers.iter().map(|&c| CenterSite::build_with(g, c, d, &mut scratch)).collect()
}

/// Splits `0..loads.len()` into at most `max_chunks` contiguous,
/// non-empty ranges of near-equal total load — the task granule for the
/// executor (a few chunks per worker keeps stealing effective without
/// per-site task overhead). Chunk `j` closes at the prefix-load boundary
/// `total·j/max_chunks`, so the result is a deterministic function of
/// `(loads, max_chunks)` alone; zero loads count as 1 so every site
/// contributes.
pub fn chunk_by_load(loads: &[u64], max_chunks: usize) -> Vec<std::ops::Range<usize>> {
    let mc = max_chunks.max(1) as u64;
    let total: u64 = loads.iter().map(|&l| l.max(1)).sum();
    let mut out: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &l) in loads.iter().enumerate() {
        acc += l.max(1);
        let chunk_no = out.len() as u64 + 1;
        if chunk_no < mc && acc >= total * chunk_no / mc {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < loads.len() {
        out.push(start..loads.len());
    }
    out
}

/// Builds sites for all centers and assigns them to `n` workers.
///
/// * [`PartitionStrategy::Balanced`] — LPT bin packing on site loads.
/// * [`PartitionStrategy::Hash`] — `center mod n` (skew baseline).
///
/// Returns one site list per worker; every center appears in exactly one
/// list, so summed per-center statistics never double count.
pub fn partition_sites<G: GraphView + ?Sized>(
    g: &G,
    centers: &[NodeId],
    d: u32,
    n: usize,
    strategy: PartitionStrategy,
) -> Vec<Vec<CenterSite>> {
    let n = n.max(1);
    let mut scratch = NeighborhoodScratch::new();
    let sites: Vec<CenterSite> =
        centers.iter().map(|&c| CenterSite::build_with(g, c, d, &mut scratch)).collect();
    let mut out: Vec<Vec<CenterSite>> = (0..n).map(|_| Vec::new()).collect();
    match strategy {
        PartitionStrategy::Hash => {
            for s in sites {
                let w = s.center_global.index() % n;
                out[w].push(s);
            }
        }
        PartitionStrategy::Balanced => {
            let mut order: Vec<usize> = (0..sites.len()).collect();
            let loads: Vec<u64> = sites.iter().map(|s| s.load()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(loads[i]));
            let mut bins = vec![0u64; n];
            let mut assign = vec![0usize; sites.len()];
            for i in order {
                let w = bins.iter().enumerate().min_by_key(|&(_, &l)| l).map(|(w, _)| w).unwrap();
                assign[i] = w;
                bins[w] += loads[i];
            }
            for (s, w) in sites.into_iter().zip(assign) {
                out[w].push(s);
            }
        }
    }
    out
}

/// Convenience: evenly chunk *already built* sites across workers in id
/// order (used when re-partitioning for a different `n` without the
/// balancing pass).
pub fn chunk_sites(sites: Vec<CenterSite>, n: usize) -> Vec<Vec<CenterSite>> {
    let refs: Vec<CenterSite> = sites;
    let chunks = chunk_evenly(&refs.iter().map(|s| s.center_global).collect::<Vec<_>>(), n);
    // Rebuild by matching center ids (cheap: move out of a map).
    let mut by_center: rustc_hash::FxHashMap<NodeId, CenterSite> =
        refs.into_iter().map(|s| (s.center_global, s)).collect();
    chunks
        .into_iter()
        .map(|chunk| chunk.into_iter().map(|c| by_center.remove(&c).unwrap()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpar_graph::{GraphBuilder, Vocab};

    fn chain(n: usize) -> (Graph, Vec<NodeId>) {
        let vocab = Vocab::new();
        let l = vocab.intern("n");
        let e = vocab.intern("e");
        let mut b = GraphBuilder::new(vocab);
        let vs: Vec<NodeId> = (0..n).map(|_| b.add_node(l)).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], e);
        }
        (b.build(), vs)
    }

    #[test]
    fn site_contains_exactly_the_d_ball() {
        let (g, vs) = chain(7);
        let s = CenterSite::build(&g, vs[3], 2);
        assert_eq!(s.graph().node_count(), 5); // v1..v5
        assert_eq!(s.layer_sizes, vec![1, 2, 2]);
        assert_eq!(s.site.global(s.center), vs[3]);
    }

    #[test]
    fn every_center_is_assigned_once() {
        let (g, vs) = chain(20);
        for strategy in [PartitionStrategy::Balanced, PartitionStrategy::Hash] {
            let parts = partition_sites(&g, &vs, 1, 3, strategy);
            assert_eq!(parts.len(), 3);
            let mut all: Vec<NodeId> = parts.iter().flatten().map(|s| s.center_global).collect();
            all.sort_unstable();
            assert_eq!(all, vs);
        }
    }

    #[test]
    fn balanced_assignment_evens_loads() {
        let (g, vs) = chain(30);
        let parts = partition_sites(&g, &vs, 2, 3, PartitionStrategy::Balanced);
        let loads: Vec<u64> = parts.iter().map(|p| p.iter().map(|s| s.load()).sum()).collect();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max - min <= 16, "loads should be near-even: {loads:?}");
    }

    #[test]
    fn chunk_by_load_covers_every_index_with_even_loads() {
        // Uniform loads: near-even chunk sizes, exactly max_chunks chunks.
        let chunks = chunk_by_load(&[1; 10], 4);
        assert_eq!(chunks.len(), 4);
        let flat: Vec<usize> = chunks.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
        // One dominating load gets its own chunk; the tail still splits.
        let skewed = chunk_by_load(&[100, 1, 1, 1, 1, 1, 1, 1], 4);
        assert_eq!(skewed[0], 0..1);
        let flat: Vec<usize> = skewed.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(flat, (0..8).collect::<Vec<_>>());
        assert!(skewed.iter().all(|r| !r.is_empty()));
        // Degenerate shapes.
        assert!(chunk_by_load(&[], 4).is_empty());
        assert_eq!(chunk_by_load(&[5], 4), vec![0..1]);
        assert_eq!(chunk_by_load(&[0, 0, 7], 1), vec![0..3]);
    }

    #[test]
    fn build_sites_matches_individual_builds() {
        let (g, vs) = chain(9);
        let flat = build_sites(&g, &vs, 2);
        assert_eq!(flat.len(), vs.len());
        for (s, &c) in flat.iter().zip(&vs) {
            let solo = CenterSite::build(&g, c, 2);
            assert_eq!(s.center_global, c);
            assert_eq!(s.graph().node_count(), solo.graph().node_count());
            assert_eq!(s.layer_sizes, solo.layer_sizes);
        }
    }

    #[test]
    fn chunking_preserves_all_sites() {
        let (g, vs) = chain(10);
        let sites: Vec<CenterSite> = vs.iter().map(|&c| CenterSite::build(&g, c, 1)).collect();
        let chunks = chunk_sites(sites, 4);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 10);
        assert_eq!(chunks.len(), 4);
    }
}
