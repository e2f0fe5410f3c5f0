//! k-hop neighborhood label sketches (§5.2 "guided search").
//!
//! For each node `v`, the sketch `K(v)` is a list `{(1, D_1), …, (k, D_k)}`
//! where `D_i` is the distribution of node labels *within* `i` hops of `v`
//! (cumulative, matching the worked Example 10 in the paper, where `D_2`
//! repeats everything already reachable at hop 1).
//!
//! Cumulative layers make the sketch sound as a pruning filter for subgraph
//! *monomorphism*: a match `h` can only shrink distances, so every pattern
//! node within `i` hops of `u'` maps to a distinct data node within `i`
//! hops of `h(u')`. Hence if for some layer `i` and label `ℓ` the pattern
//! needs more `ℓ`-nodes than the data offers (`D_i − D'_i < 0` in the
//! paper's notation), `v'` cannot match `u'` and is pruned. The surplus
//! `Σ_i (D_i − D'_i)` is the paper's ranking score `f(u', v')`.

use crate::graph::NodeId;
use crate::label::Label;
use crate::neighborhood::{bfs_layers_with, NeighborhoodScratch};
use crate::view::GraphView;
use rustc_hash::FxHashMap;

/// A cumulative k-hop label-frequency sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    /// `layers[i]` holds label counts within `i+1` hops, sorted by label.
    layers: Vec<Vec<(Label, u32)>>,
}

impl Sketch {
    /// Builds the sketch of `v` in `g` with `k` layers.
    pub fn build<G: GraphView + ?Sized>(g: &G, v: NodeId, k: u32) -> Self {
        Self::build_with(g, v, k, &mut NeighborhoodScratch::new())
    }

    /// As [`Sketch::build`] but reusing `scratch` for the BFS and the
    /// per-hop label buckets — no hashing and, once the scratch has grown,
    /// no traversal-side allocation. Guided search builds one data sketch
    /// per scored candidate, so this is the matcher's hot constructor.
    pub fn build_with<G: GraphView + ?Sized>(
        g: &G,
        v: NodeId,
        k: u32,
        scratch: &mut NeighborhoodScratch,
    ) -> Self {
        let k = k as usize;
        if k == 0 {
            return Self { layers: Vec::new() };
        }
        bfs_layers_with(g, v, k as u32, scratch);
        // Bucket the neighborhood's labels by hop; buffer k + 1 holds the
        // cumulative concatenation.
        if scratch.labels.len() < k + 1 {
            scratch.labels.resize_with(k + 1, Vec::new);
        }
        let (buckets, rest) = scratch.labels.split_at_mut(k);
        let cum = &mut rest[0];
        for b in buckets.iter_mut() {
            b.clear();
        }
        cum.clear();
        for &(n, depth) in &scratch.layers {
            if depth == 0 {
                continue; // the center itself is not part of its neighborhood
            }
            buckets[depth as usize - 1].push(g.node_label(n));
        }
        // Cumulative: layer i counts every node within i + 1 hops, so each
        // layer is the sorted run-length encoding of the growing prefix.
        let mut layers = Vec::with_capacity(k);
        for bucket in buckets.iter() {
            cum.extend_from_slice(bucket);
            cum.sort_unstable();
            let mut layer: Vec<(Label, u32)> = Vec::new();
            for &l in cum.iter() {
                match layer.last_mut() {
                    Some(last) if last.0 == l => last.1 += 1,
                    _ => layer.push((l, 1)),
                }
            }
            layers.push(layer);
        }
        Self { layers }
    }

    /// Builds a sketch from pre-computed cumulative per-layer label counts.
    /// Used by the pattern crate to sketch pattern nodes.
    pub fn from_layer_maps(maps: Vec<FxHashMap<Label, u32>>) -> Self {
        let layers = maps
            .into_iter()
            .map(|m| {
                let mut v: Vec<(Label, u32)> = m.into_iter().collect();
                v.sort_unstable_by_key(|&(l, _)| l);
                v
            })
            .collect();
        Self { layers }
    }

    /// Number of layers `k`.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Count of `label` within `hop` hops (1-based hop index).
    pub fn count(&self, hop: usize, label: Label) -> u32 {
        debug_assert!(hop >= 1);
        let layer = &self.layers[hop - 1];
        match layer.binary_search_by_key(&label, |&(l, _)| l) {
            Ok(i) => layer[i].1,
            Err(_) => 0,
        }
    }

    /// Whether this (data) sketch can *cover* a pattern sketch: for every
    /// layer and label, the data count is at least the pattern count.
    /// Returns `false` exactly when the paper's mismatch condition
    /// `D_i − D'_i < 0` holds for some `i`.
    pub fn covers(&self, pattern: &Sketch) -> bool {
        let k = self.depth().min(pattern.depth());
        for i in 0..k {
            for &(l, need) in &pattern.layers[i] {
                if self.count(i + 1, l) < need {
                    return false;
                }
            }
        }
        true
    }

    /// The paper's guidance score `f(u', v') = Σ_i (D_i − D'_i)`: total
    /// frequency surplus of this (data) sketch over the pattern sketch,
    /// summed over labels the pattern mentions. Larger surplus ⇒ more
    /// likely to extend to a full match. Returns `None` on mismatch.
    pub fn surplus(&self, pattern: &Sketch) -> Option<i64> {
        let k = self.depth().min(pattern.depth());
        let mut total: i64 = 0;
        for i in 0..k {
            for &(l, need) in &pattern.layers[i] {
                let have = self.count(i + 1, l) as i64;
                let diff = have - need as i64;
                if diff < 0 {
                    return None;
                }
                total += diff;
            }
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::Graph;
    use crate::label::Vocab;

    /// Star: center cust with 3 `like`-> restaurant, 1 `friend`-> cust;
    /// the friend has 1 `like`-> restaurant.
    fn star() -> (Graph, NodeId, NodeId) {
        let vocab = Vocab::new();
        let mut b = GraphBuilder::new(vocab.clone());
        let cust = vocab.intern("cust");
        let rest = vocab.intern("restaurant");
        let like = vocab.intern("like");
        let friend = vocab.intern("friend");
        let c = b.add_node(cust);
        let f = b.add_node(cust);
        b.add_edge(c, f, friend);
        for _ in 0..3 {
            let r = b.add_node(rest);
            b.add_edge(c, r, like);
        }
        let r = b.add_node(rest);
        b.add_edge(f, r, like);
        (b.build(), c, f)
    }

    #[test]
    fn sketch_layers_are_cumulative() {
        let (g, c, _) = star();
        let rest = g.vocab().get("restaurant").unwrap();
        let cust = g.vocab().get("cust").unwrap();
        let s = Sketch::build(&g, c, 2);
        assert_eq!(s.count(1, rest), 3);
        assert_eq!(s.count(1, cust), 1);
        // Hop 2 adds the friend's restaurant, cumulatively.
        assert_eq!(s.count(2, rest), 4);
        assert_eq!(s.count(2, cust), 1);
    }

    #[test]
    fn covers_and_surplus_agree() {
        let (g, c, f) = star();
        let rest = g.vocab().get("restaurant").unwrap();
        let sc = Sketch::build(&g, c, 2);
        let sf = Sketch::build(&g, f, 2);
        // "pattern" needing 2 restaurants within 1 hop.
        let mut need = FxHashMap::default();
        need.insert(rest, 2u32);
        let pat = Sketch::from_layer_maps(vec![need.clone(), need]);
        assert!(sc.covers(&pat));
        assert!(sc.surplus(&pat).is_some());
        assert!(!sf.covers(&pat)); // friend has only 1 restaurant at hop 1
        assert_eq!(sf.surplus(&pat), None);
    }

    #[test]
    fn surplus_ranks_richer_neighborhoods_higher() {
        let (g, c, f) = star();
        let rest = g.vocab().get("restaurant").unwrap();
        let mut need = FxHashMap::default();
        need.insert(rest, 1u32);
        let pat = Sketch::from_layer_maps(vec![need]);
        let sc = Sketch::build(&g, c, 2).surplus(&pat).unwrap();
        let sf = Sketch::build(&g, f, 2).surplus(&pat).unwrap();
        assert!(sc > sf, "center has more like-edges, so a larger surplus");
    }
}
