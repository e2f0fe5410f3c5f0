//! Shared machinery of the delta-fuzz differential suites: an abstract
//! update-batch vocabulary resolved against the live universe at apply
//! time (so every generated batch is valid), an engine-independent
//! materialized ground truth, and the comparable answer surface of a
//! [`ServeEngine`]. Used by `prop_delta_equivalence` (incremental ≡
//! fresh rebuild) and `prop_coalesce_equivalence` (coalesced burst ≡
//! sequential application).
#![allow(dead_code)] // each test binary uses a subset

use gpar::core::{ConfStats, Predicate};
use gpar::graph::{Graph, GraphBuilder, GraphUpdate, Label, NodeId};
use gpar::serve::ServeEngine;
use proptest::prelude::TestRng;
use std::sync::Arc;

/// The most frequent edge triple of a synthetic graph, as its predicate.
pub fn predicate_of(g: &Graph) -> Option<Predicate> {
    let top = g.frequent_edge_patterns(1);
    let ((sl, el, dl), _) = top.first()?;
    Some(Predicate::new(
        gpar::pattern::NodeCond::Label(*sl),
        *el,
        gpar::pattern::NodeCond::Label(*dl),
    ))
}

/// The id-scattered strategy: `g` with its node ids permuted by a
/// Fisher–Yates shuffle seeded with `seed` (what perfbench's `--seed`
/// does to its frozen graphs), or `g` unchanged for seed 0. The serving
/// state is paged by id range, so where a label's nodes sit in the id
/// space decides which pages a batch edits: scattering puts the centers
/// of one predicate on every page — first, last and the one appended
/// nodes open — instead of wherever the generator's numbering left them.
/// Predicates and rules are patterns over labels; derive them before or
/// after, they are the same.
pub fn scattered(g: &Graph, seed: u64) -> Graph {
    if seed == 0 {
        return g.clone();
    }
    let n = g.node_count();
    let mut rng = TestRng::for_case("scattered", seed as u32);
    let mut new_id: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        new_id.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut labels = vec![g.node_label(NodeId(0)); n];
    for v in g.nodes() {
        labels[new_id[v.index()] as usize] = g.node_label(v);
    }
    let mut b = GraphBuilder::new(g.vocab().clone());
    for &l in &labels {
        b.add_node(l);
    }
    for v in g.nodes() {
        for e in g.out_edges(v) {
            b.add_edge(NodeId(new_id[v.index()]), NodeId(new_id[e.node.index()]), e.label);
        }
    }
    b.build()
}

/// Worker counts to compare: {1, 2, 8} plus any `GPAR_WORKERS` override.
pub fn worker_counts() -> Vec<usize> {
    let mut w = vec![1, 2, 8];
    if let Some(n) = gpar::exec::env_workers() {
        if !w.contains(&n) {
            w.push(n);
        }
    }
    w
}

/// An abstract update batch: indices are resolved modulo the live node /
/// label / edge universe at apply time, so every generated batch is valid.
/// Fields: (new nodes, new edges, relabels, edge deletions, node removals).
pub type RawBatch = (Vec<u32>, Vec<(u32, u32, u32)>, Vec<(u32, u32)>, Vec<u32>, Vec<u32>);

/// The engine-independent ground truth: node labels + liveness + edge
/// set, rebuilt into a dense CSR graph after every batch.
pub struct Materialized {
    pub node_labels: Vec<Label>,
    pub alive: Vec<bool>,
    pub edges: Vec<(NodeId, NodeId, Label)>,
    pub vocab: Arc<gpar::graph::Vocab>,
}

impl Materialized {
    pub fn of(g: &Graph) -> Self {
        let node_labels: Vec<Label> =
            (0..g.node_count() as u32).map(|v| g.node_label(NodeId(v))).collect();
        let alive = vec![true; node_labels.len()];
        let mut edges = Vec::new();
        for v in 0..g.node_count() as u32 {
            for e in g.out_edges(NodeId(v)) {
                edges.push((NodeId(v), e.node, e.label));
            }
        }
        Self { node_labels, alive, edges, vocab: g.vocab().clone() }
    }

    pub fn live_ids(&self) -> Vec<NodeId> {
        (0..self.alive.len() as u32).map(NodeId).filter(|v| self.alive[v.index()]).collect()
    }

    /// Resolves a raw batch against the current universe into a concrete
    /// [`GraphUpdate`], and applies it to the ground truth. Deletions are
    /// drawn from live nodes / existing edges so they are effective, and
    /// inserts/relabels avoid removed nodes so the batch always validates.
    pub fn resolve_and_apply(&mut self, raw: &RawBatch, labels: &[Label]) -> GraphUpdate {
        let (raw_nodes, raw_edges, raw_relabels, raw_del_edges, raw_del_nodes) = raw;
        let pick = |i: u32| labels[i as usize % labels.len()];

        // Node removals first: they reference the pre-batch graph, and
        // everything else in the batch must avoid them.
        let pre_live = self.live_ids();
        let mut del_nodes: Vec<NodeId> = Vec::new();
        if !pre_live.is_empty() {
            for &i in raw_del_nodes {
                del_nodes.push(pre_live[i as usize % pre_live.len()]);
            }
        }
        // Edge deletions reference existing edges of the pre-batch graph
        // (possibly edges the node removals would cascade anyway — a
        // legitimate overlap the engine must tolerate).
        let mut del_edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
        if !self.edges.is_empty() {
            for &i in raw_del_edges {
                del_edges.push(self.edges[i as usize % self.edges.len()]);
            }
        }

        // Apply removals to the truth: dead flags + incident edges (all
        // occurrences — the edge universe is a set).
        for &(s, d, l) in &del_edges {
            self.edges.retain(|&e| e != (s, d, l));
        }
        for &w in &del_nodes {
            self.alive[w.index()] = false;
            self.edges.retain(|&(s, d, _)| s != w && d != w);
        }

        // Inserts and relabels target the post-removal live universe.
        let new_nodes: Vec<Label> = raw_nodes.iter().map(|&i| pick(i)).collect();
        let first_new = self.node_labels.len() as u32;
        let mut live = self.live_ids();
        live.extend((0..new_nodes.len() as u32).map(|i| NodeId(first_new + i)));
        let resolve = |i: u32| live[i as usize % live.len()];
        let new_edges: Vec<(NodeId, NodeId, Label)> =
            raw_edges.iter().map(|&(s, d, l)| (resolve(s), resolve(d), pick(l))).collect();
        let relabels: Vec<(NodeId, Label)> =
            raw_relabels.iter().map(|&(v, l)| (resolve(v), pick(l))).collect();

        self.node_labels.extend(&new_nodes);
        self.alive.extend(std::iter::repeat_n(true, new_nodes.len()));
        for &(v, l) in &relabels {
            self.node_labels[v.index()] = l;
        }
        self.edges.extend(&new_edges);
        GraphUpdate { new_nodes, new_edges, relabels, del_edges, del_nodes }
    }

    /// Builds the dense ground-truth graph plus the overlay-id → dense-id
    /// translation (identity while no node was ever removed).
    pub fn build(&self) -> (Arc<Graph>, Vec<Option<NodeId>>) {
        let mut b = GraphBuilder::new(self.vocab.clone());
        let mut fwd: Vec<Option<NodeId>> = Vec::with_capacity(self.node_labels.len());
        for (i, &l) in self.node_labels.iter().enumerate() {
            if self.alive[i] {
                fwd.push(Some(b.add_node(l)));
            } else {
                fwd.push(None);
            }
        }
        for &(s, d, l) in &self.edges {
            b.add_edge(fwd[s.index()].unwrap(), fwd[d.index()].unwrap(), l);
        }
        (Arc::new(b.build()), fwd)
    }
}

/// The comparable answer surface of one engine for one predicate.
/// `None` means the predicate is unservable (every rule deactivated — a
/// relabel or deletion can starve a rule's demanded label out of the
/// graph), which a fresh rebuild must agree on too.
pub type AnswerSurface = Option<(Vec<NodeId>, Vec<NodeId>, Vec<(ConfStats, u64, bool)>)>;

pub fn surface(engine: &ServeEngine, pred: Predicate, subset: &[NodeId]) -> AnswerSurface {
    let full = engine.identify(pred, None).ok()?.customers;
    let sub = engine.identify(pred, Some(subset.to_vec())).expect("subset served").customers;
    let mut rules: Vec<(ConfStats, u64, bool)> = engine
        .top_rules(pred, usize::MAX)
        .expect("top_rules served")
        .into_iter()
        .map(|r| (r.stats, r.confidence.ranking_value().to_bits(), r.active))
        .collect();
    // Order-insensitive: rank ties may order differently across engines.
    rules.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.supp_r.cmp(&b.0.supp_r)));
    Some((full, sub, rules))
}

/// Translates a fresh (dense-id) surface back into the overlay id space
/// through the inverse of `fwd`, so it compares against incremental
/// engines whose ids never move.
pub fn surface_to_overlay_ids(s: AnswerSurface, fwd: &[Option<NodeId>]) -> AnswerSurface {
    let (full, sub, rules) = s?;
    let mut back: Vec<NodeId> = vec![NodeId(u32::MAX); fwd.len()];
    for (old, new) in fwd.iter().enumerate() {
        if let Some(n) = new {
            back[n.index()] = NodeId(old as u32);
        }
    }
    let tr = |ids: Vec<NodeId>| ids.into_iter().map(|v| back[v.index()]).collect::<Vec<_>>();
    Some((tr(full), tr(sub), rules))
}

/// The label universe updates draw from: every label the base graph uses
/// plus two fresh ones (exercising the rule re-activation scan).
pub fn label_universe(g: &Graph) -> Vec<Label> {
    let mut labels: Vec<Label> = g.node_label_histogram().keys().copied().collect();
    labels.extend(g.edge_label_histogram().keys().copied());
    labels.sort_unstable();
    labels.dedup();
    labels.push(g.vocab().intern("delta_fresh_node"));
    labels.push(g.vocab().intern("delta_fresh_edge"));
    labels
}
