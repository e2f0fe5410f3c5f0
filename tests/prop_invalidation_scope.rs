//! The invalidation set is *sound* and *tight* — now under deletions.
//!
//! Deletion makes invalidation non-monotone: cutting an edge can grow a
//! center's distance to the touched set, so the engine invalidates the
//! **union ball** — nodes within distance `d` of a touched node on the
//! pre-update *or* the post-update view.
//!
//! Sound: any center whose d-ball differs between the pre- and
//! post-update graph (the canary: an independently-computed d-ball
//! fingerprint diff) lies within the union ball, so its ledger record
//! was re-evaluated. Tight: the engine re-evaluates no more centers than
//! the post-update `L` holds inside the independently computed union
//! ball; nothing outside it is touched.
//!
//! `d` is pinned (`ServeConfig::d = Some(D)`) so the externally-checked
//! radius and the engine's are the same by construction. The post-update
//! ground truth is materialized densely (removed nodes squeezed out), so
//! all post-side measurements run through the old↔new id translation —
//! independently re-deriving the id contract `compact()` exposes.

use gpar::core::{ConfStats, Gpar, Predicate};
use gpar::datagen::{generate_rules, synthetic, RuleGenConfig, SyntheticConfig};
use gpar::graph::{ball, multi_source_distances, Graph, GraphBuilder, GraphUpdate, Label, NodeId};
use gpar::serve::{RuleCatalog, ServeConfig, ServeEngine};
use proptest::prelude::*;
use std::sync::Arc;

/// The evaluation radius this suite pins everywhere.
const D: u32 = 2;

fn predicate_of(g: &Graph) -> Option<Predicate> {
    let top = g.frequent_edge_patterns(1);
    let ((sl, el, dl), _) = top.first()?;
    Some(Predicate::new(
        gpar::pattern::NodeCond::Label(*sl),
        *el,
        gpar::pattern::NodeCond::Label(*dl),
    ))
}

/// An order-independent fingerprint of `G_d(c)`: the ball's nodes, their
/// labels, and the induced edges. Two equal fingerprints ⇒ identical
/// extracted sites ⇒ identical evaluation. Node ids are reported through
/// `tr`, so pre-graph (overlay-id) and post-graph (dense-id) fingerprints
/// compare in one shared id space.
type BallFingerprint = (Vec<(NodeId, Label)>, Vec<(NodeId, NodeId, Label)>);

fn ball_fingerprint(
    g: &Graph,
    c: NodeId,
    d: u32,
    tr: &dyn Fn(NodeId) -> NodeId,
) -> BallFingerprint {
    let nodes = ball(g, c, d);
    let mut labeled: Vec<(NodeId, Label)> =
        nodes.iter().map(|&v| (tr(v), g.node_label(v))).collect();
    labeled.sort_unstable();
    let mut edges = Vec::new();
    for &v in &nodes {
        for e in g.out_edges(v) {
            if nodes.binary_search(&e.node).is_ok() {
                edges.push((tr(v), tr(e.node), e.label));
            }
        }
    }
    edges.sort_unstable();
    (labeled, edges)
}

/// Materializes `g` + `update` through the independent builder path,
/// densely (removed nodes squeezed out). Returns the graph and the
/// overlay-id → dense-id map (`None` for removed slots).
fn materialize(g: &Graph, update: &GraphUpdate) -> (Arc<Graph>, Vec<Option<NodeId>>) {
    let mut labels: Vec<Label> =
        (0..g.node_count() as u32).map(|v| g.node_label(NodeId(v))).collect();
    labels.extend(&update.new_nodes);
    for &(v, l) in &update.relabels {
        labels[v.index()] = l;
    }
    let mut alive = vec![true; labels.len()];
    let mut edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
    for v in 0..g.node_count() as u32 {
        for e in g.out_edges(NodeId(v)) {
            edges.push((NodeId(v), e.node, e.label));
        }
    }
    for &(s, d, l) in &update.del_edges {
        edges.retain(|&e| e != (s, d, l));
    }
    for &w in &update.del_nodes {
        alive[w.index()] = false;
        edges.retain(|&(s, d, _)| s != w && d != w);
    }
    edges.extend(&update.new_edges);

    let mut b = GraphBuilder::new(g.vocab().clone());
    let mut fwd: Vec<Option<NodeId>> = Vec::with_capacity(labels.len());
    for (i, &l) in labels.iter().enumerate() {
        fwd.push(alive[i].then(|| b.add_node(l)));
    }
    for &(s, d, l) in &edges {
        b.add_edge(fwd[s.index()].unwrap(), fwd[d.index()].unwrap(), l);
    }
    (Arc::new(b.build()), fwd)
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(8))]

    #[test]
    fn invalidation_is_sound_and_tight(
        seed in 0u64..1_000,
        nodes in 60usize..140,
        raw_nodes in collection::vec(0u32..64, 0..3),
        raw_edges in collection::vec((0u32..4096, 0u32..4096, 0u32..64), 1..6),
        raw_relabels in collection::vec((0u32..4096, 0u32..64), 0..3),
        raw_del_edges in collection::vec(0u32..4096, 0..5),
        raw_del_nodes in collection::vec(0u32..4096, 0..2),
    ) {
        let g = synthetic(&SyntheticConfig::sized(nodes, nodes * 2, seed));
        let Some(pred) = predicate_of(&g) else { return };
        let sigma: Vec<Gpar> = generate_rules(&g, &pred, &RuleGenConfig {
            count: 2,
            pattern_nodes: 4,
            pattern_edges: 5,
            max_radius: D,
            seed,
        });
        if sigma.is_empty() {
            return;
        }
        let mut catalog = RuleCatalog::new(g.vocab().clone());
        for r in &sigma {
            catalog.insert(Arc::new(r.clone()), ConfStats::default());
        }

        // Resolve the abstract update against the graph's universe. Node
        // removals come first (they may only reference pre-batch ids) and
        // everything attaching state avoids them.
        let mut labels: Vec<Label> = g.node_label_histogram().keys().copied().collect();
        labels.extend(g.edge_label_histogram().keys().copied());
        labels.sort_unstable();
        labels.dedup();
        let pick = |i: u32| labels[i as usize % labels.len()];
        let del_nodes: Vec<NodeId> = {
            let mut v: Vec<NodeId> = raw_del_nodes
                .iter()
                .map(|&i| NodeId((i as usize % g.node_count()) as u32))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut base_edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
        for v in 0..g.node_count() as u32 {
            for e in g.out_edges(NodeId(v)) {
                base_edges.push((NodeId(v), e.node, e.label));
            }
        }
        let del_edges: Vec<(NodeId, NodeId, Label)> = raw_del_edges
            .iter()
            .map(|&i| base_edges[i as usize % base_edges.len()])
            .collect();
        let n_after = g.node_count() + raw_nodes.len();
        let live: Vec<NodeId> = (0..n_after as u32)
            .map(NodeId)
            .filter(|v| !del_nodes.contains(v))
            .collect();
        let resolve = |i: u32| live[i as usize % live.len()];
        let update = GraphUpdate {
            new_nodes: raw_nodes.iter().map(|&i| pick(i)).collect(),
            new_edges: raw_edges.iter().map(|&(s, d, l)| (resolve(s), resolve(d), pick(l))).collect(),
            relabels: raw_relabels.iter().map(|&(v, l)| (resolve(v), pick(l))).collect(),
            del_edges,
            del_nodes,
        };

        let pre = Arc::new(g.clone());
        let engine = ServeEngine::new(
            pre.clone(),
            &catalog,
            ServeConfig { workers: 2, eta: 0.5, d: Some(D), ..Default::default() },
        );
        engine.identify(pred, None).expect("warm");

        let report = engine.apply_update(&update).expect("update is valid by construction");
        let (post, fwd) = materialize(&g, &update);
        let mut back: Vec<NodeId> = vec![NodeId(u32::MAX); post.node_count()];
        for (old, new) in fwd.iter().enumerate() {
            if let Some(n) = new {
                back[n.index()] = NodeId(old as u32);
            }
        }

        // The union ball, independently: pre-distances on the pre graph,
        // post-distances on the dense post graph (seeds and keys mapped
        // through the id translation), per-node minimum.
        let pre_seeds: Vec<NodeId> =
            report.touched.iter().copied().filter(|v| v.index() < pre.node_count()).collect();
        let mut union_dist = multi_source_distances(&*pre, &pre_seeds, D);
        let post_seeds: Vec<NodeId> =
            report.touched.iter().filter_map(|&v| fwd.get(v.index()).copied().flatten()).collect();
        for (c, dd) in multi_source_distances(&*post, &post_seeds, D) {
            let old = back[c.index()];
            union_dist.entry(old).and_modify(|cur| *cur = (*cur).min(dd)).or_insert(dd);
        }

        // Tight: the engine re-evaluates at most the post-update centers
        // of `L` inside the union ball (a rebuilt group re-evaluates none).
        let x = pred.x_cond;
        let in_ball_centers = union_dist
            .iter()
            .filter(|&(_, &dd)| dd <= D)
            .filter_map(|(&c, _)| fwd.get(c.index()).copied().flatten())
            .filter(|&new_c| x.matches(post.node_label(new_c)))
            .count();
        prop_assert!(
            report.reevaluated <= in_ball_centers,
            "re-evaluated {} centers, but only {} of L lie inside the union ball",
            report.reevaluated, in_ball_centers
        );

        // Sound (the canary): diff every center's pre/post d-ball; any
        // divergence must lie inside the union ball (⇒ re-evaluated), and
        // everything outside it must be bit-identical (the locality
        // theorem, extended to the non-monotone case).
        let id = |v: NodeId| v;
        for old in 0..fwd.len() as u32 {
            let c = NodeId(old);
            let Some(new_c) = fwd.get(c.index()).copied().flatten() else {
                continue; // removed: its records were subtracted, not re-evaluated
            };
            if !x.matches(post.node_label(new_c)) {
                continue;
            }
            let in_ball = union_dist.get(&c).is_some_and(|&dd| dd <= D);
            if c.index() >= pre.node_count() {
                prop_assert!(in_ball, "new center {} must be invalidated", c);
                continue;
            }
            let tr = |v: NodeId| back[v.index()];
            let changed = ball_fingerprint(&pre, c, D, &id)
                != ball_fingerprint(&post, new_c, D, &tr);
            if changed {
                prop_assert!(in_ball, "center {} has a changed d-ball but was not invalidated", c);
            }
        }

        // And the answers stay exact (the end-to-end consequence), with
        // the fresh engine's dense-id answers translated back.
        let fresh = ServeEngine::new(
            post.clone(),
            &catalog,
            ServeConfig { workers: 2, eta: 0.5, d: Some(D), ..Default::default() },
        );
        // (`Err(UnknownPredicate)` is legitimate — a relabel or deletion
        // can starve a demanded label out of the graph — but both sides
        // must agree.)
        prop_assert_eq!(
            engine.identify(pred, None).map(|r| r.customers),
            fresh.identify(pred, None).map(|r| r
                .customers
                .into_iter()
                .map(|v| back[v.index()])
                .collect()),
            "stale answer after invalidation"
        );
    }
}
