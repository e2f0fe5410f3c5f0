//! Cross-shard differential fuzz: a [`ShardedEngine`]'s merged answers
//! must be **bit-equal** to a single unsharded [`ServeEngine`]'s — same
//! customers (full and candidate-subset), same per-rule
//! `ConfStats`/confidence/η-activation — across shard counts {1, 2, 4, 8}
//! (or just the `GPAR_SHARDS` override), after any random sequence of
//! update batches: edge inserts, relabels, new nodes, and deletions
//! whose union balls straddle shard halos. Shard-count invariance is the
//! whole correctness claim of the scatter/gather design: counters summed
//! at the merger reconstruct the exact global `ConfStats`, and the η
//! mask is applied once, globally — never per shard.
//!
//! A dedicated deterministic case deletes only **owner-crossing** edges
//! (endpoints owned by different shards), the exact shape where a
//! deletion's union ball reaches through one shard's halo into
//! another's owned range, so both sides must repair.
//!
//! Three cases in four scatter the node ids with a seeded permutation
//! (`delta_fuzz::scattered`), so each shard's contiguous owned range
//! holds centers on every page of its id-paged state.
//!
//! The default case count is deliberately small (each case runs up to
//! four sharded fronts next to the reference engine); CI raises it via
//! `PROPTEST_CASES` and pins shard counts via `GPAR_SHARDS`.

mod delta_fuzz;

use delta_fuzz::{
    label_universe, predicate_of, scattered, shard_counts, sharded_surface, surface, Materialized,
};
use gpar::core::{ConfStats, Gpar};
use gpar::datagen::{generate_rules, synthetic, RuleGenConfig, SyntheticConfig};
use gpar::graph::{GraphUpdate, NodeId};
use gpar::serve::{RuleCatalog, ServeConfig, ServeEngine, ShardedEngine};
use proptest::prelude::*;
use std::sync::Arc;

fn catalog_for(g: &gpar::graph::Graph, sigma: &[Gpar]) -> RuleCatalog {
    let mut catalog = RuleCatalog::new(g.vocab().clone());
    for r in sigma {
        catalog.insert(Arc::new(r.clone()), ConfStats::default());
    }
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(5))]

    #[test]
    fn sharded_answers_equal_single_engine(
        seed in 0u64..1_000,
        nodes in 60usize..140,
        rules in 2usize..4,
        batches in collection::vec(
            (
                collection::vec(0u32..64, 0..3),          // new nodes
                collection::vec((0u32..4096, 0u32..4096, 0u32..64), 0..6), // new edges
                collection::vec((0u32..4096, 0u32..64), 0..3),             // relabels
                collection::vec(0u32..4096, 0..4),                         // edge deletions
                collection::vec(0u32..4096, 0..2),                         // node removals
            ),
            1..4,
        ),
        scatter in 0u64..4, // 0 keeps the generator's numbering
    ) {
        let g = scattered(&synthetic(&SyntheticConfig::sized(nodes, nodes * 2, seed)), scatter);
        let Some(pred) = predicate_of(&g) else { return };
        let sigma: Vec<Gpar> = generate_rules(&g, &pred, &RuleGenConfig {
            count: rules,
            pattern_nodes: 4,
            pattern_edges: 5,
            max_radius: 2,
            seed,
        });
        if sigma.is_empty() {
            return;
        }
        let catalog = catalog_for(&g, &sigma);
        let labels = label_universe(&g);
        let base = Arc::new(g.clone());
        let mut truth = Materialized::of(&g);

        let cfg = ServeConfig { workers: 2, eta: 0.5, ..Default::default() };
        let single = ServeEngine::new(base.clone(), &catalog, cfg.clone());
        let fronts: Vec<ShardedEngine> = shard_counts()
            .into_iter()
            .map(|n| {
                ShardedEngine::new(
                    base.clone(),
                    &catalog,
                    ServeConfig { workers: 4, ..cfg.clone() },
                    n,
                )
            })
            .collect();
        // Warm alternating fronts (and the reference) up front, so
        // updates exercise both the incremental per-shard warm repair
        // and the cold re-warm-over-overlay path.
        single.identify(pred, None).expect("warm");
        for e in fronts.iter().step_by(2) {
            e.identify(pred, None).expect("warm");
        }

        for raw in &batches {
            let update = truth.resolve_and_apply(raw, &labels);
            single.apply_update(&update).expect("update batches are valid by construction");
            for e in &fronts {
                e.apply_update(&update).expect("broadcast update");
            }
            let subset: Vec<NodeId> = truth.live_ids().into_iter().step_by(3).collect();
            let expect = surface(&single, pred, &subset);
            for (e, n) in fronts.iter().zip(shard_counts()) {
                prop_assert_eq!(
                    &sharded_surface(e, pred, &subset),
                    &expect,
                    "{} shards diverged from the single engine",
                    n
                );
            }
        }

        // Broadcast compaction changes nothing — modulo the id
        // re-densification its (shard-identical) remap reports when
        // nodes were removed.
        let subset: Vec<NodeId> = truth.live_ids().into_iter().step_by(3).collect();
        let before = surface(&single, pred, &subset);
        let remap_single = single.compact();
        for (e, n) in fronts.iter().zip(shard_counts()) {
            let remap = e.compact();
            prop_assert_eq!(
                remap.is_some(),
                remap_single.is_some(),
                "{} shards disagree with the single engine on remapping",
                n
            );
            let (tr_subset, expect) = match &remap {
                None => (subset.clone(), before.clone()),
                Some(r) => {
                    let tr = |ids: Vec<NodeId>| -> Vec<NodeId> {
                        ids.into_iter().map(|v| r.get(v).expect("live ids survive")).collect()
                    };
                    (
                        subset.iter().map(|&v| r.get(v).expect("live")).collect(),
                        before.clone().map(|(full, sub, rules)| (tr(full), tr(sub), rules)),
                    )
                }
            };
            prop_assert_eq!(
                &sharded_surface(e, pred, &tr_subset),
                &expect,
                "{} shards diverged after broadcast compaction",
                n
            );
        }
    }
}

/// Deterministic halo-straddler: delete only edges whose endpoints are
/// owned by *different* shards. Each such deletion's union ball spans
/// the ownership boundary, so one shard repairs through its halo while
/// the neighbor repairs its own range — the sharpest case for the
/// per-shard invalidation argument.
#[test]
fn halo_straddling_deletions_stay_equal() {
    let g = synthetic(&SyntheticConfig::sized(120, 240, 7));
    let Some(pred) = predicate_of(&g) else { return };
    let sigma: Vec<Gpar> = generate_rules(
        &g,
        &pred,
        &RuleGenConfig { count: 3, pattern_nodes: 4, pattern_edges: 5, max_radius: 2, seed: 7 },
    );
    if sigma.is_empty() {
        return;
    }
    let catalog = catalog_for(&g, &sigma);
    let base = Arc::new(g.clone());
    let cfg = ServeConfig { workers: 2, eta: 0.5, ..Default::default() };
    for shards in shard_counts() {
        let front = ShardedEngine::new(base.clone(), &catalog, cfg.clone(), shards);
        let plan = front.plan();
        let mut cross: Vec<(NodeId, NodeId, gpar::graph::Label)> = Vec::new();
        for v in 0..g.node_count() as u32 {
            for e in g.out_edges(NodeId(v)) {
                if plan.owner_of(NodeId(v)) != plan.owner_of(e.node) {
                    cross.push((NodeId(v), e.node, e.label));
                }
            }
        }
        if shards == 1 {
            assert!(cross.is_empty(), "one shard owns everything");
        }
        // A fresh reference per shard count, so each comparison starts
        // from the same base graph.
        let single = ServeEngine::new(base.clone(), &catalog, cfg.clone());
        single.identify(pred, None).expect("warm");
        front.identify(pred, None).expect("warm");
        let subset: Vec<NodeId> = (0..g.node_count() as u32).map(NodeId).step_by(5).collect();
        for chunk in cross.chunks(8).take(4) {
            let up = GraphUpdate { del_edges: chunk.to_vec(), ..Default::default() };
            single.apply_update(&up).expect("valid deletion batch");
            front.apply_update(&up).expect("broadcast deletion batch");
            assert_eq!(
                sharded_surface(&front, pred, &subset),
                surface(&single, pred, &subset),
                "{shards} shards diverged on owner-crossing deletions"
            );
        }
    }
}
