//! Differential correctness of the delta-graph serving path: after any
//! random sequence of update batches (edge inserts, **edge deletions,
//! node removals**, new nodes, relabels), an incrementally-maintained
//! [`ServeEngine`] must answer **exactly** like a fresh engine built from
//! scratch on the materialized graph — same customers, same per-rule
//! `ConfStats`/confidence/η-gating — across worker counts {1, 2, 8} (plus
//! any `GPAR_WORKERS` override), and compaction must change nothing (up
//! to the id re-densification its `NodeRemap` reports when nodes were
//! removed).
//!
//! The ground truth deliberately has a different id space once nodes are
//! removed (it is rebuilt densely), so the comparison translates the
//! fresh engine's answers back into the overlay's stable id space — an
//! independent check of the compaction remap semantics as well.
//!
//! A quarter of the cases keep the generator's node numbering; the rest
//! scatter the ids with a seeded permutation ([`scattered`]), so the
//! centers a batch edits sit on every page of the id-paged serving state.
//!
//! The default case count is deliberately small (the suite builds many
//! engines per case); CI's delta-fuzz leg raises it via `PROPTEST_CASES`.

mod delta_fuzz;

use delta_fuzz::{
    label_universe, predicate_of, scattered, surface, surface_to_overlay_ids, worker_counts,
    Materialized,
};
use gpar::core::{ConfStats, Gpar};
use gpar::datagen::{generate_rules, synthetic, RuleGenConfig, SyntheticConfig};
use gpar::graph::NodeId;
use gpar::serve::{RuleCatalog, ServeConfig, ServeEngine};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::env_or(5))]

    #[test]
    fn incremental_answers_equal_fresh_rebuild(
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
        let mut catalog = RuleCatalog::new(g.vocab().clone());
        for r in &sigma {
            catalog.insert(Arc::new(r.clone()), ConfStats::default());
        }
        let labels = label_universe(&g);
        let base = Arc::new(g.clone());
        let mut truth = Materialized::of(&g);

        let cfg = |workers| ServeConfig { workers, eta: 0.5, ..Default::default() };
        let engines: Vec<ServeEngine> = worker_counts()
            .into_iter()
            .map(|w| ServeEngine::new(base.clone(), &catalog, cfg(w)))
            .collect();
        // Warm half the engines up front so updates exercise the
        // incremental warm-state repair; the rest stay cold and re-warm
        // over the overlay.
        for e in engines.iter().step_by(2) {
            e.identify(pred, None).expect("warm");
        }

        for raw in &batches {
            let update = truth.resolve_and_apply(raw, &labels);
            for e in &engines {
                e.apply_update(&update).expect("update batches are valid by construction");
            }
            let (fresh_graph, fwd) = truth.build();
            let fresh = ServeEngine::new(fresh_graph, &catalog, cfg(2));
            // Subset queries are issued in each engine's own id space over
            // the same underlying nodes.
            let overlay_subset: Vec<NodeId> = truth
                .live_ids()
                .into_iter()
                .step_by(3)
                .collect();
            let fresh_subset: Vec<NodeId> =
                overlay_subset.iter().map(|&v| fwd[v.index()].unwrap()).collect();
            let expect =
                surface_to_overlay_ids(surface(&fresh, pred, &fresh_subset), &fwd);
            for (e, w) in engines.iter().zip(worker_counts()) {
                prop_assert_eq!(
                    &surface(e, pred, &overlay_subset),
                    &expect,
                    "incremental (workers = {}) diverged from fresh rebuild",
                    w
                );
            }
        }

        // Compaction folds the overlay into CSR without changing answers —
        // modulo the id re-densification its remap reports when nodes
        // were removed.
        let overlay_subset: Vec<NodeId> = truth.live_ids().into_iter().step_by(3).collect();
        let before = surface(&engines[0], pred, &overlay_subset);
        let remap = engines[0].compact();
        prop_assert_eq!(engines[0].pending_deltas(), (0, 0));
        prop_assert_eq!(engines[0].pending_removals(), (0, 0));
        let (compacted_subset, expect_after) = match &remap {
            None => (overlay_subset, before),
            Some(r) => {
                let tr = |ids: Vec<NodeId>| -> Vec<NodeId> {
                    ids.into_iter().map(|v| r.get(v).expect("live ids survive")).collect()
                };
                (
                    overlay_subset.iter().map(|&v| r.get(v).expect("live")).collect(),
                    before.map(|(full, sub, rules)| (tr(full), tr(sub), rules)),
                )
            }
        };
        prop_assert_eq!(
            &surface(&engines[0], pred, &compacted_subset),
            &expect_after,
            "compact changed answers"
        );
    }
}
