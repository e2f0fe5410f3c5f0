//! Differential correctness of the coalescing write pipeline: a burst of
//! update batches submitted back-to-back — absorbed by the writer into
//! net generations under a positive coalescing window — must leave the
//! engine answering **bit-equal** to an engine that applied the same
//! batches strictly one at a time (and to a fresh rebuild on the
//! materialized ground truth): same customers, same per-rule
//! `ConfStats`/confidence/η-gating, across worker counts {1, 2, 8}.
//!
//! The burst path exercises everything the sequential path cannot:
//! delete + reinsert cancellation, relabel-chain collapse, cross-batch
//! net segmentation (a window-created node removed within the window),
//! and multi-batch union-ball invalidation — while the sequential twin
//! pins the already-proven one-generation-per-batch semantics. Every
//! submission must be individually acknowledged with `Ok`, and the burst
//! engine may only publish *fewer* (never more) snapshot generations.
//!
//! The default case count is deliberately small (the window linger makes
//! each case ~0.1 s per generation); CI raises it via `PROPTEST_CASES`.

mod delta_fuzz;

use delta_fuzz::{label_universe, predicate_of, surface, surface_to_overlay_ids, Materialized};
use gpar::core::{ConfStats, Gpar};
use gpar::datagen::{generate_rules, synthetic, RuleGenConfig, SyntheticConfig};
use gpar::graph::NodeId;
use gpar::serve::{Counter, RuleCatalog, ServeConfig, ServeEngine, Ts};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::env_or(5))]

    #[test]
    fn coalesced_burst_equals_sequential_application(
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
            2..6,
        ),
    ) {
        let g = synthetic(&SyntheticConfig::sized(nodes, nodes * 2, seed));
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
        let updates: Vec<_> =
            batches.iter().map(|raw| truth.resolve_and_apply(raw, &labels)).collect();

        // The sequential twin: one generation per batch, no window.
        let seq = ServeEngine::new(
            base.clone(),
            &catalog,
            ServeConfig { workers: 2, eta: 0.5, ..Default::default() },
        );
        seq.identify(pred, None).expect("warm");
        for u in &updates {
            seq.apply_update(u).expect("update batches are valid by construction");
        }

        let overlay_subset: Vec<NodeId> = truth.live_ids().into_iter().step_by(3).collect();
        let expect_seq = surface(&seq, pred, &overlay_subset);
        // Independent anchor: the fresh rebuild on the ground truth.
        let (fresh_graph, fwd) = truth.build();
        let fresh = ServeEngine::new(
            fresh_graph,
            &catalog,
            ServeConfig { workers: 2, eta: 0.5, ..Default::default() },
        );
        let fresh_subset: Vec<NodeId> =
            overlay_subset.iter().map(|&v| fwd[v.index()].unwrap()).collect();
        let expect_fresh = surface_to_overlay_ids(surface(&fresh, pred, &fresh_subset), &fwd);
        prop_assert_eq!(&expect_seq, &expect_fresh, "sequential twin diverged from rebuild");

        for workers in [1usize, 2, 8] {
            let burst = ServeEngine::new(
                base.clone(),
                &catalog,
                ServeConfig {
                    workers,
                    eta: 0.5,
                    coalesce_window: Duration::from_millis(100),
                    ..Default::default()
                },
            );
            burst.identify(pred, None).expect("warm");
            // Fire the whole burst before the first window can close;
            // the writer absorbs whatever it finds queued. (Equivalence
            // may not depend on how the burst splits into windows — a
            // straggler landing in its own generation must answer the
            // same.)
            let replies: Vec<_> = updates
                .iter()
                .map(|u| {
                    burst
                        .submit_update_from(u.clone(), Ts::now())
                        .expect("engine accepts while running")
                })
                .collect();
            for rx in replies {
                rx.recv_timeout(Duration::from_secs(60))
                    .expect("every burst member is acknowledged")
                    .expect("coalesced batches revalidate cleanly");
            }
            // Each published generation bumps the epoch once, so the
            // publish count is the epoch (the predicate may no longer be
            // servable, so no answer need carry it).
            let epoch = |engine: &ServeEngine| engine.metrics().counter(Counter::SnapshotPublishes);
            let (burst_epoch, seq_epoch) = (epoch(&burst), epoch(&seq));
            prop_assert!(
                burst_epoch <= seq_epoch,
                "coalescing may only merge generations, not mint extras \
                 (burst epoch {} vs sequential {})",
                burst_epoch,
                seq_epoch
            );
            prop_assert_eq!(
                &surface(&burst, pred, &overlay_subset),
                &expect_seq,
                "coalesced burst (workers = {}) diverged from sequential application",
                workers
            );
        }
    }
}
