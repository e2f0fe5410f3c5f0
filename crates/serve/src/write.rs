//! The write path: one writer thread, a coalescing window, generation
//! builds and compaction.
//!
//! All mutation flows through one **writer thread**.
//! [`ServeEngine::apply_update`] enqueues a batch and blocks for its
//! outcome (read-your-writes); [`ServeEngine::submit_update_from`] does
//! not block. The writer drains the queue — plus an optional bounded
//! window ([`ServeConfig::coalesce_window`]) — and folds the burst into
//! one *net* generation with [`Coalescer`]: delete-then-reinsert cancels,
//! relabel chains collapse, inserts onto a node the burst itself removes
//! vanish. The net batch is applied to a copy-on-write successor of the
//! published snapshot, repaired off to the side, and made visible with
//! **one pointer swap + epoch bump**. A failure anywhere before the swap
//! — injected faults included — publishes nothing: every batch in the
//! generation fails typed, all-or-nothing.
//!
//! **What a successor copies** is what the update touches, not what the
//! snapshot holds. The overlay's logs are `Arc`-shared. Each group's
//! centers and each warm ledger's records live in a
//! [`PagedMap`](crate::PagedMap): a clone bumps a refcount per page of 64
//! ids, and an edit copies only the page it lands in. A group's rule side
//! ([`crate::index::GroupRules`]) is one more `Arc`, replaced only when a
//! rule's activation flips. Once the readers that pinned the predecessor
//! let go, dropping it frees just the pages its successor replaced.
//!
//! **The union-ball rule.** By the paper's locality property (§4.2) a
//! radius-`d` evaluation at center `v_x` reads nothing outside
//! `G_d(v_x)`, so an update touching nodes `T` can only affect centers
//! whose d-ball reaches `T`. Inserts only shrink distances, so a
//! post-update BFS from `T` finds them; a deletion can *grow* distances,
//! pushing a center whose ball lost content out of reach of `T`. The
//! writer therefore runs the multi-source BFS on both the pre- and the
//! post-update graph and invalidates the *union* ball (per-node minimum
//! distance). Then it
//!
//! 1. repairs each predicate's candidate set (new/relabeled centers in,
//!    relabeled-away **and removed** centers out),
//! 2. re-evaluates the in-ball + new centers of every *warmed* predicate
//!    and patches its ledger ([`PredicateState::repair`]), and
//! 3. rebuilds a group from scratch only when the update flips a label
//!    between present and absent, which can (de)activate a
//!    signature-gated rule in either direction.
//!
//! [`ServeEngine::compact`] folds the overlay back into a fresh CSR as a
//! generation of its own. With node removals the id space is
//! re-densified, and the index and warm ledgers are re-keyed through the
//! [`NodeRemap`]. The writer also compacts by itself once overlay
//! pressure crosses [`ServeConfig::compact_pressure`], taking the
//! remapping form only when the dead-slot fraction exceeds
//! [`ServeConfig::compact_dead_fraction`]. Every remap is logged with the
//! epoch that published it ([`ServeEngine::remaps_since`]).

use crate::engine::{EngineView, Shared, UpdateError, UpdateReport};
#[cfg(doc)]
use crate::engine::{ServeConfig, ServeEngine};
use crate::index::PredicateGroup;
#[cfg(doc)]
use crate::ledger::PredicateState;
use crate::read::WorkerCaches;
use gpar_core::Predicate;
use gpar_exec::{Injector, PopTimeout};
use gpar_graph::{
    multi_source_distances, Coalescer, DeltaGraph, FxHashMap, FxHashSet, GraphUpdate, GraphView,
    Label, NodeId, NodeRemap,
};
use gpar_obs::{Counter, HistKind, Span, Stage, TraceBuilder, TraceKind, Ts};
use parking_lot::Mutex;
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// A queued write: one update batch bound for the writer's coalescing
/// window, or a maintenance command the writer serializes with update
/// generations.
pub(crate) enum UpdateJob {
    Update {
        update: GraphUpdate,
        /// The submitter's schedule point: update latency and snapshot
        /// lag are measured from it (open-loop semantics, exactly like
        /// query queue wait — no coordinated omission).
        scheduled: Ts,
        reply: Sender<Result<UpdateReport, UpdateError>>,
    },
    /// Explicit [`ServeEngine::compact`], routed through the queue so it
    /// serializes with generations under the single-writer invariant.
    Compact { reply: Sender<Option<Arc<NodeRemap>>> },
    /// Test-only: occupies the writer for the given duration, letting
    /// tests queue a deterministic burst behind it.
    #[cfg(test)]
    Stall(std::time::Duration),
}

/// One update admitted into the current coalescing window, waiting for
/// its generation to publish.
struct AcceptedUpdate {
    scheduled: Ts,
    /// Ids assigned to this batch's appends — the dense continuation of
    /// the window so far, identical to sequential application.
    assigned: Vec<NodeId>,
    reply: Sender<Result<UpdateReport, UpdateError>>,
}

/// The single writer: owns every mutation of the published snapshot, so
/// generation builds never race each other. Pops one update, absorbs the
/// rest of the coalescing window, publishes the net generation, then
/// runs any maintenance job that closed the window. Exits when the
/// update injector is closed and drained.
pub(crate) fn writer_loop(shared: Arc<Shared>, jobs: Arc<Injector<UpdateJob>>) {
    while let Some(job) = jobs.pop() {
        let mut cur = Some(job);
        while let Some(job) = cur.take() {
            match job {
                UpdateJob::Update { update, scheduled, reply } => {
                    cur = shared.update_generation(&jobs, update, scheduled, reply);
                }
                UpdateJob::Compact { reply } => {
                    let _ = reply.send(shared.compact_generation());
                }
                #[cfg(test)]
                UpdateJob::Stall(d) => std::thread::sleep(d),
            }
        }
    }
}

impl Shared {
    /// Absorbs one popped update batch plus everything else queued
    /// within the coalescing window, validating each against the
    /// published overlay via the [`Coalescer`] (a rejected batch answers
    /// immediately and leaves the window untouched), then builds and
    /// publishes the net generation and replies to every accepted batch.
    /// Runs on the writer thread only. Returns a non-update job popped
    /// while the window was open — it closed the window and still needs
    /// to run.
    fn update_generation(
        &self,
        jobs: &Injector<UpdateJob>,
        first: GraphUpdate,
        first_scheduled: Ts,
        first_reply: Sender<Result<UpdateReport, UpdateError>>,
    ) -> Option<UpdateJob> {
        let mut tb = TraceBuilder::new(TraceKind::Update);
        let cur = self.view.load_full();
        let base_n = cur.graph.node_count();
        let mut coalescer = Coalescer::new();
        let mut accepted: Vec<AcceptedUpdate> = Vec::new();
        let mut carry = None;

        let absorb_started = Ts::now();
        let window_deadline = Ts::monotonic_now() + self.cfg.coalesce_window;
        let mut pending = Some((first, first_scheduled, first_reply));
        loop {
            let (update, scheduled, reply) = match pending.take() {
                Some(j) => j,
                None => {
                    if accepted.len() >= self.cfg.coalesce_max_batch.max(1) {
                        break;
                    }
                    // A `ZERO` window still merges everything *already*
                    // queued; a positive window lingers for late
                    // arrivals until the deadline.
                    let next = if self.cfg.coalesce_window.is_zero() {
                        match jobs.try_pop() {
                            Some(j) => j,
                            None => break,
                        }
                    } else {
                        match jobs.pop_until(window_deadline) {
                            PopTimeout::Item(j) => j,
                            PopTimeout::TimedOut | PopTimeout::Closed => break,
                        }
                    };
                    match next {
                        UpdateJob::Update { update, scheduled, reply } => {
                            (update, scheduled, reply)
                        }
                        // A compaction (or test stall) closes the
                        // window; the caller runs it after this publish.
                        other => {
                            carry = Some(other);
                            break;
                        }
                    }
                }
            };
            if gpar_chaos::should_poison_batch("serve::update::admit") {
                let _ = reply.send(Err(UpdateError::Rejected));
                self.clock.settle(1);
                continue;
            }
            let before = coalescer.appended();
            // `push` validates before absorbing, so the window state is
            // intact whether it rejects or panics (chaos failpoint
            // included) — later batches in the window are unaffected.
            let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gpar_chaos::failpoint("serve::update::coalesce");
                coalescer.push(&cur.graph, &update)
            }));
            match pushed {
                Ok(Ok(())) => {
                    // `push` capacity-checked the append, so `base_n + i`
                    // fits in `u32` — an overflowing batch was rejected
                    // with `IdSpaceExhausted` before any id was acked.
                    let assigned = (before..coalescer.appended())
                        .map(|i| {
                            NodeId(u32::try_from(base_n + i).expect("admission checked capacity"))
                        })
                        .collect();
                    accepted.push(AcceptedUpdate { scheduled, assigned, reply });
                }
                Ok(Err(invalid)) => {
                    let _ = reply.send(Err(invalid.into()));
                    self.clock.settle(1);
                }
                Err(_) => {
                    let _ = reply.send(Err(UpdateError::Panicked));
                    self.clock.settle(1);
                }
            }
        }
        tb.add(Stage::UpdateCoalesce, absorb_started.elapsed());

        if accepted.is_empty() {
            return carry;
        }
        let (net, summary) = coalescer.finish();
        // A window that cancelled out entirely (or held only no-ops) has
        // nothing to build. Otherwise the whole build runs against
        // copy-on-write clones of the published snapshot: a panic anywhere
        // inside (chaos failpoints included) publishes nothing, leaves the
        // served view untouched, and fails every batch of the window with
        // a typed error.
        let built = if net.is_empty() {
            Ok(None)
        } else {
            let publish_started = Ts::now();
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.build_generation(&cur, &net, &mut tb)
            }));
            tb.add(Stage::UpdatePublish, publish_started.elapsed());
            built
        };
        self.clock.settle(summary.updates);
        match built {
            // Nothing to publish — the window netted to nothing, or every
            // net batch deduplicated away against the live graph: no epoch
            // bump, and the whole window counts as coalesced.
            Ok(None) => {
                self.count_window(accepted.len(), None);
                for a in accepted {
                    let report = UpdateReport { assigned: a.assigned, ..Default::default() };
                    let _ = a.reply.send(Ok(report));
                }
            }
            Ok(Some(report)) => {
                self.count_window(accepted.len(), Some(&report));
                // Record before replying, so a snapshot taken after an
                // answer arrives is guaranteed to include its batch. The
                // window opener's end-to-end latency doubles as the
                // trace root.
                self.finish_trace(0, tb, accepted[0].scheduled.elapsed(), HistKind::UpdateLatency);
                for (i, a) in accepted.into_iter().enumerate() {
                    let lag = a.scheduled.elapsed();
                    self.obs.record(0, HistKind::SnapshotLag, lag);
                    if i > 0 {
                        self.obs.record(0, HistKind::UpdateLatency, lag);
                    }
                    let mut r = report.clone();
                    r.assigned = a.assigned;
                    let _ = a.reply.send(Ok(r));
                }
            }
            Err(_) => {
                for a in accepted {
                    let _ = a.reply.send(Err(UpdateError::Panicked));
                }
            }
        }
        // Release the predecessor before a possible self-compaction, so
        // that fold never runs with a third generation resident. Readers
        // that pinned it keep it alive; otherwise only the pages the
        // successor unshared are freed here, after the replies.
        drop(cur);
        self.maybe_autocompact();
        carry
    }

    /// Bumps every counter a write window moves, in one transaction, so a
    /// snapshot sees the window whole or not at all. `published` is the
    /// generation's report, `None` when the window published nothing.
    /// All accepted batches but the one publish count as coalesced, which
    /// keeps `updates_coalesced == updates - update publishes` exact.
    fn count_window(&self, accepted: usize, published: Option<&UpdateReport>) {
        let txn = self.obs.write_txn();
        txn.add(0, Counter::Updates, accepted as u64);
        let publishes = usize::from(published.is_some());
        txn.add(0, Counter::SnapshotPublishes, publishes as u64);
        txn.add(0, Counter::UpdatesCoalesced, (accepted - publishes) as u64);
        if let Some(report) = published {
            txn.add(0, Counter::UpdateReevaluated, report.reevaluated as u64);
            txn.add(0, Counter::UpdateRebuiltGroups, report.rebuilt_groups as u64);
        }
    }

    /// Builds the successor snapshot for one net batch sequence and
    /// publishes it with a single pointer swap. Everything here mutates
    /// copy-on-write clones; the published `cur` is never touched, so a
    /// panic (the caller catches it) is all-or-nothing. The net sequence
    /// is applied segment by segment — each contributes its pre/post
    /// invalidation BFS to one union ball — and repaired once against
    /// the final state.
    /// Returns `None` — publishing nothing, bumping nothing — when every
    /// net batch deduplicates away against the current graph (e.g. an
    /// insert of an edge that already exists).
    fn build_generation(
        &self,
        cur: &EngineView,
        net: &[GraphUpdate],
        tb: &mut TraceBuilder,
    ) -> Option<UpdateReport> {
        gpar_chaos::failpoint("serve::update::plan");
        let mut graph = cur.graph.clone();
        let mut index = cur.index.clone();
        let mut node_hist = cur.node_hist.clone();
        let mut edge_hist = cur.edge_hist.clone();
        let mut states = cur.states.lock().clone();
        let epoch = cur.epoch + 1;
        let mut report = UpdateReport::default();

        // 1. The invalidation ball radius (see the module docs): the
        // deepest radius any group evaluates at. `max(d, 1)` because a
        // center's LCWA class reads its out-neighbors' labels.
        let max_d = index.groups().map(|g| g.sigma.d).max().unwrap_or(0).max(1);

        // Union ball accumulated over every net batch: deletion makes
        // invalidation non-monotone (a center can lose ball content and
        // simultaneously lose its short path to the touched set), so
        // each batch contributes a pre-commit BFS when it deletes and a
        // post-commit BFS always, min-merged. The sequence is a valid
        // start→end transformation, so the union covers every center
        // whose d-ball changed anywhere in it.
        fn union_min(dist: &mut FxHashMap<NodeId, u32>, found: FxHashMap<NodeId, u32>) {
            for (v, d) in found {
                dist.entry(v).and_modify(|c| *c = (*c).min(d)).or_insert(d);
            }
        }
        let mut dist: FxHashMap<NodeId, u32> = FxHashMap::default();

        // Histogram maintenance helpers; labels coming into existence or
        // vanishing entirely can flip a rule's label-signature
        // satisfiability (activation on appearance, symmetric
        // deactivation on disappearance).
        let mut changed_labels: FxHashSet<Label> = Default::default();
        let bump = |hist: &mut FxHashMap<Label, u64>, l: Label, changed: &mut FxHashSet<Label>| {
            let n = hist.entry(l).or_insert(0);
            if *n == 0 {
                changed.insert(l);
            }
            *n += 1;
        };
        let drop_one =
            |hist: &mut FxHashMap<Label, u64>, l: Label, changed: &mut FxHashSet<Label>| {
                if let Some(n) = hist.get_mut(&l) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        hist.remove(&l);
                        changed.insert(l); // vanished
                    }
                }
            };

        // Per-predicate retired centers accumulated across the batches
        // (a center retired by one batch and re-admitted by the next is
        // reconciled by the final re-evaluation pass: it sits at
        // distance 0 in the union ball).
        let mut removed_by_pred: FxHashMap<Predicate, Vec<NodeId>> = FxHashMap::default();

        let mut effective = 0usize;
        for update in net {
            let applied = {
                let _s = Span::enter(tb, Stage::UpdateDiff);
                graph.diff(update).expect("coalesced net batches revalidate on the same overlay")
            };
            if applied.touched.is_empty() {
                continue;
            }
            effective += 1;
            let deletes = !applied.removed_edges.is_empty() || !applied.removed_nodes.is_empty();
            if deletes {
                let _s = Span::enter(tb, Stage::UpdateBfs);
                let n_pre = graph.node_count();
                let pre_seeds: Vec<NodeId> =
                    applied.touched.iter().copied().filter(|v| v.index() < n_pre).collect();
                union_min(&mut dist, multi_source_distances(&graph, &pre_seeds, max_d));
            }
            {
                let _s = Span::enter(tb, Stage::UpdateCommit);
                graph.commit(update, &applied);
            }
            // Delay-only failpoint: stretches the repair (and so the
            // snapshot-lag) window without unpublishing anything —
            // readers are served from `cur` throughout.
            gpar_chaos::delaypoint("serve::update::repair");
            {
                let _s = Span::enter(tb, Stage::UpdateBfs);
                union_min(&mut dist, multi_source_distances(&graph, &applied.touched, max_d));
            }

            for &c in &applied.assigned {
                bump(&mut node_hist, graph.node_label(c), &mut changed_labels);
            }
            // `applied.relabeled` is already net-coalesced per node.
            for &(v, old, new) in &applied.relabeled {
                if applied.assigned.contains(&v) {
                    continue; // new node: final label already counted above
                }
                drop_one(&mut node_hist, old, &mut changed_labels);
                bump(&mut node_hist, new, &mut changed_labels);
            }
            for &(_, l) in &applied.removed_nodes {
                drop_one(&mut node_hist, l, &mut changed_labels);
            }
            for &(_, _, l) in &applied.added_edges {
                bump(&mut edge_hist, l, &mut changed_labels);
            }
            for &(_, _, l) in &applied.removed_edges {
                drop_one(&mut edge_hist, l, &mut changed_labels);
            }

            // Candidate-set deltas, against the post-batch graph. A group
            // whose center set the batch leaves alone (every pure edge
            // change) is not even unshared.
            {
                let _s = Span::enter(tb, Stage::UpdateGroupRepair);
                let preds: Vec<Predicate> = index.groups().map(|g| g.predicate).collect();
                for pred in preds {
                    let group = index.group(&pred).expect("group listed above");
                    let (added, removed) = center_changes(group, &graph, &applied);
                    if added.is_empty() && removed.is_empty() {
                        continue;
                    }
                    let group = index.group_mut(&pred).expect("group listed above");
                    for &c in &removed {
                        if group.remove_center(c) {
                            report.removed_centers += 1;
                        }
                    }
                    for &c in &added {
                        if group.add_center(c) {
                            report.added_centers += 1;
                        }
                    }
                    if !removed.is_empty() {
                        removed_by_pred.entry(pred).or_default().extend(removed);
                    }
                }
            }

            report.touched.extend(applied.touched.iter().copied());
            report.added_edges += applied.added_edges.len();
            report.removed_edges += applied.removed_edges.len();
            report.removed_nodes += applied.removed_nodes.len();
        }
        if effective == 0 {
            return None;
        }
        report.touched.sort_unstable();
        report.touched.dedup();

        // 2. Rule activation / deactivation: rebuild exactly the
        // predicates whose rules *mention* a flipped label, against the
        // final graph and histograms; their warm state re-warms lazily
        // on the new snapshot.
        let mut rebuilt: Vec<Predicate> = Vec::new();
        if !changed_labels.is_empty() {
            let _s = Span::enter(tb, Stage::UpdateGroupRepair);
            let affected: Vec<Predicate> = self
                .catalog
                .predicates()
                .filter(|pred| {
                    self.catalog.indices_for(pred).iter().any(|&i| {
                        let sig = crate::index::LabelSignature::of_pattern(
                            self.catalog.entries()[i].rule.antecedent(),
                        );
                        sig.node_labels
                            .iter()
                            .chain(&sig.edge_labels)
                            .any(|l| changed_labels.contains(l))
                    })
                })
                .copied()
                .collect();
            for pred in affected {
                if index.rebuild_group(
                    &graph,
                    &self.catalog,
                    &pred,
                    self.cfg.d,
                    &self.opts(),
                    &node_hist,
                    &edge_hist,
                ) {
                    rebuilt.push(pred);
                }
            }
            report.rebuilt_groups = rebuilt.len();
            for pred in &rebuilt {
                states.remove(pred); // fresh group is already exact
                removed_by_pred.remove(pred);
            }
        }

        // 3. The per-group re-evaluation sets: every surviving center
        // inside the union ball — its d-ball (hence memberships, class)
        // may have changed.
        let mut repairs: Vec<(Predicate, Vec<NodeId>, Vec<NodeId>)> = Vec::new();
        {
            let _s = Span::enter(tb, Stage::UpdateGroupRepair);
            let preds: Vec<Predicate> = index.groups().map(|g| g.predicate).collect();
            for pred in preds {
                if rebuilt.contains(&pred) {
                    continue;
                }
                let group = index.group(&pred).expect("group listed above");
                // In id order, so the ledger patch unshares each page once.
                let mut reeval: Vec<NodeId> = dist
                    .iter()
                    .filter(|&(_, &dd)| dd <= group.sigma.d.max(1))
                    .map(|(&c, _)| c)
                    .filter(|&c| group.centers.contains(c))
                    .collect();
                reeval.sort_unstable();
                let removed = removed_by_pred.remove(&pred).unwrap_or_default();
                if !removed.is_empty() || !reeval.is_empty() {
                    repairs.push((pred, removed, reeval));
                }
            }
        }

        let next = Arc::new(EngineView {
            graph,
            index,
            node_hist,
            edge_hist,
            epoch,
            states: Mutex::new(states),
        });

        // 4. Warm-ledger repair, against the complete successor.
        // Predicates the generation didn't touch keep their state `Arc` —
        // shared with `cur`, still stamped with the epoch that last
        // touched them.
        let mut caches = WorkerCaches::default();
        for (pred, removed, reeval) in repairs {
            let _s = Span::enter(tb, Stage::UpdateLedgerPatch);
            let mut states = next.states.lock();
            let Some(state) = states.get_mut(&pred) else { continue };
            let group = next.index.group(&pred).expect("repairs hold live groups");
            let ev = self.evaluator(group, &mut caches);
            Arc::make_mut(state).repair(epoch, self.cfg.eta, &removed, &reeval, |c| {
                Self::evaluate_center(&next, group, &ev, c, &mut caches)
            });
            report.reevaluated += reeval.len();
        }
        self.drain_worker_counters(&mut caches);

        // 5. Publish: one pointer swap makes the generation current.
        // In-flight queries holding the old `Arc` finish against their
        // snapshot; new loads see this one.
        gpar_chaos::failpoint("serve::update::publish");
        self.view.store(next);
        self.view_epoch.set(epoch as i64);
        Some(report)
    }

    /// Overlay-pressure check after each published generation: folds the
    /// overlay back into a fresh CSR base once it has grown past
    /// [`ServeConfig::compact_pressure`] relative to the live graph —
    /// but only in the id-stable form (no pending removals) until dead
    /// slots alone exceed [`ServeConfig::compact_dead_fraction`], since
    /// an id remap invalidates caller-held node ids.
    fn maybe_autocompact(&self) {
        let cur = self.view.load_full();
        let g = &cur.graph;
        if g.is_clean() {
            return;
        }
        let size = (g.node_count() + g.edge_count()).max(1) as f64;
        let overlay = g.delta_node_count()
            + g.delta_edge_count()
            + g.tomb_edge_count()
            + g.removed_node_count()
            + g.relabel_count();
        let dead = g.removed_node_count() as f64 / g.node_count().max(1) as f64;
        if dead > self.cfg.compact_dead_fraction
            || (overlay as f64 / size > self.cfg.compact_pressure && g.removed_node_count() == 0)
        {
            self.compact_generation();
        }
    }

    /// Folds the overlay into a fresh base CSR, published as its own
    /// snapshot generation (epoch bump; answers unchanged either way).
    /// Runs on the writer thread only. Without node removals ids are
    /// stable and the candidate index and warm states carry over —
    /// compaction changes the representation, never an answer. With
    /// removals the id space is re-densified: index and ledgers are
    /// translated through the [`NodeRemap`] (monotone, so sorted
    /// structures stay sorted), and the remap is appended to the log
    /// behind [`ServeEngine::remaps_since`] just before the swap, so a
    /// reader that observes the new epoch always finds its remap.
    pub(crate) fn compact_generation(&self) -> Option<Arc<NodeRemap>> {
        let published = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cur = self.view.load_full();
            if cur.graph.is_clean() {
                return None;
            }
            let compacted = cur.graph.compact();
            let graph = DeltaGraph::new(Arc::new(compacted.graph));
            let epoch = cur.epoch + 1;
            let mut index = cur.index.clone();
            let mut states = cur.states.lock().clone();
            let remap = compacted.remap.map(Arc::new);
            if let Some(remap) = &remap {
                index.remap_ids(remap);
                for state in states.values_mut() {
                    Arc::make_mut(state).remap(remap, epoch);
                }
            }
            let next = Arc::new(EngineView {
                graph,
                index,
                node_hist: cur.node_hist.clone(),
                edge_hist: cur.edge_hist.clone(),
                epoch,
                states: Mutex::new(states),
            });
            gpar_chaos::failpoint("serve::update::publish");
            if let Some(r) = &remap {
                self.remap_log.lock().push((epoch, r.clone()));
            }
            self.view.store(next);
            self.view_epoch.set(epoch as i64);
            let txn = self.obs.write_txn();
            txn.incr(0, Counter::Compactions);
            txn.incr(0, Counter::SnapshotPublishes);
            drop(txn);
            remap
        }));
        // A publish-failpoint panic aborts the fold before the swap:
        // nothing published, readers unaffected, the writer survives.
        published.unwrap_or(None)
    }
}

/// The candidate-set delta implied by an applied update for one group:
/// nodes whose (new) label admits them as centers, and nodes that stop
/// being candidates — relabeled away from `x`'s condition or removed from
/// the graph outright.
fn center_changes(
    group: &PredicateGroup,
    graph: &DeltaGraph,
    applied: &gpar_graph::AppliedUpdate,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let x = group.predicate.x_cond;
    let mut added: Vec<NodeId> =
        applied.assigned.iter().copied().filter(|&c| x.matches(graph.node_label(c))).collect();
    let mut removed = Vec::new();
    // `applied.relabeled` is net-coalesced per node and never overlaps
    // `applied.removed_nodes`.
    for &(v, old, new) in &applied.relabeled {
        if applied.assigned.contains(&v) {
            continue; // new node: final label handled above
        }
        let (was, is) = (x.matches(old), x.matches(new));
        if is && !was {
            added.push(v);
        } else if was && !is {
            removed.push(v);
        }
    }
    for &(w, old) in &applied.removed_nodes {
        if x.matches(old) {
            removed.push(w);
        }
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RuleCatalog;
    use crate::engine::tests::{assert_matches_fresh_rebuild, counter, scenario};
    use crate::engine::{ServeConfig, ServeEngine, UpdateError};
    use crate::ledger::tests::{class_of, epoch_of, shared_pages};
    use gpar_core::{ConfStats, Gpar, LcwaClass};
    use gpar_exec::Priority;
    use gpar_graph::{Graph, GraphBuilder, Vocab};
    use gpar_pattern::PatternBuilder;
    use std::time::Duration;

    #[test]
    fn edge_insert_updates_answers_like_a_rebuild() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let (like, visit) = (vocab.get("like").unwrap(), vocab.get("visit").unwrap());
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        engine.identify(pred, None).unwrap(); // warm

        // Node 28 is an "unknown" cust (likes rest 29, no visit edge).
        // Giving it a visit edge flips it to positive.
        let report = engine
            .apply_update(&GraphUpdate {
                new_edges: vec![(NodeId(28), NodeId(29), visit)],
                ..Default::default()
            })
            .unwrap();
        assert!(report.reevaluated > 0, "touched centers must be re-evaluated");
        assert_matches_fresh_rebuild(&engine, &cat, pred);

        // A brand-new customer pair arrives and likes a new restaurant.
        let cust = vocab.get("cust").unwrap();
        let rest = vocab.get("rest").unwrap();
        let n = engine.graph_size().0 as u32;
        let report = engine
            .apply_update(&GraphUpdate {
                new_nodes: vec![cust, rest],
                new_edges: vec![(NodeId(n), NodeId(n + 1), like)],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(report.assigned, vec![NodeId(n), NodeId(n + 1)]);
        assert_eq!(report.added_centers, 1, "the new cust joins L");
        assert_matches_fresh_rebuild(&engine, &cat, pred);
        assert_eq!(counter(&engine, Counter::Updates), 2);
    }

    #[test]
    fn relabels_move_centers_in_and_out() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let (cust, bar) = (vocab.get("cust").unwrap(), vocab.get("bar").unwrap());
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        let before = engine.identify(pred, None).unwrap().customers;
        assert!(before.contains(&NodeId(0)));

        // cust 0 stops being a customer-typed node entirely.
        let report = engine
            .apply_update(&GraphUpdate { relabels: vec![(NodeId(0), bar)], ..Default::default() })
            .unwrap();
        assert_eq!(report.removed_centers, 1);
        assert!(!engine.identify(pred, None).unwrap().customers.contains(&NodeId(0)));
        assert_matches_fresh_rebuild(&engine, &cat, pred);

        // ...and comes back.
        let report = engine
            .apply_update(&GraphUpdate { relabels: vec![(NodeId(0), cust)], ..Default::default() })
            .unwrap();
        assert_eq!(report.added_centers, 1);
        assert_eq!(engine.identify(pred, None).unwrap().customers, before);
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    #[test]
    fn fresh_label_reactivates_dormant_rules() {
        let (g, cat0, pred) = scenario();
        let vocab = g.vocab().clone();
        let cust = vocab.get("cust").unwrap();
        let visit = vocab.get("visit").unwrap();
        let club = vocab.intern("club"); // not yet in the graph
        let goes = vocab.intern("goes_to"); // nor this edge label
        let mut cat = cat0.clone();
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node(cust);
        let y = pb.node(vocab.get("rest").unwrap());
        let z = pb.node(club);
        pb.edge(x, y, vocab.get("like").unwrap());
        pb.edge(x, z, goes);
        let clubby = Arc::new(Gpar::new(pb.designate(x, y).build().unwrap(), visit).unwrap());
        cat.insert(clubby, ConfStats::default());

        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.0, ..Default::default() });
        {
            let view = engine.shared.view.load_full();
            let grp = view.index.group(&pred).unwrap();
            assert_eq!(grp.sigma.rules.len(), 1, "club rule starts signature-deactivated");
            assert_eq!(grp.sigma.inactive_rules, 1);
        }
        engine.identify(pred, None).unwrap(); // warm the 1-rule group

        // A club appears and cust 0 goes to it: the second rule activates.
        let n = engine.graph_size().0 as u32;
        let report = engine
            .apply_update(&GraphUpdate {
                new_nodes: vec![club],
                new_edges: vec![(NodeId(0), NodeId(n), goes)],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(report.rebuilt_groups, 1, "fresh labels must rebuild the group");
        {
            let view = engine.shared.view.load_full();
            let grp = view.index.group(&pred).unwrap();
            assert_eq!(grp.sigma.rules.len(), 2);
            assert_eq!(grp.sigma.inactive_rules, 0);
        }
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    #[test]
    fn noop_update_touches_nothing() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let like = vocab.get("like").unwrap();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        engine.identify(pred, None).unwrap();
        // Edge already present: fully deduplicated away.
        let report = engine
            .apply_update(&GraphUpdate {
                new_edges: vec![(NodeId(0), NodeId(1), like)],
                ..Default::default()
            })
            .unwrap();
        assert!(report.touched.is_empty());
        assert_eq!(report.reevaluated, 0);
        let m = engine.metrics();
        assert_eq!(
            m.counter(Counter::Updates),
            1,
            "accepted batches count even when deduplicated away"
        );
        assert_eq!(m.counter(Counter::SnapshotPublishes), 0, "nothing published");
        assert_eq!(
            m.counter(Counter::UpdatesCoalesced),
            1,
            "a no-publish batch is fully coalesced"
        );
    }

    #[test]
    fn malformed_update_is_rejected_whole() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let like = vocab.get("like").unwrap();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        let before = engine.identify(pred, None).unwrap().customers;
        // Valid new node, but an edge to a node that does not exist.
        let err = engine
            .apply_update(&GraphUpdate {
                new_nodes: vec![vocab.get("cust").unwrap()],
                new_edges: vec![(NodeId(0), NodeId(9999), like)],
                ..Default::default()
            })
            .unwrap_err();
        assert_eq!(err, UpdateError::NodeOutOfRange(NodeId(9999)));
        // Nothing was applied — not even the valid node — and the engine
        // keeps serving (the view lock is not poisoned).
        assert_eq!(engine.pending_deltas(), (0, 0));
        assert_eq!(counter(&engine, Counter::Updates), 0);
        assert_eq!(engine.identify(pred, None).unwrap().customers, before);
    }

    #[test]
    fn delete_then_reinsert_in_one_batch_is_answer_neutral() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let visit = vocab.get("visit").unwrap();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        let before = engine.identify(pred, None).unwrap().customers;
        // One batch deletes and re-inserts the same edge: the coalescer
        // cancels the pair, so the generation nets to nothing at all —
        // no tombstone churn, no epoch bump, answers unchanged.
        let report = engine
            .apply_update(&GraphUpdate {
                del_edges: vec![(NodeId(0), NodeId(1), visit)],
                new_edges: vec![(NodeId(0), NodeId(1), visit)],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(report.removed_edges, 0, "delete+reinsert cancels before applying");
        assert_eq!(report.added_edges, 0);
        assert!(report.touched.is_empty());
        let m = engine.metrics();
        let epoch = engine.identify(pred, None).unwrap().epoch;
        assert_eq!(epoch, 0, "a cancelled window publishes no snapshot");
        // Netted-to-nothing windows still count their accepted batches,
        // keeping `coalesced == updates - update publishes` exact (the
        // harness's `coalesce_ratio = 1 - publishes/submitted`).
        assert_eq!(m.counter(Counter::Updates), 1);
        assert_eq!(m.counter(Counter::SnapshotPublishes), 0);
        assert_eq!(
            m.counter(Counter::UpdatesCoalesced),
            1,
            "the cancelled batch is fully coalesced"
        );
        assert_eq!(engine.identify(pred, None).unwrap().customers, before);
        assert_eq!(engine.pending_removals(), (0, 0), "tombstone was cancelled");
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    #[test]
    fn edge_deletion_retires_customers_like_a_rebuild() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let like = vocab.get("like").unwrap();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        let before = engine.identify(pred, None).unwrap().customers;
        assert!(before.contains(&NodeId(0)));
        // cust 0 un-likes its restaurant: the antecedent no longer holds.
        let report = engine
            .apply_update(&GraphUpdate {
                del_edges: vec![(NodeId(0), NodeId(1), like)],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(report.removed_edges, 1);
        assert!(report.reevaluated >= 1);
        assert!(!engine.identify(pred, None).unwrap().customers.contains(&NodeId(0)));
        assert_matches_fresh_rebuild(&engine, &cat, pred);
        // And back: the tombstone clears and the customer returns.
        engine
            .apply_update(&GraphUpdate {
                new_edges: vec![(NodeId(0), NodeId(1), like)],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(engine.identify(pred, None).unwrap().customers, before);
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    #[test]
    fn node_removal_retires_the_center_and_subtracts_its_ledger_entry() {
        let (g, cat, pred) = scenario();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        let before = engine.top_rules(pred, 1).unwrap()[0].stats;
        // cust 0 (a positive supporting the rule) leaves the graph: its
        // ledger contribution must be subtracted, not re-evaluated.
        let report = engine
            .apply_update(&GraphUpdate { del_nodes: vec![NodeId(0)], ..Default::default() })
            .unwrap();
        assert_eq!(report.removed_nodes, 1);
        assert_eq!(report.removed_edges, 2, "like + visit edges cascade");
        assert_eq!(report.removed_centers, 1);
        let after = engine.top_rules(pred, 1).unwrap()[0].stats;
        assert_eq!(after.supp_q, before.supp_q - 1);
        assert_eq!(after.supp_r, before.supp_r - 1);
        assert!(!engine.identify(pred, None).unwrap().customers.contains(&NodeId(0)));
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    /// The non-monotone case the union ball exists for: deleting the only
    /// edge connecting a center to part of its d-ball *grows* the center's
    /// distance to the touched nodes, so the pre-update BFS — not the
    /// post-update one — is what reaches it at the old radius.
    #[test]
    fn deleting_the_unique_path_edge_invalidates_the_shrunk_ball() {
        let vocab = Vocab::new();
        let cust = vocab.intern("cust");
        let rest = vocab.intern("rest");
        let (friend, like, visit) =
            (vocab.intern("friend"), vocab.intern("like"), vocab.intern("visit"));
        // c0 -friend-> c1 -like-> r2 is c0's only path to {c1, r2};
        // c0 -visit-> r3 holds the consequent. A second friendship in a
        // far component keeps the `friend` label present after the
        // deletion, so the test exercises the incremental union-ball
        // repair and not the label-vanish rebuild path.
        let mut b = GraphBuilder::new(vocab.clone());
        let c0 = b.add_node(cust);
        let c1 = b.add_node(cust);
        let r2 = b.add_node(rest);
        let r3 = b.add_node(rest);
        b.add_edge(c0, c1, friend);
        b.add_edge(c1, r2, like);
        b.add_edge(c0, r3, visit);
        let c4 = b.add_node(cust);
        let c5 = b.add_node(cust);
        b.add_edge(c4, c5, friend);
        let g = Arc::new(b.build());
        // Rule: x -friend-> z, z -like-> y  ⇒  visit(x, y). Radius 2.
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node(cust);
        let z = pb.node(cust);
        let y = pb.node(rest);
        pb.edge(x, z, friend);
        pb.edge(z, y, like);
        let rule = Arc::new(Gpar::new(pb.designate(x, y).build().unwrap(), visit).unwrap());
        let pred = *rule.predicate();
        let mut cat = RuleCatalog::new(vocab);
        cat.insert(rule, ConfStats::default());

        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.0, ..Default::default() });
        let before = engine.identify(pred, None).unwrap().customers;
        assert_eq!(before, vec![c0], "c0 matches the 2-hop antecedent and visits");

        let report = engine
            .apply_update(&GraphUpdate { del_edges: vec![(c0, c1, friend)], ..Default::default() })
            .unwrap();
        // c0's 2-ball contained {c1, r2} only through the deleted edge,
        // so its record must be re-evaluated; the far component's
        // centers c4 and c5 must not be (tightness).
        assert_eq!(report.rebuilt_groups, 0, "label survives: incremental path, not rebuild");
        assert_eq!(report.reevaluated, 2, "exactly c0 and c1, never c{} or c{}", c4, c5);
        assert!(engine.identify(pred, None).unwrap().customers.is_empty());
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    #[test]
    fn deleting_the_last_node_of_a_label_deactivates_rules() {
        let (g0, cat0, pred) = scenario();
        let vocab = g0.vocab().clone();
        let cust = vocab.get("cust").unwrap();
        let visit = vocab.get("visit").unwrap();
        let club = vocab.intern("club");
        let goes = vocab.intern("goes_to");
        // Start WITH the club in the graph, so the club rule is active.
        let mut b = GraphBuilder::new(vocab.clone());
        for v in g0.nodes() {
            b.add_node(g0.node_label(v));
        }
        for v in g0.nodes() {
            for e in g0.out_edges(v) {
                b.add_edge(v, e.node, e.label);
            }
        }
        let club_node = b.add_node(club);
        b.add_edge(NodeId(0), club_node, goes);
        let g = Arc::new(b.build());
        let mut cat = cat0.clone();
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node(cust);
        let y = pb.node(vocab.get("rest").unwrap());
        let z = pb.node(club);
        pb.edge(x, y, vocab.get("like").unwrap());
        pb.edge(x, z, goes);
        let clubby = Arc::new(Gpar::new(pb.designate(x, y).build().unwrap(), visit).unwrap());
        cat.insert(clubby, ConfStats::default());

        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.0, ..Default::default() });
        {
            let view = engine.shared.view.load_full();
            let grp = view.index.group(&pred).unwrap();
            assert_eq!(grp.sigma.rules.len(), 2, "club rule starts active");
        }
        engine.identify(pred, None).unwrap(); // warm the 2-rule group

        // The only club closes: the label vanishes, the present↔absent
        // flip must take the group-rebuild path and deactivate the rule —
        // the mirror of insert-side re-activation.
        let report = engine
            .apply_update(&GraphUpdate { del_nodes: vec![club_node], ..Default::default() })
            .unwrap();
        assert_eq!(report.rebuilt_groups, 1, "vanished label must rebuild the group");
        {
            let view = engine.shared.view.load_full();
            let grp = view.index.group(&pred).unwrap();
            assert_eq!(grp.sigma.rules.len(), 1);
            assert_eq!(grp.sigma.inactive_rules, 1);
        }
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    /// `pairs` disjoint `cust -like-> rest` pairs (cust `2i`, rest
    /// `2i + 1`), two in three of which also `visit` — the scenario's
    /// rule over a group of `pairs` centers, i.e. `pairs / 32` pages.
    fn wide_scenario(pairs: u32) -> (Arc<Graph>, RuleCatalog, Predicate) {
        let vocab = Vocab::new();
        let (cust, rest) = (vocab.intern("cust"), vocab.intern("rest"));
        let (like, visit) = (vocab.intern("like"), vocab.intern("visit"));
        vocab.intern("bar");
        let mut b = GraphBuilder::new(vocab.clone());
        for i in 0..pairs {
            let c = b.add_node(cust);
            let r = b.add_node(rest);
            b.add_edge(c, r, like);
            if i % 3 != 0 {
                b.add_edge(c, r, visit);
            }
        }
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node(cust);
        let y = pb.node(rest);
        pb.edge(x, y, like);
        let rule = Arc::new(Gpar::new(pb.designate(x, y).build().unwrap(), visit).unwrap());
        let pred = *rule.predicate();
        let mut cat = RuleCatalog::new(vocab);
        cat.insert(rule, ConfStats::default());
        (Arc::new(b.build()), cat, pred)
    }

    /// `(shared, total)` for the index pages, then the ledger pages, of
    /// `next`: how many are the predecessor's own allocations. Also
    /// asserts that the rule side is.
    fn shared_with(next: &EngineView, prev: &EngineView, pred: &Predicate) -> [(usize, usize); 2] {
        let (ng, pg) = (next.index.group(pred).unwrap(), prev.index.group(pred).unwrap());
        assert!(Arc::ptr_eq(&ng.sigma, &pg.sigma), "rules are never copied by a center edit");
        let (ns, ps) = (next.states.lock()[pred].clone(), prev.states.lock()[pred].clone());
        [ng.centers.shared_pages(&pg.centers), shared_pages(&ns, &ps)]
    }

    /// The O(delta) contract: a generation shares every index and ledger
    /// page its update did not touch with its predecessor, and a reader
    /// that pinned the predecessor keeps reading the old values.
    #[test]
    fn a_write_copies_only_the_pages_it_touches() {
        let (g, cat, pred) = wide_scenario(10_000);
        let visit = g.vocab().get("visit").unwrap();
        let engine = ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, ..Default::default() });
        engine.identify(pred, None).unwrap(); // warm
        let pinned = engine.shared.view.load_full();
        assert_eq!(pinned.index.group(&pred).unwrap().centers.len(), 10_000);

        // cust 6000 likes rest 6001 without visiting (unknown); the new
        // visit edge makes it a positive.
        let target = NodeId(6000);
        let report = engine
            .apply_update(&GraphUpdate {
                new_edges: vec![(target, NodeId(6001), visit)],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(report.reevaluated, 1);
        let next = engine.shared.view.load_full();
        assert_eq!(next.epoch, pinned.epoch + 1);
        let [index, ledger] = shared_with(&next, &pinned, &pred);
        assert!(index.1 >= 300, "10k centers span hundreds of pages, got {}", index.1);
        assert_eq!(index.0, index.1, "an edge batch leaves the center set, and every page, shared");
        let (shared, total) = ledger;
        assert!(shared * 100 >= total * 95, "ledger: only {shared} of {total} pages shared");
        assert!(shared < total, "ledger: the touched center's page must be a private copy");
        let class_in = |view: &EngineView| class_of(&view.states.lock()[&pred], target).unwrap();
        assert_eq!(class_in(&pinned), LcwaClass::Unknown, "the pinned generation is frozen");
        assert_eq!(class_in(&next), LcwaClass::Positive);
        assert_eq!(epoch_of(&pinned.states.lock()[&pred]), pinned.epoch);
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    /// Center-set changes on a many-page group: relabel out, relabel in,
    /// node removal (each sharing all but the touched pages) and the
    /// remapping compaction that re-keys every page.
    #[test]
    fn center_set_changes_and_remapping_compaction_on_a_paged_group() {
        let (g, cat, pred) = wide_scenario(10_000);
        let vocab = g.vocab().clone();
        let (cust, bar) = (vocab.get("cust").unwrap(), vocab.get("bar").unwrap());
        let engine = ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, ..Default::default() });
        engine.identify(pred, None).unwrap(); // warm
        let steps: [(GraphUpdate, (usize, usize)); 3] = [
            // The last center of the last page stops being a customer ...
            (GraphUpdate { relabels: vec![(NodeId(19_998), bar)], ..Default::default() }, (0, 1)),
            // ... rest 1, on the first page, becomes one ...
            (GraphUpdate { relabels: vec![(NodeId(1), cust)], ..Default::default() }, (1, 0)),
            // ... and a center in the middle leaves the graph, so the
            // compaction below shifts every later id.
            (GraphUpdate { del_nodes: vec![NodeId(12_000)], ..Default::default() }, (0, 1)),
        ];
        for (update, (added, removed)) in steps {
            let prev = engine.shared.view.load_full();
            let report = engine.apply_update(&update).unwrap();
            assert_eq!((report.added_centers, report.removed_centers), (added, removed));
            let next = engine.shared.view.load_full();
            for (shared, total) in shared_with(&next, &prev, &pred) {
                assert!(shared * 100 >= total * 95, "only {shared} of {total} pages shared");
            }
            assert_matches_fresh_rebuild(&engine, &cat, pred);
        }
        let before = engine.identify(pred, None).unwrap().customers;
        let remap = engine.compact().expect("the removal forces a remap");
        let expect: Vec<NodeId> = before.iter().map(|&c| remap.get(c).unwrap()).collect();
        let after = engine.identify(pred, None).unwrap();
        assert!(!after.warmed, "the re-keyed ledger still answers");
        assert_eq!(after.customers, expect);
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    #[test]
    fn invalidation_is_scoped_to_the_touched_ball() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let visit = vocab.get("visit").unwrap();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        engine.identify(pred, None).unwrap(); // warm

        // Touch the isolated pair (28, 29): only that component's centers
        // can be invalidated.
        let report = engine
            .apply_update(&GraphUpdate {
                new_edges: vec![(NodeId(28), NodeId(29), visit)],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(report.touched, vec![NodeId(28), NodeId(29)]);
        assert_eq!(report.reevaluated, 1, "only the touched component's center, cust 28");
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    /// Metrics snapshots must be transactionally consistent under
    /// concurrent update traffic. Every committed update in this scenario
    /// re-evaluates exactly one center (cust 28 of the isolated (28, 29)
    /// pair), so every `metrics()` snapshot must show
    /// `update_reevaluated == updates`. The writer waits for each reply,
    /// so no batch coalesces and every update publishes one snapshot:
    /// every snapshot must also show
    /// `snapshot_publishes == updates + compactions`. A snapshot that
    /// caught one bump of a write transaction without the other breaks
    /// an equality. The pre-registry implementation read each counter
    /// independently and fails exactly that way.
    #[test]
    fn stats_snapshots_are_transactionally_consistent_under_updates() {
        const UPDATES: u64 = 1000;
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let visit = vocab.get("visit").unwrap();
        let engine = Arc::new(ServeEngine::new(
            g.clone(),
            &cat,
            ServeConfig { eta: 0.5, workers: 2, ..Default::default() },
        ));
        engine.identify(pred, None).unwrap(); // warm
        let writer = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for i in 0..UPDATES {
                    // Alternate insert / delete of one edge in the isolated
                    // component; each batch touches {28, 29} and
                    // re-evaluates exactly center 28.
                    let edge = vec![(NodeId(28), NodeId(29), visit)];
                    let update = if i % 2 == 0 {
                        GraphUpdate { new_edges: edge, ..Default::default() }
                    } else {
                        GraphUpdate { del_edges: edge, ..Default::default() }
                    };
                    let report = engine.apply_update(&update).unwrap();
                    assert_eq!(report.reevaluated, 1, "exactly cust 28 re-evaluates");
                }
            })
        };
        let counts = |engine: &ServeEngine| {
            let m = engine.metrics();
            [
                Counter::Updates,
                Counter::UpdateReevaluated,
                Counter::SnapshotPublishes,
                Counter::Compactions,
            ]
            .map(|c| m.counter(c))
        };
        let mut last = [0; 4];
        while last[0] < UPDATES && !writer.is_finished() {
            let now = counts(&engine);
            let [updates, reevaluated, publishes, compactions] = now;
            assert_eq!(
                reevaluated, updates,
                "metrics() split an update transaction: updates={updates} reevaluated={reevaluated}"
            );
            assert_eq!(
                publishes,
                updates + compactions,
                "metrics() split a write transaction: {now:?} (updates, reevaluated, \
                 publishes, compactions)"
            );
            assert!(now.iter().zip(&last).all(|(n, l)| n >= l), "counters are monotone");
            last = now;
        }
        writer.join().unwrap();
        assert_eq!(counts(&engine), [UPDATES, UPDATES, UPDATES, 0]);
    }

    /// A burst of updates queued behind a wedged writer merges into ONE
    /// net generation: one snapshot publish, one epoch bump, every
    /// submitter individually acknowledged, and the answers bit-equal to
    /// applying the batches one by one.
    #[test]
    fn queued_burst_coalesces_into_one_generation() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let visit = vocab.get("visit").unwrap();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        engine.identify(pred, None).unwrap();
        // Wedge the writer so the whole burst is already queued when the
        // coalescing window opens.
        assert!(engine
            .updates
            .push_with(UpdateJob::Stall(Duration::from_millis(200)), Priority::Normal)
            .is_ok());
        let edges = [(26u32, 27u32), (28, 29), (30, 31)];
        let rxs: Vec<_> = edges
            .iter()
            .map(|&(u, v)| {
                engine
                    .submit_update_from(
                        GraphUpdate {
                            new_edges: vec![(NodeId(u), NodeId(v), visit)],
                            ..Default::default()
                        },
                        Ts::now(),
                    )
                    .unwrap()
            })
            .collect();
        for rx in rxs {
            rx.recv_timeout(Duration::from_secs(10)).expect("reply").expect("applied");
        }
        let m = engine.metrics();
        let epoch = engine.identify(pred, None).unwrap().epoch;
        assert_eq!(epoch, 1, "the burst published as a single generation");
        assert_eq!(m.counter(Counter::SnapshotPublishes), 1);
        assert_eq!(m.counter(Counter::Updates), edges.len() as u64, "every submission counted");
        assert_eq!(m.counter(Counter::UpdatesCoalesced), (edges.len() - 1) as u64);
        assert_matches_fresh_rebuild(&engine, &cat, pred);

        // Sequential application of the same batches answers identically.
        let seq = ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, ..Default::default() });
        for &(u, v) in &edges {
            seq.apply_update(&GraphUpdate {
                new_edges: vec![(NodeId(u), NodeId(v), visit)],
                ..Default::default()
            })
            .unwrap();
        }
        assert_eq!(
            engine.identify(pred, None).unwrap().customers,
            seq.identify(pred, None).unwrap().customers
        );
    }
}
