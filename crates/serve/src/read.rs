//! The read path: warm-up, staleness, and the two queries.
//!
//! The first query touching a predicate **warms** it: every candidate
//! center is evaluated once into the predicate's [`PredicateState`]
//! ledger. Every `identify(pred, candidates?)`, the warming one included,
//! then answers from that ledger: the whole answer set for `None`, the
//! requested candidates it admits for `Some`. A read extracts no d-ball
//! and runs no matcher; warm-up and write repair are the only evaluators,
//! and they visit each center once per generation.

use crate::admission::Deadline;
use crate::engine::{
    EngineView, IdentifyRequest, IdentifyResponse, QueryError, QueryOpts, RuleInfo, Shared,
};
use crate::index::PredicateGroup;
use crate::ledger::{CenterRecord, PredicateState};
use gpar_core::{classify, Predicate};
use gpar_eip::CandidateEvaluator;
use gpar_exec::Executor;
use gpar_graph::{FxHashMap, NodeId};
use gpar_obs::{Counter, Span, Stage, TraceBuilder, Ts};
use gpar_partition::{chunk_by_load, CenterSite};
use std::sync::Arc;

/// Warm-scan task granules per executor worker (same rationale as EIP's
/// chunking: fine enough that stealing evens out per-site cost skew,
/// coarse enough that task overhead stays invisible).
const WARM_CHUNKS_PER_WORKER: usize = 16;

/// Reusable evaluation state for the two passes that evaluate centers:
/// one per warm-up chunk worker, and one per write's ledger repair. The
/// pattern-sketch cache and search arena are `Rc`-based (thread-local by
/// construction), so each owner keeps its own instances and hands clones
/// to every evaluator it builds — pattern-side sketches are derived, and
/// search/traversal buffers grown, once per owner rather than once per
/// center. Reads evaluate nothing and need none of it.
#[derive(Default)]
pub(crate) struct WorkerCaches {
    /// Registry shard this worker records into (worker index; wrapped
    /// modulo the shard count by the registry).
    shard: usize,
    psketch: FxHashMap<Predicate, gpar_iso::PatternSketchCache>,
    /// Matcher search-state arena shared by every evaluator this worker
    /// builds; its embedded neighborhood scratch also serves d-ball
    /// extraction (`SharedScratch::with_neighborhood`).
    scratch: gpar_iso::SharedScratch,
}

impl Shared {
    /// Drains the plain per-thread counters accumulated in `caches`
    /// (matcher candidate tallies, traversal tallies) into the registry —
    /// called once per warm chunk / ledger repair, so the matcher hot path
    /// never touches an atomic.
    pub(crate) fn drain_worker_counters(&self, caches: &mut WorkerCaches) {
        let shard = caches.shard;
        let (generated, pruned, recomputes) = caches.scratch.drain_counters();
        let (balls, visited) = caches.scratch.with_neighborhood(|nbr| nbr.take_counters());
        self.obs.add(shard, Counter::IsoCandidatesGenerated, generated);
        self.obs.add(shard, Counter::IsoCandidatesPruned, pruned);
        self.obs.add(shard, Counter::IsoMetaRecomputes, recomputes);
        self.obs.add(shard, Counter::BallsExtracted, balls);
        self.obs.add(shard, Counter::BallNodesVisited, visited);
    }

    /// Builds an evaluator for one warm-up chunk or one ledger repair:
    /// the group's pre-built sharing plan plus the owner's persistent
    /// pattern-sketch cache, so pattern-side sketches are derived once
    /// per owner rather than once per evaluator.
    pub(crate) fn evaluator<'r>(
        &self,
        group: &'r PredicateGroup,
        caches: &mut WorkerCaches,
    ) -> CandidateEvaluator<'r> {
        CandidateEvaluator::with_plan_and_sketches(
            &group.sigma.rules,
            self.opts(),
            group.sigma.plan.clone(),
            group.sigma.eval_sketches.clone(),
        )
        .with_pattern_cache(caches.psketch.entry(group.predicate).or_default().clone())
        .with_scratch(caches.scratch.clone())
    }

    /// Classifies + evaluates center `c` of `group`, producing its ledger
    /// record. Warm-up and write repair visit each center once per
    /// generation, extracting its d-ball on the worker's scratch.
    pub(crate) fn evaluate_center(
        view: &EngineView,
        group: &PredicateGroup,
        ev: &CandidateEvaluator<'_>,
        c: NodeId,
        caches: &mut WorkerCaches,
    ) -> CenterRecord {
        let class = classify(&view.graph, &group.predicate, c)
            .expect("centers satisfy x's condition by construction");
        let site = caches
            .scratch
            .with_neighborhood(|nbr| CenterSite::build_with(&view.graph, c, group.sigma.d, nbr));
        let o = ev.evaluate(&site);
        debug_assert_eq!(o.class, class, "site and global LCWA must agree");
        CenterRecord::new(class, o.q_member, o.pr_member)
    }

    /// Returns the warmed state for `group`, performing the full-candidate
    /// evaluation pass if this predicate has not been touched on `view`'s
    /// generation yet. Warms *into the snapshot*: the writer carries the
    /// ledger forward (patched) into successor generations, so the scan
    /// still happens once per predicate — a warm-up racing a publish at
    /// worst lands on a superseded snapshot and is redone on the next one.
    fn state(
        &self,
        view: &EngineView,
        group: &PredicateGroup,
        shard: usize,
    ) -> (Arc<PredicateState>, bool) {
        if let Some(s) = view.states.lock().get(&group.predicate) {
            return (s.clone(), false);
        }
        // Cold predicate: serialize warmers so losers wait for the winner
        // instead of redoing the full O(|L|) scan.
        let _warming = self.warm_lock.lock();
        if let Some(s) = view.states.lock().get(&group.predicate) {
            return (s.clone(), false);
        }
        let state = Arc::new(self.warm(view, group));
        self.obs.incr(shard, Counter::Warmups);
        view.states.lock().insert(group.predicate, state.clone());
        (state, true)
    }

    /// The warm-up pass: evaluate every candidate once and assemble the
    /// exact global statistics, exactly as `gpar_eip::identify`'s step 3.
    /// The full-`L` scan fans out as chunk tasks over a work-stealing
    /// [`Executor`] nested under the pool worker running the cold query;
    /// each chunk's records are merged in task-index order (commutative
    /// sums), so the resulting state is bit-identical at any worker count.
    fn warm(&self, view: &EngineView, group: &PredicateGroup) -> PredicateState {
        let workers = self.cfg.workers.max(1);
        // Chunks are runs of whole center pages, balanced by occupancy.
        let pages: Vec<&[(NodeId, ())]> = group.centers.pages().collect();
        let loads: Vec<u64> = pages.iter().map(|p| p.len() as u64).collect();
        let chunks = chunk_by_load(&loads, workers * WARM_CHUNKS_PER_WORKER);
        let exec = Executor::new(workers).with_obs(self.obs.clone());
        let (parts, _stats) = exec.map_indexed(
            chunks.len(),
            |w| WorkerCaches { shard: w, ..Default::default() },
            |caches, ci| {
                let ev = self.evaluator(group, caches);
                let mut records = Vec::new();
                for page in &pages[chunks[ci].clone()] {
                    for &(c, ()) in *page {
                        records.push((c, Self::evaluate_center(view, group, &ev, c, caches)));
                    }
                }
                self.drain_worker_counters(caches);
                records
            },
        );
        let state = PredicateState::warmed(
            group.sigma.rules.len(),
            view.epoch,
            self.cfg.eta,
            parts.into_iter().flatten(),
        );
        self.obs.add(0, Counter::CentersEvaluated, state.centers() as u64);
        state
    }

    /// Resolves the staleness contract for one read: returns whether the
    /// answer must be stamped stale, blocking first if the snapshot's
    /// publish lag exceeds the caller's bound. A request with no
    /// staleness opt-in never waits and is never stamped — the published
    /// snapshot *is* its consistency point. An opted request tolerates
    /// answers at most `bound` behind the accepted-update frontier:
    /// within the bound it is served immediately (stamped stale while
    /// updates are pending), beyond it it waits for the writer to catch
    /// up. `Some(ZERO)` therefore observes every previously accepted
    /// update.
    fn resolve_staleness(
        &self,
        opts: &QueryOpts,
        shard: usize,
        dl: Option<&Deadline>,
    ) -> Result<bool, QueryError> {
        let Some(bound) = opts.staleness else { return Ok(false) };
        let Some(age) = self.clock.frontier_age() else { return Ok(false) };
        if age > bound {
            self.clock.wait_within(bound, || Deadline::check(dl))?;
        }
        let stale = self.clock.has_pending();
        if stale {
            self.obs.incr(shard, Counter::StaleServed);
        }
        Ok(stale)
    }

    /// Answers one identify request from the predicate's warm ledger,
    /// warming it first if this is the predicate's first query on the
    /// snapshot. No read evaluates a center: the ledger already holds
    /// every center's memberships for this generation.
    pub(crate) fn identify(
        &self,
        req: &IdentifyRequest,
        shard: usize,
        tb: &mut TraceBuilder,
        dl: Option<&Deadline>,
    ) -> Result<IdentifyResponse, QueryError> {
        let stale = self.resolve_staleness(&req.opts, shard, dl)?;
        // One lock-free atomic load pins the snapshot this whole request
        // reads; a concurrent publish retires the pointer but never this
        // generation, which lives until its last reader drops.
        let view = self.view.load_full();
        let epoch = view.epoch;
        let group = view.index.group(&req.predicate).ok_or(QueryError::UnknownPredicate)?;
        Deadline::check(dl)?;
        let warm_started = Ts::now();
        let (state, warmed) = self.state(&view, group, shard);
        if warmed {
            tb.add(Stage::Warmup, warm_started.elapsed());
        }
        let _s = Span::enter(tb, Stage::LedgerRead);
        let (customers, evaluated) = state.read(req.candidates.as_deref());
        Ok(IdentifyResponse { customers, evaluated, warmed, epoch, stale })
    }

    /// `top_rules` supports deadlines but ignores staleness bounds: it
    /// reads whatever snapshot is published (never blocking on writers),
    /// and its confidence figures are exact for that generation.
    pub(crate) fn top_rules(
        &self,
        pred: &Predicate,
        k: usize,
        shard: usize,
        tb: &mut TraceBuilder,
        dl: Option<&Deadline>,
    ) -> Result<Vec<RuleInfo>, QueryError> {
        let view = self.view.load_full();
        Deadline::check(dl)?;
        let group = view.index.group(pred).ok_or(QueryError::UnknownPredicate)?;
        let warm_started = Ts::now();
        let (state, warmed) = self.state(&view, group, shard);
        if warmed {
            tb.add(Stage::Warmup, warm_started.elapsed());
        }
        let mut out: Vec<RuleInfo> = group
            .sigma
            .rule_arcs
            .iter()
            .zip(state.rules())
            .map(|(rule, (confidence, stats, active))| RuleInfo {
                rule: rule.clone(),
                confidence,
                stats,
                active,
            })
            .collect();
        out.sort_by(|a, b| {
            b.confidence
                .ranking_value()
                .total_cmp(&a.confidence.ranking_value())
                .then(b.stats.supp_r.cmp(&a.stats.supp_r))
        });
        out.truncate(k);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{
        assert_matches_fresh_rebuild, counter, direct_eip_customers, scenario,
    };
    use crate::engine::{IdentifyRequest, QueryOpts, ServeConfig, ServeEngine};
    use gpar_core::Gpar;
    use gpar_eip::{identify as eip_identify, EipAlgorithm, EipConfig};
    use gpar_graph::{GraphUpdate, NodeId};
    use gpar_obs::{Counter, Stage, TraceKind, Ts};
    use std::time::Duration;

    #[test]
    fn full_identify_equals_direct_eip() {
        let (g, cat, pred) = scenario();
        for eta in [0.5, 1.5] {
            let eip = direct_eip_customers(&g, &cat, pred, eta);
            for workers in [1, 3] {
                let engine = ServeEngine::new(
                    g.clone(),
                    &cat,
                    ServeConfig { workers, eta, ..Default::default() },
                );
                let res = engine.identify(pred, None).unwrap();
                assert_eq!(res.customers, eip, "eta {eta} w {workers}");
            }
        }
    }

    #[test]
    fn subset_identify_is_the_intersection() {
        let (g, cat, pred) = scenario();
        let sigma: Vec<Gpar> = cat.rules_for(&pred).iter().map(|e| (*e.rule).clone()).collect();
        let eip = eip_identify(
            &*g,
            &sigma,
            &EipConfig { eta: 0.5, ..EipConfig::new(EipAlgorithm::Match, 2) },
        )
        .unwrap();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        // Mixed subset: members, non-members, non-candidates, duplicates.
        let subset = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(0), NodeId(9999)];
        let res = engine.identify(pred, Some(subset.clone())).unwrap();
        let mut expect: Vec<NodeId> =
            subset.iter().filter(|c| eip.customers.contains(c)).copied().collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(res.customers, expect);
    }

    #[test]
    fn warm_state_matches_eip_stats_and_top_rules_rank() {
        let (g, cat, pred) = scenario();
        let sigma: Vec<Gpar> = cat.rules_for(&pred).iter().map(|e| (*e.rule).clone()).collect();
        let gpar_eip::EipResult { per_rule, .. } = eip_identify(
            &*g,
            &sigma,
            &EipConfig { eta: 0.5, ..EipConfig::new(EipAlgorithm::Match, 2) },
        )
        .unwrap();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        let top = engine.top_rules(pred, 10).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].stats, per_rule[0].stats, "serving stats must equal EIP's");
        assert_eq!(top[0].confidence, per_rule[0].confidence);
        assert!(top[0].active);
        assert_eq!(counter(&engine, Counter::Warmups), 1);
    }

    /// The counters that only evaluation moves: ball extraction, matcher
    /// candidates, centers evaluated.
    fn evaluation_counters(engine: &ServeEngine) -> [u64; 3] {
        let m = engine.metrics();
        [Counter::BallsExtracted, Counter::IsoCandidatesGenerated, Counter::CentersEvaluated]
            .map(|c| m.counter(c))
    }

    /// Reads a subset and the whole of `L` and asserts that both are
    /// pure ledger reads: no counter of evaluation moves, and the subset
    /// answer is the whole answer ∩ `cands`.
    fn assert_ledger_reads(engine: &ServeEngine, pred: Predicate, cands: &[NodeId]) {
        let before = evaluation_counters(engine);
        let all = engine.identify(pred, None).unwrap();
        let sub = engine.identify(pred, Some(cands.to_vec())).unwrap();
        assert!(!all.warmed && !sub.warmed);
        assert_eq!(evaluation_counters(engine), before, "a read evaluated something");
        let mut expect: Vec<NodeId> =
            cands.iter().copied().filter(|c| all.customers.contains(c)).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(sub.customers, expect, "subset answer = whole answer ∩ candidates");
    }

    /// Every read after the warm-up answers from the ledger: before and
    /// after an edge insert, an edge delete and a remapping compaction.
    #[test]
    fn reads_are_ledger_reads() {
        let (g, cat, pred) = scenario();
        let visit = g.vocab().get("visit").unwrap();
        let engine = ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, ..Default::default() });
        let warm = engine.identify(pred, None).unwrap();
        assert!(warm.warmed);
        assert!(evaluation_counters(&engine).iter().all(|&n| n > 0), "the warm-up evaluates");
        // Positives, an unknown (28), a negative (20), a non-center (1),
        // an id outside the graph, and a duplicate.
        let mut cands = vec![NodeId(28), NodeId(0), NodeId(20), NodeId(1), NodeId(9999), NodeId(0)];
        assert_ledger_reads(&engine, pred, &cands);

        let edge = vec![(NodeId(28), NodeId(29), visit)];
        engine
            .apply_update(&GraphUpdate { new_edges: edge.clone(), ..Default::default() })
            .unwrap();
        assert_ledger_reads(&engine, pred, &cands);
        assert_matches_fresh_rebuild(&engine, &cat, pred);

        engine.apply_update(&GraphUpdate { del_edges: edge, ..Default::default() }).unwrap();
        assert_ledger_reads(&engine, pred, &cands);
        assert_matches_fresh_rebuild(&engine, &cat, pred);

        // Remove cust 0 and its restaurant; compaction then shifts every
        // later id down by two.
        engine
            .apply_update(&GraphUpdate {
                del_nodes: vec![NodeId(0), NodeId(1)],
                ..Default::default()
            })
            .unwrap();
        let remap = engine.compact().expect("removals force a remap");
        cands.retain(|&c| c != NodeId(0) && c != NodeId(1));
        for c in &mut cands {
            *c = remap.get(*c).unwrap_or(*c);
        }
        assert_ledger_reads(&engine, pred, &cands);
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    /// `evaluated` means one thing on every read: the requested
    /// candidates in `L`, or `|L|` when none are named — whether or not
    /// the read did the warm-up.
    #[test]
    fn evaluated_counts_the_requested_centers_on_every_read() {
        let (g, cat, pred) = scenario();
        let l = 15; // 10 positives, 2 negatives, 3 unknowns
        let cands = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(0), NodeId(9999)];
        let engine = ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, ..Default::default() });
        let first = engine.identify(pred, Some(cands.clone())).unwrap();
        assert!(first.warmed);
        assert_eq!(first.evaluated, 2, "cust 0 and cust 2 are the requested centers");
        let again = engine.identify(pred, Some(cands)).unwrap();
        assert_eq!((again.evaluated, again.customers), (first.evaluated, first.customers));
        assert_eq!(engine.identify(pred, None).unwrap().evaluated, l);
    }

    #[test]
    fn warm_answers_are_identical_across_worker_counts() {
        let (g, cat, pred) = scenario();
        let eip = direct_eip_customers(&g, &cat, pred, 0.5);
        let run = |workers: usize| {
            let engine = ServeEngine::new(
                g.clone(),
                &cat,
                ServeConfig { workers, eta: 0.5, ..Default::default() },
            );
            let cold = engine.identify(pred, None).unwrap();
            assert!(cold.warmed);
            let hot = engine.identify(pred, None).unwrap();
            assert!(!hot.warmed);
            assert_eq!(cold.customers, hot.customers, "warm answer equals post-warm answer");
            assert_eq!(cold.customers, eip, "workers = {workers}: full answer equals direct EIP");
            let top = engine.top_rules(pred, 10).unwrap();
            (cold.customers, top[0].stats, top[0].confidence)
        };
        let baseline = run(1);
        for workers in [2, 8] {
            assert_eq!(run(workers), baseline, "workers = {workers}");
        }
    }

    /// Staleness semantics over snapshots: while accepted updates are
    /// still unpublished, a request that opts into bounded staleness is
    /// answered from the current snapshot immediately (stamped `stale`,
    /// the epoch it reflects); a zero bound waits for the frontier to
    /// settle; and a request with no opt-in is served the published
    /// snapshot immediately, never stamped — a strict superset of the
    /// old blocking behavior (every answer the lock-based engine could
    /// return is still returned, only the mandatory wait is gone).
    #[test]
    fn stale_reads_during_repair_are_bounded_and_stamped() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let visit = vocab.get("visit").unwrap();
        let engine =
            ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, workers: 2, ..Default::default() });
        let fresh = engine.identify(pred, None).unwrap();
        assert_eq!((fresh.epoch, fresh.stale), (0, false));
        let live = fresh.customers;

        // Simulate an accepted-but-unpublished update: exactly the state
        // the pipeline is in between `submit_update_from` accepting a
        // batch and its generation's publish.
        engine.shared.clock.submit();

        let stale = engine
            .identify_opts(
                pred,
                None,
                QueryOpts { staleness: Some(Duration::from_secs(5)), ..Default::default() },
            )
            .expect("stale-tolerant read answers during the publish lag");
        assert!(stale.stale, "answer must be marked stale");
        assert_eq!(stale.epoch, 0, "stamped with the epoch it reflects");
        assert_eq!(stale.customers, live, "snapshot answer equals the pre-update truth");
        assert!(counter(&engine, Counter::StaleServed) >= 1);

        // No staleness opt-in → served from the published snapshot
        // without waiting and without a stale stamp.
        let strict = engine.identify(pred, None).unwrap();
        assert_eq!((strict.epoch, strict.stale), (0, false));
        assert_eq!(strict.customers, live);

        // A zero bound insists on observing every accepted update →
        // blocks until the frontier settles.
        let zero = engine
            .submit_identify_from(
                IdentifyRequest {
                    predicate: pred,
                    candidates: None,
                    opts: QueryOpts { staleness: Some(Duration::ZERO), ..Default::default() },
                },
                Ts::now(),
            )
            .unwrap();
        assert!(zero.recv_timeout(Duration::from_millis(100)).is_err(), "zero-bound read waits");
        engine.shared.clock.settle(1);
        let zero = zero.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert!(!zero.stale, "frontier settled: the answer is current");

        // A real update bumps the epoch; post-update answers are live.
        engine
            .apply_update(&GraphUpdate {
                new_edges: vec![(NodeId(28), NodeId(29), visit)],
                ..Default::default()
            })
            .unwrap();
        let after = engine.identify(pred, None).unwrap();
        assert_eq!((after.epoch, after.stale), (1, false));
    }

    /// The acceptance criterion for per-query tracing: a warming identify
    /// query's trace carries the warm-up, and a non-warming one's holds
    /// exactly the two stages of the read pipeline (queue wait → ledger
    /// read), each with a non-zero duration, summing to at most the root.
    #[test]
    fn ledger_read_identify_trace_has_queue_wait_and_ledger_read_only() {
        if cfg!(feature = "obs-off") {
            return; // timing compiles out; traces are dropped
        }
        let (g, cat, pred) = scenario();
        let engine =
            ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, workers: 1, ..Default::default() });
        engine.identify(pred, None).unwrap(); // warm
        engine.identify(pred, Some(vec![NodeId(0), NodeId(28)])).unwrap(); // traced ledger read
        let traces = engine.traces();
        assert_eq!(traces.len(), 2);
        let warm_trace = &traces[0];
        assert!(!warm_trace.stage(Stage::Warmup).is_zero(), "first query carries the warm-up");
        let t = &traces[1];
        assert_eq!(t.kind, TraceKind::Identify);
        let stages: Vec<Stage> = t.stages.iter().map(|&(s, _)| s).collect();
        assert_eq!(stages, vec![Stage::QueueWait, Stage::LedgerRead]);
        assert!(t.stages_total() <= t.total, "stages are disjoint slices of the root");
    }
}
