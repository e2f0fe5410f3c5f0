//! Fragment-sharded serving: a scatter/gather front over per-shard
//! [`ServeEngine`]s — §4.2's fragmentation promoted from mining rounds
//! to the long-lived serving layer.
//!
//! ## What is sharded (and what is not)
//!
//! A [`gpar_partition::ShardPlan`] splits the initial node id space into
//! contiguous ranges balanced by adjacency load; each shard runs a full
//! [`ServeEngine`] whose **answer state** — candidate index centers,
//! warm ledgers and update repair work — is restricted to the centers
//! its [`gpar_partition::ShardSpec`] owns ([`crate::ServeConfig::owned`]). The **graph itself is replicated**:
//! every shard applies every [`GraphUpdate`] in the same submit order
//! (the front broadcasts under one lock), so id allocation, overlays,
//! and compactions agree bit-for-bit across shards without any
//! cross-shard coordination. Replicating the cheap part (the graph) is
//! what makes sharding the expensive part (per-center evaluation and
//! repair) sound under dynamic updates: an update whose d-ball reaches
//! into a shard's owned range is repaired by that shard's own
//! union-ball invalidation, exactly as in the single-engine proof — a
//! shard none of whose owned centers are within `d` of a touched node
//! publishes the generation with zero repair work. The plan's
//! precomputed halos ([`gpar_partition::ShardPlan::halo`]) are the
//! planning/diagnostic surface for that locality argument.
//!
//! ## Why merge re-derives statistics
//!
//! A shard's local η verdicts are meaningless on their own: confidence
//! is a **global** ratio (`supp(R)·supp(q̄) / (supp(Qq̄)·supp(q))`), and
//! every term is a count over *all* candidate centers. So queries
//! scatter a [`ShardQuery`] to **every** shard — each answers with raw
//! per-rule support counters plus its owned members of each rule's
//! match set, read from one snapshot — and the merger sums the counters
//! into exact global [`ConfStats`], re-derives confidence and the η
//! mask once, then unions the member lists of the globally active
//! rules. The merged answer is bit-equal to a single unsharded engine's
//! (`tests/prop_shard_equivalence.rs` pins this across shard counts).
//!
//! Per-shard coalescing windows may group the same update stream into
//! different generations (epochs can drift), but the settled state is
//! identical; the merged `epoch` is the minimum across shards.
//!
//! Auto-compaction is disabled per shard — only the front's explicit
//! [`ShardedEngine::compact`], broadcast in queue order like any
//! update, folds overlays, so id spaces never diverge.

use crate::catalog::RuleCatalog;
use crate::engine::{
    EngineStats, IdentifyRequest, IdentifyResponse, QueryError, QueryOpts, RuleInfo, ServeConfig,
    ServeEngine, ShardAnswer, ShardQuery, UpdateError, UpdateReport,
};
use gpar_core::{ConfStats, Predicate};
use gpar_graph::{Graph, GraphUpdate, NodeId, NodeRemap, Vocab};
use gpar_obs::{HistKind, MetricsRegistry, MetricsSnapshot, Ts};
use gpar_partition::ShardPlan;
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A deferred merge, run on the gather pool with its worker index (the
/// front registry shard it records into).
type GatherJob = Box<dyn FnOnce(usize) + Send + 'static>;

/// A scatter/gather serving front: one [`ServeEngine`] per shard plus a
/// small gather pool that merges per-shard ledger surfaces into global
/// answers. The public surface mirrors [`ServeEngine`]'s — blocking
/// calls, open-loop `submit_*_from` entry points, stats, metrics — so
/// callers (and the load harness) swap between the two freely.
pub struct ShardedEngine {
    shards: Vec<ServeEngine>,
    plan: ShardPlan,
    eta: f64,
    /// Front-side registry: end-to-end Identify/TopRules/Update
    /// latencies, recorded at merge completion (per-shard scatter
    /// latencies live in each shard's own registry as
    /// [`HistKind::ShardQueryLatency`]).
    obs: Arc<MetricsRegistry>,
    /// Serializes update broadcast so every shard's update queue sees
    /// the identical order (also held across `compact`, which must land
    /// at the same queue position everywhere).
    submit: Mutex<()>,
    gather_tx: Mutex<Option<Sender<GatherJob>>>,
    gather_handles: Vec<JoinHandle<()>>,
}

impl ShardedEngine {
    /// Plans the shards over `graph` (halo radius = the catalog's max
    /// rule radius, or `cfg.d` when set), spawns one [`ServeEngine`] per
    /// shard with ownership-restricted answer state, and starts the
    /// gather pool. `cfg.workers` is the *total* query-worker budget,
    /// divided across shards (at least one each).
    pub fn new(graph: Arc<Graph>, catalog: &RuleCatalog, cfg: ServeConfig, shards: usize) -> Self {
        let n = shards.max(1);
        let d = cfg
            .d
            .unwrap_or_else(|| {
                catalog.entries().iter().filter_map(|e| e.rule.radius()).max().unwrap_or(1)
            })
            .max(1);
        let plan = ShardPlan::build(&*graph, d, n);
        let eta = cfg.eta;
        let workers_per_shard = (cfg.workers.max(1) / n).max(1);
        let engines: Vec<ServeEngine> = (0..n)
            .map(|i| {
                ServeEngine::new(
                    graph.clone(),
                    catalog,
                    ServeConfig {
                        workers: workers_per_shard,
                        owned: Some(plan.spec(i)),
                        // Self-triggered compaction would let shards fold
                        // (and remap) at different queue positions and
                        // diverge; only the front's broadcast compact runs.
                        compact_pressure: f64::INFINITY,
                        compact_dead_fraction: f64::INFINITY,
                        ..cfg.clone()
                    },
                )
            })
            .collect();
        let gather_workers = n.clamp(2, 4);
        let obs = Arc::new(MetricsRegistry::new(gather_workers));
        let (tx, rx) = channel::<GatherJob>();
        let rx = Arc::new(Mutex::new(rx));
        let gather_handles = (0..gather_workers)
            .map(|w| {
                let rx = rx.clone();
                std::thread::spawn(move || loop {
                    // Hold the lock only across the blocking recv; the
                    // job itself runs unlocked so merges overlap.
                    let job = rx.lock().recv();
                    match job {
                        Ok(job) => job(w),
                        Err(_) => return,
                    }
                })
            })
            .collect();
        Self {
            shards: engines,
            plan,
            eta,
            obs,
            submit: Mutex::new(()),
            gather_tx: Mutex::new(Some(tx)),
            gather_handles,
        }
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The sharding plan (owned ranges, halos, load balance diagnostics).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    fn spawn_gather(&self, f: impl FnOnce(usize) + Send + 'static) -> Result<(), ()> {
        match &*self.gather_tx.lock() {
            Some(tx) => tx.send(Box::new(f)).map_err(|_| ()),
            None => Err(()),
        }
    }

    /// Scatters one [`ShardQuery`] per shard. Every shard is queried —
    /// even for candidate-subset requests — because the merged statistics
    /// need every shard's counters (see the module docs). A submission
    /// error (shed/stopped shard) aborts the scatter; already-queued
    /// shard reads run harmlessly to completion.
    fn scatter(
        &self,
        predicate: Predicate,
        candidates: Option<Vec<NodeId>>,
        opts: QueryOpts,
        scheduled: Ts,
    ) -> Result<Vec<Receiver<Result<ShardAnswer, QueryError>>>, QueryError> {
        self.shards
            .iter()
            .map(|e| {
                e.submit_shard_query_from(
                    ShardQuery { predicate, candidates: candidates.clone(), opts },
                    scheduled,
                )
            })
            .collect()
    }

    /// `Σ_p(x, G, η)` over `candidates` (or all candidates), merged
    /// across shards: submits the scatter and blocks for the gathered
    /// answer.
    pub fn identify(
        &self,
        predicate: Predicate,
        candidates: Option<Vec<NodeId>>,
    ) -> Result<IdentifyResponse, QueryError> {
        self.identify_opts(predicate, candidates, QueryOpts::default())
    }

    /// [`ShardedEngine::identify`] with explicit deadline / staleness
    /// options (enforced independently by each shard; the merged answer
    /// is `stale` if any shard's part was).
    pub fn identify_opts(
        &self,
        predicate: Predicate,
        candidates: Option<Vec<NodeId>>,
        opts: QueryOpts,
    ) -> Result<IdentifyResponse, QueryError> {
        let rx =
            self.submit_identify_from(IdentifyRequest { predicate, candidates, opts }, Ts::now())?;
        rx.recv().map_err(|_| QueryError::ReplyLost)?
    }

    /// Open-loop identify: scatters to every shard without blocking and
    /// returns the reply channel; a gather worker merges the parts and
    /// records the end-to-end latency from `scheduled`.
    pub fn submit_identify_from(
        &self,
        req: IdentifyRequest,
        scheduled: Ts,
    ) -> Result<Receiver<Result<IdentifyResponse, QueryError>>, QueryError> {
        let parts = self.scatter(req.predicate, req.candidates, req.opts, scheduled)?;
        let (tx, rx) = channel();
        let eta = self.eta;
        let obs = self.obs.clone();
        self.spawn_gather(move |w| {
            let res = gather_parts(parts, QueryError::ReplyLost).map(|a| merge_identify(&a, eta));
            obs.record(w, HistKind::IdentifyLatency, scheduled.elapsed());
            let _ = tx.send(res);
        })
        .map_err(|_| QueryError::Stopped)?;
        Ok(rx)
    }

    /// The `k` highest-confidence rules for `predicate` with **global**
    /// exact confidence, merged from every shard's counters.
    pub fn top_rules(&self, predicate: Predicate, k: usize) -> Result<Vec<RuleInfo>, QueryError> {
        let rx = self.submit_top_rules_from(predicate, k, QueryOpts::default(), Ts::now())?;
        rx.recv().map_err(|_| QueryError::ReplyLost)?
    }

    /// Non-blocking [`ShardedEngine::top_rules`] with an external
    /// schedule timestamp.
    pub fn submit_top_rules_from(
        &self,
        predicate: Predicate,
        k: usize,
        opts: QueryOpts,
        scheduled: Ts,
    ) -> Result<Receiver<Result<Vec<RuleInfo>, QueryError>>, QueryError> {
        let parts = self.scatter(predicate, None, opts, scheduled)?;
        let (tx, rx) = channel();
        let eta = self.eta;
        let obs = self.obs.clone();
        self.spawn_gather(move |w| {
            let res =
                gather_parts(parts, QueryError::ReplyLost).map(|a| merge_top_rules(&a, k, eta));
            obs.record(w, HistKind::TopRulesLatency, scheduled.elapsed());
            let _ = tx.send(res);
        })
        .map_err(|_| QueryError::Stopped)?;
        Ok(rx)
    }

    /// Applies one update batch to **every** shard (same submit order
    /// everywhere) and blocks until each shard has published a
    /// generation containing it. The merged report carries the
    /// structural fields once (they are identical across shards) and
    /// sums the repair-side tallies.
    pub fn apply_update(&self, update: &GraphUpdate) -> Result<UpdateReport, UpdateError> {
        let rx = self.submit_update_from(update.clone(), Ts::now())?;
        rx.recv().map_err(|_| UpdateError::Stopped)?
    }

    /// Open-loop update broadcast. Submission only fails when the
    /// engine is stopping (per-shard update queues are unbounded), so a
    /// partial broadcast cannot arise in steady state.
    pub fn submit_update_from(
        &self,
        update: GraphUpdate,
        scheduled: Ts,
    ) -> Result<Receiver<Result<UpdateReport, UpdateError>>, UpdateError> {
        let parts: Vec<Receiver<Result<UpdateReport, UpdateError>>> = {
            let _order = self.submit.lock();
            self.shards
                .iter()
                .map(|e| e.submit_update_from(update.clone(), scheduled))
                .collect::<Result<_, _>>()?
        };
        let (tx, rx) = channel();
        let obs = self.obs.clone();
        self.spawn_gather(move |w| {
            let res = gather_parts(parts, UpdateError::Stopped).map(merge_updates);
            obs.record(w, HistKind::UpdateLatency, scheduled.elapsed());
            let _ = tx.send(res);
        })
        .map_err(|_| UpdateError::Stopped)?;
        Ok(rx)
    }

    /// Broadcast compaction: folds every shard's overlay at the same
    /// update-queue position (the broadcast lock is held across all
    /// shards, so no update can interleave). All shards fold identical
    /// graphs, hence produce identical remaps; shard 0's is returned.
    pub fn compact(&self) -> Option<Arc<NodeRemap>> {
        let _order = self.submit.lock();
        let mut first = None;
        for (i, e) in self.shards.iter().enumerate() {
            let remap = e.compact();
            if i == 0 {
                first = remap;
            }
        }
        first
    }

    /// Every id-remapping compaction published after `epoch` (shard 0's
    /// log; remaps are identical across shards).
    pub fn remaps_since(&self, epoch: u64) -> Vec<(u64, Arc<NodeRemap>)> {
        self.shards[0].remaps_since(epoch)
    }

    /// Predicates this engine can serve (identical across shards: center
    /// filtering never drops a predicate group).
    pub fn predicates(&self) -> Vec<Predicate> {
        self.shards[0].predicates()
    }

    /// The shared label vocabulary.
    pub fn vocab(&self) -> Arc<Vocab> {
        self.shards[0].vocab()
    }

    /// Current serving-graph size as `(nodes, edges)` — shard 0's view;
    /// all shards hold the same graph.
    pub fn graph_size(&self) -> (usize, usize) {
        self.shards[0].graph_size()
    }

    /// Write-pipeline counters from shard 0, the representative replica:
    /// every shard accepts the same update stream, so `updates`,
    /// `compactions`, and the coalescing invariant read the same
    /// everywhere (though `snapshot_publishes` may differ — coalescing
    /// windows are timing-dependent per shard). Query-side counters
    /// count shard 0's scatter reads.
    pub fn stats(&self) -> EngineStats {
        self.shards[0].stats()
    }

    /// Shard `i`'s own counters (exact for that replica).
    pub fn shard_stats(&self, shard: usize) -> EngineStats {
        self.shards[shard].stats()
    }

    /// Shard `i`'s full metrics snapshot ([`HistKind::ShardQueryLatency`]
    /// holds its scatter-read latencies).
    pub fn shard_metrics(&self, shard: usize) -> MetricsSnapshot {
        self.shards[shard].metrics()
    }

    /// The front's own registry: end-to-end Identify / TopRules / Update
    /// latencies measured at merge completion.
    pub fn front_metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Grand-total snapshot: the front registry merged with every
    /// shard's. Counters and gauges are sums over all replicas; note
    /// that [`HistKind::UpdateLatency`] then mixes the front's
    /// end-to-end samples with each shard's per-replica publish
    /// latencies (one + `shards` samples per logical update) — use
    /// [`ShardedEngine::front_metrics`] / [`ShardedEngine::shard_metrics`]
    /// when the distinction matters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let front = self.obs.snapshot();
        let per: Vec<MetricsSnapshot> = self.shards.iter().map(ServeEngine::metrics).collect();
        MetricsSnapshot::merged(std::iter::once(&front).chain(per.iter()))
    }

    /// Stops every shard engine (queued jobs get typed errors, as in
    /// [`ServeEngine::stop`]). Idempotent; also invoked by `Drop`.
    pub fn stop(&self) {
        for e in &self.shards {
            e.stop();
        }
        // Close the gather pool's intake; workers drain queued merges
        // (their parts answer promptly once the shards are stopped) and
        // exit on the closed channel.
        self.gather_tx.lock().take();
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        self.stop();
        for h in self.gather_handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Collects every shard's part, failing with the **first** error in
/// shard order (deterministic under races: shard order, not arrival
/// order). `lost` is the error for a reply channel that died without an
/// answer.
fn gather_parts<T, E: Clone>(parts: Vec<Receiver<Result<T, E>>>, lost: E) -> Result<Vec<T>, E> {
    let mut out = Vec::with_capacity(parts.len());
    for rx in parts {
        match rx.recv() {
            Ok(Ok(part)) => out.push(part),
            Ok(Err(e)) => return Err(e),
            Err(_) => return Err(lost.clone()),
        }
    }
    Ok(out)
}

/// Sums per-shard counters into exact global per-rule [`ConfStats`].
/// Rules are aligned positionally: every shard's group was built from
/// the same catalog against the same graph, so the rule vectors are
/// identical (same `Arc`s, same order).
fn merge_stats(answers: &[ShardAnswer]) -> Vec<ConfStats> {
    let first = &answers[0];
    let n_rules = first.rules.len();
    let mut per_rule = vec![(0u64, 0u64, 0u64); n_rules];
    let (mut supp_q, mut supp_qbar) = (0u64, 0u64);
    for a in answers {
        debug_assert_eq!(a.rules.len(), n_rules, "shards disagree on the rule group");
        debug_assert!(
            a.rules.iter().zip(&first.rules).all(|(x, y)| Arc::ptr_eq(x, y)),
            "shards disagree on rule identity/order"
        );
        supp_q += a.supp_q;
        supp_qbar += a.supp_qbar;
        for (slot, &(r, qq, qa)) in per_rule.iter_mut().zip(&a.per_rule) {
            slot.0 += r;
            slot.1 += qq;
            slot.2 += qa;
        }
    }
    per_rule
        .iter()
        .map(|&(supp_r, supp_q_qbar, supp_q_ante)| ConfStats {
            supp_r,
            supp_q_ante,
            supp_q,
            supp_qbar,
            supp_q_qbar,
        })
        .collect()
}

/// Merges shard parts into the global identify answer: global η mask
/// from the summed counters, then the sorted deduplicated union of the
/// active rules' member lists.
fn merge_identify(answers: &[ShardAnswer], eta: f64) -> IdentifyResponse {
    let stats = merge_stats(answers);
    let active: Vec<bool> = stats.iter().map(|s| s.conf().at_least(eta)).collect();
    let mut customers: Vec<NodeId> = Vec::new();
    let mut evaluated = 0usize;
    let (mut warmed, mut stale) = (false, false);
    let mut epoch = u64::MAX;
    for a in answers {
        for (members, &act) in a.q_members.iter().zip(&active) {
            if act {
                customers.extend_from_slice(members);
            }
        }
        evaluated += a.evaluated;
        warmed |= a.warmed;
        stale |= a.stale;
        epoch = epoch.min(a.epoch);
    }
    // A center can match several active rules (within its one owning
    // shard), so the union needs a dedup even though shards are disjoint.
    customers.sort_unstable();
    customers.dedup();
    IdentifyResponse { customers, evaluated, warmed, epoch, stale }
}

/// Merges shard parts into the global top-k: exact global confidence
/// per rule, ranked with the same comparator as the single engine.
fn merge_top_rules(answers: &[ShardAnswer], k: usize, eta: f64) -> Vec<RuleInfo> {
    let stats = merge_stats(answers);
    let mut out: Vec<RuleInfo> = answers[0]
        .rules
        .iter()
        .zip(&stats)
        .map(|(rule, &stats)| RuleInfo {
            rule: rule.clone(),
            confidence: stats.conf(),
            stats,
            active: stats.conf().at_least(eta),
        })
        .collect();
    out.sort_by(|a, b| {
        b.confidence
            .ranking_value()
            .total_cmp(&a.confidence.ranking_value())
            .then(b.stats.supp_r.cmp(&a.stats.supp_r))
    });
    out.truncate(k);
    out
}

/// Merges per-shard update reports: the structural fields (assigned ids,
/// touched set, effective edge/node deltas) are identical across shards
/// and taken from the first; repair tallies are summed (per-shard
/// ledgers are disjoint by center ownership).
fn merge_updates(reports: Vec<UpdateReport>) -> UpdateReport {
    let mut it = reports.into_iter();
    let mut out = it.next().expect("at least one shard");
    for r in it {
        debug_assert_eq!(out.assigned, r.assigned, "shards disagree on assigned ids");
        debug_assert_eq!(out.touched, r.touched, "shards disagree on the touched set");
        out.reevaluated += r.reevaluated;
        out.added_centers += r.added_centers;
        out.removed_centers += r.removed_centers;
        out.rebuilt_groups += r.rebuilt_groups;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpar_core::Gpar;
    use gpar_graph::GraphBuilder;
    use gpar_pattern::PatternBuilder;

    /// The doc-example graph scaled up: `likes` customers, of which
    /// `visits` already visit — spread across the id space so every
    /// shard owns some centers.
    fn fixture(likes: u32, visits: u32) -> (Arc<Graph>, RuleCatalog, Predicate) {
        let vocab = Vocab::new();
        let (cust, rest) = (vocab.intern("cust"), vocab.intern("rest"));
        let (like, visit) = (vocab.intern("like"), vocab.intern("visit"));
        let mut b = GraphBuilder::new(vocab.clone());
        let r = b.add_node(rest);
        let mut centers = Vec::new();
        for _ in 0..likes {
            centers.push(b.add_node(cust));
        }
        for &c in &centers {
            b.add_edge(c, r, like);
        }
        for &c in centers.iter().take(visits as usize) {
            b.add_edge(c, r, visit);
        }
        let g = Arc::new(b.build());
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node(cust);
        let y = pb.node(rest);
        pb.edge(x, y, like);
        let rule = Gpar::new(pb.designate(x, y).build().unwrap(), visit).unwrap();
        let pred = *rule.predicate();
        let mut catalog = RuleCatalog::new(vocab);
        catalog.insert(Arc::new(rule), ConfStats::default());
        (g, catalog, pred)
    }

    fn cfg() -> ServeConfig {
        ServeConfig { eta: 0.0, workers: 2, ..Default::default() }
    }

    #[test]
    fn sharded_identify_matches_single_engine() {
        let (g, catalog, pred) = fixture(12, 5);
        let single = ServeEngine::new(g.clone(), &catalog, cfg());
        let want = single.identify(pred, None).unwrap();
        for shards in [1usize, 2, 3, 4] {
            let sharded = ShardedEngine::new(g.clone(), &catalog, cfg(), shards);
            let got = sharded.identify(pred, None).unwrap();
            assert_eq!(got.customers, want.customers, "{shards} shards");
            assert_eq!(got.evaluated, want.evaluated, "{shards} shards");
        }
    }

    #[test]
    fn sharded_top_rules_reports_global_confidence() {
        let (g, catalog, pred) = fixture(12, 5);
        let single = ServeEngine::new(g.clone(), &catalog, cfg());
        let want = single.top_rules(pred, 8).unwrap();
        let sharded = ShardedEngine::new(g, &catalog, cfg(), 3);
        let got = sharded.top_rules(pred, 8).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!(Arc::ptr_eq(&g.rule, &w.rule));
            assert_eq!(g.stats, w.stats, "counters must sum to the global counts");
            assert_eq!(g.confidence, w.confidence);
            assert_eq!(g.active, w.active);
        }
    }

    #[test]
    fn broadcast_update_keeps_shards_equal_to_single() {
        let (g, catalog, pred) = fixture(10, 4);
        let single = ServeEngine::new(g.clone(), &catalog, cfg());
        let sharded = ShardedEngine::new(g.clone(), &catalog, cfg(), 2);
        // Warm both, then flip one liker into a visitor (center 3 likes
        // and now visits: it leaves the answer set).
        single.identify(pred, None).unwrap();
        sharded.identify(pred, None).unwrap();
        let vocab = sharded.vocab();
        let visit = vocab.intern("visit");
        let mut up = GraphUpdate::default();
        up.new_edges.push((NodeId(6), NodeId(0), visit));
        let a = single.apply_update(&up).unwrap();
        let b = sharded.apply_update(&up).unwrap();
        assert_eq!(a.touched, b.touched);
        assert_eq!(a.added_edges, b.added_edges);
        let want = single.identify(pred, None).unwrap();
        let got = sharded.identify(pred, None).unwrap();
        assert_eq!(got.customers, want.customers);
        assert_eq!(got.stale, want.stale);
    }

    #[test]
    #[cfg_attr(feature = "obs-off", ignore = "latency recording is compiled out")]
    fn front_records_end_to_end_latency() {
        let (g, catalog, pred) = fixture(8, 3);
        let sharded = ShardedEngine::new(g, &catalog, cfg(), 2);
        sharded.identify(pred, None).unwrap();
        sharded.top_rules(pred, 4).unwrap();
        let front = sharded.front_metrics();
        assert_eq!(front.hist(HistKind::IdentifyLatency).count(), 1);
        assert_eq!(front.hist(HistKind::TopRulesLatency).count(), 1);
        // Shards record their scatter reads, never end-to-end kinds.
        let s0 = sharded.shard_metrics(0);
        assert_eq!(s0.hist(HistKind::IdentifyLatency).count(), 0);
        assert!(s0.hist(HistKind::ShardQueryLatency).count() >= 2);
    }

    #[test]
    fn stop_fails_new_queries_without_hanging() {
        let (g, catalog, pred) = fixture(6, 2);
        let sharded = ShardedEngine::new(g, &catalog, cfg(), 2);
        sharded.stop();
        assert!(matches!(
            sharded.identify(pred, None),
            Err(QueryError::Stopped) | Err(QueryError::ReplyLost)
        ));
    }
}
