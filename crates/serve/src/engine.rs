//! The serving engine's public surface: configuration, request and
//! response types, and [`ServeEngine`], a fixed worker pool serving
//! `identify` and `top_rules` requests concurrently over one graph +
//! catalog, with live graph updates, reading lock-free epoch snapshots
//! ([`EngineView`]). How a request is admitted, read and written lives in
//! the `admission`, `read` and `write` modules; the warm ledger every
//! stage shares lives in `ledger`.
//!
//! ## Consistency contract
//!
//! For any predicate `p` in the catalog and any candidate subset `C`,
//! after any sequence of updates:
//! `identify(p, C).customers = C ∩ identify_eip(G', Σ_p, η).customers`
//! where `G'` is the current (post-update) graph — i.e. incremental
//! answers are those of a from-scratch rebuild. The differential property
//! suites (`tests/prop_delta_equivalence.rs`,
//! `tests/prop_invalidation_scope.rs`) pin this down.

use crate::admission::{worker_loop, Deadline, Job};
use crate::catalog::RuleCatalog;
use crate::clock::UpdateClock;
use crate::index::CandidateIndex;
use crate::ledger::PredicateState;
use crate::write::{writer_loop, UpdateJob};
use arc_swap::ArcSwap;
use gpar_core::{ConfStats, Confidence, Gpar, Predicate};
use gpar_eip::{EipAlgorithm, MatchOpts};
use gpar_exec::{Injector, Priority};
use gpar_graph::{
    DeltaGraph, FxHashMap, Graph, GraphUpdate, GraphView, Label, NodeId, NodeRemap, UpdateInvalid,
    Vocab,
};
use gpar_obs::{
    Gauge, HistKind, MetricsRegistry, MetricsSnapshot, Trace, TraceBuilder, TraceRecorder, Ts,
};
// The per-snapshot ledger map, the warm lock, and the update clock
// use the parking_lot shim's non-poisoning primitives: a worker (or a
// chaos failpoint in the write pipeline) that panics while holding a
// lock must not poison shared state and brick every subsequent query —
// each protected structure is consistent between operations, so recovery
// is always safe.
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Confidence bound η gating which rules admit customers.
    pub eta: f64,
    /// Evaluation radius override; `None` derives it per predicate from
    /// the rules (EIP's rule).
    pub d: Option<u32>,
    /// Per-candidate matching preset (the EIP algorithm variants).
    pub algorithm: EipAlgorithm,
    /// Per-request traces retained in the engine's ring buffer
    /// ([`ServeEngine::traces`]; 0 disables trace recording).
    pub trace_capacity: usize,
    /// Admission bound on the job queue, per priority lane (0 =
    /// unbounded). When a lane is full, `submit_*` fails fast with
    /// [`QueryError::Shed`] instead of growing the backlog without
    /// limit — under sustained overload the shed rate, not queue depth,
    /// absorbs the excess.
    pub queue_capacity: usize,
    /// How long the writer lingers after popping an update, absorbing
    /// further queued batches into the same net generation before
    /// publishing. `ZERO` (the default) still merges everything *already*
    /// queued — a burst submitted ahead of the writer coalesces either
    /// way — but never delays a lone update.
    pub coalesce_window: Duration,
    /// Most update batches folded into one generation (bounds both the
    /// latency of the first batch in a window and the size of the net
    /// diff a single publish carries).
    pub coalesce_max_batch: usize,
    /// Overlay-pressure threshold for self-triggering compaction: after a
    /// publish, when `(delta nodes+edges + tombstones + relabels + dead
    /// slots) / (live nodes+edges)` crosses this, the writer folds the
    /// overlay into a fresh CSR base as its own snapshot generation.
    /// `f64::INFINITY` disables auto-compaction.
    pub compact_pressure: f64,
    /// Auto-compaction takes the **id-remapping** form only when the
    /// dead-slot fraction alone exceeds this (remaps invalidate caller-
    /// held node ids — see [`ServeEngine::remaps_since`] — so the writer
    /// avoids them until dead slots dominate). Until then, an overlay
    /// with pending removals is left un-compacted.
    pub compact_dead_fraction: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: gpar_exec::default_workers(4),
            eta: 1.5,
            d: None,
            algorithm: EipAlgorithm::Match,
            trace_capacity: 256,
            queue_capacity: 0,
            coalesce_window: Duration::ZERO,
            coalesce_max_batch: 64,
            compact_pressure: 0.5,
            compact_dead_fraction: 0.6,
        }
    }
}

/// Errors returned by queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// No cataloged rule pertains to the predicate (or none is
    /// satisfiable in this graph).
    UnknownPredicate,
    /// The worker pool has shut down. Jobs still queued when
    /// [`ServeEngine::stop`] runs are failed with this error instead of
    /// being silently dropped.
    Stopped,
    /// The query evaluation panicked. The worker caught the panic, so the
    /// pool keeps serving; only this request is lost.
    Panicked,
    /// Rejected at admission: the job queue's lane was at capacity
    /// ([`ServeConfig::queue_capacity`]). `depth` is the total backlog
    /// observed at rejection time. Retry later or shed upstream.
    Shed {
        /// Queued jobs (both lanes) when the request was rejected.
        depth: usize,
    },
    /// The request's deadline ([`QueryOpts::deadline`]) expired before an
    /// answer was produced. The budget runs from the schedule timestamp;
    /// workers check it at stage boundaries, and an answer that completes
    /// late is replaced by this error rather than delivered stale.
    DeadlineExceeded {
        /// The requested budget.
        budget: Duration,
        /// Time actually elapsed when the request was abandoned.
        elapsed: Duration,
    },
    /// The worker's reply channel disconnected without an answer — a
    /// worker died catastrophically. Distinct from [`QueryError::Stopped`]
    /// (orderly shutdown), which pending jobs receive explicitly.
    ReplyLost,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownPredicate => write!(f, "no cataloged rules for this predicate"),
            QueryError::Stopped => write!(f, "serving engine stopped"),
            QueryError::Panicked => write!(f, "query evaluation panicked"),
            QueryError::Shed { depth } => {
                write!(f, "request shed at admission (queue depth {depth})")
            }
            QueryError::DeadlineExceeded { budget, elapsed } => {
                write!(f, "deadline exceeded: budget {budget:?}, elapsed {elapsed:?}")
            }
            QueryError::ReplyLost => write!(f, "reply channel lost without an answer"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Per-request quality-of-service options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOpts {
    /// Latency budget, measured from the request's schedule timestamp
    /// (`submit_*_from`'s `scheduled`; submission time for the blocking
    /// wrappers). Workers check it at stage boundaries — on dequeue,
    /// after lock acquisition, after the answer — and answer
    /// [`QueryError::DeadlineExceeded`] instead of finishing dead work.
    /// `None` disables the deadline.
    pub deadline: Option<Duration>,
    /// Opt-in bounded staleness, measured as **publish lag**: reads are
    /// always served lock-free from the latest published snapshot, and
    /// when updates have been *accepted but not yet published*, that
    /// snapshot trails the write frontier. A request carrying a bound
    /// accepts answers whose oldest unpublished update is at most this
    /// old (`stale = true`, stamped with the snapshot's epoch); if the
    /// lag exceeds the bound, the request waits (deadline-aware) for the
    /// writer to publish instead of answering too far behind.
    /// `Some(ZERO)` therefore always observes every accepted update;
    /// `None` serves the latest snapshot without a staleness claim and
    /// never stamps `stale`.
    pub staleness: Option<Duration>,
}

/// One identification request.
#[derive(Debug, Clone)]
pub struct IdentifyRequest {
    /// The event `q(x, y)` to identify potential customers for.
    pub predicate: Predicate,
    /// Candidate centers to test; `None` means all candidates `L`.
    pub candidates: Option<Vec<NodeId>>,
    /// Deadline / staleness options (default: none).
    pub opts: QueryOpts,
}

/// The answer to an [`IdentifyRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentifyResponse {
    /// Identified potential customers, sorted by node id.
    pub customers: Vec<NodeId>,
    /// The requested candidates that are in `L` (deduplicated), or `|L|`
    /// when the request named none. It means the same on every read,
    /// the warming one included: every answer is a ledger read, and the
    /// warm-up's own evaluations are counted by the `warmups` and
    /// `centers_evaluated` counters, not here.
    pub evaluated: usize,
    /// Whether this request performed the predicate warm-up.
    pub warmed: bool,
    /// View epoch this answer reflects (bumped once per published
    /// snapshot generation). Stale-bounded answers stamp the epoch of
    /// the snapshot they read, which may lag unpublished updates.
    pub epoch: u64,
    /// Whether this answer was served within a staleness bound while
    /// accepted-but-unpublished updates were in flight
    /// ([`QueryOpts::staleness`]) — the snapshot it read predates those
    /// updates.
    pub stale: bool,
}

/// One rule with its serving-graph confidence, as returned by
/// [`ServeEngine::top_rules`].
#[derive(Debug, Clone)]
pub struct RuleInfo {
    /// The rule.
    pub rule: Arc<Gpar>,
    /// Exact confidence on the serving graph.
    pub confidence: Confidence,
    /// Exact counts on the serving graph.
    pub stats: ConfStats,
    /// Whether the rule clears η (i.e. contributes customers).
    pub active: bool,
}

/// Errors returned by [`ServeEngine::apply_update`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The update references a node id outside the graph (counting the
    /// update's own node appends; deletions may only reference pre-batch
    /// ids). Nothing was applied.
    NodeOutOfRange(NodeId),
    /// The update relabels or attaches an edge to a node that is removed —
    /// either by an earlier batch or by this batch's own `del_nodes`.
    /// Nothing was applied.
    NodeRemoved(NodeId),
    /// Appending this batch's `new_nodes` would overflow the `u32` node
    /// id space (`have` existing id slots + `adding` appends >
    /// `gpar_graph::MAX_NODE_SLOTS`). Rejected at batch admission —
    /// nothing was applied, and no truncated ids were ever acked.
    IdSpaceExhausted {
        /// Id slots already allocated (live + tombstoned).
        have: usize,
        /// Nodes the rejected batch tried to append.
        adding: usize,
    },
    /// The update pipeline panicked while this batch's generation was
    /// being built (e.g. a chaos-injected fault). The generation was
    /// abandoned *before* the publish swap, so nothing this batch — or
    /// any batch coalesced with it — changed is visible.
    Panicked,
    /// The batch was rejected at admission by a fault-injection plan (the
    /// `chaos` feature's poisoned-batch failpoint). Nothing was applied.
    Rejected,
    /// The engine stopped before this batch was applied: it was still in
    /// the update queue (or submitted afterwards) when
    /// [`ServeEngine::stop`] drained the pipeline. Nothing was applied.
    Stopped,
}

impl From<UpdateInvalid> for UpdateError {
    fn from(e: UpdateInvalid) -> Self {
        match e {
            UpdateInvalid::NodeOutOfRange(v) => UpdateError::NodeOutOfRange(v),
            UpdateInvalid::NodeRemoved(v) => UpdateError::NodeRemoved(v),
            UpdateInvalid::IdSpaceExhausted { have, adding } => {
                UpdateError::IdSpaceExhausted { have, adding }
            }
        }
    }
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::NodeOutOfRange(v) => {
                write!(f, "update references node {v} out of range")
            }
            UpdateError::NodeRemoved(v) => {
                write!(f, "update references removed node {v}")
            }
            UpdateError::IdSpaceExhausted { have, adding } => {
                write!(
                    f,
                    "appending {adding} nodes to {have} existing id slots \
                     would overflow the u32 node id space"
                )
            }
            UpdateError::Panicked => {
                write!(f, "update generation panicked; nothing was published")
            }
            UpdateError::Rejected => {
                write!(f, "update batch rejected by fault injection; nothing was applied")
            }
            UpdateError::Stopped => {
                write!(f, "engine stopped before the update was applied")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// What one [`ServeEngine::apply_update`] call changed. When the writer
/// coalesced several batches into one generation, `assigned` is always
/// **this batch's** ids, while the repair-side tallies (`touched`,
/// `reevaluated`, …) describe the whole generation the batch
/// rode in — the publish is one atomic unit and its repair work is not
/// attributable per input batch.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Ids assigned to the update's `new_nodes`, in input order.
    pub assigned: Vec<NodeId>,
    /// Nodes whose incident structure or label effectively changed
    /// (sorted, deduplicated) — the invalidation seed set.
    pub touched: Vec<NodeId>,
    /// Effective (non-duplicate) edge inserts.
    pub added_edges: usize,
    /// Effective edge deletions, including edges cascaded from node
    /// removals.
    pub removed_edges: usize,
    /// Effective node removals.
    pub removed_nodes: usize,
    /// Always empty: the engine keeps no d-ball cache to evict from.
    /// It stays only so that callers written against it (perfbench's
    /// `serve.identify1_miss_us` probe) still build, and goes with them.
    pub evicted: Vec<(NodeId, u32)>,
    /// Centers re-evaluated across all warmed predicates.
    pub reevaluated: usize,
    /// Candidate centers admitted (new/relabeled-in nodes).
    pub added_centers: usize,
    /// Candidate centers retired (relabeled-away nodes).
    pub removed_centers: usize,
    /// Predicate groups rebuilt from scratch because the update
    /// introduced a label that re-activates a deactivated rule.
    pub rebuilt_groups: usize,
}

/// One published snapshot generation: graph overlay, candidate index,
/// label histograms and warm ledgers, all consistent with each other at
/// `epoch`. Queries load the current snapshot `Arc` with one lock-free
/// atomic read (behind an [`ArcSwap`]) and answer entirely from it, so
/// readers never block on writers, and a snapshot lives until its last
/// in-flight query drops it. The writer builds the next generation as a
/// copy-on-write successor and publishes it with a single pointer swap.
/// The structural fields are frozen after publish; `states` has mutex
/// interior because a predicate's first query *warms into* the snapshot
/// it read, and the writer carries that ledger forward (patched) into the
/// next generation.
pub(crate) struct EngineView {
    pub(crate) graph: DeltaGraph,
    pub(crate) index: CandidateIndex,
    pub(crate) node_hist: FxHashMap<Label, u64>,
    pub(crate) edge_hist: FxHashMap<Label, u64>,
    /// Bumped once per published generation; answers stamp the epoch
    /// they read so clients can order them against updates.
    pub(crate) epoch: u64,
    /// Per-predicate warm ledgers, versioned with this snapshot: each
    /// state's answers are exact for `graph` (patched by the writer when
    /// the generation was built; stamped with the epoch that last
    /// touched them).
    pub(crate) states: Mutex<FxHashMap<Predicate, Arc<PredicateState>>>,
}

/// What the pool workers and the writer share behind one `Arc`.
pub(crate) struct Shared {
    /// The published snapshot. Queries grab it with one lock-free atomic
    /// load (`load_full`) and evaluate entirely against that generation;
    /// only the writer thread swaps in successors.
    pub(crate) view: ArcSwap<EngineView>,
    /// The catalog, retained for rule re-activation rebuilds.
    pub(crate) catalog: RuleCatalog,
    pub(crate) cfg: ServeConfig,
    /// Serializes warm-up passes so concurrent cold queries for one
    /// predicate don't all run the full O(|L|) scan (warm-ups happen once
    /// per predicate, so cross-predicate contention here is negligible).
    pub(crate) warm_lock: Mutex<()>,
    /// Per-worker-sharded counters + latency histograms. Engine counters
    /// (queries, warm-ups, updates) live here exclusively;
    /// [`ServeEngine::metrics`] reads them at one stable epoch.
    pub(crate) obs: Arc<MetricsRegistry>,
    /// Bounded ring of recent per-request traces.
    pub(crate) traces: TraceRecorder,
    /// Accepted-but-unpublished update batches. Staleness-bounded reads
    /// ([`QueryOpts::staleness`]) measure the published snapshot's lag
    /// against it and wait when the lag exceeds their bound.
    pub(crate) clock: UpdateClock,
    /// `(epoch, remap)` per id-remapping compaction, oldest first —
    /// served by [`ServeEngine::remaps_since`].
    pub(crate) remap_log: Mutex<Vec<(u64, Arc<NodeRemap>)>>,
    /// Mirrors the published snapshot's epoch into the metrics gauges.
    pub(crate) view_epoch: Gauge,
}

impl Shared {
    /// Records a finished request: root duration into `kind`'s histogram,
    /// each stage into its mapped histogram, and the trace into the ring.
    pub(crate) fn finish_trace(
        &self,
        shard: usize,
        tb: TraceBuilder,
        total: Duration,
        kind: HistKind,
    ) {
        self.obs.record(shard, kind, total);
        let trace = tb.finish(total);
        for &(stage, d) in &trace.stages {
            self.obs.record(shard, stage.hist(), d);
        }
        self.traces.push(trace);
    }

    pub(crate) fn opts(&self) -> MatchOpts {
        MatchOpts::for_algorithm(self.cfg.algorithm)
    }
}

/// The serving engine: index + warm state + fixed worker pool.
///
/// Cloning is not supported; share the engine behind an `Arc` if multiple
/// frontends submit queries. Dropping the engine shuts the pool down and
/// joins every worker.
pub struct ServeEngine {
    pub(crate) shared: Arc<Shared>,
    pub(crate) jobs: Arc<Injector<Job>>,
    pub(crate) updates: Arc<Injector<UpdateJob>>,
    handles: Vec<JoinHandle<()>>,
}

impl ServeEngine {
    /// Builds the index for `(graph, catalog)`, publishes the initial
    /// snapshot, and spawns the query pool plus the single writer.
    pub fn new(graph: Arc<Graph>, catalog: &RuleCatalog, cfg: ServeConfig) -> Self {
        let index = CandidateIndex::build(
            &*graph,
            catalog,
            cfg.d,
            &MatchOpts::for_algorithm(cfg.algorithm),
        );
        let node_hist = graph.node_label_histogram();
        let edge_hist = graph.edge_label_histogram();
        let workers = cfg.workers.max(1);
        let queue_capacity = cfg.queue_capacity;
        let obs = Arc::new(MetricsRegistry::new(workers));
        let shared = Arc::new(Shared {
            view: ArcSwap::new(Arc::new(EngineView {
                graph: DeltaGraph::new(graph),
                index,
                node_hist,
                edge_hist,
                epoch: 0,
                states: Mutex::new(FxHashMap::default()),
            })),
            catalog: catalog.clone(),
            warm_lock: Mutex::new(()),
            obs: obs.clone(),
            traces: TraceRecorder::new(cfg.trace_capacity),
            clock: UpdateClock::default(),
            remap_log: Mutex::new(Vec::new()),
            view_epoch: obs.register_gauge("view_epoch"),
            cfg,
        });
        let jobs: Arc<Injector<Job>> = Arc::new(
            Injector::with_depth_gauge(obs.register_gauge("injector_depth"))
                .with_capacity(queue_capacity),
        );
        // The update queue is unbounded: writers block on their reply
        // (or watch the depth gauge when submitting open-loop), so
        // admission control belongs to the caller, not the queue.
        let updates: Arc<Injector<UpdateJob>> =
            Arc::new(Injector::with_depth_gauge(obs.register_gauge("update_queue_depth")));
        let mut handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                let jobs = jobs.clone();
                std::thread::spawn(move || worker_loop(shared, jobs, w))
            })
            .collect();
        handles.push({
            let shared = shared.clone();
            let updates = updates.clone();
            std::thread::spawn(move || writer_loop(shared, updates))
        });
        Self { shared, jobs, updates, handles }
    }

    /// `Σ_p(x, G, η)` over `candidates` (or all candidates): submits one
    /// job to the pool and blocks for the answer.
    pub fn identify(
        &self,
        predicate: Predicate,
        candidates: Option<Vec<NodeId>>,
    ) -> Result<IdentifyResponse, QueryError> {
        self.identify_opts(predicate, candidates, QueryOpts::default())
    }

    /// [`ServeEngine::identify`] with explicit deadline / staleness
    /// options.
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

    /// Submits an identify request without blocking, returning the reply
    /// channel — the open-loop load harness's entry point. Queue wait and
    /// end-to-end latency are measured from `scheduled`, which callers
    /// replaying a workload set to the request's *intended* arrival time:
    /// if submission itself lags the schedule, the lag is charged to the
    /// request rather than silently dropped (coordinated omission).
    pub fn submit_identify_from(
        &self,
        req: IdentifyRequest,
        scheduled: Ts,
    ) -> Result<Receiver<Result<IdentifyResponse, QueryError>>, QueryError> {
        let (tx, rx) = channel();
        let dl = Deadline::arm(&req.opts, scheduled);
        self.submit(Job::Identify(req, scheduled, dl, tx))?;
        Ok(rx)
    }

    /// Submits a whole batch concurrently and collects the answers in
    /// request order. With `workers > 1`, requests overlap.
    pub fn identify_batch(
        &self,
        reqs: Vec<IdentifyRequest>,
    ) -> Vec<Result<IdentifyResponse, QueryError>> {
        let mut waits = Vec::with_capacity(reqs.len());
        for req in reqs {
            waits.push(self.submit_identify_from(req, Ts::now()));
        }
        waits
            .into_iter()
            .map(|w| match w {
                // Submission errors (Shed / Stopped) surface as-is above;
                // a recv failure is specifically a reply channel that died
                // without an answer, not a shutdown.
                Ok(rx) => rx.recv().unwrap_or(Err(QueryError::ReplyLost)),
                Err(e) => Err(e),
            })
            .collect()
    }

    /// The `k` highest-confidence rules for `pred`, with exact confidence
    /// on the serving graph (warms the predicate if needed).
    pub fn top_rules(&self, predicate: Predicate, k: usize) -> Result<Vec<RuleInfo>, QueryError> {
        let rx = self.submit_top_rules_from(predicate, k, QueryOpts::default(), Ts::now())?;
        rx.recv().map_err(|_| QueryError::ReplyLost)?
    }

    /// Non-blocking [`ServeEngine::top_rules`] with an external schedule
    /// timestamp; see [`ServeEngine::submit_identify_from`]. Only
    /// `opts.deadline` applies: `top_rules` reads whatever snapshot is
    /// published and never takes the stale path.
    pub fn submit_top_rules_from(
        &self,
        predicate: Predicate,
        k: usize,
        opts: QueryOpts,
        scheduled: Ts,
    ) -> Result<Receiver<Result<Vec<RuleInfo>, QueryError>>, QueryError> {
        let (tx, rx) = channel();
        let dl = Deadline::arm(&opts, scheduled);
        self.submit(Job::TopRules(predicate, k, scheduled, dl, tx))?;
        Ok(rx)
    }

    /// Applies one insert/relabel/deletion batch to the serving graph:
    /// the batch rides the writer's coalescing window (possibly merged
    /// with concurrently submitted batches into one published
    /// generation) and this call blocks until that generation is
    /// published — never blocking any reader. A malformed batch
    /// (out-of-range or removed node reference) is rejected whole:
    /// `Err` means nothing of *this* batch was applied.
    pub fn apply_update(&self, update: &GraphUpdate) -> Result<UpdateReport, UpdateError> {
        self.apply_update_from(update, Ts::now())
    }

    /// [`ServeEngine::apply_update`] with an external schedule timestamp:
    /// the recorded update latency (and its trace's root duration) starts
    /// at `scheduled`, charging queue + window wait to the batch exactly
    /// like queue wait is charged to queries.
    pub fn apply_update_from(
        &self,
        update: &GraphUpdate,
        scheduled: Ts,
    ) -> Result<UpdateReport, UpdateError> {
        let rx = self.submit_update_from(update.clone(), scheduled)?;
        rx.recv().map_err(|_| UpdateError::Stopped)?
    }

    /// Submits an update without blocking, returning the reply channel —
    /// the open-loop load harness's write-side entry point. The update
    /// is accepted into the pipeline immediately (staleness-bounded
    /// readers start counting it against their bound now); the channel
    /// yields the report once its generation publishes.
    pub fn submit_update_from(
        &self,
        update: GraphUpdate,
        scheduled: Ts,
    ) -> Result<Receiver<Result<UpdateReport, UpdateError>>, UpdateError> {
        let (tx, rx) = channel();
        self.shared.clock.submit();
        match self
            .updates
            .push_with(UpdateJob::Update { update, scheduled, reply: tx }, Priority::Normal)
        {
            Ok(()) => Ok(rx),
            Err(_) => {
                self.shared.clock.settle(1);
                Err(UpdateError::Stopped)
            }
        }
    }

    /// Merges all pending overlay deltas back into a fresh CSR base,
    /// published as its own snapshot generation; answers are unchanged
    /// either way. Routed through the update queue, so it serializes
    /// behind in-flight generations. Returns `None` when node ids were
    /// stable (no pending node removals): index and warm state survive
    /// untouched. Returns the old→new [`NodeRemap`]
    /// when removals re-densified the id space: internal id-keyed state
    /// is translated automatically, and callers holding node ids across
    /// the call must translate them the same way (also available later
    /// via [`ServeEngine::remaps_since`]). The writer triggers the same
    /// fold by itself under overlay pressure — see
    /// [`ServeConfig::compact_pressure`].
    pub fn compact(&self) -> Option<Arc<NodeRemap>> {
        let (tx, rx) = channel();
        if self.updates.push_with(UpdateJob::Compact { reply: tx }, Priority::Normal).is_err() {
            return None;
        }
        rx.recv().unwrap_or(None)
    }

    /// Every id-remapping compaction published after `epoch`, oldest
    /// first. A caller holding node ids stamped with epoch `e` resyncs
    /// by translating through each remap in order.
    pub fn remaps_since(&self, epoch: u64) -> Vec<(u64, Arc<NodeRemap>)> {
        self.shared.remap_log.lock().iter().filter(|(e, _)| *e > epoch).cloned().collect()
    }

    /// Predicates this engine can serve.
    pub fn predicates(&self) -> Vec<Predicate> {
        self.shared.view.load_full().index.groups().map(|g| g.predicate).collect()
    }

    /// The shared label vocabulary.
    pub fn vocab(&self) -> Arc<Vocab> {
        self.shared.view.load_full().graph.vocab().clone()
    }

    /// Current serving-graph size as `(nodes, edges)` (base + overlay).
    /// The node component is the **id-space size** — it includes dead
    /// slots left by node removals (so it is exactly the next id an
    /// appended node will be assigned), while the edge component counts
    /// live edges only. [`ServeEngine::pending_removals`] reports the
    /// dead-slot count; compaction squeezes them out.
    pub fn graph_size(&self) -> (usize, usize) {
        let view = self.shared.view.load_full();
        (view.graph.node_count(), view.graph.edge_count())
    }

    /// Edges/nodes still in the overlay (0 right after [`ServeEngine::compact`]).
    pub fn pending_deltas(&self) -> (usize, usize) {
        let view = self.shared.view.load_full();
        (view.graph.delta_node_count(), view.graph.delta_edge_count())
    }

    /// Removals still in the overlay as `(removed nodes, tombstoned
    /// edges)` — both 0 right after [`ServeEngine::compact`].
    pub fn pending_removals(&self) -> (usize, usize) {
        let view = self.shared.view.load_full();
        (view.graph.removed_node_count(), view.graph.tomb_edge_count())
    }

    /// Shuts the engine down **without** losing replies: both injectors
    /// are atomically closed and drained, and every job still queued at
    /// that instant gets an explicit typed error on its reply channel —
    /// [`QueryError::Stopped`] for queries, [`UpdateError::Stopped`] for
    /// updates still waiting in the coalescing queue (nothing of them
    /// was applied; pending compactions answer `None`). Without the
    /// drain, a queued job's sender would be dropped unanswered and a
    /// blocked `rx.recv()` in the submitter would see a dead channel
    /// instead of a typed shutdown. Jobs the workers or the writer
    /// already popped still run to completion. Idempotent; also invoked
    /// by `Drop`.
    pub fn stop(&self) {
        for job in self.jobs.close_and_drain() {
            job.reject(QueryError::Stopped);
        }
        for job in self.updates.close_and_drain() {
            match job {
                UpdateJob::Update { reply, .. } => {
                    let _ = reply.send(Err(UpdateError::Stopped));
                    self.shared.clock.settle(1);
                }
                UpdateJob::Compact { reply } => {
                    let _ = reply.send(None);
                }
                #[cfg(test)]
                UpdateJob::Stall(_) => {}
            }
        }
    }

    /// A coherent snapshot of every counter, merged latency histogram and
    /// gauge this engine records (queries, updates, executor, matcher and
    /// traversal activity).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.obs.snapshot()
    }

    /// The most recent per-request traces, oldest first (up to
    /// [`ServeConfig::trace_capacity`]; empty under `obs-off`).
    pub fn traces(&self) -> Vec<Trace> {
        self.shared.traces.recent()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // Fail queued jobs with a typed error (see `stop`), wake every
        // blocked worker and the writer to exit, then join them all.
        self.stop();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gpar_eip::{identify as eip_identify, EipConfig};
    use gpar_graph::GraphBuilder;
    use gpar_obs::Counter;
    use gpar_pattern::PatternBuilder;

    /// `c`'s current value in `engine`'s metrics.
    pub(crate) fn counter(engine: &ServeEngine, c: Counter) -> u64 {
        engine.metrics().counter(c)
    }

    /// The EIP test scenario: 10 positives, 2 negatives, 3 unknowns.
    pub(crate) fn scenario() -> (Arc<Graph>, RuleCatalog, Predicate) {
        let vocab = Vocab::new();
        let cust = vocab.intern("cust");
        let rest = vocab.intern("rest");
        let bar = vocab.intern("bar");
        let (like, visit) = (vocab.intern("like"), vocab.intern("visit"));
        let mut b = GraphBuilder::new(vocab.clone());
        for _ in 0..10 {
            let c = b.add_node(cust);
            let r = b.add_node(rest);
            b.add_edge(c, r, like);
            b.add_edge(c, r, visit);
        }
        for _ in 0..2 {
            let c = b.add_node(cust);
            let r = b.add_node(rest);
            let bb = b.add_node(bar);
            b.add_edge(c, r, like);
            b.add_edge(c, bb, visit);
        }
        for _ in 0..3 {
            let c = b.add_node(cust);
            let r = b.add_node(rest);
            b.add_edge(c, r, like);
        }
        let g = Arc::new(b.build());
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node(cust);
        let y = pb.node(rest);
        pb.edge(x, y, like);
        let rule = Arc::new(Gpar::new(pb.designate(x, y).build().unwrap(), visit).unwrap());
        let pred = *rule.predicate();
        let mut cat = RuleCatalog::new(vocab);
        cat.insert(rule, ConfStats::default());
        (g, cat, pred)
    }

    fn sorted(set: &gpar_graph::FxHashSet<NodeId>) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = set.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// The customers a direct [`gpar_eip::identify`] run finds for
    /// `pred`'s rules on `g` at `eta`, sorted: the oracle a full
    /// `identify` answer must equal.
    pub(crate) fn direct_eip_customers(
        g: &Graph,
        cat: &RuleCatalog,
        pred: Predicate,
        eta: f64,
    ) -> Vec<NodeId> {
        let sigma: Vec<Gpar> = cat.rules_for(&pred).iter().map(|e| (*e.rule).clone()).collect();
        let eip =
            eip_identify(g, &sigma, &EipConfig { eta, ..EipConfig::new(EipAlgorithm::Match, 3) })
                .unwrap();
        sorted(&eip.customers)
    }

    /// After an update, answers and stats must equal a fresh engine built
    /// on the materialized (compacted) graph. When node removals forced a
    /// dense re-numbering, the fresh engine's answers come back in new ids
    /// and are translated into the incremental engine's id space first.
    pub(crate) fn assert_matches_fresh_rebuild(
        engine: &ServeEngine,
        cat: &RuleCatalog,
        pred: Predicate,
    ) {
        let (compacted, remap) = {
            let view = engine.shared.view.load_full();
            let c = view.graph.compact();
            (Arc::new(c.graph), c.remap)
        };
        let back: Option<Vec<NodeId>> = remap.as_ref().map(NodeRemap::inverse);
        let to_old = |ids: Vec<NodeId>| -> Vec<NodeId> {
            match &back {
                None => ids,
                Some(b) => ids.into_iter().map(|v| b[v.index()]).collect(),
            }
        };
        let fresh = ServeEngine::new(
            compacted,
            cat,
            ServeConfig { eta: engine.shared.cfg.eta, ..Default::default() },
        );
        assert_eq!(
            engine.identify(pred, None).unwrap().customers,
            to_old(fresh.identify(pred, None).unwrap().customers),
            "incremental answers must equal a from-scratch rebuild"
        );
        let top_inc = engine.top_rules(pred, 16).unwrap();
        let top_fresh = fresh.top_rules(pred, 16).unwrap();
        assert_eq!(top_inc.len(), top_fresh.len());
        for (a, b) in top_inc.iter().zip(&top_fresh) {
            assert_eq!(a.stats, b.stats, "per-rule stats must be exact after update");
            assert_eq!(a.confidence, b.confidence);
            assert_eq!(a.active, b.active);
        }
    }

    fn wait_until(what: &str, mut f: impl FnMut() -> bool) {
        for _ in 0..500 {
            if f() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn batch_is_consistent_with_serial_and_unknown_predicate_errors() {
        let (g, cat, pred) = scenario();
        let engine = ServeEngine::new(
            g.clone(),
            &cat,
            ServeConfig { eta: 0.5, workers: 4, ..Default::default() },
        );
        let serial = engine.identify(pred, None).unwrap().customers;
        assert_eq!(serial, direct_eip_customers(&g, &cat, pred, 0.5), "serial equals direct EIP");
        let reqs: Vec<IdentifyRequest> = (0..16)
            .map(|i| IdentifyRequest {
                predicate: pred,
                candidates: (i % 2 == 0).then(|| vec![NodeId(i as u32 % 12)]),
                opts: QueryOpts::default(),
            })
            .collect();
        let answers = engine.identify_batch(reqs.clone());
        for (req, ans) in reqs.iter().zip(answers) {
            let ans = ans.unwrap();
            match &req.candidates {
                None => assert_eq!(ans.customers, serial),
                Some(c) => {
                    let expect: Vec<NodeId> =
                        c.iter().filter(|x| serial.contains(x)).copied().collect();
                    assert_eq!(ans.customers, expect);
                }
            }
        }
        // A predicate nobody mined for.
        let vocab = engine.vocab();
        let ghost = Predicate::new(
            gpar_pattern::NodeCond::Label(vocab.intern("cust")),
            vocab.intern("never_mined"),
            gpar_pattern::NodeCond::Any,
        );
        assert_eq!(engine.identify(ghost, None).unwrap_err(), QueryError::UnknownPredicate);
    }

    #[test]
    fn engine_shuts_down_cleanly_under_load() {
        let (g, cat, pred) = scenario();
        let engine =
            ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, workers: 3, ..Default::default() });
        for _ in 0..8 {
            engine.identify(pred, Some(vec![NodeId(0)])).unwrap();
        }
        drop(engine); // must join all workers without hanging
    }

    /// The registry snapshot exposes engine activity end to end: query /
    /// warm-up counters, latency histograms (recorded before the reply is
    /// sent, so post-answer snapshots are complete), matcher + traversal
    /// tallies drained from worker scratch, and the injector depth gauge.
    #[test]
    fn metrics_snapshot_reflects_engine_activity() {
        let (g, cat, pred) = scenario();
        let engine =
            ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, workers: 1, ..Default::default() });
        engine.identify(pred, None).unwrap();
        engine.identify(pred, None).unwrap();
        engine.top_rules(pred, 4).unwrap();
        let m = engine.metrics();
        assert_eq!(m.counter(Counter::Queries), 3);
        assert_eq!(m.counter(Counter::Warmups), 1);
        assert!(m.counter(Counter::CentersEvaluated) > 0);
        assert!(m.counter(Counter::BallsExtracted) > 0);
        assert!(m.counter(Counter::BallNodesVisited) >= m.counter(Counter::BallsExtracted));
        assert!(m.counter(Counter::IsoCandidatesGenerated) > 0);
        assert_eq!(
            m.gauges().iter().find(|(n, _)| *n == "injector_depth").map(|&(_, v)| v),
            Some(0),
            "queue is drained once answers are in"
        );
        if !cfg!(feature = "obs-off") {
            assert_eq!(m.hist(HistKind::IdentifyLatency).count(), 2);
            assert_eq!(m.hist(HistKind::TopRulesLatency).count(), 1);
            assert_eq!(m.hist(HistKind::Warmup).count(), 1);
            assert!(m.hist(HistKind::QueueWait).count() >= 3);
        }
        // The JSON surface carries the same rows (consumed by the CI
        // overhead gate and the load harness).
        let json = m.to_bench_json("engine-test");
        assert!(json.contains("obs/counter/queries"));
        assert!(json.contains("obs/counter/balls_extracted"));
    }

    #[test]
    fn compact_preserves_answers_and_clears_the_overlay() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let visit = vocab.get("visit").unwrap();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        engine.identify(pred, None).unwrap();
        engine
            .apply_update(&GraphUpdate {
                new_edges: vec![(NodeId(28), NodeId(29), visit)],
                ..Default::default()
            })
            .unwrap();
        let before = engine.identify(pred, None).unwrap().customers;
        assert_ne!(engine.pending_deltas().1, 0);
        engine.compact();
        assert_eq!(engine.pending_deltas(), (0, 0));
        assert_eq!(engine.identify(pred, None).unwrap().customers, before);
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    #[test]
    fn compact_after_removals_remaps_ids_and_keeps_answers() {
        let (g, cat, pred) = scenario();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        let before = engine.identify(pred, None).unwrap().customers;
        assert!(before.contains(&NodeId(2)));
        // Remove cust 0 and its restaurant; every other id survives.
        engine
            .apply_update(&GraphUpdate {
                del_nodes: vec![NodeId(0), NodeId(1)],
                ..Default::default()
            })
            .unwrap();
        let pre_compact = engine.identify(pred, None).unwrap().customers;
        assert_eq!(engine.pending_removals(), (2, 2), "base-edge cascade tombstones like + visit");
        let remap = engine.compact().expect("removals force a remap");
        assert_eq!(engine.pending_removals(), (0, 0));
        assert_eq!(engine.pending_deltas(), (0, 0));
        assert_eq!(remap.get(NodeId(0)), None);
        // Old answers translated through the remap are the new answers,
        // and the warm state answers them without re-warming.
        let expect: Vec<NodeId> =
            pre_compact.iter().map(|&c| remap.get(c).expect("customers survive")).collect();
        let after = engine.identify(pred, None).unwrap();
        assert!(!after.warmed, "warm state survives a remapped compaction");
        assert_eq!(after.customers, expect);
        assert_matches_fresh_rebuild(&engine, &cat, pred);
        assert_eq!(counter(&engine, Counter::Warmups), 1, "no re-warm despite the id shuffle");
    }

    /// The writer folds the overlay back into a fresh CSR base by itself
    /// once it crosses the configured pressure — in the id-stable form
    /// while no nodes were removed (no remap published), and in the
    /// remapping form once dead slots cross their own threshold, with
    /// the remap retrievable through [`ServeEngine::remaps_since`].
    #[test]
    fn overlay_pressure_triggers_self_compaction() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let visit = vocab.get("visit").unwrap();

        // Id-stable arm: any growth trips the threshold.
        let engine = ServeEngine::new(
            g.clone(),
            &cat,
            ServeConfig { eta: 0.5, compact_pressure: 0.0, ..Default::default() },
        );
        let before = engine.identify(pred, None).unwrap().customers;
        engine
            .apply_update(&GraphUpdate {
                new_edges: vec![(NodeId(28), NodeId(29), visit)],
                ..Default::default()
            })
            .unwrap();
        wait_until("self-compaction to fold the overlay", || engine.pending_deltas() == (0, 0));
        assert!(counter(&engine, Counter::Compactions) >= 1);
        assert!(engine.remaps_since(0).is_empty(), "id-stable fold publishes no remap");
        let after = engine.identify(pred, None).unwrap();
        assert!(after.customers.len() >= before.len());
        assert_matches_fresh_rebuild(&engine, &cat, pred);

        // Remapping arm: one dead slot trips the dead-fraction threshold.
        let engine = ServeEngine::new(
            g,
            &cat,
            ServeConfig { eta: 0.5, compact_dead_fraction: 0.0, ..Default::default() },
        );
        engine.identify(pred, None).unwrap();
        engine
            .apply_update(&GraphUpdate { del_nodes: vec![NodeId(30)], ..Default::default() })
            .unwrap();
        wait_until("self-compaction to publish a remap", || !engine.remaps_since(0).is_empty());
        let remaps = engine.remaps_since(0);
        let (at_epoch, remap) = &remaps[0];
        assert!(*at_epoch >= 2, "the remap generation follows the deletion generation");
        assert_eq!(remap.get(NodeId(30)), None, "removed slot");
        assert_eq!(remap.get(NodeId(31)), Some(NodeId(30)), "tail id re-densified");
        assert_eq!(engine.pending_removals(), (0, 0));
        assert_matches_fresh_rebuild(&engine, &cat, pred);
    }

    /// `stop()` drains the coalescing queue: an update still waiting
    /// behind a wedged writer gets a typed [`UpdateError::Stopped`] (not
    /// a dead channel), the staleness frontier settles, and later
    /// submissions fail fast.
    #[test]
    fn stop_fails_queued_updates_with_typed_error() {
        let (g, cat, _pred) = scenario();
        let vocab = g.vocab().clone();
        let cust = vocab.get("cust").unwrap();
        let engine = ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, ..Default::default() });
        assert!(engine
            .updates
            .push_with(UpdateJob::Stall(Duration::from_millis(300)), Priority::Normal)
            .is_ok());
        let rx = engine
            .submit_update_from(
                GraphUpdate { new_nodes: vec![cust], ..Default::default() },
                Ts::now(),
            )
            .unwrap();
        engine.stop();
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)).expect("drained, not dropped"),
            Err(UpdateError::Stopped)
        ));
        assert!(!engine.shared.clock.has_pending(), "drained submissions settle the frontier");
        assert!(matches!(
            engine.submit_update_from(GraphUpdate::default(), Ts::now()),
            Err(UpdateError::Stopped)
        ));
        assert_eq!(
            counter(&engine, Counter::Updates),
            0,
            "nothing of the queued update was applied"
        );
    }

    #[test]
    fn poisoned_ledger_lock_does_not_brick_the_engine() {
        let (g, cat, pred) = scenario();
        let engine = Arc::new(ServeEngine::new(
            g,
            &cat,
            ServeConfig { eta: 0.5, workers: 2, ..Default::default() },
        ));
        let before = engine.identify(pred, None).unwrap().customers;
        // A thread panics while holding the snapshot's ledger-map lock —
        // with a poisoning mutex every subsequent query would
        // unwrap-panic and the pool would die thread by thread.
        let shared = engine.shared.clone();
        let t = std::thread::spawn(move || {
            let view = shared.view.load_full();
            let _guard = view.states.lock();
            panic!("worker panic while holding the ledger lock");
        });
        assert!(t.join().is_err());
        // The engine keeps serving, subset reads included.
        assert_eq!(engine.identify(pred, None).unwrap().customers, before);
        assert_eq!(engine.identify(pred, Some(vec![NodeId(0)])).unwrap().customers.len(), 1);
    }
}
