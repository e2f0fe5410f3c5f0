//! The batched query executor: a fixed worker pool serving `identify` and
//! `top_rules` requests concurrently over one graph + catalog, with live
//! graph updates.
//!
//! ## Execution model
//!
//! * [`ServeEngine::new`] builds the [`CandidateIndex`] and spawns
//!   `workers` OS threads that all drain one shared
//!   [`gpar_exec::Injector`] — the same runtime primitive family the
//!   mining and EIP layers execute on. Any idle worker, not just a lock
//!   holder, grabs the next query; dropping the engine closes the
//!   injector and joins the pool.
//! * The first query touching a predicate **warms** it: every candidate
//!   center is evaluated once, assembling the exact global
//!   [`ConfStats`]/confidence per rule — the same counts
//!   [`gpar_eip::identify`] produces, so the η-gating of rules is
//!   *identical* to a direct EIP run on this graph. The full-`L` scan
//!   fans out over a nested [`gpar_exec::Executor`] (one chunk-task
//!   queue under the pool worker that took the cold query), and the
//!   per-center records it folds are order-independent, so warm state is
//!   bit-identical at any worker count.
//! * Every `identify(pred, candidates?)` — the warming one included —
//!   answers from that ledger: the whole answer set for `None`, the
//!   requested candidates it admits for `Some`. The answer depends only
//!   on which rules each center's `Q` matches and which of them clear η,
//!   and the ledger holds exactly that, so a read extracts no d-ball and
//!   runs no matcher. Warm-up and write repair are the only evaluators:
//!   they visit each center once per generation and extract its ball on
//!   the worker's scratch.
//! * Rule-group state built at index time is reused across the batch:
//!   the [`gpar_eip::SharingPlan`] is cloned (two small `Vec`s) into each
//!   request's [`CandidateEvaluator`] instead of re-deriving the `|Σ|²`
//!   subsumption tests.
//!
//! ## Live updates: lock-free snapshots + a coalescing write pipeline
//!
//! The serving graph is a [`DeltaGraph`] overlay published as immutable
//! **epoch snapshots** behind an [`arc_swap::ArcSwap`]: a query grabs the
//! current [`EngineView`] `Arc` with one lock-free atomic load and
//! evaluates end to end against that frozen snapshot — readers never
//! block on writers, and a snapshot stays alive (graph, index, warm
//! ledgers) until its last in-flight query drops it.
//!
//! All mutation flows through one **writer thread**.
//! [`ServeEngine::apply_update`] enqueues the batch and blocks for its
//! outcome (read-your-writes);
//! [`ServeEngine::submit_update_from`] enqueues without blocking. The
//! writer drains the queue opportunistically — plus an optional bounded
//! window ([`ServeConfig::coalesce_window`]) — and folds a burst of
//! batches into one *net* generation with [`gpar_graph::Coalescer`]:
//! delete-then-reinsert cancels, relabel chains collapse, inserts onto a
//! node the burst itself removes vanish. The net batch is applied to a
//! private copy-on-write successor of the published snapshot, the
//! repair below runs off to the side, and the generation becomes visible
//! with **one pointer swap + epoch bump**. A failure anywhere before the
//! swap — including injected faults — publishes nothing: every batch in
//! the generation fails typed, all-or-nothing.
//!
//! **What a successor copies.** Building it costs what the update
//! touches, not what the snapshot holds. The overlay's logs are
//! `Arc`-shared (its clone is a few refcount bumps). Each group's
//! centers and each warm ledger's per-center records live in a
//! [`PagedMap`]: cloning one bumps a refcount per page of 64 ids, and an
//! edit — a center admitted or retired, a record re-evaluated — copies
//! only the page it lands in. A group's rule side
//! ([`crate::index::GroupRules`]) is one more `Arc`, replaced only when a
//! rule's activation flips. A group whose center set the batch leaves
//! alone is not unshared at all, and neither is the ledger of a
//! predicate with nothing to re-evaluate. The predecessor stays
//! complete for the readers that pinned it; once they let go, dropping
//! it frees just the pages its successor replaced.
//!
//! The repair itself exploits the paper's locality property (§4.2): a
//! radius-`d` evaluation at center `v_x` reads nothing outside
//! `G_d(v_x)`, so an update touching nodes `T` can only affect centers
//! whose d-ball reaches `T`.
//!
//! **The union-ball rule.** For monotone inserts a post-update BFS from
//! `T` suffices: inserts only shrink distances, so any center whose ball
//! gained something is within post-update distance `d` of `T`. Deletion is
//! non-monotone — cutting an edge can *grow* distances, pushing a center
//! out of reach of `T` on the post-update graph even though its ball lost
//! content. The engine therefore runs the multi-source BFS on **both** the
//! pre-update and the post-update view and invalidates the *union* ball
//! (per-node minimum distance): a ball that lost an element reached it
//! pre-update, a ball that gained one reaches it post-update. Concretely:
//!
//! 1. repairs each predicate's candidate set incrementally
//!    (new/relabeled centers in, relabeled-away **and removed** centers
//!    out),
//! 2. re-evaluates only the in-ball + new centers of every *warmed*
//!    predicate — in id order, so each touched ledger page is copied
//!    once — patching the per-rule [`ConfStats`] by subtracting each
//!    re-evaluated center's old contribution and adding its new one —
//!    removed centers are subtracted from the outcome ledger without
//!    replacement, so a rule whose last supporting center vanished drops
//!    below η and deactivates (the mirror of insert-side activation), and
//! 3. falls back to a full group rebuild only when the update flips a
//!    label between present and absent, which can (de)activate a
//!    signature-gated rule in either direction — deleting the last node
//!    of a label takes this path exactly like inserting the first one.
//!
//! [`ServeEngine::compact`] folds the overlay back into a fresh CSR,
//! published as its own snapshot generation. Without node removals ids
//! are stable and index and warm state both survive untouched. With
//! removals the id space is re-densified: compaction returns the
//! [`NodeRemap`], and the candidate index and warm ledgers are re-keyed
//! through it ([`PagedMap::remap`] — ids shift across page boundaries,
//! so this is the one step that rewrites every page). Compaction is
//! also **self-triggering**: after each published generation the writer
//! measures overlay pressure (delta edges + tombstones + relabels + dead
//! slots against the base) and compacts when it crosses
//! [`ServeConfig::compact_pressure`] — taking the id-remapping form only
//! when the dead-slot fraction alone exceeds
//! [`ServeConfig::compact_dead_fraction`]. Every remap is logged with
//! the epoch that published it; callers holding node ids resync via
//! [`ServeEngine::remaps_since`].
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

use crate::catalog::RuleCatalog;
use crate::clock::UpdateClock;
use crate::index::{CandidateIndex, PredicateGroup};
use crate::paged::PagedMap;
use arc_swap::ArcSwap;
use gpar_core::{classify, ConfStats, Confidence, Gpar, LcwaClass, Predicate};
use gpar_eip::{CandidateEvaluator, EipAlgorithm, MatchOpts};
use gpar_exec::{Executor, Injector, PopTimeout, Priority, PushError};
use gpar_graph::{
    multi_source_distances, Coalescer, DeltaGraph, FxHashMap, Graph, GraphUpdate, GraphView, Label,
    NodeId, NodeRemap, UpdateInvalid, Vocab,
};
use gpar_obs::{
    Counter, Gauge, HistKind, MetricsRegistry, MetricsSnapshot, Span, Stage, Trace, TraceBuilder,
    TraceKind, TraceRecorder, Ts,
};
use gpar_partition::{chunk_by_load, CenterSite};
// The per-snapshot ledger map, the warm lock, and the update clock
// use the parking_lot shim's non-poisoning primitives: a worker (or a
// chaos failpoint in the write pipeline) that panics while holding a
// lock must not poison shared state and brick every subsequent query —
// each protected structure is consistent between operations, so recovery
// is always safe.
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Warm-scan task granules per executor worker (same rationale as EIP's
/// chunking: fine enough that stealing evens out per-site cost skew,
/// coarse enough that task overhead stays invisible).
const WARM_CHUNKS_PER_WORKER: usize = 16;

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

/// A request's armed deadline. The budget anchors on the schedule
/// instant when timing is compiled in; under `obs-off` (where [`Ts`] is
/// zero-sized) it falls back to the submit instant.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    started: std::time::Instant,
    budget: Duration,
}

impl Deadline {
    fn arm(opts: &QueryOpts, scheduled: Ts) -> Option<Deadline> {
        opts.deadline.map(|budget| Deadline {
            started: scheduled.instant().unwrap_or_else(Ts::monotonic_now),
            budget,
        })
    }

    /// The stage-boundary cancellation check.
    fn check(this: Option<&Deadline>) -> Result<(), QueryError> {
        let Some(d) = this else { return Ok(()) };
        let elapsed = d.started.elapsed();
        if elapsed > d.budget {
            Err(QueryError::DeadlineExceeded { budget: d.budget, elapsed })
        } else {
            Ok(())
        }
    }
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

/// Aggregate engine counters, plus the epoch of the snapshot the call
/// observed. All fields come from one registry read and one snapshot
/// load, so `epoch` and the counters describe the same generation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Queries answered (identify + top_rules).
    pub queries: u64,
    /// Predicate warm-ups performed.
    pub warmups: u64,
    /// Update batches accepted (each input batch, before coalescing —
    /// including batches whose window netted to nothing).
    pub updates: u64,
    /// Snapshot generations published (net update generations +
    /// compactions); the current view epoch equals this count.
    pub snapshot_publishes: u64,
    /// Accepted batches that did not publish a generation of their own:
    /// absorbed into an earlier batch's window, netted to nothing, or
    /// deduplicated away — the write amplification the coalescer saved.
    /// Invariant: `updates_coalesced ==
    /// updates - (snapshot_publishes - compactions)`.
    pub updates_coalesced: u64,
    /// Overlay compactions performed (explicit + self-triggered).
    pub compactions: u64,
    /// Requests rejected at admission (bounded queue full).
    pub shed: u64,
    /// Requests answered with [`QueryError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Staleness-opted identify answers stamped `stale`: served from the
    /// latest snapshot while accepted-but-unpublished updates were in
    /// flight within the caller's bound.
    pub stale_served: u64,
    /// Epoch of the snapshot current when this call read the counters.
    pub epoch: u64,
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

/// One center's cached evaluation outcome, kept per warmed predicate so
/// updates can subtract its exact contribution before re-evaluating.
#[derive(Debug, Clone)]
struct CenterRecord {
    /// LCWA class on the *global* graph (counts supp_q / supp_q̄).
    class: LcwaClass,
    /// Per rule: `v_x ∈ Q(x, G_d(v_x))`.
    q_member: Vec<bool>,
    /// Per rule: `v_x ∈ P_R(x, G_d(v_x))`.
    pr_member: Vec<bool>,
}

/// Per-predicate state established by the warm-up pass and maintained
/// incrementally across updates.
#[derive(Debug, Clone)]
struct PredicateState {
    /// `supp(q, G)` over all candidates.
    supp_q: u64,
    /// `supp(q̄, G)` over all candidates.
    supp_qbar: u64,
    /// Per rule: `(supp_r, supp_q_qbar, supp_q_ante)` running counters.
    per_rule: Vec<(u64, u64, u64)>,
    /// Per center: its evaluation record (the subtractable ledger), paged
    /// so a patched successor shares every page it did not touch.
    outcomes: PagedMap<CenterRecord>,
    /// Exact per-rule counts, derived from the counters by `finalize`.
    stats: Vec<ConfStats>,
    /// Per-rule confidence.
    conf: Vec<Confidence>,
    /// Per-rule: clears η.
    active: Vec<bool>,
    /// The full answer implied by the current state (sorted).
    warm_customers: Vec<NodeId>,
    /// The view epoch this ledger reflects (stamped at warm-up and at
    /// each update's ledger patch); stale-bounded answers report it.
    epoch: u64,
}

impl PredicateState {
    fn empty(rules: usize) -> Self {
        Self {
            supp_q: 0,
            supp_qbar: 0,
            per_rule: vec![(0, 0, 0); rules],
            outcomes: PagedMap::new(),
            stats: Vec::new(),
            conf: Vec::new(),
            active: Vec::new(),
            warm_customers: Vec::new(),
            epoch: 0,
        }
    }

    /// Adds `rec`'s contribution to the counters and stores it.
    fn add_record(&mut self, c: NodeId, rec: CenterRecord) {
        match rec.class {
            LcwaClass::Positive => self.supp_q += 1,
            LcwaClass::Negative => self.supp_qbar += 1,
            LcwaClass::Unknown => {}
        }
        for (r, slot) in self.per_rule.iter_mut().enumerate() {
            if rec.q_member.get(r).copied().unwrap_or(false) {
                slot.2 += 1;
                if rec.class == LcwaClass::Negative {
                    slot.1 += 1;
                }
            }
            if rec.pr_member.get(r).copied().unwrap_or(false) && rec.class == LcwaClass::Positive {
                slot.0 += 1;
            }
        }
        let prev = self.outcomes.insert(c, rec);
        debug_assert!(prev.is_none(), "record replaced without subtraction");
    }

    /// Removes `c`'s record, subtracting its exact contribution.
    fn remove_record(&mut self, c: NodeId) {
        let Some(rec) = self.outcomes.remove(c) else { return };
        match rec.class {
            LcwaClass::Positive => self.supp_q -= 1,
            LcwaClass::Negative => self.supp_qbar -= 1,
            LcwaClass::Unknown => {}
        }
        for (r, slot) in self.per_rule.iter_mut().enumerate() {
            if rec.q_member.get(r).copied().unwrap_or(false) {
                slot.2 -= 1;
                if rec.class == LcwaClass::Negative {
                    slot.1 -= 1;
                }
            }
            if rec.pr_member.get(r).copied().unwrap_or(false) && rec.class == LcwaClass::Positive {
                slot.0 -= 1;
            }
        }
    }

    /// Whether `rec` makes its center a customer: it is in `Q` of a rule
    /// that clears η.
    fn admits(&self, rec: &CenterRecord) -> bool {
        rec.q_member.iter().zip(&self.active).any(|(&m, &a)| m && a)
    }

    /// Whether `c`'s current record makes it a customer under `active`.
    fn is_customer(&self, c: NodeId) -> bool {
        self.outcomes.get(c).is_some_and(|rec| self.admits(rec))
    }

    /// The requested candidates that are centers of this ledger, with
    /// their records: sorted, deduplicated and restricted to `L`. Ids
    /// outside `L` are not candidates (no x-condition match) and drop
    /// out silently, exactly as EIP never considers them.
    fn requested(&self, cands: &[NodeId]) -> Vec<(NodeId, &CenterRecord)> {
        let mut cs = cands.to_vec();
        cs.sort_unstable();
        cs.dedup();
        cs.into_iter().filter_map(|c| self.outcomes.get(c).map(|rec| (c, rec))).collect()
    }

    /// Recomputes the per-rule surface (stats, confidence, η-gating) from
    /// the counters — O(|Σ|). Returns whether any rule's η verdict
    /// flipped (callers must then rebuild the answer set; otherwise a
    /// per-center patch suffices).
    fn recompute_rule_surface(&mut self, eta: f64) -> bool {
        self.stats = self
            .per_rule
            .iter()
            .map(|&(supp_r, supp_q_qbar, supp_q_ante)| ConfStats {
                supp_r,
                supp_q_ante,
                supp_q: self.supp_q,
                supp_qbar: self.supp_qbar,
                supp_q_qbar,
            })
            .collect();
        self.conf = self.stats.iter().map(ConfStats::conf).collect();
        let active: Vec<bool> = self.conf.iter().map(|c| c.at_least(eta)).collect();
        let changed = active != self.active;
        self.active = active;
        changed
    }

    /// Rebuilds the full sorted answer set from the ledger (which
    /// iterates in id order) — O(|L|).
    fn rebuild_customers(&mut self) {
        self.warm_customers =
            self.outcomes.iter().filter(|(_, rec)| self.admits(rec)).map(|(c, _)| c).collect();
    }

    /// Patches the sorted answer set for exactly the given centers (their
    /// records were removed / re-evaluated) — O(ball · log |L|), the
    /// per-update fast path when no rule's η verdict flipped.
    fn patch_customers(&mut self, centers: impl IntoIterator<Item = NodeId>) {
        for c in centers {
            let is = self.is_customer(c);
            match self.warm_customers.binary_search(&c) {
                Ok(i) if !is => {
                    self.warm_customers.remove(i);
                }
                Err(i) if is => self.warm_customers.insert(i, c),
                _ => {}
            }
        }
    }

    /// Recomputes the whole derived surface (rule stats + answer set).
    fn finalize(&mut self, eta: f64) {
        self.recompute_rule_surface(eta);
        self.rebuild_customers();
    }
}

/// Reusable evaluation state for the two passes that evaluate centers:
/// one per warm-up chunk worker, and one per write's ledger repair. The
/// pattern-sketch cache and search arena are `Rc`-based (thread-local by
/// construction), so each owner keeps its own instances and hands clones
/// to every evaluator it builds — pattern-side sketches are derived, and
/// search/traversal buffers grown, once per owner rather than once per
/// center. Reads evaluate nothing and need none of it.
#[derive(Default)]
struct WorkerCaches {
    /// Registry shard this worker records into (worker index; wrapped
    /// modulo the shard count by the registry).
    shard: usize,
    psketch: FxHashMap<Predicate, gpar_iso::PatternSketchCache>,
    /// Matcher search-state arena shared by every evaluator this worker
    /// builds; its embedded neighborhood scratch also serves d-ball
    /// extraction (`SharedScratch::with_neighborhood`).
    scratch: gpar_iso::SharedScratch,
}

impl WorkerCaches {
    fn pattern_cache(&mut self, pred: &Predicate) -> gpar_iso::PatternSketchCache {
        self.psketch.entry(*pred).or_default().clone()
    }
}

/// One published snapshot generation: graph overlay, candidate index,
/// label histograms and warm ledgers, all consistent with each other at
/// `epoch`. Queries load the current snapshot `Arc` with one lock-free
/// atomic read and answer entirely from it; the writer builds the next
/// generation as a copy-on-write successor and publishes it with a
/// single pointer swap. The structural fields are frozen after publish;
/// `states` has mutex interior because a predicate's first query *warms
/// into* the snapshot it read, and the writer carries that ledger
/// forward (patched) into the next generation.
struct EngineView {
    graph: DeltaGraph,
    index: CandidateIndex,
    node_hist: FxHashMap<Label, u64>,
    edge_hist: FxHashMap<Label, u64>,
    /// Bumped once per published generation; answers stamp the epoch
    /// they read so clients can order them against updates.
    epoch: u64,
    /// Per-predicate warm ledgers, versioned with this snapshot: each
    /// state's answers are exact for `graph` (patched by the writer when
    /// the generation was built; stamped with the epoch that last
    /// touched them).
    states: Mutex<FxHashMap<Predicate, Arc<PredicateState>>>,
}

/// One warm-scan chunk's partial fold (merged in task-index order;
/// commutative sums, so warm state is identical at any worker count).
struct WarmPart {
    records: Vec<(NodeId, CenterRecord)>,
}

struct Shared {
    /// The published snapshot. Queries grab it with one lock-free atomic
    /// load (`load_full`) and evaluate entirely against that generation;
    /// only the writer thread swaps in successors.
    view: ArcSwap<EngineView>,
    /// The catalog, retained for rule re-activation rebuilds.
    catalog: RuleCatalog,
    cfg: ServeConfig,
    /// Serializes warm-up passes so concurrent cold queries for one
    /// predicate don't all run the full O(|L|) scan (warm-ups happen once
    /// per predicate, so cross-predicate contention here is negligible).
    warm_lock: Mutex<()>,
    /// Per-worker-sharded counters + latency histograms. Engine counters
    /// (queries, warm-ups, updates) live here exclusively;
    /// [`ServeEngine::stats`] reads them at one stable epoch.
    obs: Arc<MetricsRegistry>,
    /// Bounded ring of recent per-request traces.
    traces: TraceRecorder,
    /// Accepted-but-unpublished update batches. Staleness-bounded reads
    /// ([`QueryOpts::staleness`]) measure the published snapshot's lag
    /// against it and wait when the lag exceeds their bound.
    clock: UpdateClock,
    /// `(epoch, remap)` per id-remapping compaction, oldest first —
    /// served by [`ServeEngine::remaps_since`].
    remap_log: Mutex<Vec<(u64, Arc<NodeRemap>)>>,
    /// Mirrors the published snapshot's epoch into the metrics gauges.
    view_epoch: Gauge,
}

impl Shared {
    /// Drains the plain per-thread counters accumulated in `caches`
    /// (matcher candidate tallies, traversal tallies) into the registry —
    /// called once per warm chunk / ledger repair, so the matcher hot path
    /// never touches an atomic.
    fn drain_worker_counters(&self, caches: &mut WorkerCaches) {
        let shard = caches.shard;
        let (generated, pruned, recomputes) = caches.scratch.drain_counters();
        let (balls, visited) = caches.scratch.with_neighborhood(|nbr| nbr.take_counters());
        self.obs.add(shard, Counter::IsoCandidatesGenerated, generated);
        self.obs.add(shard, Counter::IsoCandidatesPruned, pruned);
        self.obs.add(shard, Counter::IsoMetaRecomputes, recomputes);
        self.obs.add(shard, Counter::BallsExtracted, balls);
        self.obs.add(shard, Counter::BallNodesVisited, visited);
    }

    /// Records a finished request: root duration into `kind`'s histogram,
    /// each stage into its mapped histogram, and the trace into the ring.
    fn finish_trace(&self, shard: usize, tb: TraceBuilder, total: Duration, kind: HistKind) {
        self.obs.record(shard, kind, total);
        let trace = tb.finish(total);
        for &(stage, d) in &trace.stages {
            self.obs.record(shard, stage.hist(), d);
        }
        self.traces.push(trace);
    }

    fn opts(&self) -> MatchOpts {
        MatchOpts::for_algorithm(self.cfg.algorithm)
    }

    /// Builds an evaluator for one warm-up chunk or one ledger repair:
    /// the group's pre-built sharing plan plus the owner's persistent
    /// pattern-sketch cache, so pattern-side sketches are derived once
    /// per owner rather than once per evaluator.
    fn evaluator<'r>(
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
        .with_pattern_cache(caches.pattern_cache(&group.predicate))
        .with_scratch(caches.scratch.clone())
    }

    /// Classifies + evaluates center `c` of `group`, producing its ledger
    /// record. Warm-up and write repair visit each center once per
    /// generation, extracting its d-ball on the worker's scratch.
    fn evaluate_center(
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
        CenterRecord { class, q_member: o.q_member, pr_member: o.pr_member }
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
    /// partial folds are commutative per-center records, so the resulting
    /// state is bit-identical at any worker count.
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
                let mut part = WarmPart { records: Vec::new() };
                for page in &pages[chunks[ci].clone()] {
                    for &(c, ()) in *page {
                        part.records.push((c, Self::evaluate_center(view, group, &ev, c, caches)));
                    }
                }
                self.drain_worker_counters(caches);
                part
            },
        );
        let mut state = PredicateState::empty(group.sigma.rules.len());
        state.epoch = view.epoch;
        for part in parts {
            for (c, rec) in part.records {
                state.add_record(c, rec);
            }
        }
        state.finalize(self.cfg.eta);
        self.obs.add(0, Counter::CentersEvaluated, state.outcomes.len() as u64);
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
    fn identify(
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
        let (customers, evaluated) = match &req.candidates {
            None => (state.warm_customers.clone(), state.outcomes.len()),
            Some(cands) => {
                let requested = state.requested(cands);
                let customers = requested
                    .iter()
                    .filter(|(_, rec)| state.admits(rec))
                    .map(|&(c, _)| c)
                    .collect();
                (customers, requested.len())
            }
        };
        Ok(IdentifyResponse { customers, evaluated, warmed, epoch, stale })
    }

    /// `top_rules` supports deadlines but ignores staleness bounds: it
    /// reads whatever snapshot is published (never blocking on writers),
    /// and its confidence figures are exact for that generation.
    fn top_rules(
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
            .enumerate()
            .map(|(r, rule)| RuleInfo {
                rule: rule.clone(),
                confidence: state.conf[r],
                stats: state.stats[r],
                active: state.active[r],
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
        if net.is_empty() {
            // The window cancelled out entirely (or held only no-ops):
            // nothing to publish, no epoch bump. Every accepted batch
            // still counts as submitted-and-coalesced, keeping
            // `updates_coalesced == updates - update publishes` exact.
            let txn = self.obs.write_txn();
            txn.add(0, Counter::Updates, accepted.len() as u64);
            txn.add(0, Counter::UpdatesCoalesced, accepted.len() as u64);
            drop(txn);
            for a in accepted {
                let report = UpdateReport { assigned: a.assigned, ..Default::default() };
                let _ = a.reply.send(Ok(report));
            }
            self.clock.settle(summary.updates);
            return carry;
        }

        let publish_started = Ts::now();
        // The whole build runs against copy-on-write clones of the
        // published snapshot: a panic anywhere inside (chaos failpoints
        // included) publishes nothing, leaves the served view untouched,
        // and fails every batch of the window with a typed error.
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.build_generation(&cur, &net, &mut tb)
        }));
        tb.add(Stage::UpdatePublish, publish_started.elapsed());
        self.clock.settle(summary.updates);
        match built {
            // Every net batch deduplicated away against the live graph:
            // same contract as an empty net window — acknowledge,
            // publish nothing, count the whole window as coalesced.
            Ok(None) => {
                let txn = self.obs.write_txn();
                txn.add(0, Counter::Updates, accepted.len() as u64);
                txn.add(0, Counter::UpdatesCoalesced, accepted.len() as u64);
                drop(txn);
                for a in accepted {
                    let report = UpdateReport { assigned: a.assigned, ..Default::default() };
                    let _ = a.reply.send(Ok(report));
                }
            }
            Ok(Some(report)) => {
                let txn = self.obs.write_txn();
                txn.add(0, Counter::Updates, accepted.len() as u64);
                txn.incr(0, Counter::SnapshotPublishes);
                // One publish for the whole window, however many net
                // segments it split into: every accepted batch beyond the
                // first was coalesced. Counting `accepted - 1` (not
                // `- segments`) keeps `updates_coalesced ==
                // updates - update publishes` exact, which is what the
                // harness's `coalesce_ratio = 1 - publishes/submitted`
                // reports.
                txn.add(0, Counter::UpdatesCoalesced, (accepted.len() - 1) as u64);
                txn.add(0, Counter::UpdateReevaluated, report.reevaluated as u64);
                txn.add(0, Counter::UpdateRebuiltGroups, report.rebuilt_groups as u64);
                drop(txn);
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
        let mut changed_labels: gpar_graph::FxHashSet<Label> = Default::default();
        let bump = |hist: &mut FxHashMap<Label, u64>,
                    l: Label,
                    changed: &mut gpar_graph::FxHashSet<Label>| {
            let n = hist.entry(l).or_insert(0);
            if *n == 0 {
                changed.insert(l);
            }
            *n += 1;
        };
        let drop_one = |hist: &mut FxHashMap<Label, u64>,
                        l: Label,
                        changed: &mut gpar_graph::FxHashSet<Label>| {
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

        // 4. Warm-ledger repair, against the complete successor:
        // subtract stale contributions, re-evaluate only in-ball + new
        // centers, re-derive the answer surface (a per-center patch
        // unless a rule's η verdict flipped). Predicates the generation
        // didn't touch keep their state `Arc` — shared with `cur`, still
        // stamped with the epoch that last touched them.
        let mut caches = WorkerCaches::default();
        for (pred, removed, reeval) in repairs {
            let _s = Span::enter(tb, Stage::UpdateLedgerPatch);
            let mut states = next.states.lock();
            let Some(state) = states.get_mut(&pred) else { continue };
            let state = Arc::make_mut(state);
            state.epoch = epoch;
            let group = next.index.group(&pred).expect("repairs hold live groups");
            let ev = self.evaluator(group, &mut caches);
            for &c in &removed {
                state.remove_record(c);
            }
            for &c in &reeval {
                state.remove_record(c);
                state.add_record(c, Self::evaluate_center(&next, group, &ev, c, &mut caches));
                report.reevaluated += 1;
            }
            if state.recompute_rule_surface(self.cfg.eta) {
                state.rebuild_customers();
            } else {
                state.patch_customers(removed.iter().chain(&reeval).copied());
            }
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
    fn compact_generation(&self) -> Option<Arc<NodeRemap>> {
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
                    let state = Arc::make_mut(state);
                    state.epoch = epoch;
                    state
                        .outcomes
                        .remap(|c| remap.get(c).expect("warmed centers survive compaction"));
                    for c in &mut state.warm_customers {
                        *c = remap.get(*c).expect("customers are live centers");
                    }
                    debug_assert!(
                        state.warm_customers.is_sorted(),
                        "monotone remap preserves order"
                    );
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

/// A queued write: one update batch bound for the writer's coalescing
/// window, or a maintenance command the writer serializes with update
/// generations.
enum UpdateJob {
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
    Stall(Duration),
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

/// A queued request, carrying its schedule timestamp so queue wait and
/// end-to-end latency are measured from submission (open-loop semantics:
/// a backed-up queue counts against latency rather than silently delaying
/// the measurement — no coordinated omission).
enum Job {
    Identify(IdentifyRequest, Ts, Option<Deadline>, Sender<Result<IdentifyResponse, QueryError>>),
    TopRules(Predicate, usize, Ts, Option<Deadline>, Sender<Result<Vec<RuleInfo>, QueryError>>),
    /// Test-only: a job whose evaluation panics, pinning that a panicking
    /// query neither kills the worker nor wedges the pool.
    #[cfg(test)]
    Crash(Sender<Result<IdentifyResponse, QueryError>>),
    /// Test-only: occupies a worker for the given duration — shutdown and
    /// admission tests use it to make the pool deterministically busy.
    #[cfg(test)]
    Sleep(Duration, Sender<Result<IdentifyResponse, QueryError>>),
}

impl Job {
    /// Fails the job's requester explicitly — used by [`ServeEngine::stop`]
    /// for jobs drained from the queue, so no `submit_*` caller is ever
    /// left blocked on a reply that will never come.
    fn reject(self, err: QueryError) {
        match self {
            Job::Identify(_, _, _, tx) => {
                let _ = tx.send(Err(err));
            }
            Job::TopRules(_, _, _, _, tx) => {
                let _ = tx.send(Err(err));
            }
            #[cfg(test)]
            Job::Crash(tx) | Job::Sleep(_, tx) => {
                let _ = tx.send(Err(err));
            }
        }
    }

    /// The predicate this job queries, if any.
    fn predicate(&self) -> Option<&Predicate> {
        match self {
            Job::Identify(req, ..) => Some(&req.predicate),
            Job::TopRules(pred, ..) => Some(pred),
            #[cfg(test)]
            Job::Crash(_) | Job::Sleep(..) => None,
        }
    }
}

/// The serving engine: index + warm state + fixed worker pool.
///
/// Cloning is not supported; share the engine behind an `Arc` if multiple
/// frontends submit queries. Dropping the engine shuts the pool down and
/// joins every worker.
pub struct ServeEngine {
    shared: Arc<Shared>,
    jobs: Arc<Injector<Job>>,
    updates: Arc<Injector<UpdateJob>>,
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

    fn submit(&self, job: Job) -> Result<(), QueryError> {
        if gpar_chaos::should_reject_queue("serve::submit") {
            self.shared.obs.incr(0, Counter::Shed);
            return Err(QueryError::Shed { depth: self.jobs.len() });
        }
        let prio = self.priority_of(&job);
        match self.jobs.push_with(job, prio) {
            Ok(()) => Ok(()),
            Err(PushError::Closed(_)) => Err(QueryError::Stopped),
            Err(PushError::Full { depth, .. }) => {
                self.shared.obs.incr(0, Counter::Shed);
                Err(QueryError::Shed { depth })
            }
        }
    }

    /// Cold-predicate queries ride the high-priority lane: they run the
    /// shared warm-up whose ledger every later query on that predicate
    /// reuses, so a Zipf flood of already-warm hot keys must not starve
    /// them out of the bounded queue. Everything else is normal priority.
    fn priority_of(&self, job: &Job) -> Priority {
        let Some(pred) = job.predicate() else { return Priority::Normal };
        if self.shared.view.load_full().states.lock().contains_key(pred) {
            Priority::Normal
        } else {
            Priority::High
        }
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
    /// `opts.deadline` applies: `top_rules` answers borrow rule data
    /// behind the view lock, so they never take the stale path.
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

    /// A counters snapshot, read at one stable registry epoch: an update
    /// generation racing this call is reflected either completely or not
    /// at all — `updates`, `snapshot_publishes`, `updates_coalesced` and
    /// the rest of a generation's counters always move together in the
    /// returned value. `epoch` is read from the same published snapshot the
    /// engine is serving at the time of the call.
    pub fn stats(&self) -> EngineStats {
        let c = self.shared.obs.counters_stable();
        let epoch = self.shared.view.load_full().epoch;
        EngineStats {
            queries: c[Counter::Queries as usize],
            warmups: c[Counter::Warmups as usize],
            updates: c[Counter::Updates as usize],
            shed: c[Counter::Shed as usize],
            deadline_exceeded: c[Counter::DeadlineExceeded as usize],
            stale_served: c[Counter::StaleServed as usize],
            snapshot_publishes: c[Counter::SnapshotPublishes as usize],
            updates_coalesced: c[Counter::UpdatesCoalesced as usize],
            compactions: c[Counter::Compactions as usize],
            epoch,
        }
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

/// The single writer: owns every mutation of the published snapshot, so
/// generation builds never race each other. Pops one update, absorbs the
/// rest of the coalescing window, publishes the net generation, then
/// runs any maintenance job that closed the window. Exits when the
/// update injector is closed and drained.
fn writer_loop(shared: Arc<Shared>, jobs: Arc<Injector<UpdateJob>>) {
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

/// Runs one request with panics contained to it: the worker survives to
/// serve the next job (with a one-worker pool an uncaught panic would
/// wedge every future query), and the requester gets
/// [`QueryError::Panicked`] instead of a dead channel. Shared state stays
/// sound across the unwind — the ledger map uses a non-poisoning mutex
/// and is consistent between operations, and a read mutates nothing
/// else — which is exactly why `AssertUnwindSafe` is justified. A read
/// keeps no per-worker state that the unwind could leave half-written.
fn run_contained<T>(eval: impl FnOnce() -> Result<T, QueryError>) -> Result<T, QueryError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(eval))
        .unwrap_or(Err(QueryError::Panicked))
}

fn worker_loop(shared: Arc<Shared>, jobs: Arc<Injector<Job>>, shard: usize) {
    // `pop` blocks while the injector is open; `None` = closed + drained.
    while let Some(job) = jobs.pop() {
        shared.obs.incr(shard, Counter::Queries);
        match job {
            Job::Identify(req, submitted, dl, reply) => {
                let mut tb = TraceBuilder::new(TraceKind::Identify);
                tb.add(Stage::QueueWait, submitted.elapsed());
                // Check the deadline both before starting (don't compute a
                // dead answer for a request that expired in the queue) and
                // after finishing (never deliver a success the caller has
                // already given up on).
                let res = Deadline::check(dl.as_ref())
                    .and_then(|()| {
                        run_contained(|| {
                            gpar_chaos::failpoint("serve::worker::job");
                            shared.identify(&req, shard, &mut tb, dl.as_ref())
                        })
                    })
                    .and_then(|resp| Deadline::check(dl.as_ref()).map(|()| resp));
                if matches!(res, Err(QueryError::DeadlineExceeded { .. })) {
                    shared.obs.incr(shard, Counter::DeadlineExceeded);
                }
                // Record before replying, so a snapshot taken after the
                // answer arrives is guaranteed to include this request.
                shared.finish_trace(shard, tb, submitted.elapsed(), HistKind::IdentifyLatency);
                let _ = reply.send(res);
            }
            Job::TopRules(pred, k, submitted, dl, reply) => {
                let mut tb = TraceBuilder::new(TraceKind::TopRules);
                tb.add(Stage::QueueWait, submitted.elapsed());
                let res = Deadline::check(dl.as_ref())
                    .and_then(|()| {
                        run_contained(|| {
                            gpar_chaos::failpoint("serve::worker::job");
                            shared.top_rules(&pred, k, shard, &mut tb, dl.as_ref())
                        })
                    })
                    .and_then(|rules| Deadline::check(dl.as_ref()).map(|()| rules));
                if matches!(res, Err(QueryError::DeadlineExceeded { .. })) {
                    shared.obs.incr(shard, Counter::DeadlineExceeded);
                }
                shared.finish_trace(shard, tb, submitted.elapsed(), HistKind::TopRulesLatency);
                let _ = reply.send(res);
            }
            #[cfg(test)]
            Job::Crash(reply) => {
                let _ = reply.send(run_contained(|| -> Result<IdentifyResponse, _> {
                    panic!("test-injected query panic")
                }));
            }
            #[cfg(test)]
            Job::Sleep(d, reply) => {
                // Occupies the worker for a fixed time — tests use it to
                // build a deterministic backlog.
                std::thread::sleep(d);
                let _ = reply.send(Ok(IdentifyResponse {
                    customers: vec![],
                    evaluated: 0,
                    warmed: false,
                    epoch: 0,
                    stale: false,
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpar_eip::{identify as eip_identify, EipConfig};
    use gpar_graph::{GraphBuilder, Vocab};
    use gpar_pattern::PatternBuilder;

    /// The EIP test scenario: 10 positives, 2 negatives, 3 unknowns.
    fn scenario() -> (Arc<Graph>, RuleCatalog, Predicate) {
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
    fn direct_eip_customers(
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
        let eip = eip_identify(
            &*g,
            &sigma,
            &EipConfig { eta: 0.5, ..EipConfig::new(EipAlgorithm::Match, 2) },
        )
        .unwrap();
        let engine =
            ServeEngine::new(g.clone(), &cat, ServeConfig { eta: 0.5, ..Default::default() });
        let top = engine.top_rules(pred, 10).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].stats, eip.per_rule[0].stats, "serving stats must equal EIP's");
        assert_eq!(top[0].confidence, eip.per_rule[0].confidence);
        assert!(top[0].active);
        assert_eq!(engine.stats().warmups, 1);
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

    /// After an update, answers and stats must equal a fresh engine built
    /// on the materialized (compacted) graph. When node removals forced a
    /// dense re-numbering, the fresh engine's answers come back in new ids
    /// and are translated into the incremental engine's id space first.
    fn assert_matches_fresh_rebuild(engine: &ServeEngine, cat: &RuleCatalog, pred: Predicate) {
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
        assert_eq!(engine.stats().updates, 2);
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
        let stats = engine.stats();
        assert_eq!(stats.updates, 1, "accepted batches count even when deduplicated away");
        assert_eq!(stats.snapshot_publishes, 0, "nothing published");
        assert_eq!(stats.updates_coalesced, 1, "a no-publish batch is fully coalesced");
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
        assert_eq!(engine.stats().updates, 0);
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
        let stats = engine.stats();
        assert_eq!(stats.epoch, 0, "a cancelled window publishes no snapshot");
        // Netted-to-nothing windows still count their accepted batches,
        // keeping `coalesced == updates - update publishes` exact (the
        // harness's `coalesce_ratio = 1 - publishes/submitted`).
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.snapshot_publishes, 0);
        assert_eq!(stats.updates_coalesced, 1, "the cancelled batch is fully coalesced");
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
        assert_eq!(engine.stats().warmups, 1, "no re-warm despite the id shuffle");
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
        [ng.centers.shared_pages(&pg.centers), ns.outcomes.shared_pages(&ps.outcomes)]
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
        let class_in =
            |view: &EngineView| view.states.lock()[&pred].outcomes.get(target).unwrap().class;
        assert_eq!(class_in(&pinned), LcwaClass::Unknown, "the pinned generation is frozen");
        assert_eq!(class_in(&next), LcwaClass::Positive);
        assert_eq!(pinned.states.lock()[&pred].epoch, pinned.epoch);
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

    #[test]
    fn panicking_query_does_not_wedge_the_pool() {
        let (g, cat, pred) = scenario();
        // One worker: if the panic killed it, every later query would hang.
        let engine =
            ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, workers: 1, ..Default::default() });
        let (tx, rx) = channel();
        engine.submit(Job::Crash(tx)).unwrap();
        assert_eq!(rx.recv().unwrap().unwrap_err(), QueryError::Panicked);
        // Same worker, next job: still alive, still correct.
        let res = engine.identify(pred, None).unwrap();
        assert!(!res.customers.is_empty());
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

    /// Stats snapshots must be transactionally consistent under concurrent
    /// update traffic. Every committed update in this scenario
    /// re-evaluates exactly one center (cust 28 of the isolated (28, 29)
    /// pair), so any `metrics()` snapshot must show
    /// `update_reevaluated == updates`. The writer waits for each reply,
    /// so no batch coalesces and every update publishes one snapshot:
    /// any `stats()` snapshot must show
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
            (m.counter(Counter::Updates), m.counter(Counter::UpdateReevaluated))
        };
        let mut last_updates = 0;
        while last_updates < UPDATES && !writer.is_finished() {
            let (updates, reevaluated) = counts(&engine);
            assert_eq!(
                reevaluated, updates,
                "metrics() split an update transaction: updates={updates} reevaluated={reevaluated}"
            );
            // `stats()` skips the histogram merge, so it samples densely.
            for _ in 0..16 {
                let s = engine.stats();
                assert_eq!(
                    s.snapshot_publishes,
                    s.updates + s.compactions,
                    "stats() split a write transaction: {s:?}"
                );
                assert!(s.updates >= last_updates, "counters are monotone");
                last_updates = s.updates;
            }
        }
        writer.join().unwrap();
        assert_eq!(counts(&engine), (UPDATES, UPDATES));
        let s = engine.stats();
        assert_eq!((s.updates, s.snapshot_publishes), (UPDATES, UPDATES));
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

    /// Parks the single worker on a long job and waits until it has been
    /// popped, so everything submitted afterwards is queued behind it.
    fn occupy_worker(
        engine: &ServeEngine,
        d: Duration,
    ) -> Receiver<Result<IdentifyResponse, QueryError>> {
        let (tx, rx) = channel();
        engine.submit(Job::Sleep(d, tx)).unwrap();
        while !engine.jobs.is_empty() {
            std::thread::yield_now();
        }
        rx
    }

    /// The old shutdown race: jobs still queued when the engine stops had
    /// their reply senders dropped unanswered, so a submitter blocked in
    /// `rx.recv()` saw a dead channel instead of a typed error. `stop`
    /// must drain the injector and fail every pending job explicitly.
    #[test]
    fn stop_fails_queued_jobs_instead_of_hanging() {
        let (g, cat, pred) = scenario();
        let engine =
            ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, workers: 1, ..Default::default() });
        let _busy = occupy_worker(&engine, Duration::from_millis(300));
        let pending: Vec<_> = (0..4)
            .map(|_| {
                engine
                    .submit_identify_from(
                        IdentifyRequest {
                            predicate: pred,
                            candidates: None,
                            opts: QueryOpts::default(),
                        },
                        Ts::now(),
                    )
                    .unwrap()
            })
            .collect();
        engine.stop();
        for rx in pending {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(5)).expect("reply must arrive"),
                Err(QueryError::Stopped),
                "queued jobs get a typed shutdown error, not a dead channel"
            );
        }
        assert_eq!(engine.identify(pred, None), Err(QueryError::Stopped), "post-stop submits too");
    }

    #[test]
    fn deadline_exceeded_when_queued_past_budget() {
        let (g, cat, pred) = scenario();
        let engine =
            ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, workers: 1, ..Default::default() });
        engine.identify(pred, None).unwrap(); // warm
        let _busy = occupy_worker(&engine, Duration::from_millis(200));
        // 10ms budget, 200ms queue wait: the worker must reject on
        // dequeue instead of computing a dead answer.
        let err = engine
            .identify_opts(
                pred,
                None,
                QueryOpts { deadline: Some(Duration::from_millis(10)), ..Default::default() },
            )
            .unwrap_err();
        match err {
            QueryError::DeadlineExceeded { budget, elapsed } => {
                assert_eq!(budget, Duration::from_millis(10));
                assert!(elapsed >= budget, "elapsed {elapsed:?} must exceed the budget");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(engine.stats().deadline_exceeded >= 1);
        // An un-deadlined query on the same engine still answers.
        assert!(!engine.identify(pred, None).unwrap().customers.is_empty());
    }

    #[test]
    fn shed_when_queue_is_full() {
        let (g, cat, pred) = scenario();
        let engine = ServeEngine::new(
            g,
            &cat,
            ServeConfig { eta: 0.5, workers: 1, queue_capacity: 2, ..Default::default() },
        );
        engine.identify(pred, None).unwrap(); // warm: later identifies ride the normal lane
        let _busy = occupy_worker(&engine, Duration::from_millis(300));
        let req =
            || IdentifyRequest { predicate: pred, candidates: None, opts: QueryOpts::default() };
        let admitted: Vec<_> =
            (0..2).map(|_| engine.submit_identify_from(req(), Ts::now()).unwrap()).collect();
        assert_eq!(
            engine.submit_identify_from(req(), Ts::now()).unwrap_err(),
            QueryError::Shed { depth: 2 },
            "a full lane rejects with the observed backlog"
        );
        assert_eq!(engine.stats().shed, 1);
        for rx in admitted {
            assert!(
                rx.recv_timeout(Duration::from_secs(5)).expect("admitted job answers").is_ok(),
                "admitted work is never silently dropped"
            );
        }
    }

    /// Cold-predicate queries (their warm-up repairs the ledger) ride the
    /// high-priority lane, so a flood of hot-key traffic cannot starve
    /// them indefinitely.
    #[test]
    fn cold_queries_jump_the_queue() {
        let (g, cat0, hot) = scenario();
        let vocab = g.vocab().clone();
        let (cust, bar) = (vocab.get("cust").unwrap(), vocab.get("bar").unwrap());
        let (like, visit) = (vocab.get("like").unwrap(), vocab.get("visit").unwrap());
        // A second rule with a distinct predicate (bar-goers come to like
        // the bar) — note `P_R` must differ from the hot rule's, or the
        // catalog dedupes it away.
        let mut cat = cat0.clone();
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node(cust);
        let y = pb.node(bar);
        pb.edge(x, y, visit);
        let cold_rule = Arc::new(Gpar::new(pb.designate(x, y).build().unwrap(), like).unwrap());
        let cold = *cold_rule.predicate();
        cat.insert(cold_rule, ConfStats::default());

        let engine =
            ServeEngine::new(g, &cat, ServeConfig { eta: 0.5, workers: 1, ..Default::default() });
        engine.identify(hot, None).unwrap(); // warm the hot predicate only
        let _busy = occupy_worker(&engine, Duration::from_millis(100));
        // Normal-lane work queued first...
        let (tx, normal_rx) = channel();
        engine.submit(Job::Sleep(Duration::from_millis(300), tx)).unwrap();
        // ...then a cold-predicate query: it must be popped first anyway.
        let cold_resp = engine
            .submit_identify_from(
                IdentifyRequest { predicate: cold, candidates: None, opts: QueryOpts::default() },
                Ts::now(),
            )
            .unwrap()
            .recv_timeout(Duration::from_secs(5))
            .expect("cold query answers")
            .unwrap();
        assert!(cold_resp.warmed, "cold predicate warms on first touch");
        assert_eq!(
            normal_rx.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Empty),
            "the normal-lane job queued earlier is still waiting"
        );
        assert!(normal_rx.recv_timeout(Duration::from_secs(5)).is_ok());
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
        assert!(engine.stats().stale_served >= 1);

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

    /// Workers panicking mid-query while an updater mutates the graph:
    /// the pool survives, every crash gets its typed error, and the final
    /// engine state (stats, warm ledgers) is bit-equal to a fresh
    /// rebuild — a panic unwinding through a query must not leave shared
    /// state half-mutated.
    #[test]
    fn panic_containment_under_concurrent_updates() {
        let (g, cat, pred) = scenario();
        let vocab = g.vocab().clone();
        let visit = vocab.get("visit").unwrap();
        let engine = Arc::new(ServeEngine::new(
            g,
            &cat,
            ServeConfig { eta: 0.5, workers: 2, ..Default::default() },
        ));
        engine.identify(pred, None).unwrap(); // warm
        let updater = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for i in 0..50 {
                    let edge = vec![(NodeId(28), NodeId(29), visit)];
                    let update = if i % 2 == 0 {
                        GraphUpdate { new_edges: edge, ..Default::default() }
                    } else {
                        GraphUpdate { del_edges: edge, ..Default::default() }
                    };
                    engine.apply_update(&update).unwrap();
                }
            })
        };
        let mut crashes = Vec::new();
        for _ in 0..50 {
            let (tx, rx) = channel();
            engine.submit(Job::Crash(tx)).unwrap();
            crashes.push(rx);
            assert!(engine.identify(pred, None).is_ok());
        }
        for rx in crashes {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)).expect("crash reply"),
                Err(QueryError::Panicked)
            );
        }
        updater.join().expect("updater survives");
        assert_matches_fresh_rebuild(&engine, &cat, pred);
        assert_eq!(engine.stats().updates, 50);
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
        let stats = engine.stats();
        assert_eq!(stats.epoch, 1, "the burst published as a single generation");
        assert_eq!(stats.snapshot_publishes, 1);
        assert_eq!(stats.updates, edges.len() as u64, "every submission counted");
        assert_eq!(stats.updates_coalesced, (edges.len() - 1) as u64);
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
        assert_eq!(engine.stats().updates, 0, "nothing of the queued update was applied");
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
        assert!(engine.stats().compactions >= 1);
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
}
