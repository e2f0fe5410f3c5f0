//! The global-free metrics registry: named counters and latency
//! histograms, sharded per worker, snapshotted into one coherent
//! [`MetricsSnapshot`].
//!
//! # Sharding
//!
//! A [`MetricsRegistry`] holds `shards` independent copies of every
//! counter and histogram. A worker indexes its own shard (worker id
//! modulo shard count), so the hot recording path is a relaxed
//! `fetch_add` on a cache line no other worker is writing. Snapshots sum
//! the shards; histogram shards merge bucket-wise (exact — see
//! [`crate::hist`]).
//!
//! # Snapshot consistency (the seqlock epoch)
//!
//! Counters that must move **together** — an update's `updates += 1`
//! and its `update_reevaluated += k`, say — are bumped inside a
//! [`WriteTxn`] (`registry.write_txn()`), which holds the registry's
//! epoch odd for the duration. [`MetricsRegistry::counters_stable`]
//! retries until it reads the same even epoch on both sides of the
//! counter sweep, so a snapshot can never observe half of a transaction:
//! a [`MetricsSnapshot`] taken mid-update shows either the whole update
//! or none of it. Counters bumped outside any transaction (query and warm-up
//! counts) are monotone and need no such grouping.

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

macro_rules! metric_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($(#[$vmeta:meta])* $variant:ident => $text:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (storage) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of variants (the per-shard storage width).
            pub const COUNT: usize = $name::ALL.len();

            /// The stable snake_case name used in snapshots and JSON.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)+
                }
            }
        }
    };
}

metric_enum! {
    /// Monotonic event counters. Counters stay live under `obs-off`
    /// (engine statistics and tests depend on their exact semantics);
    /// only timing-derived instruments compile out.
    pub enum Counter {
        /// Queries serviced by the engine worker pool (identify + top-rules).
        Queries => "queries",
        /// Lazy per-predicate warm-up passes executed.
        Warmups => "warmups",
        /// Update batches accepted into the write pipeline — including
        /// batches whose window coalesced or deduplicated to nothing.
        Updates => "updates",
        /// Tasks executed by the work-stealing executor.
        ExecTasks => "exec_tasks",
        /// Tasks obtained by stealing from another worker's deque.
        ExecSteals => "exec_steals",
        /// Candidate matches generated by the iso matcher.
        IsoCandidatesGenerated => "iso_candidates_generated",
        /// Candidates rejected by degree/label/sketch filters.
        IsoCandidatesPruned => "iso_candidates_pruned",
        /// Scratch-arena metadata recomputations (arena cache misses).
        IsoMetaRecomputes => "iso_meta_recomputes",
        /// D-balls extracted from the graph (BFS + induced subgraph).
        BallsExtracted => "balls_extracted",
        /// Nodes visited across all d-ball BFS traversals.
        BallNodesVisited => "ball_nodes_visited",
        /// Candidate centers evaluated by warm-up passes (reads answer
        /// from the ledger and evaluate none).
        CentersEvaluated => "centers_evaluated",
        /// Centers re-evaluated during incremental update repair.
        UpdateReevaluated => "update_reevaluated",
        /// Predicate groups rebuilt (vs incrementally repaired) by updates.
        UpdateRebuiltGroups => "update_rebuilt_groups",
        /// Requests rejected at admission (bounded job queue full).
        Shed => "shed",
        /// Requests answered with a deadline-exceeded error.
        DeadlineExceeded => "deadline_exceeded",
        /// Staleness-opted identify answers stamped `stale`: served from
        /// the latest published snapshot while accepted-but-unpublished
        /// updates were in flight within the caller's staleness bound.
        StaleServed => "stale_served",
        /// Snapshot generations published (update batches, compactions).
        SnapshotPublishes => "snapshot_publishes",
        /// Accepted batches that did not publish their own generation:
        /// absorbed into an earlier batch's window, netted to nothing,
        /// or deduplicated away. Invariant: `updates_coalesced ==
        /// updates - (snapshot_publishes - compactions)`.
        UpdatesCoalesced => "updates_coalesced",
        /// Self-triggered overlay compactions folded into the base CSR.
        Compactions => "compactions",
    }
}

metric_enum! {
    /// Latency histogram kinds (all values in nanoseconds). Recording
    /// compiles out under `obs-off`.
    pub enum HistKind {
        /// End-to-end identify query latency (submit → completion).
        IdentifyLatency => "identify_latency",
        /// End-to-end top-rules query latency.
        TopRulesLatency => "top_rules_latency",
        /// End-to-end update-batch latency.
        UpdateLatency => "update_latency",
        /// Time between job submission and a worker picking it up.
        QueueWait => "queue_wait",
        /// Warm-ledger read/membership time.
        LedgerRead => "ledger_read",
        /// Lazy warm-up pass duration.
        Warmup => "warmup",
        /// Update: diff computation against the overlay.
        UpdateDiff => "update_diff",
        /// Update: overlay commit.
        UpdateCommit => "update_commit",
        /// Update: pre/post BFS for union-ball invalidation scope.
        UpdateBfs => "update_bfs",
        /// Update: per-group incremental repair.
        UpdateGroupRepair => "update_group_repair",
        /// Update: warm-ledger patch (rule surface + customer sets).
        UpdateLedgerPatch => "update_ledger_patch",
        /// Update: coalescing-window wait + net-batch absorption time.
        UpdateCoalesce => "update_coalesce",
        /// Update: next-view construction + pointer-swap publish time.
        UpdatePublish => "update_publish",
        /// Snapshot lag at publish: age of the oldest accepted-but-
        /// unpublished update when its generation became visible.
        SnapshotLag => "snapshot_lag",
        /// Executor per-task run time.
        ExecTask => "exec_task",
    }
}

struct Shard {
    counters: Box<[AtomicU64]>,
    hists: Box<[LatencyHistogram]>,
}

impl Shard {
    fn new() -> Self {
        Self {
            counters: (0..Counter::COUNT).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..HistKind::COUNT).map(|_| LatencyHistogram::new()).collect(),
        }
    }
}

/// A shared integer gauge (e.g. injector queue depth). Cloning shares
/// the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        // ordering: Relaxed — a gauge is a single monotone-read cell with
        // no cross-variable protocol; snapshots tolerate any recent value.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        // ordering: Relaxed — same single-cell argument as `add`.
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        // ordering: Relaxed — same single-cell argument as `add`.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        // ordering: Relaxed — same single-cell argument as `add`.
        self.0.load(Ordering::Relaxed)
    }
}

/// The per-worker-sharded metrics store. No global state: construct one
/// per engine (or harness) and thread `Arc<MetricsRegistry>` to the
/// components that record into it.
pub struct MetricsRegistry {
    shards: Box<[Shard]>,
    /// Seqlock epoch: odd while a [`WriteTxn`] is open.
    epoch: AtomicU64,
    gauges: parking_lot::Mutex<Vec<(&'static str, Gauge)>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").field("shards", &self.shards.len()).finish()
    }
}

impl MetricsRegistry {
    /// A registry with `shards` independent recording lanes (typically
    /// the worker count; clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let shards: Vec<Shard> = (0..shards.max(1)).map(|_| Shard::new()).collect();
        Self {
            shards: shards.into_boxed_slice(),
            epoch: AtomicU64::new(0),
            gauges: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Adds `n` to `c` on `shard` (wrapped modulo the shard count).
    #[inline]
    pub fn add(&self, shard: usize, c: Counter, n: u64) {
        // ordering: Relaxed — counter bumps carry no cross-counter
        // protocol by themselves; grouped visibility is provided by the
        // seqlock epoch (Acquire/Release on `epoch`), not by the bumps.
        self.shards[shard % self.shards.len()].counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// `add(shard, c, 1)`.
    #[inline]
    pub fn incr(&self, shard: usize, c: Counter) {
        self.add(shard, c, 1);
    }

    /// Records a duration sample into histogram `kind` on `shard`.
    /// Compiled out under `obs-off`.
    #[inline]
    pub fn record(&self, shard: usize, kind: HistKind, d: Duration) {
        if cfg!(feature = "obs-off") {
            return;
        }
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.shards[shard % self.shards.len()].hists[kind as usize].record(ns);
    }

    /// Registers a named gauge whose live value appears in snapshots.
    /// Returns a clone recording into the same cell.
    pub fn register_gauge(&self, name: &'static str) -> Gauge {
        let g = Gauge::new();
        self.gauges.lock().push((name, g.clone()));
        g
    }

    /// Opens a write transaction: counter bumps made through the guard
    /// are invisible to [`counters_stable`](Self::counters_stable) /
    /// [`snapshot`](Self::snapshot) until the guard drops, at which
    /// point they become visible together.
    pub fn write_txn(&self) -> WriteTxn<'_> {
        // Spin until we flip an even epoch to odd; writers are already
        // serialized by the engine's update lock, so contention here is
        // incidental (tests driving two registhreads at once).
        loop {
            // ordering: Acquire — pairs with the Release epoch bump in
            // `WriteTxn::drop`, so a writer that wins the CAS also sees
            // every counter write of the previous transaction.
            let e = self.epoch.load(Ordering::Acquire);
            // ordering: AcqRel on success — Acquire as above, Release so
            // the odd epoch is ordered before this txn's counter bumps;
            // Relaxed on failure — the retry re-reads with Acquire.
            if e.is_multiple_of(2)
                && self
                    .epoch
                    .compare_exchange_weak(e, e + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return WriteTxn { reg: self };
            }
            crate::sync::spin_loop();
        }
    }

    fn sum_counters(&self) -> [u64; Counter::COUNT] {
        let mut out = [0u64; Counter::COUNT];
        for shard in self.shards.iter() {
            for (acc, c) in out.iter_mut().zip(shard.counters.iter()) {
                // ordering: Relaxed — the enclosing seqlock read
                // (`counters_stable`'s Acquire epoch reads) provides the
                // happens-before edge for grouped counters.
                *acc += c.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Sums every counter across shards at one stable epoch: the result
    /// never reflects a partially applied [`WriteTxn`].
    pub fn counters_stable(&self) -> [u64; Counter::COUNT] {
        loop {
            // ordering: Acquire — pairs with `WriteTxn::drop`'s Release
            // bump: an even epoch read here means the transaction that
            // produced it is fully visible to the counter sweep below.
            let before = self.epoch.load(Ordering::Acquire);
            if !before.is_multiple_of(2) {
                crate::sync::spin_loop();
                continue;
            }
            let sums = self.sum_counters();
            // ordering: Acquire — orders the re-read after the sweep; an
            // unchanged even epoch proves no writer overlapped the sweep.
            if self.epoch.load(Ordering::Acquire) == before {
                return sums;
            }
        }
    }

    /// One coherent snapshot of everything: counters at a stable epoch,
    /// merged histogram shards, gauge values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters_stable();
        let mut hists: Vec<HistogramSnapshot> = Vec::with_capacity(HistKind::COUNT);
        for k in 0..HistKind::COUNT {
            let mut merged = HistogramSnapshot::empty();
            for shard in self.shards.iter() {
                merged.merge(&shard.hists[k].snapshot());
            }
            hists.push(merged);
        }
        let gauges =
            self.gauges.lock().iter().map(|(name, g)| (*name, g.get())).collect::<Vec<_>>();
        MetricsSnapshot { counters: counters.to_vec(), hists, gauges }
    }
}

/// Guard holding the registry's epoch odd; see
/// [`MetricsRegistry::write_txn`].
pub struct WriteTxn<'a> {
    reg: &'a MetricsRegistry,
}

impl WriteTxn<'_> {
    /// Adds `n` to `c` on `shard`, visible only when the guard drops.
    #[inline]
    pub fn add(&self, shard: usize, c: Counter, n: u64) {
        self.reg.add(shard, c, n);
    }

    /// `add(shard, c, 1)`.
    #[inline]
    pub fn incr(&self, shard: usize, c: Counter) {
        self.add(shard, c, 1);
    }
}

impl Drop for WriteTxn<'_> {
    fn drop(&mut self) {
        // ordering: Release — publishes every counter bump made under the
        // odd epoch before the epoch turns even; pairs with the Acquire
        // epoch reads in `write_txn` and `counters_stable`.
        self.reg.epoch.fetch_add(1, Ordering::Release);
    }
}

/// An owned, coherent point-in-time view of a registry.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    counters: Vec<u64>,
    hists: Vec<HistogramSnapshot>,
    gauges: Vec<(&'static str, i64)>,
}

impl MetricsSnapshot {
    /// Value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Merged histogram for `kind`.
    pub fn hist(&self, kind: HistKind) -> &HistogramSnapshot {
        &self.hists[kind as usize]
    }

    /// Registered gauges as `(name, value)` pairs.
    pub fn gauges(&self) -> &[(&'static str, i64)] {
        &self.gauges
    }

    /// Counter-wise and bucket-wise difference `self - earlier`, for
    /// interval statistics. Gauges keep `self`'s instantaneous values.
    pub fn minus(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .zip(&earlier.counters)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            hists: self.hists.iter().zip(&earlier.hists).map(|(a, b)| a.minus(b)).collect(),
            gauges: self.gauges.clone(),
        }
    }

    /// Serializes to the `BENCH_matcher.json` shape used by
    /// `perf_baseline`: a `{"generated_by", "scenarios": [{"name",
    /// "median_ns_per_op", "ops_per_sample"}]}` object. Counters and
    /// gauges appear as `obs/counter/<name>` / `obs/gauge/<name>` with
    /// the value in `median_ns_per_op` (the shape's single value slot);
    /// non-empty histograms contribute `obs/<hist>/{p50,p99,p999,mean,max}`
    /// rows with the sample count in `ops_per_sample`.
    pub fn to_bench_json(&self, generated_by: &str) -> String {
        let mut rows: Vec<String> = Vec::new();
        let mut push = |name: String, value: u64, ops: u64| {
            rows.push(format!(
                "    {{\"name\": \"{name}\", \"median_ns_per_op\": {value}, \"ops_per_sample\": {ops}}}"
            ));
        };
        for &c in Counter::ALL {
            push(format!("obs/counter/{}", c.name()), self.counter(c), 1);
        }
        for (name, v) in &self.gauges {
            push(format!("obs/gauge/{name}"), u64::try_from(*v).unwrap_or(0), 1);
        }
        for &k in HistKind::ALL {
            let h = self.hist(k);
            if h.is_empty() {
                continue;
            }
            let n = h.count();
            for (label, value) in [
                ("p50", h.quantile(0.5).unwrap_or(0)),
                ("p99", h.quantile(0.99).unwrap_or(0)),
                ("p999", h.quantile(0.999).unwrap_or(0)),
                ("mean", h.mean().unwrap_or(0)),
                ("max", h.max()),
            ] {
                push(format!("obs/{}/{label}", k.name()), value, n);
            }
        }
        format!(
            "{{\n  \"generated_by\": \"{generated_by}\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn counters_sum_across_shards() {
        let reg = MetricsRegistry::new(4);
        for shard in 0..8 {
            reg.incr(shard, Counter::Queries);
        }
        reg.add(2, Counter::Warmups, 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::Queries), 8, "shard index wraps modulo count");
        assert_eq!(snap.counter(Counter::Warmups), 5);
        assert_eq!(snap.counter(Counter::Updates), 0);
    }

    #[test]
    fn histograms_merge_across_shards() {
        let reg = MetricsRegistry::new(3);
        for (shard, v) in [(0u64, 100u64), (1, 200), (2, 300), (0, 400)] {
            reg.record(shard as usize, HistKind::IdentifyLatency, Duration::from_nanos(v));
        }
        let snap = reg.snapshot();
        let h = snap.hist(HistKind::IdentifyLatency);
        if cfg!(feature = "obs-off") {
            assert!(h.is_empty());
        } else {
            assert_eq!(h.count(), 4);
            assert_eq!(h.max(), 400);
        }
        assert!(snap.hist(HistKind::UpdateLatency).is_empty());
    }

    /// The seqlock contract: a reader never observes half of a write
    /// transaction. A writer repeatedly bumps two counters that must
    /// move in lockstep inside transactions; a reader polls stable sums
    /// and asserts the invariant at every observation.
    #[test]
    fn stable_reads_never_split_a_transaction() {
        let reg = std::sync::Arc::new(MetricsRegistry::new(2));
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let writer = {
            let (reg, stop) = (reg.clone(), stop.clone());
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    let txn = reg.write_txn();
                    txn.incr((i % 2) as usize, Counter::Updates);
                    txn.add((i % 2) as usize, Counter::UpdateReevaluated, 3);
                    drop(txn);
                }
                stop.store(true, Ordering::Release);
            })
        };
        // A fixed floor of observations: the invariant must hold on every
        // read whether or not the writer is still running.
        let mut observations = 0u64;
        while observations < 1_000 || !stop.load(Ordering::Acquire) {
            let sums = reg.counters_stable();
            let (u, re) =
                (sums[Counter::Updates as usize], sums[Counter::UpdateReevaluated as usize]);
            assert_eq!(re, u * 3, "snapshot split a transaction: updates={u} reevaluated={re}");
            observations += 1;
        }
        writer.join().unwrap();
        let sums = reg.counters_stable();
        assert_eq!(sums[Counter::Updates as usize], 20_000);
    }

    /// Satellite coverage: a reader that arrives while a transaction is
    /// open must RETRY (spin on the odd epoch) rather than return a torn
    /// sum — pinned here deterministically by holding the txn open until
    /// the reader thread is known to be inside `counters_stable`.
    #[test]
    fn reader_spins_while_txn_open_and_sees_it_whole() {
        let reg = std::sync::Arc::new(MetricsRegistry::new(1));
        let txn = reg.write_txn();
        txn.incr(0, Counter::Updates);
        let reader = {
            let reg = reg.clone();
            std::thread::spawn(move || reg.counters_stable())
        };
        // Give the reader real time to enter its retry loop against the
        // odd epoch; the second bump must still land in the same
        // all-or-nothing window.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!reader.is_finished(), "reader must spin while the epoch is odd");
        txn.add(0, Counter::UpdateReevaluated, 3);
        drop(txn);
        let sums = reader.join().unwrap();
        assert_eq!(sums[Counter::Updates as usize], 1);
        assert_eq!(sums[Counter::UpdateReevaluated as usize], 3, "txn must be seen whole");
    }

    #[test]
    fn gauges_appear_in_snapshots() {
        let reg = MetricsRegistry::new(1);
        let depth = reg.register_gauge("queue_depth");
        depth.add(7);
        depth.sub(2);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges(), &[("queue_depth", 5)]);
        depth.set(0);
        assert_eq!(reg.snapshot().gauges(), &[("queue_depth", 0)]);
    }

    #[test]
    fn snapshot_minus_gives_interval_counts() {
        let reg = MetricsRegistry::new(2);
        reg.add(0, Counter::Queries, 10);
        let before = reg.snapshot();
        reg.add(1, Counter::Queries, 5);
        reg.record(0, HistKind::QueueWait, Duration::from_nanos(50));
        let delta = reg.snapshot().minus(&before);
        assert_eq!(delta.counter(Counter::Queries), 5);
        if !cfg!(feature = "obs-off") {
            assert_eq!(delta.hist(HistKind::QueueWait).count(), 1);
        }
    }

    #[test]
    fn bench_json_shape_has_scenarios_rows() {
        let reg = MetricsRegistry::new(1);
        reg.incr(0, Counter::Queries);
        reg.record(0, HistKind::IdentifyLatency, Duration::from_micros(42));
        let g = reg.register_gauge("depth");
        g.set(3);
        let json = reg.snapshot().to_bench_json("obs-test");
        assert!(json.contains("\"generated_by\": \"obs-test\""));
        assert!(json.contains("\"scenarios\""));
        assert!(json.contains("\"name\": \"obs/counter/queries\", \"median_ns_per_op\": 1"));
        assert!(json.contains("\"name\": \"obs/gauge/depth\", \"median_ns_per_op\": 3"));
        if !cfg!(feature = "obs-off") {
            assert!(json.contains("obs/identify_latency/p999"));
        }
        // Counters with value 0 still serialize (fixed row set for diffing).
        assert!(json.contains("obs/counter/updates"));
    }
}
