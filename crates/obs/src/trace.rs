//! Per-request structured tracing: stage spans accumulated lock-free
//! into a [`TraceBuilder`], finished [`Trace`]s pushed into a bounded
//! ring buffer ([`TraceRecorder`]).
//!
//! A query worker owns its `TraceBuilder` for the duration of one
//! request — entering a [`Span`] and dropping it adds the elapsed time
//! to that stage's local accumulator, with no shared state touched until
//! the single ring-buffer push at completion. Stage durations therefore
//! sum to ≤ the root (end-to-end) duration by construction: stages are
//! disjoint slices of the same request's wall time.
//!
//! Under the `obs-off` feature, [`Ts`] is zero-sized, every elapsed
//! reading is zero, and the recorder drops pushes — the span plumbing
//! compiles to nothing.

use crate::metrics::HistKind;
use std::collections::VecDeque;
use std::time::Duration;

/// A monotonic timestamp; zero-sized (and always-zero elapsed) under
/// `obs-off`, so timestamping hot paths costs nothing when compiled out.
#[derive(Debug, Clone, Copy)]
pub struct Ts(#[cfg(not(feature = "obs-off"))] std::time::Instant);

impl Ts {
    /// The current instant.
    #[inline]
    pub fn now() -> Self {
        Ts(
            #[cfg(not(feature = "obs-off"))]
            std::time::Instant::now(),
        )
    }

    /// Time elapsed since this timestamp ([`Duration::ZERO`] under
    /// `obs-off`).
    #[inline]
    pub fn elapsed(&self) -> Duration {
        #[cfg(not(feature = "obs-off"))]
        {
            self.0.elapsed()
        }
        #[cfg(feature = "obs-off")]
        {
            Duration::ZERO
        }
    }

    /// The current monotonic instant, **live in every configuration**
    /// (including `obs-off`, where [`Ts::now`] readings compile out).
    /// This is the workspace's one blessed wall-clock entry point for
    /// *scheduling decisions* — deadlines, coalescing windows, frontier
    /// waits — which must keep working when measurement is compiled out.
    /// The `cargo xtask lint` coordinated-omission rule forbids raw
    /// `Instant::now()` outside this crate for exactly that reason.
    #[inline]
    #[must_use]
    pub fn monotonic_now() -> std::time::Instant {
        std::time::Instant::now()
    }

    /// The underlying monotonic instant, or `None` under `obs-off`
    /// (where `Ts` is zero-sized). Deadline enforcement anchors budgets
    /// here when timing is compiled in, and falls back to its own clock
    /// otherwise.
    #[inline]
    pub fn instant(&self) -> Option<std::time::Instant> {
        #[cfg(not(feature = "obs-off"))]
        {
            Some(self.0)
        }
        #[cfg(feature = "obs-off")]
        {
            None
        }
    }

    /// This timestamp shifted `d` into the future (identity under
    /// `obs-off`). An open-loop workload generator stamps each request
    /// with its *intended* arrival time — one phase epoch plus the
    /// schedule offset — so dispatcher lag is charged to the request
    /// instead of silently shrinking its measured latency.
    #[inline]
    #[must_use]
    pub fn plus(self, d: Duration) -> Ts {
        #[cfg(not(feature = "obs-off"))]
        {
            Ts(self.0 + d)
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = d;
            self
        }
    }
}

impl Default for Ts {
    fn default() -> Self {
        Ts::now()
    }
}

macro_rules! metric_stage_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($variant:ident => ($text:literal, $hist:expr),)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        $vis enum $name {
            $($variant,)+
        }

        impl $name {
            /// Every stage, in storage order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of stages.
            pub const COUNT: usize = $name::ALL.len();

            /// Stable snake_case name.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)+
                }
            }

            /// The registry histogram this stage's durations feed.
            pub fn hist(self) -> HistKind {
                match self {
                    $($name::$variant => $hist,)+
                }
            }
        }
    };
}

metric_stage_enum! {
    /// The stages a request's time is attributed to. Query stages map
    /// onto the serving pipeline (queue wait → ledger read, plus the
    /// warm-up on a predicate's first read); update stages onto the
    /// incremental-maintenance pipeline (diff → commit → BFS → group
    /// repair → ledger patch).
    pub enum Stage {
        QueueWait => ("queue_wait", HistKind::QueueWait),
        LedgerRead => ("ledger_read", HistKind::LedgerRead),
        Warmup => ("warmup", HistKind::Warmup),
        UpdateDiff => ("update_diff", HistKind::UpdateDiff),
        UpdateCommit => ("update_commit", HistKind::UpdateCommit),
        UpdateBfs => ("update_bfs", HistKind::UpdateBfs),
        UpdateGroupRepair => ("update_group_repair", HistKind::UpdateGroupRepair),
        UpdateLedgerPatch => ("update_ledger_patch", HistKind::UpdateLedgerPatch),
        UpdateCoalesce => ("update_coalesce", HistKind::UpdateCoalesce),
        UpdatePublish => ("update_publish", HistKind::UpdatePublish),
    }
}

/// What kind of request a trace describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// An identify (potential-customer) query.
    Identify,
    /// A top-rules ranking query.
    TopRules,
    /// An update batch.
    Update,
}

impl TraceKind {
    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Identify => "identify",
            TraceKind::TopRules => "top_rules",
            TraceKind::Update => "update",
        }
    }
}

/// A finished per-request trace: the root duration plus the stage
/// breakdown (only stages with non-zero time are kept).
#[derive(Debug, Clone)]
pub struct Trace {
    /// Request kind.
    pub kind: TraceKind,
    /// Monotonic sequence number assigned by the recorder at push time.
    pub seq: u64,
    /// Root span: end-to-end request duration.
    pub total: Duration,
    /// `(stage, duration)` pairs; disjoint slices of `total`, so their
    /// sum is ≤ `total`.
    pub stages: Vec<(Stage, Duration)>,
}

impl Trace {
    /// Duration attributed to `stage` (zero when absent).
    pub fn stage(&self, stage: Stage) -> Duration {
        self.stages.iter().find(|(s, _)| *s == stage).map(|(_, d)| *d).unwrap_or(Duration::ZERO)
    }

    /// Sum of all stage durations.
    pub fn stages_total(&self) -> Duration {
        self.stages.iter().map(|(_, d)| *d).sum()
    }
}

/// Per-request stage accumulator owned by one worker for one request.
/// No locks are taken while the request runs; the builder is turned
/// into a [`Trace`] at completion.
#[derive(Debug)]
pub struct TraceBuilder {
    kind: TraceKind,
    stages: [Duration; Stage::COUNT],
}

impl TraceBuilder {
    /// A fresh builder for one request.
    pub fn new(kind: TraceKind) -> Self {
        Self { kind, stages: [Duration::ZERO; Stage::COUNT] }
    }

    /// Adds `d` to `stage`'s accumulator (spans re-entering a stage
    /// accumulate, e.g. per-candidate iso-eval slices).
    #[inline]
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.stages[stage as usize] += d;
    }

    /// Enters `stage`: the returned [`Span`] adds its elapsed lifetime
    /// to the stage when dropped.
    #[inline]
    pub fn span(&mut self, stage: Stage) -> Span<'_> {
        Span::enter(self, stage)
    }

    /// Finishes the request into a [`Trace`] with root duration `total`.
    pub fn finish(self, total: Duration) -> Trace {
        let stages = Stage::ALL
            .iter()
            .filter(|s| !self.stages[**s as usize].is_zero())
            .map(|&s| (s, self.stages[s as usize]))
            .collect();
        Trace { kind: self.kind, seq: 0, total, stages }
    }
}

/// RAII stage timer: created by [`Span::enter`] (or
/// [`TraceBuilder::span`]), adds its elapsed lifetime to the stage on
/// drop.
#[derive(Debug)]
pub struct Span<'a> {
    builder: &'a mut TraceBuilder,
    stage: Stage,
    start: Ts,
}

impl<'a> Span<'a> {
    /// Starts timing `stage` against `builder`.
    #[inline]
    pub fn enter(builder: &'a mut TraceBuilder, stage: Stage) -> Self {
        Span { builder, stage, start: Ts::now() }
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        self.builder.add(self.stage, self.start.elapsed());
    }
}

/// A bounded ring buffer of recent [`Trace`]s shared by the worker pool.
/// One short lock per completed request; capacity 0 disables recording.
#[derive(Debug)]
pub struct TraceRecorder {
    inner: parking_lot::Mutex<Ring>,
    capacity: usize,
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<Trace>,
    seq: u64,
}

impl TraceRecorder {
    /// A recorder retaining the most recent `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: parking_lot::Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity.min(1024)),
                seq: 0,
            }),
            capacity,
        }
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes a finished trace, assigning its sequence number and
    /// evicting the oldest retained trace when full. Dropped under
    /// `obs-off` or capacity 0.
    pub fn push(&self, mut trace: Trace) {
        if cfg!(feature = "obs-off") || self.capacity == 0 {
            return;
        }
        let mut ring = self.inner.lock();
        trace.seq = ring.seq;
        ring.seq += 1;
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
        }
        ring.buf.push_back(trace);
    }

    /// Total traces ever pushed (including evicted ones).
    pub fn pushed(&self) -> u64 {
        self.inner.lock().seq
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<Trace> {
        self.inner.lock().buf.iter().cloned().collect()
    }

    /// Drops all retained traces (the sequence counter keeps running).
    pub fn clear(&self) {
        self.inner.lock().buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_shifts_the_epoch_forward() {
        let epoch = Ts::now();
        let shifted = epoch.plus(Duration::from_secs(3600));
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(shifted.elapsed(), Duration::ZERO, "an hour ahead has no elapsed time yet");
        #[cfg(feature = "obs-off")]
        assert_eq!(shifted.elapsed(), Duration::ZERO);
        assert!(epoch.elapsed() >= Duration::ZERO);
    }

    #[test]
    fn spans_accumulate_into_stages() {
        let mut tb = TraceBuilder::new(TraceKind::Identify);
        let t0 = Ts::now();
        {
            let _s = tb.span(Stage::UpdateDiff);
            std::thread::sleep(Duration::from_millis(2));
        }
        for _ in 0..2 {
            let _s = Span::enter(&mut tb, Stage::UpdateBfs);
            std::thread::sleep(Duration::from_millis(1));
        }
        let trace = tb.finish(t0.elapsed());
        if cfg!(feature = "obs-off") {
            assert!(trace.stages.is_empty(), "obs-off: all stage durations are zero");
            assert_eq!(trace.total, Duration::ZERO);
            return;
        }
        assert!(trace.stage(Stage::UpdateDiff) >= Duration::from_millis(2));
        assert!(trace.stage(Stage::UpdateBfs) >= Duration::from_millis(2), "re-entry accumulates");
        assert_eq!(trace.stage(Stage::QueueWait), Duration::ZERO);
        assert!(
            trace.stages_total() <= trace.total,
            "stages are disjoint slices of the root duration"
        );
    }

    #[test]
    fn recorder_is_a_bounded_ring() {
        let rec = TraceRecorder::new(3);
        for i in 0..5u64 {
            let mut tb = TraceBuilder::new(TraceKind::Identify);
            tb.add(Stage::LedgerRead, Duration::from_nanos(i + 1));
            rec.push(tb.finish(Duration::from_nanos(i + 1)));
        }
        if cfg!(feature = "obs-off") {
            assert_eq!(rec.pushed(), 0, "obs-off: pushes are dropped");
            return;
        }
        assert_eq!(rec.pushed(), 5);
        let recent = rec.recent();
        assert_eq!(recent.len(), 3, "oldest traces evicted");
        assert_eq!(recent.iter().map(|t| t.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        rec.clear();
        assert!(rec.recent().is_empty());
        assert_eq!(rec.pushed(), 5, "sequence survives clear");
    }

    #[test]
    fn capacity_zero_disables_recording() {
        let rec = TraceRecorder::new(0);
        rec.push(TraceBuilder::new(TraceKind::Update).finish(Duration::from_nanos(1)));
        assert_eq!(rec.pushed(), 0);
        assert!(rec.recent().is_empty());
    }

    #[test]
    fn stage_names_and_hist_mapping_are_total() {
        for &s in Stage::ALL {
            assert!(!s.name().is_empty());
            // Mapping must be callable for every stage (exhaustiveness).
            let _ = s.hist();
        }
        assert_eq!(Stage::COUNT, Stage::ALL.len());
    }
}
