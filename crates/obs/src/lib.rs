//! # gpar-obs
//!
//! The observability runtime for the GPAR workspace: no global state,
//! no external dependencies — every instrument lives in a registry the
//! owner constructs and threads to its components.
//!
//! Three layers:
//!
//! * [`hist`] — log-linear (HDR-style) **latency histograms**: lock-free
//!   recording (one relaxed `fetch_add` per sample), ≤ 3.125% relative
//!   quantile error, and exact bucket-wise shard merge (associative, so
//!   p50/p99/p999 over merged shards equal the single-stream values up
//!   to bucket resolution).
//! * [`metrics`] — the **[`MetricsRegistry`]**: per-worker-sharded
//!   [`Counter`]s and histograms plus shared [`Gauge`]s, snapshotted
//!   into one coherent [`MetricsSnapshot`]. Counters that must move
//!   together are bumped inside a seqlock [`WriteTxn`], so snapshots
//!   never observe half of a multi-counter transaction (the
//!   `EngineStats`-consistency contract). `MetricsSnapshot::to_bench_json`
//!   serializes to the `BENCH_matcher.json` scenario shape.
//! * [`trace`] — **per-request spans**: a worker accumulates stage
//!   durations into a local [`TraceBuilder`] (enter a [`Span`], drop it),
//!   then pushes the finished [`Trace`] into a bounded [`TraceRecorder`]
//!   ring — one short lock per request, none while it runs.
//!
//! ## The `obs-off` feature
//!
//! Building with `--features obs-off` compiles the *timing* half out:
//! [`Ts`] becomes zero-sized with zero elapsed readings, histogram
//! `record` and trace pushes become no-ops. **Counters and gauges stay
//! live** — engine statistics (query/warm-up/update counts) are part of
//! the serving semantics, not optional telemetry. The CI `obs-overhead`
//! leg builds the benchmark suite both ways and gates the enabled
//! overhead.

pub mod hist;
pub mod metrics;
pub mod trace;

/// Internal atomics/spin switch: `std` by default; under the `model`
/// feature the registry's atomics and spin hints come from `gpar-model`,
/// so the seqlock protocol runs under the deterministic model checker
/// (and passes through to `std` outside model executions).
pub(crate) mod sync {
    #[cfg(feature = "model")]
    pub(crate) use gpar_model::hint::spin_loop;
    #[cfg(not(feature = "model"))]
    pub(crate) use std::hint::spin_loop;

    pub(crate) mod atomic {
        #[cfg(feature = "model")]
        pub(crate) use gpar_model::sync::atomic::{AtomicI64, AtomicU64, Ordering};
        #[cfg(not(feature = "model"))]
        pub(crate) use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
    }
}

pub use hist::{HistogramSnapshot, LatencyHistogram, NUM_BUCKETS};
pub use metrics::{Counter, Gauge, HistKind, MetricsRegistry, MetricsSnapshot, WriteTxn};
pub use trace::{Span, Stage, Trace, TraceBuilder, TraceKind, TraceRecorder, Ts};
