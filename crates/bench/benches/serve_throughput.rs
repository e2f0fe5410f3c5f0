//! Serving-layer throughput: QPS of `ServeEngine::identify` as a function
//! of worker-pool size.
//!
//! Reported numbers (printed per benchmark):
//!
//! * `serve/workers/{n}` — a 64-request mixed batch (subset queries over a
//!   hot candidate set) served by an `n`-worker pool; the explicit
//!   `QPS` line is batch-size / wall-clock. Every request after the
//!   warm-up is a ledger read.
//!
//! On a single-core host the worker sweep reports flat QPS — the pool
//! overlaps requests, but wall-clock cannot beat one CPU (the same
//! substitution note as the mining benches; see `simulated_parallel_time`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpar_bench::Workloads;
use gpar_core::ConfStats;
use gpar_graph::NodeId;
use gpar_serve::{IdentifyRequest, RuleCatalog, ServeConfig, ServeEngine};
use std::sync::Arc;
use std::time::Instant;

fn setup() -> (Arc<gpar_graph::Graph>, RuleCatalog, gpar_core::Predicate) {
    let sg = Workloads::pokec(400);
    let sigma = Workloads::sigma(&sg, "music", 8, 2);
    assert!(!sigma.is_empty());
    let pred = *sigma[0].predicate();
    let mut catalog = RuleCatalog::new(sg.graph.vocab().clone());
    for r in sigma {
        catalog.insert(Arc::new(r), ConfStats::default());
    }
    (Arc::new(sg.graph), catalog, pred)
}

/// A deterministic mixed batch: every request asks about a small slice of
/// a hot candidate set, a few ask for the full candidate list.
fn batch(pred: gpar_core::Predicate, hot: &[NodeId], size: usize) -> Vec<IdentifyRequest> {
    (0..size)
        .map(|i| IdentifyRequest {
            predicate: pred,
            candidates: if i % 16 == 15 {
                None
            } else {
                let lo = (i * 3) % hot.len();
                let hi = (lo + 8).min(hot.len());
                Some(hot[lo..hi].to_vec())
            },
            opts: Default::default(),
        })
        .collect()
}

fn bench_serve(c: &mut Criterion) {
    let (graph, catalog, pred) = setup();
    let hot: Vec<NodeId> = (0..graph.node_count() as u32).step_by(5).map(NodeId).collect();

    // --- QPS vs worker-pool size --------------------------------------
    let mut group = c.benchmark_group("serve/workers");
    group.sample_size(10);
    for workers in [1, 2, 4] {
        let engine = ServeEngine::new(
            graph.clone(),
            &catalog,
            ServeConfig { workers, eta: 0.5, d: Some(2), ..Default::default() },
        );
        // Warm the predicate once so the measurement is the steady state.
        engine.identify(pred, Some(vec![NodeId(0)])).expect("warm");
        let reqs = batch(pred, &hot, 64);
        let t0 = Instant::now();
        let mut answered = 0usize;
        let rounds = 5;
        for _ in 0..rounds {
            answered +=
                engine.identify_batch(reqs.clone()).into_iter().filter(|r| r.is_ok()).count();
        }
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "serve/workers/{workers}: {answered} queries in {secs:.3}s -> {:.0} QPS",
            answered as f64 / secs
        );
        group.bench_function(BenchmarkId::from_parameter(workers), |b| {
            b.iter(|| engine.identify_batch(reqs.clone()).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
