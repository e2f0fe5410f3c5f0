//! Open-loop load harness: replays a deterministic seeded workload —
//! mixed identify / top-rules / update-batch traffic with hot-key Zipf
//! skew — against a live [`ServeEngine`] and writes an SLO report
//! (p50/p99/p999 per request class, stage breakdown, measured
//! saturation QPS) as JSON.
//!
//! The generator is **open-loop**: arrivals follow a seeded Poisson
//! schedule computed up front, and every request is stamped with its
//! *intended* arrival time (`Ts::plus` off one phase epoch), not the
//! time the dispatcher got around to submitting it. A backlogged engine
//! therefore shows up as queue-wait and tail latency instead of quietly
//! throttling the offered rate (coordinated omission). Latency is
//! recorded engine-side into the engine's obs histograms; the harness
//! reads per-phase deltas via [`MetricsSnapshot::minus`], so the report
//! reflects exactly the traffic of each phase.
//!
//! Saturation is measured by re-running the phase at a quadrupling
//! offered rate until completions can no longer keep up (achieved < 90%
//! of offered), under a hard step cap; the highest achieved rate is
//! reported. A phase's achieved rate is its query completions over the
//! time until the last query reply drained; the churn updates still in
//! flight then are the write side's cost and are reported there, not
//! here. Each step also records how late the dispatcher ran (its last
//! submission's lag behind schedule): a step whose dispatcher fell more
//! than 10% of the phase behind saturated the generator, not the engine,
//! and is reported as such. When the sweep ends without saturating the
//! engine, `saturation_qps` is a lower bound and the report says so.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p gpar-bench --bin load_harness             # full (pokec-500)
//! cargo run --release -p gpar-bench --bin load_harness -- --quick  # ~10 s CI smoke
//! cargo run --release -p gpar-bench --bin load_harness -- \
//!     --qps 400 --duration-secs 5 --slo-p99-ms 20 --out report.json
//! cargo run --release -p gpar-bench --bin load_harness -- \
//!     --deadline-ms 250 --queue-cap 256 --fail-on-slo   # overload profile
//! cargo run --release -p gpar-bench --bin load_harness -- \
//!     --write-heavy --staleness-ms 50                   # update-dominated
//! ```
//!
//! Overload knobs: `--deadline-ms` arms a per-request latency budget
//! (expired requests answer `DeadlineExceeded` instead of completing
//! late), `--staleness-ms` lets identify queries accept snapshot answers
//! of bounded publish lag while accepted updates are still in flight,
//! `--queue-cap` bounds the engine's admission queue (overflow answers
//! `Shed` at submit time), and `--fail-on-slo` turns an SLO miss into
//! exit code 1 for CI. Every reply is classified (`ok` / `shed` /
//! `deadline_exceeded` / `stale` / `failed`) and reported per phase —
//! under overload the error budget moves into typed sheds and timeouts,
//! never silent drops.
//!
//! Write-side knobs: `--update-rate` sets churn ticks per second,
//! `--update-burst` submits that many batches back-to-back at every tick
//! (the writer coalesces whatever it finds queued into one net snapshot
//! generation), and `--write-heavy` is the preset for both (100 ticks/s
//! × 8-deep bursts). The report's `write_pipeline` block shows how much
//! of the burst the coalescer absorbed (`coalesce_ratio`) and the
//! snapshot-lag percentiles — submission-to-publish age per accepted
//! batch — next to the read tails they were bought with.

use gpar_bench::Workloads;
use gpar_core::Predicate;
use gpar_datagen::{generate_rules, RuleGenConfig};
use gpar_graph::{Label, NodeId};
use gpar_serve::{
    Counter, GraphUpdate, HistKind, IdentifyRequest, MetricsSnapshot, QueryError, QueryOpts,
    RuleCatalog, ServeConfig, ServeEngine, Ts,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, Zipf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A uniform sample in `[0, 1)` with 53 mantissa bits.
fn unit(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Sleeps (coarsely, then spins) until `deadline`; returns immediately
/// if it is already past. Cancellable via `stop`.
fn wait_until(deadline: Instant, stop: Option<&AtomicBool>) {
    loop {
        if let Some(s) = stop {
            // ordering: Relaxed — `stop` is a lone cancellation flag; no
            // data is published through it.
            if s.load(Ordering::Relaxed) {
                return;
            }
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_millis(2) {
            // Leave the tail for the spin so overshoot stays small.
            std::thread::sleep((left - Duration::from_millis(1)).min(Duration::from_millis(5)));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One request class's latency summary over a phase delta.
struct ClassReport {
    name: &'static str,
    count: u64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    max_ns: u64,
}

fn class_report(delta: &MetricsSnapshot, name: &'static str, kind: HistKind) -> ClassReport {
    let h = delta.hist(kind);
    ClassReport {
        name,
        count: h.count(),
        p50_ns: h.quantile(0.50).unwrap_or(0),
        p99_ns: h.quantile(0.99).unwrap_or(0),
        p999_ns: h.quantile(0.999).unwrap_or(0),
        max_ns: h.max(),
    }
}

/// Per-phase reply classification: every submitted request lands in
/// exactly one bucket (`shed` at submit time, the rest at drain time).
#[derive(Default, Clone, Copy)]
struct ResponseClasses {
    /// Completed with a live (non-stale) answer.
    ok: u64,
    /// Completed from the warm ledger under an opted-in staleness bound.
    stale: u64,
    /// Rejected at admission (queue full) — a typed `Shed`, not a drop.
    shed: u64,
    /// Answered `DeadlineExceeded` (expired in queue or mid-evaluation).
    deadline_exceeded: u64,
    /// Anything else (panicked query, shutdown, lost reply).
    failed: u64,
}

/// What one phase of offered load measured.
struct PhaseResult {
    offered_qps: f64,
    /// Query completions per second of wall time until the last query
    /// reply landed (update replies are not waited for).
    achieved_qps: f64,
    submitted: u64,
    classes: ResponseClasses,
    updates_applied: u64,
    /// The phase's metrics delta: request-class latencies, update-
    /// pipeline counters, snapshot lag and stage timings.
    delta: MetricsSnapshot,
    /// How late the dispatcher ran: its last submission's lag behind that
    /// submission's scheduled offset.
    dispatch_lag: Duration,
    /// The last submission's scheduled offset into the phase.
    scheduled_span: Duration,
}

impl PhaseResult {
    /// Completions fell behind offers: achieved < 90% of offered.
    fn saturated(&self) -> bool {
        self.achieved_qps < 0.9 * self.offered_qps
    }

    /// The dispatcher fell more than 10% of the phase behind its own
    /// schedule, so the engine was never offered the nominal rate: a
    /// shortfall in this phase measures the generator, not the engine.
    fn generator_bound(&self) -> bool {
        self.dispatch_lag.as_secs_f64() > 0.1 * self.scheduled_span.as_secs_f64()
    }
}

#[derive(Clone, Copy)]
struct PhaseConfig {
    qps: f64,
    duration: Duration,
    /// Hard cap on scheduled queries per phase (bounds memory on the
    /// high-rate sweep steps; the achieved rate is still honest because
    /// it is measured over actual wall time).
    max_requests: u64,
    update_interval: Duration,
    /// Batches submitted back-to-back at every update tick; the writer
    /// coalesces whatever is queued when its window opens.
    update_burst: usize,
    zipf_s: f64,
    identify_frac: f64,
    seed: u64,
    /// Deadline / staleness options stamped on every query.
    opts: QueryOpts,
}

/// Runs one open-loop phase: a dispatcher thread replays the query
/// schedule while an updater thread applies churn batches (delete +
/// reinsert of the most local edge) on its own fixed-interval schedule.
fn run_phase(
    engine: &ServeEngine,
    pred: Predicate,
    pool: &[NodeId],
    churn_edge: (NodeId, NodeId, Label),
    cfg: &PhaseConfig,
) -> PhaseResult {
    let before = engine.metrics();
    let stop = AtomicBool::new(false);
    let epoch_ts = Ts::now();
    let epoch = Instant::now();

    let mut submitted = 0u64;
    let mut classes = ResponseClasses::default();
    let mut updates_applied = 0u64;
    let mut query_wall = Duration::ZERO;
    let (mut dispatch_lag, mut scheduled_span) = (Duration::ZERO, Duration::ZERO);

    std::thread::scope(|scope| {
        // Updater: bursts of churn batches at a fixed tick, submitted
        // asynchronously and each stamped with its scheduled tick, so
        // coalesce-window and publish wait are charged to the batch as
        // snapshot lag. Replies drain at the end: the open-loop write
        // schedule never throttles itself behind a slow generation.
        let updater = scope.spawn(|| {
            let mut applied = 0u64;
            let mut deleted = false;
            let mut replies = Vec::new();
            for i in 0u64.. {
                let off = cfg.update_interval * (i as u32 + 1);
                // ordering: Relaxed — cancellation flag only, see
                // `wait_until`.
                if off >= cfg.duration || stop.load(Ordering::Relaxed) {
                    break;
                }
                wait_until(epoch + off, Some(&stop));
                // ordering: Relaxed — cancellation flag only.
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                for _ in 0..cfg.update_burst.max(1) {
                    let batch = if deleted {
                        GraphUpdate { new_edges: vec![churn_edge], ..Default::default() }
                    } else {
                        GraphUpdate { del_edges: vec![churn_edge], ..Default::default() }
                    };
                    if let Ok(rx) = engine.submit_update_from(batch, epoch_ts.plus(off)) {
                        replies.push(rx);
                        deleted = !deleted;
                    }
                }
            }
            for rx in replies {
                if matches!(rx.recv(), Ok(Ok(_))) {
                    applied += 1;
                }
            }
            if deleted {
                // Leave the graph as we found it for the next phase.
                let batch = GraphUpdate { new_edges: vec![churn_edge], ..Default::default() };
                let _ = engine.apply_update(&batch);
            }
            applied
        });

        // Dispatcher (this thread): seeded Poisson arrivals, Zipf-skewed
        // candidate subsets, a fixed identify/top-rules mix.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let zipf = Zipf::new(pool.len() as u64, cfg.zipf_s).expect("pool is non-empty");
        let mut identify_rx: Vec<Receiver<_>> = Vec::new();
        let mut top_rules_rx: Vec<Receiver<_>> = Vec::new();
        let mut t = Duration::ZERO;
        loop {
            let dt = -(1.0 - unit(&mut rng)).ln() / cfg.qps;
            t += Duration::from_secs_f64(dt);
            if t >= cfg.duration || submitted >= cfg.max_requests {
                break;
            }
            wait_until(epoch + t, None);
            (dispatch_lag, scheduled_span) = (epoch.elapsed().saturating_sub(t), t);
            let scheduled = epoch_ts.plus(t);
            if rng.gen_bool(cfg.identify_frac) {
                let size = rng.gen_range(1usize..=8);
                let mut candidates: Vec<NodeId> =
                    (0..size).map(|_| pool[zipf.sample(&mut rng) as usize - 1]).collect();
                candidates.sort_unstable();
                candidates.dedup();
                let req = IdentifyRequest {
                    predicate: pred,
                    candidates: Some(candidates),
                    opts: cfg.opts,
                };
                match engine.submit_identify_from(req, scheduled) {
                    Ok(rx) => identify_rx.push(rx),
                    Err(QueryError::Shed { .. }) => classes.shed += 1,
                    Err(_) => classes.failed += 1,
                }
            } else {
                match engine.submit_top_rules_from(pred, 4, cfg.opts, scheduled) {
                    Ok(rx) => top_rules_rx.push(rx),
                    Err(QueryError::Shed { .. }) => classes.shed += 1,
                    Err(_) => classes.failed += 1,
                }
            }
            submitted += 1;
        }

        // Drain every reply; traces and histograms are recorded before
        // the reply is sent, so once the last answer is in, so is every
        // measurement. Every admitted request must answer — a blocking
        // `recv` here is the harness-level proof that deadlined or shed
        // work never leaves a dangling waiter.
        for rx in identify_rx {
            match rx.recv() {
                Ok(Ok(resp)) if resp.stale => classes.stale += 1,
                Ok(Ok(_)) => classes.ok += 1,
                Ok(Err(QueryError::DeadlineExceeded { .. })) => classes.deadline_exceeded += 1,
                _ => classes.failed += 1,
            }
        }
        for rx in top_rules_rx {
            match rx.recv() {
                Ok(Ok(_)) => classes.ok += 1,
                Ok(Err(QueryError::DeadlineExceeded { .. })) => classes.deadline_exceeded += 1,
                _ => classes.failed += 1,
            }
        }
        // The read side is done: stop its clock before waiting on the
        // updater, whose pending replies and restoring write would
        // otherwise count as query time.
        query_wall = epoch.elapsed();
        // ordering: Relaxed — the join below is the synchronization point.
        stop.store(true, Ordering::Relaxed);
        updates_applied = updater.join().expect("updater thread");
    });

    let wall = query_wall.as_secs_f64().max(1e-9);
    let delta = engine.metrics().minus(&before);
    let completed = delta.hist(HistKind::IdentifyLatency).count()
        + delta.hist(HistKind::TopRulesLatency).count();
    PhaseResult {
        offered_qps: cfg.qps,
        achieved_qps: completed as f64 / wall,
        submitted,
        classes,
        updates_applied,
        delta,
        dispatch_lag,
        scheduled_span,
    }
}

fn json_class(out: &mut String, r: &ClassReport, slo_p99_ms: f64, last: bool) {
    let p99_ms = r.p99_ns as f64 / 1e6;
    let pass = r.count == 0 || p99_ms <= slo_p99_ms;
    out.push_str(&format!(
        "    {{ \"class\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
         \"p999_ns\": {}, \"max_ns\": {}, \"slo_p99_ms\": {:.3}, \"slo_pass\": {} }}{}\n",
        r.name,
        r.count,
        r.p50_ns,
        r.p99_ns,
        r.p999_ns,
        r.max_ns,
        slo_p99_ms,
        pass,
        if last { "" } else { "," }
    ));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };
    let users: usize = flag("--users")
        .map_or(if quick { 120 } else { 500 }, |v| v.parse().expect("--users takes an integer"));
    // Defaults sit below the engine's measured saturation at each scale
    // so the SLO phase reports steady-state tails; the sweep afterwards
    // finds the ceiling.
    let qps: f64 =
        flag("--qps").map_or(if quick { 150.0 } else { 40.0 }, |v| v.parse().expect("--qps"));
    let duration = Duration::from_secs_f64(
        flag("--duration-secs")
            .map_or(if quick { 1.0 } else { 4.0 }, |v| v.parse().expect("--duration-secs")),
    );
    let seed: u64 = flag("--seed").map_or(0x10AD, |v| v.parse().expect("--seed"));
    // Readers are served from published snapshots and never wait on the
    // writer, so the default read bound is tight even under churn;
    // loosen with `--slo-p99-ms` only for saturation experiments.
    let slo_p99_ms: f64 = flag("--slo-p99-ms").map_or(500.0, |v| v.parse().expect("--slo-p99-ms"));
    let slo_update_p99_ms: f64 =
        flag("--slo-update-p99-ms").map_or(1000.0, |v| v.parse().expect("--slo-update-p99-ms"));
    let zipf_s: f64 = flag("--zipf-s").map_or(1.1, |v| v.parse().expect("--zipf-s"));
    let deadline_ms: Option<f64> = flag("--deadline-ms").map(|v| v.parse().expect("--deadline-ms"));
    let staleness_ms: Option<f64> =
        flag("--staleness-ms").map(|v| v.parse().expect("--staleness-ms"));
    let queue_cap: usize = flag("--queue-cap").map_or(0, |v| v.parse().expect("--queue-cap"));
    let fail_on_slo = args.iter().any(|a| a == "--fail-on-slo");
    let opts = QueryOpts {
        deadline: deadline_ms.map(|ms| Duration::from_secs_f64(ms / 1e3)),
        staleness: staleness_ms.map(|ms| Duration::from_secs_f64(ms / 1e3)),
    };
    let out_path = flag("--out").unwrap_or_else(|| "SLO_report.json".to_string());
    let max_requests: u64 = if quick { 5_000 } else { 50_000 };
    let identify_frac = 0.85;
    // Write-side shape: `--write-heavy` is the update-dominated preset
    // (100 ticks/s × 8-deep bursts); `--update-rate` / `--update-burst`
    // override either axis independently.
    let write_heavy = args.iter().any(|a| a == "--write-heavy");
    let update_rate: Option<f64> = flag("--update-rate").map(|v| v.parse().expect("--update-rate"));
    let update_burst: usize = flag("--update-burst")
        .map_or(if write_heavy { 8 } else { 1 }, |v| v.parse().expect("--update-burst"));
    let update_interval = match update_rate {
        Some(r) => {
            assert!(r > 0.0, "--update-rate must be positive");
            Duration::from_secs_f64(1.0 / r)
        }
        None if write_heavy => Duration::from_millis(10),
        None => Duration::from_millis(if quick { 150 } else { 500 }),
    };

    // Workload: the Pokec stand-in at `users`, one mined-rule catalog,
    // the hottest candidate centers as the Zipf key pool.
    let sg = Workloads::pokec(users);
    let pred = sg.schema.predicate("music", 0).expect("family");
    let rules = generate_rules(
        &sg.graph,
        &pred,
        &RuleGenConfig { count: 8, pattern_nodes: 5, pattern_edges: 7, max_radius: 2, seed: 3 },
    );
    assert!(!rules.is_empty(), "workload must yield rules");
    let graph = Arc::new(sg.graph.clone());
    let mut catalog = RuleCatalog::new(graph.vocab().clone());
    for r in &rules {
        catalog.insert(Arc::new(r.clone()), gpar_core::ConfStats::default());
    }
    let serve_pred = *rules[0].predicate();
    let serve_cfg = ServeConfig {
        eta: 1.5,
        trace_capacity: 1024,
        queue_capacity: queue_cap,
        ..Default::default()
    };
    let engine = ServeEngine::new(graph.clone(), &catalog, serve_cfg);

    let pool: Vec<NodeId> = {
        let mut v: Vec<NodeId> =
            gpar_core::q_stats(&sg.graph, &serve_pred).positives.into_iter().collect();
        v.sort_unstable();
        v.truncate(64);
        v
    };
    assert!(!pool.is_empty(), "predicate has candidate centers");
    let churn_edge = sg
        .graph
        .nodes()
        .flat_map(|v| sg.graph.out_edges(v).iter().map(move |e| (v, e.node, e.label)))
        .min_by_key(|&(s, d, _)| sg.graph.degree(s) + sg.graph.degree(d))
        .expect("graph has edges");

    // Warm outside the measured phases: the first query pays the warm
    // scan; steady-state tails are what the SLO is about.
    engine.identify(serve_pred, None).expect("warm-up query");

    println!(
        "load_harness: |V|={} |E|={} pool={} qps={qps} dur={:.1}s zipf_s={zipf_s}",
        sg.graph.node_count(),
        sg.graph.edge_count(),
        pool.len(),
        duration.as_secs_f64(),
    );

    // Phase 1 — the SLO measurement phase at the requested rate.
    let base_cfg = PhaseConfig {
        qps,
        duration,
        max_requests,
        update_interval,
        update_burst,
        zipf_s,
        identify_frac,
        seed,
        opts,
    };
    let measured = run_phase(&engine, serve_pred, &pool, churn_edge, &base_cfg);
    println!(
        "  replies: ok={} stale={} shed={} deadline_exceeded={} failed={}",
        measured.classes.ok,
        measured.classes.stale,
        measured.classes.shed,
        measured.classes.deadline_exceeded,
        measured.classes.failed
    );
    // Write-pipeline efficiency over the measured phase: how many
    // accepted batches each published generation absorbed, and how long
    // a batch waited from its scheduled tick to its snapshot's publish.
    let wp_updates = measured.delta.counter(Counter::Updates);
    let wp_coalesced = measured.delta.counter(Counter::UpdatesCoalesced);
    let wp_publishes = measured.delta.counter(Counter::SnapshotPublishes);
    let coalesce_ratio = wp_coalesced as f64 / (wp_updates.max(1)) as f64;
    let lag = measured.delta.hist(HistKind::SnapshotLag);
    println!(
        "  writes: applied={} publishes={wp_publishes} coalesced={wp_coalesced} \
         (ratio {coalesce_ratio:.2}) snapshot_lag p50={}ns p99={}ns",
        measured.updates_applied,
        lag.quantile(0.50).unwrap_or(0),
        lag.quantile(0.99).unwrap_or(0)
    );
    let classes = [
        class_report(&measured.delta, "identify", HistKind::IdentifyLatency),
        class_report(&measured.delta, "top_rules", HistKind::TopRulesLatency),
        class_report(&measured.delta, "update", HistKind::UpdateLatency),
    ];
    for c in &classes {
        println!(
            "  {:<10} n={:<6} p50={:>9}ns p99={:>10}ns p999={:>10}ns",
            c.name, c.count, c.p50_ns, c.p99_ns, c.p999_ns
        );
    }

    // Phase 2..N — the saturation sweep: same shape, the offered rate
    // quadrupling until completions fall behind offers, for at most
    // `SWEEP_STEP_CAP` phases in all. `max_requests` bounds each phase's
    // memory, and every phase reuses the same two threads.
    const SWEEP_STEP_CAP: usize = 10;
    // (offered, achieved, dispatch lag, generator-bound) per phase.
    let step_of =
        |r: &PhaseResult| (r.offered_qps, r.achieved_qps, r.dispatch_lag, r.generator_bound());
    let mut sweep = vec![step_of(&measured)];
    let mut saturated = measured.saturated();
    let mut offered = qps;
    while !saturated && sweep.len() < SWEEP_STEP_CAP {
        offered *= 4.0;
        let seed = seed.wrapping_add(sweep.len() as u64);
        let r = run_phase(
            &engine,
            serve_pred,
            &pool,
            churn_edge,
            &PhaseConfig { qps: offered, seed, ..base_cfg },
        );
        println!(
            "  sweep: offered={:>10.0} qps achieved={:>10.0} qps dispatch_lag={:.3}ms{} \
             (n={}, shed={}, dl={}, err={})",
            r.offered_qps,
            r.achieved_qps,
            r.dispatch_lag.as_secs_f64() * 1e3,
            if r.generator_bound() { " generator-bound" } else { "" },
            r.submitted,
            r.classes.shed,
            r.classes.deadline_exceeded,
            r.classes.failed
        );
        sweep.push(step_of(&r));
        saturated = r.saturated();
    }
    let saturation_qps = sweep.iter().map(|s| s.1).fold(0.0f64, f64::max);
    // What ended the sweep: the engine falling behind a rate the
    // generator kept up with, the generator falling behind its own
    // schedule, or the step cap. Only the first measures capacity.
    let saturated_by = match sweep.last() {
        Some(&(.., generator_bound)) if saturated && !generator_bound => Some("engine"),
        _ if saturated => Some("generator"),
        _ => None,
    };
    let lower_bound = saturated_by != Some("engine");

    // The latency SLO applies to *admitted and completed* work: shed and
    // deadline-expired requests are accounted separately (they are the
    // mechanism that keeps the tail bounded, not violations of it). Any
    // `failed` reply — a panic, a lost channel — fails the SLO outright.
    let slo_pass = measured.classes.failed == 0
        && classes.iter().all(|c| {
            let bound = if c.name == "update" { slo_update_p99_ms } else { slo_p99_ms };
            c.count == 0 || (c.p99_ns as f64 / 1e6) <= bound
        });

    // --- JSON out (hand-rolled: the workspace is serde-free). ---
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p gpar-bench --bin load_harness\",\n",
    );
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"graph\": {{ \"users\": {users}, \"nodes\": {}, \"edges\": {} }},\n",
        sg.graph.node_count(),
        sg.graph.edge_count()
    ));
    json.push_str(&format!(
        "  \"workload\": {{ \"qps\": {qps:.1}, \"duration_secs\": {:.3}, \"seed\": {seed}, \
         \"zipf_s\": {zipf_s:.2}, \"identify_frac\": {identify_frac:.2}, \
         \"update_interval_ms\": {}, \"update_burst\": {update_burst}, \
         \"write_heavy\": {write_heavy}, \"pool\": {}, \"submitted\": {}, \
         \"updates_applied\": {} }},\n",
        duration.as_secs_f64(),
        update_interval.as_millis(),
        pool.len(),
        measured.submitted,
        measured.updates_applied
    ));
    json.push_str(&format!(
        "  \"write_pipeline\": {{ \"updates\": {wp_updates}, \"coalesced\": {wp_coalesced}, \
         \"coalesce_ratio\": {coalesce_ratio:.4}, \"snapshot_publishes\": {wp_publishes}, \
         \"snapshot_lag\": {{ \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
         \"p999_ns\": {}, \"max_ns\": {} }} }},\n",
        lag.count(),
        lag.quantile(0.50).unwrap_or(0),
        lag.quantile(0.99).unwrap_or(0),
        lag.quantile(0.999).unwrap_or(0),
        lag.max()
    ));
    json.push_str(&format!(
        "  \"robustness\": {{ \"deadline_ms\": {}, \"staleness_ms\": {}, \"queue_cap\": {} }},\n",
        deadline_ms.map_or("null".into(), |v| format!("{v:.1}")),
        staleness_ms.map_or("null".into(), |v| format!("{v:.1}")),
        queue_cap
    ));
    json.push_str(&format!(
        "  \"response_classes\": {{ \"ok\": {}, \"stale\": {}, \"shed\": {}, \
         \"deadline_exceeded\": {}, \"failed\": {} }},\n",
        measured.classes.ok,
        measured.classes.stale,
        measured.classes.shed,
        measured.classes.deadline_exceeded,
        measured.classes.failed
    ));
    json.push_str("  \"classes\": [\n");
    for (i, c) in classes.iter().enumerate() {
        let bound = if c.name == "update" { slo_update_p99_ms } else { slo_p99_ms };
        json_class(&mut json, c, bound, i + 1 == classes.len());
    }
    json.push_str("  ],\n");
    json.push_str("  \"stages\": [\n");
    let stage_kinds = [
        HistKind::QueueWait,
        HistKind::LedgerRead,
        HistKind::UpdateDiff,
        HistKind::UpdateCommit,
        HistKind::UpdateBfs,
        HistKind::UpdateGroupRepair,
        HistKind::UpdateLedgerPatch,
    ];
    for (i, &k) in stage_kinds.iter().enumerate() {
        let h = measured.delta.hist(k);
        json.push_str(&format!(
            "    {{ \"stage\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {} }}{}\n",
            k.name(),
            h.count(),
            h.quantile(0.50).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            if i + 1 == stage_kinds.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"saturation\": {\n    \"sweep\": [\n");
    for (i, &(o, a, lag, generator_bound)) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "      {{ \"offered_qps\": {o:.1}, \"achieved_qps\": {a:.1}, \
             \"dispatch_lag_ms\": {:.3}, \"generator_bound\": {generator_bound} }}{}\n",
            lag.as_secs_f64() * 1e3,
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"saturated\": {saturated},\n    \"saturated_by\": {},\n    \
         \"lower_bound\": {lower_bound},\n    \"saturation_qps\": {saturation_qps:.1}\n  }},\n",
        saturated_by.map_or("null".to_string(), |by| format!("\"{by}\""))
    ));
    json.push_str(&format!("  \"slo_pass\": {slo_pass}\n"));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write report");
    let bound = match saturated_by {
        Some("engine") => "saturated by the engine".to_string(),
        Some(by) => format!("a lower bound: the {by} saturated, not the engine"),
        None => format!("a lower bound: the sweep hit its {SWEEP_STEP_CAP}-step cap unsaturated"),
    };
    println!(
        "saturation_qps={saturation_qps:.0} ({bound}) saturated={saturated} slo_pass={slo_pass} \
         → {out_path}"
    );
    if fail_on_slo && !slo_pass {
        std::process::exit(1);
    }
}
