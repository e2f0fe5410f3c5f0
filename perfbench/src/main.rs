//! perfbench — the repo's benchmark. Four workloads, end-to-end metrics
//! with tracing off, and a per-layer ledger from a separate traced run.
//!
//! ```text
//! perfbench --workload <w> --seed <n> --seconds <s> --trace <0|1>   # the driver's form
//! perfbench run   --workload all|<w> --seed <n> [--seconds <s>]     # end-to-end, untraced
//! perfbench trace --workload <w>     --seed <n> [--seconds <s>]     # per-layer, traced
//! perfbench smoke                                                   # all four, tiny, < 20 s
//! perfbench agree --seed <n> [--seconds <s>]                        # two full sets vs bounds
//! ```
//!
//! The last line of standard output of the driver's form is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod batch;
mod inputs;
mod layers;
mod report;
mod schedule;
mod serve;
mod spans;
mod stats;

use crate::inputs::{nproc, serve_config, serve_workers, Inputs, Scale, Sizes, Workload};
use crate::layers::Ledger;
use crate::report::{
    check_definitions, check_result, peak_rss_mb, write_run_record, Better, RunResult, END_TO_END,
    PER_LAYER,
};
use crate::schedule::Schedule;
use crate::serve::{ClosedLoop, OpenLoop};
use crate::spans::{stage_table, Recorder};
use crate::stats::{median, quantile, Rounds};
use gpar_eip::derive_radius;
use gpar_serve::ServeEngine;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json`; the default of `run`/`trace`/`agree`.
const RUN_SECONDS: f64 = 28.0;

/// One set-up: the inputs, the engine (serving workloads), the answer of
/// the warm-up operation, and what they cost.
struct Setup {
    inputs: Inputs,
    engine: Option<ServeEngine>,
    /// Digest of the warm-up job's answer (batch workloads).
    warm_digest: u64,
    setup_s: f64,
    cold_op_ms: f64,
}

/// Generates the inputs, builds what serves them and runs the first
/// operation — everything a user pays before steady state.
fn set_up(w: Workload, sizes: &Sizes, seed: u64) -> Setup {
    let t0 = Instant::now();
    let inputs = Inputs::generate(w, sizes, seed);
    let mut off = Recorder::new(false);
    let (engine, warm_digest, cold_op_ms) = if w.is_serving() {
        let engine = ServeEngine::new(
            inputs.graph.clone(),
            &inputs.catalog(),
            serve_config(serve_workers()),
        );
        let t = Instant::now();
        engine.identify(inputs.pred, None).expect("warm-up identify");
        (Some(engine), 0, t.elapsed().as_secs_f64() * 1e3)
    } else {
        let t = Instant::now();
        let digest = batch::run_job(w, &inputs, nproc(), &mut off);
        (None, digest, t.elapsed().as_secs_f64() * 1e3)
    };
    Setup { inputs, engine, warm_digest, setup_s: t0.elapsed().as_secs_f64(), cold_op_ms }
}

/// A serving session: the open loop between the two halves of the closed
/// loop, then the oracle.
struct Session {
    /// `(reads, writes, compactions)` the schedule held.
    scheduled: (usize, usize, usize),
    open: OpenLoop,
    closed: Option<ClosedLoop>,
    mirror: serve::Mirror,
    digest: u64,
    answer_ok: bool,
}

#[allow(clippy::too_many_arguments)]
fn serving_session(
    inputs: &Inputs,
    engine: &ServeEngine,
    traffic: &inputs::Traffic,
    open_s: f64,
    closed_s: f64,
    seed: u64,
    traced: bool,
    rec: &mut Recorder,
) -> Session {
    let pred = inputs.pred;
    let open_window = Duration::from_secs_f64(open_s);
    let schedule = Schedule::generate(&inputs.graph, &pred, traffic, open_window, seed);
    // The closed loop runs in two halves, ahead of the open loop and
    // behind it. The host's speed changes for ten seconds and more at a
    // time; two phases 17 s apart rarely both meet it at its slowest.
    let half = Duration::from_secs_f64(closed_s / 2.0);
    let mut closed = (closed_s > 0.0)
        .then(|| serve::closed_loop(engine, pred, &schedule.opening_keys, traffic, half, seed));
    let open = serve::open_loop(engine, pred, &schedule, open_window, traced, rec);
    if let Some(ahead) = closed.as_mut() {
        ahead.extend(serve::closed_loop(engine, pred, &schedule.closed_keys, traffic, half, !seed));
    }
    // The engine is quiescent: every reply is in. Its full answer must
    // equal a from-scratch identify over the mirror of the accepted
    // batches.
    let mirror = serve::replay_mirror(inputs, &schedule, derive_radius(&inputs.sigma));
    let scratch = serve::scratch_answer(inputs, &mirror.graph);
    let (digest, answer_ok) = match serve::engine_answer(engine, pred) {
        Ok(a) => (a.digest(), a.customers == scratch.customers && a.rules == scratch.rules),
        Err(_) => (0, false),
    };
    let answer_ok = answer_ok && mirror.invalid == 0;
    let scheduled = (schedule.reads, schedule.writes, schedule.compactions);
    Session { scheduled, open, closed, mirror, digest, answer_ok }
}

fn spread_note(name: &str, rounds: &Rounds, q: f64) -> String {
    format!(
        "{name}: n={} per-round p{:.0} = {:?} spread(IQR/median)={:.4}",
        rounds.count(),
        q * 100.0,
        rounds.per_round_quantile(q).iter().map(|v| (v * 1e3).round() / 1e3).collect::<Vec<_>>(),
        rounds.spread(q).unwrap_or(0.0)
    )
}

/// The end-to-end run: tracing off.
fn run_untraced(w: Workload, scale: Scale, seed: u64, seconds: f64) -> RunResult {
    let sizes = Sizes::of(scale);
    // Set up several times and report medians; each set-up is dropped
    // before the next begins, and the window uses the last.
    let (mut setup_s, mut cold_op_ms) = (Vec::new(), Vec::new());
    let mut last: Option<Setup> = None;
    for _ in 0..sizes.setup_reps.max(1) {
        drop(last.take());
        let s = set_up(w, &sizes, seed);
        setup_s.push(s.setup_s);
        cold_op_ms.push(s.cold_op_ms);
        last = Some(s);
    }
    let setup = last.expect("at least one set-up");
    let (setup_s, cold_op_ms) =
        (median(&setup_s).expect("reps > 0"), median(&cold_op_ms).expect("reps > 0"));
    let mut rec = Recorder::new(false);
    let mut notes = vec![
        format!("nproc={} seed={seed} seconds={seconds} op = {}", nproc(), w.op()),
        format!(
            "|V|={} |E|={} |Σ|={} d={} set-ups={} (first op, median: {cold_op_ms:.1} ms)",
            setup.inputs.graph.node_count(),
            setup.inputs.graph.edge_count(),
            setup.inputs.sigma.len(),
            derive_radius(&setup.inputs.sigma),
            sizes.setup_reps
        ),
    ];
    let steal0 = report::host_steal_s();
    let (op, ops_per_s, cpu_ms_per_op, attempted, failed, correct, digest, spreads);
    if w.is_serving() {
        assert!(serve_workers() < nproc().max(2), "dispatcher + workers exceed nproc");
        let traffic = sizes.traffic(w);
        let (open_s, closed_s) = (seconds * sizes.open_share, seconds * (1.0 - sizes.open_share));
        let engine = setup.engine.as_ref().expect("serving set-up built an engine");
        let s = serving_session(
            &setup.inputs,
            engine,
            &traffic,
            open_s,
            closed_s,
            seed,
            false,
            &mut rec,
        );
        let closed = s.closed.as_ref().expect("closed-loop phase ran");
        op = if w == Workload::ServeChurn {
            s.open.write_ms.clone()
        } else {
            s.open.read_ms.clone()
        };
        // The upper quartile of the per-round rates, not their median:
        // a busy neighbour on the host only ever lowers a round, and it
        // does so for seconds at a time. Over eight sets of ten seeds the
        // median's spread was 0.04-0.31, the upper quartile's 0.05-0.20.
        ops_per_s = quantile(&closed.qps, 0.75).expect("rounds");
        cpu_ms_per_op = s.open.engine_cpu_s * 1e3 / s.open.classes.total().max(1) as f64;
        attempted = s.open.classes.total() + closed.classes.total();
        failed = s.open.classes.not_ok() + closed.classes.not_ok() + u64::from(!s.answer_ok);
        correct = s.answer_ok && failed == 0;
        digest = s.digest;
        spreads =
            vec![op.spread(0.5).unwrap_or(0.0), stats::iqr_over_median(&closed.qps).unwrap_or(0.0)];
        notes.push(spread_note("reads ms", &s.open.read_ms, 0.5));
        notes.push(spread_note("writes ms", &s.open.write_ms, 0.5));
        notes.push(format!(
            "open loop {:.1}s: scheduled (reads, writes, compactions) = {:?}; {:?}; \
             compact() median {:.2} ms; sched_lag p99 {:.0} us",
            s.open.elapsed_s,
            s.scheduled,
            s.open.classes,
            median(&s.open.compact_ms).unwrap_or(0.0),
            quantile(&s.open.sched_lag_us, 0.99).unwrap_or(0.0)
        ));
        notes.push(format!(
            "closed loop: 1 client, {} outstanding, {} reads, per-round qps {:?}",
            serve::outstanding(),
            closed.completed,
            closed.qps.iter().map(|v| v.round()).collect::<Vec<_>>()
        ));
    } else {
        let win = batch::run_window(w, &setup.inputs, seconds, setup.warm_digest, false, &mut rec);
        // Outside the timed window: the configuration the contract names
        // must give the same answer as every repetition did.
        let reference_ok = batch::reference_digest(w, &setup.inputs) == setup.warm_digest;
        op = win.job_ms.clone();
        ops_per_s = win.jobs as f64 / win.elapsed_s;
        cpu_ms_per_op = win.cpu_s * 1e3 / win.jobs.max(1) as f64;
        attempted = win.jobs as u64;
        failed = win.wrong as u64 + u64::from(!reference_ok);
        correct = failed == 0;
        digest = setup.warm_digest;
        spreads = vec![op.spread(0.5).unwrap_or(0.0)];
        notes.push(spread_note("jobs ms", &op, 0.5));
    }
    notes.push(format!(
        "harness.round_spread_max={:.4}; hypervisor steal during the run: {:.2} CPU-s",
        spreads.iter().copied().fold(0.0, f64::max),
        report::host_steal_s() - steal0
    ));
    let metrics = vec![
        ("setup_s", setup_s),
        ("op_p50_ms", op.statistic(0.5).unwrap_or(0.0)),
        ("ops_per_s", ops_per_s),
        ("cpu_ms_per_op", cpu_ms_per_op),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    RunResult {
        workload: w.name(),
        correct,
        attempted,
        failed,
        metrics,
        answer_digest: digest,
        notes,
    }
}

/// The traced run: the workload with the span recorder on in alternate
/// rounds, then the per-layer probes on the workload's inputs.
fn run_traced(w: Workload, scale: Scale, seed: u64, seconds: f64) -> RunResult {
    let sizes = Sizes::of(scale);
    let setup = set_up(w, &sizes, seed);
    let mut rec = Recorder::new(true);
    let mut ledger = Ledger::default();
    let mut notes = vec![format!("nproc={} seed={seed} seconds={seconds}", nproc())];
    let q = 0.5;

    // The workload itself. `plain`/`traced` are its op times in the
    // rounds the recorder was off/on.
    let (plain, traced, attempted, mut failed, digest, session);
    if w.is_serving() {
        let traffic = sizes.traffic(w);
        let (open_s, closed_s) = (seconds * sizes.open_share, seconds * (1.0 - sizes.open_share));
        let engine = setup.engine.as_ref().expect("serving set-up built an engine");
        let s = serving_session(
            &setup.inputs,
            engine,
            &traffic,
            open_s,
            closed_s,
            seed,
            true,
            &mut rec,
        );
        let closed = s.closed.as_ref().expect("closed-loop phase ran");
        (plain, traced) = if w == Workload::ServeChurn {
            (s.open.write_ms.clone(), s.open.traced_write_ms.clone())
        } else {
            (s.open.read_ms.clone(), s.open.traced_read_ms.clone())
        };
        attempted = s.open.classes.total() + closed.classes.total();
        failed = s.open.classes.not_ok() + closed.classes.not_ok() + u64::from(!s.answer_ok);
        digest = s.digest;
        session = s;
    } else {
        let win = batch::run_window(w, &setup.inputs, seconds, setup.warm_digest, true, &mut rec);
        (plain, traced) = (win.job_ms, win.traced_ms);
        attempted = win.jobs as u64;
        failed = win.wrong as u64;
        digest = setup.warm_digest;
        // Batch workloads never touch gpar-serve in their window; the
        // serve rows of their ledger come from a short probe session on
        // the same inputs, under the churn traffic shape.
        let inputs = &setup.inputs;
        let engine = ServeEngine::new(
            inputs.graph.clone(),
            &inputs.catalog(),
            serve_config(serve_workers()),
        );
        engine.identify(inputs.pred, None).expect("warm-up identify");
        let mut off = Recorder::new(false);
        let (traffic, open_s) = (sizes.traffic(w), sizes.probe_session_s);
        let s = serving_session(inputs, &engine, &traffic, open_s, 0.0, seed, false, &mut off);
        failed += s.open.classes.not_ok() + u64::from(!s.answer_ok);
        session = s;
    }
    drop(setup.engine);
    let (p, t) = (plain.statistic(q).unwrap_or(0.0), traced.statistic(q).unwrap_or(0.0));
    ledger.set("obs.trace_overhead_frac", if p > 0.0 && t > 0.0 { (t - p) / p } else { 0.0 });
    ledger.set(
        "harness.round_spread_max",
        plain.spread(q).unwrap_or(0.0).max(traced.spread(q).unwrap_or(0.0)),
    );
    notes.push(spread_note("op ms, recorder off", &plain, q));
    notes.push(spread_note("op ms, recorder on", &traced, q));

    // The ledger, layer by layer, on the same inputs.
    let inputs = &setup.inputs;
    layers::session_layer(&mut ledger, &session.open);
    layers::graph_replay_layer(&mut ledger, &session.mirror);
    layers::graph_layer(&mut ledger, inputs, &sizes, seed, &mut rec);
    layers::pattern_layer(&mut ledger, inputs, &mut rec);
    layers::iso_layer(&mut ledger, inputs, &sizes, seed, &mut rec);
    let sites = layers::partition_layer(&mut ledger, inputs, &mut rec);
    layers::eip_layer(&mut ledger, inputs, &sites, &mut rec);
    drop(sites);
    layers::mine_layer(&mut ledger, inputs, &mut rec);
    layers::serve_layer(&mut ledger, inputs, &mut rec);

    let table = stage_table(rec.spans());
    table.print(w.name());
    println!(
        "  eip.closure = {:.4}; eip.unattributed_ms = {:.3}; mine.closure = {:.4}; \
         obs.trace_overhead_frac = {:.4}",
        ledger.get("eip.closure").unwrap_or(0.0),
        ledger.get("eip.unattributed_ms").unwrap_or(0.0),
        ledger.get("mine.closure").unwrap_or(0.0),
        ledger.get("obs.trace_overhead_frac").unwrap_or(0.0)
    );
    for name in &ledger.absent {
        println!("  {name}: absent (its obs counter or histogram no longer has that name)");
    }
    // Smoke runs leave no files: they would overwrite a real seed's trace.
    if let Some(dir) = report::out_dir().filter(|_| scale == Scale::Full) {
        let path = dir.join(format!("trace-{}-{seed}.jsonl", w.name()));
        let written =
            std::fs::File::create(&path).and_then(|f| rec.write_jsonl(std::io::BufWriter::new(f)));
        match written {
            Ok(()) => notes.push(format!("{} spans -> {}", rec.spans().len(), path.display())),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    let metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|d| (d.name, ledger.get(d.name).unwrap_or_else(|| panic!("{} not measured", d.name))))
        .collect();
    RunResult {
        workload: w.name(),
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        answer_digest: digest,
        notes,
    }
}

fn run_one(w: Workload, scale: Scale, seed: u64, seconds: f64, traced: bool) -> RunResult {
    if traced {
        run_traced(w, scale, seed, seconds)
    } else {
        run_untraced(w, scale, seed, seconds)
    }
}

/// Runs one workload in a fresh process — this executable, in the
/// driver's form — and reads its result back. One process per run keeps
/// a workload's peak RSS and allocator state out of the next one's
/// numbers (in-process, `peak_rss_mb` of the second workload read +80 %).
fn run_in_child(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let defs = if traced { PER_LAYER } else { END_TO_END };
    // Everything but the result line is for people.
    let human = stdout.trim_end().rsplit_once('\n').map_or("", |(head, _)| head);
    println!("{human}");
    RunResult::parse(w.name(), &stdout, defs)
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("the {} run failed ({})", w.name(), out.status))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: None, seed: 1, seconds: RUN_SECONDS, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn workloads_of(sel: Option<&str>) -> Result<Vec<Workload>, String> {
    match sel {
        None | Some("all") => Ok(Workload::ALL.to_vec()),
        Some(name) => Workload::parse(name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload {name}; one of mine_social, eip_batch, serve_read, serve_churn, all")),
    }
}

/// `smoke`: all four workloads at tiny sizes, both kinds of run, oracle
/// on, and the output-schema check.
fn smoke() -> Result<(), String> {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    check_definitions(&names)?;
    for w in Workload::ALL {
        for traced in [false, true] {
            let r = run_one(w, Scale::Smoke, 1, 1.0, traced);
            let defs = if traced { PER_LAYER } else { END_TO_END };
            r.print_human(defs);
            check_result(&r, defs, !traced)?;
            if !r.correct {
                return Err(format!(
                    "{} (trace={traced}): wrong answers or failed requests",
                    r.workload
                ));
            }
        }
    }
    println!(
        "smoke: ok — 4 workloads, {} end-to-end, {} per-layer metrics",
        END_TO_END.len(),
        PER_LAYER.len()
    );
    Ok(())
}

/// `agree`: two full sets of untraced runs of this build; each metric's
/// relative difference must stay within its own bound.
fn agree(seed: u64, seconds: f64) -> Result<(), String> {
    let set = || -> Result<Vec<RunResult>, String> {
        Workload::ALL.iter().map(|&w| run_in_child(w, seed, seconds, false)).collect()
    };
    let sets = [set()?, set()?];
    let mut worst_ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        for d in END_TO_END {
            let (x, y) = (a.value(d.name).unwrap_or(0.0), b.value(d.name).unwrap_or(0.0));
            // Worsening of the second set relative to the first.
            let worse = match d.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let ok = worse.abs() <= d.bound;
            worst_ok &= ok;
            println!(
                "{:<14} {:<14} {:>14.4} {:>14.4} {:>+9.4} {:>7.2}{}",
                a.workload,
                d.name,
                x,
                y,
                worse,
                d.bound,
                if ok { "" } else { "  OUTSIDE" }
            );
        }
        if !(a.correct && b.correct) || a.answer_digest != b.answer_digest {
            return Err(format!("{}: incorrect run or differing answer digests", a.workload));
        }
    }
    if worst_ok {
        Ok(())
    } else {
        Err("two sets of the same build disagree by more than a metric's bound".into())
    }
}

fn real_main() -> Result<(), String> {
    // The repo's worker-count override would silently change every
    // `Default` config under test.
    if std::env::var_os("GPAR_WORKERS").is_some() {
        return Err(
            "GPAR_WORKERS is set; unset it — the benchmark fixes worker counts itself".into()
        );
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some("run" | "trace" | "smoke" | "agree") => (argv[0].as_str(), &argv[1..]),
        Some(_) => ("driver", &argv[..]),
        None => return Err("usage: perfbench --workload <w> --seed <n> --seconds <s> --trace <0|1> | run | trace | smoke | agree".into()),
    };
    let args = parse_flags(rest)?;
    let sizes = Sizes::of(Scale::Full);
    match cmd {
        "smoke" => smoke(),
        "agree" => agree(args.seed, args.seconds),
        "driver" => {
            let name = args.workload.as_deref().ok_or("--workload is required")?;
            let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let r = run_one(w, Scale::Full, args.seed, args.seconds, args.trace);
            let defs = if args.trace { PER_LAYER } else { END_TO_END };
            r.print_human(defs);
            write_run_record(args.seed, args.seconds, &sizes, &r, args.trace);
            println!("{}", r.json_line(defs));
            Ok(())
        }
        _ => {
            // `run` and `trace`: one child process per workload.
            let traced = cmd == "trace";
            let mut all_correct = true;
            for w in workloads_of(args.workload.as_deref())? {
                all_correct &= run_in_child(w, args.seed, args.seconds, traced)?.correct;
            }
            if all_correct {
                Ok(())
            } else {
                Err("a workload gave wrong answers or failed requests".into())
            }
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
