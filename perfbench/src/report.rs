//! Metric definitions (the same names, units and bounds `BENCHMARK.json`
//! declares — a unit test compares the two), the result line the driver
//! reads, the output-schema check, and the host record.

use crate::inputs::{nproc, Sizes};
use std::fmt::Write as _;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of the system waits for or pays, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// Single layers, measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("graph.build_ms", "ms", Lower),
    layer("graph.ball_us", "us", Lower),
    layer("graph.ball_nodes", "count", Lower),
    layer("graph.sketch_us", "us", Lower),
    layer("graph.msbfs_us", "us", Lower),
    layer("graph.delta_apply_us", "us", Lower),
    layer("graph.compact_ms", "ms", Lower),
    layer("graph.coalesce_ratio", "ratio", Lower),
    layer("pattern.canonical_us", "us", Lower),
    layer("iso.exists_us", "us", Lower),
    layer("iso.exists_hit_ratio", "ratio", Higher),
    layer("iso.count_us", "us", Lower),
    layer("core.qstats_ms", "ms", Lower),
    layer("partition.build_sites_ms", "ms", Lower),
    layer("partition.site_load_mean", "count", Lower),
    layer("partition.chunk_skew", "ratio", Lower),
    layer("exec.task_overhead_us", "us", Lower),
    layer("eip.identify_ms", "ms", Lower),
    layer("eip.plan_ms", "ms", Lower),
    layer("eip.evaluate_ms", "ms", Lower),
    layer("eip.evaluate_us_per_site", "us", Lower),
    layer("eip.closure", "ratio", Higher),
    layer("eip.unattributed_ms", "ms", Lower),
    layer("eip.match_over_matchs", "ratio", Lower),
    layer("eip.candidates", "count", Lower),
    layer("eip.customers", "count", Higher),
    layer("mine.run_ms", "ms", Lower),
    layer("mine.self_ms", "ms", Lower),
    layer("mine.closure", "ratio", Higher),
    layer("mine.candidates_generated", "count", Lower),
    layer("mine.sigma_size", "count", Higher),
    layer("mine.retained_ratio", "ratio", Higher),
    layer("mine.rounds_run", "count", Lower),
    layer("mine.w1_over_wn", "ratio", Higher),
    layer("serve.catalog_save_ms", "ms", Lower),
    layer("serve.catalog_load_ms", "ms", Lower),
    layer("serve.catalog_bytes", "count", Lower),
    layer("serve.engine_new_ms", "ms", Lower),
    layer("serve.cold_identify_ms", "ms", Lower),
    layer("serve.identify1_hit_us", "us", Lower),
    layer("serve.identify1_miss_us", "us", Lower),
    layer("serve.top_rules_us", "us", Lower),
    layer("serve.identify_full_ms", "ms", Lower),
    layer("serve.queue_wait_p50_us", "us", Lower),
    layer("serve.queue_wait_p99_us", "us", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.cache_lookup_p50_us", "us", Lower),
    layer("serve.balls_extracted", "count", Lower),
    layer("serve.iso_eval_p50_us", "us", Lower),
    layer("serve.sketch_prune_ratio", "ratio", Higher),
    layer("serve.apply_local_ms", "ms", Lower),
    layer("serve.apply_hub_ms", "ms", Lower),
    layer("serve.rebuild_ms", "ms", Lower),
    layer("serve.hub_over_rebuild", "ratio", Lower),
    layer("serve.update_bfs_p50_us", "us", Lower),
    layer("serve.update_group_repair_p50_us", "us", Lower),
    layer("serve.update_ledger_patch_p50_us", "us", Lower),
    layer("serve.update_publish_p50_us", "us", Lower),
    layer("serve.snapshot_lag_p50_ms", "ms", Lower),
    layer("serve.coalesce_ratio", "ratio", Higher),
    layer("serve.publishes", "count", Lower),
    layer("serve.reevaluated_per_update", "count", Lower),
    layer("serve.cache_invalidations_per_update", "count", Lower),
    layer("serve.compact_ms", "ms", Lower),
    layer("serve.write_busy_frac", "ratio", Lower),
    layer("serve.read_p50_ms", "ms", Lower),
    layer("serve.read_p99_ms", "ms", Lower),
    layer("serve.write_p50_ms", "ms", Lower),
    layer("serve.write_p95_ms", "ms", Lower),
    layer("obs.snapshot_us", "us", Lower),
    layer("obs.trace_overhead_frac", "ratio", Lower),
    layer("harness.sched_lag_p99_us", "us", Lower),
    layer("harness.round_spread_max", "ratio", Lower),
];

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind, in
    /// definition order.
    pub metrics: Vec<(&'static str, f64)>,
    pub answer_digest: u64,
    /// Human-readable context: sample counts, spreads, sizes.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The one line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self, defs: &[MetricDef]) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .expect("write to String");
        for (i, def) in defs.iter().enumerate() {
            let v = self.value(def.name).expect("every defined metric is measured");
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", def.name, def.unit)
                .expect("write to String");
        }
        s.push_str("}}");
        s
    }

    /// Reads back what a child run printed: the `answer_digest` of its
    /// header line and the result line (see [`RunResult::json_line`]).
    pub fn parse(workload: &'static str, stdout: &str, defs: &[MetricDef]) -> Option<RunResult> {
        let line = stdout.lines().last()?;
        let after = |text: &str, key: &str| -> Option<String> {
            let at = text.find(key)? + key.len();
            let rest = &text[at..];
            Some(rest[..rest.find([',', '}', ' ', '\n']).unwrap_or(rest.len())].to_string())
        };
        let metrics = defs
            .iter()
            .map(|d| {
                let v = after(line, &format!("\"{}\": {{\"value\": ", d.name))?.parse().ok()?;
                Some((d.name, v))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunResult {
            workload,
            correct: after(line, "\"correct\": ")? == "true",
            attempted: after(line, "\"attempted\": ")?.parse().ok()?,
            failed: after(line, "\"failed\": ")?.parse().ok()?,
            metrics,
            answer_digest: u64::from_str_radix(&after(stdout, "answer_digest=")?, 16).ok()?,
            notes: Vec::new(),
        })
    }

    pub fn print_human(&self, defs: &[MetricDef]) {
        println!(
            "== {} — correct={} attempted={} failed={} answer_digest={:016x}",
            self.workload, self.correct, self.attempted, self.failed, self.answer_digest
        );
        for def in defs {
            match self.value(def.name) {
                Some(v) => println!("  {:<40} {:>16.4} {}", def.name, v, def.unit),
                None => println!("  {:<40} {:>16} {}", def.name, "MISSING", def.unit),
            }
        }
        for n in &self.notes {
            println!("  # {n}");
        }
    }
}

fn name_ok(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn unit_ok(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// The contract's limits on the definitions themselves.
pub fn check_definitions(workloads: &[&str]) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads, want 2..=8", workloads.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        return Err(format!("{} end-to-end metrics, want 1..=16", END_TO_END.len()));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        return Err(format!("{} per-layer metrics, want 1..=128", PER_LAYER.len()));
    }
    let mut seen: Vec<&str> = Vec::new();
    for name in workloads.iter().copied().chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
    {
        if !name_ok(name) {
            return Err(format!("bad name {name:?}"));
        }
        if seen.contains(&name) {
            return Err(format!("name {name:?} used twice"));
        }
        seen.push(name);
    }
    for d in END_TO_END.iter().chain(PER_LAYER) {
        if !unit_ok(d.unit) {
            return Err(format!("bad unit {:?} on {}", d.unit, d.name));
        }
    }
    for d in END_TO_END {
        if !(d.bound > 0.0 && d.bound <= 0.25) {
            return Err(format!("bound {} on {} outside (0, 0.25]", d.bound, d.name));
        }
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s");
    if !setup.is_some_and(|d| d.unit == "s" && d.better == Lower) {
        return Err("setup_s (s, lower) is required".into());
    }
    Ok(())
}

/// A result must carry every defined metric, finite, and (end-to-end)
/// never zero.
pub fn check_result(r: &RunResult, defs: &[MetricDef], end_to_end: bool) -> Result<(), String> {
    if r.attempted == 0 {
        return Err(format!("{}: attempted is 0", r.workload));
    }
    if r.metrics.len() != defs.len() {
        return Err(format!("{}: {} metrics, {} defined", r.workload, r.metrics.len(), defs.len()));
    }
    for d in defs {
        let v = r.value(d.name).ok_or_else(|| format!("{}: {} missing", r.workload, d.name))?;
        if !v.is_finite() {
            return Err(format!("{}: {} = {v}", r.workload, d.name));
        }
        if end_to_end && v <= 0.0 {
            return Err(format!("{}: end-to-end {} = {v}, must be > 0", r.workload, d.name));
        }
    }
    Ok(())
}

/// `VmHWM` — the process's peak resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Kernel clock ticks per second of the `/proc` CPU counters (USER_HZ,
/// 100 on every Linux this runs on).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far. Unlike
/// wall time it does not grow while the hypervisor runs someone else.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick() + tick()) / TICKS_PER_S
}

/// CPU seconds the hypervisor has taken from this machine so far
/// (`steal` of `/proc/stat`): a run during which this grows was
/// measured on a machine that was not all there.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// `perfbench/out/` under the current directory (the checkout root) —
/// `None` when not run from there, so nothing is written elsewhere.
pub fn out_dir() -> Option<PathBuf> {
    let here = std::env::current_dir().ok()?;
    let dir = if here.join("perfbench/Cargo.toml").is_file() {
        here.join("perfbench/out")
    } else if here.join("Cargo.toml").is_file() && here.ends_with("perfbench") {
        here.join("out")
    } else {
        return None;
    };
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

fn git_rev() -> String {
    // Read, not `git rev-parse`: the driver's checkout is not a
    // repository and git would search the parent directories.
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else { return "unknown".into() };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Records host, seed, calibrated sizes and the result of this run in
/// `perfbench/out/run-<seed>-<workload>-t<0|1>.json`.
pub fn write_run_record(seed: u64, seconds: f64, sizes: &Sizes, r: &RunResult, traced: bool) {
    let Some(dir) = out_dir() else { return };
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let record = format!(
        "{{\n  \"workload\": \"{}\",\n  \"trace\": {traced},\n  \"seed\": {seed},\n  \
         \"seconds\": {seconds},\n  \"nproc\": {},\n  \"rustc\": \"{}\",\n  \
         \"git_rev\": \"{}\",\n  \"sizes\": \"{}\",\n  \"answer_digest\": \"{:016x}\",\n  \
         \"result\": {}\n}}\n",
        r.workload,
        nproc(),
        rustc_version(),
        git_rev(),
        format!("{sizes:?}").replace('"', "'"),
        r.answer_digest,
        r.json_line(defs),
    );
    let name = format!("run-{seed}-{}-t{}.json", r.workload, u8::from(traced));
    if let Err(e) = std::fs::write(dir.join(name), record) {
        eprintln!("perfbench: could not write the run record: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;

    #[test]
    fn definitions_meet_the_contract() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        check_definitions(&names).unwrap();
    }

    #[test]
    fn names_and_units_are_validated() {
        assert!(name_ok("serve.read_p99_ms") && name_ok("1x"));
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok(&"x".repeat(65)));
        assert!(unit_ok("1/s") && unit_ok("ms") && unit_ok("%"));
        assert!(!unit_ok("") && !unit_ok("per second, roughly"));
    }

    /// `BENCHMARK.json` is the contract the driver reads; the code's
    /// definitions must say the same thing.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
            let open = start + text[start..].find('[').expect("a list");
            let close = open + text[open..].find(']').expect("list closes");
            text[open..close].to_string()
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), defs.len(), "{key} count");
            for d in defs {
                let better = if d.better == Lower { "lower" } else { "higher" };
                let entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    d.name, d.unit
                );
                let at = body.find(&entry).unwrap_or_else(|| panic!("{key} lacks {entry}"));
                if key == "end_to_end" {
                    let rest = &body[at + entry.len()..];
                    let bound = format!(", \"bound\": {}}}", d.bound);
                    assert!(rest.starts_with(&bound), "{}: bound differs from {bound}", d.name);
                }
            }
        }
        let workloads = section("workloads");
        for w in Workload::ALL {
            assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
        }
        assert_eq!(workloads.matches("\"name\"").count(), Workload::ALL.len());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            workload: "x",
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: END_TO_END.iter().map(|d| (d.name, 1.25)).collect(),
            answer_digest: 0,
            notes: vec![],
        };
        let line = r.json_line(END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        check_result(&r, END_TO_END, true).unwrap();

        // What a parent reads back from a child's output.
        let stdout = format!("== x — correct=true answer_digest=00000000000000ff\n{line}\n");
        let back = RunResult::parse("x", &stdout, END_TO_END).unwrap();
        assert_eq!((back.correct, back.attempted, back.failed), (true, 3, 0));
        assert_eq!(back.answer_digest, 0xff);
        assert_eq!(back.metrics, r.metrics);
    }
}
