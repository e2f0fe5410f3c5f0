//! The two batch workloads: back-to-back `DMine::run` jobs and
//! back-to-back one-shot `gpar_eip::identify` jobs. Neither touches
//! `gpar-serve`, so they are the bypass workloads of every serving
//! optimisation.

use crate::inputs::{eip_config, mine_config, nproc, Inputs, Workload};
use crate::report::process_cpu_s;
use crate::spans::Recorder;
use crate::stats::Rounds;
use gpar_core::{ConfStats, Gpar};
use gpar_eip::{identify, EipAlgorithm, EipConfig, EipResult};
use gpar_mine::{DMine, MineResult};
use std::time::Instant;

/// FNV-1a over the canonical text of an answer: cheap, stable across
/// processes, and printable so parent and change can be compared.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One rule of an answer in canonical text: the canonical code of `P_R`
/// and the rule's `ConfStats`.
pub fn rule_row(rule: &Gpar, stats: &ConfStats) -> String {
    format!("{:?}|{:?}", rule.pr().canonical_code(), stats)
}

/// The top-k of a mining job as canonical codes + `ConfStats`, order
/// independent (the contract is the same *set* at any worker count).
pub fn mine_digest(res: &MineResult) -> u64 {
    let mut rows: Vec<String> = res.top_k.iter().map(|r| rule_row(&r.rule, &r.stats)).collect();
    rows.sort_unstable();
    let mut d = Digest::new();
    rows.iter().for_each(|r| d.text(r));
    d.finish()
}

/// Customers + per-rule stats of an EIP answer.
pub fn eip_digest(res: &EipResult) -> u64 {
    let mut customers: Vec<u32> = res.customers.iter().map(|v| v.0).collect();
    customers.sort_unstable();
    let mut d = Digest::new();
    d.text(&format!("{customers:?}"));
    res.per_rule.iter().for_each(|r| d.text(&format!("{:?}", r.stats)));
    d.finish()
}

/// One job of a batch workload at `workers` threads; returns its answer
/// digest. The span is the harness's own, around the call into the layer.
pub fn run_job(w: Workload, inputs: &Inputs, workers: usize, rec: &mut Recorder) -> u64 {
    rec.next_request();
    match w {
        Workload::MineSocial => {
            let res = rec.span("mine.run", |_| {
                DMine::new(mine_config(workers)).run(&inputs.graph, &inputs.pred)
            });
            mine_digest(&res)
        }
        Workload::EipBatch => {
            let cfg = eip_config(workers);
            let res = rec.span("eip.identify", |_| {
                identify(&*inputs.graph, &inputs.sigma, &cfg).expect("generated Σ is valid")
            });
            eip_digest(&res)
        }
        _ => unreachable!("{} is not a batch workload", w.name()),
    }
}

/// The reference answer, computed outside the timed window by the
/// configuration the contract names: `workers = 1` for mining, `Matchs`
/// for EIP.
pub fn reference_digest(w: Workload, inputs: &Inputs) -> u64 {
    let mut off = Recorder::new(false);
    match w {
        Workload::MineSocial => run_job(w, inputs, 1, &mut off),
        Workload::EipBatch => {
            let cfg = EipConfig::new(EipAlgorithm::Matchs, nproc());
            eip_digest(&identify(&*inputs.graph, &inputs.sigma, &cfg).expect("valid Σ"))
        }
        _ => unreachable!("{} is not a batch workload", w.name()),
    }
}

/// What a timed window of back-to-back jobs measured.
pub struct JobWindow {
    /// Job wall time in ms, by round.
    pub job_ms: Rounds,
    /// Same, for the rounds the recorder was on (traced run only).
    pub traced_ms: Rounds,
    pub jobs: usize,
    /// Jobs whose answer differed from `expect`.
    pub wrong: usize,
    pub elapsed_s: f64,
    /// CPU seconds the process used over the window.
    pub cpu_s: f64,
}

/// Runs jobs back to back for `seconds`. In a traced run the recorder is
/// on in odd rounds only, so the same process yields traced and
/// untraced job times (their ratio is the tracing overhead).
pub fn run_window(
    w: Workload,
    inputs: &Inputs,
    seconds: f64,
    expect: u64,
    traced: bool,
    rec: &mut Recorder,
) -> JobWindow {
    let mut out = JobWindow {
        job_ms: Rounds::new(),
        traced_ms: Rounds::new(),
        jobs: 0,
        wrong: 0,
        elapsed_s: 0.0,
        cpu_s: 0.0,
    };
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    loop {
        let at = t0.elapsed().as_secs_f64();
        if at >= seconds {
            break;
        }
        let round = Rounds::round_of(at, seconds);
        rec.enabled = traced && round % 2 == 1;
        let t = Instant::now();
        let digest = run_job(w, inputs, nproc(), rec);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if rec.enabled {
            out.traced_ms.push(round, ms);
        } else {
            out.job_ms.push(round, ms);
        }
        out.jobs += 1;
        out.wrong += usize::from(digest != expect);
    }
    rec.enabled = traced;
    out.elapsed_s = t0.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu0;
    out
}
