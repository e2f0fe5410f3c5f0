//! A serving session against a live `ServeEngine`: the open-loop phase
//! (one dispatcher thread replays the precomputed schedule through
//! `submit_*_from`, stamping each request with its *due* time, and
//! reports its own lateness), the closed-loop phase (one client that
//! keeps a few requests outstanding), and the correctness oracle.
//!
//! Latency is measured here, not read from the engine's histograms:
//! due time → the instant the reply was received, in exact nanoseconds.
//! Replies are awaited in submission order by one collector thread per
//! class; with one worker (and always for the single writer) replies
//! also complete in that order, so the stamp is exact. With several
//! workers a reply that overtakes an earlier one is stamped when the
//! earlier one is collected.

use crate::batch::{rule_row, Digest};
use crate::inputs::{eip_config, nproc, serve_workers, Inputs, Traffic};
use crate::report::process_cpu_s;
use crate::schedule::{draw_keys, zipf_for, Event, Read, Schedule};
use crate::spans::Recorder;
use crate::stats::Rounds;
use gpar_core::Predicate;
use gpar_eip::identify;
use gpar_graph::{
    multi_source_distances, thread_cpu_time, Coalescer, DeltaGraph, GraphUpdate, NodeId,
};
use gpar_serve::{
    IdentifyRequest, IdentifyResponse, MetricsSnapshot, QueryError, QueryOpts, RuleInfo,
    ServeEngine, Ts, UpdateError, UpdateReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rules asked of `top_rules`.
const TOP_K: usize = 4;

/// Every submitted request lands in exactly one of these.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Classes {
    pub ok: u64,
    pub stale: u64,
    pub shed: u64,
    pub deadline: u64,
    pub failed: u64,
}

impl Classes {
    pub fn total(&self) -> u64 {
        self.ok + self.stale + self.shed + self.deadline + self.failed
    }

    /// Requests that did not get a live answer.
    pub fn not_ok(&self) -> u64 {
        self.stale + self.shed + self.deadline + self.failed
    }

    fn count(&mut self, c: Class) {
        match c {
            Class::Ok => self.ok += 1,
            Class::Stale => self.stale += 1,
            Class::Shed => self.shed += 1,
            Class::Deadline => self.deadline += 1,
            Class::Failed => self.failed += 1,
        }
    }

    fn add(&mut self, o: Classes) {
        self.ok += o.ok;
        self.stale += o.stale;
        self.shed += o.shed;
        self.deadline += o.deadline;
        self.failed += o.failed;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Ok,
    Stale,
    Shed,
    Deadline,
    Failed,
}

fn query_error_class(e: &QueryError) -> Class {
    match e {
        QueryError::Shed { .. } => Class::Shed,
        QueryError::DeadlineExceeded { .. } => Class::Deadline,
        _ => Class::Failed,
    }
}

enum Pending {
    Identify(Receiver<Result<IdentifyResponse, QueryError>>),
    TopRules(Receiver<Result<Vec<RuleInfo>, QueryError>>),
    Update(Receiver<Result<UpdateReport, UpdateError>>),
}

impl Pending {
    /// Blocks for the reply and classifies it.
    fn wait(self) -> Class {
        match self {
            Pending::Identify(rx) => match rx.recv() {
                Ok(Ok(resp)) if resp.stale => Class::Stale,
                Ok(Ok(_)) => Class::Ok,
                Ok(Err(e)) => query_error_class(&e),
                Err(_) => Class::Failed,
            },
            Pending::TopRules(rx) => match rx.recv() {
                Ok(Ok(_)) => Class::Ok,
                Ok(Err(e)) => query_error_class(&e),
                Err(_) => Class::Failed,
            },
            Pending::Update(rx) => match rx.recv() {
                Ok(Ok(_)) => Class::Ok,
                _ => Class::Failed,
            },
        }
    }
}

/// One request in flight, handed to a collector.
struct InFlight {
    due: Instant,
    submitted: Instant,
    pending: Pending,
}

/// One collected reply.
struct Done {
    due: Instant,
    submitted: Instant,
    done: Instant,
    class: Class,
}

fn collector(rx: Receiver<InFlight>) -> Vec<Done> {
    rx.into_iter()
        .map(|f| {
            let class = f.pending.wait();
            Done { due: f.due, submitted: f.submitted, done: Instant::now(), class }
        })
        .collect()
}

/// Sleeps coarsely, then spins through the last 1–2 ms, towards
/// `deadline`; `nap` caps one sleep. Returns whether the deadline has
/// passed. Sleeping closer to the deadline frees little CPU and costs
/// accuracy: with a 0.3 ms spin the dispatcher's lateness p99 rose from
/// 0.05 ms to 3 ms on a busy 2-core host.
fn wait_until(deadline: Instant, nap: Duration) -> bool {
    let now = Instant::now();
    if now >= deadline {
        return true;
    }
    let left = deadline - now;
    if left > Duration::from_millis(2) {
        std::thread::sleep((left - Duration::from_millis(1)).min(nap));
    } else {
        std::hint::spin_loop();
    }
    false
}

/// What the open-loop phase measured.
pub struct OpenLoop {
    /// Due → reply, ms, by round of the due time (untraced rounds).
    pub read_ms: Rounds,
    pub write_ms: Rounds,
    /// Reads of the rounds the recorder was on (traced run only).
    pub traced_read_ms: Rounds,
    pub traced_write_ms: Rounds,
    /// Dispatcher lateness per request, µs.
    pub sched_lag_us: Vec<f64>,
    pub classes: Classes,
    /// Wall time of each explicit `compact()`, ms.
    pub compact_ms: Vec<f64>,
    /// Engine metrics over exactly this phase.
    pub delta: MetricsSnapshot,
    pub elapsed_s: f64,
    /// CPU seconds of the engine's threads over this phase: the
    /// process's, minus the dispatcher's own (it spins between sends).
    pub engine_cpu_s: f64,
}

enum WriteItem {
    Batch { due: Duration, batch: GraphUpdate },
    Compact,
}

/// The dispatcher's write side: batches go out in order; a compaction
/// holds later batches back until it has finished, because they are
/// written in the id space it produces. The engine would queue them
/// behind the compaction anyway, and each keeps its due time, so the
/// wait is charged to the batch either way.
struct WriteLane<'a> {
    engine: &'a ServeEngine,
    epoch: Instant,
    epoch_ts: Ts,
    queue: VecDeque<WriteItem>,
    compacting: bool,
    start_compact: Sender<()>,
    compact_done: Receiver<()>,
    to_collector: Sender<InFlight>,
    shed_or_failed: Classes,
}

impl WriteLane<'_> {
    fn pump(&mut self) {
        if self.compacting && self.compact_done.try_recv().is_ok() {
            self.compacting = false;
        }
        while !self.compacting {
            match self.queue.pop_front() {
                Some(WriteItem::Batch { due, batch }) => {
                    let submitted = Instant::now();
                    match self.engine.submit_update_from(batch, self.epoch_ts.plus(due)) {
                        Ok(rx) => {
                            let f = InFlight {
                                due: self.epoch + due,
                                submitted,
                                pending: Pending::Update(rx),
                            };
                            self.to_collector.send(f).expect("write collector is alive");
                        }
                        Err(_) => self.shed_or_failed.failed += 1,
                    }
                }
                Some(WriteItem::Compact) => {
                    self.compacting = true;
                    self.start_compact.send(()).expect("compactor is alive");
                }
                None => break,
            }
        }
    }

    /// Blocks until every queued batch and compaction has been issued.
    fn drain(&mut self) {
        loop {
            self.pump();
            if !self.compacting && self.queue.is_empty() {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Replays `schedule` open-loop. In a traced run the recorder is on for
/// requests due in odd rounds.
pub fn open_loop(
    engine: &ServeEngine,
    pred: Predicate,
    schedule: &Schedule,
    window: Duration,
    traced: bool,
    rec: &mut Recorder,
) -> OpenLoop {
    let before = engine.metrics();
    let (cpu0, dispatcher_cpu0) = (process_cpu_s(), thread_cpu_time());
    let (read_tx, read_rx) = channel::<InFlight>();
    let (write_tx, write_rx) = channel::<InFlight>();
    let (start_compact, compact_rx) = channel::<()>();
    let (done_tx, compact_done) = channel::<()>();
    let epoch_ts = Ts::now();
    let epoch = Instant::now();
    let window_s = window.as_secs_f64();

    let mut sched_lag_us = Vec::with_capacity(schedule.events.len());
    let mut submit_classes = Classes::default();

    // An engine that cannot keep up must fail the run, not hang it: past
    // this limit the watchdog stops the engine, and every reply still
    // owed arrives as a typed `Stopped` error (counted as failed).
    let limit = window * 2 + Duration::from_secs(20);
    let (all_in, cancelled) = channel::<()>();

    let (reads, writes, compact_ms) = std::thread::scope(|scope| {
        let watchdog = scope.spawn(move || {
            // Dropping `all_in` (every reply is in) disconnects the channel.
            if cancelled.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
                engine.stop();
            }
        });
        let read_collector = scope.spawn(move || collector(read_rx));
        let write_collector = scope.spawn(move || collector(write_rx));
        let compactor = scope.spawn(move || {
            let mut ms = Vec::new();
            for () in compact_rx {
                let t = Instant::now();
                engine.compact();
                ms.push(t.elapsed().as_secs_f64() * 1e3);
                if done_tx.send(()).is_err() {
                    break;
                }
            }
            ms
        });

        let mut lane = WriteLane {
            engine,
            epoch,
            epoch_ts,
            queue: VecDeque::new(),
            compacting: false,
            start_compact,
            compact_done,
            to_collector: write_tx,
            shed_or_failed: Classes::default(),
        };
        for event in &schedule.events {
            let due = event.due();
            // Held-back writes go out as soon as the compaction ends,
            // not at the next event: nap briefly while one is running.
            loop {
                let nap = Duration::from_millis(if lane.compacting { 1 } else { 5 });
                if wait_until(epoch + due, nap) {
                    break;
                }
                if lane.compacting {
                    lane.pump();
                }
            }
            sched_lag_us.push((epoch + due).elapsed().as_secs_f64() * 1e6);
            match event {
                Event::Read { read, .. } => {
                    let submitted = Instant::now();
                    let scheduled = epoch_ts.plus(due);
                    let pending = match read {
                        Read::Identify(keys) => engine
                            .submit_identify_from(
                                IdentifyRequest {
                                    predicate: pred,
                                    candidates: Some(keys.clone()),
                                    opts: QueryOpts::default(),
                                },
                                scheduled,
                            )
                            .map(Pending::Identify),
                        Read::TopRules => engine
                            .submit_top_rules_from(pred, TOP_K, QueryOpts::default(), scheduled)
                            .map(Pending::TopRules),
                    };
                    match pending {
                        Ok(pending) => read_tx
                            .send(InFlight { due: epoch + due, submitted, pending })
                            .expect("read collector is alive"),
                        Err(e) => submit_classes.count(query_error_class(&e)),
                    }
                }
                Event::Write { batch, .. } => {
                    lane.queue.push_back(WriteItem::Batch { due, batch: batch.clone() });
                }
                Event::Compact { .. } => lane.queue.push_back(WriteItem::Compact),
            }
            lane.pump();
        }
        lane.drain();
        submit_classes.add(lane.shed_or_failed);
        // Closing the channels ends the collectors once every reply is in.
        drop(lane);
        drop(read_tx);
        let collected = (
            read_collector.join().expect("read collector"),
            write_collector.join().expect("write collector"),
            compactor.join().expect("compactor"),
        );
        drop(all_in);
        watchdog.join().expect("watchdog");
        collected
    });
    let elapsed_s = epoch.elapsed().as_secs_f64();
    let dispatcher_cpu = thread_cpu_time().saturating_sub(dispatcher_cpu0).as_secs_f64();
    let engine_cpu_s = (process_cpu_s() - cpu0 - dispatcher_cpu).max(0.0);
    let delta = engine.metrics().minus(&before);

    let mut out = OpenLoop {
        read_ms: Rounds::new(),
        write_ms: Rounds::new(),
        traced_read_ms: Rounds::new(),
        traced_write_ms: Rounds::new(),
        sched_lag_us,
        classes: submit_classes,
        compact_ms,
        delta,
        elapsed_s,
        engine_cpu_s,
    };
    for (dones, name, is_read) in [(&reads, "serve.read", true), (&writes, "serve.write", false)] {
        for d in dones {
            out.classes.count(d.class);
            let round = Rounds::round_of((d.due - epoch).as_secs_f64(), window_s);
            let ms = (d.done - d.due).as_secs_f64() * 1e3;
            let on = traced && round % 2 == 1;
            let rounds = match (is_read, on) {
                (true, false) => &mut out.read_ms,
                (true, true) => &mut out.traced_read_ms,
                (false, false) => &mut out.write_ms,
                (false, true) => &mut out.traced_write_ms,
            };
            rounds.push(round, ms);
            if on {
                let req = rec.next_request();
                let root = rec.record(name, None, req, d.due, d.done);
                rec.record("harness.dispatch_lag", root, req, d.due, d.submitted);
                rec.record("serve.engine", root, req, d.submitted, d.done);
            }
        }
    }
    out
}

/// What the closed-loop phase measured.
pub struct ClosedLoop {
    /// Completed reads per second, per round.
    pub qps: Vec<f64>,
    pub completed: u64,
    pub classes: Classes,
}

impl ClosedLoop {
    /// Appends the rounds of a later phase.
    pub fn extend(&mut self, later: ClosedLoop) {
        self.qps.extend(later.qps);
        self.completed += later.completed;
        self.classes.add(later.classes);
    }
}

/// Rounds of one closed-loop phase: short ones, so that a host hiccup
/// spoils one of many.
pub const CLOSED_ROUNDS: usize = 10;

/// Requests the closed-loop client keeps outstanding.
pub fn outstanding() -> usize {
    4 * serve_workers()
}

/// One client keeps [`outstanding`] reads in flight for `window`: it
/// submits through `submit_*_from`, awaits the oldest reply, and refills.
/// The workers therefore always find the next request queued, and the
/// rate is what they can serve. With one blocking client per core
/// instead, a wake-up of the client and one of the worker sat between
/// any two requests: `serve_read` ran at 590/s, not 790/s, and the rate
/// followed the host's scheduler (spread 0.15-0.27 between runs of one
/// build).
pub fn closed_loop(
    engine: &ServeEngine,
    pred: Predicate,
    keys: &[NodeId],
    traffic: &Traffic,
    window: Duration,
    seed: u64,
) -> ClosedLoop {
    let zipf = zipf_for(traffic, keys.len());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC105_ED00);
    let mut classes = Classes::default();
    let mut done = [0u64; CLOSED_ROUNDS];
    let mut in_flight: VecDeque<Pending> = VecDeque::with_capacity(outstanding());
    let window_s = window.as_secs_f64();
    let t0 = Instant::now();
    loop {
        while in_flight.len() < outstanding() && t0.elapsed() < window {
            let submitted = if rng.gen_bool(traffic.identify_frac) {
                let req = IdentifyRequest {
                    predicate: pred,
                    candidates: Some(draw_keys(&mut rng, keys, zipf.as_ref(), traffic.max_subset)),
                    opts: QueryOpts::default(),
                };
                engine.submit_identify_from(req, Ts::now()).map(Pending::Identify)
            } else {
                engine
                    .submit_top_rules_from(pred, TOP_K, QueryOpts::default(), Ts::now())
                    .map(Pending::TopRules)
            };
            match submitted {
                Ok(p) => in_flight.push_back(p),
                Err(e) => classes.count(query_error_class(&e)),
            }
        }
        let Some(oldest) = in_flight.pop_front() else { break };
        classes.count(oldest.wait());
        // Replies that arrive after the window closed are classified but
        // belong to no round.
        let at = t0.elapsed().as_secs_f64();
        if at < window_s {
            done[((at / window_s) * CLOSED_ROUNDS as f64) as usize] += 1;
        }
    }
    let round_s = window_s / CLOSED_ROUNDS as f64;
    ClosedLoop {
        qps: done.iter().map(|&n| n as f64 / round_s).collect(),
        completed: done.iter().sum(),
        classes,
    }
}

/// The mirror graph of the accepted batches, replayed from the schedule
/// on a plain `DeltaGraph`, with the cost of each layer call it makes.
pub struct Mirror {
    pub graph: DeltaGraph,
    pub apply_us: Vec<f64>,
    pub compact_ms: Vec<f64>,
    pub msbfs_us: Vec<f64>,
    /// Primitive ops into / out of a `Coalescer` over each burst.
    pub coalesce_in: usize,
    pub coalesce_out: usize,
    /// Batches `DeltaGraph::validate` rejected (none, by construction).
    pub invalid: usize,
}

pub fn replay_mirror(inputs: &Inputs, schedule: &Schedule, d: u32) -> Mirror {
    let mut m = Mirror {
        graph: DeltaGraph::new(inputs.graph.clone()),
        apply_us: Vec::new(),
        compact_ms: Vec::new(),
        msbfs_us: Vec::new(),
        coalesce_in: 0,
        coalesce_out: 0,
        invalid: 0,
    };
    let events = &schedule.events;
    let mut i = 0;
    while i < events.len() {
        match &events[i] {
            Event::Write { due, .. } => {
                // Writes sharing a due time were submitted back to back:
                // the window the engine's writer coalesces.
                let burst: Vec<&GraphUpdate> = events[i..]
                    .iter()
                    .map_while(|e| match e {
                        Event::Write { due: d2, batch } if d2 == due => Some(batch),
                        _ => None,
                    })
                    .collect();
                let mut window = Coalescer::new();
                if burst.iter().all(|b| window.push(&m.graph, b).is_ok()) {
                    let (_, summary) = window.finish();
                    m.coalesce_in += summary.ops_in;
                    m.coalesce_out += summary.ops_out;
                }
                for batch in &burst {
                    if m.graph.validate(batch).is_err() {
                        m.invalid += 1;
                        continue;
                    }
                    let t = Instant::now();
                    let applied = m.graph.apply(batch);
                    m.apply_us.push(t.elapsed().as_secs_f64() * 1e6);
                    let t = Instant::now();
                    std::hint::black_box(multi_source_distances(&m.graph, &applied.touched, d));
                    m.msbfs_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                i += burst.len();
            }
            Event::Compact { .. } => {
                let t = Instant::now();
                let compacted = m.graph.compact();
                m.compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
                m.graph = DeltaGraph::new(Arc::new(compacted.graph));
                i += 1;
            }
            Event::Read { .. } => i += 1,
        }
    }
    m
}

/// The quiesced engine's full answer for the predicate, in canonical
/// form: sorted customers, and per-rule `(canonical code, ConfStats)`.
pub struct ServeAnswer {
    pub customers: Vec<u32>,
    pub rules: Vec<String>,
}

impl ServeAnswer {
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.text(&format!("{:?}", self.customers));
        self.rules.iter().for_each(|r| d.text(r));
        d.finish()
    }
}

pub fn engine_answer(engine: &ServeEngine, pred: Predicate) -> Result<ServeAnswer, QueryError> {
    let mut customers: Vec<u32> =
        engine.identify(pred, None)?.customers.iter().map(|v| v.0).collect();
    customers.sort_unstable();
    let mut rules: Vec<String> =
        engine.top_rules(pred, usize::MAX)?.iter().map(|r| rule_row(&r.rule, &r.stats)).collect();
    rules.sort_unstable();
    Ok(ServeAnswer { customers, rules })
}

/// The same answer from scratch: one-shot `gpar_eip::identify` over the
/// mirror graph.
pub fn scratch_answer(inputs: &Inputs, mirror: &DeltaGraph) -> ServeAnswer {
    let res = identify(mirror, &inputs.sigma, &eip_config(nproc())).expect("generated Σ is valid");
    let mut customers: Vec<u32> = res.customers.iter().map(|v| v.0).collect();
    customers.sort_unstable();
    let mut rules: Vec<String> =
        inputs.sigma.iter().zip(&res.per_rule).map(|(r, o)| rule_row(r, &o.stats)).collect();
    rules.sort_unstable();
    ServeAnswer { customers, rules }
}
