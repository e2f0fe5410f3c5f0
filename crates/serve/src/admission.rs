//! Admission and the query pool: how a request gets from `submit_*` to
//! an answer on its reply channel.
//!
//! [`ServeEngine::new`] spawns `workers` OS threads that all drain one
//! shared [`gpar_exec::Injector`] — the same runtime primitive family the
//! mining and EIP layers execute on. Any idle worker, not just a lock
//! holder, grabs the next query; dropping the engine closes the injector
//! and joins the pool. Admission is bounded per priority lane
//! ([`ServeConfig::queue_capacity`]), a request's deadline is checked at
//! every stage boundary, and a panicking request fails alone.

#[cfg(doc)]
use crate::engine::ServeConfig;
use crate::engine::{
    IdentifyRequest, IdentifyResponse, QueryError, QueryOpts, RuleInfo, ServeEngine, Shared,
};
use gpar_core::Predicate;
use gpar_exec::{Injector, Priority, PushError};
use gpar_obs::{Counter, HistKind, Stage, TraceBuilder, TraceKind, Ts};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

/// A request's armed deadline. The budget anchors on the schedule
/// instant when timing is compiled in; under `obs-off` (where [`Ts`] is
/// zero-sized) it falls back to the submit instant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline {
    started: std::time::Instant,
    budget: Duration,
}

impl Deadline {
    pub(crate) fn arm(opts: &QueryOpts, scheduled: Ts) -> Option<Deadline> {
        opts.deadline.map(|budget| Deadline {
            started: scheduled.instant().unwrap_or_else(Ts::monotonic_now),
            budget,
        })
    }

    /// The stage-boundary cancellation check.
    pub(crate) fn check(this: Option<&Deadline>) -> Result<(), QueryError> {
        let Some(d) = this else { return Ok(()) };
        let elapsed = d.started.elapsed();
        if elapsed > d.budget {
            Err(QueryError::DeadlineExceeded { budget: d.budget, elapsed })
        } else {
            Ok(())
        }
    }
}

/// A queued request, carrying its schedule timestamp so queue wait and
/// end-to-end latency are measured from submission (open-loop semantics:
/// a backed-up queue counts against latency rather than silently delaying
/// the measurement — no coordinated omission).
pub(crate) enum Job {
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
    pub(crate) fn reject(self, err: QueryError) {
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

impl ServeEngine {
    pub(crate) fn submit(&self, job: Job) -> Result<(), QueryError> {
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

pub(crate) fn worker_loop(shared: Arc<Shared>, jobs: Arc<Injector<Job>>, shard: usize) {
    // `pop` blocks while the injector is open; `None` = closed + drained.
    while let Some(job) = jobs.pop() {
        shared.obs.incr(shard, Counter::Queries);
        match job {
            Job::Identify(req, submitted, dl, reply) => {
                let kind = (TraceKind::Identify, HistKind::IdentifyLatency);
                let res = serve_one(&shared, shard, kind, submitted, dl, |tb, dl| {
                    shared.identify(&req, shard, tb, dl)
                });
                let _ = reply.send(res);
            }
            Job::TopRules(pred, k, submitted, dl, reply) => {
                let kind = (TraceKind::TopRules, HistKind::TopRulesLatency);
                let res = serve_one(&shared, shard, kind, submitted, dl, |tb, dl| {
                    shared.top_rules(&pred, k, shard, tb, dl)
                });
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

/// Runs one query popped at `submitted`: traces its queue wait, checks
/// the deadline both before starting (don't compute a dead answer for a
/// request that expired in the queue) and after finishing (never deliver
/// a success the caller has already given up on), and records the trace
/// before the caller replies, so a snapshot taken after the answer
/// arrives is guaranteed to include this request.
fn serve_one<T>(
    shared: &Shared,
    shard: usize,
    (trace, hist): (TraceKind, HistKind),
    submitted: Ts,
    dl: Option<Deadline>,
    eval: impl FnOnce(&mut TraceBuilder, Option<&Deadline>) -> Result<T, QueryError>,
) -> Result<T, QueryError> {
    let mut tb = TraceBuilder::new(trace);
    tb.add(Stage::QueueWait, submitted.elapsed());
    let res = Deadline::check(dl.as_ref())
        .and_then(|()| {
            run_contained(|| {
                gpar_chaos::failpoint("serve::worker::job");
                eval(&mut tb, dl.as_ref())
            })
        })
        .and_then(|answer| Deadline::check(dl.as_ref()).map(|()| answer));
    if matches!(res, Err(QueryError::DeadlineExceeded { .. })) {
        shared.obs.incr(shard, Counter::DeadlineExceeded);
    }
    shared.finish_trace(shard, tb, submitted.elapsed(), hist);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{assert_matches_fresh_rebuild, counter, scenario};
    use crate::engine::ServeConfig;
    use gpar_core::{ConfStats, Gpar};
    use gpar_graph::{GraphUpdate, NodeId};
    use gpar_pattern::PatternBuilder;
    use std::sync::mpsc::{channel, Receiver};

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
        assert!(counter(&engine, Counter::DeadlineExceeded) >= 1);
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
        assert_eq!(counter(&engine, Counter::Shed), 1);
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
        assert_eq!(counter(&engine, Counter::Updates), 50);
    }
}
