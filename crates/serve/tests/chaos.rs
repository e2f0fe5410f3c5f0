//! Fault-injection suite: drives a [`ServeEngine`] through a seeded
//! mixed workload (queries with rotating deadline/staleness options,
//! update batches toggling an edge) while a [`gpar_chaos`] plan injects
//! panics, delays, queue-full rejections and poisoned batches — then
//! proves the robustness contract:
//!
//! * **No hang, no lost reply**: every admitted request's channel yields
//!   an answer (bounded `recv_timeout`), and every fault surfaces as a
//!   typed error (`Shed` / `DeadlineExceeded` / `Panicked` /
//!   `UpdateError::{Rejected, Panicked}`) or a correct answer — never a
//!   dead channel.
//! * **No half-mutated state**: a batch the engine reported as applied
//!   is applied *exactly*; after disarming, answers, warm ledgers and
//!   per-rule stats are equal to a fresh engine built from scratch on a
//!   mirror graph that applied the same accepted batches.
//! * **Determinism**: every fault decision is a pure function of the
//!   plan seed, so any failure replays exactly (`CHAOS_SEED` selects the
//!   base seed; CI runs a small seed matrix).
#![cfg(feature = "chaos")]

use gpar_chaos::{ChaosPlan, ChaosTally};
use gpar_core::{ConfStats, Gpar, Predicate};
use gpar_graph::{DeltaGraph, Graph, GraphBuilder, GraphUpdate, NodeId, Vocab};
use gpar_pattern::PatternBuilder;
use gpar_serve::{
    Counter, IdentifyRequest, IdentifyResponse, QueryError, QueryOpts, RuleCatalog, ServeConfig,
    ServeEngine, Ts, UpdateError,
};
use proptest::prelude::*;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Chaos state is process-global: tests that arm a plan take this gate.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Silences the default panic-hook backtrace for *injected* panics
/// (hundreds fire per run by design); real assertion failures still
/// print through the previous hook.
fn quiet_injected_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("chaos:") {
                prev(info);
            }
        }));
    });
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The serving test scenario: 10 positives, 2 negatives, 3 unknowns,
/// one rule `like(x, y) ⇒ visit(x, y)`. Node 28 is an unknown customer
/// (likes restaurant 29, no visit edge) — the workload's churn edge.
fn scenario() -> (Arc<Graph>, RuleCatalog, Predicate) {
    let vocab = Vocab::new();
    let cust = vocab.intern("cust");
    let rest = vocab.intern("rest");
    let bar = vocab.intern("bar");
    let (like, visit) = (vocab.intern("like"), vocab.intern("visit"));
    let mut b = GraphBuilder::new(vocab.clone());
    for _ in 0..10 {
        let c = b.add_node(cust);
        let r = b.add_node(rest);
        b.add_edge(c, r, like);
        b.add_edge(c, r, visit);
    }
    for _ in 0..2 {
        let c = b.add_node(cust);
        let r = b.add_node(rest);
        let bb = b.add_node(bar);
        b.add_edge(c, r, like);
        b.add_edge(c, bb, visit);
    }
    for _ in 0..3 {
        let c = b.add_node(cust);
        let r = b.add_node(rest);
        b.add_edge(c, r, like);
    }
    let g = Arc::new(b.build());
    let mut pb = PatternBuilder::new(vocab.clone());
    let x = pb.node(cust);
    let y = pb.node(rest);
    pb.edge(x, y, like);
    let rule = Arc::new(Gpar::new(pb.designate(x, y).build().unwrap(), visit).unwrap());
    let pred = *rule.predicate();
    let mut cat = RuleCatalog::new(vocab);
    cat.insert(rule, ConfStats::default());
    (g, cat, pred)
}

/// One chaos round: arm a plan, drive `steps` seeded workload steps at
/// `workers`, drain every reply within a bound, disarm, then check the
/// surviving engine against a fresh rebuild on the accepted-batch
/// mirror. Returns the fault tally the round actually fired.
fn run_round(seed: u64, workers: usize, steps: u64) -> ChaosTally {
    quiet_injected_panics();
    let (g, cat, pred) = scenario();
    let engine = ServeEngine::new(
        g.clone(),
        &cat,
        ServeConfig { eta: 0.5, workers, queue_capacity: 8, ..Default::default() },
    );
    // Warm before arming so the ledger exists whatever the plan does.
    engine.identify(pred, None).expect("pre-chaos warm-up");
    // Mirror of every batch the engine *accepted* — the ground truth the
    // post-fault engine must match bit-for-bit.
    let mut mirror = DeltaGraph::new(g.clone());
    let vocab = g.vocab().clone();
    let visit = vocab.get("visit").unwrap();

    gpar_chaos::arm(ChaosPlan {
        seed,
        panic_ppk: 150,
        delay_ppk: 100,
        delay: Duration::from_micros(200),
        queue_full_ppk: 80,
        poison_batch_ppk: 250,
    });

    let mut pending: Vec<Receiver<Result<IdentifyResponse, QueryError>>> = Vec::new();
    let mut present = false; // the churn edge (28, 29, visit) starts absent
    for step in 0..steps {
        let word = splitmix64(seed ^ (step << 1 | 1));
        if word.is_multiple_of(4) {
            let edge = vec![(NodeId(28), NodeId(29), visit)];
            let batch = if present {
                GraphUpdate { del_edges: edge, ..Default::default() }
            } else {
                GraphUpdate { new_edges: edge, ..Default::default() }
            };
            match engine.apply_update(&batch) {
                Ok(_) => {
                    let applied = mirror.diff(&batch).expect("accepted batch is valid");
                    mirror.commit(&batch, &applied);
                    present = !present;
                }
                // Injected faults reject the whole batch — nothing may
                // have been applied, so the mirror is untouched.
                Err(UpdateError::Rejected | UpdateError::Panicked) => {}
                Err(e) => panic!("unexpected update error under chaos: {e}"),
            }
        } else {
            let opts = match word % 3 {
                0 => QueryOpts::default(),
                1 => QueryOpts { deadline: Some(Duration::from_millis(200)), ..Default::default() },
                _ => QueryOpts { staleness: Some(Duration::from_millis(50)), ..Default::default() },
            };
            let req = IdentifyRequest { predicate: pred, candidates: None, opts };
            match engine.submit_identify_from(req, Ts::now()) {
                Ok(rx) => pending.push(rx),
                // Admission faults (real full queue or injected) are a
                // typed shed, never a silent drop.
                Err(QueryError::Shed { .. }) => {}
                Err(e) => panic!("unexpected submit error under chaos: {e}"),
            }
        }
    }

    // No hang, no lost reply: every admitted request answers within a
    // bound, with a correct result or a typed fault.
    for rx in pending {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(Ok(_))
            | Ok(Err(QueryError::Panicked))
            | Ok(Err(QueryError::DeadlineExceeded { .. })) => {}
            Ok(Err(e)) => panic!("untyped failure under chaos: {e}"),
            Err(e) => panic!("admitted request never answered: {e}"),
        }
    }
    let tally = gpar_chaos::disarm();

    // State consistency: the surviving engine answers exactly like a
    // fresh engine on the mirror of accepted batches.
    let fresh_graph = Arc::new(mirror.compact().graph);
    let fresh = ServeEngine::new(fresh_graph, &cat, ServeConfig { eta: 0.5, ..Default::default() });
    assert_eq!(
        engine.identify(pred, None).expect("post-chaos query").customers,
        fresh.identify(pred, None).expect("fresh query").customers,
        "post-fault answers diverge from a fresh rebuild (seed {seed}, workers {workers})"
    );
    let survived = engine.top_rules(pred, 16).expect("post-chaos top_rules");
    let rebuilt = fresh.top_rules(pred, 16).expect("fresh top_rules");
    assert_eq!(survived.len(), rebuilt.len());
    for (a, b) in survived.iter().zip(&rebuilt) {
        assert_eq!(a.stats, b.stats, "warm ledger diverged (seed {seed}, workers {workers})");
        assert_eq!(a.confidence, b.confidence);
        assert_eq!(a.active, b.active);
    }
    tally
}

/// The CI matrix entry point: `CHAOS_SEED` picks the base seed, and each
/// worker count gets its own derived seed so the four rounds explore
/// different fault sequences.
#[test]
fn chaos_rounds_recover_to_rebuild_equivalence() {
    let _g = gate();
    let base: u64 = std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    let mut fired = 0u64;
    for workers in 1..=4 {
        fired += run_round(base.wrapping_mul(1000) + workers as u64, workers, 80).total();
    }
    assert!(fired > 0, "the plan must actually inject faults for the suite to mean anything");
}

/// With the feature compiled in but **no plan armed**, failpoints must
/// change nothing: the workload completes fault-free and the tally
/// stays zero — the guarantee that lets `chaos` builds run the regular
/// differential suites unchanged.
#[test]
fn unarmed_failpoints_are_inert_in_the_engine() {
    let _g = gate();
    let (g, cat, pred) = scenario();
    let vocab = g.vocab().clone();
    let visit = vocab.get("visit").unwrap();
    let engine = ServeEngine::new(
        g,
        &cat,
        ServeConfig { eta: 0.5, workers: 2, queue_capacity: 8, ..Default::default() },
    );
    assert!(!gpar_chaos::is_armed());
    let baseline = engine.identify(pred, None).expect("warm-up").customers;
    for i in 0..20 {
        let edge = vec![(NodeId(28), NodeId(29), visit)];
        let batch = if i % 2 == 0 {
            GraphUpdate { new_edges: edge, ..Default::default() }
        } else {
            GraphUpdate { del_edges: edge, ..Default::default() }
        };
        engine.apply_update(&batch).expect("unarmed updates never fault");
        assert!(engine.identify(pred, None).expect("unarmed queries never fault").epoch > 0);
    }
    assert_eq!(engine.identify(pred, None).unwrap().customers, baseline);
    assert_eq!(gpar_chaos::tally(), ChaosTally::default(), "no faults fire unarmed");
    assert_eq!(engine.metrics().counter(Counter::Shed), 0);
}

// Any seed converges: the fault sequence is arbitrary, the contract is
// not. CI raises the case count via `PROPTEST_CASES`.
proptest! {
    #![proptest_config(ProptestConfig::env_or(8))]

    #[test]
    fn chaos_converges_for_any_seed(seed in 0u64..u64::MAX) {
        let _g = gate();
        run_round(seed, 2, 40);
    }
}
