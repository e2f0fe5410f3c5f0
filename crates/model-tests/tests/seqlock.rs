//! Model-checks the metrics registry's seqlock: a [`WriteTxn`] holds the
//! epoch odd while it applies a multi-counter transaction, and
//! `counters_stable` retries its sweep until it reads an unchanged even
//! epoch.
//!
//! The invariant, asserted over **every** explored interleaving: a
//! stable read never observes a torn transaction — it sees either none
//! or all of the counters a transaction writes, never a strict subset.
//!
//! [`WriteTxn`]: gpar_obs::WriteTxn

use gpar_obs::{Counter, MetricsRegistry};
use std::sync::Arc;

const UPDATES: usize = Counter::Updates as usize;
const REEVALUATED: usize = Counter::UpdateReevaluated as usize;

#[test]
fn stable_read_never_sees_a_torn_txn() {
    let report = gpar_model::model(|| {
        let reg = Arc::new(MetricsRegistry::new(1));
        let reader = {
            let reg = Arc::clone(&reg);
            gpar_model::thread::spawn(move || reg.counters_stable())
        };

        // One transaction, two counters: the seqlock's whole point is
        // that these become visible together or not at all.
        {
            let txn = reg.write_txn();
            txn.incr(0, Counter::Updates);
            txn.add(0, Counter::UpdateReevaluated, 3);
        }

        let seen = reader.join();
        let (u, re) = (seen[UPDATES], seen[REEVALUATED]);
        assert!(
            (u, re) == (0, 0) || (u, re) == (1, 3),
            "torn transaction observed: updates={u} reevaluated={re}"
        );

        // After the txn epoch settles, the full write is visible.
        let after = reg.counters_stable();
        assert_eq!((after[UPDATES], after[REEVALUATED]), (1, 3));
    });
    assert!(report.complete, "exploration exhausted the schedule space");
    assert!(report.executions > 1, "racy protocol must have more than one schedule");
}

#[test]
fn back_to_back_txns_are_each_atomic() {
    let report = gpar_model::model(|| {
        let reg = Arc::new(MetricsRegistry::new(1));
        let writer = {
            let reg = Arc::clone(&reg);
            gpar_model::thread::spawn(move || {
                for _ in 0..2 {
                    let txn = reg.write_txn();
                    txn.incr(0, Counter::Updates);
                    txn.add(0, Counter::UpdateReevaluated, 3);
                }
            })
        };

        let seen = reg.counters_stable();
        let (u, re) = (seen[UPDATES], seen[REEVALUATED]);
        assert_eq!(re, 3 * u, "reader caught a transaction half-applied: {u}/{re}");

        writer.join();
        let after = reg.counters_stable();
        assert_eq!((after[UPDATES], after[REEVALUATED]), (2, 6));
    });
    assert!(report.complete);
    assert!(report.executions > 1);
}
