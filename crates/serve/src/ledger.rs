//! The warm ledger: one predicate's per-center evaluation records and
//! the exact counts they fold into. This module alone knows the ledger's
//! layout; the read and write paths go through its methods.
//!
//! A warm-up evaluates every candidate center once and folds each
//! [`CenterRecord`] (LCWA class, and per rule whether the center is in
//! `Q` and in `P_R` on its d-ball) into per-rule [`ConfStats`]: the
//! counts `gpar_eip::identify`'s step 3 assembles, so η-gating equals a
//! direct EIP run. A write subtracts a re-evaluated center's old record
//! and adds its new one, and subtracts a removed center without
//! replacement, so a rule whose last supporting center vanished drops
//! below η. The records live in a [`PagedMap`], so a patched successor
//! shares every page of 64 ids it did not touch.

use crate::paged::PagedMap;
use gpar_core::{ConfStats, Confidence, LcwaClass};
use gpar_graph::{NodeId, NodeRemap};

/// One center's evaluation outcome, kept per warmed predicate so updates
/// can subtract its exact contribution before re-evaluating.
#[derive(Debug, Clone)]
pub(crate) struct CenterRecord {
    /// LCWA class on the *global* graph (counts supp_q / supp_q̄).
    class: LcwaClass,
    /// Per rule: `v_x ∈ Q(x, G_d(v_x))`.
    q_member: Vec<bool>,
    /// Per rule: `v_x ∈ P_R(x, G_d(v_x))`.
    pr_member: Vec<bool>,
}

impl CenterRecord {
    pub(crate) fn new(class: LcwaClass, q_member: Vec<bool>, pr_member: Vec<bool>) -> Self {
        Self { class, q_member, pr_member }
    }
}

/// Per-predicate state established by the warm-up pass and maintained
/// incrementally across updates.
#[derive(Debug, Clone)]
pub(crate) struct PredicateState {
    /// `supp(q, G)` over all candidates.
    supp_q: u64,
    /// `supp(q̄, G)` over all candidates.
    supp_qbar: u64,
    /// Per rule: `(supp_r, supp_q_qbar, supp_q_ante)` running counters.
    per_rule: Vec<(u64, u64, u64)>,
    /// Per center: its evaluation record (the subtractable ledger), paged
    /// so a patched successor shares every page it did not touch.
    outcomes: PagedMap<CenterRecord>,
    /// Exact per-rule counts, derived from the counters.
    stats: Vec<ConfStats>,
    /// Per-rule confidence.
    conf: Vec<Confidence>,
    /// Per-rule: clears η.
    active: Vec<bool>,
    /// The full answer implied by the current state (sorted).
    warm_customers: Vec<NodeId>,
    /// The view epoch this ledger reflects (stamped at warm-up, at each
    /// update's ledger patch and at each remapping compaction).
    epoch: u64,
}

impl PredicateState {
    /// The ledger a warm-up assembles at `epoch` for a group of `rules`
    /// rules: every record folded in, the rule surface and the answer set
    /// derived.
    pub(crate) fn warmed(
        rules: usize,
        epoch: u64,
        eta: f64,
        records: impl IntoIterator<Item = (NodeId, CenterRecord)>,
    ) -> Self {
        let mut state = Self {
            supp_q: 0,
            supp_qbar: 0,
            per_rule: vec![(0, 0, 0); rules],
            outcomes: PagedMap::new(),
            stats: Vec::new(),
            conf: Vec::new(),
            active: Vec::new(),
            warm_customers: Vec::new(),
            epoch,
        };
        for (c, rec) in records {
            state.add_record(c, rec);
        }
        state.recompute_rule_surface(eta);
        state.rebuild_customers();
        state
    }

    /// `|L|`: the centers this ledger holds a record for.
    pub(crate) fn centers(&self) -> usize {
        self.outcomes.len()
    }

    /// One identify answer and its `evaluated` count. `None` reads the
    /// whole answer set and `|L|`. `Some(cands)` reads the requested
    /// candidates that are centers of this ledger, sorted and
    /// deduplicated: ids outside `L` are not candidates (no x-condition
    /// match) and drop out silently, exactly as EIP never considers them.
    pub(crate) fn read(&self, cands: Option<&[NodeId]>) -> (Vec<NodeId>, usize) {
        let Some(cands) = cands else {
            return (self.warm_customers.clone(), self.outcomes.len());
        };
        let mut cs = cands.to_vec();
        cs.sort_unstable();
        cs.dedup();
        let mut centers = 0;
        cs.retain(|&c| {
            self.outcomes.get(c).is_some_and(|rec| {
                centers += 1;
                self.admits(rec)
            })
        });
        (cs, centers)
    }

    /// Per rule, in group order: confidence, exact counts, and whether it
    /// clears η.
    pub(crate) fn rules(&self) -> impl Iterator<Item = (Confidence, ConfStats, bool)> + '_ {
        self.conf.iter().zip(&self.stats).zip(&self.active).map(|((&c, &s), &a)| (c, s, a))
    }

    /// One write's patch at `epoch`: subtracts the `removed` centers,
    /// re-evaluates the `reeval` centers (in id order, so each touched
    /// page is copied once) through `eval`, and re-derives the rule
    /// surface. The answer set is patched per center unless a rule's η
    /// verdict flipped, which rebuilds it.
    pub(crate) fn repair(
        &mut self,
        epoch: u64,
        eta: f64,
        removed: &[NodeId],
        reeval: &[NodeId],
        mut eval: impl FnMut(NodeId) -> CenterRecord,
    ) {
        self.epoch = epoch;
        for &c in removed {
            self.remove_record(c);
        }
        for &c in reeval {
            self.remove_record(c);
            self.add_record(c, eval(c));
        }
        if self.recompute_rule_surface(eta) {
            self.rebuild_customers();
        } else {
            self.patch_customers(removed.iter().chain(reeval).copied());
        }
    }

    /// Re-keys the ledger through a compaction's id remap, published at
    /// `epoch`. The remap is monotone, so the answer set stays sorted;
    /// every page is rewritten, since ids shift across page boundaries.
    pub(crate) fn remap(&mut self, remap: &NodeRemap, epoch: u64) {
        self.epoch = epoch;
        self.outcomes.remap(|c| remap.get(c).expect("warmed centers survive compaction"));
        for c in &mut self.warm_customers {
            *c = remap.get(*c).expect("customers are live centers");
        }
        debug_assert!(self.warm_customers.is_sorted(), "monotone remap preserves order");
    }

    /// Adds `rec`'s contribution to the counters and stores it.
    fn add_record(&mut self, c: NodeId, rec: CenterRecord) {
        match rec.class {
            LcwaClass::Positive => self.supp_q += 1,
            LcwaClass::Negative => self.supp_qbar += 1,
            LcwaClass::Unknown => {}
        }
        for (r, slot) in self.per_rule.iter_mut().enumerate() {
            if rec.q_member.get(r).copied().unwrap_or(false) {
                slot.2 += 1;
                if rec.class == LcwaClass::Negative {
                    slot.1 += 1;
                }
            }
            if rec.pr_member.get(r).copied().unwrap_or(false) && rec.class == LcwaClass::Positive {
                slot.0 += 1;
            }
        }
        let prev = self.outcomes.insert(c, rec);
        debug_assert!(prev.is_none(), "record replaced without subtraction");
    }

    /// Removes `c`'s record, subtracting its exact contribution.
    fn remove_record(&mut self, c: NodeId) {
        let Some(rec) = self.outcomes.remove(c) else { return };
        match rec.class {
            LcwaClass::Positive => self.supp_q -= 1,
            LcwaClass::Negative => self.supp_qbar -= 1,
            LcwaClass::Unknown => {}
        }
        for (r, slot) in self.per_rule.iter_mut().enumerate() {
            if rec.q_member.get(r).copied().unwrap_or(false) {
                slot.2 -= 1;
                if rec.class == LcwaClass::Negative {
                    slot.1 -= 1;
                }
            }
            if rec.pr_member.get(r).copied().unwrap_or(false) && rec.class == LcwaClass::Positive {
                slot.0 -= 1;
            }
        }
    }

    /// Whether `rec` makes its center a customer: it is in `Q` of a rule
    /// that clears η.
    fn admits(&self, rec: &CenterRecord) -> bool {
        rec.q_member.iter().zip(&self.active).any(|(&m, &a)| m && a)
    }

    /// Whether `c`'s current record makes it a customer under `active`.
    fn is_customer(&self, c: NodeId) -> bool {
        self.outcomes.get(c).is_some_and(|rec| self.admits(rec))
    }

    /// Recomputes the per-rule surface (stats, confidence, η-gating) from
    /// the counters — O(|Σ|). Returns whether any rule's η verdict
    /// flipped (callers must then rebuild the answer set; otherwise a
    /// per-center patch suffices).
    fn recompute_rule_surface(&mut self, eta: f64) -> bool {
        self.stats = self
            .per_rule
            .iter()
            .map(|&(supp_r, supp_q_qbar, supp_q_ante)| ConfStats {
                supp_r,
                supp_q_ante,
                supp_q: self.supp_q,
                supp_qbar: self.supp_qbar,
                supp_q_qbar,
            })
            .collect();
        self.conf = self.stats.iter().map(ConfStats::conf).collect();
        let active: Vec<bool> = self.conf.iter().map(|c| c.at_least(eta)).collect();
        let changed = active != self.active;
        self.active = active;
        changed
    }

    /// Rebuilds the full sorted answer set from the ledger (which
    /// iterates in id order) — O(|L|).
    fn rebuild_customers(&mut self) {
        self.warm_customers =
            self.outcomes.iter().filter(|(_, rec)| self.admits(rec)).map(|(c, _)| c).collect();
    }

    /// Patches the sorted answer set for exactly the given centers (their
    /// records were removed / re-evaluated) — O(ball · log |L|), the
    /// per-update fast path when no rule's η verdict flipped.
    fn patch_customers(&mut self, centers: impl IntoIterator<Item = NodeId>) {
        for c in centers {
            let is = self.is_customer(c);
            match self.warm_customers.binary_search(&c) {
                Ok(i) if !is => {
                    self.warm_customers.remove(i);
                }
                Err(i) if is => self.warm_customers.insert(i, c),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gpar_graph::{DeltaGraph, GraphBuilder, GraphUpdate, Vocab};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// `(shared, total)` ledger pages of `next` that are `prev`'s own
    /// allocations.
    pub(crate) fn shared_pages(next: &PredicateState, prev: &PredicateState) -> (usize, usize) {
        next.outcomes.shared_pages(&prev.outcomes)
    }

    /// The LCWA class `c`'s record holds, if `c` is a center.
    pub(crate) fn class_of(state: &PredicateState, c: NodeId) -> Option<LcwaClass> {
        state.outcomes.get(c).map(|rec| rec.class)
    }

    pub(crate) fn epoch_of(state: &PredicateState) -> u64 {
        state.epoch
    }

    const MAX_RULES: usize = 4;

    /// A record drawn from 64 random bits: the class, then one `Q` and
    /// one `P_R` bit per rule.
    fn record(rules: usize, bits: u64) -> CenterRecord {
        let class =
            [LcwaClass::Positive, LcwaClass::Negative, LcwaClass::Unknown][bits as usize % 3];
        let bit = |i: usize| (bits >> (2 + i)) & 1 == 1;
        CenterRecord::new(
            class,
            (0..rules).map(bit).collect(),
            (0..rules).map(|r| bit(MAX_RULES + r)).collect(),
        )
    }

    /// The oracle: the counters, rule verdicts and answer set that a
    /// from-scratch fold of the surviving records yields.
    fn assert_matches_fold(
        state: &PredicateState,
        model: &BTreeMap<u32, CenterRecord>,
        rules: usize,
        eta: f64,
    ) {
        let (mut supp_q, mut supp_qbar) = (0, 0);
        let mut per_rule = vec![(0u64, 0u64, 0u64); rules];
        for rec in model.values() {
            supp_q += u64::from(rec.class == LcwaClass::Positive);
            supp_qbar += u64::from(rec.class == LcwaClass::Negative);
            for (r, slot) in per_rule.iter_mut().enumerate() {
                if rec.q_member[r] {
                    slot.2 += 1;
                    slot.1 += u64::from(rec.class == LcwaClass::Negative);
                }
                slot.0 += u64::from(rec.pr_member[r] && rec.class == LcwaClass::Positive);
            }
        }
        assert_eq!((state.supp_q, state.supp_qbar), (supp_q, supp_qbar), "class counters");
        assert_eq!(state.per_rule, per_rule, "per-rule counters");
        let active: Vec<bool> = per_rule
            .iter()
            .map(|&(supp_r, supp_q_qbar, supp_q_ante)| {
                ConfStats { supp_r, supp_q_ante, supp_q, supp_qbar, supp_q_qbar }
                    .conf()
                    .at_least(eta)
            })
            .collect();
        assert_eq!(state.active, active, "η verdicts");
        let customers: Vec<NodeId> = model
            .iter()
            .filter(|(_, rec)| rec.q_member.iter().zip(&active).any(|(&m, &a)| m && a))
            .map(|(&c, _)| NodeId(c))
            .collect();
        assert_eq!(state.warm_customers, customers, "answer set");
        let ids: Vec<u32> = state.outcomes.iter().map(|(c, _)| c.0).collect();
        assert_eq!(ids, model.keys().copied().collect::<Vec<_>>(), "surviving centers");
    }

    /// A compaction's remap of an id space of `n` slots that drops the
    /// `dead` ones, made the way the engine makes it: by compacting an
    /// overlay whose nodes were removed.
    fn remap_dropping(n: u32, dead: &[NodeId]) -> NodeRemap {
        let vocab = Vocab::new();
        let label = vocab.intern("v");
        let mut b = GraphBuilder::new(vocab);
        for _ in 0..n {
            b.add_node(label);
        }
        let mut g = DeltaGraph::new(Arc::new(b.build()));
        g.apply(&GraphUpdate { del_nodes: dead.to_vec(), ..Default::default() });
        g.compact().remap.expect("removals remap")
    }

    const ID_SPACE: u32 = 300;

    // The ledger against a model of its surviving records: random
    // add / remove / re-evaluate / remap sequences must leave the
    // counters, η verdicts and answer set equal to a from-scratch
    // fold; every step's answer set equals `rebuild_customers()`
    // (the per-center patch after a step with no η flip included);
    // and a remap keeps the answer set sorted.
    proptest! {
        #![proptest_config(ProptestConfig::env_or(256))]

        #[test]
        fn ledger_matches_a_fold_of_its_records(
            rules in 1usize..MAX_RULES + 1,
            eta_step in 0u32..8,
            initial in collection::vec((0u32..ID_SPACE, 0u64..u64::MAX), 0..60),
            // (op, id, record bits): ops collide on ids and span pages.
            ops in collection::vec((0u32..5, 0u32..ID_SPACE, 0u64..u64::MAX), 1..60),
        ) {
            let eta = f64::from(eta_step) * 0.25;
            let mut model: BTreeMap<u32, CenterRecord> = BTreeMap::new();
            for &(c, bits) in &initial {
                model.insert(c, record(rules, bits));
            }
            let mut state = PredicateState::warmed(
                rules,
                0,
                eta,
                model.iter().map(|(&c, rec)| (NodeId(c), rec.clone())),
            );
            assert_matches_fold(&state, &model, rules, eta);
            let mut n = ID_SPACE;
            for (step, &(op, id, bits)) in ops.iter().enumerate() {
                let epoch = step as u64 + 1;
                let c = NodeId(id % n);
                match op {
                    // Admit or re-evaluate one center.
                    0 | 1 => {
                        let rec = record(rules, bits);
                        model.insert(c.0, rec.clone());
                        state.repair(epoch, eta, &[], &[c], |_| rec.clone());
                    }
                    // Retire one center (a no-op when it holds no record).
                    2 => {
                        model.remove(&c.0);
                        state.repair(epoch, eta, &[c], &[], |_| unreachable!());
                    }
                    // One write's ball: retire `c`, re-evaluate the next
                    // few centers, each with its own fresh record.
                    3 => {
                        model.remove(&c.0);
                        let reeval: Vec<NodeId> = model
                            .range(c.0 + 1..)
                            .take(1 + bits as usize % 5)
                            .map(|(&v, _)| NodeId(v))
                            .collect();
                        let fresh = |v: NodeId| record(rules, bits.rotate_left(v.0));
                        for &v in &reeval {
                            model.insert(v.0, fresh(v));
                        }
                        state.repair(epoch, eta, &[c], &reeval, fresh);
                    }
                    // A remapping compaction: drop every free slot in a
                    // residue class (never a center's), shifting later ids
                    // down across page boundaries.
                    _ => {
                        let k = 2 + (bits % 7) as u32;
                        let dead: Vec<NodeId> = (0..n)
                            .filter(|&v| v % k == id % k && !model.contains_key(&v))
                            .map(NodeId)
                            .collect();
                        if dead.is_empty() || dead.len() == n as usize {
                            continue;
                        }
                        let remap = remap_dropping(n, &dead);
                        state.remap(&remap, epoch);
                        prop_assert!(state.warm_customers.is_sorted(), "remap keeps order");
                        model = model
                            .into_iter()
                            .map(|(v, rec)| (remap.get(NodeId(v)).unwrap().0, rec))
                            .collect();
                        n = remap.new_len() as u32;
                    }
                }
                prop_assert_eq!(state.epoch, epoch);
                let mut rebuilt = state.clone();
                rebuilt.rebuild_customers();
                prop_assert_eq!(
                    &state.warm_customers,
                    &rebuilt.warm_customers,
                    "step {} (op {}): the patched answer set equals a rebuild",
                    step,
                    op
                );
                assert_matches_fold(&state, &model, rules, eta);
            }
        }
    }
}
