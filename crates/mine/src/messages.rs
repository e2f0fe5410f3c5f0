//! Message types exchanged between the coordinator and the workers
//! (§4.2 "Messages").

use gpar_core::{ConfStats, Confidence, Gpar};
use gpar_graph::{FxHashSet, NodeId};
use std::sync::Arc;

/// Local (per-worker) contribution to a rule's confidence — the `conf`
/// component of the paper's `⟨R, conf, flag⟩` triple. All counts range
/// over the worker's *assigned* centers only, so summing across workers
/// yields exact global values (center ownership is disjoint).
#[derive(Debug, Clone, Default)]
pub struct LocalConf {
    /// `supp(R, F_i)` — assigned positive centers matching `P_R`.
    pub supp_r: u64,
    /// `supp(Qq̄, F_i)` — assigned negative centers matching `Q`.
    pub supp_q_qbar: u64,
    /// `Usupp_i(R)` — upper bound on any extension's local support
    /// (PR-matching centers that produced at least one extension
    /// template).
    pub usupp: u64,
    /// The matching centers themselves (global ids) — needed by the
    /// coordinator to compute `diff(,)` between rules, exactly as the
    /// message tables of Example 9 carry `R(x, G1)` columns.
    pub matches: Vec<NodeId>,
}

impl LocalConf {
    /// Merges another worker's contribution into this one.
    pub fn merge(&mut self, other: &LocalConf) {
        self.supp_r += other.supp_r;
        self.supp_q_qbar += other.supp_q_qbar;
        self.usupp += other.usupp;
        self.matches.extend_from_slice(&other.matches);
    }
}

/// A fully assembled rule at the coordinator, with global statistics.
#[derive(Debug, Clone)]
pub struct MinedRule {
    /// The rule.
    pub rule: Arc<Gpar>,
    /// Global `P_R(x, G)` (the "social group" the rule identifies).
    pub matches: Arc<FxHashSet<NodeId>>,
    /// Global support/confidence counts.
    pub stats: ConfStats,
    /// The BF-based confidence.
    pub confidence: Confidence,
    /// Confidence as a finite ranking value (trivial rules are filtered
    /// before ranking, so this is the plain numeric value).
    pub conf_value: f64,
    /// Global `Uconf⁺` numerator input (summed `Usupp_i`).
    pub usupp: u64,
    /// Whether any worker can still extend this rule.
    pub extendable: bool,
    /// Round in which the rule was produced (= antecedent edge count).
    pub round: usize,
}

impl MinedRule {
    /// `supp(R, G)`.
    pub fn support(&self) -> u64 {
        self.stats.supp_r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_conf_merges_counts_and_matches() {
        let mut a =
            LocalConf { supp_r: 2, supp_q_qbar: 1, usupp: 2, matches: vec![NodeId(1), NodeId(2)] };
        let b = LocalConf { supp_r: 1, supp_q_qbar: 0, usupp: 1, matches: vec![NodeId(7)] };
        a.merge(&b);
        assert_eq!(a.supp_r, 3);
        assert_eq!(a.supp_q_qbar, 1);
        assert_eq!(a.usupp, 3);
        assert_eq!(a.matches, vec![NodeId(1), NodeId(2), NodeId(7)]);
    }
}
