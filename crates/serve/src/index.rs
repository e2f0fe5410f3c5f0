//! The candidate index: per consequent predicate, everything a query
//! needs that does **not** depend on the query itself.
//!
//! Built once per `(graph, catalog)` pair, the index holds for each
//! predicate `q`:
//!
//! * the rule group (catalog entries pertaining to `q`), with rules whose
//!   **antecedent label signature** cannot occur in the graph marked
//!   inactive up front — a rule demanding a node or edge label the graph
//!   simply does not contain matches nowhere, so queries never touch it;
//! * a pre-built [`SharingPlan`] (the `|Σ|²` subsumption tests are paid
//!   once per catalog version, not per request);
//! * the candidate centers `L` (nodes satisfying `x`'s condition);
//! * the antecedents' k-hop [`Sketch`]es that guide `Match`'s search
//!   inside each candidate's d-ball (§5.2), built once per group;
//! * the evaluation radius `d` (max rule radius, as EIP derives it).
//!
//! The rule-derived half sits behind one `Arc` ([`GroupRules`]) and the
//! centers in a [`PagedMap`], so the writer's copy-on-write successor of
//! a group shares the rules and every center page it does not touch.

use crate::catalog::RuleCatalog;
use crate::paged::PagedMap;
use gpar_core::{Gpar, Predicate};
use gpar_eip::{antecedent_sketches, derive_radius, MatchOpts, SharingPlan};
use gpar_graph::{FxHashMap, GraphView, Label, NodeId, Sketch};
use gpar_pattern::{NodeCond, Pattern};
use rustc_hash::FxHashMap as Map;
use std::sync::Arc;

/// The sorted, deduplicated node- and edge-label demand of an antecedent.
/// A necessary condition for `Q(x, G) ≠ ∅`: every concrete label `Q`
/// mentions must exist in `G` (wildcards impose no demand).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelSignature {
    /// Concrete node labels the antecedent requires.
    pub node_labels: Vec<Label>,
    /// Concrete edge labels the antecedent requires.
    pub edge_labels: Vec<Label>,
}

impl LabelSignature {
    /// Extracts the signature of a pattern.
    pub fn of_pattern(p: &Pattern) -> Self {
        let mut node_labels: Vec<Label> = p.conds().iter().filter_map(|c| c.label()).collect();
        node_labels.sort_unstable();
        node_labels.dedup();
        let mut edge_labels: Vec<Label> = p
            .edges()
            .iter()
            .filter_map(|e| match e.cond {
                gpar_pattern::EdgeCond::Label(l) => Some(l),
                gpar_pattern::EdgeCond::Any => None,
            })
            .collect();
        edge_labels.sort_unstable();
        edge_labels.dedup();
        Self { node_labels, edge_labels }
    }

    /// Whether every demanded label occurs in the histograms (a sound
    /// satisfiability prefilter: `false` ⇒ the pattern matches nowhere).
    pub fn satisfiable_in(
        &self,
        node_hist: &FxHashMap<Label, u64>,
        edge_hist: &FxHashMap<Label, u64>,
    ) -> bool {
        self.node_labels.iter().all(|l| node_hist.contains_key(l))
            && self.edge_labels.iter().all(|l| edge_hist.contains_key(l))
    }
}

/// The rule-side half of a [`PredicateGroup`]: everything derived from the
/// active rules alone. It changes only when an update flips a rule's
/// activation (the group is then rebuilt), so groups hold it behind its
/// own `Arc` and ordinary center maintenance never copies a pattern or
/// the sharing plan.
#[derive(Debug)]
pub struct GroupRules {
    /// Catalog entry indices of the *active* rules, aligned with
    /// [`GroupRules::rules`].
    pub entry_indices: Vec<usize>,
    /// Active rules (owned clones, in catalog order) — the Σ every query
    /// for this predicate evaluates.
    pub rules: Vec<Gpar>,
    /// The same rules as shared handles (aligned with
    /// [`GroupRules::rules`]) — query answers clone these `Arc`s
    /// instead of deep-copying patterns.
    pub rule_arcs: Vec<Arc<Gpar>>,
    /// Rules dropped because their label signature cannot occur in the
    /// graph.
    pub inactive_rules: usize,
    /// Pre-built common-subpattern sharing plan over [`GroupRules::rules`].
    pub plan: SharingPlan,
    /// Evaluation radius: `max(r(P_R, x), r(Q, x))` over the active rules
    /// (exactly EIP's derivation).
    pub d: u32,
    /// Per active rule: the antecedent sketches the *evaluator* uses
    /// (depth from the engine's `MatchOpts`).
    pub eval_sketches: Arc<Vec<Sketch>>,
}

/// Everything precomputed for one consequent predicate.
#[derive(Debug, Clone)]
pub struct PredicateGroup {
    /// The predicate `q(x, y)` this group serves.
    pub predicate: Predicate,
    /// The active rules and what is derived from them.
    pub sigma: Arc<GroupRules>,
    /// Candidate centers `L` (nodes satisfying `x`'s condition). Paged by
    /// id range, so a successor generation shares every page an update
    /// did not touch.
    pub centers: PagedMap<()>,
}

impl PredicateGroup {
    /// Admits `c` as a candidate center (no-op if already present).
    /// Returns whether the center was new.
    pub fn add_center(&mut self, c: NodeId) -> bool {
        self.centers.insert(c, ()).is_none()
    }

    /// Retires `c` as a candidate center (after a relabel away from `x`'s
    /// condition). Returns whether it was present.
    pub fn remove_center(&mut self, c: NodeId) -> bool {
        self.centers.remove(c).is_some()
    }

    /// Drops every center failing `keep`. The sharded engine uses this to
    /// restrict a group (built or rebuilt against the full graph) to the
    /// shard's owned centers.
    pub fn retain_centers(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        self.centers.retain(|c, _| keep(c));
    }

    /// Translates the centers through a compaction [`NodeRemap`]. All
    /// centers must survive (removed nodes are retired from every group
    /// when the removal batch is applied, before any compaction).
    ///
    /// [`NodeRemap`]: gpar_graph::NodeRemap
    pub fn remap_centers(&mut self, remap: &gpar_graph::NodeRemap) {
        self.centers.remap(|c| remap.get(c).expect("removed centers are retired at removal time"));
    }
}

/// The full index: one [`PredicateGroup`] per predicate in the catalog
/// with at least one rule valid for the graph; predicates whose every
/// rule is unsatisfiable are parked as *dormant* and revisited when an
/// update introduces a previously-absent label.
#[derive(Debug, Default, Clone)]
pub struct CandidateIndex {
    // Groups are `Arc`-wrapped so cloning the index for the next
    // copy-on-write snapshot costs one refcount bump per predicate.
    // The first `group_mut` on a group the published snapshot still
    // holds clones the group *struct* — the rules `Arc` plus the center
    // page table, one refcount bump per page — and from then on each
    // center edit copies only the page it lands in.
    groups: Map<Predicate, Arc<PredicateGroup>>,
    dormant: Vec<Predicate>,
}

impl CandidateIndex {
    /// Builds the index for `graph` over every predicate of `catalog`.
    ///
    /// `d_override` pins the evaluation radius instead of deriving it;
    /// `eval_opts` is the engine's per-candidate matching configuration,
    /// used to pre-build the evaluator-side antecedent sketches.
    pub fn build<G: GraphView + ?Sized>(
        graph: &G,
        catalog: &RuleCatalog,
        d_override: Option<u32>,
        eval_opts: &MatchOpts,
    ) -> Self {
        let node_hist = graph.node_histogram();
        let edge_hist = graph.edge_histogram();
        let mut idx = Self::default();
        for pred in catalog.predicates() {
            match build_group(graph, catalog, pred, d_override, eval_opts, &node_hist, &edge_hist) {
                Some(g) => {
                    idx.groups.insert(*pred, Arc::new(g));
                }
                None => idx.dormant.push(*pred),
            }
        }
        idx
    }

    /// The group serving `pred`, if any rule pertains to it.
    pub fn group(&self, pred: &Predicate) -> Option<&PredicateGroup> {
        self.groups.get(pred).map(|g| g.as_ref())
    }

    /// Mutable access to the group serving `pred` (incremental
    /// maintenance on the writer's private next-snapshot copy). Unshares
    /// the group if a published snapshot still holds it — its center
    /// pages stay shared until edited.
    pub fn group_mut(&mut self, pred: &Predicate) -> Option<&mut PredicateGroup> {
        self.groups.get_mut(pred).map(Arc::make_mut)
    }

    /// Number of predicate groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the index serves no predicate.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Iterator over the groups.
    pub fn groups(&self) -> impl Iterator<Item = &PredicateGroup> {
        self.groups.values().map(|g| g.as_ref())
    }

    /// Predicates cataloged but currently unservable (every rule's label
    /// signature is unsatisfiable in the graph).
    pub fn dormant(&self) -> &[Predicate] {
        &self.dormant
    }

    /// Restricts every group to the centers passing `keep` (see
    /// [`PredicateGroup::retain_centers`]) — the sharded engine's
    /// owned-center filter.
    pub fn retain_centers(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        for g in self.groups.values_mut() {
            Arc::make_mut(g).retain_centers(&mut keep);
        }
    }

    /// Translates every group's center list through a compaction
    /// [`NodeRemap`] (see [`PredicateGroup::remap_centers`]).
    pub fn remap_ids(&mut self, remap: &gpar_graph::NodeRemap) {
        for g in self.groups.values_mut() {
            Arc::make_mut(g).remap_centers(remap);
        }
    }

    /// Rebuilds one predicate's group from scratch against the current
    /// graph (the rule-activation slow path: an update introduced a label
    /// that may satisfy a previously-deactivated rule). Returns `true`
    /// when the set of active rules actually changed — callers must then
    /// drop any warmed state for the predicate.
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild_group<G: GraphView + ?Sized>(
        &mut self,
        graph: &G,
        catalog: &RuleCatalog,
        pred: &Predicate,
        d_override: Option<u32>,
        eval_opts: &MatchOpts,
        node_hist: &FxHashMap<Label, u64>,
        edge_hist: &FxHashMap<Label, u64>,
    ) -> bool {
        let before: Option<Vec<usize>> =
            self.groups.get(pred).map(|g| g.sigma.entry_indices.clone());
        let rebuilt =
            build_group(graph, catalog, pred, d_override, eval_opts, node_hist, edge_hist);
        let after: Option<Vec<usize>> = rebuilt.as_ref().map(|g| g.sigma.entry_indices.clone());
        if before == after {
            return false; // activation unchanged; keep the maintained group
        }
        match rebuilt {
            Some(g) => {
                self.dormant.retain(|p| p != pred);
                self.groups.insert(*pred, Arc::new(g));
            }
            None => {
                if self.groups.remove(pred).is_some() || !self.dormant.contains(pred) {
                    self.dormant.push(*pred);
                }
            }
        }
        true
    }
}

/// Builds one predicate's group, or `None` when no rule is satisfiable.
fn build_group<G: GraphView + ?Sized>(
    graph: &G,
    catalog: &RuleCatalog,
    pred: &Predicate,
    d_override: Option<u32>,
    eval_opts: &MatchOpts,
    node_hist: &FxHashMap<Label, u64>,
    edge_hist: &FxHashMap<Label, u64>,
) -> Option<PredicateGroup> {
    let mut entry_indices = Vec::new();
    let mut rules = Vec::new();
    let mut rule_arcs = Vec::new();
    let mut inactive = 0usize;
    for &i in catalog.indices_for(pred) {
        let e = &catalog.entries()[i];
        let sig = LabelSignature::of_pattern(e.rule.antecedent());
        if sig.satisfiable_in(node_hist, edge_hist) {
            entry_indices.push(i);
            rules.push((*e.rule).clone());
            rule_arcs.push(e.rule.clone());
        } else {
            inactive += 1;
        }
    }
    if rules.is_empty() {
        return None;
    }
    let plan = SharingPlan::build(&rules);
    let d = d_override.unwrap_or_else(|| derive_radius(&rules));
    let centers = match pred.x_cond {
        NodeCond::Label(l) => graph.label_members(l).into_iter().map(|c| (c, ())).collect(),
        NodeCond::Any => graph.nodes().map(|c| (c, ())).collect(),
    };
    let eval_sketches = antecedent_sketches(&rules, eval_opts);
    Some(PredicateGroup {
        predicate: *pred,
        sigma: Arc::new(GroupRules {
            entry_indices,
            rules,
            rule_arcs,
            inactive_rules: inactive,
            plan,
            d,
            eval_sketches,
        }),
        centers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpar_core::ConfStats;
    use gpar_graph::{Graph, GraphBuilder, Vocab};
    use gpar_pattern::PatternBuilder;

    fn test_opts() -> MatchOpts {
        MatchOpts::for_algorithm(gpar_eip::EipAlgorithm::Match)
    }

    fn setup() -> (Graph, RuleCatalog, Predicate) {
        let vocab = Vocab::new();
        let cust = vocab.intern("cust");
        let rest = vocab.intern("rest");
        let (like, visit) = (vocab.intern("like"), vocab.intern("visit"));
        let ghost = vocab.intern("ghost_label");
        let mut b = GraphBuilder::new(vocab.clone());
        for _ in 0..4 {
            let c = b.add_node(cust);
            let r = b.add_node(rest);
            b.add_edge(c, r, like);
            b.add_edge(c, r, visit);
        }
        let g = b.build();

        let mut cat = RuleCatalog::new(vocab.clone());
        let mk = |via: Label, q: Label| {
            let mut pb = PatternBuilder::new(vocab.clone());
            let x = pb.node(cust);
            let y = pb.node(rest);
            pb.edge(x, y, via);
            Arc::new(Gpar::new(pb.designate(x, y).build().unwrap(), q).unwrap())
        };
        let r1 = mk(like, visit);
        let pred = *r1.predicate();
        cat.insert(r1, ConfStats::default());
        // This rule demands an edge label absent from the graph.
        cat.insert(mk(ghost, visit), ConfStats::default());
        (g, cat, pred)
    }

    #[test]
    fn signature_pruning_deactivates_unsatisfiable_rules() {
        let (g, cat, pred) = setup();
        let idx = CandidateIndex::build(&g, &cat, None, &test_opts());
        let grp = idx.group(&pred).expect("group exists");
        assert_eq!(grp.sigma.rules.len(), 1, "ghost rule must be inactive");
        assert_eq!(grp.sigma.inactive_rules, 1);
        assert_eq!(grp.sigma.entry_indices, vec![0]);
    }

    #[test]
    fn centers_are_the_x_condition_matches() {
        let (g, cat, pred) = setup();
        let idx = CandidateIndex::build(&g, &cat, None, &test_opts());
        let grp = idx.group(&pred).unwrap();
        assert_eq!(grp.centers.len(), 4, "four cust nodes");
        let cust = g.vocab().get("cust").unwrap();
        assert!(grp.centers.iter().all(|(c, _)| g.node_label(c) == cust));
        assert!(grp.centers.iter().map(|(c, _)| c).is_sorted(), "centers iterate in id order");
    }

    #[test]
    fn derived_radius_covers_antecedent_and_rule() {
        let (g, cat, pred) = setup();
        let idx = CandidateIndex::build(&g, &cat, None, &test_opts());
        assert_eq!(idx.group(&pred).unwrap().sigma.d, 1);
        let idx = CandidateIndex::build(&g, &cat, Some(3), &test_opts());
        assert_eq!(idx.group(&pred).unwrap().sigma.d, 3);
    }
}
