//! Per-candidate membership evaluation with the §5.2 optimizations.

use crate::options::MatchOpts;
use gpar_core::{classify, Gpar, LcwaClass, Predicate};
use gpar_graph::Sketch;
use gpar_iso::Matcher;
use gpar_partition::CenterSite;
use gpar_pattern::pattern_sketch;

/// The multi-rule sharing plan: rules ordered by antecedent size, plus,
/// for each rule, the indices of *dominating* rules — rules whose
/// antecedent embeds into this rule's antecedent (with `x` pinned). If a
/// dominator's antecedent failed at a candidate, this rule's antecedent
/// must fail too (anti-monotonicity), so the search is skipped. This is
/// the common-subpattern multi-query optimization the paper adopts from
/// Le et al. [32].
#[derive(Debug, Clone)]
pub struct SharingPlan {
    /// Evaluation order (antecedent edge count ascending).
    pub order: Vec<usize>,
    /// `dominators[r]` — rules (by index) embedded in rule `r`'s
    /// antecedent.
    pub dominators: Vec<Vec<usize>>,
}

impl SharingPlan {
    /// Builds the plan with pairwise subsumption tests (`|Σ|²` small
    /// pattern embeddings; Σ is ≤ a few dozen rules in practice).
    pub fn build(rules: &[Gpar]) -> Self {
        let n = rules.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (rules[i].antecedent().edge_count(), i));
        let mut dominators = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i != j
                    && rules[j].antecedent().edge_count() < rules[i].antecedent().edge_count()
                    && rules[j].antecedent().is_subsumed_by(rules[i].antecedent())
                {
                    dominators[i].push(j);
                }
            }
        }
        Self { order, dominators }
    }
}

/// Per-candidate, per-rule membership outcome.
#[derive(Debug, Clone)]
pub struct CandidateOutcome {
    /// LCWA class of the candidate (always defined: candidates satisfy
    /// `x`'s condition by construction).
    pub class: LcwaClass,
    /// Per rule: `v_x ∈ Q(x, G_d(v_x))`.
    pub q_member: Vec<bool>,
    /// Per rule: `v_x ∈ P_R(x, G_d(v_x))` (only positives can hold).
    pub pr_member: Vec<bool>,
}

/// The sketch depth an evaluator uses under `opts` (the engine's
/// configured depth, defaulting to 2).
fn effective_sketch_k(opts: &MatchOpts) -> u32 {
    if opts.engine.sketch_k > 0 {
        opts.engine.sketch_k
    } else {
        2
    }
}

/// Builds the per-rule antecedent sketches at `x` used by the
/// candidate-level prefilter under `opts`. Build once per rule group and
/// hand the `Arc` to [`CandidateEvaluator::with_plan_and_sketches`] so
/// repeated evaluator construction (one per serving request) does no
/// per-rule sketch work.
pub fn antecedent_sketches(rules: &[Gpar], opts: &MatchOpts) -> std::sync::Arc<Vec<Sketch>> {
    let k = effective_sketch_k(opts);
    std::sync::Arc::new(
        rules.iter().map(|r| pattern_sketch(r.antecedent(), r.antecedent().x(), k)).collect(),
    )
}

/// Evaluates one candidate site against all rules of Σ.
pub struct CandidateEvaluator<'r> {
    rules: &'r [Gpar],
    pred: Predicate,
    opts: MatchOpts,
    plan: Option<SharingPlan>,
    /// Antecedent sketches at `x`, for the candidate-level prefilter
    /// (shareable across evaluators, see [`antecedent_sketches`]).
    ante_sketches: std::sync::Arc<Vec<Sketch>>,
    sketch_k: u32,
    /// Pattern sketches shared across the per-site matchers (they do not
    /// depend on the data graph).
    psketch_cache: gpar_iso::PatternSketchCache,
    /// Search-state arena shared across the per-site matchers: candidate
    /// stacks, mark buffers and traversal scratch survive the thousands
    /// of matcher invocations a worker makes per round.
    scratch: gpar_iso::SharedScratch,
}

impl<'r> CandidateEvaluator<'r> {
    /// Prepares the evaluator (sharing plan + pattern sketches are built
    /// once and reused across all candidates of a worker).
    pub fn new(rules: &'r [Gpar], opts: MatchOpts) -> Self {
        let plan = opts.subpattern_sharing.then(|| SharingPlan::build(rules));
        Self::with_plan_opt(rules, opts, plan)
    }

    /// Replaces the internal pattern-sketch cache with a caller-provided
    /// one. Successive evaluators over the *same rules on the same
    /// thread* (the serving layer builds one per request) then reuse
    /// pattern-side sketches instead of re-deriving them; the cache is
    /// `Rc`-based and must stay thread-local.
    pub fn with_pattern_cache(mut self, cache: gpar_iso::PatternSketchCache) -> Self {
        self.psketch_cache = cache;
        self
    }

    /// Replaces the internal search-state arena with a caller-provided
    /// one (see [`gpar_iso::SharedScratch`]). Like the pattern cache,
    /// successive evaluators on one thread then reuse search buffers
    /// instead of regrowing them per evaluator; `Rc`-based, thread-local.
    pub fn with_scratch(mut self, scratch: gpar_iso::SharedScratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// As [`CandidateEvaluator::new`] but reusing a pre-built
    /// [`SharingPlan`] (skipping the `|Σ|²` pairwise subsumption tests)
    /// and antecedent sketches pre-built with [`antecedent_sketches`] for
    /// the *same `(rules, opts)`*. This is the serving layer's
    /// per-request constructor: both inputs are built once per catalog
    /// rule group, so constructing an evaluator does no per-rule work.
    ///
    /// The plan must have been built for exactly this `rules` slice
    /// (same contents, same order); it is ignored when
    /// `opts.subpattern_sharing` is off.
    pub fn with_plan_and_sketches(
        rules: &'r [Gpar],
        opts: MatchOpts,
        plan: SharingPlan,
        ante_sketches: std::sync::Arc<Vec<Sketch>>,
    ) -> Self {
        assert_eq!(ante_sketches.len(), rules.len(), "sketches must align with rules");
        let plan = opts.subpattern_sharing.then_some(plan);
        Self {
            rules,
            pred: *rules[0].predicate(),
            opts,
            plan,
            ante_sketches,
            sketch_k: effective_sketch_k(&opts),
            psketch_cache: gpar_iso::PatternSketchCache::default(),
            scratch: gpar_iso::SharedScratch::default(),
        }
    }

    fn with_plan_opt(rules: &'r [Gpar], opts: MatchOpts, plan: Option<SharingPlan>) -> Self {
        Self {
            rules,
            pred: *rules[0].predicate(),
            opts,
            plan,
            ante_sketches: antecedent_sketches(rules, &opts),
            sketch_k: effective_sketch_k(&opts),
            psketch_cache: gpar_iso::PatternSketchCache::default(),
            scratch: gpar_iso::SharedScratch::default(),
        }
    }

    /// The consequent predicate shared by Σ.
    pub fn predicate(&self) -> &Predicate {
        &self.pred
    }

    /// Evaluates all rules at one candidate inside its site.
    pub fn evaluate(&self, cs: &CenterSite) -> CandidateOutcome {
        let g = cs.graph();
        let center = cs.center;
        let class = classify(g, &self.pred, center)
            .expect("candidates satisfy x's condition by construction");
        let n = self.rules.len();
        let mut q_member = vec![false; n];
        let mut pr_member = vec![false; n];
        let matcher = Matcher::new(g, self.opts.engine)
            .with_shared_pattern_cache(self.psketch_cache.clone())
            .with_scratch(self.scratch.clone());
        // Candidate-level sketch prefilter: built once per candidate,
        // through the shared arena's traversal scratch.
        let center_sketch = self.opts.sketch_guidance.then(|| {
            self.scratch.with_neighborhood(|nbr| Sketch::build_with(g, center, self.sketch_k, nbr))
        });

        let default_order: Vec<usize>;
        let order: &[usize] = match &self.plan {
            Some(p) => &p.order,
            None => {
                default_order = (0..n).collect();
                &default_order
            }
        };
        for &r in order {
            let rule = &self.rules[r];
            // Sharing: a failed embedded antecedent implies failure here.
            if let Some(plan) = &self.plan {
                if plan.dominators[r].iter().any(|&ddom| !q_member[ddom]) {
                    continue;
                }
            }
            // Sketch prefilter on the antecedent demand at x.
            if let Some(cs) = &center_sketch {
                if !cs.covers(&self.ante_sketches[r]) {
                    continue;
                }
            }
            let q = rule.antecedent();
            let in_q = if self.opts.early_termination {
                matcher.exists_anchored(q, q.x(), center)
            } else {
                matcher.count_anchored(q, q.x(), center, None) > 0
            };
            q_member[r] = in_q;
            // P_R membership: only positives can match (P_R contains the
            // consequent edge). disVF2 checks unconditionally — its
            // second full enumeration per candidate.
            let need_pr =
                if self.opts.double_check { true } else { in_q && class == LcwaClass::Positive };
            if need_pr {
                let pr = rule.pr();
                pr_member[r] = if self.opts.early_termination {
                    matcher.exists_anchored(pr, pr.x(), center)
                } else {
                    matcher.count_anchored(pr, pr.x(), center, None) > 0
                };
            }
        }
        CandidateOutcome { class, q_member, pr_member }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::EipAlgorithm;
    use gpar_graph::{GraphBuilder, NodeId, Vocab};
    use gpar_pattern::PatternBuilder;

    /// Graph: c1 likes+visits r; has friend c2 who likes r.
    /// Rules: R_a: like(x,y) ⇒ visit; R_b: like(x,y) ∧ friend(x,x2) ∧
    /// like(x2, y) ⇒ visit. R_a's antecedent embeds in R_b's.
    fn setup() -> (gpar_graph::Graph, Vec<Gpar>, NodeId, NodeId) {
        let vocab = Vocab::new();
        let cust = vocab.intern("cust");
        let rest = vocab.intern("rest");
        let (like, visit, friend) =
            (vocab.intern("like"), vocab.intern("visit"), vocab.intern("friend"));
        let mut b = GraphBuilder::new(vocab.clone());
        let c1 = b.add_node(cust);
        let c2 = b.add_node(cust);
        let r = b.add_node(rest);
        b.add_edge(c1, r, like);
        b.add_edge(c1, r, visit);
        b.add_edge(c1, c2, friend);
        b.add_edge(c2, r, like);
        let g = b.build();

        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node(cust);
        let y = pb.node(rest);
        pb.edge(x, y, like);
        let ra = Gpar::new(pb.designate(x, y).build().unwrap(), visit).unwrap();

        let mut pb = PatternBuilder::new(vocab);
        let x = pb.node(cust);
        let y = pb.node(rest);
        let x2 = pb.node(cust);
        pb.edge(x, y, like);
        pb.edge(x, x2, friend);
        pb.edge(x2, y, like);
        let rb = Gpar::new(pb.designate(x, y).build().unwrap(), visit).unwrap();
        (g, vec![rb, ra], c1, c2)
    }

    #[test]
    fn sharing_plan_orders_by_size_and_finds_dominators() {
        let (_, rules, _, _) = setup();
        let plan = SharingPlan::build(&rules);
        // rules[1] (R_a, 1 edge) must be evaluated before rules[0] (R_b).
        assert_eq!(plan.order, vec![1, 0]);
        assert_eq!(plan.dominators[0], vec![1], "R_a dominates R_b");
        assert!(plan.dominators[1].is_empty());
    }

    #[test]
    fn all_algorithms_agree_on_memberships() {
        let (g, rules, c1, c2) = setup();
        let d = 2;
        for algo in
            [EipAlgorithm::Match, EipAlgorithm::Matchs, EipAlgorithm::Matchc, EipAlgorithm::DisVf2]
        {
            let ev = CandidateEvaluator::new(&rules, MatchOpts::for_algorithm(algo));
            let s1 = gpar_partition::CenterSite::build(&g, c1, d);
            let o1 = ev.evaluate(&s1);
            assert_eq!(o1.class, LcwaClass::Positive, "{algo:?}");
            assert_eq!(o1.q_member, vec![true, true], "{algo:?}");
            assert_eq!(o1.pr_member, vec![true, true], "{algo:?}");
            let s2 = gpar_partition::CenterSite::build(&g, c2, d);
            let o2 = ev.evaluate(&s2);
            assert_eq!(o2.class, LcwaClass::Unknown, "{algo:?}");
            // c2 likes r but has no friend with a like: matches R_a's
            // antecedent only.
            assert_eq!(o2.q_member, vec![false, true], "{algo:?}");
            assert_eq!(o2.pr_member, vec![false, false], "{algo:?}");
        }
    }

    #[test]
    fn sharing_skips_dominated_rules_after_failure() {
        // A candidate with no like edge at all: R_a fails, so R_b must be
        // skipped (and stay false) without searching.
        let (g0, rules, _, _) = setup();
        let vocab = g0.vocab().clone();
        let cust = vocab.get("cust").unwrap();
        let friend = vocab.get("friend").unwrap();
        let mut b = GraphBuilder::new(vocab);
        let lonely = b.add_node(cust);
        let other = b.add_node(cust);
        b.add_edge(lonely, other, friend);
        let g = b.build();
        let ev = CandidateEvaluator::new(&rules, MatchOpts::for_algorithm(EipAlgorithm::Match));
        let s = gpar_partition::CenterSite::build(&g, lonely, 2);
        let o = ev.evaluate(&s);
        assert_eq!(o.q_member, vec![false, false]);
    }
}
