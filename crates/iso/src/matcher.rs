//! The backtracking subgraph-isomorphism matcher.
//!
//! ## Hot-path design
//!
//! The per-step search loop ([`Matcher::go`] → `gen_candidates_into`) is
//! allocation-free on the steady-state path: all search state lives in a
//! reusable [`ScratchArena`] (shareable across matchers on one thread via
//! [`SharedScratch`]), candidate lists are segments of one shared stack,
//! and candidate generation runs a *smallest-run* sorted intersection
//! over the graph's `(label, endpoint)`-sorted CSR adjacency slices: the
//! mapped pattern neighbor with the smallest label-filtered run seeds the
//! segment, every other labeled constraint is merged in with a two-pointer
//! pass, and only wildcard constraints plus node conditions remain as
//! per-candidate probes. Candidates that survive are *fully verified* —
//! the assignment loop only re-checks injectivity.
//!
//! The previous generate-then-filter pipeline (smallest adjacency list
//! copied out, then per-candidate edge probes at assignment time) is kept
//! behind [`MatcherConfig::legacy_filter_gen`] as a differential-testing
//! oracle.

use crate::order::visit_order_into as visit_order;
use crate::scratch::{ScratchArena, SharedScratch};
use gpar_graph::{Edge, FxHashMap, FxHashSet, Graph, Label, NeighborhoodScratch, NodeId, Sketch};
use gpar_pattern::{pattern_sketch, EdgeCond, NodeCond, PNodeId, Pattern};
use std::cell::RefCell;
use std::ops::ControlFlow;

/// Which search strategy to use. See the crate docs for the mapping to the
/// paper's algorithm names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// VF2-style: connectivity-driven order, most-constrained-first
    /// tie-break, candidates in adjacency order.
    Vf2,
    /// Static degree-based variable order (the vertex-relationship
    /// heuristic in the spirit of Ren & Wang [38]; the paper's `Matchs`).
    DegreeOrdered,
    /// Guided search (§5.2): k-hop-sketch candidate *pruning* plus
    /// best-surplus-first candidate ordering with backtracking.
    Guided,
}

/// Matcher configuration.
#[derive(Debug, Clone, Copy)]
pub struct MatcherConfig {
    /// Search strategy.
    pub kind: EngineKind,
    /// Sketch depth `k` for [`EngineKind::Guided`].
    pub sketch_k: u32,
    /// Whether guided search prunes candidates whose sketch cannot cover
    /// the pattern's sketch (`D_i − D'_i < 0` ⇒ mismatch).
    pub sketch_prune: bool,
    /// Minimum branching factor before guided search scores/sorts
    /// candidates by sketch surplus. Scoring every tiny candidate list
    /// costs more than it saves; the anchor-level prefilter still applies
    /// regardless.
    pub guided_min_branch: usize,
    /// Use the pre-intersection generate-then-filter candidate pipeline.
    /// Slower (kept out of the steady-state path); exists so differential
    /// tests can pit the intersection-based generator against the
    /// original implementation on identical searches.
    pub legacy_filter_gen: bool,
}

impl MatcherConfig {
    /// Baseline VF2 configuration.
    pub fn vf2() -> Self {
        Self {
            kind: EngineKind::Vf2,
            sketch_k: 0,
            sketch_prune: false,
            guided_min_branch: 0,
            legacy_filter_gen: false,
        }
    }

    /// Degree-ordered configuration (the paper's `Matchs` flavor).
    pub fn degree_ordered() -> Self {
        Self {
            kind: EngineKind::DegreeOrdered,
            sketch_k: 0,
            sketch_prune: false,
            guided_min_branch: 0,
            legacy_filter_gen: false,
        }
    }

    /// Guided-search configuration with 2-hop sketches (the paper's
    /// default; Example 10 uses `k = 2`).
    pub fn guided() -> Self {
        Self {
            kind: EngineKind::Guided,
            sketch_k: 2,
            sketch_prune: true,
            guided_min_branch: 24,
            legacy_filter_gen: false,
        }
    }

    /// This configuration with the legacy generate-then-filter candidate
    /// pipeline (differential-testing oracle).
    pub fn with_legacy_gen(mut self) -> Self {
        self.legacy_filter_gen = true;
        self
    }
}

impl Default for MatcherConfig {
    fn default() -> Self {
        Self::vf2()
    }
}

/// A shareable cache of pattern-side sketches, keyed by a structural
/// fingerprint of the pattern. Pattern sketches do not depend on the data
/// graph, so callers evaluating many small graphs (one per candidate
/// site, as EIP does) should create one cache per thread and share it
/// across matchers via [`Matcher::with_shared_pattern_cache`].
pub type PatternSketchCache = std::rc::Rc<RefCell<FxHashMap<Vec<u64>, std::rc::Rc<Vec<Sketch>>>>>;

/// A reusable matcher bound to one data graph.
///
/// The matcher owns a lazily filled cache of data-node sketches for guided
/// search; create one matcher per fragment/thread and reuse it across
/// candidates and rules to amortize sketch construction (matching the
/// paper's precomputed `K(v)`). Workloads that rebuild matchers per site
/// graph should additionally share one [`SharedScratch`] per thread via
/// [`Matcher::with_scratch`] so search buffers survive the rebuilds.
pub struct Matcher<'g> {
    g: &'g Graph,
    cfg: MatcherConfig,
    cache: RefCell<FxHashMap<NodeId, Sketch>>,
    /// Lazily created so matchers that never run guided search (or that
    /// get a shared cache) allocate nothing here.
    pattern_cache: RefCell<Option<PatternSketchCache>>,
    /// Shared arena handle, if the caller provided one.
    scratch: Option<SharedScratch>,
    /// Fallback arena for unshared matchers, built on first search.
    own_arena: RefCell<Option<Box<ScratchArena>>>,
}

impl<'g> Matcher<'g> {
    /// Creates a matcher over `g`. Construction is allocation-free; all
    /// caches and search state are built lazily or supplied shared.
    pub fn new(g: &'g Graph, cfg: MatcherConfig) -> Self {
        Self {
            g,
            cfg,
            cache: RefCell::new(FxHashMap::default()),
            pattern_cache: RefCell::new(None),
            scratch: None,
            own_arena: RefCell::new(None),
        }
    }

    /// Replaces the pattern-sketch cache with a shared one (see
    /// [`PatternSketchCache`]).
    pub fn with_shared_pattern_cache(self, cache: PatternSketchCache) -> Self {
        *self.pattern_cache.borrow_mut() = Some(cache);
        self
    }

    /// Replaces the search-state arena with a shared one (see
    /// [`SharedScratch`]): matchers built per site graph on one thread
    /// then reuse candidate stacks and mark buffers instead of
    /// reallocating them per search.
    pub fn with_scratch(mut self, scratch: SharedScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Checks the search arena out (shared cell, own cell, or fresh).
    fn take_arena(&self) -> Box<ScratchArena> {
        match &self.scratch {
            Some(s) => s.take(),
            None => self.own_arena.borrow_mut().take().unwrap_or_default(),
        }
    }

    /// Parks the search arena back after a search.
    fn put_arena(&self, arena: Box<ScratchArena>) {
        match &self.scratch {
            Some(s) => s.put(arena),
            None => *self.own_arena.borrow_mut() = Some(arena),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The configuration in force.
    pub fn config(&self) -> MatcherConfig {
        self.cfg
    }

    /// All data nodes satisfying the condition of pattern node `u`,
    /// served from the graph's label-partitioned node index.
    pub fn candidates(&self, p: &Pattern, u: PNodeId) -> Vec<NodeId> {
        match p.cond(u) {
            NodeCond::Label(l) => self.g.nodes_with_label_slice(l).to_vec(),
            NodeCond::Any => self.g.nodes().collect(),
        }
    }

    /// Whether at least one match maps `u ↦ v` (early termination at the
    /// first witness — the `Match` optimization of §5.2).
    pub fn exists_anchored(&self, p: &Pattern, u: PNodeId, v: NodeId) -> bool {
        let mut found = false;
        self.run_anchored(p, u, v, &mut |_| {
            found = true;
            ControlFlow::Break(())
        });
        found
    }

    /// Enumerates every match mapping `u ↦ v`. The callback receives the
    /// complete assignment (indexed by pattern node) and may stop the
    /// enumeration by returning [`ControlFlow::Break`].
    pub fn enumerate_anchored(
        &self,
        p: &Pattern,
        u: PNodeId,
        v: NodeId,
        cb: &mut dyn FnMut(&[NodeId]) -> ControlFlow<()>,
    ) {
        self.run_anchored(p, u, v, cb);
    }

    /// Counts matches mapping `u ↦ v`, up to an optional cap (full
    /// enumeration, as the `Matchc`/`disVF2` baselines perform). The
    /// result never exceeds the cap; `Some(0)` means "stop now" and
    /// returns 0 without searching (an exhausted cap handed down by
    /// [`Matcher::count_matches`] is not the same as `None` = uncapped).
    pub fn count_anchored(&self, p: &Pattern, u: PNodeId, v: NodeId, cap: Option<u64>) -> u64 {
        if cap == Some(0) {
            return 0;
        }
        let mut n = 0u64;
        self.run_anchored(p, u, v, &mut |_| {
            n += 1;
            match cap {
                Some(c) if n >= c => ControlFlow::Break(()),
                _ => ControlFlow::Continue(()),
            }
        });
        n
    }

    /// `Q(u, G)`: the distinct images of pattern node `u` across all
    /// matches, computed with early termination per candidate.
    pub fn images(&self, p: &Pattern, u: PNodeId) -> FxHashSet<NodeId> {
        self.images_among(p, u, self.candidates(p, u).into_iter())
    }

    /// As [`Matcher::images`] but restricted to the given candidates.
    pub fn images_among(
        &self,
        p: &Pattern,
        u: PNodeId,
        candidates: impl Iterator<Item = NodeId>,
    ) -> FxHashSet<NodeId> {
        candidates.filter(|&v| self.exists_anchored(p, u, v)).collect()
    }

    /// `Q(u, G)` computed by *full enumeration per candidate* — the cost
    /// profile of the `disVF2` baseline, which enumerates all isomorphic
    /// matches instead of stopping at the first.
    pub fn images_by_full_enumeration(&self, p: &Pattern, u: PNodeId) -> FxHashSet<NodeId> {
        let mut out = FxHashSet::default();
        for v in self.candidates(p, u) {
            if self.count_anchored(p, u, v, None) > 0 {
                out.insert(v);
            }
        }
        out
    }

    /// Counts all matches of `p` in the graph (`‖Q(G)‖`), up to `cap`.
    /// The result never exceeds the cap; a cap of `Some(0)` returns 0
    /// without enumerating any candidate.
    pub fn count_matches(&self, p: &Pattern, cap: Option<u64>) -> u64 {
        let mut n = 0u64;
        for v in self.candidates(p, p.x()) {
            // The remaining budget is strictly positive here (`n < c` or
            // we returned below), so the per-candidate call can never
            // confuse an exhausted cap with "no cap".
            n += self.count_anchored(p, p.x(), v, cap.map(|c| c.saturating_sub(n)));
            if let Some(c) = cap {
                if n >= c {
                    return c;
                }
            }
        }
        n
    }

    /// Enumerates all matches of `p` (anchorless).
    pub fn enumerate(&self, p: &Pattern, cb: &mut dyn FnMut(&[NodeId]) -> ControlFlow<()>) {
        for v in self.candidates(p, p.x()) {
            let mut stop = false;
            self.run_anchored(p, p.x(), v, &mut |m| {
                let flow = cb(m);
                if flow.is_break() {
                    stop = true;
                }
                flow
            });
            if stop {
                return;
            }
        }
    }

    fn run_anchored(
        &self,
        p: &Pattern,
        u: PNodeId,
        v: NodeId,
        cb: &mut dyn FnMut(&[NodeId]) -> ControlFlow<()>,
    ) {
        // Check the arena out of its cell for the whole search: a
        // re-entrant matcher call from the callback finds the cell empty
        // and falls back to a fresh arena instead of aliasing this one.
        let mut arena = self.take_arena();
        arena.begin(p.node_count(), self.g.node_count());
        // Pattern-derived search state (visit order, degree requirements,
        // node flags) depends only on (pattern, anchor, order flavor) —
        // which is constant across the thousands of candidate probes a
        // round makes — so it is kept in the arena under the pattern's
        // structural fingerprint: the active slot serves the steady state
        // (one pattern probed at every candidate), and the keyed
        // multi-entry cache serves alternating workloads (EIP switching
        // between `Q` and `P_R` per rule); only a miss in both recomputes.
        let prefer_degree = self.cfg.kind != EngineKind::Vf2;
        build_pattern_key(p, self.cfg.sketch_k, &mut arena.key);
        if (arena.key != arena.meta_key
            || u.0 != arena.meta_anchor
            || prefer_degree != arena.meta_prefer)
            && !arena.switch_meta(u.0, prefer_degree)
        {
            arena.meta_recomputes += 1;
            compute_pattern_meta(p, &mut arena.deg_req, &mut arena.node_flags);
            compute_label_requirements(p, &mut arena.lab_req, &mut arena.lab_req_offsets);
            {
                let ScratchArena { order, placed, conn, .. } = &mut *arena;
                visit_order(p, u, prefer_degree, order, placed, conn);
            }
            let ScratchArena { key, meta_key, .. } = &mut *arena;
            std::mem::swap(key, meta_key);
            arena.meta_anchor = u.0;
            arena.meta_prefer = prefer_degree;
        }
        'search: {
            if !self.node_feasible(p, u, v, &arena) {
                break 'search;
            }
            // The anchor is assigned without going through the candidate
            // generator, so its self-loop edges must be verified here.
            for &(dst, cond) in p.out(u) {
                if dst == u && !self.edge_exists(v, v, cond) {
                    break 'search;
                }
            }
            let psketches = if self.cfg.kind == EngineKind::Guided {
                Some(self.pattern_sketches(p, &arena.meta_key))
            } else {
                None
            };
            let proceed = match &psketches {
                Some(ps) if self.cfg.sketch_prune => {
                    self.data_sketch_covers(v, &ps[u.index()], &mut arena.nbr)
                }
                _ => true,
            };
            if proceed {
                arena.assign(u.index(), v);
                let psk: Option<&[Sketch]> = psketches.as_ref().map(|r| r.as_slice());
                let _ = self.go(p, 1, &mut arena, psk, cb);
            }
        }
        self.put_arena(arena);
    }

    /// Cached per-pattern-node sketches, keyed by the structural
    /// fingerprint of the pattern (see [`build_pattern_key`] — the same
    /// key that guards the arena's pattern metadata), so equal patterns
    /// share one entry regardless of allocation identity. Cache hits
    /// allocate nothing.
    fn pattern_sketches(&self, p: &Pattern, key: &[u64]) -> std::rc::Rc<Vec<Sketch>> {
        let cache = self.pattern_cache.borrow_mut().get_or_insert_with(Default::default).clone();
        if let Some(hit) = cache.borrow().get(key) {
            return hit.clone();
        }
        let built = std::rc::Rc::new(
            p.nodes().map(|pu| pattern_sketch(p, pu, self.cfg.sketch_k)).collect::<Vec<_>>(),
        );
        cache.borrow_mut().insert(key.to_vec(), built.clone());
        built
    }

    fn go(
        &self,
        p: &Pattern,
        pos: usize,
        st: &mut ScratchArena,
        psk: Option<&[Sketch]>,
        cb: &mut dyn FnMut(&[NodeId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if pos == st.order.len() {
            st.out.clear();
            st.out.extend_from_slice(&st.map);
            return cb(&st.out);
        }
        let u = st.order[pos];
        let (start, verified) = self.gen_candidates_into(p, u, st);
        self.rank_segment(u, st, start, psk);
        let mut flow = ControlFlow::Continue(());
        // The segment is fixed during iteration: deeper frames push above
        // `end` and truncate back before returning.
        let end = st.cand.len();
        let mut i = start;
        while i < end {
            let v = st.cand[i];
            i += 1;
            // Intersection-path candidates are fully verified at
            // generation time (injectivity included — the used-set cannot
            // change between generation and this loop: siblings and
            // deeper frames unassign before the next candidate runs).
            // The legacy generate-then-filter path re-verifies here.
            if !verified {
                if st.used.contains(v) {
                    st.cand_pruned += 1;
                    continue;
                }
                if !self.assign_feasible(p, u, v, st) {
                    st.cand_pruned += 1;
                    continue;
                }
            }
            st.assign(u.index(), v);
            let f = self.go(p, pos + 1, st, psk, cb);
            st.unassign(u.index(), v);
            if f.is_break() {
                flow = f;
                break;
            }
        }
        st.cand.truncate(start);
        flow
    }

    /// Pushes the candidate segment for pattern node `u` onto the arena's
    /// stack, returning `(segment_start, fully_verified)`.
    ///
    /// Intersection path: the mapped pattern neighbor with the smallest
    /// label-filtered adjacency run seeds the segment; every other
    /// labeled constraint is intersected in with a two-pointer merge over
    /// the `(label, endpoint)`-sorted CSR runs; wildcard constraints,
    /// node conditions and self-loops are verified per survivor. The
    /// returned candidates need no further structural checks.
    fn gen_candidates_into(&self, p: &Pattern, u: PNodeId, st: &mut ScratchArena) -> (usize, bool) {
        let start = st.cand.len();
        if self.cfg.legacy_filter_gen {
            self.gen_candidates_legacy(p, u, st);
            return (start, false);
        }
        // 1. Smallest-run selection over the mapped-neighbor constraints.
        //    `incoming_of_m` selects which side of the pattern edge the
        //    mapped node plays (candidates sit on the other side).
        // The chosen run is retained (it borrows the graph, `'g`, not
        // `self`) so the winner is never re-derived.
        let mut base: Option<(&'g [Edge], NodeId, EdgeCond, bool)> = None;
        let mut n_constraints = 0usize;
        for &(dst, cond) in p.out(u) {
            if dst == u {
                continue; // self-loop: checked per candidate below
            }
            if let Some(m) = st.mapped(dst.index()) {
                n_constraints += 1;
                let run = self.adjacent_slice(m, cond, true);
                if base.is_none_or(|b| run.len() < b.0.len()) {
                    base = Some((run, m, cond, true));
                }
            }
        }
        for &(src, cond) in p.inn(u) {
            if src == u {
                continue;
            }
            if let Some(m) = st.mapped(src.index()) {
                n_constraints += 1;
                let run = self.adjacent_slice(m, cond, false);
                if base.is_none_or(|b| run.len() < b.0.len()) {
                    base = Some((run, m, cond, false));
                }
            }
        }
        // Fast path: one labeled constraint (tree-shaped steps, the common
        // case) — its run is already unique and sorted, so verify straight
        // off the CSR slice with no working-set copies.
        if n_constraints == 1 {
            if let Some((run, _, EdgeCond::Label(_), _)) = base {
                self.push_verified_bulk(p, u, st, run.iter().map(|e| e.node), false);
                return (start, true);
            }
        }
        let Some((brun, bm, bcond, binc)) = base else {
            // No mapped neighbor (disconnected component start): seed from
            // the label-partitioned node index.
            match p.cond(u) {
                NodeCond::Label(l) => {
                    let run = self.g.nodes_with_label_slice(l);
                    self.push_verified_bulk(p, u, st, run.iter().copied(), false);
                }
                NodeCond::Any => {
                    let all = self.g.nodes();
                    self.push_verified_bulk(p, u, st, all, false);
                }
            }
            return (start, true);
        };
        // 2. Seed the working set with the base run (ascending node ids).
        st.tmp.clear();
        st.tmp.extend(brun.iter().map(|e| e.node));
        if matches!(bcond, EdgeCond::Any) {
            // A wildcard run spans several label runs; the same endpoint
            // can repeat under different labels.
            st.tmp.sort_unstable();
            st.tmp.dedup();
        }
        // 3. Sorted-run intersection with every other labeled constraint.
        let mut base_pending = true;
        let mut has_wildcard = false;
        for side in 0..2 {
            let edges = if side == 0 { p.out(u) } else { p.inn(u) };
            let incoming_of_m = side == 0;
            for &(other, cond) in edges {
                if other == u {
                    continue;
                }
                let Some(m) = st.mapped(other.index()) else { continue };
                if base_pending && m == bm && cond == bcond && incoming_of_m == binc {
                    base_pending = false;
                    continue; // the base constraint holds by construction
                }
                match cond {
                    EdgeCond::Label(_) => {
                        let run = self.adjacent_slice(m, cond, incoming_of_m);
                        intersect_run(&mut st.tmp, &mut st.tmp2, run);
                        if st.tmp.is_empty() {
                            return (start, true);
                        }
                    }
                    EdgeCond::Any => has_wildcard = true,
                }
            }
        }
        // 4. Per-survivor verification: node condition + degree bounds,
        //    self-loops, and any wildcard constraints left over.
        let tmp = std::mem::take(&mut st.tmp);
        self.push_verified_bulk(p, u, st, tmp.iter().copied(), has_wildcard);
        st.tmp = tmp;
        (start, true)
    }

    /// Bulk candidate verification: when pattern node `u` has no
    /// self-loops, no wildcard constraints to check and no labeled-degree
    /// demands, every per-candidate invariant (node condition, degree
    /// requirements) is hoisted out of the loop and the segment is filled
    /// in one tight pass; otherwise falls back to the general per-item
    /// verifier.
    fn push_verified_bulk(
        &self,
        p: &Pattern,
        u: PNodeId,
        st: &mut ScratchArena,
        nodes: impl Iterator<Item = NodeId>,
        check_wildcards: bool,
    ) {
        let ui = u.index();
        let simple = st.node_flags[ui] == 0
            && st.lab_req_offsets[ui] == st.lab_req_offsets[ui + 1]
            && !check_wildcards;
        if !simple {
            for v in nodes {
                st.cand_generated += 1;
                let before = st.cand.len();
                self.push_verified(p, u, v, st, check_wildcards);
                if st.cand.len() == before {
                    st.cand_pruned += 1;
                }
            }
            return;
        }
        let (out_req, in_req) = st.deg_req[ui];
        let (out_req, in_req) = (out_req as usize, in_req as usize);
        let ScratchArena { cand, used, cand_generated, cand_pruned, .. } = st;
        match p.cond(u) {
            NodeCond::Label(lc) => {
                for v in nodes {
                    *cand_generated += 1;
                    if self.g.node_label(v) == lc
                        && self.g.out_degree(v) >= out_req
                        && self.g.in_degree(v) >= in_req
                        && !used.contains(v)
                    {
                        cand.push(v);
                    } else {
                        *cand_pruned += 1;
                    }
                }
            }
            NodeCond::Any => {
                for v in nodes {
                    *cand_generated += 1;
                    if self.g.out_degree(v) >= out_req
                        && self.g.in_degree(v) >= in_req
                        && !used.contains(v)
                    {
                        cand.push(v);
                    } else {
                        *cand_pruned += 1;
                    }
                }
            }
        }
    }

    /// Verifies `v` as a candidate for `u` (node condition, degree
    /// bounds, self-loop edges and — when `check_wildcards` — wildcard
    /// edges to mapped neighbors) and pushes it onto the segment. The
    /// per-search node flags skip the edge scans entirely for the common
    /// case (no self-loops, no wildcard constraints).
    fn push_verified(
        &self,
        p: &Pattern,
        u: PNodeId,
        v: NodeId,
        st: &mut ScratchArena,
        check_wildcards: bool,
    ) {
        if st.used.contains(v) || !self.node_feasible(p, u, v, st) {
            return;
        }
        let flags = st.node_flags[u.index()];
        if flags & crate::scratch::SELF_LOOP != 0 {
            // Self-loop edges: u maps to v on both ends (any condition).
            for &(dst, cond) in p.out(u) {
                if dst == u && !self.edge_exists(v, v, cond) {
                    return;
                }
            }
        }
        if check_wildcards {
            if flags & crate::scratch::WILD_OUT != 0 {
                for &(dst, cond) in p.out(u) {
                    if dst != u && cond == EdgeCond::Any {
                        if let Some(m) = st.mapped(dst.index()) {
                            if !self.edge_exists(v, m, cond) {
                                return;
                            }
                        }
                    }
                }
            }
            if flags & crate::scratch::WILD_IN != 0 {
                for &(src, cond) in p.inn(u) {
                    if src != u && cond == EdgeCond::Any {
                        if let Some(m) = st.mapped(src.index()) {
                            if !self.edge_exists(m, v, cond) {
                                return;
                            }
                        }
                    }
                }
            }
        }
        st.cand.push(v);
    }

    /// The original generate-then-filter candidate generator: copy out
    /// the smallest mapped-neighbor adjacency list and let the assignment
    /// loop re-verify every structural condition per candidate. Kept as a
    /// differential-testing oracle ([`MatcherConfig::legacy_filter_gen`]).
    /// Counts the whole raw segment as generated; the re-filter in `go`
    /// counts its rejects as pruned.
    fn gen_candidates_legacy(&self, p: &Pattern, u: PNodeId, st: &mut ScratchArena) {
        let seg_start = st.cand.len();
        self.gen_candidates_legacy_inner(p, u, st);
        st.cand_generated += (st.cand.len() - seg_start) as u64;
    }

    fn gen_candidates_legacy_inner(&self, p: &Pattern, u: PNodeId, st: &mut ScratchArena) {
        let mut best: Option<(usize, NodeId, EdgeCond, bool)> = None;
        for &(dst, cond) in p.out(u) {
            if let Some(m) = st.mapped(dst.index()) {
                let len = self.adjacent_slice(m, cond, true).len();
                if best.is_none_or(|b| len < b.0) {
                    best = Some((len, m, cond, true));
                }
            }
        }
        for &(src, cond) in p.inn(u) {
            if let Some(m) = st.mapped(src.index()) {
                let len = self.adjacent_slice(m, cond, false).len();
                if best.is_none_or(|b| len < b.0) {
                    best = Some((len, m, cond, false));
                }
            }
        }
        match best {
            Some((_, m, cond, inc)) => {
                st.tmp.clear();
                st.tmp.extend(self.adjacent_slice(m, cond, inc).iter().map(|e| e.node));
                if matches!(cond, EdgeCond::Any) {
                    st.tmp.sort_unstable();
                    st.tmp.dedup();
                }
                let tmp = std::mem::take(&mut st.tmp);
                st.cand.extend_from_slice(&tmp);
                st.tmp = tmp;
            }
            // No mapped neighbor: full label scan (disconnected component
            // start).
            None => match p.cond(u) {
                NodeCond::Label(l) => {
                    st.cand.extend_from_slice(self.g.nodes_with_label_slice(l));
                }
                NodeCond::Any => st.cand.extend(self.g.nodes()),
            },
        }
    }

    /// The CSR adjacency run of data node `m` matching `cond`;
    /// `incoming_of_m` selects which side of the pattern edge `m` plays.
    /// Labeled runs are contiguous and sorted by endpoint id.
    fn adjacent_slice(&self, m: NodeId, cond: EdgeCond, incoming_of_m: bool) -> &'g [Edge] {
        match (cond, incoming_of_m) {
            (EdgeCond::Label(l), true) => self.g.in_edges_labeled(m, l),
            (EdgeCond::Label(l), false) => self.g.out_edges_labeled(m, l),
            (EdgeCond::Any, true) => self.g.in_edges(m),
            (EdgeCond::Any, false) => self.g.out_edges(m),
        }
    }

    /// Guided search: scores the candidate segment by sketch surplus,
    /// prunes mismatches, and sorts best-first (the paper's `f(u', v')`
    /// ranking). In-place on the arena segment.
    fn rank_segment(
        &self,
        u: PNodeId,
        st: &mut ScratchArena,
        start: usize,
        psk: Option<&[Sketch]>,
    ) {
        let Some(psk) = psk else { return };
        if st.cand.len() - start < self.cfg.guided_min_branch.max(2) {
            return;
        }
        let ps = &psk[u.index()];
        let ScratchArena { cand, scored, nbr, .. } = st;
        scored.clear();
        for &v in &cand[start..] {
            match self.data_sketch_surplus(v, ps, nbr) {
                Some(s) => scored.push((s, v)),
                None if self.cfg.sketch_prune => {} // mismatch ⇒ prune
                None => scored.push((i64::MIN, v)),
            }
        }
        // Best (largest surplus) first.
        scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        cand.truncate(start);
        cand.extend(scored.iter().map(|&(_, v)| v));
    }

    /// Node condition plus the degree pigeonhole. The degree bound is the
    /// precomputed *requirement* (see [`compute_pattern_meta`]),
    /// not the raw pattern degree: parallel pattern edges between one
    /// node pair can share a witnessing data edge when their conditions
    /// overlap (e.g. a wildcard next to a labeled edge), so counting raw
    /// edges over-prunes. (The pre-arena engine had exactly that bug; the
    /// differential suite's brute-force oracle pinned it down.)
    fn node_feasible(&self, p: &Pattern, u: PNodeId, v: NodeId, st: &ScratchArena) -> bool {
        let (out_req, in_req) = st.deg_req[u.index()];
        if !p.cond(u).matches(self.g.node_label(v))
            || out_req as usize > self.g.out_degree(v)
            || in_req as usize > self.g.in_degree(v)
        {
            return false;
        }
        // Labeled-degree requirements: the candidate must carry enough
        // edges of every label the pattern node demands — this prunes
        // nodes whose one matching edge got them generated but whose
        // label profile cannot support the remaining pattern edges.
        let lo = st.lab_req_offsets[u.index()] as usize;
        let hi = st.lab_req_offsets[u.index() + 1] as usize;
        st.lab_req[lo..hi].iter().all(|&(l, cnt, is_out)| {
            let run =
                if is_out { self.g.out_edges_labeled(v, l) } else { self.g.in_edges_labeled(v, l) };
            run.len() >= cnt as usize
        })
    }

    /// Legacy-path feasibility: full structural re-verification of `v`
    /// against the partial map (injectivity is checked by the caller).
    fn assign_feasible(&self, p: &Pattern, u: PNodeId, v: NodeId, st: &ScratchArena) -> bool {
        if !self.node_feasible(p, u, v, st) {
            return false;
        }
        // Self-loop pattern edges (dst == u) must be checked against v
        // itself: u is not yet in the partial map at this point.
        for &(dst, cond) in p.out(u) {
            let target = if dst == u { Some(v) } else { st.mapped(dst.index()) };
            if let Some(m) = target {
                if !self.edge_exists(v, m, cond) {
                    return false;
                }
            }
        }
        for &(src, cond) in p.inn(u) {
            if src == u {
                continue; // self-loop already verified above
            }
            if let Some(m) = st.mapped(src.index()) {
                if !self.edge_exists(m, v, cond) {
                    return false;
                }
            }
        }
        true
    }

    fn edge_exists(&self, s: NodeId, d: NodeId, cond: EdgeCond) -> bool {
        match cond {
            EdgeCond::Label(l) => self.g.has_edge(s, d, l),
            EdgeCond::Any => self.g.out_edges(s).iter().any(|e| e.node == d),
        }
    }

    fn with_data_sketch<R>(
        &self,
        v: NodeId,
        nbr: &mut NeighborhoodScratch,
        f: impl FnOnce(&Sketch) -> R,
    ) -> R {
        if let Some(s) = self.cache.borrow().get(&v) {
            return f(s);
        }
        let s = Sketch::build_with(self.g, v, self.cfg.sketch_k, nbr);
        let r = f(&s);
        self.cache.borrow_mut().insert(v, s);
        r
    }

    fn data_sketch_covers(&self, v: NodeId, ps: &Sketch, nbr: &mut NeighborhoodScratch) -> bool {
        self.with_data_sketch(v, nbr, |ds| ds.covers(ps))
    }

    fn data_sketch_surplus(
        &self,
        v: NodeId,
        ps: &Sketch,
        nbr: &mut NeighborhoodScratch,
    ) -> Option<i64> {
        self.with_data_sketch(v, nbr, |ds| ds.surplus(ps))
    }
}

/// Builds the structural fingerprint of `(pattern, sketch_k)` into a
/// reusable buffer: node conditions, a separator, then every edge. Equal
/// patterns produce equal keys regardless of allocation identity; the key
/// doubles as the pattern-sketch cache key and the guard for the arena's
/// cached per-pattern search metadata.
fn build_pattern_key(p: &Pattern, sketch_k: u32, key: &mut Vec<u64>) {
    key.clear();
    key.reserve(2 + p.node_count() + 3 * p.edge_count());
    key.push(sketch_k as u64);
    for u in p.nodes() {
        key.push(match p.cond(u) {
            NodeCond::Label(l) => l.0 as u64,
            NodeCond::Any => u64::MAX,
        });
    }
    key.push(u64::MAX - 1);
    for e in p.edges() {
        key.push(e.src.0 as u64);
        key.push(e.dst.0 as u64);
        key.push(match e.cond {
            EdgeCond::Label(l) => l.0 as u64,
            EdgeCond::Any => u64::MAX,
        });
    }
}

/// Computes per-pattern-node search metadata, recomputed only when the
/// arena's cached fingerprint changes (see `run_anchored`).
///
/// **Degree requirements** — the minimum (out, in) data degree any image
/// must have: for each *distinct* pattern neighbor, the number of
/// distinct labeled conditions on the parallel edges to it (at least 1 —
/// wildcard-only bundles share a single witnessing edge). Distinct mapped
/// neighbors force distinct data edges (node injectivity), and distinct
/// labels force distinct edges to one neighbor, so the sum is a sound
/// lower bound — unlike the raw edge count, which over-prunes when a
/// wildcard condition can share its witness with a labeled one.
///
/// **Node flags** — whether the node has self-loops / wildcard edges, so
/// the per-candidate verifier skips edge scans that cannot apply.
fn compute_pattern_meta(p: &Pattern, deg_req: &mut Vec<(u32, u32)>, flags: &mut Vec<u8>) {
    let requirement = |edges: &[(PNodeId, EdgeCond)]| -> u32 {
        let mut req = 0u32;
        for (i, &(v, _)) in edges.iter().enumerate() {
            if edges[..i].iter().any(|&(w, _)| w == v) {
                continue; // endpoint already accounted for
            }
            let mut labels = 0u32;
            for (j, &(w, c)) in edges.iter().enumerate() {
                if w != v {
                    continue;
                }
                if let EdgeCond::Label(_) = c {
                    if !edges[..j].iter().any(|&(w2, c2)| w2 == v && c2 == c) {
                        labels += 1;
                    }
                }
            }
            req += labels.max(1);
        }
        req
    };
    deg_req.clear();
    deg_req.extend(p.nodes().map(|u| (requirement(p.out(u)), requirement(p.inn(u)))));
    flags.clear();
    flags.extend(p.nodes().map(|u| {
        let mut f = 0u8;
        for &(dst, cond) in p.out(u) {
            if dst == u {
                f |= crate::scratch::SELF_LOOP;
            } else if cond == EdgeCond::Any {
                f |= crate::scratch::WILD_OUT;
            }
        }
        for &(src, cond) in p.inn(u) {
            if src != u && cond == EdgeCond::Any {
                f |= crate::scratch::WILD_IN;
            }
        }
        f
    }));
}

/// Computes the flattened per-node *labeled*-degree requirements: for
/// every label `l` on a pattern node's edges, the number of distinct
/// neighbors reached through an `l`-labeled edge. Any image must carry at
/// least that many `l`-labeled data edges on the matching side (distinct
/// neighbors map to distinct data nodes), which prunes candidates whose
/// one matching edge got them generated but whose label profile cannot
/// support the rest of the pattern.
fn compute_label_requirements(
    p: &Pattern,
    lab_req: &mut Vec<(Label, u32, bool)>,
    offsets: &mut Vec<u32>,
) {
    lab_req.clear();
    offsets.clear();
    offsets.push(0);
    let emit = |edges: &[(PNodeId, EdgeCond)], is_out: bool, out: &mut Vec<(Label, u32, bool)>| {
        for (i, &(v, c)) in edges.iter().enumerate() {
            let EdgeCond::Label(l) = c else { continue };
            // First occurrence of this label emits the count.
            if edges[..i].iter().any(|&(_, c2)| c2 == c) {
                continue;
            }
            let mut distinct = 0u32;
            for (j, &(w, c2)) in edges.iter().enumerate() {
                if c2 == c && !edges[..j].iter().any(|&(w2, c3)| c3 == c && w2 == w) {
                    distinct += 1;
                }
            }
            let _ = v;
            // A single-edge demand is almost always satisfied (the
            // candidate was usually *generated* from such an edge), so
            // the probe would cost more than it prunes; only multi-copy
            // demands are selective enough to pay for themselves.
            if distinct >= 2 {
                out.push((l, distinct, is_out));
            }
        }
    };
    for u in p.nodes() {
        emit(p.out(u), true, lab_req);
        emit(p.inn(u), false, lab_req);
        offsets.push(lab_req.len() as u32);
    }
}

/// Two-pointer intersection of the sorted working set with a labeled
/// adjacency run (both ascending by node id); result replaces `tmp`.
fn intersect_run(tmp: &mut Vec<NodeId>, tmp2: &mut Vec<NodeId>, run: &[Edge]) {
    tmp2.clear();
    let (mut i, mut j) = (0, 0);
    while i < tmp.len() && j < run.len() {
        match tmp[i].cmp(&run[j].node) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                tmp2.push(tmp[i]);
                i += 1;
                j += 1;
            }
        }
    }
    std::mem::swap(tmp, tmp2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpar_graph::{GraphBuilder, Vocab};
    use gpar_pattern::PatternBuilder;
    use std::sync::Arc;

    /// Builds the paper's graph `G1` (Fig. 2): a restaurant recommendation
    /// network. Returns (graph, custs, le_bernardin).
    pub(crate) fn build_g1() -> (Graph, Vec<NodeId>, NodeId) {
        let vocab = Vocab::new();
        let cust = vocab.intern("cust");
        let city = vocab.intern("city");
        let fr = vocab.intern("french_restaurant");
        let asian = vocab.intern("asian_restaurant");
        let (live_in, friend, like, inn, visit) = (
            vocab.intern("live_in"),
            vocab.intern("friend"),
            vocab.intern("like"),
            vocab.intern("in"),
            vocab.intern("visit"),
        );
        let mut b = GraphBuilder::new(vocab);
        let custs: Vec<NodeId> = (0..6).map(|_| b.add_node(cust)).collect();
        let ny = b.add_node(city);
        let la = b.add_node(city);
        let le_bernardin = b.add_node(fr);
        let perse = b.add_node(fr);
        let patina = b.add_node(fr);
        // Three groups of 3 shared French restaurants (the "FR^3" nodes).
        let fr3_ny1: Vec<NodeId> = (0..3).map(|_| b.add_node(fr)).collect();
        let fr3_ny2: Vec<NodeId> = (0..3).map(|_| b.add_node(fr)).collect();
        let fr3_la: Vec<NodeId> = (0..3).map(|_| b.add_node(fr)).collect();
        let asian1 = b.add_node(asian);
        let asian2 = b.add_node(asian);

        // cust1, cust2 in New York; friends; share 3 FRs; both visit
        // Le Bernardin.
        b.add_edge(custs[0], ny, live_in);
        b.add_edge(custs[1], ny, live_in);
        b.add_edge(custs[0], custs[1], friend);
        b.add_edge(custs[1], custs[0], friend);
        for &r in &fr3_ny1 {
            b.add_edge(custs[0], r, like);
            b.add_edge(custs[1], r, like);
            b.add_edge(r, ny, inn);
        }
        b.add_edge(custs[0], le_bernardin, visit);
        b.add_edge(custs[1], le_bernardin, visit);
        b.add_edge(le_bernardin, ny, inn);

        // cust2 & cust3 friends; cust3 in NY, shares 3 FRs with cust2,
        // visits Le Bernardin too.
        b.add_edge(custs[2], ny, live_in);
        b.add_edge(custs[1], custs[2], friend);
        b.add_edge(custs[2], custs[1], friend);
        for &r in &fr3_ny2 {
            b.add_edge(custs[1], r, like);
            b.add_edge(custs[2], r, like);
            b.add_edge(r, ny, inn);
        }
        b.add_edge(custs[2], le_bernardin, visit);

        // cust4 in LA, visits Per se (a FR) — a match of q but not of Q1.
        b.add_edge(custs[3], la, live_in);
        b.add_edge(custs[3], perse, visit);
        b.add_edge(perse, la, inn);
        b.add_edge(patina, la, inn);

        // cust5 & cust6 in LA, friends, share 3 FRs; cust5 visits an Asian
        // restaurant only (the q̄ witness); cust6 visits a FR (Patina).
        b.add_edge(custs[4], la, live_in);
        b.add_edge(custs[5], la, live_in);
        b.add_edge(custs[4], custs[5], friend);
        b.add_edge(custs[5], custs[4], friend);
        for &r in &fr3_la {
            b.add_edge(custs[4], r, like);
            b.add_edge(custs[5], r, like);
            b.add_edge(r, la, inn);
        }
        b.add_edge(custs[4], asian1, visit);
        b.add_edge(asian1, la, inn);
        b.add_edge(custs[5], patina, visit);
        b.add_edge(custs[5], asian2, like);
        b.add_edge(asian2, la, inn);

        (b.build(), custs, le_bernardin)
    }

    /// The antecedent Q1 of Example 1 (with 3 restaurant copies).
    pub(crate) fn build_q1(vocab: &Arc<Vocab>) -> Pattern {
        let cust = vocab.intern("cust");
        let city = vocab.intern("city");
        let fr = vocab.intern("french_restaurant");
        let (live_in, friend, like, inn, visit) = (
            vocab.intern("live_in"),
            vocab.intern("friend"),
            vocab.intern("like"),
            vocab.intern("in"),
            vocab.intern("visit"),
        );
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node(cust);
        let x2 = b.node(cust);
        let c = b.node(city);
        let y = b.node(fr);
        let rests = b.node_copies(fr, 3);
        b.edge(x, x2, friend);
        b.edge(x2, x, friend);
        b.edge(x, c, live_in);
        b.edge(x2, c, live_in);
        b.edge_to_copies(x, &rests, like);
        b.edge_to_copies(x2, &rests, like);
        b.edge_from_copies(&rests, c, inn);
        b.edge(y, c, inn);
        b.edge(x2, y, visit);
        b.designate(x, y).build().unwrap()
    }

    fn all_engines() -> Vec<MatcherConfig> {
        vec![
            MatcherConfig::vf2(),
            MatcherConfig::degree_ordered(),
            MatcherConfig::guided(),
            MatcherConfig::vf2().with_legacy_gen(),
            MatcherConfig::guided().with_legacy_gen(),
        ]
    }

    #[test]
    fn example_3_q1_images_are_cust_1_2_3_5() {
        let (g, custs, _) = build_g1();
        let q1 = build_q1(g.vocab());
        for cfg in all_engines() {
            let m = Matcher::new(&g, cfg);
            let imgs = m.images(&q1, q1.x());
            let expect: FxHashSet<NodeId> =
                [custs[0], custs[1], custs[2], custs[4]].into_iter().collect();
            assert_eq!(imgs, expect, "engine {:?}", cfg.kind);
        }
    }

    #[test]
    fn full_enumeration_agrees_with_early_termination() {
        let (g, _, _) = build_g1();
        let q1 = build_q1(g.vocab());
        let m = Matcher::new(&g, MatcherConfig::vf2());
        assert_eq!(m.images(&q1, q1.x()), m.images_by_full_enumeration(&q1, q1.x()));
    }

    #[test]
    fn anchored_existence_and_counting() {
        let (g, custs, lb) = build_g1();
        let q1 = build_q1(g.vocab());
        let m = Matcher::new(&g, MatcherConfig::vf2());
        assert!(m.exists_anchored(&q1, q1.x(), custs[0]));
        assert!(!m.exists_anchored(&q1, q1.x(), custs[3]));
        // The designated y: cust1's matches put Le Bernardin at y.
        let y = q1.y().unwrap();
        let mut saw_lb = false;
        m.enumerate_anchored(&q1, q1.x(), custs[0], &mut |mm| {
            if mm[y.index()] == lb {
                saw_lb = true;
            }
            ControlFlow::Continue(())
        });
        assert!(saw_lb);
        // Copies are interchangeable: 3! orderings of the FR^3 nodes.
        assert_eq!(m.count_anchored(&q1, q1.x(), custs[0], None) % 6, 0);
        // Cap is honored.
        assert_eq!(m.count_anchored(&q1, q1.x(), custs[0], Some(2)), 2);
    }

    #[test]
    fn intersection_and_legacy_counts_agree() {
        let (g, custs, _) = build_g1();
        let q1 = build_q1(g.vocab());
        let fast = Matcher::new(&g, MatcherConfig::vf2());
        let slow = Matcher::new(&g, MatcherConfig::vf2().with_legacy_gen());
        for &c in &custs {
            assert_eq!(
                fast.count_anchored(&q1, q1.x(), c, None),
                slow.count_anchored(&q1, q1.x(), c, None),
                "candidate {c}"
            );
        }
    }

    #[test]
    fn shared_scratch_is_reused_across_matchers() {
        let (g, custs, _) = build_g1();
        let q1 = build_q1(g.vocab());
        let scratch = SharedScratch::default();
        let baseline = Matcher::new(&g, MatcherConfig::vf2()).images(&q1, q1.x());
        for _ in 0..3 {
            let m = Matcher::new(&g, MatcherConfig::vf2()).with_scratch(scratch.clone());
            assert_eq!(m.images(&q1, q1.x()), baseline);
            assert!(m.exists_anchored(&q1, q1.x(), custs[0]));
        }
        // The arena retained its grown buffers between matchers.
        assert!(scratch.inspect(|a| a.cand.capacity()).unwrap_or(0) > 0);
    }

    #[test]
    fn candidate_counters_accumulate_and_drain() {
        let (g, custs, _) = build_g1();
        let q1 = build_q1(g.vocab());
        for cfg in [MatcherConfig::vf2(), MatcherConfig::vf2().with_legacy_gen()] {
            let scratch = SharedScratch::default();
            let m = Matcher::new(&g, cfg).with_scratch(scratch.clone());
            assert!(m.exists_anchored(&q1, q1.x(), custs[0]));
            let (generated, pruned, recomputes) = scratch.drain_counters();
            assert!(generated > 0, "a successful search considered candidates");
            assert!(pruned <= generated, "prunes are a subset of generated");
            assert_eq!(recomputes, 1, "one metadata computation for one pattern");
            // Draining zeroes: a second drain with no work in between is
            // all zeros.
            assert_eq!(scratch.drain_counters(), (0, 0, 0));
            // And more work accumulates again from zero.
            m.exists_anchored(&q1, q1.x(), custs[1]);
            let (g2, _, r2) = scratch.drain_counters();
            assert!(g2 > 0);
            assert_eq!(r2, 0, "metadata stayed cached across drains");
        }
    }

    #[test]
    fn meta_cache_serves_alternating_patterns() {
        // EIP's steady state: every candidate probes Q then P_R. The keyed
        // metadata cache must turn the per-switch recomputation into a
        // pair of swaps — exactly one recompute per distinct pattern, no
        // matter how many times the workload alternates.
        let (g, custs, _) = build_g1();
        let q1 = build_q1(g.vocab());
        // A second, structurally different pattern sharing the anchor
        // label.
        let vocab = g.vocab();
        let cust = vocab.get("cust").unwrap();
        let city = vocab.get("city").unwrap();
        let live_in = vocab.get("live_in").unwrap();
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node(cust);
        let c = pb.node(city);
        pb.edge(x, c, live_in);
        let q2 = pb.designate_x(x).build().unwrap();

        let scratch = SharedScratch::default();
        let m = Matcher::new(&g, MatcherConfig::vf2()).with_scratch(scratch.clone());
        for _ in 0..10 {
            for &v in custs.iter().take(3) {
                m.exists_anchored(&q1, q1.x(), v);
                m.exists_anchored(&q2, q2.x(), v);
            }
        }
        let recomputes = scratch.inspect(|a| a.meta_recomputes()).unwrap();
        assert_eq!(recomputes, 2, "one recompute per distinct (pattern, anchor)");

        // Same pattern at a different anchor node id in the *pattern* is a
        // different entry; re-probing both afterwards stays cached.
        m.exists_anchored(&q1, q1.y().unwrap(), custs[0]);
        let after_anchor_switch = scratch.inspect(|a| a.meta_recomputes()).unwrap();
        assert_eq!(after_anchor_switch, 3);
        m.exists_anchored(&q1, q1.x(), custs[0]);
        m.exists_anchored(&q2, q2.x(), custs[0]);
        assert_eq!(scratch.inspect(|a| a.meta_recomputes()).unwrap(), 3);
    }

    #[test]
    fn injectivity_is_enforced() {
        // Pattern wants two distinct restaurants; data has one.
        let vocab = Vocab::new();
        let cust = vocab.intern("cust");
        let r = vocab.intern("rest");
        let like = vocab.intern("like");
        let mut gb = GraphBuilder::new(vocab.clone());
        let c = gb.add_node(cust);
        let r0 = gb.add_node(r);
        gb.add_edge(c, r0, like);
        let g = gb.build();
        let mut pb = PatternBuilder::new(vocab);
        let x = pb.node(cust);
        let rs = pb.node_copies(r, 2);
        pb.edge_to_copies(x, &rs, like);
        let p = pb.designate_x(x).build().unwrap();
        for cfg in all_engines() {
            let m = Matcher::new(&g, cfg);
            assert!(!m.exists_anchored(&p, x, c), "engine {:?}", cfg.kind);
        }
    }

    #[test]
    fn matches_are_not_induced() {
        // Data has an *extra* edge between matched nodes; the pattern still
        // matches (non-induced semantics).
        let vocab = Vocab::new();
        let n = vocab.intern("n");
        let e = vocab.intern("e");
        let extra = vocab.intern("extra");
        let mut gb = GraphBuilder::new(vocab.clone());
        let a = gb.add_node(n);
        let c = gb.add_node(n);
        gb.add_edge(a, c, e);
        gb.add_edge(c, a, extra);
        let g = gb.build();
        let mut pb = PatternBuilder::new(vocab);
        let pa = pb.node(n);
        let pc = pb.node(n);
        pb.edge(pa, pc, e);
        let p = pb.designate_x(pa).build().unwrap();
        let m = Matcher::new(&g, MatcherConfig::vf2());
        assert!(m.exists_anchored(&p, pa, a));
    }

    #[test]
    fn wildcard_pattern_edges_match_any_label() {
        let vocab = Vocab::new();
        let n = vocab.intern("n");
        let e = vocab.intern("weird");
        let mut gb = GraphBuilder::new(vocab.clone());
        let a = gb.add_node(n);
        let c = gb.add_node(n);
        gb.add_edge(a, c, e);
        let g = gb.build();
        let mut pb = PatternBuilder::new(vocab);
        let pa = pb.node(n);
        let pc = pb.node_any();
        pb.edge_any(pa, pc);
        let p = pb.designate_x(pa).build().unwrap();
        let m = Matcher::new(&g, MatcherConfig::vf2());
        assert!(m.exists_anchored(&p, pa, a));
        assert!(!m.exists_anchored(&p, pa, c)); // c has no out-edge
    }

    #[test]
    fn parallel_multi_label_edges_count_one_match_per_assignment() {
        // a has TWO differently-labeled edges to c; a wildcard pattern
        // edge must yield ONE match (the assignment {pa ↦ a, pc ↦ c}),
        // not one per parallel edge. (The pre-arena generator double
        // counted here.)
        let vocab = Vocab::new();
        let n = vocab.intern("n");
        let e1 = vocab.intern("e1");
        let e2 = vocab.intern("e2");
        let mut gb = GraphBuilder::new(vocab.clone());
        let a = gb.add_node(n);
        let c = gb.add_node(n);
        gb.add_edge(a, c, e1);
        gb.add_edge(a, c, e2);
        let g = gb.build();
        let mut pb = PatternBuilder::new(vocab);
        let pa = pb.node(n);
        let pc = pb.node(n);
        pb.edge_any(pa, pc);
        let p = pb.designate_x(pa).build().unwrap();
        for cfg in all_engines() {
            let m = Matcher::new(&g, cfg);
            assert_eq!(m.count_anchored(&p, pa, a, None), 1, "engine {:?}", cfg.kind);
        }
    }

    #[test]
    fn disconnected_pattern_components_are_matched() {
        let vocab = Vocab::new();
        let n = vocab.intern("n");
        let k = vocab.intern("k");
        let e = vocab.intern("e");
        let mut gb = GraphBuilder::new(vocab.clone());
        let a = gb.add_node(n);
        let c = gb.add_node(n);
        let other = gb.add_node(k);
        gb.add_edge(a, c, e);
        let g = gb.build();
        // Pattern: edge n->n plus an isolated k node.
        let mut pb = PatternBuilder::new(vocab.clone());
        let pa = pb.node(n);
        let pc = pb.node(n);
        let pk = pb.node(k);
        pb.edge(pa, pc, e);
        let p = pb.designate_x(pa).build().unwrap();
        let m = Matcher::new(&g, MatcherConfig::vf2());
        assert!(m.exists_anchored(&p, pa, a));
        let y_imgs = m.images(&p, pk);
        assert!(y_imgs.contains(&other));
        // Remove the k node from data: no match anymore.
        let mut gb = GraphBuilder::new(vocab);
        let a2 = gb.add_node(n);
        let c2 = gb.add_node(n);
        gb.add_edge(a2, c2, e);
        let g2 = gb.build();
        let m2 = Matcher::new(&g2, MatcherConfig::vf2());
        assert!(!m2.exists_anchored(&p, pa, a2));
    }

    #[test]
    fn count_matches_counts_all_assignments() {
        // x -like-> r with 2 custs each liking 2 rests: 4 matches.
        let vocab = Vocab::new();
        let cust = vocab.intern("cust");
        let r = vocab.intern("rest");
        let like = vocab.intern("like");
        let mut gb = GraphBuilder::new(vocab.clone());
        for _ in 0..2 {
            let c = gb.add_node(cust);
            for _ in 0..2 {
                let rr = gb.add_node(r);
                gb.add_edge(c, rr, like);
            }
        }
        let g = gb.build();
        let mut pb = PatternBuilder::new(vocab);
        let x = pb.node(cust);
        let y = pb.node(r);
        pb.edge(x, y, like);
        let p = pb.designate(x, y).build().unwrap();
        let m = Matcher::new(&g, MatcherConfig::vf2());
        assert_eq!(m.count_matches(&p, None), 4);
        assert_eq!(m.count_matches(&p, Some(3)), 3);
    }

    /// Cap-boundary regression: an exhausted cap (`Some(0)`) must mean
    /// "stop now" — not fall through to a search, and never be conflated
    /// with `None` = uncapped. Pins both the per-anchor and the global
    /// counter at every boundary around the true count.
    #[test]
    fn count_caps_are_exact_at_the_boundary() {
        // 2 custs × 2 liked rests = 4 matches, 2 per anchored cust.
        let vocab = Vocab::new();
        let cust = vocab.intern("cust");
        let r = vocab.intern("rest");
        let like = vocab.intern("like");
        let mut gb = GraphBuilder::new(vocab.clone());
        let mut custs = Vec::new();
        for _ in 0..2 {
            let c = gb.add_node(cust);
            custs.push(c);
            for _ in 0..2 {
                let rr = gb.add_node(r);
                gb.add_edge(c, rr, like);
            }
        }
        let g = gb.build();
        let mut pb = PatternBuilder::new(vocab);
        let x = pb.node(cust);
        let y = pb.node(r);
        pb.edge(x, y, like);
        let p = pb.designate(x, y).build().unwrap();
        for cfg in [MatcherConfig::vf2(), MatcherConfig::degree_ordered(), MatcherConfig::guided()]
        {
            let m = Matcher::new(&g, cfg);
            // Anchored: true count is 2.
            assert_eq!(m.count_anchored(&p, x, custs[0], Some(0)), 0, "{:?}", cfg.kind);
            assert_eq!(m.count_anchored(&p, x, custs[0], Some(1)), 1, "{:?}", cfg.kind);
            assert_eq!(m.count_anchored(&p, x, custs[0], Some(2)), 2, "{:?}", cfg.kind);
            assert_eq!(m.count_anchored(&p, x, custs[0], Some(3)), 2, "cap above count");
            assert_eq!(m.count_anchored(&p, x, custs[0], None), 2, "uncapped");
            // Global: true count is 4; the second anchor receives the
            // residual budget, which hits exactly 0 mid-scan at cap 2.
            for cap in 0..=5u64 {
                assert_eq!(m.count_matches(&p, Some(cap)), cap.min(4), "cap {cap} {:?}", cfg.kind);
            }
        }
    }

    #[test]
    fn self_loop_patterns() {
        let vocab = Vocab::new();
        let n = vocab.intern("n");
        let e = vocab.intern("e");
        let mut gb = GraphBuilder::new(vocab.clone());
        let a = gb.add_node(n);
        let c = gb.add_node(n);
        gb.add_edge(a, a, e);
        gb.add_edge(c, a, e);
        let g = gb.build();
        let mut pb = PatternBuilder::new(vocab);
        let x = pb.node(n);
        pb.edge(x, x, e);
        let p = pb.designate_x(x).build().unwrap();
        let m = Matcher::new(&g, MatcherConfig::vf2());
        assert!(m.exists_anchored(&p, x, a));
        assert!(!m.exists_anchored(&p, x, c));
    }

    #[test]
    fn non_anchor_self_loops_are_verified() {
        // Self-loop on a *non-anchor* pattern node: only the data node
        // with a loop may be chosen for it, whichever generator runs.
        let vocab = Vocab::new();
        let n = vocab.intern("n");
        let e = vocab.intern("e");
        let mut gb = GraphBuilder::new(vocab.clone());
        let a = gb.add_node(n);
        let looped = gb.add_node(n);
        let plain = gb.add_node(n);
        gb.add_edge(a, looped, e);
        gb.add_edge(a, plain, e);
        gb.add_edge(looped, looped, e);
        let g = gb.build();
        let mut pb = PatternBuilder::new(vocab);
        let x = pb.node(n);
        let y = pb.node(n);
        pb.edge(x, y, e);
        pb.edge(y, y, e);
        let p = pb.designate_x(x).build().unwrap();
        for cfg in all_engines() {
            let m = Matcher::new(&g, cfg);
            assert!(m.exists_anchored(&p, x, a), "engine {:?}", cfg.kind);
            assert_eq!(m.count_anchored(&p, x, a, None), 1, "engine {:?}", cfg.kind);
        }
    }
}
