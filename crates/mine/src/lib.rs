//! # gpar-mine
//!
//! `DMine` — the parallel algorithm for the **diversified GPAR mining
//! problem (DMP)** of §4: given a graph `G`, a predicate `q(x, y)`, a
//! support bound σ and integers `k`, `d`, find `k` nontrivial GPARs
//! pertaining to `q(x, y)` with `supp ≥ σ` and `r(P_R, x) ≤ d` maximizing
//! the bi-criteria objective `F` (confidence + diversity). DMP is NP-hard
//! (Prop. 1); DMine achieves approximation ratio 2 via the max-sum
//! dispersion greedy (Theorem 2).
//!
//! ## Architecture (semantics faithful to §4.2)
//!
//! One *coordinator* (the calling thread) drives bulk-synchronous rounds
//! over the shared work-stealing runtime ([`gpar_exec::Executor`]):
//!
//! 1. the graph is materialized into per-center d-neighborhood sites
//!    (`gpar-partition`), kept as one flat list and cut into a few
//!    load-balanced chunks per worker — the task granule;
//! 2. each round runs two task queues: **Generate** tasks, one per
//!    `(frontier rule × site chunk)`, grow the rule by one edge
//!    discovered in the chunk's local match images (`localMine`), and
//!    **Evaluate** tasks, one per `(candidate × site chunk)`, compute
//!    local supports. Workers steal chunks dynamically, so a straggler
//!    site never serializes a round behind one static split; task
//!    outputs merge in task-index order, making every count independent
//!    of the steal interleaving (the paper's `⟨R, conf, flag⟩` messages
//!    are exactly these task outputs);
//! 3. the coordinator groups automorphic rules (bisimulation prefilter of
//!    Lemma 4 + exact check), assembles global confidence, filters by σ,
//!    updates the top-k via **incremental diversification** (`incDiv`),
//!    applies the **reduction rules** of Lemma 3, and posts the surviving
//!    extendable rules for the next round.
//!
//! ### Interpretation note
//!
//! The paper grows rules "by including at least one new edge at hop r" per
//! round and bounds the rounds by `d`; how many edges a single round may
//! add is left open. We use standard single-edge levelwise growth
//! (one new antecedent edge per round, any hop, radius ≤ d enforced at
//! generation), with the round count bounded by
//! [`DmineConfig::max_rounds`] — this preserves every claim the paper
//! makes (anti-monotonic pruning, bounded rounds, per-round cost a
//! function of `|G|/n`, `k`, `|Σ|`) and matches how pattern-growth miners
//! are normally implemented.
//!
//! The baselines are [`DMineNo`](DmineConfig::no_optimizations) (same BSP
//! skeleton, no incremental diversification / reduction rules / bisim
//! prefilter), [`naive`] ("discover-then-diversify"), and
//! [`frequent::FsgMiner`], a GRAMI-style frequency-only miner used for the
//! qualitative comparison of Exp-2.

pub mod dmine;
pub mod extension;
pub mod frequent;
pub mod incdiv;
pub mod messages;
pub mod naive;
pub mod reduction;
pub mod worker;

pub use dmine::{DMine, DmineConfig, MineOpts, MineResult};
pub use messages::{LocalConf, MinedRule};
pub use naive::discover_then_diversify;
