//! # gpar — Association Rules with Graph Patterns
//!
//! A from-scratch Rust implementation of **graph-pattern association rules
//! (GPARs)**, reproducing *Fan, Wang, Wu, Xu: "Association Rules with Graph
//! Patterns", PVLDB 8(12), 2015*.
//!
//! A GPAR `R(x, y): Q(x, y) ⇒ q(x, y)` states that whenever the graph
//! pattern `Q` matches around a designated pair `(x, y)` in a social graph,
//! the consequent edge `q(x, y)` likely holds — "`x` is a potential customer
//! of `y`". This facade crate re-exports the whole system:
//!
//! * [`graph`] — labeled directed multigraph substrate,
//! * [`pattern`] — graph patterns, canonical forms, bisimulation,
//! * [`iso`] — subgraph-isomorphism engines (VF2, guided search, …),
//! * [`core`] — GPARs, topological support, LCWA + Bayes-Factor confidence,
//!   diversification objective,
//! * [`exec`] — the shared work-stealing execution runtime (fork-join
//!   task queues with deterministic reduction, pool injector),
//! * [`partition`] — d-neighborhood-preserving graph fragmentation,
//! * [`mine`] — `DMine`, the parallel diversified top-k GPAR miner (DMP),
//! * [`eip`] — `Match`/`Matchc`/`disVF2`, parallel-scalable entity
//!   identification (EIP),
//! * [`datagen`] — seeded social-graph and workload generators,
//! * [`serve`] — the serving subsystem: versioned rule catalogs (binary
//!   codec), candidate indexes, and a concurrent worker-pool query engine
//!   with d-ball caching.
//!
//! ## Quickstart
//!
//! ```
//! use gpar::prelude::*;
//!
//! // Build a tiny social graph: two friends in the same city, one of whom
//! // visits a French restaurant.
//! let vocab = Vocab::new();
//! let mut b = GraphBuilder::new(vocab.clone());
//! let cust = vocab.intern("cust");
//! let rest = vocab.intern("french_restaurant");
//! let x1 = b.add_node(cust);
//! let x2 = b.add_node(cust);
//! let r = b.add_node(rest);
//! let friend = vocab.intern("friend");
//! let visit = vocab.intern("visit");
//! b.add_edge(x1, x2, friend);
//! b.add_edge(x2, x1, friend);
//! b.add_edge(x2, r, visit);
//! b.add_edge(x1, r, visit);
//! let g = b.build();
//!
//! // GPAR: if x and x' are friends and x' visits y, then x visits y.
//! let mut q = PatternBuilder::new(vocab.clone());
//! let px = q.node(cust);
//! let px2 = q.node(cust);
//! let py = q.node(rest);
//! q.edge(px, px2, friend);
//! q.edge(px2, py, visit);
//! let q = q.designate(px, py).build().unwrap();
//! let rule = Gpar::new(q, visit).unwrap();
//!
//! let eval = evaluate(&rule, &g, &EvalOptions::default()).unwrap();
//! assert_eq!(eval.supp_r, 2); // both customers match the full rule
//! ```

pub use gpar_core as core;
pub use gpar_datagen as datagen;
pub use gpar_eip as eip;
pub use gpar_exec as exec;
pub use gpar_graph as graph;
pub use gpar_iso as iso;
pub use gpar_mine as mine;
pub use gpar_partition as partition;
pub use gpar_pattern as pattern;
pub use gpar_serve as serve;

/// Convenient glob-import surface covering the common API.
pub mod prelude {
    pub use gpar_core::{
        diff, evaluate, objective_f, Confidence, EvalOptions, Gpar, GparError, Predicate,
        RuleEvaluation,
    };
    pub use gpar_datagen::{gplus_like, pokec_like, synthetic, SyntheticConfig};
    pub use gpar_eip::{identify, EipAlgorithm, EipConfig, EipResult};
    pub use gpar_graph::{Graph, GraphBuilder, Label, NodeId, Vocab};
    pub use gpar_iso::{EngineKind, Matcher, MatcherConfig};
    pub use gpar_mine::{DMine, DmineConfig, MineOpts, MineResult, MinedRule};
    pub use gpar_partition::{partition_by_centers, Fragment, PartitionStrategy};
    pub use gpar_pattern::{NodeCond, Pattern, PatternBuilder};
    pub use gpar_serve::{RuleCatalog, ServeConfig, ServeEngine};
}
