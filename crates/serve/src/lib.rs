//! # gpar-serve
//!
//! The serving subsystem: mine GPARs **once**, then answer entity
//! identification queries (§5's EIP, "identify potential customers") at
//! production rates against a live graph. The one-shot pipeline
//! (`gpar-mine` → `gpar-eip`) re-derives candidate sets, sharing plans,
//! d-ball extractions and global confidences per call; this crate splits
//! that work along the serving boundary.
//!
//! ## Module map
//!
//! * [`catalog`] — [`RuleCatalog`], the durable artifact between mining
//!   and serving: a **versioned** rule collection with mining-time
//!   statistics in the workspace's compact binary codec. Export a mining
//!   run with [`RuleCatalog::from_mine_result`], load it next to any graph.
//! * [`index`] — [`CandidateIndex`]: per consequent predicate, the rule
//!   group with unsatisfiable rules deactivated (antecedent **label
//!   signature** check), its pre-built [`gpar_eip::SharingPlan`], and the
//!   candidate centers `L`.
//! * [`engine`] — [`ServeEngine`] and its config, request, response and
//!   error types; the **lock-free epoch snapshots** every request reads;
//!   the consistency contract.
//! * `admission` — the query pool: bounded priority lanes, deadlines,
//!   panic containment.
//! * `read` — the warm-up and the two queries. Every answer is a read of
//!   the warm ledger; no query evaluates a center.
//! * `write` — the single writer: coalescing window, union-ball repair of
//!   index and ledgers, one-swap publish, compaction.
//! * `ledger` — the warm ledger the read and write paths share:
//!   per-center records and the exact counts they fold into.
//! * [`paged`] — [`PagedMap`], the page-shared map that lets a successor
//!   generation copy only what an update touches.
//! * [`clock`] — the accepted-update frontier that staleness-bounded
//!   reads measure publish lag against.
//!
//! The engine's answers are **exactly** those of a direct
//! [`gpar_eip::identify`] run on the same (current) graph; see the
//! consistency contract in [`engine`].
//!
//! ```
//! use gpar_serve::{RuleCatalog, ServeConfig, ServeEngine};
//! use gpar_core::{ConfStats, Gpar};
//! use gpar_graph::{GraphBuilder, Vocab};
//! use gpar_pattern::PatternBuilder;
//! use std::sync::Arc;
//!
//! // A tiny graph: two customers like a restaurant; one already visits.
//! let vocab = Vocab::new();
//! let (cust, rest) = (vocab.intern("cust"), vocab.intern("rest"));
//! let (like, visit) = (vocab.intern("like"), vocab.intern("visit"));
//! let mut b = GraphBuilder::new(vocab.clone());
//! let c1 = b.add_node(cust);
//! let c2 = b.add_node(cust);
//! let r = b.add_node(rest);
//! b.add_edge(c1, r, like);
//! b.add_edge(c1, r, visit);
//! b.add_edge(c2, r, like);
//! let g = Arc::new(b.build());
//!
//! // Catalog one rule: like(x, y) ⇒ visit(x, y).
//! let mut pb = PatternBuilder::new(vocab.clone());
//! let x = pb.node(cust);
//! let y = pb.node(rest);
//! pb.edge(x, y, like);
//! let rule = Gpar::new(pb.designate(x, y).build().unwrap(), visit).unwrap();
//! let pred = *rule.predicate();
//! let mut catalog = RuleCatalog::new(vocab);
//! catalog.insert(Arc::new(rule), ConfStats::default());
//!
//! // Serve: c2 likes but does not yet visit — a potential customer.
//! let engine = ServeEngine::new(g, &catalog, ServeConfig { eta: 0.0, ..Default::default() });
//! let res = engine.identify(pred, None).unwrap();
//! assert_eq!(res.customers, vec![c1, c2]);
//! ```

mod admission;
pub mod catalog;
pub mod clock;
pub mod engine;
pub mod index;
mod ledger;
pub mod paged;
mod read;
mod write;

pub use catalog::{CatalogEntry, CatalogError, RuleCatalog, CATALOG_FORMAT_VERSION, CATALOG_MAGIC};
pub use engine::{
    IdentifyRequest, IdentifyResponse, QueryError, QueryOpts, RuleInfo, ServeConfig, ServeEngine,
    UpdateError, UpdateReport,
};
pub use gpar_graph::GraphUpdate;
// Observability vocabulary, re-exported so engine consumers (the load
// harness, dashboards) need not depend on gpar-obs directly.
pub use gpar_obs::{
    Counter, HistKind, HistogramSnapshot, MetricsSnapshot, Stage, Trace, TraceKind, Ts,
};
pub use index::{CandidateIndex, GroupRules, LabelSignature, PredicateGroup};
pub use paged::{PagedMap, PAGE_BITS};
