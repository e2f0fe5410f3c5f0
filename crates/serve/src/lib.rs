//! # gpar-serve
//!
//! The serving subsystem: mine GPARs **once**, then answer entity
//! identification queries (§5's EIP, "identify potential customers") at
//! production rates against a live graph.
//!
//! The one-shot pipeline (`gpar-mine` → `gpar-eip`) re-derives everything
//! per call: candidate sets, sharing plans, d-ball extractions, global
//! confidences. This crate splits that work along the serving boundary:
//!
//! * [`RuleCatalog`] — the durable artifact between mining and serving: a
//!   **versioned** rule collection with mining-time statistics, persisted
//!   with the workspace's compact binary codec (`gpar_graph::io::bin` +
//!   `gpar_pattern::codec`). Export a mining run with
//!   [`RuleCatalog::from_mine_result`], ship the file, load it next to any
//!   graph.
//! * [`CandidateIndex`] — per consequent predicate: the rule group with
//!   unsatisfiable rules deactivated (antecedent **label signature**
//!   check), a pre-built [`gpar_eip::SharingPlan`], the antecedent
//!   sketches that guide `Match`'s per-candidate search, and the candidate
//!   centers `L`.
//! * [`ServeEngine`] — a fixed worker pool servicing
//!   [`identify`](ServeEngine::identify) /
//!   [`top_rules`](ServeEngine::top_rules) requests concurrently over
//!   **lock-free snapshots**: the whole serving view (graph overlay,
//!   candidate index, histograms, warm ledgers) is one immutable
//!   epoch-stamped generation behind an atomic pointer. Readers load it
//!   with a single atomic operation and never block — not on each other
//!   and not on writers. A predicate's first query **warms** its ledger
//!   (every candidate evaluated once, exactly as EIP's step 3); every
//!   query, that one included, then answers from the ledger without
//!   evaluating a center. **Live updates** ([`ServeEngine::apply_update`], a
//!   [`GraphUpdate`] batch of inserts / relabels / deletions with edge
//!   tombstones and node removal) flow through a dedicated writer
//!   thread that **coalesces** each queued burst into one net batch
//!   (delete + reinsert cancels, relabel chains collapse), builds the
//!   successor generation off to the side — re-evaluating only the
//!   centers whose d-ball a mutation can reach on either side of it (the
//!   union-ball rule for non-monotone deletions) and incrementally
//!   repairing index and warm ledgers — then publishes it with one
//!   pointer swap.
//!   [`ServeEngine::compact`] folds the overlay back into CSR form as a
//!   generation of its own (the writer triggers the same fold by itself
//!   under overlay pressure), publishing a [`gpar_graph::NodeRemap`]
//!   when node removals re-densified the id space.
//!
//! The engine's answers are **exactly** those of a direct
//! [`gpar_eip::identify`] run on the same (current) graph — the warm-up
//! pass assembles the same global confidence counts, and updates patch
//! them to what a from-scratch rebuild would compute; see the
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

pub mod catalog;
pub mod clock;
pub mod engine;
pub mod index;
pub mod paged;

pub use catalog::{CatalogEntry, CatalogError, RuleCatalog, CATALOG_FORMAT_VERSION, CATALOG_MAGIC};
pub use engine::{
    EngineStats, IdentifyRequest, IdentifyResponse, QueryError, QueryOpts, RuleInfo, ServeConfig,
    ServeEngine, UpdateError, UpdateReport,
};
pub use gpar_graph::GraphUpdate;
// Observability vocabulary, re-exported so engine consumers (the load
// harness, dashboards) need not depend on gpar-obs directly.
pub use gpar_obs::{
    Counter, HistKind, HistogramSnapshot, MetricsSnapshot, Stage, Trace, TraceKind, Ts,
};
pub use index::{CandidateIndex, GroupRules, LabelSignature, PredicateGroup};
pub use paged::{PagedMap, PAGE_BITS};
