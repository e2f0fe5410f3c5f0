//! # gpar-graph
//!
//! Labeled directed multigraph substrate for graph-pattern association rules
//! (GPARs), reproducing the data model of *Fan et al., "Association Rules
//! with Graph Patterns", PVLDB 2015* (§2.1):
//!
//! > A graph is `G = (V, E, L)` where `V` is a finite set of nodes,
//! > `E ⊆ V × V` a set of edges, and every node and edge carries a label
//! > `L(·)` (its label or content, e.g. `cust`, `French restaurant`, `"44"`).
//!
//! The crate provides:
//!
//! * [`Vocab`] — a thread-safe string interner mapping label strings to
//!   compact [`Label`] symbols shared across graphs, patterns and fragments;
//! * [`Graph`] — an immutable CSR-packed graph with out- *and* in-adjacency,
//!   both sorted by `(label, endpoint)` for `O(log deg)` labeled lookups;
//! * [`GraphBuilder`] — the mutable construction API;
//! * [`DeltaGraph`] — a base CSR plus append-only mutation logs (new nodes,
//!   new edges, relabels, edge tombstones, node removals) read through the
//!   shared [`GraphView`] trait, with [`DeltaGraph::compact`] merging
//!   deltas back into CSR form (returning a [`NodeRemap`] when removals
//!   re-densified the id space) — the substrate for incremental serving;
//! * [`neighborhood`] — BFS utilities, `N_r(v)` balls and `G_d(v_x)`
//!   d-neighborhood extraction (the locality primitive both DMine and Match
//!   capitalize on);
//! * [`sketch`] — k-hop label-frequency sketches used by the guided-search
//!   optimization of §5.2;
//! * [`io`] — a small line-oriented text format for graphs.
//!
//! All node and label identifiers are `u32` newtypes: the paper's target
//! graphs (tens of millions of nodes) fit comfortably, and halving index
//! width keeps the CSR arrays cache-resident.

pub mod builder;
pub mod coalesce;
pub mod delta;
pub mod graph;
pub mod io;
pub mod label;
pub mod neighborhood;
pub mod sketch;
pub mod view;
pub mod visited;

pub use builder::GraphBuilder;
pub use coalesce::{CoalesceSummary, Coalescer};
pub use delta::{
    check_id_capacity, AppliedUpdate, CompactedGraph, DeltaGraph, GraphUpdate, NodeRemap,
    UpdateInvalid, MAX_NODE_SLOTS,
};
pub use graph::{Edge, Graph, NodeId};
pub use label::{Label, Vocab};
pub use neighborhood::{
    ball, ball_with, bfs_layers, bfs_layers_with, d_neighborhood, d_neighborhood_with,
    extract_induced, extract_induced_with, multi_source_distances, Extracted, NeighborhoodScratch,
};
pub use sketch::Sketch;
pub use view::{EdgeView, GraphView, MergedEdges};
pub use visited::{EpochMap, VisitedBuffer};

/// Fast hash map keyed by small integers (FxHash; see the performance notes
/// in DESIGN.md §7).
pub type FxHashMap<K, V> = rustc_hash::FxHashMap<K, V>;
/// Fast hash set for small integer keys.
pub type FxHashSet<K> = rustc_hash::FxHashSet<K>;

/// Per-thread CPU time (`CLOCK_THREAD_CPUTIME_ID`).
///
/// Worker busy times must be CPU time, not wall time: on an oversubscribed
/// host every thread's wall time approaches the total elapsed time, which
/// would make critical-path simulation of an n-processor cluster (see
/// DESIGN.md "Substitutions") meaningless.
pub fn thread_cpu_time() -> std::time::Duration {
    let mut ts = libc::timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: clock_gettime writes into the provided timespec.
    unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    std::time::Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
