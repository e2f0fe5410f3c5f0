//! The four workloads, their calibrated sizes, and the seeded inputs
//! (graph, predicate, Σ) each is built from. The program under test
//! receives only these generated inputs; `--seed` renumbers the graph's
//! nodes and feeds the request schedule.

use gpar_core::{ConfStats, Gpar, Predicate};
use gpar_datagen::{
    generate_rules, gplus_like, pokec_like, synthetic, RuleGenConfig, SyntheticConfig,
};
use gpar_eip::{derive_radius, EipConfig};
use gpar_graph::{Graph, GraphBuilder, NodeId};
use gpar_mine::DmineConfig;
use gpar_pattern::NodeCond;
use gpar_serve::{RuleCatalog, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MineSocial,
    EipBatch,
    ServeRead,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::MineSocial, Workload::EipBatch, Workload::ServeRead, Workload::ServeChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MineSocial => "mine_social",
            Workload::EipBatch => "eip_batch",
            Workload::ServeRead => "serve_read",
            Workload::ServeChurn => "serve_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_serving(self) -> bool {
        matches!(self, Workload::ServeRead | Workload::ServeChurn)
    }

    /// What `op_*` measures on this workload (see the README's table).
    pub fn op(self) -> &'static str {
        match self {
            Workload::MineSocial => "DMine::run job",
            Workload::EipBatch => "gpar_eip::identify job",
            Workload::ServeRead => "read (identify/top_rules), due -> reply",
            Workload::ServeChurn => "write batch, due -> UpdateReport (snapshot published)",
        }
    }
}

/// Full (the calibrated sizes frozen in the README) or smoke (tiny).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Open-loop traffic shape of a serving session.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Poisson read arrivals per second.
    pub read_rate: f64,
    /// Share of reads that are `identify` (the rest are `top_rules`).
    pub identify_frac: f64,
    /// An `identify` asks about 1..=`max_subset` candidates.
    pub max_subset: usize,
    /// Candidate keys come from the `hot_pool` highest-degree centers
    /// with Zipf(`zipf_s`) skew by degree rank; `hot_pool == 0` means
    /// uniform over all of L.
    pub hot_pool: usize,
    pub zipf_s: f64,
    /// Write ticks per second; every `burst_every`-th tick submits
    /// `burst_len` batches back to back (0 = never).
    pub write_rate: f64,
    pub burst_every: usize,
    pub burst_len: usize,
    /// Churn mix (insert/delete/relabel/new node/removal) when true; one
    /// detached pair insert per batch when false.
    pub churn_mix: bool,
    /// An explicit `compact()` after this many write batches (0 = never).
    pub compact_every: usize,
}

/// Everything about a workload that calibration froze.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub mine_users: usize,
    pub eip_users: usize,
    pub eip_rules: usize,
    pub read_users: usize,
    pub churn_nodes: usize,
    pub catalog_rules: usize,
    pub read_traffic: Traffic,
    pub churn_traffic: Traffic,
    /// Set-ups per run; `setup_s` and `cold_op_ms` are their medians.
    pub setup_reps: usize,
    /// Share of the timed window spent open-loop on serving workloads
    /// (the rest is the closed-loop phase, half ahead of it, half behind).
    pub open_share: f64,
    /// Centers sampled by the per-layer graph/iso probes.
    pub probe_centers: usize,
    /// Length of the serving probe session a traced batch run adds.
    pub probe_session_s: f64,
}

impl Sizes {
    pub fn of(scale: Scale) -> Sizes {
        let read_traffic = Traffic {
            read_rate: 150.0,
            identify_frac: 0.85,
            max_subset: 8,
            hot_pool: 256,
            zipf_s: 1.1,
            write_rate: 1.0,
            burst_every: 0,
            burst_len: 0,
            churn_mix: false,
            compact_every: 0,
        };
        let churn_traffic = Traffic {
            read_rate: 40.0,
            identify_frac: 0.85,
            // Cheap misses (a d=2 ball holds ~27 nodes): a larger batch
            // per read keeps the closed loop measuring ball extraction
            // and evaluation rather than channel hand-offs.
            max_subset: 64,
            hot_pool: 0,
            zipf_s: 1.1,
            write_rate: 15.0,
            // Burst batches wait for one another, so their latency is a
            // second mode; at every 10th tick they were 47 % of all
            // batches and the median sat on the boundary between the two
            // modes. At every 40th they are 17 %.
            burst_every: 40,
            burst_len: 8,
            churn_mix: true,
            compact_every: 50,
        };
        match scale {
            Scale::Full => Sizes {
                mine_users: 2000,
                eip_users: 2000,
                eip_rules: 24,
                read_users: 1000,
                churn_nodes: 100_000,
                catalog_rules: 8,
                read_traffic,
                churn_traffic,
                setup_reps: 3,
                open_share: 0.6,
                probe_centers: 512,
                probe_session_s: 3.0,
            },
            Scale::Smoke => Sizes {
                mine_users: 150,
                eip_users: 200,
                eip_rules: 6,
                read_users: 150,
                churn_nodes: 3000,
                catalog_rules: 4,
                read_traffic: Traffic { hot_pool: 32, write_rate: 4.0, ..read_traffic },
                churn_traffic: Traffic { compact_every: 20, ..churn_traffic },
                setup_reps: 2,
                open_share: 0.6,
                probe_centers: 32,
                probe_session_s: 0.5,
            },
        }
    }

    pub fn traffic(&self, w: Workload) -> Traffic {
        match w {
            Workload::ServeRead => self.read_traffic,
            // Batch workloads use the churn shape for the serving probe
            // session of their traced run.
            _ => self.churn_traffic,
        }
    }
}

/// The evaluation radius `d` of every workload.
pub const RADIUS: u32 = 2;

/// Logical CPUs; every thread count in the harness derives from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Serving = 1 dispatcher + this many workers.
pub fn serve_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// The generated inputs of one workload.
pub struct Inputs {
    pub graph: Arc<Graph>,
    pub pred: Predicate,
    /// Σ: the EIP rule set / serving catalog (for `mine_social`, the
    /// rules the per-layer probes run, not an input of the jobs).
    pub sigma: Vec<Gpar>,
}

/// `count` generated rules of shape `|R| = shape` whose evaluation
/// radius is at most [`RADIUS`]. The generator bounds the radius of
/// `P_R` only; an antecedent can reach one hop further, and one such rule
/// would raise `d` — and with it every d-ball — for the whole Σ.
fn rules(g: &Graph, pred: &Predicate, count: usize, shape: (usize, usize), seed: u64) -> Vec<Gpar> {
    let cfg = RuleGenConfig {
        count: 4 * count,
        pattern_nodes: shape.0,
        pattern_edges: shape.1,
        max_radius: RADIUS,
        seed,
    };
    let mut sigma = generate_rules(g, pred, &cfg);
    sigma.retain(|r| derive_radius(std::slice::from_ref(r)) <= RADIUS);
    sigma.truncate(count);
    assert!(!sigma.is_empty(), "seed {seed} generated no rules of radius <= {RADIUS}");
    sigma
}

/// Seed of the generated graph and Σ. They are frozen: regenerating
/// them per `--seed` moves every metric by 8–30 % (a different graph, a
/// different handful of rules), far more than any bound, and the driver
/// measures spread *across* seeds. `--seed` instead renumbers the nodes
/// of the frozen graph and drives the traffic, so every seed is a
/// different input of the same shape and cost.
const GENERATOR_SEED: u64 = 1;

/// A builder holding a copy of `g` with node `v` renamed `new_id[v]`
/// (a permutation of `0..n`); labels and edges follow.
pub fn copy_into_builder(g: &Graph, new_id: &[u32]) -> GraphBuilder {
    let n = g.node_count();
    let mut labels = vec![g.node_label(NodeId(0)); n];
    for v in g.nodes() {
        labels[new_id[v.index()] as usize] = g.node_label(v);
    }
    let mut b = GraphBuilder::new(g.vocab().clone());
    b.reserve(n, g.edge_count());
    for &l in &labels {
        b.add_node(l);
    }
    for v in g.nodes() {
        for e in g.out_edges(v) {
            b.add_edge(NodeId(new_id[v.index()]), NodeId(new_id[e.node.index()]), e.label);
        }
    }
    b
}

/// `g` with its node ids permuted by `seed`.
fn renumbered(g: &Graph, seed: u64) -> Graph {
    let n = g.node_count();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    // new_id[old]: a Fisher–Yates shuffle of 0..n.
    let mut new_id: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        new_id.swap(i, rng.gen_range(0..=i));
    }
    copy_into_builder(g, &new_id).build()
}

impl Inputs {
    pub fn generate(w: Workload, sizes: &Sizes, seed: u64) -> Inputs {
        let (base, pred, shape, count) = match w {
            Workload::MineSocial | Workload::ServeRead => {
                let users =
                    if w == Workload::MineSocial { sizes.mine_users } else { sizes.read_users };
                let sg = pokec_like(users, GENERATOR_SEED);
                let pred = sg.schema.predicate("music", 0).expect("pokec has a music family");
                (sg.graph, pred, (5, 7), sizes.catalog_rules)
            }
            Workload::EipBatch => {
                let sg = gplus_like(sizes.eip_users, GENERATOR_SEED);
                let pred = sg.schema.predicate("employer", 0).expect("gplus has employers");
                (sg.graph, pred, (5, 8), sizes.eip_rules)
            }
            Workload::ServeChurn => {
                // The paper's generator with weaker preferential attachment
                // than its default 0.6: at 0.6 a few hubs put most nodes
                // within two hops of each other, every write re-evaluates
                // hundreds of centers (~60 ms at 10k nodes) and the sparse,
                // small-ball regime this workload stands for is gone.
                let g = synthetic(&SyntheticConfig {
                    preferential: 0.3,
                    ..SyntheticConfig::sized(
                        sizes.churn_nodes,
                        2 * sizes.churn_nodes,
                        GENERATOR_SEED,
                    )
                });
                // The most frequent (src label, edge label, dst label)
                // triple is the predicate, as in the paper's synthetic runs.
                let top = g.frequent_edge_patterns(1);
                let ((sl, el, dl), _) = *top.first().expect("graph has edges");
                let pred = Predicate::new(NodeCond::Label(sl), el, NodeCond::Label(dl));
                (g, pred, (4, 5), sizes.catalog_rules)
            }
        };
        // Rules are patterns over labels, so Σ generated on the frozen
        // graph is valid on every renumbering of it.
        let sigma = rules(&base, &pred, count, shape, GENERATOR_SEED);
        Inputs { graph: Arc::new(renumbered(&base, seed)), pred, sigma }
    }

    pub fn catalog(&self) -> RuleCatalog {
        let mut catalog = RuleCatalog::new(self.graph.vocab().clone());
        for r in &self.sigma {
            catalog.insert(Arc::new(r.clone()), ConfStats::default());
        }
        catalog
    }
}

/// Every config is the crate's `Default` except the worker count, so a
/// later PR that flips a default shows up as a measured change.
pub fn mine_config(workers: usize) -> DmineConfig {
    DmineConfig { k: 6, sigma: 2, d: 2, max_rounds: 2, workers, ..Default::default() }
}

pub fn eip_config(workers: usize) -> EipConfig {
    EipConfig::new(ServeConfig::default().algorithm, workers)
}

pub fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig { workers, ..Default::default() }
}
