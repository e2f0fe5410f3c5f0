//! The open-loop request schedule of a serving session, computed up
//! front from the seed: Poisson reads (a fixed number of them, at uniform
//! instants) merged with the write ticks and
//! the explicit compactions, each with its *due* time. The dispatcher
//! replays it; nothing here reads the clock.
//!
//! The generator keeps a model of the graph's id space so that no
//! operation fails: it never references a node it removed, and because
//! a remapping compaction renumbers the survivors densely in id order,
//! it can translate every later id itself — requests after a `Compact`
//! event are already written in the post-compaction id space.

use crate::inputs::Traffic;
use gpar_core::Predicate;
use gpar_graph::{FxHashSet, Graph, GraphUpdate, Label, NodeId};
use gpar_pattern::NodeCond;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, Zipf};
use std::time::Duration;

#[derive(Debug, Clone)]
pub enum Read {
    Identify(Vec<NodeId>),
    TopRules,
}

#[derive(Debug, Clone)]
pub enum Event {
    Read {
        due: Duration,
        read: Read,
    },
    Write {
        due: Duration,
        batch: GraphUpdate,
    },
    /// An explicit `compact()`; writes due later wait for it to finish.
    Compact {
        due: Duration,
    },
}

impl Event {
    pub fn due(&self) -> Duration {
        match self {
            Event::Read { due, .. } | Event::Write { due, .. } | Event::Compact { due } => *due,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Schedule {
    pub events: Vec<Event>,
    pub reads: usize,
    pub writes: usize,
    pub compactions: usize,
    /// The candidate keys before the first event — what the closed-loop
    /// phase ahead of the open loop reads.
    pub opening_keys: Vec<NodeId>,
    /// The keys still live, in the id space after the last event — what
    /// the closed-loop phase behind the open loop reads.
    pub closed_keys: Vec<NodeId>,
}

/// A uniform sample in `[0, 1)` with 53 mantissa bits.
fn unit(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draws the keys of one `identify`: 1..=`max_subset` picks from `keys`
/// (Zipf-skewed over its order when `zipf` is set), deduplicated.
pub fn draw_keys(
    rng: &mut StdRng,
    keys: &[NodeId],
    zipf: Option<&Zipf>,
    max_subset: usize,
) -> Vec<NodeId> {
    let size = rng.gen_range(1usize..=max_subset.max(1));
    let mut picked: Vec<NodeId> = (0..size)
        .map(|_| match zipf {
            Some(z) => keys[z.sample(rng) as usize - 1],
            None => keys[rng.gen_range(0..keys.len())],
        })
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// The Zipf law over a key pool, when the traffic is skewed.
pub fn zipf_for(traffic: &Traffic, keys: usize) -> Option<Zipf> {
    (traffic.hot_pool > 0).then(|| Zipf::new(keys as u64, traffic.zipf_s).expect("non-empty pool"))
}

/// The generator's model of the serving graph's id space.
struct Model {
    /// Base edges in stable ids; endpoints of a random edge are a
    /// degree-weighted node sample.
    edges: Vec<(u32, u32, Label)>,
    node_labels: Vec<Label>,
    /// Liveness by stable id (ids as if no compaction ever renumbered).
    live: Vec<bool>,
    /// Removed nodes a compaction has folded away, sorted.
    folded: Vec<u32>,
    /// Removed since the last compaction.
    pending: Vec<u32>,
    deleted_edges: FxHashSet<usize>,
}

impl Model {
    fn new(g: &Graph) -> Self {
        let edges: Vec<(u32, u32, Label)> = g
            .nodes()
            .flat_map(|v| g.out_edges(v).iter().map(move |e| (v.0, e.node.0, e.label)))
            .collect();
        Self {
            edges,
            node_labels: g.nodes().map(|v| g.node_label(v)).collect(),
            live: vec![true; g.node_count()],
            folded: Vec::new(),
            pending: Vec::new(),
            deleted_edges: FxHashSet::default(),
        }
    }

    /// Stable id → the id the engine uses right now.
    fn cur(&self, v: u32) -> NodeId {
        NodeId(v - self.folded.partition_point(|&r| r < v) as u32)
    }

    fn fold(&mut self) {
        self.folded.append(&mut self.pending);
        self.folded.sort_unstable();
    }

    fn new_node(&mut self, label: Label) -> u32 {
        self.live.push(true);
        self.node_labels.push(label);
        (self.live.len() - 1) as u32
    }

    /// A live node, degree-weighted (an endpoint of a random base edge),
    /// so hubs are hit in proportion.
    fn endpoint(&self, rng: &mut StdRng) -> u32 {
        loop {
            let (s, d, _) = self.edges[rng.gen_range(0..self.edges.len())];
            let v = if rng.gen_bool(0.5) { s } else { d };
            if self.live[v as usize] {
                return v;
            }
        }
    }

    fn uniform_live(&self, rng: &mut StdRng) -> u32 {
        loop {
            let v = rng.gen_range(0..self.live.len() as u32);
            if self.live[v as usize] {
                return v;
            }
        }
    }

    fn edge_label(&self, rng: &mut StdRng) -> Label {
        self.edges[rng.gen_range(0..self.edges.len())].2
    }

    /// One churn batch of 1–4 ops: 50 % edge insert, 25 % edge delete,
    /// 10 % relabel, 10 % new node + edge, 5 % node removal.
    fn churn_batch(&mut self, rng: &mut StdRng) -> GraphUpdate {
        let mut b = GraphUpdate::default();
        // Stable ids this batch already references as an edge endpoint
        // or relabel target; a batch may not also remove them.
        let mut referenced: Vec<u32> = Vec::new();
        let mut appended = 0usize;
        for _ in 0..rng.gen_range(1usize..=4) {
            let roll = unit(rng);
            if roll < 0.50 {
                let (s, d) = (self.endpoint(rng), self.endpoint(rng));
                b.new_edges.push((self.cur(s), self.cur(d), self.edge_label(rng)));
                referenced.extend([s, d]);
            } else if roll < 0.75 {
                // Prefer an edge not deleted yet, so most deletes are
                // effective; an absent edge is ignored by the engine.
                let mut i = rng.gen_range(0..self.edges.len());
                for _ in 0..4 {
                    if !self.deleted_edges.contains(&i) {
                        break;
                    }
                    i = rng.gen_range(0..self.edges.len());
                }
                let (s, d, l) = self.edges[i];
                if self.live[s as usize] && self.live[d as usize] {
                    self.deleted_edges.insert(i);
                    b.del_edges.push((self.cur(s), self.cur(d), l));
                }
            } else if roll < 0.85 {
                let v = self.uniform_live(rng);
                let label = self.node_labels[self.uniform_live(rng) as usize];
                self.node_labels[v as usize] = label;
                b.relabels.push((self.cur(v), label));
                referenced.push(v);
            } else if roll < 0.95 {
                let label = self.node_labels[self.uniform_live(rng) as usize];
                let anchor = self.endpoint(rng);
                let n = self.new_node(label);
                appended += 1;
                b.new_nodes.push(label);
                b.new_edges.push((self.cur(n), self.cur(anchor), self.edge_label(rng)));
                referenced.extend([n, anchor]);
            } else if b.del_nodes.is_empty() {
                // Removals may only name pre-batch ids.
                let pre_batch = self.live.len() - appended;
                let v = self.uniform_live(rng);
                if (v as usize) < pre_batch && !referenced.contains(&v) {
                    self.live[v as usize] = false;
                    self.pending.push(v);
                    b.del_nodes.push(self.cur(v));
                }
            }
        }
        b
    }

    /// One detached pair: a new `x`-labelled node with a `q` edge to a
    /// new `y`-labelled node. It touches no existing node, so it is the
    /// cheapest write that still runs the whole snapshot path (and
    /// admits a new candidate center).
    fn pair_batch(&mut self, pred: &Predicate) -> GraphUpdate {
        let label_of = |cond: NodeCond, fallback: Label| match cond {
            NodeCond::Label(l) => l,
            NodeCond::Any => fallback,
        };
        let x_label = label_of(pred.x_cond, self.node_labels[0]);
        let y_label = label_of(pred.y_cond, self.node_labels[0]);
        let (x, y) = (self.new_node(x_label), self.new_node(y_label));
        GraphUpdate {
            new_nodes: vec![x_label, y_label],
            new_edges: vec![(self.cur(x), self.cur(y), pred.label)],
            ..Default::default()
        }
    }
}

/// Candidate keys (stable ids): the hot pool — the highest-degree
/// centers, hottest first — or all of L. Degree, not a seeded sample:
/// under Zipf the first few keys take half the reads, and which centers
/// they are must not change with the seed.
fn key_pool(g: &Graph, pred: &Predicate, traffic: &Traffic) -> Vec<u32> {
    let mut l: Vec<u32> = match pred.x_cond {
        NodeCond::Label(label) => g.nodes_with_label(label).map(|v| v.0).collect(),
        NodeCond::Any => g.nodes().map(|v| v.0).collect(),
    };
    assert!(!l.is_empty(), "predicate has no candidate centers");
    if traffic.hot_pool > 0 {
        l.sort_by_key(|&v| (std::cmp::Reverse(g.degree(NodeId(v))), v));
        l.truncate(traffic.hot_pool);
    }
    l
}

impl Schedule {
    pub fn generate(
        g: &Graph,
        pred: &Predicate,
        traffic: &Traffic,
        duration: Duration,
        seed: u64,
    ) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C4E_D01E);
        let mut model = Model::new(g);
        let pool = key_pool(g, pred, traffic);
        let zipf = zipf_for(traffic, pool.len());
        let stable_pool: Vec<NodeId> = pool.iter().map(|&v| NodeId(v)).collect();
        let secs = duration.as_secs_f64();

        let mut events: Vec<Event> = Vec::new();
        let (mut reads, mut writes, mut compactions) = (0usize, 0usize, 0usize);
        let mut since_compact = 0usize;
        let tick = if traffic.write_rate > 0.0 { 1.0 / traffic.write_rate } else { f64::INFINITY };
        // Poisson arrivals, given their count: `read_rate * secs` instants
        // uniform over the window, in order. A free count would differ by
        // a few per cent between seeds, and with it every per-request
        // average.
        let mut arrivals: Vec<f64> = (0..(traffic.read_rate * secs).round() as usize)
            .map(|_| unit(&mut rng) * secs)
            .collect();
        arrivals.sort_by(f64::total_cmp);
        let mut arrivals = arrivals.into_iter();
        let mut next_read = arrivals.next().unwrap_or(f64::INFINITY);
        let mut ticks = 1usize;
        loop {
            let next_write = tick * ticks as f64;
            if next_read.min(next_write) >= secs {
                break;
            }
            if next_read <= next_write {
                let due = Duration::from_secs_f64(next_read);
                let read = if rng.gen_bool(traffic.identify_frac) {
                    // Keys are drawn in stable ids; a key the churn has
                    // removed since is dropped from this read.
                    let keys: Vec<NodeId> =
                        draw_keys(&mut rng, &stable_pool, zipf.as_ref(), traffic.max_subset)
                            .into_iter()
                            .filter(|v| model.live[v.index()])
                            .map(|v| model.cur(v.0))
                            .collect();
                    Read::Identify(keys)
                } else {
                    Read::TopRules
                };
                events.push(Event::Read { due, read });
                reads += 1;
                next_read = arrivals.next().unwrap_or(f64::INFINITY);
            } else {
                let due = Duration::from_secs_f64(next_write);
                let burst = traffic.burst_every > 0 && ticks.is_multiple_of(traffic.burst_every);
                for _ in 0..if burst { traffic.burst_len.max(1) } else { 1 } {
                    if traffic.compact_every > 0 && since_compact >= traffic.compact_every {
                        events.push(Event::Compact { due });
                        model.fold();
                        compactions += 1;
                        since_compact = 0;
                    }
                    let batch = if traffic.churn_mix {
                        model.churn_batch(&mut rng)
                    } else {
                        model.pair_batch(pred)
                    };
                    if !batch.is_empty() {
                        events.push(Event::Write { due, batch });
                        writes += 1;
                        since_compact += 1;
                    }
                }
                ticks += 1;
            }
        }
        // Every session ends with one explicit compaction, so its cost is
        // measured on workloads whose traffic schedules none.
        events.push(Event::Compact { due: duration });
        model.fold();
        compactions += 1;
        let closed_keys: Vec<NodeId> =
            pool.iter().filter(|&&v| model.live[v as usize]).map(|&v| model.cur(v)).collect();
        Schedule { events, reads, writes, compactions, opening_keys: stable_pool, closed_keys }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Inputs, Scale, Sizes, Workload};
    use gpar_graph::{DeltaGraph, GraphView};
    use std::sync::Arc;

    fn fingerprint(s: &Schedule) -> String {
        format!("{:?}", s.events)
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let sizes = Sizes::of(Scale::Smoke);
        let inputs = Inputs::generate(Workload::ServeChurn, &sizes, 7);
        let mk = |seed| {
            Schedule::generate(
                &inputs.graph,
                &inputs.pred,
                &sizes.churn_traffic,
                Duration::from_secs(6),
                seed,
            )
        };
        let (a, b, c) = (mk(7), mk(7), mk(8));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert!(a.reads > 50 && a.writes > 80 && a.compactions >= 4, "{a:?}");
        assert!(a.events.windows(2).all(|w| w[0].due() <= w[1].due()), "due times ascend");
    }

    #[test]
    fn every_batch_is_valid_against_a_mirror_across_compactions() {
        let sizes = Sizes::of(Scale::Smoke);
        let inputs = Inputs::generate(Workload::ServeChurn, &sizes, 3);
        let s = Schedule::generate(
            &inputs.graph,
            &inputs.pred,
            &sizes.churn_traffic,
            Duration::from_secs(4),
            3,
        );
        let mut mirror = DeltaGraph::new(inputs.graph.clone());
        let mut removed = 0usize;
        for e in &s.events {
            match e {
                Event::Write { batch, .. } => {
                    mirror.validate(batch).expect("generated batch is valid");
                    removed += mirror.apply(batch).removed_nodes.len();
                }
                Event::Compact { .. } => {
                    mirror = DeltaGraph::new(Arc::new(mirror.compact().graph));
                }
                Event::Read { read: Read::Identify(keys), .. } => {
                    assert!(keys.iter().all(|k| k.index() < mirror.node_count()));
                }
                Event::Read { .. } => {}
            }
        }
        assert!(removed > 0, "the mix removes nodes, so compactions remap ids");
        assert!(s.closed_keys.iter().all(|k| k.index() < mirror.node_count()));
    }

    #[test]
    fn pair_trickle_has_no_bursts_and_one_closing_compaction() {
        let sizes = Sizes::of(Scale::Smoke);
        let inputs = Inputs::generate(Workload::ServeRead, &sizes, 5);
        let s = Schedule::generate(
            &inputs.graph,
            &inputs.pred,
            &sizes.read_traffic,
            Duration::from_secs(2),
            5,
        );
        assert_eq!(s.compactions, 1, "only the closing compaction");
        assert!(matches!(s.events.last(), Some(Event::Compact { .. })));
        assert_eq!(s.writes, 7, "4 ticks/s over 2 s, the tick at t=2 excluded");
        assert!(s.closed_keys.len() <= sizes.read_traffic.hot_pool);
    }
}
