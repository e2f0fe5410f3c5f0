//! The per-layer ledger of a traced run: perfbench's own spans around
//! calls into each layer's public functions, on the workload's inputs,
//! with `workers = 1` wherever stages must add up. Layers are crates:
//! graph → pattern → iso → core → partition → exec → eip → mine → serve.
//! Counts come from result structs and `ServeEngine::metrics()` deltas.

use crate::inputs::{
    copy_into_builder, eip_config, mine_config, nproc, serve_config, Inputs, Sizes,
};
use crate::serve::{Mirror, OpenLoop};
use crate::spans::Recorder;
use crate::stats::{median, quantile};
use gpar_core::q_stats;
use gpar_eip::{
    antecedent_sketches, derive_radius, identify, CandidateEvaluator, EipAlgorithm, EipConfig,
    SharingPlan,
};
use gpar_exec::Executor;
use gpar_graph::{d_neighborhood, Graph, GraphUpdate, GraphView, NodeId, Sketch};
use gpar_iso::{Matcher, MatcherConfig};
use gpar_mine::DMine;
use gpar_partition::{build_sites, chunk_by_load, CenterSite};
use gpar_pattern::NodeCond;
use gpar_serve::{Counter, HistKind, MetricsSnapshot, RuleCatalog, ServeEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Metric name → value, filled by the probes below.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
    /// Metrics whose obs counter/histogram no longer exists by that name.
    pub absent: Vec<&'static str>,
}

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times `f` inside a span and returns `(value, milliseconds)`.
fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    f: impl FnOnce(&mut Recorder) -> T,
) -> (T, f64) {
    let t = Instant::now();
    let v = rec.span(name, f);
    (v, ms(t))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The candidate centers L of the predicate.
pub fn centers_of(inputs: &Inputs) -> Vec<NodeId> {
    match inputs.pred.x_cond {
        NodeCond::Label(l) => inputs.graph.label_members(l),
        NodeCond::Any => inputs.graph.nodes().collect(),
    }
}

/// A seeded sample of `n` centers.
fn sample_centers(all: &[NodeId], n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005A_3F1E);
    (0..n.min(all.len())).map(|_| all[rng.gen_range(0..all.len())]).collect()
}

/// A fresh copy of `g`, timing only the CSR freeze
/// (`GraphBuilder::build`).
fn rebuild_graph(g: &Graph) -> (Graph, f64) {
    let identity: Vec<u32> = (0..g.node_count() as u32).collect();
    let b = copy_into_builder(g, &identity);
    let t = Instant::now();
    let built = b.build();
    (built, ms(t))
}

pub fn graph_layer(l: &mut Ledger, inputs: &Inputs, sizes: &Sizes, seed: u64, rec: &mut Recorder) {
    rec.next_request();
    let g = &*inputs.graph;
    let d = derive_radius(&inputs.sigma);
    let (_, build_ms) = rec.span("graph.build", |_| rebuild_graph(g));
    l.set("graph.build_ms", build_ms);

    let sample = sample_centers(&centers_of(inputs), sizes.probe_centers, seed);
    let t = Instant::now();
    let nodes: usize = rec.span("graph.d_neighborhood", |_| {
        sample.iter().map(|&c| d_neighborhood(g, c, d).0.graph.node_count()).sum()
    });
    l.set("graph.ball_us", us(t) / sample.len() as f64);
    l.set("graph.ball_nodes", nodes as f64 / sample.len() as f64);

    let t = Instant::now();
    rec.span("graph.sketch", |_| {
        for &c in &sample {
            black_box(Sketch::build(g, c, 2));
        }
    });
    l.set("graph.sketch_us", us(t) / sample.len() as f64);
}

/// The replay of the session's write schedule on a plain `DeltaGraph`.
pub fn graph_replay_layer(l: &mut Ledger, mirror: &Mirror) {
    l.set("graph.msbfs_us", median(&mirror.msbfs_us).unwrap_or(0.0));
    l.set("graph.delta_apply_us", median(&mirror.apply_us).unwrap_or(0.0));
    l.set("graph.compact_ms", median(&mirror.compact_ms).unwrap_or(0.0));
    l.set("graph.coalesce_ratio", ratio(mirror.coalesce_out as f64, mirror.coalesce_in as f64));
}

pub fn pattern_layer(l: &mut Ledger, inputs: &Inputs, rec: &mut Recorder) {
    rec.next_request();
    const REPS: usize = 50;
    let t = Instant::now();
    rec.span("pattern.canonical_code", |_| {
        for _ in 0..REPS {
            for r in &inputs.sigma {
                black_box(r.pr().canonical_code());
            }
        }
    });
    l.set("pattern.canonical_us", us(t) / (REPS * inputs.sigma.len()) as f64);
}

pub fn iso_layer(l: &mut Ledger, inputs: &Inputs, sizes: &Sizes, seed: u64, rec: &mut Recorder) {
    rec.next_request();
    let g = &*inputs.graph;
    let d = derive_radius(&inputs.sigma);
    let sample = sample_centers(&centers_of(inputs), sizes.probe_centers.min(256), seed);
    let sites: Vec<CenterSite> = sample.iter().map(|&c| CenterSite::build(g, c, d)).collect();
    let calls = (sites.len() * inputs.sigma.len()) as f64;

    let t = Instant::now();
    let hits: usize = rec.span("iso.exists_anchored", |_| {
        sites
            .iter()
            .map(|s| {
                let m = Matcher::new(s.graph(), MatcherConfig::default());
                inputs
                    .sigma
                    .iter()
                    .filter(|r| m.exists_anchored(r.pr(), r.pr().x(), s.center))
                    .count()
            })
            .sum()
    });
    l.set("iso.exists_us", us(t) / calls);
    l.set("iso.exists_hit_ratio", hits as f64 / calls);

    let t = Instant::now();
    rec.span("iso.count_anchored", |_| {
        for s in &sites {
            let m = Matcher::new(s.graph(), MatcherConfig::default());
            for r in &inputs.sigma {
                let q = r.antecedent();
                black_box(m.count_anchored(q, q.x(), s.center, Some(128)));
            }
        }
    });
    l.set("iso.count_us", us(t) / calls);
}

/// `core`, `partition` and `exec`; returns the sites of all of L for the
/// EIP replay.
pub fn partition_layer(l: &mut Ledger, inputs: &Inputs, rec: &mut Recorder) -> Vec<CenterSite> {
    rec.next_request();
    let g = &*inputs.graph;
    let (_, qstats_ms) = timed(rec, "core.q_stats", |_| black_box(q_stats(g, &inputs.pred)));
    l.set("core.qstats_ms", qstats_ms);

    let centers = centers_of(inputs);
    let d = derive_radius(&inputs.sigma);
    let (sites, sites_ms) = timed(rec, "partition.build_sites", |_| build_sites(g, &centers, d));
    l.set("partition.build_sites_ms", sites_ms);
    let loads: Vec<u64> = sites.iter().map(CenterSite::load).collect();
    let total: u64 = loads.iter().sum();
    l.set("partition.site_load_mean", ratio(total as f64, loads.len() as f64));
    let chunks = chunk_by_load(&loads, 16 * nproc());
    let heaviest = chunks.iter().map(|c| loads[c.clone()].iter().sum::<u64>()).max().unwrap_or(0);
    l.set("partition.chunk_skew", ratio(heaviest as f64, total as f64 / chunks.len() as f64));

    const TASKS: usize = 10_000;
    let t = Instant::now();
    rec.span("exec.map_indexed", |_| {
        black_box(Executor::new(nproc()).map_indexed(TASKS, |_| (), |_, i| i));
    });
    l.set("exec.task_overhead_us", us(t) / TASKS as f64);
    sites
}

/// The EIP ledger: `identify` at one worker, and a replay of its stages
/// (`build_sites` → plan → per-site evaluate) that must account for it.
pub fn eip_layer(l: &mut Ledger, inputs: &Inputs, sites: &[CenterSite], rec: &mut Recorder) {
    rec.next_request();
    let g = &*inputs.graph;
    let cfg = eip_config(1);
    let (res, identify_ms) =
        timed(rec, "eip.identify", |_| identify(g, &inputs.sigma, &cfg).expect("valid Σ"));
    l.set("eip.identify_ms", identify_ms);
    l.set("eip.candidates", res.candidates as f64);
    l.set("eip.customers", res.customers.len() as f64);

    rec.next_request();
    let opts = cfg.match_opts();
    let sites_ms = l.get("partition.build_sites_ms").expect("partition layer ran first");
    let (plan_ms, evaluate_ms) = rec.span("eip.replay", |rec| {
        let ((plan, sketches), plan_ms) = timed(rec, "eip.plan", |_| {
            (SharingPlan::build(&inputs.sigma), antecedent_sketches(&inputs.sigma, &opts))
        });
        let ev = CandidateEvaluator::with_plan_and_sketches(&inputs.sigma, opts, plan, sketches);
        let ((), evaluate_ms) = timed(rec, "eip.evaluate", |_| {
            for s in sites {
                black_box(ev.evaluate(s));
            }
        });
        (plan_ms, evaluate_ms)
    });
    l.set("eip.plan_ms", plan_ms);
    l.set("eip.evaluate_ms", evaluate_ms);
    l.set("eip.evaluate_us_per_site", ratio(evaluate_ms * 1e3, sites.len() as f64));
    let attributed = sites_ms + plan_ms + evaluate_ms;
    l.set("eip.closure", ratio(attributed, identify_ms));
    l.set("eip.unattributed_ms", identify_ms - attributed);

    // Same-process ratio of `identify` wall, Match vs Matchs (the
    // ROADMAP gate is <= 1.1), whichever of the two is the default.
    let mut wall = |algo: EipAlgorithm| {
        if algo == cfg.algorithm {
            return identify_ms;
        }
        let cfg = EipConfig::new(algo, 1);
        timed(rec, "eip.identify_other", |_| black_box(identify(g, &inputs.sigma, &cfg))).1
    };
    let (m, ms_) = (wall(EipAlgorithm::Match), wall(EipAlgorithm::Matchs));
    l.set("eip.match_over_matchs", ratio(m, ms_));
}

/// The mining ledger: `DMine::run` at one worker minus the replayed
/// `q_stats` + `build_sites` it starts with.
pub fn mine_layer(l: &mut Ledger, inputs: &Inputs, rec: &mut Recorder) {
    rec.next_request();
    let g = &*inputs.graph;
    let cfg = mine_config(1);
    let (res, run_ms) = timed(rec, "mine.run", |_| DMine::new(cfg.clone()).run(g, &inputs.pred));
    rec.next_request();
    let replay_ms = rec.span("mine.replay", |rec| {
        let (qs, qstats_ms) = timed(rec, "core.q_stats", |_| q_stats(g, &inputs.pred));
        let mut centers: Vec<NodeId> = qs.positives.iter().chain(&qs.negatives).copied().collect();
        centers.sort_unstable();
        let (sites, sites_ms) =
            timed(rec, "partition.build_sites", |_| build_sites(g, &centers, cfg.d));
        black_box(sites);
        qstats_ms + sites_ms
    });
    l.set("mine.run_ms", run_ms);
    l.set("mine.self_ms", run_ms - replay_ms);
    l.set("mine.closure", ratio(replay_ms, run_ms));
    l.set("mine.candidates_generated", res.candidates_generated as f64);
    l.set("mine.sigma_size", res.sigma_size as f64);
    l.set("mine.retained_ratio", ratio(res.sigma_size as f64, res.candidates_generated as f64));
    l.set("mine.rounds_run", res.rounds_run as f64);
    let (_, wn_ms) = timed(rec, "mine.run_nproc", |_| {
        black_box(DMine::new(mine_config(nproc())).run(g, &inputs.pred))
    });
    l.set("mine.w1_over_wn", ratio(run_ms, wn_ms));
}

/// A leaf insert at `anchor`: a fresh `x`-labelled node with a `q` edge.
fn leaf_insert(engine: &ServeEngine, inputs: &Inputs, anchor: NodeId) -> GraphUpdate {
    let x_label = match inputs.pred.x_cond {
        NodeCond::Label(label) => label,
        NodeCond::Any => inputs.graph.node_label(NodeId(0)),
    };
    let n = NodeId(engine.graph_size().0 as u32);
    GraphUpdate {
        new_nodes: vec![x_label],
        new_edges: vec![(n, anchor, inputs.pred.label)],
        ..Default::default()
    }
}

/// Synchronous probes on an idle one-worker engine.
pub fn serve_layer(l: &mut Ledger, inputs: &Inputs, rec: &mut Recorder) {
    rec.next_request();
    let g = &inputs.graph;
    let pred = inputs.pred;
    let catalog = inputs.catalog();

    let mut bytes: Vec<u8> = Vec::new();
    let ((), save_ms) =
        timed(rec, "serve.catalog_save", |_| catalog.save(&mut bytes).expect("in-memory save"));
    let (loaded, load_ms) = timed(rec, "serve.catalog_load", |_| {
        RuleCatalog::load(&bytes[..], g.vocab().clone()).expect("round trip")
    });
    assert_eq!(loaded.len(), catalog.len(), "catalog round trip keeps every rule");
    l.set("serve.catalog_save_ms", save_ms);
    l.set("serve.catalog_load_ms", load_ms);
    l.set("serve.catalog_bytes", bytes.len() as f64);

    let (engine, new_ms) =
        timed(rec, "serve.engine_new", |_| ServeEngine::new(g.clone(), &catalog, serve_config(1)));
    l.set("serve.engine_new_ms", new_ms);
    let (_, cold_ms) =
        timed(rec, "serve.cold_identify", |_| engine.identify(pred, None).expect("warm-up"));
    l.set("serve.cold_identify_ms", cold_ms);

    const REPS: usize = 200;
    let centers = centers_of(inputs);
    let hot: Vec<NodeId> = centers.iter().copied().take(8).collect();
    for &c in &hot {
        engine.identify(pred, Some(vec![c])).expect("cache fill");
    }
    let t = Instant::now();
    rec.span("serve.identify1_hit", |_| {
        for i in 0..REPS {
            black_box(engine.identify(pred, Some(vec![hot[i % hot.len()]])).expect("hit"));
        }
    });
    l.set("serve.identify1_hit_us", us(t) / REPS as f64);

    let t = Instant::now();
    rec.span("serve.top_rules", |_| {
        for _ in 0..REPS {
            black_box(engine.top_rules(pred, 4).expect("top_rules"));
        }
    });
    l.set("serve.top_rules_us", us(t) / REPS as f64);

    let (_, full_ms) =
        timed(rec, "serve.identify_full", |_| black_box(engine.identify(pred, None)));
    l.set("serve.identify_full_ms", full_ms);

    let t = Instant::now();
    for _ in 0..REPS {
        black_box(engine.metrics());
    }
    l.set("obs.snapshot_us", us(t) / REPS as f64);

    // Local vs hub write: a leaf insert at the min- and the max-degree
    // node. The centers each evicts from the d-ball cache are the
    // never-cached keys of the miss probe below.
    let by_degree = |max: bool| {
        g.nodes()
            .min_by_key(|&v| {
                let deg = g.degree(v) as i64;
                (if max { -deg } else { deg }, v.0)
            })
            .expect("graph has nodes")
    };
    let mut evicted: Vec<NodeId> = Vec::new();
    for (name, span, anchor) in [
        ("serve.apply_local_ms", "serve.apply_local", by_degree(false)),
        ("serve.apply_hub_ms", "serve.apply_hub", by_degree(true)),
    ] {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let update = leaf_insert(&engine, inputs, anchor);
                let (report, ms) = timed(rec, span, |_| engine.apply_update(&update));
                evicted.extend(report.expect("valid leaf insert").evicted.iter().map(|e| e.0));
                ms
            })
            .collect();
        l.set(name, median(&samples).expect("three samples"));
    }
    evicted.sort_unstable();
    evicted.dedup();
    evicted.retain(|c| centers.binary_search(c).is_ok());
    evicted.truncate(64);
    // Nothing evicted (no center near either anchor): fall back to keys
    // past the hot set, which the warm scan may or may not have cached.
    let cold: Vec<NodeId> =
        if evicted.is_empty() { centers.iter().rev().copied().take(64).collect() } else { evicted };
    let t = Instant::now();
    rec.span("serve.identify1_miss", |_| {
        for &c in &cold {
            black_box(engine.identify(pred, Some(vec![c])).expect("miss"));
        }
    });
    l.set("serve.identify1_miss_us", us(t) / cold.len() as f64);
    drop(engine);

    // What the hub write is bounded by: a fresh build of the same graph
    // + engine + warm scan (the ROADMAP gate is hub <= rebuild).
    let (_, rebuild_ms) = timed(rec, "serve.rebuild", |_| {
        let (graph, _) = rebuild_graph(g);
        let engine = ServeEngine::new(std::sync::Arc::new(graph), &catalog, serve_config(1));
        black_box(engine.identify(pred, None).expect("rebuild warm scan").customers.len())
    });
    l.set("serve.rebuild_ms", rebuild_ms);
    let hub = l.get("serve.apply_hub_ms").expect("set above");
    l.set("serve.hub_over_rebuild", ratio(hub, rebuild_ms));
}

fn counter(delta: &MetricsSnapshot, name: &str) -> Option<f64> {
    Counter::ALL.iter().find(|c| c.name() == name).map(|&c| delta.counter(c) as f64)
}

fn hist<'a>(delta: &'a MetricsSnapshot, name: &str) -> Option<&'a gpar_serve::HistogramSnapshot> {
    HistKind::ALL.iter().find(|k| k.name() == name).map(|&k| delta.hist(k))
}

/// The session's `metrics()` delta, looked up by the *names* of the obs
/// counters and histograms, so a renamed one reads `absent` here instead
/// of breaking the build of a later PR that may not edit perfbench.
pub fn session_layer(l: &mut Ledger, open: &OpenLoop) {
    let d = &open.delta;
    let mut absent: Vec<&'static str> = Vec::new();
    let mut c = |metric: &'static str, name: &str| {
        counter(d, name).unwrap_or_else(|| {
            absent.push(metric);
            0.0
        })
    };
    let hits = c("serve.cache_hit_ratio", "cache_hits");
    let misses = c("serve.cache_hit_ratio", "cache_misses");
    let balls = c("serve.balls_extracted", "balls_extracted");
    let evaluated = c("serve.sketch_prune_ratio", "centers_evaluated");
    let pruned = c("serve.sketch_prune_ratio", "centers_sketch_pruned");
    let updates = c("serve.coalesce_ratio", "updates");
    let coalesced = c("serve.coalesce_ratio", "updates_coalesced");
    let publishes = c("serve.publishes", "snapshot_publishes");
    let reevaluated = c("serve.reevaluated_per_update", "update_reevaluated");
    let invalidated = c("serve.cache_invalidations_per_update", "cache_invalidations");
    l.set("serve.cache_hit_ratio", ratio(hits, hits + misses));
    l.set("serve.balls_extracted", balls);
    l.set("serve.sketch_prune_ratio", ratio(pruned, pruned + evaluated));
    l.set("serve.coalesce_ratio", ratio(coalesced, updates));
    l.set("serve.publishes", publishes);
    l.set("serve.reevaluated_per_update", ratio(reevaluated, updates));
    l.set("serve.cache_invalidations_per_update", ratio(invalidated, updates));

    // (metric, histogram name, quantile, ns → unit divisor)
    for (metric, name, q, div) in [
        ("serve.queue_wait_p50_us", "queue_wait", 0.5, 1e3),
        ("serve.queue_wait_p99_us", "queue_wait", 0.99, 1e3),
        ("serve.cache_lookup_p50_us", "cache_lookup", 0.5, 1e3),
        ("serve.iso_eval_p50_us", "iso_eval", 0.5, 1e3),
        ("serve.update_bfs_p50_us", "update_bfs", 0.5, 1e3),
        ("serve.update_group_repair_p50_us", "update_group_repair", 0.5, 1e3),
        ("serve.update_ledger_patch_p50_us", "update_ledger_patch", 0.5, 1e3),
        ("serve.update_publish_p50_us", "update_publish", 0.5, 1e3),
        ("serve.snapshot_lag_p50_ms", "snapshot_lag", 0.5, 1e6),
    ] {
        let v = match hist(d, name) {
            Some(h) => h.quantile(q).unwrap_or(0) as f64 / div,
            None => {
                absent.push(metric);
                0.0
            }
        };
        l.set(metric, v);
    }

    // Busy time by side: the writer's stages against the workers'
    // service time (request latency minus queue wait).
    let sum = |name: &str| hist(d, name).map_or(0.0, |h| h.sum() as f64);
    let writer: f64 = [
        "update_diff",
        "update_commit",
        "update_bfs",
        "update_group_repair",
        "update_ledger_patch",
        "update_coalesce",
        "update_publish",
    ]
    .iter()
    .map(|n| sum(n))
    .sum();
    let worker = (sum("identify_latency") + sum("top_rules_latency") - sum("queue_wait")).max(0.0);
    l.set("serve.write_busy_frac", ratio(writer, writer + worker));

    l.set("serve.compact_ms", median(&open.compact_ms).unwrap_or(0.0));
    let reads: Vec<f64> =
        open.read_ms.pooled().into_iter().chain(open.traced_read_ms.pooled()).collect();
    let writes: Vec<f64> =
        open.write_ms.pooled().into_iter().chain(open.traced_write_ms.pooled()).collect();
    l.set("serve.read_p50_ms", quantile(&reads, 0.5).unwrap_or(0.0));
    l.set("serve.read_p99_ms", quantile(&reads, 0.99).unwrap_or(0.0));
    l.set("serve.write_p50_ms", quantile(&writes, 0.5).unwrap_or(0.0));
    l.set("serve.write_p95_ms", quantile(&writes, 0.95).unwrap_or(0.0));
    l.set("harness.sched_lag_p99_us", quantile(&open.sched_lag_us, 0.99).unwrap_or(0.0));
    l.absent.extend(absent);
}
