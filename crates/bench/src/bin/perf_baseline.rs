//! Perf-trajectory runner: executes the iso/EIP/serve micro-benches and
//! writes `BENCH_matcher.json` (median ns/op per scenario).
//!
//! This seeds and maintains the repo's performance baseline: every PR
//! touching the matcher hot path re-runs this binary and compares against
//! the committed medians. Medians over many short samples are used
//! instead of means because shared/noisy hosts skew means badly (one
//! descheduled sample can double a mean; the median shrugs it off).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p gpar-bench --bin perf_baseline            # full
//! cargo run --release -p gpar-bench --bin perf_baseline -- --quick # CI smoke
//! cargo run --release -p gpar-bench --bin perf_baseline -- --out path.json
//! ```

use gpar_bench::Workloads;
use gpar_core::Gpar;
use gpar_datagen::{generate_rules, RuleGenConfig};
use gpar_eip::{identify, EipAlgorithm, EipConfig};
use gpar_iso::{Matcher, MatcherConfig, PatternSketchCache, SharedScratch};
use gpar_mine::{DMine, DmineConfig};
use gpar_partition::CenterSite;
use gpar_serve::{GraphUpdate, RuleCatalog, ServeConfig, ServeEngine};
use std::sync::Arc;
use std::time::Instant;

struct Scenario {
    name: &'static str,
    /// Median nanoseconds per op across samples.
    median_ns: u64,
    /// Ops per sample (for context in the JSON).
    ops: u64,
}

/// Times `op` (which performs `ops` logical operations) `samples` times
/// and returns the median ns per logical op.
fn measure(samples: usize, ops: u64, mut op: impl FnMut()) -> u64 {
    op(); // warm-up: fill caches/scratch, fault in pages
    let mut per_op: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            op();
            (t0.elapsed().as_nanos() as u64) / ops.max(1)
        })
        .collect();
    per_op.sort_unstable();
    per_op[per_op.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_matcher.json".to_string());

    // Scales: `--quick` is a CI sanity run (does it build, run, and
    // produce sane JSON?); the full mode is the recorded trajectory.
    let (users, sigma_n, samples, eip_samples) =
        if quick { (120, 4, 5, 3) } else { (500, 8, 30, 7) };

    let sg = Workloads::pokec(users);
    let pred = sg.schema.predicate("music", 0).expect("family");
    let rules = generate_rules(
        &sg.graph,
        &pred,
        &RuleGenConfig { count: 4, pattern_nodes: 5, pattern_edges: 7, max_radius: 2, seed: 3 },
    );
    let rule = rules.first().expect("rule generated").clone();
    let positives: Vec<_> = {
        let mut v: Vec<_> = gpar_core::q_stats(&sg.graph, &pred).positives.into_iter().collect();
        v.sort_unstable();
        v.truncate(32);
        v
    };
    let sites: Vec<CenterSite> =
        positives.iter().map(|&c| CenterSite::build(&sg.graph, c, 2)).collect();
    let nsites = sites.len() as u64;

    let mut scenarios: Vec<Scenario> = Vec::new();
    println!(
        "perf_baseline: |V|={} |E|={} sites={}",
        sg.graph.node_count(),
        sg.graph.edge_count(),
        nsites
    );

    // --- iso: per-site anchored existence, one scratch per "worker". ---
    for (name, cfg) in [
        ("iso/exists_anchored/vf2", MatcherConfig::vf2()),
        ("iso/exists_anchored/degree_ordered", MatcherConfig::degree_ordered()),
        ("iso/exists_anchored/guided", MatcherConfig::guided()),
    ] {
        let scratch = SharedScratch::default();
        let psketch = PatternSketchCache::default();
        let median_ns = measure(samples, nsites, || {
            let mut hits = 0u32;
            for s in &sites {
                let m = Matcher::new(s.graph(), cfg)
                    .with_scratch(scratch.clone())
                    .with_shared_pattern_cache(psketch.clone());
                if m.exists_anchored(rule.pr(), rule.pr().x(), s.center) {
                    hits += 1;
                }
            }
            std::hint::black_box(hits);
        });
        println!("  {name:<44} {median_ns:>12} ns/op");
        scenarios.push(Scenario { name, median_ns, ops: nsites });
    }

    // --- iso: full enumeration (the Matchc/disVF2 cost profile). ---
    {
        let scratch = SharedScratch::default();
        let median_ns = measure(samples, nsites, || {
            let mut total = 0u64;
            for s in &sites {
                let m = Matcher::new(s.graph(), MatcherConfig::vf2()).with_scratch(scratch.clone());
                total += m.count_anchored(rule.antecedent(), rule.antecedent().x(), s.center, None);
            }
            std::hint::black_box(total);
        });
        let name = "iso/count_anchored/full_enumeration";
        println!("  {name:<44} {median_ns:>12} ns/op");
        scenarios.push(Scenario { name, median_ns, ops: nsites });
    }

    // --- eip: end-to-end identification per algorithm. ---
    let sigma = Workloads::sigma(&sg, "music", sigma_n, 2);
    assert!(!sigma.is_empty());
    for (name, algo) in [
        ("eip/identify/match", EipAlgorithm::Match),
        ("eip/identify/matchs", EipAlgorithm::Matchs),
        ("eip/identify/matchc", EipAlgorithm::Matchc),
        ("eip/identify/disvf2", EipAlgorithm::DisVf2),
    ] {
        // Heavy full-enumeration algorithms get the quick scale even in
        // full mode so the runner stays minutes, not hours.
        let sigma_ref: &[Gpar] =
            if matches!(algo, EipAlgorithm::Matchc | EipAlgorithm::DisVf2) && !quick {
                &sigma[..sigma.len().min(4)]
            } else {
                &sigma
            };
        let median_ns = measure(eip_samples, 1, || {
            let cfg = EipConfig { eta: 1.5, d: Some(2), ..EipConfig::new(algo, 4) };
            std::hint::black_box(
                identify(&sg.graph, sigma_ref, &cfg).expect("valid").customers.len(),
            );
        });
        println!("  {name:<44} {median_ns:>12} ns/op");
        scenarios.push(Scenario { name, median_ns, ops: 1 });
    }

    // --- mine: full DMine rounds (Generate + Evaluate task queues). ---
    // Two numbers per run: wall-clock (host-dependent) and the simulated
    // n-processor time (partition/n + per-round critical path + sequential
    // coordinator) — the latter is what work stealing improves even on a
    // single-core host, by shrinking the slowest-worker busy time.
    {
        let cfg =
            DmineConfig { k: 6, sigma: 2, d: 2, workers: 4, max_rounds: 2, ..Default::default() };
        let miner = DMine::new(cfg);
        let mut sims: Vec<u64> = Vec::new();
        let median_ns = measure(eip_samples, 1, || {
            let res = miner.run(&sg.graph, &pred);
            sims.push(res.simulated_parallel_time().as_nanos() as u64);
            std::hint::black_box(res.sigma_size);
        });
        let name = "mine/rounds/wall";
        println!("  {name:<44} {median_ns:>12} ns/op");
        scenarios.push(Scenario { name, median_ns, ops: 1 });
        // `measure` ran one untimed warm-up call; drop its (cold-cache)
        // sample so the simulated median covers the same warm runs as the
        // wall median next to it.
        let warm = &mut sims[1..];
        warm.sort_unstable();
        let median_ns = warm[warm.len() / 2];
        let name = "mine/rounds/simulated_parallel";
        println!("  {name:<44} {median_ns:>12} ns/op");
        scenarios.push(Scenario { name, median_ns, ops: 1 });
    }

    // --- serve: warm-up pass and hot repeat queries. ---
    {
        let graph = Arc::new(sg.graph.clone());
        let mut catalog = RuleCatalog::new(graph.vocab().clone());
        for r in &sigma {
            catalog.insert(Arc::new(r.clone()), gpar_core::ConfStats::default());
        }
        let serve_pred = *sigma[0].predicate();
        // Warm-up cost: a fresh engine's first query evaluates all of L.
        let median_ns = measure(eip_samples, 1, || {
            let engine = ServeEngine::new(
                graph.clone(),
                &catalog,
                ServeConfig { workers: 2, eta: 1.5, ..Default::default() },
            );
            std::hint::black_box(
                engine.identify(serve_pred, None).expect("served").customers.len(),
            );
        });
        let name = "serve/identify/cold_warmup";
        println!("  {name:<44} {median_ns:>12} ns/op");
        scenarios.push(Scenario { name, median_ns, ops: 1 });

        // Hot path: repeat subset queries against a warmed engine, each
        // one a ledger read.
        let engine = ServeEngine::new(
            graph.clone(),
            &catalog,
            ServeConfig { workers: 2, eta: 1.5, ..Default::default() },
        );
        engine.identify(serve_pred, None).expect("warm");
        let hot: Vec<gpar_graph::NodeId> = positives.iter().copied().take(8).collect();
        let reps = 20u64;
        let median_ns = measure(samples, reps, || {
            for _ in 0..reps {
                std::hint::black_box(
                    engine.identify(serve_pred, Some(hot.clone())).expect("served").customers.len(),
                );
            }
        });
        let name = "serve/identify/hot_subset";
        println!("  {name:<44} {median_ns:>12} ns/op");
        scenarios.push(Scenario { name, median_ns, ops: reps });

        // --- serve: live updates (apply-update + re-query) vs rebuild. ---
        // Each sample applies a *fresh* mutation — a new center-typed node
        // with one edge into the graph — so no sample degenerates to a
        // deduplicated no-op, then re-runs the hot subset query. The
        // rebuild baseline pays what a static engine would: a full
        // engine construction plus the warm scan, per update.
        let x_label = match serve_pred.x_cond {
            gpar_pattern::NodeCond::Label(l) => l,
            gpar_pattern::NodeCond::Any => sg.graph.node_label(gpar_graph::NodeId(0)),
        };
        let degree_extreme = |max: bool| {
            let mut best = gpar_graph::NodeId(0);
            for v in sg.graph.nodes() {
                let better = if max {
                    sg.graph.degree(v) > sg.graph.degree(best)
                } else {
                    sg.graph.degree(v) < sg.graph.degree(best)
                };
                if better {
                    best = v;
                }
            }
            best
        };
        for (name, target) in [
            ("serve/update/small", degree_extreme(false)),
            ("serve/update/hub", degree_extreme(true)),
        ] {
            let engine = ServeEngine::new(
                graph.clone(),
                &catalog,
                ServeConfig { workers: 2, eta: 1.5, ..Default::default() },
            );
            engine.identify(serve_pred, None).expect("warm");
            let median_ns = measure(samples, 1, || {
                let n = engine.graph_size().0 as u32;
                engine
                    .apply_update(&GraphUpdate {
                        new_nodes: vec![x_label],
                        new_edges: vec![(gpar_graph::NodeId(n), target, serve_pred.label)],
                        ..Default::default()
                    })
                    .expect("valid update");
                std::hint::black_box(
                    engine.identify(serve_pred, Some(hot.clone())).expect("served").customers.len(),
                );
            });
            println!("  {name:<44} {median_ns:>12} ns/op");
            scenarios.push(Scenario { name, median_ns, ops: 1 });
        }
        // --- serve: deletions (the non-monotone half of incrementality). ---
        {
            // serve/update/delete: the deletion mirror of
            // serve/update/small — that scenario measures "a low-degree
            // node joins", this one measures "a recently-joined low-degree
            // node leaves" (node removal: edge cascade + tombstone-free
            // overlay cleanup + union-ball invalidation + ledger
            // subtraction) with a re-query per sample. The departures are
            // staged before timing, each attached to a *distinct*
            // low-degree anchor so every sample invalidates a comparably
            // tiny union ball. Deleting an organic social edge instead
            // touches a ≥ degree-8 endpoint here and re-evaluates its
            // whole ball — that honest cost is what serve/update/churn
            // records.
            let engine = ServeEngine::new(
                graph.clone(),
                &catalog,
                ServeConfig { workers: 2, eta: 1.5, ..Default::default() },
            );
            engine.identify(serve_pred, None).expect("warm");
            let mut anchors: Vec<gpar_graph::NodeId> = sg.graph.nodes().collect();
            anchors.sort_by_key(|&v| sg.graph.degree(v));
            anchors.truncate(samples + 2);
            let doomed: Vec<gpar_graph::NodeId> = anchors
                .iter()
                .map(|&a| {
                    let n = gpar_graph::NodeId(engine.graph_size().0 as u32);
                    engine
                        .apply_update(&GraphUpdate {
                            new_nodes: vec![x_label],
                            new_edges: vec![(n, a, serve_pred.label)],
                            ..Default::default()
                        })
                        .expect("valid staging insert");
                    n
                })
                .collect();
            let mut next = 0usize;
            let median_ns = measure(samples, 1, || {
                let w = doomed[next % doomed.len()];
                next += 1;
                engine
                    .apply_update(&GraphUpdate { del_nodes: vec![w], ..Default::default() })
                    .expect("valid removal");
                std::hint::black_box(
                    engine.identify(serve_pred, Some(hot.clone())).expect("served").customers.len(),
                );
            });
            let name = "serve/update/delete";
            println!("  {name:<44} {median_ns:>12} ns/op");
            scenarios.push(Scenario { name, median_ns, ops: 1 });
        }
        {
            // serve/update/churn: steady-state delete + reinsert of the
            // same edge (tombstone, then un-tombstone) with a re-query
            // after each batch — the write-heavy worst case where every
            // sample pays two union-ball invalidations.
            let engine = ServeEngine::new(
                graph.clone(),
                &catalog,
                ServeConfig { workers: 2, eta: 1.5, ..Default::default() },
            );
            engine.identify(serve_pred, None).expect("warm");
            // The most local edge there is (smallest summed endpoint
            // degree): churn measures the steady-state batch machinery,
            // not ball size.
            let e = sg
                .graph
                .nodes()
                .flat_map(|v| sg.graph.out_edges(v).iter().map(move |e| (v, e.node, e.label)))
                .min_by_key(|&(s, d, _)| sg.graph.degree(s) + sg.graph.degree(d))
                .expect("graph has edges");
            let median_ns = measure(samples, 2, || {
                engine
                    .apply_update(&GraphUpdate { del_edges: vec![e], ..Default::default() })
                    .expect("valid deletion");
                std::hint::black_box(
                    engine.identify(serve_pred, Some(hot.clone())).expect("served").customers.len(),
                );
                engine
                    .apply_update(&GraphUpdate { new_edges: vec![e], ..Default::default() })
                    .expect("valid reinsert");
                std::hint::black_box(
                    engine.identify(serve_pred, Some(hot.clone())).expect("served").customers.len(),
                );
            });
            let name = "serve/update/churn";
            println!("  {name:<44} {median_ns:>12} ns/op");
            scenarios.push(Scenario { name, median_ns, ops: 2 });
        }
        {
            // Full-rebuild baseline for the same mutation + re-query: a
            // static serving stack re-freezes the CSR, reconstructs the
            // candidate index and re-runs the warm scan on every update.
            let mut node_labels: Vec<gpar_graph::Label> =
                sg.graph.nodes().map(|v| sg.graph.node_label(v)).collect();
            let mut edges: Vec<(gpar_graph::NodeId, gpar_graph::NodeId, gpar_graph::Label)> = sg
                .graph
                .nodes()
                .flat_map(|v| sg.graph.out_edges(v).iter().map(move |e| (v, e.node, e.label)))
                .collect();
            let target = degree_extreme(false);
            let median_ns = measure(eip_samples, 1, || {
                let n = gpar_graph::NodeId(node_labels.len() as u32);
                node_labels.push(x_label);
                edges.push((n, target, serve_pred.label));
                let mut b = gpar_graph::GraphBuilder::new(graph.vocab().clone());
                for &l in &node_labels {
                    b.add_node(l);
                }
                for &(s, d, l) in &edges {
                    b.add_edge(s, d, l);
                }
                let engine = ServeEngine::new(
                    std::sync::Arc::new(b.build()),
                    &catalog,
                    ServeConfig { workers: 2, eta: 1.5, ..Default::default() },
                );
                std::hint::black_box(
                    engine.identify(serve_pred, Some(hot.clone())).expect("served").customers.len(),
                );
            });
            let name = "serve/update/rebuild";
            println!("  {name:<44} {median_ns:>12} ns/op");
            scenarios.push(Scenario { name, median_ns, ops: 1 });
        }
    }

    // --- JSON out (hand-rolled: the workspace is serde-free). ---
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p gpar-bench --bin perf_baseline\",\n",
    );
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"graph\": {{ \"users\": {users}, \"nodes\": {}, \"edges\": {} }},\n",
        sg.graph.node_count(),
        sg.graph.edge_count()
    ));
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let comma = if i + 1 == scenarios.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"median_ns_per_op\": {}, \"ops_per_sample\": {} }}{comma}\n",
            s.name, s.median_ns, s.ops
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("wrote {out_path}");
}
