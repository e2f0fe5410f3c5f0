//! End-to-end serving demo: mine diversified GPARs once on a generated
//! social graph, export them to a versioned `RuleCatalog`, round-trip the
//! catalog through the compact binary codec (the on-disk artifact a
//! production deployment ships), then stand up a `ServeEngine` and answer
//! a batch of identification queries — checking the serving answers
//! against a direct one-shot EIP evaluation.
//!
//! Run with: `cargo run --release --example serving`

use gpar::datagen::pokec_like;
use gpar::eip::{identify, EipAlgorithm, EipConfig};
use gpar::graph::NodeId;
use gpar::mine::{DMine, DmineConfig};
use gpar::prelude::Gpar;
use gpar::serve::{IdentifyRequest, RuleCatalog, ServeConfig, ServeEngine};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // ---- 1. Mine once -------------------------------------------------
    let sg = pokec_like(800, 0xBEEF);
    let pred = sg.schema.predicate("music", 0).expect("schema has a music family");
    println!("graph: |V| = {}, |E| = {}", sg.graph.node_count(), sg.graph.edge_count());
    let cfg = DmineConfig { k: 5, sigma: 4, d: 2, workers: 2, max_rounds: 2, ..Default::default() };
    let t0 = Instant::now();
    let mined = DMine::new(cfg).run(&sg.graph, &pred);
    println!(
        "mined: |Σ| = {} rules in {:.2?} (top-k = {})",
        mined.sigma.len(),
        t0.elapsed(),
        mined.top_k.len()
    );

    // ---- 2. Export to a catalog and round-trip the binary codec -------
    let catalog = RuleCatalog::from_mine_result(&mined, sg.graph.vocab().clone());
    let path = std::env::temp_dir().join("gpar_serving_demo.catalog");
    catalog.save_path(&path).expect("save catalog");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    let loaded = RuleCatalog::load_path(&path, sg.graph.vocab().clone()).expect("load catalog");
    println!(
        "catalog: {} rules, version {}, {} bytes on disk, round-trip ok",
        loaded.len(),
        loaded.version(),
        bytes
    );

    // ---- 3. Serve ------------------------------------------------------
    let graph = Arc::new(sg.graph.clone());
    let engine = ServeEngine::new(
        graph,
        &loaded,
        ServeConfig { workers: 4, eta: 0.5, d: Some(2), ..Default::default() },
    );

    // First query warms the predicate (full evaluation, exact global
    // confidences — identical to EIP's assembly).
    let t0 = Instant::now();
    let full = engine.identify(pred, None).expect("serve full query");
    println!(
        "serve: warm-up query -> {} potential customers in {:.2?}",
        full.customers.len(),
        t0.elapsed()
    );

    // A batch of subset queries over a hot candidate set.
    let hot: Vec<NodeId> = full.customers.iter().copied().take(24).collect();
    let reqs: Vec<IdentifyRequest> = (0..48)
        .map(|i| IdentifyRequest {
            predicate: pred,
            candidates: Some(hot[(i * 5) % hot.len().max(1)..].iter().copied().take(6).collect()),
            opts: Default::default(),
        })
        .collect();
    let t0 = Instant::now();
    let answers = engine.identify_batch(reqs);
    let elapsed = t0.elapsed();
    let answered = answers.iter().filter(|a| a.is_ok()).count();
    let stats = engine.stats();
    println!(
        "serve: {answered} batched queries in {:.2?} ({:.0} QPS), {} warm-up(s)",
        elapsed,
        answered as f64 / elapsed.as_secs_f64(),
        stats.warmups
    );

    // Top rules by confidence on the serving graph.
    println!("top rules:");
    for info in engine.top_rules(pred, 3).expect("top_rules") {
        println!(
            "  conf {:>8.3}  supp {:>4}  active {}  {}",
            info.confidence.ranking_value(),
            info.stats.supp_r,
            info.active,
            info.rule
        );
    }

    // ---- 4. Check against direct EIP -----------------------------------
    let sigma: Vec<Gpar> = loaded.rules_for(&pred).iter().map(|e| (*e.rule).clone()).collect();
    let eip = identify(
        &sg.graph,
        &sigma,
        &EipConfig { eta: 0.5, d: Some(2), ..EipConfig::new(EipAlgorithm::Match, 4) },
    )
    .expect("direct EIP");
    let mut expect: Vec<NodeId> = eip.customers.iter().copied().collect();
    expect.sort_unstable();
    assert_eq!(full.customers, expect, "serving answer must equal direct EIP evaluation");
    println!("check: serve answer equals direct EIP evaluation ({} customers) ✓", expect.len());

    let _ = std::fs::remove_file(&path);
}
