//! A who-to-follow *service*: precompute a landmark index (Algorithm
//! 1), snapshot it to disk, reload, and serve approximate
//! recommendations (Algorithm 2) — measuring the speed-up over exact
//! scoring that motivates the whole of Section 4.
//!
//! ```text
//! cargo run --release --example landmark_service [nodes] [landmarks]
//! ```

use std::time::Instant;

use fui::landmarks::persist;
use fui::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Record span timings too, so the exit summary can report the
    // service's p95 straight from the fui-obs registry.
    fui::obs::set_level(fui::obs::Level::Full);
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let n_landmarks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(50);

    println!("generating a {nodes}-account follow graph...");
    let dataset = label_direct(fui::datagen::twitter::generate(&TwitterConfig {
        nodes,
        avg_out_degree: 16.0,
        ..TwitterConfig::default()
    }));
    let authority = AuthorityIndex::build(&dataset.graph);
    let sim = SimMatrix::opencalais();
    let propagator = Propagator::new(
        &dataset.graph,
        &authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );

    // Preprocessing: select landmarks (In-Deg strategy — the one that
    // meets the most landmarks per query in Table 6) and run
    // Algorithm 1 for each.
    let mut rng = StdRng::seed_from_u64(3);
    let landmarks = Strategy::InDeg.select(&dataset.graph, n_landmarks, &mut rng);
    println!("preprocessing {n_landmarks} landmarks (top-100 per topic)...");
    let t0 = Instant::now();
    let index = LandmarkIndex::build(&propagator, landmarks, 100);
    println!(
        "  built in {:.1}s, stored lists use {:.1} KiB",
        t0.elapsed().as_secs_f64(),
        index.size_bytes() as f64 / 1024.0
    );

    // Snapshot and reload, as a deployment would.
    let snapshot = persist::encode(&index, dataset.graph.num_nodes());
    let path = std::env::temp_dir().join("fui-landmarks.bin");
    std::fs::write(&path, &snapshot).expect("write snapshot");
    let raw = std::fs::read(&path).expect("read snapshot");
    let (index, _) = persist::decode(raw.into()).expect("decode snapshot");
    println!(
        "  snapshot round-trip: {} bytes at {}",
        snapshot.len(),
        path.display()
    );

    // Serve queries: approximate vs exact, same users.
    let approx = ApproxRecommender::new(&propagator, &index);
    let queries: Vec<(NodeId, Topic)> = (0..30)
        .map(|_| {
            let u = NodeId(rng.gen_range(0..dataset.graph.num_nodes() as u32));
            let t = dataset
                .graph
                .node_labels(u)
                .first()
                .unwrap_or(Topic::Technology);
            (u, t)
        })
        .collect();

    // One workspace serves every query of both loops.
    let mut ws = PropWorkspace::new();
    let t_exact = Instant::now();
    for &(u, t) in &queries {
        let _ = propagator.propagate(&mut ws, u, &[t], PropagateOpts::default());
    }
    let exact_ms = t_exact.elapsed().as_secs_f64() * 1000.0 / queries.len() as f64;

    let t_approx = Instant::now();
    let mut landmarks_met = 0usize;
    for &(u, t) in &queries {
        landmarks_met += approx.recommend_with(&mut ws, u, t, 10).landmarks_found;
    }
    let approx_ms = t_approx.elapsed().as_secs_f64() * 1000.0 / queries.len() as f64;

    println!("\nper-query latency over {} queries:", queries.len());
    println!("  exact (converged propagation): {exact_ms:.2} ms");
    println!(
        "  landmark-approximate:          {approx_ms:.3} ms  ({:.0}x faster, \
         {:.1} landmarks met/query)",
        exact_ms / approx_ms,
        landmarks_met as f64 / queries.len() as f64
    );

    let (u, t) = queries[0];
    println!("\nsample: top-5 for {u} on '{t}':");
    for (v, score) in approx.recommend_with(&mut ws, u, t, 5).recommendations {
        println!("  {v:<7} score {score:.3e}");
    }

    // One-line service summary from the observability registry: every
    // `landmark.query` span lands in the histogram of the same name.
    let snap = fui::obs::snapshot();
    if let Some(h) = snap.hist("landmark.query") {
        println!(
            "\nobs: served {} queries, p95 {:.3} ms, max {:.3} ms",
            h.count,
            h.p95 as f64 / 1e6,
            h.max as f64 / 1e6
        );
    }
}
