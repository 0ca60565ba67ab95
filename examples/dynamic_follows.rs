//! Living-graph maintenance: keep a landmark index fresh while follows
//! churn — the paper's Section-6 future work, runnable.
//!
//! ```text
//! cargo run --release --example dynamic_follows [nodes]
//! ```

use fui::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6_000);

    println!("generating a {nodes}-account follow graph...");
    let dataset = label_direct(fui::datagen::twitter::generate(&TwitterConfig {
        nodes,
        avg_out_degree: 16.0,
        ..TwitterConfig::default()
    }));
    let graph = dataset.graph.clone();
    let authority = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let propagator = Propagator::new(
        &graph,
        &authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );

    let mut rng = StdRng::seed_from_u64(99);
    let landmarks = Strategy::InDeg.select(&graph, 25, &mut rng);
    let index = LandmarkIndex::build(&propagator, landmarks, 100);
    println!("indexed {} landmarks\n", index.len());

    // Wrap with the refresh policy: a landmark is flagged when the
    // accumulated impact of churn reaches 20% of its stored mass.
    let mut live = DynamicLandmarks::with_policy(index, 0.2, 1e-9);

    // Simulate a day of churn: random unfollows and new follows.
    let mut edges: Vec<(NodeId, NodeId, TopicSet)> = graph.edges().collect();
    edges.shuffle(&mut rng);
    let unfollows = &edges[..600.min(edges.len() / 4)];
    println!(
        "simulating churn: {} unfollows + {} follows...",
        unfollows.len(),
        unfollows.len()
    );
    // One change list: each unfollow, then the replacement follow that
    // appears somewhere else. The policy and the graph edit both read it.
    let mut changes = Vec::new();
    for &(u, v, labels) in unfollows {
        changes.push(EdgeChange::remove(u, v, labels));
        let a = NodeId(rng.gen_range(0..graph.num_nodes() as u32));
        let b = NodeId(rng.gen_range(0..graph.num_nodes() as u32));
        if a != b {
            changes.push(EdgeChange::insert(
                a,
                b,
                TopicSet::single(Topic::Technology),
            ));
        }
    }
    for c in &changes {
        live.record(c);
    }
    println!("recorded {} changes", live.changes_seen());

    let flagged = live.stale_slots();
    println!(
        "{} of {} landmarks crossed the staleness threshold",
        flagged.len(),
        live.index().len()
    );

    // Apply the churn to the graph and refresh only the flagged
    // landmarks against it.
    let new_graph = fui::service::apply_changes(&graph, &changes);
    let new_authority = AuthorityIndex::build(&new_graph);
    let new_propagator = Propagator::new(
        &new_graph,
        &new_authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );
    let t0 = std::time::Instant::now();
    let refreshed = live.refresh_stale(&new_propagator);
    println!(
        "refreshed {refreshed} landmarks in {:.2}s (a full rebuild would touch all {})",
        t0.elapsed().as_secs_f64(),
        live.index().len()
    );

    // The maintained index serves queries on the new graph.
    let approx = ApproxRecommender::new(&new_propagator, live.index());
    let user = new_graph
        .nodes()
        .find(|&u| new_graph.out_degree(u) >= 5)
        .expect("active user exists");
    let topic = new_graph
        .node_labels(user)
        .first()
        .unwrap_or(Topic::Technology);
    println!("\ntop-5 for {user} on '{topic}' after churn:");
    let mut ws = PropWorkspace::new();
    for (v, score) in approx
        .recommend_with(&mut ws, user, topic, 5)
        .recommendations
    {
        println!("  {v:<7} score {score:.3e}");
    }
}
