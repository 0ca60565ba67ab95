//! Who-to-follow over a synthetic Twitter-like network: generate a
//! labeled graph through the full topic-extraction pipeline, then put
//! Tr, Katz and TwitterRank side by side for one user.
//!
//! ```text
//! cargo run --release --example who_to_follow [nodes]
//! ```

use fui::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);

    // 1. Generate topology + hidden interests, then label it the way
    // the paper does: synthetic tweets → 10% seeded → classifier →
    // profiles → edge labels.
    println!("generating a {nodes}-account follow graph...");
    let raw = fui::datagen::twitter::generate(&TwitterConfig {
        nodes,
        avg_out_degree: 18.0,
        ..TwitterConfig::default()
    });
    let dataset = build_labeled(raw, &TweetGenerator::standard(), &PipelineConfig::default());
    println!(
        "  {} follows, label-classifier precision {:.2}",
        dataset.graph.num_nodes(),
        dataset.classifier_precision.unwrap_or(f64::NAN)
    );

    // 2. Build the scorers.
    let authority = AuthorityIndex::build(&dataset.graph);
    let sim = SimMatrix::opencalais();
    let params = ScoreParams::paper();
    let tr = TrRecommender::new(&dataset.graph, &authority, &sim, params, ScoreVariant::Full);
    let katz = KatzScorer::new(&dataset.graph, params.beta);
    let twitterrank = TwitterRank::compute(
        &dataset.graph,
        &dataset.tweet_counts,
        &dataset.publisher_weights,
        &TwitterRankConfig::default(),
    );

    // 3. Pick a user and a topic he actually cares about.
    let mut rng = StdRng::seed_from_u64(7);
    let user = loop {
        let u = NodeId(rng.gen_range(0..dataset.graph.num_nodes() as u32));
        if dataset.graph.out_degree(u) >= 5 {
            break u;
        }
    };
    let topic = dataset
        .graph
        .node_labels(user)
        .first()
        .unwrap_or(Topic::Technology);
    println!(
        "\nrecommendations for {user} on '{topic}' \
         (he follows {} accounts):",
        dataset.graph.out_degree(user)
    );

    // 4. Compare the three methods' top-5.
    println!("\n  Tr (topology × semantics × authority):");
    let mut ws = PropWorkspace::new();
    for r in tr.recommend(&mut ws, user, topic, 5, RecommendOpts::default()) {
        describe(&dataset, r.node, r.score);
    }
    println!("\n  Katz (topology only):");
    for (node, score) in katz.recommend(user, 5) {
        describe(&dataset, node, score);
    }
    println!("\n  TwitterRank (global topical popularity):");
    for (node, score) in twitterrank.recommend(topic, Some(user), 5) {
        describe(&dataset, node, score);
    }
}

fn describe(dataset: &LabeledDataset, node: NodeId, score: f64) {
    println!(
        "    {node:<7} score {score:<10.3e} followers {:<5} publishes on {}",
        dataset.graph.in_degree(node),
        dataset.graph.node_labels(node)
    );
}
