//! Quickstart: build a small labeled follow graph by hand and ask for
//! recommendations — a runnable version of the paper's Figure 1 /
//! Example 2.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fui::prelude::*;

fn main() {
    // The Figure 1 cast: A follows B and C; B and C lead further out.
    let mut b = GraphBuilder::new();
    let tech = TopicSet::single(Topic::Technology);
    let business = TopicSet::single(Topic::Business);

    let a = b.add_node(TopicSet::empty());
    let bob = b.add_node(tech.with(Topic::Business));
    let carol = b.add_node(tech);
    let dave = b.add_node(tech);
    let erin = b.add_node(business);

    // A's interests: technology (and business) through B, business
    // through C.
    b.add_edge(a, bob, tech.with(Topic::Business));
    b.add_edge(a, carol, business);
    // B is a specialised technology publisher, C a generalist: extra
    // followers shape their authority.
    let f1 = b.add_node(TopicSet::empty());
    let f2 = b.add_node(TopicSet::empty());
    let f3 = b.add_node(TopicSet::empty());
    b.add_edge(f1, bob, tech);
    b.add_edge(f2, carol, business);
    b.add_edge(f3, carol, business);
    // The two-hop frontier: D via B (on technology), E via C (on
    // business).
    b.add_edge(bob, dave, tech);
    b.add_edge(carol, erin, business);
    let graph = b.build();

    println!(
        "graph: {} accounts, {} follows",
        graph.num_nodes(),
        graph.num_edges()
    );

    // Index the graph once, then ask for recommendations.
    let authority = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let params = ScoreParams::paper(); // β = 0.0005, α = 0.85
    params.validate(&graph).expect("β satisfies Proposition 3");

    let tr = TrRecommender::new(&graph, &authority, &sim, params, ScoreVariant::Full);
    // Every query runs inside a workspace the caller keeps and reuses.
    let mut ws = PropWorkspace::new();
    println!("\nWho should A follow on technology?");
    let recs = tr.recommend(
        &mut ws,
        a,
        Topic::Technology,
        5,
        RecommendOpts::default(), // excludes accounts A already follows
    );
    for (rank, r) in recs.iter().enumerate() {
        println!("  #{} account {} (score {:.3e})", rank + 1, r.node, r.score);
    }
    // D wins: reached through B, whose technology authority and
    // on-topic edges beat C's business-flavoured route to E — the
    // paper's Example 2 conclusion.
    assert_eq!(recs[0].node, dave);

    println!("\nMulti-topic query {{technology: 0.7, business: 0.3}}:");
    let multi = tr.recommend_weighted(
        &mut ws,
        a,
        &[(Topic::Technology, 0.7), (Topic::Business, 0.3)],
        5,
        RecommendOpts::default(),
    );
    for (rank, r) in multi.iter().enumerate() {
        println!("  #{} account {} (score {:.3e})", rank + 1, r.node, r.score);
    }
}
