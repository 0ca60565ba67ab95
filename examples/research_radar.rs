//! Research radar over a synthetic DBLP-like citation graph: for a
//! researcher, surface authors worth reading that are *not* the
//! obvious celebrities — the paper's Table 3 setting, which caps
//! recommended authors at 100 citations.
//!
//! ```text
//! cargo run --release --example research_radar [authors]
//! ```

use fui::eval::userstudy::TopRecommender;
use fui::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let authors: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000);

    println!("generating a {authors}-author citation graph...");
    let raw = fui::datagen::dblp::generate(&DblpConfig {
        nodes: authors,
        ..DblpConfig::default()
    });
    let dataset = label_direct(raw);
    let stats = GraphStats::compute(&dataset.graph);
    println!(
        "  {} citations, avg out-degree {:.1}, max citations {}",
        stats.edges, stats.avg_out_degree, stats.max_in_degree
    );

    let authority = AuthorityIndex::build(&dataset.graph);
    let sim = SimMatrix::opencalais();
    let tr = TrRecommender::new(
        &dataset.graph,
        &authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );
    let katz = KatzScorer::new(&dataset.graph, ScoreParams::paper().beta);

    // A researcher with a real citation record.
    let mut rng = StdRng::seed_from_u64(11);
    let me = loop {
        let u = NodeId(rng.gen_range(0..dataset.graph.num_nodes() as u32));
        if dataset.graph.out_degree(u) >= 8 {
            break u;
        }
    };
    let area = dataset
        .graph
        .node_labels(me)
        .first()
        .unwrap_or(Topic::Technology);
    println!(
        "\nresearcher {me}: {} citations made, area '{area}'",
        dataset.graph.out_degree(me)
    );

    // The paper's anti-celebrity cap: skip authors everyone already
    // knows (here, scaled to the synthetic graph's density).
    let cap = (stats.edges / stats.nodes) * 3;
    let fresh = |v: NodeId| v != me && dataset.graph.in_degree(v) <= cap;
    println!("(hiding authors with more than {cap} citations)\n");

    let mut ws = PropWorkspace::new();
    println!("  Tr suggests reading:");
    for v in TopRecommender::top_k(&tr, &mut ws, me, area, 5, &fresh) {
        describe(&dataset, v);
    }
    println!("\n  Katz suggests reading:");
    for v in TopRecommender::top_k(&katz, &mut ws, me, area, 5, &fresh) {
        describe(&dataset, v);
    }
}

fn describe(dataset: &LabeledDataset, v: NodeId) {
    println!(
        "    author {v:<7} {:>3} citations, writes on {}",
        dataset.graph.in_degree(v),
        dataset.graph.node_labels(v)
    );
}
