//! Dataset tooling: generate, inspect and query labeled follow graphs
//! in the `fui-graph` TSV interchange format — the bridge between the
//! synthetic generators and real datasets.
//!
//! ```text
//! cargo run --release -p fui-bench --bin datatool -- <command>
//!
//! commands:
//!   generate twitter|dblp --nodes N [--avg-out D] [--seed S]
//!            [--pipeline] --out FILE     write a generated graph
//!   stats FILE                           Table-2 properties + topics
//!   recommend FILE --user U --topic T [--top K] [--katz]
//!                                        run Tr (or Katz) on the file
//! ```

use std::process::exit;

use fui_baselines::KatzScorer;
use fui_core::{
    AuthorityIndex, PropWorkspace, RecommendOpts, ScoreParams, ScoreVariant, TrRecommender,
};
use fui_datagen::{build_labeled, dblp, label_direct, twitter, DblpConfig, TwitterConfig};
use fui_graph::stats::GraphStats;
use fui_graph::{io, NodeId, SocialGraph};
use fui_taxonomy::{SimMatrix, Topic, NUM_TOPICS};
use fui_textmine::{PipelineConfig, TweetGenerator};

fn usage() -> ! {
    eprintln!(
        "usage:\n  datatool generate twitter|dblp --nodes N [--avg-out D] [--seed S] \
         [--pipeline] --out FILE\n  datatool stats FILE\n  datatool recommend FILE \
         --user U --topic T [--top K] [--katz]"
    );
    exit(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("recommend") => recommend(&args[1..]),
        _ => usage(),
    }
}

fn generate(args: &[String]) {
    let family = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let nodes: usize = flag_value(args, "--nodes")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    let avg_out: Option<f64> = flag_value(args, "--avg-out").and_then(|s| s.parse().ok());
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let out = flag_value(args, "--out").unwrap_or_else(|| usage());
    let pipeline = args.iter().any(|a| a == "--pipeline");

    let raw = match family {
        "twitter" => twitter::generate(&TwitterConfig {
            nodes,
            avg_out_degree: avg_out.unwrap_or(16.0),
            seed,
            ..TwitterConfig::default()
        }),
        "dblp" => dblp::generate(&DblpConfig {
            nodes,
            avg_out_degree: avg_out.unwrap_or(18.0),
            seed,
            ..DblpConfig::default()
        }),
        other => {
            eprintln!("unknown dataset family {other:?} (twitter|dblp)");
            exit(2)
        }
    };
    let labeled = if pipeline {
        build_labeled(raw, &TweetGenerator::standard(), &PipelineConfig::default())
    } else {
        label_direct(raw)
    };
    if let Some(p) = labeled.classifier_precision {
        eprintln!("pipeline labels applied (classifier precision {p:.3})");
    }
    std::fs::write(&out, io::to_text(&labeled.graph)).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1)
    });
    eprintln!(
        "wrote {} nodes / {} edges to {out}",
        labeled.graph.num_nodes(),
        labeled.graph.num_edges()
    );
}

fn load(path: &str) -> SocialGraph {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    io::from_text(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1)
    })
}

fn stats(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let graph = load(path);
    let s = GraphStats::compute(&graph);
    println!("nodes            {}", s.nodes);
    println!("edges            {}", s.edges);
    println!("avg out-degree   {:.1}", s.avg_out_degree);
    println!("max in-degree    {}", s.max_in_degree);
    println!("max out-degree   {}", s.max_out_degree);
    println!(
        "giant component  {:.3}",
        fui_graph::components::giant_component_fraction(&graph)
    );
    let mut counts = [0usize; NUM_TOPICS];
    for (_, _, labels) in graph.edges() {
        for t in labels.iter() {
            counts[t.index()] += 1;
        }
    }
    let mut order: Vec<usize> = (0..NUM_TOPICS).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    println!("\nedges per topic:");
    for &i in order.iter().take(8) {
        println!("  {:<16} {}", Topic::from_index(i).name(), counts[i]);
    }
}

fn recommend(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let graph = load(path);
    let user: u32 = flag_value(args, "--user")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let topic: Topic = flag_value(args, "--topic")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let top: usize = flag_value(args, "--top")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    if user as usize >= graph.num_nodes() {
        eprintln!(
            "user {user} out of range (graph has {} nodes)",
            graph.num_nodes()
        );
        exit(1)
    }
    let u = NodeId(user);
    if args.iter().any(|a| a == "--katz") {
        let katz = KatzScorer::new(&graph, ScoreParams::paper().beta);
        for (rank, (v, score)) in katz.recommend(u, top).into_iter().enumerate() {
            println!("#{:<3} {:<8} katz {:.3e}", rank + 1, v.to_string(), score);
        }
        return;
    }
    let authority = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let tr = TrRecommender::new(
        &graph,
        &authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );
    let recs = tr.recommend(
        &mut PropWorkspace::new(),
        u,
        topic,
        top,
        RecommendOpts::default(),
    );
    if recs.is_empty() {
        println!("no recommendations for {u} on '{topic}' (unreachable or unlabeled region)");
    }
    for (rank, r) in recs.into_iter().enumerate() {
        println!(
            "#{:<3} {:<8} score {:.3e}  publishes on {}",
            rank + 1,
            r.node.to_string(),
            r.score,
            graph.node_labels(r.node)
        );
    }
}
