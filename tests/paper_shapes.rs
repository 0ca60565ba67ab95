//! Integration tests pinning the *qualitative* claims of the paper —
//! the method orderings and regime effects that EXPERIMENTS.md
//! reports, checked at a reduced scale so the suite stays fast.

use fui::eval::buckets::{select_bucketed_edges, PopularityBucket};
use fui::eval::linkpred::{draw_candidates, evaluate, select_test_edges, LinkPredConfig};
use fui::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn twitter() -> LabeledDataset {
    label_direct(fui::datagen::twitter::generate(&TwitterConfig {
        nodes: 4000,
        avg_out_degree: 14.0,
        ..TwitterConfig::default()
    }))
}

struct Curves {
    tr: f64,
    katz: f64,
    twitterrank: f64,
}

/// Recall@10 of the three headline methods under the paper protocol.
fn recall_at_10(d: &LabeledDataset, tests: Vec<fui::eval::TestEdge>, seed: u64) -> Curves {
    let removed: Vec<(NodeId, NodeId)> = tests.iter().map(|e| (e.src, e.dst)).collect();
    let reduced = d.graph.without_edges(&removed);
    let authority = AuthorityIndex::build(&reduced);
    let sim = SimMatrix::opencalais();
    let params = ScoreParams::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let candidates = draw_candidates(&reduced, &tests, 600, &mut rng);

    let tr = TrRecommender::new(&reduced, &authority, &sim, params, ScoreVariant::Full);
    let katz = KatzScorer::new(&reduced, params.beta);
    let trank = TwitterRank::compute(
        &reduced,
        &d.tweet_counts,
        &d.publisher_weights,
        &TwitterRankConfig::default(),
    );
    Curves {
        tr: evaluate(&tr, &tests, &candidates, 10).recall_at(10),
        katz: evaluate(&katz, &tests, &candidates, 10).recall_at(10),
        twitterrank: evaluate(&trank, &tests, &candidates, 10).recall_at(10),
    }
}

#[test]
fn tr_beats_katz_beats_twitterrank() {
    let d = twitter();
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = LinkPredConfig {
        test_size: 50,
        ..Default::default()
    };
    let tests = select_test_edges(&d.graph, &cfg, &mut rng, |_, _, _| true);
    assert!(tests.len() >= 30, "not enough eligible edges");
    let c = recall_at_10(&d, tests, 2);
    // The paper's Figure 4 ordering.
    assert!(c.tr > c.katz, "Tr ({}) should beat Katz ({})", c.tr, c.katz);
    assert!(
        c.tr > c.twitterrank,
        "Tr ({}) should beat TwitterRank ({})",
        c.tr,
        c.twitterrank
    );
    assert!(c.tr > 0.1, "Tr recall@10 suspiciously low: {}", c.tr);
}

#[test]
fn popular_targets_are_much_easier() {
    let d = twitter();
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = LinkPredConfig {
        test_size: 40,
        ..Default::default()
    };
    let hi = select_bucketed_edges(&d.graph, &cfg, PopularityBucket::Top10, &mut rng);
    let lo = select_bucketed_edges(&d.graph, &cfg, PopularityBucket::Bottom10, &mut rng);
    assert!(!hi.is_empty() && !lo.is_empty());
    let top = recall_at_10(&d, hi, 4);
    let bottom = recall_at_10(&d, lo, 5);
    // Figure 8: popular targets are near-saturated, unpopular ones
    // hard — for every method.
    assert!(
        top.tr > bottom.tr,
        "Tr: top-decile {} <= bottom-decile {}",
        top.tr,
        bottom.tr
    );
    assert!(
        top.katz >= bottom.katz,
        "Katz: top {} < bottom {}",
        top.katz,
        bottom.katz
    );
    assert!(
        top.tr > 0.5,
        "popular targets should be easy, got {}",
        top.tr
    );
}

#[test]
fn landmark_query_much_faster_than_exact_at_scale() {
    use std::time::Instant;
    let d = twitter();
    let authority = AuthorityIndex::build(&d.graph);
    let sim = SimMatrix::opencalais();
    let propagator = Propagator::new(
        &d.graph,
        &authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );
    let mut rng = StdRng::seed_from_u64(6);
    let landmarks = Strategy::InDeg.select(&d.graph, 20, &mut rng);
    let index = LandmarkIndex::build(&propagator, landmarks, 100);
    let approx = ApproxRecommender::new(&propagator, &index);

    let queries: Vec<NodeId> = d
        .graph
        .nodes()
        .filter(|&u| d.graph.out_degree(u) >= 3)
        .take(15)
        .collect();
    // Both loops reuse one workspace, so neither pays a per-query
    // allocation.
    let mut ws = PropWorkspace::new();
    let t0 = Instant::now();
    for &u in &queries {
        let _ = propagator.propagate(&mut ws, u, &[Topic::Technology], PropagateOpts::default());
    }
    let exact = t0.elapsed();
    let t1 = Instant::now();
    for &u in &queries {
        let _ = approx.recommend_with(&mut ws, u, Topic::Technology, 100);
    }
    let fast = t1.elapsed();
    // The full 2–3 orders of magnitude need the paper's scale; at 4k
    // nodes the approximation must still win clearly.
    assert!(
        fast < exact / 2,
        "approximate ({fast:?}) not faster than exact ({exact:?})"
    );
}

#[test]
fn dblp_self_citation_makes_recall_climb_fast() {
    // Figure 6's DBLP effect: recall grows faster thanks to
    // self-citation clusters; check Tr's recall on DBLP beats its
    // Twitter counterpart at equal scale.
    let db = label_direct(fui::datagen::dblp::generate(&DblpConfig {
        nodes: 4000,
        avg_out_degree: 14.0,
        ..DblpConfig::default()
    }));
    let tw = twitter();
    let cfg = LinkPredConfig {
        test_size: 40,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(8);
    let t_db = select_test_edges(&db.graph, &cfg, &mut rng, |_, _, _| true);
    let t_tw = select_test_edges(&tw.graph, &cfg, &mut rng, |_, _, _| true);
    let c_db = recall_at_10(&db, t_db, 9);
    let c_tw = recall_at_10(&tw, t_tw, 10);
    assert!(
        c_db.tr >= c_tw.tr,
        "DBLP Tr recall {} below Twitter's {}",
        c_db.tr,
        c_tw.tr
    );
}
