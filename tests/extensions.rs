//! Integration coverage of the beyond-the-paper extensions through the
//! public facade: graph I/O, the partitioner beside dynamic updates,
//! significance testing, and the profile/vector query APIs.

use fui::eval::linkpred::{draw_candidates, evaluate_detailed, select_test_edges, LinkPredConfig};
use fui::eval::significance::bootstrap_compare;
use fui::graph::{io, Partition, PartitionStrategy};
use fui::landmarks::dynamic::{ChangeKind, DynamicLandmarks, EdgeChange};
use fui::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> LabeledDataset {
    label_direct(fui::datagen::twitter::generate(&TwitterConfig {
        nodes: 900,
        avg_out_degree: 12.0,
        ..TwitterConfig::default()
    }))
}

#[test]
fn io_round_trip_through_facade() {
    let d = dataset();
    let text = io::to_text(&d.graph);
    let back = io::from_text(&text).expect("own output parses");
    assert_eq!(back.num_edges(), d.graph.num_edges());
    // The reloaded graph scores identically.
    let auth_a = AuthorityIndex::build(&d.graph);
    let auth_b = AuthorityIndex::build(&back);
    for v in d.graph.nodes().take(50) {
        for t in [Topic::Technology, Topic::Social] {
            assert_eq!(auth_a.auth(v, t), auth_b.auth(v, t));
        }
    }
}

#[test]
fn dynamic_and_partition_apis_compose() {
    let d = dataset();
    let authority = AuthorityIndex::build(&d.graph);
    let sim = SimMatrix::opencalais();
    let propagator = Propagator::new(
        &d.graph,
        &authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );
    let mut rng = StdRng::seed_from_u64(5);

    // The serving partitioner splits the users...
    let parts = Partition::build(&d.graph, 4, PartitionStrategy::Hash);
    assert!(d.graph.nodes().all(|v| parts.owner(v) < 4));
    let landmarks = Strategy::InDeg.select(&d.graph, 12, &mut rng);
    let index = LandmarkIndex::build(&propagator, landmarks, 50);
    let u = d
        .graph
        .nodes()
        .find(|&u| d.graph.out_degree(u) >= 3)
        .unwrap();

    // ...and the dynamic wrapper keeps the index maintainable.
    let mut live = DynamicLandmarks::new(index);
    live.record(&EdgeChange {
        follower: u,
        followee: d.graph.followees(u).next().unwrap(),
        labels: TopicSet::single(Topic::Technology),
        kind: ChangeKind::Remove,
    });
    assert_eq!(live.changes_seen(), 1);
    assert!(live.staleness_at(0) >= 0.0);
}

#[test]
fn significance_of_tr_over_twitterrank() {
    let d = dataset();
    let cfg = LinkPredConfig {
        test_size: 60,
        negatives: 300,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(9);
    let tests = select_test_edges(&d.graph, &cfg, &mut rng, |_, _, _| true);
    assert!(tests.len() >= 30);
    let removed: Vec<(NodeId, NodeId)> = tests.iter().map(|e| (e.src, e.dst)).collect();
    let reduced = d.graph.without_edges(&removed);
    let authority = AuthorityIndex::build(&reduced);
    let sim = SimMatrix::opencalais();
    let candidates = draw_candidates(&reduced, &tests, 300, &mut rng);

    let tr = TrRecommender::new(
        &reduced,
        &authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );
    let trank = TwitterRank::compute(
        &reduced,
        &d.tweet_counts,
        &d.publisher_weights,
        &TwitterRankConfig::default(),
    );
    let a = evaluate_detailed(&tr, &tests, &candidates, 10);
    let b = evaluate_detailed(&trank, &tests, &candidates, 10);
    let cmp = bootstrap_compare(&a.ranks, &b.ranks, 10, 500, &mut rng);
    // The headline ordering should be decisive even at this scale.
    assert!(
        cmp.prob_a_beats_b > 0.9,
        "Tr over TwitterRank only p = {}",
        cmp.prob_a_beats_b
    );
}

#[test]
fn profile_and_vector_apis() {
    let d = dataset();
    let authority = AuthorityIndex::build(&d.graph);
    let sim = SimMatrix::opencalais();
    let tr = TrRecommender::new(
        &d.graph,
        &authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );
    let u = d
        .graph
        .nodes()
        .find(|&u| d.graph.out_degree(u) >= 5)
        .unwrap();
    // Query built from the user's own hidden interests.
    let recs = tr.recommend_for_profile(
        u,
        &d.hidden_profiles[u.index()],
        3,
        5,
        RecommendOpts::default(),
    );
    assert!(!recs.is_empty());
    // The per-topic recommendation vector of the top hit is consistent
    // with the combined score.
    let query = d.hidden_profiles[u.index()].top_k(3);
    let topics: Vec<Topic> = query.iter().map(|&(t, _)| t).collect();
    let prop = tr.propagator();
    let r = prop.propagate(u, &topics, PropagateOpts::default());
    let vector = r.recommendation_vector(recs[0].node);
    let recombined: f64 = query.iter().map(|&(t, w)| w * vector.get(t)).sum();
    assert!((recombined - recs[0].score).abs() < 1e-12);
}
