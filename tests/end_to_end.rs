//! End-to-end integration: generation → topic-extraction pipeline →
//! exact recommendation → landmark preprocessing → approximate
//! recommendation → persistence, all through the public facade API.

use fui::landmarks::persist;
use fui::prelude::*;

fn dataset() -> LabeledDataset {
    let raw = fui::datagen::twitter::generate(&TwitterConfig {
        nodes: 1200,
        avg_out_degree: 14.0,
        ..TwitterConfig::default()
    });
    build_labeled(
        raw,
        &TweetGenerator::standard(),
        &PipelineConfig {
            tweets_per_user: 12,
            ..PipelineConfig::default()
        },
    )
}

#[test]
fn full_stack_recommendation_flow() {
    let d = dataset();
    assert!(d.classifier_precision.unwrap() > 0.5);

    let authority = AuthorityIndex::build(&d.graph);
    let sim = SimMatrix::opencalais();
    let params = ScoreParams::paper();
    params.validate(&d.graph).expect("paper β converges here");

    // Exact recommendation for a well-connected user.
    let user = d
        .graph
        .nodes()
        .find(|&u| d.graph.out_degree(u) >= 5)
        .expect("graph has active users");
    let topic = d
        .graph
        .node_labels(user)
        .first()
        .unwrap_or(Topic::Technology);
    let tr = TrRecommender::new(&d.graph, &authority, &sim, params, ScoreVariant::Full);
    let recs = tr.recommend(user, topic, 10, RecommendOpts::default());
    assert!(!recs.is_empty(), "exact recommendation came back empty");
    for w in recs.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
    // Recommendations respect the exclude-followed contract.
    for r in &recs {
        assert!(!d.graph.has_edge(user, r.node));
    }

    // Landmark pipeline: select → preprocess → persist → reload →
    // query; the approximation stays a lower bound of the exact score.
    let propagator = Propagator::new(&d.graph, &authority, &sim, params, ScoreVariant::Full);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let landmarks = Strategy::InDeg.select(&d.graph, 15, &mut rng);
    let index = LandmarkIndex::build(&propagator, landmarks, 100);
    let bytes = persist::encode(&index, d.graph.num_nodes());
    let (index, _) = persist::decode(bytes).expect("snapshot decodes");

    let approx = ApproxRecommender::new(&propagator, &index);
    let result = approx.recommend(user, topic, 50);
    let exact = propagator.propagate(user, &[topic], PropagateOpts::default());
    for &(v, s) in &result.recommendations {
        assert!(
            s <= exact.sigma(v, topic) + 1e-9,
            "approximation exceeded the exact score at {v}"
        );
    }
}

#[test]
fn baselines_run_on_the_same_graph() {
    let d = dataset();
    let authority = AuthorityIndex::build(&d.graph);
    let sim = SimMatrix::opencalais();
    let params = ScoreParams::paper();

    let user = d
        .graph
        .nodes()
        .find(|&u| d.graph.out_degree(u) >= 5)
        .unwrap();
    let topic = Topic::Technology;

    let katz = KatzScorer::new(&d.graph, params.beta);
    let katz_top = katz.recommend(user, 10);
    assert!(!katz_top.is_empty());

    let trank = TwitterRank::compute(
        &d.graph,
        &d.tweet_counts,
        &d.publisher_weights,
        &TwitterRankConfig::default(),
    );
    let tr_top = trank.recommend(topic, Some(user), 10);
    assert_eq!(tr_top.len(), 10);
    // TwitterRank mass is a probability distribution.
    let total: f64 = trank.topic_ranks(topic).iter().sum();
    assert!((total - 1.0).abs() < 1e-6);

    // The engine's Katz variant and the standalone scorer agree.
    let engine_katz = TrRecommender::new(
        &d.graph,
        &authority,
        &sim,
        ScoreParams {
            tolerance: 1e-12,
            ..params
        },
        ScoreVariant::TopoOnly,
    );
    let scores_a = engine_katz.score_candidates(
        user,
        topic,
        &katz_top.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
        RecommendOpts {
            exclude_followed: false,
            max_depth: None,
        },
    );
    let katz_precise = KatzScorer::new(&d.graph, params.beta).with_limits(1e-12, 30);
    let scores_b =
        katz_precise.score_candidates(user, &katz_top.iter().map(|&(v, _)| v).collect::<Vec<_>>());
    for (a, b) in scores_a.iter().zip(&scores_b) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}

#[test]
fn graph_edit_then_rescore_stays_consistent() {
    let d = dataset();
    // Remove a batch of edges (link-prediction style) and verify the
    // whole index stack rebuilds cleanly on the reduced graph.
    let victims: Vec<(NodeId, NodeId)> = d
        .graph
        .edges()
        .map(|(u, v, _)| (u, v))
        .step_by(17)
        .take(40)
        .collect();
    let reduced = d.graph.without_edges(&victims);
    reduced.check_consistency().unwrap();
    let authority = AuthorityIndex::build(&reduced);
    for &(u, v) in &victims {
        assert!(!reduced.has_edge(u, v));
    }
    // Authority may only shrink when followers disappear (checked in
    // detail for one victim; the full pass above covers existence).
    let (_, v0) = victims[0];
    let full_auth = AuthorityIndex::build(&d.graph);
    for t in Topic::ALL {
        assert!(authority.followers_on(v0, t) <= full_auth.followers_on(v0, t));
    }
    let sim = SimMatrix::opencalais();
    let tr = TrRecommender::new(
        &reduced,
        &authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );
    let (u, v) = victims[0];
    // Scoring the removed edge's endpoints still works.
    let _ = tr.score_candidates(
        u,
        Topic::Technology,
        &[v],
        RecommendOpts {
            exclude_followed: false,
            max_depth: None,
        },
    );
}
