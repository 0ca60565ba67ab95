//! An evaluation loop allocates one propagation workspace, however
//! many test edges it scores: `linkpred::evaluate` hands the same
//! `PropWorkspace` to every `CandidateScorer::score` call, so the
//! 8 B/node stamp array is allocated once per loop, not once per edge.
//!
//! One test function on purpose — it reads the process-global
//! `propagate.workspace.allocs` counter, and integration-test binaries
//! run their tests in parallel threads; a single `#[test]` in its own
//! binary keeps every other propagation out of the reading.

use fui_core::{AuthorityIndex, Propagator, ScoreParams, ScoreVariant, TrRecommender};
use fui_datagen::{label_direct, twitter, TwitterConfig};
use fui_eval::linkpred::{draw_candidates, evaluate, select_test_edges, LinkPredConfig};
use fui_eval::CandidateScorer;
use fui_graph::NodeId;
use fui_landmarks::{ApproxRecommender, LandmarkIndex};
use fui_taxonomy::SimMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn each_evaluation_loop_allocates_one_workspace() {
    fui_obs::set_level(fui_obs::Level::Counters);
    let d = label_direct(twitter::generate(&TwitterConfig::tiny()));
    let cfg = LinkPredConfig {
        test_size: 24,
        negatives: 50,
        ..LinkPredConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0x10C5);
    let tests = select_test_edges(&d.graph, &cfg, &mut rng, |_, _, _| true);
    assert!(tests.len() >= 16, "only {} test edges", tests.len());
    let candidates = draw_candidates(&d.graph, &tests, cfg.negatives, &mut rng);

    let auth = AuthorityIndex::build(&d.graph);
    let sim = SimMatrix::opencalais();
    let params = ScoreParams::default();
    let tr = TrRecommender::new(&d.graph, &auth, &sim, params, ScoreVariant::Full);
    let p = Propagator::new(&d.graph, &auth, &sim, params, ScoreVariant::Full);
    let landmarks: Vec<NodeId> = (0..12).map(|i| NodeId(i * 31)).collect();
    let index = LandmarkIndex::build(&p, landmarks, 100);
    let approx = ApproxRecommender::new(&p, &index);

    let allocs = fui_obs::counter("propagate.workspace.allocs");
    let scorers: [&dyn CandidateScorer; 2] = [&tr, &approx];
    for scorer in scorers {
        let before = allocs.get();
        let curve = evaluate(scorer, &tests, &candidates, 10);
        assert_eq!(curve.trials, tests.len());
        assert_eq!(
            allocs.get() - before,
            1,
            "{} allocated per edge over {} edges",
            scorer.name(),
            tests.len()
        );
    }
}
