//! Property tests on the baselines: the standalone Katz implementation
//! must agree with the core engine's `TopoOnly` variant on arbitrary
//! graphs, and TwitterRank must stay a per-topic probability
//! distribution under arbitrary inputs.

use fui_baselines::{KatzScorer, TwitterRank, TwitterRankConfig};
use fui_core::{
    AuthorityIndex, PropWorkspace, PropagateOpts, Propagator, ScoreParams, ScoreVariant,
};
use fui_graph::{GraphBuilder, NodeId, SocialGraph, TopicSet};
use fui_taxonomy::{SimMatrix, Topic, TopicWeights, NUM_TOPICS};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = SocialGraph> {
    (2usize..16).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0u32..(1 << NUM_TOPICS));
        proptest::collection::vec(edge, 1..60).prop_map(move |edges| {
            let mut b = GraphBuilder::new();
            for _ in 0..n {
                b.add_node(TopicSet::empty());
            }
            for (u, v, mask) in edges {
                if u != v {
                    b.add_edge(NodeId(u), NodeId(v), TopicSet::from_mask(mask | 1));
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn standalone_katz_agrees_with_engine(g in arb_graph(), beta in 0.01f64..0.3) {
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let params = ScoreParams {
            beta,
            tolerance: 1e-13,
            max_depth: 80,
            ..ScoreParams::default()
        };
        let engine = Propagator::new(&g, &auth, &sim, params, ScoreVariant::TopoOnly);
        let mut ws = PropWorkspace::new();
        let r = engine.propagate(&mut ws, NodeId(0), &[], PropagateOpts::default());
        let katz = KatzScorer::new(&g, beta).with_limits(1e-13, 80);
        let s = katz.scores_from(NodeId(0));
        for v in g.nodes() {
            prop_assert!(
                (s[v.index()] - r.topo_beta(v)).abs() < 1e-8 * (1.0 + s[v.index()].abs()),
                "node {v}: standalone {} vs engine {}",
                s[v.index()],
                r.topo_beta(v)
            );
        }
    }

    #[test]
    fn katz_scores_are_monotone_under_edge_addition(
        g in arb_graph(),
        beta in 0.01f64..0.2,
    ) {
        // Adding an edge can only add walks: no Katz score decreases.
        let katz = KatzScorer::new(&g, beta).with_limits(1e-13, 60);
        let before = katz.scores_from(NodeId(0));
        // Add an edge from node 0 to the last node (if absent).
        let target = NodeId((g.num_nodes() - 1) as u32);
        prop_assume!(target != NodeId(0) && !g.has_edge(NodeId(0), target));
        let g2 = g.with_edges(&[(NodeId(0), target, TopicSet::from_mask(1))]);
        let katz2 = KatzScorer::new(&g2, beta).with_limits(1e-13, 60);
        let after = katz2.scores_from(NodeId(0));
        for v in g.nodes() {
            prop_assert!(
                after[v.index()] + 1e-10 >= before[v.index()],
                "node {v} lost mass after adding an edge"
            );
        }
    }

    #[test]
    fn twitterrank_is_a_distribution_per_topic(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes();
        let tweets: Vec<u32> = (0..n).map(|_| rng.gen_range(1..100)).collect();
        let profiles: Vec<TopicWeights> = (0..n)
            .map(|_| {
                let mut w = TopicWeights::zero();
                w.set(Topic::from_index(rng.gen_range(0..NUM_TOPICS)), 1.0);
                if rng.gen::<bool>() {
                    w.add(Topic::from_index(rng.gen_range(0..NUM_TOPICS)), 0.5);
                }
                w.normalize();
                w
            })
            .collect();
        let tr = TwitterRank::compute(&g, &tweets, &profiles, &TwitterRankConfig::default());
        for t in Topic::ALL {
            let sum: f64 = tr.topic_ranks(t).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "topic {t}: sum {sum}");
            for &r in tr.topic_ranks(t) {
                prop_assert!(r >= 0.0 && r.is_finite());
            }
        }
    }

    #[test]
    fn twitterrank_recommend_is_sorted_and_excludes(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes();
        let tweets: Vec<u32> = (0..n).map(|_| rng.gen_range(1..50)).collect();
        let profiles: Vec<TopicWeights> = (0..n)
            .map(|_| {
                let mut w = TopicWeights::zero();
                w.set(Topic::Technology, 1.0);
                w
            })
            .collect();
        let tr = TwitterRank::compute(&g, &tweets, &profiles, &TwitterRankConfig::default());
        let top = tr.recommend(Topic::Technology, Some(NodeId(0)), 5);
        prop_assert!(!top.iter().any(|&(v, _)| v == NodeId(0)));
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }
}
