//! Property tests pinning the propagation engine to Definition 1:
//! on random small graphs, the frontier engine must equal brute-force
//! walk enumeration for every variant, topic and depth; the
//! composition law (Prop. 2) must hold on random walks (DESIGN.md §7).

use fui_core::{
    exhaustive, path, AuthorityIndex, PropagateOpts, Propagator, ScoreParams, ScoreVariant,
};
use fui_graph::{GraphBuilder, NodeId, SocialGraph, TopicSet};
use fui_taxonomy::{SimMatrix, Topic, NUM_TOPICS};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = SocialGraph> {
    (2usize..10).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0u32..(1 << NUM_TOPICS));
        proptest::collection::vec(edge, 1..30).prop_map(move |edges| {
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

fn arb_params() -> impl Strategy<Value = ScoreParams> {
    (0.1f64..1.0, 0.05f64..0.35).prop_map(|(alpha, beta)| ScoreParams {
        alpha,
        beta,
        tolerance: 1e-14,
        max_depth: 64,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_equals_walk_enumeration(
        g in arb_graph(),
        params in arb_params(),
        topic_idx in 0..NUM_TOPICS,
        depth in 1u32..5,
    ) {
        let t = Topic::from_index(topic_idx);
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        for variant in [
            ScoreVariant::Full,
            ScoreVariant::NoAuthority,
            ScoreVariant::NoSimilarity,
        ] {
            let engine = Propagator::new(&g, &auth, &sim, params, variant);
            let r = engine.propagate(
                NodeId(0),
                &[t],
                PropagateOpts { max_depth: Some(depth), ..Default::default() },
            );
            let oracle =
                exhaustive::enumerate(&g, &sim, &auth, &params, NodeId(0), t, variant, depth);
            for v in g.nodes() {
                prop_assert!(
                    (oracle.sigma[v.index()] - r.sigma(v, t)).abs() < 1e-10,
                    "{variant:?} sigma mismatch at {v}: {} vs {}",
                    oracle.sigma[v.index()], r.sigma(v, t)
                );
                prop_assert!(
                    (oracle.topo_beta[v.index()] - r.topo_beta(v)).abs() < 1e-10,
                    "topo mismatch at {v}"
                );
            }
        }
    }

    #[test]
    fn sigma_is_monotone_in_depth(
        g in arb_graph(),
        params in arb_params(),
        topic_idx in 0..NUM_TOPICS,
    ) {
        // Walk masses are non-negative, so deeper scores dominate.
        let t = Topic::from_index(topic_idx);
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let engine = Propagator::new(&g, &auth, &sim, params, ScoreVariant::Full);
        let shallow = engine.propagate(
            NodeId(0), &[t],
            PropagateOpts { max_depth: Some(2), ..Default::default() },
        );
        let deep = engine.propagate(
            NodeId(0), &[t],
            PropagateOpts { max_depth: Some(4), ..Default::default() },
        );
        for v in g.nodes() {
            prop_assert!(deep.sigma(v, t) + 1e-12 >= shallow.sigma(v, t));
            prop_assert!(deep.topo_beta(v) + 1e-12 >= shallow.topo_beta(v));
        }
    }

    #[test]
    fn composition_law_on_random_walks(
        g in arb_graph(),
        params in arb_params(),
        topic_idx in 0..NUM_TOPICS,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let t = Topic::from_index(topic_idx);
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        // Random walk of length 2..6 from node 0, if one exists.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut walk = vec![NodeId(0)];
        for _ in 0..5 {
            let u = *walk.last().unwrap();
            let succs: Vec<NodeId> = g.followees(u).collect();
            if succs.is_empty() {
                break;
            }
            walk.push(succs[rng.gen_range(0..succs.len())]);
        }
        prop_assume!(walk.len() >= 3);
        let len = walk.len() - 1;
        let full = path::walk_score(&g, &sim, &auth, &params, &walk, t, ScoreVariant::Full);
        for split in 1..len {
            let s1 = path::walk_score(&g, &sim, &auth, &params, &walk[..=split], t, ScoreVariant::Full);
            let s2 = path::walk_score(&g, &sim, &auth, &params, &walk[split..], t, ScoreVariant::Full);
            let composed = path::compose(&params, s1, split, s2, len - split);
            prop_assert!(
                (full - composed).abs() <= 1e-12 * full.abs().max(1.0),
                "split {split}: {full} vs {composed}"
            );
        }
    }

    #[test]
    fn pruned_scores_never_exceed_unpruned(
        g in arb_graph(),
        params in arb_params(),
        mask_seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let engine = Propagator::new(&g, &auth, &sim, params, ScoreVariant::Full);
        let mut rng = rand::rngs::StdRng::seed_from_u64(mask_seed);
        let mask: Vec<bool> = (0..g.num_nodes()).map(|_| rng.gen::<f64>() < 0.3).collect();
        let t = Topic::Technology;
        let full = engine.propagate(NodeId(0), &[t], PropagateOpts::default());
        let pruned = engine.propagate(
            NodeId(0),
            &[t],
            PropagateOpts { prune: Some(&mask), ..Default::default() },
        );
        for v in g.nodes() {
            prop_assert!(pruned.sigma(v, t) <= full.sigma(v, t) + 1e-12);
            prop_assert!(pruned.topo_beta(v) <= full.topo_beta(v) + 1e-12);
        }
    }

    #[test]
    fn authority_is_in_unit_interval_and_zero_without_followers(g in arb_graph()) {
        let auth = AuthorityIndex::build(&g);
        for v in g.nodes() {
            for t in Topic::ALL {
                let a = auth.auth(v, t);
                prop_assert!((0.0..=1.0).contains(&a));
                if auth.followers_on(v, t) == 0 {
                    prop_assert_eq!(a, 0.0);
                }
            }
        }
    }
}
