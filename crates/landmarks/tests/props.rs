//! Property tests on the landmark subsystem: the Proposition 4
//! composition must stay a lower bound of the exact score on arbitrary
//! graphs and landmark sets, and persistence must round-trip
//! losslessly (DESIGN.md §7).

use fui_core::{
    AuthorityIndex, PropWorkspace, PropagateOpts, Propagator, ScoreParams, ScoreVariant,
};
use fui_graph::{GraphBuilder, NodeId, SocialGraph, TopicSet};
use fui_landmarks::{persist, ApproxRecommender, LandmarkIndex};
use fui_taxonomy::{SimMatrix, Topic, NUM_TOPICS};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = SocialGraph> {
    (3usize..14).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0u32..(1 << NUM_TOPICS));
        proptest::collection::vec(edge, 2..50).prop_map(move |edges| {
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

fn params() -> ScoreParams {
    ScoreParams {
        alpha: 0.8,
        beta: 0.15,
        tolerance: 1e-13,
        max_depth: 60,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn approximation_is_a_lower_bound_of_exact(
        g in arb_graph(),
        landmark_bits in any::<u16>(),
        topic_idx in 0..NUM_TOPICS,
    ) {
        let t = Topic::from_index(topic_idx);
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let prop_ = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let landmarks: Vec<NodeId> = g
            .nodes()
            .filter(|v| v.0 != 0 && (landmark_bits >> (v.0 % 16)) & 1 == 1)
            .collect();
        let index = LandmarkIndex::build(&prop_, landmarks, 1000);
        let approx = ApproxRecommender::new(&prop_, &index);
        let mut ws = PropWorkspace::new();
        let result = approx.recommend_with(&mut ws, NodeId(0), t, usize::MAX);
        let exact = prop_.propagate(&mut ws, NodeId(0), &[t], PropagateOpts::default());
        for &(v, s) in &result.recommendations {
            prop_assert!(
                s <= exact.sigma(v, t) + 1e-9,
                "node {v}: approx {s} > exact {}",
                exact.sigma(v, t)
            );
        }
    }

    #[test]
    fn exact_when_landmark_dominates_a_chain(
        len in 2usize..8,
        topic_idx in 0..NUM_TOPICS,
    ) {
        // Chain 0 → 1 → ... → len with the single landmark at node 1:
        // all paths beyond it pass through it, so the approximation is
        // exact everywhere past the landmark.
        let t = Topic::from_index(topic_idx);
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..=len).map(|_| b.add_node(TopicSet::empty())).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], TopicSet::from_mask(1 << (topic_idx as u32)));
        }
        let g = b.build();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let prop_ = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&prop_, vec![nodes[1]], 1000);
        let approx = ApproxRecommender::new(&prop_, &index);
        let mut ws = PropWorkspace::new();
        let result = approx.recommend_with(&mut ws, nodes[0], t, usize::MAX);
        let exact = prop_.propagate(&mut ws, nodes[0], &[t], PropagateOpts::default());
        for &v in &nodes[1..] {
            let got = result
                .recommendations
                .iter()
                .find(|&&(n, _)| n == v)
                .map(|&(_, s)| s)
                .unwrap_or(0.0);
            prop_assert!(
                (got - exact.sigma(v, t)).abs() < 1e-10,
                "node {v}: {got} vs {}",
                exact.sigma(v, t)
            );
        }
    }

    #[test]
    fn persistence_round_trips(
        g in arb_graph(),
        landmark_bits in any::<u16>(),
        top_n in 1usize..50,
    ) {
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let prop_ = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let landmarks: Vec<NodeId> = g
            .nodes()
            .filter(|v| (landmark_bits >> (v.0 % 16)) & 1 == 1)
            .collect();
        let index = LandmarkIndex::build(&prop_, landmarks, top_n);
        let bytes = persist::encode(&index, g.num_nodes());
        let (back, n) = persist::decode(bytes).unwrap();
        prop_assert_eq!(n, g.num_nodes());
        prop_assert_eq!(back.landmarks(), index.landmarks());
        prop_assert_eq!(back.top_n(), index.top_n());
        for (slot, _) in index.landmarks().iter().enumerate() {
            let (a, b) = (index.entry_at(slot), back.entry_at(slot));
            prop_assert_eq!(a.topo.len(), b.topo.len());
            for (x, y) in a.topo.iter().zip(&b.topo) {
                prop_assert_eq!(x.node, y.node);
                prop_assert_eq!(x.topo.to_bits(), y.topo.to_bits());
            }
            for t in 0..NUM_TOPICS {
                prop_assert_eq!(a.recs[t].len(), b.recs[t].len());
                for (x, y) in a.recs[t].iter().zip(&b.recs[t]) {
                    prop_assert_eq!(x.node, y.node);
                    prop_assert_eq!(x.sigma.to_bits(), y.sigma.to_bits());
                }
            }
        }
    }

    #[test]
    fn truncated_index_is_a_prefix(
        g in arb_graph(),
        top_n in 2usize..30,
    ) {
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let prop_ = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let landmarks: Vec<NodeId> = g.nodes().take(3).collect();
        let index = LandmarkIndex::build(&prop_, landmarks, top_n);
        let cut = index.truncated(top_n / 2);
        prop_assert_eq!(cut.top_n(), top_n / 2);
        for slot in 0..index.len() {
            let (full, small) = (index.entry_at(slot), cut.entry_at(slot));
            prop_assert!(small.topo.len() <= top_n / 2);
            for (a, b) in full.topo.iter().zip(&small.topo) {
                prop_assert_eq!(a.node, b.node);
            }
        }
    }
}

proptest! {
    /// Robustness: decoding arbitrary bytes must fail gracefully,
    /// never panic.
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = persist::decode(bytes::Bytes::from(bytes));
    }

    /// Truncating a valid snapshot at any point must fail gracefully.
    #[test]
    fn decode_never_panics_on_truncation(cut in 0usize..1024) {
        let mut b = GraphBuilder::new();
        let u = b.add_node(TopicSet::empty());
        let v = b.add_node(TopicSet::empty());
        b.add_edge(u, v, TopicSet::from_mask(1));
        let g = b.build();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let prop_ = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&prop_, vec![u], 5);
        let encoded = persist::encode(&index, 2);
        let cut = cut.min(encoded.len());
        let _ = persist::decode(encoded.slice(0..cut));
    }
}
