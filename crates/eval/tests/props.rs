//! Property tests on the evaluation machinery: Kendall-tau axioms and
//! link-prediction protocol invariants (DESIGN.md §7).

use fui_core::PropWorkspace;
use fui_eval::kendall_tau_distance;
use fui_eval::linkpred::{draw_candidates, evaluate, CandidateScorer, TestEdge};
use fui_graph::{GraphBuilder, NodeId, TopicSet};
use fui_taxonomy::Topic;
use proptest::prelude::*;

/// A random top-k list of distinct ids.
fn arb_ranking(max_id: u32) -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::vec(0..max_id, 0..12).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v.into_iter().map(NodeId).collect()
    })
}

/// A random permutation pair over the same ids.
fn arb_permutation_pair() -> impl Strategy<Value = (Vec<NodeId>, Vec<NodeId>)> {
    (2usize..10, any::<u64>()).prop_map(|(n, seed)| {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let base: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let mut shuffled = base.clone();
        shuffled.shuffle(&mut rng);
        (base, shuffled)
    })
}

proptest! {
    #[test]
    fn tau_is_zero_on_identity(a in arb_ranking(40)) {
        prop_assert_eq!(kendall_tau_distance(&a, &a), 0.0);
    }

    #[test]
    fn tau_is_symmetric_and_bounded(a in arb_ranking(40), b in arb_ranking(40)) {
        let d1 = kendall_tau_distance(&a, &b);
        let d2 = kendall_tau_distance(&b, &a);
        prop_assert_eq!(d1, d2);
        prop_assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn tau_on_permutations_counts_inversions((a, b) in arb_permutation_pair()) {
        // Same item sets: the distance must equal the classic
        // normalised inversion count.
        let pos: std::collections::HashMap<u32, usize> =
            b.iter().enumerate().map(|(i, v)| (v.0, i)).collect();
        let n = a.len();
        let mut inversions = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if pos[&a[i].0] > pos[&a[j].0] {
                    inversions += 1;
                }
            }
        }
        let expected = inversions as f64 / (n * (n - 1) / 2) as f64;
        let got = kendall_tau_distance(&a, &b);
        prop_assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn reversal_is_maximal((a, _) in arb_permutation_pair()) {
        let mut rev = a.clone();
        rev.reverse();
        prop_assert_eq!(kendall_tau_distance(&a, &rev), 1.0);
    }

    #[test]
    fn disjoint_top_k_lists_read_the_k_half_bound(k in 1usize..30, offset in 0u32..1000) {
        // k² cross pairs cost 1, the 2·C(k,2) same-side pairs ½.
        let a: Vec<NodeId> = (offset..offset + k as u32).map(NodeId).collect();
        let b: Vec<NodeId> = (offset + k as u32..offset + 2 * k as u32).map(NodeId).collect();
        let want = (3 * k - 1) as f64 / (4 * k - 2) as f64;
        let got = kendall_tau_distance(&a, &b);
        prop_assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn a_list_against_an_empty_list_reads_one_half(a in arb_ranking(40)) {
        if a.len() >= 2 {
            prop_assert_eq!(kendall_tau_distance(&a, &[]), 0.5);
            prop_assert_eq!(kendall_tau_distance(&[], &a), 0.5);
        }
    }
}

#[test]
fn a_top_100_list_is_not_at_zero_from_its_top_10_prefix() {
    let full: Vec<NodeId> = (0..100).map(NodeId).collect();
    let d = kendall_tau_distance(&full, &full[..10]);
    assert!(d > 0.0, "truncation read {d}");
}

/// A scorer ranking candidates by a fixed per-node key, used to check
/// the protocol's rank arithmetic.
struct KeyScorer(Vec<f64>);

impl CandidateScorer for KeyScorer {
    fn name(&self) -> &str {
        "key"
    }
    fn score(&self, _: &mut PropWorkspace, _: NodeId, _: Topic, cands: &[NodeId]) -> Vec<f64> {
        cands.iter().map(|v| self.0[v.index()]).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hits_match_explicit_rank_computation(
        n in 10usize..40,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // A complete-ish graph so every edge is eligible.
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| b.add_node(TopicSet::empty())).collect();
        for &u in &nodes {
            for &v in &nodes {
                if u != v {
                    b.add_edge(u, v, TopicSet::single(Topic::Technology));
                }
            }
        }
        let g = b.build();
        let keys: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let scorer = KeyScorer(keys.clone());

        let tests = vec![TestEdge {
            src: nodes[0],
            dst: nodes[1],
            topic: Topic::Technology,
        }];
        let negs = (n - 2).min(8);
        let cands = draw_candidates(&g, &tests, negs, &mut rng);
        let curve = evaluate(&scorer, &tests, &cands, 10);

        // Recompute the rank by hand.
        let list = &cands[0];
        let target = keys[nodes[1].index()];
        let better = list[..list.len() - 1]
            .iter()
            .filter(|v| keys[v.index()] >= target)
            .count();
        for topn in 1..=10usize {
            let expected_hit = better < topn && target > 0.0;
            prop_assert_eq!(
                curve.recall_at(topn) > 0.0,
                expected_hit,
                "top-{}: rank {}",
                topn,
                better
            );
        }
    }
}
