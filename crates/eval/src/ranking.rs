//! Kendall-tau distance between top-k rankings.
//!
//! Table 6 of the paper reports "the average Kendall Tau distance
//! between the approximate computation and the exact computation" for
//! landmarks storing top-10/100/1000 lists. Top-k lists are partial
//! rankings, so we use the Fagin–Kumar–Sivakumar `K^(½)` distance
//! (neutral penalty): for a pair of items `{i, j}` appearing in the
//! union of the two lists,
//!
//! * both in both lists → 1 iff ordered differently;
//! * `i` in both, `j` in only one → 1 iff the list containing `j`
//!   ranks it above `i` (absence reads as "ranked below everything");
//! * `i` only in list A, `j` only in list B → 1 (each list ranks its
//!   own item above the other's);
//! * both only in list A → ½ (list B says nothing about their order).
//!
//! Normalised by the number of union pairs: 0 for identical lists, 1
//! for a fully reversed permutation of the same items, ½ for a list
//! against an empty one, and `(3k−1)/(4k−2)` for two disjoint top-k
//! lists. A truncated list is never at distance 0 from a longer one.

use std::collections::HashMap;

use fui_graph::NodeId;

/// Normalised Kendall-tau distance between two top-k lists (best
/// first). Returns 0 when the union has fewer than two items.
///
/// ```
/// use fui_eval::kendall_tau_distance;
/// use fui_graph::NodeId;
///
/// let a: Vec<NodeId> = [1, 2, 3].map(NodeId).to_vec();
/// let b: Vec<NodeId> = [3, 2, 1].map(NodeId).to_vec();
/// assert_eq!(kendall_tau_distance(&a, &a), 0.0);
/// assert_eq!(kendall_tau_distance(&a, &b), 1.0);
/// ```
pub fn kendall_tau_distance(a: &[NodeId], b: &[NodeId]) -> f64 {
    let rank_a: HashMap<u32, usize> = a.iter().enumerate().map(|(i, v)| (v.0, i)).collect();
    let rank_b: HashMap<u32, usize> = b.iter().enumerate().map(|(i, v)| (v.0, i)).collect();
    let mut union: Vec<u32> = rank_a.keys().copied().collect();
    for v in rank_b.keys() {
        if !rank_a.contains_key(v) {
            union.push(*v);
        }
    }
    let m = union.len();
    if m < 2 {
        return 0.0;
    }
    let one_if = |disagree: bool| if disagree { 1.0 } else { 0.0 };
    let mut discordant = 0.0f64;
    let mut pairs = 0usize;
    for x in 0..m {
        for y in (x + 1)..m {
            let (i, j) = (union[x], union[y]);
            let (ai, aj) = (rank_a.get(&i), rank_a.get(&j));
            let (bi, bj) = (rank_b.get(&i), rank_b.get(&j));
            pairs += 1;
            discordant += match ((ai, aj), (bi, bj)) {
                // Both items in both lists.
                ((Some(&x1), Some(&y1)), (Some(&x2), Some(&y2))) => one_if((x1 < y1) != (x2 < y2)),
                // i in both, j only in a: b treats j as below i.
                ((Some(&x1), Some(&y1)), (Some(_), None)) => one_if(y1 < x1),
                ((Some(&x1), Some(&y1)), (None, Some(_))) => one_if(x1 < y1),
                // j in both, i only in one.
                ((Some(_), None), (Some(&x2), Some(&y2))) => one_if(y2 < x2),
                ((None, Some(_)), (Some(&x2), Some(&y2))) => one_if(x2 < y2),
                // i only in a, j only in b (or vice versa): the lists
                // order the pair oppositely.
                ((Some(_), None), (None, Some(_))) | ((None, Some(_)), (Some(_), None)) => 1.0,
                // Both in one list, neither in the other: the neutral
                // penalty. (An item absent from both lists cannot be
                // in the union.)
                _ => 0.5,
            };
        }
    }
    discordant / pairs as f64
}

/// Reciprocal rank of `target` in a ranked list (1-based); 0 when
/// absent. Averaged over queries this is the MRR.
pub fn reciprocal_rank(ranking: &[NodeId], target: NodeId) -> f64 {
    ranking
        .iter()
        .position(|&v| v == target)
        .map(|i| 1.0 / (i as f64 + 1.0))
        .unwrap_or(0.0)
}

/// Normalised discounted cumulative gain at `k` for graded relevance:
/// `rels` maps each ranked item to its gain (missing = 0). The ideal
/// ordering is the gains sorted descending.
pub fn ndcg_at(ranking: &[NodeId], rels: &std::collections::HashMap<u32, f64>, k: usize) -> f64 {
    let dcg: f64 = ranking
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, v)| {
            let g = rels.get(&v.0).copied().unwrap_or(0.0);
            g / (i as f64 + 2.0).log2()
        })
        .sum();
    let mut ideal: Vec<f64> = rels.values().copied().filter(|&g| g > 0.0).collect();
    ideal.sort_by(|a, b| b.partial_cmp(a).expect("gains are not NaN"));
    let idcg: f64 = ideal
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, g)| g / (i as f64 + 2.0).log2())
        .sum();
    if idcg == 0.0 {
        0.0
    } else {
        dcg / idcg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn reciprocal_rank_basics() {
        let r = ids(&[5, 3, 9]);
        assert_eq!(reciprocal_rank(&r, NodeId(5)), 1.0);
        assert_eq!(reciprocal_rank(&r, NodeId(3)), 0.5);
        assert_eq!(reciprocal_rank(&r, NodeId(42)), 0.0);
    }

    #[test]
    fn ndcg_perfect_ranking_is_one() {
        let rels: HashMap<u32, f64> = [(1, 3.0), (2, 2.0), (3, 1.0)].into_iter().collect();
        assert!((ndcg_at(&ids(&[1, 2, 3]), &rels, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_penalises_inversions() {
        let rels: HashMap<u32, f64> = [(1, 3.0), (2, 2.0), (3, 1.0)].into_iter().collect();
        let good = ndcg_at(&ids(&[1, 2, 3]), &rels, 3);
        let bad = ndcg_at(&ids(&[3, 2, 1]), &rels, 3);
        assert!(bad < good);
        assert!(bad > 0.0);
    }

    #[test]
    fn ndcg_zero_when_no_relevant_items() {
        let rels: HashMap<u32, f64> = HashMap::new();
        assert_eq!(ndcg_at(&ids(&[1, 2]), &rels, 2), 0.0);
    }

    #[test]
    fn ndcg_respects_cutoff() {
        let rels: HashMap<u32, f64> = [(9, 1.0)].into_iter().collect();
        // Relevant item outside the cutoff contributes nothing.
        assert_eq!(ndcg_at(&ids(&[1, 2, 9]), &rels, 2), 0.0);
        assert!(ndcg_at(&ids(&[1, 2, 9]), &rels, 3) > 0.0);
    }

    #[test]
    fn identical_lists_have_zero_distance() {
        let a = ids(&[1, 2, 3, 4]);
        assert_eq!(kendall_tau_distance(&a, &a), 0.0);
    }

    #[test]
    fn reversed_list_has_distance_one() {
        let a = ids(&[1, 2, 3, 4]);
        let b = ids(&[4, 3, 2, 1]);
        assert_eq!(kendall_tau_distance(&a, &b), 1.0);
    }

    #[test]
    fn single_swap() {
        let a = ids(&[1, 2, 3]);
        let b = ids(&[2, 1, 3]);
        // One discordant pair of three.
        assert!((kendall_tau_distance(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = ids(&[1, 2, 3, 5]);
        let b = ids(&[2, 5, 4, 1]);
        assert_eq!(kendall_tau_distance(&a, &b), kendall_tau_distance(&b, &a));
    }

    #[test]
    fn missing_item_counts_when_it_overtakes() {
        // b contains an item a does not; it is ranked above shared
        // items in b but "below everything" in a.
        let a = ids(&[1, 2]);
        let b = ids(&[9, 1, 2]);
        // Union pairs: (1,2) concordant; (1,9) and (2,9) discordant?
        // In b, 9 < 1 and 9 < 2; in a, 9 is absent = below both:
        // 2 discordant of 3 pairs.
        assert!((kendall_tau_distance(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_2_lists_read_five_sixths() {
        // Four cross pairs cost 1 each; {1,2} and {3,4} cost ½ each.
        let a = ids(&[1, 2]);
        let b = ids(&[3, 4]);
        assert!((kendall_tau_distance(&a, &b) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn trivial_lists() {
        assert_eq!(kendall_tau_distance(&[], &[]), 0.0);
        assert_eq!(kendall_tau_distance(&ids(&[1]), &ids(&[1])), 0.0);
    }

    #[test]
    fn triangle_inequality_on_samples() {
        let a = ids(&[1, 2, 3, 4, 5]);
        let b = ids(&[2, 1, 5, 3, 4]);
        let c = ids(&[5, 4, 3, 2, 1]);
        let ab = kendall_tau_distance(&a, &b);
        let bc = kendall_tau_distance(&b, &c);
        let ac = kendall_tau_distance(&a, &c);
        assert!(ac <= ab + bc + 1e-12);
    }
}
