//! The held-out-edge link-prediction protocol (Section 5.3).
//!
//! "We consider a test set of T edges of the graph together with their
//! corresponding topics representing the ground truth. \[...\] the
//! target node of an edge of the test set must have at least kin
//! in-degree and the source node at least kout out-degree (kin = 3 and
//! kout = 3). All edges from T are then removed from the graph. For
//! each edge e = u → v in T we randomly select 1000 accounts \[...\]
//! and form a ranked list. If v belongs to the top-n accounts we have
//! a hit. Recall = #hits/T, precision = #hits/(N·T)."

use fui_core::PropWorkspace;
use fui_graph::{NodeId, SocialGraph};
use fui_taxonomy::Topic;
use rand::seq::SliceRandom;
use rand::Rng;

/// A held-out test edge with the topic it was labeled with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TestEdge {
    /// Follower (query user).
    pub src: NodeId,
    /// Followee (the account to re-find).
    pub dst: NodeId,
    /// One of the edge's topics, used as the query topic.
    pub topic: Topic,
}

/// Protocol parameters (paper values as defaults).
#[derive(Clone, Copy, Debug)]
pub struct LinkPredConfig {
    /// Test-set size `T` (paper: 100).
    pub test_size: usize,
    /// Minimum in-degree of the target (paper: 3).
    pub kin: usize,
    /// Minimum out-degree of the source (paper: 3).
    pub kout: usize,
    /// Number of random negatives per test edge (paper: 1000).
    pub negatives: usize,
    /// Largest N of the recall@N curve (paper plots up to 20).
    pub max_n: usize,
}

impl Default for LinkPredConfig {
    fn default() -> Self {
        LinkPredConfig {
            test_size: 100,
            kin: 3,
            kout: 3,
            negatives: 1000,
            max_n: 20,
        }
    }
}

/// Selects a test set satisfying the degree constraints; `filter`
/// further restricts eligible edges (popularity and topic
/// stratification plug in here). Returns fewer than `test_size` edges
/// when the graph runs out of eligible ones.
pub fn select_test_edges(
    graph: &SocialGraph,
    cfg: &LinkPredConfig,
    rng: &mut impl Rng,
    mut filter: impl FnMut(&SocialGraph, NodeId, NodeId) -> bool,
) -> Vec<TestEdge> {
    let mut eligible: Vec<(NodeId, NodeId)> = graph
        .edges()
        .filter(|&(u, v, labels)| {
            !labels.is_empty() && graph.out_degree(u) >= cfg.kout && graph.in_degree(v) >= cfg.kin
        })
        .filter(|&(u, v, _)| filter(graph, u, v))
        .map(|(u, v, _)| (u, v))
        .collect();
    eligible.shuffle(rng);
    eligible.truncate(cfg.test_size);
    eligible
        .into_iter()
        .map(|(u, v)| {
            let labels = graph.edge_label(u, v).expect("edge exists");
            let topics: Vec<Topic> = labels.iter().collect();
            let topic = topics[rng.gen_range(0..topics.len())];
            TestEdge {
                src: u,
                dst: v,
                topic,
            }
        })
        .collect()
}

/// Anything that can score an explicit candidate list for a (user,
/// topic) query over the *reduced* graph.
pub trait CandidateScorer {
    /// Method name as shown in the paper's figures.
    fn name(&self) -> &str;
    /// One score per candidate, aligned with the input order. A
    /// propagation-based scorer runs inside `ws`, the evaluation
    /// loop's one workspace; the others ignore it.
    fn score(&self, ws: &mut PropWorkspace, u: NodeId, t: Topic, cands: &[NodeId]) -> Vec<f64>;
}

/// Accumulated hits of one method over a test set.
#[derive(Clone, Debug)]
pub struct RecallCurve {
    /// `hits_at[n-1]` = number of test edges whose target ranked in
    /// the top-n.
    pub hits_at: Vec<usize>,
    /// Number of test edges evaluated.
    pub trials: usize,
    /// Candidate-list size used (negatives + 1).
    pub list_size: usize,
}

impl RecallCurve {
    /// `recall@n = hits / T`.
    pub fn recall_at(&self, n: usize) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.hits_at[n - 1] as f64 / self.trials as f64
    }

    /// `precision@n = hits / (n · T)` (after Cremonesi et al.).
    pub fn precision_at(&self, n: usize) -> f64 {
        self.recall_at(n) / n as f64
    }

    /// Largest N of the curve.
    pub fn max_n(&self) -> usize {
        self.hits_at.len()
    }
}

/// Draws the shared negative candidate sets: per test edge, `negatives`
/// random accounts distinct from both endpoints. Sharing one draw
/// across methods makes the comparison paired, as in the paper.
pub fn draw_candidates(
    graph: &SocialGraph,
    tests: &[TestEdge],
    negatives: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<NodeId>> {
    let n = graph.num_nodes() as u32;
    tests
        .iter()
        .map(|e| {
            let mut cands: Vec<NodeId> = Vec::with_capacity(negatives + 1);
            while cands.len() < negatives.min(graph.num_nodes().saturating_sub(2)) {
                let v = NodeId(rng.gen_range(0..n));
                if v != e.src && v != e.dst && !cands.contains(&v) {
                    cands.push(v);
                }
            }
            // The held-out target is the last candidate by convention.
            cands.push(e.dst);
            cands
        })
        .collect()
}

/// Evaluates one scorer over the test set with pre-drawn candidates
/// (last candidate of each list is the held-out target).
///
/// The rank of the target is the number of candidates with a strictly
/// higher score (ties resolved pessimistically: tied candidates rank
/// above the target, so a hit requires genuinely separating the
/// target).
pub fn evaluate(
    scorer: &dyn CandidateScorer,
    tests: &[TestEdge],
    candidates: &[Vec<NodeId>],
    max_n: usize,
) -> RecallCurve {
    evaluate_detailed(scorer, tests, candidates, max_n).curve
}

/// Per-test-edge outcome: the held-out target's 0-based rank among the
/// candidates, or `None` when it scored 0 (unreachable — never a hit).
pub type TargetRank = Option<usize>;

/// [`evaluate`] plus the per-edge ranks, for paired significance
/// analysis ([`crate::significance`]).
pub struct DetailedEvaluation {
    /// The aggregate curve.
    pub curve: RecallCurve,
    /// One rank per test edge, aligned with the input.
    pub ranks: Vec<TargetRank>,
}

/// Evaluates and keeps each target's rank. Every test edge is scored
/// inside one [`PropWorkspace`].
pub fn evaluate_detailed(
    scorer: &dyn CandidateScorer,
    tests: &[TestEdge],
    candidates: &[Vec<NodeId>],
    max_n: usize,
) -> DetailedEvaluation {
    assert_eq!(tests.len(), candidates.len());
    let mut hits_at = vec![0usize; max_n];
    let mut list_size = 0usize;
    let mut ranks = Vec::with_capacity(tests.len());
    let mut ws = PropWorkspace::new();
    for (e, cands) in tests.iter().zip(candidates) {
        list_size = cands.len();
        let scores = scorer.score(&mut ws, e.src, e.topic, cands);
        let target_score = *scores.last().expect("target is the last candidate");
        let rank = scores[..scores.len() - 1]
            .iter()
            .filter(|&&s| s >= target_score)
            .count();
        if target_score > 0.0 {
            ranks.push(Some(rank));
            for (n, slot) in hits_at.iter_mut().enumerate() {
                if rank <= n {
                    *slot += 1;
                }
            }
        } else {
            ranks.push(None);
        }
    }
    DetailedEvaluation {
        curve: RecallCurve {
            hits_at,
            trials: tests.len(),
            list_size,
        },
        ranks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_graph::{GraphBuilder, TopicSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn labeled_graph(n: usize, rng: &mut StdRng) -> SocialGraph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| b.add_node(TopicSet::single(Topic::Technology)))
            .collect();
        for &u in &nodes {
            for _ in 0..5 {
                let v = nodes[rng.gen_range(0..n)];
                if v != u {
                    b.add_edge(u, v, TopicSet::single(Topic::Technology));
                }
            }
        }
        b.build()
    }

    #[test]
    fn test_edges_satisfy_degree_constraints() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = labeled_graph(200, &mut rng);
        let cfg = LinkPredConfig {
            test_size: 30,
            ..Default::default()
        };
        let tests = select_test_edges(&g, &cfg, &mut rng, |_, _, _| true);
        assert!(!tests.is_empty());
        for e in &tests {
            assert!(g.out_degree(e.src) >= 3, "{e:?}");
            assert!(g.in_degree(e.dst) >= 3, "{e:?}");
            assert!(g.edge_label(e.src, e.dst).unwrap().contains(e.topic));
        }
    }

    #[test]
    fn filter_restricts_selection() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = labeled_graph(200, &mut rng);
        let cfg = LinkPredConfig {
            test_size: 20,
            ..Default::default()
        };
        let tests = select_test_edges(&g, &cfg, &mut rng, |_, _, v| v.0 < 50);
        for e in &tests {
            assert!(e.dst.0 < 50);
        }
    }

    #[test]
    fn candidates_exclude_endpoints_and_end_with_target() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = labeled_graph(300, &mut rng);
        let cfg = LinkPredConfig {
            test_size: 10,
            negatives: 50,
            ..Default::default()
        };
        let tests = select_test_edges(&g, &cfg, &mut rng, |_, _, _| true);
        let cands = draw_candidates(&g, &tests, 50, &mut rng);
        for (e, list) in tests.iter().zip(&cands) {
            assert_eq!(*list.last().unwrap(), e.dst);
            assert_eq!(list.len(), 51);
            for &c in &list[..list.len() - 1] {
                assert!(c != e.src && c != e.dst);
            }
        }
    }

    /// A scorer that knows the answer: scores the true target 1.
    struct Oracle;
    impl CandidateScorer for Oracle {
        fn name(&self) -> &str {
            "oracle"
        }
        fn score(&self, _: &mut PropWorkspace, _: NodeId, _: Topic, cands: &[NodeId]) -> Vec<f64> {
            let mut v = vec![0.0; cands.len()];
            *v.last_mut().unwrap() = 1.0;
            v
        }
    }

    /// A scorer that never separates anything.
    struct Uniform;
    impl CandidateScorer for Uniform {
        fn name(&self) -> &str {
            "uniform"
        }
        fn score(&self, _: &mut PropWorkspace, _: NodeId, _: Topic, cands: &[NodeId]) -> Vec<f64> {
            vec![0.5; cands.len()]
        }
    }

    #[test]
    fn oracle_has_perfect_recall_at_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = labeled_graph(200, &mut rng);
        let cfg = LinkPredConfig {
            test_size: 20,
            negatives: 30,
            ..Default::default()
        };
        let tests = select_test_edges(&g, &cfg, &mut rng, |_, _, _| true);
        let cands = draw_candidates(&g, &tests, 30, &mut rng);
        let curve = evaluate(&Oracle, &tests, &cands, 20);
        assert_eq!(curve.recall_at(1), 1.0);
        assert!((curve.precision_at(10) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn uniform_scorer_never_hits_under_pessimistic_ties() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = labeled_graph(200, &mut rng);
        let cfg = LinkPredConfig {
            test_size: 20,
            negatives: 30,
            ..Default::default()
        };
        let tests = select_test_edges(&g, &cfg, &mut rng, |_, _, _| true);
        let cands = draw_candidates(&g, &tests, 30, &mut rng);
        let curve = evaluate(&Uniform, &tests, &cands, 20);
        assert_eq!(curve.recall_at(20), 0.0);
    }

    #[test]
    fn recall_is_monotone_in_n() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = labeled_graph(200, &mut rng);
        let cfg = LinkPredConfig {
            test_size: 20,
            negatives: 30,
            ..Default::default()
        };
        let tests = select_test_edges(&g, &cfg, &mut rng, |_, _, _| true);
        let cands = draw_candidates(&g, &tests, 30, &mut rng);
        let curve = evaluate(&Oracle, &tests, &cands, 20);
        for n in 2..=20 {
            assert!(curve.recall_at(n) >= curve.recall_at(n - 1));
        }
    }
}
