//! Plain PageRank — the popularity-only reference point.
//!
//! Not one of the paper's comparators, but its analysis repeatedly
//! reduces TwitterRank to "essentially based on the popularity
//! (in-degree) of an account"; vanilla PageRank *is* that reduction
//! with the topical modulation stripped out, so it makes the
//! popularity-vs-topicality decomposition measurable: TwitterRank
//! minus PageRank ≈ what the topic machinery buys.

use fui_graph::{NodeId, SocialGraph};

/// PageRank iteration parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (0.85, as everywhere).
    pub damping: f64,
    /// L1 convergence tolerance.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tolerance: 1e-10,
            max_iters: 100,
        }
    }
}

/// Converged PageRank over the follow graph (mass flows follower →
/// followee, so popular accounts accumulate rank).
#[derive(Clone, Debug)]
pub struct PageRank {
    ranks: Vec<f64>,
}

impl PageRank {
    /// Computes PageRank with uniform teleportation.
    ///
    /// # Panics
    /// Panics on an empty graph.
    pub fn compute(graph: &SocialGraph, cfg: &PageRankConfig) -> PageRank {
        let n = graph.num_nodes();
        assert!(n > 0, "empty graph");
        let uniform = 1.0 / n as f64;
        let mut rank = vec![uniform; n];
        let mut next = vec![0.0f64; n];
        let mut iterations = 0u64;
        for _ in 0..cfg.max_iters {
            iterations += 1;
            next.fill(0.0);
            let mut dangling = 0.0f64;
            for u in graph.nodes() {
                let out = graph.out_degree(u);
                let r = rank[u.index()];
                if out == 0 {
                    dangling += r;
                    continue;
                }
                let share = cfg.damping * r / out as f64;
                for v in graph.followees(u) {
                    next[v.index()] += share;
                }
            }
            let base = (1.0 - cfg.damping) * uniform + cfg.damping * dangling * uniform;
            let mut delta = 0.0f64;
            for (slot, old) in next.iter_mut().zip(&rank) {
                *slot += base;
                delta += (*slot - old).abs();
            }
            std::mem::swap(&mut rank, &mut next);
            if delta < cfg.tolerance {
                break;
            }
        }
        fui_obs::counter("baseline.pagerank.iterations").add(iterations);
        PageRank { ranks: rank }
    }

    /// Rank of one account.
    #[inline]
    pub fn rank(&self, v: NodeId) -> f64 {
        self.ranks[v.index()]
    }

    /// All ranks, indexed by node.
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Scores a candidate list (query-user and topic independent).
    pub fn score_candidates(&self, candidates: &[NodeId]) -> Vec<f64> {
        candidates.iter().map(|&v| self.rank(v)).collect()
    }

    /// Top-`n` accounts, optionally excluding a query user.
    pub fn recommend(&self, exclude: Option<NodeId>, n: usize) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = self
            .ranks
            .iter()
            .enumerate()
            .map(|(i, &s)| (NodeId(i as u32), s))
            .filter(|&(node, _)| Some(node) != exclude)
            .collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("ranks are not NaN")
                .then(a.0 .0.cmp(&b.0 .0))
        });
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_graph::{GraphBuilder, TopicSet};

    fn star(n: usize) -> SocialGraph {
        let mut b = GraphBuilder::new();
        let hub = b.add_node(TopicSet::empty());
        for _ in 1..n {
            let f = b.add_node(TopicSet::empty());
            b.add_edge(f, hub, TopicSet::empty());
        }
        b.build()
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = star(10);
        let pr = PageRank::compute(&g, &PageRankConfig::default());
        let s: f64 = pr.ranks().iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sum = {s}");
    }

    #[test]
    fn hub_dominates_the_star() {
        let g = star(10);
        let pr = PageRank::compute(&g, &PageRankConfig::default());
        let top = pr.recommend(None, 1);
        assert_eq!(top[0].0, NodeId(0));
        for v in 1..10 {
            assert!(pr.rank(NodeId(0)) > pr.rank(NodeId(v)));
        }
    }

    #[test]
    fn two_cycle_is_symmetric() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(TopicSet::empty());
        let v = b.add_node(TopicSet::empty());
        b.add_edge(u, v, TopicSet::empty());
        b.add_edge(v, u, TopicSet::empty());
        let g = b.build();
        let pr = PageRank::compute(&g, &PageRankConfig::default());
        assert!((pr.rank(u) - pr.rank(v)).abs() < 1e-9);
        assert!((pr.rank(u) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dangling_mass_is_redistributed() {
        // Chain u -> v: v dangles; mass must not vanish.
        let mut b = GraphBuilder::new();
        let u = b.add_node(TopicSet::empty());
        let v = b.add_node(TopicSet::empty());
        b.add_edge(u, v, TopicSet::empty());
        let g = b.build();
        let pr = PageRank::compute(&g, &PageRankConfig::default());
        let s: f64 = pr.ranks().iter().sum();
        assert!((s - 1.0).abs() < 1e-6, "sum = {s}");
        assert!(pr.rank(v) > pr.rank(u));
    }

    #[test]
    fn deterministic() {
        let g = star(8);
        let a = PageRank::compute(&g, &PageRankConfig::default());
        let b = PageRank::compute(&g, &PageRankConfig::default());
        assert_eq!(a.ranks(), b.ranks());
    }
}
