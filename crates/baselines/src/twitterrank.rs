//! TwitterRank — "Finding Topic-sensitive Influential Twitterers"
//! (Weng, Lim, Jiang, He — WSDM 2010), the paper's strongest
//! content-aware comparator.
//!
//! For each topic `t`, a topic-specific random surfer walks the follow
//! graph from follower to friend (followee): the transition probability
//! from `i` to a friend `j` is proportional to `j`'s tweet volume
//! modulated by the topical similarity of the two users,
//!
//! ```text
//! P_t(i → j) ∝ |T_j| · sim_t(i, j),    sim_t(i,j) = 1 − |DT'_it − DT'_jt|
//! ```
//!
//! where `DT` is the user-topic matrix (rows: users' topic
//! distributions — LDA in the original paper, the extraction pipeline's
//! soft publisher profiles here) and `DT'` is its column-normalised
//! form. With teleportation to the topic-specific distribution `E_t`
//! (the normalised `t`-column of `DT`):
//!
//! ```text
//! TR_t = γ · (P_tᵀ TR_t + dangling · E_t) + (1 − γ) · E_t
//! ```
//!
//! TwitterRank is *global per topic* — it does not depend on the query
//! user — which is exactly the property the EDBT paper exploits in its
//! analysis ("TwitterRank whose recommendations are essentially based
//! on the popularity of an account").

use fui_graph::{NodeId, SocialGraph};
use fui_taxonomy::{Topic, TopicWeights, NUM_TOPICS};

/// TwitterRank iteration parameters.
#[derive(Clone, Copy, Debug)]
pub struct TwitterRankConfig {
    /// Damping factor γ (the original paper and ours both use 0.85).
    pub gamma: f64,
    /// L1 convergence tolerance.
    pub tolerance: f64,
    /// Iteration cap per topic.
    pub max_iters: usize,
}

impl Default for TwitterRankConfig {
    fn default() -> Self {
        TwitterRankConfig {
            gamma: 0.85,
            tolerance: 1e-10,
            max_iters: 100,
        }
    }
}

/// Converged per-topic TwitterRank vectors.
#[derive(Clone, Debug)]
pub struct TwitterRank {
    /// `ranks[t * n + v]`.
    ranks: Vec<f64>,
    n: usize,
}

impl TwitterRank {
    /// Computes TwitterRank for every topic of the vocabulary.
    ///
    /// `tweet_counts` is each user's tweet volume `|T_i|`;
    /// `topic_weights` the rows of `DT` (soft publisher profiles).
    ///
    /// # Panics
    /// Panics on length mismatches or an empty graph.
    pub fn compute(
        graph: &SocialGraph,
        tweet_counts: &[u32],
        topic_weights: &[TopicWeights],
        cfg: &TwitterRankConfig,
    ) -> TwitterRank {
        let n = graph.num_nodes();
        assert!(n > 0, "empty graph");
        assert_eq!(tweet_counts.len(), n, "one tweet count per user");
        assert_eq!(topic_weights.len(), n, "one DT row per user");

        // Column-normalised DT'.
        let mut col_sums = [0.0f64; NUM_TOPICS];
        for w in topic_weights {
            for (t, &x) in w.0.iter().enumerate() {
                col_sums[t] += x;
            }
        }
        let dt_prime = |i: usize, t: usize| -> f64 {
            if col_sums[t] > 0.0 {
                topic_weights[i].0[t] / col_sums[t]
            } else {
                0.0
            }
        };

        let mut ranks = vec![0.0f64; NUM_TOPICS * n];
        let mut rank = vec![0.0f64; n];
        let mut next = vec![0.0f64; n];
        let mut out_norm = vec![0.0f64; n];
        let mut iterations = 0u64;

        for t in 0..NUM_TOPICS {
            // Teleport distribution E_t: normalised t-column of DT
            // (uniform fallback when nobody covers the topic).
            let mut e = vec![0.0f64; n];
            let mut e_sum = 0.0;
            for (i, slot) in e.iter_mut().enumerate() {
                *slot = topic_weights[i].0[t];
                e_sum += *slot;
            }
            if e_sum > 0.0 {
                for slot in &mut e {
                    *slot /= e_sum;
                }
            } else {
                e.fill(1.0 / n as f64);
            }

            // Per-user transition normaliser Σ_j |T_j|·sim_t(i,j).
            for (i, norm) in out_norm.iter_mut().enumerate() {
                let mut s = 0.0;
                let dti = dt_prime(i, t);
                for j in graph.followees(NodeId(i as u32)) {
                    let sim = 1.0 - (dti - dt_prime(j.index(), t)).abs();
                    s += f64::from(tweet_counts[j.index()]) * sim;
                }
                *norm = s;
            }

            rank.copy_from_slice(&e);
            for _ in 0..cfg.max_iters {
                iterations += 1;
                next.fill(0.0);
                let mut dangling = 0.0f64;
                for i in 0..n {
                    let r = rank[i];
                    if r == 0.0 {
                        continue;
                    }
                    if out_norm[i] <= 0.0 {
                        dangling += r;
                        continue;
                    }
                    let dti = dt_prime(i, t);
                    for j in graph.followees(NodeId(i as u32)) {
                        let sim = 1.0 - (dti - dt_prime(j.index(), t)).abs();
                        let p = f64::from(tweet_counts[j.index()]) * sim / out_norm[i];
                        next[j.index()] += cfg.gamma * r * p;
                    }
                }
                let mut delta = 0.0f64;
                for i in 0..n {
                    let v = next[i] + cfg.gamma * dangling * e[i] + (1.0 - cfg.gamma) * e[i];
                    delta += (v - rank[i]).abs();
                    rank[i] = v;
                }
                if delta < cfg.tolerance {
                    break;
                }
            }
            ranks[t * n..(t + 1) * n].copy_from_slice(&rank);
        }
        fui_obs::counter("baseline.twitterrank.iterations").add(iterations);
        TwitterRank { ranks, n }
    }

    /// The rank of account `v` on topic `t`.
    #[inline]
    pub fn rank(&self, t: Topic, v: NodeId) -> f64 {
        self.ranks[t.index() * self.n + v.index()]
    }

    /// All ranks for a topic (indexed by node).
    pub fn topic_ranks(&self, t: Topic) -> &[f64] {
        &self.ranks[t.index() * self.n..(t.index() + 1) * self.n]
    }

    /// Scores a candidate list on topic `t` (query-user independent).
    pub fn score_candidates(&self, t: Topic, candidates: &[NodeId]) -> Vec<f64> {
        candidates.iter().map(|&v| self.rank(t, v)).collect()
    }

    /// Top-`n` accounts on topic `t`, optionally excluding a query
    /// user, best first.
    pub fn recommend(&self, t: Topic, exclude: Option<NodeId>, n: usize) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = self
            .topic_ranks(t)
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

    fn weights(pairs: &[(Topic, f64)]) -> TopicWeights {
        let mut w = TopicWeights::zero();
        for &(t, x) in pairs {
            w.set(t, x);
        }
        w
    }

    /// A hub followed by everyone plus a fringe account.
    fn star() -> (SocialGraph, Vec<TopicWeights>, Vec<u32>) {
        let mut b = GraphBuilder::new();
        let hub = b.add_node(TopicSet::single(Topic::Technology));
        let fringe = b.add_node(TopicSet::single(Topic::Technology));
        let mut profiles = vec![
            weights(&[(Topic::Technology, 1.0)]),
            weights(&[(Topic::Technology, 1.0)]),
        ];
        let mut tweets = vec![500u32, 10u32];
        for _ in 0..6 {
            let f = b.add_node(TopicSet::empty());
            b.add_edge(f, hub, TopicSet::single(Topic::Technology));
            profiles.push(weights(&[(Topic::Technology, 0.5), (Topic::Social, 0.5)]));
            tweets.push(20);
        }
        // One of the followers also follows the fringe account.
        b.add_edge(NodeId(2), fringe, TopicSet::single(Topic::Technology));
        (b.build(), profiles, tweets)
    }

    #[test]
    fn ranks_sum_to_one_per_topic() {
        let (g, profiles, tweets) = star();
        let tr = TwitterRank::compute(&g, &tweets, &profiles, &TwitterRankConfig::default());
        for t in Topic::ALL {
            let s: f64 = tr.topic_ranks(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "topic {t}: sum = {s}");
        }
    }

    #[test]
    fn popular_account_dominates() {
        let (g, profiles, tweets) = star();
        let tr = TwitterRank::compute(&g, &tweets, &profiles, &TwitterRankConfig::default());
        let top = tr.recommend(Topic::Technology, None, 3);
        assert_eq!(top[0].0, NodeId(0), "{top:?}");
        assert!(tr.rank(Topic::Technology, NodeId(0)) > tr.rank(Topic::Technology, NodeId(1)));
    }

    #[test]
    fn teleport_respects_topic_distribution() {
        let (g, profiles, tweets) = star();
        let tr = TwitterRank::compute(&g, &tweets, &profiles, &TwitterRankConfig::default());
        // Followers carry social mass; hub and fringe none. With no
        // social edges... followers have no social in-links either, so
        // their social rank comes from teleport only and must be
        // positive.
        assert!(tr.rank(Topic::Social, NodeId(2)) > 0.0);
        // The hub gets social rank only via dangling/teleport-free
        // pushes from followers whose social teleport feeds them...
        // rank vectors still normalised.
        let s: f64 = tr.topic_ranks(Topic::Social).iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rank_is_query_independent() {
        let (g, profiles, tweets) = star();
        let tr = TwitterRank::compute(&g, &tweets, &profiles, &TwitterRankConfig::default());
        let a = tr.score_candidates(Topic::Technology, &[NodeId(0), NodeId(1)]);
        let b = tr.score_candidates(Topic::Technology, &[NodeId(0), NodeId(1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_and_convergent() {
        let (g, profiles, tweets) = star();
        let cfg = TwitterRankConfig {
            max_iters: 500,
            ..Default::default()
        };
        let a = TwitterRank::compute(&g, &tweets, &profiles, &cfg);
        let b = TwitterRank::compute(&g, &tweets, &profiles, &cfg);
        for t in Topic::ALL {
            assert_eq!(a.topic_ranks(t), b.topic_ranks(t));
        }
    }

    #[test]
    fn empty_topic_column_falls_back_to_uniform() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(TopicSet::empty());
        let v = b.add_node(TopicSet::empty());
        b.add_edge(u, v, TopicSet::empty());
        let g = b.build();
        let profiles = vec![weights(&[(Topic::Technology, 1.0)]); 2];
        let tweets = vec![5, 5];
        let tr = TwitterRank::compute(&g, &tweets, &profiles, &TwitterRankConfig::default());
        // Nobody covers war: teleport is uniform, ranks still valid.
        let s: f64 = tr.topic_ranks(Topic::War).iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "one DT row per user")]
    fn mismatched_profiles_rejected() {
        let (g, _, tweets) = star();
        TwitterRank::compute(&g, &tweets, &[], &TwitterRankConfig::default());
    }
}
