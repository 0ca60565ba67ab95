//! Exact top-n recommendation on top of the propagation engine.
//!
//! For a user `u` and a topic `t`, the exact recommender runs the
//! iterative computation to convergence and ranks every reached
//! account by `σ(u, ·, t)`. Multi-topic queries `Q = {t1, ..., tk}`
//! are answered by a weighted linear combination of the per-topic
//! scores (Section 3.2 — "user scores for each individual topic are
//! weighted by the relevance of the topic for the posts of u").

use fui_graph::{NodeId, SocialGraph};
use fui_taxonomy::{SimMatrix, Topic};

use crate::authority::AuthorityIndex;
use crate::params::{ScoreParams, ScoreVariant};
use crate::propagate::{PropWorkspace, PropagateOpts, Propagator};
use crate::topk;

/// One recommended account.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// The recommended account.
    pub node: NodeId,
    /// Its recommendation score (σ, or topo under Katz).
    pub score: f64,
}

/// Options of a recommendation query.
#[derive(Clone, Copy, Debug)]
pub struct RecommendOpts {
    /// Drop accounts the user already follows (a production
    /// who-to-follow list would; the link-prediction protocol must
    /// not, because the held-out edge is removed from the graph
    /// first).
    pub exclude_followed: bool,
    /// Depth cap (`None` = run to convergence).
    pub max_depth: Option<u32>,
}

impl Default for RecommendOpts {
    fn default() -> Self {
        RecommendOpts {
            exclude_followed: true,
            max_depth: None,
        }
    }
}

/// Exact Tr recommender (also serves the ablation variants and Katz
/// through [`ScoreVariant`]).
pub struct TrRecommender<'g> {
    propagator: Propagator<'g>,
}

impl<'g> TrRecommender<'g> {
    /// Builds a recommender over a labeled graph.
    pub fn new(
        graph: &'g SocialGraph,
        authority: &'g AuthorityIndex,
        sim: &SimMatrix,
        params: ScoreParams,
        variant: ScoreVariant,
    ) -> TrRecommender<'g> {
        TrRecommender {
            propagator: Propagator::new(graph, authority, sim, params, variant),
        }
    }

    /// Builds a recommender over similarity rows already derived for
    /// `graph` (see [`Propagator::with_sim_cache`]).
    pub fn with_sim_cache(
        graph: &'g SocialGraph,
        authority: &'g AuthorityIndex,
        rows: std::sync::Arc<crate::SimRowCache>,
        params: ScoreParams,
        variant: ScoreVariant,
    ) -> TrRecommender<'g> {
        TrRecommender {
            propagator: Propagator::with_sim_cache(graph, authority, rows, params, variant),
        }
    }

    /// The underlying propagator.
    pub fn propagator(&self) -> &Propagator<'g> {
        &self.propagator
    }

    /// Top-`n` accounts for `u` on topic `t`, best first.
    pub fn recommend(
        &self,
        u: NodeId,
        t: Topic,
        n: usize,
        opts: RecommendOpts,
    ) -> Vec<Recommendation> {
        self.recommend_weighted(u, &[(t, 1.0)], n, opts)
    }

    /// Top-`n` accounts for the weighted multi-topic query `q`
    /// (weights need not be normalised).
    pub fn recommend_weighted(
        &self,
        u: NodeId,
        q: &[(Topic, f64)],
        n: usize,
        opts: RecommendOpts,
    ) -> Vec<Recommendation> {
        let mut ws = PropWorkspace::new();
        self.recommend_weighted_with(&mut ws, u, q, n, opts)
    }

    /// [`recommend_weighted`](Self::recommend_weighted) running inside
    /// a caller-owned [`PropWorkspace`] — the allocation-free path for
    /// batched query loops (one workspace per `fui-exec` worker).
    pub fn recommend_weighted_with(
        &self,
        ws: &mut PropWorkspace,
        u: NodeId,
        q: &[(Topic, f64)],
        n: usize,
        opts: RecommendOpts,
    ) -> Vec<Recommendation> {
        let topics: Vec<Topic> = q.iter().map(|&(t, _)| t).collect();
        let r = self.propagator.propagate_into(
            ws,
            u,
            &topics,
            PropagateOpts {
                max_depth: opts.max_depth,
                ..Default::default()
            },
        );
        let followed: Vec<NodeId> = if opts.exclude_followed {
            self.propagator.graph().followees(u).collect()
        } else {
            Vec::new()
        };
        let katz = self.propagator.variant() == ScoreVariant::TopoOnly;
        topk::select_top_k(
            n,
            r.reached()
                .iter()
                .copied()
                .filter(|&v| v != u)
                .filter(|v| !opts.exclude_followed || !followed.contains(v))
                .map(|v| {
                    let score = if katz {
                        r.topo_beta(v)
                    } else {
                        q.iter()
                            .enumerate()
                            .map(|(ti, &(_, w))| w * r.sigma_at(v, ti))
                            .sum()
                    };
                    (v, score)
                })
                .filter(|&(_, s)| s > 0.0),
        )
        .into_iter()
        .map(|(node, score)| Recommendation { node, score })
        .collect()
    }

    /// Convenience for Section 3.2's query construction: derives the
    /// weighted multi-topic query from a user's interest profile ("user
    /// scores for each individual topic are weighted by the relevance
    /// of the topic for the posts of u") and answers it. `top_topics`
    /// bounds how many profile topics enter the query.
    pub fn recommend_for_profile(
        &self,
        u: NodeId,
        profile: &fui_taxonomy::TopicWeights,
        top_topics: usize,
        n: usize,
        opts: RecommendOpts,
    ) -> Vec<Recommendation> {
        let query = profile.top_k(top_topics);
        if query.is_empty() {
            return Vec::new();
        }
        self.recommend_weighted(u, &query, n, opts)
    }

    /// Scores an explicit candidate list for `u` on `t` (the
    /// link-prediction protocol ranks 1000 sampled accounts + the
    /// held-out one). Returns one score per candidate, aligned.
    pub fn score_candidates(
        &self,
        u: NodeId,
        t: Topic,
        candidates: &[NodeId],
        opts: RecommendOpts,
    ) -> Vec<f64> {
        let mut ws = PropWorkspace::new();
        self.score_candidates_with(&mut ws, u, t, candidates, opts)
    }

    /// [`score_candidates`](Self::score_candidates) inside a
    /// caller-owned [`PropWorkspace`] (the link-prediction sweeps score
    /// thousands of users back to back).
    pub fn score_candidates_with(
        &self,
        ws: &mut PropWorkspace,
        u: NodeId,
        t: Topic,
        candidates: &[NodeId],
        opts: RecommendOpts,
    ) -> Vec<f64> {
        let r = self.propagator.propagate_into(
            ws,
            u,
            &[t],
            PropagateOpts {
                max_depth: opts.max_depth,
                ..Default::default()
            },
        );
        let katz = self.propagator.variant() == ScoreVariant::TopoOnly;
        candidates
            .iter()
            .map(|&v| {
                if katz {
                    r.topo_beta(v)
                } else {
                    r.sigma_at(v, 0)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_graph::{GraphBuilder, TopicSet};

    /// The Example-2 graph of the paper (Figure 1 excerpt): A follows B
    /// and C; B leads to D, C leads to E. B is more specialised on
    /// technology than C, so D should be recommended above E.
    fn example2() -> (SocialGraph, [NodeId; 5]) {
        let mut g = GraphBuilder::new();
        let a = g.add_node(TopicSet::empty());
        let b = g.add_node(TopicSet::single(Topic::Technology));
        let c = g.add_node(TopicSet::single(Topic::Technology));
        let d = g.add_node(TopicSet::single(Topic::Technology));
        let e = g.add_node(TopicSet::single(Topic::Technology));
        let tech = TopicSet::single(Topic::Technology);
        let busi = TopicSet::single(Topic::Business);
        // A -> B labeled {business, technology}; A -> C labeled business.
        g.add_edge(a, b, tech.with(Topic::Business));
        g.add_edge(a, c, busi);
        // Extra followers fix the authorities: B followed twice on
        // tech (of 3), C twice on tech (of 6).
        let mut extra = Vec::new();
        for _ in 0..5 {
            extra.push(g.add_node(TopicSet::empty()));
        }
        g.add_edge(extra[0], b, tech);
        g.add_edge(extra[1], c, tech.with(Topic::Business));
        g.add_edge(extra[2], c, busi);
        g.add_edge(extra[3], c, busi);
        g.add_edge(extra[4], c, busi);
        // B -> D on technology, C -> E on business.
        g.add_edge(b, d, tech);
        g.add_edge(c, e, busi);
        (g.build(), [a, b, c, d, e])
    }

    #[test]
    fn example_two_ordering() {
        let (g, [a, b, c, d, e]) = example2();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let rec = TrRecommender::new(&g, &idx, &sim, ScoreParams::default(), ScoreVariant::Full);
        let out = rec.recommend(
            a,
            Topic::Technology,
            10,
            RecommendOpts {
                exclude_followed: false,
                max_depth: None,
            },
        );
        let pos = |n: NodeId| out.iter().position(|r| r.node == n);
        // B (followed on tech, high authority) ranks above C.
        assert!(pos(b).unwrap() < pos(c).unwrap(), "{out:?}");
        // D (through B) ranks above E (through C): the paper's
        // Example 2 conclusion.
        assert!(pos(d).unwrap() < pos(e).unwrap(), "{out:?}");
    }

    #[test]
    fn exclude_followed_filters_direct_followees() {
        let (g, [a, b, c, ..]) = example2();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let rec = TrRecommender::new(&g, &idx, &sim, ScoreParams::default(), ScoreVariant::Full);
        let out = rec.recommend(a, Topic::Technology, 10, RecommendOpts::default());
        assert!(!out.iter().any(|r| r.node == b || r.node == c));
    }

    #[test]
    fn weighted_query_combines_topics() {
        let (g, [a, _, _, d, e]) = example2();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let rec = TrRecommender::new(&g, &idx, &sim, ScoreParams::default(), ScoreVariant::Full);
        let opts = RecommendOpts {
            exclude_followed: false,
            max_depth: None,
        };
        let tech_only = rec.recommend_weighted(a, &[(Topic::Technology, 1.0)], 10, opts);
        let both = rec.recommend_weighted(
            a,
            &[(Topic::Technology, 0.5), (Topic::Business, 0.5)],
            10,
            opts,
        );
        let score =
            |list: &[Recommendation], n: NodeId| list.iter().find(|r| r.node == n).map(|r| r.score);
        // Both lists exist and rank D and E somewhere.
        assert!(score(&tech_only, d).is_some());
        assert!(score(&both, e).is_some());
        // Adding business weight must help E (reached via a business
        // edge) relative to its tech-only score.
        let e_tech = score(&tech_only, e).unwrap_or(0.0);
        let e_both = score(&both, e).unwrap();
        assert!(e_both > 0.0);
        // Weighted combination is a true mix, not a copy.
        assert!((e_both - e_tech).abs() > 1e-15);
    }

    #[test]
    fn profile_query_matches_explicit_weights() {
        let (g, [a, ..]) = example2();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let rec = TrRecommender::new(&g, &idx, &sim, ScoreParams::default(), ScoreVariant::Full);
        let opts = RecommendOpts {
            exclude_followed: false,
            max_depth: None,
        };
        let mut profile = fui_taxonomy::TopicWeights::zero();
        profile.set(Topic::Technology, 0.6);
        profile.set(Topic::Business, 0.4);
        let via_profile = rec.recommend_for_profile(a, &profile, 2, 10, opts);
        let explicit = rec.recommend_weighted(
            a,
            &[(Topic::Technology, 0.6), (Topic::Business, 0.4)],
            10,
            opts,
        );
        assert_eq!(via_profile.len(), explicit.len());
        for (x, y) in via_profile.iter().zip(&explicit) {
            assert_eq!(x.node, y.node);
            assert!((x.score - y.score).abs() < 1e-15);
        }
        // Empty profile yields no recommendations rather than a panic.
        let empty = rec.recommend_for_profile(a, &fui_taxonomy::TopicWeights::zero(), 3, 10, opts);
        assert!(empty.is_empty());
    }

    #[test]
    fn multi_topic_run_equals_per_topic_runs() {
        // One propagation over [t1, t2] must equal two independent
        // single-topic propagations — the flat sigma layout carries no
        // cross-topic interaction.
        let (g, [a, ..]) = example2();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let rec = TrRecommender::new(&g, &idx, &sim, ScoreParams::default(), ScoreVariant::Full);
        let p = rec.propagator();
        let both = p.propagate(
            a,
            &[Topic::Technology, Topic::Business],
            crate::propagate::PropagateOpts::default(),
        );
        for (ti, &t) in [Topic::Technology, Topic::Business].iter().enumerate() {
            let single = p.propagate(a, &[t], crate::propagate::PropagateOpts::default());
            for v in g.nodes() {
                assert!(
                    (both.sigma_at(v, ti) - single.sigma_at(v, 0)).abs() < 1e-15,
                    "topic {t} node {v}"
                );
            }
        }
    }

    #[test]
    fn score_candidates_aligns_with_recommend() {
        let (g, [a, _, _, d, e]) = example2();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let rec = TrRecommender::new(&g, &idx, &sim, ScoreParams::default(), ScoreVariant::Full);
        let opts = RecommendOpts {
            exclude_followed: false,
            max_depth: None,
        };
        let scores = rec.score_candidates(a, Topic::Technology, &[d, e], opts);
        assert_eq!(scores.len(), 2);
        assert!(scores[0] > scores[1], "{scores:?}");
        let list = rec.recommend(a, Topic::Technology, 10, opts);
        let from_list = |n: NodeId| list.iter().find(|r| r.node == n).unwrap().score;
        assert!((scores[0] - from_list(d)).abs() < 1e-15);
        assert!((scores[1] - from_list(e)).abs() < 1e-15);
    }

    #[test]
    fn katz_variant_ranks_by_topology() {
        let (g, [a, b, c, ..]) = example2();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let rec = TrRecommender::new(
            &g,
            &idx,
            &sim,
            ScoreParams::default(),
            ScoreVariant::TopoOnly,
        );
        let out = rec.recommend(
            a,
            Topic::Technology,
            10,
            RecommendOpts {
                exclude_followed: false,
                max_depth: None,
            },
        );
        // Pure topology cannot separate B from C (both one hop away).
        let score = |n: NodeId| out.iter().find(|r| r.node == n).unwrap().score;
        assert!((score(b) - score(c)).abs() < 1e-15);
    }
}
