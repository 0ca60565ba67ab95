//! The paper's own ablations (Figure 4): `Tr−auth` keeps topology +
//! edge similarity but drops the authority factor; `Tr−sim` keeps
//! topology + authority but drops the semantic-similarity factor.
//! Both reuse the `fui-core` engine with the matching
//! [`ScoreVariant`], so the comparison isolates scoring semantics.

use fui_core::{AuthorityIndex, ScoreParams, ScoreVariant, TrRecommender};
use fui_graph::SocialGraph;
use fui_taxonomy::SimMatrix;

/// `Tr−auth`: recommendation score without the authority factor.
pub fn tr_no_authority<'g>(
    graph: &'g SocialGraph,
    authority: &'g AuthorityIndex,
    sim: &SimMatrix,
    params: ScoreParams,
) -> TrRecommender<'g> {
    TrRecommender::new(graph, authority, sim, params, ScoreVariant::NoAuthority)
}

/// `Tr−sim`: recommendation score without the edge-similarity factor.
pub fn tr_no_similarity<'g>(
    graph: &'g SocialGraph,
    authority: &'g AuthorityIndex,
    sim: &SimMatrix,
    params: ScoreParams,
) -> TrRecommender<'g> {
    TrRecommender::new(graph, authority, sim, params, ScoreVariant::NoSimilarity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_core::RecommendOpts;
    use fui_graph::{GraphBuilder, NodeId, TopicSet};
    use fui_taxonomy::Topic;

    /// u follows x and y; x leads (on-topic, low authority target) to
    /// a; y leads (off-topic, high authority target) to b.
    fn graph() -> SocialGraph {
        let mut g = GraphBuilder::new();
        let u = g.add_node(TopicSet::empty());
        let x = g.add_node(TopicSet::empty());
        let y = g.add_node(TopicSet::empty());
        let a = g.add_node(TopicSet::empty());
        let bb = g.add_node(TopicSet::empty());
        let tech = TopicSet::single(Topic::Technology);
        let war = TopicSet::single(Topic::War);
        g.add_edge(u, x, tech);
        g.add_edge(u, y, war);
        g.add_edge(x, a, tech);
        g.add_edge(y, bb, war);
        // b is a big authority on technology via extra followers, and
        // the intermediate y gets some tech authority too so the
        // authority channel is live along the whole u→y→b path.
        for _ in 0..4 {
            let f = g.add_node(TopicSet::empty());
            g.add_edge(f, bb, tech);
        }
        for _ in 0..2 {
            let f = g.add_node(TopicSet::empty());
            g.add_edge(f, y, tech);
        }
        g.build()
    }

    #[test]
    fn ablations_disagree_by_design() {
        let g = graph();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let params = ScoreParams {
            beta: 0.3,
            ..ScoreParams::default()
        };
        let opts = RecommendOpts {
            exclude_followed: false,
            max_depth: None,
        };
        let (u, a, bb) = (NodeId(0), NodeId(3), NodeId(4));

        let no_auth = tr_no_authority(&g, &idx, &sim, params);
        let no_sim = tr_no_similarity(&g, &idx, &sim, params);

        let mut ws = fui_core::PropWorkspace::new();
        let na = no_auth.recommend(&mut ws, u, Topic::Technology, 10, opts);
        let ns = no_sim.recommend(&mut ws, u, Topic::Technology, 10, opts);
        let score = |list: &[fui_core::Recommendation], n: NodeId| {
            list.iter()
                .find(|r| r.node == n)
                .map(|r| r.score)
                .unwrap_or(0.0)
        };
        // Without authority, the on-topic path wins: a > b.
        assert!(score(&na, a) > score(&na, bb), "{na:?}");
        // Without similarity, the high-authority target wins: b > a.
        assert!(score(&ns, bb) > score(&ns, a), "{ns:?}");
    }

    #[test]
    fn variants_are_wired_correctly() {
        let g = graph();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let params = ScoreParams::default();
        assert_eq!(
            tr_no_authority(&g, &idx, &sim, params)
                .propagator()
                .variant(),
            ScoreVariant::NoAuthority
        );
        assert_eq!(
            tr_no_similarity(&g, &idx, &sim, params)
                .propagator()
                .variant(),
            ScoreVariant::NoSimilarity
        );
    }
}
