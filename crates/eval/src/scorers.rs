//! [`CandidateScorer`] adapters for every method the paper compares.

use fui_baselines::{KatzScorer, PageRank, TwitterRank};
use fui_core::{PropWorkspace, RecommendOpts, TrRecommender};
use fui_graph::NodeId;
use fui_landmarks::ApproxRecommender;
use fui_taxonomy::Topic;

use crate::linkpred::CandidateScorer;

/// Tr and its ablations (the variant decides the reported name:
/// `Tr`, `Tr-auth`, `Tr-sim`, `Katz`).
impl CandidateScorer for TrRecommender<'_> {
    fn name(&self) -> &str {
        self.propagator().variant().name()
    }

    fn score(&self, ws: &mut PropWorkspace, u: NodeId, t: Topic, cands: &[NodeId]) -> Vec<f64> {
        self.score_candidates(
            ws,
            u,
            t,
            cands,
            RecommendOpts {
                exclude_followed: false,
                max_depth: None,
            },
        )
    }
}

/// The standalone Katz baseline (topic-blind).
impl CandidateScorer for KatzScorer<'_> {
    fn name(&self) -> &str {
        "Katz"
    }

    fn score(&self, _: &mut PropWorkspace, u: NodeId, _: Topic, cands: &[NodeId]) -> Vec<f64> {
        self.score_candidates(u, cands)
    }
}

/// TwitterRank: global per-topic rank, independent of the query user.
impl CandidateScorer for TwitterRank {
    fn name(&self) -> &str {
        "TwitterRank"
    }

    fn score(&self, _: &mut PropWorkspace, _: NodeId, t: Topic, cands: &[NodeId]) -> Vec<f64> {
        self.score_candidates(t, cands)
    }
}

/// Plain PageRank: pure global popularity, blind to both the query
/// user and the topic.
impl CandidateScorer for PageRank {
    fn name(&self) -> &str {
        "PageRank"
    }

    fn score(&self, _: &mut PropWorkspace, _: NodeId, _: Topic, cands: &[NodeId]) -> Vec<f64> {
        self.score_candidates(cands)
    }
}

/// The landmark-approximate recommender: ranks come from the merged
/// vicinity + landmark lists; candidates outside them score 0 (the
/// lower-bound semantics of Section 4.2).
impl CandidateScorer for ApproxRecommender<'_, '_> {
    fn name(&self) -> &str {
        "Tr-landmark"
    }

    fn score(&self, ws: &mut PropWorkspace, u: NodeId, t: Topic, cands: &[NodeId]) -> Vec<f64> {
        let result = self.recommend_with(ws, u, t, usize::MAX);
        let lookup: std::collections::HashMap<u32, f64> = result
            .recommendations
            .into_iter()
            .map(|(v, s)| (v.0, s))
            .collect();
        cands
            .iter()
            .map(|v| lookup.get(&v.0).copied().unwrap_or(0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_core::{AuthorityIndex, Propagator, ScoreParams, ScoreVariant};
    use fui_datagen::{label_direct, twitter, TwitterConfig};
    use fui_landmarks::LandmarkIndex;
    use fui_taxonomy::SimMatrix;

    #[test]
    fn names_match_the_paper() {
        let d = label_direct(twitter::generate(&TwitterConfig::tiny()));
        let auth = AuthorityIndex::build(&d.graph);
        let sim = SimMatrix::opencalais();
        let params = ScoreParams::default();

        let tr = TrRecommender::new(&d.graph, &auth, &sim, params, ScoreVariant::Full);
        assert_eq!(CandidateScorer::name(&tr), "Tr");
        let katz = KatzScorer::new(&d.graph, params.beta);
        assert_eq!(CandidateScorer::name(&katz), "Katz");

        let trank = TwitterRank::compute(
            &d.graph,
            &d.tweet_counts,
            &d.publisher_weights,
            &Default::default(),
        );
        assert_eq!(CandidateScorer::name(&trank), "TwitterRank");
    }

    #[test]
    fn approx_scorer_aligns_with_its_recommendations() {
        let d = label_direct(twitter::generate(&TwitterConfig::tiny()));
        let auth = AuthorityIndex::build(&d.graph);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(
            &d.graph,
            &auth,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let index = LandmarkIndex::build(&p, vec![NodeId(1), NodeId(2)], 50);
        let approx = ApproxRecommender::new(&p, &index);
        let mut ws = PropWorkspace::new();
        let u = NodeId(0);
        let recs = approx.recommend_with(&mut ws, u, Topic::Technology, 10);
        if let Some(&(best, score)) = recs.recommendations.first() {
            let scored = CandidateScorer::score(&approx, &mut ws, u, Topic::Technology, &[best]);
            assert!((scored[0] - score).abs() < 1e-12);
        }
        // Unknown candidates score zero.
        let far = NodeId((d.graph.num_nodes() - 1) as u32);
        let s = CandidateScorer::score(&approx, &mut ws, u, Topic::Technology, &[far]);
        assert!(s[0] >= 0.0);
    }
}
