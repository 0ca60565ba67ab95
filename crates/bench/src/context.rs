//! Shared scoring context: a (reduced) graph plus the indexes every
//! method needs, so experiments construct scorers with one-liners.

use std::sync::Arc;

use fui_baselines::{KatzScorer, TwitterRank, TwitterRankConfig};
use fui_core::{AuthorityIndex, Propagator, ScoreParams, ScoreVariant, SimRowCache, TrRecommender};
use fui_graph::SocialGraph;
use fui_taxonomy::SimMatrix;

/// Owns the graph and the per-graph indexes; scorers borrow from it.
pub struct Context {
    /// The (possibly reduced) labeled graph.
    pub graph: SocialGraph,
    /// Authority index built on `graph`.
    pub authority: AuthorityIndex,
    /// Topic similarity matrix.
    pub sim: SimMatrix,
    /// Score parameters (paper defaults unless overridden).
    pub params: ScoreParams,
    /// The graph's similarity rows, borrowed by every scorer this
    /// context hands out.
    sim_rows: Arc<SimRowCache>,
}

impl Context {
    /// Builds the context (authority index and similarity rows
    /// included).
    pub fn new(graph: SocialGraph, params: ScoreParams) -> Context {
        let authority = AuthorityIndex::build(&graph);
        let sim = SimMatrix::opencalais();
        let sim_rows = Arc::new(SimRowCache::build(&graph, &sim));
        Context {
            graph,
            authority,
            sim,
            params,
            sim_rows,
        }
    }

    /// The similarity rows every scorer of this context shares.
    pub fn sim_rows(&self) -> &Arc<SimRowCache> {
        &self.sim_rows
    }

    /// The full Tr recommender.
    pub fn tr(&self) -> TrRecommender<'_> {
        self.recommender(ScoreVariant::Full)
    }

    /// A recommender for any score variant.
    pub fn recommender(&self, variant: ScoreVariant) -> TrRecommender<'_> {
        TrRecommender::with_sim_cache(
            &self.graph,
            &self.authority,
            Arc::clone(&self.sim_rows),
            self.params,
            variant,
        )
    }

    /// A bare propagator (for landmark preprocessing and queries).
    pub fn propagator(&self, variant: ScoreVariant) -> Propagator<'_> {
        Propagator::with_sim_cache(
            &self.graph,
            &self.authority,
            Arc::clone(&self.sim_rows),
            self.params,
            variant,
        )
    }

    /// The standalone Katz baseline at the shared β.
    pub fn katz(&self) -> KatzScorer<'_> {
        KatzScorer::new(&self.graph, self.params.beta)
    }

    /// TwitterRank over this graph (needs the dataset's activity
    /// counts and soft profiles).
    pub fn twitterrank(
        &self,
        tweet_counts: &[u32],
        publisher_weights: &[fui_taxonomy::TopicWeights],
    ) -> TwitterRank {
        TwitterRank::compute(
            &self.graph,
            tweet_counts,
            publisher_weights,
            &TwitterRankConfig::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_datagen::{label_direct, twitter, TwitterConfig};

    #[test]
    fn context_builds_all_scorers() {
        let d = label_direct(twitter::generate(&TwitterConfig::tiny()));
        let counts = d.tweet_counts.clone();
        let weights = d.publisher_weights.clone();
        let ctx = Context::new(d.graph, ScoreParams::default());
        let _tr = ctx.tr();
        let _katz = ctx.katz();
        let _trank = ctx.twitterrank(&counts, &weights);
        let _na = ctx.recommender(ScoreVariant::NoAuthority);
    }

    #[test]
    fn scorers_share_one_sim_row_cache() {
        let d = label_direct(twitter::generate(&TwitterConfig::tiny()));
        let ctx = Context::new(d.graph, ScoreParams::default());
        let full = ctx.propagator(ScoreVariant::Full);
        let ablated = ctx.propagator(ScoreVariant::NoAuthority);
        assert!(Arc::ptr_eq(full.sim_cache(), ctx.sim_rows()));
        assert!(Arc::ptr_eq(ablated.sim_cache(), ctx.sim_rows()));
        assert!(Arc::ptr_eq(
            ctx.recommender(ScoreVariant::NoSimilarity)
                .propagator()
                .sim_cache(),
            ctx.sim_rows()
        ));
    }
}
