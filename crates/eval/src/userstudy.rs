//! Simulated user-validation studies.
//!
//! The paper validates recommendation *quality* (as opposed to link
//! prediction) with two human panels: 54 IT users blind-rating the
//! top-3 Twitter recommendations of each method on three topics
//! (Figure 10), and 47 researchers rating DBLP author recommendations
//! capped at 100 citations (Table 3). Human panels cannot be re-run in
//! a reproduction, so we simulate raters against the generator's
//! ground truth (see DESIGN.md §2):
//!
//! * the latent relevance of an account `v` for topic `t` is its
//!   *hidden* interest weight on `t` — exactly the signal a human
//!   infers from reading sampled tweets, and one **no scorer ever
//!   sees** (scorers only see pipeline labels);
//! * raters are noisy: a Gaussian perturbation before quantising to
//!   the 1–5 Likert scale;
//! * the paper observes raters defaulting to 2–3 when "tweets were
//!   neutral, unclear"; accounts with a low-dominance (mixed) profile
//!   trigger the same doubtful 2-or-3 response here;
//! * for DBLP, relevance blends topical match with citation proximity
//!   ("the proposed author could have been cited" given the
//!   researcher's past work).

use fui_graph::bfs::k_vicinity;
use fui_graph::{NodeId, SocialGraph};
use fui_taxonomy::{Topic, TopicWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fui_baselines::{KatzScorer, TwitterRank};
use fui_core::{PropWorkspace, RecommendOpts, TrRecommender};

/// A method that can produce a filtered top-k list for a user+topic.
pub trait TopRecommender {
    /// Method name as displayed in the study tables.
    fn name(&self) -> &str;
    /// Top-`k` recommendations for `u` on `t` among nodes accepted by
    /// `filter` (the query user is always excluded by the caller's
    /// filter composition). A propagation-based method runs inside
    /// `ws`, the study's one workspace; the others ignore it.
    fn top_k(
        &self,
        ws: &mut PropWorkspace,
        u: NodeId,
        t: Topic,
        k: usize,
        filter: &dyn Fn(NodeId) -> bool,
    ) -> Vec<NodeId>;
}

impl TopRecommender for TrRecommender<'_> {
    fn name(&self) -> &str {
        self.propagator().variant().name()
    }

    fn top_k(
        &self,
        ws: &mut PropWorkspace,
        u: NodeId,
        t: Topic,
        k: usize,
        filter: &dyn Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        self.recommend(
            ws,
            u,
            t,
            usize::MAX,
            RecommendOpts {
                exclude_followed: false,
                max_depth: None,
            },
        )
        .into_iter()
        .map(|r| r.node)
        .filter(|&v| filter(v))
        .take(k)
        .collect()
    }
}

impl TopRecommender for KatzScorer<'_> {
    fn name(&self) -> &str {
        "Katz"
    }

    fn top_k(
        &self,
        _ws: &mut PropWorkspace,
        u: NodeId,
        _t: Topic,
        k: usize,
        filter: &dyn Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        self.recommend(u, usize::MAX)
            .into_iter()
            .map(|(v, _)| v)
            .filter(|&v| filter(v))
            .take(k)
            .collect()
    }
}

impl TopRecommender for TwitterRank {
    fn name(&self) -> &str {
        "TwitterRank"
    }

    fn top_k(
        &self,
        _ws: &mut PropWorkspace,
        u: NodeId,
        t: Topic,
        k: usize,
        filter: &dyn Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        self.recommend(t, Some(u), usize::MAX)
            .into_iter()
            .map(|(v, _)| v)
            .filter(|&v| filter(v))
            .take(k)
            .collect()
    }
}

/// Panel parameters.
#[derive(Clone, Copy, Debug)]
pub struct StudyConfig {
    /// Number of panelists (paper: 54 for Twitter, 47 for DBLP).
    pub panel: usize,
    /// Recommendations rated per method per topic (paper: 3).
    pub top_k: usize,
    /// Std-dev of the rater's Gaussian noise on the latent relevance
    /// (in mark units).
    pub noise_std: f64,
    /// Profile dominance below which the rater turns doubtful and
    /// marks 2 or 3.
    pub doubt_threshold: f64,
    /// Topics whose content is inherently hard to judge — the paper
    /// observes that social "posts ... are generally difficult to
    /// classify since they mix social and health, or social and
    /// politics", compressing every method's social marks to 2.7–2.9.
    /// Raters asked about these topics default to 2-or-3 most of the
    /// time.
    pub ambiguous_topics: fui_taxonomy::TopicSet,
    /// Exponent applied to the latent relevance before quantisation:
    /// < 1 models generous raters (topicality is easy to confirm from
    /// sampled tweets), > 1 harsh ones (the DBLP panel judged whether
    /// an author "could have been cited", a much stricter bar).
    pub latent_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            panel: 54,
            top_k: 3,
            noise_std: 0.55,
            doubt_threshold: 0.45,
            ambiguous_topics: fui_taxonomy::TopicSet::single(Topic::Social),
            latent_exponent: 0.7,
            seed: 0x5717D7,
        }
    }
}

/// One cell of the Figure 10 chart.
#[derive(Clone, Debug)]
pub struct StudyCell {
    /// Method name.
    pub method: String,
    /// Probed topic.
    pub topic: Topic,
    /// Mean 1–5 relevance mark.
    pub mean_mark: f64,
    /// Number of ratings aggregated.
    pub ratings: usize,
}

/// A simulated Likert rating of account `v` for topic `t`.
fn rate(cfg: &StudyConfig, profile: &TopicWeights, t: Topic, rng: &mut StdRng) -> u8 {
    // Ambiguous-content topics: raters cannot tell and fall back to
    // the middle of the scale most of the time, lightly modulated by
    // the true relevance when it is extreme.
    if cfg.ambiguous_topics.contains(t) && rng.gen::<f64>() < 0.8 {
        return 2 + u8::from(rng.gen::<bool>());
    }
    let dominance = profile.0.iter().cloned().fold(0.0f64, f64::max);
    if dominance < cfg.doubt_threshold {
        // Unclear account: the doubtful 2-or-3 default the paper
        // describes.
        return 2 + u8::from(rng.gen::<bool>());
    }
    let latent = profile.get(t).powf(cfg.latent_exponent);
    let noise = cfg.noise_std * crate::userstudy::gaussian(rng);
    let mark = 1.0 + 4.0 * latent + noise;
    (mark.round()).clamp(1.0, 5.0) as u8
}

/// Box–Muller standard normal (local copy; the eval crate stays free
/// of a datagen dependency).
pub(crate) fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Picks panelists: random query users with enough followees to have a
/// meaningful neighbourhood.
fn pick_panel(graph: &SocialGraph, panel: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut eligible: Vec<NodeId> = graph
        .nodes()
        .filter(|&u| graph.out_degree(u) >= 3)
        .collect();
    use rand::seq::SliceRandom;
    eligible.shuffle(rng);
    eligible.truncate(panel);
    eligible
}

/// The Figure 10 study: each panelist blind-rates the top-k of each
/// method on each probe topic; cells report the per-(method, topic)
/// mean mark.
pub fn twitter_study(
    graph: &SocialGraph,
    hidden_profiles: &[TopicWeights],
    methods: &[&dyn TopRecommender],
    topics: &[Topic],
    cfg: &StudyConfig,
) -> Vec<StudyCell> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let panel = pick_panel(graph, cfg.panel, &mut rng);
    let mut ws = PropWorkspace::new();
    let mut cells = Vec::new();
    for method in methods {
        for &t in topics {
            let mut marks = Vec::new();
            for &u in &panel {
                let recs = method.top_k(&mut ws, u, t, cfg.top_k, &|v| v != u);
                for v in recs {
                    marks.push(f64::from(rate(
                        cfg,
                        &hidden_profiles[v.index()],
                        t,
                        &mut rng,
                    )));
                }
            }
            cells.push(StudyCell {
                method: method.name().to_owned(),
                topic: t,
                mean_mark: crate::stats::mean(&marks),
                ratings: marks.len(),
            });
        }
    }
    cells
}

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct DblpStudyRow {
    /// Method name.
    pub method: String,
    /// Average 1–5 mark over all ratings.
    pub average_mark: f64,
    /// Number of 4- and 5-marks received.
    pub marks_4_and_5: usize,
    /// Fraction of panelists for whom this method's top-3 scored best.
    pub best_answer: f64,
}

/// The Table 3 study: researchers rate author recommendations capped
/// at `citation_cap` citations ("so we avoid to propose very popular
/// and obvious authors"); relevance blends the author's topical match
/// with citation proximity to the panelist.
pub fn dblp_study(
    graph: &SocialGraph,
    hidden_profiles: &[TopicWeights],
    methods: &[&dyn TopRecommender],
    citation_cap: usize,
    cfg: &StudyConfig,
) -> Vec<DblpStudyRow> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let panel = pick_panel(graph, cfg.panel, &mut rng);
    let mut totals: Vec<(f64, usize, usize, f64)> = vec![(0.0, 0, 0, 0.0); methods.len()]; // (sum, count, #45, best)
    let mut ws = PropWorkspace::new();
    for &u in &panel {
        let area = hidden_profiles[u.index()].argmax().unwrap_or(Topic::Other);
        // Citation vicinity of the panelist: authors within 2 hops.
        let vicinity = k_vicinity(graph, u, 2);
        let near = |v: NodeId| vicinity.distance(v).is_some();
        let mut per_method_sum = vec![0.0f64; methods.len()];
        for (mi, method) in methods.iter().enumerate() {
            let recs = method.top_k(&mut ws, u, area, cfg.top_k, &|v| {
                v != u && graph.in_degree(v) <= citation_cap
            });
            for v in recs {
                // Blend topical relevance with proximity before the
                // Likert quantisation: a near author with matching
                // topics "could have been cited".
                let mut blended = hidden_profiles[v.index()].clone();
                let boost = if near(v) { 1.0 } else { 0.45 };
                for w in &mut blended.0 {
                    *w = (*w * boost).min(1.0);
                }
                let mark = rate(cfg, &blended, area, &mut rng);
                totals[mi].0 += f64::from(mark);
                totals[mi].1 += 1;
                if mark >= 4 {
                    totals[mi].2 += 1;
                }
                per_method_sum[mi] += f64::from(mark);
            }
        }
        // Best answer: the method(s) with the highest mark total for
        // this panelist split the point.
        let best = per_method_sum
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        if best > 0.0 {
            let winners: Vec<usize> = per_method_sum
                .iter()
                .enumerate()
                .filter(|&(_, &s)| (s - best).abs() < 1e-12)
                .map(|(i, _)| i)
                .collect();
            for &w in &winners {
                totals[w].3 += 1.0 / winners.len() as f64;
            }
        }
    }
    methods
        .iter()
        .zip(&totals)
        .map(|(m, &(sum, count, n45, best))| DblpStudyRow {
            method: m.name().to_owned(),
            average_mark: if count == 0 { 0.0 } else { sum / count as f64 },
            marks_4_and_5: n45,
            best_answer: if panel.is_empty() {
                0.0
            } else {
                best / panel.len() as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_core::{AuthorityIndex, ScoreParams, ScoreVariant};
    use fui_datagen::{dblp, label_direct, twitter, DblpConfig, TwitterConfig};
    use fui_taxonomy::SimMatrix;

    #[test]
    fn rater_prefers_on_topic_specialists() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut specialist = TopicWeights::zero();
        specialist.set(Topic::Technology, 1.0);
        let mut offtopic = TopicWeights::zero();
        offtopic.set(Topic::Sports, 1.0);
        let cfg = StudyConfig::default();
        let mut hi = 0.0;
        let mut lo = 0.0;
        for _ in 0..200 {
            hi += f64::from(rate(&cfg, &specialist, Topic::Technology, &mut rng));
            lo += f64::from(rate(&cfg, &offtopic, Topic::Technology, &mut rng));
        }
        assert!(hi / 200.0 > 4.0, "specialist mean {}", hi / 200.0);
        assert!(lo / 200.0 < 2.0, "off-topic mean {}", lo / 200.0);
    }

    #[test]
    fn doubtful_accounts_get_middle_marks() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mixed = TopicWeights::zero();
        for t in Topic::ALL {
            mixed.set(t, 1.0);
        }
        mixed.normalize(); // dominance 1/18, well under threshold
        let cfg = StudyConfig::default();
        for _ in 0..100 {
            let m = rate(&cfg, &mixed, Topic::Technology, &mut rng);
            assert!(m == 2 || m == 3, "doubtful mark {m}");
        }
    }

    #[test]
    fn twitter_study_produces_cells_for_all_pairs() {
        let d = label_direct(twitter::generate(&TwitterConfig::tiny()));
        let auth = AuthorityIndex::build(&d.graph);
        let sim = SimMatrix::opencalais();
        let tr = TrRecommender::new(
            &d.graph,
            &auth,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let katz = KatzScorer::new(&d.graph, 0.0005);
        let methods: Vec<&dyn TopRecommender> = vec![&tr, &katz];
        let cfg = StudyConfig {
            panel: 10,
            ..Default::default()
        };
        let cells = twitter_study(
            &d.graph,
            &d.hidden_profiles,
            &methods,
            &[Topic::Technology, Topic::Social],
            &cfg,
        );
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert!(
                (1.0..=5.0).contains(&c.mean_mark) || c.ratings == 0,
                "{c:?}"
            );
        }
    }

    #[test]
    fn dblp_study_rows_are_consistent() {
        let d = label_direct(dblp::generate(&DblpConfig::tiny()));
        let auth = AuthorityIndex::build(&d.graph);
        let sim = SimMatrix::opencalais();
        let tr = TrRecommender::new(
            &d.graph,
            &auth,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let katz = KatzScorer::new(&d.graph, 0.0005);
        let methods: Vec<&dyn TopRecommender> = vec![&tr, &katz];
        let cfg = StudyConfig {
            panel: 12,
            ..Default::default()
        };
        let rows = dblp_study(&d.graph, &d.hidden_profiles, &methods, 100, &cfg);
        assert_eq!(rows.len(), 2);
        let best_total: f64 = rows.iter().map(|r| r.best_answer).sum();
        assert!(best_total <= 1.0 + 1e-9, "best answers sum to {best_total}");
        for r in &rows {
            assert!(r.average_mark <= 5.0);
        }
    }

    #[test]
    fn study_is_deterministic() {
        let d = label_direct(twitter::generate(&TwitterConfig::tiny()));
        let auth = AuthorityIndex::build(&d.graph);
        let sim = SimMatrix::opencalais();
        let tr = TrRecommender::new(
            &d.graph,
            &auth,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let methods: Vec<&dyn TopRecommender> = vec![&tr];
        let cfg = StudyConfig {
            panel: 8,
            ..Default::default()
        };
        let a = twitter_study(
            &d.graph,
            &d.hidden_profiles,
            &methods,
            &[Topic::Technology],
            &cfg,
        );
        let b = twitter_study(
            &d.graph,
            &d.hidden_profiles,
            &methods,
            &[Topic::Technology],
            &cfg,
        );
        assert_eq!(a[0].mean_mark, b[0].mean_mark);
    }
}
