//! The end-to-end topic-extraction pipeline of Section 5.1.
//!
//! Input: the follow-graph topology plus each user's *hidden* interest
//! mixture (the generator's ground truth, standing in for the real
//! content of the account). Output: the observable labels the scorers
//! run on —
//!
//! 1. every user tweets according to his hidden mixture;
//! 2. a seed fraction (10% in the paper) is tagged with ground-truth
//!    topics, playing the role of OpenCalais categorisation;
//! 3. a multi-label classifier trained on the seeds predicts every
//!    user's **publisher profile** (paper: SVM at 0.90 precision; here
//!    naive Bayes, whose measured precision is reported in the output);
//! 4. each user's **follower profile** keeps the topics with high
//!    frequency among the predicted profiles of his followees;
//! 5. each edge `u → v` is labeled with
//!    `follower_profile(u) ∩ publisher_profile(v)` (falling back to
//!    `v`'s dominant topic when the intersection is empty, so no follow
//!    relationship ends up unexplained).

use fui_graph::{NodeId, SocialGraph};
use fui_taxonomy::{TopicSet, TopicWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{multi_label_scores, MultiLabelScores};
use crate::nbayes::MultiLabelNaiveBayes;
use crate::svm::{MultiLabelSvm, SvmConfig};
use crate::tweets::TweetGenerator;
use crate::vocab::WordId;

/// Which supervised model labels the graph (the paper used an SVM;
/// naive Bayes is the faster default with comparable precision here).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ClassifierKind {
    /// One-vs-rest multinomial naive Bayes.
    #[default]
    NaiveBayes,
    /// One-vs-rest linear SVM (Pegasos) — the paper's model family.
    LinearSvm(SvmConfig),
}

/// Internal dispatch over the two classifier families.
enum Trained {
    NaiveBayes(MultiLabelNaiveBayes),
    LinearSvm(MultiLabelSvm),
}

impl Trained {
    fn predict(&self, words: &[WordId]) -> TopicSet {
        match self {
            Trained::NaiveBayes(m) => m.predict(words),
            Trained::LinearSvm(m) => m.predict(words),
        }
    }

    fn predict_weights(&self, words: &[WordId]) -> fui_taxonomy::TopicWeights {
        match self {
            Trained::NaiveBayes(m) => m.predict_weights(words),
            Trained::LinearSvm(m) => m.predict_weights(words),
        }
    }
}

/// Configuration of the extraction pipeline.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Fraction of users tagged with ground truth before training
    /// (the paper's OpenCalais step covered 10%).
    pub seed_fraction: f64,
    /// Tweets generated per user.
    pub tweets_per_user: usize,
    /// Weight threshold above which a hidden-mixture topic counts as a
    /// ground-truth label.
    pub truth_threshold: f64,
    /// A followee-profile topic enters the follower profile when its
    /// frequency among followees reaches this fraction.
    pub follower_min_freq: f64,
    /// The supervised model labeling non-seed users.
    pub classifier: ClassifierKind,
    /// RNG seed (the pipeline is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            seed_fraction: 0.10,
            tweets_per_user: 30,
            truth_threshold: 0.15,
            follower_min_freq: 0.25,
            classifier: ClassifierKind::NaiveBayes,
            seed: 0xF01_CA1A15,
        }
    }
}

/// Result of the pipeline: everything needed to label a graph.
#[derive(Clone, Debug)]
pub struct PipelineOutput {
    /// Predicted publisher profile (topic set) per node.
    pub publisher_profiles: Vec<TopicSet>,
    /// Soft publisher profile per node (classifier log-odds,
    /// normalised) — TwitterRank's `DT` matrix rows.
    pub publisher_weights: Vec<TopicWeights>,
    /// Follower profile per node.
    pub follower_profiles: Vec<TopicSet>,
    /// Classifier quality measured on the non-seed users against the
    /// generator ground truth.
    pub classifier: MultiLabelScores,
}

/// Runs the extraction pipeline over a graph topology and its hidden
/// interest mixtures.
///
/// # Panics
/// Panics if `true_profiles.len() != graph.num_nodes()` or the graph is
/// empty.
pub fn extract_topics(
    graph: &SocialGraph,
    true_profiles: &[TopicWeights],
    gen: &TweetGenerator,
    cfg: &PipelineConfig,
) -> PipelineOutput {
    assert_eq!(
        true_profiles.len(),
        graph.num_nodes(),
        "one hidden profile per node"
    );
    assert!(graph.num_nodes() > 0, "empty graph");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = graph.num_nodes();

    // 1. Tweets -> one bag-of-words document per user.
    let docs: Vec<Vec<WordId>> = true_profiles
        .iter()
        .map(|prof| {
            gen.tweets(prof, cfg.tweets_per_user, &mut rng)
                .into_iter()
                .flat_map(|t| t.words)
                .collect()
        })
        .collect();

    // 2. OpenCalais-style seeding: ground-truth label sets for a
    // random seed fraction.
    let truth: Vec<TopicSet> = true_profiles
        .iter()
        .map(|p| {
            let s = p.support(cfg.truth_threshold);
            if s.is_empty() {
                // Every account is *about* something; fall back to the
                // dominant interest.
                p.argmax().map(TopicSet::single).unwrap_or_default()
            } else {
                s
            }
        })
        .collect();
    let mut seeded = vec![false; n];
    let mut train: Vec<(Vec<WordId>, TopicSet)> = Vec::new();
    for v in 0..n {
        if rng.gen::<f64>() < cfg.seed_fraction {
            seeded[v] = true;
            train.push((docs[v].clone(), truth[v]));
        }
    }
    if train.is_empty() {
        // Degenerate tiny-graph case: seed the first user.
        seeded[0] = true;
        train.push((docs[0].clone(), truth[0]));
    }

    // 3. Train and predict publisher profiles for everyone
    // (seeded users keep their ground-truth tags, as in the paper).
    let clf = match cfg.classifier {
        ClassifierKind::NaiveBayes => {
            Trained::NaiveBayes(MultiLabelNaiveBayes::train(gen.vocab().len(), &train))
        }
        ClassifierKind::LinearSvm(svm_cfg) => {
            Trained::LinearSvm(MultiLabelSvm::train(gen.vocab().len(), &train, &svm_cfg))
        }
    };
    let mut publisher_profiles = Vec::with_capacity(n);
    let mut publisher_weights = Vec::with_capacity(n);
    let mut eval_pairs = Vec::new();
    for v in 0..n {
        let pred = clf.predict(&docs[v]);
        let mut weights = clf.predict_weights(&docs[v]);
        if weights.total() == 0.0 {
            for t in pred.iter() {
                weights.set(t, 1.0);
            }
            weights.normalize();
        }
        if seeded[v] {
            publisher_profiles.push(truth[v]);
        } else {
            eval_pairs.push((pred, truth[v]));
            publisher_profiles.push(pred);
        }
        publisher_weights.push(weights);
    }
    let classifier = if eval_pairs.is_empty() {
        multi_label_scores(&[(TopicSet::empty(), TopicSet::empty())])
    } else {
        multi_label_scores(&eval_pairs)
    };

    // 4. Follower profiles: high-frequency topics among followees'
    // publisher profiles.
    let follower_profiles: Vec<TopicSet> = (0..n)
        .map(|u| {
            let u = NodeId(u as u32);
            let followees = graph.followees(u);
            let degree = followees.len();
            if degree == 0 {
                return TopicSet::empty();
            }
            let mut freq = TopicWeights::zero();
            for v in followees {
                for t in publisher_profiles[v.index()].iter() {
                    freq.add(t, 1.0);
                }
            }
            let min = cfg.follower_min_freq * degree as f64;
            let mut prof = freq.support(min.max(1.0));
            if prof.is_empty() {
                if let Some(best) = freq.argmax() {
                    prof.insert(best);
                }
            }
            prof
        })
        .collect();

    PipelineOutput {
        publisher_profiles,
        publisher_weights,
        follower_profiles,
        classifier,
    }
}

/// Writes the pipeline's labels into the graph: node labels become the
/// publisher profiles and each edge `u → v` gets
/// `follower_profile(u) ∩ publisher_profile(v)`, falling back to `v`'s
/// dominant publisher topic on an empty intersection.
pub fn apply_labels(graph: &mut SocialGraph, out: &PipelineOutput) {
    graph.relabel(
        |u, v, _| {
            let inter =
                out.follower_profiles[u.index()].intersection(out.publisher_profiles[v.index()]);
            if inter.is_empty() {
                out.publisher_weights[v.index()]
                    .argmax()
                    .map(TopicSet::single)
                    .or_else(|| {
                        out.publisher_profiles[v.index()]
                            .first()
                            .map(TopicSet::single)
                    })
                    .unwrap_or_default()
            } else {
                inter
            }
        },
        |v, _| out.publisher_profiles[v.index()],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tweets::TweetGenerator;
    use crate::vocab::Vocabulary;
    use fui_graph::GraphBuilder;
    use fui_taxonomy::Topic;

    /// A small two-community graph: tech users 0..5 follow each other,
    /// sports users 5..10 follow each other, with one cross edge.
    fn two_communities() -> (SocialGraph, Vec<TopicWeights>) {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..10).map(|_| b.add_node(TopicSet::empty())).collect();
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    b.add_edge(nodes[i], nodes[j], TopicSet::empty());
                }
            }
        }
        for i in 5..10 {
            for j in 5..10 {
                if i != j {
                    b.add_edge(nodes[i], nodes[j], TopicSet::empty());
                }
            }
        }
        b.add_edge(nodes[0], nodes[5], TopicSet::empty());
        let graph = b.build();
        let profiles: Vec<TopicWeights> = (0..10)
            .map(|i| {
                let mut w = TopicWeights::zero();
                if i < 5 {
                    w.set(Topic::Technology, 1.0);
                } else {
                    w.set(Topic::Sports, 1.0);
                }
                w
            })
            .collect();
        (graph, profiles)
    }

    fn test_cfg() -> PipelineConfig {
        PipelineConfig {
            seed_fraction: 0.5,
            tweets_per_user: 25,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn pipeline_recovers_community_topics() {
        let (graph, profiles) = two_communities();
        let gen = TweetGenerator::new(Vocabulary::new(80, 80), 1.0, 0.3, 8, 12);
        let out = extract_topics(&graph, &profiles, &gen, &test_cfg());
        // Most tech users should be labeled technology.
        let tech_hits = (0..5)
            .filter(|&i| out.publisher_profiles[i].contains(Topic::Technology))
            .count();
        let sports_hits = (5..10)
            .filter(|&i| out.publisher_profiles[i].contains(Topic::Sports))
            .count();
        assert!(tech_hits >= 4, "tech {tech_hits}/5");
        assert!(sports_hits >= 4, "sports {sports_hits}/5");
    }

    #[test]
    fn follower_profiles_reflect_followees() {
        let (graph, profiles) = two_communities();
        let gen = TweetGenerator::new(Vocabulary::new(80, 80), 1.0, 0.3, 8, 12);
        let out = extract_topics(&graph, &profiles, &gen, &test_cfg());
        // User 1 follows only tech users.
        assert!(out.follower_profiles[1].contains(Topic::Technology));
        assert!(!out.follower_profiles[1].contains(Topic::Sports));
    }

    #[test]
    fn apply_labels_leaves_no_empty_edge() {
        let (mut graph, profiles) = two_communities();
        let gen = TweetGenerator::new(Vocabulary::new(80, 80), 1.0, 0.3, 8, 12);
        let out = extract_topics(&graph, &profiles, &gen, &test_cfg());
        apply_labels(&mut graph, &out);
        for (u, v, l) in graph.edges() {
            assert!(!l.is_empty(), "edge {u}->{v} unlabeled");
        }
        graph.check_consistency().unwrap();
        for u in graph.nodes() {
            assert_eq!(graph.node_labels(u), out.publisher_profiles[u.index()]);
        }
    }

    #[test]
    fn classifier_precision_is_high_on_clean_communities() {
        let (graph, profiles) = two_communities();
        let gen = TweetGenerator::new(Vocabulary::new(80, 80), 1.0, 0.3, 8, 12);
        let out = extract_topics(&graph, &profiles, &gen, &test_cfg());
        assert!(
            out.classifier.precision >= 0.7,
            "precision = {}",
            out.classifier.precision
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (graph, profiles) = two_communities();
        let gen = TweetGenerator::new(Vocabulary::new(80, 80), 1.0, 0.3, 8, 12);
        let a = extract_topics(&graph, &profiles, &gen, &test_cfg());
        let b = extract_topics(&graph, &profiles, &gen, &test_cfg());
        assert_eq!(a.publisher_profiles, b.publisher_profiles);
        assert_eq!(a.follower_profiles, b.follower_profiles);
    }

    #[test]
    fn svm_pipeline_reaches_comparable_precision() {
        let (graph, profiles) = two_communities();
        let gen = TweetGenerator::new(Vocabulary::new(80, 80), 1.0, 0.3, 8, 12);
        let nb = extract_topics(&graph, &profiles, &gen, &test_cfg());
        let svm_cfg = PipelineConfig {
            classifier: ClassifierKind::LinearSvm(crate::svm::SvmConfig::default()),
            ..test_cfg()
        };
        let svm = extract_topics(&graph, &profiles, &gen, &svm_cfg);
        assert!(
            svm.classifier.precision >= nb.classifier.precision - 0.25,
            "svm {} vs nb {}",
            svm.classifier.precision,
            nb.classifier.precision
        );
        // Same pipeline shape: every user labeled under both models.
        for v in 0..graph.num_nodes() {
            assert!(!svm.publisher_profiles[v].is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "one hidden profile per node")]
    fn profile_count_mismatch_rejected() {
        let (graph, _) = two_communities();
        let gen = TweetGenerator::new(Vocabulary::new(20, 20), 1.0, 0.3, 5, 8);
        extract_topics(&graph, &[], &gen, &PipelineConfig::default());
    }
}
