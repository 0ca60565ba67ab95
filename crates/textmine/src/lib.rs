//! Topic extraction pipeline for *Finding Users of Interest in
//! Micro-blogging Systems* (EDBT 2016) — the reproduction's substitute
//! for OpenCalais + a Mulan-trained SVM multi-label model.
//!
//! Section 5.1 of the paper builds the labeled social graph in four
//! steps:
//!
//! 1. OpenCalais tags ~10% of the users with topics extracted from
//!    their tweets (18 standard categories);
//! 2. a trained multi-label model (precision ≈ 0.90) extends the
//!    tagging to every user, producing each user's **publisher
//!    profile**;
//! 3. each user also gets a **follower profile**: the topics with high
//!    frequency among the profiles of the publishers he follows;
//! 4. each edge is labeled with the intersection of the follower
//!    profile of its source and the publisher profile of its target.
//!
//! This crate reproduces the same pipeline shape over synthetic text:
//!
//! * [`vocab`] — a per-topic synthetic vocabulary with Zipf-distributed
//!   word frequencies plus a topic-neutral stop-word band;
//! * [`tweets`] — tweet generation from a user's hidden interest
//!   mixture;
//! * [`nbayes`] — a from-scratch one-vs-rest multi-label naive-Bayes
//!   classifier standing in for the paper's SVM (same role: supervised
//!   multi-label text categorisation with ~0.9 precision);
//! * [`svm`] — one-vs-rest linear SVM via Pegasos, the paper's actual
//!   model family (selectable through
//!   [`profiles::ClassifierKind`]);
//! * [`lda`] — collapsed-Gibbs Latent Dirichlet Allocation, the topic
//!   model the original TwitterRank paper uses for its `DT` matrix;
//! * [`profiles`] — the end-to-end pipeline: seed → train → predict →
//!   follower profiles → edge labels;
//! * [`metrics`] — micro-averaged multi-label precision/recall;
//! * [`zipf`] — a cumulative-table Zipf sampler shared with the dataset
//!   generators.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lda;
pub mod metrics;
pub mod nbayes;
pub mod profiles;
pub mod svm;
pub mod tweets;
pub mod vocab;
pub mod zipf;

pub use lda::{lda_user_profiles, LdaConfig, LdaModel};
pub use nbayes::MultiLabelNaiveBayes;
pub use profiles::{apply_labels, extract_topics, ClassifierKind, PipelineConfig, PipelineOutput};
pub use svm::{MultiLabelSvm, SvmConfig};
pub use tweets::{Tweet, TweetGenerator};
pub use vocab::Vocabulary;
pub use zipf::Zipf;
