//! **fui** — *Finding Users of Interest in Micro-blogging Systems*
//! (Constantin, Dahimene, Grossetti, du Mouza — EDBT 2016), reproduced
//! in Rust.
//!
//! This facade crate re-exports the whole workspace under one import
//! path. The pieces:
//!
//! * [`taxonomy`] — the 18-topic OpenCalais-style vocabulary,
//!   `TopicSet` labels and Wu–Palmer similarity;
//! * [`graph`] — the out-CSR directed labeled follow graph;
//! * [`textmine`] — the topic-extraction pipeline (synthetic tweets +
//!   multi-label classifier) that labels graphs;
//! * [`datagen`] — Twitter-like and DBLP-like dataset generators;
//! * [`core`] — the Tr recommendation score: authority × edge
//!   similarity × topology, computed by frontier propagation;
//! * [`baselines`] — Katz, TwitterRank and the Tr ablations;
//! * [`landmarks`] — landmark selection, preprocessing and the
//!   approximate (2–3 orders of magnitude faster) recommender;
//! * [`eval`] — the link-prediction protocol, ranking metrics and
//!   simulated user studies;
//! * [`obs`] — metrics counters, latency histograms, RAII spans and
//!   JSON run manifests (`FUI_OBS=off|counters|full`);
//! * [`exec`] — the deterministic scoped-thread work pool
//!   (`FUI_THREADS`, index-ordered reduction: parallel results are
//!   bit-identical to the serial path at any thread count);
//! * [`service`] — the online serving layer: epoch-based snapshot
//!   rotation, micro-batched queries with admission control, and a
//!   generation-stamped invalidating result cache.
//!
//! # Quickstart
//!
//! ```
//! use fui::prelude::*;
//!
//! // A labeled follow graph: alice follows bob on technology.
//! let mut b = GraphBuilder::new();
//! let alice = b.add_node(TopicSet::empty());
//! let bob = b.add_node(TopicSet::single(Topic::Technology));
//! let carol = b.add_node(TopicSet::single(Topic::Technology));
//! b.add_edge(alice, bob, TopicSet::single(Topic::Technology));
//! b.add_edge(bob, carol, TopicSet::single(Topic::Technology));
//! let graph = b.build();
//!
//! // Who should alice follow on technology? Every query runs inside
//! // a workspace the caller keeps; a loop of queries reuses one.
//! let authority = AuthorityIndex::build(&graph);
//! let sim = SimMatrix::opencalais();
//! let tr = TrRecommender::new(&graph, &authority, &sim,
//!                             ScoreParams::paper(), ScoreVariant::Full);
//! let mut ws = PropWorkspace::new();
//! let recs = tr.recommend(&mut ws, alice, Topic::Technology, 10,
//!                         RecommendOpts::default());
//! assert_eq!(recs[0].node, carol); // bob is already followed
//! ```

#![warn(missing_docs)]

pub use fui_baselines as baselines;
pub use fui_core as core;
pub use fui_datagen as datagen;
pub use fui_eval as eval;
pub use fui_exec as exec;
pub use fui_graph as graph;
pub use fui_landmarks as landmarks;
pub use fui_obs as obs;
pub use fui_service as service;
pub use fui_taxonomy as taxonomy;
pub use fui_textmine as textmine;

/// The most common imports in one place.
pub mod prelude {
    pub use fui_baselines::{KatzScorer, TwitterRank, TwitterRankConfig};
    pub use fui_core::{
        AuthorityIndex, PropWorkspace, PropagateOpts, Propagation, Propagator, RecommendOpts,
        Recommendation, ScoreParams, ScoreVariant, TrRecommender,
    };
    pub use fui_datagen::{
        build_labeled, label_direct, DblpConfig, GeneratedDataset, LabeledDataset, TwitterConfig,
    };
    pub use fui_eval::linkpred::{CandidateScorer, LinkPredConfig};
    pub use fui_eval::userstudy::TopRecommender;
    pub use fui_graph::{GraphBuilder, GraphStats, NodeId, SocialGraph};
    pub use fui_landmarks::{
        ApproxRecommender, ChangeKind, DynamicLandmarks, EdgeChange, LandmarkIndex, Strategy,
    };
    pub use fui_service::{Reply, Request, Served, Service, ServiceConfig};
    pub use fui_taxonomy::{SimMatrix, Taxonomy, Topic, TopicSet, TopicWeights};
    pub use fui_textmine::{ClassifierKind, PipelineConfig, TweetGenerator};
}
