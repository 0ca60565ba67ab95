//! Evaluation protocol of *Finding Users of Interest in Micro-blogging
//! Systems* (Section 5.3–5.4).
//!
//! * [`linkpred`] — the held-out-edge protocol behind Figures 4–9:
//!   select a test set `T` of edges whose endpoints keep `kin`/`kout`
//!   degrees, remove them from the graph, and for each edge `u → v`
//!   rank `v` against 1000 random accounts; report recall@N
//!   (`#hits/T`) and precision@N (`#hits/(N·T)`), after \[6\]
//!   (Cremonesi et al.);
//! * [`scorers`] — the [`linkpred::CandidateScorer`]
//!   adapters binding Tr, the ablations, Katz, TwitterRank and the
//!   landmark-approximate recommender to the protocol;
//! * [`ranking`] — Kendall-tau distance between top-k rankings
//!   (Table 6's quality columns);
//! * [`buckets`] — popularity-stratified edge selection (Figure 8);
//! * [`topicpop`] — topic-stratified edge selection (Figure 9);
//! * [`userstudy`] — the simulated rater panels standing in for the
//!   paper's 54-user Twitter study (Figure 10) and 47-researcher DBLP
//!   study (Table 3); see DESIGN.md §2 for the substitution argument;
//! * [`significance`] — paired-bootstrap comparison of two methods'
//!   recall (does an observed gap survive resampling?);
//! * [`stats`] — mean/std/CI helpers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buckets;
pub mod linkpred;
pub mod ranking;
pub mod scorers;
pub mod significance;
pub mod stats;
pub mod topicpop;
pub mod userstudy;

pub use linkpred::{CandidateScorer, LinkPredConfig, RecallCurve, TestEdge};
pub use ranking::kendall_tau_distance;
