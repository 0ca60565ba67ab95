//! Baseline recommenders the paper compares Tr against (Section 5):
//!
//! * [`katz`] — the Katz score `topo_β(u, v) = Σ_p β^|p|`
//!   (Liben-Nowell & Kleinberg \[16\]): pure topology, implemented
//!   standalone here (independently of the `fui-core` engine, which can
//!   also produce it via `ScoreVariant::TopoOnly` — the two
//!   implementations cross-validate each other in tests);
//! * [`twitterrank`] — TwitterRank (Weng et al., WSDM 2010 \[26\]):
//!   topic-sensitive PageRank over the follow graph with
//!   tweet-volume-weighted, topically-modulated transitions;
//! * [`ablation`] — the paper's own ablations `Tr−auth` (no authority
//!   factor) and `Tr−sim` (no semantic-similarity factor), Figure 4;
//! * [`pagerank`] — plain PageRank, the popularity-only reference the
//!   paper's analysis reduces TwitterRank to (an extra, not a paper
//!   comparator).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod katz;
pub mod pagerank;
pub mod twitterrank;

pub use katz::KatzScorer;
pub use pagerank::{PageRank, PageRankConfig};
pub use twitterrank::{TwitterRank, TwitterRankConfig};
