//! Synthetic dataset generation for *Finding Users of Interest in
//! Micro-blogging Systems* (EDBT 2016).
//!
//! The paper evaluates on a 2015 Twitter crawl (2.2M users, 125M follow
//! edges) and an ArnetMiner DBLP author-citation graph (525k authors,
//! 20.5M citations). Neither dataset is redistributable, so this crate
//! generates laptop-scale graphs with the *same topological and
//! semantic regime* (see DESIGN.md §2 for the substitution argument):
//!
//! * [`twitter`] — directed preferential-attachment follow graph with a
//!   power-law in-degree tail, moderate out-degree, topical homophily
//!   and Zipf-skewed topic popularity (Table 2 / Figure 3 shape);
//! * [`dblp`] — community-structured citation graph: denser, more
//!   uniform top in-degree, and explicit self-citation clusters (the
//!   phenomena the paper invokes to explain Figures 6–8);
//! * [`stream`] — the paper-scale path: a streaming preferential-
//!   attachment generator that emits 1M+-node graphs straight into the
//!   CSR arenas with `O(N)` scratch (no intermediate edge list), seeded
//!   and byte-identical to the batch construction path;
//! * [`label`] — end-to-end labeled datasets, either by running the
//!   full topic-extraction pipeline of `fui-textmine` or by direct
//!   ground-truth labeling for fast tests;
//! * [`config`] — tunable generator parameters with defaults calibrated
//!   against Table 2 (scaled down);
//! * [`util`] — small numeric helpers (Box–Muller normal sampling).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod dblp;
pub mod label;
pub mod stream;
pub mod twitter;
pub mod util;

pub use config::{DblpConfig, StreamConfig, TwitterConfig};
pub use label::{build_labeled, label_direct, LabeledDataset};
pub use stream::{generate_batch, generate_streaming, StreamedGraph};
pub use twitter::GeneratedDataset;
