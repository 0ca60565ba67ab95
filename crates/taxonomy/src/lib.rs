//! Topic vocabulary, taxonomy tree and semantic similarity for
//! *Finding Users of Interest in Micro-blogging Systems* (EDBT 2016).
//!
//! The paper labels nodes and edges of the social graph with topics drawn
//! from the 18 standard OpenCalais categories for web documents, and
//! measures the semantic similarity between two topics with the
//! Wu–Palmer measure computed over a concept taxonomy (WordNet in the
//! paper; an explicit 18-topic taxonomy here — see [`Taxonomy::opencalais`]).
//!
//! The crate provides:
//!
//! * [`Topic`] — the fixed 18-topic vocabulary `T`,
//! * [`TopicSet`] — a compact bitset of topics used as node/edge labels,
//! * [`Taxonomy`] — a rooted concept tree with lowest-common-subsumer
//!   queries,
//! * [`wu_palmer`](Taxonomy::wu_palmer) — the similarity
//!   `sim(a, b) = 2·depth(lcs) / (depth(a) + depth(b))`,
//! * [`SimMatrix`] — the precomputed triangular similarity matrix the
//!   paper keeps in memory (2.5 KB for 18 topics).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod matrix;
pub mod topics;
pub mod tree;

pub use matrix::SimMatrix;
pub use topics::{Topic, TopicSet, TopicWeights, NUM_TOPICS};
pub use tree::{Taxonomy, TaxonomyBuilder, TaxonomyError};
