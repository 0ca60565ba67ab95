//! Directed labeled social-graph substrate for *Finding Users of
//! Interest in Micro-blogging Systems* (EDBT 2016).
//!
//! The paper models a micro-blogging service as a directed labeled graph
//! `G = (N, E, T, labelN, labelE)`: nodes are user accounts, an edge
//! `(u, v)` means *u follows v* (u receives v's posts), node labels are
//! the topics the account publishes on and edge labels the topics of
//! interest that motivated the follow (Section 3.1).
//!
//! This crate is the storage and traversal layer everything else builds
//! on. It is written from scratch (no external graph library):
//!
//! * [`SocialGraph`] — immutable CSR representation: one compressed
//!   adjacency for out-edges (followees) plus in-degree offsets. Each
//!   out-row is one packed record — gap-coded targets at the row's own
//!   bit width, each with an id into a shared table of interned
//!   [`TopicSet`] labels — decoded in place by [`OutRow`] (~12 bytes
//!   per node, ~3.1 per edge at 1M nodes × 8;
//!   [`SocialGraph::memory_footprint`] accounts for every arena). The
//!   follower lists are its transpose, derived on first use for the
//!   offline readers that walk them. Score propagation, BFS and the
//!   follower counts (`Γu(t)`) of the authority index run directly on
//!   the out-rows.
//! * [`StreamingBuilder`] — the one packer: per-node streaming straight
//!   into the packed rows with bounded scratch; the ingestion path for
//!   paper-scale graphs.
//! * [`GraphBuilder`] — incremental edge-list construction (a global
//!   sort in front of the packer), used by the dataset generators.
//! * [`SocialGraph::edited`] — the one edit: a sorted per-pair delta
//!   merged into the old rows, in front of the same packer.
//! * [`bfs`] — k-vicinity exploration `Υk(λ)` (Section 4).
//! * [`stats`] — the topological properties of Table 2.
//! * [`spectral`] — power-iteration estimate of `σ_max(A)` for the
//!   convergence bound of Proposition 3.
//! * [`centrality`] — closeness/betweenness (exact and pivot-sampled),
//!   used by the centrality-flavoured landmark selection strategies.
//! * [`components`] — weak connectivity via union-find,
//! * [`partition`] — the stateless node → shard owner hash that
//!   sharded serving routes by,
//! * [`io`] — TSV edge-list interchange for plugging in real datasets.
//! * [`pages`] — [`Pages`], the page-mapped container every per-node
//!   and per-edge array of the engine lives in, so memory the engine
//!   frees goes back to the OS; the crate's only `unsafe`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arena;
pub mod bfs;
pub mod builder;
pub mod centrality;
pub mod components;
pub mod csr;
pub mod io;
#[allow(unsafe_code)]
pub mod pages;
pub mod partition;
mod rows;
pub mod spectral;
pub mod stats;

pub use bfs::{k_vicinity, KVicinity};
pub use builder::{GraphBuilder, StreamingBuilder};
pub use csr::{EdgeRef, MemoryFootprint, NodeId, SocialGraph};
pub use pages::Pages;
pub use partition::{Partition, PartitionStrategy};
pub use rows::OutRow;
pub use stats::GraphStats;

// Re-export the label types so downstream crates can use a single
// import path for "graph things".
pub use fui_taxonomy::{Topic, TopicSet};
