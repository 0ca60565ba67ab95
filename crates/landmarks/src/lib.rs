//! Landmark-based approximate recommendation (Section 4 of the paper).
//!
//! Exact recommendation explores every path out of the query node —
//! prohibitive on a graph with millions of nodes. The paper's answer is
//! a divide-and-conquer borrowed from shortest-path oracles: choose a
//! set `L` of **landmarks**, precompute each landmark's top-n
//! recommendations for every topic (Algorithm 1), and at query time
//! explore only a depth-2 vicinity of the query node, composing the
//! partial scores with the landmarks' stored lists (Algorithm 2,
//! Proposition 4):
//!
//! ```text
//! σ̃_λ(u, v, t) = σ(u,λ,t) · topo_β(λ,v) + topo_βα(u,λ) · σ(λ,v,t)
//! ```
//!
//! summed over the landmarks Λ met during the exploration. The result
//! is a *lower bound* of the exact score (only paths through Λ are
//! counted) that the paper shows reaches a 2–3 order-of-magnitude
//! speed-up at small Kendall-tau distance from the exact ranking.
//!
//! * [`strategy`] — the 11 landmark selection strategies of Table 4;
//! * [`dynamic`] — impact-accumulation refresh policy for evolving
//!   graphs (the paper's future-work updating strategies);
//! * [`index`] — per-landmark inverted lists + (parallel) preprocessing;
//! * [`query`] — the approximate recommender with landmark pruning;
//! * [`persist`] — binary snapshot of an index (the paper stores 1.4 MB
//!   per landmark at top-1000 over all topics).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dynamic;
pub mod index;
pub mod persist;
pub mod query;
pub mod strategy;

pub use dynamic::{ChangeKind, DynamicLandmarks, EdgeChange};
pub use index::{LandmarkEntry, LandmarkIndex, ScoredNode};
pub use query::{ApproxRecommender, ApproxResult, Exploration};
pub use strategy::Strategy;
