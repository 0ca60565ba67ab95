//! Experiment harness regenerating every table and figure of
//! *Finding Users of Interest in Micro-blogging Systems* (EDBT 2016).
//!
//! Each experiment of the paper's Section 5 has a runner in
//! [`experiments`]; the `experiments` binary dispatches on the
//! experiment id (`table2`, `fig3`, ..., `table6`, `sweep`, `all`) and
//! prints the same rows/series the paper reports. Absolute numbers
//! differ (the substrate is a laptop-scale synthetic graph, not the
//! authors' 2.2M-user crawl on a 10-core Xeon) but the comparison
//! *shape* — who wins, by what factor, where the crossovers sit — is
//! the reproduction target; EXPERIMENTS.md records paper-vs-measured
//! for every artifact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod context;
pub mod datasets;
pub mod experiments;
pub mod table;

pub use context::Context;
pub use datasets::{DatasetChoice, ExperimentScale};
