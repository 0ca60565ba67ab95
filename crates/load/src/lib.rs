//! **fui-load** — the open-loop load harness.
//!
//! The closed-loop cell (`serve_micro`) submits, pumps, redeems,
//! repeats: the generator waits for the system, so queueing
//! collapse is invisible — offered load can never exceed completion
//! rate. This crate generates **open-loop** traffic: every request
//! has a scheduled arrival instant derived from the seed *before the
//! run starts*, and is sent at that instant whether or not earlier
//! requests have answered. Under overload the queue actually builds,
//! admission control actually sheds, and the p99/p999 the report
//! prints are the numbers a user would see — this harness is what
//! makes every latency claim in the repo honest.
//!
//! * [`schedule`] — the deterministic workload: per-phase Poisson
//!   arrivals (uniform order statistics given an integer-exact
//!   per-phase count, so `submitted` is identical across platforms
//!   and thread widths), hot-key Zipf user skew, diurnal ramps and a
//!   flash-crowd overload phase, with follow/unfollow churn and
//!   rotate/refresh control operations embedded on fixed cadences;
//! * [`client`] — the driver: keep-alive connections with pipelined
//!   writes (arrivals are *not* gated on responses), one writer and
//!   one reader thread per connection, speaking HTTP to `fui-net`
//!   (a line connection runs one command at a time, so it cannot
//!   carry an open loop);
//! * [`report`] — exact percentiles (p50/p99/p999 from the full
//!   sorted sample set, not histogram buckets), shed-rate and
//!   per-phase goodput, including goodput-under-overload for the
//!   flash phase.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod report;
pub mod schedule;

pub use client::{drive, ClientConfig};
pub use report::{percentile_ns, Class, LoadReport, PhaseReport};
pub use schedule::{build_schedule, Arrival, Op, Phase, Schedule, WorkloadSpec};
