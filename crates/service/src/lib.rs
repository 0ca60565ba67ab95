//! Online serving layer for the landmark recommender.
//!
//! Everything below this crate computes offline; this crate turns the
//! batch pipeline into a request-driven server — the regime the paper
//! actually motivates (interactive "who should I follow on topic t"
//! queries against a follow graph whose edges churn constantly):
//!
//! * [`snapshot`] — epoch-based publication: queries read immutable
//!   `Arc`-shared (graph, authority, similarity-rows, landmark-index)
//!   snapshots; rotation and refresh swap the current pointer and
//!   never block an in-flight query;
//! * [`cache`] — lock-striped LRU result cache, invalidated precisely: by
//!   graph generation on rotation, and per landmark slot on refresh or
//!   staleness, so results that never met a refreshed landmark survive;
//! * [`batch`] — micro-batching submission queue with admission
//!   control: a full queue sheds with an explicit
//!   [`Reply::Overloaded`], never a stall;
//! * [`service`] — request/reply types, configuration, and the one
//!   serving engine, [`Service`]: one published snapshot, one result
//!   cache and one admission queue; deterministic `call` /
//!   `call_many` plus the `submit`/`pump` pair, follow / unfollow
//!   recording, `rotate` and `refresh`, one WAL journal and warm
//!   restart;
//! * [`wire`] — the wire protocol's verb layer: one typed
//!   [`wire::Command`], the parser that owns every wire error string,
//!   `execute`, and the reply renderers (including the `STATS` / `SLO`
//!   / `TRACE` introspection verbs). This crate opens no socket and
//!   starts no thread: `fui-net` frames these verbs as lines or as
//!   HTTP and drives [`Service::pump`];
//! * [`legacy`] — the old names the frozen benchmark harness still
//!   spells, each a thin wrapper over [`Service`].
//!
//! The whole path reports through `fui-obs`: `service.requests`,
//! `service.shed` (with its `service.shed.{queue_full,deadline,
//! disconnect}` cause breakdown), `service.cache.{hits,misses,
//! evictions}`, `service.snapshot.rotations`, the `service.batch.size`
//! and `service.request_latency` histograms and `service.{request,
//! rotate,refresh}` spans. Handles are resolved once at construction —
//! the request path never takes the registry's name-lookup lock.
//!
//! Per-request attribution goes further: when tracing is active
//! (`FUI_OBS=full` and `FUI_TRACE_SAMPLE` > 0) every request draws a
//! [`fui_obs::TraceId`] at admission and carries a
//! queue-wait/assembly/compute/cache/scatter latency decomposition
//! plus an event timeline (enqueue, batch join, snapshot pin, cache
//! probe, propagate start, finish/shed-with-cause) into `fui-obs`'s
//! lock-free ring journal; [`Service::trace_slowest`] and the
//! `TRACE <n>` verb read it back, and [`Service::slo`] / the
//! `SLO` verb report rolling p99-target and shed-ceiling burn rates.
//! Tracing is bit-invisible to results at any sample rate — the
//! conformance suite and the CI bench gate both enforce it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod durable;
pub mod legacy;
pub mod service;
pub mod snapshot;
pub mod wire;

pub use batch::Ticket;
pub use cache::{CacheKey, CacheStamp, ResultCache};
pub use durable::{JournalOp, JournalRecord, SnapshotState};
pub use legacy::{FleetStatus, ShardSpec, ShardedService};
pub use service::{Reply, Request, RestoreError, Served, Service, ServiceConfig};
pub use snapshot::{apply_changes, Snapshot, SnapshotStore};
pub use wire::render_reply;
