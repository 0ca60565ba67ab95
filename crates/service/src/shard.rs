//! Per-lane serving state for the partitioned fleet.
//!
//! A [`crate::router::ShardedService`] owns N of these (a
//! [`crate::Service`] exactly one). A lane keeps only what differs per
//! user: the generation-stamped [`ResultCache`] holding its own users'
//! answers and its bounded micro-batching queue, so one lane shedding
//! or churning its cache never touches another lane's. Everything else
//! — the published snapshot, the journal, the master state — is
//! fleet-wide and lives on the router. The owner map (which lane owns
//! which user) is a stateless hash of the user id.
//!
//! Every lane reports through `service.shard.<id>.*` handles resolved
//! once at construction: `requests` / `shed` / `shed.queue_full` /
//! `shed.deadline` counters, and a per-lane [`SloTracker`] whose shed
//! arm runs on the lane's own counters (the latency arm shares the
//! fleet histogram — a batch answers as a unit, so per-lane wall time
//! is the batch's).

use std::sync::atomic::{AtomicU64, Ordering};

use fui_obs::{Counter, SloConfig, SloTracker};

use crate::batch::Batcher;
use crate::cache::ResultCache;
use crate::service::ServiceConfig;

/// One serving lane of the fleet.
pub(crate) struct Shard {
    pub(crate) id: u32,
    pub(crate) cache: ResultCache,
    pub(crate) batcher: Batcher,
    /// Nanoseconds spent computing this lane's cache misses, summed
    /// over the fleet's lifetime.
    pub(crate) busy_ns: AtomicU64,
    pub(crate) requests: Counter,
    pub(crate) shed: Counter,
    pub(crate) shed_queue_full: Counter,
    pub(crate) shed_deadline: Counter,
    slo: SloTracker,
}

impl Shard {
    /// Builds the lane. The result cache and the queue both get the
    /// full configured capacity: a key is cached only in its owner's
    /// cache, so a fleet of N holds up to N× the entries of one lane.
    /// Each lane is an independent admission domain.
    pub(crate) fn new(
        id: u32,
        cfg: &ServiceConfig,
        metrics: &crate::router::FleetMetrics,
    ) -> Shard {
        let requests = fui_obs::counter(&format!("service.shard.{id}.requests"));
        let shed = fui_obs::counter(&format!("service.shard.{id}.shed"));
        Shard {
            id,
            cache: ResultCache::new(cfg.cache_capacity, cfg.cache_shards),
            batcher: Batcher::new(
                cfg.queue_capacity,
                metrics.shed,
                fui_obs::counter("service.shed.queue_full"),
                fui_obs::counter("service.shed.disconnect"),
            ),
            busy_ns: AtomicU64::new(0),
            requests,
            shed,
            shed_queue_full: fui_obs::counter(&format!("service.shard.{id}.shed.queue_full")),
            shed_deadline: fui_obs::counter(&format!("service.shard.{id}.shed.deadline")),
            slo: SloTracker::new(
                SloConfig::from_env(),
                metrics.request_latency,
                requests,
                shed,
            ),
        }
    }

    /// A point-in-time status row for the `SHARDS` verb and tests.
    pub(crate) fn status(&self) -> ShardStatus {
        let slo = self.slo.observe();
        ShardStatus {
            id: self.id,
            queue_depth: self.batcher.depth(),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            cache_entries: self.cache.len(),
            requests: self.requests.get(),
            shed: self.shed.get(),
            shed_queue_full: self.shed_queue_full.get(),
            shed_deadline: self.shed_deadline.get(),
            latency_burn: slo.latency_burn,
            shed_burn: slo.shed_burn,
        }
    }
}

/// Introspection row for one lane — what the line-protocol `SHARDS`
/// verb renders.
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// Lane id (0-based).
    pub id: u32,
    /// Depth of the lane's submission queue right now.
    pub queue_depth: usize,
    /// Total nanoseconds spent computing this lane's cache misses.
    pub busy_ns: u64,
    /// Live entries in the lane's result cache.
    pub cache_entries: usize,
    /// Valid requests routed to this lane.
    pub requests: u64,
    /// Requests shed at this lane (all causes).
    pub shed: u64,
    /// Sheds caused by this lane's queue being full at submit.
    pub shed_queue_full: u64,
    /// Sheds caused by a missed deadline at drain.
    pub shed_deadline: u64,
    /// This lane's latency-arm burn rate (shares the fleet latency
    /// histogram — a batch answers as a unit).
    pub latency_burn: f64,
    /// This lane's shed-arm burn rate over its own counters.
    pub shed_burn: f64,
}

/// Fleet-level introspection: the owner map, the one published
/// snapshot's position, and one [`ShardStatus`] row per lane.
#[derive(Clone, Debug)]
pub struct FleetStatus {
    /// Partition strategy wire name (always `"hash"`).
    pub strategy: &'static str,
    /// Epoch of the fleet's published snapshot.
    pub epoch: u64,
    /// Graph generation of the fleet's published snapshot.
    pub graph_gen: u64,
    /// Cumulative critical path over all batches: per batch, wall time
    /// minus the compute chunks' summed busy time plus the slowest
    /// chunk's — the serving cost on a host with a core per chunk,
    /// exact when the chunks ran serially (`FUI_THREADS=1`). A batch
    /// computed in one chunk adds its wall time.
    pub crit_ns: u64,
    /// Per-lane rows, lane id ascending.
    pub shards: Vec<ShardStatus>,
}
