//! Per-shard serving state for the partitioned fleet.
//!
//! A [`crate::router::ShardedService`] owns N of these (a
//! [`crate::Service`] exactly one). Each shard is one full serving
//! lane for the users it owns: its own [`SnapshotStore`] (publishing
//! the full landmark index every lane shares), its own
//! generation-stamped [`ResultCache`], and its own bounded
//! micro-batching queue — so one shard rotating, shedding or churning
//! its cache never touches another shard's read path. The partition
//! itself (which shard owns which user) is fixed for the fleet's
//! lifetime; only the *contents* behind each store move.
//!
//! Every shard reports through `service.shard.<id>.*` handles resolved
//! once at construction: `requests` / `shed` / `shed.queue_full` /
//! `shed.deadline` counters, an `epoch` gauge updated at each staggered
//! publish, and a per-shard [`SloTracker`] whose shed arm runs on the
//! shard's own counters (the latency arm shares the fleet histogram —
//! a batch answers as a unit, so per-shard wall time is the batch's).

use std::sync::atomic::{AtomicU64, Ordering};

use fui_obs::{Counter, Gauge, SloConfig, SloTracker};

use crate::batch::Batcher;
use crate::cache::ResultCache;
use crate::service::ServiceConfig;
use crate::snapshot::{Snapshot, SnapshotStore};

/// One serving lane of the fleet.
pub(crate) struct Shard {
    pub(crate) id: u32,
    pub(crate) store: SnapshotStore,
    pub(crate) cache: ResultCache,
    pub(crate) batcher: Batcher,
    pub(crate) owned_nodes: usize,
    pub(crate) edge_mass: u64,
    /// Changes recorded since this shard's last rotation publish —
    /// the staggered-rotation schedule publishes the busiest shard
    /// first.
    pub(crate) pending: AtomicU64,
    /// Nanoseconds spent computing this shard's cache misses, summed
    /// over the fleet's lifetime.
    pub(crate) busy_ns: AtomicU64,
    pub(crate) requests: Counter,
    pub(crate) shed: Counter,
    pub(crate) shed_queue_full: Counter,
    pub(crate) shed_deadline: Counter,
    pub(crate) epoch_gauge: Gauge,
    slo: SloTracker,
}

impl Shard {
    /// Builds the lane around an initial snapshot. The result cache
    /// and the queue both get the full configured capacity: a key is
    /// cached only in its owner's cache, so a fleet of N holds up to N×
    /// the entries of one shard. Each shard is an independent
    /// admission domain.
    pub(crate) fn new(
        id: u32,
        initial: Snapshot,
        owned_nodes: usize,
        edge_mass: u64,
        cfg: &ServiceConfig,
        metrics: &crate::router::FleetMetrics,
    ) -> Shard {
        let requests = fui_obs::counter(&format!("service.shard.{id}.requests"));
        let shed = fui_obs::counter(&format!("service.shard.{id}.shed"));
        let epoch_gauge = fui_obs::gauge(&format!("service.shard.{id}.epoch"));
        epoch_gauge.set(initial.epoch as f64);
        Shard {
            id,
            store: SnapshotStore::new(initial),
            cache: ResultCache::new(cfg.cache_capacity, cfg.cache_shards),
            batcher: Batcher::new(
                cfg.queue_capacity,
                metrics.shed,
                fui_obs::counter("service.shed.queue_full"),
                fui_obs::counter("service.shed.disconnect"),
            ),
            owned_nodes,
            edge_mass,
            pending: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            requests,
            shed,
            shed_queue_full: fui_obs::counter(&format!("service.shard.{id}.shed.queue_full")),
            shed_deadline: fui_obs::counter(&format!("service.shard.{id}.shed.deadline")),
            epoch_gauge,
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
        let snap = self.store.load();
        let slo = self.slo.observe();
        ShardStatus {
            id: self.id,
            epoch: snap.epoch,
            graph_gen: snap.graph_gen,
            queue_depth: self.batcher.depth(),
            pending_changes: self.pending.load(Ordering::SeqCst),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            cache_entries: self.cache.len(),
            owned_nodes: self.owned_nodes,
            edge_mass: self.edge_mass,
            requests: self.requests.get(),
            shed: self.shed.get(),
            shed_queue_full: self.shed_queue_full.get(),
            shed_deadline: self.shed_deadline.get(),
            latency_burn: slo.latency_burn,
            shed_burn: slo.shed_burn,
        }
    }
}

/// Introspection row for one shard — what the line-protocol `SHARDS`
/// verb renders.
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// Shard id (0-based).
    pub id: u32,
    /// Epoch of the shard's currently published snapshot.
    pub epoch: u64,
    /// Graph generation of the shard's currently published snapshot.
    pub graph_gen: u64,
    /// Depth of the shard's submission queue right now.
    pub queue_depth: usize,
    /// Edge changes recorded against this shard since its last
    /// rotation publish (the staggered-rotation priority).
    pub pending_changes: u64,
    /// Total nanoseconds spent computing this shard's cache misses.
    pub busy_ns: u64,
    /// Live entries in the shard's result cache.
    pub cache_entries: usize,
    /// Users this shard owns.
    pub owned_nodes: usize,
    /// Edge mass charged to this shard at partition time (each edge
    /// counts on both endpoint owners).
    pub edge_mass: u64,
    /// Valid requests routed to this shard.
    pub requests: u64,
    /// Requests shed at this shard (all causes).
    pub shed: u64,
    /// Sheds caused by this shard's queue being full at submit.
    pub shed_queue_full: u64,
    /// Sheds caused by a missed deadline at drain.
    pub shed_deadline: u64,
    /// This shard's latency-arm burn rate (shares the fleet latency
    /// histogram — a batch answers as a unit).
    pub latency_burn: f64,
    /// This shard's shed-arm burn rate over its own counters.
    pub shed_burn: f64,
}

/// Fleet-level introspection: the partitioner identity plus one
/// [`ShardStatus`] row per shard.
#[derive(Clone, Debug)]
pub struct FleetStatus {
    /// Partition strategy wire name (`"hash"` / `"degree-aware"`; a
    /// plain [`crate::Service`] reports its default, `"hash"`).
    pub strategy: &'static str,
    /// Edges whose endpoints live on different shards, for the
    /// current graph generation: the changes the per-shard journals
    /// hold twice.
    pub cut_edges: u64,
    /// Cumulative critical path over all batches: per batch, wall time
    /// minus the compute chunks' summed busy time plus the slowest
    /// chunk's — the serving cost on a host with a core per chunk,
    /// exact when the chunks ran serially (`FUI_THREADS=1`). A batch
    /// computed in one chunk adds its wall time.
    pub crit_ns: u64,
    /// Per-shard rows, shard id ascending.
    pub shards: Vec<ShardStatus>,
}
