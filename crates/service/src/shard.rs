//! Per-shard serving state for the partitioned fleet.
//!
//! A [`crate::router::ShardedService`] owns N of these (a
//! [`crate::Service`] exactly one). Each shard is
//! one full serving lane over the candidates it owns: its own
//! [`SnapshotStore`] (publishing the shard's filtered landmark slice),
//! its own generation-stamped [`ResultCache`], and its own bounded
//! micro-batching queue — so one shard rotating, shedding or churning
//! its cache never touches another shard's read path. The partition
//! itself (which shard owns which node) is fixed for the fleet's
//! lifetime; only the *contents* behind each store move.
//!
//! Every shard reports through `service.shard.<id>.*` handles resolved
//! once at construction: `requests` / `shed` / `shed.queue_full` /
//! `shed.deadline` counters, an `epoch` gauge updated at each staggered
//! publish, and a per-shard [`SloTracker`] whose shed arm runs on the
//! shard's own counters (the latency arm shares the fleet histogram —
//! a scattered batch answers as a unit, so per-shard wall time is the
//! batch's).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// Fixed ownership mask: `owned[v]` iff this shard composes
    /// candidate `v`. Shared with every snapshot generation. `None` on
    /// a fleet of one, whose only shard composes every candidate.
    pub(crate) owned: Option<Arc<Vec<bool>>>,
    pub(crate) owned_nodes: usize,
    pub(crate) edge_mass: u64,
    /// Changes recorded since this shard's last rotation publish —
    /// the staggered-rotation schedule publishes the busiest shard
    /// first.
    pub(crate) pending: AtomicU64,
    /// Nanoseconds this shard's compute tasks have run for, summed
    /// over the fleet's lifetime. The scatter/gather critical path is
    /// `max` over shards of the per-batch delta — the quantity the
    /// `shard_micro` bench gates its speedup model on.
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
    /// and the queue both get the full configured capacity: cached
    /// partials are per-(query, shard) — a fleet holds `shards`× the
    /// entries of an unsharded service for the same hot query set, so
    /// splitting the budget across shards would silently shrink the
    /// cacheable working set as the fleet grows. Each shard is an
    /// independent admission domain.
    pub(crate) fn new(
        id: u32,
        initial: Snapshot,
        owned: Option<Arc<Vec<bool>>>,
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
            owned,
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
    /// Total nanoseconds spent inside this shard's parallel lanes
    /// (cache probes plus candidate composition; the shared
    /// exploration stage is fleet work and is not attributed to a
    /// shard).
    pub busy_ns: u64,
    /// Live entries in the shard's result cache.
    pub cache_entries: usize,
    /// Nodes this shard owns (candidate-space size).
    pub owned_nodes: usize,
    /// Edge mass charged to this shard at partition time (each edge
    /// counts on both endpoint owners).
    pub edge_mass: u64,
    /// Requests whose scatter set included this shard.
    pub requests: u64,
    /// Requests shed at this shard (all causes).
    pub shed: u64,
    /// Sheds caused by this shard's queue being full at submit.
    pub shed_queue_full: u64,
    /// Sheds caused by a missed deadline at drain.
    pub shed_deadline: u64,
    /// This shard's latency-arm burn rate (shares the fleet latency
    /// histogram — a scattered batch answers as a unit).
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
    /// current graph generation.
    pub cut_edges: u64,
    /// Cumulative scatter/gather critical path over all batches:
    /// per batch, wall time minus total parallel-lane busy time plus
    /// each region's slowest lane — the serving cost on a host with
    /// at least as many cores as shards, exact when the lanes ran
    /// serially (`FUI_THREADS=1`). On a fleet of one every region has
    /// one lane, so this equals served wall time.
    pub crit_ns: u64,
    /// Per-shard rows, shard id ascending.
    pub shards: Vec<ShardStatus>,
}
