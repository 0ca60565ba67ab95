//! Names the frozen benchmark harness (`benchmark/`) still spells.
//!
//! The engine is one [`Service`]; nothing here changes what it does.
//! Every item below exists only because `benchmark/` names it, and
//! ROADMAP 6(d) deletes this module once the harness stops naming it.
//! The harness also writes the always-0 `Snapshot::shard` and
//! `CacheStamp::shard` fields and times `fui_graph::Partition::build`,
//! which no engine code calls.

use std::ops::Deref;
use std::sync::atomic::Ordering;

use fui_core::{ScoreParams, ScoreVariant};
use fui_graph::{NodeId, PartitionStrategy, SocialGraph};
use fui_taxonomy::SimMatrix;

use crate::service::{Service, ServiceConfig};

/// Counter name: explorations run, one per cache miss. Named by
/// `benchmark/`; ROADMAP 6(d) deletes it.
pub(crate) const EXPLORATIONS_COUNTER: &str = "service.shard.explorations";

/// Counter name: valid requests answered, one each. Named by
/// `benchmark/`; ROADMAP 6(d) deletes it.
pub(crate) const FANOUT_COUNTER: &str = "service.shard.fanout";

/// A shard count and owner-map strategy the engine ignores. Named by
/// `benchmark/`; ROADMAP 6(d) deletes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Ignored.
    pub shards: usize,
    /// Ignored.
    pub strategy: PartitionStrategy,
}

impl ShardSpec {
    /// A spec with `shards` shards under `strategy`. Named by
    /// `benchmark/`; ROADMAP 6(d) deletes it.
    pub fn new(shards: usize, strategy: PartitionStrategy) -> ShardSpec {
        ShardSpec { shards, strategy }
    }
}

/// [`Service`] under its old name, reached through `Deref`. Named by
/// `benchmark/`; ROADMAP 6(d) deletes it.
pub struct ShardedService(Service);

impl ShardedService {
    /// [`Service::new`]; `spec` is ignored. Named by `benchmark/`;
    /// ROADMAP 6(d) deletes it.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: SocialGraph,
        sim: SimMatrix,
        params: ScoreParams,
        variant: ScoreVariant,
        landmarks: Vec<NodeId>,
        stored_top_n: usize,
        cfg: ServiceConfig,
        _spec: ShardSpec,
    ) -> ShardedService {
        ShardedService(Service::new(
            graph,
            sim,
            params,
            variant,
            landmarks,
            stored_top_n,
            cfg,
        ))
    }
}

impl Deref for ShardedService {
    type Target = Service;
    fn deref(&self) -> &Service {
        &self.0
    }
}

/// The published snapshot's position and the cumulative critical path.
/// Named by `benchmark/`; ROADMAP 6(d) deletes it.
#[derive(Clone, Copy, Debug)]
pub struct FleetStatus {
    /// Epoch of the published snapshot.
    pub epoch: u64,
    /// Graph generation of the published snapshot.
    pub graph_gen: u64,
    /// Cumulative critical path over all batches: per batch, wall time
    /// minus the compute chunks' summed busy time plus the slowest
    /// chunk's — the serving cost on a host with a core per chunk,
    /// exact when the chunks ran serially (`FUI_THREADS=1`). A batch
    /// computed in one chunk adds its wall time.
    pub crit_ns: u64,
}

impl Service {
    /// Point-in-time [`FleetStatus`]. Named by `benchmark/`; ROADMAP
    /// 6(d) deletes it.
    pub fn status(&self) -> FleetStatus {
        let snap = self.snapshot();
        FleetStatus {
            epoch: snap.epoch,
            graph_gen: snap.graph_gen,
            crit_ns: self.crit_ns.load(Ordering::Relaxed),
        }
    }
}
