//! Request/reply types, configuration, and [`Service`] — the serving
//! engine fixed at one shard.
//!
//! There is one engine, [`ShardedService`] (see [`crate::router`]);
//! *unsharded* means `shards = 1`. [`Service`] only constructs that
//! engine under [`ShardSpec::default`] and dereferences to it, so every
//! verb (`call`, `submit`/`pump`, `record`, `rotate`, `refresh`,
//! `persist`, …) is the router's own.

use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use fui_core::{ScoreParams, ScoreVariant};
use fui_graph::{NodeId, SocialGraph};
use fui_taxonomy::{SimMatrix, Topic};

use crate::cache::CacheKey;
use crate::durable;
use crate::router::{ShardSpec, ShardedService};
use crate::snapshot::Snapshot;

/// One "who should I follow" query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// The querying user.
    pub user: NodeId,
    /// Topic of interest.
    pub topic: Topic,
    /// Requested list length.
    pub top_n: usize,
}

/// A successfully answered request.
#[derive(Clone, Debug)]
pub struct Served {
    /// Top-n recommendations, best first (shared with the cache).
    pub recommendations: Arc<Vec<(NodeId, f64)>>,
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Whether the answer came out of the result cache.
    pub cached: bool,
}

/// Outcome of a request — every accepted request gets exactly one.
#[derive(Clone, Debug)]
pub enum Reply {
    /// The recommendations.
    Result(Served),
    /// Shed by admission control or a missed deadline; retry later.
    Overloaded,
    /// Malformed request (unknown user, zero top_n, ...).
    Rejected(String),
}

/// Tuning knobs; [`ServiceConfig::default`] suits tests and benches.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Max requests coalesced into one `recommend_batch` call.
    pub max_batch: usize,
    /// Admission-control bound on the submission queue.
    pub queue_capacity: usize,
    /// Total result-cache entries.
    pub cache_capacity: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Landmark staleness threshold (see [`fui_landmarks::DynamicLandmarks`]).
    pub refresh_threshold: f64,
    /// Background impact per change (see [`fui_landmarks::DynamicLandmarks`]).
    pub background_impact: f64,
    /// Exploration depth of the approximate recommender.
    pub explore_depth: u32,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_batch: 64,
            queue_capacity: 256,
            cache_capacity: 4096,
            cache_shards: 8,
            refresh_threshold: 0.1,
            background_impact: 1e-9,
            explore_depth: 2,
        }
    }
}

/// How many snapshot files a durable service keeps on disk. More than
/// one, so a torn newest file always has an older valid fallback
/// (replayed forward through the journal).
pub(crate) const KEEP_SNAPSHOTS: usize = 4;

/// Why a warm restart could not produce a service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// Filesystem access to the durability directory failed.
    Io(String),
    /// No snapshot file in the directory decoded cleanly.
    NoValidSnapshot,
    /// The merged journals skip a sequence number: a record between
    /// the snapshot and `found` is on no journal in the directory, and
    /// replaying across the hole would silently lose it.
    JournalGap {
        /// The sequence number replay needed next.
        expected: u64,
        /// The next one the journals actually hold.
        found: u64,
    },
    /// Two journals hold different records under this sequence number.
    JournalConflict(u64),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "durability directory unusable: {e}"),
            RestoreError::NoValidSnapshot => write!(f, "no valid snapshot on disk"),
            RestoreError::JournalGap { expected, found } => {
                write!(f, "journal gap: record {expected} missing before {found}")
            }
            RestoreError::JournalConflict(seq) => {
                write!(f, "journals disagree on record {seq}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// The serving engine at one shard: a constructor-only façade over
/// [`ShardedService`] (every verb is reached through `Deref`).
pub struct Service(ShardedService);

impl Service {
    /// [`ShardedService::new`] under [`ShardSpec::default`].
    pub fn new(
        graph: SocialGraph,
        sim: SimMatrix,
        params: ScoreParams,
        variant: ScoreVariant,
        landmarks: Vec<NodeId>,
        stored_top_n: usize,
        cfg: ServiceConfig,
    ) -> Service {
        Service(ShardedService::new(
            graph,
            sim,
            params,
            variant,
            landmarks,
            stored_top_n,
            cfg,
            ShardSpec::default(),
        ))
    }

    /// [`ShardedService::with_durability`] under [`ShardSpec::default`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_durability(
        graph: SocialGraph,
        sim: SimMatrix,
        params: ScoreParams,
        variant: ScoreVariant,
        landmarks: Vec<NodeId>,
        stored_top_n: usize,
        cfg: ServiceConfig,
        dir: &Path,
    ) -> std::io::Result<Service> {
        ShardedService::with_durability(
            graph,
            sim,
            params,
            variant,
            landmarks,
            stored_top_n,
            cfg,
            ShardSpec::default(),
            dir,
        )
        .map(Service)
    }

    /// [`ShardedService::restore`] under [`ShardSpec::default`] — of a
    /// directory written by any shard count.
    pub fn restore(
        dir: &Path,
        sim: SimMatrix,
        cfg: ServiceConfig,
    ) -> Result<Service, RestoreError> {
        ShardedService::restore(dir, sim, cfg, ShardSpec::default()).map(Service)
    }
}

impl Deref for Service {
    type Target = ShardedService;
    fn deref(&self) -> &ShardedService {
        &self.0
    }
}

// `AsRef<ShardedService>` is the bound both network servers take, so
// an `Arc` of either name starts one.
impl AsRef<ShardedService> for Service {
    fn as_ref(&self) -> &ShardedService {
        &self.0
    }
}

impl AsRef<ShardedService> for ShardedService {
    fn as_ref(&self) -> &ShardedService {
        self
    }
}

/// Best-effort retention: keep the newest [`KEEP_SNAPSHOTS`] snapshot
/// files, delete the rest. The journal is never truncated here, so any
/// surviving snapshot plus the journal reaches the present state.
pub(crate) fn prune_snapshots(dir: &Path) {
    if let Ok(found) = durable::list_snapshots(dir) {
        for (_, path) in found.into_iter().skip(KEEP_SNAPSHOTS) {
            let _ = std::fs::remove_file(path);
        }
    }
}

pub(crate) fn key_of(req: &Request) -> CacheKey {
    CacheKey {
        user: req.user.0,
        topic: req.topic.index() as u8,
        top_n: u32::try_from(req.top_n).unwrap_or(u32::MAX),
    }
}

pub(crate) fn validate(req: &Request, snap: &Snapshot) -> Result<(), String> {
    if req.user.index() >= snap.graph.num_nodes() {
        return Err(format!(
            "unknown user {} (graph has {} nodes)",
            req.user.0,
            snap.graph.num_nodes()
        ));
    }
    if req.top_n == 0 {
        return Err("top_n must be at least 1".to_owned());
    }
    Ok(())
}
