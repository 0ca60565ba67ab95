//! The serving engine: N candidate-partitioned serving lanes behind
//! one scatter/gather router. There is no second, "unsharded" engine —
//! [`Service`](crate::Service) is this engine fixed at one shard.
//!
//! A [`ShardedService`] owns a *master* copy of the mutable state
//! (graph, pending edge changes, [`DynamicLandmarks`] staleness
//! accounting) behind one mutex that **no query ever takes**, and one
//! `Shard` lane per shard (snapshot store, result cache, admission
//! queue) that queries read.
//!
//! Determinism contract: [`ShardedService::call`],
//! [`ShardedService::call_many`] and the `submit`/`pump` pair produce
//! byte-identical recommendation lists — and identical `service.*`
//! counter deltas — at any `FUI_THREADS` width and any shard count,
//! because every parallel region reduces in index order. The
//! conformance invariants `check_cached_matches_uncached` (engine vs a
//! bare `ApproxRecommender` on the published snapshot) and
//! `check_sharded_matches_unsharded` (1 vs 2 vs 4 shards), and the
//! `serve_micro` / `shard_micro` CI gates, all lean on this.
//!
//! # Why candidate partitioning is bit-exact
//!
//! A recommendation score is a per-candidate `f64` accumulation: direct
//! contributions from the bounded exploration plus composition terms
//! through landmark entries. [`ShardedService`] partitions the
//! *candidate space* — every node is owned by exactly one shard (a
//! deterministic [`Partition`] over the node-id space) — and each shard
//! accumulates the full sum for exactly its owned candidates, in the
//! exact one-shard order:
//!
//! * the shard's [`LandmarkIndex::filtered`] slice keeps the full
//!   landmark mask and slot table (so exploration, pruning and the
//!   met-landmark set are identical on every shard) but filters the
//!   inverted lists to owned candidates;
//! * the recommender's `candidate_mask` filters direct contributions
//!   the same way.
//!
//! Per-shard top-k lists therefore rank *disjoint* candidate sets, and
//! merging them through [`select_top_k`]'s total order (score
//! descending, id ascending) reproduces the one-shard answer bit for
//! bit — including at score ties. The graph, authority index and
//! similarity rows are **shared** (`Arc`) across shards: what is
//! partitioned is the per-candidate accumulation and index mass, not
//! the read-only graph state.
//!
//! A fleet of one pays nothing for any of this: it holds no owner map,
//! mask or cut table, its single slice *is* the full index `Arc`, and
//! every scatter set is shard 0.
//!
//! # Scatter sets
//!
//! A query `(u, t)` only needs the shards that can contribute a
//! candidate: shards owning a node of `u`'s `explore_depth`-hop
//! out-vicinity (direct contributions — answered by the [`CutTable`]
//! without touching second-hop adjacency), shards whose slice has any
//! stored list for topic `t`, and shards with any topological list.
//! Composition-heavy configurations thus scatter wide (often all N) —
//! `service.shard.fanout` records the truth — while vicinity-dominated
//! queries stay narrow. When the plan has raced a publish (pinned
//! epochs disagree with the plan's), the router falls back to
//! all-shard scatter, which is always exact: extra shards only ever
//! contribute candidates they own.
//!
//! # Staggered rotation
//!
//! Mutations journal and apply once at the fleet master (staleness
//! accounting must be shard-count-invariant for answers to be), but
//! every publish walks the shards in *staggered* order — most pending
//! recorded changes first, shard id breaking ties — swapping one
//! shard's snapshot pointer at a time with no fleet-wide pause.
//! In-flight queries keep whatever mix of pinned snapshots they hold.
//!
//! # Durability
//!
//! One on-disk layout at every shard count: the fleet directory holds
//! the snapshots and a fleet journal carrying `Rotate`/`Refresh`; each
//! shard gets `shard-NNNN/journal.fuiwal` carrying the `Change` records
//! it owns. A change touching a cut edge is journaled to **both**
//! endpoint owners' WALs; restore merges the fleet journal and every
//! shard journal *present on disk* by sequence number (duplicates
//! collapse), so one torn shard WAL loses nothing the twin still holds.
//! Nothing derivable is persisted (the [`crate::durable`] module docs
//! list what restore rebuilds), the partition included, so a directory
//! written by any shard count restores under any other: sharding is
//! answer-invisible.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use fui_core::topk::select_top_k;
use fui_core::{AuthorityIndex, PropWorkspace, Propagator, ScoreParams, ScoreVariant, SimRowCache};
use fui_graph::{CutTable, NodeId, Partition, PartitionStrategy, SocialGraph};
use fui_landmarks::{ApproxRecommender, DynamicLandmarks, EdgeChange, Exploration, LandmarkIndex};
use fui_obs::{
    Counter, Hist, LatencyParts, RequestTrace, SloConfig, SloReport, SloTracker, TraceCapture,
    TraceEventKind, TraceOutcome,
};
use fui_taxonomy::{SimMatrix, Topic};

use crate::batch::{trace_meta, Pending, Ticket};
use crate::cache::CacheStamp;
use crate::durable::{self, JournalOp, JournalRecord, SnapshotState};
use crate::service::{
    key_of, prune_snapshots, validate, Reply, Request, RestoreError, Served, ServiceConfig,
};
use crate::shard::{FleetStatus, Shard};
use crate::snapshot::{apply_changes, Snapshot};

/// A shared, immutable ranked recommendation list — the unit the
/// cache stores and the scatter/gather lanes pass around.
type RankedList = Arc<Vec<(NodeId, f64)>>;

/// How a [`ShardedService`] splits the candidate space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards (1 ..= [`fui_graph::partition::MAX_SHARDS`]).
    pub shards: usize,
    /// Owner-map strategy.
    pub strategy: PartitionStrategy,
}

impl Default for ShardSpec {
    fn default() -> ShardSpec {
        ShardSpec {
            shards: 1,
            strategy: PartitionStrategy::Hash,
        }
    }
}

impl ShardSpec {
    /// A spec with `shards` shards under `strategy`.
    pub fn new(shards: usize, strategy: PartitionStrategy) -> ShardSpec {
        ShardSpec { shards, strategy }
    }
}

/// Subdirectory of the fleet durability dir holding shard `s`'s WAL.
fn shard_dir(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:04}"))
}

/// `service.*` and fleet-wide `service.shard.*` handles, resolved once
/// at construction — the request hot path never takes the registry's
/// name-lookup lock. (The per-shard `.N.` handles live on each
/// [`Shard`].)
pub(crate) struct FleetMetrics {
    requests: Counter,
    pub(crate) shed: Counter,
    shed_deadline: Counter,
    rotations: Counter,
    batch_size: Hist,
    pub(crate) request_latency: Hist,
    slo: SloTracker,
    /// Total shards scattered to, over all requests.
    fanout: Counter,
    /// Per-shard query executions (one request on three shards = 3).
    queries: Counter,
    /// Shared explorations run (one per missed query per pinned
    /// generation — `queries / explorations` is the exploration
    /// dedup factor the scatter/gather router buys).
    explorations: Counter,
    /// Cross-shard top-k merges performed.
    merges: Counter,
    /// Cut edges counted at each scatter-plan build (cumulative over
    /// rebuilds — the bench gate asserts exact equality of the sum).
    cut_edges: Counter,
}

impl FleetMetrics {
    fn new() -> FleetMetrics {
        let requests = fui_obs::counter("service.requests");
        let shed = fui_obs::counter("service.shed");
        let request_latency = fui_obs::hist("service.request_latency");
        FleetMetrics {
            requests,
            shed,
            shed_deadline: fui_obs::counter("service.shed.deadline"),
            rotations: fui_obs::counter("service.snapshot.rotations"),
            batch_size: fui_obs::hist("service.batch.size"),
            request_latency,
            slo: SloTracker::new(SloConfig::from_env(), request_latency, requests, shed),
            fanout: fui_obs::counter("service.shard.fanout"),
            queries: fui_obs::counter("service.shard.queries"),
            explorations: fui_obs::counter("service.shard.explorations"),
            merges: fui_obs::counter("service.shard.merges"),
            cut_edges: fui_obs::counter("service.shard.cut_edges"),
        }
    }
}

/// The precomputed scatter decision state, rebuilt under the master
/// lock on every rotate/refresh and epoch-stamped on every publish so
/// the read path can tell whether it matches its pinned snapshots.
#[derive(Clone)]
struct ScatterPlan {
    /// Epoch this plan was built for — must equal the pinned epoch of
    /// *every* scattered-to snapshot for the narrow plan to be exact.
    epoch: u64,
    /// Cut-edge replication table for the plan's graph generation;
    /// `None` on a fleet of one, which has no edges to cut.
    cut: Option<Arc<CutTable>>,
    /// Cut-edge count for the plan's graph generation.
    cut_edges: u64,
    /// Bitmask of all live shards.
    all: u64,
    /// Per topic: shards whose slice stores any list for it.
    topic: Vec<u64>,
    /// Shards whose slice stores any topological list.
    topo: u64,
    /// Exploration deeper than the cut table covers (depth > 2): the
    /// vicinity term degenerates to all-shard.
    deep: bool,
}

impl ScatterPlan {
    fn build(
        epoch: u64,
        cut: Option<Arc<CutTable>>,
        cut_edges: u64,
        slices: &[Arc<LandmarkIndex>],
        deep: bool,
    ) -> ScatterPlan {
        let n = slices.len();
        let all = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut topic = vec![0u64; Topic::ALL.len()];
        let mut topo = 0u64;
        for (s, slice) in slices.iter().enumerate() {
            let bit = 1u64 << s;
            for slot in 0..slice.len() {
                let e = slice.entry_at(slot);
                for (t, recs) in e.recs.iter().enumerate() {
                    if !recs.is_empty() {
                        topic[t] |= bit;
                    }
                }
                if !e.topo.is_empty() {
                    topo |= bit;
                }
            }
        }
        ScatterPlan {
            epoch,
            cut,
            cut_edges,
            all,
            topic,
            topo,
            deep,
        }
    }

    /// The shards query `(u, t)` must reach. `lo`/`hi` are the min/max
    /// epochs of the pinned snapshots: any disagreement with the plan's
    /// epoch means a publish raced this batch, and the router scatters
    /// everywhere (always exact, never narrow). A fleet of one has no
    /// cut table and one possible answer.
    fn scatter(&self, graph: &SocialGraph, u: NodeId, t: Topic, lo: u64, hi: u64) -> u64 {
        let (Some(cut), true) = (&self.cut, lo == hi && self.epoch == hi) else {
            return self.all;
        };
        let vicinity = if self.deep {
            self.all
        } else {
            cut.two_hop(graph, u)
        };
        (vicinity | self.topic[t.index()] | self.topo) & self.all
    }
}

/// Every `shard-NNNN/` id present under `dir`, ascending — what is on
/// disk, whatever layout wrote it.
fn shard_ids_on_disk(dir: &Path) -> std::io::Result<Vec<usize>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let digits = name.to_str().and_then(|n| n.strip_prefix("shard-"));
        if let Some(id) = digits.filter(|d| d.len() == 4).and_then(|d| d.parse().ok()) {
            found.push(id);
        }
    }
    found.sort_unstable();
    Ok(found)
}

/// The write side of fleet durability: fleet snapshots + fleet journal
/// (`Rotate`/`Refresh`), one change journal per shard.
struct FleetSink {
    dir: PathBuf,
    wal: std::fs::File,
    shard_wals: Vec<std::fs::File>,
}

/// Opens the journal at `path` for appending after its first
/// `valid_len` bytes — the decoded prefix; `torn` says a partial record
/// follows it.
fn open_journal(path: &Path, valid_len: usize, torn: bool) -> std::io::Result<std::fs::File> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    if valid_len < durable::WAL_MAGIC.len() {
        // Missing, header-corrupt or discarded journal: start fresh.
        let mut f = std::fs::File::create(path)?;
        f.write_all(durable::WAL_MAGIC)?;
        return Ok(f);
    }
    if torn {
        // Drop the torn (never-acknowledged) tail so the next append
        // starts at a record boundary.
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(valid_len as u64)?;
    }
    std::fs::OpenOptions::new().append(true).open(path)
}

/// Appends one framed record and flushes it to the OS. Called *before*
/// the in-memory mutation it describes, so a crash at any later point
/// replays the mutation from disk.
fn append_frame(f: &mut std::fs::File, frame: &[u8]) -> std::io::Result<()> {
    f.write_all(frame)?;
    f.flush()?;
    fui_obs::counter("snapshot.persist.journal_appends").incr();
    fui_obs::counter("snapshot.persist.journal_bytes").add(frame.len() as u64);
    Ok(())
}

impl FleetSink {
    /// Journals a fleet-wide op (rotate/refresh) to the fleet WAL.
    fn append_fleet(&mut self, seq: u64, op: &JournalOp) -> std::io::Result<()> {
        append_frame(&mut self.wal, &durable::encode_record(seq, op))
    }

    /// Journals a change to its owning shard's WAL — and to the other
    /// endpoint's owner too when the edge is cut, so either WAL alone
    /// can torn-tail without losing the record.
    fn append_change(
        &mut self,
        seq: u64,
        change: EdgeChange,
        (a, b): (usize, usize),
    ) -> std::io::Result<()> {
        let frame = durable::encode_record(seq, &JournalOp::Change(change));
        append_frame(&mut self.shard_wals[a], &frame)?;
        if b != a {
            append_frame(&mut self.shard_wals[b], &frame)?;
        }
        Ok(())
    }
}

/// Mutable fleet master state — one lock, never taken by queries. One
/// staleness account and one epoch discipline whatever the shard count
/// (answers must not depend on it), plus the per-shard index slices
/// derived from the master index.
struct FleetMaster {
    graph: Arc<SocialGraph>,
    authority: Arc<AuthorityIndex>,
    sim_rows: Arc<SimRowCache>,
    index: Arc<LandmarkIndex>,
    /// Ownership-filtered projections of `index`, one per shard.
    slices: Vec<Arc<LandmarkIndex>>,
    sim: SimMatrix,
    dynamic: DynamicLandmarks,
    pending: Vec<EdgeChange>,
    epoch: u64,
    graph_gen: u64,
    slot_versions: Vec<u64>,
    params: ScoreParams,
    variant: ScoreVariant,
    /// Journal position: every mutation with `seq <= applied_seq` is
    /// reflected in this state. Advances on every mutation whether or
    /// not the service is durable, so replay idempotence is uniform.
    applied_seq: u64,
    /// Present iff the service persists to disk.
    durable: Option<FleetSink>,
}

impl FleetMaster {
    fn shard_snapshot(&self, s: usize) -> Snapshot {
        Snapshot {
            shard: s as u32,
            epoch: self.epoch,
            graph_gen: self.graph_gen,
            slot_versions: self.slot_versions.clone(),
            graph: Arc::clone(&self.graph),
            authority: Arc::clone(&self.authority),
            sim_rows: Arc::clone(&self.sim_rows),
            index: Arc::clone(&self.slices[s]),
            params: self.params,
            variant: self.variant,
        }
    }

    /// The durable image: what `from_state` cannot recompute.
    fn snapshot_state(&self) -> SnapshotState {
        SnapshotState {
            applied_seq: self.applied_seq,
            epoch: self.epoch,
            graph_gen: self.graph_gen,
            changes_seen: self.dynamic.changes_seen(),
            params: self.params,
            variant: self.variant,
            slot_versions: self.slot_versions.clone(),
            staleness: (0..self.slot_versions.len())
                .map(|s| self.dynamic.staleness_at(s))
                .collect(),
            pending: self.pending.clone(),
            graph: (*self.graph).clone(),
            auth: Vec::new(),
            followers_on: Vec::new(),
            max_followers_on: [0; fui_taxonomy::NUM_TOPICS],
            index: self.dynamic.index().clone(),
        }
    }
}

/// One ownership-filtered slice of `index` per shard; a fleet of one
/// (no partition) serves the full index `Arc` itself.
fn build_slices(
    index: &Arc<LandmarkIndex>,
    partition: Option<&Partition>,
) -> Vec<Arc<LandmarkIndex>> {
    let Some(partition) = partition else {
        return vec![Arc::clone(index)];
    };
    (0..partition.shards() as u32)
        .map(|s| Arc::new(index.filtered(|v| partition.owner(v) == s)))
        .collect()
}

/// Whether `c` can be applied to `graph`: both endpoints exist and it is
/// not a self-follow. The live write path and journal replay both ask
/// here, so what `record` refuses a replay rejects.
fn validate_change(graph: &SocialGraph, c: &EdgeChange) -> Result<(), String> {
    let n = graph.num_nodes() as u32;
    if c.follower.0 >= n || c.followee.0 >= n {
        return Err(format!("edge endpoints out of range (graph has {n} nodes)"));
    }
    if c.follower == c.followee {
        return Err("self-follows are not representable".to_owned());
    }
    Ok(())
}

/// The shards owning `c`'s endpoints — equal unless the edge is cut,
/// both 0 on a fleet of one.
fn owners(partition: Option<&Partition>, c: &EdgeChange) -> (usize, usize) {
    partition.map_or((0, 0), |p| {
        (p.owner(c.follower) as usize, p.owner(c.followee) as usize)
    })
}

/// Bumps the staggered-rotation priority of a change's owner shards.
fn charge_pending(shards: &[Shard], (a, b): (usize, usize)) {
    shards[a].pending.fetch_add(1, Ordering::SeqCst);
    if b != a {
        shards[b].pending.fetch_add(1, Ordering::SeqCst);
    }
}

/// The cut table and cut-edge count of `graph` under `partition`
/// (charged to `service.shard.cut_edges`) — nothing to walk on a fleet
/// of one.
fn cut_of(
    partition: Option<&Partition>,
    graph: &SocialGraph,
    metrics: &FleetMetrics,
) -> (Option<Arc<CutTable>>, u64) {
    let Some(p) = partition else {
        return (None, 0);
    };
    let cut_edges = p.cut_edges_in(graph);
    metrics.cut_edges.add(cut_edges);
    (Some(Arc::new(p.cut_table(graph))), cut_edges)
}

/// The online serving engine: N partitioned serving lanes behind a
/// scatter/gather router, answering bit-identically at every shard
/// count — the `service-sharded` conformance invariant holds it to
/// exactly that. See the module docs.
pub struct ShardedService {
    master: Mutex<FleetMaster>,
    pub(crate) shards: Vec<Shard>,
    /// The owner map; `None` on a fleet of one, where shard 0 owns
    /// every node.
    partition: Option<Partition>,
    spec: ShardSpec,
    plan: RwLock<Arc<ScatterPlan>>,
    /// Node-id bound for owner lookups (node count never changes).
    nodes: usize,
    cfg: ServiceConfig,
    metrics: FleetMetrics,
    /// One propagation workspace per pool worker, persistent across
    /// batches: 8 B/node of stamp array (8 MB at 1M nodes) plus the
    /// largest reached set, faulted in once per worker instead of once
    /// per scattered compute task. Reuse is answer-invisible (a run
    /// starts by bumping the epoch and clearing the compact arrays —
    /// the `workspace_reuse_bit_equality` conformance test pins that).
    workspaces: fui_exec::WorkerLocal<PropWorkspace>,
    /// Cumulative scatter/gather critical path: per batch, the wall
    /// time minus all parallel-lane busy time plus, per parallel
    /// region (probe, explore, compose), the slowest lane's — the
    /// batch latency on a host with at least as many cores as shards.
    /// Exact when the lanes actually ran serially (`FUI_THREADS=1`);
    /// with real parallelism it is clamped below wall. On a one-shard
    /// fleet every region has one lane, so this equals served wall
    /// time. [`FleetStatus::crit_ns`] surfaces it.
    crit_ns: AtomicU64,
}

impl ShardedService {
    /// Builds a fleet over `graph`: authority index, similarity rows
    /// and the landmark index are precomputed once here (the landmark
    /// build fans out over the `fui-exec` pool), sliced into
    /// `spec.shards` ownership slices and published as epoch 0.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: SocialGraph,
        sim: SimMatrix,
        params: ScoreParams,
        variant: ScoreVariant,
        landmarks: Vec<NodeId>,
        stored_top_n: usize,
        cfg: ServiceConfig,
        spec: ShardSpec,
    ) -> ShardedService {
        let graph = Arc::new(graph);
        let authority = Arc::new(AuthorityIndex::build(&graph));
        let sim_rows = Arc::new(SimRowCache::build(&graph, &sim));
        let propagator =
            Propagator::with_sim_cache(&graph, &authority, Arc::clone(&sim_rows), params, variant);
        let index = LandmarkIndex::build_auto(&propagator, landmarks, stored_top_n);
        let dynamic = DynamicLandmarks::with_policy(
            index.clone(),
            cfg.refresh_threshold,
            cfg.background_impact,
        );
        let index = Arc::new(index);
        let slots = index.len();
        let master = FleetMaster {
            graph,
            authority,
            sim_rows,
            index,
            slices: Vec::new(),
            sim,
            dynamic,
            pending: Vec::new(),
            epoch: 0,
            graph_gen: 0,
            slot_versions: vec![0; slots],
            params,
            variant,
            applied_seq: 0,
            durable: None,
        };
        ShardedService::assemble(master, cfg, spec)
    }

    fn assemble(mut master: FleetMaster, cfg: ServiceConfig, spec: ShardSpec) -> ShardedService {
        assert!(
            (1..=fui_graph::partition::MAX_SHARDS).contains(&spec.shards),
            "shard count {} out of range",
            spec.shards
        );
        let partition =
            (spec.shards > 1).then(|| Partition::build(&master.graph, spec.shards, spec.strategy));
        master.slices = build_slices(&master.index, partition.as_ref());
        let metrics = FleetMetrics::new();
        let (cut, cut_edges) = cut_of(partition.as_ref(), &master.graph, &metrics);
        let plan = ScatterPlan::build(
            master.epoch,
            cut,
            cut_edges,
            &master.slices,
            cfg.explore_depth > 2,
        );
        let nodes = master.graph.num_nodes();
        let shards: Vec<Shard> = (0..spec.shards)
            .map(|s| {
                // Edge mass charges every edge to both endpoint owners.
                let (owned, owned_nodes, edge_mass) = match &partition {
                    Some(p) => (
                        Some(Arc::new(p.owned_mask(s as u32))),
                        p.sizes()[s],
                        p.edge_mass()[s],
                    ),
                    None => (None, nodes, 2 * master.graph.num_edges() as u64),
                };
                Shard::new(
                    s as u32,
                    master.shard_snapshot(s),
                    owned,
                    owned_nodes,
                    edge_mass,
                    &cfg,
                    &metrics,
                )
            })
            .collect();
        // A restored fleet re-derives each shard's staggered-rotation
        // priority from the still-pending changes it carries.
        for c in &master.pending {
            charge_pending(&shards, owners(partition.as_ref(), c));
        }
        ShardedService {
            master: Mutex::new(master),
            shards,
            partition,
            spec,
            plan: RwLock::new(Arc::new(plan)),
            nodes,
            cfg,
            metrics,
            workspaces: fui_exec::WorkerLocal::new(),
            crit_ns: AtomicU64::new(0),
        }
    }

    /// [`ShardedService::new`], then durability: writes the epoch-0
    /// snapshot, an empty fleet journal and one empty `shard-NNNN/`
    /// change journal per shard under `dir` (created if absent; any
    /// previous journal there, stale shard directories included, is
    /// discarded — use [`restore`](Self::restore) to *resume* a
    /// directory). Every subsequent [`record`](Self::record),
    /// [`rotate`](Self::rotate) and [`refresh`](Self::refresh)
    /// write-ahead journals itself before mutating, and rotation also
    /// persists a fresh snapshot, so a warm restart replays `newest
    /// valid snapshot + journal tail`. See the module docs for the
    /// layout.
    #[allow(clippy::too_many_arguments)]
    pub fn with_durability(
        graph: SocialGraph,
        sim: SimMatrix,
        params: ScoreParams,
        variant: ScoreVariant,
        landmarks: Vec<NodeId>,
        stored_top_n: usize,
        cfg: ServiceConfig,
        spec: ShardSpec,
        dir: &Path,
    ) -> std::io::Result<ShardedService> {
        let fleet = ShardedService::new(
            graph,
            sim,
            params,
            variant,
            landmarks,
            stored_top_n,
            cfg,
            spec,
        );
        std::fs::create_dir_all(dir)?;
        {
            let mut m = fleet.master.lock().expect("fleet master poisoned");
            durable::write_snapshot_atomic(dir, &m.snapshot_state())?;
            for stale in shard_ids_on_disk(dir)? {
                std::fs::remove_dir_all(shard_dir(dir, stale))?;
            }
            let wal = open_journal(&dir.join(durable::JOURNAL_FILE), 0, false)?;
            let shard_wals = (0..fleet.shards.len())
                .map(|s| open_journal(&shard_dir(dir, s).join(durable::JOURNAL_FILE), 0, false))
                .collect::<std::io::Result<_>>()?;
            m.durable = Some(FleetSink {
                dir: dir.to_path_buf(),
                wal,
                shard_wals,
            });
        }
        Ok(fleet)
    }

    /// Warm restart: scans `dir` for the newest snapshot that decodes
    /// cleanly *and* whose file name agrees with its header position
    /// (each rejected candidate bumps `snapshot.persist.fallbacks`),
    /// rebuilds the derived state the codec does not carry,
    /// then replays the fleet journal and every shard journal *present
    /// on disk*, merged by sequence number (a change on a cut edge sits
    /// in both endpoint owners' WALs; the duplicate collapses). `spec`
    /// may differ from the writing fleet's — sharding never shows in
    /// answers — and when it leaves replayed records in journals the
    /// new layout will never append to, a snapshot is checkpointed
    /// before serving. Torn journal tails are dropped and truncated
    /// away; a merged history that skips a sequence number, or carries
    /// two different records under one, is a typed error — never a
    /// silent skip.
    ///
    /// The restored service publishes the same epoch / generation /
    /// versions the killed one had and answers bit-identically to a
    /// twin that never died — the chaos conformance suite holds it to
    /// exactly that.
    pub fn restore(
        dir: &Path,
        sim: SimMatrix,
        cfg: ServiceConfig,
        spec: ShardSpec,
    ) -> Result<ShardedService, RestoreError> {
        ShardedService::restore_inner(dir, sim, cfg, spec, true)
    }

    fn restore_inner(
        dir: &Path,
        sim: SimMatrix,
        cfg: ServiceConfig,
        spec: ShardSpec,
        attach: bool,
    ) -> Result<ShardedService, RestoreError> {
        let io_err = |e: std::io::Error| RestoreError::Io(e.to_string());
        let fallbacks = fui_obs::counter("snapshot.persist.fallbacks");
        let mut chosen = None;
        for (seq, path) in durable::list_snapshots(dir).map_err(io_err)? {
            let read_sp = fui_obs::Span::enter("snapshot.restore.read");
            let raw = std::fs::read(&path);
            read_sp.finish();
            let Ok(raw) = raw else {
                fallbacks.incr();
                continue;
            };
            match durable::decode_snapshot(bytes::Bytes::from(raw)) {
                // A checksum-valid file whose name disagrees with its
                // header position is semantically older than it claims
                // (a stale copy) — fall back past it.
                Ok(state) if state.applied_seq == seq => {
                    chosen = Some(state);
                    break;
                }
                Ok(_) | Err(_) => fallbacks.incr(),
            }
        }
        let Some(state) = chosen else {
            return Err(RestoreError::NoValidSnapshot);
        };
        let base_seq = state.applied_seq;

        // One journal prefix per WAL: the fleet's, this layout's shard
        // journals, then any surplus ones a wider fleet left behind —
        // trusting `spec` here would drop every acknowledged change
        // that lives only in a surplus journal.
        let torn_counter = fui_obs::counter("snapshot.persist.journal_torn");
        let mut ids: Vec<usize> = (0..spec.shards).collect();
        let on_disk = shard_ids_on_disk(dir).map_err(io_err)?;
        ids.extend(on_disk.into_iter().filter(|&s| s >= spec.shards));
        let mut wal_paths = vec![dir.join(durable::JOURNAL_FILE)];
        wal_paths.extend(
            ids.iter()
                .map(|&s| shard_dir(dir, s).join(durable::JOURNAL_FILE)),
        );
        let mut prefixes = Vec::with_capacity(wal_paths.len());
        let mut merged: std::collections::BTreeMap<u64, JournalRecord> =
            std::collections::BTreeMap::new();
        // Highest replayable sequence number held by a surplus journal.
        let mut surplus_seq = 0;
        for (k, path) in wal_paths.iter().enumerate() {
            let raw = std::fs::read(path).unwrap_or_default();
            let (records, valid_len, torn) = if raw.is_empty() {
                (Vec::new(), 0, None)
            } else {
                durable::decode_journal_prefix(&raw)
            };
            if torn.is_some() {
                torn_counter.incr();
            }
            for r in records {
                if k > spec.shards {
                    surplus_seq = surplus_seq.max(r.seq);
                }
                if merged.insert(r.seq, r).is_some_and(|prev| prev != r) {
                    return Err(RestoreError::JournalConflict(r.seq));
                }
            }
            prefixes.push((valid_len, torn.is_some()));
        }
        let records: Vec<JournalRecord> =
            merged.into_values().filter(|r| r.seq > base_seq).collect();
        if let Some((r, expected)) = records
            .iter()
            .zip(base_seq + 1..)
            .find(|(r, seq)| r.seq != *seq)
        {
            return Err(RestoreError::JournalGap {
                expected,
                found: r.seq,
            });
        }

        let derive_sp = fui_obs::Span::enter("snapshot.restore.derive");
        let fleet = ShardedService::from_state(state, sim, cfg, spec);
        derive_sp.finish();
        let replayed = fleet.apply_journal(&records);
        fui_obs::counter("snapshot.persist.replayed").add(replayed as u64);
        fui_obs::counter("snapshot.persist.restores").incr();

        if attach {
            // Surplus journals are read, never re-attached.
            let mut files = Vec::with_capacity(1 + spec.shards);
            for (path, &(valid_len, torn)) in wal_paths.iter().zip(&prefixes).take(1 + spec.shards)
            {
                files.push(open_journal(path, valid_len, torn).map_err(io_err)?);
            }
            let wal = files.remove(0);
            let mut m = fleet.master.lock().expect("fleet master poisoned");
            m.durable = Some(FleetSink {
                dir: dir.to_path_buf(),
                wal,
                shard_wals: files,
            });
            if surplus_seq > base_seq {
                // Replayed records live only in journals this layout
                // never appends to: checkpoint, so the newest snapshot
                // no longer depends on them.
                fleet.persist_locked(&mut m).map_err(io_err)?;
            }
        }
        Ok(fleet)
    }

    /// Rebuilds a fleet around a decoded snapshot, deriving everything
    /// the file does not hold (see the [`crate::durable`] module docs).
    fn from_state(
        state: SnapshotState,
        sim: SimMatrix,
        cfg: ServiceConfig,
        spec: ShardSpec,
    ) -> ShardedService {
        let graph = Arc::new(state.graph);
        let authority = Arc::new(AuthorityIndex::build(&graph));
        let sim_rows = Arc::new(SimRowCache::build(&graph, &sim));
        let dynamic = DynamicLandmarks::restore(
            state.index.clone(),
            cfg.refresh_threshold,
            cfg.background_impact,
            state.staleness,
            state.changes_seen,
        );
        let master = FleetMaster {
            graph,
            authority,
            sim_rows,
            index: Arc::new(state.index),
            slices: Vec::new(),
            sim,
            dynamic,
            pending: state.pending,
            epoch: state.epoch,
            graph_gen: state.graph_gen,
            slot_versions: state.slot_versions,
            params: state.params,
            variant: state.variant,
            applied_seq: state.applied_seq,
            durable: None,
        };
        ShardedService::assemble(master, cfg, spec)
    }

    /// The configuration the fleet was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The spec the fleet was assembled under.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Shard 0's currently published snapshot: the graph, authority
    /// index and similarity rows every shard shares, with shard 0's
    /// slice of the landmark index (at one shard, the full index).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shards[0].store.load()
    }

    /// Max epoch over the shards' published snapshots (all equal
    /// outside a publish window).
    pub fn epoch(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.store.load().epoch)
            .max()
            .unwrap_or(0)
    }

    /// Graph generation of the published snapshots.
    pub fn graph_gen(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.store.load().graph_gen)
            .max()
            .unwrap_or(0)
    }

    /// Live result-cache entries, summed over shards.
    pub fn cache_len(&self) -> usize {
        self.shards.iter().map(|s| s.cache.len()).sum()
    }

    /// Total submission-queue depth, summed over shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.batcher.depth()).sum()
    }

    /// The shard owning `u` (out-of-range users route to shard 0 and
    /// are rejected at validation).
    fn owner_shard(&self, u: NodeId) -> usize {
        match &self.partition {
            Some(p) if u.index() < self.nodes => p.owner(u) as usize,
            _ => 0,
        }
    }

    // ---- read path -----------------------------------------------

    /// Answers one request synchronously.
    pub fn call(&self, req: Request) -> Reply {
        self.call_many(std::slice::from_ref(&req))
            .pop()
            .expect("one reply per request")
    }

    /// Answers a slice of requests synchronously, coalescing them into
    /// `max_batch`-sized batches. Replies come back in request order.
    pub fn call_many(&self, reqs: &[Request]) -> Vec<Reply> {
        let mut replies = Vec::with_capacity(reqs.len());
        for chunk in reqs.chunks(self.cfg.max_batch.max(1)) {
            let traces = chunk.iter().map(|_| TraceCapture::begin()).collect();
            replies.extend(self.answer_batch(chunk, traces));
        }
        replies
    }

    /// Enqueues a request on its owner shard's queue for the next
    /// [`pump`](Self::pump), shedding immediately if that queue is at
    /// capacity (the shed is charged to the owner shard). `deadline`
    /// (if any) is checked when the pump drains the request. When
    /// tracing is active the request draws a [`fui_obs::TraceId`] here,
    /// at admission, so queue wait is attributed from submission.
    pub fn submit(&self, req: Request, deadline: Option<Instant>) -> Result<Ticket, Reply> {
        let s = self.owner_shard(req.user);
        let r = self.shards[s]
            .batcher
            .submit(req, deadline, TraceCapture::begin());
        if r.is_err() {
            self.shards[s].shed.incr();
            self.shards[s].shed_queue_full.incr();
        }
        r
    }

    /// Drains up to `max_batch` requests from every shard's queue
    /// (shard id ascending), sheds the expired ones against their
    /// owner shard, and answers the rest as one scattered batch.
    /// Returns how many requests it answered. Callers drive this:
    /// tests and benches call it synchronously for determinism, the
    /// net front door's pump thread calls it whenever the event loop
    /// has handed it a ticket, and again until it returns 0.
    pub fn pump(&self) -> usize {
        let now = Instant::now();
        let mut live: Vec<Pending> = Vec::new();
        for shard in &self.shards {
            for p in shard.batcher.drain(self.cfg.max_batch) {
                if p.deadline.is_some_and(|d| now > d) {
                    self.metrics.shed.incr();
                    self.metrics.shed_deadline.incr();
                    shard.shed.incr();
                    shard.shed_deadline.incr();
                    if let Some(cap) = p.trace {
                        let queue_ns = u64::try_from(
                            now.saturating_duration_since(cap.started_at()).as_nanos(),
                        )
                        .unwrap_or(u64::MAX);
                        cap.finish(
                            trace_meta(&p.req),
                            TraceOutcome::ShedDeadline,
                            LatencyParts {
                                queue_ns,
                                ..LatencyParts::default()
                            },
                        );
                    }
                    let _ = p.tx.send(Reply::Overloaded);
                } else {
                    live.push(p);
                }
            }
        }
        let total = live.len();
        if total == 0 {
            return total;
        }
        let reqs: Vec<Request> = live.iter().map(|p| p.req).collect();
        let traces = live.iter_mut().map(|p| p.trace.take()).collect();
        let replies = self.answer_batch(&reqs, traces);
        for (p, reply) in live.into_iter().zip(replies) {
            let _ = p.tx.send(reply);
        }
        total
    }

    /// Answers one batch: plan scatter sets against the pinned
    /// snapshots, then probe → explore → compose → merge: probe each
    /// scattered shard's cache, explore every missed query once, run
    /// composition as one `fui-exec` fan-out *over shards* (queries are
    /// serial within a shard task — shards, not queries, are the unit
    /// of parallelism, so the reduction order is width-invariant), and
    /// merge per-shard partials through [`select_top_k`].
    ///
    /// `traces` runs parallel to `reqs`. A traced request's latency
    /// decomposition is queue wait (submission → batch entry, exact per
    /// request) plus the batch's shared cache / compute / scatter
    /// (planning + cross-shard merge) / assembly segments — the batch
    /// answers as a unit, so every member's end-to-end latency covers
    /// the whole batch, and the five parts sum to the recorded total
    /// *exactly* (assembly is defined as the remainder).
    fn answer_batch(&self, reqs: &[Request], traces: Vec<Option<TraceCapture>>) -> Vec<Reply> {
        let started = Instant::now();
        let _span = fui_obs::span!("service.request");
        let snaps: Vec<Arc<Snapshot>> = self.shards.iter().map(|s| s.store.load()).collect();
        let plan = Arc::clone(&self.plan.read().expect("scatter plan poisoned"));
        let lo = snaps.iter().map(|s| s.epoch).min().unwrap_or(0);
        let hi = snaps.iter().map(|s| s.epoch).max().unwrap_or(0);
        self.metrics.requests.add(reqs.len() as u64);
        self.metrics.batch_size.record(reqs.len() as u64);

        let mut traces = traces;
        let tracing = traces.iter().any(Option::is_some);
        if tracing {
            for cap in traces.iter_mut().flatten() {
                cap.event(TraceEventKind::BatchJoin, reqs.len() as u64);
                cap.event(TraceEventKind::SnapshotPin, hi);
            }
        }
        let mut cache_ns = 0u64;
        let mut compute_ns = 0u64;
        let mut scatter_ns = 0u64;
        let clock = |on: bool| if on { Some(Instant::now()) } else { None };
        let lap = |t0: Option<Instant>, acc: &mut u64| {
            if let Some(t0) = t0 {
                *acc += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
        };

        // Per-region lane accounting for the critical path: each
        // parallel region (probe, explore, compose) contributes its
        // lanes' total busy time and its slowest lane's. The batch's
        // critical path is `elapsed − Σ busy + Σ per-region max` —
        // what the batch costs on a host with `cores ≥ shards`, exact
        // when the lanes ran serially (`FUI_THREADS=1`).
        let mut lane_sum = 0u64;
        let mut lane_max = 0u64;

        // Phase 1: validate + scatter planning.
        let mut replies: Vec<Option<Reply>> = (0..reqs.len()).map(|_| None).collect();
        let mut scattered: Vec<Vec<usize>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let t0 = clock(tracing);
        for (i, req) in reqs.iter().enumerate() {
            if let Err(why) = validate(req, &snaps[0]) {
                replies[i] = Some(Reply::Rejected(why));
                continue;
            }
            let mask = plan.scatter(&snaps[0].graph, req.user, req.topic, lo, hi);
            self.metrics.fanout.add(u64::from(mask.count_ones()));
            for (s, shard) in self.shards.iter().enumerate() {
                if mask & (1 << s) != 0 {
                    shard.requests.incr();
                    scattered[s].push(i);
                }
            }
        }
        lap(t0, &mut scatter_ns);

        // Phase 2: per-shard cache probes — one parallel lane per
        // scattered shard. Probing is lane work (stamp validation
        // walks the met-landmark list), so the router never
        // serializes it across shards.
        let probe_shards: Vec<usize> = scattered
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(s, _)| s)
            .collect();
        let t0 = clock(tracing);
        let probed: Vec<(Vec<Option<RankedList>>, u64)> = fui_exec::par_map(&probe_shards, |&s| {
            let lane = Instant::now();
            let shard = &self.shards[s];
            let out: Vec<Option<RankedList>> = scattered[s]
                .iter()
                .map(|&i| shard.cache.get(key_of(&reqs[i]), &snaps[s]))
                .collect();
            let busy = u64::try_from(lane.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shard.busy_ns.fetch_add(busy, Ordering::Relaxed);
            (out, busy)
        });
        lane_sum += probed.iter().map(|p| p.1).sum::<u64>();
        lane_max += probed.iter().map(|p| p.1).max().unwrap_or(0);

        // One slot per (request, scattered shard), shard id ascending.
        struct Slot {
            shard: usize,
            hit: bool,
            value: Option<RankedList>,
        }
        let mut slots: Vec<Vec<Slot>> = (0..reqs.len()).map(|_| Vec::new()).collect();
        let mut tasks: Vec<(usize, Vec<usize>)> =
            (0..self.shards.len()).map(|s| (s, Vec::new())).collect();
        for (&s, (values, _)) in probe_shards.iter().zip(&probed) {
            for (&i, value) in scattered[s].iter().zip(values) {
                if value.is_none() {
                    tasks[s].1.push(i);
                }
                slots[i].push(Slot {
                    shard: s,
                    hit: value.is_some(),
                    value: value.clone(),
                });
            }
        }
        if tracing {
            for i in 0..reqs.len() {
                if replies[i].is_some() {
                    continue;
                }
                let all_hit = slots[i].iter().all(|p| p.hit);
                if let Some(cap) = traces[i].as_mut() {
                    cap.event(TraceEventKind::CacheProbe, u64::from(all_hit));
                }
            }
        }
        lap(t0, &mut cache_ns);

        // Phase 3: compute misses. Exploration never reads the
        // candidate mask or the stored lists, and all slices of one
        // index share the landmark mask and the graph `Arc` at a given
        // generation (`build_slices`), so the router explores each
        // missed query *once* per pinned generation (a staggered
        // publish can pin shards at two generations mid-rotation) and
        // every shard composes from the shared exploration — the
        // redundancy that made a serial fleet cost `shards ×`
        // exploration is gone. Exploration fans out over `shards`
        // chunk lanes (a fleet's parallelism budget is its shard
        // count); composition, stamping and cache inserts stay in the
        // owning shard's lane.
        let tasks: Vec<(usize, Vec<usize>)> =
            tasks.into_iter().filter(|(_, v)| !v.is_empty()).collect();
        if !tasks.is_empty() {
            self.metrics
                .queries
                .add(tasks.iter().map(|(_, v)| v.len() as u64).sum());
            if tracing {
                for (_, idxs) in &tasks {
                    for &i in idxs {
                        if let Some(cap) = traces[i].as_mut() {
                            cap.event(TraceEventKind::PropagateStart, idxs.len() as u64);
                        }
                    }
                }
            }
            let t0 = clock(tracing);
            // (generation, representative shard, missed queries).
            let mut groups: Vec<(u64, usize, Vec<usize>)> = Vec::new();
            for (s, idxs) in &tasks {
                let gen = snaps[*s].graph_gen;
                let g = match groups.iter().position(|(og, _, _)| *og == gen) {
                    Some(g) => g,
                    None => {
                        groups.push((gen, *s, Vec::new()));
                        groups.len() - 1
                    }
                };
                groups[g].2.extend(idxs.iter().copied());
            }
            for (_, _, qs) in &mut groups {
                qs.sort_unstable();
                qs.dedup();
            }
            self.metrics
                .explorations
                .add(groups.iter().map(|(_, _, qs)| qs.len() as u64).sum());
            let width = self.shards.len().max(1);
            let chunks: Vec<(usize, &[usize])> = groups
                .iter()
                .enumerate()
                .flat_map(|(g, (_, _, qs))| {
                    let per = qs.len().div_ceil(width).max(1);
                    qs.chunks(per).map(move |c| (g, c))
                })
                .collect();
            let explorations: Vec<(Vec<Exploration>, u64)> =
                fui_exec::par_map(&chunks, |(g, qs)| {
                    let lane = Instant::now();
                    let snap = &snaps[groups[*g].1];
                    let propagator = snap.propagator();
                    let mut rec = ApproxRecommender::new(&propagator, &snap.index);
                    rec.explore_depth = self.cfg.explore_depth;
                    let mut ws = self.workspaces.get_or(PropWorkspace::new);
                    let out: Vec<Exploration> = qs
                        .iter()
                        .map(|&i| rec.explore_with(&mut ws, reqs[i].user, reqs[i].topic))
                        .collect();
                    drop(ws);
                    let busy = u64::try_from(lane.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    (out, busy)
                });
            lane_sum += explorations.iter().map(|e| e.1).sum::<u64>();
            lane_max += explorations.iter().map(|e| e.1).max().unwrap_or(0);
            let mut ex_of: HashMap<(usize, u64), Exploration> =
                HashMap::with_capacity(explorations.iter().map(|(v, _)| v.len()).sum());
            for ((g, qs), (out, _)) in chunks.iter().zip(explorations) {
                let gen = groups[*g].0;
                for (&i, ex) in qs.iter().zip(out) {
                    ex_of.insert((i, gen), ex);
                }
            }

            let computed: Vec<(Vec<RankedList>, u64)> = fui_exec::par_map(&tasks, |(s, idxs)| {
                let lane = Instant::now();
                let snap = &snaps[*s];
                let propagator = snap.propagator();
                let mut rec = ApproxRecommender::new(&propagator, &snap.index);
                rec.explore_depth = self.cfg.explore_depth;
                rec.candidate_mask = self.shards[*s].owned.as_ref().map(|o| o.as_slice());
                let results: Vec<RankedList> = idxs
                    .iter()
                    .map(|&i| {
                        let ex = &ex_of[&(i, snap.graph_gen)];
                        let result = rec.compose_from(ex, reqs[i].topic, reqs[i].top_n);
                        // Stamping and caching are shard-local
                        // serving duties, so they run inside the
                        // shard's lane: the router's serial section
                        // stays planning and merges only.
                        let met: Vec<(u32, u64)> = result
                            .met_landmarks
                            .iter()
                            .map(|&l| {
                                let slot = snap.index.slot_of(l).expect("met node is a landmark");
                                (slot, snap.slot_versions[slot as usize])
                            })
                            .collect();
                        let value = Arc::new(result.recommendations);
                        self.shards[*s].cache.insert(
                            key_of(&reqs[i]),
                            Arc::clone(&value),
                            CacheStamp {
                                shard: *s as u32,
                                graph_gen: snap.graph_gen,
                                met,
                            },
                        );
                        value
                    })
                    .collect();
                let busy = u64::try_from(lane.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.shards[*s].busy_ns.fetch_add(busy, Ordering::Relaxed);
                (results, busy)
            });
            lane_sum += computed.iter().map(|c| c.1).sum::<u64>();
            lane_max += computed.iter().map(|c| c.1).max().unwrap_or(0);
            lap(t0, &mut compute_ns);

            // Phase 4: hand each fresh partial to its reply slot.
            let t0 = clock(tracing);
            for ((s, idxs), (results, _)) in tasks.iter().zip(computed) {
                for (&i, value) in idxs.iter().zip(results) {
                    let slot = slots[i]
                        .iter_mut()
                        .find(|slot| slot.shard == *s)
                        .expect("scattered slot exists");
                    slot.value = Some(value);
                }
            }
            lap(t0, &mut cache_ns);
        }

        // Phase 5: cross-shard merge. Per-shard partials rank disjoint
        // owned candidates, so `select_top_k`'s total order reassembles
        // the one-shard answer exactly.
        let t0 = clock(tracing);
        for (i, req) in reqs.iter().enumerate() {
            if replies[i].is_some() {
                continue;
            }
            let parts = &slots[i];
            let cached = parts.iter().all(|p| p.hit);
            let filled = |p: &Slot| Arc::clone(p.value.as_ref().expect("slot filled"));
            let recommendations = if parts.len() == 1 {
                filled(&parts[0])
            } else {
                self.metrics.merges.incr();
                Arc::new(select_top_k(
                    req.top_n,
                    parts
                        .iter()
                        .flat_map(|p| p.value.as_ref().expect("slot filled").iter().copied()),
                ))
            };
            replies[i] = Some(Reply::Result(Served {
                recommendations,
                epoch: hi,
                cached,
            }));
        }
        lap(t0, &mut scatter_ns);

        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.crit_ns.fetch_add(
            elapsed.saturating_sub(lane_sum) + lane_max,
            Ordering::Relaxed,
        );
        for _ in reqs {
            self.metrics.request_latency.record(elapsed);
        }
        if tracing {
            let assembly_ns = elapsed
                .saturating_sub(cache_ns)
                .saturating_sub(compute_ns)
                .saturating_sub(scatter_ns);
            for (i, cap) in traces.into_iter().enumerate() {
                let Some(cap) = cap else { continue };
                let outcome = match replies[i].as_ref() {
                    Some(Reply::Result(s)) if s.cached => TraceOutcome::OkCached,
                    Some(Reply::Result(_)) => TraceOutcome::Ok,
                    _ => TraceOutcome::Rejected,
                };
                let queue_ns = u64::try_from(
                    started
                        .saturating_duration_since(cap.started_at())
                        .as_nanos(),
                )
                .unwrap_or(u64::MAX);
                cap.finish(
                    trace_meta(&reqs[i]),
                    outcome,
                    LatencyParts {
                        queue_ns,
                        assembly_ns,
                        compute_ns,
                        cache_ns,
                        scatter_ns,
                    },
                );
            }
        }
        replies
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }

    // ---- write path ----------------------------------------------

    /// Records one follow/unfollow. The change is write-ahead
    /// journaled to its owner shard's WAL (to both owners' when the
    /// edge is cut) *before* memory moves, then buffered until the next
    /// [`rotate`](Self::rotate); staleness is charged to the landmarks
    /// immediately — one fleet-wide account, so answers stay
    /// shard-count-invariant — and any landmark the charge pushes past
    /// its threshold gets its cache version bumped right away (a new
    /// epoch is published so probes see it), conservatively retiring
    /// cached results that composed through the now-suspect entry. The
    /// owners' staggered-rotation priority is bumped too.
    pub fn record(&self, change: EdgeChange) -> Result<(), String> {
        let mut m = self.master.lock().expect("fleet master poisoned");
        validate_change(&m.graph, &change)?;
        let seq = m.applied_seq + 1;
        if let Some(sink) = m.durable.as_mut() {
            sink.append_change(seq, change, owners(self.partition.as_ref(), &change))
                .map_err(|e| format!("journal append failed: {e}"))?;
        }
        m.applied_seq = seq;
        self.apply_change_inner(&mut m, change);
        Ok(())
    }

    /// The in-memory effect of one (already journaled, already
    /// validated) change — shared by the live path and journal replay.
    fn apply_change_inner(&self, m: &mut FleetMaster, change: EdgeChange) {
        charge_pending(&self.shards, owners(self.partition.as_ref(), &change));
        let slots = m.dynamic.index().len();
        let was: Vec<bool> = (0..slots).map(|s| m.dynamic.is_stale(s)).collect();
        m.dynamic.record(&change);
        m.pending.push(change);
        let newly: Vec<usize> = (0..slots)
            .filter(|&s| !was[s] && m.dynamic.is_stale(s))
            .collect();
        if !newly.is_empty() {
            for s in newly {
                m.slot_versions[s] += 1;
            }
            m.epoch += 1;
            // The slices and the cut table are unchanged — only the
            // plan's epoch stamp moves with this publish.
            self.bump_plan_epoch(m.epoch);
            self.publish_all(m, false);
        }
    }

    /// Number of changes recorded but not yet rotated in (fleet-wide).
    pub fn pending_changes(&self) -> usize {
        self.master
            .lock()
            .expect("fleet master poisoned")
            .pending
            .len()
    }

    /// Applies all pending edge changes: rebuilds graph, authority
    /// index, similarity rows and the cut table, bumps `graph_gen`
    /// (retiring every cached result) and republishes every shard —
    /// staggered, busiest first. Landmark entries are *not* recomputed
    /// — the lazy policy keeps serving slightly stale lists until
    /// [`refresh`](Self::refresh), exactly the trade-off the paper
    /// anticipates for churning follow graphs. Never blocks in-flight
    /// queries; they finish on their old snapshot. A durable fleet
    /// checkpoints a snapshot here (rotation rebuilt the expensive
    /// indices, so a warm restart replays from this point, not from
    /// scratch). Returns the new epoch.
    pub fn rotate(&self) -> u64 {
        let _span = fui_obs::span!("service.rotate");
        let mut m = self.master.lock().expect("fleet master poisoned");
        let seq = m.applied_seq + 1;
        if let Some(sink) = m.durable.as_mut() {
            sink.append_fleet(seq, &JournalOp::Rotate)
                .expect("journal append failed");
        }
        m.applied_seq = seq;
        let epoch = self.rotate_inner(&mut m);
        if m.durable.is_some() {
            self.persist_locked(&mut m).expect("snapshot write failed");
        }
        epoch
    }

    fn rotate_inner(&self, m: &mut FleetMaster) -> u64 {
        self.metrics.rotations.incr();
        if !m.pending.is_empty() {
            let next = apply_changes(&m.graph, &m.pending);
            m.pending.clear();
            m.graph = Arc::new(next);
            m.authority = Arc::new(AuthorityIndex::build(&m.graph));
            m.sim_rows = Arc::new(SimRowCache::build(&m.graph, &m.sim));
        }
        m.graph_gen += 1;
        m.epoch += 1;
        self.rebuild_plan(m, true);
        self.publish_all(m, true);
        m.epoch
    }

    /// Recomputes every stale landmark against the current graph,
    /// re-slices the refreshed index per shard and republishes under a
    /// new epoch — staggered, no fleet-wide pause — bumping the
    /// refreshed slots' cache versions (results that never met those
    /// landmarks keep their cache entries). Returns how many entries
    /// were refreshed.
    pub fn refresh(&self) -> usize {
        let _span = fui_obs::span!("service.refresh");
        let mut m = self.master.lock().expect("fleet master poisoned");
        let seq = m.applied_seq + 1;
        if let Some(sink) = m.durable.as_mut() {
            sink.append_fleet(seq, &JournalOp::Refresh)
                .expect("journal append failed");
        }
        m.applied_seq = seq;
        self.refresh_inner(&mut m)
    }

    fn refresh_inner(&self, m: &mut FleetMaster) -> usize {
        let stale = m.dynamic.stale_slots();
        if stale.is_empty() {
            return 0;
        }
        let propagator = Propagator::with_sim_cache(
            &m.graph,
            &m.authority,
            Arc::clone(&m.sim_rows),
            m.params,
            m.variant,
        );
        let refreshed = m.dynamic.refresh_stale(&propagator);
        for &s in &stale {
            m.slot_versions[s] += 1;
        }
        m.index = Arc::new(m.dynamic.index().clone());
        m.slices = build_slices(&m.index, self.partition.as_ref());
        m.epoch += 1;
        self.rebuild_plan(m, false);
        self.publish_all(m, false);
        refreshed
    }

    /// Swaps in a plan rebuilt from the master's current slices; the
    /// cut table is recomputed only when the graph moved (`rebuild_cut`
    /// — rotations), otherwise the existing table is reused.
    fn rebuild_plan(&self, m: &FleetMaster, rebuild_cut: bool) {
        let (cut, cut_edges) = if rebuild_cut {
            cut_of(self.partition.as_ref(), &m.graph, &self.metrics)
        } else {
            let old = self.plan.read().expect("scatter plan poisoned");
            (old.cut.clone(), old.cut_edges)
        };
        let plan = ScatterPlan::build(
            m.epoch,
            cut,
            cut_edges,
            &m.slices,
            self.cfg.explore_depth > 2,
        );
        *self.plan.write().expect("scatter plan poisoned") = Arc::new(plan);
    }

    fn bump_plan_epoch(&self, epoch: u64) {
        let mut w = self.plan.write().expect("scatter plan poisoned");
        *w = Arc::new(ScatterPlan {
            epoch,
            ..ScatterPlan::clone(&w)
        });
    }

    /// Publishes every shard's snapshot for the master's current state,
    /// staggered: shards with the most recorded-but-unrotated changes
    /// publish first (ties toward the lowest id), one atomic pointer
    /// swap each, never a fleet-wide pause. `reset_pending` (rotations)
    /// clears each shard's counter as its publish lands.
    fn publish_all(&self, m: &FleetMaster, reset_pending: bool) {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        order.sort_by_key(|&s| (Reverse(self.shards[s].pending.load(Ordering::SeqCst)), s));
        for s in order {
            self.shards[s].store.publish(m.shard_snapshot(s));
            self.shards[s].epoch_gauge.set(m.epoch as f64);
            if reset_pending {
                self.shards[s].pending.store(0, Ordering::SeqCst);
            }
        }
    }

    // ---- durability ----------------------------------------------

    /// Replays merged journal records into the fleet master. Records
    /// at or below the current `applied_seq` are skipped — replaying a
    /// tail twice is bit-identical to replaying it once — and records
    /// whose change no longer validates against the graph are counted
    /// on `snapshot.persist.replay_rejected` rather than applied.
    /// Returns how many records were applied. Replay never journals
    /// (the records are already on disk).
    pub fn apply_journal(&self, records: &[JournalRecord]) -> usize {
        let mut m = self.master.lock().expect("fleet master poisoned");
        let mut applied = 0;
        for r in records {
            if r.seq <= m.applied_seq {
                continue;
            }
            m.applied_seq = r.seq;
            match r.op {
                JournalOp::Change(change) => {
                    if validate_change(&m.graph, &change).is_err() {
                        fui_obs::counter("snapshot.persist.replay_rejected").incr();
                        continue;
                    }
                    self.apply_change_inner(&mut m, change);
                }
                JournalOp::Rotate => {
                    self.rotate_inner(&mut m);
                }
                JournalOp::Refresh => {
                    self.refresh_inner(&mut m);
                }
            }
            applied += 1;
        }
        applied
    }

    /// Writes a full snapshot of the current master state to the
    /// durability directory (atomic temp-file + rename), pruning all
    /// but the newest `KEEP_SNAPSHOTS` files. Returns the journal
    /// position the snapshot captures and its encoded size. Errors
    /// with `Unsupported` on a non-durable fleet.
    pub fn persist(&self) -> std::io::Result<(u64, usize)> {
        let mut m = self.master.lock().expect("fleet master poisoned");
        self.persist_locked(&mut m)
    }

    fn persist_locked(&self, m: &mut FleetMaster) -> std::io::Result<(u64, usize)> {
        let Some(dir) = m.durable.as_ref().map(|s| s.dir.clone()) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "service is not durable",
            ));
        };
        let state = m.snapshot_state();
        let (_, bytes) = durable::write_snapshot_atomic(&dir, &state)?;
        prune_snapshots(&dir);
        Ok((state.applied_seq, bytes))
    }

    /// Dry-run warm restart against this fleet's own durability
    /// directory: decodes the newest valid snapshot, replays the
    /// journal tail into a throwaway twin (nothing on disk is touched)
    /// and reports `(epoch, graph_gen, applied_seq)` the twin reached.
    /// A healthy directory reports exactly this fleet's live values.
    pub fn restore_probe(&self) -> Result<(u64, u64, u64), String> {
        let (dir, sim) = {
            let m = self.master.lock().expect("fleet master poisoned");
            let Some(sink) = m.durable.as_ref() else {
                return Err("service is not durable".to_owned());
            };
            (sink.dir.clone(), m.sim.clone())
        };
        let probe = ShardedService::restore_inner(&dir, sim, self.cfg, self.spec(), false)
            .map_err(|e| e.to_string())?;
        let applied = probe.applied_seq();
        Ok((probe.epoch(), probe.graph_gen(), applied))
    }

    /// Journal position of the last applied mutation.
    pub fn applied_seq(&self) -> u64 {
        self.master
            .lock()
            .expect("fleet master poisoned")
            .applied_seq
    }

    /// Whether this fleet journals and snapshots to disk.
    pub fn is_durable(&self) -> bool {
        self.master
            .lock()
            .expect("fleet master poisoned")
            .durable
            .is_some()
    }

    // ---- introspection -------------------------------------------

    /// Takes an SLO checkpoint and reports current burn rates over the
    /// rolling window (latency arm: `service.request_latency` against
    /// the p99 target; shed arm: `service.shed` against the ceiling —
    /// see [`fui_obs::slo`]).
    pub fn slo(&self) -> SloReport {
        self.metrics.slo.observe()
    }

    /// The `n` slowest recently traced requests, slowest first (empty
    /// unless tracing is active — see [`fui_obs::trace`]).
    pub fn trace_slowest(&self, n: usize) -> Vec<RequestTrace> {
        fui_obs::trace::slowest(n)
    }

    /// Point-in-time fleet status: partitioner identity, current cut
    /// size, one row per shard.
    pub fn status(&self) -> FleetStatus {
        FleetStatus {
            strategy: self.spec.strategy.as_str(),
            cut_edges: self.plan.read().expect("scatter plan poisoned").cut_edges,
            crit_ns: self.crit_ns.load(Ordering::Relaxed),
            shards: self.shards.iter().map(|s| s.status()).collect(),
        }
    }
}
