//! The serving engine: N serving lanes, each answering the queries of
//! the users it owns. There is no second, "unsharded" engine —
//! [`Service`](crate::Service) is this engine fixed at one shard.
//!
//! A [`ShardedService`] owns a *master* copy of the mutable state
//! (graph, pending edge changes, [`DynamicLandmarks`] staleness
//! accounting) behind one mutex that **no query ever takes**, one
//! [`SnapshotStore`] that queries read, and one `Shard` lane per shard
//! (result cache, admission queue).
//!
//! Determinism contract: [`ShardedService::call`],
//! [`ShardedService::call_many`] and the `submit`/`pump` pair produce
//! byte-identical recommendation lists at any `FUI_THREADS` width and
//! any shard count, and identical `service.*` counter deltas at any
//! width, because every parallel region reduces in index order and
//! every cache operation runs serially in request order. The
//! conformance invariants `check_cached_matches_uncached` (engine vs a
//! bare `ApproxRecommender` on the published snapshot) and
//! `check_sharded_matches_unsharded` (1 vs 2 vs 4 shards), and the
//! `serve_micro` / `shard_micro` CI gates, all lean on this.
//!
//! # Owner lanes
//!
//! An answer is a function of the graph, the landmark index and
//! `(u, t)` only (the paper's Algorithm 2), so a query is answered
//! once, by the lane that owns its user. The owner is a stateless hash
//! of the user id ([`Partition::owner`]): `submit` queues the request
//! there, and `answer_batch` probes that lane's cache and, on a miss,
//! runs one fused [`ApproxRecommender::recommend_with`] on the batch's
//! pinned snapshot. The misses of a batch are computed in one
//! `fui-exec` fan-out over query chunks sized by the pool width, not
//! by the shard count.
//!
//! A key is cached once, in its owner's cache, so a fleet's effective
//! result-cache capacity is `shards × cache_capacity`.
//!
//! # One snapshot, one journal
//!
//! Everything except the caches and queues is fleet-wide. Mutations
//! journal and apply once at the fleet master, and every rotate,
//! refresh or staleness flag publishes once, to the one store: a batch
//! pins one snapshot and every lane answers on it. A durable fleet
//! writes one directory at every shard count — snapshot files plus
//! one `journal.fuiwal` holding every op once, in sequence (the
//! [`crate::durable`] module docs give the formats and list what
//! restore rebuilds). Nothing on disk names a shard, so a directory
//! written by any shard count restores under any other: sharding is
//! answer-invisible.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fui_core::{AuthorityIndex, PropWorkspace, Propagator, ScoreParams, ScoreVariant, SimRowCache};
use fui_graph::{NodeId, Partition, PartitionStrategy, SocialGraph};
use fui_landmarks::{ApproxRecommender, DynamicLandmarks, EdgeChange, LandmarkIndex};
use fui_obs::{
    Counter, Hist, LatencyParts, RequestTrace, SloConfig, SloReport, SloTracker, TraceCapture,
    TraceEventKind, TraceOutcome,
};
use fui_taxonomy::SimMatrix;

use crate::batch::{trace_meta, Pending, Ticket};
use crate::cache::CacheStamp;
use crate::durable::{self, JournalOp, JournalRecord, SnapshotState};
use crate::service::{
    key_of, prune_snapshots, validate, Reply, Request, RestoreError, Served, ServiceConfig,
};
use crate::shard::{FleetStatus, Shard};
use crate::snapshot::{apply_changes, Snapshot, SnapshotStore};

/// A shared, immutable ranked recommendation list — the unit the
/// cache stores and a reply carries.
type RankedList = Arc<Vec<(NodeId, f64)>>;

/// Fewest cache misses one compute chunk carries. A pool call costs a
/// thread spawn per lane (`exec.par_map_floor_us`, ~50–64 µs) against
/// ~12 µs per cold query (`core.workspace.warm_query_us`); at 32 misses
/// a chunk does about six spawns' worth of work. A batch with fewer
/// than twice this many misses runs inline on the caller's thread.
const MIN_CHUNK: usize = 32;

/// How a [`ShardedService`] assigns users to lanes.
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

/// `service.*` and fleet-wide `service.shard.*` handles, resolved once
/// at construction — the request hot path never takes the registry's
/// name-lookup lock. (The per-lane `.N.` handles live on each
/// [`Shard`].)
pub(crate) struct FleetMetrics {
    requests: Counter,
    pub(crate) shed: Counter,
    shed_deadline: Counter,
    rotations: Counter,
    batch_size: Hist,
    pub(crate) request_latency: Hist,
    slo: SloTracker,
    /// Lanes routed to, over all valid requests (one each).
    fanout: Counter,
    /// Explorations run: one per cache miss, on its owner lane.
    explorations: Counter,
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
            explorations: fui_obs::counter("service.shard.explorations"),
        }
    }
}

/// The write side of fleet durability: the directory the snapshots go
/// to and its one journal.
struct FleetSink {
    dir: PathBuf,
    wal: std::fs::File,
}

/// Opens the journal at `path` for appending after its first
/// `valid_len` bytes — the decoded prefix; `torn` says a partial record
/// follows it.
fn open_journal(path: &Path, valid_len: usize, torn: bool) -> std::io::Result<std::fs::File> {
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

impl FleetSink {
    /// Appends one framed record and flushes it to the OS. Called
    /// *before* the in-memory mutation it describes, so a crash at any
    /// later point replays the mutation from disk.
    fn append(&mut self, seq: u64, op: &JournalOp) -> std::io::Result<()> {
        let frame = durable::encode_record(seq, op);
        self.wal.write_all(&frame)?;
        self.wal.flush()?;
        fui_obs::counter("snapshot.persist.journal_appends").incr();
        fui_obs::counter("snapshot.persist.journal_bytes").add(frame.len() as u64);
        Ok(())
    }
}

/// Mutable fleet master state — one lock, never taken by queries. One
/// staleness account and one epoch discipline whatever the shard count
/// (answers must not depend on it).
struct FleetMaster {
    graph: Arc<SocialGraph>,
    authority: Arc<AuthorityIndex>,
    sim_rows: Arc<SimRowCache>,
    index: Arc<LandmarkIndex>,
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
    /// The publication of the current state.
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            shard: 0,
            epoch: self.epoch,
            graph_gen: self.graph_gen,
            slot_versions: self.slot_versions.clone(),
            graph: Arc::clone(&self.graph),
            authority: Arc::clone(&self.authority),
            sim_rows: Arc::clone(&self.sim_rows),
            index: Arc::clone(&self.index),
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

/// The online serving engine: N serving lanes, each answering its own
/// users' queries, bit-identically at every shard count — the
/// `service-sharded` conformance invariant holds it to exactly that.
/// See the module docs.
pub struct ShardedService {
    master: Mutex<FleetMaster>,
    /// The one published snapshot every lane answers on.
    store: SnapshotStore,
    pub(crate) shards: Vec<Shard>,
    /// The owner map: which lane queues, answers and caches a user.
    partition: Partition,
    spec: ShardSpec,
    cfg: ServiceConfig,
    metrics: FleetMetrics,
    /// One propagation workspace per pool worker, persistent across
    /// batches: 8 B/node of stamp array (8 MB at 1M nodes) plus the
    /// largest reached set, faulted in once per worker instead of once
    /// per compute chunk. Reuse is answer-invisible (a run starts by
    /// bumping the epoch and clearing the compact arrays — the
    /// `workspace_reuse_bit_equality` conformance test pins that).
    workspaces: fui_exec::WorkerLocal<PropWorkspace>,
    /// Cumulative critical path: per batch, the wall time minus the
    /// compute chunks' summed busy time plus the slowest chunk's — the
    /// batch latency on a host with a core per chunk. Exact when the
    /// chunks actually ran serially (`FUI_THREADS=1`). A batch computed
    /// in one chunk adds its wall time. [`FleetStatus::crit_ns`]
    /// surfaces it.
    crit_ns: AtomicU64,
}

impl ShardedService {
    /// Builds a fleet over `graph`: authority index, similarity rows
    /// and the landmark index are precomputed once here (the landmark
    /// build fans out over the `fui-exec` pool) and published as epoch
    /// 0 to the store all `spec.shards` lanes read.
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

    fn assemble(master: FleetMaster, cfg: ServiceConfig, spec: ShardSpec) -> ShardedService {
        let partition = Partition::build(&master.graph, spec.shards, spec.strategy);
        let metrics = FleetMetrics::new();
        let shards = (0..spec.shards)
            .map(|s| Shard::new(s as u32, &cfg, &metrics))
            .collect();
        ShardedService {
            store: SnapshotStore::new(master.snapshot()),
            master: Mutex::new(master),
            shards,
            partition,
            spec,
            cfg,
            metrics,
            workspaces: fui_exec::WorkerLocal::new(),
            crit_ns: AtomicU64::new(0),
        }
    }

    /// [`ShardedService::new`], then durability: `dir` is created if
    /// absent and emptied of any earlier durable service's files (its
    /// snapshots, their temp files, its journal and any legacy
    /// `shard-NNNN/` directory — use [`restore`](Self::restore) to
    /// *resume* a directory), then the epoch-0 snapshot and an empty
    /// journal are written. Every subsequent [`record`](Self::record),
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
        durable::clear_dir(dir)?;
        {
            let mut m = fleet.master.lock().expect("fleet master poisoned");
            durable::write_snapshot_atomic(dir, &m.snapshot_state())?;
            let wal = open_journal(&dir.join(durable::JOURNAL_FILE), 0, false)?;
            m.durable = Some(FleetSink {
                dir: dir.to_path_buf(),
                wal,
            });
        }
        Ok(fleet)
    }

    /// Warm restart: scans `dir` for the newest snapshot that decodes
    /// cleanly *and* whose file name agrees with its header position
    /// (each rejected candidate bumps `snapshot.persist.fallbacks`),
    /// rebuilds the derived state the codec does not carry, then
    /// replays the journal tail in file order. `spec` may differ from
    /// the writing fleet's — sharding never shows in answers or on
    /// disk. A torn journal tail is dropped and truncated away; a tail
    /// that skips a sequence number is a typed error, never a silent
    /// skip, and so is a directory holding a `shard-NNNN` entry of the
    /// retired per-shard journal layout
    /// ([`RestoreError::LegacyLayout`]).
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
        for entry in std::fs::read_dir(dir).map_err(io_err)? {
            let name = entry.map_err(io_err)?.file_name();
            if name.to_str().is_some_and(durable::is_legacy_shard_entry) {
                return Err(RestoreError::LegacyLayout);
            }
        }
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

        let wal_path = dir.join(durable::JOURNAL_FILE);
        let raw = std::fs::read(&wal_path).unwrap_or_default();
        let (records, valid_len, torn) = if raw.is_empty() {
            (Vec::new(), 0, None)
        } else {
            durable::decode_journal_prefix(&raw)
        };
        if torn.is_some() {
            fui_obs::counter("snapshot.persist.journal_torn").incr();
        }
        let records: Vec<JournalRecord> =
            records.into_iter().filter(|r| r.seq > base_seq).collect();
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
            let wal = open_journal(&wal_path, valid_len, torn.is_some()).map_err(io_err)?;
            fleet.master.lock().expect("fleet master poisoned").durable = Some(FleetSink {
                dir: dir.to_path_buf(),
                wal,
            });
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

    /// The currently published snapshot: the graph, authority index,
    /// similarity rows and landmark index every lane answers on.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.load()
    }

    /// Epoch of the published snapshot.
    pub fn epoch(&self) -> u64 {
        self.store.load().epoch
    }

    /// Graph generation of the published snapshot.
    pub fn graph_gen(&self) -> u64 {
        self.store.load().graph_gen
    }

    /// Live result-cache entries, summed over shards.
    pub fn cache_len(&self) -> usize {
        self.shards.iter().map(|s| s.cache.len()).sum()
    }

    /// Total submission-queue depth, summed over shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.batcher.depth()).sum()
    }

    /// The lane owning `u` (an out-of-range user routes like any other
    /// and is rejected at validation).
    fn owner_shard(&self, u: NodeId) -> usize {
        self.partition.owner(u) as usize
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
    /// owner shard, and answers the rest as one batch.
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

    /// Answers one batch on its users' owner lanes: pin the one
    /// published snapshot, validate and route, probe each request's
    /// owner cache, compute every miss once — one fused
    /// [`ApproxRecommender::recommend_with`] on the pinned snapshot, in
    /// one `fui-exec` fan-out over query chunks — and insert the fresh
    /// lists into their owners' caches. Probes and inserts run serially
    /// in request order, so each cache sees the same operation sequence
    /// at any pool width.
    ///
    /// `traces` runs parallel to `reqs`. A traced request's latency
    /// decomposition is queue wait (submission → batch entry, exact per
    /// request) plus the batch's shared cache / compute / scatter
    /// (validation and routing) / assembly segments — the batch answers
    /// as a unit, so every member's end-to-end latency covers the whole
    /// batch, and the five parts sum to the recorded total *exactly*
    /// (assembly is defined as the remainder).
    fn answer_batch(&self, reqs: &[Request], traces: Vec<Option<TraceCapture>>) -> Vec<Reply> {
        let started = Instant::now();
        let _span = fui_obs::span!("service.request");
        let snap = self.store.load();
        self.metrics.requests.add(reqs.len() as u64);
        self.metrics.batch_size.record(reqs.len() as u64);

        let mut traces = traces;
        let tracing = traces.iter().any(Option::is_some);
        if tracing {
            for cap in traces.iter_mut().flatten() {
                cap.event(TraceEventKind::BatchJoin, reqs.len() as u64);
                cap.event(TraceEventKind::SnapshotPin, snap.epoch);
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

        // Validate and route: each valid request goes to its owner lane.
        let t0 = clock(tracing);
        let owner: Vec<Result<usize, String>> = reqs
            .iter()
            .map(|req| {
                validate(req, &snap)?;
                let s = self.owner_shard(req.user);
                self.shards[s].requests.incr();
                Ok(s)
            })
            .collect();
        self.metrics
            .fanout
            .add(owner.iter().filter(|o| o.is_ok()).count() as u64);
        lap(t0, &mut scatter_ns);

        // Probe each request's owner cache.
        let t0 = clock(tracing);
        let mut lists: Vec<Option<RankedList>> = reqs
            .iter()
            .zip(&owner)
            .map(|(req, o)| {
                let &s = o.as_ref().ok()?;
                self.shards[s].cache.get(key_of(req), &snap)
            })
            .collect();
        let cached: Vec<bool> = lists.iter().map(Option::is_some).collect();
        // (request, owner lane) of every valid request the probe missed.
        let misses: Vec<(usize, usize)> = owner
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().ok().filter(|_| !cached[i]).map(|&s| (i, s)))
            .collect();
        if tracing {
            for (i, cap) in traces.iter_mut().enumerate() {
                if let (Some(cap), true) = (cap.as_mut(), owner[i].is_ok()) {
                    cap.event(TraceEventKind::CacheProbe, u64::from(cached[i]));
                }
            }
        }
        lap(t0, &mut cache_ns);

        // Compute every miss once, on the pinned snapshot, in chunks of
        // at least `MIN_CHUNK` misses, at most one per pool worker. Busy
        // time is charged per query to the owner lane.
        let mut lane_sum = 0u64;
        let mut lane_max = 0u64;
        if !misses.is_empty() {
            self.metrics.explorations.add(misses.len() as u64);
            if tracing {
                for &(i, _) in &misses {
                    if let Some(cap) = traces[i].as_mut() {
                        cap.event(TraceEventKind::PropagateStart, misses.len() as u64);
                    }
                }
            }
            let t0 = clock(tracing);
            let propagator = snap.propagator();
            let mut recommender = ApproxRecommender::new(&propagator, &snap.index);
            recommender.explore_depth = self.cfg.explore_depth;
            let lanes = (misses.len() / MIN_CHUNK).clamp(1, fui_exec::threads());
            let chunks: Vec<&[(usize, usize)]> =
                misses.chunks(misses.len().div_ceil(lanes)).collect();
            let computed: Vec<(Vec<(RankedList, CacheStamp)>, u64)> =
                fui_exec::par_map(&chunks, |chunk| {
                    let lane = Instant::now();
                    let mut mark = lane;
                    let mut ws = self.workspaces.get_or(PropWorkspace::new);
                    let out = chunk
                        .iter()
                        .map(|&(i, s)| {
                            let req = &reqs[i];
                            let result =
                                recommender.recommend_with(&mut ws, req.user, req.topic, req.top_n);
                            let met = result
                                .met_landmarks
                                .iter()
                                .map(|&l| {
                                    let slot =
                                        snap.index.slot_of(l).expect("met node is a landmark");
                                    (slot, snap.slot_versions[slot as usize])
                                })
                                .collect();
                            let stamp = CacheStamp {
                                shard: 0,
                                graph_gen: snap.graph_gen,
                                met,
                            };
                            let now = Instant::now();
                            let busy = u64::try_from((now - mark).as_nanos()).unwrap_or(u64::MAX);
                            self.shards[s].busy_ns.fetch_add(busy, Ordering::Relaxed);
                            mark = now;
                            (Arc::new(result.recommendations), stamp)
                        })
                        .collect();
                    (
                        out,
                        u64::try_from((mark - lane).as_nanos()).unwrap_or(u64::MAX),
                    )
                });
            lap(t0, &mut compute_ns);
            lane_sum = computed.iter().map(|c| c.1).sum();
            lane_max = computed.iter().map(|c| c.1).max().unwrap_or(0);

            let t0 = clock(tracing);
            let fresh = computed.into_iter().flat_map(|c| c.0);
            for (&(i, s), (value, stamp)) in misses.iter().zip(fresh) {
                self.shards[s]
                    .cache
                    .insert(key_of(&reqs[i]), Arc::clone(&value), stamp);
                lists[i] = Some(value);
            }
            lap(t0, &mut cache_ns);
        }

        let replies: Vec<Reply> = owner
            .into_iter()
            .zip(lists)
            .zip(cached)
            .map(|((o, list), cached)| match o {
                Err(why) => Reply::Rejected(why),
                Ok(_) => Reply::Result(Served {
                    recommendations: list.expect("every valid request answered"),
                    epoch: snap.epoch,
                    cached,
                }),
            })
            .collect();

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
                let outcome = match &replies[i] {
                    Reply::Result(s) if s.cached => TraceOutcome::OkCached,
                    Reply::Result(_) => TraceOutcome::Ok,
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
    }

    // ---- write path ----------------------------------------------

    /// Records one follow/unfollow. The change is write-ahead
    /// journaled *before* memory moves, then buffered until the next
    /// [`rotate`](Self::rotate); staleness is charged to the landmarks
    /// immediately — one fleet-wide account, so answers stay
    /// shard-count-invariant — and any landmark the charge pushes past
    /// its threshold gets its cache version bumped right away (a new
    /// epoch is published so probes see it), conservatively retiring
    /// cached results that composed through the now-suspect entry.
    pub fn record(&self, change: EdgeChange) -> Result<(), String> {
        let mut m = self.master.lock().expect("fleet master poisoned");
        validate_change(&m.graph, &change)?;
        let seq = m.applied_seq + 1;
        if let Some(sink) = m.durable.as_mut() {
            sink.append(seq, &JournalOp::Change(change))
                .map_err(|e| format!("journal append failed: {e}"))?;
        }
        m.applied_seq = seq;
        self.apply_change_inner(&mut m, change);
        Ok(())
    }

    /// The in-memory effect of one (already journaled, already
    /// validated) change — shared by the live path and journal replay.
    fn apply_change_inner(&self, m: &mut FleetMaster, change: EdgeChange) {
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
            self.store.publish(m.snapshot());
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
    /// index and similarity rows, bumps `graph_gen` (retiring every
    /// cached result) and publishes once. Landmark entries are *not*
    /// recomputed — the lazy policy keeps serving slightly stale lists
    /// until [`refresh`](Self::refresh), exactly the trade-off the
    /// paper anticipates for churning follow graphs. Never blocks
    /// in-flight queries; they finish on their old snapshot. A durable
    /// fleet checkpoints a snapshot here (rotation rebuilt the
    /// expensive indices, so a warm restart replays from this point,
    /// not from scratch). Returns the new epoch.
    pub fn rotate(&self) -> u64 {
        let _span = fui_obs::span!("service.rotate");
        let mut m = self.master.lock().expect("fleet master poisoned");
        let seq = m.applied_seq + 1;
        if let Some(sink) = m.durable.as_mut() {
            sink.append(seq, &JournalOp::Rotate)
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
        self.store.publish(m.snapshot());
        m.epoch
    }

    /// Recomputes every stale landmark against the current graph and
    /// publishes the refreshed index under a new epoch, bumping the
    /// refreshed slots' cache versions (results that never met those
    /// landmarks keep their cache entries). Returns how many entries
    /// were refreshed.
    pub fn refresh(&self) -> usize {
        let _span = fui_obs::span!("service.refresh");
        let mut m = self.master.lock().expect("fleet master poisoned");
        let seq = m.applied_seq + 1;
        if let Some(sink) = m.durable.as_mut() {
            sink.append(seq, &JournalOp::Refresh)
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
        m.epoch += 1;
        self.store.publish(m.snapshot());
        refreshed
    }

    // ---- durability ----------------------------------------------

    /// Replays journal records into the fleet master. Records at or
    /// below the current `applied_seq` are skipped — replaying a tail
    /// twice is bit-identical to replaying it once — and records whose
    /// change no longer validates against the graph are counted on
    /// `snapshot.persist.replay_rejected` rather than applied. Returns
    /// how many records were applied. Replay never journals (the
    /// records are already on disk).
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

    /// Point-in-time fleet status: owner-map identity, the published
    /// snapshot's position, one row per lane.
    pub fn status(&self) -> FleetStatus {
        let snap = self.store.load();
        FleetStatus {
            strategy: self.spec.strategy.as_str(),
            epoch: snap.epoch,
            graph_gen: snap.graph_gen,
            crit_ns: self.crit_ns.load(Ordering::Relaxed),
            shards: self.shards.iter().map(|s| s.status()).collect(),
        }
    }
}
