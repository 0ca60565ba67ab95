//! The serving engine, [`Service`], with its request/reply types and
//! configuration.
//!
//! A [`Service`] owns a *master* copy of the mutable state (graph,
//! pending edge changes, [`DynamicLandmarks`] staleness accounting)
//! behind one mutex that **no query ever takes**, one [`SnapshotStore`]
//! that queries read, one generation-stamped [`ResultCache`] and one
//! bounded admission queue.
//!
//! An answer is a function of the graph, the landmark index and
//! `(u, t)` only (the paper's Algorithm 2). `submit` queues a request;
//! `pump` drains at most `max_batch` of them; `answer_batch` pins the
//! published snapshot, validates, probes the cache and computes every
//! miss with one fused [`ApproxRecommender::recommend_with`], in one
//! `fui-exec` fan-out over query chunks of at least `MIN_CHUNK`
//! misses, then inserts the fresh lists.
//!
//! Determinism contract: [`Service::call`], [`Service::call_many`] and
//! the `submit`/`pump` pair produce byte-identical recommendation lists
//! and identical `service.*` counter deltas at any `FUI_THREADS` width,
//! because every parallel region reduces in index order and every cache
//! operation runs serially in request order. The conformance invariant
//! `check_cached_matches_uncached` (the engine against a bare
//! `ApproxRecommender` on the published snapshot) and the `serve_micro`
//! CI gate lean on this.
//!
//! # One snapshot, one journal
//!
//! Mutations journal and apply once at the master, and every rotate,
//! refresh or staleness flag publishes once, to the one store: a batch
//! pins one snapshot. A durable service writes snapshot files plus one
//! `journal.fuiwal` holding every op once, in sequence (the
//! [`crate::durable`] module docs give the formats and list what
//! restore rebuilds).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use fui_core::{AuthorityIndex, PropWorkspace, Propagator, ScoreParams, ScoreVariant, SimRowCache};
use fui_graph::{NodeId, SocialGraph};
use fui_landmarks::{ApproxRecommender, DynamicLandmarks, EdgeChange, LandmarkIndex};
use fui_obs::{
    Counter, Hist, LatencyParts, RequestTrace, SloConfig, SloReport, SloTracker, TraceCapture,
    TraceEventKind, TraceOutcome,
};
use fui_taxonomy::{SimMatrix, Topic};

use crate::batch::{trace_meta, Batcher, Ticket};
use crate::cache::{CacheKey, CacheStamp, ResultCache};
use crate::durable::{self, JournalOp, JournalRecord, SnapshotState};
use crate::legacy;
use crate::snapshot::{apply_changes, Snapshot, SnapshotStore};

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
    /// Max requests one [`Service::pump`] drains and one batch answers.
    pub max_batch: usize,
    /// Admission-control bound on the submission queue.
    pub queue_capacity: usize,
    /// Total result-cache entries.
    pub cache_capacity: usize,
    /// Result-cache lock stripes (see [`ResultCache::new`]).
    pub cache_shards: usize,
    /// Landmark staleness threshold (see [`fui_landmarks::DynamicLandmarks`]).
    pub refresh_threshold: f64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_batch: 64,
            queue_capacity: 256,
            cache_capacity: 4096,
            cache_shards: 8,
            refresh_threshold: 0.1,
        }
    }
}

/// Staleness charged to every landmark per change, however far away
/// (see [`fui_landmarks::DynamicLandmarks`]).
const BACKGROUND_IMPACT: f64 = 1e-9;

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
    /// The journal skips a sequence number: a record between the
    /// snapshot and `found` is missing, and replaying across the hole
    /// would silently lose it.
    JournalGap {
        /// The sequence number replay needed next.
        expected: u64,
        /// The next one the journal actually holds.
        found: u64,
    },
    /// The directory holds a `shard-NNNN` entry: it was written by the
    /// retired layout that kept one change journal per shard, and
    /// restoring without those records would lose acknowledged writes.
    LegacyLayout,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "durability directory unusable: {e}"),
            RestoreError::NoValidSnapshot => write!(f, "no valid snapshot on disk"),
            RestoreError::JournalGap { expected, found } => {
                write!(f, "journal gap: record {expected} missing before {found}")
            }
            RestoreError::LegacyLayout => {
                write!(f, "directory has per-shard journals (shard-NNNN/)")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// A shared, immutable ranked recommendation list — the unit the
/// cache stores and a reply carries.
type RankedList = Arc<Vec<(NodeId, f64)>>;

/// Fewest cache misses one compute chunk carries. A pool call costs a
/// thread spawn per worker (`exec.par_map_floor_us`, ~50–64 µs) against
/// ~12 µs per cold query (`core.workspace.warm_query_us`); at 32 misses
/// a chunk does about six spawns' worth of work. A batch with fewer
/// than twice this many misses runs inline on the caller's thread.
const MIN_CHUNK: usize = 32;

/// `service.*` handles, resolved once at construction — the request hot
/// path never takes the registry's name-lookup lock.
struct Metrics {
    requests: Counter,
    shed: Counter,
    shed_deadline: Counter,
    rotations: Counter,
    batch_size: Hist,
    request_latency: Hist,
    slo: SloTracker,
    /// Valid requests (one each).
    valid: Counter,
    /// Explorations run: one per cache miss.
    explorations: Counter,
}

impl Metrics {
    fn new() -> Metrics {
        let requests = fui_obs::counter("service.requests");
        let shed = fui_obs::counter("service.shed");
        let request_latency = fui_obs::hist("service.request_latency");
        Metrics {
            requests,
            shed,
            shed_deadline: fui_obs::counter("service.shed.deadline"),
            rotations: fui_obs::counter("service.snapshot.rotations"),
            batch_size: fui_obs::hist("service.batch.size"),
            request_latency,
            slo: SloTracker::new(SloConfig::from_env(), request_latency, requests, shed),
            valid: fui_obs::counter(legacy::FANOUT_COUNTER),
            explorations: fui_obs::counter(legacy::EXPLORATIONS_COUNTER),
        }
    }
}

/// The write side of durability: the directory the snapshots go to and
/// its one journal.
struct Sink {
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

/// The journal's counter handles, resolved once: an append never takes
/// the registry's name-lookup lock.
struct JournalMetrics {
    appends: Counter,
    bytes: Counter,
}

fn journal_metrics() -> &'static JournalMetrics {
    static METRICS: OnceLock<JournalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| JournalMetrics {
        appends: fui_obs::counter("snapshot.persist.journal_appends"),
        bytes: fui_obs::counter("snapshot.persist.journal_bytes"),
    })
}

impl Sink {
    /// Appends one framed record and flushes it to the OS. Called
    /// *before* the in-memory mutation it describes, so a crash at any
    /// later point replays the mutation from disk.
    fn append(&mut self, seq: u64, op: &JournalOp) -> std::io::Result<()> {
        let frame = durable::encode_record(seq, op);
        self.wal.write_all(&frame)?;
        self.wal.flush()?;
        let metrics = journal_metrics();
        metrics.appends.incr();
        metrics.bytes.add(frame.len() as u64);
        Ok(())
    }
}

/// Mutable master state — one lock, never taken by queries.
struct Master {
    graph: Arc<SocialGraph>,
    authority: Arc<AuthorityIndex>,
    sim_rows: Arc<SimRowCache>,
    sim: SimMatrix,
    /// The landmark index, held here once; snapshots share it.
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
    durable: Option<Sink>,
}

impl Master {
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
            index: Arc::clone(self.dynamic.shared_index()),
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

/// The online serving engine. See the module docs.
pub struct Service {
    master: Mutex<Master>,
    /// The one published snapshot every batch pins.
    store: SnapshotStore,
    cache: ResultCache,
    batcher: Batcher,
    cfg: ServiceConfig,
    metrics: Metrics,
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
    /// in one chunk adds its wall time.
    pub(crate) crit_ns: AtomicU64,
}

impl Service {
    /// Builds a service over `graph`: authority index, similarity rows
    /// and the landmark index are precomputed once here (the landmark
    /// build fans out over the `fui-exec` pool) and published as epoch
    /// 0.
    pub fn new(
        graph: SocialGraph,
        sim: SimMatrix,
        params: ScoreParams,
        variant: ScoreVariant,
        landmarks: Vec<NodeId>,
        stored_top_n: usize,
        cfg: ServiceConfig,
    ) -> Service {
        let graph = Arc::new(graph);
        let authority = Arc::new(AuthorityIndex::build(&graph));
        let sim_rows = Arc::new(SimRowCache::build(&graph, &sim));
        let propagator =
            Propagator::with_sim_cache(&graph, &authority, Arc::clone(&sim_rows), params, variant);
        let index = LandmarkIndex::build(&propagator, landmarks, stored_top_n);
        let slots = index.len();
        let dynamic =
            DynamicLandmarks::with_policy(index, cfg.refresh_threshold, BACKGROUND_IMPACT);
        let master = Master {
            graph,
            authority,
            sim_rows,
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
        Service::assemble(master, cfg)
    }

    fn assemble(master: Master, cfg: ServiceConfig) -> Service {
        let metrics = Metrics::new();
        Service {
            store: SnapshotStore::new(master.snapshot()),
            master: Mutex::new(master),
            cache: ResultCache::new(cfg.cache_capacity, cfg.cache_shards),
            batcher: Batcher::new(
                cfg.queue_capacity,
                metrics.shed,
                fui_obs::counter("service.shed.queue_full"),
                fui_obs::counter("service.shed.disconnect"),
            ),
            cfg,
            metrics,
            workspaces: fui_exec::WorkerLocal::new(),
            crit_ns: AtomicU64::new(0),
        }
    }

    /// [`Service::new`], then durability: `dir` is created if absent
    /// and emptied of any earlier durable service's files (its
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
        dir: &Path,
    ) -> std::io::Result<Service> {
        let svc = Service::new(graph, sim, params, variant, landmarks, stored_top_n, cfg);
        std::fs::create_dir_all(dir)?;
        durable::clear_dir(dir)?;
        {
            let mut m = svc.master.lock().expect("service master poisoned");
            durable::write_snapshot_atomic(dir, &m.snapshot_state())?;
            let wal = open_journal(&dir.join(durable::JOURNAL_FILE), 0, false)?;
            m.durable = Some(Sink {
                dir: dir.to_path_buf(),
                wal,
            });
        }
        Ok(svc)
    }

    /// Warm restart: scans `dir` for the newest snapshot that decodes
    /// cleanly *and* whose file name agrees with its header position
    /// (each rejected candidate bumps `snapshot.persist.fallbacks`),
    /// rebuilds the derived state the codec does not carry, then
    /// replays the journal tail in file order. A torn journal tail is
    /// dropped and truncated away; a tail that skips a sequence number
    /// is a typed error, never a silent skip, and so is a directory
    /// holding a `shard-NNNN` entry of the retired per-shard journal
    /// layout ([`RestoreError::LegacyLayout`]).
    ///
    /// The restored service publishes the same epoch / generation /
    /// versions the killed one had and answers bit-identically to a
    /// twin that never died — the chaos conformance suite holds it to
    /// exactly that.
    pub fn restore(
        dir: &Path,
        sim: SimMatrix,
        cfg: ServiceConfig,
    ) -> Result<Service, RestoreError> {
        Service::restore_inner(dir, sim, cfg, true)
    }

    fn restore_inner(
        dir: &Path,
        sim: SimMatrix,
        cfg: ServiceConfig,
        attach: bool,
    ) -> Result<Service, RestoreError> {
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
        let svc = Service::from_state(state, sim, cfg);
        derive_sp.finish();
        let replayed = svc.apply_journal(&records);
        fui_obs::counter("snapshot.persist.replayed").add(replayed as u64);
        fui_obs::counter("snapshot.persist.restores").incr();

        if attach {
            let wal = open_journal(&wal_path, valid_len, torn.is_some()).map_err(io_err)?;
            svc.master.lock().expect("service master poisoned").durable = Some(Sink {
                dir: dir.to_path_buf(),
                wal,
            });
        }
        Ok(svc)
    }

    /// Rebuilds a service around a decoded snapshot, deriving everything
    /// the file does not hold (see the [`crate::durable`] module docs).
    fn from_state(state: SnapshotState, sim: SimMatrix, cfg: ServiceConfig) -> Service {
        let graph = Arc::new(state.graph);
        let authority = Arc::new(AuthorityIndex::build(&graph));
        let sim_rows = Arc::new(SimRowCache::build(&graph, &sim));
        let dynamic = DynamicLandmarks::restore(
            state.index,
            cfg.refresh_threshold,
            BACKGROUND_IMPACT,
            state.staleness,
            state.changes_seen,
        );
        let master = Master {
            graph,
            authority,
            sim_rows,
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
        Service::assemble(master, cfg)
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The currently published snapshot: the graph, authority index,
    /// similarity rows and landmark index queries answer on.
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

    /// Live result-cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Submission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.batcher.depth()
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

    /// Enqueues a request for the next [`pump`](Self::pump), shedding
    /// immediately if the queue is at capacity. `deadline` (if any) is
    /// checked when the pump drains the request. When tracing is active
    /// the request draws a [`fui_obs::TraceId`] here, at admission, so
    /// queue wait is attributed from submission.
    pub fn submit(&self, req: Request, deadline: Option<Instant>) -> Result<Ticket, Reply> {
        self.batcher.submit(req, deadline, TraceCapture::begin())
    }

    /// Drains at most `max_batch` requests in arrival order, sheds the
    /// expired ones, and answers the rest as one batch. Returns how
    /// many requests it answered. Callers drive this: tests and benches
    /// call it synchronously for determinism, the net front door's pump
    /// thread calls it whenever the event loop has handed it a ticket,
    /// and again until it returns 0.
    pub fn pump(&self) -> usize {
        let now = Instant::now();
        let mut live = self.batcher.drain(self.cfg.max_batch);
        live.retain_mut(|p| {
            if !p.deadline.is_some_and(|d| now > d) {
                return true;
            }
            self.metrics.shed.incr();
            self.metrics.shed_deadline.incr();
            if let Some(cap) = p.trace.take() {
                let queue_ns =
                    u64::try_from(now.saturating_duration_since(cap.started_at()).as_nanos())
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
            false
        });
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

    /// Answers one batch: pin the published snapshot, validate, probe
    /// the cache, compute every miss once — one fused
    /// [`ApproxRecommender::recommend_with`] on the pinned snapshot, in
    /// one `fui-exec` fan-out over query chunks — and insert the fresh
    /// lists. Probes and inserts run serially in request order, so the
    /// cache sees the same operation sequence at any pool width.
    ///
    /// `traces` runs parallel to `reqs`. A traced request's latency
    /// decomposition is queue wait (submission → batch entry, exact per
    /// request) plus the batch's shared cache / compute / scatter
    /// (validation) / assembly segments — the batch answers as a unit,
    /// so every member's end-to-end latency covers the whole batch, and
    /// the five parts sum to the recorded total *exactly* (assembly is
    /// defined as the remainder).
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

        // Validate.
        let t0 = clock(tracing);
        let checked: Vec<Result<(), String>> =
            reqs.iter().map(|req| validate(req, &snap)).collect();
        self.metrics
            .valid
            .add(checked.iter().filter(|c| c.is_ok()).count() as u64);
        lap(t0, &mut scatter_ns);

        // Probe the cache.
        let t0 = clock(tracing);
        let mut lists: Vec<Option<RankedList>> = reqs
            .iter()
            .zip(&checked)
            .map(|(req, c)| {
                c.as_ref().ok()?;
                self.cache.get(key_of(req), &snap)
            })
            .collect();
        let cached: Vec<bool> = lists.iter().map(Option::is_some).collect();
        // Every valid request the probe missed.
        let misses: Vec<usize> = (0..reqs.len())
            .filter(|&i| checked[i].is_ok() && !cached[i])
            .collect();
        if tracing {
            for (i, cap) in traces.iter_mut().enumerate() {
                if let (Some(cap), true) = (cap.as_mut(), checked[i].is_ok()) {
                    cap.event(TraceEventKind::CacheProbe, u64::from(cached[i]));
                }
            }
        }
        lap(t0, &mut cache_ns);

        // Compute every miss once, on the pinned snapshot, in chunks of
        // at least `MIN_CHUNK` misses, at most one per pool worker.
        let mut chunk_sum = 0u64;
        let mut chunk_max = 0u64;
        if !misses.is_empty() {
            self.metrics.explorations.add(misses.len() as u64);
            if tracing {
                for &i in &misses {
                    if let Some(cap) = traces[i].as_mut() {
                        cap.event(TraceEventKind::PropagateStart, misses.len() as u64);
                    }
                }
            }
            let t0 = clock(tracing);
            let propagator = snap.propagator();
            let recommender = ApproxRecommender::new(&propagator, &snap.index);
            let workers = (misses.len() / MIN_CHUNK).clamp(1, fui_exec::threads());
            let chunks: Vec<&[usize]> = misses.chunks(misses.len().div_ceil(workers)).collect();
            let computed: Vec<(Vec<(RankedList, CacheStamp)>, u64)> =
                fui_exec::par_map(&chunks, |chunk| {
                    let busy = Instant::now();
                    let mut ws = self.workspaces.get_or(PropWorkspace::new);
                    let out = chunk
                        .iter()
                        .map(|&i| {
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
                            (Arc::new(result.recommendations), stamp)
                        })
                        .collect();
                    (
                        out,
                        u64::try_from(busy.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    )
                });
            lap(t0, &mut compute_ns);
            chunk_sum = computed.iter().map(|c| c.1).sum();
            chunk_max = computed.iter().map(|c| c.1).max().unwrap_or(0);

            let t0 = clock(tracing);
            let fresh = computed.into_iter().flat_map(|c| c.0);
            for (&i, (value, stamp)) in misses.iter().zip(fresh) {
                self.cache
                    .insert(key_of(&reqs[i]), Arc::clone(&value), stamp);
                lists[i] = Some(value);
            }
            lap(t0, &mut cache_ns);
        }

        let replies: Vec<Reply> = checked
            .into_iter()
            .zip(lists)
            .zip(cached)
            .map(|((c, list), cached)| match c {
                Err(why) => Reply::Rejected(why),
                Ok(()) => Reply::Result(Served {
                    recommendations: list.expect("every valid request answered"),
                    epoch: snap.epoch,
                    cached,
                }),
            })
            .collect();

        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.crit_ns.fetch_add(
            elapsed.saturating_sub(chunk_sum) + chunk_max,
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
    /// immediately, and any landmark the charge pushes past
    /// its threshold gets its cache version bumped right away (a new
    /// epoch is published so probes see it), conservatively retiring
    /// cached results that composed through the now-suspect entry.
    pub fn record(&self, change: EdgeChange) -> Result<(), String> {
        let mut m = self.master.lock().expect("service master poisoned");
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
    fn apply_change_inner(&self, m: &mut Master, change: EdgeChange) {
        let newly = m.dynamic.record(&change);
        m.pending.push(change);
        if !newly.is_empty() {
            for s in newly {
                m.slot_versions[s] += 1;
            }
            m.epoch += 1;
            self.store.publish(m.snapshot());
        }
    }

    /// Number of changes recorded but not yet rotated in.
    pub fn pending_changes(&self) -> usize {
        self.master
            .lock()
            .expect("service master poisoned")
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
    /// service checkpoints a snapshot here (rotation rebuilt the
    /// expensive indices, so a warm restart replays from this point,
    /// not from scratch). Returns the new epoch.
    pub fn rotate(&self) -> u64 {
        let _span = fui_obs::span!("service.rotate");
        let mut m = self.master.lock().expect("service master poisoned");
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

    fn rotate_inner(&self, m: &mut Master) -> u64 {
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
        let mut m = self.master.lock().expect("service master poisoned");
        let seq = m.applied_seq + 1;
        if let Some(sink) = m.durable.as_mut() {
            sink.append(seq, &JournalOp::Refresh)
                .expect("journal append failed");
        }
        m.applied_seq = seq;
        self.refresh_inner(&mut m)
    }

    fn refresh_inner(&self, m: &mut Master) -> usize {
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
        m.epoch += 1;
        self.store.publish(m.snapshot());
        refreshed
    }

    // ---- durability ----------------------------------------------

    /// Replays journal records into the master. Records at or
    /// below the current `applied_seq` are skipped — replaying a tail
    /// twice is bit-identical to replaying it once — and records whose
    /// change no longer validates against the graph are counted on
    /// `snapshot.persist.replay_rejected` rather than applied. Returns
    /// how many records were applied. Replay never journals (the
    /// records are already on disk).
    pub fn apply_journal(&self, records: &[JournalRecord]) -> usize {
        let mut m = self.master.lock().expect("service master poisoned");
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
    /// with `Unsupported` on a non-durable service.
    pub fn persist(&self) -> std::io::Result<(u64, usize)> {
        let mut m = self.master.lock().expect("service master poisoned");
        self.persist_locked(&mut m)
    }

    fn persist_locked(&self, m: &mut Master) -> std::io::Result<(u64, usize)> {
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

    /// Dry-run warm restart against this service's own durability
    /// directory: decodes the newest valid snapshot, replays the
    /// journal tail into a throwaway twin (nothing on disk is touched)
    /// and reports `(epoch, graph_gen, applied_seq)` the twin reached.
    /// A healthy directory reports exactly this service's live values.
    pub fn restore_probe(&self) -> Result<(u64, u64, u64), String> {
        let (dir, sim) = {
            let m = self.master.lock().expect("service master poisoned");
            let Some(sink) = m.durable.as_ref() else {
                return Err("service is not durable".to_owned());
            };
            (sink.dir.clone(), m.sim.clone())
        };
        let probe =
            Service::restore_inner(&dir, sim, self.cfg, false).map_err(|e| e.to_string())?;
        let applied = probe.applied_seq();
        Ok((probe.epoch(), probe.graph_gen(), applied))
    }

    /// Journal position of the last applied mutation.
    pub fn applied_seq(&self) -> u64 {
        self.master
            .lock()
            .expect("service master poisoned")
            .applied_seq
    }

    /// Whether this service journals and snapshots to disk.
    pub fn is_durable(&self) -> bool {
        self.master
            .lock()
            .expect("service master poisoned")
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
