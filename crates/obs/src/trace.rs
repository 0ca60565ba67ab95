//! Per-request tracing: trace ids, a lock-free ring journal of
//! completed request traces, and head sampling.
//!
//! `fui-obs` counters and histograms answer *how the service is doing
//! in aggregate*; this module answers *what happened to one request* —
//! which snapshot it pinned, whether its cache probe hit, how long it
//! sat in the submission queue versus how long the propagation took,
//! and (for a shed request) exactly why it was refused. The serving
//! layer threads a [`TraceCapture`] through its submit → batch →
//! answer path and commits the finished trace here; the line-protocol
//! `TRACE <n>` verb and the manifest trace-summary block read the ring
//! back.
//!
//! # Model
//!
//! * A [`TraceId`] is a SplitMix64 hash of a process-global sequence,
//!   seeded from `FUI_TESTKIT_SEED` when set — so a seeded test run
//!   produces the same id stream every time.
//! * Capture is **head-sampled**: the sampling decision is a pure
//!   function of the trace id and the rate in `FUI_TRACE_SAMPLE`
//!   (`0.0 ..= 1.0`, default `0`, overridable with
//!   [`set_sample`](crate::trace::set_sample)).
//!   A request that turns out *slow* (total latency at or above the
//!   `FUI_TRACE_SLOW_MS` threshold, default 50 ms) commits even when
//!   the head-sample coin said no, so tail outliers are never lost.
//! * Tracing is part of *full* observability: nothing is captured
//!   below [`crate::Level::Full`], and a sample rate of `0` creates no
//!   capture at all — zero ring writes, zero allocation.
//! * The journal is a fixed-capacity ring of seqlock-stamped slots
//!   built purely from atomics: writers claim a slot with a CAS and
//!   never block (a lost CAS drops the record and counts
//!   `trace.dropped`); readers detect torn records by re-checking the
//!   slot sequence and skip them.
//!
//! # Invisibility contract
//!
//! Tracing reads clocks and writes only to its own ring and its own
//! `trace.*` counters. It never influences request *results*: the
//! testkit invariant `check_tracing_is_invisible` bit-compares served
//! recommendations across sample rates 0.0 / 0.5 / 1.0, and the CI
//! bench gate (`bench_gate.py trace`) pins exact `service.*` counter
//! equality between a fully-traced and an untraced serving run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::registry::Counter;

/// Slots in the ring journal (completed request traces kept).
pub const RING_CAPACITY: usize = 512;

/// Events kept per trace; later events on an over-long trace are
/// dropped (the decomposition fields still cover the full request).
pub const MAX_EVENTS: usize = 12;

/// Words per slot: 10 header words + 2 per event.
const SLOT_WORDS: usize = 10 + 2 * MAX_EVENTS;

/// Unique identity of one traced request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What happened at one point of a request's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Admitted into the submission queue (arg: queue depth before).
    Enqueue,
    /// Drained into a micro-batch (arg: batch size).
    BatchJoin,
    /// Pinned the published snapshot (arg: snapshot epoch).
    SnapshotPin,
    /// Result-cache probe (arg: 1 hit, 0 miss).
    CacheProbe,
    /// Propagation/composition for the batch's misses began (arg:
    /// misses in the batch).
    PropagateStart,
    /// Reply produced (arg: recommendations returned).
    Finish,
    /// Shed (arg: [`TraceOutcome`] discriminant of the cause).
    Shed,
}

impl TraceEventKind {
    /// Stable lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceEventKind::Enqueue => "enqueue",
            TraceEventKind::BatchJoin => "batch-join",
            TraceEventKind::SnapshotPin => "snapshot-pin",
            TraceEventKind::CacheProbe => "cache-probe",
            TraceEventKind::PropagateStart => "propagate-start",
            TraceEventKind::Finish => "finish",
            TraceEventKind::Shed => "shed",
        }
    }

    fn from_u8(v: u8) -> Option<TraceEventKind> {
        Some(match v {
            0 => TraceEventKind::Enqueue,
            1 => TraceEventKind::BatchJoin,
            2 => TraceEventKind::SnapshotPin,
            3 => TraceEventKind::CacheProbe,
            4 => TraceEventKind::PropagateStart,
            5 => TraceEventKind::Finish,
            6 => TraceEventKind::Shed,
            _ => return None,
        })
    }

    fn as_u8(self) -> u8 {
        match self {
            TraceEventKind::Enqueue => 0,
            TraceEventKind::BatchJoin => 1,
            TraceEventKind::SnapshotPin => 2,
            TraceEventKind::CacheProbe => 3,
            TraceEventKind::PropagateStart => 4,
            TraceEventKind::Finish => 5,
            TraceEventKind::Shed => 6,
        }
    }
}

/// One timestamped event of a committed trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the request's capture started.
    pub at_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Kind-specific argument (see [`TraceEventKind`]).
    pub arg: u64,
}

/// Terminal state of a traced request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Answered with a freshly computed result.
    Ok,
    /// Answered from the result cache.
    OkCached,
    /// Rejected as malformed.
    Rejected,
    /// Shed at submit: the queue was at capacity.
    ShedQueueFull,
    /// Shed at drain: the deadline had already passed.
    ShedDeadline,
    /// Shed by disconnect: the reply channel died before an answer.
    ShedDisconnect,
}

impl TraceOutcome {
    /// Stable lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::OkCached => "ok-cached",
            TraceOutcome::Rejected => "rejected",
            TraceOutcome::ShedQueueFull => "shed-queue-full",
            TraceOutcome::ShedDeadline => "shed-deadline",
            TraceOutcome::ShedDisconnect => "shed-disconnect",
        }
    }

    fn from_u8(v: u8) -> TraceOutcome {
        match v {
            1 => TraceOutcome::OkCached,
            2 => TraceOutcome::Rejected,
            3 => TraceOutcome::ShedQueueFull,
            4 => TraceOutcome::ShedDeadline,
            5 => TraceOutcome::ShedDisconnect,
            _ => TraceOutcome::Ok,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            TraceOutcome::Ok => 0,
            TraceOutcome::OkCached => 1,
            TraceOutcome::Rejected => 2,
            TraceOutcome::ShedQueueFull => 3,
            TraceOutcome::ShedDeadline => 4,
            TraceOutcome::ShedDisconnect => 5,
        }
    }
}

/// Request identity recorded with a trace (the caller's vocabulary —
/// `fui-obs` knows nothing about graphs or topics).
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceMeta {
    /// Querying user id.
    pub user: u32,
    /// Topic index.
    pub topic: u16,
    /// Requested list length.
    pub top_n: u32,
}

/// Latency decomposition of one request. The five parts are measured
/// from one boundary-instant chain, so their sum *is* the recorded
/// end-to-end latency (the `TRACE` acceptance bound leans on this).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyParts {
    /// Submit → batch drain (0 for synchronous calls).
    pub queue_ns: u64,
    /// Batch bookkeeping: validation, miss grouping, reply assembly.
    pub assembly_ns: u64,
    /// Propagation / landmark composition for the batch's misses.
    pub compute_ns: u64,
    /// Result-cache probes, stamping and inserts.
    pub cache_ns: u64,
    /// Validation and routing of each request to its owner lane.
    /// Paths that do not route record 0.
    pub scatter_ns: u64,
}

impl LatencyParts {
    /// Sum of the parts — the trace's end-to-end latency.
    pub fn total_ns(&self) -> u64 {
        self.queue_ns
            .saturating_add(self.assembly_ns)
            .saturating_add(self.compute_ns)
            .saturating_add(self.cache_ns)
            .saturating_add(self.scatter_ns)
    }
}

/// A committed trace, decoded out of the ring.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Trace id.
    pub id: TraceId,
    /// Commit order (higher = more recent).
    pub seq: u64,
    /// End-to-end latency (sum of the four parts).
    pub total_ns: u64,
    /// Latency decomposition.
    pub parts: LatencyParts,
    /// Request identity.
    pub meta: TraceMeta,
    /// Terminal state.
    pub outcome: TraceOutcome,
    /// Event timeline, in capture order.
    pub events: Vec<TraceEvent>,
}

// ---- configuration ------------------------------------------------

/// `f64` bit sentinel: sample rate not resolved from the env yet.
const SAMPLE_UNSET: u64 = u64::MAX;

static SAMPLE_BITS: AtomicU64 = AtomicU64::new(SAMPLE_UNSET);
static SLOW_NS: AtomicU64 = AtomicU64::new(u64::MAX);

/// Default slow-commit threshold when `FUI_TRACE_SLOW_MS` is unset.
const DEFAULT_SLOW_MS: f64 = 50.0;

/// The active head-sampling rate (resolved from `FUI_TRACE_SAMPLE` on
/// first use; `0` when unset or unparseable).
pub fn sample() -> f64 {
    match SAMPLE_BITS.load(Ordering::Relaxed) {
        SAMPLE_UNSET => init_sample(),
        bits => f64::from_bits(bits),
    }
}

#[cold]
fn init_sample() -> f64 {
    let rate = std::env::var("FUI_TRACE_SAMPLE")
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|r| r.is_finite())
        .map_or(0.0, |r| r.clamp(0.0, 1.0));
    SAMPLE_BITS.store(rate.to_bits(), Ordering::Relaxed);
    rate
}

/// Overrides the head-sampling rate (clamped into `0.0 ..= 1.0`).
/// Wins over `FUI_TRACE_SAMPLE`; tests and invariants use this to vary
/// the rate in-process.
pub fn set_sample(rate: f64) {
    let rate = if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        0.0
    };
    SAMPLE_BITS.store(rate.to_bits(), Ordering::Relaxed);
}

/// The slow-commit threshold in nanoseconds (resolved from
/// `FUI_TRACE_SLOW_MS` on first use, default 50 ms).
pub fn slow_threshold_ns() -> u64 {
    match SLOW_NS.load(Ordering::Relaxed) {
        u64::MAX => init_slow(),
        ns => ns,
    }
}

#[cold]
fn init_slow() -> u64 {
    let ms = std::env::var("FUI_TRACE_SLOW_MS")
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v >= 0.0)
        .unwrap_or(DEFAULT_SLOW_MS);
    let ns = (ms * 1e6).min(u64::MAX as f64 / 2.0) as u64;
    SLOW_NS.store(ns, Ordering::Relaxed);
    ns
}

/// Overrides the slow-commit threshold. Wins over `FUI_TRACE_SLOW_MS`.
pub fn set_slow_threshold_ns(ns: u64) {
    // u64::MAX is the unresolved sentinel; one less is already "never".
    SLOW_NS.store(ns.min(u64::MAX - 1), Ordering::Relaxed);
}

/// Whether capture is active: full observability *and* a nonzero
/// sample rate. At rate 0 tracing performs **zero ring writes and zero
/// allocation** — the overhead smoke test pins this.
pub fn active() -> bool {
    crate::full_enabled() && sample() > 0.0
}

// ---- trace ids ----------------------------------------------------

static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

/// SplitMix64 finalizer (same mix the result cache's lock striping uses).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn id_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let Ok(raw) = std::env::var("FUI_TESTKIT_SEED") else {
            return 0xF01D_1FFE_DB20_1600;
        };
        let raw = raw.trim();
        let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).ok()
        } else {
            raw.parse().ok()
        };
        parsed.unwrap_or(0xF01D_1FFE_DB20_1600)
    })
}

/// Draws the next trace id: SplitMix64 over a seeded atomic sequence —
/// deterministic id *values* under `FUI_TESTKIT_SEED` (the order in
/// which concurrent requests draw them is scheduling, as always).
pub fn next_id() -> TraceId {
    let n = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    TraceId(mix(id_seed() ^ n.wrapping_mul(0xD1B5_4A32_D192_ED03)))
}

/// The head-sampling coin for `id` at `rate`: a pure function of the
/// id bits, so the same id stream yields the same sampled subset.
fn head_sampled(id: TraceId, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    // Top 53 bits as a uniform draw in [0, 1).
    ((id.0 >> 11) as f64 / (1u64 << 53) as f64) < rate
}

// ---- cached trace.* counter handles -------------------------------

struct TraceCounters {
    captured: Counter,
    committed: Counter,
    slow: Counter,
    dropped: Counter,
}

fn counters() -> &'static TraceCounters {
    static C: OnceLock<TraceCounters> = OnceLock::new();
    C.get_or_init(|| TraceCounters {
        captured: crate::counter("trace.captured"),
        committed: crate::counter("trace.committed"),
        slow: crate::counter("trace.slow"),
        dropped: crate::counter("trace.dropped"),
    })
}

// ---- the ring journal ---------------------------------------------

struct Slot {
    /// Seqlock: even = stable, odd = write in progress. Starts at 0
    /// with `commit+1` word 0 = 0, i.e. empty.
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

struct Ring {
    commits: AtomicU64,
    slots: [Slot; RING_CAPACITY],
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        commits: AtomicU64::new(0),
        slots: std::array::from_fn(|_| Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }),
    })
}

/// Word layout of one slot. Word 0 is `commit_seq + 1` (0 = empty).
const W_COMMIT: usize = 0;
const W_ID: usize = 1;
const W_TOTAL: usize = 2;
const W_QUEUE: usize = 3;
const W_ASSEMBLY: usize = 4;
const W_COMPUTE: usize = 5;
const W_CACHE: usize = 6;
const W_SCATTER: usize = 7;
const W_META: usize = 8; // user << 32 | topic << 16 | outcome << 8 | n_events
const W_TOP_N: usize = 9;
const W_EVENTS: usize = 10;

/// 56-bit mask for event args (the kind tag rides in the top byte).
const ARG_MASK: u64 = (1 << 56) - 1;

fn commit_record(
    id: TraceId,
    meta: TraceMeta,
    outcome: TraceOutcome,
    parts: LatencyParts,
    events: &[TraceEvent],
) {
    let r = ring();
    let n = r.commits.fetch_add(1, Ordering::Relaxed);
    let slot = &r.slots[(n as usize) % RING_CAPACITY];
    let seq = slot.seq.load(Ordering::Relaxed);
    if seq & 1 == 1
        || slot
            .seq
            .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
    {
        // Another writer holds this slot (ring wrapped under load
        // faster than it finished) — drop rather than block or tear.
        counters().dropped.incr();
        return;
    }
    let n_events = events.len().min(MAX_EVENTS);
    let w = &slot.words;
    w[W_COMMIT].store(n + 1, Ordering::Relaxed);
    w[W_ID].store(id.0, Ordering::Relaxed);
    w[W_TOTAL].store(parts.total_ns(), Ordering::Relaxed);
    w[W_QUEUE].store(parts.queue_ns, Ordering::Relaxed);
    w[W_ASSEMBLY].store(parts.assembly_ns, Ordering::Relaxed);
    w[W_COMPUTE].store(parts.compute_ns, Ordering::Relaxed);
    w[W_CACHE].store(parts.cache_ns, Ordering::Relaxed);
    w[W_SCATTER].store(parts.scatter_ns, Ordering::Relaxed);
    w[W_META].store(
        (u64::from(meta.user) << 32)
            | (u64::from(meta.topic) << 16)
            | (u64::from(outcome.as_u8()) << 8)
            | n_events as u64,
        Ordering::Relaxed,
    );
    w[W_TOP_N].store(u64::from(meta.top_n), Ordering::Relaxed);
    for (i, e) in events.iter().take(MAX_EVENTS).enumerate() {
        w[W_EVENTS + 2 * i].store(e.at_ns, Ordering::Relaxed);
        w[W_EVENTS + 2 * i + 1].store(
            (u64::from(e.kind.as_u8()) << 56) | (e.arg & ARG_MASK),
            Ordering::Relaxed,
        );
    }
    slot.seq.store(seq + 2, Ordering::Release);
    counters().committed.incr();
}

fn read_slot(slot: &Slot) -> Option<RequestTrace> {
    let s1 = slot.seq.load(Ordering::Acquire);
    if s1 & 1 == 1 {
        return None;
    }
    let mut words = [0u64; SLOT_WORDS];
    for (i, w) in slot.words.iter().enumerate() {
        words[i] = w.load(Ordering::Relaxed);
    }
    std::sync::atomic::fence(Ordering::Acquire);
    if slot.seq.load(Ordering::Relaxed) != s1 || words[W_COMMIT] == 0 {
        return None; // torn or empty — skip
    }
    let meta_word = words[W_META];
    let n_events = (meta_word & 0xFF) as usize;
    let events = (0..n_events.min(MAX_EVENTS))
        .filter_map(|i| {
            let tagged = words[W_EVENTS + 2 * i + 1];
            TraceEventKind::from_u8((tagged >> 56) as u8).map(|kind| TraceEvent {
                at_ns: words[W_EVENTS + 2 * i],
                kind,
                arg: tagged & ARG_MASK,
            })
        })
        .collect();
    Some(RequestTrace {
        id: TraceId(words[W_ID]),
        seq: words[W_COMMIT] - 1,
        total_ns: words[W_TOTAL],
        parts: LatencyParts {
            queue_ns: words[W_QUEUE],
            assembly_ns: words[W_ASSEMBLY],
            compute_ns: words[W_COMPUTE],
            cache_ns: words[W_CACHE],
            scatter_ns: words[W_SCATTER],
        },
        meta: TraceMeta {
            user: (meta_word >> 32) as u32,
            topic: ((meta_word >> 16) & 0xFFFF) as u16,
            top_n: words[W_TOP_N] as u32,
        },
        outcome: TraceOutcome::from_u8(((meta_word >> 8) & 0xFF) as u8),
        events,
    })
}

/// The `n` slowest traces currently in the ring, slowest first; ties
/// break toward the more recent commit.
pub fn slowest(n: usize) -> Vec<RequestTrace> {
    let mut all: Vec<RequestTrace> = ring().slots.iter().filter_map(read_slot).collect();
    all.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(b.seq.cmp(&a.seq)));
    all.truncate(n);
    all
}

/// Lifetime commit attempts (including dropped ones) — the ring's
/// write cursor. Monotone until [`clear`].
pub fn commit_count() -> u64 {
    ring().commits.load(Ordering::Relaxed)
}

/// Live (readable) records in the ring.
pub fn ring_len() -> usize {
    ring().slots.iter().filter_map(read_slot).count()
}

/// Empties the ring and rewinds the commit cursor (the id sequence
/// keeps advancing). Called by [`crate::reset`] so each bench manifest
/// describes its own run; not linearizable against concurrent writers
/// — a racing commit may survive.
pub fn clear() {
    let r = ring();
    r.commits.store(0, Ordering::Relaxed);
    for slot in &r.slots {
        slot.words[W_COMMIT].store(0, Ordering::Relaxed);
    }
}

// ---- capture ------------------------------------------------------

/// An in-flight request trace. Created by [`TraceCapture::begin`]
/// (which returns `None` whenever tracing is inactive, making the
/// disabled path a single load-and-branch), carried through the
/// serving pipeline, and finished with [`TraceCapture::finish`].
#[derive(Debug)]
pub struct TraceCapture {
    id: TraceId,
    sampled: bool,
    start: Instant,
    events: Vec<TraceEvent>,
}

impl TraceCapture {
    /// Starts a capture, or returns `None` when tracing is inactive
    /// ([`active`] is false).
    pub fn begin() -> Option<TraceCapture> {
        if !active() {
            return None;
        }
        let id = next_id();
        counters().captured.incr();
        Some(TraceCapture {
            id,
            sampled: head_sampled(id, sample()),
            start: Instant::now(),
            events: Vec::with_capacity(MAX_EVENTS),
        })
    }

    /// The capture's trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The instant capture began — the anchor the serving layer uses
    /// to attribute queue wait.
    pub fn started_at(&self) -> Instant {
        self.start
    }

    /// Whether the head-sample coin chose this request (a slow request
    /// commits regardless).
    pub fn head_sampled(&self) -> bool {
        self.sampled
    }

    /// Appends an event stamped with the elapsed time since capture
    /// began. Events past [`MAX_EVENTS`] are dropped.
    pub fn event(&mut self, kind: TraceEventKind, arg: u64) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(TraceEvent {
                at_ns: u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                kind,
                arg,
            });
        }
    }

    /// Finishes the capture: appends a terminal `Finish`/`Shed` event
    /// and commits to the ring if the request was head-sampled *or*
    /// its end-to-end latency reached the slow threshold.
    pub fn finish(mut self, meta: TraceMeta, outcome: TraceOutcome, parts: LatencyParts) {
        let terminal = match outcome {
            TraceOutcome::Ok | TraceOutcome::OkCached | TraceOutcome::Rejected => {
                TraceEventKind::Finish
            }
            _ => TraceEventKind::Shed,
        };
        self.event(terminal, u64::from(outcome.as_u8()));
        let slow = parts.total_ns() >= slow_threshold_ns();
        if !self.sampled && !slow {
            return;
        }
        if slow && !self.sampled {
            counters().slow.incr();
        }
        commit_record(self.id, meta, outcome, parts, &self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(q: u64, a: u64, c: u64, h: u64) -> LatencyParts {
        LatencyParts {
            queue_ns: q,
            assembly_ns: a,
            compute_ns: c,
            cache_ns: h,
            scatter_ns: 0,
        }
    }

    #[test]
    fn scatter_segment_rides_the_exact_sum_and_the_ring() {
        let _g = crate::serial_guard();
        crate::set_level(crate::Level::Full);
        set_sample(1.0);
        clear();
        let with_scatter = LatencyParts {
            scatter_ns: 7,
            ..parts(10, 20, 30, 40)
        };
        assert_eq!(with_scatter.total_ns(), 107);
        let cap = TraceCapture::begin().expect("active");
        let id = cap.id();
        cap.finish(TraceMeta::default(), TraceOutcome::Ok, with_scatter);
        let rec = slowest(8)
            .into_iter()
            .find(|r| r.id == id)
            .expect("committed");
        assert_eq!(rec.parts.scatter_ns, 7);
        assert_eq!(rec.total_ns, 107);
        crate::set_level(crate::Level::Counters);
        set_sample(0.0);
        clear();
    }

    #[test]
    fn inactive_capture_is_none_and_writes_nothing() {
        let _g = crate::serial_guard();
        crate::set_level(crate::Level::Full);
        set_sample(0.0);
        clear();
        assert!(!active());
        assert!(TraceCapture::begin().is_none());
        assert_eq!(commit_count(), 0);
        assert_eq!(ring_len(), 0);
        // Below Full, even a nonzero sample rate captures nothing.
        set_sample(1.0);
        crate::set_level(crate::Level::Counters);
        assert!(TraceCapture::begin().is_none());
        crate::set_level(crate::Level::Counters);
        set_sample(0.0);
    }

    #[test]
    fn sampled_capture_commits_and_reads_back() {
        let _g = crate::serial_guard();
        crate::set_level(crate::Level::Full);
        set_sample(1.0);
        clear();
        let mut cap = TraceCapture::begin().expect("active");
        let id = cap.id();
        cap.event(TraceEventKind::Enqueue, 3);
        cap.event(TraceEventKind::BatchJoin, 4);
        cap.finish(
            TraceMeta {
                user: 7,
                topic: 14,
                top_n: 10,
            },
            TraceOutcome::Ok,
            parts(10, 20, 30, 40),
        );
        let got = slowest(5);
        let rec = got
            .iter()
            .find(|r| r.id == id)
            .expect("committed trace present");
        assert_eq!(rec.total_ns, 100);
        assert_eq!(rec.parts.queue_ns, 10);
        assert_eq!(rec.parts.cache_ns, 40);
        assert_eq!(rec.meta.user, 7);
        assert_eq!(rec.meta.topic, 14);
        assert_eq!(rec.meta.top_n, 10);
        assert_eq!(rec.outcome, TraceOutcome::Ok);
        assert_eq!(rec.events.len(), 3, "two explicit + terminal finish");
        assert_eq!(rec.events[0].kind, TraceEventKind::Enqueue);
        assert_eq!(rec.events[0].arg, 3);
        assert_eq!(rec.events[2].kind, TraceEventKind::Finish);
        crate::set_level(crate::Level::Counters);
        set_sample(0.0);
        clear();
    }

    #[test]
    fn slowest_orders_by_total_and_ring_wraps() {
        let _g = crate::serial_guard();
        crate::set_level(crate::Level::Full);
        set_sample(1.0);
        clear();
        for i in 0..(RING_CAPACITY as u64 + 40) {
            let cap = TraceCapture::begin().expect("active");
            cap.finish(
                TraceMeta::default(),
                TraceOutcome::Ok,
                parts(0, i + 1, 0, 0),
            );
        }
        assert_eq!(ring_len(), RING_CAPACITY, "ring holds capacity records");
        let top = slowest(3);
        assert_eq!(top.len(), 3);
        assert!(top[0].total_ns >= top[1].total_ns && top[1].total_ns >= top[2].total_ns);
        assert_eq!(top[0].total_ns, RING_CAPACITY as u64 + 40);
        crate::set_level(crate::Level::Counters);
        set_sample(0.0);
        clear();
    }

    #[test]
    fn unsampled_slow_request_still_commits() {
        let _g = crate::serial_guard();
        crate::set_level(crate::Level::Full);
        // Sample rate low enough that a specific id may or may not be
        // chosen; force the deterministic branch by zeroing the coin:
        // rate just above 0 keeps capture active but unsampled for
        // almost every id, and the slow threshold forces the commit.
        set_sample(f64::MIN_POSITIVE);
        let prev_slow = slow_threshold_ns();
        set_slow_threshold_ns(1_000);
        clear();
        // Try a handful of captures: each has total 2000 ns >= slow
        // threshold, so every one must commit whatever its coin said.
        for _ in 0..4 {
            let cap = TraceCapture::begin().expect("active");
            cap.finish(
                TraceMeta::default(),
                TraceOutcome::Ok,
                parts(0, 2_000, 0, 0),
            );
        }
        assert_eq!(ring_len(), 4, "slow requests bypass the head sample");
        set_slow_threshold_ns(prev_slow);
        crate::set_level(crate::Level::Counters);
        set_sample(0.0);
        clear();
    }

    #[test]
    fn head_sampling_is_deterministic_in_the_id() {
        let id = TraceId(0xDEAD_BEEF_0BAD_F00D);
        for rate in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(head_sampled(id, rate), head_sampled(id, rate));
        }
        assert!(head_sampled(id, 1.0));
        assert!(!head_sampled(id, 0.0));
        // Roughly half of a uniform id stream passes a 0.5 coin.
        let hits = (0..4096)
            .filter(|&i| head_sampled(TraceId(mix(i)), 0.5))
            .count();
        assert!((1500..2600).contains(&hits), "got {hits}/4096 at 0.5");
    }

    #[test]
    fn outcome_and_kind_round_trip() {
        for o in [
            TraceOutcome::Ok,
            TraceOutcome::OkCached,
            TraceOutcome::Rejected,
            TraceOutcome::ShedQueueFull,
            TraceOutcome::ShedDeadline,
            TraceOutcome::ShedDisconnect,
        ] {
            assert_eq!(TraceOutcome::from_u8(o.as_u8()), o);
            assert!(!o.as_str().is_empty());
        }
        for k in 0..7u8 {
            let kind = TraceEventKind::from_u8(k).expect("valid kind");
            assert_eq!(kind.as_u8(), k);
            assert!(!kind.as_str().is_empty());
        }
        assert!(TraceEventKind::from_u8(7).is_none());
    }
}
