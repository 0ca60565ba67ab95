//! Durable serving snapshots and the write-ahead mutation journal.
//!
//! A durable service persists two artifacts under one directory:
//!
//! * **Snapshot files** `snapshot-<seq>.fuisnap` — a versioned binary
//!   image of the master state *that cannot be recomputed*: the graph's
//!   out-CSR ([`fui_graph::arena`]), the landmark index (the `FUILMK1`
//!   codec, embedded verbatim — under lazy refresh its entries are not
//!   a function of the current graph), per-slot cache versions,
//!   staleness accumulators, buffered pending changes, and the epoch /
//!   generation / journal-position counters. Written atomically:
//!   encode to `tmp-…`, then `rename`.
//! * **The journal** `journal.fuiwal` — an append-only log of every
//!   acknowledged mutation ([`JournalOp::Change`], [`JournalOp::Rotate`],
//!   [`JournalOp::Refresh`]), framed and checksummed per record. A
//!   record is appended *before* the in-memory state mutates, so warm
//!   restart replays `newest valid snapshot + journal tail` and lands
//!   bit-identically on the pre-crash state. Replay is idempotent:
//!   records at or below the snapshot's `applied_seq` are skipped.
//!   Every op is journaled once, in sequence order. A directory
//!   holding a `shard-NNNN/` entry was written by the retired
//!   per-shard layout and does not restore
//!   (`RestoreError::LegacyLayout`).
//!
//! Snapshot layout, little-endian throughout:
//!
//! ```text
//! magic "FUISNAP2" | u64 applied_seq | u64 epoch | u64 graph_gen | u64 changes_seen
//! f64 alpha | f64 beta | f64 tolerance | u32 max_depth | u8 variant
//! u32 slots   | slots × (u64 version, f64 staleness)
//! u32 pending | pending × (u32 follower, u32 followee, u32 labels, u8 kind)
//! u64 len | graph blob          (fui_graph::arena, "FUICSR2\n")
//! u64 len | landmark index blob (fui_landmarks::persist)
//! u64 FNV-1a checksum of everything above
//! ```
//!
//! **Not in the file**, because each is a pure function of what is:
//! the in-degree offsets (recounted by [`arena::decode`]; the in-edge
//! arenas are derived only if something reads followers), and the
//! authority index, similarity rows and landmark topo lookups (rebuilt
//! by the service's `from_state`, with the same calls a fresh build and
//! a rotation make). A file in any other format — the
//! authority-carrying v1 included — is [`SnapshotError::BadMagic`];
//! restore falls back past it.
//!
//! Both codecs follow the hardened decode discipline of
//! `fui-landmarks/persist.rs`: every declared count is bounded against
//! the bytes actually present **before** anything is allocated, file
//! checksums (FNV-1a) are verified before fields are trusted, and
//! structurally-impossible headers are rejected with typed
//! [`SnapshotError`] / [`JournalError`] values — never a panic, never
//! an unbounded allocation.

use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fui_core::{ScoreParams, ScoreVariant};
use fui_graph::{arena, SocialGraph};
use fui_landmarks::{persist, ChangeKind, EdgeChange, LandmarkIndex};
use fui_taxonomy::{TopicSet, NUM_TOPICS};

/// Magic header of a snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"FUISNAP2";

/// Magic header of the journal file.
pub const WAL_MAGIC: &[u8; 8] = b"FUIWAL1\n";

/// File name of the journal inside a durability directory.
pub const JOURNAL_FILE: &str = "journal.fuiwal";

/// Largest landmark-slot count a snapshot may declare.
pub const MAX_SLOTS: usize = 1 << 20;

/// Largest buffered pending-change count a snapshot may declare.
pub const MAX_PENDING: usize = 1 << 24;

/// Largest framed journal record (a corrupt length prefix may not
/// request more than this).
pub const MAX_RECORD_BYTES: usize = 1 << 16;

/// Integrity checksum of both formats: FNV-1a folded over 8-byte
/// little-endian words (tail bytes and the total length folded last).
/// Word folding keeps the xor-then-multiply bijection that detects
/// any single bit flip while running ~8x faster than the byte-wise
/// loop — the whole-snapshot pass is on the warm-restart path.
/// Exported so tests can re-fix checksums after splicing fields into
/// fixture files.
pub fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

// ---- snapshot codec --------------------------------------------------

/// Errors surfaced while decoding a snapshot file.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotError {
    /// Missing or wrong magic header.
    BadMagic,
    /// Buffer ended before the structure was complete.
    Truncated,
    /// The trailing FNV-1a checksum does not cover the bytes present.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum of the bytes actually present.
        computed: u64,
    },
    /// A header field declares a value no well-formed snapshot could
    /// hold (named field, declared value).
    ImplausibleHeader(&'static str, u64),
    /// The per-slot version table disagrees with the embedded landmark
    /// index on the slot count.
    SlotMismatch {
        /// Slots declared by the version table.
        slots: usize,
        /// Landmarks stored in the embedded index.
        landmarks: usize,
    },
    /// The embedded graph arena blob was rejected.
    Graph(arena::DecodeError),
    /// The embedded landmark index blob was rejected.
    Landmarks(persist::DecodeError),
    /// Bytes remained after the declared structure was fully read.
    TrailingBytes(usize),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a serving snapshot"),
            SnapshotError::Truncated => write!(f, "serving snapshot truncated"),
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
            SnapshotError::ImplausibleHeader(field, v) => {
                write!(f, "implausible header field {field} = {v}")
            }
            SnapshotError::SlotMismatch { slots, landmarks } => {
                write!(f, "{slots} slot versions for {landmarks} landmarks")
            }
            SnapshotError::Graph(e) => write!(f, "graph arenas: {e}"),
            SnapshotError::Landmarks(e) => write!(f, "landmark index: {e}"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the declared structure")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The full decoded master state of a serving snapshot.
pub struct SnapshotState {
    /// Journal position: the snapshot reflects every record with
    /// `seq <= applied_seq`.
    pub applied_seq: u64,
    /// Published epoch at snapshot time.
    pub epoch: u64,
    /// Graph generation at snapshot time.
    pub graph_gen: u64,
    /// [`fui_landmarks::DynamicLandmarks`] change counter.
    pub changes_seen: u64,
    /// Scoring parameters.
    pub params: ScoreParams,
    /// Score variant.
    pub variant: ScoreVariant,
    /// Per-slot cache versions.
    pub slot_versions: Vec<u64>,
    /// Per-slot staleness accumulators.
    pub staleness: Vec<f64>,
    /// Changes recorded but not yet rotated in.
    pub pending: Vec<EdgeChange>,
    /// The follow graph.
    pub graph: SocialGraph,
    /// Dead: the authority index is rebuilt from `graph`, never
    /// stored. [`encode_snapshot`] ignores these three fields,
    /// [`decode_snapshot`] returns them empty / zero and nothing in the
    /// workspace reads them; they stay declared only because the frozen
    /// harness spells this struct literally (`benchmark/src/layers.rs:552`)
    /// and go with the next benchmark PR (ROADMAP item 5).
    pub auth: Vec<f64>,
    #[allow(missing_docs)]
    pub followers_on: Vec<u32>,
    #[allow(missing_docs)]
    pub max_followers_on: [u32; NUM_TOPICS],
    /// The landmark index.
    pub index: LandmarkIndex,
}

fn variant_code(v: ScoreVariant) -> u8 {
    match v {
        ScoreVariant::Full => 0,
        ScoreVariant::NoAuthority => 1,
        ScoreVariant::NoSimilarity => 2,
        ScoreVariant::TopoOnly => 3,
    }
}

fn variant_from(code: u8) -> Option<ScoreVariant> {
    match code {
        0 => Some(ScoreVariant::Full),
        1 => Some(ScoreVariant::NoAuthority),
        2 => Some(ScoreVariant::NoSimilarity),
        3 => Some(ScoreVariant::TopoOnly),
        _ => None,
    }
}

fn put_change(buf: &mut BytesMut, c: &EdgeChange) {
    buf.put_u32_le(c.follower.0);
    buf.put_u32_le(c.followee.0);
    buf.put_u32_le(c.labels.mask());
    buf.put_u8(match c.kind {
        ChangeKind::Insert => 0,
        ChangeKind::Remove => 1,
    });
}

fn get_change(buf: &mut Bytes) -> Option<EdgeChange> {
    let follower = fui_graph::NodeId(buf.get_u32_le());
    let followee = fui_graph::NodeId(buf.get_u32_le());
    let labels = TopicSet::from_mask(buf.get_u32_le());
    match buf.get_u8() {
        0 => Some(EdgeChange::insert(follower, followee, labels)),
        1 => Some(EdgeChange::remove(follower, followee, labels)),
        _ => None,
    }
}

/// Serialises a full master state to bytes (checksum included).
pub fn encode_snapshot(state: &SnapshotState) -> Bytes {
    let graph_blob = arena::encode(&state.graph);
    let index_blob = persist::encode(&state.index, state.graph.num_nodes());
    let mut buf = BytesMut::with_capacity(
        256 + graph_blob.len()
            + index_blob.len()
            + state.slot_versions.len() * 16
            + state.pending.len() * 13,
    );
    buf.put_slice(SNAP_MAGIC);
    buf.put_u64_le(state.applied_seq);
    buf.put_u64_le(state.epoch);
    buf.put_u64_le(state.graph_gen);
    buf.put_u64_le(state.changes_seen);
    buf.put_f64_le(state.params.alpha);
    buf.put_f64_le(state.params.beta);
    buf.put_f64_le(state.params.tolerance);
    buf.put_u32_le(state.params.max_depth);
    buf.put_u8(variant_code(state.variant));
    buf.put_u32_le(state.slot_versions.len() as u32);
    for (i, &v) in state.slot_versions.iter().enumerate() {
        buf.put_u64_le(v);
        buf.put_f64_le(state.staleness[i]);
    }
    buf.put_u32_le(state.pending.len() as u32);
    for c in &state.pending {
        put_change(&mut buf, c);
    }
    buf.put_u64_le(graph_blob.len() as u64);
    buf.put_slice(&graph_blob);
    buf.put_u64_le(index_blob.len() as u64);
    buf.put_slice(&index_blob);
    let sum = checksum(&buf);
    buf.put_u64_le(sum);
    buf.freeze()
}

/// Decodes a snapshot file back into a [`SnapshotState`].
///
/// The trailing checksum is verified before any field is trusted, the
/// header counts are bounded before any array is allocated, the
/// embedded graph / landmark blobs are length-prefixed and
/// re-validated by their own codecs, and cross-blob invariants (node
/// counts agree, slot counts agree, `graph_gen <= epoch`) are enforced
/// so a corrupt file can never materialise as inconsistent state.
pub fn decode_snapshot(buf: Bytes) -> Result<SnapshotState, SnapshotError> {
    fui_obs::counter("snapshot.persist.load_bytes").add(buf.remaining() as u64);
    if buf.remaining() < SNAP_MAGIC.len() {
        return Err(SnapshotError::Truncated);
    }
    if &buf[..8] != SNAP_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if buf.remaining() < SNAP_MAGIC.len() + 8 {
        return Err(SnapshotError::Truncated);
    }
    let body_len = buf.remaining() - 8;
    let stored = u64::from_le_bytes(buf[body_len..].try_into().expect("8 checksum bytes"));
    let sum_sp = fui_obs::Span::enter("snapshot.decode.checksum");
    let computed = checksum(&buf[..body_len]);
    sum_sp.finish();
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let mut buf = buf.slice(..body_len);
    buf.advance(SNAP_MAGIC.len());

    if buf.remaining() < 8 * 4 + 8 * 3 + 4 + 1 + 4 {
        return Err(SnapshotError::Truncated);
    }
    let applied_seq = buf.get_u64_le();
    let epoch = buf.get_u64_le();
    let graph_gen = buf.get_u64_le();
    let changes_seen = buf.get_u64_le();
    if graph_gen > epoch {
        // Rotation bumps both; a generation the epoch never reached
        // cannot come from a live service — the file is stale-or-forged.
        return Err(SnapshotError::ImplausibleHeader("graph_gen", graph_gen));
    }
    let params = ScoreParams {
        alpha: buf.get_f64_le(),
        beta: buf.get_f64_le(),
        tolerance: buf.get_f64_le(),
        max_depth: buf.get_u32_le(),
    };
    let variant_raw = buf.get_u8();
    let variant = variant_from(variant_raw).ok_or(SnapshotError::ImplausibleHeader(
        "variant",
        u64::from(variant_raw),
    ))?;

    let slots_raw = buf.get_u32_le();
    if slots_raw as usize > MAX_SLOTS {
        return Err(SnapshotError::ImplausibleHeader(
            "slots",
            u64::from(slots_raw),
        ));
    }
    let slots = slots_raw as usize;
    if buf.remaining() < slots * 16 {
        return Err(SnapshotError::Truncated);
    }
    let mut slot_versions = Vec::with_capacity(slots);
    let mut staleness = Vec::with_capacity(slots);
    for _ in 0..slots {
        slot_versions.push(buf.get_u64_le());
        staleness.push(buf.get_f64_le());
    }

    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let pending_raw = buf.get_u32_le();
    if pending_raw as usize > MAX_PENDING {
        return Err(SnapshotError::ImplausibleHeader(
            "pending",
            u64::from(pending_raw),
        ));
    }
    let n_pending = pending_raw as usize;
    if buf.remaining() < n_pending * 13 {
        return Err(SnapshotError::Truncated);
    }
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        pending
            .push(get_change(&mut buf).ok_or(SnapshotError::ImplausibleHeader("change_kind", 2))?);
    }

    let graph_blob = get_blob(&mut buf, "graph_bytes")?;
    let graph_sp = fui_obs::Span::enter("snapshot.decode.graph");
    let graph = arena::decode(graph_blob).map_err(SnapshotError::Graph)?;
    graph_sp.finish();
    let n = graph.num_nodes();
    for c in &pending {
        let limit = n as u32;
        if c.follower.0 >= limit || c.followee.0 >= limit {
            return Err(SnapshotError::ImplausibleHeader(
                "pending_endpoint",
                u64::from(c.follower.0.max(c.followee.0)),
            ));
        }
    }

    let index_blob = get_blob(&mut buf, "index_bytes")?;
    let (index, index_nodes) = persist::decode(index_blob).map_err(SnapshotError::Landmarks)?;
    if index_nodes != n {
        return Err(SnapshotError::ImplausibleHeader(
            "index_nodes",
            index_nodes as u64,
        ));
    }
    if index.len() != slots {
        return Err(SnapshotError::SlotMismatch {
            slots,
            landmarks: index.len(),
        });
    }
    if buf.remaining() > 0 {
        return Err(SnapshotError::TrailingBytes(buf.remaining()));
    }
    Ok(SnapshotState {
        applied_seq,
        epoch,
        graph_gen,
        changes_seen,
        params,
        variant,
        slot_versions,
        staleness,
        pending,
        graph,
        auth: Vec::new(),
        followers_on: Vec::new(),
        max_followers_on: [0; NUM_TOPICS],
        index,
    })
}

/// Reads a `u64 len | len bytes` blob, bounding `len` by the bytes
/// actually present before slicing.
fn get_blob(buf: &mut Bytes, field: &'static str) -> Result<Bytes, SnapshotError> {
    if buf.remaining() < 8 {
        return Err(SnapshotError::Truncated);
    }
    let len = buf.get_u64_le();
    if len > buf.remaining() as u64 {
        return Err(SnapshotError::ImplausibleHeader(field, len));
    }
    let blob = buf.slice(..len as usize);
    buf.advance(len as usize);
    Ok(blob)
}

// ---- journal codec ---------------------------------------------------

/// One replayable mutation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JournalOp {
    /// One follow/unfollow recorded by `Service::record`.
    Change(EdgeChange),
    /// A `Service::rotate` call.
    Rotate,
    /// A `Service::refresh` call.
    Refresh,
}

/// One framed journal record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JournalRecord {
    /// Monotone sequence number (1-based; snapshots store the last
    /// applied one).
    pub seq: u64,
    /// The mutation.
    pub op: JournalOp,
}

/// Errors surfaced while decoding a journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// Missing or wrong magic header.
    BadMagic,
    /// The last record is incomplete or fails its checksum — the
    /// expected shape of a crash mid-append. Recovery keeps the valid
    /// prefix (`valid_len` bytes) and discards the tail.
    TornTail {
        /// Byte length of the longest valid record prefix.
        valid_len: usize,
    },
    /// A complete, checksum-valid record declares an impossible field
    /// (named field, declared value).
    ImplausibleRecord(&'static str, u64),
    /// Record sequence numbers must be strictly increasing.
    NonMonotoneSeq {
        /// Sequence of the preceding record.
        prev: u64,
        /// Offending sequence.
        next: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "not a mutation journal"),
            JournalError::TornTail { valid_len } => {
                write!(f, "torn journal tail after {valid_len} valid bytes")
            }
            JournalError::ImplausibleRecord(field, v) => {
                write!(f, "implausible journal record field {field} = {v}")
            }
            JournalError::NonMonotoneSeq { prev, next } => {
                write!(f, "journal sequence went {prev} -> {next}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

fn op_payload(op: &JournalOp) -> (u8, Vec<u8>) {
    match op {
        JournalOp::Change(c) => {
            let mut p = Vec::with_capacity(13);
            p.extend_from_slice(&c.follower.0.to_le_bytes());
            p.extend_from_slice(&c.followee.0.to_le_bytes());
            p.extend_from_slice(&c.labels.mask().to_le_bytes());
            p.push(match c.kind {
                ChangeKind::Insert => 0,
                ChangeKind::Remove => 1,
            });
            (0, p)
        }
        JournalOp::Rotate => (1, Vec::new()),
        JournalOp::Refresh => (2, Vec::new()),
    }
}

/// Encodes one framed record: `u32 len | u64 seq | u8 kind | payload |
/// u64 checksum`, where `len` counts `seq + kind + payload` and the
/// checksum covers everything before it (length prefix included).
pub fn encode_record(seq: u64, op: &JournalOp) -> Vec<u8> {
    let (kind, payload) = op_payload(op);
    let len = 9 + payload.len();
    let mut out = Vec::with_capacity(4 + len + 8);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&payload);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Encodes a whole journal (magic header + records) — fixture builder
/// for tests.
pub fn encode_journal(records: &[JournalRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + records.len() * 32);
    out.extend_from_slice(WAL_MAGIC);
    for r in records {
        out.extend_from_slice(&encode_record(r.seq, &r.op));
    }
    out
}

/// Decodes as many valid records as the buffer holds, returning the
/// records, the byte length of the valid prefix, and the error that
/// stopped the scan (if any). Recovery uses this directly: a torn tail
/// keeps the prefix; the strict [`decode_journal`] wrapper turns any
/// stop into a typed error.
pub fn decode_journal_prefix(bytes: &[u8]) -> (Vec<JournalRecord>, usize, Option<JournalError>) {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..8] != WAL_MAGIC {
        return (Vec::new(), 0, Some(JournalError::BadMagic));
    }
    let mut records = Vec::new();
    let mut at = WAL_MAGIC.len();
    let mut prev_seq = 0u64;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < 4 {
            return (records, at, Some(JournalError::TornTail { valid_len: at }));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if !(9..=MAX_RECORD_BYTES).contains(&len) || rest.len() < 4 + len + 8 {
            return (records, at, Some(JournalError::TornTail { valid_len: at }));
        }
        let frame = &rest[..4 + len];
        let stored = u64::from_le_bytes(rest[4 + len..4 + len + 8].try_into().expect("8 bytes"));
        if checksum(frame) != stored {
            return (records, at, Some(JournalError::TornTail { valid_len: at }));
        }
        let seq = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
        let kind = frame[12];
        let payload = &frame[13..];
        let op = match (kind, payload.len()) {
            (0, 13) => {
                let follower = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"));
                let followee = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes"));
                let mask = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
                let labels = TopicSet::from_mask(mask);
                match payload[12] {
                    0 => JournalOp::Change(EdgeChange::insert(
                        fui_graph::NodeId(follower),
                        fui_graph::NodeId(followee),
                        labels,
                    )),
                    1 => JournalOp::Change(EdgeChange::remove(
                        fui_graph::NodeId(follower),
                        fui_graph::NodeId(followee),
                        labels,
                    )),
                    other => {
                        return (
                            records,
                            at,
                            Some(JournalError::ImplausibleRecord(
                                "change_kind",
                                u64::from(other),
                            )),
                        );
                    }
                }
            }
            (1, 0) => JournalOp::Rotate,
            (2, 0) => JournalOp::Refresh,
            (k, n) => {
                let (field, v) = if k > 2 {
                    ("kind", u64::from(k))
                } else {
                    ("payload_len", n as u64)
                };
                return (records, at, Some(JournalError::ImplausibleRecord(field, v)));
            }
        };
        if seq <= prev_seq {
            return (
                records,
                at,
                Some(JournalError::NonMonotoneSeq {
                    prev: prev_seq,
                    next: seq,
                }),
            );
        }
        prev_seq = seq;
        records.push(JournalRecord { seq, op });
        at += 4 + len + 8;
    }
    (records, at, None)
}

/// Strict journal decode: any malformed byte — torn tail included —
/// is a typed error.
pub fn decode_journal(bytes: &[u8]) -> Result<Vec<JournalRecord>, JournalError> {
    let (records, _, err) = decode_journal_prefix(bytes);
    match err {
        None => Ok(records),
        Some(e) => Err(e),
    }
}

// ---- file layout -----------------------------------------------------

/// File name of the snapshot at journal position `seq`.
pub fn snapshot_filename(seq: u64) -> String {
    format!("snapshot-{seq:020}.fuisnap")
}

/// Parses a snapshot file name back to its journal position.
pub fn parse_snapshot_filename(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snapshot-")?.strip_suffix(".fuisnap")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Snapshot files under `dir`, newest (highest seq) first.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(parse_snapshot_filename) {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|e| std::cmp::Reverse(e.0));
    Ok(found)
}

/// Whether `name` is a `shard-NNNN` entry: the per-shard journal
/// directory of the retired multi-journal layout.
pub(crate) fn is_legacy_shard_entry(name: &str) -> bool {
    name.strip_prefix("shard-")
        .is_some_and(|d| d.len() == 4 && d.bytes().all(|b| b.is_ascii_digit()))
}

/// Removes what an earlier durable service left under `dir` — snapshot
/// files, their temp files, the journal and any `shard-NNNN` entry — so
/// a fresh service neither restores into nor prunes against an older
/// run's history. Other files are left alone.
pub(crate) fn clear_dir(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let legacy = is_legacy_shard_entry(name);
        if legacy && entry.file_type()?.is_dir() {
            std::fs::remove_dir_all(entry.path())?;
        } else if legacy
            || name == JOURNAL_FILE
            || name.starts_with("tmp-snapshot-")
            || parse_snapshot_filename(name).is_some()
        {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Atomically writes `state` as `snapshot-<applied_seq>.fuisnap` under
/// `dir`: encode, write to a temp file, `rename` into place. Returns
/// the final path and the encoded size.
pub fn write_snapshot_atomic(
    dir: &Path,
    state: &SnapshotState,
) -> std::io::Result<(PathBuf, usize)> {
    let bytes = encode_snapshot(state);
    let final_path = dir.join(snapshot_filename(state.applied_seq));
    let tmp_path = dir.join(format!("tmp-{}", snapshot_filename(state.applied_seq)));
    {
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    fui_obs::counter("snapshot.persist.saves").incr();
    fui_obs::counter("snapshot.persist.save_bytes").add(bytes.len() as u64);
    Ok((final_path, bytes.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_graph::{GraphBuilder, NodeId};
    use fui_taxonomy::Topic;

    fn tiny_state() -> SnapshotState {
        // A ring with chords: big enough that an in-CSR or an authority
        // arena would not hide in the size pin's slack, and in-rows
        // whose order only the transpose gets right.
        let tech = TopicSet::single(Topic::Technology);
        let mut b = GraphBuilder::new();
        for _ in 0..24 {
            b.add_node(tech);
        }
        for i in 0..24u32 {
            b.add_edge(NodeId(i), NodeId((i + 1) % 24), tech);
            b.add_edge(
                NodeId(i),
                NodeId((i * 5 + 3) % 24),
                tech.with(Topic::Health),
            );
        }
        let graph = b.build();
        let n = graph.num_nodes();
        let authority = fui_core::AuthorityIndex::build(&graph);
        let sim = fui_taxonomy::SimMatrix::opencalais();
        let params = ScoreParams::default();
        let propagator =
            fui_core::Propagator::new(&graph, &authority, &sim, params, ScoreVariant::Full);
        let index = fui_landmarks::LandmarkIndex::build(&propagator, vec![NodeId(1)], n);
        SnapshotState {
            applied_seq: 3,
            epoch: 5,
            graph_gen: 2,
            changes_seen: 7,
            params,
            variant: ScoreVariant::Full,
            slot_versions: vec![4],
            staleness: vec![0.25],
            pending: vec![EdgeChange::insert(NodeId(2), NodeId(3), tech)],
            auth: Vec::new(),
            followers_on: Vec::new(),
            max_followers_on: [0; NUM_TOPICS],
            graph,
            index,
        }
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let state = tiny_state();
        let back = decode_snapshot(encode_snapshot(&state)).unwrap();
        assert_eq!(back.applied_seq, 3);
        assert_eq!(back.epoch, 5);
        assert_eq!(back.graph_gen, 2);
        assert_eq!(back.changes_seen, 7);
        assert_eq!(back.graph, state.graph);
        assert_eq!(back.slot_versions, state.slot_versions);
        assert_eq!(back.staleness[0].to_bits(), state.staleness[0].to_bits());
        assert_eq!(back.pending, state.pending);
        assert_eq!(back.index.len(), state.index.len());
    }

    #[test]
    fn snapshot_holds_nothing_derivable() {
        // Header, the two tables, the out-CSR (`4·(2n+1) + 6·e + 4·t`),
        // the index blob and slack for magics and length prefixes: no
        // room for an authority arena (12 B × nodes × topics) or an
        // in-CSR (`4·(n+1) + 6·e`) to creep back.
        let state = tiny_state();
        let g = &state.graph;
        let (n, e, t) = (g.num_nodes(), g.num_edges(), g.num_label_sets());
        let header = 8 + 4 * 8 + 3 * 8 + 4 + 1;
        let tables = 4 + state.slot_versions.len() * 16 + 4 + state.pending.len() * 13;
        let out_csr = 4 * (2 * n + 1) + 6 * e + 4 * t;
        let index = persist::encode(&state.index, n).len();
        let len = encode_snapshot(&state).len();
        assert!(
            len <= header + tables + out_csr + index + 128,
            "{len} bytes for {n} nodes / {e} edges"
        );
    }

    #[test]
    fn snapshot_bit_flip_fails_checksum() {
        let raw = encode_snapshot(&tiny_state()).to_vec();
        let mut bad = raw.clone();
        bad[40] ^= 0x10;
        assert!(matches!(
            decode_snapshot(Bytes::from(bad)),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_stale_generation_is_rejected() {
        let mut state = tiny_state();
        state.graph_gen = state.epoch + 1;
        assert!(matches!(
            decode_snapshot(encode_snapshot(&state)),
            Err(SnapshotError::ImplausibleHeader("graph_gen", _))
        ));
    }

    #[test]
    fn snapshot_slot_mismatch_is_rejected() {
        let mut state = tiny_state();
        state.slot_versions.push(9);
        state.staleness.push(0.0);
        assert!(matches!(
            decode_snapshot(encode_snapshot(&state)),
            Err(SnapshotError::SlotMismatch {
                slots: 2,
                landmarks: 1
            })
        ));
    }

    #[test]
    fn journal_round_trips() {
        let tech = TopicSet::single(Topic::Technology);
        let records = vec![
            JournalRecord {
                seq: 1,
                op: JournalOp::Change(EdgeChange::insert(NodeId(0), NodeId(3), tech)),
            },
            JournalRecord {
                seq: 2,
                op: JournalOp::Rotate,
            },
            JournalRecord {
                seq: 3,
                op: JournalOp::Refresh,
            },
        ];
        let raw = encode_journal(&records);
        assert_eq!(decode_journal(&raw).unwrap(), records);
    }

    #[test]
    fn journal_torn_tail_keeps_the_valid_prefix() {
        let tech = TopicSet::single(Topic::Technology);
        let records = vec![
            JournalRecord {
                seq: 1,
                op: JournalOp::Change(EdgeChange::insert(NodeId(0), NodeId(3), tech)),
            },
            JournalRecord {
                seq: 2,
                op: JournalOp::Rotate,
            },
        ];
        let mut raw = encode_journal(&records);
        let clean = raw.len();
        // Half of a third record — the crash-mid-append shape.
        let partial = encode_record(3, &JournalOp::Refresh);
        raw.extend_from_slice(&partial[..partial.len() / 2]);
        assert_eq!(
            decode_journal(&raw),
            Err(JournalError::TornTail { valid_len: clean })
        );
        let (prefix, valid_len, err) = decode_journal_prefix(&raw);
        assert_eq!(prefix, records);
        assert_eq!(valid_len, clean);
        assert!(err.is_some());
    }

    #[test]
    fn journal_non_monotone_seq_is_rejected() {
        let records = vec![
            JournalRecord {
                seq: 2,
                op: JournalOp::Rotate,
            },
            JournalRecord {
                seq: 2,
                op: JournalOp::Refresh,
            },
        ];
        let raw = encode_journal(&records);
        assert_eq!(
            decode_journal(&raw),
            Err(JournalError::NonMonotoneSeq { prev: 2, next: 2 })
        );
    }

    #[test]
    fn snapshot_filenames_round_trip() {
        assert_eq!(parse_snapshot_filename(&snapshot_filename(42)), Some(42));
        assert_eq!(parse_snapshot_filename("snapshot-x.fuisnap"), None);
        assert_eq!(parse_snapshot_filename("journal.fuiwal"), None);
    }
}
