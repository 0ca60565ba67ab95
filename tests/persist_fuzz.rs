//! Fuzz-style robustness tests for the on-disk codecs.
//!
//! `fui_landmarks::persist::decode`, `fui_service::durable`'s full
//! serving-snapshot codec and its write-ahead journal all consume
//! bytes from disk, so they must answer *every* corruption —
//! truncation, bit flips, planted absurd length fields, spliced
//! header fields (with the file checksum re-fixed, so the *semantic*
//! validation is what rejects them), torn tails, trailing garbage —
//! with a typed `Err`, never a panic or an attacker-sized allocation.
//! Corruptions are generated by `fui-testkit`'s deterministic
//! byte-surgery helpers; every failing input is reproducible from the
//! seed printed in the assertion.

use bytes::Bytes;
use fui_core::{AuthorityIndex, Propagator, ScoreParams, ScoreVariant};
use fui_graph::NodeId;
use fui_landmarks::persist::{self, DecodeError};
use fui_landmarks::LandmarkIndex;
use fui_taxonomy::SimMatrix;
use fui_testkit::corpus::{self, Preset};
use fui_testkit::{fuzz, SeededRng};

/// A small but fully populated snapshot (3 landmarks, non-empty
/// per-topic lists) to corrupt.
fn sample_snapshot() -> Vec<u8> {
    let case = corpus::generate(Preset::DenseCommunity, 0xDEC0DE);
    let graph = case.graph();
    let auth = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let p = Propagator::new(
        &graph,
        &auth,
        &sim,
        ScoreParams::default(),
        ScoreVariant::Full,
    );
    let landmarks: Vec<NodeId> = graph.nodes().take(3).collect();
    let index = LandmarkIndex::build(&p, landmarks, graph.num_nodes());
    let bytes = persist::encode(&index, graph.num_nodes());
    assert!(bytes.len() > 64, "sample snapshot unexpectedly tiny");
    // Sanity: the pristine snapshot must decode.
    persist::decode(bytes.clone()).expect("pristine snapshot decodes");
    bytes.to_vec()
}

#[test]
fn every_truncation_errors_not_panics() {
    let data = sample_snapshot();
    for cut in fuzz::truncations(&data, 64) {
        let res = persist::decode(Bytes::from(cut.clone()));
        assert!(
            res.is_err(),
            "truncated snapshot of {} bytes decoded successfully",
            cut.len()
        );
    }
}

#[test]
fn seeded_bit_flips_never_panic() {
    let data = sample_snapshot();
    let mut rng = SeededRng::new(0xB17_F11B);
    for flipped in fuzz::bit_flips(&data, &mut rng, 256) {
        // A flip in a float payload can legitimately still decode; the
        // contract is only "Err or a structurally valid index, never a
        // panic or wild allocation".
        if let Ok((index, n)) = persist::decode(Bytes::from(flipped)) {
            assert!(index.len() <= n, "decoded more landmarks than nodes");
        }
    }
}

#[test]
fn exhaustive_header_bit_flips_error_cleanly() {
    // Every single-bit corruption of the 32-byte header (magic +
    // num_nodes + top_n + count) must be rejected or decode to a
    // structurally valid index — exercised exhaustively, not sampled.
    let data = sample_snapshot();
    for bit in 0..32 * 8 {
        let flipped = fuzz::flip_bit(&data, bit);
        if let Ok((index, n)) = persist::decode(Bytes::from(flipped)) {
            assert!(index.len() <= n, "header bit {bit}: invalid index accepted");
        }
    }
}

#[test]
fn planted_absurd_fields_are_rejected_fast() {
    let data = sample_snapshot();
    // Header offsets: magic 0..8, num_nodes 8..16, top_n 16..24,
    // count 24..32; first landmark id 32..36; first list len 36..40.
    let huge64 = [u64::MAX, u64::MAX / 2, 1 << 40, (1 << 27) + 1];
    for &v in &huge64 {
        for offset in [8usize, 16, 24] {
            let res = persist::decode(Bytes::from(fuzz::splice_u64(&data, offset, v)));
            assert!(res.is_err(), "u64 {v:#x} at offset {offset} accepted");
        }
    }
    for &v in &[u32::MAX, u32::MAX / 2, 1 << 30] {
        let res = persist::decode(Bytes::from(fuzz::splice_u32(&data, 36, v)));
        assert_eq!(
            res.unwrap_err(),
            DecodeError::Truncated,
            "list length {v:#x} not rejected as truncated"
        );
    }
}

#[test]
fn over_length_inputs_are_rejected() {
    let data = sample_snapshot();
    for extra in [1usize, 7, 4096] {
        let mut padded = data.clone();
        padded.resize(data.len() + extra, 0);
        assert_eq!(
            persist::decode(Bytes::from(padded)).unwrap_err(),
            DecodeError::TrailingBytes(extra)
        );
    }
}

#[test]
fn corrupted_snapshot_cannot_poison_queries() {
    // End-to-end: a snapshot that survives decoding must be usable —
    // corrupt ones must be filtered out *at* decode time, so recommend
    // paths never see them.
    let case = corpus::generate(Preset::Dag, 0x5AFE);
    let graph = case.graph();
    let auth = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let p = Propagator::new(
        &graph,
        &auth,
        &sim,
        ScoreParams::default(),
        ScoreVariant::Full,
    );
    let landmarks: Vec<NodeId> = graph.nodes().take(2).collect();
    let index = LandmarkIndex::build(&p, landmarks, graph.num_nodes());
    let bytes = persist::encode(&index, graph.num_nodes());
    let (back, _) = persist::decode(bytes).unwrap();
    let rec = fui_landmarks::ApproxRecommender::new(&p, &back);
    // Just exercising the query path on a decoded index; the score
    // agreement itself is the conformance suite's job.
    let _ = rec.recommend_with(
        &mut fui_core::PropWorkspace::new(),
        NodeId(0),
        fui_taxonomy::Topic::Technology,
        5,
    );
}

// ---- durable serving-snapshot codec ---------------------------------

use fui_landmarks::EdgeChange;
use fui_service::durable::{self, JournalError, JournalOp, JournalRecord, SnapshotError};
use fui_taxonomy::{Topic, TopicSet};
use fui_testkit::chaos;

fn one_topic(t: Topic) -> TopicSet {
    let mut s = TopicSet::empty();
    s.insert(t);
    s
}

/// Bytes of a real snapshot file written by a durable service with a
/// rotation behind it and a non-empty pending buffer — every section
/// of the format populated. Each call writes in a directory of its
/// own: the tests calling it run in parallel threads.
fn sample_serving_snapshot() -> Vec<u8> {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fui-fuzz-snap-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let case = corpus::generate(Preset::Dag, 0x5EED_CA5E);
    let svc = chaos::durable_service(&case, &dir);
    svc.record(EdgeChange::insert(
        NodeId(0),
        NodeId(1),
        one_topic(Topic::ALL[2]),
    ))
    .unwrap();
    svc.rotate();
    svc.record(EdgeChange::insert(
        NodeId(1),
        NodeId(2),
        one_topic(Topic::ALL[4]),
    ))
    .unwrap();
    svc.persist().unwrap();
    let (_, newest) = durable::list_snapshots(&dir).unwrap().remove(0);
    let raw = std::fs::read(&newest).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    durable::decode_snapshot(Bytes::from(raw.clone())).expect("pristine snapshot decodes");
    raw
}

/// A small journal with every record kind.
fn sample_journal() -> Vec<u8> {
    let records = [
        JournalRecord {
            seq: 1,
            op: JournalOp::Change(EdgeChange::insert(
                NodeId(0),
                NodeId(1),
                one_topic(Topic::ALL[3]),
            )),
        },
        JournalRecord {
            seq: 2,
            op: JournalOp::Rotate,
        },
        JournalRecord {
            seq: 3,
            op: JournalOp::Refresh,
        },
        JournalRecord {
            seq: 4,
            op: JournalOp::Change(EdgeChange::remove(
                NodeId(1),
                NodeId(0),
                one_topic(Topic::ALL[3]),
            )),
        },
    ];
    let bytes = durable::encode_journal(&records);
    assert_eq!(durable::decode_journal(&bytes).unwrap(), records.to_vec());
    bytes
}

/// Byte offset of the graph blob's `u64` length prefix in the file
/// `state` was decoded from: past the slot table and the pending buffer.
fn graph_len_offset(state: &durable::SnapshotState) -> usize {
    let pending_at = chaos::SNAP_SLOT_COUNT_OFFSET + 4 + state.slot_versions.len() * 16;
    pending_at + 4 + state.pending.len() * 13
}

#[test]
fn serving_snapshot_truncations_error_not_panic() {
    let data = sample_serving_snapshot();
    for cut in fuzz::truncations(&data, 96) {
        assert!(
            durable::decode_snapshot(Bytes::from(cut.clone())).is_err(),
            "truncated serving snapshot of {} bytes decoded successfully",
            cut.len()
        );
    }
}

#[test]
fn serving_snapshot_every_bit_flip_errors() {
    // Unlike the landmark codec, the serving snapshot carries a whole
    // -file checksum, so *any* single-bit corruption — payload floats
    // included — must be rejected, not just structurally survived.
    let data = sample_serving_snapshot();
    let mut rng = SeededRng::new(0x5E41_F11B);
    for flipped in fuzz::bit_flips(&data, &mut rng, 256) {
        assert!(
            durable::decode_snapshot(Bytes::from(flipped)).is_err(),
            "bit-flipped serving snapshot decoded successfully"
        );
    }
}

#[test]
fn serving_snapshot_spliced_fields_rejected_after_refix() {
    // Splice absurd values into count/length fields and re-fix the
    // trailing checksum, so the *semantic* bound — not the checksum —
    // is what must reject the file, before any huge allocation.
    let data = sample_serving_snapshot();
    let pristine = durable::decode_snapshot(Bytes::from(data.clone())).unwrap();
    let slots = pristine.slot_versions.len();

    // Slot count at the fixed header offset.
    let mut huge_slots = fuzz::splice_u32(&data, chaos::SNAP_SLOT_COUNT_OFFSET, u32::MAX);
    chaos::refix_checksum(&mut huge_slots);
    assert!(
        matches!(
            durable::decode_snapshot(Bytes::from(huge_slots)),
            Err(SnapshotError::ImplausibleHeader("slots", _))
        ),
        "absurd slot count not rejected as implausible"
    );

    // Pending-change count right after the slot table.
    let pending_at = chaos::SNAP_SLOT_COUNT_OFFSET + 4 + slots * 16;
    let mut huge_pending = fuzz::splice_u32(&data, pending_at, u32::MAX);
    chaos::refix_checksum(&mut huge_pending);
    assert!(
        matches!(
            durable::decode_snapshot(Bytes::from(huge_pending)),
            Err(SnapshotError::ImplausibleHeader("pending", _))
        ),
        "absurd pending count not rejected as implausible"
    );

    // Embedded graph-blob length after the pending buffer.
    let graph_len_at = graph_len_offset(&pristine);
    for &v in &[u64::MAX, u64::MAX / 2, 1 << 40] {
        let mut huge_blob = fuzz::splice_u64(&data, graph_len_at, v);
        chaos::refix_checksum(&mut huge_blob);
        assert!(
            durable::decode_snapshot(Bytes::from(huge_blob)).is_err(),
            "absurd graph blob length {v:#x} accepted"
        );
    }

    // A graph generation its own epoch never reached (epoch forced to
    // zero under a post-rotation graph_gen).
    let mut stale = fuzz::splice_u64(&data, chaos::SNAP_EPOCH_OFFSET, 0);
    chaos::refix_checksum(&mut stale);
    assert!(
        matches!(
            durable::decode_snapshot(Bytes::from(stale)),
            Err(SnapshotError::ImplausibleHeader("graph_gen", _))
        ),
        "graph_gen > epoch not rejected as implausible"
    );
}

#[test]
fn serving_snapshot_v1_magic_is_bad_magic() {
    // The authority-carrying v1 format is a foreign file: no reader
    // is kept for it, whatever its checksum says.
    let mut v1 = sample_serving_snapshot();
    assert_eq!(&v1[..8], durable::SNAP_MAGIC);
    v1[..8].copy_from_slice(b"FUISNAP1");
    chaos::refix_checksum(&mut v1);
    assert!(matches!(
        durable::decode_snapshot(Bytes::from(v1)),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn serving_snapshot_rows_no_packer_emits_rejected_after_refix() {
    // A self-loop, a gap width above 32 and a set padding bit, each
    // spliced into one packed row of the embedded graph blob without
    // moving a byte, with the checksum re-fixed: only the arena
    // decoder's row check stands between the file and a graph that
    // breaks `edited`'s sorted-merge precondition or `==`.
    use fui_graph::arena::{self, DecodeError};
    let data = sample_serving_snapshot();
    let pristine = durable::decode_snapshot(Bytes::from(data.clone())).unwrap();
    let g = &pristine.graph;
    let blob = arena::encode(g);
    let blob_at = graph_len_offset(&pristine) + 8;
    assert_eq!(data[blob_at..blob_at + blob.len()], blob[..]);
    let arena = fuzz::ArenaBlob::parse(&blob);
    let rows_at = blob_at + blob.len() - arena.rows.len();
    let target_width = usize::BITS - (g.num_nodes() - 1).leading_zeros();
    // A row of two or more with padding bits after its last field.
    let (u, bits) = g
        .nodes()
        .filter(|&u| (2..255).contains(&g.out_degree(u)))
        .map(|u| {
            let row = arena.row(u.index());
            let widths = u16::from_le_bytes([row[1], row[2]]);
            let (gw, lw) = (usize::from(widths & 63), usize::from(widths >> 6 & 31));
            let bits = 8 + 11 + target_width as usize + lw + (g.out_degree(u) - 1) * (gw + lw);
            (u, bits)
        })
        .find(|&(_, bits)| bits % 8 != 0)
        .expect("a padded row of two");
    let row_at = rows_at + arena.offsets[u.index()] as usize;
    let last = row_at + bits.div_ceil(8) - 1;
    for (at_bit, value, width, why) in [
        (row_at * 8 + 19, u64::from(u.0), target_width, "self-loop"),
        (row_at * 8 + 8, 33, 6, "gap width 33"),
        (last * 8 + 7, 1, 1, "padding bit"),
    ] {
        let mut bad = data.clone();
        fuzz::put_bits(&mut bad, at_bit, value, width);
        chaos::refix_checksum(&mut bad);
        let want = match why {
            "self-loop" => DecodeError::MalformedRow(u.0),
            "gap width 33" => DecodeError::WidthOutOfRange(u.0),
            _ => DecodeError::NonZeroPadding(u.0),
        };
        assert_eq!(
            durable::decode_snapshot(Bytes::from(bad)).err(),
            Some(SnapshotError::Graph(want)),
            "{why} row accepted"
        );
    }
}

#[test]
fn serving_snapshot_v2_is_a_typed_legacy_error() {
    // The unpacked-row format before FUISNAP3 has no reader and no
    // migration: restore names it instead of calling it garbage.
    let mut v2 = sample_serving_snapshot();
    v2[..8].copy_from_slice(b"FUISNAP2");
    chaos::refix_checksum(&mut v2);
    assert_eq!(
        durable::decode_snapshot(Bytes::from(v2)).err(),
        Some(SnapshotError::LegacyFormat)
    );
}

// ---- packed out-rows of the graph arena -----------------------------

/// A 300-node graph (first targets take 9 bits) whose node 0 follows
/// 1, 5 and 6 on labels 0, 1, 0, node 1 follows 0 on label 2 and node
/// 2 follows everyone above it (a degree past the 255 escape).
fn sample_arena() -> fuzz::ArenaBlob {
    let mut b = fui_graph::GraphBuilder::new();
    b.add_nodes(300);
    let (l0, l1, l2) = (
        one_topic(Topic::ALL[0]),
        one_topic(Topic::ALL[1]),
        one_topic(Topic::ALL[2]),
    );
    b.add_edge(NodeId(0), NodeId(1), l0);
    b.add_edge(NodeId(0), NodeId(5), l1);
    b.add_edge(NodeId(0), NodeId(6), l0);
    b.add_edge(NodeId(1), NodeId(0), l2);
    for v in 3..300 {
        b.add_edge(NodeId(2), NodeId(v), l0);
    }
    fuzz::ArenaBlob::parse(&fui_graph::arena::encode(&b.build()))
}

/// Node 0's record with its fields as given: the gap width, the label
/// width, the first `(target, label id)`, then `(gap − 1, label id)`
/// pairs.
fn row0(gw: u32, lw: u32, first: (u64, u64), pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut fields = vec![(u64::from(gw | lw << 6), 11), (first.0, 9), (first.1, lw)];
    for &(gap, label) in pairs {
        fields.extend([(gap, gw), (label, lw)]);
    }
    fuzz::packed_record(&[1 + pairs.len() as u8], &fields)
}

#[test]
fn arena_rows_no_packer_emits_are_typed_errors() {
    use fui_graph::arena::{decode, DecodeError::*};
    let pristine = sample_arena();
    // The layout the module docs give: degree 3, gap width 2, label
    // width 1, target 1 at 9 bits, then (3, 1) and (0, 0); 27 bits, so
    // five zero padding bits.
    let canonical = row0(2, 1, (1, 0), &[(3, 1), (0, 0)]);
    assert_eq!(pristine.row(0), &canonical[..]);
    assert_eq!(decode(Bytes::from(pristine.to_bytes())).map(|_| ()), Ok(()));

    let with_row0 = |record: &[u8]| {
        let mut a = pristine.clone();
        a.set_row(0, record);
        a
    };
    let mut padded = canonical.clone();
    *padded.last_mut().unwrap() |= 0x80;
    let mut escaped = vec![255, 3, 0, 0, 0];
    escaped.extend_from_slice(&canonical[1..]);
    let mut cases = vec![
        (
            with_row0(&row0(33, 1, (1, 0), &[(3, 1), (0, 0)])),
            WidthOutOfRange(0),
            "gap width 33",
        ),
        (
            with_row0(&row0(2, 17, (1, 0), &[(3, 1), (0, 0)])),
            WidthOutOfRange(0),
            "label width 17",
        ),
        (
            with_row0(&row0(3, 1, (1, 0), &[(3, 1), (0, 0)])),
            NonCanonicalRow(0),
            "gap width too wide",
        ),
        (
            with_row0(&row0(2, 2, (1, 0), &[(3, 1), (0, 0)])),
            NonCanonicalRow(0),
            "label width too wide",
        ),
        (
            with_row0(&escaped),
            NonCanonicalRow(0),
            "degree escape below 255",
        ),
        (with_row0(&padded), NonZeroPadding(0), "padding bit"),
        (
            with_row0(&row0(9, 1, (1, 0), &[(298, 1), (0, 0)])),
            NodeOutOfRange(300),
            "gap past n",
        ),
        (
            with_row0(&row0(2, 1, (0, 0), &[(3, 1), (0, 0)])),
            MalformedRow(0),
            "self-loop",
        ),
        (
            with_row0(&row0(2, 2, (1, 0), &[(3, 3), (0, 0)])),
            LabelOutOfRange(3),
            "label id = table length",
        ),
        (
            with_row0(&row0(2, 1, (1, 1), &[(3, 0), (0, 0)])),
            NonCanonicalLabels,
            "labels out of first-seen order",
        ),
        (with_row0(&canonical[..3]), TruncatedRow(0), "truncated row"),
    ];
    let mut short = pristine.clone();
    short.offsets[1] -= 1;
    cases.push((short, TruncatedRow(0), "offset one byte early"));
    let mut long = pristine.clone();
    long.offsets[1] += 1;
    cases.push((long, RowLength(0), "offset one byte late"));
    let mut zero = pristine.clone();
    zero.rows[zero.offsets[1] as usize] = 0;
    cases.push((zero, NonCanonicalRow(1), "zero degree"));
    let mut legacy = pristine.clone();
    legacy.magic = *b"FUICSR2\n";
    cases.push((legacy, LegacyFormat, "FUICSR2 magic"));
    for (blob, want, why) in cases {
        assert_eq!(
            decode(Bytes::from(blob.to_bytes())).err(),
            Some(want),
            "{why}"
        );
    }
}

#[test]
fn serving_snapshot_over_length_rejected() {
    let data = sample_serving_snapshot();
    for extra in [1usize, 7, 4096] {
        // Raw padding lands in the checksum's coverage: mismatch.
        let mut padded = data.clone();
        padded.resize(data.len() + extra, 0);
        assert!(matches!(
            durable::decode_snapshot(Bytes::from(padded.clone())),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Checksum re-fixed over the padding: the typed trailing-bytes
        // rejection must catch it instead.
        chaos::refix_checksum(&mut padded);
        assert!(matches!(
            durable::decode_snapshot(Bytes::from(padded)),
            Err(SnapshotError::TrailingBytes(n)) if n == extra
        ));
    }
}

// ---- write-ahead journal codec --------------------------------------

#[test]
fn journal_truncations_keep_a_valid_prefix() {
    let data = sample_journal();
    let full = durable::decode_journal(&data).unwrap();
    for cut in fuzz::truncations(&data, 64) {
        let (records, valid_len, err) = durable::decode_journal_prefix(&cut);
        assert!(valid_len <= cut.len());
        assert!(records.len() <= full.len());
        // The strict decode agrees with the lossy scan, and a cut that
        // is not exactly a record boundary is a typed torn tail.
        match err {
            None => {
                assert_eq!(valid_len, cut.len());
                assert_eq!(durable::decode_journal(&cut).unwrap(), records);
            }
            Some(e) => {
                assert!(matches!(
                    e,
                    JournalError::BadMagic | JournalError::TornTail { .. }
                ));
                assert_eq!(durable::decode_journal(&cut).unwrap_err(), e);
            }
        }
        // The surviving prefix is always a prefix of the full decode.
        assert_eq!(&full[..records.len()], records.as_slice());
    }
}

#[test]
fn journal_every_bit_flip_errors() {
    // Per-record checksums cover the whole frame, so any single-bit
    // corruption must surface as a typed error under strict decoding.
    let data = sample_journal();
    let mut rng = SeededRng::new(0x3A1_F11B);
    for flipped in fuzz::bit_flips(&data, &mut rng, 256) {
        assert!(
            durable::decode_journal(&flipped).is_err(),
            "bit-flipped journal decoded cleanly"
        );
    }
}

#[test]
fn journal_torn_tail_reports_the_valid_prefix() {
    let mut data = sample_journal();
    let whole = data.len();
    // A crash mid-append: half of a valid record on the tail.
    let partial = durable::encode_record(9, &JournalOp::Rotate);
    data.extend_from_slice(&partial[..partial.len() / 2]);
    let (records, valid_len, err) = durable::decode_journal_prefix(&data);
    assert_eq!(records.len(), 4);
    assert_eq!(
        valid_len, whole,
        "valid prefix must stop at the last whole record"
    );
    assert_eq!(err, Some(JournalError::TornTail { valid_len: whole }));
}

#[test]
fn journal_semantic_corruptions_are_typed() {
    // Sequence regression between two individually valid records.
    let mut non_monotone = durable::WAL_MAGIC.to_vec();
    non_monotone.extend_from_slice(&durable::encode_record(5, &JournalOp::Rotate));
    non_monotone.extend_from_slice(&durable::encode_record(3, &JournalOp::Refresh));
    assert_eq!(
        durable::decode_journal(&non_monotone).unwrap_err(),
        JournalError::NonMonotoneSeq { prev: 5, next: 3 }
    );

    // An over-length frame is torn, never allocated.
    let mut oversized = durable::WAL_MAGIC.to_vec();
    oversized.extend_from_slice(&((durable::MAX_RECORD_BYTES + 1) as u32).to_le_bytes());
    oversized.extend_from_slice(&[0u8; 64]);
    assert_eq!(
        durable::decode_journal(&oversized).unwrap_err(),
        JournalError::TornTail { valid_len: 8 }
    );

    // Wrong magic.
    let mut bad_magic = sample_journal();
    bad_magic[0] ^= 0xFF;
    assert_eq!(
        durable::decode_journal(&bad_magic).unwrap_err(),
        JournalError::BadMagic
    );
}
