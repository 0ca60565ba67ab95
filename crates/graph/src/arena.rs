//! Binary persistence of the [`SocialGraph`] CSR arenas.
//!
//! The durable serving snapshot (fui-service) embeds the whole follow
//! graph, so the arenas need the same hardened codec treatment as the
//! landmark index (`fui-landmarks/persist.rs`): every declared count is
//! bounded against the bytes actually present *before* anything is
//! allocated, and every packed out-row is re-validated on decode —
//! monotone byte offsets, in-range targets and label ids, no self-loop,
//! and the one canonical encoding the packer writes (exact widths, the
//! degree escape only where needed, zero padding bits, a record that
//! fills its offsets' span exactly). The label table must be in the
//! packer's first-seen order with no entry repeated or unused, so a
//! graph that decodes is byte-equal to the one that was encoded and
//! `==` on decoded graphs is still graph equality.
//!
//! Nothing of the in direction is **in the blob**: it is the transpose
//! of the out-CSR, so [`decode`] counts the in-offsets as every packer
//! does and leaves the in-edge arenas to be derived on first use, and a
//! file whose two sides disagree cannot be written down. Layout,
//! little-endian throughout:
//!
//! ```text
//! magic "FUICSR3\n" | u64 num_nodes | u64 num_edges | u64 label_table_len | u64 row_bytes
//! node_labels:  num_nodes × u32 topic mask
//! label_table:  label_table_len × u32 topic mask
//! out_offsets:  (num_nodes + 1) × u32 byte offset into the rows
//! rows:         row_bytes bytes, one packed record per non-empty row
//! ```
//!
//! A record is a degree byte (255 escapes to a `u32` degree for rows of
//! 255 or more), then a bit stream, least significant bit first: a
//! 6-bit gap width `gw` (≤ 32) and a 5-bit label width `lw` (≤ 16), the
//! first target at `⌈log₂ num_nodes⌉` bits and its label id at `lw`
//! bits, then per further edge `target − previous − 1` at `gw` bits and
//! its label id at `lw` bits, zero bits up to the next byte. An empty
//! row has no record (its two offsets are equal).
//!
//! A `FUICSR2` blob — the layout that stored a `u32` target and a `u16`
//! label id per edge — is [`DecodeError::LegacyFormat`]; there is no
//! migration.

use std::collections::HashSet;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fui_taxonomy::TopicSet;

use crate::csr::SocialGraph;
use crate::rows::{self, Header, PackedRows};

const MAGIC: &[u8; 8] = b"FUICSR3\n";

/// The magic of the unpacked layout this one replaced.
const LEGACY_MAGIC: &[u8; 8] = b"FUICSR2\n";

/// Bytes of the fixed header: the magic and four `u64` counts.
const HEADER_BYTES: usize = 40;

/// Largest node count an arena snapshot may declare (2^27 ≈ 134M,
/// comfortably above Twitter-scale). Mirrors the landmark codec bound.
pub const MAX_NODES: usize = 1 << 27;

/// Largest edge count an arena snapshot may declare (2^31). Every edge
/// is a strictly ascending target below the node count, so a row's
/// degree is bounded by the nodes actually present too.
pub const MAX_EDGES: usize = 1 << 31;

/// The label interner packs indices into `u16`, so the table can never
/// legitimately exceed this.
pub const MAX_LABEL_TABLE: usize = 1 << 16;

/// Errors surfaced while decoding an arena snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Missing or wrong magic header.
    BadMagic,
    /// A `FUICSR2` blob, written before out-rows were packed; it is not
    /// read.
    LegacyFormat,
    /// Buffer ended before the structure was complete.
    Truncated,
    /// A header field declares a value no well-formed snapshot could
    /// hold (named field, declared value).
    ImplausibleHeader(&'static str, u64),
    /// A stored edge endpoint reaches past the declared node count
    /// (saturated at `u32::MAX` when a gap overflows the id space).
    NodeOutOfRange(u32),
    /// A stored label index exceeds the declared label-table length.
    LabelOutOfRange(u16),
    /// The offset array is not a monotone CSR prefix-sum ending at the
    /// declared row bytes.
    BrokenOffsets,
    /// The out-row of this node contains the node itself, or more
    /// targets than there are other nodes.
    MalformedRow(u32),
    /// The out-row of this node needs more bytes than its offsets give
    /// it.
    TruncatedRow(u32),
    /// The out-row of this node ends before its offsets' span does.
    RowLength(u32),
    /// The out-row of this node declares a gap width above 32 or a
    /// label width above 16.
    WidthOutOfRange(u32),
    /// The out-row of this node is not the packer's encoding of its
    /// edges: a zero degree, a degree escape below 255, or a width
    /// other than its widest field's.
    NonCanonicalRow(u32),
    /// The out-row of this node has a nonzero bit after its last field.
    NonZeroPadding(u32),
    /// The label table repeats an entry, holds one no edge uses, or is
    /// not in first-seen order over the rows.
    NonCanonicalLabels,
    /// Bytes remained after the declared structure was fully read.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a graph arena snapshot"),
            DecodeError::LegacyFormat => {
                write!(f, "a FUICSR2 arena snapshot (unpacked rows); not read")
            }
            DecodeError::Truncated => write!(f, "arena snapshot truncated"),
            DecodeError::ImplausibleHeader(field, v) => {
                write!(f, "implausible header field {field} = {v}")
            }
            DecodeError::NodeOutOfRange(v) => write!(f, "node id {v} out of range"),
            DecodeError::LabelOutOfRange(v) => write!(f, "label index {v} out of range"),
            DecodeError::BrokenOffsets => {
                write!(f, "out offsets are not a valid CSR prefix sum")
            }
            DecodeError::MalformedRow(u) => {
                write!(f, "out-row of node {u} is not loop-free")
            }
            DecodeError::TruncatedRow(u) => write!(f, "out-row of node {u} is truncated"),
            DecodeError::RowLength(u) => {
                write!(f, "out-row of node {u} disagrees with its offsets")
            }
            DecodeError::WidthOutOfRange(u) => {
                write!(f, "out-row of node {u} declares a field width out of range")
            }
            DecodeError::NonCanonicalRow(u) => {
                write!(f, "out-row of node {u} is not in canonical packed form")
            }
            DecodeError::NonZeroPadding(u) => {
                write!(f, "out-row of node {u} has nonzero padding bits")
            }
            DecodeError::NonCanonicalLabels => {
                write!(f, "label table is not in first-seen order")
            }
            DecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the declared structure")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serialises the graph's arenas to bytes.
pub fn encode(g: &SocialGraph) -> Bytes {
    let n = g.num_nodes();
    let t = g.label_table.len();
    let rows = &g.out_rows[..g.out_rows.len() - rows::PAD];
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + body_bytes(n, t, rows.len()) as usize);
    buf.put_slice(MAGIC);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(g.num_edges() as u64);
    buf.put_u64_le(t as u64);
    buf.put_u64_le(rows.len() as u64);
    for &labels in &g.node_labels {
        buf.put_u32_le(labels.mask());
    }
    for &labels in &g.label_table {
        buf.put_u32_le(labels.mask());
    }
    for &o in &g.out_offsets {
        buf.put_u32_le(o);
    }
    buf.put_slice(rows);
    buf.freeze()
}

/// Exact body size (everything after the header) implied by the header
/// counts. Computed in `u64` so absurd declared values cannot wrap on
/// 32-bit `usize`.
fn body_bytes(n: usize, t: usize, row_bytes: usize) -> u64 {
    let n = n as u64;
    n * 4 + t as u64 * 4 + (n + 1) * 4 + row_bytes as u64
}

fn get_offsets(buf: &mut Bytes, n: usize, row_bytes: usize) -> Result<Vec<u32>, DecodeError> {
    let mut offsets = Vec::with_capacity(n + 1);
    let mut prev = 0u32;
    for i in 0..=n {
        let o = buf.get_u32_le();
        if o < prev || (i == 0 && o != 0) {
            return Err(DecodeError::BrokenOffsets);
        }
        prev = o;
        offsets.push(o);
    }
    if prev as usize != row_bytes {
        return Err(DecodeError::BrokenOffsets);
    }
    Ok(offsets)
}

/// Validates node `u`'s record at `start..end` of the padded `stream`:
/// the packer's canonical encoding of a loop-free row of in-range
/// targets and label ids. Returns the row's degree; every edge is
/// handed to `edge` as `(label id, target)`.
fn check_row(
    stream: &[u8],
    (start, end): (usize, usize),
    u: u32,
    (n, t): (usize, usize),
    mut edge: impl FnMut(u16, usize) -> Result<(), DecodeError>,
) -> Result<usize, DecodeError> {
    let span = end - start;
    let skip = match stream[start] {
        0 => return Err(DecodeError::NonCanonicalRow(u)),
        rows::DEGREE_ESCAPE if span < 5 => return Err(DecodeError::TruncatedRow(u)),
        rows::DEGREE_ESCAPE => 5,
        _ => 1,
    };
    if span < skip + 2 {
        return Err(DecodeError::TruncatedRow(u));
    }
    let h = Header::read(stream, start);
    if skip == 5 && h.degree < u32::from(rows::DEGREE_ESCAPE) {
        return Err(DecodeError::NonCanonicalRow(u));
    }
    if h.degree as usize >= n {
        return Err(DecodeError::MalformedRow(u));
    }
    if h.gap_width > rows::MAX_GAP_WIDTH || h.label_width > rows::MAX_LABEL_WIDTH {
        return Err(DecodeError::WidthOutOfRange(u));
    }
    let tw = rows::target_width(n);
    let record = h.record_bytes(start, tw);
    if record > span as u64 {
        return Err(DecodeError::TruncatedRow(u));
    }
    if record < span as u64 {
        return Err(DecodeError::RowLength(u));
    }
    let (mut bit, mut width) = (h.fields_bit, tw);
    let (mut prev, mut gap_width, mut label_width) = (None::<u64>, 0, 0);
    for _ in 0..h.degree {
        let x = rows::load(stream, bit);
        let field = x & ((1u64 << width) - 1);
        let id = ((x >> width) & ((1u64 << h.label_width) - 1)) as u16;
        bit += (width + h.label_width) as usize;
        width = h.gap_width;
        let v = match prev {
            None => field,
            Some(p) => {
                gap_width = gap_width.max(rows::bit_width(field as u32));
                p + field + 1
            }
        };
        if v >= n as u64 {
            return Err(DecodeError::NodeOutOfRange(
                u32::try_from(v).unwrap_or(u32::MAX),
            ));
        }
        if v == u64::from(u) {
            return Err(DecodeError::MalformedRow(u));
        }
        if id as usize >= t {
            return Err(DecodeError::LabelOutOfRange(id));
        }
        edge(id, v as usize)?;
        label_width = label_width.max(rows::bit_width(u32::from(id)));
        prev = Some(v);
    }
    if gap_width != h.gap_width || label_width != h.label_width {
        return Err(DecodeError::NonCanonicalRow(u));
    }
    if bit % 8 != 0 && stream[end - 1] >> (bit % 8) != 0 {
        return Err(DecodeError::NonZeroPadding(u));
    }
    Ok(h.degree as usize)
}

/// Decodes an arena snapshot back into a [`SocialGraph`].
///
/// The header counts are bounded and checked against the remaining
/// buffer length before any array is allocated; the offset array must
/// be a valid CSR prefix sum over the rows, every row the canonical
/// record of a loop-free row of in-range targets and label ids, the
/// rows' degrees must sum to the declared edge count and the label
/// table must be in first-seen order; the in-offsets are then counted
/// as the packers count them, so the returned graph equals the encoded
/// one and passes [`SocialGraph::check_consistency`].
pub fn decode(mut buf: Bytes) -> Result<SocialGraph, DecodeError> {
    if buf.remaining() < MAGIC.len() {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic == LEGACY_MAGIC {
        return Err(DecodeError::LegacyFormat);
    }
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if buf.remaining() < HEADER_BYTES - MAGIC.len() {
        return Err(DecodeError::Truncated);
    }
    let n_raw = buf.get_u64_le();
    if n_raw > MAX_NODES as u64 {
        return Err(DecodeError::ImplausibleHeader("num_nodes", n_raw));
    }
    let e_raw = buf.get_u64_le();
    if e_raw > MAX_EDGES as u64 {
        return Err(DecodeError::ImplausibleHeader("num_edges", e_raw));
    }
    let t_raw = buf.get_u64_le();
    if t_raw > MAX_LABEL_TABLE as u64 {
        return Err(DecodeError::ImplausibleHeader("label_table_len", t_raw));
    }
    let r_raw = buf.get_u64_le();
    if r_raw > u64::from(u32::MAX) {
        return Err(DecodeError::ImplausibleHeader("row_bytes", r_raw));
    }
    let (n, e, t, r) = (
        n_raw as usize,
        e_raw as usize,
        t_raw as usize,
        r_raw as usize,
    );
    if e > 0 && t == 0 {
        // Every edge stores a label index, so a non-empty edge set
        // with an empty table cannot be decoded in-range.
        return Err(DecodeError::ImplausibleHeader("label_table_len", 0));
    }
    let body = body_bytes(n, t, r);
    if (buf.remaining() as u64) < body {
        return Err(DecodeError::Truncated);
    }
    if buf.remaining() as u64 > body {
        return Err(DecodeError::TrailingBytes(buf.remaining() - body as usize));
    }
    let mut node_labels = Vec::with_capacity(n);
    for _ in 0..n {
        node_labels.push(TopicSet::from_mask(buf.get_u32_le()));
    }
    let mut label_table = Vec::with_capacity(t);
    for _ in 0..t {
        label_table.push(TopicSet::from_mask(buf.get_u32_le()));
    }
    let mut distinct = HashSet::with_capacity(t);
    if !label_table.iter().all(|l| distinct.insert(l.mask())) {
        return Err(DecodeError::NonCanonicalLabels);
    }
    let out_offsets = get_offsets(&mut buf, n, r)?;
    let mut stream = Vec::with_capacity(r + rows::PAD);
    stream.extend_from_slice(&buf[..r]);
    stream.extend_from_slice(&[0; rows::PAD]);
    buf.advance(r);
    debug_assert_eq!(buf.remaining(), 0);

    // First-seen order: a label id met for the first time must be the
    // next one the interner would have handed out. The in-degrees are
    // counted on the way, as the packer counts them.
    let (mut seen, mut next_new) = (vec![false; t], 0usize);
    let mut in_offsets = vec![0u32; n + 1];
    let mut edge = |id: u16, v: usize| {
        if !seen[id as usize] {
            if id as usize != next_new {
                return Err(DecodeError::NonCanonicalLabels);
            }
            seen[id as usize] = true;
            next_new += 1;
        }
        in_offsets[v + 1] += 1;
        Ok(())
    };
    let mut edges = 0usize;
    for (u, span) in out_offsets.windows(2).enumerate() {
        let (start, end) = (span[0] as usize, span[1] as usize);
        if start < end {
            edges += check_row(&stream, (start, end), u as u32, (n, t), &mut edge)?;
        }
    }
    if edges != e {
        return Err(DecodeError::ImplausibleHeader("num_edges", e_raw));
    }
    if next_new != t {
        return Err(DecodeError::NonCanonicalLabels);
    }
    for i in 0..n {
        in_offsets[i + 1] += in_offsets[i];
    }
    let packed = PackedRows {
        offsets: out_offsets,
        stream,
        edges,
        in_offsets,
    };
    Ok(SocialGraph::from_packed(node_labels, label_table, packed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::NodeId;
    use fui_taxonomy::Topic;

    fn sample() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let tech = TopicSet::single(Topic::Technology);
        let health = TopicSet::single(Topic::Health);
        for i in 0..6 {
            b.add_node(if i % 2 == 0 { tech } else { health });
        }
        b.add_edge(NodeId(0), NodeId(1), tech);
        b.add_edge(NodeId(0), NodeId(3), health);
        b.add_edge(NodeId(1), NodeId(2), tech.union(health));
        b.add_edge(NodeId(2), NodeId(0), health);
        b.add_edge(NodeId(4), NodeId(5), tech);
        b.build()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let g = sample();
        let bytes = encode(&g);
        let back = decode(bytes).unwrap();
        assert_eq!(g, back);
        back.check_consistency().unwrap();
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().build();
        let back = decode(encode(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut raw = encode(&sample()).to_vec();
        raw[0] ^= 0xff;
        assert_eq!(decode(Bytes::from(raw)), Err(DecodeError::BadMagic));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let raw = encode(&sample()).to_vec();
        for cut in 0..raw.len() {
            let err = decode(Bytes::from(raw[..cut].to_vec())).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated | DecodeError::BadMagic | DecodeError::BrokenOffsets
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        let raw = encode(&sample()).to_vec();
        for (at, field) in [
            (8, "num_nodes"),
            (16, "num_edges"),
            (24, "label_table_len"),
            (32, "row_bytes"),
        ] {
            let mut bad = raw.clone();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            match decode(Bytes::from(bad)) {
                Err(DecodeError::ImplausibleHeader(f, v)) => {
                    assert_eq!(f, field);
                    assert_eq!(v, u64::MAX);
                }
                other => panic!("expected ImplausibleHeader for {field}, got {other:?}"),
            }
        }
    }

    /// Byte offset of node `u`'s record: header, node labels, label
    /// table, offsets, then the record's own offset.
    fn row_at(g: &SocialGraph, u: usize) -> usize {
        HEADER_BYTES + (2 * g.num_nodes() + 1 + g.label_table.len()) * 4 + g.out_offsets[u] as usize
    }

    #[test]
    fn out_of_range_target_is_rejected() {
        // Node 0's row is [1 (label 0), 3 (label 1)]: first target at
        // bit 19 of its record, 3 bits wide in a 6-node graph.
        let g = sample();
        let mut raw = encode(&g).to_vec();
        let at = row_at(&g, 0);
        raw[at + 2] |= 0b111 << 3;
        assert_eq!(
            decode(Bytes::from(raw)),
            Err(DecodeError::NodeOutOfRange(7))
        );
    }

    #[test]
    fn rows_no_packer_emits_are_rejected() {
        // Same-length splices into node 0's record, every value in
        // range, so only the row checks can catch them.
        let g = sample();
        let raw = encode(&g).to_vec();
        let at = row_at(&g, 0);
        assert_eq!(raw[at], 2, "degree byte");
        let gap_width = raw[at + 1] & 63;
        for (byte, mask, value, want, why) in [
            // First target 0: node 0 follows itself.
            (at + 2, 0b111 << 3, 0, DecodeError::MalformedRow(0), "loop"),
            // Gap width one wider than the row's widest gap.
            (
                at + 1,
                63,
                gap_width + 1,
                DecodeError::NonCanonicalRow(0),
                "wide gap",
            ),
            // Gap width 33.
            (
                at + 1,
                63,
                33,
                DecodeError::WidthOutOfRange(0),
                "gap width 33",
            ),
            // Degree 0 in a non-empty span.
            (at, 0xff, 0, DecodeError::NonCanonicalRow(0), "zero degree"),
        ] {
            let mut bad = raw.clone();
            bad[byte] = bad[byte] & !mask | value << mask.trailing_zeros();
            assert_eq!(decode(Bytes::from(bad)), Err(want), "{why}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut raw = encode(&sample()).to_vec();
        raw.extend_from_slice(&[0u8; 7]);
        assert_eq!(decode(Bytes::from(raw)), Err(DecodeError::TrailingBytes(7)));
    }

    #[test]
    fn non_monotone_offsets_are_rejected() {
        let g = sample();
        let mut raw = encode(&g).to_vec();
        let at = HEADER_BYTES + g.num_nodes() * 4 + g.label_table.len() * 4 + 4;
        raw[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(Bytes::from(raw)), Err(DecodeError::BrokenOffsets));
    }

    #[test]
    fn legacy_magic_is_a_typed_error() {
        let mut raw = encode(&sample()).to_vec();
        raw[..8].copy_from_slice(LEGACY_MAGIC);
        assert_eq!(decode(Bytes::from(raw)), Err(DecodeError::LegacyFormat));
    }
}
