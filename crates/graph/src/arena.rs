//! Binary persistence of the [`SocialGraph`] CSR arenas.
//!
//! The durable serving snapshot (fui-service) embeds the whole follow
//! graph, so the arenas need the same hardened codec treatment as the
//! landmark index (`fui-landmarks/persist.rs`): every declared count is
//! bounded against the bytes actually present *before* anything is
//! allocated, and the structural invariants of the out-CSR (monotone
//! offsets, in-range endpoints, strictly ascending loop-free rows,
//! in-range label indices) are re-validated on decode. The label
//! table's entries are taken as read, not checked for duplicates.
//!
//! Nothing of the in direction is **in the blob**: it is the transpose
//! of the out-CSR, so [`decode`] counts the in-offsets as every packer
//! does and leaves the in-edge arenas to be derived on first use, and a
//! file whose two sides disagree cannot be written down. Layout,
//! little-endian throughout:
//!
//! ```text
//! magic "FUICSR2\n" | u64 num_nodes | u64 num_edges | u64 label_table_len
//! node_labels:  num_nodes × u32 topic mask
//! label_table:  label_table_len × u32 topic mask
//! out_offsets:  (num_nodes + 1) × u32
//! out_targets:  num_edges × u32
//! out_labels:   num_edges × u16
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fui_taxonomy::TopicSet;

use crate::csr::{NodeId, SocialGraph};

const MAGIC: &[u8; 8] = b"FUICSR2\n";

/// Largest node count an arena snapshot may declare (2^27 ≈ 134M,
/// comfortably above Twitter-scale). Mirrors the landmark codec bound.
pub const MAX_NODES: usize = 1 << 27;

/// Largest edge count an arena snapshot may declare (2^31). The decoder
/// allocates 6 bytes per edge, so this caps a corrupt header at the
/// same order as a legitimately huge graph rather than at terabytes.
pub const MAX_EDGES: usize = 1 << 31;

/// The label interner packs indices into `u16`, so the table can never
/// legitimately exceed this.
pub const MAX_LABEL_TABLE: usize = 1 << 16;

/// Errors surfaced while decoding an arena snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Missing or wrong magic header.
    BadMagic,
    /// Buffer ended before the structure was complete.
    Truncated,
    /// A header field declares a value no well-formed snapshot could
    /// hold (named field, declared value).
    ImplausibleHeader(&'static str, u64),
    /// A stored edge endpoint exceeds the declared node count.
    NodeOutOfRange(u32),
    /// A stored label index exceeds the declared label-table length.
    LabelOutOfRange(u16),
    /// The offset array is not a monotone CSR prefix-sum ending at the
    /// declared edge count.
    BrokenOffsets,
    /// The out-row of this node is not strictly ascending or contains
    /// the node itself — no packer emits a duplicate target, an
    /// unsorted row or a self-loop.
    MalformedRow(u32),
    /// Bytes remained after the declared structure was fully read.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a graph arena snapshot"),
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
                write!(
                    f,
                    "out-row of node {u} is not strictly ascending and loop-free"
                )
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
    let e = g.num_edges();
    let t = g.label_table.len();
    let mut buf = BytesMut::with_capacity(32 + body_bytes(n, e, t) as usize);
    buf.put_slice(MAGIC);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(e as u64);
    buf.put_u64_le(t as u64);
    for &labels in &g.node_labels {
        buf.put_u32_le(labels.mask());
    }
    for &labels in &g.label_table {
        buf.put_u32_le(labels.mask());
    }
    for &o in &g.out_offsets {
        buf.put_u32_le(o);
    }
    for &v in &g.out_targets {
        buf.put_u32_le(v.0);
    }
    for &l in &g.out_labels {
        buf.put_u16_le(l);
    }
    buf.freeze()
}

/// Exact body size (everything after the 32-byte header) implied by the
/// header counts. Computed in `u64` so absurd declared values cannot
/// wrap on 32-bit `usize`.
fn body_bytes(n: usize, e: usize, t: usize) -> u64 {
    let n = n as u64;
    let e = e as u64;
    let t = t as u64;
    n * 4 + t * 4 + (n + 1) * 4 + e * 4 + e * 2
}

fn get_offsets(buf: &mut Bytes, n: usize, e: usize) -> Result<Vec<u32>, DecodeError> {
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
    if prev as usize != e {
        return Err(DecodeError::BrokenOffsets);
    }
    Ok(offsets)
}

/// Reads the out-rows `offsets` delimits. Every target must be in
/// range, and every row strictly ascending (sorted, no duplicate) and
/// free of its own node — what the packers emit and what
/// [`SocialGraph::edited`]'s sorted merge takes for granted.
fn get_rows(buf: &mut Bytes, offsets: &[u32], n: usize) -> Result<Vec<NodeId>, DecodeError> {
    let mut targets = Vec::with_capacity(offsets[n] as usize);
    for (u, row) in offsets.windows(2).enumerate() {
        let mut prev = None;
        for _ in row[0]..row[1] {
            let v = buf.get_u32_le();
            if v as usize >= n {
                return Err(DecodeError::NodeOutOfRange(v));
            }
            if v as usize == u || prev.is_some_and(|p| p >= v) {
                return Err(DecodeError::MalformedRow(u as u32));
            }
            prev = Some(v);
            targets.push(NodeId(v));
        }
    }
    Ok(targets)
}

fn get_label_indices(buf: &mut Bytes, e: usize, t: usize) -> Result<Vec<u16>, DecodeError> {
    let mut labels = Vec::with_capacity(e);
    for _ in 0..e {
        let l = buf.get_u16_le();
        if l as usize >= t {
            return Err(DecodeError::LabelOutOfRange(l));
        }
        labels.push(l);
    }
    Ok(labels)
}

/// Decodes an arena snapshot back into a [`SocialGraph`].
///
/// The header counts are bounded and checked against the remaining
/// buffer length before any array is allocated; the offset array must
/// be a valid CSR prefix sum, every endpoint / label index in range and
/// every row strictly ascending and loop-free; the in-offsets are then
/// counted as the packers count them, so the returned graph equals the
/// encoded one and passes [`SocialGraph::check_consistency`].
pub fn decode(mut buf: Bytes) -> Result<SocialGraph, DecodeError> {
    if buf.remaining() < MAGIC.len() {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if buf.remaining() < 24 {
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
    let (n, e, t) = (n_raw as usize, e_raw as usize, t_raw as usize);
    if e > 0 && t == 0 {
        // Every edge stores a label index, so a non-empty edge set
        // with an empty table cannot be decoded in-range.
        return Err(DecodeError::ImplausibleHeader("label_table_len", 0));
    }
    let body = body_bytes(n, e, t);
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
    let out_offsets = get_offsets(&mut buf, n, e)?;
    let out_targets = get_rows(&mut buf, &out_offsets, n)?;
    let out_labels = get_label_indices(&mut buf, e, t)?;
    debug_assert_eq!(buf.remaining(), 0);
    Ok(SocialGraph::from_out_csr(
        node_labels,
        label_table,
        out_offsets,
        out_targets,
        out_labels,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
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
        for (at, field) in [(8, "num_nodes"), (16, "num_edges"), (24, "label_table_len")] {
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

    #[test]
    fn out_of_range_target_is_rejected() {
        let g = sample();
        let raw = encode(&g).to_vec();
        // First out_targets word: header + node_labels + label_table
        // + out_offsets.
        let at = 32 + g.num_nodes() * 4 + g.label_table.len() * 4 + (g.num_nodes() + 1) * 4;
        let mut bad = raw;
        bad[at..at + 4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        assert_eq!(
            decode(Bytes::from(bad)),
            Err(DecodeError::NodeOutOfRange(0xdead_beef))
        );
    }

    #[test]
    fn rows_no_packer_emits_are_rejected() {
        // Node 0's row is [1, 3]; every splice below keeps each value
        // in range, so only the row check can catch it.
        let g = sample();
        let raw = encode(&g).to_vec();
        let at = 32 + g.num_nodes() * 4 + g.label_table.len() * 4 + (g.num_nodes() + 1) * 4;
        for (row, why) in [
            ([1u32, 1], "duplicate"),
            ([3, 1], "unsorted"),
            ([0, 3], "loop"),
        ] {
            let mut bad = raw.clone();
            bad[at..at + 4].copy_from_slice(&row[0].to_le_bytes());
            bad[at + 4..at + 8].copy_from_slice(&row[1].to_le_bytes());
            assert_eq!(
                decode(Bytes::from(bad)),
                Err(DecodeError::MalformedRow(0)),
                "{why}"
            );
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
        let at = 32 + g.num_nodes() * 4 + g.label_table.len() * 4 + 4;
        raw[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(Bytes::from(raw)), Err(DecodeError::BrokenOffsets));
    }
}
