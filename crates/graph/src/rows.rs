//! The packed out-row codec: how one node's followees and their
//! interned label ids are laid out in the graph's byte stream, written
//! by [`RowPacker`] and read by [`OutRow`], and nowhere else.
//!
//! A row of degree `d ≥ 1` is one record; an empty row takes no bytes
//! (its two offsets are equal). The record is a degree, then a bit
//! stream, least significant bit first:
//!
//! ```text
//! degree     u8 d for 1 ≤ d ≤ 254, or 255 then u32 LE d for d ≥ 255
//! widths     gap width gw: 6 bits (0..=32) | label width lw: 5 bits (0..=16)
//! first      target v0: tw bits (tw = ⌈log₂ n⌉) | its label id: lw bits
//! d − 1 ×    gap − 1 = v_i − v_{i−1} − 1: gw bits | label id: lw bits
//! padding    zero bits up to the next byte
//! ```
//!
//! The encoding is canonical: each width is exactly the widest field of
//! its row (0 when every field is 0), the escape is used only for
//! `d ≥ 255` and the padding bits are zero, so the same rows always
//! give the same bytes and arena equality stays graph equality. The
//! stream ends in [`PAD`] zero bytes, so every field — even a gap and
//! its label together, at most 48 bits at any bit offset — is one
//! unaligned little-endian `u64` load, a shift and two masks.

use crate::csr::NodeId;
use crate::pages::Pages;

/// Zero bytes after the last record, so a field load never runs past
/// the stream.
pub(crate) const PAD: usize = 8;

/// The degree byte announcing a `u32` degree after it.
pub(crate) const DEGREE_ESCAPE: u8 = 255;

/// Bits of the width header: 6 for the gap width, 5 for the label
/// width.
pub(crate) const WIDTH_BITS: u32 = 11;

/// Widest gap field: a gap between two `u32` node ids.
pub(crate) const MAX_GAP_WIDTH: u32 = 32;

/// Widest label field: a `u16` interned label id.
pub(crate) const MAX_LABEL_WIDTH: u32 = 16;

/// Bits needed to write `x` (0 for 0).
#[inline]
pub(crate) fn bit_width(x: u32) -> u32 {
    u32::BITS - x.leading_zeros()
}

/// The first target's field width in a graph of `n` nodes:
/// `⌈log₂ n⌉`, the bits of the largest id.
pub(crate) fn target_width(n: usize) -> u32 {
    bit_width(n.saturating_sub(1) as u32)
}

/// A reservation for the record stream of `edges` edges over `nodes`
/// nodes: two header bytes a node and `tw + 8` bits an edge (a gap is
/// narrower than a first target, a label id rarely wider than a byte).
pub(crate) fn stream_estimate(nodes: usize, edges: usize) -> usize {
    nodes * 2 + edges * (target_width(nodes) as usize + 8) / 8
}

/// The 64 stream bits starting at bit `bit`, shifted down to bit 0
/// (the top `bit % 8` bits read as zero).
#[inline]
pub(crate) fn load(stream: &[u8], bit: usize) -> u64 {
    let at = bit >> 3;
    let word: [u8; 8] = stream[at..at + 8].try_into().expect("an 8-byte window");
    u64::from_le_bytes(word) >> (bit & 7)
}

/// A record's header: its degree and widths, and the absolute bit
/// offset of its first field.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Header {
    pub(crate) degree: u32,
    pub(crate) gap_width: u32,
    pub(crate) label_width: u32,
    pub(crate) fields_bit: usize,
}

impl Header {
    /// Reads the header of the record at byte `start` of a padded
    /// stream: one word load for a degree below the escape. The widths
    /// are taken as stored; the validating decoder bounds them.
    #[inline]
    pub(crate) fn read(stream: &[u8], start: usize) -> Header {
        let word = load(stream, start * 8);
        let (degree, skip, widths) = if word as u8 == DEGREE_ESCAPE {
            ((word >> 8) as u32, 5, load(stream, (start + 5) * 8))
        } else {
            (u32::from(word as u8), 1, word >> 8)
        };
        Header {
            degree,
            gap_width: (widths & 63) as u32,
            label_width: ((widths >> 6) & 31) as u32,
            fields_bit: (start + skip) * 8 + WIDTH_BITS as usize,
        }
    }

    /// Bytes of the whole record this header opens, from `start`.
    pub(crate) fn record_bytes(&self, start: usize, target_width: u32) -> u64 {
        let pair = u64::from(self.gap_width + self.label_width);
        let bits = u64::from(target_width + self.label_width)
            + u64::from(self.degree.saturating_sub(1)) * pair;
        (self.fields_bit as u64 + bits).div_ceil(8) - start as u64
    }
}

/// One node's out-edges as `(label id, followee)` pairs, decoded from
/// its packed record in target order. Allocates nothing.
#[derive(Clone, Debug)]
pub struct OutRow<'a> {
    stream: &'a [u8],
    bit: usize,
    left: u32,
    /// Width of the next target field: `tw` for the first, `gw` after.
    width: u32,
    gap_width: u32,
    label_width: u32,
    label_mask: u64,
    /// The last target yielded; `u32::MAX` before the first, so the
    /// first field (an id, not a gap) lands as `prev + field + 1`.
    prev: u32,
}

impl<'a> OutRow<'a> {
    /// The row of the record spanning `start..end` of a padded stream
    /// in a graph whose first targets take `target_width` bits.
    #[inline]
    pub(crate) fn new(stream: &'a [u8], start: usize, end: usize, target_width: u32) -> OutRow<'a> {
        if start == end {
            return OutRow {
                stream,
                bit: 0,
                left: 0,
                width: 0,
                gap_width: 0,
                label_width: 0,
                label_mask: 0,
                prev: u32::MAX,
            };
        }
        let h = Header::read(stream, start);
        OutRow {
            stream,
            bit: h.fields_bit,
            left: h.degree,
            width: target_width,
            gap_width: h.gap_width,
            label_width: h.label_width,
            label_mask: (1u64 << h.label_width) - 1,
            prev: u32::MAX,
        }
    }
}

impl Iterator for OutRow<'_> {
    type Item = (u16, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(u16, NodeId)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let x = load(self.stream, self.bit);
        let field = (x & ((1u64 << self.width) - 1)) as u32;
        let label = ((x >> self.width) & self.label_mask) as u16;
        self.bit += (self.width + self.label_width) as usize;
        self.width = self.gap_width;
        self.prev = self.prev.wrapping_add(field).wrapping_add(1);
        Some((label, NodeId(self.prev)))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }

    /// The whole row in one loop: the first field peeled, the rest at
    /// the gap width, with no per-field state written back.
    #[inline]
    fn fold<B, F: FnMut(B, (u16, NodeId)) -> B>(mut self, init: B, mut f: F) -> B {
        let Some(first) = self.next() else {
            return init;
        };
        let mut acc = f(init, first);
        let (gap_mask, shift) = ((1u64 << self.gap_width) - 1, self.gap_width);
        let step = (self.gap_width + self.label_width) as usize;
        let (mut bit, mut prev) = (self.bit, self.prev);
        for _ in 0..self.left {
            let x = load(self.stream, bit);
            prev = prev.wrapping_add((x & gap_mask) as u32).wrapping_add(1);
            acc = f(acc, (((x >> shift) & self.label_mask) as u16, NodeId(prev)));
            bit += step;
        }
        acc
    }
}

impl ExactSizeIterator for OutRow<'_> {}

/// Appends bit fields, least significant bit first, to a byte stream,
/// four bytes at a time.
struct BitWriter<'a> {
    out: &'a mut Pages<u8>,
    acc: u64,
    bits: u32,
}

impl BitWriter<'_> {
    /// Appends the low `width` bits of `value` (`width ≤ 32`; `value`
    /// must fit them).
    #[inline]
    fn put(&mut self, value: u64, width: u32) {
        self.acc |= value << self.bits;
        self.bits += width;
        if self.bits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.bits -= 32;
        }
    }

    /// Writes the last partial word, its unused bits zero.
    fn finish(self) {
        let bytes = self.bits.div_ceil(8) as usize;
        self.out
            .extend_from_slice(&(self.acc as u32).to_le_bytes()[..bytes]);
    }
}

/// Appends the canonical record of `row` — strictly ascending targets
/// below `2^target_width`, with their label ids — to `out`. An empty
/// row appends nothing.
pub(crate) fn encode_row(row: &[(NodeId, u16)], target_width: u32, out: &mut Pages<u8>) {
    let Some(&(first, first_label)) = row.first() else {
        return;
    };
    let degree = u32::try_from(row.len()).expect("a row's degree fits in u32");
    if degree < u32::from(DEGREE_ESCAPE) {
        out.push(degree as u8);
    } else {
        out.push(DEGREE_ESCAPE);
        out.extend_from_slice(&degree.to_le_bytes());
    }
    // The widest field's width is the width of all fields or-ed.
    let (mut gaps, mut labels) = (0, u32::from(first_label));
    for p in row.windows(2) {
        gaps |= p[1].0 .0 - p[0].0 .0 - 1;
        labels |= u32::from(p[1].1);
    }
    let (gap_width, label_width) = (bit_width(gaps), bit_width(labels));
    let mut w = BitWriter {
        out,
        acc: 0,
        bits: 0,
    };
    w.put(u64::from(gap_width | label_width << 6), WIDTH_BITS);
    w.put(u64::from(first.0), target_width);
    w.put(u64::from(first_label), label_width);
    for p in row.windows(2) {
        w.put(u64::from(p[1].0 .0 - p[0].0 .0 - 1), gap_width);
        w.put(u64::from(p[1].1), label_width);
    }
    w.finish();
}

/// A packer's finished out arenas: byte offsets, the padded record
/// stream, the edge count and the in-degree prefix sums.
pub(crate) struct PackedRows {
    pub(crate) offsets: Pages<u32>,
    pub(crate) stream: Pages<u8>,
    pub(crate) edges: usize,
    /// `in_offsets[v]..in_offsets[v + 1]` is where `v`'s followers sit
    /// once the in-edge arenas are derived; its length is `|Γv|`.
    pub(crate) in_offsets: Pages<u32>,
}

/// Targets held back before their in-degrees are counted. Counted a
/// batch at a time, in one tight loop, the random increments overlap;
/// counted a row at a time, between two encodes, each waits on memory.
const COUNT_BATCH: usize = 4096;

/// Packs rows, in node order, into byte offsets and one padded stream,
/// counting every target's in-degree on the way.
pub(crate) struct RowPacker {
    offsets: Pages<u32>,
    stream: Pages<u8>,
    edges: usize,
    in_offsets: Pages<u32>,
    /// Targets whose in-degree is not counted yet.
    uncounted: Vec<NodeId>,
    target_width: u32,
}

impl RowPacker {
    /// A packer for a graph of exactly `nodes` nodes, its stream
    /// reserved at `stream_bytes`: mapped pages, resident only as far
    /// as the rows fill them.
    pub(crate) fn new(nodes: usize, stream_bytes: usize) -> RowPacker {
        let mut offsets = Pages::with_capacity(nodes + 1);
        offsets.push(0);
        RowPacker {
            offsets,
            stream: Pages::with_capacity(stream_bytes + PAD),
            edges: 0,
            in_offsets: Pages::zeroed(nodes + 1),
            uncounted: Vec::with_capacity(COUNT_BATCH),
            target_width: target_width(nodes),
        }
    }

    /// Appends the next node's row (strictly ascending targets below
    /// the node count).
    ///
    /// # Panics
    /// Panics if the stream outgrows `u32` byte offsets.
    pub(crate) fn push(&mut self, row: &[(NodeId, u16)]) {
        encode_row(row, self.target_width, &mut self.stream);
        self.uncounted.extend(row.iter().map(|&(v, _)| v));
        if self.uncounted.len() >= COUNT_BATCH {
            self.count_in_degrees();
        }
        self.edges += row.len();
        let end = u32::try_from(self.stream.len()).expect("packed rows fit u32 byte offsets");
        self.offsets.push(end);
    }

    /// Edges pushed so far.
    pub(crate) fn num_edges(&self) -> usize {
        self.edges
    }

    fn count_in_degrees(&mut self) {
        for v in self.uncounted.drain(..) {
            self.in_offsets[v.index() + 1] += 1;
        }
    }

    /// The finished arenas: the stream padded and its unused reserved
    /// pages unmapped, the in-degrees summed into offsets.
    pub(crate) fn finish(mut self) -> PackedRows {
        self.count_in_degrees();
        self.stream.extend_from_slice(&[0; PAD]);
        self.stream.shrink_to_fit();
        for i in 1..self.in_offsets.len() {
            self.in_offsets[i] += self.in_offsets[i - 1];
        }
        PackedRows {
            offsets: self.offsets,
            stream: self.stream,
            edges: self.edges,
            in_offsets: self.in_offsets,
        }
    }
}
