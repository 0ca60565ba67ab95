//! Deterministic byte-corruption helpers for decoder robustness tests.
//!
//! Everything here is pure data surgery — no RNG state beyond the
//! caller's [`crate::SeededRng`] — so a failing corruption is
//! reproducible from the seed alone. The landmark snapshot fuzz tests
//! drive these against [`fui_landmarks::persist::decode`], which must
//! answer every corrupted input with an `Err`, never a panic or an
//! attacker-sized allocation.

use crate::rng::SeededRng;

/// `max_cuts` truncation points of `data`, evenly spaced and always
/// including the empty prefix and the one-byte-short prefix (the two
/// classic decoder killers).
pub fn truncations(data: &[u8], max_cuts: usize) -> Vec<Vec<u8>> {
    let mut cuts: Vec<usize> = vec![0];
    if data.len() > 1 {
        cuts.push(data.len() - 1);
    }
    let step = (data.len() / max_cuts.max(1)).max(1);
    cuts.extend((step..data.len()).step_by(step));
    cuts.sort_unstable();
    cuts.dedup();
    cuts.into_iter().map(|c| data[..c].to_vec()).collect()
}

/// `data` with bit `bit` flipped (`bit` counts from the start,
/// little-endian within each byte).
pub fn flip_bit(data: &[u8], bit: usize) -> Vec<u8> {
    let mut out = data.to_vec();
    out[bit / 8] ^= 1 << (bit % 8);
    out
}

/// `count` seeded single-bit corruptions of `data`.
pub fn bit_flips(data: &[u8], rng: &mut SeededRng, count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| flip_bit(data, rng.below(data.len() as u64 * 8) as usize))
        .collect()
}

/// `data` with the 8 bytes at `offset` overwritten by `v`
/// (little-endian) — the tool for planting absurd length/count fields.
pub fn splice_u64(data: &[u8], offset: usize, v: u64) -> Vec<u8> {
    let mut out = data.to_vec();
    out[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    out
}

/// `data` with the 4 bytes at `offset` overwritten by `v`
/// (little-endian).
pub fn splice_u32(data: &[u8], offset: usize, v: u32) -> Vec<u8> {
    let mut out = data.to_vec();
    out[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    out
}

/// Writes the low `width` bits of `value` into `data` at bit `bit`
/// (least significant bit first, the packed-row order), leaving every
/// other bit as it was.
pub fn put_bits(data: &mut [u8], bit: usize, value: u64, width: u32) {
    for i in 0..width as usize {
        let (at, mask) = ((bit + i) / 8, 1u8 << ((bit + i) % 8));
        if value >> i & 1 == 1 {
            data[at] |= mask;
        } else {
            data[at] &= !mask;
        }
    }
}

/// A packed out-row record written field by field: `degree` is the
/// degree byte(s) as stored, then each `(value, width)` field
/// (the widths header first), zero-padded to the byte. The tool for
/// writing rows no packer emits.
pub fn packed_record(degree: &[u8], fields: &[(u64, u32)]) -> Vec<u8> {
    let bits: u32 = fields.iter().map(|&(_, w)| w).sum();
    let mut out = degree.to_vec();
    out.resize(degree.len() + bits.div_ceil(8) as usize, 0);
    let mut at = degree.len() * 8;
    for &(value, width) in fields {
        put_bits(&mut out, at, value, width);
        at += width as usize;
    }
    out
}

/// A `FUICSR3` graph arena blob taken apart (`fui_graph::arena`):
/// the header counts, the node-label and label-table words, the byte
/// offsets and the row records — so a test can rewrite one row and
/// put the blob back together with every offset after it moved.
#[derive(Clone, Debug)]
pub struct ArenaBlob {
    /// The 8-byte magic.
    pub magic: [u8; 8],
    /// Declared node count.
    pub nodes: usize,
    /// Declared edge count.
    pub edges: u64,
    /// Declared label-table length.
    pub table: usize,
    /// Node labels and the label table, as stored.
    pub labels: Vec<u8>,
    /// `nodes + 1` byte offsets into `rows`.
    pub offsets: Vec<u32>,
    /// The row records, back to back.
    pub rows: Vec<u8>,
}

impl ArenaBlob {
    /// Takes a well-formed blob apart.
    ///
    /// # Panics
    /// Panics on a blob too short for its own header counts.
    pub fn parse(blob: &[u8]) -> ArenaBlob {
        let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().expect("8 bytes"));
        let (nodes, table) = (word(8) as usize, word(24) as usize);
        let labels_at = 40;
        let offsets_at = labels_at + (nodes + table) * 4;
        let rows_at = offsets_at + (nodes + 1) * 4;
        ArenaBlob {
            magic: blob[..8].try_into().expect("8 bytes"),
            nodes,
            edges: word(16),
            table,
            labels: blob[labels_at..offsets_at].to_vec(),
            offsets: blob[offsets_at..rows_at]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect(),
            rows: blob[rows_at..].to_vec(),
        }
    }

    /// The record of node `u`.
    pub fn row(&self, u: usize) -> &[u8] {
        &self.rows[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Replaces node `u`'s record, shifting every later offset by the
    /// change in length.
    pub fn set_row(&mut self, u: usize, record: &[u8]) {
        let (start, end) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
        self.rows.splice(start..end, record.iter().copied());
        let shift = record.len() as i64 - (end - start) as i64;
        for o in &mut self.offsets[u + 1..] {
            *o = (i64::from(*o) + shift) as u32;
        }
    }

    /// The blob put back together (`row_bytes` recounted).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.magic.to_vec();
        for v in [
            self.nodes as u64,
            self.edges,
            self.table as u64,
            self.rows.len() as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.labels);
        for o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out.extend_from_slice(&self.rows);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncations_cover_the_edges() {
        let data = [7u8; 100];
        let cuts = truncations(&data, 10);
        assert!(cuts.iter().any(|c| c.is_empty()));
        assert!(cuts.iter().any(|c| c.len() == 99));
        assert!(cuts.iter().all(|c| c.len() < data.len()));
        assert!(cuts.len() >= 10);
    }

    #[test]
    fn flip_bit_round_trips() {
        let data = [0u8, 0xFF, 0x5A];
        for bit in 0..data.len() * 8 {
            let once = flip_bit(&data, bit);
            assert_ne!(once, data);
            assert_eq!(flip_bit(&once, bit), data);
        }
    }

    #[test]
    fn splices_write_little_endian() {
        let data = [0u8; 16];
        let out = splice_u64(&data, 4, 0x0102_0304_0506_0708);
        assert_eq!(out[4], 0x08);
        assert_eq!(out[11], 0x01);
        let out = splice_u32(&data, 0, 0xAABB_CCDD);
        assert_eq!(out[0], 0xDD);
        assert_eq!(out[3], 0xAA);
    }
}
