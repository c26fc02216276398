//! Greedy Snappy compressor.
//!
//! Mirrors the structure of the reference implementation: the input is
//! split into 64 KiB fragments, each compressed independently with a
//! 4-byte-hash match table. Back-references never cross a fragment
//! boundary, which bounds offsets to 16 bits and lets the hash table be
//! reset cheaply between fragments.

use crate::varint::write_uvarint;

/// Fragment size used by the reference implementation.
const BLOCK_SIZE: usize = 1 << 16;

/// log2 of the hash-table size (per fragment).
const HASH_BITS: u32 = 14;
const HASH_TABLE_SIZE: usize = 1 << HASH_BITS;

/// Inputs shorter than this are emitted as a single literal; matching
/// cannot pay for itself.
const MIN_COMPRESS_INPUT: usize = 16;

/// Upper bound on the size of `compress(input)`'s output for an input of
/// `len` bytes (header + worst-case literal framing).
pub fn max_compressed_len(len: usize) -> usize {
    // 32 + len + len/6, as in the reference implementation.
    32 + len + len / 6
}

/// Compresses `input` into a fresh vector.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    let mut out = Vec::with_capacity(max_compressed_len(input.len()) / 2);
    enc.compress_into(input, &mut out);
    out
}

/// A reusable compressor holding the match hash table, so repeated block
/// compression (the hot path in `TableBuilder` and the FPGA encoder model)
/// does not reallocate per call.
pub struct Encoder {
    table: Vec<u16>,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// Creates an encoder; its hash table is allocated by the first
    /// fragment long enough to need one.
    pub fn new() -> Self {
        Encoder { table: Vec::new() }
    }

    /// Compresses `input`, appending the Snappy stream to `out`.
    pub fn compress_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        write_uvarint(out, input.len() as u64);
        for fragment in input.chunks(BLOCK_SIZE) {
            self.compress_fragment(fragment, out);
        }
    }

    fn compress_fragment(&mut self, frag: &[u8], out: &mut Vec<u8>) {
        if frag.len() < MIN_COMPRESS_INPUT {
            emit_literal(out, frag);
            return;
        }
        self.table.clear();
        self.table.resize(HASH_TABLE_SIZE, 0);

        // `next_emit` is the start of the pending literal run.
        let mut next_emit = 0usize;
        let mut pos = 1usize;
        // Leave room so the unaligned 4-byte loads below stay in bounds.
        let limit = frag.len() - 4;

        while pos <= limit {
            let h = hash4(load32(frag, pos));
            let candidate = self.table[h] as usize;
            self.table[h] = pos as u16;
            if candidate < pos
                && pos - candidate <= u16::MAX as usize
                && load32(frag, candidate) == load32(frag, pos)
            {
                // Found a match: flush the literal run, then extend.
                emit_literal(out, &frag[next_emit..pos]);
                let mut match_len = 4usize;
                while pos + match_len < frag.len()
                    && frag[candidate + match_len] == frag[pos + match_len]
                {
                    match_len += 1;
                }
                emit_copy(out, pos - candidate, match_len);
                pos += match_len;
                next_emit = pos;
                // Seed the table at the position just before the new cursor
                // so immediately-repeating patterns keep chaining.
                if pos <= limit && pos >= 1 {
                    let h2 = hash4(load32(frag, pos - 1));
                    self.table[h2] = (pos - 1) as u16;
                }
            } else {
                pos += 1;
            }
        }
        if next_emit < frag.len() {
            emit_literal(out, &frag[next_emit..]);
        }
    }
}

#[inline]
fn load32(buf: &[u8], at: usize) -> u32 {
    // PANIC-OK: every caller bounds-checks `at + 4 <= buf.len()` (the
    // match loop stops 4 bytes before the end); slice of 4 infallibly
    // converts.
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(0x1e35_a7bd) >> (32 - HASH_BITS)) as usize
}

fn emit_literal(out: &mut Vec<u8>, lit: &[u8]) {
    if lit.is_empty() {
        return;
    }
    let n = lit.len() - 1;
    if n < 60 {
        out.push((n as u8) << 2);
    } else if n < (1 << 8) {
        out.push(60 << 2);
        out.push(n as u8);
    } else if n < (1 << 16) {
        out.push(61 << 2);
        out.extend_from_slice(&(n as u16).to_le_bytes());
    } else if n < (1 << 24) {
        out.push(62 << 2);
        out.extend_from_slice(&(n as u32).to_le_bytes()[..3]);
    } else {
        out.push(63 << 2);
        out.extend_from_slice(&(n as u32).to_le_bytes());
    }
    out.extend_from_slice(lit);
}

/// Emits one or more copy elements covering `len` bytes at back-reference
/// distance `offset` (1-based, ≤ 65535 because fragments are 64 KiB).
fn emit_copy(out: &mut Vec<u8>, offset: usize, mut len: usize) {
    debug_assert!(offset >= 1 && offset <= u16::MAX as usize);
    // Long matches are emitted as a run of 64-byte copies; a tail of 64–67
    // bytes is split 60 + remainder so the final piece stays >= 4 (required
    // for the 1-byte-offset form and matches the reference implementation).
    while len >= 68 {
        emit_copy2(out, offset, 64);
        len -= 64;
    }
    if len > 64 {
        emit_copy2(out, offset, 60);
        len -= 60;
    }
    if (4..=11).contains(&len) && offset < 2048 {
        // Copy with 1-byte offset: tag 01, len-4 in bits 2..5, offset high
        // bits in 5..8, offset low byte follows.
        let tag = 0b01 | (((len - 4) as u8) << 2) | (((offset >> 8) as u8) << 5);
        out.push(tag);
        out.push(offset as u8);
    } else {
        emit_copy2(out, offset, len);
    }
}

fn emit_copy2(out: &mut Vec<u8>, offset: usize, len: usize) {
    debug_assert!((1..=64).contains(&len));
    out.push(0b10 | (((len - 1) as u8) << 2));
    out.extend_from_slice(&(offset as u16).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompress::decompress;

    #[test]
    fn literal_framing_boundaries() {
        // Exercise every literal length encoding branch.
        for n in [1usize, 59, 60, 61, 255, 256, 257, 65535, 65536, 65537] {
            let mut out = Vec::new();
            let lit: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            emit_literal(&mut out, &lit);
            // Frame it as a full stream to decode.
            let mut stream = Vec::new();
            write_uvarint_test(&mut stream, n as u64);
            stream.extend_from_slice(&out);
            assert_eq!(decompress(&stream).unwrap(), lit, "literal len {n}");
        }
    }

    fn write_uvarint_test(out: &mut Vec<u8>, v: u64) {
        crate::varint::write_uvarint(out, v);
    }

    #[test]
    fn copy_framing_long_matches() {
        // 3 bytes of pattern then a very long overlapping run forces the
        // 68+/64..67 splitting logic in emit_copy.
        for total in [70usize, 131, 132, 133, 200, 1000] {
            let mut data = vec![b'x', b'y', b'z'];
            while data.len() < total {
                let b = data[data.len() - 3];
                data.push(b);
            }
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data, "total {total}");
        }
    }

    #[test]
    fn encoder_reuse_is_clean() {
        let mut enc = Encoder::new();
        let a = b"first block first block first block".repeat(10);
        let b: Vec<u8> = (0..2000u32).flat_map(|i| i.to_le_bytes()).collect();
        for _ in 0..3 {
            let mut out = Vec::new();
            enc.compress_into(&a, &mut out);
            assert_eq!(decompress(&out).unwrap(), a);
            let mut out = Vec::new();
            enc.compress_into(&b, &mut out);
            assert_eq!(decompress(&out).unwrap(), b);
        }
    }
}
