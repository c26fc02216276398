//! Snappy decompressor.
//!
//! One loop decodes the stream. While at least [`INPUT_MARGIN`] input and
//! [`OUTPUT_MARGIN`] output bytes remain, an element skips the length
//! checks those margins make redundant and moves in fixed 8- or 16-byte
//! chunks whose last one may run past the element's end into output a
//! later element overwrites; the tail and long literals go through the
//! checked per-element step.

use crate::varint::read_uvarint;
use crate::{Error, Result};

/// Safety cap on the declared uncompressed size (1 GiB). The workloads in
/// this workspace never exceed a few MiB per block; anything larger is a
/// corrupt stream and refusing it bounds allocation on bad input.
const MAX_DECOMPRESSED_LEN: u64 = 1 << 30;

/// Input left, tag included, for the fast step: a tag, a literal of up
/// to 60 bytes read as four 16-byte chunks, and a copy's offset bytes.
const INPUT_MARGIN: usize = 1 + 64 + 4;

/// Output left for the fast step: no element's chunks reach past 71
/// bytes from where it starts (a 64-byte copy at offset 7 stores its
/// pattern at 63), so 64 + 16 leaves room.
const OUTPUT_MARGIN: usize = 64 + 16;

/// For a copy at offset `o` in 1..8: which of the `o` bytes before it
/// goes to each byte of an 8-byte pattern (`j % o`), tabled so no copy
/// divides. Row 0 is unused.
const PATTERN_INDEX: [[u8; 8]; 8] = [
    [0; 8],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 1, 0, 1],
    [0, 1, 2, 0, 1, 2, 0, 1],
    [0, 1, 2, 3, 0, 1, 2, 3],
    [0, 1, 2, 3, 4, 0, 1, 2],
    [0, 1, 2, 3, 4, 5, 0, 1],
    [0, 1, 2, 3, 4, 5, 6, 0],
];
/// How far apart that pattern is stored: `8 - 8 % o`, whole periods.
const PATTERN_STEP: [usize; 8] = [8, 8, 8, 6, 8, 5, 6, 7];

/// Returns the uncompressed length declared in the stream header without
/// decoding the body: [`Error::TooLarge`] when the body cannot produce
/// it (at most 64 bytes per 3, a maximal 2-byte-offset copy).
pub fn decompressed_len(stream: &[u8]) -> Result<usize> {
    let (len, hdr) = read_uvarint(stream).ok_or(Error::Truncated)?;
    if len > MAX_DECOMPRESSED_LEN || len > (stream.len() - hdr) as u64 * 64 / 3 {
        return Err(Error::TooLarge(len));
    }
    Ok(len as usize)
}

/// Decompresses a full Snappy stream into a fresh vector.
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>> {
    let len = decompressed_len(stream)?;
    let mut out = vec![0u8; len];
    decompress_into(stream, &mut out)?;
    Ok(out)
}

/// Decompresses into `out`, resizing it to the header-declared length but
/// reusing its capacity. Call in a loop with one long-lived buffer to
/// decompress a stream of blocks with no steady-state allocation.
pub fn decompress_to_vec(stream: &[u8], out: &mut Vec<u8>) -> Result<()> {
    let len = decompressed_len(stream)?;
    out.clear();
    // Grow to the next power of two: blocks in a stream vary slightly in
    // size, and growing geometrically means capacity stabilizes after the
    // first block instead of reallocating each time a new high-water mark
    // arrives.
    if out.capacity() < len {
        out.reserve(len.next_power_of_two());
    }
    out.resize(len, 0);
    decompress_into(stream, out)
}

/// Decompresses into a caller-provided buffer whose length must equal the
/// header-declared uncompressed length.
pub fn decompress_into(stream: &[u8], out: &mut [u8]) -> Result<()> {
    let (len, hdr) = read_uvarint(stream).ok_or(Error::Truncated)?;
    if len > MAX_DECOMPRESSED_LEN {
        return Err(Error::TooLarge(len));
    }
    let expected = len as usize;
    if out.len() != expected {
        return Err(Error::BadOutputLen {
            expected,
            actual: out.len(),
        });
    }
    let mut src = &stream[hdr..];
    let mut produced = 0usize;

    while let Some(&tag) = src.first() {
        let long_literal = tag & 0b11 == 0 && tag >= 60 << 2;
        if long_literal || src.len() < INPUT_MARGIN || out.len() - produced < OUTPUT_MARGIN {
            src = decode_checked(src, out, &mut produced, expected)?;
            continue;
        }
        let (used, len) = if tag & 0b11 == 0 {
            let len = 1 + (tag >> 2) as usize;
            for i in (0..len).step_by(16) {
                out[produced + i..produced + i + 16].copy_from_slice(&src[1 + i..1 + i + 16]);
            }
            (1 + len, len)
        } else {
            let (used, len, offset) = match tag & 0b11 {
                0b01 => (
                    2,
                    4 + ((tag >> 2) & 0x7) as usize,
                    (((tag >> 5) as usize) << 8) | src[1] as usize,
                ),
                0b10 => (
                    3,
                    1 + (tag >> 2) as usize,
                    u16::from_le_bytes([src[1], src[2]]) as usize,
                ),
                _ => (
                    5,
                    1 + (tag >> 2) as usize,
                    u32::from_le_bytes([src[1], src[2], src[3], src[4]]) as usize,
                ),
            };
            check_offset(offset, produced)?;
            copy_fast(out, produced, offset, len);
            (used, len)
        };
        src = &src[used..];
        produced += len;
    }

    if produced != expected {
        return Err(Error::LengthMismatch {
            expected,
            actual: produced,
        });
    }
    Ok(())
}

/// The checked step: decodes the one element at the front of `src` with
/// every length checked, returning the input after it.
fn decode_checked<'a>(
    mut src: &'a [u8],
    out: &mut [u8],
    produced: &mut usize,
    expected: usize,
) -> Result<&'a [u8]> {
    let tag = src[0];
    src = &src[1..];
    match tag & 0b11 {
        0b00 => {
            // Literal.
            let mut lit_len = (tag >> 2) as usize;
            if lit_len >= 60 {
                let extra = lit_len - 59; // 1..=4 extra length bytes
                if src.len() < extra {
                    return Err(Error::Truncated);
                }
                let mut n = 0usize;
                for (i, &b) in src[..extra].iter().enumerate() {
                    n |= (b as usize) << (8 * i);
                }
                lit_len = n;
                src = &src[extra..];
            }
            lit_len += 1;
            if src.len() < lit_len {
                return Err(Error::Truncated);
            }
            if *produced + lit_len > out.len() {
                return Err(Error::LengthMismatch {
                    expected,
                    actual: *produced + lit_len,
                });
            }
            out[*produced..*produced + lit_len].copy_from_slice(&src[..lit_len]);
            *produced += lit_len;
            src = &src[lit_len..];
        }
        0b01 => {
            // Copy, 1-byte offset: len 4..11, 11-bit offset.
            if src.is_empty() {
                return Err(Error::Truncated);
            }
            let len = 4 + ((tag >> 2) & 0x7) as usize;
            let offset = (((tag >> 5) as usize) << 8) | src[0] as usize;
            src = &src[1..];
            copy(out, produced, offset, len, expected)?;
        }
        0b10 => {
            // Copy, 2-byte little-endian offset: len 1..64.
            if src.len() < 2 {
                return Err(Error::Truncated);
            }
            let len = 1 + (tag >> 2) as usize;
            let offset = u16::from_le_bytes([src[0], src[1]]) as usize;
            src = &src[2..];
            copy(out, produced, offset, len, expected)?;
        }
        _ => {
            // Copy, 4-byte little-endian offset: len 1..64.
            if src.len() < 4 {
                return Err(Error::Truncated);
            }
            let len = 1 + (tag >> 2) as usize;
            let offset = u32::from_le_bytes([src[0], src[1], src[2], src[3]]) as usize;
            src = &src[4..];
            copy(out, produced, offset, len, expected)?;
        }
    }
    Ok(src)
}

/// A copy may not start before the output or at its own position.
#[inline]
fn check_offset(offset: usize, produced: usize) -> Result<()> {
    if offset == 0 {
        return Err(Error::ZeroOffset);
    }
    if offset > produced {
        return Err(Error::OffsetTooLarge { offset, produced });
    }
    Ok(())
}

/// Applies a back-reference copy, handling the overlapping (RLE) case a
/// byte at a time.
#[inline]
fn copy(
    out: &mut [u8],
    produced: &mut usize,
    offset: usize,
    len: usize,
    expected: usize,
) -> Result<()> {
    check_offset(offset, *produced)?;
    if *produced + len > out.len() {
        return Err(Error::LengthMismatch {
            expected,
            actual: *produced + len,
        });
    }
    let start = *produced - offset;
    if offset >= len {
        // Non-overlapping: a single memmove-able region.
        out.copy_within(start..start + len, *produced);
    } else {
        for i in 0..len {
            out[*produced + i] = out[start + i];
        }
    }
    *produced += len;
    Ok(())
}

/// The fast step's copy of `len` ≤ 64 bytes from `offset` back. Every
/// chunk reads only final bytes: it lies `offset` behind where it lands.
#[inline]
fn copy_fast(out: &mut [u8], produced: usize, offset: usize, len: usize) {
    let start = produced - offset;
    if offset >= 16 {
        copy_chunks::<16>(out, start, produced, len);
    } else if offset >= 8 {
        copy_chunks::<8>(out, start, produced, len);
    } else {
        // An overlapping copy repeats its `offset` source bytes: build
        // eight bytes of that repetition once and store it whole.
        let mut window = [0u8; 8];
        window.copy_from_slice(&out[start..start + 8]);
        // Every index is below 8; the mask lets the compiler see it.
        let pattern = PATTERN_INDEX[offset].map(|i| window[usize::from(i & 7)]);
        let mut at = produced;
        while at < produced + len {
            out[at..at + 8].copy_from_slice(&pattern);
            at += PATTERN_STEP[offset];
        }
    }
}

/// Copies `len` bytes from `from` to `to` in `N`-byte chunks.
#[inline]
fn copy_chunks<const N: usize>(out: &mut [u8], from: usize, to: usize, len: usize) {
    for i in (0..len).step_by(N) {
        out.copy_within(from + i..from + i + N, to + i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint::write_uvarint;

    /// A stream built element by element beside the bytes it decodes to.
    #[derive(Default)]
    struct Stream {
        body: Vec<u8>,
        plain: Vec<u8>,
    }

    impl Stream {
        /// A literal whose length sits in the tag (`extra` 0) or in
        /// `extra` bytes after tag 59 + `extra`.
        fn literal(&mut self, bytes: &[u8], extra: usize) {
            let n = bytes.len() - 1;
            if extra == 0 {
                self.body.push((n as u8) << 2);
            } else {
                self.body.push(((59 + extra) as u8) << 2);
                self.body.extend_from_slice(&n.to_le_bytes()[..extra]);
            }
            self.body.extend_from_slice(bytes);
            self.plain.extend_from_slice(bytes);
        }

        /// A copy with a 1-, 2- or 4-byte offset.
        fn copy(&mut self, offset: usize, len: usize, offset_bytes: usize) {
            match offset_bytes {
                1 => self.body.extend_from_slice(&[
                    (((offset >> 8) as u8) << 5) | (((len - 4) as u8) << 2) | 0b01,
                    offset as u8,
                ]),
                2 => {
                    self.body.push((((len - 1) as u8) << 2) | 0b10);
                    self.body.extend_from_slice(&(offset as u16).to_le_bytes());
                }
                _ => {
                    self.body.push((((len - 1) as u8) << 2) | 0b11);
                    self.body.extend_from_slice(&(offset as u32).to_le_bytes());
                }
            }
            for _ in 0..len {
                self.plain.push(self.plain[self.plain.len() - offset]);
            }
        }

        /// Checks that the stream decodes to exactly what was built.
        fn check(&self, what: &str) {
            let mut stream = Vec::new();
            write_uvarint(&mut stream, self.plain.len() as u64);
            stream.extend_from_slice(&self.body);
            assert_eq!(
                decompress(&stream).as_deref(),
                Ok(&self.plain[..]),
                "{what}"
            );
        }
    }

    /// Every copy offset 1..=16 × length 1..=64 starting where one less
    /// than, exactly, and one more than `OUTPUT_MARGIN` output bytes
    /// remain, so the copy runs on each side of the switch. Fourteen
    /// one-byte 4-byte-offset copies after it (5 input bytes each) keep
    /// the input margin met, so the output margin is what switches.
    #[test]
    fn every_copy_decodes_on_both_sides_of_the_output_margin() {
        let prefix: Vec<u8> = (1..=16).collect();
        for offset in 1..=16 {
            for len in 1..=64 {
                for left in [OUTPUT_MARGIN - 1, OUTPUT_MARGIN, OUTPUT_MARGIN + 1] {
                    for offset_bytes in [1, 2, 4] {
                        if offset_bytes == 1 && !(4..=11).contains(&len) {
                            continue;
                        }
                        let mut s = Stream::default();
                        s.literal(&prefix, 0);
                        s.copy(offset, len, offset_bytes);
                        let tail = left - len;
                        for _ in 0..14 {
                            s.copy(1, 1, 4);
                        }
                        let rest: Vec<u8> = (0..tail - 14).map(|i| 100 + i as u8).collect();
                        s.literal(&rest, usize::from(rest.len() > 60));
                        s.check(&format!("offset {offset} len {len} left {left}"));
                    }
                }
            }
        }
    }

    /// Every literal tag 0..=63 — 60..=63 with their 1–4 length bytes —
    /// starting where one less than, exactly, and one more than
    /// `INPUT_MARGIN` input bytes remain, followed by copies that fill
    /// the rest of the input and keep the output margin met.
    #[test]
    fn every_literal_tag_decodes_on_both_sides_of_the_input_margin() {
        for tag in 0..64usize {
            let (extra, lens) = if tag < 60 {
                (0, vec![tag + 1])
            } else {
                (tag - 59, vec![1, 60, 61, 100])
            };
            for len in lens {
                for left in [INPUT_MARGIN - 1, INPUT_MARGIN, INPUT_MARGIN + 1] {
                    let Some(fill) = left.checked_sub(1 + extra + len) else {
                        continue;
                    };
                    if fill == 1 {
                        continue;
                    }
                    let mut s = Stream::default();
                    let bytes: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5a).collect();
                    s.literal(&bytes, extra);
                    // `fill` input bytes as 3-byte and 2-byte copies.
                    let twos = [0, 2, 1][fill % 3];
                    for _ in 0..(fill - 2 * twos) / 3 {
                        s.copy(1, 64, 2);
                    }
                    for _ in 0..twos {
                        s.copy(1, 11, 1);
                    }
                    s.check(&format!("tag {tag} len {len} left {left}"));
                }
            }
        }
    }
}
