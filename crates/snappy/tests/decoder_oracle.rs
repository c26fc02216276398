//! The margin-loop decoder against the one it replaced.
//!
//! `oracle_decompress_into` is the pre-PR-25 `decompress_into` copied
//! verbatim (with the varint reader it called): a byte-at-a-time decoder
//! whose every element is length-checked. The shipped decoder must return
//! the identical `Result` — the same bytes, or the same `Error` variant
//! and fields — on data blocks shaped like the harness's, on every
//! truncation of them, on 1–4 byte flips, and on garbage.

use proptest::prelude::*;
use snap_codec::{compress, decompress_into, Error, Result};

// ---------------------------------------------------------------- oracle

const MAX_DECOMPRESSED_LEN: u64 = 1 << 30;

fn read_uvarint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if i >= 10 {
            return None;
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

fn oracle_decompress_into(stream: &[u8], out: &mut [u8]) -> Result<()> {
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

    while !src.is_empty() {
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
                if produced + lit_len > out.len() {
                    return Err(Error::LengthMismatch {
                        expected,
                        actual: produced + lit_len,
                    });
                }
                out[produced..produced + lit_len].copy_from_slice(&src[..lit_len]);
                produced += lit_len;
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
                copy(out, &mut produced, offset, len, expected)?;
            }
            0b10 => {
                // Copy, 2-byte little-endian offset: len 1..64.
                if src.len() < 2 {
                    return Err(Error::Truncated);
                }
                let len = 1 + (tag >> 2) as usize;
                let offset = u16::from_le_bytes([src[0], src[1]]) as usize;
                src = &src[2..];
                copy(out, &mut produced, offset, len, expected)?;
            }
            _ => {
                // Copy, 4-byte little-endian offset: len 1..64.
                if src.len() < 4 {
                    return Err(Error::Truncated);
                }
                let len = 1 + (tag >> 2) as usize;
                let offset = u32::from_le_bytes([src[0], src[1], src[2], src[3]]) as usize;
                src = &src[4..];
                copy(out, &mut produced, offset, len, expected)?;
            }
        }
    }

    if produced != expected {
        return Err(Error::LengthMismatch {
            expected,
            actual: produced,
        });
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
    if offset == 0 {
        return Err(Error::ZeroOffset);
    }
    if offset > *produced {
        return Err(Error::OffsetTooLarge {
            offset,
            produced: *produced,
        });
    }
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

// ------------------------------------------------------------ comparison

/// Both decoders on `stream`, each into a buffer of the header's length
/// (capped: a larger header is `BadOutputLen` on both sides alike).
fn assert_same_result(stream: &[u8]) {
    let len = read_uvarint(stream).map_or(0, |(n, _)| n.min(1 << 20) as usize);
    let (mut want, mut got) = (vec![0u8; len], vec![0u8; len]);
    let expected = oracle_decompress_into(stream, &mut want);
    assert_eq!(decompress_into(stream, &mut got), expected, "{stream:?}");
    if expected.is_ok() {
        assert_eq!(got, want);
    }
}

// ------------------------------------------------- harness-shaped blocks

/// One 4 KiB data block as kvbench's stores hold it: 16-byte decimal user
/// keys in order, each with an 8-byte internal-key trailer, and 128-byte
/// values (the key, then 112 bytes of a db_bench pool compressible to
/// `ratio`), prefix-compressed with a restart every 16 entries, then
/// Snappy-compressed.
fn harness_block(seed: u64, ratio: f64, first_key: u64) -> Vec<u8> {
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    // db_bench's pool: runs of 64 bytes, `ratio` of each run noise and
    // the rest a repeat of the last noise byte.
    let mut pool = Vec::with_capacity(64 << 10);
    while pool.len() < 64 << 10 {
        let noise = (64.0 * ratio) as usize;
        pool.extend((0..noise).map(|_| next() as u8));
        let fill = pool.last().copied().unwrap_or(b'x');
        pool.resize(pool.len() + 64 - noise, fill);
    }

    let (mut block, mut restarts, mut prev) = (Vec::new(), Vec::new(), Vec::<u8>::new());
    let mut key_number = first_key;
    let mut i = 0u32;
    while block.len() < 4096 {
        let mut key = format!("{key_number:016}").into_bytes();
        let user_key = key.clone();
        let seq = next() >> 8;
        key.extend_from_slice(&((seq << 8) | 1).to_le_bytes());
        let tail = (next() as usize) % (pool.len() - 112);
        let mut value = user_key;
        value.extend_from_slice(&pool[tail..tail + 112]);

        let shared = if i.is_multiple_of(16) {
            restarts.push(block.len() as u32);
            0
        } else {
            prev.iter().zip(&key).take_while(|(a, b)| a == b).count()
        };
        for n in [shared, key.len() - shared, value.len()] {
            block.push(n as u8); // every length here is under 128
        }
        block.extend_from_slice(&key[shared..]);
        block.extend_from_slice(&value);
        prev = key;
        key_number += 1 + next() % 8;
        i += 1;
    }
    for r in &restarts {
        block.extend_from_slice(&r.to_le_bytes());
    }
    block.extend_from_slice(&(restarts.len() as u32).to_le_bytes());
    compress(&block)
}

fn ratio() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![0.2, 0.5, 0.9, 1.0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole blocks decode to the same bytes.
    #[test]
    fn harness_blocks_decode_identically(
        seed in any::<u64>(),
        ratio in ratio(),
        first_key in 0u64..10_000_000,
    ) {
        assert_same_result(&harness_block(seed, ratio, first_key));
    }

    /// Every 1–4 byte flip of a block fails, or decodes, identically.
    #[test]
    fn flipped_blocks_fail_identically(
        seed in any::<u64>(),
        ratio in ratio(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..=4),
    ) {
        let mut stream = harness_block(seed, ratio, 0);
        for (at, xor) in flips {
            let at = at.index(stream.len());
            stream[at] ^= xor;
        }
        assert_same_result(&stream);
    }

    /// Well-formed elements with hostile fields: copies at offsets 0, a
    /// few bytes back, and past the output produced so far, behind a
    /// header off by up to two bytes either way.
    #[test]
    fn hostile_elements_fail_identically(
        seed in any::<u64>(),
        elements in 1usize..200,
        header_delta in 0u64..5,
    ) {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut body, mut total) = (Vec::new(), 0u64);
        for _ in 0..elements {
            let r = next();
            let offset = if r & 1 == 0 { (r >> 8) % 20 } else { (r >> 8) % 4096 };
            let len = 1 + (r >> 32) % 64;
            match (r >> 1) % 4 {
                0 => {
                    if len <= 60 {
                        body.push(((len - 1) as u8) << 2);
                    } else {
                        body.extend_from_slice(&[60 << 2, (len - 1) as u8]);
                    }
                    body.extend((0..len).map(|_| next() as u8));
                    total += len;
                }
                1 => {
                    let len = 4 + len % 8;
                    let offset = offset % 2048;
                    body.push((((offset >> 8) as u8) << 5) | (((len - 4) as u8) << 2) | 0b01);
                    body.push(offset as u8);
                    total += len;
                }
                2 => {
                    body.push((((len - 1) as u8) << 2) | 0b10);
                    body.extend_from_slice(&(offset as u16).to_le_bytes());
                    total += len;
                }
                _ => {
                    body.push((((len - 1) as u8) << 2) | 0b11);
                    body.extend_from_slice(&(offset as u32).to_le_bytes());
                    total += len;
                }
            }
        }
        let mut stream = Vec::new();
        let mut header = (total + header_delta).saturating_sub(2);
        while header >= 0x80 {
            stream.push(header as u8 | 0x80);
            header >>= 7;
        }
        stream.push(header as u8);
        stream.extend_from_slice(&body);
        assert_same_result(&stream);
    }

    /// Random bytes, and random bodies behind a plausible header.
    #[test]
    fn garbage_fails_identically(
        body in prop::collection::vec(any::<u8>(), 0..4096),
        header in 0u16..8192,
    ) {
        assert_same_result(&body);
        let mut stream = Vec::from([(header as u8) | 0x80, (header >> 7) as u8]);
        stream.extend_from_slice(&body);
        assert_same_result(&stream);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every prefix of a block is cut somewhere: it must be cut in the
    /// same place, with the same error.
    #[test]
    fn every_truncation_fails_identically(seed in any::<u64>(), ratio in ratio()) {
        let stream = harness_block(seed, ratio, 0);
        for cut in 0..stream.len() {
            assert_same_result(&stream[..cut]);
        }
    }
}
