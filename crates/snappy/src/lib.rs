//! A from-scratch implementation of the [Snappy] block compression format.
//!
//! LevelDB compresses every SSTable data block and index block with Snappy
//! before writing it to disk, and the FPGA compaction engine of the paper
//! decompresses/recompresses blocks as part of its Decoder/Encoder stages.
//! This crate provides a format-correct codec so the rest of the workspace
//! can produce and consume real LevelDB-compatible blocks.
//!
//! The block format is:
//!
//! * a varint-encoded length of the *uncompressed* payload, followed by
//! * a sequence of elements, each starting with a tag byte whose low two
//!   bits select the element kind:
//!   * `00` — literal run (length encoded in the tag or in 1–4 extra bytes),
//!   * `01` — copy with a 1-byte offset extension (len 4–11, offset < 2048),
//!   * `10` — copy with a 2-byte little-endian offset (len 1–64),
//!   * `11` — copy with a 4-byte little-endian offset (len 1–64).
//!
//! The compressor is a greedy matcher with a 4-byte hash table, operating on
//! 64 KiB fragments exactly like the reference implementation, so its output
//! is decodable by any conforming Snappy decoder.
//!
//! [Snappy]: https://github.com/google/snappy/blob/main/format_description.txt

mod compress;
mod decompress;
mod varint;

pub use compress::{compress, max_compressed_len, Encoder};
pub use decompress::{decompress, decompress_into, decompress_to_vec, decompressed_len};

/// Errors returned by the decompressor.
///
/// The compressor is infallible: any byte string has a valid Snappy
/// encoding (in the worst case as a sequence of literals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The stream ended in the middle of a varint or element.
    Truncated,
    /// A copy element referenced data before the start of the output.
    OffsetTooLarge {
        /// The (invalid) back-reference distance.
        offset: usize,
        /// Number of bytes produced so far.
        produced: usize,
    },
    /// A copy element had a zero offset, which the format forbids.
    ZeroOffset,
    /// The header length did not match the number of decoded bytes.
    LengthMismatch {
        /// Length claimed by the stream header.
        expected: usize,
        /// Length actually produced.
        actual: usize,
    },
    /// The stream header declared a payload larger than the configured cap.
    TooLarge(u64),
    /// The caller-provided output buffer had the wrong size.
    BadOutputLen {
        /// Length required by the stream header.
        expected: usize,
        /// Length of the provided buffer.
        actual: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated => write!(f, "snappy: truncated stream"),
            Error::OffsetTooLarge { offset, produced } => write!(
                f,
                "snappy: copy offset {offset} exceeds {produced} produced bytes"
            ),
            Error::ZeroOffset => write!(f, "snappy: zero copy offset"),
            Error::LengthMismatch { expected, actual } => write!(
                f,
                "snappy: header says {expected} bytes but stream decoded to {actual}"
            ),
            Error::TooLarge(n) => write!(f, "snappy: declared length {n} exceeds cap"),
            Error::BadOutputLen { expected, actual } => write!(
                f,
                "snappy: output buffer is {actual} bytes, stream needs {expected}"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for decompression.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data, "roundtrip mismatch for {} bytes", data.len());
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(b"");
    }

    #[test]
    fn roundtrip_single_byte() {
        roundtrip(b"x");
    }

    #[test]
    fn roundtrip_short_ascii() {
        roundtrip(b"hello snappy world");
    }

    #[test]
    fn roundtrip_repetitive_compresses() {
        let data = b"abcdabcdabcdabcdabcdabcdabcdabcdabcdabcd".repeat(100);
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "repetitive data should compress well: {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_incompressible() {
        // A xorshift stream is effectively incompressible.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut data = Vec::with_capacity(10_000);
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.push(x as u8);
        }
        let c = compress(&data);
        // Worst case adds only the header plus ~1/6 literal tag overhead.
        assert!(c.len() <= max_compressed_len(data.len()));
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_all_zeros() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        // Copies cap at 64 bytes, so the floor is ~3 bytes per 64 (~len/21).
        assert!(c.len() < data.len() / 15, "zeros should compress hard");
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_crosses_fragment_boundary() {
        // > 64 KiB so the compressor emits multiple fragments; the repeated
        // pattern also straddles the boundary.
        let data = b"0123456789abcdef".repeat(9000);
        roundtrip(&data);
    }

    #[test]
    fn decompress_rejects_truncation() {
        let c = compress(b"some reasonable input data for snappy");
        for cut in 0..c.len() {
            // Every strict prefix must fail, never panic.
            let r = decompress(&c[..cut]);
            assert!(r.is_err(), "prefix of len {cut} unexpectedly decoded");
        }
    }

    #[test]
    fn decompress_rejects_bad_offset() {
        // Header: 4 bytes. Copy2 with offset 100 at position 0.
        let stream = [4u8, 0b0000_0110, 100, 0];
        match decompress(&stream) {
            Err(Error::OffsetTooLarge { .. }) => {}
            other => panic!("expected OffsetTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn decompress_rejects_zero_offset() {
        // One literal byte, then a copy with offset zero.
        let stream = [5u8, 0b0000_0000, b'a', 0b0000_0110, 0, 0];
        match decompress(&stream) {
            Err(Error::ZeroOffset) => {}
            other => panic!("expected ZeroOffset, got {other:?}"),
        }
    }

    #[test]
    fn decompress_rejects_length_mismatch() {
        // Header says 10 bytes, stream only encodes 1 literal byte.
        let stream = [10u8, 0b0000_0000, b'a'];
        match decompress(&stream) {
            Err(Error::LengthMismatch {
                expected: 10,
                actual: 1,
            }) => {}
            other => panic!("expected LengthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn known_vector_literal() {
        // "abc" as a single literal: header 3, tag (3-1)<<2 = 0b1000, bytes.
        let stream = [3u8, 0b0000_1000, b'a', b'b', b'c'];
        assert_eq!(decompress(&stream).unwrap(), b"abc");
    }

    #[test]
    fn known_vector_overlapping_copy() {
        // RLE via overlapping copy: literal "ab", then copy len 6 offset 2
        // yields "abababab". Copy1 tag: ((6-4)<<2)|1 = 0b01001, offset 2.
        let stream = [8u8, 0b0000_0100, b'a', b'b', 0b0000_1001, 2];
        assert_eq!(decompress(&stream).unwrap(), b"abababab");
    }

    #[test]
    fn decompressed_len_reads_header_only() {
        let c = compress(&vec![7u8; 12345]);
        assert_eq!(decompressed_len(&c).unwrap(), 12345);
    }

    #[test]
    fn decompressed_len_rejects_a_header_the_body_cannot_back() {
        // Three body bytes (one 64-byte copy) decode to at most 64.
        assert_eq!(decompressed_len(&[64, 0b1111_1110, 1, 0]), Ok(64));
        assert_eq!(
            decompressed_len(&[65, 0b1111_1110, 1, 0]),
            Err(Error::TooLarge(65))
        );
        // A 1 GiB header on a one-byte body fails before anything is
        // allocated for it.
        let stream = [0x80, 0x80, 0x80, 0x80, 0x04, 0];
        assert_eq!(decompress(&stream), Err(Error::TooLarge(1 << 30)));
        assert_eq!(
            decompress_to_vec(&stream, &mut Vec::new()),
            Err(Error::TooLarge(1 << 30))
        );
    }

    #[test]
    fn decompress_into_checks_buffer_size() {
        let c = compress(b"hello");
        let mut out = vec![0u8; 4];
        match decompress_into(&c, &mut out) {
            Err(Error::BadOutputLen {
                expected: 5,
                actual: 4,
            }) => {}
            other => panic!("expected BadOutputLen, got {other:?}"),
        }
        let mut out = vec![0u8; 5];
        decompress_into(&c, &mut out).unwrap();
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn decompress_to_vec_reuses_capacity() {
        let mut out = Vec::new();
        decompress_to_vec(&compress(&vec![9u8; 4096]), &mut out).unwrap();
        assert_eq!(out, vec![9u8; 4096]);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        // A smaller block must reuse the same storage, not reallocate.
        decompress_to_vec(&compress(b"hello"), &mut out).unwrap();
        assert_eq!(&out, b"hello");
        assert_eq!(out.capacity(), cap);
        assert_eq!(out.as_ptr(), ptr);
    }
}
