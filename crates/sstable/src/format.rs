//! On-disk framing shared by all blocks: handles, footer, and the
//! compression + checksum trailer.

use std::cell::RefCell;

use crate::block::{BlockContents, Spare};
use crate::coding::{decode_fixed32, get_varint64, put_fixed32, put_varint64};
use crate::crc32c;
use crate::env::RandomAccessFile;
use crate::{corruption, Result};

/// LevelDB's table magic number (picked by `echo http://code.google.com/p/leveldb/ | sha1sum`).
pub const TABLE_MAGIC_NUMBER: u64 = 0xdb47_7524_8b80_fb57;

/// Footer length: two maximally-encoded handles + 8-byte magic.
pub const FOOTER_ENCODED_LENGTH: usize = 2 * BlockHandle::MAX_ENCODED_LENGTH + 8;

/// Every block is followed by 1 compression byte + 4 CRC bytes.
pub const BLOCK_TRAILER_SIZE: usize = 5;

/// Compression tag stored in the block trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CompressionType {
    /// Raw bytes.
    None = 0,
    /// Snappy-compressed (the paper's assumed codec).
    Snappy = 1,
}

impl CompressionType {
    /// Parses a trailer compression byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(CompressionType::None),
            1 => Some(CompressionType::Snappy),
            _ => None,
        }
    }
}

/// Location of a block within a table file: offset + size, varint-encoded.
///
/// This is exactly the value format the paper's *Index Block Decoder*
/// parses to learn "the size and offset of a data block" (§V-A, Alg. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockHandle {
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Size of the block contents, excluding the 5-byte trailer.
    pub size: u64,
}

impl BlockHandle {
    /// Two varint64s of at most 10 bytes each.
    pub const MAX_ENCODED_LENGTH: usize = 20;

    /// Creates a handle.
    pub fn new(offset: u64, size: u64) -> Self {
        BlockHandle { offset, size }
    }

    /// Appends the varint encoding to `dst`.
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.offset);
        put_varint64(dst, self.size);
    }

    /// Encodes into a fresh vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(Self::MAX_ENCODED_LENGTH);
        self.encode_to(&mut v);
        v
    }

    /// Decodes from the front of `src`, returning the handle and bytes used.
    pub fn decode_from(src: &[u8]) -> Result<(BlockHandle, usize)> {
        let (offset, n1) =
            get_varint64(src).ok_or_else(|| corruption("bad block handle offset"))?;
        let (size, n2) =
            get_varint64(&src[n1..]).ok_or_else(|| corruption("bad block handle size"))?;
        Ok((BlockHandle { offset, size }, n1 + n2))
    }

    /// The block's length with its trailer, once the block is known to
    /// lie inside a file of `file_size` bytes. Handles come from a footer
    /// no CRC covers and from index blocks, so one past the end is
    /// `Corruption` here, before anything is allocated for it.
    pub fn framed_len_within(&self, file_size: u64) -> Result<usize> {
        self.size
            .checked_add(BLOCK_TRAILER_SIZE as u64)
            .filter(|&framed| {
                self.offset
                    .checked_add(framed)
                    .is_some_and(|end| end <= file_size)
            })
            .and_then(|framed| usize::try_from(framed).ok())
            .ok_or_else(|| {
                corruption(format!(
                    "block handle {}+{} runs past the end of a {file_size}-byte file",
                    self.offset, self.size
                ))
            })
    }
}

/// Table footer: metaindex + index handles, zero padding, magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Handle of the metaindex block (filter metablock directory).
    pub metaindex_handle: BlockHandle,
    /// Handle of the index block.
    pub index_handle: BlockHandle,
}

impl Footer {
    /// Encodes the footer to its fixed 48-byte representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut dst = Vec::with_capacity(FOOTER_ENCODED_LENGTH);
        self.metaindex_handle.encode_to(&mut dst);
        self.index_handle.encode_to(&mut dst);
        dst.resize(FOOTER_ENCODED_LENGTH - 8, 0);
        dst.extend_from_slice(&(TABLE_MAGIC_NUMBER as u32).to_le_bytes());
        dst.extend_from_slice(&((TABLE_MAGIC_NUMBER >> 32) as u32).to_le_bytes());
        debug_assert_eq!(dst.len(), FOOTER_ENCODED_LENGTH);
        dst
    }

    /// Decodes and validates a footer.
    pub fn decode(src: &[u8]) -> Result<Footer> {
        if src.len() < FOOTER_ENCODED_LENGTH {
            return Err(corruption("footer too short"));
        }
        let magic_lo = decode_fixed32(&src[FOOTER_ENCODED_LENGTH - 8..]) as u64;
        let magic_hi = decode_fixed32(&src[FOOTER_ENCODED_LENGTH - 4..]) as u64;
        let magic = (magic_hi << 32) | magic_lo;
        if magic != TABLE_MAGIC_NUMBER {
            return Err(corruption(format!("bad table magic {magic:#x}")));
        }
        let (metaindex_handle, n) = BlockHandle::decode_from(src)?;
        let (index_handle, _) = BlockHandle::decode_from(&src[n..])?;
        Ok(Footer {
            metaindex_handle,
            index_handle,
        })
    }
}

/// Frames block contents for writing: appends the compression tag and the
/// masked CRC (over contents + tag), returning the bytes to write and the
/// tag actually used (compression is skipped when it does not help,
/// mirroring LevelDB's 12.5% rule). For a one-off block; a writer of many
/// lends its own encoder to [`frame_block_into`].
pub fn frame_block(
    contents: &[u8],
    requested: CompressionType,
    scratch: &mut Vec<u8>,
) -> (CompressionType, Vec<u8>) {
    let mut framed = Vec::with_capacity(contents.len() + BLOCK_TRAILER_SIZE);
    let mut encoder = snap_codec::Encoder::new();
    let (ty, _) = frame_block_into(contents, requested, &mut encoder, scratch, &mut framed);
    (ty, framed)
}

/// Like [`frame_block`] but compresses with the caller's `encoder` and
/// appends the framed block (payload + trailer) to `out` instead of
/// allocating a fresh buffer, returning the tag used and the framed
/// length appended. Lets encoders frame straight into a long-lived output
/// memory with zero per-block allocation.
pub fn frame_block_into(
    contents: &[u8],
    requested: CompressionType,
    encoder: &mut snap_codec::Encoder,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> (CompressionType, usize) {
    let (ty, payload): (CompressionType, &[u8]) = match requested {
        CompressionType::None => (CompressionType::None, contents),
        CompressionType::Snappy => {
            scratch.clear();
            encoder.compress_into(contents, scratch);
            if scratch.len() < contents.len() - contents.len() / 8 {
                (CompressionType::Snappy, scratch.as_slice())
            } else {
                (CompressionType::None, contents)
            }
        }
    };
    let start = out.len();
    out.extend_from_slice(payload);
    out.push(ty as u8);
    let crc = crc32c::extend(crc32c::value(payload), &[ty as u8]);
    put_fixed32(out, crc32c::mask(crc));
    (ty, out.len() - start)
}

/// Framed blocks up to this size are read into the reading thread's own
/// buffer, which therefore never holds more; a larger one (a big index or
/// filter block) is read into a buffer of its own.
const FRAMED_KEPT: usize = 64 << 10;

thread_local! {
    /// The framed bytes of the block this thread is reading: reused from
    /// read to read, so a block load allocates at most the buffer its
    /// decoded contents live in.
    static FRAMED: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Reads and verifies one block (contents + trailer) from `file` at
/// `handle`, decompressing if needed. Asks `file` its length to check
/// the handle against; an open [`Table`](crate::table::Table) knows it.
pub fn read_block(file: &dyn RandomAccessFile, handle: &BlockHandle) -> Result<BlockContents> {
    read_block_into(file, file.len()?, handle, &mut None)
}

/// The one block read: [`read_block`] from a file of `file_size` bytes,
/// decoding into `spare` when it is of the block's size class (a spare
/// that is not stays in `spare`). The framed bytes go through the calling
/// thread's read buffer, so with a spare that fits nothing is allocated.
pub fn read_block_into(
    file: &dyn RandomAccessFile,
    file_size: u64,
    handle: &BlockHandle,
    spare: &mut Option<Spare>,
) -> Result<BlockContents> {
    let framed_len = handle.framed_len_within(file_size)?;
    if framed_len > FRAMED_KEPT {
        return decode_framed(file, handle, &mut Vec::new(), framed_len, spare);
    }
    FRAMED.with(|framed| decode_framed(file, handle, &mut framed.borrow_mut(), framed_len, spare))
}

/// Reads the `framed_len` bytes at `handle` into `framed` (growing it
/// only past its current length, which every byte read overwrites),
/// checks the trailer and decodes the contents.
fn decode_framed(
    file: &dyn RandomAccessFile,
    handle: &BlockHandle,
    framed: &mut Vec<u8>,
    framed_len: usize,
    spare: &mut Option<Spare>,
) -> Result<BlockContents> {
    framed.resize(framed_len, 0);
    let n = framed_len - BLOCK_TRAILER_SIZE;
    let read = file.read_at(handle.offset, framed)?;
    if read != framed_len {
        return Err(corruption(format!(
            "truncated block read: wanted {framed_len} got {read}"
        )));
    }
    let ty_byte = framed[n];
    let stored = crc32c::unmask(decode_fixed32(&framed[n + 1..]));
    let actual = crc32c::value(&framed[..n + 1]);
    if stored != actual {
        return Err(corruption(format!(
            "block checksum mismatch at offset {}",
            handle.offset
        )));
    }
    let ty = CompressionType::from_u8(ty_byte)
        .ok_or_else(|| corruption(format!("unknown compression tag {ty_byte}")))?;
    let payload = &framed[..n];
    Ok(match ty {
        CompressionType::None => BlockContents::fill(n, spare, |out| {
            out.copy_from_slice(payload);
            Ok::<_, snap_codec::Error>(())
        })?,
        // Decompressed straight into the buffer the block will live in.
        CompressionType::Snappy => {
            let len = snap_codec::decompressed_len(payload)?;
            BlockContents::fill(len, spare, |out| snap_codec::decompress_into(payload, out))?
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{MemEnv, StorageEnv};
    use std::path::Path;

    #[test]
    fn block_handle_roundtrip() {
        for (off, size) in [
            (0u64, 0u64),
            (1, 2),
            (u32::MAX as u64, 4096),
            (u64::MAX, u64::MAX),
        ] {
            let h = BlockHandle::new(off, size);
            let enc = h.encode();
            let (dec, n) = BlockHandle::decode_from(&enc).unwrap();
            assert_eq!(dec, h);
            assert_eq!(n, enc.len());
        }
    }

    #[test]
    fn footer_roundtrip_and_magic_check() {
        let f = Footer {
            metaindex_handle: BlockHandle::new(1000, 42),
            index_handle: BlockHandle::new(2000, 99),
        };
        let enc = f.encode();
        assert_eq!(enc.len(), FOOTER_ENCODED_LENGTH);
        assert_eq!(Footer::decode(&enc).unwrap(), f);

        let mut bad = enc.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(Footer::decode(&bad).is_err());
        assert!(Footer::decode(&enc[..10]).is_err());
    }

    fn write_file(env: &MemEnv, path: &Path, data: &[u8]) {
        let mut w = env.create_writable(path).unwrap();
        w.append(data).unwrap();
    }

    #[test]
    fn frame_and_read_block_uncompressed() {
        let env = MemEnv::new();
        let contents = b"some block contents that are totally random: 1234";
        let mut scratch = Vec::new();
        let (ty, framed) = frame_block(contents, CompressionType::None, &mut scratch);
        assert_eq!(ty, CompressionType::None);
        write_file(&env, Path::new("/b"), &framed);
        let f = env.open_random_access(Path::new("/b")).unwrap();
        let h = BlockHandle::new(0, contents.len() as u64);
        let got = read_block(f.as_ref(), &h).unwrap();
        assert_eq!(&got[..], contents);
    }

    #[test]
    fn frame_and_read_block_snappy() {
        let env = MemEnv::new();
        let contents = b"abcabcabcabcabcabcabcabc".repeat(100);
        let mut scratch = Vec::new();
        let (ty, framed) = frame_block(&contents, CompressionType::Snappy, &mut scratch);
        assert_eq!(ty, CompressionType::Snappy);
        assert!(framed.len() < contents.len());
        write_file(&env, Path::new("/b"), &framed);
        let f = env.open_random_access(Path::new("/b")).unwrap();
        let h = BlockHandle::new(0, (framed.len() - BLOCK_TRAILER_SIZE) as u64);
        let got = read_block(f.as_ref(), &h).unwrap();
        assert_eq!(&got[..], &contents[..]);
    }

    #[test]
    fn incompressible_blocks_fall_back_to_raw() {
        let mut x = 1u64;
        let contents: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let mut scratch = Vec::new();
        let (ty, _) = frame_block(&contents, CompressionType::Snappy, &mut scratch);
        assert_eq!(ty, CompressionType::None);
    }

    #[test]
    fn corrupt_block_detected_by_crc() {
        let env = MemEnv::new();
        let contents = b"payload payload payload";
        let mut scratch = Vec::new();
        let (_, mut framed) = frame_block(contents, CompressionType::None, &mut scratch);
        framed[3] ^= 0x01;
        write_file(&env, Path::new("/b"), &framed);
        let f = env.open_random_access(Path::new("/b")).unwrap();
        let h = BlockHandle::new(0, contents.len() as u64);
        assert!(read_block(f.as_ref(), &h).is_err());
    }

    #[test]
    fn truncated_block_read_is_error() {
        let env = MemEnv::new();
        write_file(&env, Path::new("/b"), b"tiny");
        let f = env.open_random_access(Path::new("/b")).unwrap();
        let h = BlockHandle::new(0, 100);
        assert!(read_block(f.as_ref(), &h).is_err());
    }
}
