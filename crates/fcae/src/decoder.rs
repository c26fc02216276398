//! Decoder stage: per-input Index Block Decoder + Data Block Decoder
//! (paper §V-A Algorithm 1, optimized per §V-B).
//!
//! Functionally the decoder walks one input's SSTables in order: for each
//! index entry it locates the next (W_in-aligned) framed data block in
//! Data Block Memory, verifies the CRC, Snappy-decompresses it, and
//! iterates its prefix-compressed entries — producing the decoded
//! key-value stream the Comparer consumes. Counters record how many
//! blocks were fetched so the engine can charge the timing model.
//!
//! The data path is allocation-free in steady state: uncompressed blocks
//! are borrowed in place from Data Block Memory, Snappy blocks are
//! decompressed into one reusable buffer, and entries are parsed with a
//! forward-only [`BlockCursor`] whose key buffer is reused across blocks.
//! Only opening a new SSTable's index block allocates (once per table,
//! not per pair).

use sstable::block::{BlockCursor, BlockIter};
use sstable::coding::decode_fixed32;
use sstable::crc32c;
use sstable::format::{BlockHandle, CompressionType, BLOCK_TRAILER_SIZE};

use crate::memory::{align_up, index_block_from_region, InputImage};
use crate::Result;

fn corruption(msg: impl Into<String>) -> lsm::Error {
    lsm::Error::Corruption(msg.into())
}

pub use lsm::compaction::MergeSource;

/// A [`MergeSource`] that decodes out of device memory — the optimized
/// [`InputDecoder`] or the baseline
/// [`crate::basic_decoder::BasicInputDecoder`] — and so has DRAM block
/// fetches for the engine to charge.
pub trait DecoderSource: MergeSource {
    /// Data blocks fetched so far (for timing-model charging).
    fn blocks_fetched(&self) -> u64;
}

/// Decoder counters, polled by the engine after each advance.
#[derive(Debug, Default, Clone, Copy)]
pub struct DecoderStats {
    /// Data blocks fetched from Data Block Memory.
    pub blocks_fetched: u64,
    /// Index blocks opened.
    pub index_blocks_opened: u64,
    /// Key-value pairs decoded.
    pub pairs_decoded: u64,
    /// Compressed bytes consumed.
    pub bytes_consumed: u64,
}

/// Where the current block's contents live.
enum BlockSrc {
    /// No block open.
    None,
    /// Borrowed directly from Data Block Memory (uncompressed block).
    Image { start: usize, end: usize },
    /// In the reusable decompression buffer (Snappy block).
    Buf,
}

/// One input's decoder (Index Block Decoder + Data Block Decoder pair).
pub struct InputDecoder<'a> {
    image: &'a InputImage,
    w_in: u32,
    /// Index of the SSTable currently being decoded.
    sst_idx: usize,
    /// Iterator over the current SSTable's index block.
    index_iter: Option<BlockIter>,
    /// Cursor into Data Block Memory (aligned offset of the next block).
    data_cursor: u64,
    /// Source of the current data block's contents.
    block_src: BlockSrc,
    /// Entry cursor over the current block.
    cursor: BlockCursor,
    /// Reusable Snappy output buffer.
    decomp_buf: Vec<u8>,
    /// Counters.
    pub stats: DecoderStats,
}

/// Expands to the current block's contents slice without borrowing all
/// of `$d` — so `$d.cursor` stays independently borrowable.
macro_rules! contents {
    ($d:expr) => {
        match $d.block_src {
            BlockSrc::None => &[][..],
            BlockSrc::Image { start, end } => &$d.image.data_memory[start..end],
            BlockSrc::Buf => &$d.decomp_buf,
        }
    };
}

impl<'a> InputDecoder<'a> {
    /// Creates a decoder positioned before the first entry; call
    /// [`InputDecoder::advance`] to reach it.
    pub fn new(image: &'a InputImage, w_in: u32) -> Self {
        InputDecoder {
            image,
            w_in,
            sst_idx: 0,
            index_iter: None,
            data_cursor: 0,
            block_src: BlockSrc::None,
            cursor: BlockCursor::new(),
            decomp_buf: Vec::new(),
            stats: DecoderStats::default(),
        }
    }

    /// True when positioned on a decoded pair.
    pub fn valid(&self) -> bool {
        self.cursor.valid()
    }

    /// Current internal key.
    pub fn key(&self) -> &[u8] {
        assert!(self.cursor.valid(), "key on invalid decoder");
        self.cursor.key()
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        assert!(self.cursor.valid(), "value on invalid decoder");
        self.cursor.value(contents!(self))
    }

    /// Moves to the next pair, crossing block and SSTable boundaries.
    /// Returns `Ok(true)` while pairs remain.
    pub fn advance(&mut self) -> Result<bool> {
        // Within the current block?
        if self.cursor.advance(contents!(self)) {
            self.stats.pairs_decoded += 1;
            return Ok(true);
        }
        if self.cursor.corrupted() {
            return Err(corruption("malformed entry in data block"));
        }
        // Need the next data block (possibly crossing to the next table).
        loop {
            if self.index_iter.is_none() && !self.open_next_index()? {
                self.block_src = BlockSrc::None;
                return Ok(false);
            }
            // PANIC-OK: open_next_index() just returned true, which only
            // happens after storing Some(index_iter).
            let index_iter = self.index_iter.as_mut().expect("opened above");
            if !index_iter.valid() {
                // This SSTable is exhausted; move on.
                self.index_iter = None;
                continue;
            }
            let (handle, _) =
                BlockHandle::decode_from(index_iter.value()).map_err(lsm::Error::from)?;
            index_iter.next();
            self.fetch_and_decode_block(&handle)?;
            if self.cursor.advance(contents!(self)) {
                self.stats.pairs_decoded += 1;
                return Ok(true);
            }
            if self.cursor.corrupted() {
                return Err(corruption("malformed entry in data block"));
            }
            // Empty block: keep going.
        }
    }

    /// Opens the next SSTable's index block, if any.
    fn open_next_index(&mut self) -> Result<bool> {
        if self.sst_idx >= self.image.meta.sstables.len() {
            return Ok(false);
        }
        let meta = self.image.meta.sstables[self.sst_idx];
        let block = index_block_from_region(&self.image.index_memory, &meta)?;
        let mut it = block.iter();
        it.seek_to_first();
        self.index_iter = Some(it);
        self.data_cursor = meta.data_offset;
        self.sst_idx += 1;
        self.stats.index_blocks_opened += 1;
        Ok(true)
    }

    /// Streams in the block at the data cursor, checks its trailer,
    /// decompresses it if needed, and resets the entry cursor onto it.
    fn fetch_and_decode_block(&mut self, handle: &BlockHandle) -> Result<()> {
        let framed_len = handle.size as usize + BLOCK_TRAILER_SIZE;
        let start = self.data_cursor as usize;
        let end = start + framed_len;
        if end > self.image.data_memory.len() {
            return Err(corruption(format!(
                "data block at {start} (+{framed_len}) exceeds data memory ({})",
                self.image.data_memory.len()
            )));
        }
        let framed = &self.image.data_memory[start..end];
        self.data_cursor = align_up(end as u64, u64::from(self.w_in));
        self.stats.blocks_fetched += 1;
        self.stats.bytes_consumed += framed_len as u64;

        let n = handle.size as usize;
        let ty_byte = framed[n];
        let stored = crc32c::unmask(decode_fixed32(&framed[n + 1..]));
        let actual = crc32c::value(&framed[..n + 1]);
        if stored != actual {
            return Err(corruption("data block checksum mismatch in device memory"));
        }
        match CompressionType::from_u8(ty_byte) {
            Some(CompressionType::None) => {
                self.block_src = BlockSrc::Image {
                    start,
                    end: start + n,
                };
            }
            Some(CompressionType::Snappy) => {
                snap_codec::decompress_to_vec(framed[..n].as_ref(), &mut self.decomp_buf)
                    .map_err(|e| corruption(format!("snappy: {e}")))?;
                self.block_src = BlockSrc::Buf;
            }
            None => return Err(corruption(format!("unknown compression tag {ty_byte}"))),
        }
        self.cursor.reset(contents!(self)).map_err(lsm::Error::from)
    }
}

impl MergeSource for InputDecoder<'_> {
    fn advance(&mut self) -> Result<bool> {
        InputDecoder::advance(self)
    }

    fn valid(&self) -> bool {
        InputDecoder::valid(self)
    }

    fn key(&self) -> &[u8] {
        InputDecoder::key(self)
    }

    fn value(&self) -> &[u8] {
        InputDecoder::value(self)
    }
}

impl DecoderSource for InputDecoder<'_> {
    fn blocks_fetched(&self) -> u64 {
        self.stats.blocks_fetched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::build_input_image;
    use lsm::compaction::CompactionInput;
    use sstable::env::{MemEnv, StorageEnv};
    use sstable::ikey::{InternalKey, ValueType};
    use sstable::table::{Table, TableReadOptions};
    use sstable::table_builder::{TableBuilder, TableBuilderOptions};
    use std::path::Path;
    use std::sync::Arc;

    fn internal_table_options() -> TableBuilderOptions {
        TableBuilderOptions {
            block_size: 512,
            ..Default::default()
        }
    }

    fn build_table(env: &MemEnv, path: &str, range: std::ops::Range<u32>) -> Arc<Table> {
        let f = env.create_writable(Path::new(path)).unwrap();
        let mut b = TableBuilder::new(internal_table_options(), f);
        for i in range {
            let key = InternalKey::new(
                format!("key{i:06}").as_bytes(),
                u64::from(i) + 1,
                ValueType::Value,
            );
            b.add(key.encoded(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        let size = b.finish().unwrap();
        let file = env.open_random_access(Path::new(path)).unwrap();
        let read_opts = TableReadOptions::default();
        Table::open(file, size, read_opts).unwrap()
    }

    #[test]
    fn decoder_streams_all_pairs_in_order() {
        let env = MemEnv::new();
        let t1 = build_table(&env, "/t1", 0..300);
        let t2 = build_table(&env, "/t2", 300..500);
        let input = CompactionInput {
            tables: vec![t1, t2],
        };
        let image = build_input_image(&input, 64).unwrap();
        let mut dec = InputDecoder::new(&image, 64);

        let mut count = 0u32;
        while dec.advance().unwrap() {
            let parsed = sstable::ikey::parse_internal_key(dec.key()).unwrap();
            assert_eq!(parsed.user_key, format!("key{count:06}").as_bytes());
            assert_eq!(dec.value(), format!("value-{count}").as_bytes());
            count += 1;
        }
        assert_eq!(count, 500);
        assert!(dec.stats.blocks_fetched > 1, "multiple blocks expected");
        assert_eq!(dec.stats.index_blocks_opened, 2);
        assert_eq!(dec.stats.pairs_decoded, 500);
    }

    #[test]
    fn decoder_detects_corrupted_device_memory() {
        let env = MemEnv::new();
        let t1 = build_table(&env, "/t1", 0..100);
        let input = CompactionInput { tables: vec![t1] };
        let mut image = build_input_image(&input, 64).unwrap();
        // Flip a byte in the first data block.
        image.data_memory[10] ^= 0xff;
        let mut dec = InputDecoder::new(&image, 64);
        assert!(dec.advance().is_err());
    }

    #[test]
    fn alignment_respected_for_all_widths() {
        let env = MemEnv::new();
        let t1 = build_table(&env, "/t1", 0..200);
        for w in [8u32, 16, 32, 64] {
            let input = CompactionInput {
                tables: vec![Arc::clone(&t1)],
            };
            let image = build_input_image(&input, w).unwrap();
            let mut dec = InputDecoder::new(&image, w);
            let mut count = 0;
            while dec.advance().unwrap() {
                count += 1;
            }
            assert_eq!(count, 200, "w_in={w}");
        }
    }
}
