//! Decoder stage: per-input Index Block Decoder + Data Block Decoder, as
//! §V-B separates them — the index walk and the data cursor each keep
//! their own pointer.
//!
//! Functionally the decoder walks one input's SSTables in order: for each
//! index entry it locates the next (W_in-aligned) framed data block in
//! Data Block Memory, verifies the CRC, Snappy-decompresses it, and
//! iterates its prefix-compressed entries — producing the decoded
//! key-value stream the Comparer consumes. Counters record how many
//! blocks were fetched so the engine can charge the timing model.
//!
//! The basic decoder of §V-A (Algorithm 1: one read pointer that returns
//! to the index block after every data block) decodes the same stream,
//! so it has no functional twin here: its cost is the timing model's
//! `AblationFlags::index_data_separation = false` charge per block fetch
//! ([`crate::timing::PipelineModel::on_block_fetch`]).
//!
//! The data path is allocation-free in steady state: uncompressed blocks
//! are borrowed in place from the decoder's `DataWindow` onto Data
//! Block Memory (refilled into the same buffer), Snappy blocks are
//! decompressed into one reusable buffer, and entries are parsed with a
//! forward-only [`BlockCursor`] whose key buffer is reused across blocks.
//! Only opening a new SSTable's index block allocates (once per table,
//! not per pair).

use sstable::block::{BlockCursor, BlockIter};
use sstable::format::{BlockHandle, CompressionType};

use crate::memory::{index_block_from_region, DataWindow, InputImage};
use crate::Result;

fn corruption(msg: impl Into<String>) -> lsm::Error {
    lsm::Error::Corruption(msg.into())
}

pub use lsm::compaction::MergeSource;

/// Decoder counters, polled by the engine after each advance.
#[derive(Debug, Default, Clone, Copy)]
pub struct DecoderStats {
    /// Data blocks fetched from Data Block Memory.
    pub blocks_fetched: u64,
    /// Index blocks opened.
    pub index_blocks_opened: u64,
    /// Key-value pairs decoded.
    pub pairs_decoded: u64,
}

/// Where the current block's contents live.
enum BlockSrc {
    /// No block open.
    None,
    /// Borrowed directly from the data window (uncompressed block).
    Window { start: usize, end: usize },
    /// In the reusable decompression buffer (Snappy block).
    Buf,
}

/// One input's decoder (Index Block Decoder + Data Block Decoder pair).
pub struct InputDecoder<'a> {
    image: &'a InputImage,
    /// Index of the SSTable currently being decoded.
    sst_idx: usize,
    /// Iterator over the current SSTable's index block.
    index_iter: Option<BlockIter>,
    /// The data cursor and the read window its blocks are fetched
    /// through.
    window: DataWindow,
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
            BlockSrc::Window { start, end } => &$d.window.bytes()[start..end],
            BlockSrc::Buf => &$d.decomp_buf,
        }
    };
}

impl<'a> InputDecoder<'a> {
    /// Creates a decoder positioned before the first entry; call
    /// [`MergeSource::advance`] to reach it.
    pub fn new(image: &'a InputImage, w_in: u32) -> Self {
        InputDecoder {
            image,
            sst_idx: 0,
            index_iter: None,
            window: DataWindow::new(w_in),
            block_src: BlockSrc::None,
            cursor: BlockCursor::new(),
            decomp_buf: Vec::new(),
            stats: DecoderStats::default(),
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
        self.window.seek(meta.data_offset);
        self.sst_idx += 1;
        self.stats.index_blocks_opened += 1;
        Ok(true)
    }

    /// Streams in the block at the data cursor (its trailer checked),
    /// decompresses it if needed, and resets the entry cursor onto it.
    fn fetch_and_decode_block(&mut self, handle: &BlockHandle) -> Result<()> {
        let (contents, compression) = self.window.next_block(self.image, handle)?;
        self.stats.blocks_fetched += 1;
        self.block_src = match compression {
            CompressionType::None => BlockSrc::Window {
                start: contents.start,
                end: contents.end,
            },
            CompressionType::Snappy => {
                snap_codec::decompress_to_vec(&self.window.bytes()[contents], &mut self.decomp_buf)
                    .map_err(|e| corruption(format!("snappy: {e}")))?;
                BlockSrc::Buf
            }
        };
        self.cursor.reset(contents!(self)).map_err(lsm::Error::from)
    }
}

impl MergeSource for InputDecoder<'_> {
    /// True when positioned on a decoded pair.
    fn valid(&self) -> bool {
        self.cursor.valid()
    }

    /// Current internal key.
    fn key(&self) -> &[u8] {
        assert!(self.cursor.valid(), "key on invalid decoder");
        self.cursor.key()
    }

    /// Current value.
    fn value(&self) -> &[u8] {
        assert!(self.cursor.valid(), "value on invalid decoder");
        self.cursor.value(contents!(self))
    }

    /// Moves to the next pair, crossing block and SSTable boundaries.
    /// Returns `Ok(true)` while pairs remain.
    fn advance(&mut self) -> Result<bool> {
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

    fn build_table(env: &MemEnv, path: &str, range: std::ops::Range<u32>) -> Arc<Table> {
        build_table_then(env, path, range, CompressionType::Snappy, |_| {})
    }

    /// Builds the table, lets `damage` edit the file's bytes, then opens it.
    fn build_table_then(
        env: &MemEnv,
        path: &str,
        range: std::ops::Range<u32>,
        compression: CompressionType,
        damage: impl FnOnce(&mut Vec<u8>),
    ) -> Arc<Table> {
        let options = TableBuilderOptions {
            block_size: 512,
            compression,
            ..Default::default()
        };
        let f = env.create_writable(Path::new(path)).unwrap();
        let mut b = TableBuilder::new(options, f);
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
        let mut bytes = env
            .open_random_access(Path::new(path))
            .unwrap()
            .read_all()
            .unwrap();
        damage(&mut bytes);
        env.create_writable(Path::new(path))
            .unwrap()
            .append(&bytes)
            .unwrap();
        let file = env.open_random_access(Path::new(path)).unwrap();
        let read_opts = TableReadOptions::default();
        Table::open(file, size, read_opts).unwrap()
    }

    /// Snappy tables decode through the reusable buffer, the raw one in
    /// place in the window: both block sources in one stream.
    #[test]
    fn decoder_streams_all_pairs_in_order() {
        let env = MemEnv::new();
        let t1 = build_table(&env, "/t1", 0..300);
        let t2 = build_table(&env, "/t2", 300..500);
        let t3 = build_table_then(&env, "/t3", 500..700, CompressionType::None, |_| {});
        let input = CompactionInput {
            tables: vec![t1, t2, t3],
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
        assert_eq!(count, 700);
        assert!(dec.stats.blocks_fetched > 1, "multiple blocks expected");
        assert_eq!(dec.stats.index_blocks_opened, 3);
        assert_eq!(dec.stats.pairs_decoded, 700);
    }

    #[test]
    fn decoder_streams_tables_larger_than_its_window() {
        let env = MemEnv::new();
        let t1 = build_table(&env, "/t1", 0..40_000);
        let t2 = build_table(&env, "/t2", 40_000..50_000);
        let window = crate::memory::DATA_WINDOW_BYTES as u64;
        assert!(t1.file_size() > 2 * window, "{} bytes", t1.file_size());
        let input = CompactionInput {
            tables: vec![t1, t2],
        };
        for w in [8u32, 64] {
            let image = build_input_image(&input, w).unwrap();
            let mut dec = InputDecoder::new(&image, w);
            let mut count = 0u32;
            while dec.advance().unwrap() {
                let parsed = sstable::ikey::parse_internal_key(dec.key()).unwrap();
                assert_eq!(parsed.user_key, format!("key{count:06}").as_bytes());
                assert_eq!(dec.value(), format!("value-{count}").as_bytes());
                count += 1;
            }
            assert_eq!(count, 50_000, "w_in={w}");
            assert_eq!(dec.stats.blocks_fetched, image.data_blocks.len() as u64);
        }
    }

    #[test]
    fn decoder_detects_corrupted_device_memory() {
        let env = MemEnv::new();
        // Flip a byte of the first data block in the table file.
        let t1 = build_table_then(&env, "/t1", 0..100, CompressionType::Snappy, |bytes| {
            bytes[10] ^= 0xff;
        });
        let input = CompactionInput { tables: vec![t1] };
        let image = build_input_image(&input, 64).unwrap();
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
