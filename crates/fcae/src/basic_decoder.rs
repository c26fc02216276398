//! The **basic** Decoder of the paper's Fig. 2 / Algorithm 1, implemented
//! functionally: a *single* read pointer serves both the index block and
//! the data blocks, switching back to the index block after every data
//! block ("After one data block has finished processing, the read pointer
//! goes back to the index block for the meta data of the next data
//! block").
//!
//! The optimized decoder ([`crate::decoder::InputDecoder`]) removes that
//! switching by giving index and data their own pointers (§V-B). Both
//! must produce identical key-value streams — asserted in tests — while
//! the basic one performs strictly more pointer switches, which is what
//! the timing model charges for (`AblationFlags::index_data_separation`).

use sstable::block::{Block, BlockIter};
use sstable::format::{BlockHandle, CompressionType};

use crate::memory::{index_block_from_region, DataWindow, InputImage};
use crate::Result;

fn corruption(msg: &str) -> lsm::Error {
    lsm::Error::Corruption(msg.to_string())
}

/// Where the single read pointer currently points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pointer {
    /// Parsing index entries of SSTable `sst` (entry cursor lives in the
    /// index iterator).
    IndexBlock,
    /// Streaming a data block.
    DataBlock,
}

/// Counters proving the basic design's extra pointer traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct BasicDecoderStats {
    /// Read-pointer switches between index and data regions (the stall
    /// the §V-B optimization removes).
    pub pointer_switches: u64,
    /// Data blocks fetched.
    pub blocks_fetched: u64,
    /// Pairs decoded.
    pub pairs_decoded: u64,
}

/// The Algorithm 1 decoder.
pub struct BasicInputDecoder<'a> {
    image: &'a InputImage,
    sst_idx: usize,
    index_iter: Option<BlockIter>,
    window: DataWindow,
    block_iter: Option<BlockIter>,
    pointer: Pointer,
    /// Counters.
    pub stats: BasicDecoderStats,
}

impl<'a> BasicInputDecoder<'a> {
    /// Creates a decoder positioned before the first entry.
    pub fn new(image: &'a InputImage, w_in: u32) -> Self {
        BasicInputDecoder {
            image,
            sst_idx: 0,
            index_iter: None,
            window: DataWindow::new(w_in),
            block_iter: None,
            pointer: Pointer::IndexBlock,
            stats: BasicDecoderStats::default(),
        }
    }

    /// True when positioned on a decoded pair.
    pub fn valid(&self) -> bool {
        self.block_iter.as_ref().is_some_and(|b| b.valid())
    }

    /// Current internal key.
    pub fn key(&self) -> &[u8] {
        self.block_iter
            .as_ref()
            // PANIC-OK: MergeSource contract — key() only after advance()
            // returned true, which leaves block_iter populated.
            .expect("key on invalid decoder")
            .key()
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        self.block_iter
            .as_ref()
            // PANIC-OK: MergeSource contract — value() only after advance()
            // returned true, which leaves block_iter populated.
            .expect("value on invalid decoder")
            .value()
    }

    fn switch(&mut self, to: Pointer) {
        if self.pointer != to {
            self.pointer = to;
            self.stats.pointer_switches += 1;
        }
    }

    /// Advances through the three nested loops of Algorithm 1.
    pub fn advance(&mut self) -> Result<bool> {
        // Inner loop (z): pairs within the current data block.
        if let Some(it) = &mut self.block_iter {
            if it.valid() {
                it.next();
                if it.valid() {
                    self.stats.pairs_decoded += 1;
                    return Ok(true);
                }
            }
        }
        loop {
            // Middle loop (y): next data block — the pointer must return
            // to the index block first.
            self.switch(Pointer::IndexBlock);
            if self.index_iter.is_none() {
                // Outer loop (x): next SSTable's index block.
                if self.sst_idx >= self.image.meta.sstables.len() {
                    self.block_iter = None;
                    return Ok(false);
                }
                let meta = self.image.meta.sstables[self.sst_idx];
                let block = index_block_from_region(&self.image.index_memory, &meta)?;
                let mut it = block.iter();
                it.seek_to_first();
                self.index_iter = Some(it);
                self.window.seek(meta.data_offset);
                self.sst_idx += 1;
            }
            // PANIC-OK: the branch above just set index_iter to Some or
            // returned; None is unreachable here.
            let index_iter = self.index_iter.as_mut().expect("opened above");
            if !index_iter.valid() {
                self.index_iter = None;
                continue;
            }
            let (handle, _) =
                BlockHandle::decode_from(index_iter.value()).map_err(lsm::Error::from)?;
            index_iter.next();
            // Pointer moves to the data block to stream it in.
            self.switch(Pointer::DataBlock);
            let block = self.fetch_block(&handle)?;
            let mut it = block.iter();
            it.seek_to_first();
            if it.valid() {
                self.stats.pairs_decoded += 1;
                self.block_iter = Some(it);
                return Ok(true);
            }
        }
    }

    fn fetch_block(&mut self, handle: &BlockHandle) -> Result<Block> {
        let (contents, compression) = self.window.next_block(self.image, handle)?;
        self.stats.blocks_fetched += 1;
        let raw = &self.window.bytes()[contents];
        let contents = match compression {
            CompressionType::None => bytes::Bytes::copy_from_slice(raw),
            CompressionType::Snappy => bytes::Bytes::from(
                snap_codec::decompress(raw).map_err(|e| corruption(&format!("snappy: {e}")))?,
            ),
        };
        Block::new(contents).map_err(lsm::Error::from)
    }
}

impl crate::decoder::MergeSource for BasicInputDecoder<'_> {
    fn advance(&mut self) -> Result<bool> {
        BasicInputDecoder::advance(self)
    }

    fn valid(&self) -> bool {
        BasicInputDecoder::valid(self)
    }

    fn key(&self) -> &[u8] {
        BasicInputDecoder::key(self)
    }

    fn value(&self) -> &[u8] {
        BasicInputDecoder::value(self)
    }
}

impl crate::decoder::DecoderSource for BasicInputDecoder<'_> {
    fn blocks_fetched(&self) -> u64 {
        self.stats.blocks_fetched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::InputDecoder;
    use crate::memory::build_input_image;
    use lsm::compaction::CompactionInput;
    use sstable::env::{MemEnv, StorageEnv};
    use sstable::ikey::{InternalKey, ValueType};
    use sstable::table::{Table, TableReadOptions};
    use sstable::table_builder::{TableBuilder, TableBuilderOptions};
    use std::path::Path;

    fn build_input(env: &MemEnv, n: u32) -> CompactionInput {
        let opts = TableBuilderOptions {
            block_size: 512,
            ..Default::default()
        };
        let f = env.create_writable(Path::new("/t")).unwrap();
        let mut b = TableBuilder::new(opts, f);
        for i in 0..n {
            let k = InternalKey::new(
                format!("key{i:06}").as_bytes(),
                u64::from(i) + 1,
                ValueType::Value,
            );
            b.add(k.encoded(), format!("val{i}").as_bytes()).unwrap();
        }
        let size = b.finish().unwrap();
        let ropts = TableReadOptions::default();
        let file = env.open_random_access(Path::new("/t")).unwrap();
        CompactionInput {
            tables: vec![Table::open(file, size, ropts).unwrap()],
        }
    }

    #[test]
    fn basic_and_optimized_decoders_agree() {
        let env = MemEnv::new();
        let input = build_input(&env, 800);
        let image = build_input_image(&input, 64).unwrap();

        let mut basic = BasicInputDecoder::new(&image, 64);
        let mut optimized = InputDecoder::new(&image, 64);
        let mut pairs = 0u64;
        loop {
            let a = basic.advance().unwrap();
            let b = optimized.advance().unwrap();
            assert_eq!(a, b, "validity diverged at pair {pairs}");
            if !a {
                break;
            }
            assert_eq!(basic.key(), optimized.key(), "key at {pairs}");
            assert_eq!(basic.value(), optimized.value(), "value at {pairs}");
            pairs += 1;
        }
        assert_eq!(pairs, 800);
        assert_eq!(basic.stats.pairs_decoded, optimized.stats.pairs_decoded);
        assert_eq!(basic.stats.blocks_fetched, optimized.stats.blocks_fetched);
    }

    #[test]
    fn basic_decoder_switches_pointer_per_block() {
        let env = MemEnv::new();
        let input = build_input(&env, 800);
        let image = build_input_image(&input, 64).unwrap();
        let mut basic = BasicInputDecoder::new(&image, 64);
        while basic.advance().unwrap() {}
        // Two switches (index -> data -> index) per data block: this is
        // the serialization the §V-B separation removes.
        let blocks = basic.stats.blocks_fetched;
        assert!(blocks > 10, "expect many blocks: {blocks}");
        assert!(
            basic.stats.pointer_switches >= 2 * blocks - 1,
            "switches {} for {blocks} blocks",
            basic.stats.pointer_switches
        );
    }
}
