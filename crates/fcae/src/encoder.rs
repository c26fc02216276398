//! Encoder stage: Data Block Encoder + Index Block Encoder (paper §V-A,
//! optimized per §V-B), with a Filter Block Encoder beside them.
//!
//! Valid key-value pairs accumulate into a standard prefix-compressed data
//! block; at ~4 KiB the block is Snappy-compressed, framed (compression
//! tag + masked CRC32C) and flushed to the output Data Block Memory, while
//! the Index Block Encoder immediately emits the block's index entry —
//! that immediacy is the §V-B separation optimization. At ~2 MiB the
//! current SSTable completes: its smallest/largest keys go to MetaOut,
//! the engine drains the table to the host, and the encoder resets.
//!
//! The Filter Block Encoder is not in the paper: it hashes each emitted
//! pair's filter key into the same [`FilterBlockBuilder`] the host's
//! `TableBuilder` uses — 32 bits per key are all it keeps — and cuts a
//! filter at every data-block flush, so a device-built table carries the
//! filter block a host-built one would.
//!
//! Hardware nicety preserved: the index separator is the block's *last
//! key* verbatim — the comparator-driven key shortening LevelDB does on
//! the CPU is skipped, exactly as a hardware encoder would.

use sstable::block_builder::{BlockBuilder, RESTART_INTERVAL};
use sstable::bloom::BloomFilterPolicy;
use sstable::filter_block::FilterBlockBuilder;
use sstable::format::{frame_block_into, BlockHandle, CompressionType, BLOCK_TRAILER_SIZE};
use sstable::table_builder::filter_key;

use crate::memory::{align_up, MetaOutTable, OutputTableImage};

/// Events the encoder reports so the engine can charge the timing model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EncodeEvents {
    /// A data block was flushed to DRAM.
    pub block_flushed: bool,
    /// An SSTable was completed.
    pub table_completed: bool,
}

/// The output encoder pair.
pub struct OutputEncoder {
    block_size: usize,
    table_size: u64,
    w_out: u32,
    compression: CompressionType,

    block: BlockBuilder,
    /// One Snappy encoder for every block the engine emits.
    snappy: snap_codec::Encoder,
    scratch: Vec<u8>,
    /// Filter Block Encoder over user keys (the internal key minus its
    /// trailer); `None` when the store writes no filters.
    filter: Option<FilterBlockBuilder>,

    /// Current table state.
    data_memory: Vec<u8>,
    index_entries: Vec<(Vec<u8>, BlockHandle)>,
    /// Unpadded (final-file) offset of the next block.
    file_offset: u64,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
    entries: u64,

    finished_tables: Vec<OutputTableImage>,
}

impl OutputEncoder {
    /// Creates an encoder producing `block_size` blocks and `table_size`
    /// tables, writing DRAM at `w_out`-byte alignment.
    pub fn new(
        block_size: usize,
        table_size: u64,
        w_out: u32,
        compression: CompressionType,
    ) -> Self {
        OutputEncoder {
            block_size,
            table_size,
            w_out,
            compression,
            block: BlockBuilder::new(RESTART_INTERVAL),
            snappy: snap_codec::Encoder::new(),
            scratch: Vec::new(),
            filter: None,
            data_memory: Vec::new(),
            index_entries: Vec::new(),
            file_offset: 0,
            smallest: None,
            largest: Vec::new(),
            entries: 0,
            finished_tables: Vec::new(),
        }
    }

    /// Adds the Filter Block Encoder: every output table gets a filter
    /// block over user keys built with `policy`, as `TableBuilder` builds
    /// one with `TableBuilderOptions::filter_policy`.
    pub fn with_filter(mut self, policy: BloomFilterPolicy) -> Self {
        self.filter = Some(FilterBlockBuilder::new(policy));
        self
    }

    /// Adds a valid pair (in merged order); returns flush/complete events.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> EncodeEvents {
        let mut events = EncodeEvents::default();
        if let Some(filter) = &mut self.filter {
            filter.add_key(filter_key(key));
        }
        if self.smallest.is_none() {
            self.smallest = Some(key.to_vec());
        }
        self.largest.clear();
        self.largest.extend_from_slice(key);
        self.block.add(key, value);
        self.entries += 1;

        if self.block.current_size_estimate() >= self.block_size {
            self.flush_block();
            events.block_flushed = true;
            if self.file_offset >= self.table_size {
                self.complete_table();
                events.table_completed = true;
            }
        }
        events
    }

    /// Flushes the in-progress block (if non-empty) to data memory and
    /// emits its index entry. Frames straight into the table's data
    /// memory — the only allocation is the index entry's owned key —
    /// and tells the filter encoder where the next block starts.
    fn flush_block(&mut self) {
        if self.block.is_empty() {
            return;
        }
        if self.data_memory.capacity() == 0 {
            // A table's data memory is allocated once, at its first block,
            // with an eighth over the table size for the padding and the
            // block that crosses the size: growing it by doubling would
            // copy the table on the way and hold up to twice its size.
            // Tables past 64 MiB grow as they fill.
            let table_size = self.table_size.min(64 << 20) as usize;
            self.data_memory.reserve(table_size + table_size / 8);
        }
        let contents = self.block.finish();
        let (_, framed_len) = frame_block_into(
            contents,
            self.compression,
            &mut self.snappy,
            &mut self.scratch,
            &mut self.data_memory,
        );
        let handle = BlockHandle::new(self.file_offset, (framed_len - BLOCK_TRAILER_SIZE) as u64);
        // Index Block Encoder: entry goes out immediately (§V-B), keyed by
        // the raw last key of the block.
        self.index_entries.push((self.largest.clone(), handle));
        self.file_offset += framed_len as u64;
        if let Some(filter) = &mut self.filter {
            filter.start_block(self.file_offset);
        }

        // Data memory is written in W_out-aligned beats.
        let padded = align_up(self.data_memory.len() as u64, u64::from(self.w_out));
        self.data_memory.resize(padded as usize, 0);

        self.block.reset();
    }

    /// Completes the current SSTable and resets for the next one.
    fn complete_table(&mut self) {
        if self.index_entries.is_empty() && self.block.is_empty() {
            return;
        }
        self.flush_block();
        let filter_block = self.filter.as_mut().map(|filter| {
            let block = filter.finish().to_vec();
            filter.reset();
            block
        });
        let meta = MetaOutTable {
            smallest: self.smallest.take().unwrap_or_default(),
            largest: std::mem::take(&mut self.largest),
            entries: self.entries,
            data_bytes: self.file_offset,
        };
        self.finished_tables.push(OutputTableImage {
            data_memory: std::mem::take(&mut self.data_memory),
            index_entries: std::mem::take(&mut self.index_entries),
            filter_block,
            meta,
        });
        self.file_offset = 0;
        self.entries = 0;
    }

    /// Hands over the tables completed since the last call, oldest first.
    /// The engine drains each table as soon as
    /// [`EncodeEvents::table_completed`] reports it, so a job holds one
    /// output table at a time.
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, OutputTableImage> {
        self.finished_tables.drain(..)
    }

    /// Ends the stream: flushes the tail block/table and returns every
    /// produced table image not yet drained. Returns the number of tail
    /// events (block flush, table completion) for timing.
    pub fn finish(mut self) -> (Vec<OutputTableImage>, EncodeEvents) {
        let mut events = EncodeEvents::default();
        if !self.block.is_empty() {
            events.block_flushed = true;
        }
        if !self.block.is_empty() || !self.index_entries.is_empty() {
            self.complete_table();
            events.table_completed = true;
        }
        (self.finished_tables, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::ikey::{InternalKey, ValueType};

    fn ikey(i: u32) -> Vec<u8> {
        InternalKey::new(
            format!("key{i:06}").as_bytes(),
            u64::from(i) + 1,
            ValueType::Value,
        )
        .encoded()
        .to_vec()
    }

    #[test]
    fn blocks_flush_at_block_size() {
        let mut enc = OutputEncoder::new(512, 1 << 20, 64, CompressionType::None);
        let mut flushes = 0;
        for i in 0..200 {
            let e = enc.add(&ikey(i), &[0xab; 64]);
            if e.block_flushed {
                flushes += 1;
            }
        }
        assert!(flushes >= 10, "expected many block flushes, got {flushes}");
        let (tables, _) = enc.finish();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.index_entries.len(), flushes + 1); // + tail block
        assert_eq!(t.meta.entries, 200);
    }

    #[test]
    fn tables_split_at_table_size() {
        let mut enc = OutputEncoder::new(512, 4096, 64, CompressionType::None);
        let mut completed = 0;
        for i in 0..400 {
            let e = enc.add(&ikey(i), &[0xcd; 64]);
            if e.table_completed {
                completed += 1;
            }
        }
        let (tables, tail) = enc.finish();
        assert!(completed >= 2, "expected table splits, got {completed}");
        assert_eq!(tables.len(), completed + usize::from(tail.table_completed));
        // Key ranges must be disjoint and ordered.
        for pair in tables.windows(2) {
            assert!(pair[0].meta.largest < pair[1].meta.smallest);
        }
        // Entry counts sum to the input count.
        let total: u64 = tables.iter().map(|t| t.meta.entries).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn handles_use_unpadded_offsets() {
        let mut enc = OutputEncoder::new(256, 1 << 20, 64, CompressionType::None);
        for i in 0..100 {
            enc.add(&ikey(i), &[1u8; 32]);
        }
        let (tables, _) = enc.finish();
        let t = &tables[0];
        let mut expected = 0u64;
        for (_, h) in &t.index_entries {
            assert_eq!(
                h.offset, expected,
                "handles must be contiguous file offsets"
            );
            expected += h.size + BLOCK_TRAILER_SIZE as u64;
        }
        // framed_blocks() must round-trip each block despite padding.
        assert_eq!(t.framed_blocks(64).count(), t.index_entries.len());
        for (framed, (_, h)) in t.framed_blocks(64).zip(&t.index_entries) {
            assert_eq!(framed.len(), h.size as usize + BLOCK_TRAILER_SIZE);
        }
    }

    #[test]
    fn empty_stream_produces_nothing() {
        let enc = OutputEncoder::new(4096, 2 << 20, 64, CompressionType::Snappy);
        let (tables, events) = enc.finish();
        assert!(tables.is_empty());
        assert_eq!(events, EncodeEvents::default());
    }
}
