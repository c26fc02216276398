//! SSTable writer (LevelDB `TableBuilder`).
//!
//! Emits data blocks of ~`block_size` bytes, the optional filter
//! metablock, the metaindex block, the index block whose entries the
//! paper's Index Block Decoder consumes, and the footer. Keys are
//! internal keys in [`InternalKeyComparator`] order, data blocks restart
//! every [`RESTART_INTERVAL`] entries and filters cover user keys: the
//! one table format every writer of the store shares.

use std::cmp::Ordering;

use crate::block_builder::{BlockBuilder, RESTART_INTERVAL};
use crate::bloom::BloomFilterPolicy;
use crate::comparator::InternalKeyComparator;
use crate::env::WritableFile;
use crate::filter_block::FilterBlockBuilder;
use crate::format::{
    frame_block_into, BlockHandle, CompressionType, Footer, BLOCK_TRAILER_SIZE,
    FOOTER_ENCODED_LENGTH,
};
use crate::{Error, Result};

/// Table construction options.
#[derive(Clone)]
pub struct TableBuilderOptions {
    /// Target uncompressed data block size (paper default: 4 KiB).
    pub block_size: usize,
    /// Compression applied to blocks.
    pub compression: CompressionType,
    /// Bloom filter policy; `None` disables the filter metablock.
    pub filter_policy: Option<BloomFilterPolicy>,
}

impl Default for TableBuilderOptions {
    fn default() -> Self {
        TableBuilderOptions {
            block_size: 4096,
            compression: CompressionType::Snappy,
            filter_policy: Some(BloomFilterPolicy::new(10)),
        }
    }
}

/// Key as seen by the filter: the user-key prefix of an internal key
/// (LevelDB's `InternalFilterPolicy`), so point lookups at any sequence
/// number can use the filter.
pub fn filter_key(key: &[u8]) -> &[u8] {
    &key[..key.len().saturating_sub(8)]
}

/// Incrementally builds one SSTable into a writable file.
pub struct TableBuilder {
    options: TableBuilderOptions,
    table: TableWriter,
    num_entries: u64,
    data_block: BlockBuilder,
    filter_builder: Option<FilterBlockBuilder>,
    /// Set after a data block is cut; the index entry is deferred until the
    /// next key arrives so the separator can be shortened.
    pending_index_entry: Option<BlockHandle>,
    last_key: Vec<u8>,
    finished: bool,
}

impl TableBuilder {
    /// Starts building a table into `file`.
    pub fn new(options: TableBuilderOptions, file: Box<dyn WritableFile>) -> Self {
        let filter_builder = options.filter_policy.map(FilterBlockBuilder::new);
        TableBuilder {
            data_block: BlockBuilder::new(RESTART_INTERVAL),
            options,
            table: TableWriter::new(file),
            num_entries: 0,
            filter_builder,
            pending_index_entry: None,
            last_key: Vec::new(),
            finished: false,
        }
    }

    /// Adds a key/value pair; keys must be internal keys arriving in
    /// strictly increasing internal-key order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.finished {
            return Err(Error::InvalidArgument("add after finish".into()));
        }
        if key.len() < 8 {
            return Err(Error::InvalidArgument(format!(
                "key {key:?} is shorter than the internal-key trailer"
            )));
        }
        if self.num_entries > 0
            && InternalKeyComparator.compare(key, &self.last_key) != Ordering::Greater
        {
            return Err(Error::InvalidArgument(format!(
                "keys out of order: {:?} after {:?}",
                key, self.last_key
            )));
        }

        if let Some(handle) = self.pending_index_entry.take() {
            // First key of a new block: index separator between blocks.
            let sep = InternalKeyComparator.find_shortest_separator(&self.last_key, key);
            self.table.add_index_entry(&sep, &handle);
        }

        if let Some(fb) = &mut self.filter_builder {
            fb.add_key(filter_key(key));
        }

        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.num_entries += 1;
        self.data_block.add(key, value);

        if self.data_block.current_size_estimate() >= self.options.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    /// Cuts the current data block and writes it out.
    fn flush_data_block(&mut self) -> Result<()> {
        if self.data_block.is_empty() {
            return Ok(());
        }
        let handle = self
            .table
            .write_block(self.data_block.finish(), self.options.compression)?;
        self.data_block.reset();
        self.pending_index_entry = Some(handle);
        if let Some(fb) = &mut self.filter_builder {
            fb.start_block(self.table.offset);
        }
        Ok(())
    }

    /// Writes the last data block and index entry, then the tail; returns
    /// the file size.
    pub fn finish(&mut self) -> Result<u64> {
        if self.finished {
            return Err(Error::InvalidArgument("finish called twice".into()));
        }
        self.flush_data_block()?;
        self.finished = true;
        if let Some(handle) = self.pending_index_entry.take() {
            let succ = InternalKeyComparator.find_short_successor(&self.last_key);
            self.table.add_index_entry(&succ, &handle);
        }
        let filter = (self.options.filter_policy)
            .zip(self.filter_builder.as_mut().map(FilterBlockBuilder::finish));
        self.table.finish(filter, self.options.compression)
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Current file size (bytes written, excluding buffered block).
    pub fn file_size(&self) -> u64 {
        self.table.offset
    }

    /// Syncs the underlying file.
    pub fn sync(&mut self) -> Result<()> {
        self.table.sync()
    }
}

/// A table file being written: framed blocks, their index entries, then
/// the tail. [`TableBuilder`] frames its own blocks; the FCAE host combine
/// step appends the blocks the device framed.
pub struct TableWriter {
    file: Box<dyn WritableFile>,
    /// Bytes written so far: the offset of the next block.
    offset: u64,
    /// LevelDB's index blocks restart at every entry.
    index_block: BlockBuilder,
    /// One Snappy encoder for every block of the table: its match table
    /// is allocated once, not once a block.
    snappy: snap_codec::Encoder,
    scratch: Vec<u8>,
    /// The block being written, framed.
    framed: Vec<u8>,
    /// The index entry being added: a data block's encoded handle.
    handle: Vec<u8>,
}

impl TableWriter {
    /// Starts a table at the beginning of `file`.
    pub fn new(file: Box<dyn WritableFile>) -> Self {
        TableWriter {
            file,
            offset: 0,
            index_block: BlockBuilder::new(1),
            snappy: snap_codec::Encoder::new(),
            scratch: Vec::new(),
            framed: Vec::new(),
            handle: Vec::with_capacity(BlockHandle::MAX_ENCODED_LENGTH),
        }
    }

    /// Frames `contents` ([`frame_block_into`]) and appends it.
    fn write_block(
        &mut self,
        contents: &[u8],
        compression: CompressionType,
    ) -> Result<BlockHandle> {
        let mut framed = std::mem::take(&mut self.framed);
        framed.clear();
        frame_block_into(
            contents,
            compression,
            &mut self.snappy,
            &mut self.scratch,
            &mut framed,
        );
        let handle = self.append_framed(&framed);
        self.framed = framed;
        handle
    }

    /// Appends a block framed elsewhere (payload and trailer).
    pub fn append_framed(&mut self, framed: &[u8]) -> Result<BlockHandle> {
        let handle = BlockHandle::new(self.offset, (framed.len() - BLOCK_TRAILER_SIZE) as u64);
        self.file.append(framed)?;
        self.offset += framed.len() as u64;
        Ok(handle)
    }

    /// Adds a data block's index entry: `key` is at or past the block's
    /// last key and before the next block's first.
    pub fn add_index_entry(&mut self, key: &[u8], handle: &BlockHandle) {
        self.handle.clear();
        handle.encode_to(&mut self.handle);
        self.index_block.add(key, &self.handle);
    }

    /// Writes the tail after the data blocks and flushes the file: the
    /// filter block (never compressed) when there is one, the metaindex
    /// naming it `filter.<policy>`, the index block and the footer.
    /// Returns the file size.
    pub fn finish(
        &mut self,
        filter: Option<(BloomFilterPolicy, &[u8])>,
        compression: CompressionType,
    ) -> Result<u64> {
        let mut metaindex = BlockBuilder::new(1);
        if let Some((policy, contents)) = filter {
            let handle = self.write_block(contents, CompressionType::None)?;
            metaindex.add(policy.metaindex_key().as_bytes(), &handle.encode());
        }
        let metaindex_handle = self.write_block(metaindex.finish(), compression)?;
        let index = self.index_block.finish().to_vec();
        let index_handle = self.write_block(&index, compression)?;
        let footer = Footer {
            metaindex_handle,
            index_handle,
        };
        self.file.append(&footer.encode())?;
        self.offset += FOOTER_ENCODED_LENGTH as u64;
        self.file.flush()?;
        Ok(self.offset)
    }

    /// Syncs the file.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{MemEnv, StorageEnv};
    use crate::ikey::test_key as ikey;
    use std::path::Path;

    #[test]
    fn rejects_out_of_order_keys() {
        let env = MemEnv::new();
        let f = env.create_writable(Path::new("/t")).unwrap();
        let mut b = TableBuilder::new(TableBuilderOptions::default(), f);
        b.add(&ikey(b"bbb", 5), b"1").unwrap();
        assert!(b.add(&ikey(b"aaa", 5), b"2").is_err());
        assert!(
            b.add(&ikey(b"bbb", 5), b"2").is_err(),
            "duplicate key must be rejected"
        );
        assert!(b.add(&ikey(b"bbb", 6), b"2").is_err(), "newer sorts first");
        b.add(&ikey(b"ccc", 5), b"3").unwrap();
        // Too short to hold the trailer: refused, not ordered.
        assert!(matches!(
            b.add(b"abc", b"4"),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn rejects_use_after_finish() {
        let env = MemEnv::new();
        let f = env.create_writable(Path::new("/t")).unwrap();
        let mut b = TableBuilder::new(TableBuilderOptions::default(), f);
        b.add(&ikey(b"a", 1), b"1").unwrap();
        b.finish().unwrap();
        assert!(b.add(&ikey(b"b", 1), b"2").is_err());
        assert!(b.finish().is_err());
    }

    #[test]
    fn empty_table_is_valid() {
        let env = MemEnv::new();
        let f = env.create_writable(Path::new("/t")).unwrap();
        let mut b = TableBuilder::new(TableBuilderOptions::default(), f);
        let size = b.finish().unwrap();
        assert!(size > 0);
        assert_eq!(b.num_entries(), 0);
    }

    #[test]
    fn block_size_controls_block_count() {
        let env = MemEnv::new();
        let mk = |block_size: usize, path: &str| -> u64 {
            let f = env.create_writable(Path::new(path)).unwrap();
            let opts = TableBuilderOptions {
                block_size,
                compression: CompressionType::None,
                ..Default::default()
            };
            let mut b = TableBuilder::new(opts, f);
            for i in 0..1000 {
                let k = format!("key{i:06}");
                b.add(&ikey(k.as_bytes(), 1), &[0xab; 100]).unwrap();
            }
            b.finish().unwrap()
        };
        // Smaller blocks -> more index entries + trailers -> larger file.
        let small = mk(1024, "/small");
        let large = mk(16 * 1024, "/large");
        assert!(small > large, "small={small} large={large}");
    }
}
