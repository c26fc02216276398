//! SSTable reader: footer/index parsing, filtered point lookups, and the
//! two-level iterator (index block → data block), i.e. exactly the
//! "stop scanning, fetch meta data of the next data block from the index
//! block, then come back" walk the paper describes in §II-B. Every block
//! read verifies its checksum.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::block::{Block, BlockIter};
use crate::bloom::BloomFilterPolicy;
use crate::cache::Lookup;
use crate::env::RandomAccessFile;
use crate::filter_block::FilterBlockReader;
use crate::format::{read_block_into, BlockHandle, Footer, FOOTER_ENCODED_LENGTH};
use crate::iterator::InternalIterator;
use crate::table_builder::filter_key;
use crate::{corruption, Error, Result};

/// Options controlling how a table is read.
#[derive(Clone)]
pub struct TableReadOptions {
    /// Shared block cache; `None` keeps only the per-table one-block
    /// cache.
    pub block_cache: Option<Arc<crate::cache::BlockCache>>,
    /// Filter policy for the filter metablock, if one was written.
    pub filter_policy: Option<BloomFilterPolicy>,
}

impl Default for TableReadOptions {
    fn default() -> Self {
        TableReadOptions {
            block_cache: None,
            filter_policy: Some(BloomFilterPolicy::new(10)),
        }
    }
}

/// What point lookups did on their way: a caller passes one of these
/// through every table a `get` probes and adds it to its own counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GetStats {
    /// Lookups that consulted a filter block.
    pub filter_checked: u32,
    /// Of those, lookups the filter answered: it excluded the block, so
    /// none was loaded.
    pub filter_useful: u32,
    /// Of those, lookups the filter let through although the block, once
    /// loaded, did not hold the key.
    pub filter_false_positive: u32,
    /// Shared block-cache lookups that found the block.
    pub block_cache_hits: u32,
    /// Shared block-cache lookups that did not, so the block was read.
    pub block_cache_misses: u32,
}

/// An open, immutable SSTable.
pub struct Table {
    file: Box<dyn RandomAccessFile>,
    options: TableReadOptions,
    index_block: Block,
    filter: Option<FilterBlockReader>,
    /// Tiny per-table cache of the most recently loaded data block, used
    /// only when no shared block cache is configured: avoids re-reading
    /// during point-lookup bursts.
    last_block: Mutex<Option<(u64, Block)>>,
    /// Key prefix in the shared block cache.
    cache_id: u64,
    file_size: u64,
}

impl Table {
    /// Opens a table from `file` of `file_size` bytes.
    pub fn open(
        file: Box<dyn RandomAccessFile>,
        file_size: u64,
        options: TableReadOptions,
    ) -> Result<Arc<Table>> {
        if (file_size as usize) < FOOTER_ENCODED_LENGTH {
            return Err(corruption("file too short to be an sstable"));
        }
        let mut footer_buf = vec![0u8; FOOTER_ENCODED_LENGTH];
        let read = file.read_at(file_size - FOOTER_ENCODED_LENGTH as u64, &mut footer_buf)?;
        if read != FOOTER_ENCODED_LENGTH {
            return Err(corruption("truncated footer"));
        }
        let footer = Footer::decode(&footer_buf)?;

        let read =
            |handle: &BlockHandle| read_block_into(file.as_ref(), file_size, handle, &mut None);
        let index_block = Block::new(read(&footer.index_handle)?)?;

        // Filter metablock, if present and a policy is configured. The
        // metaindex holds one entry per metablock; it is searched by
        // exact key, as its keys are names, not internal keys.
        let mut filter = None;
        if let Some(policy) = options.filter_policy {
            if footer.metaindex_handle.size > 0 {
                let meta_block = Block::new(read(&footer.metaindex_handle)?)?;
                let mut it = meta_block.iter();
                let key = policy.metaindex_key();
                it.seek_to_first();
                while it.valid() && it.key() != key.as_bytes() {
                    it.next();
                }
                if it.valid() {
                    let (handle, _) = BlockHandle::decode_from(it.value())?;
                    filter = FilterBlockReader::new(policy, read(&handle)?.to_vec());
                }
            }
        }

        Ok(Arc::new(Table {
            file,
            options,
            index_block,
            filter,
            last_block: Mutex::new(None),
            cache_id: crate::cache::new_cache_id(),
            file_size,
        }))
    }

    /// Total file size in bytes.
    pub fn file_size(&self) -> u64 {
        self.file_size
    }

    /// The (decoded) index block. The FPGA host interface copies this into
    /// the device's Index Block Memory (Fig. 7 of the paper).
    pub fn index_block(&self) -> &Block {
        &self.index_block
    }

    /// All data block handles in key order, as recorded in the index block.
    pub fn data_block_handles(&self) -> Result<Vec<BlockHandle>> {
        let mut out = Vec::new();
        let mut it = self.index_block.iter();
        it.seek_to_first();
        while it.valid() {
            let (handle, _) = BlockHandle::decode_from(it.value())?;
            out.push(handle);
            it.next();
        }
        if it.corrupted() {
            return Err(corruption("corrupt index block"));
        }
        Ok(out)
    }

    /// Reads the blocks from `first` through `last` exactly as stored on
    /// disk — contents (possibly compressed) plus 5-byte trailers, and
    /// whatever lies between them — into `buf`, replacing its contents,
    /// with one read. This is what the host DMA ships to the device's
    /// Data Block Memory. Both handles are checked against the file
    /// before `buf` grows.
    pub fn read_blocks(
        &self,
        first: &BlockHandle,
        last: &BlockHandle,
        buf: &mut Vec<u8>,
    ) -> Result<()> {
        first.framed_len_within(self.file_size)?;
        let end = last.offset + last.framed_len_within(self.file_size)? as u64;
        if end < first.offset {
            return Err(corruption("block range ends before it starts"));
        }
        let n = (end - first.offset) as usize;
        buf.clear();
        buf.resize(n, 0);
        if self.file.read_at(first.offset, buf)? != n {
            return Err(corruption("truncated raw block read"));
        }
        Ok(())
    }

    /// Loads the data block at `handle` through the shared block cache
    /// or, when none is configured, the per-table one-block cache: one
    /// lock and one block clone per load either way. Also returns whether
    /// the shared cache held the block (`None`: it was not consulted).
    /// Without `fill_cache` a miss is read and returned but not kept
    /// (LevelDB's `ReadOptions::fill_cache`); with it, a miss is read
    /// into the spare buffer its lookup took, when the shard had one.
    fn load_block(&self, handle: &BlockHandle, fill_cache: bool) -> Result<(Block, Option<bool>)> {
        let read = |spare: &mut _| -> Result<Block> {
            Block::new(read_block_into(
                self.file.as_ref(),
                self.file_size,
                handle,
                spare,
            )?)
        };
        if let Some(cache) = &self.options.block_cache {
            let mut spare = match cache.lookup(self.cache_id, handle.offset, fill_cache) {
                Lookup::Hit(block) => return Ok((block, Some(true))),
                Lookup::Miss(spare) => spare,
            };
            let block = read(&mut spare)?;
            if fill_cache {
                cache.insert(self.cache_id, handle.offset, block.clone(), spare);
            }
            return Ok((block, Some(false)));
        }
        if let Some((off, block)) = &*self.last_block.lock() {
            if *off == handle.offset {
                return Ok((block.clone(), None));
            }
        }
        let block = read(&mut None)?;
        if fill_cache {
            *self.last_block.lock() = Some((handle.offset, block.clone()));
        }
        Ok((block, None))
    }

    /// This table's id in the shared block cache (for eviction on delete).
    pub fn cache_id(&self) -> u64 {
        self.cache_id
    }

    /// Point lookup: returns the first entry with key >= `target` whose
    /// block may contain it, or `None` if the table cannot contain
    /// `target` (also consulting the bloom filter).
    ///
    /// The caller (the LSM layer) interprets the returned entry's internal
    /// key — this method does not require an exact match.
    pub fn get(&self, target: &[u8]) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let mut key = Vec::new();
        let value = self.get_counted(target, &mut key, &mut GetStats::default())?;
        Ok(value.map(|value| (key, value)))
    }

    /// [`get`](Self::get), adding what the lookup did to `stats`. The
    /// found entry's key is left in `key_buf` and its value returned;
    /// both block seeks decode into `key_buf`, so a caller probing
    /// several tables for one key lends them all the same buffer.
    pub fn get_counted(
        &self,
        target: &[u8],
        key_buf: &mut Vec<u8>,
        stats: &mut GetStats,
    ) -> Result<Option<Vec<u8>>> {
        let Some(handle_at) = self.index_block.seek(target, key_buf)? else {
            return Ok(None);
        };
        let (handle, _) = BlockHandle::decode_from(&self.index_block.contents()[handle_at])?;
        let probe = filter_key(target);
        if let Some(filter) = &self.filter {
            stats.filter_checked += 1;
            if !filter.key_may_match(handle.offset, probe) {
                stats.filter_useful += 1;
                return Ok(None);
            }
        }
        let (block, cached) = self.load_block(&handle, true)?;
        match cached {
            Some(true) => stats.block_cache_hits += 1,
            Some(false) => stats.block_cache_misses += 1,
            None => {}
        }
        let found = block
            .seek(target, key_buf)
            .map_err(|_| corruption("corrupt data block entry"))?
            .map(|value_at| block.contents()[value_at].to_vec());
        if self.filter.is_some() {
            let holds_key = found.is_some() && filter_key(key_buf) == probe;
            stats.filter_false_positive += u32::from(!holds_key);
        }
        Ok(found)
    }

    /// Creates a full-table iterator.
    pub fn iter(self: &Arc<Self>) -> TableIterator {
        self.iter_with(true)
    }

    /// A full-table iterator that keeps the blocks it reads in the block
    /// cache only with `fill_cache`. A compaction passes `false`: its
    /// inputs are deleted when it installs, so their blocks would only
    /// push live ones out.
    pub fn iter_with(self: &Arc<Self>, fill_cache: bool) -> TableIterator {
        TableIterator {
            table: Arc::clone(self),
            index_iter: self.index_block.iter(),
            data_iter: None,
            error: None,
            fill_cache,
        }
    }

    /// Approximate file offset of `key` within the table (used for
    /// `ApproximateSizes`-style queries and compaction splitting).
    pub fn approximate_offset_of(&self, key: &[u8]) -> u64 {
        let mut it = self.index_block.iter();
        it.seek(key);
        if it.valid() {
            if let Ok((handle, _)) = BlockHandle::decode_from(it.value()) {
                return handle.offset;
            }
        }
        self.file_size
    }
}

/// Two-level iterator: walks the index block, loading data blocks lazily.
pub struct TableIterator {
    table: Arc<Table>,
    index_iter: BlockIter,
    data_iter: Option<BlockIter>,
    error: Option<String>,
    fill_cache: bool,
}

impl TableIterator {
    /// Loads the data block for the current index position.
    fn init_data_block(&mut self) {
        self.data_iter = None;
        if !self.index_iter.valid() {
            return;
        }
        match BlockHandle::decode_from(self.index_iter.value()) {
            Ok((handle, _)) => match self.table.load_block(&handle, self.fill_cache) {
                Ok((block, _)) => {
                    self.data_iter = Some(block.iter());
                }
                Err(e) => self.error = Some(e.to_string()),
            },
            Err(e) => self.error = Some(e.to_string()),
        }
    }

    /// Advances past empty data blocks in the forward direction; stops
    /// at a corrupt one, which `status` reports.
    fn skip_empty_data_blocks_forward(&mut self) {
        while self
            .data_iter
            .as_ref()
            .is_some_and(|d| !d.valid() && !d.corrupted())
        {
            if !self.index_iter.valid() {
                self.data_iter = None;
                return;
            }
            self.index_iter.next();
            self.init_data_block();
            if let Some(d) = &mut self.data_iter {
                d.seek_to_first();
            }
        }
    }

    fn skip_empty_data_blocks_backward(&mut self) {
        while self
            .data_iter
            .as_ref()
            .is_some_and(|d| !d.valid() && !d.corrupted())
        {
            if !self.index_iter.valid() {
                self.data_iter = None;
                return;
            }
            self.index_iter.prev();
            self.init_data_block();
            if let Some(d) = &mut self.data_iter {
                d.seek_to_last();
            }
        }
    }
}

impl InternalIterator for TableIterator {
    fn valid(&self) -> bool {
        self.error.is_none() && self.data_iter.as_ref().is_some_and(|d| d.valid())
    }

    fn seek_to_first(&mut self) {
        self.index_iter.seek_to_first();
        self.init_data_block();
        if let Some(d) = &mut self.data_iter {
            d.seek_to_first();
        }
        self.skip_empty_data_blocks_forward();
    }

    fn seek_to_last(&mut self) {
        self.index_iter.seek_to_last();
        self.init_data_block();
        if let Some(d) = &mut self.data_iter {
            d.seek_to_last();
        }
        self.skip_empty_data_blocks_backward();
    }

    fn seek(&mut self, target: &[u8]) {
        self.index_iter.seek(target);
        self.init_data_block();
        if let Some(d) = &mut self.data_iter {
            d.seek(target);
        }
        self.skip_empty_data_blocks_forward();
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        if let Some(d) = &mut self.data_iter {
            d.next();
        }
        self.skip_empty_data_blocks_forward();
    }

    fn prev(&mut self) {
        debug_assert!(self.valid());
        if let Some(d) = &mut self.data_iter {
            d.prev();
        }
        self.skip_empty_data_blocks_backward();
    }

    fn key(&self) -> &[u8] {
        self.data_iter
            .as_ref()
            // PANIC-OK: InternalIterator contract — key() only when valid().
            .expect("key on invalid iterator")
            .key()
    }

    fn value(&self) -> &[u8] {
        self.data_iter
            .as_ref()
            // PANIC-OK: InternalIterator contract — value() only when valid().
            .expect("value on invalid iterator")
            .value()
    }

    fn status(&self) -> Result<()> {
        let corrupt_entry = self.index_iter.corrupted()
            || self.data_iter.as_ref().is_some_and(BlockIter::corrupted);
        match &self.error {
            Some(e) => Err(Error::Corruption(e.clone())),
            None if corrupt_entry => Err(corruption("corrupt block entry")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{MemEnv, StorageEnv};
    use crate::format::CompressionType;
    use crate::ikey::{test_key as ikey, MAX_SEQUENCE_NUMBER as MAX};
    use crate::table_builder::{TableBuilder, TableBuilderOptions};
    use std::path::Path;

    fn build_table(
        env: &MemEnv,
        path: &str,
        n: usize,
        block_size: usize,
        compression: CompressionType,
    ) -> Arc<Table> {
        let f = env.create_writable(Path::new(path)).unwrap();
        let opts = TableBuilderOptions {
            block_size,
            compression,
            ..Default::default()
        };
        let mut b = TableBuilder::new(opts, f);
        for i in 0..n {
            let k = format!("key{i:06}");
            let v = format!("value-{i}-{}", "x".repeat(i % 40));
            b.add(&ikey(k.as_bytes(), 1), v.as_bytes()).unwrap();
        }
        let size = b.finish().unwrap();
        let file = env.open_random_access(Path::new(path)).unwrap();
        Table::open(file, size, TableReadOptions::default()).unwrap()
    }

    #[test]
    fn full_scan_returns_everything_in_order() {
        for compression in [CompressionType::None, CompressionType::Snappy] {
            let env = MemEnv::new();
            let table = build_table(&env, "/t", 2000, 1024, compression);
            let mut it = table.iter();
            it.seek_to_first();
            let mut count = 0;
            let mut last: Option<Vec<u8>> = None;
            while it.valid() {
                let k = it.key().to_vec();
                if let Some(prev) = &last {
                    assert!(prev < &k, "keys out of order");
                }
                assert_eq!(k, ikey(format!("key{count:06}").as_bytes(), 1));
                last = Some(k);
                count += 1;
                it.next();
            }
            assert_eq!(count, 2000);
            it.status().unwrap();
        }
    }

    /// A scan with `fill_cache` off reads every block and leaves the
    /// shared cache as it found it; the default scan fills it.
    #[test]
    fn a_scan_without_fill_cache_keeps_nothing() {
        let env = MemEnv::new();
        let size = build_table(&env, "/t", 2000, 1024, CompressionType::Snappy).file_size();
        let cache = crate::cache::BlockCache::new(8 << 20);
        let options = TableReadOptions {
            block_cache: Some(Arc::clone(&cache)),
            ..TableReadOptions::default()
        };
        let file = env.open_random_access(Path::new("/t")).unwrap();
        let table = Table::open(file, size, options).unwrap();
        let scan = |fill_cache| {
            let mut it = table.iter_with(fill_cache);
            it.seek_to_first();
            let mut count = 0;
            while it.valid() {
                count += 1;
                it.next();
            }
            it.status().unwrap();
            count
        };
        assert_eq!(scan(false), 2000);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(scan(true), 2000);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn point_lookups_hit_and_miss() {
        let env = MemEnv::new();
        let table = build_table(&env, "/t", 500, 512, CompressionType::Snappy);
        // Hits.
        for i in [0usize, 1, 77, 250, 499] {
            let k = format!("key{i:06}");
            let got = table.get(&ikey(k.as_bytes(), MAX)).unwrap();
            let (fk, _) = got.expect("should find key");
            assert_eq!(fk, ikey(k.as_bytes(), 1));
        }
        // Miss past the end.
        assert!(table.get(&ikey(b"zzzzzz", MAX)).unwrap().is_none());
        // Between-keys probe: the bloom filter excludes it outright.
        assert!(table.get(&ikey(b"key000250a", MAX)).unwrap().is_none());

        // Without a filter, between-keys probes return the successor and
        // callers check exactness (the LSM layer relies on this).
        let f = env.create_writable(Path::new("/nofilter")).unwrap();
        let bopts = TableBuilderOptions {
            filter_policy: None,
            ..Default::default()
        };
        let mut b = TableBuilder::new(bopts, f);
        for i in 0..100 {
            b.add(&ikey(format!("key{i:06}").as_bytes(), 1), b"v")
                .unwrap();
        }
        let size = b.finish().unwrap();
        let file = env.open_random_access(Path::new("/nofilter")).unwrap();
        let ropts = TableReadOptions {
            filter_policy: None,
            ..Default::default()
        };
        let table = Table::open(file, size, ropts).unwrap();
        let got = table.get(&ikey(b"key000050a", MAX)).unwrap().unwrap();
        assert_eq!(got.0, ikey(b"key000051", 1));
    }

    #[test]
    fn seek_positions_are_exact() {
        let env = MemEnv::new();
        let table = build_table(&env, "/t", 300, 256, CompressionType::None);
        let mut it = table.iter();
        it.seek(&ikey(b"key000123", MAX));
        assert!(it.valid());
        assert_eq!(it.key(), ikey(b"key000123", 1));
        // A version older than the stored one lies past it.
        it.seek(&ikey(b"key000123", 0));
        assert_eq!(it.key(), ikey(b"key000124", 1));
        it.seek(&ikey(b"key000123a", MAX));
        assert_eq!(it.key(), ikey(b"key000124", 1));
        it.seek(&ikey(b"zzz", MAX));
        assert!(!it.valid());
        it.seek(&ikey(b"", MAX));
        assert_eq!(it.key(), ikey(b"key000000", 1));
    }

    #[test]
    fn backward_iteration() {
        let env = MemEnv::new();
        let table = build_table(&env, "/t", 100, 256, CompressionType::None);
        let mut it = table.iter();
        it.seek_to_last();
        let mut idx = 100;
        while it.valid() {
            idx -= 1;
            assert_eq!(it.key(), ikey(format!("key{idx:06}").as_bytes(), 1));
            it.prev();
        }
        assert_eq!(idx, 0);
    }

    #[test]
    fn empty_table_iterates_nothing() {
        let env = MemEnv::new();
        let f = env.create_writable(Path::new("/t")).unwrap();
        let mut b = TableBuilder::new(TableBuilderOptions::default(), f);
        let size = b.finish().unwrap();
        let file = env.open_random_access(Path::new("/t")).unwrap();
        let table = Table::open(file, size, TableReadOptions::default()).unwrap();
        let mut it = table.iter();
        it.seek_to_first();
        assert!(!it.valid());
        assert!(table.get(&ikey(b"anything", MAX)).unwrap().is_none());
    }

    #[test]
    fn open_rejects_garbage() {
        let env = MemEnv::new();
        let mut w = env.create_writable(Path::new("/bad")).unwrap();
        w.append(&[0u8; 100]).unwrap();
        drop(w);
        let f = env.open_random_access(Path::new("/bad")).unwrap();
        assert!(Table::open(f, 100, TableReadOptions::default()).is_err());
        let f = env.open_random_access(Path::new("/bad")).unwrap();
        assert!(Table::open(f, 10, TableReadOptions::default()).is_err());
    }

    #[test]
    fn approximate_offsets_monotonic() {
        let env = MemEnv::new();
        let table = build_table(&env, "/t", 1000, 512, CompressionType::None);
        let o1 = table.approximate_offset_of(&ikey(b"key000100", MAX));
        let o2 = table.approximate_offset_of(&ikey(b"key000500", MAX));
        let o3 = table.approximate_offset_of(&ikey(b"key000900", MAX));
        assert!(o1 <= o2 && o2 <= o3);
        assert!(table.approximate_offset_of(&ikey(b"zzzz", MAX)) <= table.file_size());
    }
}
