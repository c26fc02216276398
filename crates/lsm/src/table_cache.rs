//! Cache of open [`Table`] readers keyed by file number, with LRU
//! eviction (LevelDB `TableCache`).
//!
//! The table cache also owns the mapping from file numbers to block
//! cache ids. A table's blocks live in the shared [`BlockCache`] under
//! the `cache_id` allocated when the table was opened — and they must be
//! purged when the *file* is deleted, which can happen long after the
//! open handle was LRU-dropped from this cache. `cache_ids` therefore
//! outlives the handle map.
//!
//!
//! The store's own reads do not come through the map: a file's first
//! probe opens it here and parks the handle in the slot that travels
//! with its [`FileMetaData`] ([`TableCache::pinned`]), and every later
//! probe borrows it from there. The map is what makes racing first
//! probes converge on one handle, and what callers without a version in
//! hand (tools) still use as an LRU.
//!
//! [`BlockCache`]: sstable::cache::BlockCache

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;
use sstable::table::{Table, TableReadOptions};

use crate::filename::table_file_name;
use crate::options::Options;
use crate::version::FileMetaData;
use crate::Result;

struct Entry {
    table: Arc<Table>,
    /// LRU tick of the last access.
    last_used: u64,
}

/// Keeps up to `capacity` tables open.
pub struct TableCache {
    dir: PathBuf,
    options: Options,
    read_options: TableReadOptions,
    inner: Mutex<Inner>,
    capacity: usize,
    trace: Option<Arc<obs::TraceBuffer>>,
}

struct Inner {
    map: HashMap<u64, Entry>,
    /// `file_number → cache_id` for every table ever opened and not yet
    /// deleted. Survives LRU eviction of the handle so `evict` can still
    /// purge the file's blocks from the shared block cache.
    cache_ids: HashMap<u64, u64>,
    tick: u64,
}

impl TableCache {
    /// Creates a cache for tables under `dir`, sharing `block_cache`
    /// across all of them.
    pub fn new(dir: PathBuf, options: Options, capacity: usize) -> Self {
        let block_cache = options.shared_block_cache.clone().or_else(|| {
            options
                .block_cache_bytes
                .map(sstable::cache::BlockCache::new)
        });
        let read_options = options.table_read_options_with(block_cache);
        TableCache {
            dir,
            options,
            read_options,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                cache_ids: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            trace: None,
        }
    }

    /// Attaches a trace buffer; cache evictions are recorded on it.
    pub fn with_trace(mut self, trace: Arc<obs::TraceBuffer>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Returns the open table for `file_number`, opening it on miss.
    pub fn get(&self, file_number: u64, file_size: u64) -> Result<Arc<Table>> {
        {
            let mut inner = self.inner.lock(); // LOCK-ORDER: cache.tables 70
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&file_number) {
                e.last_used = tick;
                return Ok(Arc::clone(&e.table));
            }
        }
        // Open outside the lock; racing opens of the same file are benign.
        let path = table_file_name(&self.dir, file_number);
        let file = self.options.env.open_random_access(&path)?;
        let table = Table::open(file, file_size, self.read_options.clone())?;
        let mut inner = self.inner.lock(); // LOCK-ORDER: cache.tables 70
        inner.tick += 1;
        let tick = inner.tick;
        // Re-check under the reacquired lock: a racing open may have
        // inserted this file while we were opening it. Reuse that entry
        // instead of overwriting it — the overwrite orphaned the winner's
        // blocks under its cache id. Our duplicate handle's blocks are
        // purged instead.
        if let Some(e) = inner.map.get_mut(&file_number) {
            e.last_used = tick;
            let existing = Arc::clone(&e.table);
            drop(inner);
            if let Some(cache) = &self.read_options.block_cache {
                cache.evict_table(table.cache_id());
            }
            return Ok(existing);
        }
        // A previously opened incarnation of this file may have been
        // LRU-dropped from the handle map; once a fresh cache id takes
        // over, blocks under the old id are unreachable — purge them.
        let stale_id = inner.cache_ids.insert(file_number, table.cache_id());
        if inner.map.len() >= self.capacity {
            // Evict the least recently used entry. Its `cache_ids`
            // mapping is kept: the file still exists, and its blocks
            // must stay evictable when it is eventually deleted.
            if let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(
            file_number,
            Entry {
                table: Arc::clone(&table),
                last_used: tick,
            },
        );
        drop(inner);
        if let Some(stale_id) = stale_id {
            if let Some(cache) = &self.read_options.block_cache {
                cache.evict_table(stale_id);
            }
        }
        Ok(table)
    }

    /// The open table of the file `meta` describes, borrowed from the
    /// slot that travels with `meta`. Only the first probe of a file
    /// reaches [`TableCache::get`]; the store's reads, iterators and
    /// compactions all come through here, which leaves the LRU map to
    /// callers that hold no version (repair, tools).
    pub fn pinned<'a>(&self, meta: &'a FileMetaData) -> Result<&'a Arc<Table>> {
        match meta.table.get() {
            Some(table) => Ok(table),
            None => Ok(meta.table.fill(self.get(meta.number, meta.file_size)?)),
        }
    }

    /// Drops the cached handle for a deleted file, along with its blocks
    /// in the shared block cache — even when the handle itself was
    /// already LRU-evicted.
    // LOCK-HELD: db.state -- GC calls this from delete_obsolete_files_locked.
    pub fn evict(&self, file_number: u64) {
        let cache_id = {
            let mut inner = self.inner.lock(); // LOCK-ORDER: cache.tables 70
            let from_map = inner.map.remove(&file_number).map(|e| e.table.cache_id());
            inner.cache_ids.remove(&file_number).or(from_map)
        };
        let mut freed = 0usize;
        if let (Some(id), Some(cache)) = (cache_id, &self.read_options.block_cache) {
            freed = cache.evict_table(id);
        }
        if let Some(trace) = &self.trace {
            trace.record(obs::EventKind::CacheEviction {
                file_number,
                bytes: freed as u64,
            });
        }
    }

    /// Shared block cache statistics: (hits, misses), zero if disabled.
    pub fn block_cache_stats(&self) -> (u64, u64) {
        self.read_options
            .block_cache
            .as_ref()
            .map_or((0, 0), |c| c.stats())
    }

    /// Bytes currently held by the shared block cache, zero if disabled.
    pub fn block_cache_bytes(&self) -> usize {
        self.read_options
            .block_cache
            .as_ref()
            .map_or(0, |c| c.bytes())
    }

    /// Number of currently open tables.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len() // LOCK-ORDER: cache.tables 70
    }

    /// True if no tables are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::env::{MemEnv, StorageEnv};
    use sstable::table_builder::TableBuilder;
    use std::path::Path;

    fn make_table(env: &Arc<MemEnv>, dir: &Path, number: u64) -> u64 {
        let opts = Options {
            env: Arc::clone(env) as Arc<dyn StorageEnv>,
            ..Default::default()
        };
        let path = table_file_name(dir, number);
        let f = env.create_writable(&path).unwrap();
        let mut b = TableBuilder::new(opts.table_builder_options(), f);
        // One internal key so internal comparator tables stay well formed.
        let k = sstable::ikey::InternalKey::new(b"key", 1, sstable::ikey::ValueType::Value);
        b.add(k.encoded(), b"value").unwrap();
        b.finish().unwrap()
    }

    /// Reads the one key in a test table (internal-key encoded), pulling
    /// its blocks into the shared block cache.
    fn probe(t: &Table) {
        let lk = sstable::ikey::LookupKey::new(b"key", 1);
        t.get(lk.internal_key()).unwrap();
    }

    fn test_options(env: &Arc<MemEnv>) -> Options {
        Options {
            env: Arc::clone(env) as Arc<dyn StorageEnv>,
            ..Default::default()
        }
    }

    #[test]
    fn caches_and_evicts() {
        let env = Arc::new(MemEnv::new());
        let dir = PathBuf::from("/db");
        let cache = TableCache::new(dir.clone(), test_options(&env), 2);
        let sizes: Vec<u64> = (1..=3).map(|n| make_table(&env, &dir, n)).collect();

        let t1 = cache.get(1, sizes[0]).unwrap();
        let t1b = cache.get(1, sizes[0]).unwrap();
        assert!(Arc::ptr_eq(&t1, &t1b), "second get must hit the cache");
        cache.get(2, sizes[1]).unwrap();
        assert_eq!(cache.len(), 2);
        cache.get(3, sizes[2]).unwrap(); // evicts LRU (table 1... or 2)
        assert_eq!(cache.len(), 2);

        cache.evict(3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn missing_file_is_error() {
        let env = Arc::new(MemEnv::new());
        let cache = TableCache::new(PathBuf::from("/db"), test_options(&env), 4);
        assert!(cache.get(99, 1000).is_err());
    }

    /// Regression: deleting a file whose handle was already LRU-dropped
    /// must still purge its blocks from the shared block cache. Before
    /// the `cache_ids` map, `evict` only worked on resident handles and
    /// the dead file's blocks leaked forever.
    #[test]
    fn evict_after_lru_drop_releases_block_cache_bytes() {
        let env = Arc::new(MemEnv::new());
        let dir = PathBuf::from("/db");
        // Capacity 1 so the second open LRU-drops the first handle.
        let cache = TableCache::new(dir.clone(), test_options(&env), 1);
        let sizes: Vec<u64> = (1..=2).map(|n| make_table(&env, &dir, n)).collect();

        let t1 = cache.get(1, sizes[0]).unwrap();
        probe(&t1); // populate block cache under t1's id
        drop(t1);
        let bytes_t1 = cache.block_cache_bytes();
        assert!(bytes_t1 > 0, "read must have cached blocks");

        let t2 = cache.get(2, sizes[1]).unwrap(); // LRU-drops handle 1
        probe(&t2);
        drop(t2);
        assert_eq!(cache.len(), 1);
        assert!(cache.block_cache_bytes() > bytes_t1);

        // "Delete" both files; all their blocks must come back.
        let total = cache.block_cache_bytes();
        cache.evict(1);
        assert_eq!(
            cache.block_cache_bytes(),
            total - bytes_t1,
            "file 1's blocks must be purged even though its handle was LRU-dropped"
        );
        cache.evict(2);
        assert_eq!(
            cache.block_cache_bytes(),
            0,
            "block cache must return to baseline after both files are deleted"
        );
    }

    /// Racing opens of the same file must converge on one cache entry:
    /// after the stampede, evicting the file must empty the block cache
    /// (no blocks orphaned under overwritten handles' cache ids).
    #[test]
    fn racing_opens_do_not_orphan_block_cache_entries() {
        let env = Arc::new(MemEnv::new());
        let dir = PathBuf::from("/db");
        let cache = Arc::new(TableCache::new(dir.clone(), test_options(&env), 4));
        let size = make_table(&env, &dir, 1);

        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let t = cache.get(1, size).unwrap();
                    probe(&t);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        assert!(cache.block_cache_bytes() > 0);
        cache.evict(1);
        assert_eq!(
            cache.block_cache_bytes(),
            0,
            "every racing open's blocks must be reachable for eviction"
        );
    }

    #[test]
    fn eviction_records_trace_event() {
        let env = Arc::new(MemEnv::new());
        let dir = PathBuf::from("/db");
        let trace = Arc::new(obs::TraceBuffer::new(8, Arc::new(obs::ManualClock::new())));
        let cache =
            TableCache::new(dir.clone(), test_options(&env), 2).with_trace(Arc::clone(&trace));
        let size = make_table(&env, &dir, 1);
        let t = cache.get(1, size).unwrap();
        probe(&t);
        drop(t);
        cache.evict(1);
        let evs = trace.snapshot();
        assert_eq!(evs.len(), 1);
        match &evs[0].kind {
            obs::EventKind::CacheEviction { file_number, bytes } => {
                assert_eq!(*file_number, 1);
                assert!(*bytes > 0);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
