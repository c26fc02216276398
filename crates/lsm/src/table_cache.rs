//! Who holds an open [`Table`], and who closes it.
//!
//! A file's reader is opened by its first probe and parked in the
//! [`TableSlot`] that travels with the file's
//! [`FileMetaData`](crate::version::FileMetaData); every later probe —
//! point read, iterator, compaction input — borrows it from there
//! ([`TableOpener::pinned`]) without a lock or a reference count. Versions
//! share the slot, so the reader lives exactly as long as some version
//! names the file. When the last one goes, the slot's owner drops: the
//! table's blocks leave the shared [`BlockCache`] under the one cache id
//! they were ever cached under, and a `CacheEviction` event is traced.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use sstable::cache::BlockCache;
use sstable::env::StorageEnv;
use sstable::table::{Table, TableReadOptions};

use crate::filename::table_file_name;
use crate::options::Options;
use crate::version::FileMetaData;
use crate::Result;

/// An open table and what closing it must clean up.
struct OpenTable {
    table: Arc<Table>,
    file_number: u64,
    block_cache: Option<Arc<BlockCache>>,
    trace: Arc<obs::TraceBuffer>,
}

impl Drop for OpenTable {
    fn drop(&mut self) {
        let freed = self
            .block_cache
            .as_ref()
            .map_or(0, |cache| cache.evict_table(self.table.cache_id()));
        self.trace.record(obs::EventKind::CacheEviction {
            file_number: self.file_number,
            bytes: freed as u64,
        });
    }
}

/// The open reader of one file, empty until something probes it. Clones
/// (a trivial move's, a version edit's) share the one cell, so a file has
/// one reader however many `FileMetaData` copies name it.
#[derive(Clone, Default)]
pub struct TableSlot(Arc<OnceLock<OpenTable>>);

impl std::fmt::Debug for TableSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "open"
        } else {
            "unopened"
        })
    }
}

/// Opens the tables under one store directory, all sharing one block
/// cache.
pub struct TableOpener {
    dir: PathBuf,
    env: Arc<dyn StorageEnv>,
    read_options: TableReadOptions,
    trace: Arc<obs::TraceBuffer>,
}

impl TableOpener {
    /// An opener for tables under `dir`; closed tables are recorded on
    /// `trace`.
    pub fn new(dir: PathBuf, options: Options, trace: Arc<obs::TraceBuffer>) -> Self {
        let block_cache = options
            .shared_block_cache
            .clone()
            .or_else(|| options.block_cache_bytes.map(BlockCache::new));
        let read_options = options.table_read_options_with(block_cache);
        TableOpener {
            dir,
            env: options.env,
            read_options,
            trace,
        }
    }

    /// The open table of the file `meta` describes, borrowed from its
    /// slot; the first probe opens the file. Racing first probes each
    /// open it, one fills the slot, and a loser's table — never read
    /// through, so it cached nothing — just closes.
    pub fn pinned<'a>(&self, meta: &'a FileMetaData) -> Result<&'a Arc<Table>> {
        if let Some(open) = meta.table.0.get() {
            return Ok(&open.table);
        }
        let path = table_file_name(&self.dir, meta.number);
        let file = self.env.open_random_access(&path)?;
        let table = Table::open(file, meta.file_size, self.read_options.clone())?;
        let open = meta.table.0.get_or_init(|| OpenTable {
            table,
            file_number: meta.number,
            block_cache: self.read_options.block_cache.clone(),
            trace: Arc::clone(&self.trace),
        });
        Ok(&open.table)
    }

    /// Shared block cache statistics: (hits, misses), zero if disabled.
    pub fn block_cache_stats(&self) -> (u64, u64) {
        self.read_options
            .block_cache
            .as_ref()
            .map_or((0, 0), |c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::env::{MemEnv, StorageEnv};
    use sstable::ikey::{InternalKey, LookupKey, ValueType};
    use sstable::table_builder::TableBuilder;
    use std::path::Path;

    /// Writes a one-key table and returns the metadata naming it.
    fn make_table(env: &Arc<MemEnv>, opts: &Options, number: u64) -> FileMetaData {
        let f = env
            .create_writable(&table_file_name(Path::new("/db"), number))
            .unwrap();
        let mut b = TableBuilder::new(opts.table_builder_options(), f);
        let k = InternalKey::new(b"key", 1, ValueType::Value);
        b.add(k.encoded(), b"value").unwrap();
        let size = b.finish().unwrap();
        FileMetaData::new(number, size, k.clone(), k)
    }

    /// Reads the one key in a test table, pulling its blocks into the
    /// shared block cache.
    fn probe(t: &Table) {
        t.get(LookupKey::new(b"key", 1).internal_key()).unwrap();
    }

    struct Fixture {
        env: Arc<MemEnv>,
        options: Options,
        cache: Arc<BlockCache>,
        trace: Arc<obs::TraceBuffer>,
        opener: TableOpener,
    }

    fn fixture() -> Fixture {
        let env = Arc::new(MemEnv::new());
        let cache = BlockCache::new(1 << 20);
        let options = Options {
            env: Arc::clone(&env) as Arc<dyn StorageEnv>,
            shared_block_cache: Some(Arc::clone(&cache)),
            ..Default::default()
        };
        let trace = Arc::new(obs::TraceBuffer::new(8, Arc::new(obs::ManualClock::new())));
        let opener = TableOpener::new("/db".into(), options.clone(), Arc::clone(&trace));
        Fixture {
            env,
            options,
            cache,
            trace,
            opener,
        }
    }

    #[test]
    fn missing_file_is_error() {
        let fx = fixture();
        let k = InternalKey::new(b"key", 1, ValueType::Value);
        let meta = FileMetaData::new(99, 1000, k.clone(), k);
        assert!(fx.opener.pinned(&meta).is_err());
        assert!(
            fx.opener.pinned(&meta).is_err(),
            "a failed open fills nothing"
        );
    }

    /// Racing first probes of one file — through two copies of its
    /// metadata, as a trivial move makes — converge on one reader:
    /// dropping the last copy empties the block cache (no blocks orphaned
    /// under a losing open's cache id) and traces one eviction.
    #[test]
    fn racing_opens_do_not_orphan_block_cache_entries() {
        let fx = fixture();
        let meta = make_table(&fx.env, &fx.options, 1);
        let moved = meta.clone();

        std::thread::scope(|s| {
            for i in 0..8 {
                let (opener, meta) = (&fx.opener, if i % 2 == 0 { &meta } else { &moved });
                s.spawn(move || probe(opener.pinned(meta).unwrap()));
            }
        });
        assert!(Arc::ptr_eq(
            fx.opener.pinned(&meta).unwrap(),
            fx.opener.pinned(&moved).unwrap()
        ));

        assert!(fx.cache.bytes() > 0);
        drop(meta);
        assert!(fx.cache.bytes() > 0, "a copy still names the file");
        drop(moved);
        assert_eq!(
            fx.cache.bytes(),
            0,
            "every racing open's blocks must be reachable for eviction"
        );
        assert_eq!(fx.trace.snapshot().len(), 1);
    }

    #[test]
    fn eviction_records_trace_event() {
        let fx = fixture();
        let meta = make_table(&fx.env, &fx.options, 1);
        probe(fx.opener.pinned(&meta).unwrap());
        drop(meta);
        let evs = fx.trace.snapshot();
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
