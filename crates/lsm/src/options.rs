//! Store configuration. Defaults follow the paper's Table IV (key 16 B,
//! value 128 B workloads; leveling ratio 10; 4 KiB data blocks) and
//! LevelDB v1.x's built-in constants.

use std::sync::Arc;

use sstable::bloom::BloomFilterPolicy;
use sstable::cache::BlockCache;
use sstable::env::{StdEnv, StorageEnv};
use sstable::format::CompressionType;

/// Number of levels, as in LevelDB.
pub const NUM_LEVELS: usize = 7;
/// Size ratio between adjacent levels (paper Table IV default 10).
pub const LEVELING_RATIO: u64 = 10;

/// L0 file count that triggers a compaction.
pub const L0_COMPACTION_TRIGGER: usize = 4;
/// L0 file count at which writes are slowed (1 ms sleep per write).
pub const L0_SLOWDOWN_WRITES_TRIGGER: usize = 8;
/// L0 file count at which writes stop until compaction catches up.
pub const L0_STOP_WRITES_TRIGGER: usize = 12;

/// Tuning knobs for a [`crate::Db`].
#[derive(Clone)]
pub struct Options {
    /// Memtable capacity before it is rotated to immutable (LevelDB
    /// `write_buffer_size`, default 4 MiB).
    pub write_buffer_size: usize,
    /// Target uncompressed data block size (paper Table IV default 4 KiB).
    pub block_size: usize,
    /// Target SSTable file size (paper §V-A example: 2 MiB).
    pub max_file_size: u64,
    /// Base size for level 1 (LevelDB: 10 MiB).
    pub level1_max_bytes: u64,
    /// Block compression.
    pub compression: CompressionType,
    /// Bloom filter bits per key; `None` disables filters.
    pub filter_bits_per_key: Option<usize>,
    /// Shared data-block cache capacity (LevelDB default 8 MiB);
    /// `None` disables the shared cache.
    pub block_cache_bytes: Option<usize>,
    /// Sync the WAL on every write (off by default, like db_bench).
    pub sync_writes: bool,
    /// Cap on bytes combined into one group commit (LevelDB groups up to
    /// ~1 MiB per WAL write). Serving layers with many concurrent small
    /// writers can raise this so more acks ride one sync; set it to 1 to
    /// effectively disable grouping.
    pub max_group_commit_bytes: usize,
    /// Pre-built data-block cache shared across *stores*. A sharded
    /// serving layer passes the same `Arc` to every shard's `Options` so
    /// N shards share one cache budget instead of N private caches. When
    /// set, it takes precedence over [`Options::block_cache_bytes`].
    pub shared_block_cache: Option<Arc<BlockCache>>,
    /// Storage backend.
    pub env: Arc<dyn StorageEnv>,
    /// Emulate LevelDB's 1 ms write-slowdown sleep when L0 is congested.
    /// Tests disable this to run fast; the real sleep matters only for
    /// wall-clock experiments.
    pub slowdown_sleep: bool,
    /// Background worker threads servicing flushes and compactions.
    /// LevelDB uses 1; raise it (typically to the offload service's
    /// engine-slot count) so disjoint-range compactions at different
    /// levels run concurrently. Values are clamped to at least 1.
    pub background_threads: usize,
    /// Observability bundle (metric registry + event trace + clock). The
    /// DB creates a private wall-clock bundle when `None`; simulators
    /// pass a shared bundle driven by a manual clock so exports are
    /// byte-identical across runs.
    pub obs: Option<Arc<obs::Obs>>,
    /// Key-value separation threshold: values whose length is `>=` this
    /// go to the append-only value log and the tree stores a fixed-size
    /// pointer (WiscKey-style), shrinking compaction volume in the
    /// large-value regime. `None` (the default) disables separation and
    /// keeps the legacy raw stored-value encoding; a database must
    /// always be opened with the same setting's *mode* (separated vs.
    /// not) it was written with.
    pub value_log_threshold_bytes: Option<usize>,
    /// Rotation size for value-log segments. Sealed segments become
    /// garbage-collection candidates.
    pub value_log_segment_bytes: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            write_buffer_size: 4 << 20,
            block_size: 4096,
            max_file_size: 2 << 20,
            level1_max_bytes: 10 << 20,
            compression: CompressionType::Snappy,
            filter_bits_per_key: Some(10),
            block_cache_bytes: Some(8 << 20),
            sync_writes: false,
            max_group_commit_bytes: 1 << 20,
            shared_block_cache: None,
            env: Arc::new(StdEnv),
            slowdown_sleep: true,
            background_threads: 1,
            obs: None,
            value_log_threshold_bytes: None,
            value_log_segment_bytes: 8 << 20,
        }
    }
}

impl Options {
    /// Byte budget for `level` (levels >= 1); level 0 is file-count
    /// triggered.
    pub fn max_bytes_for_level(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        let mut bytes = self.level1_max_bytes;
        for _ in 1..level {
            bytes = bytes.saturating_mul(LEVELING_RATIO);
        }
        bytes
    }

    /// The filter policy derived from `filter_bits_per_key`.
    pub fn filter_policy(&self) -> Option<BloomFilterPolicy> {
        self.filter_bits_per_key.map(BloomFilterPolicy::new)
    }

    /// Table build options for flushes and compactions.
    pub fn table_builder_options(&self) -> sstable::table_builder::TableBuilderOptions {
        sstable::table_builder::TableBuilderOptions {
            block_size: self.block_size,
            compression: self.compression,
            filter_policy: self.filter_policy(),
        }
    }

    /// Table read options matching [`Self::table_builder_options`].
    /// `block_cache` is the store-wide shared cache (created once by the
    /// DB from [`Options::block_cache_bytes`]).
    pub fn table_read_options_with(
        &self,
        block_cache: Option<Arc<BlockCache>>,
    ) -> sstable::table::TableReadOptions {
        sstable::table::TableReadOptions {
            block_cache,
            filter_policy: self.filter_policy(),
        }
    }

    /// Table read options without a shared cache.
    pub fn table_read_options(&self) -> sstable::table::TableReadOptions {
        self.table_read_options_with(None)
    }
}

/// Per-read options.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadOptions {
    /// Read at this snapshot (sequence number); `None` reads the latest.
    pub snapshot: Option<u64>,
}

/// Per-write options.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteOptions {
    /// Force a WAL sync for this write.
    pub sync: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_budgets_scale_by_ratio() {
        let o = Options::default();
        assert_eq!(o.max_bytes_for_level(1), 10 << 20);
        assert_eq!(o.max_bytes_for_level(2), 100 << 20);
        assert_eq!(o.max_bytes_for_level(3), 1000 << 20);
        let o = Options {
            level1_max_bytes: 1 << 20,
            ..Default::default()
        };
        assert_eq!(o.max_bytes_for_level(4), 1000 << 20);
    }

    #[test]
    fn builder_and_reader_options_agree() {
        let o = Options::default();
        let b = o.table_builder_options();
        let r = o.table_read_options();
        assert_eq!(b.filter_policy.is_some(), r.filter_policy.is_some());
    }
}
