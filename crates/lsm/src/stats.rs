//! What the store reports about itself: the metric handles every event is
//! counted on, [`DbStats`] as a view of them, and the LevelDB-style named
//! properties.

use std::sync::Arc;
use std::time::Duration;

use sstable::table::GetStats;

use crate::db::Db;
use crate::options::NUM_LEVELS;

/// Per-level compaction activity (LevelDB's `leveldb.stats` rows).
#[derive(Debug, Default, Clone, Copy)]
pub struct LevelCompactionStats {
    /// Compactions whose inputs started at this level.
    pub compactions: u64,
    /// Bytes read by those compactions (inputs at this level and the
    /// overlapping files at `level + 1`).
    pub bytes_read: u64,
    /// Bytes written into `level + 1`.
    pub bytes_written: u64,
    /// Input files merged away.
    pub files_merged: u64,
}

/// Aggregate statistics exposed for the experiments (the paper's Fig. 10 /
/// 14 / Table VIII quantities).
///
/// A *view*: nothing stores this struct. [`Db::stats`] assembles it from
/// the metric registry of the store's [`obs::Obs`] bundle, where each event
/// is counted once (METRICS.md names the counter behind every field), and
/// the aggregates are computed from their parts on read:
/// `compaction_bytes_read/written == Σ per_level`, `flushes ==
/// lsm.flush.count`, `group_commits == lsm.write.leader`, `grouped_writes
/// == leader + follower`, `stall_time == lsm.stall_micros`. Durations are
/// nanosecond counters underneath, so they round-trip exactly. The two
/// `block_cache_*` fields are the shared cache's own totals (every reader:
/// scans and compactions too), unlike the point-reads-only
/// `lsm.block_cache.*` counters.
#[derive(Debug, Default, Clone)]
pub struct DbStats {
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions executed by the configured engine.
    pub engine_compactions: u64,
    /// Compactions that fell back to software (too many inputs).
    pub sw_fallback_compactions: u64,
    /// Trivial moves (file relinked down a level).
    pub trivial_moves: u64,
    /// Bytes read by compactions.
    pub compaction_bytes_read: u64,
    /// Bytes written by compactions.
    pub compaction_bytes_written: u64,
    /// Wall time spent inside compaction engines.
    pub compaction_time: Duration,
    /// Modeled device kernel time (offload engines only).
    pub modeled_kernel_time: Duration,
    /// Modeled PCIe transfer time (offload engines only).
    pub modeled_transfer_time: Duration,
    /// Time writers spent stalled or slowed.
    pub stall_time: Duration,
    /// Flushes that ran concurrently with an offloaded compaction.
    pub concurrent_flushes: u64,
    /// Write groups committed (group commit batches >= writes).
    pub group_commits: u64,
    /// Individual writes that were committed as part of a group.
    pub grouped_writes: u64,
    /// Shared block cache hits.
    pub block_cache_hits: u64,
    /// Shared block cache misses.
    pub block_cache_misses: u64,
    /// Peak number of (non-trivial) compactions in flight at once.
    pub max_concurrent_compactions: u64,
    /// Writes delayed because the engine reported `WritePressure::Slowdown`.
    pub backpressure_slowdowns: u64,
    /// Writes stalled because the engine reported `WritePressure::Stop`.
    pub backpressure_stalls: u64,
    /// Per-level compaction traffic, indexed by the input level.
    pub per_level: [LevelCompactionStats; NUM_LEVELS],
}

/// Pre-registered hot-path metric handles (the registry mutex is
/// touched once at open, not per operation).
pub(crate) struct DbMetrics {
    pub(crate) get_micros: Arc<obs::Histogram>,
    pub(crate) scan_micros: Arc<obs::Histogram>,
    pub(crate) put_micros: Arc<obs::Histogram>,
    pub(crate) group_size: Arc<obs::Histogram>,
    /// Time from a writer enqueueing to its group being committed —
    /// stamped, logged, applied and visible.
    pub(crate) seq_reserve: Arc<obs::Histogram>,
    /// Group commits led / writes that rode another thread's commit.
    pub(crate) write_leader: Arc<obs::Counter>,
    pub(crate) write_follower: Arc<obs::Counter>,
    /// Bytes resident in the active memtable after the last commit.
    pub(crate) mem_occupancy: Arc<obs::Gauge>,
    pub(crate) stall_micros: Arc<obs::Counter>,
    pub(crate) flush_count: Arc<obs::Counter>,
    pub(crate) flush_bytes: Arc<obs::Counter>,
    pub(crate) bg_error_set: Arc<obs::Counter>,
    pub(crate) readonly_rejects: Arc<obs::Counter>,
    pub(crate) compact_retries: Arc<obs::Counter>,
    pub(crate) compact_retry_backoff: Arc<obs::Counter>,
    /// Tables a point read probed after missing the memtables.
    pub(crate) get_table_probes: Arc<obs::Counter>,
    /// Of those probes: consulted a filter / the filter excluded the
    /// block / it let through a block that did not hold the key.
    pub(crate) bloom_checked: Arc<obs::Counter>,
    pub(crate) bloom_useful: Arc<obs::Counter>,
    pub(crate) bloom_false_positive: Arc<obs::Counter>,
    /// Block-cache lookups of point reads (scans and compactions use the
    /// cache too; `DbStats` has the cache's own totals).
    pub(crate) block_cache_hits: Arc<obs::Counter>,
    pub(crate) block_cache_misses: Arc<obs::Counter>,
    /// Compactions the configured engine ran / that exceeded its input
    /// count and ran in software / that only relinked a file.
    pub(crate) engine_compactions: Arc<obs::Counter>,
    pub(crate) sw_fallback_compactions: Arc<obs::Counter>,
    pub(crate) trivial_moves: Arc<obs::Counter>,
    /// Wall time inside engines, and the device model's kernel and PCIe
    /// time, in nanoseconds.
    pub(crate) compaction_nanos: Arc<obs::Counter>,
    pub(crate) kernel_nanos: Arc<obs::Counter>,
    pub(crate) transfer_nanos: Arc<obs::Counter>,
    pub(crate) max_concurrent_compactions: Arc<obs::Gauge>,
    pub(crate) concurrent_flushes: Arc<obs::Counter>,
    pub(crate) backpressure_slowdowns: Arc<obs::Counter>,
    pub(crate) backpressure_stalls: Arc<obs::Counter>,
    /// Compaction traffic by input level.
    pub(crate) per_level: [LevelCounters; NUM_LEVELS],
}

/// The counters behind one [`LevelCompactionStats`].
pub(crate) struct LevelCounters {
    pub(crate) count: Arc<obs::Counter>,
    pub(crate) bytes_read: Arc<obs::Counter>,
    pub(crate) bytes_written: Arc<obs::Counter>,
    pub(crate) files_merged: Arc<obs::Counter>,
}

impl DbMetrics {
    pub(crate) fn new(registry: &obs::Registry) -> Self {
        DbMetrics {
            get_micros: registry.histogram("lsm.get_micros"),
            scan_micros: registry.histogram("lsm.scan_micros"),
            put_micros: registry.histogram("lsm.put_micros"),
            group_size: registry.histogram("lsm.write.group_size"),
            seq_reserve: registry.histogram("lsm.write.seq_reserve"),
            write_leader: registry.counter("lsm.write.leader"),
            write_follower: registry.counter("lsm.write.follower"),
            mem_occupancy: registry.gauge("lsm.memtable.occupancy-bytes"),
            stall_micros: registry.counter("lsm.stall_micros"),
            flush_count: registry.counter("lsm.flush.count"),
            flush_bytes: registry.counter("lsm.flush.bytes"),
            bg_error_set: registry.counter("lsm.bg-error.set"),
            readonly_rejects: registry.counter("lsm.bg-error.readonly-writes"),
            compact_retries: registry.counter("lsm.compact.retry.count"),
            compact_retry_backoff: registry.counter("lsm.compact.retry.backoff-micros"),
            get_table_probes: registry.counter("lsm.get.table_probes"),
            bloom_checked: registry.counter("lsm.bloom.checked"),
            bloom_useful: registry.counter("lsm.bloom.useful"),
            bloom_false_positive: registry.counter("lsm.bloom.false_positive"),
            block_cache_hits: registry.counter("lsm.block_cache.hits"),
            block_cache_misses: registry.counter("lsm.block_cache.misses"),
            engine_compactions: registry.counter("lsm.compact.engine_jobs"),
            sw_fallback_compactions: registry.counter("lsm.compact.sw_fallback_jobs"),
            trivial_moves: registry.counter("lsm.compact.trivial_moves"),
            compaction_nanos: registry.counter("lsm.compact.wall_nanos"),
            kernel_nanos: registry.counter("lsm.compact.kernel_nanos"),
            transfer_nanos: registry.counter("lsm.compact.transfer_nanos"),
            max_concurrent_compactions: registry.gauge("lsm.compact.max_concurrent"),
            concurrent_flushes: registry.counter("lsm.flush.concurrent"),
            backpressure_slowdowns: registry.counter("lsm.backpressure.slowdowns"),
            backpressure_stalls: registry.counter("lsm.backpressure.stalls"),
            per_level: std::array::from_fn(|level| LevelCounters {
                count: registry.counter(&format!("lsm.compact.l{level}.count")),
                bytes_read: registry.counter(&format!("lsm.compact.l{level}.bytes_read")),
                bytes_written: registry.counter(&format!("lsm.compact.l{level}.bytes_written")),
                files_merged: registry.counter(&format!("lsm.compact.l{level}.files_merged")),
            }),
        }
    }

    /// Adds what one point read did in the tables. Counters that did not
    /// move are not touched: readers on other cores share these lines.
    pub(crate) fn record_table_probes(&self, probes: u32, stats: &GetStats) {
        for (counter, n) in [
            (&self.get_table_probes, probes),
            (&self.bloom_checked, stats.filter_checked),
            (&self.bloom_useful, stats.filter_useful),
            (&self.bloom_false_positive, stats.filter_false_positive),
            (&self.block_cache_hits, stats.block_cache_hits),
            (&self.block_cache_misses, stats.block_cache_misses),
        ] {
            if n > 0 {
                counter.add(u64::from(n));
            }
        }
    }
}

/// Sets the `lsm.num-files-at-level<N>` gauges to `counts` (index =
/// level) so a metric export carries live file counts. A store does it
/// from its own version before exporting; a server whose shards share one
/// registry passes the per-level sums of [`Db::level_file_counts`]. The
/// names keep LevelDB's literal `<N>` property spelling — including the
/// angle brackets — which is exactly what the JSON export's string
/// escaping must keep valid.
pub fn set_level_file_gauges(registry: &obs::Registry, counts: &[usize]) {
    for (level, count) in counts.iter().enumerate() {
        registry
            .gauge(&format!("lsm.num-files-at-level<{level}>"))
            .set(*count as u64);
    }
}

impl Db {
    /// Current statistics, read off the metric registry without taking a
    /// lock (fields are sampled one by one, not atomically together).
    ///
    /// The registry belongs to the store's [`obs::Obs`] bundle: stores
    /// opened with one shared [`crate::Options::obs`] (a server's shards)
    /// share one set of totals, and each reports the sum — which is what
    /// the server's `STATS` prints. A store opened without one counts
    /// alone.
    pub fn stats(&self) -> DbStats {
        let m = &self.inner.metrics;
        let per_level = m.per_level.each_ref().map(|l| LevelCompactionStats {
            compactions: l.count.get(),
            bytes_read: l.bytes_read.get(),
            bytes_written: l.bytes_written.get(),
            files_merged: l.files_merged.get(),
        });
        let (block_cache_hits, block_cache_misses) = self.inner.tables.block_cache_stats();
        let group_commits = m.write_leader.get();
        DbStats {
            flushes: m.flush_count.get(),
            engine_compactions: m.engine_compactions.get(),
            sw_fallback_compactions: m.sw_fallback_compactions.get(),
            trivial_moves: m.trivial_moves.get(),
            compaction_bytes_read: per_level.iter().map(|l| l.bytes_read).sum(),
            compaction_bytes_written: per_level.iter().map(|l| l.bytes_written).sum(),
            compaction_time: Duration::from_nanos(m.compaction_nanos.get()),
            modeled_kernel_time: Duration::from_nanos(m.kernel_nanos.get()),
            modeled_transfer_time: Duration::from_nanos(m.transfer_nanos.get()),
            stall_time: Duration::from_micros(m.stall_micros.get()),
            concurrent_flushes: m.concurrent_flushes.get(),
            group_commits,
            grouped_writes: group_commits + m.write_follower.get(),
            block_cache_hits,
            block_cache_misses,
            max_concurrent_compactions: m.max_concurrent_compactions.get(),
            backpressure_slowdowns: m.backpressure_slowdowns.get(),
            backpressure_stalls: m.backpressure_stalls.get(),
            per_level,
        }
    }

    /// LevelDB `GetProperty`-style named introspection. Returns `None`
    /// for unknown names. Supported:
    ///
    /// * `lsm.num-files-at-level<N>` — file count at level `N`
    /// * `lsm.stats` — human-readable per-level report (below)
    /// * `lsm.metrics` — metric registry, text format
    /// * `lsm.metrics-json` — metric registry, JSON
    /// * `lsm.trace` — buffered trace events, text format
    pub fn property(&self, name: &str) -> Option<String> {
        if let Some(rest) = name.strip_prefix("lsm.num-files-at-level") {
            let level: usize = rest.parse().ok()?;
            if level >= NUM_LEVELS {
                return None;
            }
            let state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
            return Some(state.versions.current().num_files(level).to_string());
        }
        match name {
            "lsm.stats" => Some(self.stats_report()),
            "lsm.metrics" | "lsm.metrics-json" => {
                let registry = &self.inner.obs.registry;
                set_level_file_gauges(registry, &self.level_file_counts());
                Some(if name == "lsm.metrics" {
                    registry.export_text()
                } else {
                    registry.export_json()
                })
            }
            "lsm.trace" => Some(self.inner.obs.trace.export_text()),
            _ => None,
        }
    }

    /// Human-readable counterpart of LevelDB's `leveldb.stats` property:
    /// one row per level (files, resident bytes, compaction traffic)
    /// plus the aggregate write-path counters.
    pub fn stats_report(&self) -> String {
        use std::fmt::Write as _;
        let stats = self.stats();
        let v = self.inner.state.lock().versions.current(); // LOCK-ORDER: db.state 10
        let rows = (0..NUM_LEVELS).map(|l| {
            (
                v.num_files(l),
                v.files[l].iter().map(|f| f.file_size).sum::<u64>(),
            )
        });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "level  files  size_kb  compactions  read_kb  write_kb  files_merged"
        );
        for (level, (files, bytes)) in rows.enumerate() {
            let lv = stats.per_level[level];
            let _ = writeln!(
                out,
                "{level:>5}  {files:>5}  {:>7}  {:>11}  {:>7}  {:>8}  {:>12}",
                bytes / 1024,
                lv.compactions,
                lv.bytes_read / 1024,
                lv.bytes_written / 1024,
                lv.files_merged
            );
        }
        let _ = writeln!(
            out,
            "flushes={} engine_compactions={} sw_fallbacks={} trivial_moves={}",
            stats.flushes,
            stats.engine_compactions,
            stats.sw_fallback_compactions,
            stats.trivial_moves
        );
        let _ = writeln!(
            out,
            "stall_micros={} group_commits={} grouped_writes={}",
            stats.stall_time.as_micros(),
            stats.group_commits,
            stats.grouped_writes
        );
        out
    }
}
