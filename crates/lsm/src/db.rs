//! The database: write path (WAL + memtable + stall logic), read path
//! (memtable → immutable memtable → levels), flushes, and the background
//! compaction scheduler of the paper's Fig. 6.
//!
//! Scheduling generalizes LevelDB v1.x: a pool of
//! [`Options::background_threads`] workers handles memtable flushes and
//! SSTable compactions. Each worker picks work under the big lock and
//! admits it through a [`ConflictChecker`], so compactions at different
//! levels with disjoint key ranges run concurrently (feeding a
//! multi-engine offload service) while conflicting picks serialize
//! exactly as the single-threaded scheduler would. When the configured
//! [`CompactionEngine`] is an offload engine (the FPGA), the paper's key
//! scheduling change applies: a flush may proceed *concurrently* with an
//! in-flight offloaded compaction (`Db::flush_during_offload`), because
//! the host CPU is idle while the device merges. Engines may also push
//! back on writers via [`crate::compaction::WritePressure`]; the DB
//! translates that into its L0-style slowdown/stall mechanics.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use sstable::comparator::{Comparator, InternalKeyComparator};
use sstable::env::WritableFile;
use sstable::ikey::{parse_internal_key, InternalKey, LookupKey, ValueType};
use sstable::iterator::InternalIterator;
use sstable::table::GetStats;
use sstable::table_builder::TableBuilder;

use crate::compaction::{
    CompactionEngine, CompactionInput, CompactionRequest, CpuCompactionEngine, OutputFileFactory,
    WritePressure,
};
use crate::conflict::{ConflictChecker, JobShape, JobTicket};
use crate::filename::{log_file_name, parse_file_name, table_file_name, FileType};
use crate::memtable::{MemGet, MemTable};
use crate::options::{
    Options, ReadOptions, WriteOptions, L0_SLOWDOWN_WRITES_TRIGGER, L0_STOP_WRITES_TRIGGER,
    NUM_LEVELS,
};
use crate::read_view::{ReadView, ViewCell};
use crate::repl::{self, ReplChunk, WalCursor};
use crate::sync_shim::{self, lock as shim_lock};
use crate::table_cache::TableCache;
use crate::version::{FileMetaData, VersionEdit, VersionSet};
use crate::vlog::{self, VlogRuntime};
use crate::wal::{LogReader, LogWriter};
use crate::write_batch::{BatchOp, WriteBatch};
use crate::write_path::{ApplyLedger, SeqReserver};
use crate::{Error, Result};

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

/// Aggregate statistics exposed for the experiments.
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

/// Per-pair accounting overhead used by [`Db::scan_with`]'s byte budget
/// (covers the length prefixes and framing a serving layer adds around
/// each key/value).
pub const SCAN_PAIR_OVERHEAD: usize = 16;

/// Result of a budgeted range scan.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Collected pairs, in key order.
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
    /// `true` when the requested range was exhausted; `false` when the
    /// scan stopped early at the pair limit or the byte budget.
    pub complete: bool,
}

/// What one [`Db::collect_value_log`] pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VlogGcReport {
    /// Sealed segments examined.
    pub segments_scanned: u64,
    /// Segments whose live values were rewritten and whose file was
    /// removed.
    pub segments_retired: u64,
    /// Segments kept because a snapshot could still reach them.
    pub segments_deferred: u64,
    /// Live values copied to the active segment.
    pub values_rewritten: u64,
    /// Value bytes copied.
    pub bytes_rewritten: u64,
    /// Dead bytes still on disk in deferred segments (the
    /// `lsm.vlog.dead-bytes` gauge).
    pub dead_bytes_remaining: u64,
}

/// Outcome of collecting one sealed segment.
enum SegmentGc {
    Retired {
        live_rewritten: u64,
        bytes_rewritten: u64,
    },
    Deferred {
        dead_bytes: u64,
    },
}

struct DbState {
    /// The active memtable. Shared (`Arc`) because group commits apply
    /// into it without holding this lock; `epoch.mem` points at the same
    /// table and is the copy writers pair with the WAL.
    mem: Arc<MemTable>,
    imm: Option<Arc<MemTable>>,
    /// Rotation boundary: every sequence `<= imm_boundary_seq` was
    /// reserved against `imm` (or older tables). The flush waits for this
    /// sequence to become visible so in-flight writers finish applying
    /// into the retiring memtable before it is iterated.
    imm_boundary_seq: u64,
    versions: VersionSet,
    /// Number of the WAL backing the active memtable. `versions.log_number`
    /// lags behind until the immutable memtable is flushed, so the old WAL
    /// survives a crash that happens mid-flush.
    log_file_number: u64,
    bg_error: Option<String>,
    /// Offloaded (non-CPU) compactions currently executing.
    offloads_in_flight: usize,
    /// Admission control for concurrent compactions.
    conflicts: ConflictChecker,
    /// Guards against two concurrent flushes.
    flush_in_progress: bool,
    /// Manual compaction request: drain this level regardless of score.
    force_compact_level: Option<usize>,
    /// Outstanding snapshots: sequence -> refcount.
    snapshots: BTreeMap<u64, u64>,
    /// File numbers being written by an in-flight flush or compaction;
    /// protected from obsolete-file GC until installed in a version
    /// (LevelDB's `pending_outputs_`).
    pending_outputs: HashSet<u64>,
    stats: DbStats,
}

/// Pre-registered hot-path metric handles (the registry mutex is
/// touched once at open, not per operation).
struct DbMetrics {
    get_micros: Arc<obs::Histogram>,
    scan_micros: Arc<obs::Histogram>,
    put_micros: Arc<obs::Histogram>,
    group_size: Arc<obs::Histogram>,
    /// Time from a writer enqueueing to its sequence range being
    /// reserved — the queueing delay of the parallel write path.
    seq_reserve: Arc<obs::Histogram>,
    /// Group commits led / writes that rode another thread's commit.
    write_leader: Arc<obs::Counter>,
    write_follower: Arc<obs::Counter>,
    /// Bytes resident in the active memtable after the last commit.
    mem_occupancy: Arc<obs::Gauge>,
    stall_micros: Arc<obs::Counter>,
    flush_count: Arc<obs::Counter>,
    flush_bytes: Arc<obs::Counter>,
    bg_error_set: Arc<obs::Counter>,
    readonly_rejects: Arc<obs::Counter>,
    compact_retries: Arc<obs::Counter>,
    compact_retry_backoff: Arc<obs::Counter>,
    /// Tables a point read probed after missing the memtables.
    get_table_probes: Arc<obs::Counter>,
    /// Of those probes: consulted a filter / the filter excluded the
    /// block / it let through a block that did not hold the key.
    bloom_checked: Arc<obs::Counter>,
    bloom_useful: Arc<obs::Counter>,
    bloom_false_positive: Arc<obs::Counter>,
    /// Block-cache lookups of point reads (scans and compactions use the
    /// cache too; `DbStats` has the cache's own totals).
    block_cache_hits: Arc<obs::Counter>,
    block_cache_misses: Arc<obs::Counter>,
}

impl DbMetrics {
    fn new(registry: &obs::Registry) -> Self {
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
        }
    }

    /// Adds what one point read did in the tables. Counters that did not
    /// move are not touched: readers on other cores share these lines.
    fn record_table_probes(&self, probes: u32, stats: &GetStats) {
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

struct DbInner {
    dir: PathBuf,
    options: Options,
    engine: Arc<dyn CompactionEngine>,
    obs: Arc<obs::Obs>,
    metrics: DbMetrics,
    /// The store's key order, built once and lent to every `get`,
    /// memtable and iterator.
    icmp: Arc<InternalKeyComparator>,
    state: Mutex<DbState>,
    /// What reads see: `state`'s memtables and current version, republished
    /// (under `state`) whenever one of them changes and loaded by readers
    /// without it. See [`crate::read_view`].
    view: ViewCell,
    /// The WAL epoch: the log, the memtable it recovers into, and the log
    /// file number swap *together* under this lock, so a group leader
    /// always pairs its WAL append with the matching memtable even while
    /// a rotation is in flight. Lock order: `state` may be acquired
    /// before `epoch`, never after.
    epoch: sync_shim::Mutex<WalEpoch>,
    /// Writers awaiting group commit; the front is the leader.
    commit_queue: sync_shim::Mutex<VecDeque<Arc<WriteWaiter>>>,
    /// Hands out contiguous, disjoint sequence ranges without a lock.
    reserver: SeqReserver,
    /// Tracks which reserved ranges have been applied; reads run at
    /// [`ApplyLedger::visible`], which never exposes a gap.
    ledger: ApplyLedger,
    /// Mirror of `state.bg_error.is_some()`, readable on the write fast
    /// path without the state lock.
    has_bg_error: AtomicBool,
    /// Approximate L0 file count, refreshed when versions change; lets
    /// the write fast path skip the state lock when L0 is healthy.
    l0_hint: AtomicUsize,
    /// Active memtable bytes after the most recent group commit; reset to
    /// zero at rotation. Fast-path room check only — the authoritative
    /// value is `state.mem.approximate_memory_usage()`.
    active_mem_bytes: AtomicUsize,
    /// Signaled when background work completes.
    work_done: Condvar,
    /// Signaled to wake the background thread.
    bg_work: Condvar,
    table_cache: TableCache,
    /// Key-value separation runtime; `None` when
    /// [`Options::value_log_threshold_bytes`] is unset (values stay in
    /// the tree, legacy encoding).
    vlog: Option<Arc<VlogRuntime>>,
    /// WAL segments numbered at or above this floor are retained even
    /// after rotation makes them obsolete for recovery — they may still
    /// feed a replication cursor. `u64::MAX` (the default) disables
    /// pinning; a replicating leader lowers it to the slowest registered
    /// replica's acknowledged segment.
    wal_retain_floor: AtomicU64,
    shutting_down: AtomicBool,
}

/// The WAL and the memtable it replays into, swapped atomically at
/// rotation.
struct WalEpoch {
    wal: LogWriter,
    mem: Arc<MemTable>,
}

/// One writer queued for group commit. The leader stamps each member's
/// batch with its reserved sequences and hands it back; every member
/// applies its own batch into the (shared, concurrent) memtable in
/// parallel, then reports to the [`ApplyLedger`].
struct WriteWaiter {
    sync: bool,
    /// Enqueue timestamp for the `lsm.write.seq_reserve` histogram.
    enqueued_micros: u64,
    slot: sync_shim::Mutex<WaiterSlot>,
    cv: sync_shim::Condvar,
}

struct WaiterSlot {
    /// Present until the leader takes it (or it is handed back stamped).
    batch: Option<WriteBatch>,
    phase: WaiterPhase,
    /// Outcome for members completed by a leader (error fan-out).
    result: Option<Result<()>>,
}

enum WaiterPhase {
    /// Still queued behind a leader.
    Queued,
    /// Promoted: this writer must lead the next group.
    Lead,
    /// A leader committed this member's batch to the WAL; the member
    /// applies it into `mem` and then reports to the ledger.
    Apply {
        mem: Arc<MemTable>,
        group: u64,
        last_seq: u64,
    },
    /// Finished (result present in the slot).
    Done,
}

impl WriteWaiter {
    fn new(batch: WriteBatch, sync: bool, enqueued_micros: u64) -> Self {
        WriteWaiter {
            sync,
            enqueued_micros,
            slot: sync_shim::Mutex::new(WaiterSlot {
                batch: Some(batch),
                phase: WaiterPhase::Queued,
                result: None,
            }),
            cv: sync_shim::Condvar::new(),
        }
    }

    // LOCK-HELD: db.commit_queue -- the leader sizes queued waiters mid-scan.
    fn batch_size(&self) -> usize {
        shim_lock(&self.slot) // LOCK-ORDER: db.waiter.slot 40
            .batch
            .as_ref()
            .map_or(0, WriteBatch::approximate_size)
    }

    /// Marks this waiter as the next leader (queue lock held by caller).
    // LOCK-HELD: db.commit_queue
    fn promote_lead(&self) {
        let mut slot = shim_lock(&self.slot); // LOCK-ORDER: db.waiter.slot 40
        slot.phase = WaiterPhase::Lead;
        self.cv.notify_all();
    }

    /// Returns the member its sequence-stamped batch for parallel apply.
    fn hand_apply(&self, batch: WriteBatch, mem: Arc<MemTable>, group: u64, last_seq: u64) {
        let mut slot = shim_lock(&self.slot); // LOCK-ORDER: db.waiter.slot 40
        slot.batch = Some(batch);
        slot.phase = WaiterPhase::Apply {
            mem,
            group,
            last_seq,
        };
        self.cv.notify_all();
    }

    /// Completes the member with `result` (leader-side error fan-out).
    fn complete(&self, result: Result<()>) {
        let mut slot = shim_lock(&self.slot); // LOCK-ORDER: db.waiter.slot 40
        slot.result = Some(result);
        slot.phase = WaiterPhase::Done;
        self.cv.notify_all();
    }

    /// Blocks until a leader assigns this waiter a role.
    fn wait_assignment(&self) -> WaiterPhase {
        let mut slot = shim_lock(&self.slot); // LOCK-ORDER: db.waiter.slot 40
        loop {
            match slot.phase {
                WaiterPhase::Queued => {
                    slot = self
                        .cv
                        .wait(slot)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                _ => return std::mem::replace(&mut slot.phase, WaiterPhase::Queued),
            }
        }
    }
}

/// Applies a sequence-stamped batch into the concurrent memtable.
fn apply_batch(mem: &MemTable, batch: &WriteBatch) {
    // iterate() re-walks framing that was validated when the batch was
    // built, so the Err arm is unreachable; `let _` keeps this panic-free.
    let _ = batch.iterate(|op, seq| match op {
        BatchOp::Put { key, value } => mem.add(seq, ValueType::Value, key, value),
        BatchOp::Delete { key } => mem.add(seq, ValueType::Deletion, key, &[]),
    });
}

/// A LevelDB-like key-value store.
///
/// Cloning the handle is cheap; the database shuts down when the last
/// handle drops.
pub struct Db {
    inner: Arc<DbInner>,
    bg_threads: Vec<std::thread::JoinHandle<()>>,
}

/// Snapshot guard: reads through [`ReadOptions::snapshot`] at this
/// sequence see a frozen view. Dropping releases the snapshot.
pub struct Snapshot {
    inner: Arc<DbInner>,
    /// The frozen sequence number.
    pub sequence: u64,
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
        if let Some(count) = state.snapshots.get_mut(&self.sequence) {
            *count -= 1;
            if *count == 0 {
                state.snapshots.remove(&self.sequence);
            }
        }
    }
}

impl Db {
    /// Opens (creating if needed) a database in `dir` with the CPU engine.
    pub fn open(dir: impl AsRef<Path>, options: Options) -> Result<Db> {
        Self::open_with_engine(dir, options, Arc::new(CpuCompactionEngine))
    }

    /// Opens a database using `engine` for compaction execution.
    pub fn open_with_engine(
        dir: impl AsRef<Path>,
        options: Options,
        engine: Arc<dyn CompactionEngine>,
    ) -> Result<Db> {
        let dir = dir.as_ref().to_path_buf();
        options.env.create_dir_all(&dir)?;

        let mut versions = VersionSet::new(dir.clone(), options.clone());
        let existed = versions.recover()?;

        let obs = options.obs.clone().unwrap_or_else(obs::Obs::wall);

        // Key-value separation: recover the value-log segments before WAL
        // replay so pointer validation below runs against truncated (i.e.
        // durable-prefix-only) segments. The MANIFEST does not track
        // segment numbers, so bump the file-number counter past every
        // segment on disk before allocating the new active one — a reused
        // number would let `create_writable` truncate a live segment.
        // A store that *has* segments must recover them even when the
        // option is off — otherwise gets would hand back tagged stored
        // bytes (raw pointers!) instead of values. `usize::MAX` makes
        // the runtime resolve-only: no new value ever clears the
        // threshold, so writes go inline while old pointers still read.
        let segments_on_disk = vlog::list_segments(options.env.as_ref(), &dir)?;
        let effective_threshold = match options.value_log_threshold_bytes {
            Some(t) => Some(t),
            None if !segments_on_disk.is_empty() => Some(usize::MAX),
            None => None,
        };
        let vlog_rt = if let Some(threshold) = effective_threshold {
            let max_seg = segments_on_disk.into_iter().max().unwrap_or(0);
            versions.bump_file_number(max_seg + 1);
            let active = versions.new_file_number();
            Some(Arc::new(VlogRuntime::recover(
                Arc::clone(&options.env),
                &dir,
                threshold,
                options.value_log_segment_bytes.max(1),
                active,
                &obs.registry,
            )?))
        } else {
            None
        };

        // Replay WALs newer than the recovered log number.
        let mut max_sequence = versions.last_sequence;
        let icmp = Arc::new(InternalKeyComparator::default());
        let mut mem = MemTable::with_shards(Arc::clone(&icmp), options.memtable_shards);
        if existed {
            let mut log_numbers: Vec<u64> = options
                .env
                .list_dir(&dir)?
                .iter()
                .filter_map(|name| match parse_file_name(name) {
                    Some(FileType::Log(n)) if n >= versions.log_number => Some(n),
                    _ => None,
                })
                .collect();
            log_numbers.sort_unstable();
            // Pointers into missing/corrupt vlog records, judged only
            // after the full replay: GC removes a segment strictly after
            // WAL-syncing rewrites of its live values, so the WAL is
            // *expected* to hold stale pointers into removed segments —
            // each shadowed by a newer record later in the log. Only a
            // dangling pointer that survives as the visible version of
            // its key means acknowledged data is gone.
            let mut dangling: Vec<(Vec<u8>, Vec<u8>, String)> = Vec::new();
            for number in log_numbers {
                let path = log_file_name(&dir, number);
                let file = options.env.open_random_access(&path)?;
                let mut reader = LogReader::new(file.as_ref())?;
                while let Some(record) = reader.read_record() {
                    let batch = WriteBatch::from_data(&record)?;
                    if let Some(v) = &vlog_rt {
                        // A pointer past the durable end of a segment can
                        // only belong to an unacknowledged write (an acked
                        // sync persists the vlog *before* the WAL), so the
                        // batch is dropped — like a torn WAL tail. Replay
                        // continues: anything after it in the same WAL is
                        // equally unsynced (a later sync would have made
                        // this batch durable too) and keeping those acked
                        // survivors is legal, while *later* WALs may hold
                        // synced acknowledgements that must not be lost.
                        // Missing/corrupt records are queued for the
                        // post-replay visibility check.
                        let mut torn = false;
                        let mut bad: Option<Error> = None;
                        batch.iterate(|op, _| {
                            if torn || bad.is_some() {
                                return;
                            }
                            if let BatchOp::Put { key, value } = op {
                                match vlog::decode_stored(value) {
                                    Ok(vlog::Stored::Pointer(ptr)) => match v.check_pointer(ptr) {
                                        vlog::PointerCheck::Ok => {}
                                        vlog::PointerCheck::TornTail => torn = true,
                                        vlog::PointerCheck::MissingSegment
                                        | vlog::PointerCheck::Corrupt => {
                                            dangling.push((
                                                key.to_vec(),
                                                value.to_vec(),
                                                format!(
                                                    "WAL {number:06} references lost vlog \
                                                     record {}:{} (key {:?})",
                                                    ptr.segment,
                                                    ptr.offset,
                                                    String::from_utf8_lossy(key)
                                                ),
                                            ));
                                        }
                                    },
                                    Ok(vlog::Stored::Inline(_)) => {}
                                    Err(e) => bad = Some(e),
                                }
                            }
                        })?;
                        if let Some(e) = bad {
                            return Err(e);
                        }
                        if torn {
                            continue;
                        }
                    }
                    let base = batch.sequence();
                    batch.iterate(|op, seq| match op {
                        BatchOp::Put { key, value } => mem.add(seq, ValueType::Value, key, value),
                        BatchOp::Delete { key } => mem.add(seq, ValueType::Deletion, key, &[]),
                    })?;
                    let last = base + u64::from(batch.count()).saturating_sub(1);
                    max_sequence = max_sequence.max(last);
                }
                if reader.corruption_detected() {
                    // A torn tail is expected after a crash (silent EOF),
                    // but a checksum failure *inside* the log means the
                    // replayed prefix may be missing acknowledged writes.
                    // Surface it so callers route through `repair_db`
                    // rather than opening with silent data loss.
                    return Err(Error::Corruption(format!(
                        "WAL {number:06} contains corrupt records"
                    )));
                }
            }
            // Judge the dangling pointers now that every shadowing record
            // has been replayed: fatal only if still the visible version.
            for (key, stored, why) in dangling {
                let visible = match mem.get(&LookupKey::new(&key, max_sequence)) {
                    MemGet::Value(newest) => newest == stored,
                    MemGet::Deleted | MemGet::NotFound => false,
                };
                if visible {
                    return Err(Error::Corruption(why));
                }
            }
        }
        versions.last_sequence = max_sequence;

        // Fresh WAL.
        let log_number = versions.new_file_number();
        // DURABILITY-OK: created empty; the write path syncs the records
        // appended to it (`sync_writes` / `WriteOptions::sync`).
        let log_file = options
            .env
            .create_writable(&log_file_name(&dir, log_number))?;
        let log = LogWriter::new(log_file);

        // Recovered WAL data lives only in `mem`; advancing the manifest's
        // log number would orphan it (the replayed logs become obsolete),
        // so persist it as an L0 table first — LevelDB's
        // `WriteLevel0Table` during recovery.
        let mut edit = VersionEdit {
            log_number: Some(log_number),
            ..Default::default()
        };
        if !mem.is_empty() {
            let file_number = versions.new_file_number();
            let imm = std::mem::replace(
                &mut mem,
                MemTable::with_shards(Arc::clone(&icmp), options.memtable_shards),
            );
            if let Some(meta) = write_memtable_table(&options, &dir, file_number, &Arc::new(imm))? {
                edit.new_files.push((0, meta));
            }
        }
        // Stage the first rotation's segment number while the version set
        // is still exclusively ours; writers replenish it afterwards.
        if let Some(v) = &vlog_rt {
            v.stage_segment(versions.new_file_number());
        }
        versions.log_and_apply(edit)?;

        let metrics = DbMetrics::new(&obs.registry);
        obs.registry
            .gauge("lsm.memtable.shards")
            .set(mem.shard_count() as u64);
        let table_cache =
            TableCache::new(dir.clone(), options.clone(), 1000).with_trace(Arc::clone(&obs.trace));
        let last_sequence = versions.last_sequence;
        let l0_files = versions.current().num_files(0);
        let mem = Arc::new(mem);
        let view = ViewCell::new(ReadView {
            mem: Arc::clone(&mem),
            imm: None,
            version: versions.current(),
        });
        let inner = Arc::new(DbInner {
            dir,
            options,
            engine,
            obs,
            metrics,
            icmp,
            view,
            state: Mutex::new(DbState {
                mem: Arc::clone(&mem),
                imm: None,
                imm_boundary_seq: 0,
                versions,
                log_file_number: log_number,
                bg_error: None,
                offloads_in_flight: 0,
                conflicts: ConflictChecker::new(),
                flush_in_progress: false,
                force_compact_level: None,
                snapshots: BTreeMap::new(),
                pending_outputs: HashSet::new(),
                stats: DbStats::default(),
            }),
            epoch: sync_shim::Mutex::new(WalEpoch { wal: log, mem }),
            commit_queue: sync_shim::Mutex::new(VecDeque::new()),
            reserver: SeqReserver::new(last_sequence),
            ledger: ApplyLedger::new(last_sequence),
            has_bg_error: AtomicBool::new(false),
            l0_hint: AtomicUsize::new(l0_files),
            active_mem_bytes: AtomicUsize::new(0),
            work_done: Condvar::new(),
            bg_work: Condvar::new(),
            table_cache,
            vlog: vlog_rt,
            wal_retain_floor: AtomicU64::new(u64::MAX),
            shutting_down: AtomicBool::new(false),
        });

        let workers = inner.options.background_threads.max(1);
        let bg_threads = (0..workers)
            .map(|i| {
                let bg_inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("lsm-background-{i}"))
                    .spawn(move || background_thread(bg_inner))
                    // PANIC-OK: thread spawn fails only on resource
                    // exhaustion at open(); no store state exists yet.
                    .expect("spawn background thread")
            })
            .collect();

        let db = Db { inner, bg_threads };
        db.inner.delete_obsolete_files();
        Ok(db)
    }

    /// Inserts or overwrites `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(batch, WriteOptions::default())
    }

    /// Deletes `key`.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(batch, WriteOptions::default())
    }

    // ------------------------------------------------------ replication

    /// The visible sequence: every write at or below it is applied and
    /// readable. Leaders hand it to clients as a read-your-writes token;
    /// replicas compare it against tokens to decide wait-or-redirect.
    pub fn visible_sequence(&self) -> u64 {
        self.inner.ledger.visible()
    }

    /// The active WAL segment's file number (segments below it are
    /// sealed).
    pub fn current_log_number(&self) -> u64 {
        self.inner.state.lock().log_file_number // LOCK-ORDER: db.state 10
    }

    /// Pins WAL segments numbered `floor` and above against deletion so
    /// replication cursors inside them stay serveable. `u64::MAX`
    /// (the default) disables pinning. The leader keeps this at the
    /// slowest registered replica's acknowledged segment.
    pub fn set_wal_retention_floor(&self, floor: u64) {
        self.inner
            .wal_retain_floor
            .store(floor, AtomicOrdering::Release);
    }

    /// The earliest cursor this store can serve a replica from: the
    /// oldest WAL segment still on disk that recovery would replay.
    pub fn repl_start_cursor(&self) -> Result<WalCursor> {
        let (log_number, active) = {
            let state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
            (state.versions.log_number, state.log_file_number)
        };
        let names = self.inner.options.env.list_dir(&self.inner.dir)?;
        let mut earliest = active;
        for name in names {
            if let Some(FileType::Log(n)) = parse_file_name(&name) {
                if n >= log_number && n < earliest {
                    earliest = n;
                }
            }
        }
        Ok(WalCursor {
            segment: earliest,
            offset: 0,
        })
    }

    /// Reads up to `max_bytes` of logical replication records starting
    /// at `cursor`. Lock-free with respect to the write path: the tailer
    /// races appends and rotations by design (see [`crate::repl`]).
    pub fn repl_read_chunk(&self, cursor: WalCursor, max_bytes: usize) -> Result<ReplChunk> {
        let active = self.current_log_number();
        let ctx = repl::TailContext {
            env: self.inner.options.env.as_ref(),
            dir: &self.inner.dir,
            vlog: self.inner.vlog.as_ref(),
            active_segment: active,
        };
        repl::read_chunk(&ctx, cursor, max_bytes)
    }

    /// Pushes buffered WAL (and, when dirty, value-log) bytes out far
    /// enough for the tailer to read them. The feed loop calls this when
    /// a chunk comes back `CaughtUp` so buffered commits don't stall the
    /// stream until the next sync.
    pub fn repl_flush(&self) -> Result<()> {
        let mut epoch = shim_lock(&self.inner.epoch); // LOCK-ORDER: db.epoch 20
        if let Some(v) = &self.inner.vlog {
            // The tailer re-inlines pointers by reading segment files,
            // so the value bytes must be readable before the WAL record
            // that references them becomes so.
            v.sync_if_dirty()?;
        }
        epoch.wal.flush()
    }

    /// Approximate bytes of WAL the stream position `from` has not yet
    /// consumed — the `repl.lag.bytes` gauge.
    pub fn repl_lag_bytes(&self, from: WalCursor) -> u64 {
        repl::lag_bytes(self.inner.options.env.as_ref(), &self.inner.dir, from)
    }

    /// Applies one record from a leader's replication stream — the
    /// replica half of WAL shipping. The record is WAL-appended and
    /// applied exactly like a local group of one, except the sequence
    /// range arrives leader-stamped ([`SeqReserver::advance_to`] instead
    /// of a local reservation), so leader and replica assign identical
    /// sequences to identical ops and the replica's own recovery path
    /// replays the shipped history unchanged.
    ///
    /// `last_seq` is the stream-declared end of the record's reserved
    /// range; it may exceed the batch's own op count when the leader
    /// skipped GC-shadowed pointer ops while re-inlining. Records at or
    /// below the current visible sequence are duplicates from a cursor
    /// replay after reconnect and are skipped whole (record boundaries
    /// are preserved by the stream, so overlap is always all-or-nothing).
    ///
    /// Returns the new visible sequence.
    pub fn apply_replicated(&self, record: &[u8], last_seq: u64, sync: bool) -> Result<u64> {
        let inner = &self.inner;
        inner.ensure_room()?;
        let batch = WriteBatch::from_data(record)?;
        let base = batch.sequence();
        let count = u64::from(batch.count());
        let end_seq = last_seq.max(base + count.saturating_sub(1));
        if end_seq <= inner.ledger.visible() {
            return Ok(inner.ledger.visible());
        }
        // Re-run this store's own separation policy over the raw values;
        // the pin guards freshly appended segments against GC until the
        // apply is visible, mirroring `write_inner`.
        let (batch, _append_pin) = match &inner.vlog {
            Some(v) => {
                let (mut rewritten, pin) = v.separate_batch(&batch)?;
                if v.needs_stage() {
                    let n = inner.state.lock().versions.new_file_number(); // LOCK-ORDER: db.state 10
                    v.stage_segment(n);
                }
                rewritten.set_sequence(base);
                (rewritten, pin)
            }
            None => (batch, None),
        };
        let epoch_result = {
            let mut epoch = shim_lock(&inner.epoch); // LOCK-ORDER: db.epoch 20
            if inner.has_bg_error.load(AtomicOrdering::Acquire) {
                None
            } else {
                inner.reserver.advance_to(end_seq);
                let commit = (|| -> Result<()> {
                    epoch.wal.add_record(batch.data())?;
                    if sync {
                        if let Some(v) = &inner.vlog {
                            v.sync_if_dirty()?;
                        }
                        epoch.wal.sync()?;
                    }
                    Ok(())
                })();
                let group_id = inner.ledger.register(end_seq, 1);
                Some((Arc::clone(&epoch.mem), group_id, commit))
            }
        };
        let Some((mem, group_id, commit)) = epoch_result else {
            let msg = inner
                .state
                .lock() // LOCK-ORDER: db.state 10
                .bg_error
                .clone()
                .unwrap_or_else(|| "background error".to_string());
            return Err(Error::ReadOnly(msg));
        };
        if let Err(e) = commit {
            // Same sticky-error contract as `lead_group`: a failed append
            // leaves the WAL tail unknown, so the store goes read-only
            // and the group is marked applied to unblock the watermark.
            {
                let mut state = inner.state.lock(); // LOCK-ORDER: db.state 10
                inner.set_bg_error(&mut state, format!("wal commit failed: {e}"));
            }
            inner.ledger.finish_members(group_id, 1);
            return Err(e);
        }
        apply_batch(&mem, &batch);
        inner.ledger.finish_members(group_id, 1);
        let occupancy = mem.approximate_memory_usage();
        inner
            .active_mem_bytes
            .store(occupancy, AtomicOrdering::Relaxed);
        inner.metrics.mem_occupancy.set(occupancy as u64);
        inner.ledger.wait_visible(end_seq);
        Ok(inner.ledger.visible())
    }

    /// Applies a batch atomically, with leader-elected group commit:
    /// concurrent writers enqueue; whoever finds the queue empty becomes
    /// the leader, reserves one contiguous sequence range for the whole
    /// group, writes every member's batch to the WAL in one pass (and one
    /// sync), then hands each member its stamped batch back. Members apply
    /// into the concurrent memtable *in parallel* and acknowledge once the
    /// group's last sequence is visible, so a writer never returns before
    /// its own write is readable.
    pub fn write(&self, batch: WriteBatch, opts: WriteOptions) -> Result<()> {
        let t0 = self.inner.obs.now_micros();
        let result = self.write_inner(batch, opts);
        self.inner
            .metrics
            .put_micros
            .record(self.inner.obs.now_micros().saturating_sub(t0));
        result
    }

    fn write_inner(&self, batch: WriteBatch, opts: WriteOptions) -> Result<()> {
        let inner = &self.inner;
        inner.ensure_room()?;
        // Key-value separation happens before the commit queue: large
        // values go to the value log now (so one vlog sync by the group
        // leader covers every member) and the batch that is WAL-appended
        // and applied carries pointers/tagged inline values only.
        // `_append_pin` guards the appended values' segments against GC
        // until this write's commit is visible (it drops when this
        // function returns, which is after the visibility wait): an
        // uncommitted append is invisible to GC's liveness check, so an
        // unpinned segment could be retired out from under the write.
        let (batch, _append_pin) = match &inner.vlog {
            Some(v) => {
                let (rewritten, pin) = v.separate_batch(&batch)?;
                if v.needs_stage() {
                    // A rotation consumed the staged segment number;
                    // allocate the next one outside the vlog writer lock
                    // (the state lock ranks below it).
                    let n = inner.state.lock().versions.new_file_number(); // LOCK-ORDER: db.state 10
                    v.stage_segment(n);
                }
                (rewritten, pin)
            }
            None => (batch, None),
        };
        let sync = opts.sync || inner.options.sync_writes;
        let waiter = Arc::new(WriteWaiter::new(batch, sync, inner.obs.now_micros()));
        {
            let mut queue = shim_lock(&inner.commit_queue); // LOCK-ORDER: db.commit_queue 30
            queue.push_back(Arc::clone(&waiter));
            if queue.len() == 1 {
                // Empty queue: self-promote. A previous leader may still
                // be inside its epoch section — the new leader simply
                // blocks on the epoch lock, pipelining the two groups.
                waiter.promote_lead();
            }
        }
        match waiter.wait_assignment() {
            WaiterPhase::Lead => inner.lead_group(&waiter),
            WaiterPhase::Apply {
                mem,
                group,
                last_seq,
            } => {
                let batch = shim_lock(&waiter.slot).batch.take(); // LOCK-ORDER: db.waiter.slot 40
                if let Some(b) = &batch {
                    apply_batch(&mem, b);
                }
                inner.ledger.finish_members(group, 1);
                // Ack only once every earlier sequence is applied too:
                // after this returns, a read at "latest" sees this write.
                inner.ledger.wait_visible(last_seq);
                Ok(())
            }
            WaiterPhase::Done => shim_lock(&waiter.slot).result.take().unwrap_or(Ok(())), // LOCK-ORDER: db.waiter.slot 40
            // wait_assignment never returns Queued.
            WaiterPhase::Queued => Ok(()),
        }
    }

    /// Point lookup at the latest (or a snapshot) sequence.
    pub fn get_with(&self, key: &[u8], opts: ReadOptions) -> Result<Option<Vec<u8>>> {
        let t0 = self.inner.obs.now_micros();
        let result = self.get_with_inner(key, opts);
        self.inner
            .metrics
            .get_micros
            .record(self.inner.obs.now_micros().saturating_sub(t0));
        result
    }

    fn get_with_inner(&self, key: &[u8], opts: ReadOptions) -> Result<Option<Vec<u8>>> {
        let inner = &self.inner;
        // Reads run at the *visible* sequence — the watermark below which
        // every reserved write has been applied — so a concurrent group
        // commit can never expose a batch prefix or a sequence gap.
        let seq = opts.snapshot.unwrap_or_else(|| inner.ledger.visible());
        let Some(stored) = inner.get_stored(key, seq)? else {
            return Ok(None);
        };
        let Some(v) = &inner.vlog else {
            return Ok(Some(stored));
        };
        match v.resolve(&stored) {
            Ok(value) => Ok(Some(value)),
            // A GC pass may retire a segment between the lookup above and
            // this dereference. The rewrite that replaced the pointer is
            // already visible (GC installs it before the segment goes
            // away), so one retry at a fresh sequence reads through the
            // new copy. Snapshot reads never race this way: GC defers
            // segment removal while any snapshot is registered.
            Err(Error::Corruption(_)) if opts.snapshot.is_none() => {
                match inner.get_stored(key, inner.ledger.visible())? {
                    Some(stored) => v.resolve(&stored).map(Some),
                    None => Ok(None),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Point lookup at the latest sequence.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, ReadOptions::default())
    }

    /// Takes a consistent snapshot for reads.
    pub fn snapshot(&self) -> Snapshot {
        // LOCK-ORDER: db.state 10
        let mut state = self.inner.state.lock();
        // Sampled under the state lock so a concurrent compaction cannot
        // capture a smallest-snapshot above this sequence before the
        // registration below lands.
        let seq = self.inner.ledger.visible();
        *state.snapshots.entry(seq).or_insert(0) += 1;
        Snapshot {
            inner: Arc::clone(&self.inner),
            sequence: seq,
        }
    }

    /// Creates a streaming iterator over the live contents of the store,
    /// frozen at the current (or a snapshot) sequence. The iterator pins
    /// the memtables and version it was opened on and takes a memtable
    /// shard lock only per step, so writes proceed concurrently.
    pub fn iter_with(&self, opts: ReadOptions) -> Result<crate::db_iter::DbIter> {
        let seq = opts.snapshot.unwrap_or_else(|| self.inner.ledger.visible());
        let view = self.inner.view();
        let tables = &self.inner.table_cache;
        // The memtable iterators are lazy and pin their `Arc`s; the
        // sequence cutoff inside DbIter hides any entries applied after
        // `seq` was sampled.
        let mut children: Vec<Box<dyn InternalIterator>> = vec![Box::new(view.mem.iter())];
        if let Some(imm) = &view.imm {
            children.push(Box::new(imm.iter()));
        }
        for f in &view.version.files[0] {
            children.push(Box::new(tables.pinned(f)?.iter()));
        }
        for files in &view.version.files[1..] {
            if files.is_empty() {
                continue;
            }
            let level: Result<Vec<_>> = files
                .iter()
                .map(|f| tables.pinned(f).map(Arc::clone))
                .collect();
            children.push(Box::new(crate::compaction::ChainIterator::new(level?)));
        }
        Ok(crate::db_iter::DbIter::new(
            children,
            Arc::clone(&self.inner.icmp) as Arc<dyn Comparator>,
            seq,
            self.inner.vlog.clone(),
        ))
    }

    /// Streaming iterator at the latest sequence.
    pub fn iter(&self) -> Result<crate::db_iter::DbIter> {
        self.iter_with(ReadOptions::default())
    }

    /// Scans all live user keys in `[start, end)` (end `None` = unbounded),
    /// returning up to `limit` pairs. This is the range-query path YCSB
    /// workload E exercises.
    pub fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self
            .scan_with(ReadOptions::default(), start, end, limit, usize::MAX)?
            .pairs)
    }

    /// Range scan with an additional byte budget: collection stops before
    /// a pair would push the accumulated cost (key + value +
    /// [`SCAN_PAIR_OVERHEAD`] each) past `byte_budget`, and
    /// [`ScanOutcome::complete`] reports whether the range was exhausted.
    /// Serving layers use the budget to keep one scan reply under their
    /// frame cap. A first pair larger than the whole budget yields an
    /// empty, incomplete outcome — the caller must fall back to a point
    /// read for that key.
    pub fn scan_with(
        &self,
        opts: ReadOptions,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        byte_budget: usize,
    ) -> Result<ScanOutcome> {
        // Short scans usually fill their limit; unbounded ones grow.
        let mut pairs = Vec::with_capacity(limit.min(256));
        let (_, complete) = self.scan_each(opts, start, end, limit, byte_budget, &mut |k, v| {
            pairs.push((k.to_vec(), v.to_vec()));
        })?;
        Ok(ScanOutcome { pairs, complete })
    }

    /// The scan loop under [`Db::scan`] and [`Db::scan_with`]: calls
    /// `visit` with each live pair of `[start, end)` in key order, lent
    /// straight from the iterator, until the range, `limit` pairs or
    /// `byte_budget` (see [`Db::scan_with`]) runs out. Returns the
    /// number of pairs visited and whether the range was exhausted. On
    /// an error, pairs already visited stay visited.
    pub fn scan_each(
        &self,
        opts: ReadOptions,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        byte_budget: usize,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<(usize, bool)> {
        let t0 = self.inner.obs.now_micros();
        let mut it = self.iter_with(opts)?;
        it.seek(start);
        let (mut count, mut used, mut complete) = (0usize, 0usize, true);
        while it.valid() {
            let (key, value) = (it.key(), it.value());
            if end.is_some_and(|end| key >= end) {
                break;
            }
            let cost = key.len() + value.len() + SCAN_PAIR_OVERHEAD;
            if count >= limit || used.saturating_add(cost) > byte_budget {
                complete = false;
                break;
            }
            used += cost;
            count += 1;
            visit(key, value);
            it.next();
        }
        self.inner
            .metrics
            .scan_micros
            .record(self.inner.obs.now_micros().saturating_sub(t0));
        it.status()?;
        Ok((count, complete))
    }

    /// Garbage-collects sealed value-log segments: live values are
    /// rewritten to the active segment (through the configured engine's
    /// maintenance slot, so GC contends with compactions for engine
    /// time), dead segments are removed. No-op when separation is off.
    ///
    /// Removal is deferred while any snapshot is registered — a snapshot
    /// reader may still hold pointers into the old segment. Open
    /// [`crate::db_iter::DbIter`]s do *not* pin segments; do not run GC
    /// while holding an iterator across it.
    pub fn collect_value_log(&self) -> Result<VlogGcReport> {
        let inner = &self.inner;
        let Some(v) = &inner.vlog else {
            return Ok(VlogGcReport::default());
        };
        let mut report = VlogGcReport::default();
        let mut remaining_dead = 0u64;
        for segment in v.sealed_segments()? {
            let mut outcome: Result<SegmentGc> = Ok(SegmentGc::Deferred { dead_bytes: 0 });
            inner
                .engine
                .run_maintenance(&mut || outcome = inner.gc_segment(v, segment));
            report.segments_scanned += 1;
            match outcome? {
                SegmentGc::Retired {
                    live_rewritten,
                    bytes_rewritten,
                } => {
                    report.segments_retired += 1;
                    report.values_rewritten += live_rewritten;
                    report.bytes_rewritten += bytes_rewritten;
                }
                SegmentGc::Deferred { dead_bytes } => {
                    report.segments_deferred += 1;
                    remaining_dead += dead_bytes;
                }
            }
        }
        v.publish_gc_gauges(remaining_dead);
        report.dead_bytes_remaining = remaining_dead;
        Ok(report)
    }

    /// Forces the current memtable out and waits until it is flushed.
    pub fn flush(&self) -> Result<()> {
        {
            let mut state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
            if state.mem.is_empty() && state.imm.is_none() {
                return Ok(());
            }
            if !state.mem.is_empty() {
                // Wait for any existing imm first. A background error
                // stops all flush progress, so bail out instead of
                // waiting forever on work that will never happen.
                while state.imm.is_some() {
                    if let Some(e) = &state.bg_error {
                        return Err(Error::ReadOnly(e.clone()));
                    }
                    self.inner.work_done.wait(&mut state);
                }
                state = self.inner.rotate_memtable(state)?;
                let _ = &state;
            }
        }
        self.wait_for_background_quiescence();
        // LOCK-ORDER: db.state 10
        if let Some(e) = self.inner.state.lock().bg_error.clone() {
            return Err(Error::ReadOnly(e));
        }
        Ok(())
    }

    /// Manually compacts the whole key space down, level by level, until
    /// every level above the bottom-most populated one is empty (LevelDB's
    /// `CompactRange`, full-range form). Useful before read-heavy phases
    /// and in benchmarks.
    pub fn compact_all(&self) -> Result<()> {
        self.flush()?;
        for level in 0..NUM_LEVELS - 1 {
            loop {
                {
                    let mut state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
                    if let Some(e) = &state.bg_error {
                        return Err(Error::ReadOnly(e.clone()));
                    }
                    if state.versions.current().num_files(level) == 0 {
                        state.force_compact_level = None;
                        break;
                    }
                    state.force_compact_level = Some(level);
                    self.inner.wake_workers(&state);
                }
                self.wait_for_background_quiescence();
            }
        }
        Ok(())
    }

    /// Blocks until no flush or compaction work is pending or in flight.
    pub fn wait_for_background_quiescence(&self) {
        let mut state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
        self.inner.wake_workers(&state);
        loop {
            let needs_work = state.imm.is_some()
                || state.flush_in_progress
                || state.conflicts.in_flight() > 0
                || state.versions.pick_compaction().is_some()
                || state
                    .force_compact_level
                    .is_some_and(|l| state.versions.pick_compaction_at(l).is_some());
            if !needs_work || state.bg_error.is_some() {
                return;
            }
            self.inner.work_done.wait(&mut state);
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> DbStats {
        let mut stats = self.inner.state.lock().stats.clone(); // LOCK-ORDER: db.state 10
        let (hits, misses) = self.inner.table_cache.block_cache_stats();
        stats.block_cache_hits = hits;
        stats.block_cache_misses = misses;
        stats
    }

    /// Number of files at each level (diagnostic).
    pub fn level_file_counts(&self) -> Vec<usize> {
        let state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
        let v = state.versions.current();
        (0..NUM_LEVELS).map(|l| v.num_files(l)).collect()
    }

    /// The observability bundle this store records into (the one from
    /// [`Options::obs`], or the private wall-clock bundle created at
    /// open).
    pub fn obs(&self) -> Arc<obs::Obs> {
        Arc::clone(&self.inner.obs)
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
            "lsm.metrics" => {
                self.refresh_level_gauges();
                Some(self.inner.obs.registry.export_text())
            }
            "lsm.metrics-json" => {
                self.refresh_level_gauges();
                Some(self.inner.obs.registry.export_json())
            }
            "lsm.trace" => Some(self.inner.obs.trace.export_text()),
            _ => None,
        }
    }

    /// Updates the `lsm.num-files-at-level<N>` gauges from the current
    /// version so metric exports carry the live file counts. The names
    /// keep LevelDB's literal `<N>` property spelling — including the
    /// angle brackets — which is exactly what the JSON export's string
    /// escaping must keep valid.
    fn refresh_level_gauges(&self) {
        let counts = self.level_file_counts();
        for (level, count) in counts.into_iter().enumerate() {
            self.inner
                .obs
                .registry
                .gauge(&format!("lsm.num-files-at-level<{level}>"))
                .set(count as u64);
        }
    }

    /// Human-readable counterpart of LevelDB's `leveldb.stats` property:
    /// one row per level (files, resident bytes, compaction traffic)
    /// plus the aggregate write-path counters.
    pub fn stats_report(&self) -> String {
        use std::fmt::Write as _;
        let (stats, rows) = {
            let state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
            let v = state.versions.current();
            let rows: Vec<(usize, u64)> = (0..NUM_LEVELS)
                .map(|l| {
                    (
                        v.num_files(l),
                        v.files[l].iter().map(|f| f.file_size).sum::<u64>(),
                    )
                })
                .collect();
            (state.stats.clone(), rows)
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "level  files  size_kb  compactions  read_kb  write_kb  files_merged"
        );
        for (level, (files, bytes)) in rows.iter().enumerate() {
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

    /// The configured engine's name.
    pub fn engine_name(&self) -> String {
        self.inner.engine.name().to_string()
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        {
            // Under the state lock: a worker that has just read the flag
            // as clear still holds the lock until it parks on `bg_work`,
            // so it cannot miss this notification.
            let _state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
            self.inner
                .shutting_down
                .store(true, AtomicOrdering::Release);
            self.inner.bg_work.notify_all();
        }
        for handle in self.bg_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

// ------------------------------------------------------------------ inner

type StateGuard<'a> = parking_lot::MutexGuard<'a, DbState>;

impl DbInner {
    /// Fast write admission: when nothing needs the slow path (no
    /// background error, no engine backpressure, healthy L0, memtable not
    /// full) the writer proceeds on atomics alone, without touching the
    /// state lock. Otherwise it falls back to the full LevelDB
    /// `MakeRoomForWrite` loop (slowdowns, stalls, rotation).
    fn ensure_room(&self) -> Result<()> {
        if !self.has_bg_error.load(AtomicOrdering::Acquire)
            && self.engine.write_pressure() == WritePressure::None
            && self.l0_hint.load(AtomicOrdering::Relaxed) < L0_SLOWDOWN_WRITES_TRIGGER
            && self.active_mem_bytes.load(AtomicOrdering::Relaxed) <= self.options.write_buffer_size
        {
            return Ok(());
        }
        let state = self.state.lock(); // LOCK-ORDER: db.state 10
        let state = self.make_room_for_write(state)?;
        drop(state);
        Ok(())
    }

    /// The view to read through: the memtables and version current when
    /// it was published, pinned for as long as the caller holds it. Takes
    /// no `state` lock. A caller reading at "latest" samples
    /// `ledger.visible()` *before* this, never after — see
    /// [`crate::read_view`].
    fn view(&self) -> Arc<ReadView> {
        self.view.load()
    }

    /// Publishes what `state` now holds as the view reads load. Called
    /// wherever `mem`, `imm` or the current version changes, before the
    /// state lock is released (and, at rotation, inside the epoch section).
    // LOCK-HELD: db.state -- takes the guarded DbState by ref.
    fn publish_view(&self, state: &DbState) {
        self.view.publish(ReadView {
            mem: Arc::clone(&state.mem),
            imm: state.imm.clone(),
            version: state.versions.current(),
        });
    }

    /// Raw stored bytes for `key` at `seq` — the tagged encoding when
    /// separation is on, the plain value otherwise. `None` covers both
    /// absent and deleted.
    fn get_stored(&self, key: &[u8], seq: u64) -> Result<Option<Vec<u8>>> {
        self.get_stored_in(key, seq, &self.view())
    }

    /// Lookup against one view. The value-log GC calls this while
    /// holding the state and epoch locks; no lock is taken inside but a
    /// memtable shard's and — on the first probe of a table only — the
    /// table cache's, which rank above both.
    fn get_stored_in(&self, key: &[u8], seq: u64, view: &ReadView) -> Result<Option<Vec<u8>>> {
        let lookup = LookupKey::new(key, seq);
        for mem in std::iter::once(&view.mem).chain(&view.imm) {
            match mem.get(&lookup) {
                MemGet::Value(v) => return Ok(Some(v)),
                MemGet::Deleted => return Ok(None),
                MemGet::NotFound => {}
            }
        }

        let mut probes = 0u32;
        let mut stats = GetStats::default();
        let mut answer = None;
        // Every block seek of every probe decodes into this one buffer.
        let mut found_key = Vec::with_capacity(lookup.internal_key().len());
        for (_, meta) in view.version.files_for_get(&self.icmp, key) {
            probes += 1;
            let table = self.table_cache.pinned(meta)?;
            let Some(value) =
                table.get_counted(lookup.internal_key(), &mut found_key, &mut stats)?
            else {
                continue;
            };
            if let Some(parsed) = parse_internal_key(&found_key) {
                if parsed.user_key == key {
                    // The newest version decides: a value, or a tombstone.
                    if matches!(parsed.value_type, ValueType::Value) {
                        answer = Some(value);
                    }
                    break;
                }
            }
        }
        self.metrics.record_table_probes(probes, &stats);
        Ok(answer)
    }

    /// Collects one sealed value-log segment: rewrites the live records
    /// into the active segment, then removes the file once the copies are
    /// durable. Runs outside all DB locks except for the per-record
    /// install and the final retirement.
    fn gc_segment(&self, v: &Arc<VlogRuntime>, segment: u64) -> Result<SegmentGc> {
        // Cheap early defer: a registered snapshot may read old pointers
        // into this segment, so it cannot be removed yet. (Rewriting live
        // values would be safe but wasted if the next pass defers again.)
        // LOCK-ORDER: db.state 10
        if !self.state.lock().snapshots.is_empty() {
            return Ok(SegmentGc::Deferred { dead_bytes: 0 });
        }
        // A pinned segment holds records appended by a write whose WAL
        // commit is not yet visible. The liveness check below cannot see
        // such a record (its batch is not applied yet), so it would be
        // judged dead and the segment removed — and the write would then
        // commit an acknowledged pointer to a deleted file. Sealed
        // segments take no new appends, so the pin is guaranteed to
        // drain; defer until it does.
        if v.is_pinned(segment) {
            return Ok(SegmentGc::Deferred { dead_bytes: 0 });
        }
        // Pin-drained means every record's installing sequence has been
        // *reserved*; waiting for the reservation watermark makes them
        // *visible*, so the liveness pre-filter below cannot misjudge a
        // just-installed record whose group is still finishing.
        self.ledger.wait_visible(self.reserver.last_reserved());

        let (records, _seg_len) = v.read_segment(segment)?;
        let mut live_rewritten = 0u64;
        let mut bytes_rewritten = 0u64;
        let mut dead_bytes = 0u64;
        for rec in records {
            let old_stored = rec.ptr.encode();
            // Lock-free pre-filter: most records in an old segment are
            // dead (overwritten, deleted, or already rewritten); skip
            // them without touching the write path.
            if self.get_stored(&rec.key, self.ledger.visible())?.as_deref()
                != Some(old_stored.as_slice())
            {
                dead_bytes += rec.encoded_len();
                continue;
            }
            // Copy first, install second: if the install loses a race
            // with a concurrent writer the new copy is orphaned garbage
            // in the active segment — collected when *that* segment gets
            // GC'd — and nothing ever pointed at it.
            // The pin covers the rewrite from its append until the
            // install below is decided and visible (a losing install
            // leaves the copy as unreferenced garbage — unpinning it is
            // then harmless).
            let (new_ptr, _rewrite_pin) = v.append_for_gc(&rec.key, &rec.value)?;
            if v.needs_stage() {
                let n = self.state.lock().versions.new_file_number(); // LOCK-ORDER: db.state 10
                v.stage_segment(n);
            }
            if self.gc_install_if_current(&rec.key, &old_stored, new_ptr.encode())? {
                live_rewritten += 1;
                bytes_rewritten += rec.value.len() as u64;
            } else {
                dead_bytes += rec.encoded_len();
            }
        }

        // Every record judged dead (and every rewrite discarded by a
        // losing install race) was shadowed by some newer record — which
        // may still sit *unsynced* in the WAL. Removing the segment
        // before that shadow is durable would let a power cut drop the
        // shadow and leave a synced, acknowledged pointer dangling. So
        // sync unconditionally before retirement: the rewritten copies
        // (vlog first, then the WAL records that point at them) and every
        // shadowing record already in the WAL buffer become durable
        // before the only other copy of those values disappears.
        v.sync_if_dirty()?;
        {
            let mut epoch = shim_lock(&self.epoch); // LOCK-ORDER: db.epoch 20
            epoch.wal.sync()?;
        }

        // Retire under the state lock: `Db::snapshot` registers under the
        // same lock, so no snapshot can slip in between this check and
        // the removal and then observe a dangling pointer.
        let state = self.state.lock(); // LOCK-ORDER: db.state 10
        if !state.snapshots.is_empty() {
            return Ok(SegmentGc::Deferred { dead_bytes });
        }
        v.remove_segment(segment)?;
        drop(state);
        Ok(SegmentGc::Retired {
            live_rewritten,
            bytes_rewritten,
        })
    }

    /// Atomically re-points `key` at its rewritten value if and only if
    /// its current stored bytes still equal `old_stored`. Holding the
    /// epoch lock stops new sequence reservations; waiting for the
    /// in-flight ones to become visible closes the GC-resurrection race
    /// where a concurrent writer's newer value would be shadowed by the
    /// GC copy.
    fn gc_install_if_current(
        &self,
        key: &[u8],
        old_stored: &[u8],
        new_stored: Vec<u8>,
    ) -> Result<bool> {
        let mut state = self.state.lock(); // LOCK-ORDER: db.state 10
        if let Some(e) = &state.bg_error {
            return Err(Error::ReadOnly(e.clone()));
        }
        let mut epoch = shim_lock(&self.epoch); // LOCK-ORDER: db.epoch 20
                                                // In-flight groups finish their ledger bookkeeping without either
                                                // lock held here, so this wait cannot deadlock.
        self.ledger.wait_visible(self.reserver.last_reserved());
        let seq = self.ledger.visible();
        // The state lock is held, so the published view is what `state`
        // holds right now.
        let current = self.get_stored_in(key, seq, &self.view())?;
        if current.as_deref() != Some(old_stored) {
            return Ok(false);
        }
        let mut batch = WriteBatch::new();
        batch.put(key, &new_stored);
        batch.set_sequence(self.reserver.reserve(1));
        let last_seq = batch.sequence();
        let commit = epoch.wal.add_record(batch.data());
        let group = self.ledger.register(last_seq, 1);
        match commit {
            Ok(()) => {
                apply_batch(&epoch.mem, &batch);
                self.ledger.finish_members(group, 1);
                Ok(true)
            }
            Err(e) => {
                // Same contract as a failed group commit: the WAL tail is
                // unknown, the store goes read-only, and the reserved
                // range is marked applied so the watermark moves past it.
                self.ledger.finish_members(group, 1);
                self.set_bg_error(&mut state, format!("vlog gc wal append failed: {e}"));
                Err(e)
            }
        }
    }

    /// Leads one group commit. The leader drains the queue (up to the
    /// group byte cap), promotes the next queued writer so the pipeline
    /// never idles, then under the epoch lock reserves the group's
    /// sequence range, appends every batch to the WAL (one sync covers
    /// them all), and registers the group with the apply ledger. Members
    /// — including the leader — then apply their own batches into the
    /// shared concurrent memtable in parallel.
    fn lead_group(&self, me: &Arc<WriteWaiter>) -> Result<()> {
        let max_group_bytes = self.options.max_group_commit_bytes.max(1);
        let mut members: Vec<Arc<WriteWaiter>> = Vec::new();
        let mut batches: Vec<WriteBatch> = Vec::new();
        let mut sync = false;

        // A sync commit costs an fsync — orders of magnitude more than
        // an enqueue — so before sealing the group give writers that
        // woke together with this leader (the previous group's members
        // all become visible at once) a scheduling window to reach the
        // queue. Without it, lock-step writers alternate groups of 1
        // and N-1 and half the fsync amortization is lost. Buffered
        // commits are too cheap to ever be worth waiting for.
        if me.sync {
            let mut prev = 1;
            for _ in 0..8 {
                std::thread::yield_now();
                let len = shim_lock(&self.commit_queue).len(); // LOCK-ORDER: db.commit_queue 30
                if len <= prev {
                    break; // nobody new arrived during the last yield
                }
                prev = len;
            }
        }

        // Epoch section: group collection, sequence reservation, WAL
        // append, ledger registration. Holding the epoch lock across all
        // four pins one (WAL, memtable) pair and makes WAL order,
        // sequence order, and ledger order identical — which is what
        // recovery and the visibility watermark both rely on. Collecting
        // *inside* the lock is what makes grouping effective: while the
        // previous leader's commit (and fsync) held the lock, followers
        // piled up in the queue, so group size tracks commit latency.
        let epoch_result = {
            let mut epoch = shim_lock(&self.epoch); // LOCK-ORDER: db.epoch 20
            {
                let mut queue = shim_lock(&self.commit_queue); // LOCK-ORDER: db.commit_queue 30
                debug_assert!(queue.front().is_some_and(|w| Arc::ptr_eq(w, me)));
                let mut bytes = 0usize;
                while let Some(front) = queue.front() {
                    let size = front.batch_size();
                    if !members.is_empty() && bytes + size > max_group_bytes {
                        break;
                    }
                    bytes += size;
                    let Some(w) = queue.pop_front() else { break };
                    members.push(w);
                }
                // The next queued writer leads the following group; it
                // will block on the epoch lock until this commit is done,
                // collecting its own group as writers keep arriving.
                if let Some(next) = queue.front() {
                    next.promote_lead();
                }
            }
            if self.has_bg_error.load(AtomicOrdering::Acquire) {
                // Writes queued behind a sticky background error are
                // rejected as a group (reads keep working).
                None
            } else {
                for w in &members {
                    sync |= w.sync;
                    let b = shim_lock(&w.slot).batch.take(); // LOCK-ORDER: db.waiter.slot 40
                    batches.push(b.unwrap_or_else(WriteBatch::new));
                }
                let total: u64 = batches.iter().map(|b| u64::from(b.count())).sum();
                let start = self.reserver.reserve(total);
                let mut seq = start;
                for b in &mut batches {
                    b.set_sequence(seq);
                    seq += u64::from(b.count());
                }
                let last_seq = seq.saturating_sub(1);
                let commit = (|| -> Result<()> {
                    for b in &batches {
                        epoch.wal.add_record(b.data())?;
                    }
                    if sync {
                        // Durability ordering: the value bytes behind any
                        // pointer in this group must be durable before the
                        // WAL sync that acknowledges the pointer. Appends
                        // racing in from later groups may get synced early
                        // here — harmless, their own leader re-checks.
                        if let Some(v) = &self.vlog {
                            v.sync_if_dirty()?;
                        }
                        epoch.wal.sync()?;
                    }
                    Ok(())
                })();
                let group_id = self.ledger.register(last_seq, members.len());
                Some((Arc::clone(&epoch.mem), group_id, last_seq, commit))
            }
        };

        let Some((mem, group_id, last_seq, commit)) = epoch_result else {
            let msg = self
                .state
                .lock() // LOCK-ORDER: db.state 10
                .bg_error
                .clone()
                .unwrap_or_else(|| "background error".to_string());
            self.metrics.readonly_rejects.add(members.len() as u64);
            for w in members.iter().skip(1) {
                w.complete(Err(Error::ReadOnly(msg.clone())));
            }
            return Err(Error::ReadOnly(msg));
        };

        let now = self.obs.now_micros();
        self.metrics.write_leader.inc();
        self.metrics
            .write_follower
            .add(members.len().saturating_sub(1) as u64);
        self.metrics.group_size.record(members.len() as u64);
        for w in &members {
            self.metrics
                .seq_reserve
                .record(now.saturating_sub(w.enqueued_micros));
        }

        if let Err(e) = commit {
            // A failed append or sync leaves the WAL tail in an unknown
            // state; appending further records behind it could replay as
            // garbage (or silently drop acknowledged writes). First
            // failure is sticky: the store goes read-only. The group is
            // marked fully applied so the visibility watermark skips its
            // (never-persisted, never-acknowledged) sequence range.
            {
                let mut state = self.state.lock(); // LOCK-ORDER: db.state 10
                self.set_bg_error(&mut state, format!("wal commit failed: {e}"));
            }
            self.ledger.finish_members(group_id, members.len());
            for w in members.iter().skip(1) {
                w.complete(Err(replicate_err(&e)));
            }
            return Err(replicate_err(&e));
        }

        // 5. Hand every follower its stamped batch first, then apply our
        // own — members insert into disjoint memtable shards in parallel.
        let mut stamped = batches.into_iter();
        let my_batch = stamped.next().unwrap_or_default();
        for (w, b) in members.iter().skip(1).zip(stamped) {
            w.hand_apply(b, Arc::clone(&mem), group_id, last_seq);
        }
        apply_batch(&mem, &my_batch);
        self.ledger.finish_members(group_id, 1);

        let occupancy = mem.approximate_memory_usage();
        self.active_mem_bytes
            .store(occupancy, AtomicOrdering::Relaxed);
        self.metrics.mem_occupancy.set(occupancy as u64);
        {
            let mut state = self.state.lock(); // LOCK-ORDER: db.state 10
            state.stats.group_commits += 1;
            state.stats.grouped_writes += members.len() as u64;
        }
        self.ledger.wait_visible(last_seq);
        Ok(())
    }

    /// Records a fatal background error. The first error wins and is
    /// sticky: the store is read-only from here on (writes return
    /// [`Error::ReadOnly`]), reads keep working, and everything blocked
    /// on background progress is woken so it can observe the state.
    // LOCK-HELD: db.state -- takes the guarded DbState by &mut.
    fn set_bg_error(&self, state: &mut DbState, msg: String) {
        if state.bg_error.is_none() {
            state.bg_error = Some(msg.clone());
            self.has_bg_error.store(true, AtomicOrdering::Release);
            self.metrics.bg_error_set.inc();
            self.obs.event(obs::EventKind::BgError { message: msg });
        }
        self.work_done.notify_all();
    }

    /// Refreshes the lock-free L0 hint after a version change.
    fn refresh_l0_hint(&self, state: &DbState) {
        self.l0_hint.store(
            state.versions.current().num_files(0),
            AtomicOrdering::Relaxed,
        );
    }

    /// Folds the apply ledger's visibility watermark into
    /// `versions.last_sequence` before it is persisted in a manifest
    /// write (reservations bypass the state lock, so the version set's
    /// copy lags between syncs).
    fn sync_last_sequence(&self, state: &mut DbState) {
        let visible = self.ledger.visible();
        if visible > state.versions.last_sequence {
            state.versions.last_sequence = visible;
        }
    }

    /// Accounts one writer stall: DbStats, the stall counter, and a
    /// `write_stall` trace event.
    fn note_stall(&self, state: &mut DbState, elapsed: Duration) {
        state.stats.stall_time += elapsed;
        let micros = elapsed.as_micros() as u64;
        self.metrics.stall_micros.add(micros);
        self.obs.event(obs::EventKind::WriteStall { micros });
    }

    /// LevelDB `MakeRoomForWrite`: apply slowdown/stop triggers (the DB's
    /// own L0 triggers plus the engine's [`WritePressure`] signal) and
    /// rotate the memtable when full.
    // LOCK-HELD: db.state via state
    fn make_room_for_write<'a>(&'a self, mut state: StateGuard<'a>) -> Result<StateGuard<'a>> {
        let mut allow_delay = true;
        let mut allow_pressure_delay = true;
        loop {
            if let Some(e) = &state.bg_error {
                self.metrics.readonly_rejects.inc();
                return Err(Error::ReadOnly(e.clone()));
            }
            let pressure = self.engine.write_pressure();
            let background_busy =
                state.conflicts.in_flight() > 0 || state.imm.is_some() || state.flush_in_progress;
            if pressure == WritePressure::Stop && background_busy {
                // The offload queue is full: stall this writer until some
                // background work completes, like the L0 stop trigger.
                let t0 = Instant::now();
                self.wake_workers(&state);
                self.work_done.wait(&mut state);
                state.stats.backpressure_stalls += 1;
                self.note_stall(&mut state, t0.elapsed());
                continue;
            }
            if pressure != WritePressure::None && allow_pressure_delay {
                allow_pressure_delay = false;
                state.stats.backpressure_slowdowns += 1;
                state = self.slowdown_write(state);
                continue;
            }
            let l0_files = state.versions.current().num_files(0);
            if allow_delay && l0_files >= L0_SLOWDOWN_WRITES_TRIGGER {
                // Gentle backpressure: one 1 ms pause per write.
                allow_delay = false;
                state = self.slowdown_write(state);
                continue;
            }
            if state.mem.approximate_memory_usage() <= self.options.write_buffer_size {
                return Ok(state);
            }
            if state.imm.is_some() {
                // Previous memtable still flushing.
                if state.offloads_in_flight > 0 && !state.flush_in_progress {
                    // Paper's scheduler: the device is busy compacting, so
                    // the host performs the flush itself, concurrently.
                    state.stats.concurrent_flushes += 1;
                    state = self.flush_immutable(state)?;
                    continue;
                }
                let t0 = Instant::now();
                self.wake_workers(&state);
                self.work_done.wait(&mut state);
                self.note_stall(&mut state, t0.elapsed());
                continue;
            }
            if state.versions.current().num_files(0) >= L0_STOP_WRITES_TRIGGER {
                let t0 = Instant::now();
                self.wake_workers(&state);
                self.work_done.wait(&mut state);
                self.note_stall(&mut state, t0.elapsed());
                continue;
            }
            state = self.rotate_memtable(state)?;
        }
    }

    /// One 1 ms write delay (simulated when `slowdown_sleep` is off).
    // LOCK-HELD: db.state via state
    fn slowdown_write<'a>(&'a self, mut state: StateGuard<'a>) -> StateGuard<'a> {
        if self.options.slowdown_sleep {
            let t0 = Instant::now();
            drop(state);
            std::thread::sleep(Duration::from_millis(1));
            state = self.state.lock(); // LOCK-ORDER: db.state 10
            self.note_stall(&mut state, t0.elapsed());
        } else {
            self.note_stall(&mut state, Duration::from_millis(1));
        }
        state
    }

    /// Epoch handoff: swaps in a fresh memtable + WAL. The old memtable
    /// becomes `imm`; writers already inside a group commit keep applying
    /// into it through the `Arc` they captured under the epoch lock, and
    /// the recorded boundary sequence tells the flush how long to wait
    /// for them. Readers are never blocked — they keep reading whichever
    /// `Arc`s they captured.
    // LOCK-HELD: db.state via state
    fn rotate_memtable<'a>(&'a self, mut state: StateGuard<'a>) -> Result<StateGuard<'a>> {
        debug_assert!(state.imm.is_none());
        let new_log_number = state.versions.new_file_number();
        let file = self
            .options
            .env
            .create_writable(&log_file_name(&self.dir, new_log_number))?;
        // The new WAL's directory entry must survive a power cut or every
        // synced record inside it is unreachable on recovery.
        self.options.env.sync_dir(&self.dir)?;
        let fresh = Arc::new(MemTable::with_shards(
            Arc::clone(&self.icmp),
            self.options.memtable_shards,
        ));
        {
            // LOCK-ORDER: db.epoch 20
            let mut epoch = shim_lock(&self.epoch);
            // Sync the retiring WAL before installing its successor.
            // Without this, a later `sync: true` write only reaches the
            // new WAL, and a power cut could drop acknowledged records
            // stranded in the old WAL's unsynced tail — breaking "a synced
            // write makes every prior acknowledged write durable". With
            // separation on, the vlog syncs first for the same reason the
            // group leader does it: the retiring WAL's pointers must not
            // become durable ahead of their value bytes.
            if let Some(v) = &self.vlog {
                v.sync_if_dirty()?;
            }
            epoch.wal.sync()?;
            epoch.wal = LogWriter::new(file);
            let old_mem = std::mem::replace(&mut epoch.mem, Arc::clone(&fresh));
            // Every sequence reserved so far went through the old epoch
            // (reservation happens under this lock), so `last_reserved` is
            // exactly the boundary between the two memtables.
            state.imm_boundary_seq = self.reserver.last_reserved();
            state.imm = Some(old_mem);
            state.mem = fresh;
            // Still inside the epoch section: no group can reserve a
            // sequence against `fresh` before readers can find it.
            self.publish_view(&state);
        }
        self.active_mem_bytes.store(0, AtomicOrdering::Relaxed);
        state.log_file_number = new_log_number;
        self.wake_workers(&state);
        Ok(state)
    }

    /// Wakes every idle background worker to re-scan for work. Cheap:
    /// workers that find nothing go back to sleep.
    // LOCK-HELD: db.state -- takes the guarded DbState by ref.
    fn wake_workers(&self, _state: &DbState) {
        if !self.shutting_down.load(AtomicOrdering::Acquire) {
            self.bg_work.notify_all();
        }
    }

    /// Builds an SSTable from the immutable memtable and installs it at
    /// level 0 (the paper's first compaction type). Callable from the
    /// background thread or — during an offloaded compaction — from a
    /// writer thread.
    // LOCK-HELD: db.state via state
    fn flush_immutable<'a>(&'a self, mut state: StateGuard<'a>) -> Result<StateGuard<'a>> {
        let Some(imm) = state.imm.clone() else {
            return Ok(state);
        };
        debug_assert!(!state.flush_in_progress);
        state.flush_in_progress = true;
        let file_number = state.versions.new_file_number();
        state.pending_outputs.insert(file_number);
        let log_number = state.log_file_number;
        let boundary = state.imm_boundary_seq;

        // Long-running build happens outside the lock.
        drop(state);
        // Rotation barrier: writers that reserved sequences before the
        // epoch swap may still be applying into this memtable. Once the
        // boundary sequence is visible, every such group has finished, so
        // the iteration below sees a complete table.
        self.ledger.wait_visible(boundary);
        let t0 = self.obs.now_micros();
        let result = write_memtable_table(&self.options, &self.dir, file_number, &imm);
        let flush_micros = self.obs.now_micros().saturating_sub(t0);
        let mut state = self.state.lock(); // LOCK-ORDER: db.state 10
        state.flush_in_progress = false;

        let mut flushed_bytes = 0u64;
        match result {
            Ok(meta) => {
                let mut edit = VersionEdit {
                    log_number: Some(log_number),
                    ..Default::default()
                };
                if let Some(meta) = meta {
                    flushed_bytes = meta.file_size;
                    edit.new_files.push((0, meta));
                }
                self.sync_last_sequence(&mut state);
                if let Err(e) = state.versions.log_and_apply(edit) {
                    // The manifest write failed: the table (if any) is on
                    // disk but not referenced, the WAL still covers the
                    // data, and no further flush can make progress.
                    state.pending_outputs.remove(&file_number);
                    self.set_bg_error(&mut state, format!("flush manifest write failed: {e}"));
                    return Err(e);
                }
            }
            Err(e) => {
                state.pending_outputs.remove(&file_number);
                self.set_bg_error(&mut state, format!("flush failed: {e}"));
                return Err(e);
            }
        }
        state.imm = None;
        // One publication drops `imm` and names the table it became.
        self.publish_view(&state);
        state.pending_outputs.remove(&file_number);
        self.refresh_l0_hint(&state);
        state.stats.flushes += 1;
        self.metrics.flush_count.inc();
        self.metrics.flush_bytes.add(flushed_bytes);
        self.obs.event(obs::EventKind::Flush {
            bytes: flushed_bytes,
            micros: flush_micros,
        });
        self.work_done.notify_all();
        self.delete_obsolete_files_locked(&mut state);
        Ok(state)
    }

    /// Finds the next piece of admissible background work while holding
    /// the state lock. Trivial moves are applied inline (they only touch
    /// metadata); the scan then restarts because the version changed.
    /// Returns `None` when nothing can start right now — either there is
    /// no work, or every candidate conflicts with an in-flight job.
    fn find_work(&self, state: &mut DbState) -> Option<CompactionJob> {
        'rescan: loop {
            if state.imm.is_some() && !state.flush_in_progress {
                return Some(CompactionJob::Flush);
            }

            // Candidate levels: the forced level (manual compaction)
            // first, then every level over its score threshold, most
            // urgent first. The first candidate that passes admission
            // wins; conflicting candidates stay for a later scan.
            let mut levels: Vec<usize> = Vec::new();
            if let Some(l) = state.force_compact_level {
                levels.push(l);
            }
            for l in state.versions.candidate_levels() {
                if !levels.contains(&l) {
                    levels.push(l);
                }
            }
            for level in levels {
                let Some(compaction) = state.versions.pick_compaction_at(level) else {
                    if state.force_compact_level == Some(level) {
                        // A forced level with nothing left to do is done.
                        state.force_compact_level = None;
                        self.work_done.notify_all();
                    }
                    continue;
                };
                let Some(ticket) = state.conflicts.try_admit(job_shape(&compaction)) else {
                    continue;
                };

                if compaction.is_trivial_move() {
                    let f = &compaction.inputs[0][0];
                    let mut edit = VersionEdit::default();
                    edit.deleted_files.push((compaction.level, f.number));
                    edit.new_files.push((compaction.level + 1, (**f).clone()));
                    edit.compact_pointers
                        .push((compaction.level, compaction.largest_input_key.clone()));
                    self.sync_last_sequence(state);
                    let result = state.versions.log_and_apply(edit);
                    state.conflicts.release(ticket);
                    if let Err(e) = result {
                        self.set_bg_error(state, format!("trivial move failed: {e}"));
                        return None;
                    }
                    self.publish_view(state);
                    self.refresh_l0_hint(state);
                    state.stats.trivial_moves += 1;
                    self.work_done.notify_all();
                    continue 'rescan;
                }

                let concurrent = state.conflicts.in_flight() as u64;
                state.stats.max_concurrent_compactions =
                    state.stats.max_concurrent_compactions.max(concurrent);

                // Capture the request context under the lock (paper §IV
                // steps 1-3): L0 files are separate inputs (newest
                // first); deeper-level runs concatenate into one.
                let smallest_snapshot = state
                    .snapshots
                    .keys()
                    .next()
                    .copied()
                    .unwrap_or_else(|| self.ledger.visible());
                let bottommost = {
                    let v = state.versions.current();
                    ((level + 2)..NUM_LEVELS).all(|l| v.num_files(l) == 0)
                };
                let mut input_metas: Vec<Vec<Arc<FileMetaData>>> = Vec::new();
                if level == 0 {
                    for f in &compaction.inputs[0] {
                        input_metas.push(vec![Arc::clone(f)]);
                    }
                } else if !compaction.inputs[0].is_empty() {
                    input_metas.push(compaction.inputs[0].clone());
                }
                if !compaction.inputs[1].is_empty() {
                    input_metas.push(compaction.inputs[1].clone());
                }
                return Some(CompactionJob::Compact(Box::new(AdmittedCompaction {
                    compaction,
                    ticket,
                    smallest_snapshot,
                    bottommost,
                    input_metas,
                })));
            }
            return None;
        }
    }

    /// Executes one admitted compaction outside the state lock and
    /// installs the result. The admission ticket is always released.
    fn execute_compaction(&self, job: AdmittedCompaction) {
        let AdmittedCompaction {
            compaction,
            ticket,
            smallest_snapshot,
            bottommost,
            input_metas,
        } = job;
        let level = compaction.level;

        let mut inputs = Vec::with_capacity(input_metas.len());
        for metas in &input_metas {
            let tables: Result<Vec<_>> = metas
                .iter()
                .map(|m| self.table_cache.pinned(m).map(Arc::clone))
                .collect();
            match tables {
                Ok(tables) => inputs.push(CompactionInput { tables }),
                Err(e) => {
                    let mut state = self.state.lock(); // LOCK-ORDER: db.state 10
                    state.conflicts.release(ticket);
                    self.set_bg_error(&mut state, format!("compaction open failed: {e}"));
                    return;
                }
            }
        }
        let req = CompactionRequest {
            level,
            inputs,
            smallest_snapshot,
            bottommost,
            builder_options: self.options.table_builder_options(),
            max_output_file_size: self.options.max_file_size,
        };

        let input_files: usize = input_metas.iter().map(|m| m.len()).sum();
        let input_bytes: u64 = input_metas.iter().flatten().map(|m| m.file_size).sum();
        self.obs.event(obs::EventKind::CompactionStart {
            level,
            files: input_files,
            bytes: input_bytes,
        });
        let t0 = self.obs.now_micros();

        // Engine dispatch (Fig. 6): offload when the device can take the
        // input count, otherwise software compaction.
        let use_engine = req.inputs.len() <= self.engine.max_inputs();
        let is_offload = use_engine && self.engine.name() != "cpu";
        if is_offload {
            self.state.lock().offloads_in_flight += 1; // LOCK-ORDER: db.state 10
        }
        let factory = DbOutputFactory {
            inner: self,
            allocated: std::sync::Mutex::new(Vec::new()),
        };
        // Transient I/O errors get a bounded number of retries with
        // exponential backoff. Each attempt allocates fresh output file
        // numbers, so a half-written attempt is never installed — its
        // orphans are swept by the obsolete-file GC below (exactly-once
        // install). The backoff is accounted on metrics/trace (injectable
        // clock time); a real sleep happens only under `slowdown_sleep`,
        // keeping deterministic tests free of wall-clock waits.
        let mut attempt: u32 = 0;
        let result = loop {
            let r = if use_engine {
                self.engine.compact(&req, &factory)
            } else {
                CpuCompactionEngine.compact(&req, &factory)
            };
            match r {
                Err(e) if attempt < self.options.compaction_max_retries && is_transient_io(&e) => {
                    attempt += 1;
                    let backoff = self
                        .options
                        .compaction_retry_backoff_micros
                        .saturating_mul(1u64 << (attempt - 1).min(20));
                    self.metrics.compact_retries.inc();
                    self.metrics.compact_retry_backoff.add(backoff);
                    self.obs.event(obs::EventKind::CompactionRetry {
                        level,
                        attempt,
                        backoff_micros: backoff,
                    });
                    if self.options.slowdown_sleep {
                        std::thread::sleep(Duration::from_micros(backoff));
                    }
                }
                r => break r,
            }
        };

        let mut state = self.state.lock(); // LOCK-ORDER: db.state 10
        if is_offload {
            state.offloads_in_flight -= 1;
        }
        state.conflicts.release(ticket);
        // Un-protect exactly this job's outputs: on success they enter
        // the version below (same lock hold, so GC cannot run between);
        // on failure the orphaned files become collectable.
        let allocated = factory.allocated.lock().unwrap_or_else(|e| e.into_inner()); // LOCK-ORDER: db.factory.outputs 60
        for number in allocated.iter() {
            state.pending_outputs.remove(number);
        }
        drop(allocated);
        match result {
            Ok(outcome) => {
                let mut edit = VersionEdit::default();
                for metas in &input_metas {
                    for m in metas {
                        // An input file may appear only once.
                        edit.deleted_files.push((
                            if compaction.inputs[0].iter().any(|f| f.number == m.number) {
                                level
                            } else {
                                level + 1
                            },
                            m.number,
                        ));
                    }
                }
                for out in &outcome.outputs {
                    edit.new_files.push((
                        level + 1,
                        FileMetaData::new(
                            out.number,
                            out.file_size,
                            out.smallest.clone(),
                            out.largest.clone(),
                        ),
                    ));
                }
                edit.compact_pointers
                    .push((level, compaction.largest_input_key.clone()));
                self.sync_last_sequence(&mut state);
                if let Err(e) = state.versions.log_and_apply(edit) {
                    self.set_bg_error(&mut state, format!("compaction install failed: {e}"));
                } else {
                    self.publish_view(&state);
                    self.refresh_l0_hint(&state);
                    let stats = &mut state.stats;
                    if use_engine {
                        stats.engine_compactions += 1;
                    } else {
                        stats.sw_fallback_compactions += 1;
                    }
                    stats.compaction_bytes_read += outcome.bytes_read;
                    stats.compaction_bytes_written += outcome.bytes_written;
                    stats.compaction_time += outcome.wall_time;
                    if let Some(t) = outcome.modeled_kernel_time {
                        stats.modeled_kernel_time += t;
                    }
                    if let Some(t) = outcome.modeled_transfer_time {
                        stats.modeled_transfer_time += t;
                    }
                    let lv = &mut stats.per_level[level];
                    lv.compactions += 1;
                    lv.bytes_read += outcome.bytes_read;
                    lv.bytes_written += outcome.bytes_written;
                    lv.files_merged += input_files as u64;
                    let registry = &self.obs.registry;
                    registry
                        .counter(&format!("lsm.compact.l{level}.count"))
                        .inc();
                    registry
                        .counter(&format!("lsm.compact.l{level}.bytes_read"))
                        .add(outcome.bytes_read);
                    registry
                        .counter(&format!("lsm.compact.l{level}.bytes_written"))
                        .add(outcome.bytes_written);
                    registry
                        .counter(&format!("lsm.compact.l{level}.files_merged"))
                        .add(input_files as u64);
                    self.obs.event(obs::EventKind::CompactionFinish {
                        level,
                        bytes_read: outcome.bytes_read,
                        bytes_written: outcome.bytes_written,
                        micros: self.obs.now_micros().saturating_sub(t0),
                    });
                }
            }
            Err(e) => {
                self.set_bg_error(&mut state, format!("compaction failed: {e}"));
            }
        }
        // Completion may unblock both waiters and conflicting candidates.
        self.work_done.notify_all();
        self.wake_workers(&state);
        self.delete_obsolete_files_locked(&mut state);
    }

    /// Removes files no longer referenced by the current version.
    fn delete_obsolete_files(&self) {
        let mut state = self.state.lock(); // LOCK-ORDER: db.state 10
        self.delete_obsolete_files_locked(&mut state);
    }

    // LOCK-HELD: db.state -- takes the guarded DbState by &mut.
    fn delete_obsolete_files_locked(&self, state: &mut DbState) {
        let mut live: HashSet<u64> = state.versions.live_files().into_iter().collect();
        live.extend(state.pending_outputs.iter().copied());
        let log_number = state.versions.log_number;
        let retain_floor = self.wal_retain_floor.load(AtomicOrdering::Acquire);
        let Ok(names) = self.options.env.list_dir(&self.dir) else {
            return;
        };
        for name in names {
            let Some(ft) = parse_file_name(&name) else {
                continue;
            };
            let (remove, number) = match ft {
                // A rotated-away log is obsolete for recovery, but a
                // replication cursor may still be tailing it: the floor
                // pins every segment a registered replica has not yet
                // acknowledged past.
                FileType::Log(n) => (n < log_number && n < retain_floor, n),
                FileType::Table(n) => (!live.contains(&n), n),
                FileType::Temp(n) => (true, n),
                // Value-log segments are not tracked by the version set;
                // only the GC pass (`Db::collect_value_log`) may remove
                // them, after proving every record is dead or rewritten.
                FileType::ValueLog(_) => continue,
                _ => continue,
            };
            if remove {
                let _ = self.options.env.remove_file(&self.dir.join(&name));
                if matches!(ft, FileType::Table(_)) {
                    self.table_cache.evict(number);
                }
            }
        }
    }
}

/// Reproduces an error for fan-out to every writer in a group (the
/// underlying `std::io::Error` is not `Clone`).
fn replicate_err(e: &Error) -> Error {
    match e {
        Error::ReadOnly(m) => Error::ReadOnly(m.clone()),
        Error::Io(io) => Error::Io(std::io::Error::new(io.kind(), io.to_string())),
        Error::Corruption(m) => Error::Corruption(m.clone()),
        other => Error::Corruption(other.to_string()),
    }
}

/// Transient I/O errors are worth retrying; corruption and logic errors
/// are not (retrying cannot make a bad checksum good).
fn is_transient_io(e: &Error) -> bool {
    matches!(e, Error::Io(_) | Error::Table(sstable::Error::Io(_)))
}

/// One unit of admitted background work.
enum CompactionJob {
    /// Flush the immutable memtable (always runs under the same lock hold
    /// that discovered it, so two workers cannot both take it).
    Flush,
    /// An admitted table compaction, executed outside the lock.
    Compact(Box<AdmittedCompaction>),
}

/// A compaction that passed conflict admission, with its request context
/// captured under the lock that admitted it.
struct AdmittedCompaction {
    compaction: crate::version::Compaction,
    ticket: JobTicket,
    smallest_snapshot: u64,
    bottommost: bool,
    input_metas: Vec<Vec<Arc<FileMetaData>>>,
}

/// The conflict footprint of a picked compaction: both input levels'
/// file numbers and the union of their user-key ranges (outputs land
/// anywhere inside it).
fn job_shape(compaction: &crate::version::Compaction) -> JobShape {
    let mut files = HashSet::new();
    let mut smallest: Option<&[u8]> = None;
    let mut largest: Option<&[u8]> = None;
    for f in compaction.inputs.iter().flatten() {
        files.insert(f.number);
        let lo = f.smallest.user_key();
        let hi = f.largest.user_key();
        if smallest.is_none_or(|s| lo < s) {
            smallest = Some(lo);
        }
        if largest.is_none_or(|l| hi > l) {
            largest = Some(hi);
        }
    }
    JobShape {
        level: compaction.level,
        smallest_user: smallest.unwrap_or_default().to_vec(),
        largest_user: largest.unwrap_or_default().to_vec(),
        files,
    }
}

/// Allocates compaction output files inside the DB directory, remembering
/// the numbers it handed out so a failed job releases exactly its own
/// `pending_outputs` entries.
struct DbOutputFactory<'a> {
    inner: &'a DbInner,
    allocated: std::sync::Mutex<Vec<u64>>,
}

impl OutputFileFactory for DbOutputFactory<'_> {
    fn new_output(&self) -> Result<(u64, Box<dyn WritableFile>)> {
        let number = {
            let mut state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
            let n = state.versions.new_file_number();
            state.pending_outputs.insert(n);
            n
        };
        self.allocated
            .lock() // LOCK-ORDER: db.factory.outputs 60
            .unwrap_or_else(|e| e.into_inner())
            .push(number);
        let path = table_file_name(&self.inner.dir, number);
        // DURABILITY-OK: the compaction executor syncs every output
        // (TableBuilder::sync) before the version install references it.
        let file = self.inner.options.env.create_writable(&path)?;
        Ok((number, file))
    }
}

/// Streams `mem` into table `file_number` and syncs it — the flush,
/// recovery and repair paths' `WriteLevel0Table`. `None` when `mem` is
/// empty (no file is created).
pub(crate) fn write_memtable_table(
    options: &Options,
    dir: &Path,
    file_number: u64,
    mem: &Arc<MemTable>,
) -> Result<Option<FileMetaData>> {
    let mut it = mem.iter();
    it.seek_to_first();
    if !it.valid() {
        return Ok(None);
    }
    let file = options
        .env
        .create_writable(&table_file_name(dir, file_number))?;
    let mut builder = TableBuilder::new(options.table_builder_options(), file);
    let smallest = InternalKey::from_encoded(it.key().to_vec());
    let mut largest = Vec::new();
    while it.valid() {
        builder.add(it.key(), it.value())?;
        largest.clear();
        largest.extend_from_slice(it.key());
        it.next();
    }
    let file_size = builder.finish()?;
    builder.sync()?;
    Ok(Some(FileMetaData::new(
        file_number,
        file_size,
        smallest,
        InternalKey::from_encoded(largest),
    )))
}

/// Background worker: flushes and compactions until shutdown. All workers
/// run this loop; the conflict checker keeps their picks disjoint.
fn background_thread(inner: Arc<DbInner>) {
    loop {
        let job = {
            let mut state = inner.state.lock(); // LOCK-ORDER: db.state 10
            loop {
                if inner.shutting_down.load(AtomicOrdering::Acquire) {
                    return;
                }
                if state.bg_error.is_none() {
                    match inner.find_work(&mut state) {
                        Some(CompactionJob::Flush) => {
                            // Consumes the guard; `flush_in_progress` is
                            // set before the lock drops for table I/O.
                            match inner.flush_immutable(state) {
                                Ok(s) => state = s,
                                Err(_) => state = inner.state.lock(), // LOCK-ORDER: db.state 10
                            }
                            // L0 grew (or an error idled us): re-scan.
                            inner.wake_workers(&state);
                            continue;
                        }
                        Some(CompactionJob::Compact(job)) => break job,
                        None => {}
                    }
                }
                inner.bg_work.wait(&mut state);
            }
        };
        inner.execute_compaction(*job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::env::MemEnv;

    fn test_options(env: Arc<MemEnv>) -> Options {
        Options {
            env,
            write_buffer_size: 64 << 10,
            slowdown_sleep: false,
            ..Options::default()
        }
    }

    /// A separated store reopened WITHOUT the separation option must
    /// still resolve pointers (resolve-only recovery) — the alternative
    /// is handing tagged stored bytes to the caller, i.e. silent
    /// garbage from tools that open with default options.
    #[test]
    fn separated_store_reopens_readable_without_option() {
        let env = Arc::new(MemEnv::new());
        let with_vlog = Options {
            value_log_threshold_bytes: Some(64),
            value_log_segment_bytes: 4 << 10,
            ..test_options(Arc::clone(&env))
        };
        let big = vec![0xabu8; 512];
        {
            let db = Db::open("/sep", with_vlog).unwrap();
            for i in 0..50u32 {
                db.put(format!("k{i:04}").as_bytes(), &big).unwrap();
                db.put(format!("s{i:04}").as_bytes(), b"small").unwrap();
            }
            db.flush().unwrap();
        }
        let db = Db::open("/sep", test_options(Arc::clone(&env))).unwrap();
        for i in 0..50u32 {
            let got = db.get(format!("k{i:04}").as_bytes()).unwrap();
            assert_eq!(got.as_deref(), Some(big.as_slice()), "pointer k{i:04}");
            let small = db.get(format!("s{i:04}").as_bytes()).unwrap();
            assert_eq!(small.as_deref(), Some(b"small".as_ref()));
        }
        // New writes stay inline (threshold is effectively infinite)
        // but coexist with resolved pointers.
        db.put(b"post", &big).unwrap();
        assert_eq!(db.get(b"post").unwrap().as_deref(), Some(big.as_slice()));
        assert_eq!(
            db.get(b"k0007").unwrap().as_deref(),
            Some(big.as_slice()),
            "old pointers readable after new inline writes"
        );
    }

    /// Reads go through the published view, not through `db.state`: with
    /// the state lock held by this thread — as a flush or compaction
    /// install holds it — a memtable hit, a table hit, an absent key and
    /// an iterator seek on another thread all complete.
    #[test]
    fn get_and_iter_do_not_take_the_state_lock() {
        let env = Arc::new(MemEnv::new());
        let db = Db::open("/view", test_options(env)).unwrap();
        db.put(b"in-table", b"t").unwrap();
        db.flush().unwrap();
        db.put(b"in-memtable", b"m").unwrap();

        let (done, finished) = std::sync::mpsc::channel();
        let state = db.inner.state.lock(); // LOCK-ORDER: db.state 10
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(db.get(b"in-memtable").unwrap().as_deref(), Some(&b"m"[..]));
                assert_eq!(db.get(b"in-table").unwrap().as_deref(), Some(&b"t"[..]));
                assert_eq!(db.get(b"absent").unwrap(), None);
                let mut it = db.iter_with(ReadOptions::default()).unwrap();
                it.seek(b"in-table");
                assert!(it.valid());
                assert_eq!((it.key(), it.value()), (&b"in-table"[..], &b"t"[..]));
                done.send(()).unwrap();
            });
            let outcome = finished.recv_timeout(Duration::from_secs(20));
            // Released before judging, so a blocked reader can finish and
            // the scope can join it.
            drop(state);
            outcome.expect("a read waited for db.state");
        });
    }

    /// The tentpole invariant: writers on several threads share group
    /// commits, every acknowledged write is immediately readable, and the
    /// store's contents match a single-threaded model afterwards — across
    /// memtable rotations and flushes.
    #[test]
    fn concurrent_writers_group_commit_and_read_back() {
        let env = Arc::new(MemEnv::new());
        let db = Db::open("/mw", test_options(env)).unwrap();
        const WRITERS: u64 = 4;
        const OPS: u64 = 300;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let db = &db;
                s.spawn(move || {
                    for i in 0..OPS {
                        let key = format!("w{w}-{i:05}");
                        let value = key.repeat(8);
                        let mut batch = WriteBatch::new();
                        batch.put(key.as_bytes(), value.as_bytes());
                        if i % 7 == 0 && i > 0 {
                            // Batches with several ops keep sequence
                            // ranges wider than one.
                            batch.delete(format!("w{w}-{:05}", i - 1).as_bytes());
                        }
                        let opts = WriteOptions { sync: i % 64 == 0 };
                        db.write(batch, opts).unwrap();
                        if i % 50 == 0 {
                            // Read-your-writes: the ack implies
                            // visibility.
                            let got = db.get(key.as_bytes()).unwrap();
                            assert_eq!(got.as_deref(), Some(value.as_bytes()));
                        }
                    }
                });
            }
        });
        // Model check: every key written and not later deleted is present
        // with the right value; deleted keys are gone.
        for w in 0..WRITERS {
            for i in 0..OPS {
                let key = format!("w{w}-{i:05}");
                let expect_deleted = i + 1 < OPS && (i + 1) % 7 == 0;
                let got = db.get(key.as_bytes()).unwrap();
                if expect_deleted {
                    assert_eq!(got, None, "key {key} should be deleted");
                } else {
                    assert_eq!(
                        got.as_deref(),
                        Some(key.repeat(8).as_bytes()),
                        "key {key} missing or wrong"
                    );
                }
            }
        }
        let stats = db.stats();
        assert!(stats.group_commits >= 1);
        assert!(stats.grouped_writes >= stats.group_commits);
        let metrics = db.property("lsm.metrics").unwrap();
        assert!(metrics.contains("lsm.write.leader"));
        assert!(metrics.contains("lsm.write.seq_reserve"));
    }

    /// A snapshot taken between two concurrent write phases stays frozen
    /// while later writes proceed, and iterators agree with point reads.
    #[test]
    fn snapshot_isolation_under_concurrent_writes() {
        let env = Arc::new(MemEnv::new());
        let db = Db::open("/snap", test_options(env)).unwrap();
        for i in 0..100u32 {
            db.put(format!("k{i:03}").as_bytes(), b"v1").unwrap();
        }
        let snap = db.snapshot();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..100u32 {
                        db.put(format!("k{i:03}").as_bytes(), b"v2").unwrap();
                    }
                });
            }
        });
        let opts = ReadOptions {
            snapshot: Some(snap.sequence),
        };
        for i in 0..100u32 {
            let key = format!("k{i:03}");
            assert_eq!(
                db.get_with(key.as_bytes(), opts).unwrap().as_deref(),
                Some(&b"v1"[..])
            );
            assert_eq!(db.get(key.as_bytes()).unwrap().as_deref(), Some(&b"v2"[..]));
        }
        let mut it = db.iter().unwrap();
        it.seek_to_first();
        let mut n = 0;
        while it.valid() {
            assert_eq!(it.value(), b"v2");
            n += 1;
            it.next();
        }
        assert_eq!(n, 100);
    }
}
