//! The database handle and the state its modules share.
//!
//! Scheduling is LevelDB v1.x's: one background thread handles memtable
//! flushes and SSTable compactions, one at a time, picking its work under
//! the big lock. When the configured [`CompactionEngine`] is an offload
//! engine (the FPGA), the paper's key scheduling change applies (§IV,
//! Fig. 6): a flush may proceed *concurrently* with the in-flight
//! offloaded compaction, on the writer's thread, because the host CPU is
//! idle while the device merges. Several stores may share one offload
//! service; their compactions are what overlap on its engine slots.
//! Engines may also push back on writers via
//! [`crate::compaction::WritePressure`]; the DB translates that into its
//! L0-style slowdown/stall mechanics.
//!
//! This file holds [`Db`], [`DbInner`] and [`DbState`], and the two
//! mechanisms every module goes through: the sticky background error
//! ([`DbInner::set_bg_error`]) and the version install
//! ([`DbInner::install`]). The rest of `impl Db` / `impl DbInner` lives
//! beside the locks it takes:
//!
//! | module | holds | locks it takes |
//! |--------|-------|----------------|
//! | `open.rs` | recovery: manifest, value log, WAL replay, first install | none (nothing is shared yet) |
//! | `write.rs` | commit queue, group leader, the WAL commit step, stalls, rotation | `db.state`, `db.epoch`, `db.commit_queue`, `db.waiter.slot` |
//! | `read.rs` | `get`, iterators, scans — through the published view only | `db.view` (leaf) |
//! | `background.rs` | the background thread's loop, flush, compaction dispatch and install, obsolete files | `db.state`, `db.factory.outputs` |
//! | `vlog_gc.rs` | value-log segment collection | `db.state`, `db.epoch` |
//! | `repl.rs` | WAL tailing for a leader, `apply_replicated` for a replica | `db.state`, `db.epoch` |
//! | `stats.rs` | metric handles, `DbStats` as a view of them, properties | none for `stats()`; `db.state` to read the version for a property |

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

use crate::compaction::{CompactionEngine, CpuCompactionEngine};
use crate::memtable::MemTable;
use crate::options::{Options, ReadOptions, WriteOptions, NUM_LEVELS};
use crate::read_view::{ReadView, ViewCell};
use crate::stats::DbMetrics;
use crate::sync_shim::{Condvar, Mutex, MutexGuard};
use crate::table_cache::TableOpener;
use crate::version::{VersionEdit, VersionSet};
use crate::vlog::VlogRuntime;
use crate::write::{CommitQueue, WalEpoch};
use crate::write_batch::WriteBatch;
use crate::{Error, Result};

pub(crate) struct DbState {
    /// The active memtable. Shared (`Arc`) because group commits apply
    /// into it without holding this lock; `epoch.mem` points at the same
    /// table and is the copy writers pair with the WAL.
    pub(crate) mem: Arc<MemTable>,
    pub(crate) imm: Option<Arc<MemTable>>,
    pub(crate) versions: VersionSet,
    /// Number of the WAL backing the active memtable. `versions.log_number`
    /// lags behind until the immutable memtable is flushed, so the old WAL
    /// survives a crash that happens mid-flush.
    pub(crate) log_file_number: u64,
    /// The compaction the background thread has picked and not yet
    /// installed or abandoned, and where it runs.
    pub(crate) compacting: Option<Compacting>,
    /// Guards against two concurrent flushes.
    pub(crate) flush_in_progress: bool,
    /// Manual compaction request: drain this level regardless of score.
    pub(crate) force_compact_level: Option<usize>,
    /// Outstanding snapshots: sequence -> refcount.
    pub(crate) snapshots: BTreeMap<u64, u64>,
    /// The largest `smallest_snapshot` of any installed compaction:
    /// versions at or below it may be gone from the tables, so no read
    /// runs below it (see [`crate::read_view`]).
    pub(crate) compaction_horizon: u64,
    /// File numbers being written by an in-flight flush or compaction;
    /// protected from obsolete-file GC until installed in a version
    /// (LevelDB's `pending_outputs_`).
    pub(crate) pending_outputs: HashSet<u64>,
}

/// Where the background thread's compaction runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Compacting {
    /// Merging on the background thread: the configured engine is the
    /// CPU one, or the job has more inputs than the device takes.
    OnHost,
    /// Going to an offload engine, which leaves the host idle.
    Offloaded,
}

pub(crate) struct DbInner {
    pub(crate) dir: PathBuf,
    pub(crate) options: Options,
    pub(crate) engine: Arc<dyn CompactionEngine>,
    pub(crate) obs: Arc<obs::Obs>,
    pub(crate) metrics: DbMetrics,
    pub(crate) state: Mutex<DbState>,
    /// What reads see: `state`'s memtables and current version, republished
    /// (under `state`) whenever one of them changes and loaded by readers
    /// without it. See [`crate::read_view`].
    pub(crate) view: ViewCell,
    /// The WAL epoch: the log, the memtable it recovers into, and the log
    /// file number swap *together* under this lock, so a group leader
    /// always pairs its WAL append with the matching memtable even while
    /// a rotation is in flight. Every commit stamps, appends, applies and
    /// publishes its sequences inside one hold. Lock order: `state` may
    /// be acquired before `epoch`, never after.
    pub(crate) epoch: Mutex<WalEpoch>,
    /// Writers awaiting group commit behind the current leader.
    pub(crate) commit_queue: Mutex<CommitQueue>,
    /// The visible sequence: every write at or below it is in a memtable.
    /// Stored (`Release`) only by [`crate::write::WalEpoch::commit`],
    /// under `epoch` and after its apply; loaded (`Acquire`) without a
    /// lock by [`DbInner::visible`], so a reader that sees a sequence
    /// also sees the view published before it (see [`crate::read_view`]).
    pub(crate) visible: crate::sync_shim::atomic::AtomicU64,
    /// The sticky background error: empty while the store is writable,
    /// set once by [`DbInner::record_bg_error`], read without any lock.
    pub(crate) bg_error: OnceLock<String>,
    /// The current version's L0 file count, stored under `state` by open
    /// and by every [`DbInner::install`]: exact for a caller holding
    /// `state`, a hint for the write fast path that skips the lock.
    pub(crate) l0_hint: AtomicUsize,
    /// Active memtable bytes after the most recent group commit; reset to
    /// zero at rotation. Fast-path room check only — the authoritative
    /// value is `state.mem.approximate_memory_usage()`.
    pub(crate) active_mem_bytes: AtomicUsize,
    /// Signaled when background work completes.
    pub(crate) work_done: Condvar,
    /// Signaled to wake the background thread.
    pub(crate) bg_work: Condvar,
    /// Opens a table on its first probe; the reader then lives in the
    /// file's slot ([`crate::table_cache`]).
    pub(crate) tables: TableOpener,
    /// Key-value separation runtime; `None` when
    /// [`Options::value_log_threshold_bytes`] is unset (values stay in
    /// the tree, legacy encoding).
    pub(crate) vlog: Option<Arc<VlogRuntime>>,
    /// WAL segments numbered at or above this floor are retained even
    /// after rotation makes them obsolete for recovery — they may still
    /// feed a replication cursor. `u64::MAX` (the default) disables
    /// pinning; a replicating leader lowers it to the slowest registered
    /// replica's acknowledged segment.
    pub(crate) wal_retain_floor: AtomicU64,
    pub(crate) shutting_down: AtomicBool,
}

pub(crate) type StateGuard<'a> = MutexGuard<'a, DbState>;

/// A LevelDB-like key-value store.
///
/// Cloning the handle is cheap; the database shuts down when the last
/// handle drops.
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
    /// The background thread; taken and joined when the handle drops.
    pub(crate) bg_thread: Option<std::thread::JoinHandle<()>>,
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

    /// Inserts or overwrites `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1, key.len() + value.len());
        batch.put(key, value);
        self.write(batch, WriteOptions::default())
    }

    /// Deletes `key`.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1, key.len());
        batch.delete(key);
        self.write(batch, WriteOptions::default())
    }

    /// Point lookup at the latest sequence.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, ReadOptions::default())
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

    /// Takes a consistent snapshot for reads.
    pub fn snapshot(&self) -> Snapshot {
        // LOCK-ORDER: db.state 10
        let mut state = self.inner.state.lock();
        // Sampled under the state lock so a concurrent compaction cannot
        // capture a smallest-snapshot above this sequence before the
        // registration below lands.
        let seq = self.inner.visible();
        *state.snapshots.entry(seq).or_insert(0) += 1;
        Snapshot {
            inner: Arc::clone(&self.inner),
            sequence: seq,
        }
    }

    /// The visible sequence: every write at or below it is applied and
    /// readable. Leaders hand it to clients as a read-your-writes token;
    /// replicas compare it against tokens to decide wait-or-redirect.
    pub fn visible_sequence(&self) -> u64 {
        self.inner.visible()
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

    /// The configured engine's name.
    pub fn engine_name(&self) -> String {
        self.inner.engine.name().to_string()
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        {
            // Under the state lock: a background thread that has just
            // read the flag as clear still holds the lock until it parks
            // on `bg_work`, so it cannot miss this notification.
            let _state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
            self.inner
                .shutting_down
                .store(true, AtomicOrdering::Release);
            self.inner.bg_work.notify_one();
        }
        if let Some(handle) = self.bg_thread.take() {
            let _ = handle.join();
        }
    }
}

impl DbInner {
    /// The visible sequence (the default read snapshot): every write at
    /// or below it is applied and readable.
    pub(crate) fn visible(&self) -> u64 {
        self.visible.load(AtomicOrdering::Acquire)
    }

    /// The view to read through: the memtables and version current when
    /// it was published, pinned for as long as the caller holds it. Takes
    /// no `state` lock. A caller reading at "latest" samples
    /// [`DbInner::visible`] *before* this, never after — see
    /// [`crate::read_view`].
    pub(crate) fn view(&self) -> Arc<ReadView> {
        self.view.load()
    }

    /// Publishes what `state` now holds as the view reads load. Called
    /// wherever `mem`, `imm` or the current version changes, before the
    /// state lock is released (and, at rotation, inside the epoch section).
    // LOCK-HELD: db.state -- takes the guarded DbState by ref.
    pub(crate) fn publish_view(&self, state: &DbState) {
        self.view.publish(ReadView {
            mem: Arc::clone(&state.mem),
            imm: state.imm.clone(),
            version: state.versions.current(),
            horizon: state.compaction_horizon,
        });
    }

    /// The one version install: flush, trivial move and compaction all
    /// make their edit current through here, in this order —
    ///
    /// 1. fold the visible sequence into `versions.last_sequence`
    ///    (commits bypass the state lock, so the version set's copy lags
    ///    between manifest writes);
    /// 2. `log_and_apply`: manifest record written and synced, version
    ///    swapped. A failure is a background error named after `what`
    ///    and nothing below runs;
    /// 3. publish the view that names the new version — *before* the
    ///    caller's `delete_obsolete_files_locked` in the same lock hold,
    ///    so no reader can load a view whose files are being removed.
    ///    The replaced view is usually the last holder of the old
    ///    version: the input tables it alone named close here;
    /// 4. store the L0 count for the write path and wake whoever waits
    ///    on background progress.
    ///
    /// A caller that changes `mem`/`imm` with the edit (the flush drops
    /// `imm`) does so before calling, so step 3 publishes both at once.
    // LOCK-HELD: db.state -- takes the guarded DbState by &mut.
    pub(crate) fn install(&self, state: &mut DbState, edit: VersionEdit, what: &str) -> Result<()> {
        state.versions.last_sequence = state.versions.last_sequence.max(self.visible());
        if let Err(e) = state.versions.log_and_apply(edit) {
            self.set_bg_error(state, format!("{what} failed: {e}"));
            return Err(e);
        }
        self.publish_view(state);
        self.l0_hint.store(
            state.versions.current().num_files(0),
            AtomicOrdering::Relaxed,
        );
        self.work_done.notify_all();
        Ok(())
    }

    /// `Err(ReadOnly)` once a background error has made the store
    /// read-only.
    pub(crate) fn writable(&self) -> Result<()> {
        match self.bg_error.get() {
            Some(e) => Err(Error::ReadOnly(e.clone())),
            None => Ok(()),
        }
    }

    /// Records a fatal background error, holding nothing. The first error
    /// wins and is sticky: the store is read-only from here on (writes
    /// return [`Error::ReadOnly`]), reads keep working. Wakes nobody — a
    /// thread between its `writable()` check and its wait on `work_done`
    /// holds `state`, so the wake-up is [`DbInner::set_bg_error`]'s, or
    /// [`DbInner::wake_after_commit_error`]'s for the commit step.
    pub(crate) fn record_bg_error(&self, msg: String) {
        if self.bg_error.set(msg.clone()).is_ok() {
            self.metrics.bg_error_set.inc();
            self.obs.event(obs::EventKind::BgError { message: msg });
        }
    }

    /// [`DbInner::record_bg_error`] under `state`, then wakes everything
    /// blocked on background progress so it can observe the error.
    // LOCK-HELD: db.state -- takes the guarded DbState by &mut.
    pub(crate) fn set_bg_error(&self, _state: &mut DbState, msg: String) {
        self.record_bg_error(msg);
        self.work_done.notify_all();
    }

    /// Replenishes the value log's staged segment number after a rotation
    /// consumed it. Called by whoever just appended, outside the vlog
    /// writer lock (the state lock ranks below it).
    pub(crate) fn restage_vlog(&self, v: &VlogRuntime) {
        if v.needs_stage() {
            let n = self.state.lock().versions.new_file_number(); // LOCK-ORDER: db.state 10
            v.stage_segment(n);
        }
    }

    /// Wakes the background thread, if idle, to re-scan for work. Cheap:
    /// finding nothing, it goes back to sleep.
    // LOCK-HELD: db.state -- takes the guarded DbState by ref.
    pub(crate) fn wake_worker(&self, _state: &DbState) {
        if !self.shutting_down.load(AtomicOrdering::Acquire) {
            self.bg_work.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::env::MemEnv;
    use std::time::Duration;

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

    /// Runs `work` on another thread while this one holds `db.state` — as
    /// a flush or compaction install holds it — and fails if it does not
    /// finish until the lock is released.
    fn completes_while_state_is_held(db: &Db, work: impl FnOnce() + Send) {
        let (done, finished) = std::sync::mpsc::channel();
        let state = db.inner.state.lock(); // LOCK-ORDER: db.state 10
        std::thread::scope(|s| {
            s.spawn(|| {
                work();
                done.send(()).unwrap();
            });
            let outcome = finished.recv_timeout(Duration::from_secs(20));
            // Released before judging, so blocked work can finish and the
            // scope can join it.
            drop(state);
            outcome.expect("the operation waited for db.state");
        });
    }

    /// Reads go through the published view, not through `db.state`: a
    /// memtable hit, a table hit, an absent key and an iterator seek all
    /// complete while it is held.
    #[test]
    fn get_and_iter_do_not_take_the_state_lock() {
        let env = Arc::new(MemEnv::new());
        let db = Db::open("/view", test_options(env)).unwrap();
        db.put(b"in-table", b"t").unwrap();
        db.flush().unwrap();
        db.put(b"in-memtable", b"m").unwrap();
        completes_while_state_is_held(&db, || {
            assert_eq!(db.get(b"in-memtable").unwrap().as_deref(), Some(&b"m"[..]));
            assert_eq!(db.get(b"in-table").unwrap().as_deref(), Some(&b"t"[..]));
            assert_eq!(db.get(b"absent").unwrap(), None);
            let mut it = db.iter_with(ReadOptions::default()).unwrap();
            it.seek(b"in-table");
            assert!(it.valid());
            assert_eq!((it.key(), it.value()), (&b"in-table"[..], &b"t"[..]));
        });
    }

    /// Nor does a group commit: a buffered put into a memtable with room
    /// is counted on the registry, not under `db.state`.
    #[test]
    fn put_with_room_does_not_take_the_state_lock() {
        let db = Db::open("/put", test_options(Arc::new(MemEnv::new()))).unwrap();
        completes_while_state_is_held(&db, || db.put(b"k", b"v").unwrap());
        assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!(db.stats().group_commits, 1);
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
