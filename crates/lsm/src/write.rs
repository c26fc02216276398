//! The write path: the commit queue and its group leader, the one WAL
//! commit step, write stalls, and memtable rotation.
//!
//! One rule for every signal on this path: it goes only to a waiter that
//! is parked, and a writer never signals itself. A writer that finds no
//! leader leads with nothing to be woken through; a condvar is notified
//! only when the state under its own mutex records a parked thread.

use std::collections::VecDeque;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sstable::comparator::InternalKeyComparator;
use sstable::ikey::ValueType;

use crate::compaction::WritePressure;
use crate::db::{Db, DbInner, StateGuard};
use crate::filename::log_file_name;
use crate::memtable::MemTable;
use crate::options::{WriteOptions, L0_SLOWDOWN_WRITES_TRIGGER, L0_STOP_WRITES_TRIGGER};
use crate::sync_shim::{Condvar, Mutex};
use crate::vlog::AppendPin;
use crate::wal::LogWriter;
use crate::write_batch::{BatchOp, WriteBatch};
use crate::{Error, Result};

/// The WAL and the memtable it replays into, swapped atomically at
/// rotation.
pub(crate) struct WalEpoch {
    pub(crate) wal: LogWriter,
    pub(crate) mem: Arc<MemTable>,
}

impl WalEpoch {
    /// The one commit step, shared by a group leader, a replica's apply
    /// and a value-log GC rewrite. `mine` and the `followers`' batches are
    /// one group; under this epoch lock hold the step
    ///
    /// 1. stamps them with consecutive sequences from the visible
    ///    sequence + 1 — or, for a replica (`replicated_end` set), keeps
    ///    the leader's stamps, whose range ends at `replicated_end`;
    /// 2. appends one WAL record per batch, and makes them durable when
    ///    `sync` is set;
    /// 3. applies every batch into `self.mem`;
    /// 4. stores the last sequence as the visible one, and returns it.
    ///
    /// WAL order, sequence order, apply order and visibility are thereby
    /// one order, and a sequence is visible only once it and everything
    /// below it is in the memtable.
    ///
    /// **Sync order.** The value log syncs *before* the WAL: the value
    /// bytes behind any pointer in these records must be durable before
    /// the WAL sync that acknowledges the pointer. (Appends racing in
    /// from later groups may get synced early — harmless, their own
    /// commit re-checks.)
    ///
    /// **Failure contract.** A failed append or sync leaves the WAL tail
    /// in an unknown state; appending further records behind it could
    /// replay as garbage or silently drop acknowledged writes. So the
    /// first failure is sticky, and it sticks *here*, inside the epoch
    /// section: the store is read-only (an error named after `what`)
    /// before the next committer can take `db.epoch`. Nothing is applied;
    /// the visible sequence still moves past the stamped range, which is
    /// skipped, not left pending — no read can tell, as the range holds
    /// nothing. The caller, once it has released `db.epoch`, owes the
    /// threads parked on `work_done` a wake-up
    /// ([`DbInner::wake_after_commit_error`]).
    // LOCK-HELD: db.epoch -- a method of the guarded value.
    pub(crate) fn commit(
        &mut self,
        db: &DbInner,
        what: &str,
        mine: &mut WriteBatch,
        followers: &mut [QueuedWrite],
        sync: bool,
        replicated_end: Option<u64>,
    ) -> Result<u64> {
        let visible = db.visible();
        let mut next = visible + 1;
        if replicated_end.is_none() {
            for batch in group(mine, followers) {
                batch.set_sequence(next);
                next += u64::from(batch.count());
            }
        }
        let appended = (|| {
            for batch in group(mine, followers) {
                self.wal.add_record(batch.data())?;
            }
            if sync {
                if let Some(v) = &db.vlog {
                    v.sync_if_dirty()?;
                }
                self.wal.sync()?;
            }
            Ok(())
        })();
        let last_seq = replicated_end.unwrap_or(next - 1).max(visible);
        if let Err(e) = appended {
            db.record_bg_error(format!("{what} failed: {e}"));
            db.visible.store(last_seq, AtomicOrdering::Release);
            return Err(e);
        }
        for batch in group(mine, followers) {
            apply_batch(&self.mem, batch);
        }
        db.visible.store(last_seq, AtomicOrdering::Release);
        db.note_occupancy(&self.mem);
        Ok(last_seq)
    }
}

/// A group's batches in commit order: the leader's, then its followers'.
fn group<'a>(
    mine: &'a mut WriteBatch,
    followers: &'a mut [QueuedWrite],
) -> impl Iterator<Item = &'a mut WriteBatch> {
    std::iter::once(mine).chain(followers.iter_mut().map(|f| &mut f.write.batch))
}

/// One write on its way through a group commit.
struct PendingWrite {
    batch: WriteBatch,
    sync: bool,
    /// `Db::write`'s entry timestamp, for the `lsm.write.seq_reserve`
    /// histogram.
    enqueued_micros: u64,
}

/// The commit queue. The leader is not in it: `leading` says one exists
/// (collecting, or on its way to the epoch lock), `waiting` holds the
/// writers that arrived behind it.
#[derive(Default)]
pub(crate) struct CommitQueue {
    leading: bool,
    waiting: VecDeque<QueuedWrite>,
}

/// A writer parked behind a leader, with the write it brought.
pub(crate) struct QueuedWrite {
    write: PendingWrite,
    waiter: Arc<WriteWaiter>,
}

/// Where a queued writer waits for the leader's word. A writer that
/// found no leader never has one: nobody signals it.
struct WriteWaiter {
    slot: Mutex<WaiterSlot>,
    cv: Condvar,
}

#[derive(Default)]
struct WaiterSlot {
    assignment: Option<Assignment>,
    /// Whether the owner is parked on `cv`; `assign` notifies only then.
    parked: bool,
}

/// What a leader tells a queued writer.
enum Assignment {
    /// Promoted: lead the next group, starting with the write handed back.
    Lead(PendingWrite),
    /// Finished by the leader: committed, applied and visible, or the
    /// group's error.
    Done(Result<()>),
}

impl WriteWaiter {
    fn new() -> Self {
        WriteWaiter {
            slot: Mutex::new(WaiterSlot::default()),
            cv: Condvar::new(),
        }
    }

    /// Hands the owner its assignment, waking it if it is parked.
    // LOCK-HELD: db.epoch -- a promotion is made inside the leader's epoch section.
    fn assign(&self, assignment: Assignment) {
        let mut slot = self.slot.lock(); // LOCK-ORDER: db.waiter.slot 40
        slot.assignment = Some(assignment);
        if slot.parked {
            self.cv.notify_one();
        }
    }

    /// Blocks until a leader assigns this waiter a role.
    fn wait_assignment(&self) -> Assignment {
        let mut slot = self.slot.lock(); // LOCK-ORDER: db.waiter.slot 40
        loop {
            if let Some(assignment) = slot.assignment.take() {
                return assignment;
            }
            slot.parked = true;
            self.cv.wait(&mut slot);
            slot.parked = false;
        }
    }
}

/// Applies a sequence-stamped batch into the memtable.
fn apply_batch(mem: &MemTable, batch: &WriteBatch) {
    // iterate() re-walks framing that was validated when the batch was
    // built, so the Err arm is unreachable; `let _` keeps this panic-free.
    let _ = batch.iterate(|op, seq| match op {
        BatchOp::Put { key, value } => mem.add(seq, ValueType::Value, key, value),
        BatchOp::Delete { key } => mem.add(seq, ValueType::Deletion, key, &[]),
    });
}

impl Db {
    /// Applies a batch atomically, with leader-elected group commit:
    /// whoever finds no leader becomes it, without a hand-off; writers
    /// arriving behind it enqueue. The leader stamps the whole group with
    /// one contiguous sequence range, writes every member's batch to the
    /// WAL in one pass (and one sync), applies them into the memtable and
    /// makes the group visible, all in one epoch section; only then does
    /// it tell each member it is done, so a writer never returns before
    /// its own write is readable.
    pub fn write(&self, batch: WriteBatch, opts: WriteOptions) -> Result<()> {
        let t0 = self.inner.obs.now_micros();
        let result = self.write_inner(batch, opts, t0);
        self.inner
            .metrics
            .put_micros
            .record(self.inner.obs.now_micros().saturating_sub(t0));
        result
    }

    fn write_inner(&self, batch: WriteBatch, opts: WriteOptions, t0: u64) -> Result<()> {
        let inner = &self.inner;
        inner.ensure_room()?;
        // Key-value separation happens before the commit queue: large
        // values go to the value log now (so one vlog sync by the group
        // leader covers every member) and the batch that is WAL-appended
        // and applied carries pointers/tagged inline values only.
        // `_append_pin` guards the appended values' segments against GC
        // until this write's commit is visible (it drops when this
        // function returns, which is after the commit): an uncommitted
        // append is invisible to GC's liveness check, so an unpinned
        // segment could be retired out from under the write.
        let (batch, _append_pin) = inner.separate(batch)?;
        let write = PendingWrite {
            batch,
            sync: opts.sync || inner.options.sync_writes,
            enqueued_micros: t0,
        };
        let waiter = {
            let mut queue = inner.commit_queue.lock(); // LOCK-ORDER: db.commit_queue 30
            if !queue.leading {
                // No leader: this writer is it. The previous one may
                // still be inside its epoch section — the new leader
                // simply blocks on the epoch lock, pipelining the two
                // groups.
                queue.leading = true;
                drop(queue);
                return inner.lead_group(write);
            }
            let waiter = Arc::new(WriteWaiter::new());
            queue.waiting.push_back(QueuedWrite {
                write,
                waiter: Arc::clone(&waiter),
            });
            waiter
        };
        match waiter.wait_assignment() {
            Assignment::Lead(write) => inner.lead_group(write),
            Assignment::Done(result) => result,
        }
    }
}

impl DbInner {
    /// Rewrites `batch` for storage when key-value separation is on
    /// (values to the value log, pointers and tagged inline values in the
    /// batch, same sequence), then replenishes the staged segment number a
    /// rotation may have consumed. The pin is the caller's to hold until
    /// the batch's commit is visible.
    pub(crate) fn separate(&self, batch: WriteBatch) -> Result<(WriteBatch, Option<AppendPin>)> {
        let Some(v) = &self.vlog else {
            return Ok((batch, None));
        };
        let (mut rewritten, pin) = v.separate_batch(&batch)?;
        rewritten.set_sequence(batch.sequence());
        self.restage_vlog(v);
        Ok((rewritten, pin))
    }

    /// Fast write admission: when nothing needs the slow path (no
    /// background error, no engine backpressure, healthy L0, memtable not
    /// full) the writer proceeds on atomics alone, without touching the
    /// state lock. Otherwise it falls back to the full LevelDB
    /// `MakeRoomForWrite` loop (slowdowns, stalls, rotation).
    pub(crate) fn ensure_room(&self) -> Result<()> {
        if self.bg_error.get().is_none()
            && self.engine.write_pressure() == WritePressure::None
            && self.l0_hint.load(AtomicOrdering::Relaxed) < L0_SLOWDOWN_WRITES_TRIGGER
            && self.active_mem_bytes.load(AtomicOrdering::Relaxed) <= self.options.write_buffer_size
        {
            return Ok(());
        }
        let state = self.state.lock(); // LOCK-ORDER: db.state 10
        self.make_room_for_write(state).map(drop)
    }

    /// Leads one group commit, `mine` first. Under the epoch lock the
    /// leader drains the queue (up to the group byte cap) and promotes the
    /// next queued writer so the pipeline never idles — or, when nobody
    /// is left, gives the lead up to whoever arrives next — then commits
    /// the group ([`WalEpoch::commit`]: stamp, append with one sync, apply,
    /// make visible) and tells every follower it is done.
    fn lead_group(&self, mut mine: PendingWrite) -> Result<()> {
        let max_group_bytes = self.options.max_group_commit_bytes.max(1);
        let mut followers: Vec<QueuedWrite> = Vec::new();

        // A sync commit costs an fsync — orders of magnitude more than
        // an enqueue — so before sealing the group give writers that
        // woke together with this leader (the previous group's members
        // all finish at once) a scheduling window to reach the queue.
        // Without it, lock-step writers alternate groups of 1 and N-1 and
        // half the fsync amortization is lost. Buffered commits are too
        // cheap to ever be worth waiting for.
        if mine.sync {
            let mut prev = 0;
            for _ in 0..8 {
                std::thread::yield_now();
                let len = self.commit_queue.lock().waiting.len(); // LOCK-ORDER: db.commit_queue 30
                if len <= prev {
                    break; // nobody new arrived during the last yield
                }
                prev = len;
            }
        }

        // Epoch section: group collection and the commit. Holding the
        // epoch lock across both pins one (WAL, memtable) pair and makes
        // WAL order, sequence order and apply order identical — which is
        // what recovery and the visible sequence both rely on. Collecting
        // *inside* the lock is what makes grouping effective: while the
        // previous leader's commit (and fsync) held the lock, followers
        // piled up in the queue, so group size tracks commit latency.
        let committed = {
            let mut epoch = self.epoch.lock(); // LOCK-ORDER: db.epoch 20
            let next = {
                let mut queue = self.commit_queue.lock(); // LOCK-ORDER: db.commit_queue 30
                let mut bytes = mine.batch.approximate_size();
                while let Some(front) = queue.waiting.front() {
                    bytes += front.write.batch.approximate_size();
                    if bytes > max_group_bytes {
                        break;
                    }
                    followers.extend(queue.waiting.pop_front());
                }
                let next = queue.waiting.pop_front();
                queue.leading = next.is_some();
                next
            };
            // The next queued writer leads the following group; it will
            // block on the epoch lock until this commit is done,
            // collecting its own group as writers keep arriving. With
            // nobody queued the lead is free for whoever arrives next.
            if let Some(next) = next {
                next.waiter.assign(Assignment::Lead(next.write));
            }
            // Writes queued behind a sticky background error are rejected
            // as a group (reads keep working).
            self.writable().map(|()| {
                let sync = mine.sync || followers.iter().any(|f| f.write.sync);
                epoch.commit(
                    self,
                    "wal commit",
                    &mut mine.batch,
                    &mut followers,
                    sync,
                    None,
                )
            })
        };

        let members = 1 + followers.len() as u64;
        let result = match committed {
            Err(e) => {
                self.metrics.readonly_rejects.add(members);
                Err(e)
            }
            Ok(commit) => {
                let now = self.obs.now_micros();
                let enqueued = followers.iter().map(|f| f.write.enqueued_micros);
                for t in std::iter::once(mine.enqueued_micros).chain(enqueued) {
                    self.metrics.seq_reserve.record(now.saturating_sub(t));
                }
                self.metrics.write_leader.inc();
                self.metrics.write_follower.add(members - 1);
                self.metrics.group_size.record(members);
                commit
                    .map(drop)
                    .inspect_err(|_| self.wake_after_commit_error())
            }
        };
        for f in followers {
            let done = match &result {
                Ok(()) => Ok(()),
                Err(e) => Err(replicate_err(e)),
            };
            f.waiter.assign(Assignment::Done(done));
        }
        // The followers just woken trail this leader back to the queue.
        // A sync leader lets them run first, so that they reach the next
        // group's window above instead of missing it: without this, four
        // lock-step sync writers settle into two alternating groups of
        // two and pay twice the fsyncs.
        if mine.sync && members > 1 {
            std::thread::yield_now();
        }
        result
    }

    /// Refreshes the fast-path room check and the occupancy gauge after
    /// an apply into the active memtable.
    pub(crate) fn note_occupancy(&self, mem: &MemTable) {
        let occupancy = mem.approximate_memory_usage();
        self.active_mem_bytes
            .store(occupancy, AtomicOrdering::Relaxed);
        self.metrics.mem_occupancy.set(occupancy as u64);
    }

    /// Wakes every thread parked on `work_done` after a failed
    /// [`WalEpoch::commit`] made the store read-only. The commit records
    /// the error under `db.epoch`, which ranks below `db.state`; the
    /// wake-up goes under `db.state`, taken afterwards, so that a thread
    /// between its `writable()` check and its wait on `work_done` (it
    /// holds `state` across both) cannot miss it.
    pub(crate) fn wake_after_commit_error(&self) {
        let _state = self.state.lock(); // LOCK-ORDER: db.state 10
        self.work_done.notify_all();
    }

    /// Accounts one writer stall: the stall counter and a `write_stall`
    /// trace event.
    fn note_stall(&self, elapsed: Duration) {
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
            if let Err(e) = self.writable() {
                self.metrics.readonly_rejects.inc();
                return Err(e);
            }
            let pressure = self.engine.write_pressure();
            let background_busy =
                state.conflicts.in_flight() > 0 || state.imm.is_some() || state.flush_in_progress;
            if pressure == WritePressure::Stop && background_busy {
                // The offload queue is full: stall like the L0 stop trigger.
                self.metrics.backpressure_stalls.inc();
                self.stall(&mut state);
                continue;
            }
            if pressure != WritePressure::None && allow_pressure_delay {
                allow_pressure_delay = false;
                self.metrics.backpressure_slowdowns.inc();
                state = self.slowdown_write(state);
                continue;
            }
            // Exact under `state`: every install stores it in this lock.
            let l0_files = self.l0_hint.load(AtomicOrdering::Relaxed);
            if allow_delay && l0_files >= L0_SLOWDOWN_WRITES_TRIGGER {
                // Gentle backpressure: one 1 ms pause per write.
                allow_delay = false;
                state = self.slowdown_write(state);
                continue;
            }
            if state.mem.approximate_memory_usage() <= self.options.write_buffer_size {
                return Ok(state);
            }
            if state.imm.is_some() && state.offloads_in_flight > 0 && !state.flush_in_progress {
                // Paper's scheduler: the previous memtable is still
                // waiting and the device is busy compacting, so the host
                // performs the flush itself, concurrently.
                self.metrics.concurrent_flushes.inc();
                state = self.flush_immutable(state)?;
                continue;
            }
            if state.imm.is_some() || l0_files >= L0_STOP_WRITES_TRIGGER {
                // The previous memtable is still flushing, or L0 is full.
                self.stall(&mut state);
                continue;
            }
            state = self.rotate_memtable(state)?;
        }
    }

    /// Parks this writer until some background work completes, and
    /// accounts the wait.
    fn stall(&self, state: &mut StateGuard<'_>) {
        let t0 = Instant::now();
        self.wake_workers(state);
        self.work_done.wait(state);
        self.note_stall(t0.elapsed());
    }

    /// One 1 ms write delay (simulated when `slowdown_sleep` is off).
    // LOCK-HELD: db.state via state
    fn slowdown_write<'a>(&'a self, mut state: StateGuard<'a>) -> StateGuard<'a> {
        if self.options.slowdown_sleep {
            let t0 = Instant::now();
            drop(state);
            std::thread::sleep(Duration::from_millis(1));
            state = self.state.lock(); // LOCK-ORDER: db.state 10
            self.note_stall(t0.elapsed());
        } else {
            self.note_stall(Duration::from_millis(1));
        }
        state
    }

    /// Epoch handoff: swaps in a fresh memtable + WAL. The old memtable
    /// becomes `imm`, complete: every commit into it ran inside an epoch
    /// section, and this swap takes the epoch lock. Readers are never
    /// blocked — they keep reading whichever `Arc`s they captured.
    // LOCK-HELD: db.state via state
    pub(crate) fn rotate_memtable<'a>(
        &'a self,
        mut state: StateGuard<'a>,
    ) -> Result<StateGuard<'a>> {
        debug_assert!(state.imm.is_none());
        let new_log_number = state.versions.new_file_number();
        let file = self
            .options
            .env
            .create_writable(&log_file_name(&self.dir, new_log_number))?;
        // The new WAL's directory entry must survive a power cut or every
        // synced record inside it is unreachable on recovery.
        self.options.env.sync_dir(&self.dir)?;
        let fresh = Arc::new(MemTable::new(InternalKeyComparator));
        {
            // LOCK-ORDER: db.epoch 20
            let mut epoch = self.epoch.lock();
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
            state.imm = Some(old_mem);
            state.mem = fresh;
            // Still inside the epoch section: no group can commit into
            // `fresh` before readers can find it.
            self.publish_view(&state);
        }
        self.active_mem_bytes.store(0, AtomicOrdering::Relaxed);
        state.log_file_number = new_log_number;
        self.wake_workers(&state);
        Ok(state)
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

/// Loom model of the commit queue on a real store, run under
/// `RUSTFLAGS="--cfg loom"` beside the read-view model in
/// [`crate::read_view`].
#[cfg(all(loom, test))]
mod loom_models {
    use super::*;
    use crate::options::Options;
    use sstable::env::MemEnv;

    /// Two writers meet at the commit queue. Whichever finds no leader
    /// leads, and nothing signals it; the other finds a leader again, or
    /// queues behind this one and is either applied by it (the group cap
    /// has room) or promoted by it (the cap of one byte never has). No
    /// interleaving loses a wake-up: every write returns `Ok`, was
    /// committed in exactly one group, and is readable.
    #[test]
    fn two_writers_lead_unsignalled_or_are_assigned_by_the_leader() {
        const WRITES: u64 = 3;
        for max_group_commit_bytes in [1, 1 << 20] {
            loom::model(move || {
                let options = Options {
                    env: Arc::new(MemEnv::new()),
                    max_group_commit_bytes,
                    ..Options::default()
                };
                let db = Arc::new(Db::open("/loom", options).unwrap());
                let write = |db: &Db, writer: char| {
                    for i in 0..WRITES {
                        db.put(format!("{writer}{i}").as_bytes(), b"v").unwrap();
                    }
                };
                let other = {
                    let db = Arc::clone(&db);
                    loom::thread::spawn(move || write(&db, 'b'))
                };
                write(&db, 'a');
                other.join().unwrap();
                for key in ["a0", "a2", "b0", "b2"] {
                    assert_eq!(db.get(key.as_bytes()).unwrap().as_deref(), Some(&b"v"[..]));
                }
                assert_eq!(db.stats().grouped_writes, 2 * WRITES);
                let queue = db.inner.commit_queue.lock();
                assert!(!queue.leading && queue.waiting.is_empty());
            });
        }
    }
}
