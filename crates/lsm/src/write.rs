//! The write path: the commit queue and its group leader, the one WAL
//! commit step, write stalls, and memtable rotation. Sequence
//! reservation and the visibility ledger are in [`crate::write_path`].

use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sstable::ikey::ValueType;

use crate::compaction::WritePressure;
use crate::db::{Db, DbInner, StateGuard};
use crate::filename::log_file_name;
use crate::memtable::MemTable;
use crate::options::{WriteOptions, L0_SLOWDOWN_WRITES_TRIGGER, L0_STOP_WRITES_TRIGGER};
use crate::sync_shim::{self, lock as shim_lock};
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

/// What [`WalEpoch::commit`] hands back.
pub(crate) struct Committed {
    /// The memtable the committed batches apply into.
    pub(crate) mem: Arc<MemTable>,
    /// The group's id in the apply ledger.
    pub(crate) group: u64,
    /// Whether the append (and sync) went through. On `Err` the caller
    /// owes the group a [`DbInner::fail_commit`].
    pub(crate) result: Result<()>,
}

impl WalEpoch {
    /// The one WAL commit step, shared by a group leader, a replica's
    /// apply and a value-log GC rewrite. The caller has reserved the
    /// records' sequence range, ending at `last_seq`, under this same
    /// epoch lock hold; this appends them to the log, makes them durable
    /// when `sync` is set, and registers the range with the ledger as one
    /// group of `members` appliers — so WAL order, sequence order and
    /// ledger order are one order.
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
    /// before the next committer can take `db.epoch`. The range is
    /// registered all the same, so the caller can — and must — mark it
    /// applied ([`DbInner::fail_commit`]): the visibility watermark then
    /// skips the never-persisted, never-acknowledged range instead of
    /// wedging every later reader and writer behind it.
    // LOCK-HELD: db.epoch -- a method of the guarded value.
    pub(crate) fn commit<'a>(
        &mut self,
        db: &DbInner,
        what: &str,
        records: impl IntoIterator<Item = &'a [u8]>,
        sync: bool,
        last_seq: u64,
        members: usize,
    ) -> Committed {
        let result = (|| {
            for record in records {
                self.wal.add_record(record)?;
            }
            if sync {
                if let Some(v) = &db.vlog {
                    v.sync_if_dirty()?;
                }
                self.wal.sync()?;
            }
            Ok(())
        })();
        if let Err(e) = &result {
            db.record_bg_error(format!("{what} failed: {e}"));
        }
        Committed {
            mem: Arc::clone(&self.mem),
            group: db.ledger.register(last_seq, members),
            result,
        }
    }
}

/// One writer queued for group commit. The leader stamps each member's
/// batch with its reserved sequences and hands it back; every member
/// applies its own batch into the (shared, concurrent) memtable in
/// parallel, then reports to the [`ApplyLedger`].
pub(crate) struct WriteWaiter {
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
pub(crate) fn apply_batch(mem: &MemTable, batch: &WriteBatch) {
    // iterate() re-walks framing that was validated when the batch was
    // built, so the Err arm is unreachable; `let _` keeps this panic-free.
    let _ = batch.iterate(|op, seq| match op {
        BatchOp::Put { key, value } => mem.add(seq, ValueType::Value, key, value),
        BatchOp::Delete { key } => mem.add(seq, ValueType::Deletion, key, &[]),
    });
}

impl Db {
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
        let (batch, _append_pin) = inner.separate(batch)?;
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
        let committed = {
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
            if let Err(e) = self.writable() {
                // Writes queued behind a sticky background error are
                // rejected as a group (reads keep working).
                Err(e)
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
                let records = batches.iter().map(WriteBatch::data);
                let committed =
                    epoch.commit(self, "wal commit", records, sync, last_seq, members.len());
                Ok((committed, last_seq))
            }
        };

        let fan_out = |e: Error| -> Result<()> {
            for w in members.iter().skip(1) {
                w.complete(Err(replicate_err(&e)));
            }
            Err(e)
        };
        let (committed, last_seq) = match committed {
            Ok(committed) => committed,
            Err(e) => {
                self.metrics.readonly_rejects.add(members.len() as u64);
                return fan_out(e);
            }
        };
        let Committed {
            mem,
            group: group_id,
            result: commit,
        } = committed;

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
            self.fail_commit(group_id, members.len());
            return fan_out(e);
        }

        // Hand every follower its stamped batch first, then apply our
        // own — members insert into disjoint memtable shards in parallel.
        let mut stamped = batches.into_iter();
        let my_batch = stamped.next().unwrap_or_default();
        for (w, b) in members.iter().skip(1).zip(stamped) {
            w.hand_apply(b, Arc::clone(&mem), group_id, last_seq);
        }
        apply_batch(&mem, &my_batch);
        self.ledger.finish_members(group_id, 1);

        self.note_occupancy(&mem);
        self.ledger.wait_visible(last_seq);
        Ok(())
    }

    /// Refreshes the fast-path room check and the occupancy gauge after
    /// an apply into the active memtable.
    pub(crate) fn note_occupancy(&self, mem: &MemTable) {
        let occupancy = mem.approximate_memory_usage();
        self.active_mem_bytes
            .store(occupancy, AtomicOrdering::Relaxed);
        self.metrics.mem_occupancy.set(occupancy as u64);
    }

    /// The caller's half of [`WalEpoch::commit`]'s failure contract (the
    /// store is read-only already): the group's `members` are all marked
    /// applied so the watermark moves past the range nothing will ever
    /// apply. Called holding nothing — a value-log GC install waits for
    /// exactly this range to become visible while it holds `db.state` and
    /// `db.epoch`. `db.state` is taken only afterwards, and only so that
    /// a thread between its `writable()` check and its wait on `work_done`
    /// (it holds `state` across both) cannot miss the wake-up.
    pub(crate) fn fail_commit(&self, group: u64, members: usize) {
        self.ledger.finish_members(group, members);
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
    /// becomes `imm`; writers already inside a group commit keep applying
    /// into it through the `Arc` they captured under the epoch lock, and
    /// the recorded boundary sequence tells the flush how long to wait
    /// for them. Readers are never blocked — they keep reading whichever
    /// `Arc`s they captured.
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
