//! Background work: the worker loop, what it picks (Fig. 6), the flush,
//! compaction dispatch to the engine and the install of its result
//! (§IV), and the removal of files no version names any more. Every
//! version change here goes through [`DbInner::install`].

use std::collections::HashSet;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;
use std::time::Duration;

use sstable::env::WritableFile;

use crate::compaction::{
    write_level0_table, CompactionEngine, CompactionInput, CompactionRequest, CpuCompactionEngine,
    OutputFileFactory, OutputTableMeta,
};
use crate::conflict::{JobShape, JobTicket};
use crate::db::{Db, DbInner, DbState, StateGuard};
use crate::filename::{parse_file_name, table_file_name, FileType};
use crate::options::NUM_LEVELS;
use crate::sync_shim::Mutex;
use crate::version::VersionEdit;
use crate::{Error, Result};

/// Transient compaction I/O errors are retried this many times before
/// the store goes read-only. Corruption is never retried.
const COMPACTION_MAX_RETRIES: u32 = 2;
/// Backoff before the first retry, doubling per attempt. Accounted on
/// the injectable clock and metrics; a real sleep happens only under
/// [`Options::slowdown_sleep`], so deterministic tests never block on
/// wall time.
const COMPACTION_RETRY_BACKOFF_MICROS: u64 = 1000;

impl Db {
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
                    self.inner.writable()?;
                    self.inner.work_done.wait(&mut state);
                }
                drop(self.inner.rotate_memtable(state)?);
            }
        }
        self.wait_for_background_quiescence();
        self.inner.writable()
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
                    self.inner.writable()?;
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
            if !needs_work || self.inner.bg_error.get().is_some() {
                return;
            }
            self.inner.work_done.wait(&mut state);
        }
    }
}

impl DbInner {
    /// Builds an SSTable from the immutable memtable and installs it at
    /// level 0 (the paper's first compaction type). Callable from the
    /// background thread or — during an offloaded compaction — from a
    /// writer thread.
    // LOCK-HELD: db.state via state
    pub(crate) fn flush_immutable<'a>(
        &'a self,
        mut state: StateGuard<'a>,
    ) -> Result<StateGuard<'a>> {
        let Some(imm) = state.imm.clone() else {
            return Ok(state);
        };
        debug_assert!(!state.flush_in_progress);
        state.flush_in_progress = true;
        let file_number = state.versions.new_file_number();
        state.pending_outputs.insert(file_number);
        let log_number = state.log_file_number;

        // Long-running build happens outside the lock.
        drop(state);
        let t0 = self.obs.now_micros();
        let result = write_level0_table(&self.options, &self.dir, file_number, &imm);
        let flush_micros = self.obs.now_micros().saturating_sub(t0);
        let mut state = self.state.lock(); // LOCK-ORDER: db.state 10
        state.flush_in_progress = false;

        let meta = match result {
            Ok(meta) => meta,
            Err(e) => {
                state.pending_outputs.remove(&file_number);
                self.set_bg_error(&mut state, format!("flush failed: {e}"));
                return Err(e);
            }
        };
        let mut edit = VersionEdit {
            log_number: Some(log_number),
            ..Default::default()
        };
        let flushed_bytes = meta.as_ref().map_or(0, |m| m.file_size);
        edit.new_files.extend(meta.map(|m| (0, m)));
        // One publication drops `imm` and names the table it became. When
        // the manifest write fails, `imm` goes back: the table (if any) is
        // on disk but not referenced, the WAL still covers the data, and
        // no further flush can make progress.
        state.imm = None;
        let installed = self.install(&mut state, edit, "flush manifest write");
        state.pending_outputs.remove(&file_number);
        if let Err(e) = installed {
            state.imm = Some(imm);
            return Err(e);
        }
        self.metrics.flush_count.inc();
        self.metrics.flush_bytes.add(flushed_bytes);
        self.obs.event(obs::EventKind::Flush {
            bytes: flushed_bytes,
            micros: flush_micros,
        });
        self.delete_obsolete_files_locked(&mut state);
        Ok(state)
    }

    /// Finds the next admissible compaction while holding the state
    /// lock. Trivial moves are applied inline (they only touch
    /// metadata); the scan then restarts because the version changed.
    /// Returns `None` when nothing can start right now — either there is
    /// no work, or every candidate conflicts with an in-flight job.
    fn find_work(&self, state: &mut DbState) -> Option<AdmittedCompaction> {
        'rescan: loop {
            // Candidate levels: the forced level (manual compaction)
            // first, then every level over its score threshold, most
            // urgent first. The first candidate that passes admission
            // wins; conflicting candidates stay for a later scan.
            let forced = state.force_compact_level;
            let scored = state.versions.candidate_levels();
            let scored = scored.into_iter().filter(|l| Some(*l) != forced);
            for level in forced.into_iter().chain(scored) {
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
                    let moved = self.install(state, edit, "trivial move");
                    state.conflicts.release(ticket);
                    if moved.is_err() {
                        return None;
                    }
                    self.metrics.trivial_moves.inc();
                    continue 'rescan;
                }

                self.metrics
                    .max_concurrent_compactions
                    .set_max(state.conflicts.in_flight() as u64);

                // Capture the request context under the lock (paper §IV
                // steps 1-3).
                let smallest_snapshot = state
                    .snapshots
                    .keys()
                    .next()
                    .copied()
                    .unwrap_or_else(|| self.visible());
                let bottommost = {
                    let v = state.versions.current();
                    ((level + 2)..NUM_LEVELS).all(|l| v.num_files(l) == 0)
                };
                return Some(AdmittedCompaction {
                    compaction,
                    ticket,
                    smallest_snapshot,
                    bottommost,
                });
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
        } = job;
        let level = compaction.level;

        // L0 files are separate inputs (newest first); a deeper level's
        // run concatenates into one.
        let [upper, lower] = &compaction.inputs;
        let files_per_input = if level == 0 { 1 } else { upper.len().max(1) };
        let inputs: Result<Vec<CompactionInput>> = upper
            .chunks(files_per_input)
            .chain([lower.as_slice()])
            .filter(|run| !run.is_empty())
            .map(|run| {
                let tables = run.iter().map(|m| self.tables.pinned(m).map(Arc::clone));
                Ok(CompactionInput {
                    tables: tables.collect::<Result<_>>()?,
                })
            })
            .collect();
        let inputs = match inputs {
            Ok(inputs) => inputs,
            Err(e) => {
                let mut state = self.state.lock(); // LOCK-ORDER: db.state 10
                state.conflicts.release(ticket);
                self.set_bg_error(&mut state, format!("compaction open failed: {e}"));
                return;
            }
        };
        let req = CompactionRequest {
            level,
            inputs,
            smallest_snapshot,
            bottommost,
            builder_options: self.options.table_builder_options(),
            max_output_file_size: self.options.max_file_size,
        };

        let input_files = compaction.num_input_files();
        self.obs.event(obs::EventKind::CompactionStart {
            level,
            files: input_files,
            bytes: compaction.input_bytes(),
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
            allocated: Mutex::new(Vec::new()),
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
                Err(e) if attempt < COMPACTION_MAX_RETRIES && is_transient_io(&e) => {
                    attempt += 1;
                    let backoff = COMPACTION_RETRY_BACKOFF_MICROS
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

        // The edit is settled before the lock: which files go, which come.
        let result = result.map(|outcome| {
            let mut edit = VersionEdit::default();
            for (i, files) in compaction.inputs.iter().enumerate() {
                let gone = files.iter().map(|f| (level + i, f.number));
                edit.deleted_files.extend(gone);
            }
            let outputs = outcome.outputs.iter().map(OutputTableMeta::file_meta);
            edit.new_files.extend(outputs.map(|meta| (level + 1, meta)));
            edit.compact_pointers
                .push((level, compaction.largest_input_key.clone()));
            (edit, outcome)
        });
        // Let go of the inputs: from here only versions name them, so the
        // install that drops the last such version closes their tables
        // under the same lock hold that then deletes the files.
        drop((req, compaction));

        let mut state = self.state.lock(); // LOCK-ORDER: db.state 10
        if is_offload {
            state.offloads_in_flight -= 1;
        }
        state.conflicts.release(ticket);
        // Un-protect exactly this job's outputs: on success they enter
        // the version below (same lock hold, so GC cannot run between);
        // on failure the orphaned files become collectable.
        let allocated = factory.allocated.lock(); // LOCK-ORDER: db.factory.outputs 60
        for number in allocated.iter() {
            state.pending_outputs.remove(number);
        }
        drop(allocated);
        match result {
            Ok((edit, outcome)) => {
                // The versions the merge dropped at or below its snapshot
                // horizon are gone once this installs: reads run no lower.
                state.compaction_horizon = state.compaction_horizon.max(smallest_snapshot);
                if self.install(&mut state, edit, "compaction install").is_ok() {
                    let m = &self.metrics;
                    if use_engine {
                        m.engine_compactions.inc();
                    } else {
                        m.sw_fallback_compactions.inc();
                    }
                    let nanos = |t: Duration| t.as_nanos() as u64;
                    m.compaction_nanos.add(nanos(outcome.wall_time));
                    m.kernel_nanos
                        .add(outcome.modeled_kernel_time.map_or(0, nanos));
                    m.transfer_nanos
                        .add(outcome.modeled_transfer_time.map_or(0, nanos));
                    let lv = &m.per_level[level];
                    lv.count.inc();
                    lv.bytes_read.add(outcome.bytes_read);
                    lv.bytes_written.add(outcome.bytes_written);
                    lv.files_merged.add(input_files as u64);
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

    /// Removes files no longer referenced by any live version.
    // LOCK-HELD: db.state -- takes the guarded DbState by &mut.
    pub(crate) fn delete_obsolete_files_locked(&self, state: &mut DbState) {
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
            let remove = match ft {
                // A rotated-away log is obsolete for recovery, but a
                // replication cursor may still be tailing it: the floor
                // pins every segment a registered replica has not yet
                // acknowledged past.
                FileType::Log(n) => n < log_number && n < retain_floor,
                // The table of a file no version names closed with the
                // last version that did (see `crate::table_cache`).
                FileType::Table(n) => !live.contains(&n),
                FileType::Temp(_) => true,
                // Value-log segments are not tracked by the version set;
                // only the GC pass (`Db::collect_value_log`) may remove
                // them, after proving every record is dead or rewritten.
                _ => false,
            };
            if remove {
                let _ = self.options.env.remove_file(&self.dir.join(&name));
            }
        }
    }
}

/// Transient I/O errors are worth retrying; corruption and logic errors
/// are not (retrying cannot make a bad checksum good).
fn is_transient_io(e: &Error) -> bool {
    matches!(e, Error::Io(_) | Error::Table(sstable::Error::Io(_)))
}

/// A compaction that passed conflict admission, with its request context
/// captured under the lock that admitted it.
struct AdmittedCompaction {
    compaction: crate::version::Compaction,
    ticket: JobTicket,
    smallest_snapshot: u64,
    bottommost: bool,
}

/// The conflict footprint of a picked compaction: both input levels'
/// file numbers and the union of their user-key ranges (outputs land
/// anywhere inside it).
fn job_shape(compaction: &crate::version::Compaction) -> JobShape {
    let files = compaction.inputs.iter().flatten();
    let smallest = files.clone().map(|f| f.smallest.user_key()).min();
    let largest = files.clone().map(|f| f.largest.user_key()).max();
    JobShape {
        level: compaction.level,
        smallest_user: smallest.unwrap_or_default().to_vec(),
        largest_user: largest.unwrap_or_default().to_vec(),
        files: files.map(|f| f.number).collect(),
    }
}

/// Allocates compaction output files inside the DB directory, remembering
/// the numbers it handed out so a failed job releases exactly its own
/// `pending_outputs` entries.
struct DbOutputFactory<'a> {
    inner: &'a DbInner,
    allocated: Mutex<Vec<u64>>,
}

impl OutputFileFactory for DbOutputFactory<'_> {
    fn new_output(&self) -> Result<(u64, Box<dyn WritableFile>)> {
        let number = {
            let mut state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
            let n = state.versions.new_file_number();
            state.pending_outputs.insert(n);
            n
        };
        self.allocated.lock().push(number); // LOCK-ORDER: db.factory.outputs 60
        let path = table_file_name(&self.inner.dir, number);
        // DURABILITY-OK: the compaction executor syncs every output
        // (TableBuilder::sync) before the version install references it.
        let file = self.inner.options.env.create_writable(&path)?;
        Ok((number, file))
    }
}

/// Background worker: flushes and compactions until shutdown. All workers
/// run this loop; the conflict checker keeps their picks disjoint.
pub(crate) fn background_thread(inner: Arc<DbInner>) {
    loop {
        let job = {
            let mut state = inner.state.lock(); // LOCK-ORDER: db.state 10
            loop {
                if inner.shutting_down.load(AtomicOrdering::Acquire) {
                    return;
                }
                if inner.bg_error.get().is_none() {
                    if state.imm.is_some() && !state.flush_in_progress {
                        // A flush goes first, under the lock hold that found
                        // it (so two workers cannot both take it): the call
                        // consumes the guard and sets `flush_in_progress`
                        // before the lock drops for table I/O.
                        match inner.flush_immutable(state) {
                            Ok(s) => state = s,
                            Err(_) => state = inner.state.lock(), // LOCK-ORDER: db.state 10
                        }
                        // L0 grew (or an error idled us): re-scan.
                        inner.wake_workers(&state);
                        continue;
                    }
                    if let Some(job) = inner.find_work(&mut state) {
                        break job;
                    }
                }
                inner.bg_work.wait(&mut state);
            }
        };
        inner.execute_compaction(job);
    }
}
