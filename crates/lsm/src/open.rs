//! Opening a store: manifest recovery, value-log recovery, WAL replay,
//! and the first version install. Nothing is shared until the last line,
//! so no lock is taken here.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, OnceLock};

use sstable::comparator::InternalKeyComparator;
use sstable::ikey::{LookupKey, ValueType};

use crate::background::background_thread;
use crate::compaction::{write_level0_table, CompactionEngine};
use crate::conflict::ConflictChecker;
use crate::db::{Db, DbInner, DbState};
use crate::filename::{log_file_name, parse_file_name, FileType};
use crate::memtable::{MemGet, MemTable};
use crate::options::Options;
use crate::read_view::{ReadView, ViewCell};
use crate::stats::DbMetrics;
use crate::sync_shim::{Condvar, Mutex};
use crate::table_cache::TableOpener;
use crate::version::{VersionEdit, VersionSet};
use crate::vlog::{self, VlogRuntime};
use crate::wal::{LogReader, LogWriter};
use crate::write::{CommitQueue, WalEpoch};
use crate::write_batch::{BatchOp, WriteBatch};
use crate::{Error, Result};

impl Db {
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
        let mut mem = MemTable::new(InternalKeyComparator);
        if existed {
            versions.last_sequence =
                replay_wals(&options, &dir, &versions, vlog_rt.as_deref(), &mem)?;
        }

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
            let imm = std::mem::replace(&mut mem, MemTable::new(InternalKeyComparator));
            if let Some(meta) = write_level0_table(&options, &dir, file_number, &Arc::new(imm))? {
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
        let tables = TableOpener::new(dir.clone(), options.clone(), Arc::clone(&obs.trace));
        let last_sequence = versions.last_sequence;
        let l0_files = versions.current().num_files(0);
        let mem = Arc::new(mem);
        let view = ViewCell::new(ReadView {
            mem: Arc::clone(&mem),
            imm: None,
            version: versions.current(),
            horizon: 0,
        });
        let inner = Arc::new(DbInner {
            dir,
            options,
            engine,
            obs,
            metrics,
            view,
            state: Mutex::new(DbState {
                mem: Arc::clone(&mem),
                imm: None,
                versions,
                log_file_number: log_number,
                offloads_in_flight: 0,
                conflicts: ConflictChecker::new(),
                flush_in_progress: false,
                force_compact_level: None,
                snapshots: BTreeMap::new(),
                compaction_horizon: 0,
                pending_outputs: HashSet::new(),
            }),
            epoch: Mutex::new(WalEpoch { wal: log, mem }),
            commit_queue: Mutex::new(CommitQueue::default()),
            visible: crate::sync_shim::atomic::AtomicU64::new(last_sequence),
            bg_error: OnceLock::new(),
            l0_hint: AtomicUsize::new(l0_files),
            active_mem_bytes: AtomicUsize::new(0),
            work_done: Condvar::new(),
            bg_work: Condvar::new(),
            tables,
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
        db.inner
            .delete_obsolete_files_locked(&mut db.inner.state.lock()); // LOCK-ORDER: db.state 10
        Ok(db)
    }
}

/// Replays every WAL the manifest has not retired into `mem`, in file
/// order, and judges the value-log pointers met on the way. Returns the
/// highest sequence the store has used.
fn replay_wals(
    options: &Options,
    dir: &Path,
    versions: &VersionSet,
    vlog_rt: Option<&VlogRuntime>,
    mem: &MemTable,
) -> Result<u64> {
    let mut max_sequence = versions.last_sequence;
    let mut log_numbers: Vec<u64> = options
        .env
        .list_dir(dir)?
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
        let path = log_file_name(dir, number);
        let file = options.env.open_random_access(&path)?;
        let mut reader = LogReader::new(file.as_ref())?;
        while let Some(record) = reader.read_record() {
            let batch = WriteBatch::from_data(&record)?;
            if let Some(v) = vlog_rt {
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
    Ok(max_sequence)
}
