//! Database repair (LevelDB's `RepairDB`): reconstruct a usable MANIFEST
//! for a directory whose metadata is lost or corrupt.
//!
//! Strategy, as in LevelDB:
//! 1. salvage every WAL into a fresh L0 table (best-effort: corrupt tails
//!    are dropped by the log reader's recovery semantics; a WAL that
//!    cannot be read at all is moved aside to `lost/`);
//! 2. scan every readable table for its key range and maximum sequence
//!    number (unreadable tables are moved aside to `lost/`);
//! 3. write a new MANIFEST placing all recovered tables at level 0 —
//!    the only level that tolerates arbitrary key-range overlap — and
//!    point CURRENT at it, through [`VersionSet`] so the renames, the
//!    MANIFEST and CURRENT are durable when repair returns. The next
//!    open compacts them back into shape.

use std::path::Path;
use std::sync::Arc;

use sstable::comparator::InternalKeyComparator;
use sstable::ikey::{parse_internal_key, InternalKey, ValueType};
use sstable::iterator::InternalIterator;
use sstable::table::Table;

use crate::filename::{parse_file_name, table_file_name, FileType};
use crate::memtable::MemTable;
use crate::options::Options;
use crate::version::{FileMetaData, VersionEdit, VersionSet};
use crate::vlog::{self, PointerCheck, Stored};
use crate::wal::LogReader;
use crate::write_batch::{BatchOp, WriteBatch};
use crate::{Error, Result};

/// Summary of a repair run.
#[derive(Debug, Default, Clone)]
pub struct RepairReport {
    /// Tables recovered intact.
    pub tables_recovered: usize,
    /// Tables moved aside as unreadable.
    pub tables_lost: usize,
    /// WAL files salvaged into new tables.
    pub logs_salvaged: usize,
    /// WAL files that could not be opened or read, moved aside to `lost/`
    /// (their writes are not in the repaired store).
    pub logs_lost: usize,
    /// Entries salvaged out of WALs.
    pub log_entries_salvaged: u64,
    /// Highest sequence number observed.
    pub max_sequence: u64,
    /// Corrupt tables and unreadable WALs that could not be moved into
    /// `lost/` (path and error). These files are still in the database
    /// directory; the caller must deal with them before reopening,
    /// because a later repair or open may trip over them again.
    pub quarantine_failures: Vec<String>,
    /// Value-log segments whose torn tail was truncated back to the last
    /// whole record (key-value separation only).
    pub vlog_segments_truncated: usize,
    /// WAL operations dropped because their value-log pointer referenced
    /// a torn, missing, or corrupt record. These writes were never
    /// durably acknowledged (the vlog syncs before the WAL) or lost
    /// their segment; salvaging the dangling pointer would resurrect an
    /// unreadable value.
    pub vlog_dangling_dropped: u64,
}

/// Rebuilds the MANIFEST/CURRENT for the database in `dir`.
///
/// Safe to run on a healthy database (it rewrites equivalent metadata,
/// though level assignments reset to L0). Requires that no [`crate::Db`]
/// has the directory open.
pub fn repair_db(dir: impl AsRef<Path>, options: &Options) -> Result<RepairReport> {
    let dir = dir.as_ref();
    let env = &options.env;
    let mut report = RepairReport::default();

    let mut table_numbers = Vec::new();
    let mut log_numbers = Vec::new();
    let mut max_number = 1u64;
    for name in env.list_dir(dir)? {
        match parse_file_name(&name) {
            Some(FileType::Table(n)) => {
                table_numbers.push(n);
                max_number = max_number.max(n);
            }
            Some(FileType::Log(n)) => {
                log_numbers.push(n);
                max_number = max_number.max(n);
            }
            Some(FileType::Manifest(n)) | Some(FileType::Temp(n)) => {
                max_number = max_number.max(n);
            }
            Some(FileType::ValueLog(n)) => {
                max_number = max_number.max(n);
            }
            _ => {}
        }
    }
    table_numbers.sort_unstable();
    log_numbers.sort_unstable();
    let mut next_number = max_number + 1;

    // 0. With key-value separation on, make the value log honest before
    // anything dereferences it: cut each segment's torn tail back to the
    // last whole record, so the pointer checks below see the same durable
    // prefix a normal recovery would.
    let separation = options.value_log_threshold_bytes.is_some();
    if separation {
        for segment in vlog::list_segments(env.as_ref(), dir)? {
            let path = crate::filename::vlog_file_name(dir, segment);
            let before = env.open_random_access(&path)?.len().map_err(Error::from)?;
            let after = vlog::truncate_torn_tail(env.as_ref(), dir, segment)?;
            if after < before {
                report.vlog_segments_truncated += 1;
            }
        }
    }

    // 1. Salvage WALs oldest-first into fresh tables; set aside the ones
    // that cannot be read.
    let mut unreadable_logs = Vec::new();
    for log in &log_numbers {
        let path = crate::filename::log_file_name(dir, *log);
        let reader = env
            .open_random_access(&path)
            .map_err(Error::from)
            .and_then(|file| LogReader::new(file.as_ref()));
        let Ok(mut reader) = reader else {
            set_aside(options, dir, &path, &mut report);
            report.logs_lost += 1;
            unreadable_logs.push(*log);
            continue;
        };
        let mem = Arc::new(MemTable::new(InternalKeyComparator));
        while let Some(record) = reader.read_record() {
            let Ok(batch) = WriteBatch::from_data(&record) else {
                continue;
            };
            let _ = batch.iterate(|op, seq| {
                report.max_sequence = report.max_sequence.max(seq);
                match op {
                    BatchOp::Put { key, value } => {
                        if separation {
                            // Stored bytes are tagged; drop any pointer
                            // that no longer dereferences (its value was
                            // never durable or its segment is gone).
                            match vlog::decode_stored(value) {
                                Ok(Stored::Inline(_)) => {}
                                Ok(Stored::Pointer(ptr)) => {
                                    match vlog::check_pointer_in(env.as_ref(), dir, ptr) {
                                        PointerCheck::Ok => {}
                                        PointerCheck::TornTail
                                        | PointerCheck::MissingSegment
                                        | PointerCheck::Corrupt => {
                                            report.vlog_dangling_dropped += 1;
                                            return;
                                        }
                                    }
                                }
                                Err(_) => {
                                    report.vlog_dangling_dropped += 1;
                                    return;
                                }
                            }
                        }
                        mem.add(seq, ValueType::Value, key, value);
                    }
                    BatchOp::Delete { key } => mem.add(seq, ValueType::Deletion, key, &[]),
                }
            });
        }
        if mem.is_empty() {
            continue;
        }
        report.log_entries_salvaged += mem.len() as u64;
        let number = next_number;
        next_number += 1;
        crate::compaction::write_level0_table(options, dir, number, &mem)?;
        table_numbers.push(number);
        report.logs_salvaged += 1;
    }

    // 2. Scan tables for metadata; quarantine unreadable ones.
    let read_opts = options.table_read_options();
    let mut scanned: Vec<(u64, FileMetaData, u64)> = Vec::new();
    for number in table_numbers {
        let path = table_file_name(dir, number);
        match scan_table(env.as_ref(), &path, &read_opts) {
            Ok(Some((meta, max_seq))) => {
                report.max_sequence = report.max_sequence.max(max_seq);
                scanned.push((number, meta, max_seq));
                report.tables_recovered += 1;
            }
            Ok(None) => {
                // Empty table: drop it.
                let _ = env.remove_file(&path);
            }
            Err(_) => {
                set_aside(options, dir, &path, &mut report);
                report.tables_lost += 1;
            }
        }
    }

    // Everything lands at L0, where lookups read files newest-first *by
    // file number*. Compaction outputs carry old data under high numbers,
    // so renumber recovered tables in max-sequence order — number order
    // then matches data age again.
    scanned.sort_by_key(|(_, _, max_seq)| *max_seq);
    let mut metas: Vec<FileMetaData> = Vec::new();
    for (old_number, meta, _) in scanned {
        let new_number = next_number;
        next_number += 1;
        // DURABILITY-OK: a table found on disk or one just synced by
        // `write_level0_table`; the MANIFEST naming it is synced below.
        env.rename(
            &table_file_name(dir, old_number),
            &table_file_name(dir, new_number),
        )?;
        metas.push(FileMetaData {
            number: new_number,
            ..meta
        });
    }

    // 3. Fresh MANIFEST with everything at L0 (ordered newest-first by
    // file number, the L0 convention). `log_and_apply` syncs the directory
    // (the renames above), the MANIFEST and the CURRENT swap; the log
    // number names no file, so every old WAL is obsolete.
    let mut versions = VersionSet::new(dir.to_path_buf(), options.clone());
    versions.bump_file_number(next_number);
    let manifest_number = versions.start_new_manifest();
    let log_number = versions.new_file_number();
    versions.last_sequence = report.max_sequence;
    versions.log_and_apply(VersionEdit {
        log_number: Some(log_number),
        new_files: metas.into_iter().map(|meta| (0, meta)).collect(),
        ..Default::default()
    })?;

    // Old manifests and salvaged logs are obsolete.
    for name in env.list_dir(dir)? {
        match parse_file_name(&name) {
            Some(FileType::Manifest(n)) if n != manifest_number => {
                let _ = env.remove_file(&dir.join(&name));
            }
            Some(FileType::Log(n)) if !unreadable_logs.contains(&n) => {
                let _ = env.remove_file(&dir.join(&name));
            }
            _ => {}
        }
    }
    Ok(report)
}

/// Reads one table's smallest/largest internal keys and max sequence.
fn scan_table(
    env: &dyn sstable::env::StorageEnv,
    path: &Path,
    read_opts: &sstable::table::TableReadOptions,
) -> Result<Option<(FileMetaData, u64)>> {
    let file = env.open_random_access(path)?;
    let size = file.len().map_err(Error::from)?;
    let table = Table::open(file, size, read_opts.clone())?;
    let mut it = table.iter();
    it.seek_to_first();
    if !it.valid() {
        it.status().map_err(Error::from)?;
        return Ok(None);
    }
    let smallest = InternalKey::from_encoded(it.key().to_vec());
    let mut largest = InternalKey::from_encoded(it.key().to_vec());
    let mut max_seq = 0u64;
    while it.valid() {
        let parsed = parse_internal_key(it.key())
            .ok_or_else(|| Error::Corruption("unparseable internal key".into()))?;
        max_seq = max_seq.max(parsed.sequence);
        largest = InternalKey::from_encoded(it.key().to_vec());
        it.next();
    }
    it.status().map_err(Error::from)?;
    Ok(Some((
        FileMetaData::new(0, size, smallest, largest),
        max_seq,
    )))
}

/// Moves an unreadable table or WAL into `lost/`, recording (and tracing)
/// a failure to move it in `report`.
fn set_aside(options: &Options, dir: &Path, path: &Path, report: &mut RepairReport) {
    if let Err(e) = quarantine(options.env.as_ref(), dir, path) {
        let failure = format!("{}: {e}", path.display());
        if let Some(obs) = &options.obs {
            obs.event(obs::EventKind::QuarantineFailure {
                path: failure.clone(),
            });
        }
        report.quarantine_failures.push(failure);
    }
}

/// Moves an unreadable file into `lost/`. A failure here must reach the
/// caller: a corrupt table left in place can shadow repaired data or
/// fail the next open, so "couldn't move it" is a reportable outcome,
/// not a shrug.
fn quarantine(env: &dyn sstable::env::StorageEnv, dir: &Path, path: &Path) -> Result<()> {
    let lost = dir.join("lost");
    env.create_dir_all(&lost)?;
    // The lost/ directory entry must be durable before the file moves
    // into it — a crash between the two could otherwise drop the moved
    // file with its destination directory.
    env.sync_dir(dir)?;
    let name = path
        .file_name()
        .ok_or_else(|| Error::Corruption(format!("no file name in {}", path.display())))?;
    env.rename(path, &lost.join(name))?;
    // Publish the move itself: reopen-after-crash must not find the
    // quarantined table back in the live directory.
    env.sync_dir(dir)?;
    env.sync_dir(&lost)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Db;
    use sstable::env::MemEnv;
    use std::sync::Arc;

    fn mem_options(env: &Arc<MemEnv>) -> Options {
        Options {
            env: Arc::clone(env) as Arc<dyn sstable::env::StorageEnv>,
            write_buffer_size: 32 << 10,
            max_file_size: 16 << 10,
            slowdown_sleep: false,
            ..Default::default()
        }
    }

    fn destroy_metadata(env: &Arc<MemEnv>, dir: &Path) {
        use sstable::env::StorageEnv as _;
        for name in env.list_dir(dir).unwrap() {
            match parse_file_name(&name) {
                Some(FileType::Manifest(_)) | Some(FileType::Current) => {
                    env.remove_file(&dir.join(&name)).unwrap();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn repair_recovers_after_manifest_loss() {
        let env = Arc::new(MemEnv::new());
        let dir = Path::new("/db");
        {
            let db = Db::open(dir, mem_options(&env)).unwrap();
            for i in 0..2_000u64 {
                db.put(format!("{i:08}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.delete(b"00000007").unwrap();
            db.flush().unwrap();
            db.wait_for_background_quiescence();
            // Tail writes live only in the WAL.
            db.put(b"wal-only", b"tail").unwrap();
        }
        destroy_metadata(&env, dir);
        // Opening now fails (no CURRENT -> fresh DB would be empty); run
        // repair instead.
        let report = repair_db(dir, &mem_options(&env)).unwrap();
        assert!(report.tables_recovered > 0, "{report:?}");
        assert!(report.logs_salvaged > 0, "{report:?}");

        let db = Db::open(dir, mem_options(&env)).unwrap();
        assert_eq!(db.get(b"00000042").unwrap(), Some(b"v42".to_vec()));
        assert_eq!(
            db.get(b"00000007").unwrap(),
            None,
            "tombstone survives repair"
        );
        assert_eq!(db.get(b"wal-only").unwrap(), Some(b"tail".to_vec()));
        // Every key present.
        for i in (0..2_000u64).step_by(97) {
            if i == 7 {
                continue;
            }
            assert_eq!(
                db.get(format!("{i:08}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "{i}"
            );
        }
    }

    #[test]
    fn repair_quarantines_corrupt_tables() {
        use sstable::env::StorageEnv as _;
        let env = Arc::new(MemEnv::new());
        let dir = Path::new("/db");
        {
            let db = Db::open(dir, mem_options(&env)).unwrap();
            for i in 0..1_000u64 {
                db.put(format!("{i:08}").as_bytes(), &[7u8; 100]).unwrap();
            }
            db.flush().unwrap();
            db.wait_for_background_quiescence();
        }
        destroy_metadata(&env, dir);
        // Corrupt one table's footer.
        let victim = env
            .list_dir(dir)
            .unwrap()
            .into_iter()
            .find(|n| matches!(parse_file_name(n), Some(FileType::Table(_))))
            .expect("some table exists");
        let path = dir.join(&victim);
        let bytes = env.open_random_access(&path).unwrap().read_all().unwrap();
        let mut w = env.create_writable(&path).unwrap();
        w.append(&bytes[..bytes.len() / 2]).unwrap();
        drop(w);

        let report = repair_db(dir, &mem_options(&env)).unwrap();
        assert_eq!(report.tables_lost, 1, "{report:?}");
        assert!(report.tables_recovered >= 1);

        // The store opens; surviving data is readable.
        let db = Db::open(dir, mem_options(&env)).unwrap();
        let rows = db.scan(b"", None, usize::MAX).unwrap();
        assert!(!rows.is_empty());
    }

    fn injected(what: &str) -> sstable::Error {
        sstable::Error::Io(std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            format!("injected {what} failure"),
        ))
    }

    /// MemEnv wrapper that fails chosen operations: renames into `lost/`
    /// (a read-only or full filesystem during quarantine), or opening one
    /// file for reading.
    struct FailEnv {
        inner: Arc<MemEnv>,
        fail_lost_renames: bool,
        fail_open: Option<std::path::PathBuf>,
    }

    impl sstable::env::StorageEnv for FailEnv {
        fn open_random_access(
            &self,
            path: &Path,
        ) -> sstable::Result<Box<dyn sstable::env::RandomAccessFile>> {
            if self.fail_open.as_deref() == Some(path) {
                return Err(injected("open"));
            }
            self.inner.open_random_access(path)
        }
        fn create_writable(
            &self,
            path: &Path,
        ) -> sstable::Result<Box<dyn sstable::env::WritableFile>> {
            self.inner.create_writable(path)
        }
        fn remove_file(&self, path: &Path) -> sstable::Result<()> {
            self.inner.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> sstable::Result<()> {
            self.inner.create_dir_all(path)
        }
        fn list_dir(&self, path: &Path) -> sstable::Result<Vec<String>> {
            self.inner.list_dir(path)
        }
        fn file_exists(&self, path: &Path) -> bool {
            self.inner.file_exists(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> sstable::Result<()> {
            if self.fail_lost_renames && to.components().any(|c| c.as_os_str() == "lost") {
                return Err(injected("rename"));
            }
            self.inner.rename(from, to)
        }
    }

    /// Regression: `quarantine` used to swallow rename errors with
    /// `let _ =`, silently leaving the corrupt table in the directory
    /// with no record of the failure. It must now surface in the report
    /// and on the trace.
    #[test]
    fn quarantine_failure_is_reported_not_swallowed() {
        use sstable::env::StorageEnv as _;
        let env = Arc::new(MemEnv::new());
        let dir = Path::new("/db");
        {
            let db = Db::open(dir, mem_options(&env)).unwrap();
            for i in 0..1_000u64 {
                db.put(format!("{i:08}").as_bytes(), &[7u8; 100]).unwrap();
            }
            db.flush().unwrap();
            db.wait_for_background_quiescence();
        }
        destroy_metadata(&env, dir);
        // Corrupt one table's footer.
        let victim = env
            .list_dir(dir)
            .unwrap()
            .into_iter()
            .find(|n| matches!(parse_file_name(n), Some(FileType::Table(_))))
            .expect("some table exists");
        let path = dir.join(&victim);
        let bytes = env.open_random_access(&path).unwrap().read_all().unwrap();
        let mut w = env.create_writable(&path).unwrap();
        w.append(&bytes[..bytes.len() / 2]).unwrap();
        drop(w);

        let (obs, _clock) = obs::Obs::manual();
        let options = Options {
            env: Arc::new(FailEnv {
                inner: Arc::clone(&env),
                fail_lost_renames: true,
                fail_open: None,
            }) as Arc<dyn sstable::env::StorageEnv>,
            obs: Some(Arc::clone(&obs)),
            ..mem_options(&env)
        };
        let report = repair_db(dir, &options).unwrap();
        assert_eq!(report.tables_lost, 1, "{report:?}");
        assert_eq!(report.quarantine_failures.len(), 1, "{report:?}");
        assert!(
            report.quarantine_failures[0].contains(&victim),
            "failure must name the stuck file: {report:?}"
        );
        assert!(
            report.quarantine_failures[0].contains("injected rename failure"),
            "failure must carry the error: {report:?}"
        );
        let events = obs.trace.snapshot();
        assert!(
            events.iter().any(
                |e| matches!(&e.kind, obs::EventKind::QuarantineFailure { path }
                    if path.contains(&victim))
            ),
            "trace must record the quarantine failure: {events:?}"
        );
    }

    /// A WAL that cannot be opened is moved into `lost/` and counted, not
    /// deleted with the salvaged logs: its writes are in no table.
    #[test]
    fn unreadable_wal_is_set_aside_not_deleted() {
        use sstable::env::StorageEnv as _;
        let env = Arc::new(MemEnv::new());
        let dir = Path::new("/db");
        {
            let db = Db::open(dir, mem_options(&env)).unwrap();
            for i in 0..200u64 {
                db.put(format!("{i:08}").as_bytes(), b"v").unwrap();
            }
        }
        destroy_metadata(&env, dir);
        let wal = env
            .list_dir(dir)
            .unwrap()
            .into_iter()
            .filter(|n| matches!(parse_file_name(n), Some(FileType::Log(_))))
            .max()
            .expect("the store left a WAL");
        let wal_bytes = env
            .open_random_access(&dir.join(&wal))
            .unwrap()
            .read_all()
            .unwrap();
        assert!(!wal_bytes.is_empty());

        let options = Options {
            env: Arc::new(FailEnv {
                inner: Arc::clone(&env),
                fail_lost_renames: false,
                fail_open: Some(dir.join(&wal)),
            }) as Arc<dyn sstable::env::StorageEnv>,
            ..mem_options(&env)
        };
        let report = repair_db(dir, &options).unwrap();
        assert_eq!(report.logs_lost, 1, "{report:?}");
        assert!(report.quarantine_failures.is_empty(), "{report:?}");
        assert!(
            !env.file_exists(&dir.join(&wal)),
            "moved out of the live dir"
        );
        let kept = env
            .open_random_access(&dir.join("lost").join(&wal))
            .expect("the WAL is in lost/")
            .read_all()
            .unwrap();
        assert_eq!(kept, wal_bytes, "byte for byte");
    }

    /// The repaired MANIFEST, CURRENT and table renames are durable once
    /// `repair_db` returns: a power cut right after it loses nothing.
    #[test]
    fn repaired_store_survives_a_power_cut() {
        use sstable::env::{FaultEnv, StorageEnv};
        for seed in 0..3u64 {
            let fault = FaultEnv::new(Arc::new(MemEnv::new()), seed);
            let env: Arc<dyn StorageEnv> = Arc::new(fault.clone());
            let options = Options {
                env: Arc::clone(&env),
                write_buffer_size: 32 << 10,
                max_file_size: 16 << 10,
                slowdown_sleep: false,
                ..Default::default()
            };
            let dir = Path::new("/db");
            {
                let db = Db::open(dir, options.clone()).unwrap();
                for i in 0..2_000u64 {
                    db.put(format!("{i:08}").as_bytes(), format!("v{i}").as_bytes())
                        .unwrap();
                }
                db.flush().unwrap();
                db.wait_for_background_quiescence();
            }
            // Lose the metadata, durably.
            for name in env.list_dir(dir).unwrap() {
                if matches!(
                    parse_file_name(&name),
                    Some(FileType::Manifest(_)) | Some(FileType::Current)
                ) {
                    env.remove_file(&dir.join(&name)).unwrap();
                }
            }
            env.sync_dir(dir).unwrap();

            let report = repair_db(dir, &options).unwrap();
            assert!(report.tables_recovered > 0, "{report:?}");
            fault.power_cut(seed).unwrap();

            let db = Db::open(dir, options).unwrap();
            for i in 0..2_000u64 {
                assert_eq!(
                    db.get(format!("{i:08}").as_bytes()).unwrap(),
                    Some(format!("v{i}").into_bytes()),
                    "seed {seed}, key {i}"
                );
            }
        }
    }

    /// Torn value-log tails are cut back to the last whole record and
    /// surviving pointers still dereference after repair.
    #[test]
    fn repair_truncates_torn_vlog_tail() {
        use sstable::env::StorageEnv as _;
        let env = Arc::new(MemEnv::new());
        let dir = Path::new("/db");
        let options = Options {
            value_log_threshold_bytes: Some(128),
            ..mem_options(&env)
        };
        {
            let db = Db::open(dir, options.clone()).unwrap();
            db.put(b"small", b"inline").unwrap();
            db.put(b"big", &[b'a'; 1024]).unwrap();
        }
        destroy_metadata(&env, dir);
        // Tear the active segment: valid records plus a short garbage tail.
        let seg = env
            .list_dir(dir)
            .unwrap()
            .into_iter()
            .find(|n| matches!(parse_file_name(n), Some(FileType::ValueLog(_))))
            .expect("segment exists");
        let path = dir.join(&seg);
        let bytes = env.open_random_access(&path).unwrap().read_all().unwrap();
        let mut w = env.create_writable(&path).unwrap();
        w.append(&bytes).unwrap();
        w.append(&[0xEE; 7]).unwrap();
        drop(w);

        let report = repair_db(dir, &options).unwrap();
        assert_eq!(report.vlog_segments_truncated, 1, "{report:?}");
        assert_eq!(report.vlog_dangling_dropped, 0, "{report:?}");

        let db = Db::open(dir, options).unwrap();
        assert_eq!(db.get(b"small").unwrap(), Some(b"inline".to_vec()));
        assert_eq!(db.get(b"big").unwrap(), Some(vec![b'a'; 1024]));
    }

    /// Pointers into a lost segment are dropped during WAL salvage
    /// instead of resurrecting unreadable values.
    #[test]
    fn repair_drops_dangling_vlog_pointers() {
        use sstable::env::StorageEnv as _;
        let env = Arc::new(MemEnv::new());
        let dir = Path::new("/db");
        let options = Options {
            value_log_threshold_bytes: Some(128),
            ..mem_options(&env)
        };
        {
            let db = Db::open(dir, options.clone()).unwrap();
            db.put(b"small", b"inline").unwrap();
            db.put(b"big", &[b'a'; 1024]).unwrap();
        }
        destroy_metadata(&env, dir);
        for name in env.list_dir(dir).unwrap() {
            if matches!(parse_file_name(&name), Some(FileType::ValueLog(_))) {
                env.remove_file(&dir.join(&name)).unwrap();
            }
        }
        let report = repair_db(dir, &options).unwrap();
        assert_eq!(report.vlog_dangling_dropped, 1, "{report:?}");

        let db = Db::open(dir, options).unwrap();
        assert_eq!(db.get(b"small").unwrap(), Some(b"inline".to_vec()));
        assert_eq!(db.get(b"big").unwrap(), None, "dangling pointer dropped");
    }

    #[test]
    fn repair_on_healthy_db_is_lossless() {
        let env = Arc::new(MemEnv::new());
        let dir = Path::new("/db");
        {
            let db = Db::open(dir, mem_options(&env)).unwrap();
            for i in 0..500u64 {
                db.put(format!("{i:08}").as_bytes(), b"x").unwrap();
            }
            db.flush().unwrap();
            db.wait_for_background_quiescence();
        }
        repair_db(dir, &mem_options(&env)).unwrap();
        let db = Db::open(dir, mem_options(&env)).unwrap();
        for i in (0..500u64).step_by(41) {
            assert!(db.get(format!("{i:08}").as_bytes()).unwrap().is_some());
        }
    }
}

#[cfg(test)]
mod age_ordering_tests {
    use super::*;
    use crate::Db;
    use sstable::env::MemEnv;
    use std::sync::Arc;

    /// Overwrites spread across compacted levels: after repair, the newest
    /// version of every key must still win even though compaction outputs
    /// carried old data under high file numbers.
    #[test]
    fn repair_preserves_version_order_across_overwrites() {
        let env = Arc::new(MemEnv::new());
        let dir = Path::new("/db");
        let options = Options {
            env: Arc::clone(&env) as Arc<dyn sstable::env::StorageEnv>,
            write_buffer_size: 16 << 10,
            max_file_size: 8 << 10,
            level1_max_bytes: 32 << 10,
            slowdown_sleep: false,
            ..Default::default()
        };
        {
            let db = Db::open(dir, options.clone()).unwrap();
            // Three generations of the same keys, with compactions between.
            for round in 0..3u64 {
                for i in 0..600u64 {
                    db.put(
                        format!("{i:06}").as_bytes(),
                        format!("round-{round}").as_bytes(),
                    )
                    .unwrap();
                }
                db.flush().unwrap();
                db.wait_for_background_quiescence();
            }
        }
        // Lose the metadata, repair, reopen.
        use sstable::env::StorageEnv as _;
        for name in env.list_dir(dir).unwrap() {
            if matches!(
                parse_file_name(&name),
                Some(FileType::Manifest(_)) | Some(FileType::Current)
            ) {
                env.remove_file(&dir.join(&name)).unwrap();
            }
        }
        repair_db(dir, &options).unwrap();
        let db = Db::open(dir, options).unwrap();
        for i in (0..600u64).step_by(13) {
            assert_eq!(
                db.get(format!("{i:06}").as_bytes()).unwrap(),
                Some(b"round-2".to_vec()),
                "key {i} must read its newest version"
            );
        }
    }
}
