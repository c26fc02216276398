//! `lsm-dbtool` — inspect and verify databases and SSTables.
//!
//! ```sh
//! lsm-dbtool stats  <db-dir>     # levels, file counts, manifest state
//! lsm-dbtool verify <db-dir>     # full scan with checksum verification
//! lsm-dbtool dump   <table.ldb>  # print every entry of one table
//! lsm-dbtool get    <db-dir> <key>
//! lsm-dbtool repair <db-dir>     # rebuild MANIFEST from tables + WALs
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lsm::filename::{parse_file_name, FileType};
use lsm::{Db, Options};
use sstable::env::{StdEnv, StorageEnv};
use sstable::ikey::parse_internal_key;
use sstable::iterator::InternalIterator;
use sstable::table::{Table, TableReadOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, dir] if cmd == "stats" => stats(Path::new(dir)),
        [cmd, dir] if cmd == "verify" => verify(Path::new(dir)),
        [cmd, file] if cmd == "dump" => dump(Path::new(file)),
        [cmd, dir, key] if cmd == "get" => get(Path::new(dir), key.as_bytes()),
        [cmd, dir] if cmd == "repair" => repair(Path::new(dir)),
        _ => {
            eprintln!(
                "usage: lsm-dbtool <stats|verify|repair> <db-dir> | dump <table.ldb> | get <db-dir> <key>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn open_db(dir: &Path) -> lsm::Result<Db> {
    Db::open(
        dir,
        Options {
            slowdown_sleep: false,
            ..Default::default()
        },
    )
}

fn stats(dir: &Path) -> lsm::Result<()> {
    let env = StdEnv;
    let mut logs = 0usize;
    let mut tables: Vec<(u64, u64)> = Vec::new();
    let mut manifests = 0usize;
    for name in env.list_dir(dir).map_err(lsm::Error::from)? {
        match parse_file_name(&name) {
            Some(FileType::Log(_)) => logs += 1,
            Some(FileType::Table(n)) => {
                let size = env
                    .open_random_access(&dir.join(&name))
                    .and_then(|f| f.len())
                    .unwrap_or(0);
                tables.push((n, size));
            }
            Some(FileType::Manifest(_)) => manifests += 1,
            _ => {}
        }
    }
    tables.sort_unstable();
    println!("database: {}", dir.display());
    println!("  WAL files:      {logs}");
    println!("  MANIFEST files: {manifests}");
    println!(
        "  SSTables:       {} ({} bytes total)",
        tables.len(),
        tables.iter().map(|(_, s)| s).sum::<u64>()
    );

    let db = open_db(dir)?;
    let counts = db.level_file_counts();
    for (level, count) in counts.iter().enumerate() {
        if *count > 0 {
            println!("  level {level}: {count} files");
        }
    }
    Ok(())
}

fn verify(dir: &Path) -> lsm::Result<()> {
    let db = open_db(dir)?;
    let rows = db.scan(b"", None, usize::MAX)?;
    let mut last: Option<Vec<u8>> = None;
    for (k, _) in &rows {
        if let Some(prev) = &last {
            if prev >= k {
                return Err(lsm::Error::Corruption(format!(
                    "scan order violation at key {:?}",
                    String::from_utf8_lossy(k)
                )));
            }
        }
        last = Some(k.clone());
    }
    println!(
        "ok: {} live keys, scan ordered, checksums verified",
        rows.len()
    );
    Ok(())
}

fn dump(file: &Path) -> lsm::Result<()> {
    let env = StdEnv;
    let f = env.open_random_access(file).map_err(lsm::Error::from)?;
    let size = f.len().map_err(lsm::Error::from)?;
    let opts = TableReadOptions::default();
    let table = Table::open(f, size, opts).map_err(lsm::Error::from)?;
    let mut it = table.iter();
    it.seek_to_first();
    let mut n = 0u64;
    while it.valid() {
        match parse_internal_key(it.key()) {
            Some(p) => println!(
                "{:?} @ seq {} [{}] => {} bytes",
                String::from_utf8_lossy(p.user_key),
                p.sequence,
                match p.value_type {
                    sstable::ikey::ValueType::Value => "put",
                    sstable::ikey::ValueType::Deletion => "del",
                },
                it.value().len()
            ),
            None => println!("<unparseable internal key: {:?}>", it.key()),
        }
        n += 1;
        it.next();
    }
    it.status().map_err(lsm::Error::from)?;
    println!("-- {n} entries, {size} bytes");
    Ok(())
}

fn get(dir: &Path, key: &[u8]) -> lsm::Result<()> {
    let db = open_db(dir)?;
    match db.get(key)? {
        Some(v) => {
            println!("{}", String::from_utf8_lossy(&v));
            Ok(())
        }
        None => Err(lsm::Error::InvalidArgument("key not found".into())),
    }
}

fn repair(dir: &Path) -> lsm::Result<()> {
    let options = Options {
        slowdown_sleep: false,
        ..Default::default()
    };
    let report = lsm::repair_db(dir, &options)?;
    println!(
        "repaired: {} tables recovered, {} quarantined, {} WALs salvaged ({} entries), last seq {}",
        report.tables_recovered,
        report.tables_lost,
        report.logs_salvaged,
        report.log_entries_salvaged,
        report.max_sequence
    );
    Ok(())
}

// Keep PathBuf in scope for future subcommands without a warning churn.
#[allow(dead_code)]
type _P = PathBuf;
