//! Disaster recovery walk-through: fill a store with the FCAE engine,
//! destroy its MANIFEST and CURRENT files, repair, and verify every key.
//!
//! ```sh
//! cargo run --release --example disaster_recovery
//! ```

use std::sync::Arc;

use fcae_repro::fcae::FcaeConfig;
use fcae_repro::lsm::filename::{parse_file_name, FileType};
use fcae_repro::lsm::{repair_db, Db, Options};
use fcae_repro::offload::{OffloadConfig, OffloadService};

fn main() {
    let dir = std::env::temp_dir().join("fcae-disaster-demo");
    let _ = std::fs::remove_dir_all(&dir);
    let options = Options {
        write_buffer_size: 256 << 10,
        max_file_size: 128 << 10,
        slowdown_sleep: false,
        ..Default::default()
    };

    // 1. Fill with the FCAE engine, leave a WAL tail unflushed.
    println!("1. filling store (FCAE engine)...");
    {
        let db = Db::open_with_engine(
            &dir,
            options.clone(),
            Arc::new(OffloadService::new(
                FcaeConfig::nine_input(),
                OffloadConfig::default(),
            )),
        )
        .expect("open");
        for i in 0..10_000u64 {
            db.put(
                format!("{i:08}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .expect("put");
        }
        db.delete(b"00000123").expect("delete");
        db.flush().expect("flush");
        db.wait_for_background_quiescence();
        db.put(b"wal-tail", b"unflushed").expect("put");
        let s = db.stats();
        println!(
            "   {} flushes, {} FCAE compactions, levels {:?}",
            s.flushes,
            s.engine_compactions,
            db.level_file_counts()
        );
    }

    // 2. Disaster: metadata destroyed.
    println!("2. destroying MANIFEST and CURRENT...");
    let mut destroyed = 0;
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let entry = entry.expect("entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if matches!(
            parse_file_name(&name),
            Some(FileType::Manifest(_)) | Some(FileType::Current)
        ) {
            std::fs::remove_file(entry.path()).expect("remove");
            destroyed += 1;
        }
    }
    println!("   removed {destroyed} metadata files");

    // 3. Repair.
    println!("3. repairing...");
    let report = repair_db(&dir, &options).expect("repair");
    println!(
        "   {} tables recovered, {} WALs salvaged ({} entries), last seq {}",
        report.tables_recovered,
        report.logs_salvaged,
        report.log_entries_salvaged,
        report.max_sequence
    );

    // 4. Verify.
    println!("4. verifying...");
    let db = Db::open(&dir, options).expect("reopen");
    let mut checked = 0u64;
    for i in 0..10_000u64 {
        let got = db.get(format!("{i:08}").as_bytes()).expect("get");
        if i == 123 {
            assert_eq!(got, None, "tombstone must survive repair");
        } else {
            assert_eq!(got, Some(format!("value-{i}").into_bytes()), "key {i}");
        }
        checked += 1;
    }
    assert_eq!(
        db.get(b"wal-tail").expect("get"),
        Some(b"unflushed".to_vec())
    );
    println!("   all {checked} keys verified, WAL tail intact, tombstone intact.");

    let _ = std::fs::remove_dir_all(&dir);
}
