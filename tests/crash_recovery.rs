//! Crash-recovery and durability properties: the WAL and MANIFEST must
//! reconstruct exactly the acknowledged state, including across engine
//! switches and repeated open/close cycles.

use std::collections::HashMap;
use std::sync::Arc;

use fcae_repro::fcae::FcaeConfig;
use fcae_repro::lsm::{Db, Options};
use fcae_repro::offload::{OffloadConfig, OffloadService};
use fcae_repro::sstable::env::{MemEnv, StorageEnv};

fn options(env: &Arc<MemEnv>) -> Options {
    Options {
        env: Arc::clone(env) as Arc<dyn StorageEnv>,
        write_buffer_size: 64 << 10,
        max_file_size: 32 << 10,
        slowdown_sleep: false,
        ..Default::default()
    }
}

/// A model map mirroring what the store must contain.
type Model = HashMap<Vec<u8>, Option<Vec<u8>>>;

fn verify(db: &Db, model: &Model) {
    for (k, v) in model {
        let got = db.get(k).unwrap();
        assert_eq!(&got, v, "key {:?}", String::from_utf8_lossy(k));
    }
}

#[test]
fn repeated_reopen_preserves_everything() {
    let env = Arc::new(MemEnv::new());
    let mut model: Model = HashMap::new();
    for round in 0..5u64 {
        let db = Db::open("/db", options(&env)).unwrap();
        verify(&db, &model);
        for i in 0..600u64 {
            let key = format!("key{:06}", (round * 331 + i * 7) % 2000).into_bytes();
            if (i + round) % 11 == 0 {
                db.delete(&key).unwrap();
                model.insert(key, None);
            } else {
                let value = format!("r{round}i{i}").into_bytes();
                db.put(&key, &value).unwrap();
                model.insert(key, Some(value));
            }
        }
        if round % 2 == 0 {
            db.flush().unwrap();
            db.wait_for_background_quiescence();
        }
        // Dropped here: unflushed rounds rely on WAL replay.
    }
    let db = Db::open("/db", options(&env)).unwrap();
    verify(&db, &model);
}

#[test]
fn recovery_after_fcae_compactions() {
    let env = Arc::new(MemEnv::new());
    let mut model: Model = HashMap::new();
    let svc = Arc::new(OffloadService::new(
        FcaeConfig::nine_input(),
        OffloadConfig::default(),
    ));
    {
        let db = Db::open_with_engine("/db", options(&env), Arc::clone(&svc) as _).unwrap();
        for i in 0..5_000u64 {
            let key = format!("{i:016}").into_bytes();
            let value = vec![(i % 251) as u8; 150];
            db.put(&key, &value).unwrap();
            model.insert(key, Some(value));
        }
        db.flush().unwrap();
        db.wait_for_background_quiescence();
        // Rewrite a prefix so later flushes overlap earlier levels and the
        // engine performs real (non-trivial-move) merges. Flushing in
        // small steps keeps L0 narrow, so every compaction fits N=9 and
        // runs on the engine deterministically.
        for round in 0..5u64 {
            for i in (round * 500)..(round * 500 + 500) {
                let key = format!("{i:016}").into_bytes();
                let value = vec![((i + 7) % 251) as u8; 150];
                db.put(&key, &value).unwrap();
                model.insert(key, Some(value));
            }
            db.flush().unwrap();
            db.wait_for_background_quiescence();
        }
        assert!(
            db.stats().engine_compactions > 0,
            "compactions must have run"
        );
        let m = svc.metrics();
        assert!(m.fpga_jobs > 0, "no compaction ran on the device: {m:?}");
        assert_eq!(m.cpu_jobs(), 0, "every merge ran on the device: {m:?}");
    }
    // Recover with the default engine: FCAE-written tables are standard.
    let db = Db::open("/db", options(&env)).unwrap();
    verify(&db, &model);
}

#[test]
fn unflushed_tail_survives_via_wal() {
    let env = Arc::new(MemEnv::new());
    {
        let db = Db::open("/db", options(&env)).unwrap();
        for i in 0..3_000u64 {
            db.put(format!("{i:016}").as_bytes(), b"flushed").unwrap();
        }
        db.flush().unwrap();
        db.wait_for_background_quiescence();
        // Tail writes stay only in the WAL (no flush before drop).
        for i in 0..100u64 {
            db.put(format!("tail{i:04}").as_bytes(), b"wal-only")
                .unwrap();
        }
        db.delete(b"0000000000000000").unwrap();
    }
    let db = Db::open("/db", options(&env)).unwrap();
    assert_eq!(db.get(b"tail0099").unwrap(), Some(b"wal-only".to_vec()));
    assert_eq!(db.get(b"0000000000000000").unwrap(), None);
    assert_eq!(
        db.get(b"0000000000000001").unwrap(),
        Some(b"flushed".to_vec())
    );
}

#[test]
fn sequence_numbers_resume_after_recovery() {
    let env = Arc::new(MemEnv::new());
    {
        let db = Db::open("/db", options(&env)).unwrap();
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
    }
    {
        // New writes after recovery must supersede WAL-replayed ones.
        let db = Db::open("/db", options(&env)).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
        db.put(b"k", b"v3").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v3".to_vec()));
    }
    let db = Db::open("/db", options(&env)).unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"v3".to_vec()));
}
