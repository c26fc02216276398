//! Cross-crate integration: the full store, driven by the workload
//! generators, on both engines, over the real filesystem.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fcae_repro::fcae::{FcaeConfig, FcaeEngine};
use fcae_repro::lsm::{Db, Options};
use fcae_repro::sstable::env::{MemEnv, RandomAccessFile, StorageEnv, WritableFile};
use fcae_repro::sstable::Result as EnvResult;
use fcae_repro::workloads::{KeyFormat, ValueGenerator};

fn small_options(env: Arc<MemEnv>) -> Options {
    Options {
        env: env as Arc<dyn StorageEnv>,
        write_buffer_size: 128 << 10,
        max_file_size: 64 << 10,
        level1_max_bytes: 256 << 10,
        slowdown_sleep: false,
        ..Default::default()
    }
}

/// Drives identical workloads into a CPU-engine store and an FCAE-engine
/// store and verifies every read agrees.
#[test]
fn cpu_and_fcae_stores_agree_on_reads() {
    let env_cpu = Arc::new(MemEnv::new());
    let env_fcae = Arc::new(MemEnv::new());
    let db_cpu = Db::open("/cpu", small_options(Arc::clone(&env_cpu))).unwrap();
    let db_fcae = Db::open_with_engine(
        "/fcae",
        small_options(Arc::clone(&env_fcae)),
        Arc::new(FcaeEngine::new(FcaeConfig::nine_input())),
    )
    .unwrap();

    let kf = KeyFormat::default();
    let mut values = ValueGenerator::new(11, 0.5);
    // Sequential fill + overwrites + deletions.
    for i in 0..6_000u64 {
        let key = kf.format(i);
        let v = values.generate(200).to_vec();
        db_cpu.put(&key, &v).unwrap();
        db_fcae.put(&key, &v).unwrap();
    }
    for i in (0..6_000u64).step_by(7) {
        let key = kf.format(i);
        db_cpu.delete(&key).unwrap();
        db_fcae.delete(&key).unwrap();
    }
    for db in [&db_cpu, &db_fcae] {
        db.flush().unwrap();
        db.wait_for_background_quiescence();
    }

    for i in 0..6_000u64 {
        let key = kf.format(i);
        let a = db_cpu.get(&key).unwrap();
        let b = db_fcae.get(&key).unwrap();
        assert_eq!(a, b, "key {i}");
        if i % 7 == 0 {
            assert_eq!(a, None, "key {i} was deleted");
        } else {
            assert!(a.is_some(), "key {i} must be present");
        }
    }

    // Both stores really compacted.
    assert!(db_cpu.stats().engine_compactions + db_cpu.stats().trivial_moves > 0);
    let f = db_fcae.stats();
    assert!(f.engine_compactions > 0, "{f:?}");
}

/// Scans agree across engines after heavy churn.
#[test]
fn scans_agree_across_engines() {
    let env_cpu = Arc::new(MemEnv::new());
    let env_fcae = Arc::new(MemEnv::new());
    let db_cpu = Db::open("/cpu", small_options(Arc::clone(&env_cpu))).unwrap();
    let db_fcae = Db::open_with_engine(
        "/fcae",
        small_options(Arc::clone(&env_fcae)),
        Arc::new(FcaeEngine::new(FcaeConfig::nine_input())),
    )
    .unwrap();

    let kf = KeyFormat::default();
    for round in 0..4u64 {
        for i in 0..2_000u64 {
            let key = kf.format(i);
            let v = format!("round-{round}-value-{i}");
            db_cpu.put(&key, v.as_bytes()).unwrap();
            db_fcae.put(&key, v.as_bytes()).unwrap();
        }
        db_cpu.flush().unwrap();
        db_fcae.flush().unwrap();
    }
    db_cpu.wait_for_background_quiescence();
    db_fcae.wait_for_background_quiescence();

    let a = db_cpu
        .scan(&kf.format(500), Some(&kf.format(600)), 1000)
        .unwrap();
    let b = db_fcae
        .scan(&kf.format(500), Some(&kf.format(600)), 1000)
        .unwrap();
    assert_eq!(a.len(), 100);
    assert_eq!(a, b);
    for (k, v) in &a {
        assert!(v.starts_with(b"round-3"), "latest round wins: {k:?}");
    }
}

/// The std-filesystem environment works end to end with the FCAE engine.
#[test]
fn fcae_store_on_real_filesystem() {
    let dir = std::env::temp_dir().join(format!("fcae-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = Options {
        write_buffer_size: 64 << 10,
        max_file_size: 32 << 10,
        slowdown_sleep: false,
        ..Default::default()
    };
    {
        let db = Db::open_with_engine(
            &dir,
            options.clone(),
            Arc::new(FcaeEngine::new(FcaeConfig::nine_input())),
        )
        .unwrap();
        for i in 0..2_000u64 {
            db.put(format!("{i:016}").as_bytes(), &[7u8; 100]).unwrap();
        }
        db.flush().unwrap();
        db.wait_for_background_quiescence();
    }
    // Reopen (recovery path) with the CPU engine: format compatibility.
    {
        let db = Db::open(&dir, options).unwrap();
        for i in (0..2_000u64).step_by(97) {
            assert_eq!(
                db.get(format!("{i:016}").as_bytes()).unwrap(),
                Some(vec![7u8; 100])
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `MemEnv` that counts `read_at` calls on every file it opens.
struct ReadCountingEnv {
    inner: MemEnv,
    reads: Arc<AtomicU64>,
}

struct CountedFile {
    inner: Box<dyn RandomAccessFile>,
    reads: Arc<AtomicU64>,
}

impl RandomAccessFile for CountedFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> EnvResult<usize> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_at(offset, buf)
    }
    fn len(&self) -> EnvResult<u64> {
        self.inner.len()
    }
}

impl StorageEnv for ReadCountingEnv {
    fn open_random_access(&self, path: &Path) -> EnvResult<Box<dyn RandomAccessFile>> {
        Ok(Box::new(CountedFile {
            inner: self.inner.open_random_access(path)?,
            reads: Arc::clone(&self.reads),
        }))
    }
    fn create_writable(&self, path: &Path) -> EnvResult<Box<dyn WritableFile>> {
        self.inner.create_writable(path)
    }
    fn remove_file(&self, path: &Path) -> EnvResult<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> EnvResult<()> {
        self.inner.create_dir_all(path)
    }
    fn list_dir(&self, path: &Path) -> EnvResult<Vec<String>> {
        self.inner.list_dir(path)
    }
    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> EnvResult<()> {
        self.inner.rename(from, to)
    }
}

/// Tables the device engine builds carry a filter: a get for a key that
/// no table holds is answered without reading a block. (Before the
/// Filter Block Encoder every such probe read one.)
#[test]
fn absent_gets_on_device_built_tables_read_no_blocks() {
    let reads = Arc::new(AtomicU64::new(0));
    let env = ReadCountingEnv {
        inner: MemEnv::new(),
        reads: Arc::clone(&reads),
    };
    let options = Options {
        env: Arc::new(env) as Arc<dyn StorageEnv>,
        // No block cache: every block a get needs is a read of the env.
        block_cache_bytes: None,
        slowdown_sleep: false,
        ..Default::default()
    };
    let db = Db::open_with_engine(
        "/db",
        options,
        Arc::new(FcaeEngine::new(FcaeConfig::nine_input())),
    )
    .unwrap();

    // Even keys only, in two interleaved, overlapping flushes: compacting
    // them is a real merge (no trivial move keeps a flush-built table),
    // so every table at rest comes from the device engine.
    const KEYS: u64 = 40_000;
    let kf = KeyFormat::default();
    let value = |i: u64| format!("value-{i:0>100}").into_bytes();
    for half in 0..2 {
        for i in (0..KEYS).filter(|i| i % 2 == 0 && (i / 2) % 2 == half) {
            db.put(&kf.format(i), &value(i)).unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    let stats = db.stats();
    assert!(stats.engine_compactions > 0, "{stats:?}");
    assert_eq!(db.level_file_counts()[0], 0, "nothing flush-built is left");

    let registry = db.obs().registry.clone();
    let probes = || registry.counter_value("lsm.get.table_probes").unwrap_or(0);
    let (reads_before, probes_before) = (reads.load(Ordering::Relaxed), probes());
    // 10,000 distinct odd keys below the largest written one, each far
    // from the one before it, so no two consecutive gets share a block.
    let absent = (0..10_000u64).map(|j| (j * 2 * 7919 + 1) % (KEYS - 2));
    for i in absent {
        assert_eq!(db.get(&kf.format(i)).unwrap(), None, "key {i}");
    }
    let block_reads = reads.load(Ordering::Relaxed) - reads_before;
    let table_probes = probes() - probes_before;
    assert!(
        table_probes >= 10_000,
        "every key is inside some table's range"
    );
    assert!(
        (block_reads as f64) < 0.03 * table_probes as f64,
        "{block_reads} block reads for {table_probes} table probes"
    );

    for i in (0..KEYS).filter(|i| i % 2 == 0) {
        assert_eq!(db.get(&kf.format(i)).unwrap(), Some(value(i)), "key {i}");
    }
}
