//! End-to-end tests of the store through its public API, run against the
//! in-memory environment for hermeticity and speed.

use std::sync::Arc;

use lsm::{Db, Options, WriteBatch, WriteOptions};
use sstable::env::{MemEnv, StorageEnv};

fn mem_options() -> (Arc<MemEnv>, Options) {
    let env = Arc::new(MemEnv::new());
    let options = Options {
        env: Arc::clone(&env) as Arc<dyn StorageEnv>,
        slowdown_sleep: false,
        ..Default::default()
    };
    (env, options)
}

/// Small-buffer options so flushes and compactions trigger quickly.
fn small_options() -> (Arc<MemEnv>, Options) {
    let (env, mut options) = mem_options();
    options.write_buffer_size = 64 << 10;
    options.max_file_size = 32 << 10;
    options.level1_max_bytes = 128 << 10;
    (env, options)
}

#[test]
fn put_get_delete_roundtrip() {
    let (_env, options) = mem_options();
    let db = Db::open("/db", options).unwrap();
    assert_eq!(db.get(b"missing").unwrap(), None);
    db.put(b"alpha", b"1").unwrap();
    db.put(b"beta", b"2").unwrap();
    assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
    assert_eq!(db.get(b"beta").unwrap(), Some(b"2".to_vec()));
    db.delete(b"alpha").unwrap();
    assert_eq!(db.get(b"alpha").unwrap(), None);
    assert_eq!(db.get(b"beta").unwrap(), Some(b"2".to_vec()));
}

#[test]
fn overwrites_return_latest() {
    let (_env, options) = mem_options();
    let db = Db::open("/db", options).unwrap();
    for i in 0..100 {
        db.put(b"key", format!("v{i}").as_bytes()).unwrap();
    }
    assert_eq!(db.get(b"key").unwrap(), Some(b"v99".to_vec()));
}

#[test]
fn batch_is_atomic_and_ordered() {
    let (_env, options) = mem_options();
    let db = Db::open("/db", options).unwrap();
    let mut batch = WriteBatch::new();
    batch.put(b"a", b"1");
    batch.put(b"b", b"2");
    batch.delete(b"a");
    db.write(batch, WriteOptions::default()).unwrap();
    assert_eq!(db.get(b"a").unwrap(), None);
    assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
}

#[test]
fn reads_hit_sstables_after_flush() {
    let (_env, options) = mem_options();
    let db = Db::open("/db", options).unwrap();
    for i in 0..500 {
        db.put(
            format!("key{i:04}").as_bytes(),
            format!("val{i}").as_bytes(),
        )
        .unwrap();
    }
    db.flush().unwrap();
    let counts = db.level_file_counts();
    assert!(counts[0] >= 1, "flush should create an L0 file: {counts:?}");
    for i in (0..500).step_by(17) {
        assert_eq!(
            db.get(format!("key{i:04}").as_bytes()).unwrap(),
            Some(format!("val{i}").into_bytes()),
            "key{i:04}"
        );
    }
    assert_eq!(db.get(b"key9999").unwrap(), None);
}

#[test]
fn deletes_survive_flush() {
    let (_env, options) = mem_options();
    let db = Db::open("/db", options).unwrap();
    db.put(b"k", b"v").unwrap();
    db.flush().unwrap();
    db.delete(b"k").unwrap();
    db.flush().unwrap();
    assert_eq!(db.get(b"k").unwrap(), None);
}

#[test]
fn recovery_from_wal() {
    let (env, options) = mem_options();
    {
        let db = Db::open("/db", options.clone()).unwrap();
        db.put(b"persisted", b"yes").unwrap();
        db.put(b"deleted", b"no").unwrap();
        db.delete(b"deleted").unwrap();
        // Dropped without flush: data only in the WAL.
    }
    let options2 = Options {
        env: Arc::clone(&env) as Arc<dyn StorageEnv>,
        slowdown_sleep: false,
        ..Default::default()
    };
    let db = Db::open("/db", options2).unwrap();
    assert_eq!(db.get(b"persisted").unwrap(), Some(b"yes".to_vec()));
    assert_eq!(db.get(b"deleted").unwrap(), None);
    let _ = options;
}

#[test]
fn recovery_from_manifest_and_tables() {
    let (env, options) = mem_options();
    {
        let db = Db::open("/db", options.clone()).unwrap();
        for i in 0..200 {
            db.put(format!("key{i:04}").as_bytes(), b"stable").unwrap();
        }
        db.flush().unwrap();
        db.put(b"in-wal-only", b"fresh").unwrap();
    }
    let options2 = Options {
        env: Arc::clone(&env) as Arc<dyn StorageEnv>,
        slowdown_sleep: false,
        ..Default::default()
    };
    let db = Db::open("/db", options2).unwrap();
    assert_eq!(db.get(b"key0042").unwrap(), Some(b"stable".to_vec()));
    assert_eq!(db.get(b"in-wal-only").unwrap(), Some(b"fresh".to_vec()));
    let _ = options;
}

#[test]
fn compactions_triggered_and_data_survives() {
    let (_env, options) = small_options();
    let db = Db::open("/db", options).unwrap();
    // Write enough to force several flushes and at least one compaction.
    let value = vec![0xabu8; 512];
    for i in 0..2000u32 {
        db.put(format!("key{:06}", i % 700).as_bytes(), &value)
            .unwrap();
    }
    db.flush().unwrap();
    db.wait_for_background_quiescence();
    let stats = db.stats();
    assert!(stats.flushes >= 2, "expected multiple flushes: {stats:?}");
    assert!(
        stats.engine_compactions + stats.trivial_moves + stats.sw_fallback_compactions >= 1,
        "expected at least one compaction: {stats:?}"
    );
    // All 700 distinct keys must read back the last written value.
    for i in 0..700u32 {
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap().as_deref(),
            Some(&value[..]),
            "key{i:06}"
        );
    }
    // Deeper levels got populated.
    let counts = db.level_file_counts();
    assert!(counts.iter().skip(1).any(|&c| c > 0), "levels: {counts:?}");
}

#[test]
fn snapshot_reads_are_frozen() {
    let (_env, options) = mem_options();
    let db = Db::open("/db", options).unwrap();
    db.put(b"k", b"old").unwrap();
    let snap = db.snapshot();
    db.put(b"k", b"new").unwrap();
    db.delete(b"gone-later").unwrap();
    let read_opts = lsm::ReadOptions {
        snapshot: Some(snap.sequence),
    };
    assert_eq!(db.get_with(b"k", read_opts).unwrap(), Some(b"old".to_vec()));
    assert_eq!(db.get(b"k").unwrap(), Some(b"new".to_vec()));
}

#[test]
fn snapshot_protects_entries_across_flush() {
    let (_env, options) = mem_options();
    let db = Db::open("/db", options).unwrap();
    db.put(b"k", b"v1").unwrap();
    let snap = db.snapshot();
    db.put(b"k", b"v2").unwrap();
    db.flush().unwrap();
    db.wait_for_background_quiescence();
    let read_opts = lsm::ReadOptions {
        snapshot: Some(snap.sequence),
    };
    assert_eq!(db.get_with(b"k", read_opts).unwrap(), Some(b"v1".to_vec()));
}

/// A read at a sequence no snapshot holds — a reader that sampled the
/// visible sequence and loaded its view after a compaction installed —
/// still finds the key: the compaction kept only the newest version at
/// or below its horizon, so the read runs at that horizon instead of
/// finding nothing older than the version it dropped.
#[test]
fn a_read_below_a_compaction_horizon_still_finds_the_key() {
    let (_env, options) = mem_options();
    let db = Db::open("/db", options).unwrap();
    db.put(b"k", b"v1").unwrap();
    db.flush().unwrap();
    let sampled = db.visible_sequence();
    db.put(b"k", b"v2").unwrap();
    // Two tables, so the compaction merges rather than moves.
    db.flush().unwrap();
    db.compact_all().unwrap();
    let at_sampled = lsm::ReadOptions {
        snapshot: Some(sampled),
    };
    assert_eq!(
        db.get_with(b"k", at_sampled).unwrap(),
        Some(b"v2".to_vec()),
        "v1 was merged away, so the read runs at the compaction's horizon"
    );
    let mut it = db.iter_with(at_sampled).unwrap();
    it.seek(b"k");
    assert!(it.valid());
    assert_eq!((it.key(), it.value()), (&b"k"[..], &b"v2"[..]));
}

#[test]
fn scan_returns_live_range_in_order() {
    let (_env, options) = small_options();
    let db = Db::open("/db", options).unwrap();
    for i in 0..300u32 {
        db.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    db.delete(b"key0005").unwrap();
    db.put(b"key0006", b"updated").unwrap();
    db.flush().unwrap();
    db.wait_for_background_quiescence();

    let got = db.scan(b"key0003", Some(b"key0009"), 100).unwrap();
    let keys: Vec<String> = got
        .iter()
        .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
        .collect();
    assert_eq!(
        keys,
        ["key0003", "key0004", "key0006", "key0007", "key0008"]
    );
    let v6 = &got[2].1;
    assert_eq!(v6, b"updated");

    // Limit applies.
    let got = db.scan(b"key0000", None, 10).unwrap();
    assert_eq!(got.len(), 10);
}

#[test]
fn sequential_fill_then_read_all() {
    let (_env, options) = small_options();
    let db = Db::open("/db", options).unwrap();
    for i in 0..3000u32 {
        db.put(format!("{i:08}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    db.flush().unwrap();
    db.wait_for_background_quiescence();
    for i in (0..3000u32).step_by(101) {
        assert_eq!(
            db.get(format!("{i:08}").as_bytes()).unwrap(),
            Some(i.to_le_bytes().to_vec())
        );
    }
}

#[test]
fn stats_accumulate() {
    let (_env, options) = small_options();
    let db = Db::open("/db", options).unwrap();
    for i in 0..1000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[1u8; 256])
            .unwrap();
    }
    db.flush().unwrap();
    db.wait_for_background_quiescence();
    let s = db.stats();
    assert!(s.flushes > 0);
    assert_eq!(db.engine_name(), "cpu");
}

#[test]
fn block_cache_serves_repeated_reads() {
    let (_env, options) = small_options();
    let db = Db::open("/db", options).unwrap();
    for i in 0..2000u32 {
        db.put(format!("key{i:05}").as_bytes(), &[7u8; 200])
            .unwrap();
    }
    db.flush().unwrap();
    db.wait_for_background_quiescence();
    // Repeated point reads of the same keys should hit the shared cache.
    for _ in 0..5 {
        for i in (0..2000u32).step_by(100) {
            db.get(format!("key{i:05}").as_bytes()).unwrap().unwrap();
        }
    }
    let stats = db.stats();
    assert!(stats.block_cache_hits > 0, "expected cache hits: {stats:?}");
    assert!(stats.block_cache_hits + stats.block_cache_misses > 0);
}

#[test]
fn disabling_block_cache_works() {
    let (_env, mut options) = small_options();
    options.block_cache_bytes = None;
    let db = Db::open("/db", options).unwrap();
    for i in 0..500u32 {
        db.put(format!("key{i:05}").as_bytes(), b"v").unwrap();
    }
    db.flush().unwrap();
    for i in (0..500u32).step_by(50) {
        assert!(db.get(format!("key{i:05}").as_bytes()).unwrap().is_some());
    }
    let stats = db.stats();
    assert_eq!(stats.block_cache_hits + stats.block_cache_misses, 0);
}

#[test]
fn compact_all_drains_pending_work() {
    let (_env, options) = small_options();
    let db = Db::open("/db", options).unwrap();
    for i in 0..3000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[9u8; 300])
            .unwrap();
    }
    db.compact_all().unwrap();
    let counts = db.level_file_counts();
    // After a full manual compaction nothing is left over budget and the
    // data has moved below L0.
    assert_eq!(counts[0], 0, "L0 should be drained: {counts:?}");
    for i in (0..3000u32).step_by(101) {
        assert!(db.get(format!("key{i:06}").as_bytes()).unwrap().is_some());
    }
}

/// A block that fails its checksum in a table below L0 must fail the
/// scan. The level's table-run cursor used to read the failed table as
/// exhausted and step to the next one, so the scan returned `Ok` with a
/// hole in it.
#[test]
fn scan_surfaces_a_corrupt_block_below_l0() {
    let (env, options) = small_options();
    {
        let db = Db::open("/db", options.clone()).unwrap();
        for i in 0..3000u32 {
            db.put(format!("key{i:06}").as_bytes(), &[9u8; 300])
                .unwrap();
        }
        db.compact_all().unwrap();
        let counts = db.level_file_counts();
        assert_eq!(counts[0], 0, "everything below L0: {counts:?}");
        assert!(counts.iter().any(|&c| c > 2), "a run of tables: {counts:?}");
    }
    let dir = std::path::Path::new("/db");
    let table = env
        .list_dir(dir)
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".ldb"))
        .min()
        .expect("a table file");
    let path = dir.join(table);
    let mut bytes = env.open_random_access(&path).unwrap().read_all().unwrap();
    bytes[40] ^= 0x40; // inside the first data block
    env.create_writable(&path).unwrap().append(&bytes).unwrap();

    let db = Db::open("/db", options).unwrap();
    let mut it = db.iter().unwrap();
    it.seek_to_first();
    let mut rows = 0;
    while it.valid() {
        rows += 1;
        it.next();
    }
    assert!(rows < 3000, "the corrupt block's rows cannot be read");
    assert!(it.status().is_err(), "{rows} rows and no error");
    assert!(db.scan(b"", None, usize::MAX).is_err());
}

#[test]
fn streaming_iterator_walks_live_keys() {
    let (_env, options) = small_options();
    let db = Db::open("/db", options).unwrap();
    for i in 0..500u32 {
        db.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    db.delete(b"key0010").unwrap();
    db.put(b"key0011", b"updated").unwrap();
    db.flush().unwrap();
    db.wait_for_background_quiescence();

    let mut it = db.iter().unwrap();
    it.seek_to_first();
    assert!(it.valid());
    assert_eq!(it.key(), b"key0000");
    let mut count = 0;
    let mut saw_11_updated = false;
    while it.valid() {
        assert_ne!(it.key(), b"key0010", "deleted key must not appear");
        if it.key() == b"key0011" {
            assert_eq!(it.value(), b"updated");
            saw_11_updated = true;
        }
        count += 1;
        it.next();
    }
    assert_eq!(count, 499);
    assert!(saw_11_updated);
    it.status().unwrap();

    // Seek semantics.
    let mut it = db.iter().unwrap();
    it.seek(b"key0123");
    assert_eq!(it.key(), b"key0123");
    it.seek(b"key0010"); // deleted: lands on successor
    assert_eq!(it.key(), b"key0011");
    it.seek(b"zzz");
    assert!(!it.valid());
}

#[test]
fn iterator_is_snapshot_consistent() {
    let (_env, options) = mem_options();
    let db = Db::open("/db", options).unwrap();
    db.put(b"a", b"1").unwrap();
    db.put(b"b", b"2").unwrap();
    let mut it = db.iter().unwrap();
    // Writes after iterator creation are invisible to it.
    db.put(b"c", b"3").unwrap();
    db.delete(b"a").unwrap();
    it.seek_to_first();
    let mut keys = Vec::new();
    while it.valid() {
        keys.push(it.key().to_vec());
        it.next();
    }
    assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec()]);
}

/// An iterator reads its memtables lazily, so it must pin them: opened
/// (not yet positioned) before the active memtable is rotated, flushed
/// and compacted away under a wave of overwrites and deletes, it still
/// yields exactly the contents at the moment it was opened.
#[test]
fn iterator_pins_memtables_across_rotation_flush_and_compaction() {
    let (_env, options) = small_options();
    let db = Db::open("/db", options).unwrap();
    let key = |i: u32| format!("key{i:04}").into_bytes();
    let mut expected = Vec::new();
    for i in 0..400u32 {
        db.put(&key(i), format!("old{i}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    // A second generation that is still in the memtable at open time.
    for i in (0..400u32).step_by(2) {
        db.put(&key(i), format!("mem{i}").as_bytes()).unwrap();
    }
    for i in 0..400u32 {
        let tag = if i % 2 == 0 { "mem" } else { "old" };
        expected.push((key(i), format!("{tag}{i}").into_bytes()));
    }
    let mut it = db.iter().unwrap();

    let flushes_before = db.stats().flushes;
    for i in 0..400u32 {
        if i % 3 == 0 {
            db.delete(&key(i)).unwrap();
        } else {
            db.put(&key(i), &[b'n'; 300]).unwrap();
        }
    }
    db.put(b"key9999", b"appended").unwrap();
    db.flush().unwrap();
    db.compact_all().unwrap();
    assert!(
        db.stats().flushes >= flushes_before + 2,
        "the overwrites must rotate the memtable the iterator was opened on"
    );
    assert_eq!(db.get(&key(0)).unwrap(), None);

    it.seek_to_first();
    let mut got = Vec::new();
    while it.valid() {
        got.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    it.status().unwrap();
    assert_eq!(got, expected);
}

/// A storage env whose writes carry latency, giving group commit a
/// realistic window in which concurrent writers can queue up.
struct SlowWriteEnv {
    inner: Arc<MemEnv>,
    write_delay: std::time::Duration,
}

struct SlowWritable {
    inner: Box<dyn sstable::env::WritableFile>,
    delay: std::time::Duration,
}

impl sstable::env::WritableFile for SlowWritable {
    fn append(&mut self, data: &[u8]) -> sstable::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.append(data)
    }
    fn flush(&mut self) -> sstable::Result<()> {
        self.inner.flush()
    }
    fn sync(&mut self) -> sstable::Result<()> {
        self.inner.sync()
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
}

impl StorageEnv for SlowWriteEnv {
    fn open_random_access(
        &self,
        path: &std::path::Path,
    ) -> sstable::Result<Box<dyn sstable::env::RandomAccessFile>> {
        self.inner.open_random_access(path)
    }
    fn create_writable(
        &self,
        path: &std::path::Path,
    ) -> sstable::Result<Box<dyn sstable::env::WritableFile>> {
        Ok(Box::new(SlowWritable {
            inner: self.inner.create_writable(path)?,
            delay: self.write_delay,
        }))
    }
    fn remove_file(&self, path: &std::path::Path) -> sstable::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &std::path::Path) -> sstable::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn list_dir(&self, path: &std::path::Path) -> sstable::Result<Vec<String>> {
        self.inner.list_dir(path)
    }
    fn file_exists(&self, path: &std::path::Path) -> bool {
        self.inner.file_exists(path)
    }
    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> sstable::Result<()> {
        self.inner.rename(from, to)
    }
}

#[test]
fn group_commit_batches_concurrent_writers() {
    // 20 µs per WAL write gives followers a window to queue.
    let env = Arc::new(SlowWriteEnv {
        inner: Arc::new(MemEnv::new()),
        write_delay: std::time::Duration::from_micros(20),
    });
    let options = Options {
        env: env as Arc<dyn StorageEnv>,
        slowdown_sleep: false,
        ..Default::default()
    };
    let db = std::sync::Arc::new(Db::open("/db", options).unwrap());
    const THREADS: u64 = 8;
    const OPS: u64 = 500;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = std::sync::Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    db.put(format!("t{t}-{i:05}").as_bytes(), b"value").unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = db.stats();
    assert_eq!(stats.grouped_writes, THREADS * OPS, "{stats:?}");
    assert!(
        stats.group_commits < stats.grouped_writes,
        "expected some grouping: {} commits for {} writes",
        stats.group_commits,
        stats.grouped_writes
    );
    // Everything readable.
    for t in 0..THREADS {
        for i in (0..OPS).step_by(199) {
            assert!(db.get(format!("t{t}-{i:05}").as_bytes()).unwrap().is_some());
        }
    }
}

#[test]
fn grouped_writes_assign_disjoint_sequences() {
    // Interleaved writers must never clobber each other even under heavy
    // overwrite of the same keys.
    let (_env, options) = mem_options();
    let db = std::sync::Arc::new(Db::open("/db", options).unwrap());
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let db = std::sync::Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    db.put(b"shared", format!("t{t}-i{i}").as_bytes()).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Final value must be one thread's final write.
    let v = db.get(b"shared").unwrap().unwrap();
    let s = String::from_utf8(v).unwrap();
    assert!(s.ends_with("-i999"), "final value {s}");
}

#[test]
fn metrics_json_property_round_trips_with_level_gauges() {
    let (_env, options) = small_options();
    let db = Db::open("/db", options).unwrap();
    for i in 0..2_000u64 {
        db.put(format!("k{i:06}").as_bytes(), &[b'v'; 128]).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_background_quiescence();

    let json = db.property("lsm.metrics-json").unwrap();
    let doc = obs::json::parse(&json).expect("lsm.metrics-json must be valid JSON");
    let gauges = doc
        .get("gauges")
        .and_then(obs::json::Value::as_object)
        .unwrap();

    // Every level's gauge is present under its literal `<N>` name and
    // matches the live `lsm.num-files-at-levelN` property.
    let mut total = 0u64;
    for level in 0..7 {
        let name = format!("lsm.num-files-at-level<{level}>");
        let from_json = gauges
            .get(&name)
            .and_then(obs::json::Value::as_u64)
            .unwrap_or_else(|| panic!("missing gauge {name}"));
        let from_property: u64 = db
            .property(&format!("lsm.num-files-at-level{level}"))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(
            from_json, from_property,
            "gauge {name} must track the property"
        );
        total += from_json;
    }
    assert!(total > 0, "flushed data must appear in some level's gauge");
}

#[test]
fn max_group_commit_bytes_is_honored() {
    // With a tiny cap every batch commits alone: grouped_writes stays
    // equal to group_commits (no multi-batch groups).
    let (_env, mut options) = mem_options();
    options.max_group_commit_bytes = 1;
    let db = Arc::new(Db::open("/db", options).unwrap());
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    db.put(format!("k{t}-{i}").as_bytes(), b"v").unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = db.stats();
    assert_eq!(
        stats.grouped_writes, stats.group_commits,
        "a 1-byte group cap must commit exactly one batch per group"
    );
    assert_eq!(stats.group_commits, 800, "one commit per write");
}

/// `Db::drop` must wake a background worker that has seen the shutdown
/// flag clear and is about to park: the flag is set and the workers are
/// notified under the state lock. Each round leaves compactions for
/// `wait_for_background_quiescence` to wait on, so the job that ends the
/// wait also wakes the other workers — they are between the flag check
/// and the park exactly when `drop` runs. Without the lock one of these
/// drops in a few dozen joined a sleeping worker forever.
#[test]
fn drop_right_after_quiescence_never_hangs() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        for round in 0..300u32 {
            let (_env, mut options) = small_options();
            options.write_buffer_size = 8 << 10;
            options.background_threads = 4;
            let db = Db::open("/db", options).unwrap();
            for i in 0..600u32 {
                db.put(format!("key{i:04}").as_bytes(), &[round as u8; 100])
                    .unwrap();
            }
            db.wait_for_background_quiescence();
            drop(db);
        }
        let _ = done_tx.send(());
    });
    // Watchdog: 300 rounds take a few seconds; a lost wakeup never ends.
    done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("a Db::drop hung joining its background workers");
    worker.join().unwrap();
}

// ------------------------------------------------- the WAL commit step's
// failure contract, through the two callers besides a foreground write
// (`tests/power_cut.rs::wal_write_fault_moves_store_read_only` has that).

/// Passes everything through to a `MemEnv`, except that once armed every
/// append to a WAL (`*.log`) fails. `FaultEnv` cannot aim: its injected
/// append error would land on the value log, which GC appends to first.
struct WalAppendFault {
    inner: Arc<MemEnv>,
    armed: Arc<std::sync::atomic::AtomicBool>,
}

struct FaultyLog {
    file: Box<dyn sstable::env::WritableFile>,
    armed: Arc<std::sync::atomic::AtomicBool>,
}

impl sstable::env::WritableFile for FaultyLog {
    fn append(&mut self, data: &[u8]) -> sstable::Result<()> {
        if self.armed.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(std::io::Error::other("injected WAL append fault").into());
        }
        self.file.append(data)
    }
    fn flush(&mut self) -> sstable::Result<()> {
        self.file.flush()
    }
    fn sync(&mut self) -> sstable::Result<()> {
        self.file.sync()
    }
    fn bytes_written(&self) -> u64 {
        self.file.bytes_written()
    }
}

impl StorageEnv for WalAppendFault {
    fn open_random_access(
        &self,
        path: &std::path::Path,
    ) -> sstable::Result<Box<dyn sstable::env::RandomAccessFile>> {
        self.inner.open_random_access(path)
    }
    fn create_writable(
        &self,
        path: &std::path::Path,
    ) -> sstable::Result<Box<dyn sstable::env::WritableFile>> {
        let file = self.inner.create_writable(path)?;
        if path.extension().is_some_and(|ext| ext == "log") {
            let armed = Arc::clone(&self.armed);
            return Ok(Box::new(FaultyLog { file, armed }));
        }
        Ok(file)
    }
    fn remove_file(&self, path: &std::path::Path) -> sstable::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &std::path::Path) -> sstable::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn list_dir(&self, path: &std::path::Path) -> sstable::Result<Vec<String>> {
        self.inner.list_dir(path)
    }
    fn file_exists(&self, path: &std::path::Path) -> bool {
        self.inner.file_exists(path)
    }
    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> sstable::Result<()> {
        self.inner.rename(from, to)
    }
}

/// What every caller of the commit step owes after a failed append: the
/// store is read-only, and the reserved range was skipped — the watermark
/// stands at `reserved`, so nothing that waits on it can hang.
fn assert_read_only_and_unwedged(db: &Db, reserved: u64) {
    assert!(matches!(
        db.put(b"after", b"fault"),
        Err(lsm::Error::ReadOnly(_))
    ));
    assert_eq!(db.visible_sequence(), reserved);
    assert_eq!(db.get(b"after").unwrap(), None);
    assert_eq!(db.obs().registry.counter_value("lsm.bg-error.set"), Some(1));
}

#[test]
fn failed_wal_append_under_apply_replicated_goes_read_only_and_skips_the_range() {
    use sstable::env::{FaultEnv, FaultKind};
    let env = FaultEnv::new(Arc::new(MemEnv::new()), 20);
    let options = Options {
        env: Arc::new(env.clone()) as Arc<dyn StorageEnv>,
        slowdown_sleep: false,
        ..Default::default()
    };
    let db = Db::open("/replica", options).unwrap();
    let record = |seq: u64, key: &[u8]| {
        let mut batch = WriteBatch::new();
        batch.put(key, b"shipped");
        batch.set_sequence(seq);
        batch
    };
    assert_eq!(
        db.apply_replicated(record(1, b"k1").data(), 1, false)
            .unwrap(),
        1
    );

    env.inject_errors(FaultKind::Append, 1);
    // The leader's range may be wider than the ops that survived
    // re-inlining: the whole of 2..=4 must be skipped.
    let err = db
        .apply_replicated(record(2, b"k2").data(), 4, false)
        .unwrap_err();
    assert!(matches!(err, lsm::Error::Io(_)), "got: {err}");

    assert_read_only_and_unwedged(&db, 4);
    assert_eq!(db.get(b"k1").unwrap(), Some(b"shipped".to_vec()));
    assert_eq!(db.get(b"k2").unwrap(), None, "a failed record was applied");
    assert!(matches!(
        db.apply_replicated(record(5, b"k5").data(), 5, false),
        Err(lsm::Error::ReadOnly(_))
    ));
}

/// A value in the value log reads back whatever its key's length. A
/// pointer read fetched the record header, the value and a 4 KiB key
/// allowance and never read again, so a 5,000-byte key's `get` returned
/// `Corruption("vlog pointer 2:0 past end of segment")`.
#[test]
fn separated_values_read_back_under_keys_longer_than_the_read_allowance() {
    let (_env, mut options) = mem_options();
    options.value_log_threshold_bytes = Some(64);
    let value = vec![0x6bu8; 200];
    for key_len in [16, 4_000, 5_000, 20_000] {
        let dir = format!("/long-key-{key_len}");
        let key = vec![b'k'; key_len];
        let db = Db::open(&dir, options.clone()).unwrap();
        db.put(&key, &value).unwrap();
        assert_eq!(db.get(&key).unwrap(), Some(value.clone()), "{key_len}: get");
        drop(db);
        // Recovery replays the WAL, checking the pointer it holds.
        let db = Db::open(&dir, options.clone()).unwrap();
        assert_eq!(
            db.get(&key).unwrap(),
            Some(value.clone()),
            "{key_len}: reopened"
        );
    }
}

#[test]
fn failed_wal_append_under_a_vlog_gc_rewrite_goes_read_only_and_skips_the_range() {
    let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let env = WalAppendFault {
        inner: Arc::new(MemEnv::new()),
        armed: Arc::clone(&armed),
    };
    let options = Options {
        env: Arc::new(env) as Arc<dyn StorageEnv>,
        slowdown_sleep: false,
        value_log_threshold_bytes: Some(64),
        value_log_segment_bytes: 4 << 10,
        ..Default::default()
    };
    let db = Db::open("/gc", options).unwrap();
    // 512-byte values roll the 4 KiB segment every few puts; every one
    // stays live, so the first sealed segment's first record is rewritten.
    let big = vec![0x5au8; 512];
    for i in 0..40u64 {
        db.put(format!("k{i:03}").as_bytes(), &big).unwrap();
    }
    let written = db.visible_sequence();

    armed.store(true, std::sync::atomic::Ordering::SeqCst);
    let err = db.collect_value_log().unwrap_err();
    assert!(matches!(err, lsm::Error::Io(_)), "got: {err}");

    // The rewrite reserved exactly one sequence before its append failed.
    assert_read_only_and_unwedged(&db, written + 1);
    for i in 0..40u64 {
        let got = db.get(format!("k{i:03}").as_bytes()).unwrap();
        assert_eq!(got.as_deref(), Some(big.as_slice()), "k{i:03}");
    }
    assert!(matches!(
        db.collect_value_log(),
        Err(lsm::Error::ReadOnly(_))
    ));
}

/// ROADMAP item 0(i): a WAL failure while value-log GC installs rewrites.
/// GC holds `db.state` and `db.epoch` while it waits for every reserved
/// range to become visible; a group whose commit just failed used to need
/// `db.state` before it released its range, and the store hung instead of
/// going read-only. Each round races writers and a GC loop on a fresh
/// store, starts failing WAL appends, and every thread must come back.
#[test]
fn wal_failure_while_vlog_gc_installs_goes_read_only_and_never_hangs() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const ROUNDS: usize = 40;
    const PRELOADED: u64 = 64;
    let key = |i: u64| format!("k{i:03}").into_bytes();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        for round in 0..ROUNDS {
            let armed = Arc::new(AtomicBool::new(false));
            let env = WalAppendFault {
                inner: Arc::new(MemEnv::new()),
                armed: Arc::clone(&armed),
            };
            let options = Options {
                env: Arc::new(env) as Arc<dyn StorageEnv>,
                slowdown_sleep: false,
                value_log_threshold_bytes: Some(64),
                value_log_segment_bytes: 4 << 10,
                ..Default::default()
            };
            let db = Db::open("/gc-race", options).unwrap();
            // Never overwritten, so every sealed segment holds live
            // records and GC keeps installing rewrites.
            let big = vec![0x5au8; 512];
            for i in 0..PRELOADED {
                db.put(&key(i), &big).unwrap();
            }
            let acks = AtomicU64::new(0);
            let writers_done = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    while !writers_done.load(Ordering::SeqCst) {
                        let _ = db.collect_value_log();
                    }
                });
                let writers: Vec<_> = (0..3u64)
                    .map(|w| {
                        let (db, big, acks) = (&db, &big, &acks);
                        s.spawn(move || {
                            for i in 0.. {
                                let key = format!("w{w}-{:02}", i % 16);
                                match db.put(key.as_bytes(), big) {
                                    Ok(()) => acks.fetch_add(1, Ordering::SeqCst),
                                    Err(lsm::Error::Io(_) | lsm::Error::ReadOnly(_)) => break,
                                    Err(e) => panic!("round {round}: unexpected error: {e}"),
                                };
                            }
                        })
                    })
                    .collect();
                while acks.load(Ordering::SeqCst) < 100 {
                    std::thread::yield_now();
                }
                armed.store(true, Ordering::SeqCst);
                for w in writers {
                    w.join().expect("writer thread");
                }
                writers_done.store(true, Ordering::SeqCst);
            });
            assert!(
                matches!(db.put(b"after", b"fault"), Err(lsm::Error::ReadOnly(_))),
                "round {round}: the store must be read-only"
            );
            for i in 0..PRELOADED {
                let got = db.get(&key(i)).unwrap();
                assert_eq!(
                    got.as_deref(),
                    Some(big.as_slice()),
                    "round {round}: k{i:03}"
                );
            }
        }
        let _ = done_tx.send(());
    });
    // Watchdog: the rounds take about a second; a hold-and-wait never ends.
    done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a WAL failure under value-log GC hung the store");
    worker.join().unwrap();
}

// ------------------------------------------------------- table lifetime

/// A table opened by racing first probes closes exactly once, when the
/// compaction that consumed its file installs: its blocks leave the
/// shared block cache and one `CacheEviction` is traced per file.
#[test]
fn compacted_away_tables_close_once_and_leave_the_block_cache() {
    let (bundle, _clock) = obs::Obs::manual();
    let cache = sstable::cache::BlockCache::new(8 << 20);
    let (_env, options) = small_options();
    let options = Options {
        shared_block_cache: Some(Arc::clone(&cache)),
        obs: Some(Arc::clone(&bundle)),
        ..options
    };
    let db = Db::open("/db", options).unwrap();
    // Three overlapping L0 files (one short of the compaction trigger),
    // each also holding one key no other file has.
    const FILES: usize = 3;
    for round in 0..FILES {
        for i in 0..100u32 {
            let value = format!("round-{round}-{i}").repeat(4);
            db.put(format!("shared-{i:04}").as_bytes(), value.as_bytes())
                .unwrap();
        }
        db.put(format!("only-in-{round}").as_bytes(), b"unique")
            .unwrap();
        db.flush().unwrap();
    }
    assert_eq!(db.level_file_counts()[0], FILES);
    assert_eq!(cache.bytes(), 0, "nothing has been read yet");

    // Eight threads race the first probe of every file: a file's own key
    // is found only after every newer file was opened and passed over.
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                barrier.wait();
                for round in 0..FILES {
                    let got = db.get(format!("only-in-{round}").as_bytes()).unwrap();
                    assert_eq!(got.as_deref(), Some(&b"unique"[..]));
                }
            });
        }
    });
    assert!(cache.bytes() > 0, "the probes cached data blocks");

    db.compact_all().unwrap();
    assert_eq!(db.level_file_counts()[0], 0);
    assert_eq!(
        cache.bytes(),
        0,
        "the inputs' blocks outlived their files (nothing has read the outputs)"
    );
    let mut closed: Vec<u64> = bundle
        .trace
        .snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            obs::EventKind::CacheEviction { file_number, bytes } => {
                assert!(bytes > 0, "file {file_number} closed with nothing cached");
                Some(file_number)
            }
            _ => None,
        })
        .collect();
    assert_eq!(closed.len(), FILES, "one close per input file: {closed:?}");
    closed.dedup();
    assert_eq!(closed.len(), FILES, "a file closed twice: {closed:?}");
    for round in 0..FILES {
        let got = db.get(format!("only-in-{round}").as_bytes()).unwrap();
        assert_eq!(got.as_deref(), Some(&b"unique"[..]));
    }
}

/// Opens a store on `env`, then appends `record` to its MANIFEST as one
/// more checksummed log record and reopens it.
fn reopen_with_manifest_record(
    env: &Arc<MemEnv>,
    options: Options,
    record: &[u8],
) -> lsm::Result<Db> {
    use lsm::filename::{current_file_name, manifest_file_name};
    use lsm::wal::{LogReader, LogWriter};
    use std::path::Path;

    let db = Db::open("/db", options.clone()).unwrap();
    db.put(b"key", b"value").unwrap();
    db.flush().unwrap();
    drop(db);
    let dir = Path::new("/db");
    let current = env
        .open_random_access(&current_file_name(dir))
        .unwrap()
        .read_all()
        .unwrap();
    let number = String::from_utf8(current).unwrap();
    let number: u64 = number
        .trim()
        .strip_prefix("MANIFEST-")
        .unwrap()
        .parse()
        .unwrap();
    let path = manifest_file_name(dir, number);
    let file = env.open_random_access(&path).unwrap();
    let mut reader = LogReader::new(file.as_ref()).unwrap();
    let mut records = Vec::new();
    while let Some(r) = reader.read_record() {
        records.push(r);
    }
    assert!(!records.is_empty());
    let mut writer = LogWriter::new(env.create_writable(&path).unwrap());
    for r in records.iter().map(Vec::as_slice).chain([record]) {
        writer.add_record(r).unwrap();
    }
    writer.sync().unwrap();
    Db::open("/db", options)
}

/// A deleted-file record naming level 40 of a 7-level tree: `Db::open`
/// used to index past the levels and panic.
#[test]
fn a_manifest_level_past_the_tree_is_corruption() {
    let (env, options) = mem_options();
    let mut edit = lsm::version::VersionEdit::default();
    edit.deleted_files.push((40, 7));
    let opened = reopen_with_manifest_record(&env, options, &edit.encode());
    assert!(
        matches!(&opened, Err(lsm::Error::Corruption(m)) if m.contains("level 40")),
        "{:?}",
        opened.err()
    );
}

/// A new-file record whose smallest and largest keys are 3 bytes, short
/// of the 8-byte trailer: `Db::open` used to panic on them (debug) or
/// the first `get` did (release).
#[test]
fn a_manifest_key_shorter_than_its_trailer_is_corruption() {
    use sstable::coding::{put_length_prefixed_slice, put_varint32, put_varint64};
    let (env, options) = mem_options();
    let mut record = Vec::new();
    put_varint32(&mut record, 7); // new file (LevelDB's tag)
    put_varint32(&mut record, 1); // level
    put_varint64(&mut record, 99); // file number
    put_varint64(&mut record, 1000); // file size
    put_length_prefixed_slice(&mut record, b"abc");
    put_length_prefixed_slice(&mut record, b"xyz");
    let opened = reopen_with_manifest_record(&env, options, &record);
    assert!(
        matches!(&opened, Err(lsm::Error::Corruption(m)) if m.contains("3 bytes")),
        "{:?}",
        opened.err()
    );
}
