//! The value log on a real directory: a pointer must never be readable
//! before the bytes it names. `StdEnv` buffers each file in the process
//! (`sstable::env::WRITABLE_FILE_BUFFER_BYTES`), so an appended value is
//! invisible to a reader until the writer flushes it; `MemEnv`, which the
//! rest of the value-log suites run on, has no buffer and cannot show the
//! difference. Without the flush, a non-sync put followed by a get read
//! `Corruption("vlog pointer 2:0 past end of segment")`.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use lsm::{Db, Options};
use sstable::env::{RandomAccessFile, StdEnv, StorageEnv, WritableFile};

const THRESHOLD: usize = 1 << 10;

/// A fresh directory under the system temp dir for one test.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vlog-std-env-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(env: Arc<dyn StorageEnv>) -> Options {
    Options {
        env,
        value_log_threshold_bytes: Some(THRESHOLD),
        slowdown_sleep: false,
        ..Default::default()
    }
}

/// A 2 KiB value, distinct per `i`.
fn value(i: usize) -> Vec<u8> {
    (0..2 << 10).map(|j| (i * 31 + j) as u8).collect()
}

fn key(i: usize) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

#[test]
fn a_separated_value_reads_back_right_after_a_non_sync_put() {
    let dir = test_dir("one");
    let db = Db::open(&dir, options(Arc::new(StdEnv))).unwrap();
    db.put(&key(0), &value(0)).unwrap();
    assert_eq!(db.get(&key(0)).unwrap(), Some(value(0)));
    assert_eq!(db.scan(b"", None, 10).unwrap(), vec![(key(0), value(0))]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn separated_values_across_several_buffers_all_read_back() {
    const N: usize = 100;
    let dir = test_dir("many");
    let db = Db::open(&dir, options(Arc::new(StdEnv))).unwrap();
    for i in 0..N {
        db.put(&key(i), &value(i)).unwrap();
    }
    for i in 0..N {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "get {i}");
    }
    let scanned = db.scan(b"", None, N + 1).unwrap();
    let want: Vec<_> = (0..N).map(|i| (key(i), value(i))).collect();
    assert!(scanned == want, "scan returns every value");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

type Hook = Box<dyn FnOnce() + Send>;

/// `StdEnv` whose value-log files run a hook, once, at the start of the
/// first `sync` after it is armed: what the hook does lands between a
/// GC pass's installs and the sync that ends the pass.
struct HookedVlogSync {
    before_sync: Arc<Mutex<Option<Hook>>>,
}

struct HookedWritable {
    inner: Box<dyn WritableFile>,
    before_sync: Arc<Mutex<Option<Hook>>>,
}

impl WritableFile for HookedWritable {
    fn append(&mut self, data: &[u8]) -> sstable::Result<()> {
        self.inner.append(data)
    }
    fn flush(&mut self) -> sstable::Result<()> {
        self.inner.flush()
    }
    fn sync(&mut self) -> sstable::Result<()> {
        let hook = self.before_sync.lock().unwrap().take();
        if let Some(hook) = hook {
            hook();
        }
        self.inner.sync()
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
}

impl StorageEnv for HookedVlogSync {
    fn open_random_access(&self, path: &Path) -> sstable::Result<Box<dyn RandomAccessFile>> {
        StdEnv.open_random_access(path)
    }
    fn create_writable(&self, path: &Path) -> sstable::Result<Box<dyn WritableFile>> {
        let inner = StdEnv.create_writable(path)?;
        if path.extension().is_some_and(|e| e == "vlog") {
            return Ok(Box::new(HookedWritable {
                inner,
                before_sync: Arc::clone(&self.before_sync),
            }));
        }
        Ok(inner)
    }
    fn remove_file(&self, path: &Path) -> sstable::Result<()> {
        StdEnv.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> sstable::Result<()> {
        StdEnv.create_dir_all(path)
    }
    fn list_dir(&self, path: &Path) -> sstable::Result<Vec<String>> {
        StdEnv.list_dir(path)
    }
    fn file_exists(&self, path: &Path) -> bool {
        StdEnv.file_exists(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> sstable::Result<()> {
        StdEnv.rename(from, to)
    }
    fn sync_dir(&self, path: &Path) -> sstable::Result<()> {
        StdEnv.sync_dir(path)
    }
}

/// A GC pass installs each rewritten pointer as it goes and syncs the
/// value log only at the end; a get in between follows the new pointer
/// into the active segment, so the rewrite must already be out of the
/// writer's buffer.
#[test]
fn a_value_gc_just_rewrote_reads_back_before_the_pass_syncs() {
    let dir = test_dir("gc");
    let before_sync = Arc::new(Mutex::new(None));
    let env = Arc::new(HookedVlogSync {
        before_sync: Arc::clone(&before_sync),
    });
    let db = Arc::new(
        Db::open(
            &dir,
            Options {
                // Four 2 KiB records pass the cap: the fifth append
                // seals the first segment.
                value_log_segment_bytes: 8 << 10,
                ..options(env)
            },
        )
        .unwrap(),
    );
    for i in 0..5 {
        db.put(&key(i), &value(i)).unwrap();
    }
    // Keys 1–3 move inline, so key 0 is the one live record of the sealed
    // segment, and its rewrite fits in the active one without a rotation
    // (whose sync would run the hook before the install).
    for i in 1..4 {
        db.put(&key(i), b"small").unwrap();
    }

    let seen = Arc::new(Mutex::new(None));
    *before_sync.lock().unwrap() = Some(Box::new({
        let db = Arc::clone(&db);
        let seen = Arc::clone(&seen);
        move || *seen.lock().unwrap() = Some(db.get(&key(0)))
    }));
    let report = db.collect_value_log().unwrap();
    assert_eq!(report.values_rewritten, 1, "{report:?}");
    assert_eq!(report.segments_retired, 1, "{report:?}");
    let seen = seen
        .lock()
        .unwrap()
        .take()
        .expect("the pass synced the value log");
    assert_eq!(seen.unwrap(), Some(value(0)));
    assert_eq!(db.get(&key(0)).unwrap(), Some(value(0)));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
