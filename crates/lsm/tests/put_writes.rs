//! Count guard on what a non-sync put costs in system calls: 4,000
//! `fill`-shaped puts (16-byte keys, 128-byte values, ≈167-byte WAL
//! records) into a `StdEnv` store make at most 12 `write(2)` calls. The
//! WAL's 64 KiB process-side buffer (`sstable::env::
//! WRITABLE_FILE_BUFFER_BYTES`) drains about ten times over the run; with
//! std's 8 KiB default it drained 81 times, and one put in 49 paid the
//! syscall inside its own latency.
//!
//! The count is the process's `syscw` from `/proc/self/io`, which sees
//! every thread: this binary holds this one test, so libtest's own output
//! lands before and after the measured span, never inside it. The write
//! buffer is far larger than what is written, so nothing flushes and the
//! background workers stay parked.

use std::sync::Arc;

use lsm::{Db, Options};
use sstable::env::StdEnv;

const PUTS: u64 = 4_000;

/// At most this many `write(2)` calls for `PUTS` puts: ≈668 KB of WAL
/// records is ten full 64 KiB buffers, plus slack for a partial one.
const MAX_WRITE_CALLS: u64 = 12;

/// The process's `syscw` (write-family system calls so far), or why it
/// cannot be read here.
fn write_calls() -> Result<u64, String> {
    let io = std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    io.lines()
        .find_map(|line| line.strip_prefix("syscw:"))
        .ok_or_else(|| "/proc/self/io has no syscw line".to_string())?
        .trim()
        .parse()
        .map_err(|e| format!("/proc/self/io syscw: {e}"))
}

/// A 16-byte key, the `fill` workload's shape.
fn key(i: u64) -> [u8; 16] {
    let mut key = *b"key-000000000000";
    let mut n = i;
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        n /= 10;
    }
    key
}

#[test]
fn non_sync_puts_leave_the_process_64_kib_at_a_time() {
    if let Err(why) = write_calls() {
        println!("skipped: {why}");
        return;
    }
    let dir = std::env::temp_dir().join(format!("put-writes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = Options {
        env: Arc::new(StdEnv),
        write_buffer_size: 64 << 20,
        ..Default::default()
    };
    let db = Db::open(&dir, options).unwrap();
    let value = [b'v'; 128];

    let before = write_calls().unwrap();
    for i in 0..PUTS {
        db.put(&key(i), &value).unwrap();
    }
    let calls = write_calls().unwrap() - before;

    assert!(
        calls <= MAX_WRITE_CALLS,
        "{PUTS} non-sync puts made {calls} write(2) calls (bound {MAX_WRITE_CALLS})"
    );
    // The puts were puts: nothing flushed, and the last reads back.
    assert_eq!(db.get(&key(PUTS - 1)).unwrap().as_deref(), Some(&value[..]));
    assert_eq!(db.stats().flushes, 0);
    println!("{PUTS} puts: {calls} write(2) calls");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
