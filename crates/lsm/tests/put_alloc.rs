//! Counting-allocator proof about what an uncontended write pays for, as
//! a count that repeats exactly rather than a time that wobbles: a
//! `Db::put` that meets no other writer allocates once — its batch, at
//! its final size. It leads its own group without a waiter to be
//! signalled through and without a group vector, and the memtable takes
//! the entry into arenas it already owns. (It was 8: the batch grew by
//! doubling, 12 → 24 → 48 → 176 bytes, then an `Arc` for the waiter, two
//! group vectors, and a copy of the key the memtable had just stored.)
//!
//! The counts are the measuring thread's alone
//! (`CountingAlloc::counting`): a store's worker thread starting up
//! inside the window once read one high about 1 run in 15-20. The write
//! buffer is far larger than what is written, so nothing rotates and the
//! background workers stay parked while the writes are counted.

use std::sync::Arc;

use lsm::{Db, Options};
use sstable::env::MemEnv;

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

/// Writes per measurement: enough that a memtable arena or node vector
/// doubling inside the window (a few over the whole test) cannot round
/// the per-write count up.
const WRITES: u64 = 1_000;

/// Allocations per write over `WRITES` calls of `write(i)`, rounded down.
fn allocations_per_write(mut write: impl FnMut(u64)) -> u64 {
    let allocs = ALLOC.counting(|| {
        for i in 0..WRITES {
            write(i);
        }
    });
    allocs / WRITES
}

/// A 16-byte key, built without allocating.
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
fn an_uncontended_put_allocates_its_batch_and_nothing_else() {
    let options = Options {
        env: Arc::new(MemEnv::new()),
        write_buffer_size: 256 << 20,
        ..Default::default()
    };
    let db = Db::open("/db", options).unwrap();
    // Warm-up: the thread's metric stripe, the WAL writer's buffer.
    for i in 0..WRITES {
        db.put(&key(i), &[b'w'; 128]).unwrap();
    }

    let small = [b's'; 128];
    let large = [b'l'; 1024];
    let put_small = allocations_per_write(|i| db.put(&key(i), &small).unwrap());
    let put_large = allocations_per_write(|i| db.put(&key(i), &large).unwrap());
    let delete = allocations_per_write(|i| db.delete(&key(i)).unwrap());

    assert_eq!(put_small, 1, "the batch, sized once");
    assert_eq!(
        put_large, put_small,
        "1 KiB value vs 128 B: sized, not doubled"
    );
    assert!(delete <= put_small, "a delete allocates {delete} times");

    // The writes were writes: the last of each kind reads back.
    let last = key(WRITES - 1);
    assert_eq!(db.get(&last).unwrap(), None);
    db.put(&last, &large).unwrap();
    assert_eq!(db.get(&last).unwrap().as_deref(), Some(&large[..]));
    assert_eq!(db.stats().group_commits, 4 * WRITES + 1);
}
