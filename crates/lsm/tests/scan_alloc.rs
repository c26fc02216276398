//! Counting-allocator proofs about what a scan pays for, as counts that
//! repeat exactly rather than times that wobble:
//!
//! * the cost does not depend on how much the memtable holds — a 10-pair
//!   `scan` over a store whose memtable has 500 entries and one with
//!   50,000 performs the same number of heap allocations (a scan that
//!   copies the memtable would differ by two allocations per entry);
//! * the cost does not depend on how many pairs are visited — a 10-pair
//!   and a 100-pair `scan_each` allocate the same: the iterator is the
//!   whole bill, pairs are lent, not copied;
//! * collecting costs exactly what it keeps — `scan_with` allocates one
//!   key, one value per pair and the vector that holds them, on top of
//!   `scan_each`;
//! * the fixed part only shrinks: 7 for the iterator over the one
//!   memtable skiplist (30 while the memtable was eight shards merged
//!   under one iterator, 34 while every iterator also built its own
//!   comparator and value buffer), so a 10-pair `scan` is 28 where it
//!   was 51, and 57 before that.
//!
//! The counts are the measuring thread's alone
//! (`CountingAlloc::counting`): a store's worker thread starting up
//! inside the window once read one high about 1 run in 15-20. Neither
//! store flushes (the write buffer is larger than the data), so their
//! background workers stay parked while the scans are counted.

use std::sync::Arc;

use lsm::{Db, Options};
use sstable::env::MemEnv;

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

use lsm::ReadOptions;

/// Opens a store holding `entries` keys, all in its active memtable.
fn memtable_only_store(entries: u32) -> Db {
    let options = Options {
        env: Arc::new(MemEnv::new()),
        write_buffer_size: 64 << 20,
        ..Default::default()
    };
    let db = Db::open("/db", options).unwrap();
    for i in 0..entries {
        db.put(format!("key{i:08}").as_bytes(), &[b'v'; 64])
            .unwrap();
    }
    assert!(
        db.level_file_counts().iter().all(|&n| n == 0),
        "every entry must still be in the memtable"
    );
    db
}

/// The allocations one warmed-up 10-pair `scan` from the middle of an
/// `entries`-key memtable performs.
fn allocations_per_scan(entries: u32) -> u64 {
    let db = memtable_only_store(entries);
    let start = format!("key{:08}", entries / 2);
    let scan = || db.scan(start.as_bytes(), None, 10).unwrap();
    assert_eq!(scan().len(), 10);
    let mut pairs = Vec::new();
    let n = ALLOC.counting(|| pairs = scan());
    assert_eq!(pairs.len(), 10);
    assert_eq!(pairs[0].0, start.as_bytes());
    n
}

#[test]
fn scan_allocations_do_not_grow_with_the_memtable() {
    let small = allocations_per_scan(500);
    let large = allocations_per_scan(50_000);
    assert_eq!(
        small, large,
        "10-pair scan over 500 entries and over 50,000"
    );

    // The same store, 10 pairs and 100: visiting costs nothing.
    let db = memtable_only_store(500);
    let each = |limit: usize| {
        let mut seen = 0;
        let n = ALLOC.counting(|| {
            let (count, complete) = db
                .scan_each(
                    ReadOptions::default(),
                    b"key00000100",
                    None,
                    limit,
                    usize::MAX,
                    &mut |_, _| seen += 1,
                )
                .unwrap();
            assert_eq!((count, complete), (limit, false));
        });
        assert_eq!(seen, limit);
        n
    };
    each(100);
    let (ten, hundred) = (each(10), each(100));
    assert_eq!(ten, hundred, "scan_each: 10 pairs vs 100");
    assert_eq!(ten, 7, "the iterator's fixed cost");

    // Collecting: two allocations a pair and one for the vector.
    for limit in [10usize, 100] {
        let mut outcome = None;
        let with = ALLOC.counting(|| {
            outcome = Some(
                db.scan_with(
                    ReadOptions::default(),
                    b"key00000100",
                    None,
                    limit,
                    usize::MAX,
                )
                .unwrap(),
            );
        });
        assert_eq!(outcome.unwrap().pairs.len(), limit);
        assert_eq!(with, ten + 2 * limit as u64 + 1, "scan_with({limit})");
    }
    assert_eq!(small, 28);
}
