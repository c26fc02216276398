//! Counting-allocator proof that a seek into a level of the tree opens
//! one table, not every table before its target: on a level of 64
//! tables, a seek into the 64th allocates exactly what a seek into the
//! first does. (While the level's iterator walked from its first table,
//! each table before the target built an iterator and searched its index
//! block first — a seek into table *k* cost *k* of each.)
//!
//! The counts are the measuring thread's alone
//! (`CountingAlloc::counting`): a store's worker thread starting up
//! inside the window once read one high about 1 run in 15-20. The store
//! is fully compacted before counting, so its background workers are
//! parked.

use std::sync::Arc;

use lsm::{Db, Options};
use sstable::env::MemEnv;
use sstable::format::CompressionType;

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

/// Keys in the store; with 8 KiB tables they fill exactly 64.
const KEYS: u32 = 4_700;

fn key(n: u32) -> Vec<u8> {
    format!("key{n:08}").into_bytes()
}

/// Allocations of one `seek(target)` on a freshly opened iterator.
fn seek_cost(db: &Db, target: &[u8]) -> u64 {
    let mut it = db.iter().unwrap();
    let n = ALLOC.counting(|| it.seek(target));
    assert!(it.valid());
    assert_eq!(it.key(), target);
    n
}

#[test]
fn a_seek_opens_one_table_of_its_level() {
    let options = Options {
        env: Arc::new(MemEnv::new()),
        write_buffer_size: 64 << 20,
        max_file_size: 8 << 10,
        compression: CompressionType::None,
        ..Default::default()
    };
    let db = Db::open("/db", options).unwrap();
    // Two overlapping flushes, so compaction merges them and cuts the
    // output at `max_file_size`.
    for _ in 0..2 {
        for n in 0..KEYS {
            db.put(&key(n), &[b'v'; 100]).unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    let counts = db.level_file_counts();
    assert_eq!(counts.iter().sum::<usize>(), 64, "{counts:?}");
    assert!(
        counts.contains(&64),
        "one level holds every table: {counts:?}"
    );

    // Every block into the cache, every table opened.
    let mut it = db.iter().unwrap();
    it.seek_to_first();
    while it.valid() {
        it.next();
    }
    it.status().unwrap();

    let (first, last) = (key(0), key(KEYS - 1));
    seek_cost(&db, &first);
    seek_cost(&db, &last);
    let into_first = seek_cost(&db, &first);
    let into_last = seek_cost(&db, &last);
    assert_eq!(
        into_first, into_last,
        "a seek into table 1 of 64 and into table 64"
    );
    // What a seek into the first table cost before: the walk added two
    // a table passed over (130 into table 64).
    assert_eq!(into_first, 4, "one seek into a 64-table level");
}
