//! Counting-allocator proofs about what a point read pays for, as counts
//! that repeat exactly rather than times that wobble. On a store whose
//! blocks all sit in the block cache:
//!
//! * a key every table's filter rejects costs the same whether one table
//!   or three are probed — 2: the lookup key, and the one buffer every
//!   block seek of every probe decodes into (while each seek built an
//!   iterator with a key buffer of its own the count grew by one a probe:
//!   2 for one table, 4 for three);
//! * a key that is present costs one allocation more, the value handed
//!   back — 3 behind two filter-rejecting tables, where it was 7 (the
//!   found key was copied out of the iterator, and so was the value).
//!
//! The counters beside the counts prove the reads did what the names
//! say: every probe consulted a filter, the absent key loaded no block.
//!
//! The counts are the measuring thread's alone
//! (`CountingAlloc::counting`): a store's worker thread starting up
//! inside the window once read one high about 1 run in 15-20. The stores
//! stay under the L0 compaction trigger, so their background workers are
//! parked while the reads are counted.

use std::sync::Arc;

use lsm::{Db, Options};
use sstable::env::MemEnv;

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

/// Keys per table. Table `t` of a store holds the keys `key{n:08}` with
/// `n % 8 == t`, so every table spans the whole key range and a point
/// read probes them all, newest first.
const KEYS_PER_TABLE: u32 = 2_000;

fn key(n: u32) -> Vec<u8> {
    format!("key{n:08}").into_bytes()
}

/// A store of `tables` level-0 tables and an empty memtable, every block
/// already in the block cache.
fn store(tables: u32) -> Db {
    let options = Options {
        env: Arc::new(MemEnv::new()),
        write_buffer_size: 64 << 20,
        block_cache_bytes: Some(64 << 20),
        ..Default::default()
    };
    let db = Db::open("/db", options).unwrap();
    for t in 0..tables {
        for i in 0..KEYS_PER_TABLE {
            db.put(&key(i * 8 + t), &[b'v'; 100]).unwrap();
        }
        db.flush().unwrap();
    }
    assert_eq!(db.level_file_counts()[0], tables as usize);
    // Every block into the cache, every table opened.
    let mut it = db.iter().unwrap();
    it.seek_to_first();
    while it.valid() {
        it.next();
    }
    it.status().unwrap();
    db
}

/// Counters a read moves: (table probes, filters consulted, filters that
/// rejected, block-cache misses).
fn counters(db: &Db) -> [u64; 4] {
    let registry = &db.obs().registry;
    [
        "lsm.get.table_probes",
        "lsm.bloom.checked",
        "lsm.bloom.useful",
        "lsm.block_cache.misses",
    ]
    .map(|name| registry.counter_value(name).unwrap_or(0))
}

/// Allocations of one warmed-up `get(key)`, with what it did to the
/// counters.
fn get_cost(db: &Db, key: &[u8], expect: Option<&[u8]>) -> (u64, [u64; 4]) {
    assert_eq!(db.get(key).unwrap().as_deref(), expect);
    let before = counters(db);
    let mut got = None;
    let n = ALLOC.counting(|| got = db.get(key).unwrap());
    assert_eq!(got.as_deref(), expect);
    let after = counters(db);
    (n, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn get_allocations_do_not_grow_with_the_tables_probed() {
    // `n % 8 == 7` is in no table; this one passes no filter falsely.
    let absent = key(8 * 500 + 7);
    let one = store(1);
    let three = store(3);

    let (absent_one, did) = get_cost(&one, &absent, None);
    assert_eq!(
        did,
        [1, 1, 1, 0],
        "one table: probed, rejected by its filter"
    );
    let (absent_three, did) = get_cost(&three, &absent, None);
    assert_eq!(did, [3, 3, 3, 0], "three tables: each probed and rejected");
    assert_eq!(absent_one, absent_three, "absent key: 1 probe vs 3");
    assert_eq!(absent_one, 2, "the lookup key and the seek buffer");

    // In the oldest table, behind two that reject it.
    let present = key(8 * 500);
    let (present_three, did) = get_cost(&three, &present, Some(&[b'v'; 100]));
    assert_eq!(did, [3, 3, 2, 0], "found in the third table probed");
    assert_eq!(present_three, 3, "lookup key, seek buffer, value");
}
