//! Counting-allocator proof that a block-cache miss costs no more
//! allocations than a hit. On a warm store whose block cache is smaller
//! than its data, a `get` whose block is not cached reads it into the
//! buffer of a block its cache shard evicted earlier, through the
//! thread's reused read buffer, and the block it evicts in turn becomes
//! the shard's next spare: 3 allocations — the lookup key, the seek
//! buffer and the value — exactly what a hit pays. (A miss allocated a
//! framed read buffer and the decoded block besides: 5.)
//!
//! The counts are the measuring thread's alone
//! (`CountingAlloc::counting`): a store's worker thread starting up
//! inside the window once read one high about 1 run in 15-20. The store
//! stays under the L0 compaction trigger, so its background workers are
//! parked while the reads are counted.

use std::sync::Arc;

use lsm::{Db, Options};
use sstable::cache::BlockCache;
use sstable::env::MemEnv;

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

/// Keys in the store: about 1 MiB of decoded blocks.
const KEYS: u32 = 8_000;

/// Block-cache size: a quarter of the data or less.
const CACHE_BYTES: usize = 256 << 10;

fn key(n: u32) -> Vec<u8> {
    format!("key{n:08}").into_bytes()
}

fn misses(db: &Db) -> u64 {
    db.obs()
        .registry
        .counter_value("lsm.block_cache.misses")
        .unwrap_or(0)
}

/// Allocations of one `get(key)` and the block-cache misses it counted.
fn get_cost(db: &Db, n: u32) -> (u64, u64) {
    let key = key(n);
    let before = misses(db);
    let mut got = None;
    let allocs = ALLOC.counting(|| got = db.get(&key).unwrap());
    assert_eq!(got.as_deref(), Some(&[b'v'; 100][..]), "key {n}");
    (allocs, misses(db) - before)
}

#[test]
fn a_get_that_misses_and_evicts_allocates_what_a_hit_does() {
    let cache = BlockCache::new(CACHE_BYTES);
    let options = Options {
        env: Arc::new(MemEnv::new()),
        write_buffer_size: 64 << 20,
        shared_block_cache: Some(Arc::clone(&cache)),
        ..Default::default()
    };
    let db = Db::open("/db", options).unwrap();
    for n in 0..KEYS {
        db.put(&key(n), &[b'v'; 100]).unwrap();
    }
    db.flush().unwrap();
    // Two full scans cycle every block through the cache: every shard
    // is full and holds spares from the blocks the scans pushed out.
    for _ in 0..2 {
        let mut it = db.iter().unwrap();
        it.seek_to_first();
        while it.valid() {
            it.next();
        }
        it.status().unwrap();
    }
    assert!(
        cache.bytes() > CACHE_BYTES * 3 / 4,
        "the cache is full: {} bytes",
        cache.bytes()
    );

    // The scans left the last blocks cached and the first ones evicted.
    // One get of each kind first: the read path's buffers reach their
    // sizes.
    assert_eq!(get_cost(&db, KEYS - 2).1, 0);
    assert_eq!(get_cost(&db, 0).1, 1);
    let (hit, missed) = get_cost(&db, KEYS - 1);
    assert_eq!(missed, 0, "the last key's block is cached");
    assert_eq!(hit, 3, "a hit: lookup key, seek buffer, value");

    for n in [KEYS / 8, KEYS / 4, KEYS / 3] {
        let (allocations, missed) = get_cost(&db, n);
        assert_eq!(missed, 1, "key {n}'s block was evicted by the scans");
        assert_eq!(
            allocations, hit,
            "a miss that reads and evicts a block allocates what a hit does (key {n})"
        );
    }
    assert!(cache.bytes() > CACHE_BYTES * 3 / 4);
}
