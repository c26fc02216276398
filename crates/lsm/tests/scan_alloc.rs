//! Counting-allocator proof that a scan's cost does not depend on how
//! much the memtable holds: a 10-pair `scan` over a store whose memtable
//! has 500 entries and one with 50,000 performs the same number of heap
//! allocations, give or take a few for buffer growth. A scan that copies
//! the memtable would differ by two allocations per extra entry.
//!
//! Single `#[test]` in this binary: the global counter sees every thread,
//! so parallel tests would pollute the measurement window. Neither store
//! flushes (the write buffer is larger than the data), so their
//! background workers stay parked while the scans are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lsm::{Db, Options};
use sstable::env::MemEnv;

struct CountingAllocator {
    allocs: AtomicU64,
}

static ALLOCS: CountingAllocator = CountingAllocator {
    allocs: AtomicU64::new(0),
};

#[global_allocator]
static GLOBAL: &CountingAllocator = &ALLOCS;

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; the only addition is a relaxed atomic counter bump, which
// allocates nothing and cannot reenter the allocator.
unsafe impl GlobalAlloc for &'static CountingAllocator {
    // SAFETY: forwards `layout` unchanged to `System.alloc`; caller
    // obligations are exactly the system allocator's.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a matching `alloc`/`realloc` on
    // this same wrapper, which always returns `System` memory.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    // SAFETY: same pass-through argument as `dealloc` — `ptr` was
    // produced by `System` via this wrapper.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Opens a store holding `entries` keys, all in its active memtable, and
/// returns the allocations one warmed-up 10-pair scan performs.
fn allocations_per_scan(entries: u32) -> u64 {
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
    let start = format!("key{:08}", entries / 2);
    let scan = || db.scan(start.as_bytes(), None, 10).unwrap();
    assert_eq!(scan().len(), 10);
    let before = ALLOCS.allocs.load(Ordering::Relaxed);
    let pairs = scan();
    let after = ALLOCS.allocs.load(Ordering::Relaxed);
    assert_eq!(pairs.len(), 10);
    assert_eq!(pairs[0].0, start.as_bytes());
    after - before
}

#[test]
fn scan_allocations_do_not_grow_with_the_memtable() {
    let small = allocations_per_scan(500);
    let large = allocations_per_scan(50_000);
    assert!(
        small.abs_diff(large) <= 8,
        "10-pair scan: {small} allocations over 500 entries, {large} over 50,000"
    );
    // 20 for the returned pairs, the rest for the iterator: well under
    // one allocation per memtable entry even for the small store.
    assert!(small < 200, "{small} allocations for a 10-pair scan");
}
