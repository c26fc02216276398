//! A counting global allocator for tests that pin what a path allocates.
//!
//! [`CountingAlloc`] passes every call through to [`System`] and keeps
//! three numbers: allocations made (`alloc` and `realloc` calls), live
//! bytes, and the high-water mark of live bytes. A test binary installs
//! it with
//!
//! ```no_run
//! #[global_allocator]
//! static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();
//! # fn main() {}
//! ```
//!
//! and reads the counters around the window it measures. The counters see
//! every thread of the process, so such a binary holds one `#[test]`
//! or measures only where no other test runs. [`CountingAlloc::counting`]
//! counts the calling thread alone: a store's worker thread starting up
//! inside the window (std copies the thread's name for its stack-overflow
//! handler) is not the code under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

thread_local! {
    /// Allocations this thread made inside [`CountingAlloc::counting`];
    /// `None` outside it. Const-initialized and without a destructor, so
    /// the allocator can read it without allocating.
    static THREAD_ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Counts one allocation against the calling thread's open window.
fn count_thread_alloc() {
    // `try_with` never fails for a destructor-free key; ignore it anyway
    // rather than panic inside the allocator.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

/// Pass-through allocator counting allocations and live bytes.
#[derive(Default)]
pub struct CountingAlloc {
    allocs: AtomicU64,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// Zeroed counters, for a `static`.
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// `alloc` plus `realloc` calls so far.
    pub fn allocations(&self) -> u64 {
        self.allocs.load(Ordering::SeqCst)
    }

    /// `alloc` plus `realloc` calls the calling thread makes while `f`
    /// runs; other threads' allocations meanwhile are not counted.
    pub fn counting(&self, f: impl FnOnce()) -> u64 {
        let outer = THREAD_ALLOCS.replace(Some(0));
        f();
        let n = THREAD_ALLOCS.get().unwrap_or(0);
        THREAD_ALLOCS.set(outer.map(|o| o + n));
        n
    }

    /// The most live bytes since the last [`CountingAlloc::reset_peak`].
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }

    /// Restarts the high-water mark at the current live bytes, returning
    /// them.
    pub fn reset_peak(&self) -> usize {
        let live = self.live.load(Ordering::SeqCst);
        self.peak.store(live, Ordering::SeqCst);
        live
    }

    fn grow(&self, n: usize) {
        let live = self.live.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, n: usize) {
        self.live.fetch_sub(n, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; the only additions are relaxed atomic counter updates and a
// const-initialized thread-local `Cell`, which allocate nothing and
// cannot reenter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`; caller
    // obligations are exactly the system allocator's.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        count_thread_alloc();
        self.grow(layout.size());
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a matching `alloc`/`realloc` on
    // this same wrapper, which always returns `System` memory.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.shrink(layout.size());
        System.dealloc(ptr, layout);
    }

    // SAFETY: same pass-through argument as `dealloc` — `ptr` was
    // produced by `System` via this wrapper. The old and new blocks may
    // both be live during the move, so the new size is counted first.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        count_thread_alloc();
        self.grow(new_size);
        let p = System.realloc(ptr, layout, new_size);
        self.shrink(layout.size());
        p
    }
}
