//! The workspace's concurrency primitives, swappable for loom.
//!
//! Every lock in `lsm`, `offload`, `fcae` and `server` comes from here:
//! the store's big lock (`db.state` with its `work_done` / `bg_work`
//! condvars), group commit in [`crate::write`], the
//! [`crate::memtable::MemTable`] skiplist, the value log, the read-view
//! cell, the offload scheduler's slot table and the server's replication
//! state.
//!
//! There is one lock API, parking_lot's: `m.lock()` returns the guard,
//! `cv.wait(&mut guard)` and `cv.wait_until(&mut guard, deadline)`
//! borrow it, and nothing is poisoned. Production builds re-export
//! `parking_lot` (and `std`'s atomics); building with
//! `RUSTFLAGS="--cfg loom"` swaps in the same shapes over `loom`'s
//! instrumented primitives, so the model suites explore interleavings
//! of the exact protocol production runs, source unchanged.
//!
//! `sstable` and `obs` sit below `lsm` and lock `parking_lot` directly;
//! their locks take no loom scheduling points.

#[cfg(loom)]
pub use self::loom_facade::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use parking_lot::{Condvar, Mutex, MutexGuard};

/// Atomic types with loom instrumentation under `--cfg loom`.
pub mod atomic {
    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// parking_lot's shape over `loom::sync`, whose lock and waits return
/// std-style `Result`s and consume the guard.
#[cfg(loom)]
mod loom_facade {
    use std::sync::PoisonError;
    use std::time::Instant;

    /// Result of a timed wait.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WaitTimeoutResult(bool);

    impl WaitTimeoutResult {
        /// True if the wait ended because the deadline passed.
        pub fn timed_out(&self) -> bool {
            self.0
        }
    }

    /// parking_lot-shaped mutex over `loom::sync::Mutex`.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized> {
        inner: loom::sync::Mutex<T>,
    }

    /// RAII guard for [`Mutex`].
    pub struct MutexGuard<'a, T: ?Sized> {
        // `Option` so `Condvar::wait*` can take the loom guard, which
        // loom's waits consume and return.
        guard: Option<loom::sync::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// Creates a new mutex (not `const`: loom's constructor isn't).
        pub fn new(value: T) -> Mutex<T> {
            Mutex {
                inner: loom::sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the mutex, blocking until available.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner); // LOCK-ORDER-OK: generic facade method; callers annotate their own sites.
            MutexGuard { guard: Some(guard) }
        }
    }

    impl<'a, T: ?Sized> MutexGuard<'a, T> {
        fn take(&mut self) -> loom::sync::MutexGuard<'a, T> {
            // PANIC-OK: the Option is only None inside Condvar::wait*,
            // which holds the guard exclusively for the duration.
            self.guard.take().expect("guard present outside wait")
        }
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            // PANIC-OK: see take().
            self.guard.as_ref().expect("guard present outside wait")
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // PANIC-OK: see take().
            self.guard.as_mut().expect("guard present outside wait")
        }
    }

    /// Condition variable pairing with [`Mutex`].
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: loom::sync::Condvar,
    }

    impl Condvar {
        /// Creates a new condition variable.
        pub fn new() -> Condvar {
            Condvar::default()
        }

        /// Releases the guard's mutex and waits; reacquires before
        /// returning.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let g = self
                .inner
                .wait(guard.take())
                .unwrap_or_else(PoisonError::into_inner);
            guard.guard = Some(g);
        }

        /// Like [`Condvar::wait`], but returns once `deadline` passes.
        pub fn wait_until<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            deadline: Instant,
        ) -> WaitTimeoutResult {
            let timeout = deadline.saturating_duration_since(Instant::now());
            let (g, result) = self
                .inner
                .wait_timeout(guard.take(), timeout)
                .unwrap_or_else(PoisonError::into_inner);
            guard.guard = Some(g);
            WaitTimeoutResult(result.timed_out())
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes all waiters.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }
}
