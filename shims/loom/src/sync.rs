//! `loom::sync` — std-backed primitives wrapped so that every operation
//! crosses a [`crate::sched_point`]. API mirrors real loom (which in turn
//! mirrors `std::sync`), so models compile unchanged against either.

use std::sync::PoisonError;
use std::time::Duration;

pub use std::sync::Arc;

pub mod atomic;

/// Mutual exclusion with scheduling points on acquire/release edges.
/// Poisoning is swallowed (like parking_lot / real-loom behavior): a
/// panicking model iteration already fails the test on its own.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    guard: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex. (Not `const fn`: real loom's isn't either.)
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex.
    pub fn lock(&self) -> Result<MutexGuard<'_, T>, PoisonError<MutexGuard<'_, T>>> {
        crate::sched_point();
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        crate::sched_point();
        Ok(MutexGuard { guard })
    }

    /// Attempts the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        crate::sched_point();
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { guard }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                guard: e.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Result of a timed wait, mirroring `std::sync::WaitTimeoutResult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(pub(crate) bool);

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable pairing with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Condvar {
        Condvar::default()
    }

    /// Releases the guard's mutex and waits; reacquires before returning.
    pub fn wait<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
    ) -> Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>> {
        crate::sched_point();
        let g = self
            .inner
            .wait(guard.guard)
            .unwrap_or_else(PoisonError::into_inner);
        crate::sched_point();
        Ok(MutexGuard { guard: g })
    }

    /// Waits with a timeout.
    #[allow(clippy::type_complexity)]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> Result<
        (MutexGuard<'a, T>, WaitTimeoutResult),
        PoisonError<(MutexGuard<'a, T>, WaitTimeoutResult)>,
    > {
        crate::sched_point();
        let (g, r) = match self.inner.wait_timeout(guard.guard, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => e.into_inner(),
        };
        crate::sched_point();
        Ok((MutexGuard { guard: g }, WaitTimeoutResult(r.timed_out())))
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        crate::sched_point();
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        crate::sched_point();
        self.inner.notify_all();
    }
}
