//! Offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Matches the parking_lot API this workspace uses: `lock()` returns the
//! guard directly (poison is ignored — a poisoned lock just hands back
//! the inner guard, which is also parking_lot's behavior since it has no
//! poisoning at all), and `Condvar::wait` takes `&mut MutexGuard`.

use std::sync::PoisonError;
use std::time::Instant;

/// Mutual exclusion primitive (no poisoning).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can temporarily take the std guard.
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { guard: Some(guard) }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable pairing with [`Mutex`].
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's mutex and waits; reacquires before
    /// returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.guard.take().expect("guard present outside wait");
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(g);
    }

    /// Like [`Condvar::wait`], but returns once `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let g = guard.guard.take().expect("guard present outside wait");
        let (g, result) = self
            .inner
            .wait_timeout(g, timeout)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut flag = m.lock();
            *flag = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut flag = m.lock();
        while !*flag {
            cv.wait(&mut flag);
        }
        drop(flag);
        handle.join().unwrap();
    }

    #[test]
    fn wait_until_times_out_at_the_deadline() {
        let m = Mutex::new(7);
        let cv = Condvar::new();
        let mut g = m.lock();
        let deadline = Instant::now() + Duration::from_millis(5);
        let r = cv.wait_until(&mut g, deadline);
        assert!(r.timed_out());
        assert!(Instant::now() >= deadline);
        assert_eq!(*g, 7, "the guard is held again after the wait");
        // A deadline already past returns at once.
        assert!(cv.wait_until(&mut g, deadline).timed_out());
    }
}
