//! Concurrency primitives swappable for loom.
//!
//! Two subsystems build on this module. The CPU engine's read-ahead
//! sources ([`crate::compaction::ReadAheadSource`]) receive from their
//! reader threads over bounded channels; the
//! parallel write path ([`crate::write_path`], the sharded
//! [`crate::memtable::MemTable`], and the group-commit machinery in
//! [`crate::db`]) coordinates writers with mutexes, condvars, and
//! atomics. Production builds use `std::sync`; building with
//! `RUSTFLAGS="--cfg loom"` swaps in `loom`'s instrumented versions so
//! the model suites can explore interleavings of the exact protocol
//! production runs.
//!
//! The re-exported API is the `std::sync` subset those modules use,
//! identical under both cfgs. `std::sync::Mutex::lock` and the loom
//! shim's both return a `Result` whose error wraps the guard, so callers
//! stay panic-free with `unwrap_or_else(PoisonError::into_inner)`.

#[cfg(loom)]
pub use loom::sync::mpsc::{sync_channel, Receiver, SyncSender};
#[cfg(not(loom))]
pub use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

/// Atomic types with loom instrumentation under `--cfg loom`.
pub mod atomic {
    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

use std::sync::PoisonError;

/// Acquires `m`, swallowing poison (a panicking holder already failed
/// its own thread; the protected state is still internally consistent
/// for the protocols in this crate, which never panic mid-update).
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner) // LOCK-ORDER-OK: generic helper; callers annotate their own sites.
}
