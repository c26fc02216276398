//! Offline stand-in for [`loom`](https://docs.rs/loom), matching the API
//! subset this workspace's `cfg(loom)` models use.
//!
//! The build environment has no registry access, so — like the other
//! `shims/*` crates — this crate keeps the *interface* of the real
//! dependency while providing an offline implementation. Real loom
//! exhaustively enumerates every interleaving of a bounded concurrent
//! model under C11 semantics; this shim approximates that by running the
//! model body many times (default 100, `LOOM_SHIM_ITERS` overrides) with
//! a per-iteration seeded schedule perturber: every synchronization
//! operation passes through a [`sched_point`] that pseudo-randomly yields
//! or briefly parks the thread, steering the OS scheduler through many
//! distinct interleavings across iterations.
//!
//! The trade-offs are explicit:
//!
//! * **Soundness**: a test failure here is a real failure (the shim adds
//!   only legal schedules).
//! * **Completeness**: unlike real loom, passing does not *prove* every
//!   interleaving safe — it is a strong stress test, not a proof. CI
//!   keeps the suites in the same `RUSTFLAGS="--cfg loom"` shape real
//!   loom requires, so swapping this shim for the real crate is a
//!   one-line Cargo change, no test edits.
//! * **Determinism**: per-iteration perturbation is seeded (iteration
//!   index), but the OS scheduler still contributes nondeterminism; a
//!   reproduced failure should be minimized under real loom.
//!
//! Deadlocks surface as the test binary hanging; the workspace's loom CI
//! job wraps suites in `timeout(1)` for that reason.
//!
//! The workspace reaches these primitives through one module,
//! `lsm::sync_shim`: under `--cfg loom` it wraps [`sync::Mutex`] and
//! [`sync::Condvar`] in parking_lot's shape (`lock()` returns the guard,
//! waits borrow it) and re-exports the atomics, so the store, scheduler,
//! engine and server locks all cross scheduling points with their source
//! unchanged.

pub mod sync;
pub mod thread;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of schedule-perturbation iterations `model` runs.
pub fn iterations() -> usize {
    std::env::var("LOOM_SHIM_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// Seed of the currently running model iteration (0 outside `model`).
static ITERATION_SEED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread xorshift state, lazily mixed from the iteration seed
    /// and a per-thread nonce the first time the thread hits a
    /// scheduling point.
    static RNG: Cell<u64> = const { Cell::new(0) };
}

static THREAD_NONCE: AtomicU64 = AtomicU64::new(1);

fn next_rand() -> u64 {
    RNG.with(|rng| {
        let mut s = rng.get();
        if s == 0 {
            // SplitMix-style seeding: iteration seed + unique thread nonce.
            let nonce = THREAD_NONCE.fetch_add(1, Ordering::Relaxed);
            s = ITERATION_SEED
                .load(Ordering::Relaxed)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(nonce.wrapping_mul(0xbf58_476d_1ce4_e5b9))
                | 1;
        }
        // xorshift64*
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        rng.set(s);
        s.wrapping_mul(0x2545_f491_4f6c_dd1d)
    })
}

/// A scheduling point: called by every shimmed synchronization operation.
/// Pseudo-randomly yields (1 in 4) or parks the thread for a few
/// microseconds (1 in 64) so iterations explore different interleavings.
pub fn sched_point() {
    let r = next_rand();
    if r & 0x3f == 0 {
        std::thread::sleep(std::time::Duration::from_micros(50));
    } else if r & 0x3 == 0 {
        std::thread::yield_now();
    }
}

/// Runs `f` once per iteration under a fresh perturbation seed. Mirrors
/// `loom::model`; panics (test failures) propagate from the failing
/// iteration with its seed in the panic message's context.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    for iter in 0..iterations() {
        ITERATION_SEED.store(iter as u64 + 1, Ordering::Relaxed);
        RNG.with(|rng| rng.set(0));
        f();
    }
    ITERATION_SEED.store(0, Ordering::Relaxed);
}

/// Mirrors `loom::stop_exploring`: a no-op for the shim.
pub fn stop_exploring() {}
