//! Injectable device faults, for exercising the CPU-retry path without a
//! real flaky card.
//!
//! Faults come in two kinds ([`DeviceFaultKind`]):
//!
//! * **Transient** — fires at dispatch time, *before* the engine touches
//!   the output-file factory. A transiently-faulted job has no on-disk
//!   side effects to clean up; the CPU retry is exactly-once by
//!   construction.
//! * **MidJob** — the engine runs to completion against the real output
//!   factory, then the device fails the job (it never acknowledges, or
//!   its output fails validation). The scheduler must discard the
//!   produced outputs (the store's pending-outputs GC sweeps the
//!   orphaned files) and retry on the CPU with fresh output numbers.

use std::sync::atomic::{AtomicU64, Ordering};

/// How an injected device fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceFaultKind {
    /// Dispatch-time fault: the engine is never invoked, the factory is
    /// never touched. Retryable with zero cleanup.
    Transient,
    /// The engine ran against the real output factory, then the device
    /// failed the job. Outputs must be discarded.
    MidJob,
}

impl DeviceFaultKind {
    /// Every kind, in decision-priority order (explicit budgets and
    /// periodic schedules are consulted in this order).
    pub const ALL: [DeviceFaultKind; 2] = [DeviceFaultKind::Transient, DeviceFaultKind::MidJob];

    fn index(self) -> usize {
        match self {
            DeviceFaultKind::Transient => 0,
            DeviceFaultKind::MidJob => 1,
        }
    }
}

/// Decides whether (and how) the next device dispatch fails.
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Explicit per-kind budgets: the next `n` dispatches fault with
    /// that kind.
    fail_next: [AtomicU64; 2],
    /// Per-kind periodic faults: every `n`-th dispatch faults (0 = off).
    fail_every: [AtomicU64; 2],
    /// Device dispatches observed so far.
    dispatches: AtomicU64,
}

impl FaultInjector {
    /// A quiet injector.
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Makes the next `n` device dispatches fail transiently.
    pub fn inject(&self, n: u64) {
        self.inject_kind(DeviceFaultKind::Transient, n);
    }

    /// Makes the next `n` device dispatches fail with `kind`.
    pub fn inject_kind(&self, kind: DeviceFaultKind, n: u64) {
        self.fail_next[kind.index()].fetch_add(n, Ordering::SeqCst);
    }

    /// Makes every `n`-th dispatch fail transiently (0 disables).
    pub fn fail_every(&self, n: u64) {
        self.fail_every_kind(DeviceFaultKind::Transient, n);
    }

    /// Makes every `n`-th dispatch fail with `kind` (0 disables that
    /// kind's schedule).
    pub fn fail_every_kind(&self, kind: DeviceFaultKind, n: u64) {
        self.fail_every[kind.index()].store(n, Ordering::SeqCst);
    }

    /// Called once per device dispatch; `Some(kind)` means "the device
    /// faults this way". Explicit budgets win over periodic schedules;
    /// within each, [`DeviceFaultKind::ALL`] order breaks ties.
    pub fn should_fault(&self) -> Option<DeviceFaultKind> {
        let dispatch = self.dispatches.fetch_add(1, Ordering::SeqCst) + 1;
        // Consume one unit of the first non-empty explicit budget.
        for kind in DeviceFaultKind::ALL {
            let cell = &self.fail_next[kind.index()];
            let mut budget = cell.load(Ordering::SeqCst);
            while budget > 0 {
                match cell.compare_exchange(budget, budget - 1, Ordering::SeqCst, Ordering::SeqCst)
                {
                    Ok(_) => return Some(kind),
                    Err(actual) => budget = actual,
                }
            }
        }
        for kind in DeviceFaultKind::ALL {
            let every = self.fail_every[kind.index()].load(Ordering::SeqCst);
            if every != 0 && dispatch % every == 0 {
                return Some(kind);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_budget_is_consumed() {
        let f = FaultInjector::new();
        assert_eq!(f.should_fault(), None);
        f.inject(2);
        assert_eq!(f.should_fault(), Some(DeviceFaultKind::Transient));
        assert_eq!(f.should_fault(), Some(DeviceFaultKind::Transient));
        assert_eq!(f.should_fault(), None);
    }

    #[test]
    fn periodic_faults_hit_every_nth() {
        let f = FaultInjector::new();
        f.fail_every(3);
        let hits: Vec<bool> = (0..6).map(|_| f.should_fault().is_some()).collect();
        assert_eq!(hits, vec![false, false, true, false, false, true]);
        f.fail_every(0);
        assert_eq!(f.should_fault(), None);
    }

    #[test]
    fn kinds_have_independent_budgets() {
        let f = FaultInjector::new();
        f.inject_kind(DeviceFaultKind::MidJob, 1);
        f.inject_kind(DeviceFaultKind::Transient, 1);
        // Budgets drain in ALL order: transient first, then mid-job.
        assert_eq!(f.should_fault(), Some(DeviceFaultKind::Transient));
        assert_eq!(f.should_fault(), Some(DeviceFaultKind::MidJob));
        assert_eq!(f.should_fault(), None);
    }

    #[test]
    fn explicit_budget_wins_over_periodic_schedule() {
        let f = FaultInjector::new();
        f.fail_every_kind(DeviceFaultKind::Transient, 1);
        f.inject_kind(DeviceFaultKind::MidJob, 1);
        assert_eq!(f.should_fault(), Some(DeviceFaultKind::MidJob));
        assert_eq!(f.should_fault(), Some(DeviceFaultKind::Transient));
    }
}
