//! The slot table: a counting semaphore over K engine slots, with a
//! deadline. It is pure scheduling state — no engine, no I/O, no
//! counters — so whatever runs jobs on K slots can schedule on it;
//! [`crate::OffloadService`] runs FCAE instances.
//!
//! A job takes any free slot. When none is free it waits until one
//! frees or its wait budget runs out; waiters are granted in no
//! particular order, and the budget bounds every wait. Which compaction
//! runs first is the store's picker's decision, not the table's.
//!
//! A granted slot is a [`Slot`] guard that frees itself on drop, so a
//! job that returns early or panics never leaks its slot.

use std::time::{Duration, Instant};

use lsm::compaction::WritePressure;
use lsm::sync_shim::atomic::{AtomicUsize, Ordering};
use lsm::sync_shim::{Condvar, Mutex};

/// Waiting jobs at which the table advises `WritePressure::Slowdown`.
pub(crate) const SLOWDOWN_WAITERS: usize = 4;
/// Waiting jobs at which the table advises `WritePressure::Stop`.
pub(crate) const STOP_WAITERS: usize = 8;

/// Scheduling state only: what is free. Event counts live on the
/// registry (`OffloadObs`).
pub(crate) struct ServiceState {
    /// Indices of the slots that are idle.
    pub(crate) free_slots: Vec<usize>,
}

/// K slots behind one lock, granted within a wait budget.
pub(crate) struct SlotTable {
    slots: usize,
    wait_budget: Duration,
    pub(crate) state: Mutex<ServiceState>,
    /// Jobs that found no free slot and are waiting for one. Changed
    /// only under `state`; read without it, so a writer asking for
    /// [`SlotTable::write_pressure`] never takes the scheduler lock.
    /// The count is advice that publishes no other data: `Relaxed`.
    pub(crate) waiting: AtomicUsize,
    /// Signaled whenever a slot frees.
    slot_free: Condvar,
}

/// A granted slot, freed when dropped.
pub(crate) struct Slot<'a> {
    table: &'a SlotTable,
    /// Which slot: an index into the backend's engines.
    pub(crate) index: usize,
    /// Slots busy once this one was granted, this one included.
    pub(crate) busy: usize,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut state = self.table.state.lock(); // LOCK-ORDER: offload.state 110
        state.free_slots.push(self.index);
        self.table.slot_free.notify_one();
    }
}

impl SlotTable {
    /// `slots` idle slots; a job waits at most `wait_budget` for one.
    pub(crate) fn new(slots: usize, wait_budget: Duration) -> Self {
        SlotTable {
            slots,
            wait_budget,
            state: Mutex::new(ServiceState {
                free_slots: (0..slots).collect(),
            }),
            waiting: AtomicUsize::new(0),
            slot_free: Condvar::new(),
        }
    }

    /// Takes a free slot, waiting up to the wait budget for one.
    /// Returns the slot — occupied until the guard drops — or `None` on
    /// budget exhaustion.
    pub(crate) fn acquire_slot(&self) -> Option<Slot<'_>> {
        let deadline = Instant::now() + self.wait_budget;
        let mut state = self.state.lock(); // LOCK-ORDER: offload.state 110
        if state.free_slots.is_empty() {
            self.waiting.fetch_add(1, Ordering::Relaxed);
            while state.free_slots.is_empty() && Instant::now() < deadline {
                self.slot_free.wait_until(&mut state, deadline);
            }
            self.waiting.fetch_sub(1, Ordering::Relaxed);
        }
        let index = state.free_slots.pop()?;
        let busy = self.slots - state.free_slots.len();
        Some(Slot {
            table: self,
            index,
            busy,
        })
    }

    /// Backpressure from the waiting jobs, not the busy slots: the
    /// waiters are what writers are ahead of.
    pub(crate) fn write_pressure(&self) -> WritePressure {
        match self.waiting.load(Ordering::Relaxed) {
            n if n >= STOP_WAITERS => WritePressure::Stop,
            n if n >= SLOWDOWN_WAITERS => WritePressure::Slowdown,
            _ => WritePressure::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_falls_back_to_cpu() {
        let svc = SlotTable::new(1, Duration::ZERO);
        // An idle slot is handed out even with a zero budget...
        let slot = svc.acquire_slot();
        assert_eq!(slot.as_ref().map(|s| s.index), Some(0));
        // ...but once the only slot is busy, a zero budget cannot wait.
        assert!(svc.acquire_slot().is_none());
        assert_eq!(svc.waiting.load(Ordering::Relaxed), 0);
    }

    /// Polls until `n` jobs wait on `table`, failing after ten seconds.
    fn await_waiters(table: &SlotTable, n: usize) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while table.waiting.load(Ordering::Relaxed) != n {
            assert!(Instant::now() < give_up, "{n} waiters never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The wait path outside loom: jobs that find the only slot busy
    /// raise the pressure as they queue, and once the slot frees each is
    /// granted it in turn, long before its budget runs out.
    #[test]
    fn waiters_raise_pressure_and_are_each_granted_the_freed_slot() {
        let budget = Duration::from_secs(30);
        let table = SlotTable::new(1, budget);
        let held = table.acquire_slot().expect("idle slot");
        assert_eq!(table.waiting.load(Ordering::Relaxed), 0);
        assert_eq!(table.write_pressure(), WritePressure::None);
        std::thread::scope(|s| {
            let waiter = || {
                let asked = Instant::now();
                let slot = table.acquire_slot().expect("granted within budget");
                let waited = asked.elapsed();
                drop(slot);
                waited
            };
            let mut waiters: Vec<_> = (0..SLOWDOWN_WAITERS).map(|_| s.spawn(waiter)).collect();
            await_waiters(&table, SLOWDOWN_WAITERS);
            assert_eq!(table.write_pressure(), WritePressure::Slowdown);
            waiters.extend((SLOWDOWN_WAITERS..STOP_WAITERS).map(|_| s.spawn(waiter)));
            await_waiters(&table, STOP_WAITERS);
            assert_eq!(table.write_pressure(), WritePressure::Stop);
            drop(held);
            for w in waiters {
                let waited = w.join().expect("waiter must not panic");
                assert!(waited < budget / 3, "granted only after {waited:?}");
            }
        });
        assert_eq!(table.waiting.load(Ordering::Relaxed), 0);
        assert_eq!(table.write_pressure(), WritePressure::None);
        assert_eq!(table.state.lock().free_slots, vec![0]);
    }
}

/// Loom models (`RUSTFLAGS="--cfg loom"`) of the slot table's lock and
/// condvar protocol: slot exclusivity under contention. The table locks
/// through [`lsm::sync_shim`], so these drive the protocol production
/// uses.
#[cfg(all(loom, test))]
mod loom_models {
    use std::sync::Arc;

    use loom::sync::atomic::AtomicBool;

    use super::*;

    /// Two slots, four contending threads: a granted slot must never be
    /// held by two jobs at once, and the free list must be whole after
    /// the storm.
    #[test]
    fn slots_are_never_double_granted() {
        loom::model(|| {
            let svc = Arc::new(SlotTable::new(2, Duration::from_secs(30)));
            let claimed: Arc<Vec<AtomicBool>> =
                Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
            let mut threads = Vec::new();
            for _ in 0..4 {
                let svc = Arc::clone(&svc);
                let claimed = Arc::clone(&claimed);
                threads.push(loom::thread::spawn(move || {
                    for _ in 0..3 {
                        let slot = svc
                            .acquire_slot()
                            .expect("budget is far beyond any model schedule");
                        assert!(
                            !claimed[slot.index].swap(true, Ordering::SeqCst),
                            "slot {} granted to two jobs at once",
                            slot.index
                        );
                        loom::thread::yield_now();
                        claimed[slot.index].store(false, Ordering::SeqCst);
                        drop(slot);
                    }
                }));
            }
            for t in threads {
                t.join().expect("contender thread must not panic");
            }
            let state = svc.state.lock();
            assert_eq!(state.free_slots.len(), 2, "a slot leaked");
            assert_eq!(
                svc.waiting.load(Ordering::SeqCst),
                0,
                "a waiter was stranded"
            );
        });
    }
}
