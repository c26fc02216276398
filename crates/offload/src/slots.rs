//! The slot table: which engine slots are free, who waits for one, and
//! what the queue's depth advises writers. It is pure scheduling state —
//! no engine, no I/O, no counters — so whatever runs jobs on K slots
//! can schedule on it; [`crate::OffloadService`] runs FCAE instances.
//!
//! A granted slot is a [`Slot`] guard that frees itself on drop, so a
//! job that returns early or panics never leaks its slot.

use std::time::Instant;

use lsm::compaction::WritePressure;
use lsm::sync_shim::{Condvar, Mutex};

use crate::queue::{JobClass, PriorityPolicy, Waiter};
use crate::OffloadConfig;

/// Scheduling state only: what is free, who waits, what is in flight.
/// Event counts live on the registry (`OffloadObs`).
pub(crate) struct ServiceState {
    /// Indices of the slots that are idle.
    pub(crate) free_slots: Vec<usize>,
    /// Jobs waiting for a slot.
    pub(crate) waiting: Vec<Waiter>,
    next_waiter_id: u64,
    /// Jobs inside the service (any execution path).
    pub(crate) jobs_in_flight: usize,
    /// Jobs ever admitted; the latest one's trace id.
    pub(crate) jobs_admitted: u64,
}

/// K slots behind one lock, granted by priority with aging
/// ([`PriorityPolicy`]) within a wait budget.
pub(crate) struct SlotTable {
    slots: usize,
    /// Wait budget, aging interval and queue-depth thresholds.
    config: OffloadConfig,
    pub(crate) state: Mutex<ServiceState>,
    /// Signaled whenever a slot frees or queue membership changes.
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
        self.table.slot_free.notify_all();
    }
}

impl SlotTable {
    /// `slots` idle slots, granted under `config`.
    pub(crate) fn new(slots: usize, config: OffloadConfig) -> Self {
        SlotTable {
            slots,
            config,
            state: Mutex::new(ServiceState {
                free_slots: (0..slots).collect(),
                waiting: Vec::new(),
                next_waiter_id: 0,
                jobs_in_flight: 0,
                jobs_admitted: 0,
            }),
            slot_free: Condvar::new(),
        }
    }

    /// Waits (with priority + aging) for a slot, up to the wait budget.
    /// Returns the slot — occupied until the guard drops — or `None` on
    /// budget exhaustion.
    pub(crate) fn acquire_slot(&self, class: JobClass) -> Option<Slot<'_>> {
        let policy = PriorityPolicy {
            aging_interval: self.config.aging_interval,
        };
        let enqueued = Instant::now();
        let deadline = enqueued + self.config.wait_budget;
        let mut state = self.state.lock(); // LOCK-ORDER: offload.state 110
        let id = state.next_waiter_id;
        state.next_waiter_id += 1;
        state.waiting.push(Waiter {
            id,
            class,
            enqueued,
        });
        let index = loop {
            let now = Instant::now();
            let chosen = policy.pick(now, &state.waiting).map(|w| w.id);
            let slot = if chosen == Some(id) {
                state.free_slots.pop()
            } else {
                None
            };
            if slot.is_some() || now >= deadline {
                break slot;
            }
            self.slot_free.wait_until(&mut state, deadline);
        };
        state.waiting.retain(|w| w.id != id);
        // Leaving the queue, with a slot or without, may let another
        // waiter through.
        self.slot_free.notify_all();
        let busy = self.slots - state.free_slots.len();
        index.map(|index| Slot {
            table: self,
            index,
            busy,
        })
    }

    /// Backpressure from the queue's depth: the waiters, not the busy
    /// slots, are what writers are ahead of.
    pub(crate) fn write_pressure(&self) -> WritePressure {
        let state = self.state.lock(); // LOCK-ORDER: offload.state 110
        let queued = state.waiting.len();
        if queued >= self.config.stop_queue_depth {
            WritePressure::Stop
        } else if queued >= self.config.slowdown_queue_depth {
            WritePressure::Slowdown
        } else {
            WritePressure::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pressure_follows_queue_depth() {
        let cfg = OffloadConfig {
            slowdown_queue_depth: 1,
            stop_queue_depth: 2,
            ..Default::default()
        };
        let svc = SlotTable::new(1, cfg);
        assert_eq!(svc.write_pressure(), WritePressure::None);
        {
            let mut st = svc.state.lock();
            st.waiting.push(Waiter {
                id: 0,
                class: JobClass::L0ToL1,
                enqueued: Instant::now(),
            });
        }
        assert_eq!(svc.write_pressure(), WritePressure::Slowdown);
        {
            let mut st = svc.state.lock();
            st.waiting.push(Waiter {
                id: 1,
                class: JobClass::Deeper(2),
                enqueued: Instant::now(),
            });
        }
        assert_eq!(svc.write_pressure(), WritePressure::Stop);
    }

    #[test]
    fn zero_budget_falls_back_to_cpu() {
        let cfg = OffloadConfig {
            wait_budget: Duration::ZERO,
            ..Default::default()
        };
        let svc = SlotTable::new(1, cfg);
        // An idle slot is handed out even with a zero budget...
        let slot = svc.acquire_slot(JobClass::L0ToL1);
        assert_eq!(slot.as_ref().map(|s| s.index), Some(0));
        // ...but once the only slot is busy, a zero budget cannot wait.
        assert!(svc.acquire_slot(JobClass::L0ToL1).is_none());
    }
}

/// Loom models (`RUSTFLAGS="--cfg loom"`) of the slot table's lock and
/// condvar protocol: slot exclusivity, and priority aging under
/// concurrent enqueue and dequeue. The table locks through
/// [`lsm::sync_shim`], so these drive the protocol production uses.
#[cfg(all(loom, test))]
mod loom_models {
    use std::sync::Arc;

    use loom::sync::atomic::{AtomicBool, Ordering};

    use super::*;
    use std::time::Duration;

    /// Two slots, four contending threads: a granted slot must never be
    /// held by two jobs at once, and the free list must be whole after
    /// the storm.
    #[test]
    fn slots_are_never_double_granted() {
        loom::model(|| {
            let cfg = OffloadConfig {
                wait_budget: Duration::from_secs(30),
                ..Default::default()
            };
            let svc = Arc::new(SlotTable::new(2, cfg));
            let claimed: Arc<Vec<AtomicBool>> =
                Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
            let mut threads = Vec::new();
            for t in 0..4usize {
                let svc = Arc::clone(&svc);
                let claimed = Arc::clone(&claimed);
                threads.push(loom::thread::spawn(move || {
                    for _ in 0..3 {
                        let slot = svc
                            .acquire_slot(JobClass::from_level(t % 3))
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
            assert!(state.waiting.is_empty(), "a waiter was stranded");
        });
    }

    /// Aging regression under concurrent enqueue/dequeue: a Deeper(4)
    /// waiter that has starved past five aging intervals must be served
    /// before fresh L0ToL1 waiters when the slot frees — and every waiter
    /// must be served exactly once.
    #[test]
    fn aged_deep_waiter_beats_fresh_l0_under_churn() {
        loom::model(|| {
            let cfg = OffloadConfig {
                wait_budget: Duration::from_secs(30),
                aging_interval: Duration::from_millis(2),
                ..Default::default()
            };
            let svc = Arc::new(SlotTable::new(1, cfg));
            // Hold the only slot so every acquirer queues behind it.
            let held = svc.acquire_slot(JobClass::L0ToL1).expect("idle slot");

            let order = Arc::new(Mutex::new(Vec::new()));
            let serve = |svc: &SlotTable,
                         order: &Mutex<Vec<&'static str>>,
                         class: JobClass,
                         tag: &'static str| {
                let slot = svc.acquire_slot(class).expect("budget outlasts the model");
                order.lock().push(tag);
                drop(slot);
            };

            let deep = {
                let svc = Arc::clone(&svc);
                let order = Arc::clone(&order);
                loom::thread::spawn(move || serve(&svc, &order, JobClass::Deeper(4), "deep"))
            };
            // Deeper(4) must be queued before it can starve.
            while svc.state.lock().waiting.is_empty() {
                loom::thread::yield_now();
            }
            // Let it starve past five aging intervals (base rank 5 -> 0),
            // then race in fresh L0 waiters — base rank 1, no aging yet.
            std::thread::sleep(Duration::from_millis(11));
            let mut l0s = Vec::new();
            for _ in 0..2 {
                let svc = Arc::clone(&svc);
                let order = Arc::clone(&order);
                l0s.push(loom::thread::spawn(move || {
                    serve(&svc, &order, JobClass::L0ToL1, "l0")
                }));
            }
            while svc.state.lock().waiting.len() < 3 {
                loom::thread::yield_now();
            }
            drop(held);

            deep.join().expect("deep waiter");
            for t in l0s {
                t.join().expect("l0 waiter");
            }
            let order = order.lock();
            assert_eq!(order.len(), 3, "every waiter served exactly once");
            assert_eq!(
                order[0], "deep",
                "starvation aging must promote the deep job past fresh L0 work"
            );
            let state = svc.state.lock();
            assert_eq!(state.free_slots.len(), 1);
            assert!(state.waiting.is_empty());
        });
    }
}
