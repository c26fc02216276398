//! Priority policy for the offload queue.
//!
//! Jobs are classed by what they unblock: an L0 -> L1 compaction drains
//! the level whose file count throttles writes, deeper compactions only
//! reshape the tree, and maintenance only reclaims space. The scheduler
//! therefore serves `L0ToL1 > Deeper(level) > Maintenance` — but a
//! starved deep job *ages*: every `aging_interval` it waits promotes it
//! one class, so a steady stream of L0 compactions cannot postpone deep
//! ones forever (which would eventually stall writers anyway once the
//! score imbalance propagates upward).

use std::time::{Duration, Instant};

/// What kind of work a queued job is, for scheduling purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// L0 -> L1 compaction: drains the write-throttling level.
    L0ToL1,
    /// Compaction starting at `level >= 1`.
    Deeper(usize),
    /// Background maintenance (value-log GC): reclaims space but never
    /// unblocks writers directly, so it ranks below every compaction —
    /// yet it ages like the rest, so a busy engine cannot starve GC
    /// until the value log eats the disk.
    Maintenance,
}

impl JobClass {
    /// Class for a compaction starting at `level`.
    pub fn from_level(level: usize) -> JobClass {
        if level == 0 {
            JobClass::L0ToL1
        } else {
            JobClass::Deeper(level)
        }
    }

    /// Base rank; lower runs first.
    pub fn base_priority(&self) -> u64 {
        match self {
            JobClass::L0ToL1 => 1,
            JobClass::Deeper(level) => 1 + *level as u64,
            // Below Deeper(8), the deepest level any 7-level tree submits.
            JobClass::Maintenance => 10,
        }
    }
}

/// One queued job waiting for an engine slot.
#[derive(Debug, Clone)]
pub struct Waiter {
    /// Unique, monotonically increasing id (doubles as FIFO tie-break).
    pub id: u64,
    /// Scheduling class.
    pub class: JobClass,
    /// When the job entered the queue.
    pub enqueued: Instant,
}

/// Picks which waiter gets the next free slot.
#[derive(Debug, Clone, Copy)]
pub struct PriorityPolicy {
    /// Time a waiter must starve to gain one class of priority.
    pub aging_interval: Duration,
}

impl PriorityPolicy {
    /// Effective rank of `w` at `now` (lower runs first): the base class
    /// rank minus one per elapsed aging interval.
    pub fn effective_priority(&self, now: Instant, w: &Waiter) -> u64 {
        let waited = now.saturating_duration_since(w.enqueued);
        let boost = if self.aging_interval.is_zero() {
            0
        } else {
            (waited.as_nanos() / self.aging_interval.as_nanos()) as u64
        };
        w.class.base_priority().saturating_sub(boost)
    }

    /// The waiter to serve next: minimum (effective priority, id).
    pub fn pick<'a>(&self, now: Instant, waiting: &'a [Waiter]) -> Option<&'a Waiter> {
        waiting
            .iter()
            .min_by_key(|w| (self.effective_priority(now, w), w.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> PriorityPolicy {
        PriorityPolicy {
            aging_interval: Duration::from_millis(10),
        }
    }

    fn waiter(id: u64, class: JobClass, enqueued: Instant) -> Waiter {
        Waiter {
            id,
            class,
            enqueued,
        }
    }

    #[test]
    fn l0_beats_deeper_beats_maintenance() {
        let now = Instant::now();
        let waiting = vec![
            waiter(1, JobClass::Maintenance, now),
            waiter(2, JobClass::Deeper(3), now),
            waiter(3, JobClass::L0ToL1, now),
        ];
        assert_eq!(policy().pick(now, &waiting).unwrap().id, 3);
        assert_eq!(policy().pick(now, &waiting[..2]).unwrap().id, 2);
    }

    #[test]
    fn fifo_within_a_class() {
        let now = Instant::now();
        let waiting = vec![
            waiter(7, JobClass::L0ToL1, now),
            waiter(8, JobClass::L0ToL1, now),
        ];
        assert_eq!(policy().pick(now, &waiting).unwrap().id, 7);
    }

    #[test]
    fn starved_deep_job_overtakes_fresh_l0() {
        let p = policy();
        let now = Instant::now();
        // Deeper(4) has base rank 5; after 5 aging intervals it reaches
        // rank 0 and outranks a fresh L0 job (rank 1).
        let old = now - Duration::from_millis(55);
        let waiting = vec![
            waiter(1, JobClass::Deeper(4), old),
            waiter(2, JobClass::L0ToL1, now),
        ];
        assert_eq!(p.pick(now, &waiting).unwrap().id, 1);
        // Without the wait it loses.
        let waiting = vec![
            waiter(1, JobClass::Deeper(4), now),
            waiter(2, JobClass::L0ToL1, now),
        ];
        assert_eq!(p.pick(now, &waiting).unwrap().id, 2);
    }

    #[test]
    fn maintenance_ranks_below_all_compactions() {
        let now = Instant::now();
        let waiting = vec![
            waiter(1, JobClass::Maintenance, now),
            waiter(2, JobClass::Deeper(6), now),
        ];
        assert_eq!(policy().pick(now, &waiting).unwrap().id, 2);
        // But a starved GC pass ages past fresh compactions like any
        // other waiter (base rank 10 -> 0 after ten intervals).
        let old = now - Duration::from_millis(105);
        let waiting = vec![
            waiter(1, JobClass::Maintenance, old),
            waiter(2, JobClass::L0ToL1, now),
        ];
        assert_eq!(policy().pick(now, &waiting).unwrap().id, 1);
    }

    #[test]
    fn zero_interval_disables_aging() {
        let p = PriorityPolicy {
            aging_interval: Duration::ZERO,
        };
        let now = Instant::now();
        let w = waiter(1, JobClass::Deeper(5), now - Duration::from_secs(100));
        assert_eq!(p.effective_priority(now, &w), 6);
    }

    #[test]
    fn empty_queue_picks_nothing() {
        assert!(policy().pick(Instant::now(), &[]).is_none());
    }
}
