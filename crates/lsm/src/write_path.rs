//! Building blocks of the parallel write path: atomic sequence-range
//! reservation and the ordered *apply ledger* that tracks which reserved
//! ranges have finished inserting into the concurrent memtable.
//!
//! The protocol (see DESIGN.md, "Parallel write path"):
//!
//! 1. A group-commit leader, holding the WAL epoch lock, **reserves** a
//!    contiguous sequence range with [`SeqReserver::reserve`] (an atomic
//!    `fetch_add`, so ranges are disjoint and contiguous by
//!    construction), appends the group's batches to the WAL, and
//!    **registers** the group in the [`ApplyLedger`]. Because
//!    reservation, append, and registration all happen under the epoch
//!    lock, WAL order == sequence order == ledger order.
//! 2. Each group member then inserts its own batch into the sharded
//!    memtable *in parallel* (no lock serializes the inserts) and marks
//!    itself done with [`ApplyLedger::finish_members`].
//! 3. The ledger advances the **visible sequence** — the snapshot
//!    readers use — only when every group at or below a sequence has
//!    fully applied, so a reader never observes sequence `s` while some
//!    write with sequence `< s` is still mid-insert. The advance wakes
//!    the threads the ledger has counted into [`ApplyLedger::wait_visible`]
//!    and signals nothing when there are none.
//! 4. Memtable rotation records the last reserved sequence as the epoch
//!    **boundary**; the flush waits [`ApplyLedger::wait_visible`] on the
//!    boundary so every in-flight writer that holds the old memtable has
//!    landed before the table build starts.
//!
//! Built on [`crate::sync_shim`] so `RUSTFLAGS="--cfg loom"` swaps every
//! primitive for the instrumented loom versions; the model suites below
//! explore interleavings of exactly this code.

use std::collections::VecDeque;
use std::sync::PoisonError;

use crate::sync_shim::atomic::{AtomicU64, Ordering};
use crate::sync_shim::{lock, Condvar, Mutex};

/// Atomic allocator of contiguous sequence-number ranges.
///
/// Writers (group leaders) reserve whole ranges with one `fetch_add`;
/// no two reservations overlap, and the union of all reservations is
/// gapless. A reserved sequence is *not* yet readable — visibility is
/// the [`ApplyLedger`]'s job.
pub struct SeqReserver {
    /// The next unreserved sequence number.
    next: AtomicU64,
}

impl SeqReserver {
    /// Starts reserving after `last_sequence` (the recovery point).
    pub fn new(last_sequence: u64) -> Self {
        SeqReserver {
            next: AtomicU64::new(last_sequence + 1),
        }
    }

    /// Reserves `count` consecutive sequence numbers, returning the
    /// first. `count == 0` is legal (an empty batch): the returned value
    /// is the start of an empty range and nothing is consumed.
    pub fn reserve(&self, count: u64) -> u64 {
        self.next.fetch_add(count, Ordering::AcqRel)
    }

    /// The highest sequence number reserved so far. Only meaningful as a
    /// rotation boundary when the caller holds the epoch lock (no
    /// concurrent reservations), which is how the DB uses it.
    pub fn last_reserved(&self) -> u64 {
        self.next.load(Ordering::Acquire) - 1
    }

    /// Marks everything at or below `seq` as reserved, without
    /// allocating: a replica applying a leader's replication stream uses
    /// the sequences stamped by the leader instead of reserving its own,
    /// but rotation boundaries and local writes still need
    /// [`SeqReserver::last_reserved`] to cover them. `fetch_max` keeps
    /// this monotone against concurrent local reservations.
    pub fn advance_to(&self, seq: u64) {
        self.next.fetch_max(seq + 1, Ordering::AcqRel);
    }
}

/// One registered, not-yet-fully-applied commit group.
struct GroupState {
    id: u64,
    /// Last sequence number in the group's reserved range.
    end_seq: u64,
    /// Members that have not yet finished their memtable insert.
    remaining: usize,
}

struct LedgerInner {
    /// Groups in registration order == sequence order (registration
    /// happens under the epoch lock).
    groups: VecDeque<GroupState>,
    next_id: u64,
    /// Threads parked on `advanced`; `finish_members` notifies only
    /// when there are some.
    waiting: usize,
}

/// Tracks apply completion of commit groups in sequence order and
/// publishes the *visible sequence*: the largest `s` such that every
/// write with sequence <= `s` has been inserted into the memtable.
///
/// Groups may finish applying out of order (they insert in parallel);
/// the ledger only advances visibility over a fully-applied prefix.
pub struct ApplyLedger {
    /// Lock-free mirror of the visible sequence for the read path.
    visible: AtomicU64,
    inner: Mutex<LedgerInner>,
    /// Signaled when `visible` advances past a parked waiter.
    advanced: Condvar,
}

impl ApplyLedger {
    /// Starts with everything at or below `last_sequence` visible.
    pub fn new(last_sequence: u64) -> Self {
        ApplyLedger {
            visible: AtomicU64::new(last_sequence),
            inner: Mutex::new(LedgerInner {
                groups: VecDeque::new(),
                next_id: 1,
                waiting: 0,
            }),
            advanced: Condvar::new(),
        }
    }

    /// The current visible sequence (the default read snapshot).
    pub fn visible(&self) -> u64 {
        self.visible.load(Ordering::Acquire)
    }

    /// Registers a commit group whose reserved range ends at `end_seq`
    /// and that `members` writers will apply. Must be called in sequence
    /// order (the DB calls it under the epoch lock). Returns the group
    /// id used by [`Self::finish_members`].
    // LOCK-HELD: db.epoch -- registration order is the epoch lock's order.
    pub fn register(&self, end_seq: u64, members: usize) -> u64 {
        let mut inner = lock(&self.inner); // LOCK-ORDER: write.ledger 50
        debug_assert!(inner.groups.back().is_none_or(|g| g.end_seq <= end_seq));
        let id = inner.next_id;
        inner.next_id += 1;
        inner.groups.push_back(GroupState {
            id,
            end_seq,
            remaining: members.max(1),
        });
        id
    }

    /// Marks `count` members of group `id` as applied. When the group —
    /// and every group registered before it — has fully applied, the
    /// visible sequence advances over the whole completed prefix and
    /// parked waiters, if there are any, are woken.
    pub fn finish_members(&self, id: u64, count: usize) {
        let mut inner = lock(&self.inner); // LOCK-ORDER: write.ledger 50
        if let Some(g) = inner.groups.iter_mut().find(|g| g.id == id) {
            g.remaining = g.remaining.saturating_sub(count);
        }
        let mut new_visible = None;
        while inner.groups.front().is_some_and(|g| g.remaining == 0) {
            // PANIC-OK: the loop condition just witnessed a front element.
            let g = inner.groups.pop_front().expect("front exists");
            new_visible = Some(g.end_seq);
        }
        if let Some(v) = new_visible {
            // Publish under the lock: a waiter re-checks `visible` and
            // counts itself into `waiting` under it too, so it either
            // sees this value or is counted here.
            self.visible.fetch_max(v, Ordering::AcqRel);
            if inner.waiting > 0 {
                self.advanced.notify_all();
            }
        }
    }

    /// Blocks until the visible sequence reaches `seq`. Used by writers
    /// for read-your-writes acknowledgement ordering and by the flush
    /// path as the rotation-boundary barrier.
    pub fn wait_visible(&self, seq: u64) {
        if self.visible() >= seq {
            return;
        }
        let mut inner = lock(&self.inner); // LOCK-ORDER: write.ledger 50
        inner.waiting += 1;
        while self.visible() < seq {
            // A group may still be unregistered (leader between reserve
            // and register is impossible — both happen under the epoch
            // lock — but a member can finish before we start waiting):
            // re-check after every wakeup.
            inner = self
                .advanced
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inner.waiting -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn reservations_are_contiguous_and_disjoint() {
        let r = SeqReserver::new(10);
        assert_eq!(r.reserve(3), 11);
        assert_eq!(r.reserve(1), 14);
        assert_eq!(r.reserve(0), 15); // empty batch consumes nothing
        assert_eq!(r.reserve(2), 15);
        assert_eq!(r.last_reserved(), 16);
    }

    #[test]
    fn visibility_advances_only_over_completed_prefix() {
        let l = ApplyLedger::new(0);
        let g1 = l.register(5, 2);
        let g2 = l.register(8, 1);
        // g2 finishes first: nothing visible yet.
        l.finish_members(g2, 1);
        assert_eq!(l.visible(), 0);
        l.finish_members(g1, 1);
        assert_eq!(l.visible(), 0);
        // Last member of g1 completes the prefix; both groups publish.
        l.finish_members(g1, 1);
        assert_eq!(l.visible(), 8);
        l.wait_visible(8); // returns immediately
    }

    #[test]
    fn concurrent_reservations_cover_range_exactly() {
        let r = Arc::new(SeqReserver::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let mut starts = Vec::new();
                for _ in 0..50 {
                    starts.push(r.reserve(3));
                }
                starts
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        // 200 reservations of 3: starts are exactly 1, 4, 7, ...
        assert_eq!(all.len(), 200);
        for (i, s) in all.iter().enumerate() {
            assert_eq!(*s, 1 + 3 * i as u64);
        }
        assert_eq!(r.last_reserved(), 600);
    }

    #[test]
    fn wait_visible_blocks_until_group_applies() {
        let l = Arc::new(ApplyLedger::new(0));
        let g = l.register(4, 1);
        let waiter = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                l.wait_visible(4);
                l.visible()
            })
        };
        std::thread::yield_now();
        l.finish_members(g, 1);
        assert_eq!(waiter.join().unwrap(), 4);
    }
}

/// Loom models of the write-path protocol, run under
/// `RUSTFLAGS="--cfg loom"` (see `scripts/check.sh` and the loom CI
/// job). They model the three invariants `write.rs` relies on:
///
/// * **Sequence reservation**: concurrent reservations are disjoint and
///   contiguous, and a reader never sees a visible sequence for which
///   some lower sequence is still unapplied.
/// * **Rotation handoff**: a writer that captured the pre-rotation
///   memtable lands in it before the flush barrier releases, so the
///   frozen memtable contains *exactly* the sequences at or below the
///   rotation boundary.
/// * **No lost wake-up**: `finish_members` notifies only a waiter the
///   ledger has counted as parked, and a waiter is always either counted
///   or already satisfied.
#[cfg(all(loom, test))]
mod loom_models {
    use super::*;
    use std::sync::Arc;

    /// Two writers reserve and apply single-sequence groups while a
    /// reader polls: the visible sequence must only ever move forward,
    /// and at every observation point all sequences <= visible must have
    /// been applied (modeled by registering/finishing in epoch order
    /// under a mutex, applying outside it).
    #[test]
    fn visible_sequence_never_exposes_unapplied_writes() {
        loom::model(|| {
            let reserver = Arc::new(SeqReserver::new(0));
            let ledger = Arc::new(ApplyLedger::new(0));
            let epoch = Arc::new(Mutex::new(()));
            let applied = Arc::new(Mutex::new(Vec::<u64>::new()));

            let mut handles = Vec::new();
            for _ in 0..2 {
                let (reserver, ledger, epoch, applied) = (
                    Arc::clone(&reserver),
                    Arc::clone(&ledger),
                    Arc::clone(&epoch),
                    Arc::clone(&applied),
                );
                handles.push(loom::thread::spawn(move || {
                    let (seq, gid) = {
                        let _ep = lock(&epoch);
                        let seq = reserver.reserve(1);
                        let gid = ledger.register(seq, 1);
                        (seq, gid)
                    };
                    // Parallel apply happens outside the epoch lock.
                    lock(&applied).push(seq);
                    ledger.finish_members(gid, 1);
                    ledger.wait_visible(seq);
                }));
            }
            let reader = {
                let (ledger, applied) = (Arc::clone(&ledger), Arc::clone(&applied));
                loom::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..4 {
                        let v = ledger.visible();
                        assert!(v >= last, "visible moved backwards");
                        let seen = lock(&applied).clone();
                        for s in 1..=v {
                            assert!(seen.contains(&s), "seq {s} visible but unapplied");
                        }
                        last = v;
                    }
                })
            };
            for h in handles {
                h.join().unwrap();
            }
            reader.join().unwrap();
            assert_eq!(ledger.visible(), 2);
        });
    }

    /// The wake-up `finish_members` gives only to a counted waiter is
    /// never lost: a thread in `wait_visible(s)` races the finish that
    /// makes `s` visible and returns whether it parks before the finish
    /// (it is counted, so it is notified) or arrives after it (it sees
    /// the published value under the same lock and never parks).
    #[test]
    fn a_waiter_racing_the_finish_that_satisfies_it_always_returns() {
        loom::model(|| {
            let ledger = Arc::new(ApplyLedger::new(0));
            let group = ledger.register(1, 1);
            let waiter = {
                let ledger = Arc::clone(&ledger);
                loom::thread::spawn(move || {
                    ledger.wait_visible(1);
                    assert_eq!(ledger.visible(), 1);
                })
            };
            ledger.finish_members(group, 1);
            waiter.join().unwrap();
            assert_eq!(lock(&ledger.inner).waiting, 0);
        });
    }

    /// Rotation handoff: a rotator swaps the active "memtable" (a Vec
    /// behind the epoch lock) while writers commit through it. The
    /// boundary recorded at swap time must exactly partition the
    /// sequences: after the flush barrier, the retired memtable holds
    /// every sequence <= boundary and none above.
    #[test]
    fn rotation_boundary_partitions_sequences() {
        struct Epoch {
            mem: Arc<Mutex<Vec<u64>>>,
        }
        loom::model(|| {
            let reserver = Arc::new(SeqReserver::new(0));
            let ledger = Arc::new(ApplyLedger::new(0));
            let epoch = Arc::new(Mutex::new(Epoch {
                mem: Arc::new(Mutex::new(Vec::new())),
            }));

            let mut writers = Vec::new();
            for _ in 0..2 {
                let (reserver, ledger, epoch) = (
                    Arc::clone(&reserver),
                    Arc::clone(&ledger),
                    Arc::clone(&epoch),
                );
                writers.push(loom::thread::spawn(move || {
                    for _ in 0..2 {
                        // Leader protocol: reserve + capture mem under
                        // the epoch lock, apply outside it.
                        let (seq, gid, mem) = {
                            let ep = lock(&epoch);
                            let seq = reserver.reserve(1);
                            let gid = ledger.register(seq, 1);
                            (seq, gid, Arc::clone(&ep.mem))
                        };
                        lock(&mem).push(seq);
                        ledger.finish_members(gid, 1);
                    }
                }));
            }
            let rotator = {
                let (reserver, ledger, epoch) = (
                    Arc::clone(&reserver),
                    Arc::clone(&ledger),
                    Arc::clone(&epoch),
                );
                loom::thread::spawn(move || {
                    let (old, boundary) = {
                        let mut ep = lock(&epoch);
                        let boundary = reserver.last_reserved();
                        let old = std::mem::replace(&mut ep.mem, Arc::new(Mutex::new(Vec::new())));
                        (old, boundary)
                    };
                    // Flush barrier: wait for in-flight writers that
                    // captured the old memtable.
                    ledger.wait_visible(boundary);
                    let frozen = lock(&old).clone();
                    let mut sorted = frozen.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), frozen.len(), "duplicate applies");
                    // Exactly 1..=boundary, nothing above.
                    assert_eq!(sorted.len() as u64, boundary);
                    assert!(sorted.iter().all(|s| *s <= boundary));
                })
            };
            for w in writers {
                w.join().unwrap();
            }
            rotator.join().unwrap();
            // Everything eventually applies and becomes visible.
            ledger.wait_visible(4);
        });
    }
}
