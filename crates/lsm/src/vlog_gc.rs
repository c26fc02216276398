//! Value-log garbage collection: rewrite a sealed segment's live values
//! through the ordinary sequenced write path, then remove the segment.

use std::sync::Arc;

use crate::db::{Db, DbInner};
use crate::vlog::VlogRuntime;
use crate::write_batch::WriteBatch;
use crate::Result;

/// What one [`Db::collect_value_log`] pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VlogGcReport {
    /// Sealed segments examined.
    pub segments_scanned: u64,
    /// Segments whose live values were rewritten and whose file was
    /// removed.
    pub segments_retired: u64,
    /// Segments kept because a snapshot could still reach them.
    pub segments_deferred: u64,
    /// Live values copied to the active segment.
    pub values_rewritten: u64,
    /// Value bytes copied.
    pub bytes_rewritten: u64,
    /// Dead bytes still on disk in deferred segments (the
    /// `lsm.vlog.dead-bytes` gauge).
    pub dead_bytes_remaining: u64,
}

/// Outcome of collecting one sealed segment.
enum SegmentGc {
    Retired {
        live_rewritten: u64,
        bytes_rewritten: u64,
    },
    Deferred {
        dead_bytes: u64,
    },
}

impl Db {
    /// Garbage-collects sealed value-log segments: live values are
    /// rewritten to the active segment (through the configured engine's
    /// maintenance slot, so GC contends with compactions for engine
    /// time), dead segments are removed. No-op when separation is off.
    ///
    /// Removal is deferred while any snapshot is registered — a snapshot
    /// reader may still hold pointers into the old segment. Open
    /// [`crate::db_iter::DbIter`]s do *not* pin segments; do not run GC
    /// while holding an iterator across it.
    pub fn collect_value_log(&self) -> Result<VlogGcReport> {
        let inner = &self.inner;
        let Some(v) = &inner.vlog else {
            return Ok(VlogGcReport::default());
        };
        let mut report = VlogGcReport::default();
        let mut remaining_dead = 0u64;
        for segment in v.sealed_segments()? {
            let mut outcome: Result<SegmentGc> = Ok(SegmentGc::Deferred { dead_bytes: 0 });
            inner
                .engine
                .run_maintenance(&mut || outcome = inner.gc_segment(v, segment));
            report.segments_scanned += 1;
            match outcome? {
                SegmentGc::Retired {
                    live_rewritten,
                    bytes_rewritten,
                } => {
                    report.segments_retired += 1;
                    report.values_rewritten += live_rewritten;
                    report.bytes_rewritten += bytes_rewritten;
                }
                SegmentGc::Deferred { dead_bytes } => {
                    report.segments_deferred += 1;
                    remaining_dead += dead_bytes;
                }
            }
        }
        v.publish_gc_gauges(remaining_dead);
        report.dead_bytes_remaining = remaining_dead;
        Ok(report)
    }
}

impl DbInner {
    /// Collects one sealed value-log segment: rewrites the live records
    /// into the active segment, then removes the file once the copies are
    /// durable. Runs outside all DB locks except for the per-record
    /// install and the final retirement.
    fn gc_segment(&self, v: &Arc<VlogRuntime>, segment: u64) -> Result<SegmentGc> {
        // Cheap early defer: a registered snapshot may read old pointers
        // into this segment, so it cannot be removed yet. (Rewriting live
        // values would be safe but wasted if the next pass defers again.)
        // LOCK-ORDER: db.state 10
        if !self.state.lock().snapshots.is_empty() {
            return Ok(SegmentGc::Deferred { dead_bytes: 0 });
        }
        // A pinned segment holds records appended by a write whose commit
        // is not yet visible. The liveness check below cannot see such a
        // record (its batch is not applied yet), so it would be judged
        // dead and the segment removed — and the write would then commit
        // an acknowledged pointer to a deleted file. Sealed segments take
        // no new appends, so the pin is guaranteed to drain; defer until
        // it does. A pin drops only after its write's commit, which
        // applies and publishes in one epoch section: once drained, every
        // record's installing write is visible.
        if v.is_pinned(segment) {
            return Ok(SegmentGc::Deferred { dead_bytes: 0 });
        }

        let (records, _seg_len) = v.read_segment(segment)?;
        let mut live_rewritten = 0u64;
        let mut bytes_rewritten = 0u64;
        let mut dead_bytes = 0u64;
        for rec in records {
            let old_stored = rec.ptr.encode();
            // Lock-free pre-filter: most records in an old segment are
            // dead (overwritten, deleted, or already rewritten); skip
            // them without touching the write path.
            if self.get_stored(&rec.key, self.visible())?.as_deref() != Some(old_stored.as_slice())
            {
                dead_bytes += rec.encoded_len();
                continue;
            }
            // Copy first, install second: if the install loses a race
            // with a concurrent writer the new copy is orphaned garbage
            // in the active segment — collected when *that* segment gets
            // GC'd — and nothing ever pointed at it.
            // The pin covers the rewrite from its append until the
            // install below is decided and visible (a losing install
            // leaves the copy as unreferenced garbage — unpinning it is
            // then harmless).
            let (new_ptr, _rewrite_pin) = v.append_for_gc(&rec.key, &rec.value)?;
            self.restage_vlog(v);
            if self.gc_install_if_current(&rec.key, &old_stored, new_ptr.encode())? {
                live_rewritten += 1;
                bytes_rewritten += rec.value.len() as u64;
            } else {
                dead_bytes += rec.encoded_len();
            }
        }

        // Every record judged dead (and every rewrite discarded by a
        // losing install race) was shadowed by some newer record — which
        // may still sit *unsynced* in the WAL. Removing the segment
        // before that shadow is durable would let a power cut drop the
        // shadow and leave a synced, acknowledged pointer dangling. So
        // sync unconditionally before retirement: the rewritten copies
        // (vlog first, then the WAL records that point at them) and every
        // shadowing record already in the WAL buffer become durable
        // before the only other copy of those values disappears.
        v.sync_if_dirty()?;
        {
            let mut epoch = self.epoch.lock(); // LOCK-ORDER: db.epoch 20
            epoch.wal.sync()?;
        }

        // Retire under the state lock: `Db::snapshot` registers under the
        // same lock, so no snapshot can slip in between this check and
        // the removal and then observe a dangling pointer.
        let state = self.state.lock(); // LOCK-ORDER: db.state 10
        if !state.snapshots.is_empty() {
            return Ok(SegmentGc::Deferred { dead_bytes });
        }
        v.remove_segment(segment)?;
        drop(state);
        Ok(SegmentGc::Retired {
            live_rewritten,
            bytes_rewritten,
        })
    }

    /// Atomically re-points `key` at its rewritten value if and only if
    /// its current stored bytes still equal `old_stored`. Holding the
    /// epoch lock stops every other commit, and every commit publishes
    /// inside its own epoch section, so the visible sequence read here
    /// covers every write there is: no concurrent writer's newer value can
    /// be shadowed by the GC copy.
    fn gc_install_if_current(
        &self,
        key: &[u8],
        old_stored: &[u8],
        new_stored: Vec<u8>,
    ) -> Result<bool> {
        let _state = self.state.lock(); // LOCK-ORDER: db.state 10
        self.writable()?;
        // LOCK-ORDER: db.epoch 20
        let mut epoch = self.epoch.lock();
        // The state lock is held, so the published view is what `state`
        // holds right now.
        let current = self.get_stored_in(key, self.visible(), &self.view())?;
        if current.as_deref() != Some(old_stored) {
            return Ok(false);
        }
        let mut batch = WriteBatch::new();
        batch.put(key, &new_stored);
        if let Err(e) = epoch.commit(self, "vlog gc wal append", &mut batch, &mut [], false, None) {
            // `wake_after_commit_error` with `state` already held.
            self.work_done.notify_all();
            return Err(e);
        }
        Ok(true)
    }
}
