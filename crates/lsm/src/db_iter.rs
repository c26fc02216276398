//! A forward iterator over the live user-visible contents of the store
//! (LevelDB's `DBIter`, forward-only): merges the memtable iterators and
//! every level's tables, then collapses internal-key versions — the
//! newest visible version of each user key wins, tombstones hide keys.

use std::sync::Arc;

use sstable::ikey::{parse_internal_key, LookupKey, SequenceNumber, ValueType};
use sstable::iterator::{InternalIterator, MergingIterator};

use crate::vlog::VlogRuntime;
use crate::Result;

/// Iterator over live `(user key, value)` pairs at a fixed sequence.
///
/// With key-value separation enabled the iterator dereferences value-log
/// pointers as it goes; a failed dereference (e.g. a segment retired by
/// a concurrent GC pass) stops the iteration and surfaces through
/// [`DbIter::status`]. Iterators do not pin value-log segments — do not
/// run [`crate::Db::collect_value_log`] while holding one.
pub struct DbIter {
    merger: MergingIterator,
    sequence: SequenceNumber,
    key: Vec<u8>,
    /// The dereferenced value when separation is on; otherwise unused —
    /// [`DbIter::value`] borrows the merger's.
    value: Vec<u8>,
    /// User key whose remaining (older) versions are being skipped;
    /// swapped with `key` on `next` so neither buffer is reallocated.
    skip: Vec<u8>,
    valid: bool,
    /// Dereferences tagged stored values when separation is on.
    vlog: Option<Arc<VlogRuntime>>,
    /// First value-log resolution failure (`crate::Error` is not
    /// `Clone`, so the message is kept and re-wrapped by `status`).
    resolve_error: Option<String>,
}

impl DbIter {
    /// Builds an iterator from already-assembled children (the `Db`
    /// assembles memtable + table iterators).
    pub(crate) fn new(
        children: Vec<Box<dyn InternalIterator>>,
        sequence: SequenceNumber,
        vlog: Option<Arc<VlogRuntime>>,
    ) -> Self {
        DbIter {
            merger: MergingIterator::new(children),
            sequence,
            key: Vec::new(),
            value: Vec::new(),
            skip: Vec::new(),
            valid: false,
            vlog,
            resolve_error: None,
        }
    }

    /// True when positioned on a live entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// Current user key.
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.key
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid);
        // While valid, the merger rests on the entry `key` was copied
        // from, so its value can be lent out as is.
        match self.vlog {
            None => self.merger.value(),
            Some(_) => &self.value,
        }
    }

    /// Positions at the first live key.
    pub fn seek_to_first(&mut self) {
        self.merger.seek_to_first();
        self.find_next_user_entry(false);
    }

    /// Positions at the first live key >= `user_key`.
    pub fn seek(&mut self, user_key: &[u8]) {
        let lk = LookupKey::new(user_key, self.sequence);
        self.merger.seek(lk.internal_key());
        self.find_next_user_entry(false);
    }

    /// Advances to the next live key.
    pub fn next(&mut self) {
        debug_assert!(self.valid);
        std::mem::swap(&mut self.key, &mut self.skip);
        if self.merger.valid() {
            self.merger.next();
        }
        self.find_next_user_entry(true);
    }

    /// Scans forward to the newest visible version of the next user key
    /// that is not deleted and, when `skipping`, is not `self.skip`.
    fn find_next_user_entry(&mut self, mut skipping: bool) {
        self.valid = false;
        while self.merger.valid() {
            let Some(parsed) = parse_internal_key(self.merger.key()) else {
                self.merger.next();
                continue;
            };
            if parsed.sequence > self.sequence {
                // Newer than our snapshot: invisible.
                self.merger.next();
                continue;
            }
            if skipping && parsed.user_key == self.skip.as_slice() {
                self.merger.next();
                continue;
            }
            match parsed.value_type {
                ValueType::Deletion => {
                    // Key is dead at this snapshot; skip all older versions.
                    self.skip.clear();
                    self.skip.extend_from_slice(parsed.user_key);
                    skipping = true;
                    self.merger.next();
                }
                ValueType::Value => {
                    self.key.clear();
                    self.key.extend_from_slice(parsed.user_key);
                    if let Some(v) = &self.vlog {
                        match v.resolve(self.merger.value()) {
                            Ok(resolved) => self.value = resolved,
                            Err(e) => {
                                // Stop here; the failure surfaces through
                                // status() like a child-iterator error.
                                self.resolve_error = Some(e.to_string());
                                return;
                            }
                        }
                    }
                    self.valid = true;
                    return;
                }
            }
        }
    }

    /// Propagated error from any child iterator or value-log dereference.
    pub fn status(&self) -> Result<()> {
        if let Some(msg) = &self.resolve_error {
            return Err(crate::Error::Corruption(msg.clone()));
        }
        self.merger.status().map_err(crate::Error::from)
    }
}
