//! Where the merged pairs come from: the [`ChainIterator`] over a run of
//! tables and the [`TableRunSource`] walking it on the merge thread.

use std::cmp::Ordering;
use std::sync::Arc;

use sstable::comparator::InternalKeyComparator;
use sstable::iterator::InternalIterator;
use sstable::table::{Table, TableIterator};

use super::merge::MergeSource;
use crate::version::FileMetaData;
use crate::Result;

/// Iterates a run of internally-sorted, disjoint tables back to back.
///
/// A table whose block read failed is never stepped past: the cursor
/// stays on it, invalid, with the error in [`InternalIterator::status`] —
/// treating a failed table as an exhausted one would silently truncate
/// whatever is reading the run.
pub struct ChainIterator {
    tables: Vec<Arc<Table>>,
    /// The tables' files when the run is a level of the tree: `seek`
    /// binary-searches their largest keys and opens one table. Empty for
    /// a compaction input, which is only walked from the front.
    files: Vec<Arc<FileMetaData>>,
    current: Option<(usize, TableIterator)>,
    fill_cache: bool,
}

impl ChainIterator {
    /// Creates an iterator over `tables` (ascending key order) that
    /// leaves the blocks it reads in the block cache only with `fill_cache`.
    pub fn new(tables: Vec<Arc<Table>>, fill_cache: bool) -> Self {
        Self::level(tables, Vec::new(), fill_cache)
    }

    /// [`ChainIterator::new`] over a level's `tables` and their `files`,
    /// in the same order, so a seek opens only the table that can hold
    /// its target.
    pub fn level(tables: Vec<Arc<Table>>, files: Vec<Arc<FileMetaData>>, fill_cache: bool) -> Self {
        ChainIterator {
            tables,
            files,
            current: None,
            fill_cache,
        }
    }

    /// Opens table `idx`, then its neighbours in the walking direction,
    /// until `position` lands on an entry, a table fails, or the run ends.
    /// An `idx` past either end (`usize::MAX` below table 0) ends the run.
    fn settle(&mut self, mut idx: usize, forward: bool, position: impl Fn(&mut TableIterator)) {
        while let Some(table) = self.tables.get(idx) {
            let mut it = table.iter_with(self.fill_cache);
            position(&mut it);
            let stop = it.valid() || it.status().is_err();
            self.current = Some((idx, it));
            if stop {
                return;
            }
            idx = if forward {
                idx + 1
            } else {
                idx.wrapping_sub(1)
            };
        }
        self.current = None;
    }

    /// The table under the cursor; the iterator contract makes the caller
    /// check `valid()` first.
    fn table_iter(&self) -> &TableIterator {
        // PANIC-OK: InternalIterator contract — key()/value() only when
        // valid(), and valid() requires current to be Some.
        &self.current.as_ref().expect("chain iterator not valid").1
    }
}

impl InternalIterator for ChainIterator {
    fn valid(&self) -> bool {
        self.current.as_ref().is_some_and(|(_, it)| it.valid())
    }

    fn seek_to_first(&mut self) {
        self.settle(0, true, TableIterator::seek_to_first);
    }

    fn seek_to_last(&mut self) {
        let last = self.tables.len().wrapping_sub(1);
        self.settle(last, false, TableIterator::seek_to_last);
    }

    fn seek(&mut self, target: &[u8]) {
        // Tables are disjoint and ordered: the first whose largest key is
        // not below `target` holds it (without files, settle walks there).
        let first = self.files.partition_point(|f| {
            InternalKeyComparator.compare(f.largest.encoded(), target) == Ordering::Less
        });
        self.settle(first, true, |it| it.seek(target));
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        // PANIC-OK: InternalIterator contract — next() only on a valid
        // iterator, and valid() requires current to be Some.
        let (idx, it) = self.current.as_mut().expect("chain iterator not valid");
        it.next();
        if !it.valid() && it.status().is_ok() {
            let next = *idx + 1;
            self.settle(next, true, TableIterator::seek_to_first);
        }
    }

    fn prev(&mut self) {
        debug_assert!(self.valid());
        // PANIC-OK: InternalIterator contract — prev() only on a valid
        // iterator, and valid() requires current to be Some.
        let (idx, it) = self.current.as_mut().expect("chain iterator not valid");
        it.prev();
        if !it.valid() && it.status().is_ok() {
            let prev = idx.wrapping_sub(1);
            self.settle(prev, false, TableIterator::seek_to_last);
        }
    }

    fn key(&self) -> &[u8] {
        self.table_iter().key()
    }

    fn value(&self) -> &[u8] {
        self.table_iter().value()
    }

    fn status(&self) -> sstable::Result<()> {
        match &self.current {
            Some((_, it)) => it.status(),
            None => Ok(()),
        }
    }
}

/// The CPU source: one input's table run, walked on the thread that
/// merges it.
pub struct TableRunSource {
    run: ChainIterator,
    started: bool,
}

impl TableRunSource {
    /// Creates a source positioned before the first pair of `tables`
    /// (ascending key order).
    pub fn new(tables: Vec<Arc<Table>>) -> Self {
        TableRunSource {
            // The inputs are deleted at install: their blocks stay out of
            // the block cache, as on the engine's path.
            run: ChainIterator::new(tables, false),
            started: false,
        }
    }
}

impl MergeSource for TableRunSource {
    fn advance(&mut self) -> Result<bool> {
        if self.started {
            self.run.next();
        } else {
            self.run.seek_to_first();
            self.started = true;
        }
        if self.run.valid() {
            return Ok(true);
        }
        // Exhausted and failed both read as invalid; only the status
        // tells a complete run from a truncated one.
        self.run.status()?;
        Ok(false)
    }

    fn valid(&self) -> bool {
        self.run.valid()
    }

    fn key(&self) -> &[u8] {
        self.run.key()
    }

    fn value(&self) -> &[u8] {
        self.run.value()
    }
}
