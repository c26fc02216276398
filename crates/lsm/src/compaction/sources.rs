//! Where the merged pairs come from: the [`ChainIterator`] over a run of
//! tables, the inline [`TableRunSource`] walking it on the merge thread,
//! and the [`ReadAheadSource`] fed by a reader thread in framed batches.

use std::cmp::Ordering;
use std::sync::Arc;

use sstable::comparator::InternalKeyComparator;
use sstable::iterator::InternalIterator;
use sstable::table::{Table, TableIterator};

use super::merge::MergeSource;
use crate::sync_shim::{sync_channel, Receiver, SyncSender};
use crate::version::FileMetaData;
use crate::{Error, Result};

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

/// The inline CPU source: one input's table run, walked on the thread
/// that merges it.
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

/// What a reader thread ships: a flat batch of `[u32 klen][u32 vlen]
/// [key][value]` pairs — a few large sends per block's worth of data
/// instead of two allocations per pair — or the error that ended its walk.
type BatchResult = Result<Vec<u8>>;

/// Appends one framed pair.
fn push_entry(batch: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    batch.extend_from_slice(&(key.len() as u32).to_le_bytes());
    batch.extend_from_slice(&(value.len() as u32).to_le_bytes());
    batch.extend_from_slice(key);
    batch.extend_from_slice(value);
}

/// Parses the pair at `pos`, returning (key range, value range, next
/// pos). The framing never leaves this module, so a short batch is a
/// logic bug, not input corruption.
fn parse_entry(batch: &[u8], pos: usize) -> ((usize, usize), (usize, usize), usize) {
    // PANIC-OK: framing is produced by push_entry in this module (see doc
    // above); a short slice is a logic bug worth aborting on.
    let klen = u32::from_le_bytes(batch[pos..pos + 4].try_into().unwrap()) as usize;
    // PANIC-OK: same framing invariant as the line above.
    let vlen = u32::from_le_bytes(batch[pos + 4..pos + 8].try_into().unwrap()) as usize;
    let kstart = pos + 8;
    let vstart = kstart + klen;
    ((kstart, vstart), (vstart, vstart + vlen), vstart + vlen)
}

/// Runs a reader body, turning its error *or its panic* into an `Err`
/// batch. A reader that just went away would look like a clean end of
/// input (hang-up is how readers signal exhaustion) and silently truncate
/// the merge. The channel may be full or hung up; both are fine — full
/// means the merge is alive and will drain to the error, hung up means
/// nobody is left to need it.
fn guard_reader(
    tx: SyncSender<BatchResult>,
    body: impl FnOnce(&SyncSender<BatchResult>) -> Result<()>,
) {
    let err = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&tx))) {
        Ok(Ok(())) => return,
        Ok(Err(e)) => e,
        Err(_) => Error::Corruption("compaction reader thread panicked".into()),
    };
    let _ = tx.send(Err(err));
}

/// Reader body: walks one input's table run and ships batches of about
/// `batch_bytes`, each in a buffer lent through `free`. A hang-up on
/// either channel means the merge is gone (error or early exit) — stop.
fn ship_run(
    tables: Vec<Arc<Table>>,
    batch_bytes: usize,
    tx: &SyncSender<BatchResult>,
    free: &Receiver<Vec<u8>>,
) -> Result<()> {
    let mut run = TableRunSource::new(tables);
    let mut more = run.advance()?;
    while more {
        let Ok(mut batch) = free.recv() else {
            break;
        };
        while more && batch.len() < batch_bytes {
            push_entry(&mut batch, run.key(), run.value());
            more = run.advance()?;
        }
        if tx.send(Ok(batch)).is_err() {
            break;
        }
    }
    Ok(())
}

/// The read-ahead CPU source: one input's pairs, decoded by a reader
/// thread and received over a bounded channel, so block reads and
/// decompression overlap the merge and a slow merge backpressures the
/// readers instead of buffering unboundedly. The merge thread allocates
/// the `depth + 2` batch buffers and lends them round: allocated by the
/// readers they stay behind, megabytes per input, in per-thread malloc
/// arenas (EXPERIMENTS.md, "Write-path budget").
pub struct ReadAheadSource {
    rx: Receiver<BatchResult>,
    free: SyncSender<Vec<u8>>,
    batch: Vec<u8>,
    pos: usize,
    key: (usize, usize),
    value: (usize, usize),
    valid: bool,
}

impl ReadAheadSource {
    /// Creates the source for `tables` (ascending key order) and the
    /// reader that feeds it batches of about `batch_bytes`, at most
    /// `depth` in flight. The caller runs the reader on a thread of its
    /// own; dropping the source makes the reader stop at its next send.
    pub fn new(
        tables: Vec<Arc<Table>>,
        batch_bytes: usize,
        depth: usize,
    ) -> (Self, impl FnOnce() + Send + 'static) {
        let (tx, rx) = sync_channel(depth);
        let (free, lent) = sync_channel(depth + 2);
        let buffer = || Vec::with_capacity(batch_bytes + 1024);
        for _ in 0..=depth {
            let _ = free.send(buffer());
        }
        let reader = move || guard_reader(tx, |tx| ship_run(tables, batch_bytes, tx, &lent));
        (Self::receiving(rx, free, buffer()), reader)
    }

    fn receiving(rx: Receiver<BatchResult>, free: SyncSender<Vec<u8>>, batch: Vec<u8>) -> Self {
        ReadAheadSource {
            rx,
            free,
            batch,
            pos: 0,
            key: (0, 0),
            value: (0, 0),
            valid: false,
        }
    }
}

impl MergeSource for ReadAheadSource {
    /// Blocks on the reader when the current batch is drained.
    fn advance(&mut self) -> Result<bool> {
        self.valid = false;
        while self.pos == self.batch.len() {
            // A hang-up is the reader's clean end of input: it sends its
            // error, if any, before it goes.
            let Ok(batch) = self.rx.recv() else {
                return Ok(false);
            };
            let mut drained = std::mem::replace(&mut self.batch, batch?);
            self.pos = 0;
            drained.clear();
            // A reader that is done has hung up; the buffer just drops.
            let _ = self.free.send(drained);
        }
        (self.key, self.value, self.pos) = parse_entry(&self.batch, self.pos);
        self.valid = true;
        Ok(true)
    }

    fn valid(&self) -> bool {
        self.valid
    }

    fn key(&self) -> &[u8] {
        &self.batch[self.key.0..self.key.1]
    }

    fn value(&self) -> &[u8] {
        &self.batch[self.value.0..self.value.1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::merge_sources;
    use crate::compaction::tests::{build_table, model, request, Factory};
    use sstable::env::MemEnv;
    use sstable::ikey::{InternalKey, ValueType};
    use std::sync::atomic::Ordering;

    #[cfg(loom)]
    use loom::thread;
    #[cfg(not(loom))]
    use std::thread;

    /// Every pair of `source`, as (key, value).
    fn drain(mut source: impl MergeSource) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut pairs = Vec::new();
        while source.advance()? {
            pairs.push((source.key().to_vec(), source.value().to_vec()));
        }
        Ok(pairs)
    }

    /// Backpressure: one pair per batch and one batch in flight block the
    /// reader on every send; the source must still see every pair, in
    /// order, and the reader must exit at end of input.
    #[test]
    fn read_ahead_under_backpressure_is_ordered_and_complete() {
        model(|| {
            let env = MemEnv::new();
            let tables = vec![
                build_table(&env, "/a", 0..6, false),
                build_table(&env, "/b", 6..9, false),
            ];
            let expected = drain(TableRunSource::new(tables.clone())).unwrap();
            assert_eq!(expected.len(), 9);
            let (source, reader) = ReadAheadSource::new(tables, 1, 1);
            let reader = thread::spawn(reader);
            assert_eq!(drain(source).unwrap(), expected);
            reader.join().expect("reader exits after its last send");
        });
    }

    /// A reader blocked on a full channel must wake and exit when the
    /// source is dropped mid-stream — the engine's early-return path (a
    /// failed output write, another input's error). A deadlock here hangs
    /// the test.
    #[test]
    fn dropping_the_source_while_the_channel_is_full_releases_the_reader() {
        model(|| {
            let env = MemEnv::new();
            let tables = vec![build_table(&env, "/a", 0..64, false)];
            let (mut source, reader) = ReadAheadSource::new(tables, 1, 1);
            let reader = thread::spawn(reader);
            assert!(source.advance().unwrap());
            drop(source);
            reader.join().expect("reader must exit, not deadlock");
        });
    }

    /// A reader that dies mid-stream must fail the merge: a dropped
    /// sender alone reads as clean end of input, and the merge would
    /// succeed with silently truncated output.
    #[test]
    fn a_reader_panic_is_a_merge_error_not_truncation() {
        // The injected panics are expected; keep the model's output clean.
        #[cfg(loom)]
        std::panic::set_hook(Box::new(|_| {}));
        model(|| {
            let (tx, rx) = sync_channel(1);
            // Nobody takes buffers back: the hung-up send is ignored.
            let (free, _) = sync_channel(1);
            let reader = thread::spawn(move || {
                guard_reader(tx, |tx| {
                    let mut batch = Vec::new();
                    let k = InternalKey::new(b"a", 1, ValueType::Value);
                    push_entry(&mut batch, k.encoded(), b"va");
                    let _ = tx.send(Ok(batch));
                    panic!("injected reader fault");
                });
            });
            let env = MemEnv::new();
            let out = Factory::new(&env);
            let merged = merge_sources(
                vec![ReadAheadSource::receiving(rx, free, Vec::new())],
                &request(vec![]),
                &out,
            );
            assert!(
                matches!(&merged, Err(Error::Corruption(m)) if m.contains("panicked")),
                "panicking reader produced {merged:?}"
            );
            assert_eq!(out.syncs.load(Ordering::SeqCst), 0);
            reader
                .join()
                .expect("guarded reader must not propagate its panic");
        });
        #[cfg(loom)]
        let _ = std::panic::take_hook();
    }
}
