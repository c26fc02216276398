//! Compaction execution: the [`CompactionEngine`] abstraction the paper's
//! architecture introduces (Fig. 6), the one merge core every engine runs,
//! and the software (CPU) engine.
//!
//! The DB builds a [`CompactionRequest`] describing the inputs exactly the
//! way the paper's host side does (§IV step 2): for level 0 every SSTable
//! is its own input because key ranges overlap; for deeper levels the
//! sorted, disjoint run of SSTables is concatenated into a single input.
//! The engine merges the inputs and produces new SSTables; whether that
//! happens on the CPU or on the (simulated) FPGA is the paper's entire
//! subject.
//!
//! What is merged is decided in one place: [`Merger`] selects the smallest
//! internal key across N [`MergeSource`]s (ties to the lower input index)
//! and runs the [`DropFilter`] on it. It has three users, which differ
//! only in where the pairs come from and go to:
//!
//! * **inline CPU** — [`TableRunSource`]s walked on the calling thread,
//!   into the one `OutputTables` writer;
//! * **read-ahead CPU** — [`ReadAheadSource`]s, each fed through a bounded
//!   channel by a reader thread walking the same table-run cursor, into
//!   the same writer;
//! * **FCAE kernel** — `fcae`'s block decoders into its output encoder,
//!   with the cycle model observing every selection (`fcae` re-exports
//!   `Merger` under the paper's name, Comparer).
//!
//! [`CpuCompactionEngine`] picks between the first two from the request's
//! input size.

use std::cmp::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sstable::comparator::InternalKeyComparator;
use sstable::env::WritableFile;
use sstable::ikey::{parse_internal_key, InternalKey, SequenceNumber, ValueType};
use sstable::iterator::InternalIterator;
use sstable::losertree::LoserTree;
use sstable::table::{Table, TableIterator};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};

use crate::sync_shim::{sync_channel, Receiver, SyncSender};
use crate::version::FileMetaData;
use crate::{Error, Result};

/// One merge input: a run of tables that is internally sorted and
/// disjoint (a single table for L0 inputs; the whole level-i+1 overlap
/// run otherwise).
pub struct CompactionInput {
    /// Tables in ascending key order.
    pub tables: Vec<Arc<Table>>,
}

impl CompactionInput {
    /// Total bytes across the input's tables.
    pub fn bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.file_size()).sum()
    }
}

/// Everything an engine needs to execute one compaction.
pub struct CompactionRequest {
    /// Source level of the compaction (`0` for L0 -> L1). Schedulers use
    /// it to prioritize shallow compactions, which unblock writers.
    pub level: usize,
    /// Merge inputs (the paper's `N`).
    pub inputs: Vec<CompactionInput>,
    /// Entries at or below this sequence that are shadowed by newer
    /// entries for the same user key can be dropped.
    pub smallest_snapshot: SequenceNumber,
    /// True when the output level is the bottommost level containing this
    /// key range: deletion tombstones themselves can then be dropped.
    pub bottommost: bool,
    /// Output table shape.
    pub builder_options: TableBuilderOptions,
    /// Target output file size (paper §V-A: e.g. 2 MiB).
    pub max_output_file_size: u64,
}

impl CompactionRequest {
    /// Total bytes across every input's tables.
    pub fn input_bytes(&self) -> u64 {
        self.inputs.iter().map(CompactionInput::bytes).sum()
    }
}

/// Metadata of one produced table.
#[derive(Debug, Clone)]
pub struct OutputTableMeta {
    /// File number assigned by the factory.
    pub number: u64,
    /// Final file size.
    pub file_size: u64,
    /// Smallest internal key written.
    pub smallest: InternalKey,
    /// Largest internal key written.
    pub largest: InternalKey,
    /// Entries written.
    pub entries: u64,
}

/// What a compaction produced, plus accounting the experiments report.
#[derive(Debug, Default)]
pub struct CompactionOutcome {
    /// Output tables, in key order.
    pub outputs: Vec<OutputTableMeta>,
    /// Bytes read from inputs.
    pub bytes_read: u64,
    /// Bytes written to outputs.
    pub bytes_written: u64,
    /// Entries dropped (shadowed or tombstoned).
    pub entries_dropped: u64,
    /// Entries written.
    pub entries_written: u64,
    /// Wall-clock execution time of the engine.
    pub wall_time: Duration,
    /// Reader threads the CPU engine fed the merge from (0 = every input
    /// was walked inline on the calling thread).
    pub reader_threads: usize,
    /// For simulated engines: the modeled device kernel time. The system
    /// simulator charges this, not `wall_time`.
    pub modeled_kernel_time: Option<Duration>,
    /// For offloaded engines: modeled host<->device transfer time.
    pub modeled_transfer_time: Option<Duration>,
}

/// Allocates output files for an engine.
pub trait OutputFileFactory: Send + Sync {
    /// Creates a new output table file, returning its number and writer.
    fn new_output(&self) -> Result<(u64, Box<dyn WritableFile>)>;
}

/// Backpressure advice an engine (or a scheduling service wrapping one)
/// gives the write path. The DB translates this into the same slowdown /
/// stall mechanics as its L0 triggers, so a saturated offload queue slows
/// writers *before* L0 piles up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePressure {
    /// Keep writing at full speed.
    #[default]
    None,
    /// Inject the 1 ms write delay (queue is filling).
    Slowdown,
    /// Stall writes until background work completes (queue is full).
    Stop,
}

/// Executes compactions; implemented by the CPU merge here and by the
/// simulated FPGA engine in the `fcae` crate.
pub trait CompactionEngine: Send + Sync {
    /// Engine name for logs and stats.
    fn name(&self) -> &str;
    /// Maximum number of inputs the engine accepts (the paper's `N`);
    /// requests with more inputs fall back to software (Fig. 6).
    fn max_inputs(&self) -> usize;
    /// Runs the compaction.
    fn compact(
        &self,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
    ) -> Result<CompactionOutcome>;
    /// Current backpressure toward writers. Plain engines never push back
    /// (the DB's own L0 triggers still apply); scheduling services
    /// override this to surface queue saturation.
    fn write_pressure(&self) -> WritePressure {
        WritePressure::None
    }
    /// Runs a maintenance job (value-log GC) through the engine's
    /// scheduler so it contends with compactions for engine slots.
    /// Plain engines run it inline; scheduling services override this to
    /// queue it at maintenance priority.
    fn run_maintenance(&self, job: &mut dyn FnMut()) {
        job();
    }
}

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

/// Decides, entry by entry, whether a merged internal key survives
/// compaction. This implements LevelDB's `DoCompactionWork` drop rules and
/// is the exact contract the paper's *Validity Check* module enforces in
/// hardware, so both engines share it.
#[derive(Clone)]
pub struct DropFilter {
    smallest_snapshot: SequenceNumber,
    bottommost: bool,
    /// Previous entry's user key, in a buffer reused across entries so
    /// the per-entry path never allocates (only grows capacity when a
    /// longer key than any before arrives).
    last_user_key: Vec<u8>,
    has_last_user_key: bool,
    /// Sequence of the previous (newer) entry for the current user key;
    /// `None` on the first occurrence of a key.
    prev_sequence_for_key: Option<SequenceNumber>,
}

impl DropFilter {
    /// Creates the filter for one compaction.
    pub fn new(smallest_snapshot: SequenceNumber, bottommost: bool) -> Self {
        DropFilter {
            smallest_snapshot,
            bottommost,
            last_user_key: Vec::new(),
            has_last_user_key: false,
            prev_sequence_for_key: None,
        }
    }

    /// Returns true if the entry with internal key `ikey` must be dropped.
    /// Must be called in merged key order.
    pub fn should_drop(&mut self, ikey: &[u8]) -> bool {
        let Some(parsed) = parse_internal_key(ikey) else {
            // Unparseable keys are passed through so corruption stays
            // visible downstream rather than silently vanishing.
            self.has_last_user_key = false;
            self.prev_sequence_for_key = None;
            return false;
        };
        let first_occurrence =
            !self.has_last_user_key || self.last_user_key.as_slice() != parsed.user_key;
        if first_occurrence {
            self.last_user_key.clear();
            self.last_user_key.extend_from_slice(parsed.user_key);
            self.has_last_user_key = true;
            self.prev_sequence_for_key = None;
        }

        let drop = match self.prev_sequence_for_key {
            // A newer entry for this user key is already visible at the
            // oldest snapshot: this one is shadowed.
            Some(prev) if prev <= self.smallest_snapshot => true,
            _ => {
                parsed.value_type == ValueType::Deletion
                    && parsed.sequence <= self.smallest_snapshot
                    && self.bottommost
            }
        };
        self.prev_sequence_for_key = Some(parsed.sequence);
        drop
    }
}

/// A positioned stream of key-value pairs in internal-key order: one
/// input of the merge, as the [`Merger`] sees it.
pub trait MergeSource {
    /// Moves to the next pair (the first one on the first call);
    /// `Ok(true)` while pairs remain. An `Err` is final: the input could
    /// not be read, and what it yielded so far must not be installed.
    fn advance(&mut self) -> Result<bool>;
    /// True when positioned on a pair.
    fn valid(&self) -> bool;
    /// Current internal key. Panics when invalid.
    fn key(&self) -> &[u8];
    /// Current value. Panics when invalid.
    fn value(&self) -> &[u8];
}

/// The merger's per-selection output: which input holds the smallest
/// key, and whether the validity check passed (paper: the `Input No.` and
/// `Drop` flags sent to Key-Value Transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// Index of the winning input.
    pub input_no: usize,
    /// True if the entry must be dropped.
    pub drop: bool,
}

/// `a` beats `b`: valid before exhausted, then smaller internal key,
/// then lower input index — the same user key at the same sequence is
/// taken from the earlier (newer) input first, and the tie-break keeps
/// the ordering strict on arbitrary inputs.
fn beats<S: MergeSource>(sources: &[S], a: usize, b: usize) -> bool {
    match (sources[a].valid(), sources[b].valid()) {
        (true, false) => true,
        (false, _) => false,
        (true, true) => match InternalKeyComparator.compare(sources[a].key(), sources[b].key()) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a < b,
        },
    }
}

/// N-way smallest-key selection (loser tree) with validity checking: the
/// paper's Comparer (Key Compare + Validity Check, §V-A), and the merge
/// step of every engine in the workspace.
///
/// Each selection after the first costs O(log N) comparisons. Contract:
/// between two `select` calls, only the stream returned by the previous
/// selection may have advanced — exactly how Key-Value Transfer drains
/// the winner. The tree replays just that leaf's path; violating the
/// contract yields stale selections (use a fresh merger instead).
pub struct Merger {
    filter: DropFilter,
    tree: LoserTree,
    /// Winner of the previous selection, whose leaf must be replayed.
    last_winner: Option<usize>,
    /// Selections made (for stats).
    pub selections: u64,
    /// Entries flagged invalid.
    pub dropped: u64,
}

impl Merger {
    /// Creates a merger with the given drop rules.
    pub fn new(filter: DropFilter) -> Self {
        Merger {
            filter,
            tree: LoserTree::new(0),
            last_winner: None,
            selections: 0,
            dropped: 0,
        }
    }

    /// Selects the input with the smallest current key and checks its
    /// validity. Returns `None` when every stream is exhausted.
    pub fn select<S: MergeSource>(&mut self, sources: &[S]) -> Option<Selection> {
        if self.tree.len() != sources.len() {
            // First selection (the tree starts with no players).
            self.tree = LoserTree::new(sources.len());
            self.tree.rebuild(|a, b| beats(sources, a, b));
        } else if let Some(w) = self.last_winner {
            self.tree.update(w, |a, b| beats(sources, a, b));
        }
        if sources.is_empty() {
            return None;
        }
        let input_no = self.tree.winner();
        if !sources[input_no].valid() {
            // The best stream is exhausted, so all are.
            self.last_winner = None;
            return None;
        }
        self.last_winner = Some(input_no);
        self.selections += 1;
        let drop = self.filter.should_drop(sources[input_no].key());
        if drop {
            self.dropped += 1;
        }
        Some(Selection { input_no, drop })
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

/// The one writer of compaction output tables: opens a table on the
/// first pair, closes it at `max_output_file_size`, and records each
/// table's metadata once it is finished **and synced**.
struct OutputTables<'a> {
    req: &'a CompactionRequest,
    out: &'a dyn OutputFileFactory,
    /// File number, builder and first key of the table being written.
    open: Option<(u64, TableBuilder, InternalKey)>,
    /// Last key added; materialized as an `InternalKey` only when a table
    /// closes, so adding a pair never allocates for it.
    largest: Vec<u8>,
    outputs: Vec<OutputTableMeta>,
    bytes_written: u64,
}

impl<'a> OutputTables<'a> {
    /// A writer shaping tables as `req` asks, on files from `out`.
    fn new(req: &'a CompactionRequest, out: &'a dyn OutputFileFactory) -> Self {
        OutputTables {
            req,
            out,
            open: None,
            largest: Vec::new(),
            outputs: Vec::new(),
            bytes_written: 0,
        }
    }

    /// Appends one surviving pair; keys must arrive in merged order.
    fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let (_, builder, _) = match &mut self.open {
            Some(open) => open,
            None => {
                let (number, file) = self.out.new_output()?;
                let builder = TableBuilder::new(self.req.builder_options.clone(), file);
                let smallest = InternalKey::from_encoded(key.to_vec());
                self.open.insert((number, builder, smallest))
            }
        };
        builder.add(key, value)?;
        self.largest.clear();
        self.largest.extend_from_slice(key);
        if builder.file_size() >= self.req.max_output_file_size {
            self.close()?;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        let Some((number, mut builder, smallest)) = self.open.take() else {
            return Ok(());
        };
        let entries = builder.num_entries();
        let file_size = builder.finish()?;
        // Outputs must be durable before the manifest can reference
        // them; a power cut between install and a lazy sync would tear a
        // live table.
        builder.sync()?;
        self.bytes_written += file_size;
        self.outputs.push(OutputTableMeta {
            number,
            file_size,
            smallest,
            largest: InternalKey::from_encoded(self.largest.clone()),
            entries,
        });
        Ok(())
    }

    /// Closes the last table; returns every table's metadata, in key
    /// order, and the bytes written. A writer dropped instead (a source
    /// failed) leaves its open table unfinished and unsynced.
    fn finish(mut self) -> Result<(Vec<OutputTableMeta>, u64)> {
        self.close()?;
        Ok((self.outputs, self.bytes_written))
    }
}

/// The CPU merge: drains `sources` through one [`Merger`] into one
/// `OutputTables` writer. The first source error ends the job at once — no
/// further pair is written and the open table is never synced.
pub fn merge_sources<S: MergeSource>(
    mut sources: Vec<S>,
    req: &CompactionRequest,
    out: &dyn OutputFileFactory,
) -> Result<CompactionOutcome> {
    for source in &mut sources {
        source.advance()?;
    }
    let mut merger = Merger::new(DropFilter::new(req.smallest_snapshot, req.bottommost));
    let mut tables = OutputTables::new(req, out);
    while let Some(sel) = merger.select(&sources) {
        let source = &mut sources[sel.input_no];
        if !sel.drop {
            tables.add(source.key(), source.value())?;
        }
        source.advance()?;
    }
    let (outputs, bytes_written) = tables.finish()?;
    Ok(CompactionOutcome {
        outputs,
        bytes_read: req.input_bytes(),
        bytes_written,
        entries_dropped: merger.dropped,
        entries_written: merger.selections - merger.dropped,
        ..Default::default()
    })
}

/// `req` merged on the calling thread alone: one [`TableRunSource`] per
/// input.
pub fn merge_inline(
    req: &CompactionRequest,
    out: &dyn OutputFileFactory,
) -> Result<CompactionOutcome> {
    let runs = req.inputs.iter().map(|input| input.tables.clone());
    merge_sources(runs.map(TableRunSource::new).collect(), req, out)
}

/// `req` merged on the calling thread from one [`ReadAheadSource`] per
/// input, each fed by a scoped reader thread (batches of about
/// `batch_bytes`, `depth` in flight).
pub fn merge_read_ahead(
    req: &CompactionRequest,
    out: &dyn OutputFileFactory,
    batch_bytes: usize,
    depth: usize,
) -> Result<CompactionOutcome> {
    // The scope joins the readers; an early return from the merge drops
    // the sources first, which is what makes blocked readers exit.
    let mut outcome = std::thread::scope(|s| {
        let sources = req
            .inputs
            .iter()
            .map(|input| {
                let (source, reader) =
                    ReadAheadSource::new(input.tables.clone(), batch_bytes, depth);
                s.spawn(reader);
                source
            })
            .collect();
        merge_sources(sources, req, out)
    })?;
    outcome.reader_threads = req.inputs.len();
    Ok(outcome)
}

/// Requests with at least this many input bytes are merged from reader
/// threads; smaller ones inline. Measured on 2 vCPUs (EXPERIMENTS.md,
/// "CPU merge traffic"): read-ahead ties the inline walk at 7 MB and is
/// 1.05–1.25× faster from 26 MB up (more the smaller the values), so
/// thread and channel setup is only paid where it is earned back.
const READ_AHEAD_MIN_INPUT_BYTES: u64 = 8 << 20;
/// Target size of one reader batch.
const READ_AHEAD_BATCH_BYTES: usize = 256 << 10;
/// Batches in flight per reader.
const READ_AHEAD_DEPTH: usize = 4;

/// The software engine (what LevelDB's background thread does on the
/// CPU): the shared merge core over the standard table reader and
/// builder, with per-input read-ahead threads once a job is large enough
/// to pay for them. Both shapes write the same bytes.
pub struct CpuCompactionEngine;

impl CompactionEngine for CpuCompactionEngine {
    fn name(&self) -> &str {
        "cpu"
    }

    fn max_inputs(&self) -> usize {
        usize::MAX
    }

    fn compact(
        &self,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
    ) -> Result<CompactionOutcome> {
        let start = Instant::now();
        let mut outcome = if req.input_bytes() < READ_AHEAD_MIN_INPUT_BYTES {
            merge_inline(req, out)?
        } else {
            merge_read_ahead(req, out, READ_AHEAD_BATCH_BYTES, READ_AHEAD_DEPTH)?
        };
        outcome.wall_time = start.elapsed();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::env::{MemEnv, StorageEnv};
    use sstable::ikey::MAX_SEQUENCE_NUMBER;
    use sstable::table::TableReadOptions;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[cfg(loom)]
    use loom::thread;
    #[cfg(not(loom))]
    use std::thread;

    fn ik(user: &str, seq: u64, t: ValueType) -> Vec<u8> {
        InternalKey::new(user.as_bytes(), seq, t).encoded().to_vec()
    }

    #[test]
    fn drop_filter_keeps_newest_visible_version() {
        let mut f = DropFilter::new(MAX_SEQUENCE_NUMBER, false);
        // Two versions of "a": newest kept, older shadowed.
        assert!(!f.should_drop(&ik("a", 10, ValueType::Value)));
        assert!(f.should_drop(&ik("a", 5, ValueType::Value)));
        assert!(f.should_drop(&ik("a", 1, ValueType::Value)));
        // New user key resets.
        assert!(!f.should_drop(&ik("b", 3, ValueType::Value)));
    }

    #[test]
    fn drop_filter_respects_snapshots() {
        // Snapshot at sequence 7: versions above 7 do not shadow those
        // at/below 7 until one at/below 7 is seen.
        let mut f = DropFilter::new(7, false);
        assert!(!f.should_drop(&ik("a", 10, ValueType::Value))); // visible now
        assert!(!f.should_drop(&ik("a", 6, ValueType::Value))); // visible at snapshot 7
        assert!(f.should_drop(&ik("a", 2, ValueType::Value))); // shadowed by seq 6
    }

    #[test]
    fn tombstones_dropped_only_at_bottom() {
        let mut f = DropFilter::new(MAX_SEQUENCE_NUMBER, false);
        assert!(!f.should_drop(&ik("a", 5, ValueType::Deletion)));

        let mut f = DropFilter::new(MAX_SEQUENCE_NUMBER, true);
        assert!(f.should_drop(&ik("a", 5, ValueType::Deletion)));
        // The value under the tombstone is shadowed regardless.
        assert!(f.should_drop(&ik("a", 3, ValueType::Value)));
    }

    #[test]
    fn tombstone_above_snapshot_survives_even_at_bottom() {
        let mut f = DropFilter::new(4, true);
        assert!(!f.should_drop(&ik("a", 9, ValueType::Deletion)));
        // Version visible at the snapshot survives under it.
        assert!(!f.should_drop(&ik("a", 3, ValueType::Value)));
    }

    /// Runs `body` once — or, under `--cfg loom`, across the model
    /// checker's interleavings — so each channel-protocol property below
    /// is one test in tier-1 and one model in the loom suite.
    fn model(body: impl Fn() + Send + Sync + 'static) {
        #[cfg(loom)]
        loom::model(body);
        #[cfg(not(loom))]
        body();
    }

    /// Output files in a `MemEnv`, counting the syncs they receive.
    struct Factory {
        env: MemEnv,
        counter: AtomicU64,
        syncs: Arc<AtomicU64>,
    }

    struct CountedFile(Box<dyn WritableFile>, Arc<AtomicU64>);

    impl WritableFile for CountedFile {
        fn append(&mut self, data: &[u8]) -> sstable::Result<()> {
            self.0.append(data)
        }
        fn flush(&mut self) -> sstable::Result<()> {
            self.0.flush()
        }
        fn sync(&mut self) -> sstable::Result<()> {
            self.1.fetch_add(1, Ordering::SeqCst);
            self.0.sync()
        }
        fn bytes_written(&self) -> u64 {
            self.0.bytes_written()
        }
    }

    impl Factory {
        fn new(env: &MemEnv) -> Self {
            Factory {
                env: env.clone(),
                counter: AtomicU64::new(0),
                syncs: Arc::default(),
            }
        }
    }

    impl OutputFileFactory for Factory {
        fn new_output(&self) -> Result<(u64, Box<dyn WritableFile>)> {
            let n = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
            let file = self.env.create_writable(Path::new(&format!("/out-{n}")))?;
            Ok((n, Box::new(CountedFile(file, Arc::clone(&self.syncs)))))
        }
    }

    fn opts() -> TableBuilderOptions {
        TableBuilderOptions {
            block_size: 512,
            ..Default::default()
        }
    }

    /// Builds the table `name` holding user keys `keys` (sequence = key +
    /// 1), then flips one byte of its first data block when `corrupt`.
    fn build_table(
        env: &MemEnv,
        name: &str,
        keys: impl Iterator<Item = u32>,
        corrupt: bool,
    ) -> Arc<Table> {
        let path = Path::new(name);
        let mut b = TableBuilder::new(opts(), env.create_writable(path).unwrap());
        for i in keys {
            let k = InternalKey::new(
                format!("key{i:06}").as_bytes(),
                u64::from(i) + 1,
                ValueType::Value,
            );
            b.add(k.encoded(), format!("value-{i}").as_bytes()).unwrap();
        }
        let size = b.finish().unwrap();
        if corrupt {
            let mut bytes = env.open_random_access(path).unwrap().read_all().unwrap();
            bytes[40] ^= 0x40;
            env.create_writable(path).unwrap().append(&bytes).unwrap();
        }
        let ropts = TableReadOptions::default();
        let file = env.open_random_access(path).unwrap();
        Table::open(file, size, ropts).unwrap()
    }

    fn request(inputs: Vec<CompactionInput>) -> CompactionRequest {
        CompactionRequest {
            level: 1,
            inputs,
            smallest_snapshot: 1 << 40,
            bottommost: true,
            builder_options: opts(),
            max_output_file_size: 1 << 20,
        }
    }

    /// Every pair of `source`, as (key, value).
    fn drain(mut source: impl MergeSource) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut pairs = Vec::new();
        while source.advance()? {
            pairs.push((source.key().to_vec(), source.value().to_vec()));
        }
        Ok(pairs)
    }

    /// One flipped byte in a data block of a 1,000-entry table, compacted
    /// with a clean 1,000-entry table. The table-run cursor used to read
    /// the failed table as exhausted and step to the next one, so the
    /// engines returned `Ok` with about half the entries — which the
    /// store would install before deleting the inputs.
    #[test]
    fn a_corrupt_input_block_fails_the_merge_instead_of_truncating_it() {
        let env = MemEnv::new();
        let bad = build_table(&env, "/bad", 0..1000, true);
        let good = build_table(&env, "/good", 1000..2000, false);
        let input = |tables: &[&Arc<Table>]| CompactionInput {
            tables: tables.iter().map(|&t| Arc::clone(t)).collect(),
        };
        let shapes = [
            ("one input, two tables", vec![input(&[&bad, &good])]),
            (
                "two inputs, one table each",
                vec![input(&[&bad]), input(&[&good])],
            ),
        ];
        type Merge = fn(&CompactionRequest, &Factory) -> Result<CompactionOutcome>;
        let merges: [(&str, Merge); 3] = [
            ("inline", |req, out| merge_inline(req, out)),
            // One pair per batch, one batch in flight.
            ("read-ahead", |req, out| merge_read_ahead(req, out, 1, 1)),
            ("engine", |req, out| CpuCompactionEngine.compact(req, out)),
        ];
        for (shape, inputs) in shapes {
            let req = request(inputs);
            for (kind, merge) in merges {
                let out = Factory::new(&env);
                let result = merge(&req, &out);
                assert!(
                    matches!(&result, Err(e) if e.to_string().contains("checksum")),
                    "{kind}, {shape}: {result:?}"
                );
                assert_eq!(out.syncs.load(Ordering::SeqCst), 0, "{kind}, {shape}");
            }
        }
    }

    #[test]
    fn empty_request_produces_nothing() {
        let env = MemEnv::new();
        let outcome = CpuCompactionEngine
            .compact(&request(vec![]), &Factory::new(&env))
            .unwrap();
        assert!(outcome.outputs.is_empty());
        assert_eq!(outcome.entries_written, 0);
        assert_eq!(outcome.reader_threads, 0);
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
