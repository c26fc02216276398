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
//! The module splits along the merge's seams: `sources` (where pairs come
//! from), `merge` (what survives) and `output` (where they go). What is
//! merged is decided in one place: [`Merger`] selects the smallest
//! internal key across N [`MergeSource`]s (ties to the lower input index)
//! and runs the [`DropFilter`] on it. It has two users, which differ
//! only in where the pairs come from and go to:
//!
//! * **CPU** — [`CpuCompactionEngine`]: [`TableRunSource`]s walked on the
//!   calling thread, into the one `OutputTables` writer, as LevelDB's
//!   single background thread does;
//! * **FCAE kernel** — `fcae`'s block decoders into its output encoder,
//!   with the cycle model observing every selection (`fcae` re-exports
//!   `Merger` under the paper's name, Comparer).
//!
//! Flush, recovery and repair write their one table through the same
//! `OutputTables` writer.

mod merge;
mod output;
mod sources;

use std::sync::Arc;
use std::time::{Duration, Instant};

use sstable::ikey::SequenceNumber;
use sstable::table::Table;
use sstable::table_builder::TableBuilderOptions;

use crate::Result;

pub use merge::{merge_sources, DropFilter, MergeSource, Merger, Selection};
pub(crate) use output::write_level0_table;
pub use output::OutputTableMeta;
pub use sources::{ChainIterator, TableRunSource};
/// The writer an [`OutputFileFactory`] hands out.
pub use sstable::env::WritableFile;

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
/// offload service in the `offload` crate, which decides per job whether
/// the simulated FPGA device or the CPU runs it (the paper's Fig. 6). The
/// store runs every compaction it picks on its one engine.
pub trait CompactionEngine: Send + Sync {
    /// Engine name for logs and stats.
    fn name(&self) -> &str;
    /// Maximum number of inputs the engine accepts. The store does not
    /// read it: every engine takes any job.
    fn max_inputs(&self) -> usize {
        usize::MAX
    }
    /// Runs the compaction.
    fn compact(
        &self,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
    ) -> Result<CompactionOutcome>;
    /// Current backpressure toward writers. Plain engines never push back
    /// (the DB's own L0 triggers still apply); scheduling services
    /// override this to surface queue saturation. Writers ask on every
    /// put, and under `db.state` when they must make room, so an
    /// implementation should read atomics rather than take a lock.
    fn write_pressure(&self) -> WritePressure {
        WritePressure::None
    }
    /// Runs a maintenance job (value-log GC) through the engine's
    /// scheduler so it contends with compactions for engine slots.
    /// Plain engines run it inline; scheduling services override this to
    /// hold an engine slot while it runs.
    fn run_maintenance(&self, job: &mut dyn FnMut()) {
        job();
    }
}

/// The software engine (what LevelDB's background thread does on the
/// CPU): the shared merge core over the standard table reader and
/// builder, one [`TableRunSource`] per input, all walked on the calling
/// thread.
pub struct CpuCompactionEngine;

impl CompactionEngine for CpuCompactionEngine {
    fn name(&self) -> &str {
        "cpu"
    }

    fn compact(
        &self,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
    ) -> Result<CompactionOutcome> {
        let start = Instant::now();
        let runs = req.inputs.iter().map(|input| input.tables.clone());
        let mut outcome = merge_sources(runs.map(TableRunSource::new).collect(), req, out)?;
        outcome.wall_time = start.elapsed();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::env::{MemEnv, StorageEnv};
    use sstable::ikey::{InternalKey, ValueType};
    use sstable::table::TableReadOptions;
    use sstable::table_builder::TableBuilder;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// One flipped byte in a data block of a 1,000-entry table, compacted
    /// with a clean 1,000-entry table. The table-run cursor used to read
    /// the failed table as exhausted and step to the next one, so the
    /// engine returned `Ok` with about half the entries — which the
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
        for (shape, inputs) in shapes {
            let out = Factory::new(&env);
            let result = CpuCompactionEngine.compact(&request(inputs), &out);
            assert!(
                matches!(&result, Err(e) if e.to_string().contains("checksum")),
                "{shape}: {result:?}"
            );
            assert_eq!(out.syncs.load(Ordering::SeqCst), 0, "{shape}");
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
    }
}
