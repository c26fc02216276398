//! Synthetic compaction inputs for kernel experiments: N disjoint-by-
//! parity sorted runs of real SSTables in a `MemEnv`, with db_bench-style
//! half-compressible values.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use lsm::compaction::{CompactionInput, CompactionRequest, OutputFileFactory};
use sstable::env::{MemEnv, StorageEnv, WritableFile};
use sstable::ikey::{InternalKey, ValueType};
use sstable::table::{Table, TableReadOptions};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};
use workloads::ValueGenerator;

/// Parameters for one kernel input set.
#[derive(Debug, Clone, Copy)]
pub struct KernelInputSpec {
    /// Number of merge inputs.
    pub n_inputs: usize,
    /// User key length (internal key adds 8).
    pub key_len: usize,
    /// Value length.
    pub value_len: usize,
    /// Entries per input.
    pub entries_per_input: u64,
    /// Value compressibility (stored/raw).
    pub compression_ratio: f64,
    /// Block compression of the input tables.
    pub table_compression: sstable::format::CompressionType,
}

impl Default for KernelInputSpec {
    fn default() -> Self {
        KernelInputSpec {
            n_inputs: 2,
            key_len: 16,
            value_len: 128,
            entries_per_input: 10_000,
            compression_ratio: 0.5,
            table_compression: sstable::format::CompressionType::Snappy,
        }
    }
}

fn builder_options(spec: &KernelInputSpec) -> TableBuilderOptions {
    TableBuilderOptions {
        compression: spec.table_compression,
        ..Default::default()
    }
}

/// Builds `spec.n_inputs` interleaved sorted runs: input `i` holds keys
/// `{k : k % n == i}` so every merge step alternates inputs — the worst
/// case for the Comparer, as in the paper's speed tests.
pub fn build_kernel_inputs(env: &MemEnv, spec: &KernelInputSpec) -> Vec<CompactionInput> {
    let read_opts = TableReadOptions::default();
    (0..spec.n_inputs)
        .map(|input| {
            let name = format!(
                "/kin-{input}-{}-{}-{}",
                spec.value_len, spec.key_len, spec.table_compression as u8
            );
            let file = env.create_writable(Path::new(&name)).unwrap();
            let mut b = TableBuilder::new(builder_options(spec), file);
            let mut values = ValueGenerator::new(input as u64 + 1, spec.compression_ratio);
            for e in 0..spec.entries_per_input {
                let k = e * spec.n_inputs as u64 + input as u64;
                let user = format!("{k:0width$}", width = spec.key_len);
                let ik = InternalKey::new(
                    user.as_bytes(),
                    1 + e + input as u64 * spec.entries_per_input,
                    ValueType::Value,
                );
                b.add(ik.encoded(), values.generate(spec.value_len))
                    .unwrap();
            }
            let size = b.finish().unwrap();
            let file = env.open_random_access(Path::new(&name)).unwrap();
            CompactionInput {
                tables: vec![Table::open(file, size, read_opts.clone()).unwrap()],
            }
        })
        .collect()
}

/// A standard compaction request over the given inputs.
pub fn kernel_request(inputs: Vec<CompactionInput>) -> CompactionRequest {
    CompactionRequest {
        level: 0,
        inputs,
        smallest_snapshot: 1 << 40,
        bottommost: true,
        builder_options: TableBuilderOptions::default(),
        max_output_file_size: 2 << 20,
    }
}

/// In-memory output-file factory for standalone engine runs.
pub struct MemFactory {
    env: MemEnv,
    counter: AtomicU64,
}

impl MemFactory {
    /// Creates a factory writing into `env`.
    pub fn new(env: MemEnv) -> Self {
        MemFactory {
            env,
            counter: AtomicU64::new(0),
        }
    }
}

impl OutputFileFactory for MemFactory {
    fn new_output(&self) -> lsm::Result<(u64, Box<dyn WritableFile>)> {
        let n = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
        let file = self.env.create_writable(Path::new(&format!("/kout-{n}")))?;
        Ok((n, file))
    }
}
