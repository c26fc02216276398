//! Counting-allocator proof that an FCAE job's host memory is bounded by
//! its read windows and one output table, not by its inputs: the card's
//! DRAM is accounted, and the engine stages each input's data blocks one
//! window at a time and hands each output table to the host as soon as
//! it is complete. A job over 16 MiB of inputs must grow the heap by at
//! most `inputs × DATA_WINDOW_BYTES + 2 × max_output_file_size` plus
//! a fixed slack (MetaIn, Index Block Memory, the block list, decoder and
//! encoder buffers).
//!
//! Single `#[test]` in this binary: the global counter sees every thread,
//! so parallel tests would pollute the measurement.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fcae::memory::DATA_WINDOW_BYTES;
use fcae::{FcaeConfig, FcaeEngine};
use lsm::compaction::{CompactionInput, CompactionRequest, OutputFileFactory};
use sstable::env::{MemEnv, StorageEnv, WritableFile};
use sstable::format::CompressionType;
use sstable::ikey::{InternalKey, ValueType};
use sstable::table::{Table, TableReadOptions};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

/// An output file that keeps only its length: the engine's memory, not
/// the outputs', is under test.
struct Discard {
    len: u64,
    total: Arc<AtomicU64>,
}

impl WritableFile for Discard {
    fn append(&mut self, data: &[u8]) -> sstable::Result<()> {
        self.len += data.len() as u64;
        self.total.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn flush(&mut self) -> sstable::Result<()> {
        Ok(())
    }

    fn sync(&mut self) -> sstable::Result<()> {
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.len
    }
}

struct DiscardFactory {
    next: AtomicU64,
    written: Arc<AtomicU64>,
}

impl OutputFileFactory for DiscardFactory {
    fn new_output(&self) -> lsm::Result<(u64, Box<dyn WritableFile>)> {
        let n = self.next.fetch_add(1, Ordering::SeqCst) + 1;
        let file = Discard {
            len: 0,
            total: Arc::clone(&self.written),
        };
        Ok((n, Box::new(file)))
    }
}

fn builder_options() -> TableBuilderOptions {
    TableBuilderOptions {
        compression: CompressionType::Snappy,
        ..Default::default()
    }
}

/// One table holding the keys `keys` of stride `input` of four, with
/// hex values Snappy barely shrinks.
fn table(env: &MemEnv, name: &str, input: u64, keys: std::ops::Range<u64>) -> Arc<Table> {
    let f = env.create_writable(Path::new(name)).unwrap();
    let mut b = TableBuilder::new(builder_options(), f);
    for e in keys {
        let i = e * 4 + input;
        let a = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let c = a.rotate_left(17) ^ 0xd1b5_4a32_d192_ed03;
        let value = format!(
            "{a:016x}{c:016x}{:016x}{:016x}",
            a ^ (c >> 29),
            c.wrapping_mul(a | 1)
        );
        let key = InternalKey::new(format!("key{i:09}").as_bytes(), i + 1, ValueType::Value);
        b.add(key.encoded(), value.as_bytes()).unwrap();
    }
    let size = b.finish().unwrap();
    let file = env.open_random_access(Path::new(name)).unwrap();
    Table::open(file, size, TableReadOptions::default()).unwrap()
}

#[test]
fn an_engine_job_holds_its_windows_and_one_output_table() {
    const KEYS: u64 = 54_000;
    let env = MemEnv::new();
    let mut inputs: Vec<CompactionInput> = (0..3)
        .map(|input| CompactionInput {
            tables: vec![table(&env, &format!("/in-{input}"), input, 0..KEYS)],
        })
        .collect();
    // The fourth input is a run of three tables.
    let third = KEYS / 3;
    inputs.push(CompactionInput {
        tables: (0..3)
            .map(|t| table(&env, &format!("/in-3-{t}"), 3, t * third..(t + 1) * third))
            .collect(),
    });
    let input_bytes: u64 = inputs.iter().map(CompactionInput::bytes).sum();
    assert!(input_bytes >= 16 << 20, "{input_bytes} input bytes");

    let req = CompactionRequest {
        level: 1,
        inputs,
        smallest_snapshot: u64::MAX >> 8,
        bottommost: true,
        builder_options: builder_options(),
        max_output_file_size: 2 << 20,
    };
    let engine = FcaeEngine::new(FcaeConfig::nine_input());
    let written = Arc::new(AtomicU64::new(0));
    let out = DiscardFactory {
        next: AtomicU64::new(0),
        written: Arc::clone(&written),
    };

    let before = ALLOC.reset_peak();
    let (outcome, _) = engine.compact(&req, &out).unwrap();
    let growth = ALLOC.peak_bytes() - before;

    assert_eq!(outcome.entries_written, 4 * KEYS - KEYS % 3);
    assert!(
        outcome.outputs.len() >= 8,
        "{} outputs",
        outcome.outputs.len()
    );
    assert_eq!(outcome.bytes_written, written.load(Ordering::SeqCst));

    let slack = 1 << 20;
    let bound =
        req.inputs.len() * DATA_WINDOW_BYTES + 2 * req.max_output_file_size as usize + slack;
    assert!(
        growth <= bound,
        "a job over {input_bytes} input bytes grew the heap by {growth} bytes, \
         more than {bound} (windows, one output table and {slack} of slack)"
    );
}
