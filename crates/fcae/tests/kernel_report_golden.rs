//! The cycle, transfer and PCIe model of one fixed job, pinned bit for
//! bit. The host side of the engine may change how it stages images —
//! whole regions or read windows, outputs held to the end or written as
//! they complete — but the device it models must see the same blocks,
//! pairs and bytes, so every number below must stay exactly as recorded.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use fcae::{FcaeConfig, FcaeEngine};
use lsm::compaction::{CompactionEngine, CompactionInput, CompactionRequest, OutputFileFactory};
use sstable::env::{MemEnv, StorageEnv, WritableFile};
use sstable::format::CompressionType;
use sstable::ikey::{InternalKey, ValueType};
use sstable::table::{Table, TableReadOptions};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};

struct Factory {
    env: MemEnv,
    next: AtomicU64,
}

impl OutputFileFactory for Factory {
    fn new_output(&self) -> lsm::Result<(u64, Box<dyn WritableFile>)> {
        let n = self.next.fetch_add(1, Ordering::SeqCst) + 1;
        Ok((
            n,
            self.env.create_writable(Path::new(&format!("/out-{n}")))?,
        ))
    }
}

fn builder_options() -> TableBuilderOptions {
    TableBuilderOptions {
        compression: CompressionType::Snappy,
        ..Default::default()
    }
}

/// One table of the keys `keys` of stride `input` of four, with
/// tombstones and values that Snappy shrinks by about a third.
fn table(
    env: &MemEnv,
    name: &str,
    input: u32,
    keys: std::ops::Range<u32>,
) -> std::sync::Arc<Table> {
    let f = env.create_writable(Path::new(name)).unwrap();
    let mut b = TableBuilder::new(builder_options(), f);
    for e in keys {
        let i = e * 4 + input;
        let (t, v) = if i.is_multiple_of(13) {
            (ValueType::Deletion, String::new())
        } else {
            let a = u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let b = a.rotate_left(29) ^ 0xd1b5_4a32_d192_ed03;
            (
                ValueType::Value,
                format!("{a:016x}{b:016x}{:0>40}{}", e % 97, a % 7),
            )
        };
        let key = InternalKey::new(format!("key{:07}", i / 2).as_bytes(), u64::from(i) + 1, t);
        b.add(key.encoded(), v.as_bytes()).unwrap();
    }
    let size = b.finish().unwrap();
    let file = env.open_random_access(Path::new(name)).unwrap();
    Table::open(file, size, TableReadOptions::default()).unwrap()
}

#[test]
fn one_jobs_kernel_report_is_pinned() {
    let env = MemEnv::new();
    let mut inputs: Vec<CompactionInput> = (0..3)
        .map(|input| CompactionInput {
            tables: vec![table(&env, &format!("/in-{input}"), input, 0..6000)],
        })
        .collect();
    // The fourth input is a two-table run.
    inputs.push(CompactionInput {
        tables: vec![
            table(&env, "/in-3a", 3, 0..3000),
            table(&env, "/in-3b", 3, 3000..6000),
        ],
    });
    let req = CompactionRequest {
        level: 1,
        inputs,
        smallest_snapshot: 9000,
        bottommost: true,
        builder_options: builder_options(),
        max_output_file_size: 256 << 10,
    };
    let engine = FcaeEngine::new(FcaeConfig::nine_input());
    let out = Factory {
        env: env.clone(),
        next: AtomicU64::new(0),
    };
    let outcome = engine.compact(&req, &out).unwrap();
    assert!(
        outcome.outputs.len() > 2,
        "{} outputs",
        outcome.outputs.len()
    );

    let r = engine.last_report();
    let got = (
        r.cycles.to_bits(),
        r.bytes_to_device,
        r.bytes_from_device,
        r.pcie_time_sec.to_bits(),
        r.pairs_compared,
        r.pairs_dropped,
    );
    // Recorded with whole-image staging: 2,945,340 cycles, 1.719e-4 s of
    // PCIe.
    assert_eq!(
        got,
        (
            4_703_579_480_835_227_648,
            1_058_122,
            886_150,
            4_550_473_876_278_791_255,
            24_000,
            4_846,
        )
    );
}
