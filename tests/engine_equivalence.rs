//! Cross-engine equivalence: the same compaction through every execution
//! path in the workspace must agree.
//!
//! Levels of agreement, from strictest to loosest:
//!
//! 1. **Golden files**: the one CPU merge core must emit exactly the
//!    bytes [`CpuCompactionEngine`] shipped before the workspace's three
//!    merge loops became one, for raw and Snappy-compressed outputs.
//! 2. **Golden device files**: the FCAE engine must emit exactly the
//!    bytes it wrote when a second, Algorithm 1 decoder was proven
//!    bit-identical to its one (images, MetaOut and cycle model), for raw
//!    and Snappy-compressed outputs; `fcae`'s `kernel_report_golden`
//!    pins the cycle model.
//! 3. **Byte-identical filter blocks**: where both engines write one
//!    table, the device's Filter Block Encoder must produce the host
//!    `TableBuilder`'s filter block bit for bit — and none at all for a
//!    store that asks for none.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use fcae::{FcaeConfig, FcaeEngine};
use lsm::compaction::{
    CompactionEngine, CompactionInput, CompactionOutcome, CompactionRequest, CpuCompactionEngine,
    OutputFileFactory,
};
use sstable::block::Block;
use sstable::env::{MemEnv, StorageEnv, WritableFile};
use sstable::format::{read_block, BlockHandle, CompressionType, Footer, FOOTER_ENCODED_LENGTH};
use sstable::ikey::{InternalKey, ValueType};
use sstable::iterator::InternalIterator;
use sstable::table::{Table, TableReadOptions};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};

struct Factory {
    env: MemEnv,
    prefix: &'static str,
    counter: AtomicU64,
}

impl Factory {
    fn new(env: MemEnv, prefix: &'static str) -> Self {
        Factory {
            env,
            prefix,
            counter: AtomicU64::new(0),
        }
    }

    fn path(&self, number: u64) -> String {
        format!("/{}-{number}", self.prefix)
    }
}

impl OutputFileFactory for Factory {
    fn new_output(&self) -> lsm::Result<(u64, Box<dyn WritableFile>)> {
        let n = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
        let file = self.env.create_writable(Path::new(&self.path(n)))?;
        Ok((n, file))
    }
}

fn builder_opts(compression: CompressionType) -> TableBuilderOptions {
    TableBuilderOptions {
        block_size: 1024,
        compression,
        ..Default::default()
    }
}

fn read_opts() -> TableReadOptions {
    TableReadOptions::default()
}

/// Four overlapping sorted runs with interleaved tombstones and duplicate
/// user keys (same key at different sequence numbers across runs).
fn request(env: &MemEnv, compression: CompressionType) -> CompactionRequest {
    let inputs = (0..4u32)
        .map(|input_no| {
            let name = format!("/in-{compression:?}-{input_no}");
            let f = env.create_writable(Path::new(&name)).unwrap();
            let mut b = TableBuilder::new(builder_opts(compression), f);
            for e in 0..400u32 {
                // Stride-interleaved keys; every 5th user key also appears
                // in the next input at a lower sequence (shadowed version).
                let i = e * 4 + input_no;
                let (t, v) = if i % 7 == 0 {
                    (ValueType::Deletion, String::new())
                } else {
                    (ValueType::Value, format!("value-{i}-{:0>120}", e))
                };
                let k = InternalKey::new(format!("key{i:06}").as_bytes(), u64::from(i) + 10, t);
                b.add(k.encoded(), v.as_bytes()).unwrap();
                if i % 5 == 0 {
                    let shadowed = InternalKey::new(
                        format!("key{:06}", i + 1).as_bytes(),
                        3,
                        ValueType::Value,
                    );
                    b.add(shadowed.encoded(), b"old-version").unwrap();
                }
            }
            let size = b.finish().unwrap();
            let file = env.open_random_access(Path::new(&name)).unwrap();
            CompactionInput {
                tables: vec![Table::open(file, size, read_opts()).unwrap()],
            }
        })
        .collect();
    CompactionRequest {
        level: 0,
        inputs,
        smallest_snapshot: 1 << 40,
        bottommost: true,
        builder_options: builder_opts(compression),
        // Small enough that output splits even when Snappy shrinks the
        // highly-compressible values.
        max_output_file_size: 16 << 10,
    }
}

/// Concatenated (internal key, value) stream across an engine's outputs.
fn entry_stream(env: &MemEnv, fac: &Factory, numbers: &[(u64, u64)]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut entries = Vec::new();
    for &(number, file_size) in numbers {
        let file = env
            .open_random_access(Path::new(&fac.path(number)))
            .unwrap();
        let table = Table::open(file, file_size, read_opts()).unwrap();
        let mut it = table.iter();
        it.seek_to_first();
        while it.valid() {
            entries.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status().unwrap();
    }
    entries
}

/// crc32c of every output file `CpuCompactionEngine` wrote for
/// [`request`] at commit 78536bd — the last one with a linear-scan merge
/// loop in that engine, a second copy in a staged CPU engine and a third
/// in `fcae` — in output order.
const GOLDEN_RAW: [u32; 12] = [
    0xb86df9a4, 0x4b1252d1, 0x2b78f43b, 0x65068de8, 0xb25a8f54, 0x97e498f6, 0x6b9b9463, 0x299e6aa9,
    0x555a8ed5, 0x235e99c7, 0xc75f368d, 0x31a943f4,
];
const GOLDEN_SNAPPY: [u32; 2] = [0x2a325294, 0x5f5e43a8];

/// crc32c of every output file `FcaeEngine::compact` wrote for
/// [`request`] with `FcaeConfig::nine_input()` at commit d72c417 — the
/// last with a second, Algorithm 1 decoder proven bit-identical to the
/// kernel's (images, MetaOut and cycle model) — in output order.
const GOLDEN_FCAE_RAW: [u32; 12] = [
    0x3319934d, 0x260b6d8b, 0xf049e1ed, 0xa8428fa0, 0x001a5666, 0x9e15f2e4, 0xa488cfad, 0x568f486a,
    0x99f9a33e, 0x25f45aef, 0x996caa8c, 0x4e2d3534,
];
const GOLDEN_FCAE_SNAPPY: [u32; 2] = [0xf6182d66, 0xf098d7c7];

/// crc32c of each output file of `outcome`, in output order.
fn digests(env: &MemEnv, fac: &Factory, outcome: &CompactionOutcome) -> Vec<u32> {
    assert_eq!(
        (outcome.entries_written, outcome.entries_dropped),
        (1371, 549)
    );
    outcome
        .outputs
        .iter()
        .map(|o| {
            let bytes = env
                .open_random_access(Path::new(&fac.path(o.number)))
                .unwrap()
                .read_all()
                .unwrap();
            assert_eq!(bytes.len() as u64, o.file_size);
            sstable::crc32c::value(&bytes)
        })
        .collect()
}

#[test]
fn the_cpu_merge_reproduces_the_shipped_bytes() {
    for (compression, golden) in [
        (CompressionType::None, &GOLDEN_RAW[..]),
        (CompressionType::Snappy, &GOLDEN_SNAPPY[..]),
    ] {
        let env = MemEnv::new();
        let req = request(&env, compression);

        let fac = Factory::new(env.clone(), "cpu");
        let cpu = CpuCompactionEngine.compact(&req, &fac).unwrap();
        assert_eq!(digests(&env, &fac, &cpu), golden, "{compression:?}");
    }
}

#[test]
fn fcae_engine_reproduces_the_shipped_bytes() {
    for (compression, golden) in [
        (CompressionType::None, &GOLDEN_FCAE_RAW[..]),
        (CompressionType::Snappy, &GOLDEN_FCAE_SNAPPY[..]),
    ] {
        let env = MemEnv::new();
        let req = request(&env, compression);
        let fac = Factory::new(env.clone(), "fcae");
        let (dev, _) = FcaeEngine::new(FcaeConfig::nine_input())
            .compact(&req, &fac)
            .unwrap();
        assert_eq!(digests(&env, &fac, &dev), golden, "{compression:?}");
    }
}

/// Where a table file's data section ends and the filter block its
/// metaindex names, if it names one.
fn data_end_and_filter(env: &MemEnv, path: &str, file_size: u64) -> (u64, Option<Vec<u8>>) {
    let file = env.open_random_access(Path::new(path)).unwrap();
    let mut footer = vec![0u8; FOOTER_ENCODED_LENGTH];
    file.read_at(file_size - FOOTER_ENCODED_LENGTH as u64, &mut footer)
        .unwrap();
    let footer = Footer::decode(&footer).unwrap();
    let metaindex = read_block(file.as_ref(), &footer.metaindex_handle).unwrap();
    let mut it = Block::new(metaindex).unwrap().iter();
    it.seek_to_first();
    if !it.valid() {
        return (footer.metaindex_handle.offset, None);
    }
    assert_eq!(it.key(), b"filter.leveldb.BuiltinBloomFilter2");
    let (handle, _) = BlockHandle::decode_from(it.value()).unwrap();
    let filter = read_block(file.as_ref(), &handle).unwrap().to_vec();
    (handle.offset, Some(filter))
}

#[test]
fn device_filter_block_is_the_table_builders() {
    for compression in [CompressionType::None, CompressionType::Snappy] {
        let env = MemEnv::new();
        let mut req = request(&env, compression);
        // One output table per engine: they split tables differently, and
        // a filter block belongs to the offsets of one table's blocks.
        req.max_output_file_size = 64 << 20;

        let cpu_fac = Factory::new(env.clone(), "cpu");
        let cpu = CpuCompactionEngine.compact(&req, &cpu_fac).unwrap();
        let dev_fac = Factory::new(env.clone(), "dev");
        let (dev, _) = FcaeEngine::new(FcaeConfig::nine_input())
            .compact(&req, &dev_fac)
            .unwrap();
        assert_eq!((cpu.outputs.len(), dev.outputs.len()), (1, 1));
        let (cpu_out, dev_out) = (&cpu.outputs[0], &dev.outputs[0]);

        let (cpu_data_end, cpu_filter) =
            data_end_and_filter(&env, &cpu_fac.path(cpu_out.number), cpu_out.file_size);
        let (dev_data_end, dev_filter) =
            data_end_and_filter(&env, &dev_fac.path(dev_out.number), dev_out.file_size);
        // Same data blocks, hence same offsets, hence same filters.
        assert_eq!(cpu_data_end, dev_data_end, "{compression:?}");
        let read_data = |path: String| {
            let all = env
                .open_random_access(Path::new(&path))
                .unwrap()
                .read_all()
                .unwrap();
            all[..cpu_data_end as usize].to_vec()
        };
        assert!(
            read_data(cpu_fac.path(cpu_out.number)) == read_data(dev_fac.path(dev_out.number)),
            "{compression:?}: data sections differ"
        );
        let cpu_filter = cpu_filter.expect("host tables carry a filter");
        assert!(cpu_filter.len() > 1000, "a filter worth comparing");
        assert_eq!(Some(cpu_filter), dev_filter, "{compression:?}");
    }
}

#[test]
fn device_writes_no_filter_for_a_store_without_one() {
    let env = MemEnv::new();
    let mut req = request(&env, CompressionType::Snappy);
    req.builder_options.filter_policy = None;
    let fac = Factory::new(env.clone(), "dev");
    let (dev, _) = FcaeEngine::new(FcaeConfig::nine_input())
        .compact(&req, &fac)
        .unwrap();
    assert!(dev.outputs.len() > 1);
    for out in &dev.outputs {
        let (_, filter) = data_end_and_filter(&env, &fac.path(out.number), out.file_size);
        assert_eq!(
            filter, None,
            "table {}: metaindex must be empty",
            out.number
        );
    }
    // The stock reader (which looks for a filter) opens and reads them.
    let numbers: Vec<_> = dev
        .outputs
        .iter()
        .map(|o| (o.number, o.file_size))
        .collect();
    let entries = entry_stream(&env, &fac, &numbers);
    assert_eq!(entries.len() as u64, dev.entries_written);
}
