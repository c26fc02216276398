//! Criterion microbenchmarks of the hot paths underlying every
//! experiment: Snappy, CRC32C, block building/iteration, the memtable
//! skiplist, and the two compaction engines end to end.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use bench::inputs::kernel_request;
use bench::{build_kernel_inputs, KernelInputSpec, MemFactory};
use fcae::{FcaeConfig, FcaeEngine};
use lsm::compaction::{CompactionEngine, CpuCompactionEngine};
use lsm::memtable::MemTable;
use sstable::comparator::InternalKeyComparator;
use sstable::env::MemEnv;
use sstable::ikey::{append_internal_key, LookupKey, ValueType, MAX_SEQUENCE_NUMBER};
use sstable::BlockBuilder;

fn bench_snappy(c: &mut Criterion) {
    let mut values = workloads::ValueGenerator::new(1, 0.5);
    let data: Vec<u8> = values.generate(64 << 10).to_vec();
    let compressed = snap_codec::compress(&data);
    let mut g = c.benchmark_group("snappy");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("compress_64k", |b| b.iter(|| snap_codec::compress(&data)));
    g.bench_function("decompress_64k", |b| {
        b.iter(|| snap_codec::decompress(&compressed).unwrap());
    });
    // What a block load decodes: 64 data blocks per iteration.
    let (blocks, raw_bytes) = harness_data_blocks(0.5, 64);
    let mut outs: Vec<Vec<u8>> = blocks
        .iter()
        .map(|b| vec![0; snap_codec::decompressed_len(b).unwrap()])
        .collect();
    g.throughput(Throughput::Bytes(raw_bytes));
    g.bench_function("decompress_data_block_4k", |b| {
        b.iter(|| {
            for (block, out) in blocks.iter().zip(&mut outs) {
                snap_codec::decompress_into(block, out).unwrap();
            }
        });
    });
    g.finish();
}

/// `count` Snappy-compressed 4 KiB data blocks shaped like kvbench's:
/// 16-byte decimal keys with their 8-byte internal-key trailer and
/// 128-byte values (the key, then 112 bytes of a db_bench pool
/// compressible to `ratio`). Returns them with their raw byte total.
fn harness_data_blocks(ratio: f64, count: usize) -> (Vec<Vec<u8>>, u64) {
    let pool = workloads::ValueGenerator::new(7, ratio)
        .generate(1 << 20)
        .to_vec();
    let mut rng = simkit::SplitMix64::new(11);
    let mut builder = BlockBuilder::new(16);
    let (mut blocks, mut raw_bytes) = (Vec::new(), 0);
    let (mut ikey, mut value) = (Vec::new(), Vec::new());
    let mut n = 0u64;
    while blocks.len() < count {
        n += 1 + rng.next_u64() % 8;
        let key = format!("{n:016}");
        let seq = rng.next_u64() >> 8;
        ikey.clear();
        append_internal_key(&mut ikey, key.as_bytes(), seq, ValueType::Value);
        let at = (rng.next_u64() % (pool.len() as u64 - 112)) as usize;
        value.clear();
        value.extend_from_slice(key.as_bytes());
        value.extend_from_slice(&pool[at..at + 112]);
        builder.add(&ikey, &value);
        if builder.current_size_estimate() >= 4096 {
            let block = builder.finish();
            raw_bytes += block.len() as u64;
            blocks.push(snap_codec::compress(block));
            builder.reset();
        }
    }
    (blocks, raw_bytes)
}

fn bench_crc32c(c: &mut Criterion) {
    let data = vec![0xa5u8; 64 << 10];
    let mut g = c.benchmark_group("crc32c");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("value_64k", |b| b.iter(|| sstable::crc32c::value(&data)));
    g.finish();
}

fn bench_memtable(c: &mut Criterion) {
    let mut g = c.benchmark_group("memtable");
    g.bench_function("insert_10k", |b| {
        b.iter_batched(
            || MemTable::new(InternalKeyComparator),
            |m| {
                for i in 0..10_000u64 {
                    let key = format!("{:016}", i.wrapping_mul(2_654_435_761) % 10_000);
                    m.add(i + 1, ValueType::Value, key.as_bytes(), b"value-bytes-128");
                }
                m
            },
            BatchSize::SmallInput,
        );
    });

    // What a kvbench `fill` memtable holds: two shards, filled to the
    // 4 MiB write buffer's charge.
    let rows = fill_shape_rows();
    let fresh = || MemTable::with_shards(2);
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("insert_fill_shape", |b| {
        b.iter_batched(
            fresh,
            |m| {
                for (seq, (key, value)) in (1..).zip(&rows) {
                    m.add(seq, ValueType::Value, key, value);
                }
                m
            },
            BatchSize::LargeInput,
        );
    });
    let full = fresh();
    for (seq, (key, value)) in (1..).zip(&rows) {
        full.add(seq, ValueType::Value, key, value);
    }
    g.bench_function("get_fill_shape", |b| {
        b.iter(|| {
            for (key, _) in &rows {
                black_box(full.get(&LookupKey::new(key, MAX_SEQUENCE_NUMBER)));
            }
        });
    });
    g.finish();
}

/// kvbench-shaped puts: 16-byte decimal keys uniform over 1.35M, 128-byte
/// values (the key, then 112 bytes of a half-compressible pool), as many
/// as charge a memtable 4 MiB.
fn fill_shape_rows() -> Vec<(Vec<u8>, Vec<u8>)> {
    let keys = workloads::KeyFormat { key_len: 16 };
    let pool = workloads::ValueGenerator::new(7, 0.5)
        .generate(1 << 20)
        .to_vec();
    let mut rng = simkit::SplitMix64::new(211);
    let charged = MemTable::with_shards(2);
    let mut rows = Vec::new();
    while charged.approximate_memory_usage() < 4 << 20 {
        let key = keys.format(rng.next_u64() % 1_350_000);
        let at = (rng.next_u64() % (pool.len() as u64 - 112)) as usize;
        let value = [&key[..], &pool[at..at + 112]].concat();
        charged.add(rows.len() as u64 + 1, ValueType::Value, &key, &value);
        rows.push((key, value));
    }
    rows
}

fn bench_engines(c: &mut Criterion) {
    let spec = KernelInputSpec {
        n_inputs: 2,
        value_len: 512,
        entries_per_input: 4_000,
        ..Default::default()
    };
    let env = MemEnv::new();
    let bytes: u64 = build_kernel_inputs(&env, &spec)
        .iter()
        .map(|i| i.bytes())
        .sum();

    let mut g = c.benchmark_group("compaction");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("cpu_engine_4MB", |b| {
        b.iter_batched(
            || {
                (
                    build_kernel_inputs(&env, &spec),
                    MemFactory::new(env.clone()),
                )
            },
            |(inputs, factory)| {
                CpuCompactionEngine
                    .compact(&kernel_request(inputs), &factory)
                    .unwrap()
            },
            BatchSize::SmallInput,
        );
    });
    let engine = Arc::new(FcaeEngine::new(FcaeConfig::two_input()));
    g.bench_function("fcae_engine_4MB", |b| {
        let engine = Arc::clone(&engine);
        b.iter_batched(
            || {
                (
                    build_kernel_inputs(&env, &spec),
                    MemFactory::new(env.clone()),
                )
            },
            move |(inputs, factory)| engine.compact(&kernel_request(inputs), &factory).unwrap(),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_snappy,
    bench_crc32c,
    bench_memtable,
    bench_engines
);
criterion_main!(benches);
