//! Counting-allocator proof that the steady-state merge loop —
//! decode → compare → validity-check → advance — performs **zero** heap
//! allocations per key-value pair, for both raw and Snappy-compressed
//! inputs. Block-boundary work (index entries, per-table setup) is
//! deliberately amortized outside this loop (EXPERIMENTS.md's history
//! table has the last whole-job allocs/kv figure). The same window is then run
//! through the output encoder, with and without the Filter Block Encoder:
//! filter building allocates nothing per pair or per block, only the one
//! copy of each finished filter block into its table image. The CPU
//! engine's inline source runs through the same loop on the same tables:
//! the standard table reader allocates when it opens a block, never per
//! pair.
//!
//! Single `#[test]` in this binary: the global counter sees every thread,
//! so parallel tests would pollute the measurement window.

use std::path::Path;
use std::sync::Arc;

use fcae::comparer::{Comparer, DropFilter};
use fcae::decoder::{InputDecoder, MergeSource};
use fcae::encoder::OutputEncoder;
use fcae::memory::{build_input_image, InputImage};
use lsm::compaction::{CompactionInput, TableRunSource};
use sstable::bloom::BloomFilterPolicy;
use sstable::env::{MemEnv, StorageEnv};
use sstable::format::CompressionType;
use sstable::ikey::{InternalKey, ValueType};
use sstable::table::{Table, TableReadOptions};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

const W_IN: u32 = 64;
const ENTRIES_PER_TABLE: usize = 1200;

fn build_table(
    env: &MemEnv,
    path: &str,
    stride_offset: u64,
    compression: CompressionType,
) -> Arc<Table> {
    let opts = TableBuilderOptions {
        compression,
        // 8 KiB blocks: several block fetches per table, so the measured
        // window crosses block boundaries on the decode side too.
        block_size: 8 << 10,
        ..Default::default()
    };
    let f = env.create_writable(Path::new(path)).unwrap();
    let mut b = TableBuilder::new(opts, f);
    for i in 0..ENTRIES_PER_TABLE as u64 {
        // Fixed-width keys; streams interleave and share user keys so the
        // drop filter's shadowing path runs inside the window.
        let key = InternalKey::new(
            format!("user-key-{:08}", i * 2 + (stride_offset % 2)).as_bytes(),
            1000 + stride_offset,
            if i % 11 == 0 {
                ValueType::Deletion
            } else {
                ValueType::Value
            },
        );
        b.add(key.encoded(), format!("value-{i:0>40}").as_bytes())
            .unwrap();
    }
    let size = b.finish().unwrap();
    let file = env.open_random_access(Path::new(path)).unwrap();
    let read_opts = TableReadOptions::default();
    Table::open(file, size, read_opts).unwrap()
}

/// Four interleaved input tables.
fn input_tables(compression: CompressionType) -> Vec<Arc<Table>> {
    let env = MemEnv::new();
    (0..4u64)
        .map(|n| build_table(&env, &format!("/t{n}"), n, compression))
        .collect()
}

/// Device images of four interleaved input tables.
fn input_images(compression: CompressionType) -> Vec<InputImage> {
    input_tables(compression)
        .into_iter()
        .map(|table| {
            let input = CompactionInput {
                tables: vec![table],
            };
            build_input_image(&input, W_IN).unwrap()
        })
        .collect()
}

/// Runs the merge loop over `sources`, measuring allocations in the
/// steady-state window that opens once `warm` holds. Returns (kvs in
/// window, allocations in window).
fn measure<S: MergeSource>(mut sources: Vec<S>, mut warm: impl FnMut(&[S]) -> bool) -> (u64, u64) {
    for s in &mut sources {
        s.advance().unwrap();
    }
    let mut comparer = Comparer::new(DropFilter::new(u64::MAX, true));

    // Warm-up: grow the cursor key buffers, the Snappy scratch buffer and
    // the drop filter's last-user-key buffer, and build the loser tree.
    let mut checksum = 0u64;
    while !warm(&sources) {
        let sel = comparer.select(&sources).expect("warm-up exhausted input");
        checksum = checksum
            .wrapping_add(sources[sel.input_no].key().len() as u64)
            .wrapping_add(sources[sel.input_no].value().len() as u64);
        sources[sel.input_no].advance().unwrap();
    }

    // Steady state: every select/read/advance must be allocation-free.
    let before = ALLOC.allocations();
    let mut kvs = 0u64;
    while let Some(sel) = comparer.select(&sources) {
        let s = &mut sources[sel.input_no];
        checksum = checksum
            .wrapping_add(s.key().len() as u64)
            .wrapping_add(s.value().len() as u64);
        s.advance().unwrap();
        kvs += 1;
    }
    let after = ALLOC.allocations();
    assert!(checksum > 0);
    (kvs, after - before)
}

/// The window over the device decoders. Warm-up runs until every decoder
/// has fetched at least two data blocks: the decompression buffer grows
/// geometrically, so after the second fetch its capacity covers every
/// subsequent same-sized block.
fn measure_decoders(compression: CompressionType) -> (u64, u64) {
    let images = input_images(compression);
    let decoders: Vec<InputDecoder<'_>> = images
        .iter()
        .map(|im| InputDecoder::new(im, W_IN))
        .collect();
    measure(decoders, |d| d.iter().all(|d| d.stats.blocks_fetched >= 2))
}

/// The window over the CPU engine's inline sources, after 600 pairs of
/// warm-up. Returns (kvs, allocations, data blocks in the four tables).
fn measure_inline_cpu(compression: CompressionType) -> (u64, u64, u64) {
    let tables = input_tables(compression);
    let blocks: usize = tables
        .iter()
        .map(|t| t.data_block_handles().unwrap().len())
        .sum();
    let sources = tables
        .into_iter()
        .map(|t| TableRunSource::new(vec![t]))
        .collect();
    let mut pairs = 0;
    let (kvs, allocs) = measure(sources, |_| {
        pairs += 1;
        pairs > 600
    });
    (kvs, allocs, blocks as u64)
}

/// Runs the same merge through the output encoder, cutting small tables so
/// that many complete. Warm-up lasts until two tables are out: by then the
/// filter builder's reused hash and result buffers have the capacity one
/// table needs. Returns (tables completed in the window, allocations in
/// the window).
fn measure_encoder(with_filter: bool) -> (u64, u64) {
    let images = input_images(CompressionType::None);
    let mut decoders: Vec<InputDecoder<'_>> = images
        .iter()
        .map(|im| InputDecoder::new(im, W_IN))
        .collect();
    for d in &mut decoders {
        d.advance().unwrap();
    }
    let mut comparer = Comparer::new(DropFilter::new(u64::MAX, true));
    let mut encoder = OutputEncoder::new(1 << 10, 8 << 10, 64, CompressionType::None);
    if with_filter {
        encoder = encoder.with_filter(BloomFilterPolicy::default());
    }

    let mut before = 0;
    let mut tables = 0u64;
    while let Some(sel) = comparer.select(&decoders) {
        let d = &mut decoders[sel.input_no];
        if !sel.drop && encoder.add(d.key(), d.value()).table_completed {
            tables += 1;
            if tables == 2 {
                before = ALLOC.allocations();
            }
        }
        d.advance().unwrap();
    }
    let after = ALLOC.allocations();
    (tables - 2, after - before)
}

#[test]
fn steady_state_merge_loop_is_allocation_free() {
    for compression in [CompressionType::None, CompressionType::Snappy] {
        let (kvs, allocs) = measure_decoders(compression);
        assert!(
            kvs > 2000,
            "window too small to be meaningful: {kvs} kvs ({compression:?})"
        );
        assert_eq!(
            allocs, 0,
            "steady-state merge loop allocated {allocs} times over {kvs} kvs ({compression:?})"
        );

        let (kvs, allocs, blocks) = measure_inline_cpu(compression);
        assert!(
            kvs > 2000 && kvs > 50 * blocks,
            "{kvs} kvs, {blocks} blocks"
        );
        assert!(
            allocs <= 4 * blocks,
            "inline CPU source allocated {allocs} times over {kvs} kvs and {blocks} blocks \
             ({compression:?}): more than opening each block explains"
        );
    }

    let (tables, without_filter) = measure_encoder(false);
    let (tables_filtered, with_filter) = measure_encoder(true);
    assert_eq!(tables, tables_filtered);
    assert!(tables >= 8, "window too small: {tables} tables");
    assert_eq!(
        with_filter - without_filter,
        tables,
        "filter building must cost one allocation per finished table and no more \
         ({without_filter} allocations without it, {with_filter} with, {tables} tables)"
    );
}
