//! Loom model: the loser-tree [`Comparer`] fed concurrently by the CPU
//! engine's read-ahead readers.
//!
//! Built and run only under `RUSTFLAGS="--cfg loom"`. Each input's table
//! run is walked on its own thread (the shape of the store's read-ahead
//! CPU path and of the hardware's per-input decode units), streaming
//! pairs through the real [`ReadAheadSource`]'s bounded channel to the
//! merge thread, which runs the real `Comparer` over them. Across all
//! explored interleavings the concurrently-fed merge must emit the
//! byte-identical selection sequence of a single-threaded reference merge
//! of the same tables through the device decoders — the engines'
//! determinism claim, under scheduling adversity.
#![cfg(loom)]

use std::path::Path;
use std::sync::Arc;

use fcae::comparer::{Comparer, DropFilter};
use fcae::decoder::{InputDecoder, MergeSource};
use fcae::memory::build_input_image;
use lsm::compaction::{CompactionInput, ReadAheadSource};
use sstable::env::{MemEnv, StorageEnv};
use sstable::ikey::{InternalKey, ValueType};
use sstable::table::{Table, TableReadOptions};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};

const W_IN: u32 = 64;

fn build_table(env: &MemEnv, path: &str, stride: u64, offset: u64, n: u64) -> Arc<Table> {
    let opts = TableBuilderOptions {
        block_size: 256,
        ..Default::default()
    };
    let f = env.create_writable(Path::new(path)).unwrap();
    let mut b = TableBuilder::new(opts, f);
    for e in 0..n {
        let i = e * stride + offset;
        // Overlapping user keys across inputs exercise the drop filter.
        let key = InternalKey::new(
            format!("key{:05}", i / 2).as_bytes(),
            i + 1,
            if i % 7 == 0 {
                ValueType::Deletion
            } else {
                ValueType::Value
            },
        );
        b.add(key.encoded(), format!("v{i}").as_bytes()).unwrap();
    }
    let size = b.finish().unwrap();
    let file = env.open_random_access(Path::new(path)).unwrap();
    let read_opts = TableReadOptions::default();
    Table::open(file, size, read_opts).unwrap()
}

fn inputs(env: &MemEnv) -> Vec<CompactionInput> {
    (0..3u64)
        .map(|i| CompactionInput {
            tables: vec![build_table(env, &format!("/in{i}"), 3, i, 40)],
        })
        .collect()
}

/// Reference: the same merge, single-threaded (decoders in-process).
fn reference_merge(env: &MemEnv) -> Vec<(Vec<u8>, Vec<u8>, bool)> {
    let inputs = inputs(env);
    let images: Vec<_> = inputs
        .iter()
        .map(|i| build_input_image(i, W_IN).unwrap())
        .collect();
    let mut decoders: Vec<InputDecoder<'_>> = images
        .iter()
        .map(|im| InputDecoder::new(im, W_IN))
        .collect();
    for d in &mut decoders {
        d.advance().unwrap();
    }
    let mut comparer = Comparer::new(DropFilter::new(u64::MAX, true));
    let mut out = Vec::new();
    while let Some(sel) = comparer.select(&decoders) {
        let d = &decoders[sel.input_no];
        out.push((d.key().to_vec(), d.value().to_vec(), sel.drop));
        decoders[sel.input_no].advance().unwrap();
    }
    out
}

#[test]
fn concurrently_fed_comparer_matches_single_threaded_reference() {
    let expected = reference_merge(&MemEnv::new());
    assert!(
        expected.len() > 100,
        "model input too small to be meaningful"
    );
    let expected = Arc::new(expected);

    loom::model(move || {
        let env = MemEnv::new();
        let mut sources = Vec::new();
        let mut threads = Vec::new();
        for input in inputs(&env) {
            // About three pairs per batch, two batches in flight.
            let (source, reader) = ReadAheadSource::new(input.tables, 64, 2);
            threads.push(loom::thread::spawn(reader));
            sources.push(source);
        }
        for s in &mut sources {
            s.advance().unwrap();
        }
        let mut comparer = Comparer::new(DropFilter::new(u64::MAX, true));
        let mut got = Vec::new();
        while let Some(sel) = comparer.select(&sources) {
            let s = &sources[sel.input_no];
            got.push((s.key().to_vec(), s.value().to_vec(), sel.drop));
            sources[sel.input_no].advance().unwrap();
        }
        assert_eq!(
            got.len(),
            expected.len(),
            "concurrent feed lost or duplicated pairs"
        );
        assert_eq!(
            *expected, got,
            "selection sequence diverged under concurrency"
        );
        for t in threads {
            t.join().expect("reader thread exits cleanly");
        }
    });
}
