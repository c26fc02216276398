//! Property-based tests of the table format: arbitrary sets of internal
//! keys round-trip through build → open → iterate/seek, under every
//! compression and block-size choice.

mod common;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use common::{encode, first, model_key, ModelKey};
use proptest::prelude::*;
use sstable::env::{MemEnv, StorageEnv};
use sstable::format::CompressionType;
use sstable::iterator::InternalIterator;
use sstable::table::{Table, TableReadOptions};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};

fn entries_strategy() -> impl Strategy<Value = BTreeMap<ModelKey, Vec<u8>>> {
    proptest::collection::btree_map(
        model_key(32),
        proptest::collection::vec(any::<u8>(), 0..200),
        1..120,
    )
}

fn build(
    env: &MemEnv,
    entries: &BTreeMap<ModelKey, Vec<u8>>,
    block_size: usize,
    compression: CompressionType,
) -> Arc<Table> {
    let opts = TableBuilderOptions {
        block_size,
        compression,
        ..Default::default()
    };
    let file = env.create_writable(Path::new("/t")).unwrap();
    let mut b = TableBuilder::new(opts, file);
    for (k, v) in entries {
        b.add(&encode(k), v).unwrap();
    }
    let size = b.finish().unwrap();
    let file = env.open_random_access(Path::new("/t")).unwrap();
    Table::open(file, size, TableReadOptions::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every entry set scans back exactly, regardless of block size and
    /// compression.
    #[test]
    fn scan_roundtrip(
        entries in entries_strategy(),
        block_size in prop::sample::select(vec![64usize, 256, 1024, 4096]),
        snappy in any::<bool>(),
    ) {
        let env = MemEnv::new();
        let compression =
            if snappy { CompressionType::Snappy } else { CompressionType::None };
        let table = build(&env, &entries, block_size, compression);
        let mut it = table.iter();
        it.seek_to_first();
        let mut got = Vec::new();
        while it.valid() {
            got.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status().unwrap();
        let want: Vec<_> = entries.iter().map(|(k, v)| (encode(k), v.clone())).collect();
        prop_assert_eq!(got, want);
    }

    /// `seek(k)` always lands on the smallest key >= k.
    #[test]
    fn seek_is_lower_bound(
        entries in entries_strategy(),
        probes in proptest::collection::vec(model_key(32), 1..20),
    ) {
        let env = MemEnv::new();
        let table = build(&env, &entries, 256, CompressionType::Snappy);
        let mut it = table.iter();
        let mut probes = probes;
        probes.push(first());
        probes.extend(entries.keys().step_by(5).cloned());
        for probe in &probes {
            it.seek(&encode(probe));
            let expected = entries.range(probe.clone()..).next();
            match expected {
                Some((k, v)) => {
                    prop_assert!(it.valid(), "expected {:?}", k);
                    prop_assert_eq!(it.key(), &encode(k)[..]);
                    prop_assert_eq!(it.value(), &v[..]);
                }
                None => prop_assert!(!it.valid()),
            }
        }
    }

    /// Backward iteration yields exactly the reverse of forward.
    #[test]
    fn backward_matches_forward(entries in entries_strategy()) {
        let env = MemEnv::new();
        let table = build(&env, &entries, 128, CompressionType::None);
        let forward: Vec<Vec<u8>> = entries.keys().map(encode).collect();
        let mut it = table.iter();
        it.seek_to_last();
        let mut backward = Vec::new();
        while it.valid() {
            backward.push(it.key().to_vec());
            it.prev();
        }
        backward.reverse();
        prop_assert_eq!(backward, forward);
    }

    /// Corrupting any single byte of the file never panics the reader:
    /// open/read either succeeds (unverified regions like padding) or
    /// returns an error.
    #[test]
    fn corruption_never_panics(
        entries in entries_strategy(),
        flip in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let env = MemEnv::new();
        let _ = build(&env, &entries, 256, CompressionType::Snappy);
        let mut bytes = env
            .open_random_access(Path::new("/t")).unwrap()
            .read_all().unwrap();
        let i = flip.index(bytes.len());
        bytes[i] ^= xor;
        let mut w = env.create_writable(Path::new("/corrupt")).unwrap();
        w.append(&bytes).unwrap();
        drop(w);
        let file = env.open_random_access(Path::new("/corrupt")).unwrap();
        if let Ok(table) = Table::open(file, bytes.len() as u64, TableReadOptions::default()) {
            let mut it = table.iter();
            it.seek_to_first();
            let mut count = 0;
            while it.valid() && count < 10_000 {
                count += 1;
                it.next();
            }
            // status() may error; it must not panic.
            let _ = it.status();
            for (k, _) in entries.iter().take(5) {
                let _ = table.get(&encode(k));
            }
        }
    }
}
