//! Model-based property tests: the FCAE engine's output over arbitrary
//! inputs must equal a reference merge computed directly with a
//! `BTreeMap` (newest version per user key; tombstones drop keys at the
//! bottommost level), and the filter block of every output table must
//! admit every pair the table holds.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use fcae::{FcaeConfig, FcaeEngine};
use lsm::compaction::{CompactionEngine, CompactionInput, CompactionRequest, OutputFileFactory};
use proptest::prelude::*;
use sstable::env::{MemEnv, StorageEnv, WritableFile};
use sstable::ikey::{parse_internal_key, InternalKey, ValueType};
use sstable::iterator::InternalIterator;
use sstable::table::{GetStats, Table, TableReadOptions};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};

#[derive(Debug, Clone)]
struct GenEntry {
    key_id: u8,
    is_delete: bool,
    value: Vec<u8>,
}

fn entries_strategy() -> impl Strategy<Value = Vec<Vec<GenEntry>>> {
    // 2..5 inputs, each with 1..60 entries over a small key space so
    // cross-input duplicates are common.
    proptest::collection::vec(
        proptest::collection::vec(
            (
                0u8..30,
                any::<bool>(),
                proptest::collection::vec(any::<u8>(), 0..64),
            )
                .prop_map(|(key_id, is_delete, value)| GenEntry {
                    key_id,
                    is_delete,
                    value,
                }),
            1..60,
        ),
        2..5,
    )
}

struct Factory {
    env: MemEnv,
    n: AtomicU64,
}

impl OutputFileFactory for Factory {
    fn new_output(&self) -> lsm::Result<(u64, Box<dyn WritableFile>)> {
        let n = self.n.fetch_add(1, Ordering::SeqCst) + 1;
        Ok((n, self.env.create_writable(Path::new(&format!("/o{n}")))?))
    }
}

fn builder_options() -> TableBuilderOptions {
    TableBuilderOptions {
        block_size: 256,
        ..Default::default()
    }
}

/// User keys of 6 to 28 bytes: the filter hashes the key, so its length
/// must vary.
fn user_key(key_id: u8) -> Vec<u8> {
    let pad = "x".repeat(usize::from(key_id) * 7 % 23);
    format!("key{key_id:03}{pad}").into_bytes()
}

fn read_options() -> TableReadOptions {
    TableReadOptions::default()
}

/// Builds inputs; sequence numbers are globally unique, with input 0
/// holding the NEWEST sequences (as the host-side input ordering
/// guarantees).
#[allow(clippy::type_complexity)]
fn build(
    env: &MemEnv,
    gen: &[Vec<GenEntry>],
) -> (
    Vec<CompactionInput>,
    BTreeMap<Vec<u8>, (u64, Option<Vec<u8>>)>,
) {
    let mut model: BTreeMap<Vec<u8>, (u64, Option<Vec<u8>>)> = BTreeMap::new();
    let mut inputs = Vec::new();
    let total: u64 = gen.iter().map(|v| v.len() as u64).sum();
    let mut next_seq = total + 1;
    for (i, input_entries) in gen.iter().enumerate() {
        // Dedup within one input by (key, seq) impossibility: assign each
        // entry a unique seq; sort by (key asc, seq desc) for the table.
        let mut rows: Vec<(Vec<u8>, u64, ValueType, Vec<u8>)> = Vec::new();
        for e in input_entries {
            next_seq -= 1;
            let user = user_key(e.key_id);
            let ty = if e.is_delete {
                ValueType::Deletion
            } else {
                ValueType::Value
            };
            rows.push((user.clone(), next_seq, ty, e.value.clone()));
            let slot = model.entry(user).or_insert((0, None));
            if next_seq > slot.0 {
                *slot = (
                    next_seq,
                    if e.is_delete {
                        None
                    } else {
                        Some(e.value.clone())
                    },
                );
            }
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let f = env.create_writable(Path::new(&format!("/in{i}"))).unwrap();
        let mut b = TableBuilder::new(builder_options(), f);
        for (user, seq, ty, value) in &rows {
            let ik = InternalKey::new(user, *seq, *ty);
            b.add(ik.encoded(), value).unwrap();
        }
        let size = b.finish().unwrap();
        let file = env
            .open_random_access(Path::new(&format!("/in{i}")))
            .unwrap();
        inputs.push(CompactionInput {
            tables: vec![Table::open(file, size, read_options()).unwrap()],
        });
    }
    (inputs, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bottommost compaction: the engine's output equals the reference
    /// map of live (newest, non-deleted) versions.
    #[test]
    fn engine_output_matches_reference_model(gen in entries_strategy()) {
        let env = MemEnv::new();
        let (inputs, model) = build(&env, &gen);
        let engine = FcaeEngine::new(FcaeConfig::nine_input());
        let factory = Factory { env: env.clone(), n: AtomicU64::new(0) };
        let req = CompactionRequest {
            level: 0,
            inputs,
            smallest_snapshot: 1 << 40,
            bottommost: true,
            builder_options: builder_options(),
            max_output_file_size: 8 << 10,
        };
        let outcome = engine.compact(&req, &factory).unwrap();

        // Read back every output entry.
        let mut got: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for meta in &outcome.outputs {
            let file = env
                .open_random_access(Path::new(&format!("/o{}", meta.number)))
                .unwrap();
            let table = Table::open(file, meta.file_size, read_options()).unwrap();
            let mut it = table.iter();
            it.seek_to_first();
            while it.valid() {
                let p = parse_internal_key(it.key()).unwrap();
                prop_assert_eq!(
                    p.value_type, ValueType::Value,
                    "bottommost output must hold no tombstones"
                );
                let prev = got.insert(p.user_key.to_vec(), it.value().to_vec());
                prop_assert!(prev.is_none(), "duplicate user key in output");
                it.next();
            }
        }

        let expected: BTreeMap<Vec<u8>, Vec<u8>> = model
            .into_iter()
            .filter_map(|(k, (_, v))| v.map(|v| (k, v)))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// No false negatives: with tombstones kept (not bottommost) and
    /// outputs split into several tables, every pair a table holds is
    /// found through that table's filter, which is consulted every time.
    #[test]
    fn every_emitted_pair_passes_its_tables_filter(gen in entries_strategy()) {
        let env = MemEnv::new();
        let (inputs, _) = build(&env, &gen);
        let engine = FcaeEngine::new(FcaeConfig::nine_input());
        let factory = Factory { env: env.clone(), n: AtomicU64::new(0) };
        let req = CompactionRequest {
            level: 0,
            inputs,
            smallest_snapshot: 1 << 40,
            bottommost: false,
            builder_options: builder_options(),
            max_output_file_size: 1 << 10,
        };
        let outcome = engine.compact(&req, &factory).unwrap();

        let mut pairs = 0u64;
        for meta in &outcome.outputs {
            let file = env
                .open_random_access(Path::new(&format!("/o{}", meta.number)))
                .unwrap();
            let table = Table::open(file, meta.file_size, read_options()).unwrap();
            let mut stats = GetStats::default();
            let mut found_key = Vec::new();
            let mut it = table.iter();
            it.seek_to_first();
            while it.valid() {
                let found = table.get_counted(it.key(), &mut found_key, &mut stats).unwrap();
                prop_assert_eq!(
                    found.map(|value| (found_key.clone(), value)),
                    Some((it.key().to_vec(), it.value().to_vec())),
                    "table {} lost a pair it holds", meta.number
                );
                pairs += 1;
                it.next();
            }
            prop_assert_eq!(u64::from(stats.filter_checked), meta.entries);
            prop_assert_eq!(stats.filter_useful + stats.filter_false_positive, 0);
        }
        prop_assert_eq!(pairs, outcome.entries_written);
    }
}
