//! Property test: `DbIter` must agree with a `BTreeMap` model of the
//! live contents under arbitrary put/delete/flush sequences, both for
//! full scans and for seeks, at snapshots taken mid-stream (so the
//! iterator's sequence filter and tombstone-skip paths are exercised
//! against versions buried at different depths of the store).

use std::collections::BTreeMap;
use std::sync::Arc;

use lsm::{Db, Options, ReadOptions};
use proptest::prelude::*;
use sstable::env::{MemEnv, StorageEnv};

#[derive(Debug, Clone)]
struct Op {
    key_id: u8,
    delete: bool,
    value: Vec<u8>,
    /// Flush (and settle compactions) after this op when < 40 (~1/6).
    flush: u8,
    /// Take a snapshot after this op when < 40 (~1/6).
    snap: u8,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..24,
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..24),
            any::<u8>(),
            any::<u8>(),
        )
            .prop_map(|(key_id, delete, value, flush, snap)| Op {
                key_id,
                delete,
                value,
                flush,
                snap,
            }),
        1..120,
    )
}

fn user_key(id: u8) -> Vec<u8> {
    format!("k{id:03}").into_bytes()
}

/// Walks `it` from its current position and compares it, entry by
/// entry, against `expected` (an ordered list of key/value pairs).
fn assert_tail_matches(
    it: &mut lsm::DbIter,
    expected: &mut dyn Iterator<Item = (&Vec<u8>, &Vec<u8>)>,
) {
    for (mk, mv) in expected {
        assert!(it.valid(), "iterator ended before model key {mk:?}");
        assert_eq!(it.key(), mk.as_slice());
        assert_eq!(it.value(), mv.as_slice());
        it.next();
    }
    assert!(!it.valid(), "iterator has an extra key past the model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn db_iter_matches_btreemap_model(
        ops in ops(),
        probes in proptest::collection::vec(0u8..26, 1..6),
        // With key-value separation on, values over 12 bytes live in the
        // value log and the iterator dereferences pointers as it walks —
        // the model must not be able to tell the difference.
        separation in any::<bool>(),
    ) {
        let env = Arc::new(MemEnv::new());
        let options = Options {
            env: Arc::clone(&env) as Arc<dyn StorageEnv>,
            // Small budgets so flushes spill to L0 and compactions move
            // versions down-level mid-test.
            write_buffer_size: 8 << 10,
            max_file_size: 4 << 10,
            level1_max_bytes: 16 << 10,
            slowdown_sleep: false,
            value_log_threshold_bytes: if separation { Some(12) } else { None },
            value_log_segment_bytes: 2 << 10,
            ..Default::default()
        };
        let db = Db::open("/db", options).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        // (snapshot guard, model frozen at the same instant)
        let mut frozen = Vec::new();

        for op in &ops {
            let k = user_key(op.key_id);
            if op.delete {
                db.delete(&k).unwrap();
                model.remove(&k);
            } else {
                db.put(&k, &op.value).unwrap();
                model.insert(k, op.value.clone());
            }
            if op.flush < 40 {
                db.flush().unwrap();
                db.wait_for_background_quiescence();
            }
            if op.snap < 40 {
                frozen.push((db.snapshot(), model.clone()));
            }
        }
        // The latest state is one more "snapshot".
        frozen.push((db.snapshot(), model.clone()));

        for (snap, model) in &frozen {
            let read = ReadOptions { snapshot: Some(snap.sequence) };

            // Full scan reproduces the model in order.
            let mut it = db.iter_with(read).unwrap();
            it.seek_to_first();
            assert_tail_matches(&mut it, &mut model.iter());
            it.status().unwrap();

            // Seeks land on the first model key >= probe and the walk
            // from there matches the model's tail.
            for &p in &probes {
                let pk = user_key(p);
                let mut it = db.iter_with(read).unwrap();
                it.seek(&pk);
                assert_tail_matches(
                    &mut it,
                    &mut model.range(pk.clone()..),
                );
            }
        }
    }
}
