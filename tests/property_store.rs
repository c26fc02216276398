//! Property-based tests: the store (on either engine) behaves like a
//! `HashMap<Vec<u8>, Vec<u8>>` under arbitrary operation sequences, with
//! flushes and reopens inserted anywhere.

use std::collections::HashMap;
use std::sync::Arc;

use fcae_repro::fcae::FcaeConfig;
use fcae_repro::lsm::{Db, Options};
use fcae_repro::offload::{OffloadConfig, OffloadService};
use fcae_repro::sstable::env::{MemEnv, StorageEnv};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Flush,
    Reopen,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small keyspace so operations collide and exercise shadowing.
    (0u32..50).prop_map(|i| format!("key{i:03}").into_bytes())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key_strategy(), proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => key_strategy().prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen),
    ]
}

fn options(env: &Arc<MemEnv>) -> Options {
    Options {
        env: Arc::clone(env) as Arc<dyn StorageEnv>,
        write_buffer_size: 8 << 10, // tiny: force frequent flushes
        max_file_size: 8 << 10,
        level1_max_bytes: 32 << 10,
        slowdown_sleep: false,
        ..Default::default()
    }
}

fn run_model(ops: &[Op], fcae: bool) {
    let env = Arc::new(MemEnv::new());
    let svc = fcae.then(|| {
        Arc::new(OffloadService::new(
            FcaeConfig::nine_input(),
            OffloadConfig::default(),
        ))
    });
    let open = |env: &Arc<MemEnv>| match &svc {
        Some(svc) => Db::open_with_engine("/db", options(env), Arc::clone(svc) as _).unwrap(),
        None => Db::open("/db", options(env)).unwrap(),
    };
    let mut db = open(&env);
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

    for op in ops {
        match op {
            Op::Put(k, v) => {
                db.put(k, v).unwrap();
                model.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                db.delete(k).unwrap();
                model.remove(k);
            }
            Op::Flush => {
                db.flush().unwrap();
            }
            Op::Reopen => {
                drop(db);
                db = open(&env);
            }
        }
    }
    db.wait_for_background_quiescence();

    // Full agreement with the model.
    for (k, v) in &model {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v), "key {k:?}");
    }
    // And nothing extra: scan the whole range.
    let scanned = db.scan(b"", None, 10_000).unwrap();
    assert_eq!(scanned.len(), model.len(), "phantom keys in scan");
    for (k, v) in &scanned {
        assert_eq!(model.get(k), Some(v), "scan key {k:?}");
    }
    // No device job failed over to the CPU unseen.
    if let Some(svc) = &svc {
        assert_eq!(svc.metrics().device_faults, 0, "{:?}", svc.metrics());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn store_matches_model_cpu(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run_model(&ops, false);
    }

    #[test]
    fn store_matches_model_fcae(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run_model(&ops, true);
    }
}
