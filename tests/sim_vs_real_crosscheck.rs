//! Cross-validation of the metadata-level system simulator against the
//! real store: for the same (small) configuration and ingest volume, the
//! *structural* quantities — flush count, write amplification ballpark,
//! compaction count trends — must agree. This is what justifies using the
//! simulator for the paper's 1024 GB sweeps. Both sides count under the
//! same metric names, so the comparison is one table read off two
//! registries.

use std::sync::Arc;

use fcae_repro::lsm::{Db, Options};
use fcae_repro::obs::{Obs, Registry};
use fcae_repro::simkit::DiskModel;
use fcae_repro::sstable::env::{MemEnv, StorageEnv};
use fcae_repro::sstable::format::CompressionType;
use fcae_repro::systemsim::{SystemConfig, WriteSim};
use fcae_repro::workloads::{KeyFormat, ValueGenerator};

/// Shared scale: 32 MiB of raw data, 1 MiB memtables, 512 KiB tables.
const TARGET_BYTES: u64 = 32 << 20;
const MEMTABLE: u64 = 1 << 20;
const SSTABLE: u64 = 512 << 10;
const VALUE_LEN: usize = 112; // +16 key = 128-byte pairs

fn real_run() -> Arc<Registry> {
    let env = Arc::new(MemEnv::new());
    let options = Options {
        env: Arc::clone(&env) as Arc<dyn StorageEnv>,
        write_buffer_size: MEMTABLE as usize,
        max_file_size: SSTABLE,
        level1_max_bytes: 5 * SSTABLE,
        // Disable compression so raw == stored, matching the sim config.
        compression: CompressionType::None,
        filter_bits_per_key: None,
        slowdown_sleep: false,
        ..Default::default()
    };
    let db = Db::open("/db", options).unwrap();
    let kf = KeyFormat::default();
    let mut values = ValueGenerator::new(5, 1.0);
    let pair = (16 + VALUE_LEN) as u64;
    let ops = TARGET_BYTES / pair;
    let mut rng = fcae_repro::simkit::SplitMix64::new(99);
    for _ in 0..ops {
        let key = kf.format(rng.next_below(ops));
        db.put(&key, values.generate(VALUE_LEN)).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_background_quiescence();
    Arc::clone(&db.obs().registry)
}

fn sim_run() -> Arc<Registry> {
    let cfg = SystemConfig {
        value_len: VALUE_LEN,
        compression_ratio: 1.0,
        memtable_bytes: MEMTABLE,
        sstable_bytes: SSTABLE,
        level1_bytes: 5 * SSTABLE,
        // Fast virtual hardware: we compare structure, not wall time.
        disk: DiskModel {
            read_bw: 5e9,
            write_bw: 5e9,
            op_latency: 1e-6,
        },
        ..SystemConfig::default()
    };
    let (bundle, clock) = Obs::manual();
    WriteSim::new(cfg, TARGET_BYTES)
        .with_obs(Arc::clone(&bundle), clock)
        .run();
    Arc::clone(&bundle.registry)
}

/// Sum of the counters `names`; `l*` stands for every level. A name one
/// side never registered counts zero.
fn total(registry: &Registry, names: &[&str]) -> u64 {
    let counter = |name: &str| registry.counter_value(name).unwrap_or(0);
    names
        .iter()
        .map(|name| match name.split_once("l*") {
            Some((head, tail)) => (0..7).map(|l| counter(&format!("{head}l{l}{tail}"))).sum(),
            None => counter(name),
        })
        .sum()
}

/// One shared quantity: the counters that add up to it, the range each
/// side must land in, and the real ÷ sim ratios admitted.
struct Check {
    names: &'static [&'static str],
    real: std::ops::RangeInclusive<u64>,
    sim: std::ops::RangeInclusive<u64>,
    ratio: std::ops::RangeInclusive<f64>,
}

#[test]
fn simulator_matches_real_store_structure() {
    let (real, sim) = (real_run(), sim_run());
    let expected_flushes = TARGET_BYTES / MEMTABLE;
    let checks = [
        // Flush count is determined by bytes per memtable. The real
        // store's memtable accounting includes per-node overhead
        // (skiplist links + internal-key trailer ≈ 60% on 128-byte
        // pairs), so it rotates earlier than the byte-exact simulator.
        Check {
            names: &["lsm.flush.count"],
            real: expected_flushes..=2 * expected_flushes,
            sim: expected_flushes - 2..=expected_flushes + 2,
            ratio: 0.0..=f64::MAX,
        },
        // Compaction I/O over ingested bytes — write amplification — is
        // above 1 on both sides and within 2x of each other (the sim
        // collapses file boundaries; the real store pays seam overlaps).
        Check {
            names: &["lsm.compact.l*.bytes_read", "lsm.compact.l*.bytes_written"],
            real: TARGET_BYTES + 1..=u64::MAX,
            sim: TARGET_BYTES + 1..=u64::MAX,
            ratio: 0.4..=2.5,
        },
        // Both perform a nontrivial number of compactions.
        Check {
            names: &[
                "lsm.compact.engine_jobs",
                "lsm.compact.sw_fallback_jobs",
                "lsm.compact.trivial_moves",
            ],
            real: 3..=u64::MAX,
            sim: 3..=u64::MAX,
            ratio: 0.0..=f64::MAX,
        },
    ];
    for check in &checks {
        let (r, s) = (total(&real, check.names), total(&sim, check.names));
        let names = check.names;
        assert!(check.real.contains(&r), "{names:?}: real {r} (sim {s})");
        assert!(check.sim.contains(&s), "{names:?}: sim {s} (real {r})");
        let ratio = r as f64 / s as f64;
        assert!(
            check.ratio.contains(&ratio),
            "{names:?} diverges: real {r} vs sim {s}"
        );
    }
    // The trees have the same shape: a level either side compacted out
    // of, the other did too.
    for level in 0..7 {
        let name = format!("lsm.compact.l{level}.count");
        let (r, s) = (total(&real, &[&name]), total(&sim, &[&name]));
        assert_eq!(r > 0, s > 0, "{name}: real {r} vs sim {s}");
    }
}
