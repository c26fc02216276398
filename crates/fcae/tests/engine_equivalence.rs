//! The core correctness claim of the reproduction: the simulated FPGA
//! engine and the CPU engine produce *equivalent* compactions — the same
//! surviving entries in the same order, in files the standard reader can
//! open — and the engine integrates with the full store unchanged.

use std::path::Path;
use std::sync::Arc;

use fcae::{FcaeConfig, FcaeEngine};
use lsm::compaction::{
    CompactionEngine, CompactionInput, CompactionRequest, CpuCompactionEngine, OutputFileFactory,
};
use lsm::{Db, Options};
use sstable::env::{MemEnv, StorageEnv, WritableFile};
use sstable::format::CompressionType;
use sstable::ikey::{parse_internal_key, InternalKey, ValueType};
use sstable::iterator::InternalIterator;
use sstable::table::{Table, TableReadOptions};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};

fn builder_options() -> TableBuilderOptions {
    TableBuilderOptions {
        block_size: 1024,
        ..Default::default()
    }
}

fn read_options() -> TableReadOptions {
    TableReadOptions::default()
}

fn build_table(
    env: &MemEnv,
    path: &str,
    entries: &[(String, u64, ValueType, Vec<u8>)],
) -> Arc<Table> {
    let f = env.create_writable(Path::new(path)).unwrap();
    let mut b = TableBuilder::new(builder_options(), f);
    for (k, seq, t, v) in entries {
        let key = InternalKey::new(k.as_bytes(), *seq, *t);
        b.add(key.encoded(), v).unwrap();
    }
    let size = b.finish().unwrap();
    let file = env.open_random_access(Path::new(path)).unwrap();
    Table::open(file, size, read_options()).unwrap()
}

/// Allocates numbered output files in a MemEnv.
struct MemFactory {
    env: MemEnv,
    prefix: &'static str,
    counter: std::sync::atomic::AtomicU64,
}

impl OutputFileFactory for MemFactory {
    fn new_output(&self) -> lsm::Result<(u64, Box<dyn WritableFile>)> {
        let n = self
            .counter
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            + 1;
        let path = format!("/{}-{n}.ldb", self.prefix);
        let file = self.env.create_writable(Path::new(&path))?;
        Ok((n, file))
    }
}

/// Reads every entry of every output table back through the standard
/// reader, in order.
fn read_all_outputs(
    env: &MemEnv,
    prefix: &str,
    outputs: &[lsm::compaction::OutputTableMeta],
) -> Vec<(Vec<u8>, u64, ValueType, Vec<u8>)> {
    let mut all = Vec::new();
    for meta in outputs {
        let path = format!("/{}-{}.ldb", prefix, meta.number);
        let file = env.open_random_access(Path::new(&path)).unwrap();
        let table = Table::open(file, meta.file_size, read_options()).unwrap();
        let mut it = table.iter();
        it.seek_to_first();
        let mut count = 0;
        while it.valid() {
            let p = parse_internal_key(it.key()).unwrap();
            all.push((
                p.user_key.to_vec(),
                p.sequence,
                p.value_type,
                it.value().to_vec(),
            ));
            count += 1;
            it.next();
        }
        it.status().unwrap();
        assert_eq!(count, meta.entries, "entry count mismatch in {path}");
    }
    all
}

/// A three-input workload with overlapping ranges, updates and deletes.
fn overlapping_inputs(env: &MemEnv) -> Vec<CompactionInput> {
    // Input 0 (newest): updates for every 3rd key and deletes for every
    // 10th, sequences 3000+.
    let mut newest = Vec::new();
    for i in (0..900u32).step_by(3) {
        let t = if i % 10 == 0 {
            ValueType::Deletion
        } else {
            ValueType::Value
        };
        newest.push((
            format!("key{i:05}"),
            3000 + u64::from(i),
            t,
            format!("new-{i}").into_bytes(),
        ));
    }
    // Input 1 (middle): even keys, sequences 2000+.
    let mut middle = Vec::new();
    for i in (0..900u32).step_by(2) {
        middle.push((
            format!("key{i:05}"),
            2000 + u64::from(i),
            ValueType::Value,
            format!("mid-{i}").into_bytes(),
        ));
    }
    // Input 2 (oldest): all keys, two tables, sequences 1000+.
    let mut oldest_a = Vec::new();
    let mut oldest_b = Vec::new();
    for i in 0..900u32 {
        let e = (
            format!("key{i:05}"),
            1000 + u64::from(i),
            ValueType::Value,
            vec![b'o'; 64],
        );
        if i < 450 {
            oldest_a.push(e);
        } else {
            oldest_b.push(e);
        }
    }
    vec![
        CompactionInput {
            tables: vec![build_table(env, "/in0", &newest)],
        },
        CompactionInput {
            tables: vec![build_table(env, "/in1", &middle)],
        },
        CompactionInput {
            tables: vec![
                build_table(env, "/in2a", &oldest_a),
                build_table(env, "/in2b", &oldest_b),
            ],
        },
    ]
}

fn request(inputs: Vec<CompactionInput>, bottommost: bool) -> CompactionRequest {
    CompactionRequest {
        level: 0,
        inputs,
        smallest_snapshot: 1 << 40,
        bottommost,
        builder_options: builder_options(),
        max_output_file_size: 64 << 10,
    }
}

/// The device engine splits output tables differently from the host
/// builder, so its files differ — but the concatenated entry stream across
/// all output tables must equal the CPU engine's exactly, for raw and
/// Snappy outputs, at the bottom level and above it.
#[test]
fn fcae_and_cpu_produce_identical_entry_streams() {
    for (compression, bottommost) in [
        (CompressionType::Snappy, false),
        (CompressionType::Snappy, true),
        (CompressionType::None, true),
    ] {
        let env = MemEnv::new();
        let request = |inputs| {
            let mut req = request(inputs, bottommost);
            req.builder_options.compression = compression;
            req
        };

        let cpu_factory = MemFactory {
            env: env.clone(),
            prefix: "cpu",
            counter: Default::default(),
        };
        let cpu_out = CpuCompactionEngine
            .compact(&request(overlapping_inputs(&env)), &cpu_factory)
            .unwrap();

        let engine = FcaeEngine::new(FcaeConfig::nine_input());
        let fcae_factory = MemFactory {
            env: env.clone(),
            prefix: "fcae",
            counter: Default::default(),
        };
        let fcae_out = engine
            .compact(&request(overlapping_inputs(&env)), &fcae_factory)
            .unwrap();

        let cpu_entries = read_all_outputs(&env, "cpu", &cpu_out.outputs);
        let fcae_entries = read_all_outputs(&env, "fcae", &fcae_out.outputs);
        let case = format!("{compression:?}, bottommost={bottommost}");
        assert_eq!(cpu_entries.len(), fcae_entries.len(), "{case}");
        assert_eq!(cpu_entries, fcae_entries, "{case}");
        assert_eq!(cpu_out.entries_dropped, fcae_out.entries_dropped);
        assert_eq!(cpu_out.entries_written, fcae_out.entries_written);

        // The drop rules did real work.
        assert!(cpu_out.entries_dropped > 0);
        // FCAE reports device timing.
        assert!(fcae_out.modeled_kernel_time.unwrap().as_nanos() > 0);
        assert!(fcae_out.modeled_transfer_time.unwrap().as_nanos() > 0);
    }
}

#[test]
fn fcae_outputs_are_seekable_standard_tables() {
    let env = MemEnv::new();
    let inputs = overlapping_inputs(&env);
    let engine = FcaeEngine::new(FcaeConfig::nine_input());
    let factory = MemFactory {
        env: env.clone(),
        prefix: "out",
        counter: Default::default(),
    };
    let outcome = engine.compact(&request(inputs, true), &factory).unwrap();
    assert!(!outcome.outputs.is_empty());

    for meta in &outcome.outputs {
        let path = format!("/out-{}.ldb", meta.number);
        let file = env.open_random_access(Path::new(&path)).unwrap();
        let table = Table::open(file, meta.file_size, read_options()).unwrap();
        // Seek to the recorded smallest and largest keys.
        let mut it = table.iter();
        it.seek(meta.smallest.encoded());
        assert!(it.valid());
        assert_eq!(it.key(), meta.smallest.encoded());
        it.seek(meta.largest.encoded());
        assert!(it.valid());
        assert_eq!(it.key(), meta.largest.encoded());
        // Point lookups by internal key work.
        let got = table.get(meta.smallest.encoded()).unwrap();
        assert!(got.is_some());
    }
    // Output tables respect the size limit (with one block of slack).
    for meta in &outcome.outputs {
        assert!(meta.file_size < (64 << 10) + 8192, "{}", meta.file_size);
    }
}

#[test]
fn kernel_report_speed_behaviour_matches_paper_trends() {
    // Compaction speed must grow with value length (Fig. 9's driver) and
    // with V (Table V columns).
    let env = MemEnv::new();
    let mut speeds_by_value = Vec::new();
    // Incompressible values: the paper's speed metric divides by stored
    // (compressed) input bytes, so compressible filler would skew it.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }
    for (tag, value_len) in [("a", 64usize), ("b", 512), ("c", 2048)] {
        let mk = |path: &str, base: u64| {
            let entries: Vec<_> = (0..600u32)
                .map(|i| {
                    (
                        format!("key{i:05}"),
                        base + u64::from(i),
                        ValueType::Value,
                        noise(base + u64::from(i), value_len),
                    )
                })
                .collect();
            build_table(&env, path, &entries)
        };
        let inputs = vec![
            CompactionInput {
                tables: vec![mk(&format!("/v{tag}0"), 2000)],
            },
            CompactionInput {
                tables: vec![mk(&format!("/v{tag}1"), 1000)],
            },
        ];
        let engine = FcaeEngine::new(FcaeConfig::two_input().with_v(16));
        let factory = MemFactory {
            env: env.clone(),
            prefix: "spd",
            counter: Default::default(),
        };
        engine.compact(&request(inputs, true), &factory).unwrap();
        let report = engine.last_report();
        assert!(report.compaction_speed_mb_s > 0.0);
        speeds_by_value.push(report.compaction_speed_mb_s);
    }
    assert!(
        speeds_by_value.windows(2).all(|w| w[0] < w[1]),
        "speed should grow with value length: {speeds_by_value:?}"
    );
}

#[test]
fn full_store_runs_on_the_fcae_engine() {
    let env = Arc::new(MemEnv::new());
    let options = Options {
        env: Arc::clone(&env) as Arc<dyn StorageEnv>,
        write_buffer_size: 64 << 10,
        max_file_size: 32 << 10,
        level1_max_bytes: 128 << 10,
        slowdown_sleep: false,
        ..Default::default()
    };
    let engine = Arc::new(FcaeEngine::new(FcaeConfig::nine_input()));
    let db = Db::open_with_engine("/db", options, engine).unwrap();
    assert_eq!(db.engine_name(), "fcae");

    // Mostly-sequential fill keeps L0 overlap narrow, so compactions fit
    // the engine's N and are offloaded rather than falling back.
    let value = vec![0x42u8; 400];
    for i in 0..3000u32 {
        db.put(format!("key{i:06}").as_bytes(), &value).unwrap();
    }
    for i in 0..1000u32 {
        db.put(format!("key{i:06}").as_bytes(), &value).unwrap();
    }
    db.delete(b"key000007").unwrap();
    db.flush().unwrap();
    db.wait_for_background_quiescence();

    let stats = db.stats();
    assert!(
        stats.engine_compactions > 0,
        "the FCAE engine should have executed compactions: {stats:?}"
    );
    assert!(stats.modeled_kernel_time.as_nanos() > 0);

    // Every key readable, deletion respected.
    assert_eq!(db.get(b"key000007").unwrap(), None);
    for i in (0..3000u32).step_by(37) {
        if i == 7 {
            continue;
        }
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap().as_deref(),
            Some(&value[..]),
            "key{i:06}"
        );
    }
}

#[test]
fn l0_overload_falls_back_to_software() {
    // With N=2, an L0 compaction involving >2 inputs must be executed by
    // the software path (paper Fig. 6's SW Compaction branch).
    let env = Arc::new(MemEnv::new());
    let options = Options {
        env: Arc::clone(&env) as Arc<dyn StorageEnv>,
        write_buffer_size: 16 << 10,
        max_file_size: 16 << 10,
        slowdown_sleep: false,
        ..Default::default()
    };
    let engine = Arc::new(FcaeEngine::new(FcaeConfig::two_input()));
    let db = Db::open_with_engine("/db", options, engine).unwrap();
    // Same key range in every flush → wide L0 overlap → >2 inputs.
    for round in 0..8 {
        for i in 0..200u32 {
            db.put(
                format!("key{i:04}").as_bytes(),
                format!("r{round}").as_bytes(),
            )
            .unwrap();
        }
        db.flush().unwrap();
    }
    db.wait_for_background_quiescence();
    let stats = db.stats();
    assert!(
        stats.sw_fallback_compactions > 0,
        "expected software fallback for wide L0 compactions: {stats:?}"
    );
    // Data still correct.
    for i in (0..200u32).step_by(11) {
        assert_eq!(
            db.get(format!("key{i:04}").as_bytes()).unwrap(),
            Some(b"r7".to_vec())
        );
    }
}

/// The analytic steady-state speed (used by the system simulator) and the
/// functional kernel's measured speed must agree: they are two views of
/// the same cycle model.
#[test]
fn analytic_and_functional_speeds_agree() {
    use fcae::PipelineModel;

    for (v, value_len) in [(16u32, 128usize), (16, 512), (64, 2048), (8, 256)] {
        let cfg = FcaeConfig::two_input().with_v(v);
        // Functional: real merge, incompressible values.
        let env = MemEnv::new();
        fn noise(seed: u64, len: usize) -> Vec<u8> {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect()
        }
        let mk = |path: &str, base: u64| {
            // 16-byte user keys => 24-byte internal keys, matching the
            // analytic model's L_key.
            let entries: Vec<_> = (0..2_000u32)
                .map(|i| {
                    (
                        format!("{i:016}"),
                        base + u64::from(i),
                        ValueType::Value,
                        noise(base + u64::from(i), value_len),
                    )
                })
                .collect();
            build_table(&env, path, &entries)
        };
        let inputs = vec![
            CompactionInput {
                tables: vec![mk(&format!("/ca{v}{value_len}"), 10_000)],
            },
            CompactionInput {
                tables: vec![mk(&format!("/cb{v}{value_len}"), 1)],
            },
        ];
        let engine = FcaeEngine::new(cfg);
        let factory = MemFactory {
            env: env.clone(),
            prefix: "cons",
            counter: Default::default(),
        };
        engine.compact(&request(inputs, true), &factory).unwrap();
        let functional = engine.last_report().compaction_speed_mb_s;

        let analytic = PipelineModel::new(cfg).steady_state_speed_mb_s(24, value_len);
        let ratio = functional / analytic;
        assert!(
            (0.7..=1.4).contains(&ratio),
            "V={v} Lv={value_len}: functional {functional:.0} vs analytic {analytic:.0} (ratio {ratio:.2})"
        );
    }
}
