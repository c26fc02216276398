//! `db_bench` — LevelDB's benchmark tool, re-implemented against the real
//! store (not the simulator), with engine selection.
//!
//! ```sh
//! db_bench --benchmarks fillseq,fillrandom,readrandom,overwrite \
//!          --num 100000 --value-size 128 --engine fcae --n-inputs 9
//! ```
//!
//! `--threads N` runs each benchmark with N concurrent client threads
//! sharing the store (the op count is split across threads), exercising
//! leader-elected WAL group commit: one leader stamps, logs and applies
//! each group for its followers. `--sync` turns on per-write WAL
//! syncs, where group commit amortizes the fsync across writers. The
//! `ycsb-a` benchmark runs the 50/50 read/update zipfian mix.
//!
//! `--fault-every N` injects a transient device fault every Nth
//! compaction dispatch (plus a mid-job timeout every 3Nth) through the
//! offload scheduler; combine with `--stats` to see the
//! `offload.fault.*` and `lsm.bg-error.*` counters after the run.
//!
//! Unlike the simulator-backed benches (which model the paper's 2019
//! hardware), this measures *this machine's* wall clock — useful for
//! regression testing the real store and for comparing the functional
//! engines' host-side costs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fcae::{FcaeConfig, FcaeEngine};
use lsm::compaction::{CompactionEngine, CpuCompactionEngine};
use lsm::{Db, Options};
use offload::{DeviceFaultKind, OffloadConfig, OffloadService};
use simkit::SplitMix64;
use workloads::{DbBenchWorkload, KeyFormat, OpKind, ValueGenerator, YcsbRunner, YcsbWorkload};

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Cpu,
    Fcae,
}

#[derive(Clone, Copy)]
enum Bench {
    Standard(DbBenchWorkload),
    /// 50% read / 50% update, zipfian (paper Table IX workload A).
    YcsbA,
}

/// Every `--benchmarks` name; the first three are the default run.
const BENCHES: [(&str, Bench); 5] = [
    ("fillseq", Bench::Standard(DbBenchWorkload::FillSeq)),
    ("fillrandom", Bench::Standard(DbBenchWorkload::FillRandom)),
    ("readrandom", Bench::Standard(DbBenchWorkload::ReadRandom)),
    ("overwrite", Bench::Standard(DbBenchWorkload::Overwrite)),
    ("ycsb-a", Bench::YcsbA),
];

fn parse_bench(name: &str) -> Result<(&'static str, Bench), String> {
    BENCHES
        .iter()
        .find(|(known, _)| *known == name)
        .copied()
        .ok_or_else(|| format!("unknown benchmark {name}"))
}

struct Config {
    benchmarks: Vec<(&'static str, Bench)>,
    num: u64,
    value_size: usize,
    key_size: usize,
    engine: Engine,
    n_inputs: usize,
    db_path: PathBuf,
    /// Concurrent client threads per benchmark (ops are split evenly).
    threads: usize,
    /// Sync the WAL on every write (per-commit fsync, amortized by
    /// group commit when `threads > 1`).
    sync: bool,
    /// Dump the store's stats/metrics/trace exports after the run.
    stats: bool,
    /// Inject a transient device fault every Nth compaction dispatch (and
    /// a mid-job timeout every 3Nth), exercising the CPU-fallback path
    /// under load. 0 disables injection.
    fault_every: u64,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        benchmarks: BENCHES[..3].to_vec(),
        num: 100_000,
        value_size: 128,
        key_size: 16,
        engine: Engine::Cpu,
        n_inputs: 9,
        db_path: std::env::temp_dir().join("fcae-db-bench"),
        threads: 1,
        sync: false,
        stats: false,
        fault_every: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--stats" {
            cfg.stats = true;
            i += 1;
            continue;
        }
        if args[i] == "--sync" {
            cfg.sync = true;
            i += 1;
            continue;
        }
        let (flag, value) = match args[i].split_once('=') {
            Some((f, v)) => (f.to_string(), v.to_string()),
            None => {
                let f = args[i].clone();
                i += 1;
                let v = args
                    .get(i)
                    .cloned()
                    .ok_or(format!("missing value for {f}"))?;
                (f, v)
            }
        };
        match flag.as_str() {
            "--benchmarks" => {
                cfg.benchmarks = value
                    .split(',')
                    .map(parse_bench)
                    .collect::<Result<_, _>>()?;
            }
            "--num" => cfg.num = value.parse().map_err(|e| format!("--num: {e}"))?,
            "--value-size" => {
                cfg.value_size = value.parse().map_err(|e| format!("--value-size: {e}"))?;
            }
            "--key-size" => cfg.key_size = value.parse().map_err(|e| format!("--key-size: {e}"))?,
            "--threads" => {
                cfg.threads = value.parse().map_err(|e| format!("--threads: {e}"))?;
                if cfg.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--engine" => {
                cfg.engine = match value.as_str() {
                    "cpu" => Engine::Cpu,
                    "fcae" => Engine::Fcae,
                    other => return Err(format!("unknown engine {other}")),
                };
            }
            "--n-inputs" => cfg.n_inputs = value.parse().map_err(|e| format!("--n-inputs: {e}"))?,
            "--db" => cfg.db_path = PathBuf::from(value),
            "--fault-every" => {
                cfg.fault_every = value.parse().map_err(|e| format!("--fault-every: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(cfg)
}

fn device_config(cfg: &Config) -> FcaeConfig {
    if cfg.n_inputs > 2 {
        FcaeConfig::nine_input().with_n(cfg.n_inputs)
    } else {
        FcaeConfig::two_input()
    }
}

fn open_db(cfg: &Config) -> (Db, Option<Arc<OffloadService>>) {
    let _ = std::fs::remove_dir_all(&cfg.db_path);
    let bundle = obs::Obs::wall();
    let options = Options {
        slowdown_sleep: true,
        sync_writes: cfg.sync,
        obs: Some(Arc::clone(&bundle)),
        ..Default::default()
    };
    // Fault injection routes compactions through the offload scheduler so
    // every injected fault exercises the real fallback-and-retry path.
    if cfg.fault_every > 0 {
        if cfg.engine == Engine::Cpu {
            eprintln!("--fault-every targets the device path; using the offload engine");
        }
        let svc = Arc::new(
            OffloadService::new(device_config(cfg), OffloadConfig::default()).with_obs(bundle),
        );
        svc.faults().fail_every(cfg.fault_every);
        svc.faults()
            .fail_every_kind(DeviceFaultKind::MidJobTimeout, cfg.fault_every * 3);
        let engine: Arc<dyn CompactionEngine> = Arc::clone(&svc) as _;
        let db = Db::open_with_engine(&cfg.db_path, options, engine).expect("open db");
        return (db, Some(svc));
    }
    let engine: Arc<dyn CompactionEngine> = match cfg.engine {
        Engine::Cpu => Arc::new(CpuCompactionEngine),
        Engine::Fcae => Arc::new(FcaeEngine::new(device_config(cfg))),
    };
    (
        Db::open_with_engine(&cfg.db_path, options, engine).expect("open db"),
        None,
    )
}

fn run_benchmark(name: &str, bench: Bench, cfg: &Config, db: &Db) {
    let kf = KeyFormat {
        key_len: cfg.key_size,
    };
    let pair_bytes = (cfg.key_size + cfg.value_size) as u64;
    let threads = cfg.threads as u64;
    let per_thread = (cfg.num / threads).max(1);
    let total = per_thread * threads;

    let start = Instant::now();
    let found = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let bench = &bench;
            let found = &found;
            s.spawn(move || {
                let mut values = ValueGenerator::new(301 + t, 0.5);
                let mut rng = SplitMix64::new(1234 + t.wrapping_mul(0x9e37_79b9));
                match bench {
                    Bench::Standard(w) => {
                        for i in 0..per_thread {
                            // Thread t owns op numbers [t*per_thread,
                            // (t+1)*per_thread): fillseq stripes stay
                            // sequential and disjoint; random workloads
                            // share the whole key space.
                            let op = t * per_thread + i;
                            let k = w.key_number(op, total, &mut rng);
                            let key = kf.format(k);
                            match w {
                                DbBenchWorkload::ReadRandom => {
                                    if db.get(&key).expect("get").is_some() {
                                        found.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                _ => db.put(&key, values.generate(cfg.value_size)).expect("put"),
                            }
                        }
                    }
                    Bench::YcsbA => {
                        let mut runner = YcsbRunner::new(YcsbWorkload::A, total, 42 + t);
                        for _ in 0..per_thread {
                            let op = runner.next_op();
                            let key = kf.format(op.record);
                            match op.kind {
                                OpKind::Read => {
                                    if db.get(&key).expect("get").is_some() {
                                        found.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                _ => db.put(&key, values.generate(cfg.value_size)).expect("put"),
                            }
                        }
                    }
                }
            });
        }
    });
    let read_only = matches!(bench, Bench::Standard(DbBenchWorkload::ReadRandom));
    if !read_only {
        db.flush().expect("flush");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let micros_per_op = elapsed * 1e6 / total as f64;
    let ops_s = total as f64 / elapsed;
    let mb_s = total as f64 * pair_bytes as f64 / elapsed / 1e6;
    let found = found.load(Ordering::Relaxed);
    match bench {
        Bench::Standard(DbBenchWorkload::ReadRandom) => println!(
            "{name:<12} : {micros_per_op:>9.3} micros/op; {ops_s:>9.0} ops/s; ({found} of {total} found)"
        ),
        Bench::YcsbA => println!(
            "{name:<12} : {micros_per_op:>9.3} micros/op; {ops_s:>9.0} ops/s; ({found} reads hit)"
        ),
        _ => println!(
            "{name:<12} : {micros_per_op:>9.3} micros/op; {ops_s:>9.0} ops/s; {mb_s:>7.1} MB/s"
        ),
    }
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "Keys: {} bytes each; Values: {} bytes each; Entries: {}; engine: {}; \
         threads: {}; sync: {}",
        cfg.key_size,
        cfg.value_size,
        cfg.num,
        match cfg.engine {
            Engine::Cpu => "cpu",
            Engine::Fcae => "fcae",
        },
        cfg.threads,
        cfg.sync
    );
    println!("------------------------------------------------");
    let (db, offload_svc) = open_db(&cfg);
    for (name, bench) in &cfg.benchmarks {
        run_benchmark(name, *bench, &cfg, &db);
    }
    // Flush and drain background work BEFORE reading stats: compactions
    // queued by the last benchmark would otherwise be counted by some
    // exports and missed by others, making `--stats` non-reproducible.
    // (Flush may fail if a fault run left the store read-only — the
    // exports below should still print.)
    let _ = db.flush();
    db.wait_for_background_quiescence();
    let stats = db.stats();
    println!("------------------------------------------------");
    println!(
        "flushes {} | engine compactions {} | sw fallbacks {} | trivial {}",
        stats.flushes, stats.engine_compactions, stats.sw_fallback_compactions, stats.trivial_moves
    );
    println!(
        "compaction io {:.1} MB read / {:.1} MB written | stall {:?}",
        stats.compaction_bytes_read as f64 / 1e6,
        stats.compaction_bytes_written as f64 / 1e6,
        stats.stall_time
    );
    if stats.modeled_kernel_time.as_nanos() > 0 {
        println!(
            "modeled device time: kernel {:?}, PCIe {:?}",
            stats.modeled_kernel_time, stats.modeled_transfer_time
        );
    }
    if let Some(svc) = &offload_svc {
        let m = svc.metrics();
        println!(
            "device faults {} (transient {} / midjob-timeout {} / midjob-poisoned {}) | \
             cpu retries {} | outputs discarded {}",
            m.device_faults,
            m.faults_transient,
            m.faults_midjob_timeout,
            m.faults_midjob_poisoned,
            m.cpu_retries_after_fault,
            m.midjob_outputs_discarded,
        );
    }
    if cfg.stats {
        for prop in ["lsm.stats", "lsm.metrics", "lsm.trace"] {
            println!("------------------------------------------------");
            println!("[{prop}]");
            if let Some(text) = db.property(prop) {
                print!("{text}");
                if !text.ends_with('\n') {
                    println!();
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.db_path);
}
