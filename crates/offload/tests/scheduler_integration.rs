//! End-to-end equivalence: the same workload through a serial CPU store,
//! a single-slot offload service, and four stores sharing a four-slot
//! offload service with injected device faults must leave byte-identical
//! key-value state.
//!
//! This is the acceptance test for the offload scheduler: correctness is
//! defined as "indistinguishable from the serial CPU run", no matter how
//! many engines ran concurrently or how many jobs were retried on the
//! host after a fault.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fcae::FcaeConfig;
use lsm::compaction::{
    CompactionEngine, CompactionOutcome, CompactionRequest, OutputFileFactory, WritableFile,
};
use lsm::filename::{parse_file_name, FileType};
use lsm::{Db, Options};
use offload::{DeviceFaultKind, OffloadConfig, OffloadService};
use sstable::env::{MemEnv, StorageEnv};

/// Options small enough that the workload spans several levels.
fn small_options() -> Options {
    Options {
        env: Arc::new(MemEnv::new()) as Arc<dyn StorageEnv>,
        slowdown_sleep: false,
        write_buffer_size: 64 << 10,
        max_file_size: 16 << 10,
        level1_max_bytes: 32 << 10,
        ..Default::default()
    }
}

/// A deterministic multi-level workload: scattered writes, overwrites and
/// deletes, across a key space large enough to push data past L1.
fn run_workload(db: &Db) {
    for round in 0..10u32 {
        for i in 0..6000u32 {
            let key = format!("key{:06}", (i.wrapping_mul(7919) + round * 13) % 18000);
            let value = format!("value-{round}-{i}-{:0>100}", i);
            db.put(key.as_bytes(), value.as_bytes()).unwrap();
        }
        for i in (0..6000u32).step_by(17) {
            let key = format!("key{:06}", (i.wrapping_mul(7919) + round * 13) % 18000);
            db.delete(key.as_bytes()).unwrap();
        }
    }
    db.flush().unwrap();
}

fn dump(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    db.scan(b"", None, usize::MAX).unwrap()
}

#[test]
fn offload_state_matches_serial_cpu_run() {
    // Reference: plain CPU engine (fully serial).
    let serial = Db::open("/db", small_options()).unwrap();
    run_workload(&serial);
    let expect = dump(&serial);
    assert!(expect.len() > 5000, "workload too small: {}", expect.len());
    assert!(
        serial.level_file_counts().iter().skip(2).any(|&n| n > 0),
        "workload must reach levels >= 2: {:?}",
        serial.level_file_counts()
    );

    // Single-slot service: every compaction goes through the scheduler.
    // The 2-input device rejects every L0 job (too many inputs), so this
    // run also exercises the oversized-to-CPU path.
    let svc1 = Arc::new(OffloadService::with_slots(
        FcaeConfig::two_input(),
        1,
        OffloadConfig::default(),
    ));
    let engine1 = Arc::clone(&svc1) as Arc<dyn CompactionEngine>;
    let db1 = Db::open_with_engine("/db", small_options(), engine1).unwrap();
    run_workload(&db1);
    assert_eq!(dump(&db1), expect, "K=1 service diverged from serial CPU");
    let m1 = svc1.metrics();
    assert!(m1.jobs_submitted > 0);
    assert!(m1.fpga_jobs + m1.cpu_jobs() == m1.jobs_submitted);

    // The server's shape: four stores on one four-slot service, each
    // through its own shard handle and written from its own thread, and
    // every third device dispatch faulting. A store runs one compaction
    // at a time, so the slots overlap jobs of different stores. The
    // scheduler must retry on the CPU without losing or duplicating a
    // single key in any store.
    let svc4 = Arc::new(OffloadService::with_slots(
        FcaeConfig::nine_input(),
        4,
        OffloadConfig {
            wait_budget: std::time::Duration::from_secs(2),
        },
    ));
    svc4.faults().fail_every(3);
    let stores: Vec<Db> = (0..4)
        .map(|shard| {
            let engine = Arc::new(svc4.shard_handle(shard)) as Arc<dyn CompactionEngine>;
            Db::open_with_engine("/db", small_options(), engine).unwrap()
        })
        .collect();
    std::thread::scope(|s| {
        for db in &stores {
            s.spawn(move || run_workload(db));
        }
    });
    for (shard, db) in stores.iter().enumerate() {
        assert_eq!(
            dump(db),
            expect,
            "store {shard} on the K=4 service with faults diverged"
        );
    }

    let m4 = svc4.metrics();
    assert!(m4.jobs_submitted > 0, "{m4:?}");
    assert!(m4.device_faults > 0, "fault injection never fired: {m4:?}");
    assert_eq!(
        m4.device_faults, m4.cpu_retries_after_fault,
        "every fault must be retried on the CPU: {m4:?}"
    );
    assert!(
        m4.fpga_jobs > 0,
        "no job ever completed on the device: {m4:?}"
    );
    // The acceptance bar: a 4-slot service shared by four stores on a
    // multi-level workload keeps more than one compaction in flight at
    // once.
    assert!(
        m4.max_jobs_in_flight > 1,
        "scheduler never overlapped compactions: {m4:?}"
    );
}

/// CPU-path jobs of about 12 MB, oversized for the device, leave the
/// state of a serial run whose jobs each read about 2 MiB.
#[test]
fn large_cpu_fallback_jobs_match_the_serial_run() {
    // ~14 MB of uncompressed pairs, every flush spanning the whole key
    // range so L0 files overlap each other.
    let options = |write_buffer_size: usize| Options {
        write_buffer_size,
        max_file_size: 256 << 10,
        level1_max_bytes: 1 << 20,
        compression: sstable::format::CompressionType::None,
        ..small_options()
    };
    let workload = |db: &Db| {
        for i in 0..14_000u32 {
            let key = format!("key{:06}", i.wrapping_mul(7919) % 12_000);
            let value = format!("value-{i}-{:0>1000}", i);
            db.put(key.as_bytes(), value.as_bytes()).unwrap();
        }
        db.flush().unwrap();
        db.wait_for_background_quiescence();
    };

    // Reference: 512 KiB memtables, so an L0 job reads about 2 MiB.
    let serial = Db::open("/db", options(512 << 10)).unwrap();
    workload(&serial);
    let expect = dump(&serial);
    assert_eq!(expect.len(), 12_000);

    // 3 MiB memtables: the first L0 job has four ~3 MB inputs, which the
    // 2-input device rejects as oversized.
    let svc = Arc::new(OffloadService::with_slots(
        FcaeConfig::two_input(),
        1,
        OffloadConfig::default(),
    ));
    let engine = Arc::clone(&svc) as Arc<dyn CompactionEngine>;
    let db = Db::open_with_engine("/db", options(3 << 20), engine).unwrap();
    workload(&db);
    assert_eq!(dump(&db), expect, "CPU fallback diverged from serial");

    let m = svc.metrics();
    assert!(m.cpu_fallback_oversized > 0, "no job fell back: {m:?}");
}

/// Mid-job faults are the nasty class: the device engine already ran
/// against the real output factory before the fault fired, so the
/// scheduler has on-disk outputs to unwind. The run must still be
/// byte-identical to a serial CPU run, the per-kind counters must
/// account for every fault, and the discarded outputs must end up
/// swept by the store's obsolete-file GC rather than leaking.
#[test]
fn midjob_faults_discard_outputs_and_stay_correct() {
    let serial = Db::open("/db", small_options()).unwrap();
    run_workload(&serial);
    let expect = dump(&serial);

    let env = Arc::new(MemEnv::new());
    let svc = Arc::new(OffloadService::with_slots(
        FcaeConfig::nine_input(),
        2,
        OffloadConfig::default(),
    ));
    // Overlapping schedules: every 3rd dispatch faults mid-job, every
    // 7th transiently (transient wins when both land on the same
    // dispatch). Only the mid-job kind leaves device-side outputs to
    // discard.
    svc.faults().fail_every_kind(DeviceFaultKind::MidJob, 3);
    svc.faults().fail_every_kind(DeviceFaultKind::Transient, 7);
    let engine = Arc::clone(&svc) as Arc<dyn CompactionEngine>;
    let options = Options {
        env: Arc::clone(&env) as Arc<dyn StorageEnv>,
        ..small_options()
    };
    let db = Db::open_with_engine("/db", options, engine).unwrap();
    run_workload(&db);
    assert_eq!(dump(&db), expect, "mid-job faults corrupted the state");

    let m = svc.metrics();
    assert!(m.faults_midjob > 0, "mid-job schedule never fired: {m:?}");
    assert!(
        m.midjob_outputs_discarded > 0,
        "mid-job faults must discard device outputs: {m:?}"
    );
    assert_eq!(
        m.device_faults,
        m.faults_transient + m.faults_midjob,
        "per-kind counters must partition the total: {m:?}"
    );
    assert_eq!(
        m.device_faults, m.cpu_retries_after_fault,
        "every mid-job fault must be retried on the CPU: {m:?}"
    );

    assert_no_orphan_tables(&db, &env);
}

/// Exactly-once cleanup: the GC pass after each compaction sweeps the
/// outputs of discarded device attempts, so once the store is quiescent
/// every table file in the directory is referenced by the live version.
fn assert_no_orphan_tables(db: &Db, env: &MemEnv) {
    db.wait_for_background_quiescence();
    let on_disk: Vec<String> = env
        .list_dir(std::path::Path::new("/db"))
        .unwrap()
        .into_iter()
        .filter(|n| matches!(parse_file_name(n), Some(FileType::Table(_))))
        .collect();
    let live = db.level_file_counts().iter().sum::<usize>();
    assert_eq!(
        on_disk.len(),
        live,
        "discarded device outputs leaked: {on_disk:?}"
    );
}

/// Runs every job through `svc` with an output factory whose second
/// output of a job fails, once: the first job to need a second table
/// fails after the engine wrote its first.
struct SecondOutputFailsOnce {
    svc: Arc<OffloadService>,
    armed: AtomicBool,
}

struct SecondOutputFails<'a> {
    inner: &'a dyn OutputFileFactory,
    armed: &'a AtomicBool,
    made: AtomicU64,
}

impl OutputFileFactory for SecondOutputFails<'_> {
    fn new_output(&self) -> lsm::Result<(u64, Box<dyn WritableFile>)> {
        if self.made.fetch_add(1, Ordering::SeqCst) == 1 && self.armed.swap(false, Ordering::SeqCst)
        {
            return Err(lsm::Error::Io(std::io::Error::other(
                "injected failure creating a job's second output",
            )));
        }
        self.inner.new_output()
    }
}

impl CompactionEngine for SecondOutputFailsOnce {
    fn name(&self) -> &str {
        "second-output-fails-once"
    }

    fn max_inputs(&self) -> usize {
        self.svc.max_inputs()
    }

    fn compact(
        &self,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
    ) -> lsm::Result<CompactionOutcome> {
        let out = SecondOutputFails {
            inner: out,
            armed: &self.armed,
            made: AtomicU64::new(0),
        };
        self.svc.compact(req, &out)
    }
}

/// The device engine writes each output table as it completes, so a real
/// engine error can come after it created files. Here the first table is
/// written and synced when creating the second fails: the service must
/// count that table among the discarded outputs, the CPU retry must
/// leave the serial run's state, and the table must be swept.
#[test]
fn a_device_job_failing_after_its_first_table_counts_and_sweeps_it() {
    let serial = Db::open("/db", small_options()).unwrap();
    run_workload(&serial);
    let expect = dump(&serial);

    let env = Arc::new(MemEnv::new());
    // One slot: every job that fits the device runs on it.
    let svc = Arc::new(OffloadService::with_slots(
        FcaeConfig::nine_input(),
        1,
        OffloadConfig::default(),
    ));
    let engine = Arc::new(SecondOutputFailsOnce {
        svc: Arc::clone(&svc),
        armed: AtomicBool::new(true),
    });
    let options = Options {
        env: Arc::clone(&env) as Arc<dyn StorageEnv>,
        ..small_options()
    };
    let db = Db::open_with_engine(
        "/db",
        options,
        Arc::clone(&engine) as Arc<dyn CompactionEngine>,
    )
    .unwrap();
    run_workload(&db);
    assert!(
        !engine.armed.load(Ordering::SeqCst),
        "the failure never fired"
    );
    assert_eq!(dump(&db), expect, "the CPU retry diverged from serial");

    let m = svc.metrics();
    assert_eq!(m.device_faults, 1, "{m:?}");
    assert_eq!(
        m.faults_transient, 1,
        "real engine errors classify as transient: {m:?}"
    );
    assert_eq!(m.cpu_retries_after_fault, 1, "{m:?}");
    assert!(
        m.midjob_outputs_discarded >= 1,
        "the table written before the failure was not counted: {m:?}"
    );
    assert_no_orphan_tables(&db, &env);
}

#[test]
fn every_fault_is_retried_without_data_loss() {
    // Fault *every* device dispatch: the store degrades to CPU-only but
    // must stay correct.
    let svc = Arc::new(OffloadService::with_slots(
        FcaeConfig::nine_input(),
        2,
        OffloadConfig::default(),
    ));
    svc.faults().fail_every(1);
    let engine = Arc::clone(&svc) as Arc<dyn CompactionEngine>;
    let db = Db::open_with_engine("/db", small_options(), engine).unwrap();
    for i in 0..4000u32 {
        db.put(
            format!("k{:05}", (i * 31) % 5000).as_bytes(),
            format!("v{i:0>64}").as_bytes(),
        )
        .unwrap();
    }
    db.flush().unwrap();
    let m = svc.metrics();
    assert_eq!(m.fpga_jobs, 0, "all dispatches fault: {m:?}");
    assert_eq!(m.device_faults, m.cpu_retries_after_fault, "{m:?}");
    // Spot-check latest versions survived.
    for i in (0..4000u32).rev().take(500) {
        let key = format!("k{:05}", (i * 31) % 5000);
        let got = db.get(key.as_bytes()).unwrap();
        assert!(got.is_some(), "lost {key}");
    }
}

/// One shared observability bundle must see both sides of the stack:
/// store-level metrics (flushes, put latency, per-level compaction
/// counters) and scheduler-level metrics (job counts, dispatch and
/// fault events), with the registry mirrors agreeing with the
/// scheduler's own `OffloadMetrics`.
#[test]
fn shared_obs_bundle_records_store_and_scheduler() {
    let bundle = obs::Obs::wall();
    let svc = Arc::new(
        OffloadService::with_slots(FcaeConfig::nine_input(), 2, OffloadConfig::default())
            .with_obs(Arc::clone(&bundle)),
    );
    svc.faults().fail_every(5);
    let engine = Arc::clone(&svc) as Arc<dyn CompactionEngine>;
    let mut options = small_options();
    options.obs = Some(Arc::clone(&bundle));
    let db = Db::open_with_engine("/db", options, engine).unwrap();
    run_workload(&db);
    db.wait_for_background_quiescence();

    // Registry mirrors agree with the scheduler's own metrics.
    let m = svc.metrics();
    assert!(m.jobs_submitted > 0, "workload must offload jobs: {m:?}");
    let reg = &bundle.registry;
    assert_eq!(
        reg.counter_value("offload.jobs_submitted"),
        Some(m.jobs_submitted)
    );
    assert_eq!(reg.counter_value("offload.fpga_jobs"), Some(m.fpga_jobs));
    assert_eq!(
        reg.counter_value("offload.device_faults"),
        Some(m.device_faults)
    );
    // Injected faults skip the engine, so busy time is recorded exactly
    // once per job that actually ran on the device.
    let busy = reg
        .histogram_snapshot("offload.engine_busy_micros")
        .unwrap();
    assert_eq!(busy.count, m.fpga_jobs);

    // Device jobs publish their per-module cycle attribution.
    if m.fpga_jobs > 0 {
        let device_cycles: u64 = [
            "fcae.cycles.decoder",
            "fcae.cycles.comparer",
            "fcae.cycles.transfer",
            "fcae.cycles.encoder",
            "fcae.cycles.axi",
            "fcae.cycles.overhead",
            "fcae.cycles.memory",
        ]
        .iter()
        .map(|n| reg.counter_value(n).unwrap())
        .sum();
        assert!(device_cycles > 0, "cycle attribution must be non-empty");
    }

    // Store-side metrics land on the same registry.
    assert!(reg.histogram_snapshot("lsm.put_micros").unwrap().count > 0);
    assert!(reg.counter_value("lsm.flush.count").unwrap() > 0);
    let stats = db.property("lsm.stats").unwrap();
    assert!(stats.contains("flushes="), "stats report:\n{stats}");
    let text = db.property("lsm.metrics").unwrap();
    assert!(text.contains("offload.jobs_submitted"));

    // The trace interleaves store and scheduler events.
    let events = bundle.trace.snapshot();
    let has = |f: &dyn Fn(&obs::EventKind) -> bool| events.iter().any(|e| f(&e.kind));
    assert!(has(&|k| matches!(k, obs::EventKind::Flush { .. })));
    assert!(has(&|k| matches!(
        k,
        obs::EventKind::EngineDispatch { engine: "fcae", .. }
    )));
    assert!(has(&|k| matches!(k, obs::EventKind::EngineFault { .. })));
}
