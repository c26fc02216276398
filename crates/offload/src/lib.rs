//! Compaction offload service: a scheduling layer between the store and
//! its engines.
//!
//! The paper attaches *one* FCAE instance per card, but its Table VII
//! resource numbers show smaller configurations leave most of the KCU1500
//! unused. This crate exploits that headroom: it derives how many engine
//! instances fit the card (`fcae::resources::ResourceModel::max_instances`),
//! instantiates that many [`fcae::FcaeEngine`] slots, and schedules the
//! store's compactions across them:
//!
//! * **Hybrid dispatch** — the one place the paper's Fig. 6 is decided:
//!   a store runs every compaction it picks on its engine, and reaches
//!   the device only through this service. Jobs with more inputs than
//!   the device's `N` go to the host CPU immediately (Fig. 6's software
//!   path); any other job takes a free slot, or waits up to a
//!   configurable budget for one and then falls back to the CPU.
//!   Waiters are granted in no particular order: which compaction runs
//!   first is the store's picker's decision.
//! * **Fault handling** — injected (or real) device faults are retried on
//!   the CPU. *Transient* faults fire before the engine touches the
//!   output-file factory, so those retries never duplicate or lose keys;
//!   *mid-job* faults fire after the engine produced real outputs, and
//!   a real engine error can leave the tables it already wrote — the
//!   scheduler discards the outcome, counts the files the attempt
//!   created (the store's pending-outputs GC sweeps the orphans) and the
//!   CPU retry installs a fresh set of files exactly once.
//! * **Backpressure** — the count of jobs waiting for a slot surfaces
//!   to the store as [`lsm::WritePressure`], which `lsm::Db` turns into
//!   the same slowdown/stall mechanics as its L0 triggers. Writers read
//!   that count without taking the scheduler's lock.
//!
//! The service implements [`lsm::CompactionEngine`], so
//! `Db::open_with_engine(dir, opts, Arc::new(OffloadService::new(..)))`
//! is all it takes. A store runs one compaction at a time, so several
//! slots are kept busy by several stores sharing one service through
//! [`OffloadService::shard_handle`].
//!
//! The slot table (`slots.rs`) is the pure scheduling core: its lock and
//! condvar are [`lsm::sync_shim`] locks, like the store's, so under
//! `RUSTFLAGS="--cfg loom"` the model suites drive the scheduler's real
//! lock protocol through loom's primitives.

pub mod fault;
pub mod metrics;
mod slots;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fcae::{FcaeConfig, FcaeEngine, ResourceModel};
use lsm::compaction::{
    CompactionEngine, CompactionOutcome, CompactionRequest, CpuCompactionEngine, OutputFileFactory,
    WritableFile, WritePressure,
};

pub use fault::{DeviceFaultKind, FaultInjector};
pub use metrics::OffloadMetrics;
use metrics::OffloadObs;
use slots::{Slot, SlotTable};

/// Scheduler tunables.
#[derive(Debug, Clone, Copy)]
pub struct OffloadConfig {
    /// How long a job waits for a free slot before falling back to the
    /// CPU (hybrid dispatch).
    pub wait_budget: Duration,
}

impl Default for OffloadConfig {
    fn default() -> Self {
        OffloadConfig {
            wait_budget: Duration::from_millis(50),
        }
    }
}

/// The offload scheduler; a drop-in [`lsm::CompactionEngine`].
pub struct OffloadService {
    device: FcaeConfig,
    engines: Vec<FcaeEngine>,
    slots: SlotTable,
    faults: FaultInjector,
    obs: OffloadObs,
    /// Jobs inside the service (any execution path).
    jobs_in_flight: AtomicU64,
    /// Trace ids handed out so far: the latest job's id.
    job_ids: AtomicU64,
}

impl OffloadService {
    /// Creates a service with as many engine instances of `device` as fit
    /// the card per the Table VII resource model (at least one);
    /// [`OffloadService::with_slots`] picks the count instead.
    pub fn new(device: FcaeConfig, config: OffloadConfig) -> Self {
        let fit = ResourceModel.max_instances(&device);
        Self::with_slots(device, fit, config)
    }

    /// Creates a service with exactly `slots` engine instances (tests and
    /// what-if experiments bypass the resource model this way). It counts
    /// on a private wall-clock bundle until [`OffloadService::with_obs`]
    /// replaces it.
    pub fn with_slots(device: FcaeConfig, slots: usize, config: OffloadConfig) -> Self {
        let slots = slots.max(1);
        let engines = (0..slots).map(|_| FcaeEngine::new(device)).collect();
        OffloadService {
            device,
            engines,
            slots: SlotTable::new(slots, config.wait_budget),
            faults: FaultInjector::new(),
            obs: OffloadObs::new(obs::Obs::wall()),
            jobs_in_flight: AtomicU64::new(0),
            job_ids: AtomicU64::new(0),
        }
    }

    /// Counts and traces on `bundle` instead of the private one:
    /// scheduler counters and histograms register on its registry
    /// (`offload.*` names) and every dispatch/fault/fallback decision is
    /// traced there. Share the bundle with the `lsm::Db` (via
    /// `Options::obs`) for one unified export. Services given the same
    /// bundle share one set of totals.
    pub fn with_obs(mut self, bundle: Arc<obs::Obs>) -> Self {
        self.obs = OffloadObs::new(bundle);
        self
    }

    fn trace(&self, kind: obs::EventKind) {
        self.obs.bundle.event(kind);
    }

    /// Number of engine slots.
    pub fn engine_slots(&self) -> usize {
        self.engines.len()
    }

    /// The device configuration each slot runs.
    pub fn device_config(&self) -> &FcaeConfig {
        &self.device
    }

    /// The fault injector (tests use it to provoke CPU retries).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// The scheduler's totals, read off its bundle's registry.
    pub fn metrics(&self) -> OffloadMetrics {
        self.obs.metrics()
    }

    /// Waits for an engine slot ([`SlotTable::acquire_slot`]), counting
    /// the wait and the busy-slot high-water mark.
    fn acquire_slot(&self) -> Option<Slot<'_>> {
        let asked = Instant::now();
        let slot = self.slots.acquire_slot();
        let waited = asked.elapsed();
        if let Some(slot) = &slot {
            self.obs.max_fpga_in_flight.set_max(slot.busy as u64);
        }
        self.obs.queue_wait_nanos.add(waited.as_nanos() as u64);
        self.obs.queue_wait_micros.record(waited.as_micros() as u64);
        slot
    }

    /// Runs `req` on the host CPU: the software path of Fig. 6, counted
    /// on `fallback` and traced with `reason`.
    fn run_cpu(
        &self,
        fallback: &obs::Counter,
        reason: &'static str,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
        job: u64,
    ) -> lsm::Result<CompactionOutcome> {
        fallback.inc();
        self.trace(obs::EventKind::EngineFallback { job, reason });
        self.trace(obs::EventKind::EngineDispatch {
            job,
            engine: "cpu",
            bytes: req.input_bytes(),
        });
        let t0 = Instant::now();
        let result = CpuCompactionEngine.compact(req, out);
        let busy = t0.elapsed();
        self.obs.cpu_busy_nanos.add(busy.as_nanos() as u64);
        self.obs.cpu_busy_micros.record(busy.as_micros() as u64);
        result
    }

    fn run_job(
        &self,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
        job: u64,
    ) -> lsm::Result<CompactionOutcome> {
        let o = &self.obs;
        // Software path first (Fig. 6): too many inputs for the device.
        if req.inputs.len() > self.device.n_inputs {
            return self.run_cpu(&o.cpu_fallback_oversized, "oversized", req, out, job);
        }
        let Some(slot) = self.acquire_slot() else {
            // Hybrid dispatch: the device is saturated, the host is idle.
            return self.run_cpu(&o.cpu_fallback_budget, "budget", req, out, job);
        };

        self.trace(obs::EventKind::EngineDispatch {
            job,
            engine: "fcae",
            bytes: req.input_bytes(),
        });
        let injected = self.faults.should_fault();
        let device_out = CountingFactory {
            inner: out,
            created: AtomicU64::new(0),
        };
        let result = if injected == Some(DeviceFaultKind::Transient) {
            // Dispatch-time fault: the engine never runs, the factory is
            // never touched, nothing to clean up.
            Err(lsm::Error::Io(std::io::Error::other(
                "injected device fault",
            )))
        } else {
            let t0 = Instant::now();
            let r = self.engines[slot.index].compact(req, &device_out);
            let busy = t0.elapsed();
            o.fpga_busy_nanos.add(busy.as_nanos() as u64);
            o.engine_busy_micros.record(busy.as_micros() as u64);
            let r = r.map(|(outcome, report)| {
                o.record_breakdown(&report.breakdown);
                outcome
            });
            match (r, injected) {
                // Mid-job fault: the engine already ran against the real
                // output factory. Discard the outcome and surface a
                // device error so the CPU retry installs a fresh set of
                // outputs exactly once.
                (Ok(_), Some(DeviceFaultKind::MidJob)) => Err(lsm::Error::Io(
                    std::io::Error::other("injected mid-job device fault"),
                )),
                (r, _) => r,
            }
        };
        drop(slot);

        match result {
            Ok(outcome) => {
                o.fpga_jobs.inc();
                Ok(outcome)
            }
            Err(_) => {
                // Device fault. Every file the attempt created — all of a
                // mid-job injection's outputs, or the tables a failing
                // engine had already written, since the engine writes
                // each table as it completes — is an orphan the store's
                // pending-outputs GC sweeps. Real (non-injected) engine
                // errors classify as transient. Either way the whole job
                // retries on the CPU without losing or duplicating keys.
                o.fault_outputs_discarded
                    .add(device_out.created.load(Ordering::Relaxed));
                o.count_fault(injected.unwrap_or(DeviceFaultKind::Transient));
                self.trace(obs::EventKind::EngineFault { job });
                self.run_cpu(&o.cpu_retries_after_fault, "fault-retry", req, out, job)
            }
        }
    }
}

/// The output factory a device attempt runs against: the store's, plus a
/// count of the files the attempt created, which become orphans if it
/// fails.
struct CountingFactory<'a> {
    inner: &'a dyn OutputFileFactory,
    created: AtomicU64,
}

impl OutputFileFactory for CountingFactory<'_> {
    fn new_output(&self) -> lsm::Result<(u64, Box<dyn WritableFile>)> {
        let output = self.inner.new_output()?;
        self.created.fetch_add(1, Ordering::Relaxed);
        Ok(output)
    }
}

impl CompactionEngine for OffloadService {
    fn name(&self) -> &str {
        "offload"
    }

    fn compact(
        &self,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
    ) -> lsm::Result<CompactionOutcome> {
        self.obs.jobs_submitted.inc();
        // Counts only: no scheduling decision reads them.
        let in_flight = self.jobs_in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.obs.max_jobs_in_flight.set_max(in_flight);
        let job = self.job_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let result = self.run_job(req, out, job);
        self.jobs_in_flight.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn write_pressure(&self) -> WritePressure {
        self.slots.write_pressure()
    }

    /// Value-log GC holds an engine slot while it runs, so a GC pass and
    /// a compaction never overcommit the engines. It waits for its slot
    /// like any job; on wait-budget exhaustion it runs inline instead —
    /// GC loses the contention round but is never starved outright.
    fn run_maintenance(&self, job: &mut dyn FnMut()) {
        self.obs.maintenance_jobs.inc();
        // A granted slot frees when `slot` drops: after the job, or while
        // a panicking job unwinds.
        let slot = self.acquire_slot();
        if slot.is_none() {
            self.obs.maintenance_inline.inc();
        }
        job();
        drop(slot);
    }
}

/// Per-shard view of a shared [`OffloadService`].
///
/// A sharded serving layer opens every shard's `lsm::Db` with its own
/// handle to *one* service, so all shards' compaction jobs contend for
/// the same K engine slots — the multi-tenant regime the paper never
/// measured. The handle adds shard attribution on the service's registry
/// (`offload.shard{i}.jobs`) while every scheduling decision, fallback
/// and fault stays on the service's aggregate `offload.*` metrics.
pub struct ShardOffloadHandle {
    service: Arc<OffloadService>,
    name: String,
    jobs: Arc<obs::Counter>,
}

impl OffloadService {
    /// A [`CompactionEngine`] for shard `shard` backed by this service.
    /// Jobs submitted through the handle share the service's slots and
    /// wait budget with every other shard's.
    pub fn shard_handle(self: &Arc<Self>, shard: usize) -> ShardOffloadHandle {
        let r = &self.obs.bundle.registry;
        ShardOffloadHandle {
            service: Arc::clone(self),
            name: format!("offload.shard{shard}"),
            jobs: r.counter(&format!("offload.shard{shard}.jobs")),
        }
    }
}

impl CompactionEngine for ShardOffloadHandle {
    fn name(&self) -> &str {
        &self.name
    }

    fn compact(
        &self,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
    ) -> lsm::Result<CompactionOutcome> {
        self.jobs.inc();
        self.service.compact(req, out)
    }

    fn write_pressure(&self) -> WritePressure {
        self.service.write_pressure()
    }

    fn run_maintenance(&self, job: &mut dyn FnMut()) {
        self.service.run_maintenance(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_count_comes_from_the_resource_model() {
        // The full-width 2-input engine packs twice on the KCU1500 once
        // the shared shell is factored out (see fcae::resources).
        let svc = OffloadService::new(FcaeConfig::two_input(), OffloadConfig::default());
        assert_eq!(svc.engine_slots(), 2);
        // The narrow 9-input design fills the card: one slot.
        let svc = OffloadService::new(FcaeConfig::nine_input(), OffloadConfig::default());
        assert_eq!(svc.engine_slots(), 1);
        // An explicit count wins.
        let svc = OffloadService::with_slots(FcaeConfig::two_input(), 1, OffloadConfig::default());
        assert_eq!(svc.engine_slots(), 1);
    }

    #[test]
    fn maintenance_occupies_and_releases_a_slot() {
        let svc = OffloadService::with_slots(FcaeConfig::two_input(), 1, OffloadConfig::default());
        let mut ran = false;
        svc.run_maintenance(&mut || {
            ran = true;
            assert!(
                svc.slots.state.lock().free_slots.is_empty(),
                "GC must hold the slot while it runs"
            );
        });
        assert!(ran);
        let st = svc.slots.state.lock();
        assert_eq!(st.free_slots.len(), 1, "slot returned");
        assert_eq!(svc.metrics().maintenance_jobs, 1);
        assert_eq!(svc.metrics().maintenance_inline, 0);
    }

    #[test]
    fn maintenance_runs_inline_when_slots_stay_busy() {
        let cfg = OffloadConfig {
            wait_budget: Duration::ZERO,
        };
        let svc = OffloadService::with_slots(FcaeConfig::two_input(), 1, cfg);
        // Occupy the only slot, as run_job would.
        let held = svc.acquire_slot().expect("idle slot");
        let mut ran = false;
        svc.run_maintenance(&mut || ran = true);
        assert!(ran, "GC still runs, just not on a slot");
        assert_eq!(svc.metrics().maintenance_jobs, 1);
        assert_eq!(svc.metrics().maintenance_inline, 1);
        drop(held);
        assert_eq!(svc.slots.state.lock().free_slots.len(), 1);
    }

    /// The slot a maintenance job holds is a guard: a job that panics
    /// frees it while unwinding instead of leaking it for good.
    #[test]
    fn a_panicking_maintenance_job_frees_its_slot() {
        let svc = OffloadService::with_slots(FcaeConfig::two_input(), 1, OffloadConfig::default());
        let run = std::panic::AssertUnwindSafe(|| {
            svc.run_maintenance(&mut || panic!("injected maintenance fault"));
        });
        assert!(std::panic::catch_unwind(run).is_err());
        assert_eq!(svc.slots.state.lock().free_slots.len(), 1);
    }
}

/// Loom model suite (`RUSTFLAGS="--cfg loom"`): exactly-once execution
/// across the fault-retry path, an invariant that only breaks under
/// adversarial interleavings (the slot table's own models are in
/// `slots.rs`). The service locks through [`lsm::sync_shim`], so these
/// models drive the exact lock/condvar protocol production uses.
#[cfg(all(loom, test))]
mod loom_models {
    use std::path::Path;
    use std::sync::Arc;

    use sstable::env::{MemEnv, StorageEnv, WritableFile};
    use sstable::ikey::{parse_internal_key, InternalKey, ValueType};
    use sstable::iterator::InternalIterator;
    use sstable::table::{Table, TableReadOptions};
    use sstable::table_builder::TableBuilderOptions;

    use super::*;
    use lsm::compaction::CompactionInput;

    fn builder_options() -> TableBuilderOptions {
        TableBuilderOptions {
            block_size: 512,
            ..Default::default()
        }
    }

    fn one_input(env: &MemEnv, path: &str) -> CompactionInput {
        let f = env.create_writable(Path::new(path)).expect("mem create");
        let mut b = sstable::table_builder::TableBuilder::new(builder_options(), f);
        for i in 0..40u64 {
            let t = if i % 9 == 0 {
                ValueType::Deletion
            } else {
                ValueType::Value
            };
            let key = InternalKey::new(format!("key{i:04}").as_bytes(), i + 1, t);
            b.add(key.encoded(), format!("val{i}").as_bytes())
                .expect("add");
        }
        let size = b.finish().expect("finish");
        let file = env.open_random_access(Path::new(path)).expect("open");
        let read_opts = TableReadOptions::default();
        CompactionInput {
            tables: vec![Table::open(file, size, read_opts).expect("table")],
        }
    }

    fn request(env: &MemEnv) -> CompactionRequest {
        CompactionRequest {
            level: 1,
            inputs: vec![one_input(env, "/in")],
            smallest_snapshot: 1 << 40,
            bottommost: true,
            builder_options: builder_options(),
            max_output_file_size: 64 << 10,
        }
    }

    /// Allocates numbered output files in a MemEnv, counting allocations
    /// (a double-dispatched job would double the count).
    struct MemFactory {
        env: MemEnv,
        counter: std::sync::atomic::AtomicU64,
    }

    impl OutputFileFactory for MemFactory {
        fn new_output(&self) -> lsm::Result<(u64, Box<dyn WritableFile>)> {
            let n = self
                .counter
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                + 1;
            let file = self
                .env
                .create_writable(Path::new(&format!("/out-{n}.ldb")))?;
            Ok((n, file))
        }
    }

    fn read_outputs(
        env: &MemEnv,
        outputs: &[lsm::compaction::OutputTableMeta],
    ) -> Vec<(Vec<u8>, u64, ValueType, Vec<u8>)> {
        let read_opts = TableReadOptions::default();
        let mut all = Vec::new();
        for meta in outputs {
            let path = format!("/out-{}.ldb", meta.number);
            let file = env.open_random_access(Path::new(&path)).expect("open out");
            let table = Table::open(file, meta.file_size, read_opts.clone()).expect("out table");
            let mut it = table.iter();
            it.seek_to_first();
            while it.valid() {
                let p = parse_internal_key(it.key()).expect("well-formed key");
                all.push((
                    p.user_key.to_vec(),
                    p.sequence,
                    p.value_type,
                    it.value().to_vec(),
                ));
                it.next();
            }
            it.status().expect("clean iteration");
        }
        all
    }

    /// Three concurrent jobs, one injected device fault: the faulted job
    /// must run on the CPU exactly once (never also on the device), every
    /// job's output must match the single-threaded reference, and the
    /// metrics must account for every dispatch.
    #[test]
    fn fault_retry_is_exactly_once_under_concurrency() {
        // Single-threaded reference output, computed once.
        let ref_env = MemEnv::new();
        let ref_factory = MemFactory {
            env: ref_env.clone(),
            counter: Default::default(),
        };
        let ref_out = CpuCompactionEngine
            .compact(&request(&ref_env), &ref_factory)
            .expect("reference compaction");
        let expected = Arc::new(read_outputs(&ref_env, &ref_out.outputs));
        let expected_files = ref_out.outputs.len() as u64;
        assert!(!expected.is_empty());

        loom::model(move || {
            let cfg = OffloadConfig {
                wait_budget: Duration::from_secs(30),
            };
            let svc = Arc::new(OffloadService::with_slots(FcaeConfig::two_input(), 2, cfg));
            svc.faults().inject(1);
            let mut threads = Vec::new();
            for _ in 0..3 {
                let svc = Arc::clone(&svc);
                let expected = Arc::clone(&expected);
                threads.push(loom::thread::spawn(move || {
                    let env = MemEnv::new();
                    let factory = MemFactory {
                        env: env.clone(),
                        counter: Default::default(),
                    };
                    let out = svc
                        .compact(&request(&env), &factory)
                        .expect("faults are retried, not surfaced");
                    assert_eq!(
                        read_outputs(&env, &out.outputs),
                        *expected,
                        "job output diverged from the reference"
                    );
                    assert_eq!(
                        factory.counter.load(std::sync::atomic::Ordering::SeqCst),
                        expected_files,
                        "a retried job must not allocate outputs twice"
                    );
                }));
            }
            for t in threads {
                t.join().expect("job thread must not panic");
            }
            let m = svc.metrics();
            assert_eq!(m.jobs_submitted, 3);
            assert_eq!(m.device_faults, 1, "exactly the injected fault fires");
            assert_eq!(m.faults_transient, 1, "the fault is dispatch-time");
            assert_eq!(m.faults_midjob, 0, "no mid-job fault was injected");
            assert_eq!(
                m.midjob_outputs_discarded, 0,
                "a transient fault never has outputs to discard"
            );
            assert_eq!(m.cpu_retries_after_fault, 1, "one CPU retry per fault");
            assert_eq!(m.fpga_jobs, 2, "unfaulted jobs stay on the device");
            assert_eq!(
                m.cpu_fallback_budget + m.cpu_fallback_oversized,
                0,
                "no job may take an unrelated CPU path in this model"
            );
            assert_eq!(svc.jobs_in_flight.load(Ordering::SeqCst), 0);
        });
    }
}
