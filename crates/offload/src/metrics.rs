//! What the scheduler reports about its own dispatch decisions — the
//! observability half of the acceptance criteria ("the service sustains
//! more than one compaction in flight") — and the registry handles it
//! counts them on.

use std::sync::Arc;
use std::time::Duration;

use crate::DeviceFaultKind;

/// Cumulative scheduler metrics.
///
/// A *view*: nothing stores this struct. `OffloadService::metrics`
/// assembles it from the `offload.*` counters on the service's
/// [`obs::Obs`] registry, where each event is counted once (METRICS.md
/// names the counter behind every field) — without taking the scheduler
/// lock, so fields are sampled one by one. Services that share a bundle
/// share the totals. The three `Duration`s are nanosecond counters
/// underneath and round-trip exactly.
#[derive(Debug, Default, Clone)]
pub struct OffloadMetrics {
    /// Compactions submitted to the service.
    pub jobs_submitted: u64,
    /// Jobs completed on an FPGA engine slot.
    pub fpga_jobs: u64,
    /// Jobs sent to the CPU because they exceed the device's `N`.
    pub cpu_fallback_oversized: u64,
    /// Jobs sent to the CPU because no slot freed within the wait budget.
    pub cpu_fallback_budget: u64,
    /// Device faults observed, all kinds (injected or real engine
    /// errors): computed as the sum of the per-kind counters below.
    pub device_faults: u64,
    /// Dispatch-time transient faults: the engine never touched the
    /// output factory, so the CPU retry needed no cleanup.
    pub faults_transient: u64,
    /// Mid-job faults: the engine ran against the real output factory,
    /// then the device failed the job; outputs were discarded.
    pub faults_midjob: u64,
    /// Output files a failed device attempt had created: every output of
    /// an injected mid-job fault, and the tables an engine error left
    /// behind (the engine writes each table as it completes). The files
    /// become orphans swept by the store's obsolete-file GC; this counter
    /// is how tests prove the discard actually happened.
    pub midjob_outputs_discarded: u64,
    /// Jobs retried on the CPU after a device fault.
    pub cpu_retries_after_fault: u64,
    /// Maintenance jobs (value-log GC) routed through the scheduler.
    pub maintenance_jobs: u64,
    /// Maintenance jobs that ran inline because no engine slot freed
    /// within the wait budget (GC never blocks forever behind
    /// compactions; it just loses the contention round).
    pub maintenance_inline: u64,
    /// Peak engine slots busy at once.
    pub max_fpga_in_flight: u64,
    /// Peak jobs inside the service at once (FPGA + CPU fallback).
    pub max_jobs_in_flight: u64,
    /// Total time jobs spent queued for a slot.
    pub total_queue_wait: Duration,
    /// Total wall time inside device engines.
    pub fpga_busy_time: Duration,
    /// Total wall time inside the CPU fallback engine.
    pub cpu_busy_time: Duration,
}

impl OffloadMetrics {
    /// Jobs that ended up on the CPU for any reason.
    pub fn cpu_jobs(&self) -> u64 {
        self.cpu_fallback_oversized + self.cpu_fallback_budget + self.cpu_retries_after_fault
    }
}

/// Pre-registered handles on the bundle's registry: where every
/// scheduler event is counted, once ([`OffloadMetrics`] is read back from
/// these). The histograms add the queue-wait and busy-time distributions
/// the totals cannot show; dispatch, fault and fallback decisions land on
/// the bundle's trace with a job id.
pub(crate) struct OffloadObs {
    pub(crate) bundle: Arc<obs::Obs>,
    pub(crate) queue_wait_micros: Arc<obs::Histogram>,
    pub(crate) engine_busy_micros: Arc<obs::Histogram>,
    pub(crate) cpu_busy_micros: Arc<obs::Histogram>,
    /// The same three times as nanosecond totals, so the `Duration`
    /// fields of [`OffloadMetrics`] are exact.
    pub(crate) queue_wait_nanos: Arc<obs::Counter>,
    pub(crate) fpga_busy_nanos: Arc<obs::Counter>,
    pub(crate) cpu_busy_nanos: Arc<obs::Counter>,
    pub(crate) jobs_submitted: Arc<obs::Counter>,
    pub(crate) fpga_jobs: Arc<obs::Counter>,
    pub(crate) cpu_fallback_oversized: Arc<obs::Counter>,
    pub(crate) cpu_fallback_budget: Arc<obs::Counter>,
    pub(crate) device_faults: Arc<obs::Counter>,
    pub(crate) fault_transient: Arc<obs::Counter>,
    pub(crate) fault_midjob: Arc<obs::Counter>,
    pub(crate) fault_outputs_discarded: Arc<obs::Counter>,
    pub(crate) cpu_retries_after_fault: Arc<obs::Counter>,
    pub(crate) maintenance_jobs: Arc<obs::Counter>,
    pub(crate) maintenance_inline: Arc<obs::Counter>,
    pub(crate) max_fpga_in_flight: Arc<obs::Gauge>,
    pub(crate) max_jobs_in_flight: Arc<obs::Gauge>,
    /// Per-module device cycle attribution (`fcae.cycles.*`), summed
    /// over every job that ran on an engine, truncated to whole cycles.
    pub(crate) cycles_decoder: Arc<obs::Counter>,
    pub(crate) cycles_comparer: Arc<obs::Counter>,
    pub(crate) cycles_transfer: Arc<obs::Counter>,
    pub(crate) cycles_encoder: Arc<obs::Counter>,
    pub(crate) cycles_axi: Arc<obs::Counter>,
    pub(crate) cycles_overhead: Arc<obs::Counter>,
    pub(crate) cycles_memory: Arc<obs::Counter>,
}

impl OffloadObs {
    pub(crate) fn new(bundle: Arc<obs::Obs>) -> Self {
        let r = &bundle.registry;
        OffloadObs {
            queue_wait_micros: r.histogram("offload.queue_wait_micros"),
            engine_busy_micros: r.histogram("offload.engine_busy_micros"),
            cpu_busy_micros: r.histogram("offload.cpu_busy_micros"),
            queue_wait_nanos: r.counter("offload.queue_wait_nanos"),
            fpga_busy_nanos: r.counter("offload.fpga_busy_nanos"),
            cpu_busy_nanos: r.counter("offload.cpu_busy_nanos"),
            jobs_submitted: r.counter("offload.jobs_submitted"),
            fpga_jobs: r.counter("offload.fpga_jobs"),
            cpu_fallback_oversized: r.counter("offload.cpu_fallback_oversized"),
            cpu_fallback_budget: r.counter("offload.cpu_fallback_budget"),
            device_faults: r.counter("offload.device_faults"),
            fault_transient: r.counter("offload.fault.transient"),
            fault_midjob: r.counter("offload.fault.midjob"),
            fault_outputs_discarded: r.counter("offload.fault.outputs_discarded"),
            cpu_retries_after_fault: r.counter("offload.cpu_retries_after_fault"),
            maintenance_jobs: r.counter("offload.maintenance.jobs"),
            maintenance_inline: r.counter("offload.maintenance.inline"),
            max_fpga_in_flight: r.gauge("offload.max_fpga_in_flight"),
            max_jobs_in_flight: r.gauge("offload.max_jobs_in_flight"),
            cycles_decoder: r.counter("fcae.cycles.decoder"),
            cycles_comparer: r.counter("fcae.cycles.comparer"),
            cycles_transfer: r.counter("fcae.cycles.transfer"),
            cycles_encoder: r.counter("fcae.cycles.encoder"),
            cycles_axi: r.counter("fcae.cycles.axi"),
            cycles_overhead: r.counter("fcae.cycles.overhead"),
            cycles_memory: r.counter("fcae.cycles.memory"),
            bundle,
        }
    }

    /// Counts one device fault: the all-kinds counter and `kind`'s own.
    pub(crate) fn count_fault(&self, kind: DeviceFaultKind) {
        self.device_faults.inc();
        match kind {
            DeviceFaultKind::Transient => self.fault_transient.inc(),
            DeviceFaultKind::MidJob => self.fault_midjob.inc(),
        }
    }

    /// Adds one kernel's per-module cycle attribution to the registry.
    pub(crate) fn record_breakdown(&self, b: &fcae::ModuleBreakdown) {
        self.cycles_decoder.add(b.decoder as u64);
        self.cycles_comparer.add(b.comparer as u64);
        self.cycles_transfer.add(b.transfer as u64);
        self.cycles_encoder.add(b.encoder as u64);
        self.cycles_axi.add(b.axi as u64);
        self.cycles_overhead.add(b.overhead as u64);
        self.cycles_memory.add(b.memory as u64);
    }

    /// The registry's totals in [`OffloadMetrics`]' shape.
    pub(crate) fn metrics(&self) -> OffloadMetrics {
        let faults_transient = self.fault_transient.get();
        let faults_midjob = self.fault_midjob.get();
        OffloadMetrics {
            jobs_submitted: self.jobs_submitted.get(),
            fpga_jobs: self.fpga_jobs.get(),
            cpu_fallback_oversized: self.cpu_fallback_oversized.get(),
            cpu_fallback_budget: self.cpu_fallback_budget.get(),
            device_faults: faults_transient + faults_midjob,
            faults_transient,
            faults_midjob,
            midjob_outputs_discarded: self.fault_outputs_discarded.get(),
            cpu_retries_after_fault: self.cpu_retries_after_fault.get(),
            maintenance_jobs: self.maintenance_jobs.get(),
            maintenance_inline: self.maintenance_inline.get(),
            max_fpga_in_flight: self.max_fpga_in_flight.get(),
            max_jobs_in_flight: self.max_jobs_in_flight.get(),
            total_queue_wait: Duration::from_nanos(self.queue_wait_nanos.get()),
            fpga_busy_time: Duration::from_nanos(self.fpga_busy_nanos.get()),
            cpu_busy_time: Duration::from_nanos(self.cpu_busy_nanos.get()),
        }
    }
}
