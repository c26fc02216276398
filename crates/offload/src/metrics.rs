//! What the scheduler reports about its own dispatch decisions — the
//! observability half of the acceptance criteria ("the service sustains
//! more than one compaction in flight").

use std::time::Duration;

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
    /// Jobs sent to the CPU because the device-time estimate exceeded the
    /// per-job timeout.
    pub cpu_fallback_timeout: u64,
    /// Jobs sent to the CPU because no slot freed within the wait budget.
    pub cpu_fallback_budget: u64,
    /// Device faults observed, all kinds (injected or real engine
    /// errors): computed as the sum of the per-kind counters below.
    pub device_faults: u64,
    /// Dispatch-time transient faults: the engine never touched the
    /// output factory, so the CPU retry needed no cleanup.
    pub faults_transient: u64,
    /// Mid-job timeouts: the engine ran against the real output factory,
    /// then the device failed to acknowledge; outputs were discarded.
    pub faults_midjob_timeout: u64,
    /// Mid-job poisoned outputs: the device "completed" but its output
    /// failed validation; outputs were discarded.
    pub faults_midjob_poisoned: u64,
    /// Output files discarded after mid-job faults. The files become
    /// orphans swept by the store's obsolete-file GC; this counter is
    /// how tests prove the discard actually happened.
    pub midjob_outputs_discarded: u64,
    /// Jobs retried on the CPU after a device fault.
    pub cpu_retries_after_fault: u64,
    /// CPU-path jobs large enough that the CPU engine merged them from
    /// read-ahead threads (`CompactionOutcome::reader_threads > 0`).
    pub cpu_pipelined_jobs: u64,
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
        self.cpu_fallback_oversized
            + self.cpu_fallback_timeout
            + self.cpu_fallback_budget
            + self.cpu_retries_after_fault
    }
}
