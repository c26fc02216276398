//! Simulation results.

/// Outcome of one simulated write run.
///
/// The event counts (`flushes`, the compaction and trivial-move counts,
/// `compaction_io_bytes`, `concurrent_flushes`, `max_device_in_flight`
/// and the value-log fields) are a *view*: the simulator counts each
/// event once, on its [`obs::Obs`] registry, under the name the real
/// store uses for the same quantity (METRICS.md), and `WriteSim::run`
/// reads them back — `device_compactions == offload.fpga_jobs`,
/// `sw_compactions == lsm.compact.engine_jobs − offload.fpga_jobs`,
/// `compaction_io_bytes == Σ lsm.compact.l*.bytes_{read,written}`,
/// `gc_jobs == lsm.vlog.gc.segments-retired`. Simulators that share a
/// bundle share the totals. The `f64` times are modeled seconds the
/// simulator sums itself.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Raw user bytes ingested.
    pub bytes_written: u64,
    /// Total simulated wall time, seconds.
    pub total_time_sec: f64,
    /// User write throughput, raw MB/s (the paper's Fig. 10/14 metric).
    pub throughput_mb_s: f64,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Time the writer spent blocked (imm pending or L0 stop).
    pub stall_time_sec: f64,
    /// Time the writer spent in the 1 ms slowdown regime.
    pub slowdown_time_sec: f64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compactions executed on the device.
    pub device_compactions: u64,
    /// Compactions executed in software.
    pub sw_compactions: u64,
    /// Trivial moves.
    pub trivial_moves: u64,
    /// Stored bytes read+written by compactions.
    pub compaction_io_bytes: u64,
    /// Total device kernel time, seconds.
    pub kernel_time_sec: f64,
    /// Total PCIe transfer time, seconds (Table VIII numerator).
    pub pcie_time_sec: f64,
    /// Total CPU merge time (baseline / SW fallback), seconds.
    pub merge_cpu_time_sec: f64,
    /// Flushes that overlapped an in-flight device compaction.
    pub concurrent_flushes: u64,
    /// Peak device compactions in flight at once (multi-engine runs).
    pub max_device_in_flight: u64,
    /// Final per-level stored bytes.
    pub level_bytes: Vec<u64>,
    /// Value bytes appended to the value log (key-value separation runs).
    pub vlog_appended_bytes: u64,
    /// Value-log GC passes executed on the background host thread.
    pub gc_jobs: u64,
    /// Live value bytes GC rewrote into fresh segments.
    pub gc_rewritten_bytes: u64,
    /// Dead value bytes still awaiting collection at the end of the run.
    pub vlog_dead_bytes: u64,
}

impl SimReport {
    /// PCIe share of total time, in percent (the paper's Table VIII).
    pub fn pcie_percent(&self) -> f64 {
        if self.total_time_sec == 0.0 {
            return 0.0;
        }
        100.0 * self.pcie_time_sec / self.total_time_sec
    }

    /// Write amplification in stored bytes (compaction I/O / ingested).
    pub fn write_amplification(&self) -> f64 {
        if self.bytes_written == 0 {
            return 0.0;
        }
        self.compaction_io_bytes as f64 / self.bytes_written as f64
    }
}
