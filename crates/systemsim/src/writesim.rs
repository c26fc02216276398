//! The write-path simulation: db_bench `fillrandom` through the
//! metadata-level store model.
//!
//! The writer produces data in chunks (1/8 memtable); at every chunk
//! boundary the LevelDB stall rules are applied (slowdown at 8 L0 files,
//! stop at 12, block when the immutable memtable is still flushing).
//! Flushes and compactions are jobs on the single background host thread;
//! with the FCAE engine the merge phase of a compaction runs on the
//! device, leaving the host thread free — which is exactly how the paper
//! gets flushes to overlap compactions (§VI-A).

use std::collections::HashMap;
use std::sync::Arc;

use fcae::timing::ENTRY_OVERHEAD_CYCLES;
use fcae::{CpuCostModel, FcaeConfig, PipelineModel};
use simkit::queue::{from_secs_f64, to_secs_f64};
use simkit::{EventQueue, PcieArbiter, SimTime, SplitMix64};

use crate::config::{EngineKind, SystemConfig};
use crate::report::SimReport;

/// Number of simulated levels.
const NUM_LEVELS: usize = 7;
/// Chunks per memtable: granularity of stall-rule evaluation.
const CHUNKS_PER_MEMTABLE: u64 = 8;
/// Finer granularity while the 1 ms/write slowdown is active, so the
/// writer reacts to L0 draining at (almost) per-write resolution like the
/// real store, instead of committing to a ~1 s crawl per chunk.
const SLOWDOWN_CHUNK_OPS: u64 = 64;
/// Log bytes one value-log GC pass reads (one segment's worth).
const GC_BATCH_BYTES: u64 = 8 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // they are all completion events; the postfix is the point
enum Ev {
    /// The writer finished one chunk.
    ChunkDone,
    /// A memtable flush completed.
    FlushDone,
    /// The device kernel phase of compaction job `id` completed.
    KernelDone(u64),
    /// Compaction job `id` fully completed.
    CompDone(u64),
    /// A value-log GC pass completed.
    GcDone,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    /// Memtable full, immutable memtable still flushing.
    WaitImm,
    /// L0 at the stop trigger.
    WaitL0,
}

#[derive(Debug, Default, Clone, Copy)]
struct LevelMeta {
    /// Stored bytes at this level.
    bytes: u64,
    /// File count (used for the L0 triggers and input counts).
    files: u64,
}

#[derive(Debug, Clone, Copy)]
struct CompJob {
    /// Simulated time the job was dispatched (for trace durations).
    started: SimTime,
    level: usize,
    bytes_in: u64,
    bytes_from_this: u64,
    bytes_from_next: u64,
    bytes_out: u64,
    inputs: usize,
    /// L0 jobs: how many L0 files the job consumed. Files flushed while
    /// the job runs are NOT part of it and must survive its completion.
    files_from_this: u64,
    on_device: bool,
}

/// Where the run is counted, once: handles on the bundle's registry under
/// the names the real store uses for the same quantities, so a simulated
/// and a real run can be diffed by name
/// (`tests/sim_vs_real_crosscheck.rs`). [`SimReport`]'s integer fields
/// are read back from these.
struct SimMetrics {
    flush_count: Arc<obs::Counter>,
    flush_bytes: Arc<obs::Counter>,
    concurrent_flushes: Arc<obs::Counter>,
    /// Non-trivial compactions dispatched, on the device or in software.
    engine_jobs: Arc<obs::Counter>,
    /// Of those, the ones dispatched to an engine slot.
    fpga_jobs: Arc<obs::Counter>,
    max_fpga_in_flight: Arc<obs::Gauge>,
    trivial_moves: Arc<obs::Counter>,
    stall_micros: Arc<obs::Counter>,
    vlog_appended_bytes: Arc<obs::Counter>,
    /// One GC pass collects one segment's worth of log.
    gc_segments: Arc<obs::Counter>,
    gc_rewritten_bytes: Arc<obs::Counter>,
    /// Completed compactions by input level: (count, bytes read, bytes
    /// written).
    per_level: [[Arc<obs::Counter>; 3]; NUM_LEVELS],
}

impl SimMetrics {
    fn new(r: &obs::Registry) -> Self {
        SimMetrics {
            flush_count: r.counter("lsm.flush.count"),
            flush_bytes: r.counter("lsm.flush.bytes"),
            concurrent_flushes: r.counter("lsm.flush.concurrent"),
            engine_jobs: r.counter("lsm.compact.engine_jobs"),
            fpga_jobs: r.counter("offload.fpga_jobs"),
            max_fpga_in_flight: r.gauge("offload.max_fpga_in_flight"),
            trivial_moves: r.counter("lsm.compact.trivial_moves"),
            stall_micros: r.counter("lsm.stall_micros"),
            vlog_appended_bytes: r.counter("lsm.vlog.appended-bytes"),
            gc_segments: r.counter("lsm.vlog.gc.segments-retired"),
            gc_rewritten_bytes: r.counter("lsm.vlog.gc.rewritten-bytes"),
            per_level: std::array::from_fn(|level| {
                [
                    r.counter(&format!("lsm.compact.l{level}.count")),
                    r.counter(&format!("lsm.compact.l{level}.bytes_read")),
                    r.counter(&format!("lsm.compact.l{level}.bytes_written")),
                ]
            }),
        }
    }
}

/// Simulated duration in whole microseconds (for traces and metrics).
fn sim_micros(t: SimTime) -> u64 {
    (to_secs_f64(t) * 1e6) as u64
}

/// Runs `seeds` jittered replicas of the same configuration and returns
/// the mean throughput in MB/s (plus the last replica's full report).
pub fn mean_throughput(cfg: SystemConfig, target_bytes: u64, seeds: u64) -> (f64, SimReport) {
    assert!(seeds >= 1);
    let mut total = 0.0;
    let mut last = SimReport::default();
    for seed in 0..seeds {
        let r = WriteSim::with_seed(cfg, target_bytes, 0x5eed_f0e1 ^ (seed * 0x9e37_79b9)).run();
        total += r.throughput_mb_s;
        last = r;
    }
    (total / seeds as f64, last)
}

/// The write-path simulator.
pub struct WriteSim {
    cfg: SystemConfig,
    queue: EventQueue<Ev>,
    levels: [LevelMeta; NUM_LEVELS],

    mem_fill: u64,
    imm: Option<u64>,
    flush_active: bool,
    /// In-flight compaction jobs, keyed by id. Several device jobs (up to
    /// `cfg.engine_slots`) plus at most one software job may coexist, as
    /// long as their level pairs are disjoint.
    jobs: HashMap<u64, CompJob>,
    next_job_id: u64,
    /// The shared PCIe link all engine instances DMA through.
    pcie_bus: PcieArbiter,
    host_busy_until: SimTime,
    writer_blocked: Option<Blocked>,
    blocked_since: SimTime,

    target_bytes: u64,
    written: u64,
    /// Bytes of the chunk currently being written.
    pending_chunk: u64,
    writer_done_at: Option<SimTime>,
    /// Deterministic jitter source for job durations. Real compaction
    /// times vary with key layout; ±15% keeps the discrete model from
    /// locking into artificial limit cycles.
    jitter: SplitMix64,

    /// The bundle the run is counted and traced on — private unless
    /// [`WriteSim::with_obs`] replaced it. Its [`obs::ManualClock`] is
    /// driven from *simulated* time, so traces and metrics from two
    /// identical runs are byte-identical.
    obs: Arc<obs::Obs>,
    clock: Arc<obs::ManualClock>,
    metrics: SimMetrics,
    /// Start of the in-flight flush (trace durations).
    flush_started: SimTime,

    /// Live value bytes in the value log (separation runs only).
    vlog_live_bytes: u64,
    /// Dead value bytes (shadowed versions dropped by compaction merges)
    /// awaiting GC.
    vlog_dead_bytes: u64,
    /// A GC pass is occupying the background host thread.
    gc_active: bool,
    /// (dead, live) bytes of the in-flight GC batch, applied on GcDone.
    gc_pending: (u64, u64),

    report: SimReport,
}

impl WriteSim {
    /// Creates a simulator that will ingest `target_bytes` of raw user
    /// data under `cfg`.
    pub fn new(cfg: SystemConfig, target_bytes: u64) -> Self {
        Self::with_seed(cfg, target_bytes, 0x5eed_f0e1)
    }

    /// Like [`WriteSim::new`] with an explicit jitter seed. The simulated
    /// system is bistable around the paper's own `S0 <= N - 1` offload
    /// boundary; averaging a few seeds recovers the ensemble behaviour a
    /// real (noisy) system exhibits.
    pub fn with_seed(cfg: SystemConfig, target_bytes: u64, seed: u64) -> Self {
        let (obs, clock) = obs::Obs::manual();
        WriteSim {
            cfg,
            queue: EventQueue::new(),
            levels: [LevelMeta::default(); NUM_LEVELS],
            mem_fill: 0,
            imm: None,
            flush_active: false,
            jobs: HashMap::new(),
            next_job_id: 0,
            pcie_bus: PcieArbiter::new(cfg.pcie),
            host_busy_until: 0,
            writer_blocked: None,
            blocked_since: 0,
            target_bytes,
            written: 0,
            pending_chunk: 0,
            writer_done_at: None,
            jitter: SplitMix64::new(seed),
            metrics: SimMetrics::new(&obs.registry),
            obs,
            clock,
            flush_started: 0,
            vlog_live_bytes: 0,
            vlog_dead_bytes: 0,
            gc_active: false,
            gc_pending: (0, 0),
            report: SimReport::default(),
        }
    }

    /// Counts and traces on `bundle` instead of the private one. This
    /// simulator advances `clock` — the bundle's [`obs::ManualClock`] — to
    /// the modeled time before every recorded event, so metrics and
    /// traces are a deterministic function of the configuration and seed.
    /// Simulators given the same bundle share one set of totals, and
    /// their reports carry the sums.
    pub fn with_obs(mut self, bundle: Arc<obs::Obs>, clock: Arc<obs::ManualClock>) -> Self {
        self.metrics = SimMetrics::new(&bundle.registry);
        self.obs = bundle;
        self.clock = clock;
        self
    }

    /// Records `kind` on the trace at the current simulated time.
    fn obs_event(&self, kind: obs::EventKind) {
        self.clock.set(sim_micros(self.queue.now()));
        self.obs.event(kind);
    }

    fn chunk_bytes(&self) -> u64 {
        if self.levels[0].files >= self.cfg.l0_slowdown as u64 {
            (SLOWDOWN_CHUNK_OPS * self.cfg.pair_raw_bytes()).max(1)
        } else {
            (self.cfg.memtable_bytes / CHUNKS_PER_MEMTABLE).max(1)
        }
    }

    /// Stored bytes per *tree* entry — the pointer size under key-value
    /// separation, the full pair otherwise. Every byte count the level
    /// metadata tracks is in these units.
    fn pair_stored(&self) -> f64 {
        self.cfg.tree_pair_stored_bytes().max(1.0)
    }

    /// Stored bytes an L0 table occupies for `raw` memtable bytes.
    /// Degenerates to `compression_ratio` when separation is off;
    /// pointer-only tables store uncompressed.
    fn flush_stored(&self, raw: u64) -> u64 {
        let ratio =
            self.cfg.tree_pair_stored_bytes() / self.cfg.tree_pair_raw_bytes().max(1) as f64;
        (raw as f64 * ratio) as u64
    }

    /// Multiplies a duration by a deterministic ±15% jitter.
    fn jittered(&mut self, seconds: f64) -> f64 {
        seconds * (0.85 + 0.30 * self.jitter.next_f64())
    }

    /// Starts the next chunk: records its size and returns its duration,
    /// including the 1 ms slowdown regime when L0 is congested.
    fn chunk_duration(&mut self) -> SimTime {
        self.pending_chunk = self.chunk_bytes();
        let ops = self.pending_chunk as f64 / self.cfg.pair_raw_bytes() as f64;
        let slowed = self.levels[0].files >= self.cfg.l0_slowdown as u64;
        let per_op = if slowed {
            self.report.slowdown_time_sec += ops * self.cfg.slowdown_sleep;
            self.cfg.front_end_op_cost + self.cfg.slowdown_sleep
        } else {
            self.cfg.front_end_op_cost
        };
        // Separated values are appended to the value log on the write
        // path (sequential, group-synced); the tree only absorbs the
        // pointers, which is why flushes get rarer below.
        let vlog = if self.cfg.separated() {
            let bytes = (ops * self.cfg.value_len as f64) as u64;
            to_secs_f64(self.cfg.disk.write_time(bytes))
        } else {
            0.0
        };
        from_secs_f64(ops * per_op + vlog)
    }

    /// CPU merge time for a job (the paper's Table V baseline).
    fn merge_time(&self, job: &CompJob) -> f64 {
        let pairs = job.bytes_in as f64 / self.pair_stored();
        let model = CpuCostModel::new(job.inputs.max(2));
        pairs * model.pair_time_sec(self.cfg.internal_key_len(), self.cfg.tree_value_len())
    }

    /// Device kernel time for a job (the paper's Table III pipeline).
    fn kernel_time(&self, job: &CompJob, fc: &FcaeConfig) -> f64 {
        let pairs = job.bytes_in as f64 / self.pair_stored();
        let model = PipelineModel::new(*fc);
        let period = model.pair_period(self.cfg.internal_key_len(), self.cfg.tree_value_len())
            + ENTRY_OVERHEAD_CYCLES;
        // Per-block amortized overhead.
        let pairs_per_block =
            (self.cfg.block_bytes as f64 / self.cfg.tree_pair_raw_bytes() as f64).max(1.0);
        let block_overhead = 32.0 / pairs_per_block;
        pairs * (period + block_overhead) * fc.cycle_time_sec()
    }

    /// Disk time to read inputs and write outputs of a compaction.
    fn comp_io_time(&self, job: &CompJob) -> f64 {
        let files_in = job.inputs as f64 + 1.0;
        to_secs_f64(self.cfg.disk.read_time(job.bytes_in))
            + to_secs_f64(self.cfg.disk.write_time(job.bytes_out))
            + files_in * self.cfg.disk.op_latency
    }

    /// Score of `level` per LevelDB's rules.
    fn level_score(&self, level: usize) -> f64 {
        if level == 0 {
            return self.levels[0].files as f64 / self.cfg.l0_trigger as f64;
        }
        if level == 1 {
            if let Some(k) = self.cfg.l1_tiering_runs {
                // Tiering: compaction triggers on run count, not bytes.
                return self.levels[1].files as f64 / k as f64;
            }
        }
        self.levels[level].bytes as f64 / self.cfg.max_bytes_for_level(level) as f64
    }

    /// Levels an in-flight job makes off-limits (its own and the one it
    /// writes into). The simulated store overlaps jobs on disjoint
    /// levels; a real `lsm::Db` runs one compaction at a time (DESIGN.md,
    /// "Honest contention").
    fn busy_levels(&self) -> [bool; NUM_LEVELS] {
        let mut busy = [false; NUM_LEVELS];
        for job in self.jobs.values() {
            busy[job.level] = true;
            busy[job.level + 1] = true;
        }
        busy
    }

    /// Picks the best-scoring compaction whose levels no in-flight job is
    /// touching (LevelDB's score rules, conflict-filtered).
    fn pick_compaction(&self) -> Option<CompJob> {
        let busy = self.busy_levels();
        let mut scored: Vec<(usize, f64)> = (0..NUM_LEVELS - 1)
            .filter(|&l| !busy[l] && !busy[l + 1])
            .map(|l| (l, self.level_score(l)))
            .filter(|&(_, s)| s >= 1.0)
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let (level, _) = *scored.first()?;
        let tiered = self.cfg.l1_tiering_runs.is_some();
        let next = &self.levels[level + 1];
        let (bytes_from_this, bytes_from_next, inputs, files_from_this) = if level == 0 {
            // Random fill: every L0 file spans the key space. Leveling
            // merges with the whole of L1; tiering appends a fresh L1 run
            // instead (no L1 bytes touched).
            let l0 = &self.levels[0];
            if tiered {
                (l0.bytes, 0, l0.files as usize, l0.files)
            } else {
                (
                    l0.bytes,
                    next.bytes,
                    l0.files as usize + usize::from(next.files > 0),
                    l0.files,
                )
            }
        } else if level == 1 && tiered {
            // Tiered L1: merge ALL runs at once — every run is one input
            // (this is exactly the multi-input case the paper's 9-input
            // engine exists for).
            let l1 = &self.levels[1];
            (
                l1.bytes,
                next.bytes.min(2 * l1.bytes),
                l1.files as usize + usize::from(next.bytes > 0),
                l1.files,
            )
        } else {
            let take = self.cfg.sstable_bytes.min(self.levels[level].bytes);
            // One file overlaps ~ratio files of the next level, plus edges.
            let overlap = next
                .bytes
                .min((self.cfg.leveling_ratio + 2) * self.cfg.sstable_bytes);
            (take, overlap, 1 + usize::from(overlap > 0), 1)
        };
        let bytes_in = bytes_from_this + bytes_from_next;
        if bytes_in == 0 {
            return None;
        }
        let trivial = level > 0 && bytes_from_next == 0;
        let bytes_out = if trivial {
            bytes_from_this
        } else {
            // A `dedup_fraction` of the pushed-down entries shadow an
            // existing version below, which the merge drops; everything
            // else is conserved. (Dropping a fraction of *all* input would
            // make recirculated data decay exponentially.)
            bytes_in - (bytes_from_this as f64 * self.cfg.dedup_fraction) as u64
        };
        Some(CompJob {
            started: 0,
            level,
            bytes_in,
            bytes_from_this,
            bytes_from_next,
            bytes_out,
            inputs,
            files_from_this,
            on_device: false,
        })
    }

    /// Starts any runnable background work.
    fn schedule_work(&mut self) {
        let now = self.queue.now();
        // Flush has priority (paper §VI-A: dump of the immutable memtable
        // is the first compaction type).
        if self.imm.is_some() && !self.flush_active {
            // PANIC-OK: is_some() checked on the line above.
            let raw = self.imm.expect("imm checked above");
            let stored = self.flush_stored(raw);
            let dur = self.jittered(
                raw as f64 / self.cfg.flush_cpu_bw + to_secs_f64(self.cfg.disk.write_time(stored)),
            );
            let start = self.host_busy_until.max(now);
            let end = start + from_secs_f64(dur);
            self.host_busy_until = end;
            self.flush_active = true;
            self.flush_started = start;
            if self.jobs.values().any(|j| j.on_device) {
                self.metrics.concurrent_flushes.inc();
            }
            self.queue.schedule_at(end, Ev::FlushDone);
        }

        // Dispatch compactions until slots or admissible work run out.
        // Device-eligible jobs go to engine slots (and *wait* for one when
        // all are busy — merging them on the CPU would hold the host
        // thread hostage, the very cost the device exists to avoid); jobs
        // the device cannot take run as the single software compaction.
        loop {
            // A single-slot system is the paper's: one background
            // compaction at a time, device or software. Multi-slot runs
            // use the offload scheduler's concurrent dispatch.
            if self.cfg.engine_slots.max(1) == 1 && !self.jobs.is_empty() {
                break;
            }
            let device_in_flight = self.jobs.values().filter(|j| j.on_device).count();
            let slots_free = match self.cfg.engine {
                EngineKind::Fcae(_) => device_in_flight < self.cfg.engine_slots.max(1),
                EngineKind::Cpu => false,
            };
            let sw_free = !self.jobs.values().any(|j| !j.on_device);
            if !slots_free && !sw_free {
                break;
            }
            let Some(mut job) = self.pick_compaction() else {
                break;
            };
            let trivial = job.level > 0 && job.bytes_from_next == 0;
            if trivial {
                // Pure metadata relink; re-scan for more work.
                self.apply_compaction(&job, false);
                self.metrics.trivial_moves.inc();
                continue;
            }
            let id = self.next_job_id;
            self.next_job_id += 1;
            job.started = now;
            self.obs_event(obs::EventKind::CompactionStart {
                level: job.level,
                files: job.inputs,
                bytes: job.bytes_in,
            });
            match self.cfg.engine {
                EngineKind::Fcae(fc) if job.inputs <= fc.n_inputs => {
                    if !slots_free {
                        break; // wait for an engine slot to free up
                    }
                    job.on_device = true;
                    // Host phase 1: read inputs from disk, then DMA in
                    // over the shared (possibly contended) link.
                    let read = to_secs_f64(self.cfg.disk.read_time(job.bytes_in))
                        + job.inputs as f64 * self.cfg.disk.op_latency;
                    let start = self.host_busy_until.max(now);
                    let read_end = start + from_secs_f64(self.jittered(read));
                    let (dma_start, dma_end) = self.pcie_bus.transfer(read_end, job.bytes_in);
                    self.host_busy_until = dma_end;
                    let kernel = self.kernel_time(&job, &fc);
                    self.report.kernel_time_sec += kernel;
                    self.report.pcie_time_sec += to_secs_f64(dma_end - dma_start);
                    self.metrics.engine_jobs.inc();
                    self.metrics.fpga_jobs.inc();
                    self.queue
                        .schedule_at(dma_end + from_secs_f64(kernel), Ev::KernelDone(id));
                    self.jobs.insert(id, job);
                    let in_flight = self.jobs.values().filter(|j| j.on_device).count();
                    self.metrics.max_fpga_in_flight.set_max(in_flight as u64);
                }
                _ => {
                    if !sw_free {
                        break; // the one software compaction slot is taken
                    }
                    // Software compaction: read + merge + write on host.
                    let dur = self.jittered(self.comp_io_time(&job) + self.merge_time(&job));
                    self.report.merge_cpu_time_sec += self.merge_time(&job);
                    self.metrics.engine_jobs.inc();
                    let start = self.host_busy_until.max(now);
                    let end = start + from_secs_f64(dur);
                    self.host_busy_until = end;
                    self.queue.schedule_at(end, Ev::CompDone(id));
                    self.jobs.insert(id, job);
                }
            }
        }
        self.maybe_schedule_gc();
    }

    /// Starts a value-log GC pass when enough garbage has accumulated.
    ///
    /// One pass reads [`GC_BATCH_BYTES`] of log and rewrites the live
    /// values it finds — on the *host* thread, after whatever flush or
    /// software compaction already claimed it. That contention (log GC
    /// vs. compaction for the one background thread) is the scheduling
    /// dimension this models: an offloaded merge frees the thread for
    /// GC, an inline merge starves it.
    fn maybe_schedule_gc(&mut self) {
        if !self.cfg.separated() || self.gc_active {
            return;
        }
        let total = self.vlog_live_bytes + self.vlog_dead_bytes;
        // Worth a pass once a whole batch is garbage AND at least a
        // quarter of the log is dead — mirroring the store's
        // dead-space-ratio trigger, so a mostly-live log is left alone.
        if self.vlog_dead_bytes < GC_BATCH_BYTES.max(total / 4) {
            return;
        }
        let batch = GC_BATCH_BYTES.min(total);
        let dead_frac = self.vlog_dead_bytes as f64 / total as f64;
        let dead_in = ((batch as f64 * dead_frac) as u64).min(self.vlog_dead_bytes);
        let live_in = batch - dead_in;
        let dur = self.jittered(
            to_secs_f64(self.cfg.disk.read_time(batch))
                + to_secs_f64(self.cfg.disk.write_time(live_in))
                + 2.0 * self.cfg.disk.op_latency,
        );
        let start = self.host_busy_until.max(self.queue.now());
        let end = start + from_secs_f64(dur);
        self.host_busy_until = end;
        self.gc_active = true;
        self.gc_pending = (dead_in, live_in);
        self.queue.schedule_at(end, Ev::GcDone);
    }

    /// Applies a finished compaction to the level metadata.
    fn apply_compaction(&mut self, job: &CompJob, charge_io: bool) {
        let level = job.level;
        if level == 0 {
            // Only the files that were inputs disappear; flushes that
            // landed while the job ran remain.
            let l0 = &mut self.levels[0];
            l0.files = l0.files.saturating_sub(job.files_from_this);
            l0.bytes = l0.bytes.saturating_sub(job.bytes_from_this);
        } else {
            let l = &mut self.levels[level];
            l.bytes = l.bytes.saturating_sub(job.bytes_from_this);
            l.files = l.bytes / self.cfg.sstable_bytes.max(1);
        }
        let next = &mut self.levels[level + 1];
        next.bytes = next.bytes.saturating_sub(job.bytes_from_next) + job.bytes_out;
        if level == 0 && self.cfg.l1_tiering_runs.is_some() {
            // Tiered L1: each completed L0 compaction adds one run.
            next.files += 1;
        } else if level == 1 && self.cfg.l1_tiering_runs.is_some() {
            // Tiered L1 drained all runs; L2 is leveled as usual.
            next.files =
                (next.bytes / self.cfg.sstable_bytes.max(1)).max(u64::from(next.bytes > 0));
        } else {
            next.files =
                (next.bytes / self.cfg.sstable_bytes.max(1)).max(u64::from(next.bytes > 0));
        }
        if charge_io {
            let [count, bytes_read, bytes_written] = &self.metrics.per_level[level];
            count.inc();
            bytes_read.add(job.bytes_in);
            bytes_written.add(job.bytes_out);
            if self.cfg.separated() {
                // Every pointer pair the merge dropped strands its value
                // in the log: that value is now garbage awaiting GC.
                let dropped = job.bytes_in.saturating_sub(job.bytes_out);
                let pairs = dropped as f64 / self.pair_stored();
                let dead = ((pairs * self.cfg.value_len as f64) as u64).min(self.vlog_live_bytes);
                self.vlog_live_bytes -= dead;
                self.vlog_dead_bytes += dead;
            }
        }
    }

    fn unblock_writer_if_possible(&mut self) {
        let Some(reason) = self.writer_blocked else {
            return;
        };
        let clear = match reason {
            Blocked::WaitImm => {
                if self.imm.is_none() {
                    // Perform the pending rotation.
                    self.imm = Some(std::mem::take(&mut self.mem_fill));
                    true
                } else {
                    false
                }
            }
            Blocked::WaitL0 => self.levels[0].files < self.cfg.l0_stop as u64,
        };
        if clear {
            self.writer_blocked = None;
            let stalled = self.queue.now() - self.blocked_since;
            self.report.stall_time_sec += to_secs_f64(stalled);
            self.obs_event(obs::EventKind::WriteStall {
                micros: sim_micros(stalled),
            });
            self.metrics.stall_micros.add(sim_micros(stalled));
            let dur = self.chunk_duration();
            self.queue.schedule(dur, Ev::ChunkDone);
            self.schedule_work();
        }
    }

    fn on_chunk_done(&mut self) {
        self.written += self.pending_chunk;
        if self.cfg.separated() {
            // Values went to the log (already charged on the chunk
            // duration); the memtable only absorbs the pointer entries.
            let ops = self.pending_chunk / self.cfg.pair_raw_bytes().max(1);
            let value_bytes = ops * self.cfg.value_len as u64;
            self.metrics.vlog_appended_bytes.add(value_bytes);
            self.vlog_live_bytes += value_bytes;
            self.mem_fill += ops * self.cfg.tree_pair_raw_bytes();
        } else {
            self.mem_fill += self.pending_chunk;
        }
        if self.written >= self.target_bytes {
            self.writer_done_at = Some(self.queue.now());
            return;
        }
        // Stall rules, in LevelDB's order.
        if self.levels[0].files >= self.cfg.l0_stop as u64 {
            self.writer_blocked = Some(Blocked::WaitL0);
            self.blocked_since = self.queue.now();
            self.schedule_work();
            return;
        }
        if self.mem_fill >= self.cfg.memtable_bytes {
            if self.imm.is_some() {
                self.writer_blocked = Some(Blocked::WaitImm);
                self.blocked_since = self.queue.now();
                self.schedule_work();
                return;
            }
            self.imm = Some(std::mem::take(&mut self.mem_fill));
            self.schedule_work();
        }
        let dur = self.chunk_duration();
        self.queue.schedule(dur, Ev::ChunkDone);
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimReport {
        let dur = self.chunk_duration();
        self.queue.schedule(dur, Ev::ChunkDone);
        let mut guard = 0u64;
        while self.writer_done_at.is_none() {
            guard += 1;
            assert!(
                guard < 2_000_000_000,
                "simulation did not terminate (written {} of {})",
                self.written,
                self.target_bytes
            );
            let Some((_, ev)) = self.queue.pop() else {
                // PANIC-OK: an empty queue with the writer incomplete is a
                // simulator bug (lost wakeup); abort with full state.
                panic!(
                    "event queue drained while writer incomplete: blocked={:?} imm={:?} l0={:?}",
                    self.writer_blocked, self.imm, self.levels[0]
                );
            };
            match ev {
                Ev::ChunkDone => self.on_chunk_done(),
                Ev::FlushDone => {
                    // PANIC-OK: FlushDone is only scheduled while imm is
                    // held, and nothing else clears it.
                    let raw = self.imm.take().expect("flush completed without imm");
                    let stored = self.flush_stored(raw);
                    self.levels[0].bytes += stored;
                    self.levels[0].files += 1;
                    self.flush_active = false;
                    self.metrics.flush_count.inc();
                    self.metrics.flush_bytes.add(stored);
                    self.obs_event(obs::EventKind::Flush {
                        bytes: stored,
                        micros: sim_micros(self.queue.now() - self.flush_started),
                    });
                    self.unblock_writer_if_possible();
                    self.schedule_work();
                }
                Ev::KernelDone(id) => {
                    // Host phase 2: DMA out over the shared link + write
                    // outputs to disk.
                    // PANIC-OK: KernelDone(id) is scheduled when job
                    // `id` is inserted; only CompDone removes it.
                    let job = *self.jobs.get(&id).expect("kernel done without job");
                    let start = self.host_busy_until.max(self.queue.now());
                    let (dma_start, dma_end) = self.pcie_bus.transfer(start, job.bytes_out);
                    let write = to_secs_f64(self.cfg.disk.write_time(job.bytes_out));
                    self.report.pcie_time_sec += to_secs_f64(dma_end - dma_start);
                    let end = dma_end + from_secs_f64(write);
                    self.host_busy_until = end;
                    self.queue.schedule_at(end, Ev::CompDone(id));
                }
                Ev::CompDone(id) => {
                    // PANIC-OK: CompDone(id) follows KernelDone(id)
                    // exactly once; the job is still in the map.
                    let job = self.jobs.remove(&id).expect("comp done without job");
                    self.apply_compaction(&job, true);
                    self.obs_event(obs::EventKind::CompactionFinish {
                        level: job.level,
                        bytes_read: job.bytes_in,
                        bytes_written: job.bytes_out,
                        micros: sim_micros(self.queue.now() - job.started),
                    });
                    self.unblock_writer_if_possible();
                    self.schedule_work();
                }
                Ev::GcDone => {
                    let (dead, live) = self.gc_pending;
                    self.gc_pending = (0, 0);
                    self.gc_active = false;
                    self.vlog_dead_bytes = self.vlog_dead_bytes.saturating_sub(dead);
                    self.metrics.gc_segments.inc();
                    self.metrics.gc_rewritten_bytes.add(live);
                    self.schedule_work();
                }
            }
        }

        // PANIC-OK: the loop condition is writer_done_at.is_none().
        let end = self.writer_done_at.expect("loop exits only when done");
        let total = to_secs_f64(end);
        self.report.bytes_written = self.written;
        self.report.total_time_sec = total;
        self.report.throughput_mb_s = if total > 0.0 {
            self.written as f64 / total / 1e6
        } else {
            0.0
        };
        self.report.ops_per_sec = if total > 0.0 {
            self.written as f64 / self.cfg.pair_raw_bytes() as f64 / total
        } else {
            0.0
        };
        self.report.level_bytes = self.levels.iter().map(|l| l.bytes).collect();
        self.report.vlog_dead_bytes = self.vlog_dead_bytes;
        let m = &self.metrics;
        self.report.flushes = m.flush_count.get();
        self.report.concurrent_flushes = m.concurrent_flushes.get();
        self.report.device_compactions = m.fpga_jobs.get();
        self.report.sw_compactions = m.engine_jobs.get() - m.fpga_jobs.get();
        self.report.max_device_in_flight = m.max_fpga_in_flight.get();
        self.report.trivial_moves = m.trivial_moves.get();
        self.report.compaction_io_bytes = m
            .per_level
            .iter()
            .map(|[_, read, written]| read.get() + written.get())
            .sum();
        self.report.vlog_appended_bytes = m.vlog_appended_bytes.get();
        self.report.gc_jobs = m.gc_segments.get();
        self.report.gc_rewritten_bytes = m.gc_rewritten_bytes.get();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;
    use fcae::FcaeConfig;

    fn mb(m: u64) -> u64 {
        m << 20
    }

    fn run(cfg: SystemConfig, bytes: u64) -> SimReport {
        WriteSim::new(cfg, bytes).run()
    }

    #[test]
    fn small_runs_complete_and_account() {
        let r = run(SystemConfig::default(), mb(64));
        assert_eq!(r.bytes_written, mb(64));
        assert!(r.total_time_sec > 0.0);
        assert!(r.flushes >= 10, "64 MiB / 4 MiB memtables: {r:?}");
        assert!(r.throughput_mb_s > 0.0);
    }

    #[test]
    fn fcae_beats_cpu_baseline() {
        let base = run(SystemConfig::default(), mb(256));
        let fcae = run(
            SystemConfig::default().with_engine(EngineKind::Fcae(FcaeConfig::nine_input())),
            mb(256),
        );
        assert!(
            fcae.throughput_mb_s > 1.5 * base.throughput_mb_s,
            "FCAE {:.2} MB/s vs CPU {:.2} MB/s",
            fcae.throughput_mb_s,
            base.throughput_mb_s
        );
        assert!(fcae.device_compactions > 0);
        assert!(fcae.kernel_time_sec > 0.0);
        assert!(base.device_compactions == 0);
    }

    #[test]
    fn throughput_declines_with_data_size() {
        // Fig. 10's driver: deeper trees compact more per ingested byte.
        let small = run(SystemConfig::default(), mb(64));
        let large = run(SystemConfig::default(), mb(1024));
        assert!(
            large.throughput_mb_s < small.throughput_mb_s,
            "small {:.2} vs large {:.2}",
            small.throughput_mb_s,
            large.throughput_mb_s
        );
        assert!(large.write_amplification() > small.write_amplification());
    }

    #[test]
    fn pcie_time_is_small_fraction() {
        let r = run(
            SystemConfig::default().with_engine(EngineKind::Fcae(FcaeConfig::nine_input())),
            mb(512),
        );
        assert!(r.pcie_time_sec > 0.0);
        assert!(r.pcie_percent() < 15.0, "Table VIII: {}%", r.pcie_percent());
    }

    #[test]
    fn two_input_engine_falls_back_on_l0() {
        // N=2 cannot take L0 compactions (>= 5 inputs): they run in SW.
        let r = run(
            SystemConfig::default().with_engine(EngineKind::Fcae(FcaeConfig::two_input())),
            mb(256),
        );
        assert!(r.sw_compactions > 0, "{r:?}");
        assert!(r.device_compactions > 0, "{r:?}");
    }

    #[test]
    fn multi_slot_runs_device_compactions_concurrently() {
        let cfg = SystemConfig::default().with_engine(EngineKind::Fcae(FcaeConfig::nine_input()));
        let one = run(cfg.with_engine_slots(1), mb(512));
        let four = run(cfg.with_engine_slots(4), mb(512));
        assert!(one.max_device_in_flight <= 1, "{one:?}");
        assert!(
            four.max_device_in_flight > 1,
            "4 slots never overlapped: {four:?}"
        );
        // The shared link and disk bound the gain, but extra slots must
        // not make things worse.
        assert!(
            four.throughput_mb_s > 0.9 * one.throughput_mb_s,
            "1 slot {:.2} MB/s, 4 slots {:.2} MB/s",
            one.throughput_mb_s,
            four.throughput_mb_s
        );
    }

    #[test]
    fn concurrent_flushes_only_with_device() {
        let base = run(SystemConfig::default(), mb(256));
        assert_eq!(base.concurrent_flushes, 0);
        let fcae = run(
            SystemConfig::default().with_engine(EngineKind::Fcae(FcaeConfig::nine_input())),
            mb(256),
        );
        assert!(fcae.concurrent_flushes > 0, "{fcae:?}");
    }

    /// The acceptance bar for simulated observability: two identical
    /// runs must produce byte-identical metric *and* trace exports,
    /// because the attached clock advances with modeled time only.
    #[test]
    fn identical_runs_export_identical_observability() {
        let run_once = || {
            let (bundle, clock) = obs::Obs::manual();
            let cfg =
                SystemConfig::default().with_engine(EngineKind::Fcae(FcaeConfig::nine_input()));
            let r = WriteSim::new(cfg, mb(128))
                .with_obs(Arc::clone(&bundle), clock)
                .run();
            (bundle.export_text(), r)
        };
        let (a, ra) = run_once();
        let (b, rb) = run_once();
        assert_eq!(a, b, "two identical runs must export identical bytes");
        assert_eq!(ra.flushes, rb.flushes);
        // The export actually carries the simulated activity.
        assert!(a.contains("counter lsm.flush.count"), "{a}");
        assert!(a.contains("compaction_finish"), "{a}");
        assert!(a.contains("flush bytes="), "{a}");
    }

    #[test]
    fn levels_respect_budgets_roughly() {
        let r = run(SystemConfig::default(), mb(512));
        // L1 should be near its 10 MiB budget, not wildly above.
        assert!(
            r.level_bytes[1] < 4 * (10 << 20),
            "L1 = {}",
            r.level_bytes[1]
        );
        // Data ends up in deeper levels.
        assert!(r.level_bytes[2] + r.level_bytes[3] > 0);
    }
}

#[cfg(test)]
mod tiering_tests {
    use super::*;
    use crate::config::EngineKind;
    use fcae::FcaeConfig;

    fn tiered_cfg() -> SystemConfig {
        SystemConfig {
            value_len: 512,
            l1_tiering_runs: Some(8),
            ..SystemConfig::default()
        }
    }

    #[test]
    fn tiered_runs_complete_and_conserve() {
        let r = WriteSim::new(tiered_cfg(), 256 << 20).run();
        assert_eq!(r.bytes_written, 256 << 20);
        assert!(r.flushes > 30);
        let total: u64 = r.level_bytes.iter().sum();
        // Stored data (~50% of raw, minus dedup) must be present.
        assert!(total > 60 << 20, "levels hold {total} bytes");
    }

    #[test]
    fn two_input_engine_cannot_take_tiered_merges() {
        // A tiered L1 merge has ~8 inputs: N=2 must fall back to software
        // while N=9 offloads — the paper's §VII-C motivation.
        let n2 = WriteSim::new(
            tiered_cfg().with_engine(EngineKind::Fcae(FcaeConfig::two_input())),
            256 << 20,
        )
        .run();
        let n9 = WriteSim::new(
            tiered_cfg().with_engine(EngineKind::Fcae(FcaeConfig::nine_input())),
            256 << 20,
        )
        .run();
        assert!(
            n2.sw_compactions > n9.sw_compactions,
            "N=2 sw {} vs N=9 sw {}",
            n2.sw_compactions,
            n9.sw_compactions
        );
        assert!(
            n9.throughput_mb_s > n2.throughput_mb_s,
            "N=9 {:.2} must beat N=2 {:.2} under tiering",
            n9.throughput_mb_s,
            n2.throughput_mb_s
        );
    }

    #[test]
    fn tiering_reduces_baseline_write_amp() {
        // Lazy compaction defers merges: the CPU baseline's write
        // amplification drops relative to pure leveling.
        let leveled = WriteSim::new(
            SystemConfig {
                value_len: 512,
                ..SystemConfig::default()
            },
            256 << 20,
        )
        .run();
        let tiered = WriteSim::new(tiered_cfg(), 256 << 20).run();
        assert!(
            tiered.write_amplification() < leveled.write_amplification(),
            "tiered WA {:.2} vs leveled WA {:.2}",
            tiered.write_amplification(),
            leveled.write_amplification()
        );
    }
}

#[cfg(test)]
mod kv_separation_tests {
    use super::*;

    fn big_value_cfg() -> SystemConfig {
        SystemConfig {
            value_len: 1024,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn separation_cuts_compaction_volume_and_lifts_throughput() {
        let base = WriteSim::new(big_value_cfg(), 256 << 20).run();
        let sep = WriteSim::new(big_value_cfg().with_kv_separation(512), 256 << 20).run();
        assert!(sep.vlog_appended_bytes > 200 << 20, "{sep:?}");
        assert!(
            sep.compaction_io_bytes < base.compaction_io_bytes / 4,
            "separated moved {} vs inline {}",
            sep.compaction_io_bytes,
            base.compaction_io_bytes
        );
        assert!(
            sep.throughput_mb_s > base.throughput_mb_s,
            "separated {:.2} MB/s vs inline {:.2} MB/s",
            sep.throughput_mb_s,
            base.throughput_mb_s
        );
    }

    #[test]
    fn gc_runs_and_accounts_under_update_heavy_load() {
        // High shadowing rate: dropped pointers strand their values, the
        // dead-space trigger fires, and GC passes contend for the host
        // thread alongside flushes and compactions.
        // Pointer entries shrink the tree ~28x, so a default-size
        // memtable would never even reach the L0 trigger over this run;
        // a 1 MiB memtable restores the flush/compaction cadence.
        let cfg = SystemConfig {
            dedup_fraction: 0.6,
            memtable_bytes: 1 << 20,
            ..big_value_cfg().with_kv_separation(512)
        };
        let r = WriteSim::new(cfg, 256 << 20).run();
        assert!(r.gc_jobs > 0, "{r:?}");
        assert!(r.gc_rewritten_bytes > 0, "{r:?}");
        // GC cannot collect more than was ever appended.
        assert!(
            r.vlog_dead_bytes < r.vlog_appended_bytes,
            "dead {} vs appended {}",
            r.vlog_dead_bytes,
            r.vlog_appended_bytes
        );
    }

    #[test]
    fn sub_threshold_values_stay_inline() {
        // 128-byte default values under a 4 KiB threshold: separation is
        // configured but never applies, so the run is byte-for-byte the
        // baseline.
        let base = WriteSim::new(SystemConfig::default(), 128 << 20).run();
        let thresh =
            WriteSim::new(SystemConfig::default().with_kv_separation(4096), 128 << 20).run();
        assert_eq!(thresh.vlog_appended_bytes, 0);
        assert_eq!(thresh.gc_jobs, 0);
        assert_eq!(thresh.compaction_io_bytes, base.compaction_io_bytes);
        assert_eq!(thresh.flushes, base.flushes);
    }
}
