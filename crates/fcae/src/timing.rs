//! The cycle model: per-module pipeline periods from the paper's
//! Tables II/III plus calibrated memory-system constants.
//!
//! # Model
//!
//! In steady state a pipelined engine emits one key-value pair per
//! `max(module periods)` cycles. The paper's optimized periods (Table III)
//! are, for key length `K` (internal key: user key + 8 mark bytes) and
//! value length `L`:
//!
//! * Data Block Decoder: `K + L/V`
//! * Comparer: `(2 + ceil(log2 N)) * K`
//! * Key-Value Transfer: `max(K, L/V)`
//! * Data Block Encoder: `K`
//!
//! The Filter Block Encoder (not in the paper; see `encoder`) hashes the
//! user key at one byte per cycle beside the Data Block Encoder: its
//! period `K − 8` is below the encoder's `K` for every pair, so it never
//! is the `max` and no cycle count depends on it.
//!
//! Two calibrated terms bring the idealized table in line with the
//! paper's *measured* speeds (Table V):
//!
//! * the value actually crosses the V-wide datapath twice (into the
//!   decode FIFO and out through the transfer/output path), and every
//!   value byte also costs a share of the card's DRAM/AXI system —
//!   `VALUE_DATAPATH_PASSES / V + MEM_CYCLES_PER_VALUE_BYTE` cycles/byte;
//! * each emitted pair pays a fixed control overhead
//!   (`ENTRY_OVERHEAD_CYCLES`: varint parsing, FIFO synchronization, the
//!   select in Key-Value Transfer).
//!
//! With `VALUE_DATAPATH_PASSES = 2.0`, `MEM_CYCLES_PER_VALUE_BYTE = 0.12`
//! and `ENTRY_OVERHEAD_CYCLES = 25`, the model reproduces the paper's
//! Table V within ~15% across all 24 (V, L_value) cells — see
//! EXPERIMENTS.md.
//!
//! Ablations (§V-B/C/D) change the periods:
//!
//! * without **wide transmission**, `V = 1` and AXI bursts are 1 B/cycle;
//! * without **key-value separation**, the whole pair crosses the
//!   Comparer path, so its period grows from `(2+⌈log2 N⌉)·K` to
//!   `(2+⌈log2 N⌉)·(K + L/V)`;
//! * without **index/data separation**, the decoder stalls at every block
//!   boundary for the index fetch: one DRAM round trip plus the index
//!   entry parse are added to the block's critical path instead of being
//!   hidden.

use crate::config::FcaeConfig;
// Every period/calibration constant lives in `paper_tables`, next to the
// table it came from; the `paper-constants` lint forbids declaring any
// here. Re-exported so existing `fcae::timing::X` paths keep working.
pub use crate::paper_tables::{
    BASIC_INDEX_FETCH_ROUND_TRIPS, BASIC_INDEX_FLUSH_ROUND_TRIPS, BLOCK_SETUP_CYCLES,
    COMPARER_BASE_STAGES, DRAM_READ_LATENCY_CYCLES, DROPPED_PAIR_PERIOD_FACTOR,
    ENTRY_OVERHEAD_CYCLES, KEY_MARK_BYTES, MEM_CYCLES_PER_VALUE_BYTE, PIPELINE_FILL_PERIODS,
    TABLE_RESET_CYCLES, VALUE_DATAPATH_PASSES,
};

/// Per-module cycle attribution for one kernel invocation.
///
/// Each merged pair's period is charged to the module that bottlenecked
/// it (the `max` in [`PipelineModel::pair_period`], ties broken in
/// pipeline order), so the fields always sum to
/// [`PipelineModel::cycles`]: `decoder + comparer + transfer + encoder +
/// axi + overhead + memory == cycles`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModuleBreakdown {
    /// Cycles where the Data Block Decoder was the bottleneck.
    pub decoder: f64,
    /// Cycles where the Comparer was the bottleneck.
    pub comparer: f64,
    /// Cycles where Key-Value Transfer was the bottleneck.
    pub transfer: f64,
    /// Cycles where the Data Block Encoder was the bottleneck.
    pub encoder: f64,
    /// Cycles where AXI ingress/egress was the bottleneck.
    pub axi: f64,
    /// Fixed per-entry control overhead plus the pipeline fill.
    pub overhead: f64,
    /// DRAM block fetch/flush stalls and output table resets.
    pub memory: f64,
}

impl ModuleBreakdown {
    /// Sum of every attribution bucket; equals the model's total cycles.
    pub fn total(&self) -> f64 {
        self.decoder
            + self.comparer
            + self.transfer
            + self.encoder
            + self.axi
            + self.overhead
            + self.memory
    }
}

/// Steady-state period of each pipeline module for one pair; the
/// engine's emission period is the max over them.
struct ModulePeriods {
    decoder: f64,
    comparer: f64,
    transfer: f64,
    encoder: f64,
    filter_encoder: f64,
    axi: f64,
}

impl ModulePeriods {
    fn max(&self) -> f64 {
        self.decoder
            .max(self.comparer)
            .max(self.transfer)
            .max(self.encoder)
            .max(self.filter_encoder)
            .max(self.axi)
    }
}

/// Accumulates cycles for one kernel invocation.
#[derive(Debug, Clone)]
pub struct PipelineModel {
    config: FcaeConfig,
    cycles: f64,
    pairs: u64,
    blocks_in: u64,
    blocks_out: u64,
    tables_out: u64,
    filled: bool,
    breakdown: ModuleBreakdown,
}

impl PipelineModel {
    /// Creates a model for `config`.
    pub fn new(config: FcaeConfig) -> Self {
        PipelineModel {
            config,
            cycles: 0.0,
            pairs: 0,
            blocks_in: 0,
            blocks_out: 0,
            tables_out: 0,
            filled: false,
            breakdown: ModuleBreakdown::default(),
        }
    }

    /// Effective value datapath width (1 when wide transmission is off).
    fn v(&self) -> f64 {
        if self.config.ablation.wide_transmission {
            self.config.v as f64
        } else {
            1.0
        }
    }

    /// Cycles to move `L` value bytes through the datapath + memory system.
    fn value_cycles(&self, value_len: f64) -> f64 {
        value_len * (VALUE_DATAPATH_PASSES / self.v() + MEM_CYCLES_PER_VALUE_BYTE)
    }

    /// Per-module periods (cycles/pair) for a pair of the given lengths.
    fn module_periods(&self, key_len: usize, value_len: usize) -> ModulePeriods {
        let k = key_len as f64;
        let l = value_len as f64;
        let n = self.config.n_inputs as f64;
        let log2n = (self.config.n_inputs as f64).log2().ceil();

        let (cmp_payload, xfer_value) = if self.config.ablation.key_value_separation {
            // Values skip the Comparer entirely.
            (k, self.value_cycles(l))
        } else {
            // Whole pairs cross every stage.
            (k + l / self.v(), self.value_cycles(l) + k)
        };

        // AXI ingress/egress: the stored pair must stream through W_in /
        // W_out byte lanes (per input; inputs stream in parallel).
        let (w_in, w_out) = if self.config.ablation.wide_transmission {
            (self.config.w_in as f64, self.config.w_out as f64)
        } else {
            (1.0, 1.0)
        };
        let _ = n;

        ModulePeriods {
            decoder: k + self.value_cycles(l),
            comparer: (COMPARER_BASE_STAGES + log2n) * cmp_payload,
            transfer: k.max(xfer_value),
            encoder: k,
            // One user-key byte per cycle into the hash unit; the 8 mark
            // bytes are not hashed.
            filter_encoder: (k - KEY_MARK_BYTES).max(0.0),
            axi: ((k + l) / w_in).max((k + l) / w_out),
        }
    }

    /// Steady-state period (cycles/pair) for a pair of the given lengths.
    /// Exposed so experiments can query the analytic bottleneck directly.
    pub fn pair_period(&self, key_len: usize, value_len: usize) -> f64 {
        self.module_periods(key_len, value_len).max()
    }

    /// Charges one merged pair. `kept` is false for entries the validity
    /// check dropped (they skip transfer/encode but still paid decode and
    /// compare, which the max-based period already covers).
    pub fn on_pair(&mut self, key_len: usize, value_len: usize, kept: bool) {
        let periods = self.module_periods(key_len, value_len);
        let period = periods.max();
        if !self.filled {
            // Pipeline fill: one pass through every stage before the
            // steady state.
            let fill = PIPELINE_FILL_PERIODS * period;
            self.cycles += fill;
            self.breakdown.overhead += fill;
            self.filled = true;
        }
        let charged = if kept {
            period
        } else {
            // Dropped pairs do not cross transfer/encode; they cost the
            // decode/compare legs only.
            period * DROPPED_PAIR_PERIOD_FACTOR
        };
        // Attribute the pair to its bottleneck module (ties broken in
        // pipeline order).
        let bucket = if periods.decoder >= period {
            &mut self.breakdown.decoder
        } else if periods.comparer >= period {
            &mut self.breakdown.comparer
        } else if periods.transfer >= period {
            &mut self.breakdown.transfer
        } else if periods.encoder >= period {
            &mut self.breakdown.encoder
        } else {
            &mut self.breakdown.axi
        };
        *bucket += charged;
        self.breakdown.overhead += ENTRY_OVERHEAD_CYCLES;
        self.cycles += charged + ENTRY_OVERHEAD_CYCLES;
        self.pairs += 1;
    }

    /// Charges an input data block fetch (DRAM burst + handle parse).
    pub fn on_block_fetch(&mut self) {
        self.blocks_in += 1;
        let stall = if self.config.ablation.index_data_separation {
            // Index decoding is pipelined; only the DRAM burst setup shows.
            DRAM_READ_LATENCY_CYCLES
        } else {
            // Basic design: the read pointer switches to the index block
            // and back, serializing an extra DRAM round trip + parse.
            BASIC_INDEX_FETCH_ROUND_TRIPS * DRAM_READ_LATENCY_CYCLES + BLOCK_SETUP_CYCLES
        };
        self.cycles += stall + BLOCK_SETUP_CYCLES;
        self.breakdown.memory += stall + BLOCK_SETUP_CYCLES;
    }

    /// Charges an output data block flush (and its index entry, which is
    /// pipelined in the optimized design).
    pub fn on_block_flush(&mut self) {
        self.blocks_out += 1;
        let stall = if self.config.ablation.index_data_separation {
            DRAM_READ_LATENCY_CYCLES
        } else {
            // Basic design buffers the whole index block in BRAM and pays
            // for it when the table completes; charge per block here.
            BASIC_INDEX_FLUSH_ROUND_TRIPS * DRAM_READ_LATENCY_CYCLES + BLOCK_SETUP_CYCLES
        };
        self.cycles += stall;
        self.breakdown.memory += stall;
    }

    /// Charges completion of one output SSTable.
    pub fn on_table_complete(&mut self) {
        self.tables_out += 1;
        self.cycles += TABLE_RESET_CYCLES;
        self.breakdown.memory += TABLE_RESET_CYCLES;
    }

    /// Total cycles so far.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Per-module attribution of [`cycles`](Self::cycles).
    pub fn breakdown(&self) -> ModuleBreakdown {
        self.breakdown
    }

    /// Pairs processed.
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Kernel time in seconds at the configured clock.
    pub fn kernel_time_sec(&self) -> f64 {
        self.cycles * self.config.cycle_time_sec()
    }

    /// The paper's §VII-B metric: input bytes / kernel time, in MB/s.
    pub fn compaction_speed_mb_s(&self, input_bytes: u64) -> f64 {
        let t = self.kernel_time_sec();
        if t == 0.0 {
            return 0.0;
        }
        input_bytes as f64 / t / 1e6
    }

    /// Analytic steady-state compaction speed (MB/s) for uniform pairs,
    /// without running a workload — used by the system simulator, which
    /// charges compaction jobs by bytes.
    pub fn steady_state_speed_mb_s(&self, key_len: usize, value_len: usize) -> f64 {
        let period = self.pair_period(key_len, value_len) + ENTRY_OVERHEAD_CYCLES;
        // Per-block overhead amortized over the pairs in one block.
        let pair_bytes = (key_len + value_len) as f64;
        let pairs_per_block = (self.config.data_block_size as f64 / pair_bytes).max(1.0);
        let block_overhead =
            (DRAM_READ_LATENCY_CYCLES + BLOCK_SETUP_CYCLES + DRAM_READ_LATENCY_CYCLES)
                / pairs_per_block;
        let cycles_per_pair = period + block_overhead;
        let pairs_per_sec = 1.0 / (cycles_per_pair * self.config.cycle_time_sec());
        pairs_per_sec * pair_bytes / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationFlags;

    const K: usize = 24; // 16-byte user key + 8 mark bytes

    #[test]
    fn bottleneck_crossover_matches_paper() {
        // §V-D: decoder dominates iff L_key < L_value / ((1+⌈log2 N⌉)·V).
        // With N=2, V=64 and small values, the Comparer (3·K = 72) wins.
        let cfg = FcaeConfig::two_input().with_v(64);
        let m = PipelineModel::new(cfg);
        let small = m.pair_period(K, 64);
        assert!((small - 72.0).abs() < 1e-9, "comparer-bound: {small}");
        // With huge values the decoder term dominates and grows with L.
        let big = m.pair_period(K, 2048);
        assert!(big > 72.0);
        assert!(m.pair_period(K, 4096) > big);
    }

    #[test]
    fn filter_encoder_never_bounds_the_pipeline() {
        let configs = [
            FcaeConfig::two_input(),
            FcaeConfig::nine_input(),
            FcaeConfig {
                ablation: AblationFlags::all_off(),
                ..FcaeConfig::two_input()
            },
        ];
        for cfg in configs {
            let m = PipelineModel::new(cfg);
            for key_len in [1usize, 8, 9, K, 64, 1024] {
                for value_len in [0usize, 64, 4096] {
                    let p = m.module_periods(key_len, value_len);
                    assert!(
                        p.filter_encoder < p.encoder,
                        "K={key_len} L={value_len}: {} vs encoder {}",
                        p.filter_encoder,
                        p.encoder
                    );
                }
            }
        }
    }

    #[test]
    fn larger_v_never_slows_the_pipeline() {
        for lv in [64usize, 128, 256, 512, 1024, 2048] {
            let mut last = f64::INFINITY;
            for v in [8u32, 16, 32, 64] {
                let m = PipelineModel::new(FcaeConfig::two_input().with_v(v));
                let p = m.pair_period(K, lv);
                assert!(p <= last + 1e-9, "V={v} L={lv}: {p} > {last}");
                last = p;
            }
        }
    }

    #[test]
    fn nine_input_comparer_costs_more() {
        let two = PipelineModel::new(FcaeConfig::two_input().with_v(8));
        let nine = PipelineModel::new(FcaeConfig::nine_input());
        // Small values: comparer-bound, so N=9 is slower.
        assert!(nine.pair_period(K, 64) > two.pair_period(K, 64));
        // Huge values: decoder-bound with the same V, so the gap closes
        // (Fig. 12's convergence).
        let p2 = two.pair_period(K, 2048);
        let p9 = nine.pair_period(K, 2048);
        assert!((p9 - p2).abs() / p2 < 0.05, "p2={p2} p9={p9}");
    }

    #[test]
    fn ablations_only_hurt() {
        let on = PipelineModel::new(FcaeConfig::two_input());
        let mut no_kv = FcaeConfig::two_input();
        no_kv.ablation.key_value_separation = false;
        let no_kv = PipelineModel::new(no_kv);
        let mut no_wide = FcaeConfig::two_input();
        no_wide.ablation.wide_transmission = false;
        let no_wide = PipelineModel::new(no_wide);
        for lv in [64usize, 512, 2048] {
            assert!(no_kv.pair_period(K, lv) >= on.pair_period(K, lv));
            assert!(no_wide.pair_period(K, lv) >= on.pair_period(K, lv));
        }
        // Basic design strictly slower on block fetches too.
        let mut basic = PipelineModel::new(FcaeConfig {
            ablation: AblationFlags::all_off(),
            ..FcaeConfig::two_input()
        });
        let mut optimized = PipelineModel::new(FcaeConfig::two_input());
        basic.on_block_fetch();
        optimized.on_block_fetch();
        assert!(basic.cycles() > optimized.cycles());
    }

    #[test]
    fn kernel_time_scales_with_frequency() {
        let mut cfg = FcaeConfig::two_input();
        cfg.freq_mhz = 200;
        let mut m = PipelineModel::new(cfg);
        m.on_pair(K, 128, true);
        let t200 = m.kernel_time_sec();
        let mut cfg = FcaeConfig::two_input();
        cfg.freq_mhz = 400;
        let mut m = PipelineModel::new(cfg);
        m.on_pair(K, 128, true);
        assert!((t200 / m.kernel_time_sec() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dropped_pairs_cost_less() {
        let mut kept = PipelineModel::new(FcaeConfig::two_input());
        let mut dropped = PipelineModel::new(FcaeConfig::two_input());
        kept.on_pair(K, 512, true);
        kept.on_pair(K, 512, true);
        dropped.on_pair(K, 512, true);
        dropped.on_pair(K, 512, false);
        assert!(dropped.cycles() < kept.cycles());
    }

    #[test]
    fn breakdown_sums_to_total_cycles() {
        let mut m = PipelineModel::new(FcaeConfig::nine_input());
        for i in 0..200usize {
            m.on_block_fetch();
            m.on_pair(K, 32 + (i * 37) % 2048, i % 7 != 0);
            if i % 13 == 0 {
                m.on_block_flush();
            }
        }
        m.on_table_complete();
        let b = m.breakdown();
        assert!((b.total() - m.cycles()).abs() < 1e-6 * m.cycles());
        assert!(b.overhead > 0.0, "{b:?}");
        assert!(b.memory > 0.0, "{b:?}");
    }

    #[test]
    fn breakdown_attributes_to_the_bottleneck_module() {
        // Small values with N=2, V=64: the comparer dominates (3·K).
        let mut m = PipelineModel::new(FcaeConfig::two_input().with_v(64));
        m.on_pair(K, 64, true);
        let b = m.breakdown();
        assert!(b.comparer > 0.0, "{b:?}");
        assert_eq!(b.decoder, 0.0, "{b:?}");
        // Huge values flip the bottleneck to the decoder.
        let mut m = PipelineModel::new(FcaeConfig::two_input().with_v(64));
        m.on_pair(K, 4096, true);
        let b = m.breakdown();
        assert!(b.decoder > 0.0, "{b:?}");
        assert_eq!(b.comparer, 0.0, "{b:?}");
    }

    #[test]
    fn model_reproduces_table5_shape() {
        // The paper's Table V, V=64 column, in MB/s. Our model should land
        // within 35% of each cell and preserve monotonic growth.
        let paper = [
            (64usize, 175.8),
            (128, 291.7),
            (256, 524.9),
            (512, 745.4),
            (1024, 1026.3),
            (2048, 1205.6),
        ];
        let mut last = 0.0;
        for (lv, expected) in paper {
            let m = PipelineModel::new(FcaeConfig::two_input().with_v(64));
            let speed = m.steady_state_speed_mb_s(K, lv);
            let ratio = speed / expected;
            assert!(
                (0.65..=1.45).contains(&ratio),
                "L_value={lv}: model {speed:.1} vs paper {expected} (ratio {ratio:.2})"
            );
            assert!(speed > last);
            last = speed;
        }
    }
}
