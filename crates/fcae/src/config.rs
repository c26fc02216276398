//! Engine configuration: the paper's tunables `N`, `V`, `W_in`, `W_out`
//! (Table I) plus clock frequency, block/table sizes, and PCIe link
//! parameters.

/// PCIe link model (the card is "PCIe gen3 ×16"-attached, §VII-A).
#[derive(Debug, Clone, Copy)]
pub struct PcieConfig {
    /// Effective unidirectional bandwidth in bytes/second. Gen3 ×16 is
    /// 15.75 GB/s raw; ~12.8 GB/s is a typical effective DMA rate.
    pub bandwidth_bytes_per_sec: f64,
    /// Per-DMA-transfer setup latency in seconds (doorbell + descriptor).
    pub per_transfer_latency_sec: f64,
}

impl PcieConfig {
    /// Seconds to move `bytes` across the link in one round trip: two
    /// transfers' setup latency (to the device and back) plus the bytes
    /// of both directions at the link bandwidth.
    pub fn round_trip_sec(&self, bytes: u64) -> f64 {
        2.0 * self.per_transfer_latency_sec + bytes as f64 / self.bandwidth_bytes_per_sec
    }
}

impl Default for PcieConfig {
    fn default() -> Self {
        PcieConfig {
            bandwidth_bytes_per_sec: 12.8e9,
            per_transfer_latency_sec: 10e-6,
        }
    }
}

/// Which of the paper's three optimizations are active. All-on is the
/// proposed design (Fig. 5); switching them off reproduces the §V-B/C/D
/// ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationFlags {
    /// §V-B: split Index/Data Block Decoder+Encoder so index handling is
    /// pipelined (off = the basic design's read-pointer switching stall).
    pub index_data_separation: bool,
    /// §V-C: keys and values travel in separate streams; values skip the
    /// Comparer (off = whole pairs cross every stage byte by byte).
    pub key_value_separation: bool,
    /// §V-D: V-byte-wide value datapath + W-byte AXI bursts (off = 1
    /// byte/cycle everywhere).
    pub wide_transmission: bool,
}

impl AblationFlags {
    /// The full optimized design.
    pub fn all_on() -> Self {
        AblationFlags {
            index_data_separation: true,
            key_value_separation: true,
            wide_transmission: true,
        }
    }

    /// The basic pipeline of Fig. 2.
    pub fn all_off() -> Self {
        AblationFlags {
            index_data_separation: false,
            key_value_separation: false,
            wide_transmission: false,
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct FcaeConfig {
    /// Number of merge inputs the hardware supports (the paper's `N`).
    pub n_inputs: usize,
    /// Value datapath width in bytes/cycle (`V`).
    pub v: u32,
    /// AXI read width in bytes/cycle (`W_in`).
    pub w_in: u32,
    /// AXI write width in bytes/cycle (`W_out`).
    pub w_out: u32,
    /// Kernel clock in MHz (the KCU1500 engine runs at 200 MHz).
    pub freq_mhz: u64,
    /// Target output data block size (4 KiB in the paper's examples).
    pub data_block_size: usize,
    /// Target output SSTable size (2 MiB in the paper's examples).
    pub table_size: u64,
    /// Off-chip DRAM capacity on the card (KCU1500: 16 GiB). Inputs and
    /// outputs of one offloaded compaction must fit (§IV steps 3-6).
    pub dram_bytes: u64,
    /// PCIe link model.
    pub pcie: PcieConfig,
    /// Active design optimizations.
    pub ablation: AblationFlags,
}

impl FcaeConfig {
    /// The paper's 2-input configuration (§VII-B): `N=2`, maximal AXI
    /// widths, tunable `V` (default 16).
    pub fn two_input() -> Self {
        FcaeConfig {
            n_inputs: 2,
            v: 16,
            w_in: 64,
            w_out: 64,
            freq_mhz: 200,
            data_block_size: 4096,
            table_size: 2 << 20,
            dram_bytes: 16 << 30,
            pcie: PcieConfig::default(),
            ablation: AblationFlags::all_on(),
        }
    }

    /// The paper's multi-input configuration (§VII-C): `N=9` with
    /// `W_in=8`, `V=8` — the only 9-input point that fits the KCU1500
    /// (Table VII).
    pub fn nine_input() -> Self {
        FcaeConfig {
            n_inputs: 9,
            v: 8,
            w_in: 8,
            w_out: 64,
            freq_mhz: 200,
            data_block_size: 4096,
            table_size: 2 << 20,
            dram_bytes: 16 << 30,
            pcie: PcieConfig::default(),
            ablation: AblationFlags::all_on(),
        }
    }

    /// Builder-style override of `V`.
    pub fn with_v(mut self, v: u32) -> Self {
        self.v = v;
        self
    }

    /// Builder-style override of `W_in`.
    pub fn with_w_in(mut self, w_in: u32) -> Self {
        self.w_in = w_in;
        self
    }

    /// Builder-style override of `N`.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n_inputs = n;
        self
    }

    /// Seconds per kernel cycle.
    pub fn cycle_time_sec(&self) -> f64 {
        1.0 / (self.freq_mhz as f64 * 1e6)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_inputs < 2 {
            return Err(format!("N must be >= 2, got {}", self.n_inputs));
        }
        if !self.v.is_power_of_two()
            || !self.w_in.is_power_of_two()
            || !self.w_out.is_power_of_two()
        {
            return Err("V, W_in, W_out must be powers of two".into());
        }
        if self.v > self.w_in && self.ablation.wide_transmission {
            return Err(format!(
                "V ({}) must be <= W_in ({}) — the Stream Downsizer narrows, never widens",
                self.v, self.w_in
            ));
        }
        if self.freq_mhz == 0 || self.data_block_size == 0 || self.table_size == 0 {
            return Err("frequency, block size and table size must be nonzero".into());
        }
        Ok(())
    }
}

impl Default for FcaeConfig {
    fn default() -> Self {
        Self::two_input()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        FcaeConfig::two_input().validate().unwrap();
        FcaeConfig::nine_input().validate().unwrap();
        for v in [8u32, 16, 32, 64] {
            FcaeConfig::two_input().with_v(v).validate().unwrap();
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(FcaeConfig::two_input().with_n(1).validate().is_err());
        assert!(FcaeConfig::two_input().with_v(24).validate().is_err());
        // V wider than the AXI ingress makes no sense with downsizers.
        assert!(FcaeConfig::two_input()
            .with_w_in(8)
            .with_v(64)
            .validate()
            .is_err());
    }

    #[test]
    fn cycle_time_matches_frequency() {
        let c = FcaeConfig::two_input();
        assert!((c.cycle_time_sec() - 5e-9).abs() < 1e-15);
    }
}
