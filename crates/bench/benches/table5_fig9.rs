//! **E1/E2 — Table V and Fig. 9**: 2-input kernel compaction speed and
//! acceleration ratio vs the CPU baseline, sweeping the value length
//! (64–2048 B) and the value datapath width V (8–64 B/cycle).
//!
//! Three speeds are reported per cell:
//! * `model` — the simulated FPGA engine running a *real* merge over real
//!   SSTables, timed by the cycle model (the reproduction's number);
//! * `paper` — the value published in Table V;
//! * the CPU column additionally shows the native Rust merge wall-clock
//!   on this host, to document how far 2026 hardware is from the paper's
//!   measured 2019 baseline.

use std::time::Instant;

use bench::inputs::kernel_request;
use bench::paper;
use bench::{banner, build_kernel_inputs, fmt, KernelInputSpec, MemFactory, TablePrinter};
use fcae::{CpuCostModel, FcaeConfig, FcaeEngine};
use lsm::compaction::{CompactionEngine, CpuCompactionEngine};
use sstable::env::MemEnv;

fn main() {
    banner(
        "E1 (Table V)",
        "2-input compaction speed: CPU baseline vs FCAE, V ∈ {8,16,32,64}",
    );

    let v_sweep = [8u32, 16, 32, 64];
    let mut speed_table = TablePrinter::new(&[
        "L_value",
        "CPU model",
        "CPU paper",
        "CPU native",
        "V=8",
        "(paper)",
        "V=16",
        "(paper)",
        "V=32",
        "(paper)",
        "V=64",
        "(paper)",
    ]);
    let mut ratio_rows: Vec<(usize, Vec<f64>)> = Vec::new();

    for &(value_len, cpu_paper, p8, p16, p32, p64) in &paper::TABLE5 {
        let paper_by_v = [p8, p16, p32, p64];
        let env = MemEnv::new();
        let spec = KernelInputSpec {
            n_inputs: 2,
            value_len,
            // Keep each cell's merge around ~8 MB of raw data.
            entries_per_input: (8 << 20) / (2 * (16 + value_len) as u64),
            // Table V divides by stored input bytes; incompressible values
            // keep stored == raw, matching the paper's convention.
            compression_ratio: 1.0,
            ..Default::default()
        };
        let cpu_model = CpuCostModel::new(2).compaction_speed_mb_s(24, value_len);

        // Native CPU merge wall clock (this host).
        let inputs = build_kernel_inputs(&env, &spec);
        let input_bytes: u64 = inputs.iter().map(|i| i.bytes()).sum();
        let factory = MemFactory::new(env.clone());
        let t0 = Instant::now();
        CpuCompactionEngine
            .compact(&kernel_request(inputs), &factory)
            .unwrap();
        let native = input_bytes as f64 / t0.elapsed().as_secs_f64() / 1e6;

        let mut row = vec![
            value_len.to_string(),
            fmt(cpu_model),
            fmt(cpu_paper),
            fmt(native),
        ];
        let mut ratios = Vec::new();
        for (vi, &v) in v_sweep.iter().enumerate() {
            let engine = FcaeEngine::new(FcaeConfig::two_input().with_v(v));
            let inputs = build_kernel_inputs(&env, &spec);
            let factory = MemFactory::new(env.clone());
            let (_, report) = engine.compact(&kernel_request(inputs), &factory).unwrap();
            let speed = report.compaction_speed_mb_s;
            row.push(fmt(speed));
            row.push(format!("({})", fmt(paper_by_v[vi])));
            ratios.push(speed / cpu_model);
        }
        speed_table.row(&row);
        ratio_rows.push((value_len, ratios));
    }
    println!("\ncompaction speed (MB/s); `paper` columns are Table V's published values:");
    speed_table.print();

    banner(
        "E2 (Fig. 9)",
        "acceleration ratio of FCAE over the calibrated CPU baseline",
    );
    let mut ratio_table = TablePrinter::new(&["L_value", "V=8", "V=16", "V=32", "V=64"]);
    let mut max_ratio = 0.0f64;
    for (value_len, ratios) in &ratio_rows {
        let mut row = vec![value_len.to_string()];
        for r in ratios {
            row.push(format!("{r:.1}x"));
            max_ratio = max_ratio.max(*r);
        }
        ratio_table.row(&row);
    }
    ratio_table.print();
    println!(
        "\nmax acceleration: {max_ratio:.1}x (paper's headline: up to {:.1}x)",
        paper::MAX_KERNEL_ACCELERATION
    );
    println!("expected shape: ratio grows with L_value; larger V helps long values.");
}
