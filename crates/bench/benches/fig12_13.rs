//! **E6 — Fig. 12 and Fig. 13**: multi-input FCAE. Compaction speed of
//! the 2-input engine (W=64, V=16) against the 9-input engine (the
//! resource-constrained W_in=8, V=8 point), and each one's acceleration
//! ratio over its CPU baseline (a 2-way or 9-way software merge).

use bench::inputs::kernel_request;
use bench::{banner, build_kernel_inputs, fmt, KernelInputSpec, MemFactory, TablePrinter};
use fcae::{CpuCostModel, FcaeConfig, FcaeEngine};
use sstable::env::MemEnv;

fn run_engine(cfg: FcaeConfig, value_len: usize) -> f64 {
    let env = MemEnv::new();
    let spec = KernelInputSpec {
        n_inputs: cfg.n_inputs,
        value_len,
        entries_per_input: (6 << 20) / (cfg.n_inputs as u64 * (16 + value_len) as u64),
        compression_ratio: 1.0,
        ..Default::default()
    };
    let inputs = build_kernel_inputs(&env, &spec);
    let engine = FcaeEngine::new(cfg);
    let factory = MemFactory::new(env);
    let (_, report) = engine.compact(&kernel_request(inputs), &factory).unwrap();
    report.compaction_speed_mb_s
}

fn main() {
    banner(
        "E6 (Fig. 12 + 13)",
        "2-input vs 9-input FCAE: compaction speed and acceleration ratio",
    );

    let two = FcaeConfig::two_input(); // W=64, V=16
    let nine = FcaeConfig::nine_input(); // W_in=8, V=8

    let mut speed = TablePrinter::new(&["L_value", "2-input MB/s", "9-input MB/s", "9/2 ratio"]);
    let mut ratio = TablePrinter::new(&["L_value", "accel 2-input", "accel 9-input"]);

    let mut gaps: Vec<f64> = Vec::new();
    for value_len in [64usize, 128, 256, 512, 1024, 2048] {
        let s2 = run_engine(two, value_len);
        let s9 = run_engine(nine, value_len);
        gaps.push(s9 / s2);
        speed.row(&[
            value_len.to_string(),
            fmt(s2),
            fmt(s9),
            format!("{:.2}", s9 / s2),
        ]);
        let cpu2 = CpuCostModel::new(2).compaction_speed_mb_s(24, value_len);
        let cpu9 = CpuCostModel::new(9).compaction_speed_mb_s(24, value_len);
        ratio.row(&[
            value_len.to_string(),
            format!("{:.1}x", s2 / cpu2),
            format!("{:.1}x", s9 / cpu9),
        ]);
    }

    println!("\nFig. 12 — compaction speed:");
    speed.print();
    println!(
        "\nexpected shape: 9-input slower at small values (Comparer-bound, \
         deeper tree),\nconverging toward 1.0 as values grow (decoder-bound, same V effect):"
    );
    println!(
        "  small-value gap {:.2}, large-value gap {:.2}",
        gaps.first().unwrap(),
        gaps.last().unwrap()
    );

    println!("\nFig. 13 — acceleration ratio vs the (N-way) CPU baseline:");
    ratio.print();
    println!("expected shape: the 9-input ratio is *larger* (the parallel Comparer");
    println!("scales better than a 9-way software merge heap).");
}
