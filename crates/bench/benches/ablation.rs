//! **Ablation** (DESIGN.md): how much each of the paper's three
//! optimizations contributes — index/data block separation (§V-B),
//! key-value separation (§V-C), and wide transmission (§V-D) — measured
//! as kernel compaction speed on real merges with each flag toggled.

use bench::inputs::kernel_request;
use bench::{banner, build_kernel_inputs, fmt, KernelInputSpec, MemFactory, TablePrinter};
use fcae::{AblationFlags, FcaeConfig, FcaeEngine};
use sstable::env::MemEnv;

fn speed(flags: AblationFlags, value_len: usize) -> f64 {
    let cfg = FcaeConfig {
        ablation: flags,
        ..FcaeConfig::two_input()
    };
    let env = MemEnv::new();
    let spec = KernelInputSpec {
        n_inputs: 2,
        value_len,
        entries_per_input: (4 << 20) / (2 * (16 + value_len) as u64),
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
        "Ablation",
        "contribution of each design optimization (N=2, V=16)",
    );

    let variants: [(&str, AblationFlags); 5] = [
        ("basic (Fig. 2)", AblationFlags::all_off()),
        (
            "+ index/data sep (Fig. 3)",
            AblationFlags {
                index_data_separation: true,
                ..AblationFlags::all_off()
            },
        ),
        (
            "+ key/value sep (Fig. 4)",
            AblationFlags {
                index_data_separation: true,
                key_value_separation: true,
                wide_transmission: false,
            },
        ),
        ("+ wide datapath (Fig. 5)", AblationFlags::all_on()),
        (
            "only wide, no kv-sep",
            AblationFlags {
                index_data_separation: true,
                key_value_separation: false,
                wide_transmission: true,
            },
        ),
    ];

    let mut table = TablePrinter::new(&["design", "Lv=64", "Lv=512", "Lv=2048"]);
    let mut full_speed = [0.0f64; 3];
    let mut basic_speed = [0.0f64; 3];
    for (name, flags) in variants {
        let mut row = vec![name.to_string()];
        for (i, value_len) in [64usize, 512, 2048].into_iter().enumerate() {
            let s = speed(flags, value_len);
            if name.starts_with("basic") {
                basic_speed[i] = s;
            }
            if name.starts_with("+ wide") {
                full_speed[i] = s;
            }
            row.push(fmt(s));
        }
        table.row(&row);
    }
    println!("\nkernel compaction speed (MB/s):");
    table.print();
    println!("\ncumulative gain of the full design over the basic pipeline:");
    for (i, value_len) in [64usize, 512, 2048].into_iter().enumerate() {
        println!(
            "  L_value={value_len}: {:.1}x",
            full_speed[i] / basic_speed[i].max(1e-9)
        );
    }
    println!("\nexpected: each stage helps; wide transmission matters most for long");
    println!("values, key-value separation for the Comparer-bound short-value regime.");
}
