//! Quickstart: open a store on the offload service and its simulated
//! FPGA compaction engine, write and read data, and inspect what the
//! engine did.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use fcae_repro::fcae::FcaeConfig;
use fcae_repro::lsm::{Db, Options};
use fcae_repro::obs::Obs;
use fcae_repro::offload::{OffloadConfig, OffloadService};

fn main() {
    let dir = std::env::temp_dir().join("fcae-quickstart");
    let _ = std::fs::remove_dir_all(&dir);

    // A 9-input engine (the paper's multi-input configuration) with small
    // store limits so this demo triggers real compactions. The service
    // runs each job on the device, or on the CPU when the job has more
    // inputs than the device takes (the paper's Fig. 6). The store and
    // the service count on one bundle, so one registry holds both.
    let bundle = Obs::wall();
    let service = Arc::new(
        OffloadService::new(FcaeConfig::nine_input(), OffloadConfig::default())
            .with_obs(Arc::clone(&bundle)),
    );
    let options = Options {
        write_buffer_size: 256 << 10,
        max_file_size: 128 << 10,
        level1_max_bytes: 512 << 10,
        obs: Some(bundle),
        ..Default::default()
    };
    let db = Db::open_with_engine(&dir, options, Arc::clone(&service) as _).expect("open database");

    println!("engine: {}", db.engine_name());

    // Write 20k entries (16-byte keys / 128-byte values, the paper's
    // Table IV defaults), with some overwrites and deletes.
    let value = vec![0xa5u8; 128];
    for i in 0..20_000u64 {
        let key = format!("{:016}", i % 8_000);
        db.put(key.as_bytes(), &value).expect("put");
    }
    for i in (0..8_000u64).step_by(10) {
        db.delete(format!("{i:016}").as_bytes()).expect("delete");
    }
    db.flush().expect("flush");
    db.wait_for_background_quiescence();

    // Read back.
    let present = db.get(format!("{:016}", 1).as_bytes()).expect("get");
    let deleted = db.get(format!("{:016}", 0).as_bytes()).expect("get");
    println!(
        "key 1 -> {} bytes, key 0 (deleted) -> {:?}",
        present.map_or(0, |v| v.len()),
        deleted
    );

    // Range scan.
    let rows = db
        .scan(
            format!("{:016}", 100).as_bytes(),
            Some(format!("{:016}", 120).as_bytes()),
            100,
        )
        .expect("scan");
    println!("scan [100, 120): {} live keys", rows.len());

    // What did the store and the device do?
    let stats = db.stats();
    println!("\n-- store statistics --");
    println!("flushes:                {}", stats.flushes);
    println!("compactions:            {}", stats.engine_compactions);
    println!("trivial moves:          {}", stats.trivial_moves);
    println!("compaction bytes read:  {}", stats.compaction_bytes_read);
    println!("compaction bytes write: {}", stats.compaction_bytes_written);
    println!("modeled kernel time:    {:?}", stats.modeled_kernel_time);
    println!("modeled PCIe time:      {:?}", stats.modeled_transfer_time);
    println!("levels: {:?}", db.level_file_counts());

    let m = service.metrics();
    println!("\n-- offload service --");
    println!(
        "device jobs {} | cpu jobs {} (oversized {})",
        m.fpga_jobs,
        m.cpu_jobs(),
        m.cpu_fallback_oversized
    );

    // Every device job's modeled kernel cycles, by module.
    println!("\n-- FCAE kernel cycles, all device jobs --");
    let metrics = db.obs().registry.export_text();
    for line in metrics.lines().filter(|l| l.contains(" fcae.cycles.")) {
        println!("{line}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
