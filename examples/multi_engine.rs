//! Multi-engine compaction offload: open a store whose compactions are
//! scheduled across every FCAE instance that fits the card, with CPU
//! fallback and injected device faults.
//!
//! ```sh
//! cargo run --release --example multi_engine
//! ```

use std::sync::Arc;

use fcae_repro::fcae::{FcaeConfig, ResourceModel};
use fcae_repro::lsm::compaction::CompactionEngine;
use fcae_repro::lsm::{Db, Options};
use fcae_repro::obs::Obs;
use fcae_repro::offload::{OffloadConfig, OffloadService};
use fcae_repro::sstable::env::{MemEnv, StorageEnv};

fn main() {
    // The 2-input full-width engine uses little of the KCU1500: the
    // resource model says two instances fit alongside the shared shell.
    let device = FcaeConfig::two_input();
    let fit = ResourceModel.max_instances(&device);
    println!(
        "device: N={} V={} W_in={} -> {fit} instance(s) fit the card",
        device.n_inputs, device.v, device.w_in
    );

    // One observability bundle shared by the store and the scheduler:
    // latency histograms, per-level compaction counters, dispatch traces.
    let bundle = Obs::wall();
    let service = Arc::new(
        OffloadService::new(device, OffloadConfig::default()).with_obs(Arc::clone(&bundle)),
    );
    println!("service: {} engine slot(s)\n", service.engine_slots());

    // Fault the device every 10th dispatch to show the CPU retry path.
    service.faults().fail_every(10);

    // A small store with one background worker per engine slot, plus one
    // for the software-fallback path.
    let options = Options {
        env: Arc::new(MemEnv::new()) as Arc<dyn StorageEnv>,
        slowdown_sleep: false,
        write_buffer_size: 64 << 10,
        max_file_size: 16 << 10,
        level1_max_bytes: 32 << 10,
        background_threads: service.engine_slots() + 1,
        obs: Some(Arc::clone(&bundle)),
        ..Default::default()
    };
    let engine = Arc::clone(&service) as Arc<dyn CompactionEngine>;
    let db = Db::open_with_engine("/db", options, engine).unwrap();

    for round in 0..16u32 {
        for i in 0..5000u32 {
            let key = format!("key{:06}", (i.wrapping_mul(7919) + round) % 30000);
            let value = format!("value-{round}-{i:0>96}");
            db.put(key.as_bytes(), value.as_bytes()).unwrap();
        }
    }
    db.flush().unwrap();

    let stats = db.stats();
    let m = service.metrics();
    println!(
        "store:    {} flushes, {} engine compactions, {} trivial moves",
        stats.flushes, stats.engine_compactions, stats.trivial_moves
    );
    println!(
        "          peak concurrent compactions: {}",
        stats.max_concurrent_compactions
    );
    println!(
        "          backpressure: {} slowdowns, {} stalls",
        stats.backpressure_slowdowns, stats.backpressure_stalls
    );
    println!(
        "scheduler: {} jobs ({} on FPGA, {} on CPU)",
        m.jobs_submitted,
        m.fpga_jobs,
        m.cpu_jobs()
    );
    println!(
        "           CPU fallbacks: {} oversized, {} over-budget",
        m.cpu_fallback_oversized, m.cpu_fallback_budget
    );
    println!(
        "           {} device faults, all retried on CPU: {}",
        m.device_faults,
        m.device_faults == m.cpu_retries_after_fault
    );
    println!(
        "           peak jobs in flight: {} ({} on FPGA slots)",
        m.max_jobs_in_flight, m.max_fpga_in_flight
    );
    println!(
        "           busy: fpga {:.1?}, cpu {:.1?}, queue wait {:.1?}",
        m.fpga_busy_time, m.cpu_busy_time, m.total_queue_wait
    );

    assert_eq!(m.device_faults, m.cpu_retries_after_fault);

    println!("\n--- per-level compaction stats (db.property(\"lsm.stats\")) ---");
    print!("{}", db.property("lsm.stats").unwrap());
    println!("\n--- shared metric registry (store + scheduler + device cycles) ---");
    print!("{}", bundle.registry.export_text());
    println!("\n--- last trace events ---");
    let text = bundle.trace.export_text();
    for line in text.lines().rev().take(8).collect::<Vec<_>>().iter().rev() {
        println!("{line}");
    }

    println!("\nall compactions accounted for; store state verified by `cargo test -p offload`");
}
