//! Multi-engine compaction offload: open several stores whose
//! compactions are scheduled across every FCAE instance that fits the
//! card, with CPU fallback and injected device faults. Each store runs
//! one compaction at a time; the slots overlap jobs of different stores,
//! the way a sharded server's shards share one card.
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

/// Stores sharing the service, as the server's shards do.
const STORES: usize = 4;

fn main() {
    // The 2-input full-width engine uses little of the KCU1500: the
    // resource model says two instances fit alongside the shared shell.
    let device = FcaeConfig::two_input();
    let fit = ResourceModel.max_instances(&device);
    println!(
        "device: N={} V={} W_in={} -> {fit} instance(s) fit the card",
        device.n_inputs, device.v, device.w_in
    );

    // One observability bundle shared by the stores and the scheduler:
    // latency histograms, per-level compaction counters, dispatch traces.
    // Stores sharing a bundle report summed totals.
    let bundle = Obs::wall();
    let service = Arc::new(
        OffloadService::new(device, OffloadConfig::default()).with_obs(Arc::clone(&bundle)),
    );
    println!("service: {} engine slot(s)\n", service.engine_slots());

    // Fault the device every 10th dispatch to show the CPU retry path.
    service.faults().fail_every(10);

    // Small stores, each writing from its own thread through its own
    // handle to the one service.
    let stores: Vec<Db> = (0..STORES)
        .map(|shard| {
            let options = Options {
                env: Arc::new(MemEnv::new()) as Arc<dyn StorageEnv>,
                slowdown_sleep: false,
                write_buffer_size: 64 << 10,
                max_file_size: 16 << 10,
                level1_max_bytes: 32 << 10,
                obs: Some(Arc::clone(&bundle)),
                ..Default::default()
            };
            let engine = Arc::new(service.shard_handle(shard)) as Arc<dyn CompactionEngine>;
            Db::open_with_engine("/db", options, engine).unwrap()
        })
        .collect();
    std::thread::scope(|s| {
        for db in &stores {
            s.spawn(move || {
                for round in 0..8u32 {
                    for i in 0..5000u32 {
                        let key = format!("key{:06}", (i.wrapping_mul(7919) + round) % 30000);
                        let value = format!("value-{round}-{i:0>96}");
                        db.put(key.as_bytes(), value.as_bytes()).unwrap();
                    }
                }
                db.flush().unwrap();
            });
        }
    });

    let db = &stores[0];
    let stats = db.stats();
    let m = service.metrics();
    println!(
        "stores:   {} flushes, {} engine compactions, {} trivial moves",
        stats.flushes, stats.engine_compactions, stats.trivial_moves
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

    println!("\n--- store 0's levels, compaction counters of all stores (db.property(\"lsm.stats\")) ---");
    print!("{}", db.property("lsm.stats").unwrap());
    println!("\n--- shared metric registry (stores + scheduler + device cycles) ---");
    print!("{}", bundle.registry.export_text());
    println!("\n--- last trace events ---");
    let text = bundle.trace.export_text();
    for line in text.lines().rev().take(8).collect::<Vec<_>>().iter().rev() {
        println!("{line}");
    }

    println!("\nall compactions accounted for; store state verified by `cargo test -p offload`");
}
