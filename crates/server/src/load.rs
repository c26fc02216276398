//! Load driver: replays `workloads` YCSB mixes against a running server
//! at a configurable connection count, measuring client-side latency.
//!
//! The engine of the `load_gen` binary. Each connection runs on its own
//! thread with its own seeded [`YcsbRunner`] (seed + connection index, the
//! `FaultEnv` seed-band convention), so a run is reproducible for a
//! given `(seed, connections)` and no two connections replay the same
//! operation stream.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use workloads::{KeyFormat, OpKind, ValueGenerator, YcsbRunner, YcsbWorkload};

use crate::client::KvClient;
use crate::proto::{Request, Response};

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// YCSB mix to replay.
    pub workload: YcsbWorkload,
    /// Concurrent connections (one thread each).
    pub connections: usize,
    /// Records assumed / created in the keyspace.
    pub records: u64,
    /// Run for this long...
    pub seconds: Option<u64>,
    /// ...or for this many operations per connection (first bound hit
    /// wins; at least one must be set).
    pub ops_per_connection: Option<u64>,
    /// Value size in bytes.
    pub value_len: usize,
    /// Key width (must match the server's shard boundaries).
    pub key_len: usize,
    /// Base seed; connection `i` derives `seed + i`.
    pub seed: u64,
    /// Load `records` keys through one connection before the timed run.
    pub preload: bool,
    /// Demand durable (WAL-synced) acks for writes.
    pub sync: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            workload: YcsbWorkload::A,
            connections: 16,
            records: 10_000,
            seconds: Some(10),
            ops_per_connection: None,
            value_len: 128,
            key_len: 16,
            seed: 1,
            preload: true,
            sync: false,
        }
    }
}

/// Aggregate results of a run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Operations completed successfully.
    pub ops: u64,
    /// Storage-side errors (server answered `Err`).
    pub storage_errors: u64,
    /// Protocol-level failures (decode errors, `ProtoErr`, transport
    /// failures mid-run). The smoke gate asserts this is zero.
    pub protocol_errors: u64,
    /// Successful reconnects after a transient transport failure — the
    /// worker rode out a server restart instead of aborting its stream.
    pub reconnects: u64,
    /// Timed-phase wall time.
    pub elapsed: Duration,
    /// Client-observed op latency distribution.
    pub latency: obs::HistogramSnapshot,
}

impl LoadReport {
    /// Completed operations per second over the timed phase.
    pub fn throughput_ops_s(&self) -> u64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0
        } else {
            (self.ops as f64 / secs) as u64
        }
    }

    /// One greppable summary line (`key=value` pairs), the format the
    /// CI smoke job asserts on.
    pub fn summary_line(&self, label: &str) -> String {
        format!(
            "load_gen {label} ops={} throughput_ops_s={} p50_us={} p95_us={} p99_us={} \
             storage_errors={} protocol_errors={} reconnects={}",
            self.ops,
            self.throughput_ops_s(),
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.storage_errors,
            self.protocol_errors,
            self.reconnects,
        )
    }
}

/// Inserts `records` keys (key numbers `0..records`) through one
/// connection using pipelined bursts, so later read-heavy phases hit
/// existing data.
pub fn preload(cfg: &LoadConfig) -> Result<(), crate::client::ClientError> {
    let mut client = KvClient::connect(&cfg.addr)?;
    let format = KeyFormat {
        key_len: cfg.key_len,
    };
    let mut values = ValueGenerator::new(cfg.seed, 0.5);
    const BURST: u64 = 64;
    let mut reqs = Vec::with_capacity(BURST as usize);
    let mut next = 0u64;
    while next < cfg.records {
        reqs.clear();
        let end = (next + BURST).min(cfg.records);
        for i in next..end {
            reqs.push(Request::Put {
                key: format.format(i),
                value: values.generate(cfg.value_len).to_vec(),
                sync: false,
            });
        }
        for resp in client.pipeline(&reqs)? {
            if !matches!(resp, Response::Ok) {
                return Err(crate::client::ClientError::Rejected(format!(
                    "preload write failed: {resp:?}"
                )));
            }
        }
        next = end;
    }
    Ok(())
}

/// Runs the configured load and returns the aggregate report.
///
/// Connection threads stop at the time bound (checked every operation)
/// or their op budget, whichever comes first. Latencies are recorded on
/// one shared histogram; counters aggregate with relaxed atomics.
pub fn run(cfg: &LoadConfig) -> Result<LoadReport, crate::client::ClientError> {
    if cfg.preload {
        preload(cfg)?;
    }

    let latency = Arc::new(obs::Histogram::new());
    let ops_done = Arc::new(AtomicU64::new(0));
    let storage_errors = Arc::new(AtomicU64::new(0));
    let protocol_errors = Arc::new(AtomicU64::new(0));
    let reconnects = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let started = Instant::now();
    let deadline = cfg.seconds.map(|s| started + Duration::from_secs(s));
    let handles: Vec<_> = (0..cfg.connections.max(1))
        .map(|conn| {
            let cfg = cfg.clone();
            let latency = Arc::clone(&latency);
            let ops_done = Arc::clone(&ops_done);
            let storage_errors = Arc::clone(&storage_errors);
            let protocol_errors = Arc::clone(&protocol_errors);
            let reconnects = Arc::clone(&reconnects);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                connection_worker(
                    &cfg,
                    conn as u64,
                    deadline,
                    &latency,
                    &ops_done,
                    &storage_errors,
                    &protocol_errors,
                    &reconnects,
                    &stop,
                );
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let elapsed = started.elapsed();

    Ok(LoadReport {
        ops: ops_done.load(Ordering::Relaxed),
        storage_errors: storage_errors.load(Ordering::Relaxed),
        protocol_errors: protocol_errors.load(Ordering::Relaxed),
        reconnects: reconnects.load(Ordering::Relaxed),
        elapsed,
        latency: latency.snapshot(),
    })
}

/// Bounded-exponential-backoff connect for a worker thread: 10ms
/// doubling to 1s between attempts, giving up after ~10s of trying (or
/// earlier at the run deadline / stop flag). Rides out a server restart
/// mid-run instead of aborting the stream on the first refused connect.
fn connect_with_retry(
    cfg: &LoadConfig,
    deadline: Option<Instant>,
    stop: &AtomicBool,
) -> Option<KvClient> {
    let give_up = Instant::now() + Duration::from_secs(10);
    let mut pause = Duration::from_millis(10);
    loop {
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return None;
            }
        }
        match KvClient::connect(&cfg.addr) {
            Ok(client) => return Some(client),
            Err(_) => {
                if Instant::now() >= give_up {
                    return None;
                }
                std::thread::sleep(pause);
                pause = (pause * 2).min(Duration::from_secs(1));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn connection_worker(
    cfg: &LoadConfig,
    conn: u64,
    deadline: Option<Instant>,
    latency: &obs::Histogram,
    ops_done: &AtomicU64,
    storage_errors: &AtomicU64,
    protocol_errors: &AtomicU64,
    reconnects: &AtomicU64,
    stop: &AtomicBool,
) {
    let Some(mut client) = connect_with_retry(cfg, deadline, stop) else {
        protocol_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let format = KeyFormat {
        key_len: cfg.key_len,
    };
    let mut values = ValueGenerator::new(cfg.seed.wrapping_add(conn), 0.5);
    let mut runner = YcsbRunner::new(cfg.workload, cfg.records, cfg.seed.wrapping_add(conn));
    let budget = cfg.ops_per_connection.unwrap_or(u64::MAX);

    for _ in 0..budget {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
        let op = runner.next_op();
        let key = format.format(op.record);
        let t0 = Instant::now();
        let result = match op.kind {
            OpKind::Read => client.get(&key).map(|_| ()),
            OpKind::Insert | OpKind::Update => {
                client.put(&key, values.generate(cfg.value_len), cfg.sync)
            }
            OpKind::Scan => client
                .scan(&key, None, op.scan_len.max(1) as u32)
                .map(|_| ()),
            OpKind::ReadModifyWrite => client.get(&key).and_then(|prior| {
                let mut v = prior.unwrap_or_default();
                v.extend_from_slice(values.generate(8));
                client.put(&key, &v, cfg.sync)
            }),
        };
        match result {
            Ok(()) => {
                latency.record(t0.elapsed().as_micros() as u64);
                ops_done.fetch_add(1, Ordering::Relaxed);
            }
            Err(crate::client::ClientError::Rejected(_)) => {
                storage_errors.fetch_add(1, Ordering::Relaxed);
            }
            // A dropped connection is transient (server restart, failover
            // promotion): reconnect with backoff and keep replaying. Only
            // an exhausted retry budget counts as a protocol failure.
            Err(crate::client::ClientError::Io(_)) => {
                match connect_with_retry(cfg, deadline, stop) {
                    Some(c) => {
                        client = c;
                        reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        // Ran out of retry budget mid-run; a run that
                        // simply ended (stop flag, deadline) is clean.
                        let run_over = stop.load(Ordering::Relaxed)
                            || deadline.is_some_and(|d| Instant::now() >= d);
                        if !run_over {
                            protocol_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        return;
                    }
                }
            }
            Err(_) => {
                protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Parses a YCSB workload name (`load`, `a`..`f`, case-insensitive).
pub fn parse_workload(name: &str) -> Option<YcsbWorkload> {
    match name.to_ascii_lowercase().as_str() {
        "load" => Some(YcsbWorkload::Load),
        "a" => Some(YcsbWorkload::A),
        "b" => Some(YcsbWorkload::B),
        "c" => Some(YcsbWorkload::C),
        "d" => Some(YcsbWorkload::D),
        "e" => Some(YcsbWorkload::E),
        "f" => Some(YcsbWorkload::F),
        _ => None,
    }
}
