//! One workload, one process: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer ones.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm::{Db, Options, ReadOptions};
use offload::{OffloadConfig, OffloadMetrics, OffloadService};
use server::{KvServer, Request, Response, ShardRouter};
use simkit::SplitMix64;
use sstable::env::StdEnv;
use workloads::{OpKind, YcsbRunner, YcsbWorkload};

use crate::data::{self, Values};
use crate::embedded::{self, Embedded, PutStream};
use crate::layers::{self, Pairs};
use crate::spec::{self, Sizes, Workload, END_TO_END, PER_LAYER};
use crate::stats::{self, Timed};
use crate::trace::{self, BenchEnv, EnvCounters, EnvTotals};
use crate::wire::{self, Wire};

/// Per-workload watchdog: operations not done by then count as failed.
const WATCHDOG: Duration = Duration::from_secs(120);
/// Fresh set-ups per untraced run; `setup_s` is the fastest, because the
/// host's neighbours and the disk's other writers only ever add time
/// (the median of 15 `fill` set-ups moved by 30 % between two sets of
/// ten runs, and over five runs spread 9 % where the fastest spread 4 %).
/// A cheap set-up (`fill`'s) is repeated further, up to
/// `CHEAP_SETUP_REPEATS` times, while all set-ups together stay under
/// `CHEAP_SETUP_BUDGET`.
const SETUP_REPEATS: usize = 3;
const CHEAP_SETUP_REPEATS: usize = 15;
const CHEAP_SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Keys read back after the timed phase.
const VERIFY_SAMPLE: u64 = 10_000;
/// Idle-server round trips behind `server.floor_rtt_us`.
const FLOOR_RTT_SAMPLES: usize = 20_000;
/// Operations replayed through the codec, router and single layers.
const REPLAY_OPS: usize = 100_000;
/// Distinct pairs the single-layer measurements run on.
const LAYER_PAIRS: usize = 40_000;

/// What to run.
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    /// Directory that receives this run's stores and span file.
    pub dir: PathBuf,
}

/// What a run measured.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, unit, value) in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines printed above the result.
    pub lines: Vec<String>,
}

impl Report {
    /// The driver's result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `v` as a JSON number; non-finite values (a ratio over nothing) are 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Fills `table` from `rows`; a metric without a row is an error, so a
/// forgotten measurement cannot silently drop out of the output.
fn tabulate(
    table: &'static [spec::MetricDef],
    rows: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if let Some((stray, _)) = rows
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!("metric {stray} is not in the table"));
    }
    table
        .iter()
        .map(|&(name, unit)| {
            rows.iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| (name, unit, v))
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect()
}

struct RunDir(PathBuf);

impl RunDir {
    fn new(cfg: &RunConfig) -> Result<RunDir, String> {
        let dir = cfg.dir.join(format!(
            "{}-{}-{}",
            cfg.workload.name(),
            cfg.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A workload's store: embedded `Db` or in-process server.
enum Instance {
    Embedded(Box<Embedded>),
    Wire(Wire),
}

impl Instance {
    /// Set-up: open, preload, quiesce.
    fn build(
        cfg: &RunConfig,
        dir: &Path,
        sizes: &Sizes,
        values: &Values,
        traced: bool,
    ) -> Result<Instance, String> {
        match cfg.workload {
            Workload::Fill | Workload::Get => {
                let mut store = Embedded::open(dir, sizes.key_space, traced)?;
                if cfg.workload == Workload::Fill {
                    store.fill_stream =
                        PutStream::generate(sizes.ops_per_client, sizes.key_space, cfg.seed);
                } else {
                    store.preload(sizes, cfg.seed, values)?;
                }
                Ok(Instance::Embedded(Box::new(store)))
            }
            Workload::YcsbA | Workload::YcsbE => {
                Ok(Instance::Wire(Wire::start(dir, sizes, values, traced)?))
            }
        }
    }

    fn timed(&mut self, cfg: &RunConfig, sizes: &Sizes, values: &Values) -> Result<Timed, String> {
        let deadline = Instant::now() + WATCHDOG;
        match (self, cfg.workload) {
            (Instance::Embedded(s), Workload::Fill) => Ok(s.timed_fill(sizes, values, deadline)),
            (Instance::Embedded(s), _) => Ok(s.timed_get(sizes, cfg.seed, values, deadline)),
            (Instance::Wire(w), Workload::YcsbE) => {
                w.timed(YcsbWorkload::E, sizes, cfg.seed, values, deadline)
            }
            (Instance::Wire(w), _) => w.timed(YcsbWorkload::A, sizes, cfg.seed, values, deadline),
        }
    }

    fn quiesce(&self) -> Result<(), String> {
        match self {
            Instance::Embedded(s) => s.quiesce(),
            Instance::Wire(w) => {
                w.handle.quiesce();
                Ok(())
            }
        }
    }

    /// Checks after the timed phase; `Ok` says what was checked.
    fn verify(&self, values: &Values) -> Result<String, String> {
        match self {
            Instance::Embedded(s) => s.verify(VERIFY_SAMPLE, values),
            Instance::Wire(w) => w.verify(VERIFY_SAMPLE, values),
        }
    }

    fn env(&self) -> &EnvCounters {
        match self {
            Instance::Embedded(s) => &s.env,
            Instance::Wire(w) => &w.env,
        }
    }

    fn write_amp(&self) -> f64 {
        match self {
            Instance::Embedded(s) => s.write_amp(),
            Instance::Wire(w) => w.write_amp(),
        }
    }

    fn space_amp(&self) -> f64 {
        match self {
            Instance::Embedded(s) => s.space_amp(),
            Instance::Wire(w) => w.space_amp(),
        }
    }

    fn registry(&self) -> Arc<obs::Registry> {
        match self {
            Instance::Embedded(s) => Arc::clone(&s.db.obs().registry),
            Instance::Wire(w) => Arc::clone(&w.handle.obs().registry),
        }
    }

    fn offload(&self) -> Option<OffloadMetrics> {
        match self {
            Instance::Embedded(s) => Some(s.offload.metrics()),
            Instance::Wire(w) => w.handle.offload().map(|o| o.metrics()),
        }
    }

    /// Closes the store and deletes its files.
    fn discard(self) {
        let dir = match self {
            Instance::Embedded(s) => {
                embedded::close(s.db);
                s.dir
            }
            Instance::Wire(w) => {
                let dir = w.dir.clone();
                w.stop();
                dir
            }
        };
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Figures printed beside the end-to-end metrics but not gated: the
/// whole-run counterparts of the quiet-set time metrics (they follow the
/// host's load, not the program's cost), `p999_us`, and the failed share
/// (a share of 0 cannot carry a relative bound; the result line's
/// `failed` / `attempted` carry it instead).
fn ungated_lines(lat: &stats::Latency, timed: &Timed, setup_peak_mb: f64) -> Vec<String> {
    let whole = format!("whole timed phase, n={}", lat.count);
    vec![
        format!(
            "  setup_peak_rss   {setup_peak_mb:>12.4} MiB   (after the one set-up the timed phase runs on)"
        ),
        format!(
            "  timed_s          {:>12.3} s     (wall of the timed phase)",
            timed.wall_s
        ),
        format!("  run_ops_s        {:>12.3} 1/s   ({whole})", timed.ops_s()),
        format!("  run_mean_us      {:>12.3} us    ({whole})", lat.mean_us),
        format!("  run_p50_us       {:>12.3} us    ({whole})", lat.p50_us),
        format!("  run_p99_us       {:>12.3} us    ({whole})", lat.p99_us),
        format!("  run_p999_us      {:>12.3} us    ({whole})", lat.p999_us),
        format!(
            "  run_cpu_us_per_op {:>11.3} us    ({whole})",
            timed.cpu_us_per_op()
        ),
        format!(
            "  failed_share     {:>12.6} ratio ({} failed of {} attempted)",
            timed.failed as f64 / timed.attempted as f64,
            timed.failed,
            timed.attempted
        ),
    ]
}

/// The untraced run: repeated fresh set-ups (the last one is used), the
/// timed phase, correctness checks, end-to-end metrics.
pub fn end_to_end(cfg: &RunConfig) -> Result<Report, String> {
    let run_dir = RunDir::new(cfg)?;
    let sizes = spec::sizes(cfg.workload, cfg.seconds, cfg.scale, false);
    // The first set-up is the one the timed phase runs on, so the process
    // has the memory history of a plain run of the workload. The repeats
    // that steady `setup_s` come after everything else is measured.
    let set_up = |repeat: usize| -> Result<(Instance, Values, f64), String> {
        let t0 = Instant::now();
        let values = Values::new(cfg.seed);
        let dir = run_dir.sub(&format!("setup{repeat}"));
        let instance = Instance::build(cfg, &dir, &sizes, &values, false)?;
        Ok((instance, values, t0.elapsed().as_secs_f64()))
    };
    let (mut instance, values, first_setup_s) = set_up(0)?;
    let setup_peak_mb = stats::peak_rss_mb();
    let timed = instance.timed(cfg, &sizes, &values)?;
    instance.quiesce()?;
    let checked = instance.verify(&values);
    let peak_rss_mb = stats::peak_rss_mb();
    let (write_amp, space_amp) = (instance.write_amp(), instance.space_amp());
    instance.discard();

    let mut setups = vec![first_setup_s];
    for repeat in 1..CHEAP_SETUP_REPEATS {
        let spent: f64 = setups.iter().sum();
        if repeat >= SETUP_REPEATS && spent > CHEAP_SETUP_BUDGET.as_secs_f64() {
            break;
        }
        let (extra, _, seconds) = set_up(repeat)?;
        extra.discard();
        setups.push(seconds);
    }
    let set_ups = setups.len();
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);

    let quiet = stats::quiet(&timed);
    let lat = stats::latency(&mut timed.samples_ns());
    let rows = [
        ("ops_s", quiet.ops_s),
        ("p50_us", quiet.p50_us),
        ("p99_us", quiet.p99_us),
        ("write_amp", write_amp),
        ("space_amp", space_amp),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", setup_s),
    ];
    let metrics = tabulate(END_TO_END, &rows)?;

    let mut lines = vec![format!(
        "workload {}: {} client(s) x {} ops in windows of {:?}, preload {}, key space {}",
        cfg.workload.name(),
        sizes.clients,
        sizes.ops_per_client,
        sizes.window,
        sizes.preload,
        sizes.key_space
    )];
    let in_quiet = format!(
        "quiet set: n={} ops in {} of {} cells",
        quiet.ops, quiet.cells, quiet.of
    );
    for (name, unit, value) in &metrics {
        let n = match *name {
            "p99_us" => format!("{in_quiet}, {} beyond", quiet.ops / 100),
            "ops_s" | "p50_us" => in_quiet.clone(),
            "setup_s" => format!("fastest of n={set_ups} set-ups"),
            _ => format!("n={}", timed.correct_ops()),
        };
        lines.push(format!("  {name:<16} {value:>12.4} {unit:<5} ({n})"));
    }
    lines.extend(ungated_lines(&lat, &timed, setup_peak_mb));
    match &checked {
        Ok(what) => lines.push(format!(
            "  correctness: every timed reply checked; then {what}"
        )),
        Err(e) => lines.push(format!("  correctness: FAILED: {e}")),
    }
    Ok(Report {
        correct: checked.is_ok() && timed.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics,
        lines,
    })
}

// ------------------------------------------------------------ traced run

/// `lsm.*` activity counters every store registers on its obs registry
/// (summed over shards on a server, which shares one registry).
#[derive(Clone, Copy, Default)]
struct LsmTotals {
    flushes: u64,
    flush_bytes: u64,
    compactions: u64,
    read_bytes: u64,
    write_bytes: u64,
    stall_us: u64,
    groups: u64,
    grouped_writes: u64,
    cycles: u64,
}

impl LsmTotals {
    fn read(registry: &obs::Registry) -> LsmTotals {
        let counter = |name: &str| registry.counter_value(name).unwrap_or(0);
        let levels = |what: &str| -> u64 {
            (0..lsm::options::NUM_LEVELS)
                .map(|l| counter(&format!("lsm.compact.l{l}.{what}")))
                .sum()
        };
        let group = registry
            .histogram_snapshot("lsm.write.group_size")
            .unwrap_or_default();
        let cycles = [
            "decoder", "comparer", "transfer", "encoder", "axi", "overhead", "memory",
        ]
        .iter()
        .map(|stage| counter(&format!("fcae.cycles.{stage}")))
        .sum();
        LsmTotals {
            flushes: counter("lsm.flush.count"),
            flush_bytes: counter("lsm.flush.bytes"),
            compactions: levels("count"),
            read_bytes: levels("bytes_read"),
            write_bytes: levels("bytes_written"),
            stall_us: counter("lsm.stall_micros"),
            groups: group.count,
            grouped_writes: group.sum,
            cycles,
        }
    }

    fn since(self, before: LsmTotals) -> LsmTotals {
        LsmTotals {
            flushes: self.flushes - before.flushes,
            flush_bytes: self.flush_bytes - before.flush_bytes,
            compactions: self.compactions - before.compactions,
            read_bytes: self.read_bytes - before.read_bytes,
            write_bytes: self.write_bytes - before.write_bytes,
            stall_us: self.stall_us - before.stall_us,
            groups: self.groups - before.groups,
            grouped_writes: self.grouped_writes - before.grouped_writes,
            cycles: self.cycles - before.cycles,
        }
    }
}

/// Mean of the histogram `name`'s samples recorded between two snapshots.
fn histogram_mean_since(registry: &obs::Registry, name: &str, before: (u64, u64)) -> f64 {
    let now = registry.histogram_snapshot(name).unwrap_or_default();
    let count = now.count - before.0;
    (now.sum - before.1) as f64 / count.max(1) as f64
}

fn histogram_totals(registry: &obs::Registry, name: &str) -> (u64, u64) {
    let s = registry.histogram_snapshot(name).unwrap_or_default();
    (s.count, s.sum)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The workload's first operations as wire requests with the replies a
/// server sends for them, and the key numbers they touch.
fn replay_stream(
    cfg: &RunConfig,
    sizes: &Sizes,
    values: &Values,
) -> (Vec<Request>, Vec<Response>, Vec<u64>) {
    let ops = (sizes.total_ops() as usize).min(REPLAY_OPS);
    let mut rng = SplitMix64::new(cfg.seed);
    let mut ycsb = match cfg.workload {
        Workload::YcsbA => Some(YcsbRunner::new(YcsbWorkload::A, sizes.preload, cfg.seed)),
        Workload::YcsbE => Some(YcsbRunner::new(YcsbWorkload::E, sizes.preload, cfg.seed)),
        Workload::Fill | Workload::Get => None,
    };
    let pair = |n: u64| {
        let key = data::key(n);
        let mut value = Vec::new();
        values.value_into(n, &key, &mut value);
        (key, value)
    };
    let (mut requests, mut replies, mut numbers) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ops {
        let (kind, n, scan_len) = match ycsb.as_mut() {
            Some(stream) => {
                let op = stream.next_op();
                (op.kind, op.record, op.scan_len.max(1))
            }
            None if cfg.workload == Workload::Fill => {
                (OpKind::Update, rng.next_below(sizes.key_space), 0)
            }
            None => (OpKind::Read, rng.next_below(sizes.key_space), 0),
        };
        numbers.push(n);
        let (key, value) = pair(n);
        match kind {
            OpKind::Read => {
                requests.push(Request::Get { key });
                replies.push(Response::Value(value));
            }
            OpKind::Scan => {
                requests.push(Request::Scan {
                    start: key,
                    end: None,
                    limit: scan_len as u32,
                });
                replies.push(Response::Pairs((n..n + scan_len).map(pair).collect()));
            }
            _ => {
                requests.push(Request::Put {
                    key,
                    value,
                    sync: false,
                });
                replies.push(Response::Ok);
            }
        }
    }
    (requests, replies, numbers)
}

/// Mean engine time per operation kind, microseconds.
#[derive(Default)]
struct EngineMeans {
    put_us: f64,
    get_us: f64,
    scan_us: f64,
}

/// The server's storage, rebuilt in this thread: one `Db` per shard,
/// opened with the `Options` the server gives a shard, behind the same
/// router.
struct ShardSet {
    shards: Vec<Db>,
    router: ShardRouter,
}

impl ShardSet {
    fn open(dir: &Path, records: u64) -> Result<ShardSet, String> {
        let defaults = server::ServerConfig::default();
        let cache = sstable::cache::BlockCache::new(8 << 20);
        let offload = Arc::new(OffloadService::with_slots(
            fcae::FcaeConfig::two_input(),
            defaults.engine_slots,
            OffloadConfig::default(),
        ));
        let shards = (0..defaults.shards)
            .map(|i| {
                let options = Options {
                    write_buffer_size: defaults.write_buffer_size,
                    max_file_size: defaults.max_file_size,
                    shared_block_cache: Some(Arc::clone(&cache)),
                    slowdown_sleep: false,
                    ..Options::default()
                };
                Db::open_with_engine(
                    dir.join(format!("shard{i}")),
                    options,
                    Arc::new(offload.shard_handle(i)),
                )
                .map_err(|e| format!("replay open: {e}"))
            })
            .collect::<Result<Vec<Db>, String>>()?;
        let router = ShardRouter::new(ShardRouter::split_boundaries(
            records,
            defaults.shards,
            data::KEY_LEN,
        ));
        Ok(ShardSet { shards, router })
    }

    fn shard(&self, key: &[u8]) -> &Db {
        &self.shards[self.router.shard_for(key)]
    }

    fn close(self) {
        self.shards.into_iter().for_each(embedded::close);
    }

    /// The server's scan: shard after shard from the start key's, each
    /// asked for what is still missing, until one stops at the limit.
    fn scan(&self, start: &[u8], limit: usize) -> lsm::Result<usize> {
        let budget = server::proto::MAX_FRAME - 4096;
        let mut found = 0;
        for db in &self.shards[self.router.shard_for(start)..] {
            let part = db.scan_with(ReadOptions::default(), start, None, limit - found, budget)?;
            found += part.pairs.len();
            if !part.complete {
                break;
            }
        }
        Ok(found)
    }
}

/// Replays the wire workload's op stream (every connection's, one after
/// the other) single-threaded on a [`ShardSet`] set up step for step like
/// the server, timing each engine call. Returns the means and the
/// stores, in the state the workload leaves them.
fn engine_replay(
    cfg: &RunConfig,
    dir: &Path,
    sizes: &Sizes,
    values: &Values,
) -> Result<(EngineMeans, ShardSet), String> {
    let set = ShardSet::open(dir, sizes.preload)?;
    let (mut key, mut value) = (Vec::new(), Vec::new());
    let mut load = |stride: u64| -> Result<(), String> {
        for n in (0..sizes.preload).step_by(stride as usize) {
            data::key_into(n, &mut key);
            values.value_into(n, &key, &mut value);
            set.shard(&key)
                .put(&key, &value)
                .map_err(|e| format!("replay preload: {e}"))?;
        }
        Ok(())
    };
    load(1)?;
    for db in &set.shards {
        db.flush().map_err(|e| format!("replay flush: {e}"))?;
        db.wait_for_background_quiescence();
    }
    load(wire::REFILL_STRIDE)?;

    let workload = if cfg.workload == Workload::YcsbE {
        YcsbWorkload::E
    } else {
        YcsbWorkload::A
    };
    let (mut put, mut get, mut scan) = ((0u64, 0u128), (0u64, 0u128), (0u64, 0u128));
    for conn in 0..sizes.clients as u64 {
        let mut stream = YcsbRunner::new(workload, sizes.preload, cfg.seed.wrapping_add(conn));
        for _ in 0..sizes.ops_per_client {
            let op = stream.next_op();
            data::key_into(op.record, &mut key);
            let t0 = Instant::now();
            let (slot, ok) = match op.kind {
                OpKind::Read => (
                    &mut get,
                    set.shard(&key).get(&key).is_ok_and(|v| v.is_some()),
                ),
                OpKind::Scan => (
                    &mut scan,
                    set.scan(&key, op.scan_len.max(1) as usize)
                        .is_ok_and(|n| n > 0),
                ),
                _ => {
                    values.value_into(op.record, &key, &mut value);
                    (&mut put, set.shard(&key).put(&key, &value).is_ok())
                }
            };
            let spent = t0.elapsed().as_nanos();
            if !ok {
                return Err(format!("replay of record {} failed", op.record));
            }
            slot.0 += 1;
            slot.1 += spent;
        }
    }
    let mean_us = |(count, ns): (u64, u128)| ns as f64 / 1e3 / count.max(1) as f64;
    Ok((
        EngineMeans {
            put_us: mean_us(put),
            get_us: mean_us(get),
            scan_us: mean_us(scan),
        },
        set,
    ))
}

/// Median round trip of a GET for an absent key on an empty in-process
/// server: wire, runtime shim and codec, next to no engine. Every client
/// connection asks at once, as in the timed phase — an idle box answers
/// slower than a busy one, because its threads sleep between requests.
fn floor_rtt_us(dir: &Path, clients: usize) -> Result<f64, String> {
    let env = BenchEnv::new(Arc::new(StdEnv), false);
    let server = KvServer::open(wire::server_config(dir, 1, env))
        .map_err(|e| format!("floor server: {e}"))?;
    let handle = server
        .start("127.0.0.1:0")
        .map_err(|e| format!("floor server: {e}"))?;
    let key = data::key(0);
    let per_client: Vec<Result<Vec<u32>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = server::KvClient::connect(handle.addr())
                        .map_err(|e| format!("floor connect: {e}"))?;
                    let mut samples = Vec::with_capacity(FLOOR_RTT_SAMPLES);
                    for _ in 0..FLOOR_RTT_SAMPLES {
                        let t0 = Instant::now();
                        let reply = client.get(&key).map_err(|e| format!("floor get: {e}"))?;
                        samples.push(stats::sample_ns(t0.elapsed()));
                        if reply.is_some() {
                            return Err("empty server returned a value".to_string());
                        }
                    }
                    Ok(samples)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("floor client panicked"))
            .collect()
    });
    handle.shutdown();
    let mut samples = Vec::new();
    for client in per_client {
        samples.extend(client?);
    }
    Ok(stats::latency(&mut samples).p50_us)
}

/// `Db::iter_with` + `seek` cost, and the cost of each `next` after it,
/// on the store (`pick` maps a key to it) as the workload leaves it.
fn iterator_costs<'a>(
    pick: impl Fn(&[u8]) -> &'a Db,
    key_space: u64,
    seed: u64,
) -> Result<(f64, f64), String> {
    let mut rng = SplitMix64::new(seed ^ 0x17e4);
    let (mut open_ns, mut next_ns, mut nexts) = (0u128, 0u128, 0u64);
    const OPENS: u64 = 200;
    for _ in 0..OPENS {
        let key = data::key(rng.next_below(key_space));
        let t0 = Instant::now();
        let mut it = pick(&key)
            .iter_with(ReadOptions::default())
            .map_err(|e| format!("iter: {e}"))?;
        it.seek(&key);
        open_ns += t0.elapsed().as_nanos();
        let t1 = Instant::now();
        for _ in 0..50 {
            if !it.valid() {
                break;
            }
            std::hint::black_box(it.value());
            it.next();
            nexts += 1;
        }
        next_ns += t1.elapsed().as_nanos();
    }
    Ok((
        open_ns as f64 / 1e3 / OPENS as f64,
        ratio(next_ns as f64, nexts as f64),
    ))
}

/// `offload.*` rows: what the scheduler did between two snapshots.
fn offload_rows(now: &OffloadMetrics, before: &OffloadMetrics) -> [(&'static str, f64); 6] {
    let jobs = (now.jobs_submitted - before.jobs_submitted) as f64;
    let waited = (now.total_queue_wait - before.total_queue_wait).as_secs_f64();
    [
        ("offload.jobs", jobs),
        (
            "offload.fpga_jobs",
            (now.fpga_jobs - before.fpga_jobs) as f64,
        ),
        (
            "offload.cpu_fallback_jobs",
            (now.cpu_jobs() - before.cpu_jobs()) as f64,
        ),
        ("offload.queue_wait_us", ratio(waited * 1e6, jobs)),
        (
            "offload.engine_busy_s",
            (now.fpga_busy_time - before.fpga_busy_time).as_secs_f64(),
        ),
        (
            "offload.cpu_busy_s",
            (now.cpu_busy_time - before.cpu_busy_time).as_secs_f64(),
        ),
    ]
}

/// `env.*` rows: what the store asked of its storage env.
fn env_rows(env: &EnvTotals, gets: u64) -> [(&'static str, f64); 11] {
    [
        ("env.write.calls", env.write_calls as f64),
        ("env.write.mb", env.write_bytes as f64 / 1e6),
        ("env.write.s", env.write_ns as f64 / 1e9),
        ("env.sync.calls", env.sync_calls as f64),
        ("env.sync.s", env.sync_ns as f64 / 1e9),
        ("env.read.calls", env.read_calls as f64),
        ("env.read.mb", env.read_bytes as f64 / 1e6),
        ("env.read.s", env.read_ns as f64 / 1e9),
        ("env.wal.mb", env.wal_bytes as f64 / 1e6),
        ("env.table.mb", env.table_bytes as f64 / 1e6),
        (
            "env.reads_per_get",
            ratio(env.read_calls as f64, gets as f64),
        ),
    ]
}

/// The traced run: a quarter-size pass with tracing off, the same pass
/// with the env clocks, engine decorator and op spans on, then the
/// measurements that take a layer out of the program and time it alone.
pub fn per_layer(cfg: &RunConfig) -> Result<Report, String> {
    let run_dir = RunDir::new(cfg)?;
    let sizes = spec::sizes(cfg.workload, cfg.seconds, cfg.scale, true);
    let values = Values::new(cfg.seed);

    // The traced pass runs between two untraced ones: whatever a later
    // pass gains from a warmer process, the pair's mean shares with it.
    let plain_pass = |name: &str| -> Result<Timed, String> {
        let mut plain = Instance::build(cfg, &run_dir.sub(name), &sizes, &values, false)?;
        let timed = plain.timed(cfg, &sizes, &values)?;
        plain.discard();
        Ok(timed)
    };
    let plain_before = plain_pass("plain0")?;

    let mut instance = Instance::build(cfg, &run_dir.sub("traced"), &sizes, &values, true)?;
    let registry = instance.registry();
    let env0 = instance.env().totals();
    let lsm0 = LsmTotals::read(&registry);
    let offload0 = instance.offload().unwrap_or_default();
    let service0 = ["get", "put", "scan"]
        .map(|op| histogram_totals(&registry, &format!("server.req.{op}_micros")));
    let db0 = match &instance {
        Instance::Embedded(s) => s.db.stats(),
        Instance::Wire(_) => lsm::DbStats::default(),
    };
    trace::set_enabled(true);
    let timed = instance.timed(cfg, &sizes, &values)?;
    trace::set_enabled(false);
    let spans = trace::take_spans();
    let env = instance.env().totals().since(env0);
    let lsm = LsmTotals::read(&registry).since(lsm0);
    let offload = instance.offload().unwrap_or_default();
    let lat = stats::latency(&mut timed.samples_ns());
    let ops = timed.correct_ops().max(1) as f64;

    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    let mut lines = vec![format!(
        "workload {} traced: {} client(s) x {} ops (a quarter of the untraced run)",
        cfg.workload.name(),
        sizes.clients,
        sizes.ops_per_client
    )];

    // Engine time per operation, iterator costs, cache and device-model
    // numbers: read directly off the embedded store, or off a replay of
    // the wire workload's stream on a store opened like a shard.
    let (engine, cache, modeled, trivial_moves, busy_s, iter_costs);
    match &instance {
        Instance::Embedded(store) => {
            let db = store.db.stats();
            engine = match cfg.workload {
                Workload::Fill => EngineMeans {
                    put_us: lat.mean_us,
                    ..EngineMeans::default()
                },
                _ => EngineMeans {
                    get_us: lat.mean_us,
                    ..EngineMeans::default()
                },
            };
            cache = (
                db.block_cache_hits - db0.block_cache_hits,
                db.block_cache_misses - db0.block_cache_misses,
            );
            modeled = (
                (db.modeled_kernel_time - db0.modeled_kernel_time).as_secs_f64(),
                (db.modeled_transfer_time - db0.modeled_transfer_time).as_secs_f64(),
            );
            trivial_moves = db.trivial_moves - db0.trivial_moves;
            busy_s = (db.compaction_time - db0.compaction_time).as_secs_f64();
            iter_costs = iterator_costs(|_| &store.db, sizes.key_space, cfg.seed)?;
        }
        Instance::Wire(server) => {
            let (means, set) = engine_replay(cfg, &run_dir.sub("replay"), &sizes, &values)?;
            engine = means;
            // The shards share one block cache; any of them reports it.
            let replayed = set.shards[0].stats();
            cache = (replayed.block_cache_hits, replayed.block_cache_misses);
            // A server exposes the device model's cycles, not its PCIe time.
            let hz = server
                .handle
                .offload()
                .map_or(1.0, |o| o.device_config().freq_mhz as f64 * 1e6);
            modeled = (lsm.cycles as f64 / hz, 0.0);
            trivial_moves = 0;
            busy_s = (offload.fpga_busy_time + offload.cpu_busy_time).as_secs_f64()
                - (offload0.fpga_busy_time + offload0.cpu_busy_time).as_secs_f64();
            iter_costs = iterator_costs(|key| set.shard(key), sizes.key_space, cfg.seed)?;
            set.close();
        }
    }
    rows.extend([
        ("lsm.put_us", engine.put_us),
        ("lsm.get_us", engine.get_us),
        ("lsm.scan_us", engine.scan_us),
        ("lsm.iter.open_seek_us", iter_costs.0),
        ("lsm.iter.next_ns", iter_costs.1),
        ("lsm.stall_share", lsm.stall_us as f64 / 1e6 / timed.wall_s),
        ("lsm.flush.count", lsm.flushes as f64),
        ("lsm.flush.mb", lsm.flush_bytes as f64 / 1e6),
        ("lsm.compaction.count", lsm.compactions as f64),
        ("lsm.compaction.trivial_moves", trivial_moves as f64),
        ("lsm.compaction.read_mb", lsm.read_bytes as f64 / 1e6),
        ("lsm.compaction.write_mb", lsm.write_bytes as f64 / 1e6),
        ("lsm.compaction.busy_s", busy_s),
        (
            "lsm.compaction.mb_per_s",
            ratio((lsm.read_bytes + lsm.write_bytes) as f64 / 1e6, busy_s),
        ),
        (
            "lsm.group_commit.avg_size",
            ratio(lsm.grouped_writes as f64, lsm.groups as f64),
        ),
        (
            "sstable.block_cache.hit_rate",
            ratio(cache.0 as f64, (cache.0 + cache.1) as f64),
        ),
        ("sstable.block_cache.misses", cache.1 as f64),
        ("fcae.modeled_kernel_s", modeled.0),
        ("fcae.modeled_pcie_s", modeled.1),
    ]);

    rows.extend(offload_rows(&offload, &offload0));
    rows.extend(env_rows(&env, timed.gets));

    // The serving layer: what the server clocks inside a request against
    // what the client sees around it.
    let service = ["get", "put", "scan"]
        .iter()
        .zip(service0)
        .map(|(op, before)| {
            histogram_mean_since(&registry, &format!("server.req.{op}_micros"), before)
        })
        .collect::<Vec<f64>>();
    let weighted = |get: f64, put: f64, scan: f64| {
        (timed.gets as f64 * get + timed.puts as f64 * put + timed.scans as f64 * scan) / ops
    };
    if let Instance::Wire(_) = &instance {
        let floor = floor_rtt_us(&run_dir.sub("floor"), sizes.clients)?;
        let in_server = weighted(service[0], service[1], service[2]);
        let in_engine = weighted(engine.get_us, engine.put_us, engine.scan_us);
        let unattributed = lat.mean_us - floor - in_engine;
        rows.extend([
            ("server.floor_rtt_us", floor),
            ("server.service_get_us", service[0]),
            ("server.service_put_us", service[1]),
            ("server.service_scan_us", service[2]),
            ("server.rtt_minus_service_us", lat.mean_us - in_server),
            ("server.unattributed_us", unattributed),
            (
                "server.shard_skew_permille",
                registry.gauge("server.shard.skew_permille").get() as f64,
            ),
            (
                "server.proto_errors",
                registry.counter_value("server.proto.errors").unwrap_or(0) as f64,
            ),
        ]);
        lines.push(format!(
            "  budget: client mean {:.3} us = floor_rtt {:.3} + engine (op-weighted lsm.*_us) {:.3} + unattributed {:.3} ({:.1} % of the mean)",
            lat.mean_us,
            floor,
            in_engine,
            unattributed,
            100.0 * unattributed / lat.mean_us
        ));
    } else {
        rows.extend(
            [
                "server.floor_rtt_us",
                "server.service_get_us",
                "server.service_put_us",
                "server.service_scan_us",
                "server.rtt_minus_service_us",
                "server.unattributed_us",
                "server.shard_skew_permille",
                "server.proto_errors",
            ]
            .map(|name| (name, 0.0)),
        );
    }
    let checked = instance.verify(&values);
    match &checked {
        Ok(what) => lines.push(format!(
            "  correctness: every timed reply checked; then {what}"
        )),
        Err(e) => lines.push(format!("  correctness: FAILED: {e}")),
    }
    instance.discard();
    let plain_after = plain_pass("plain1")?;

    // Layers taken out of the program and timed alone, on this
    // workload's own operations and pairs.
    let (requests, replies, numbers) = replay_stream(cfg, &sizes, &values);
    let router = ShardRouter::new(ShardRouter::split_boundaries(
        sizes.key_space,
        4,
        data::KEY_LEN,
    ));
    rows.extend(layers::wire_layers(&requests, &replies, &router));
    let mut distinct = numbers;
    distinct.sort_unstable();
    distinct.dedup();
    // Too few distinct keys (a skewed or tiny stream): take a dense run.
    if distinct.len() < LAYER_PAIRS {
        distinct = (0..(LAYER_PAIRS as u64 * 2).min(sizes.key_space.max(8)))
            .step_by(2)
            .collect();
    }
    distinct.truncate(LAYER_PAIRS);
    rows.extend(layers::storage_layers(&Pairs::new(distinct, &values)));

    let plain_ops_s = (plain_before.ops_s() + plain_after.ops_s()) / 2.0;
    rows.push((
        "trace_overhead_share",
        1.0 - ratio(timed.ops_s(), plain_ops_s),
    ));
    lines.push(format!(
        "  tracing: {:.0} ops/s traced, between untraced passes of {:.0} and {:.0} ops/s at the same size",
        timed.ops_s(),
        plain_before.ops_s(),
        plain_after.ops_s()
    ));

    let span_path = cfg.dir.join(format!("spans-{}.jsonl", cfg.workload.name()));
    trace::write_jsonl(&spans, &span_path)
        .map_err(|e| format!("write {}: {e}", span_path.display()))?;
    lines.push(format!(
        "  spans: {} written to {}",
        spans.len(),
        span_path.display()
    ));
    lines.push(format!(
        "  {:<18} {:>10} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    ));
    for (name, t) in trace::summarize(&spans) {
        lines.push(format!(
            "  {name:<18} {:>10} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }

    let metrics = tabulate(PER_LAYER, &rows)?;
    for (name, unit, value) in &metrics {
        lines.push(format!("  {name:<32} {value:>14.4} {unit}"));
    }
    Ok(Report {
        correct: checked.is_ok() && timed.failed + plain_before.failed + plain_after.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_object() {
        let report = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("ops_s", "1/s", 1234.5), ("p50_us", "us", f64::NAN)],
            lines: Vec::new(),
        };
        let parsed = obs::json::parse(&report.to_json()).unwrap();
        let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_u64()), Some(10));
        let ops = parsed.get("metrics").and_then(|m| m.get("ops_s")).unwrap();
        assert_eq!(ops.get("value").and_then(spec::as_f64), Some(1234.5));
        assert_eq!(ops.get("unit").and_then(|u| u.as_str()), Some("1/s"));
        let p50 = parsed.get("metrics").and_then(|m| m.get("p50_us")).unwrap();
        assert_eq!(p50.get("value").and_then(spec::as_f64), Some(0.0));
    }

    #[test]
    fn tabulate_rejects_missing_and_stray_rows() {
        let full: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.0, 1.0)).collect();
        assert_eq!(tabulate(END_TO_END, &full).unwrap().len(), END_TO_END.len());
        assert!(tabulate(END_TO_END, &full[1..]).is_err());
        let mut stray = full.clone();
        stray.push(("no_such_metric", 1.0));
        assert!(tabulate(END_TO_END, &stray).is_err());
    }
}
