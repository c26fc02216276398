//! The two embedded workloads: `fill` (write-only, compaction-bound) and
//! `get` (read-only, data several times the block cache).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fcae::FcaeConfig;
use lsm::compaction::CompactionEngine;
use lsm::{Db, Options};
use offload::{OffloadConfig, OffloadService};
use simkit::SplitMix64;
use sstable::env::StdEnv;

use crate::data::{self, KeySet, Values, RECORD_BYTES};
use crate::spec::Sizes;
use crate::stats::{cpu_seconds, ClientLog, Timed};
use crate::trace::{self, BenchEnv, EnvCounters, TracedEngine};

/// Drops `db` without tripping the store's shutdown race. `Db::drop`
/// raises its flag and notifies the workers *without* the state lock, so
/// a worker that has checked the flag but not yet parked sleeps through
/// the notification and `drop` joins it forever — about one drop in
/// fifty when taken right after quiescence, which is when a benchmark
/// drops its stores. An idle store's worker parks within microseconds;
/// this gives it milliseconds. Remove once `Db::drop` takes the lock.
pub fn close(db: Db) {
    db.wait_for_background_quiescence();
    std::thread::sleep(std::time::Duration::from_millis(10));
    drop(db);
}

/// A put stream made from the seed before any clock starts: the
/// formatted keys of key numbers uniform over `[0, key_space)`.
#[derive(Default)]
pub struct PutStream {
    /// `KEY_LEN`-byte keys, back to back.
    keys: Vec<u8>,
}

impl PutStream {
    pub fn generate(puts: u64, key_space: u64, seed: u64) -> PutStream {
        let mut rng = SplitMix64::new(seed);
        let mut keys = Vec::with_capacity(puts as usize * data::KEY_LEN);
        let mut key = Vec::new();
        for _ in 0..puts {
            data::key_into(rng.next_below(key_space), &mut key);
            keys.extend_from_slice(&key);
        }
        PutStream { keys }
    }

    fn len(&self) -> u64 {
        (self.keys.len() / data::KEY_LEN) as u64
    }
}

/// An open embedded store with the harness's view of it.
pub struct Embedded {
    pub dir: PathBuf,
    pub db: Db,
    pub env: Arc<EnvCounters>,
    pub offload: Arc<OffloadService>,
    /// Keys written so far.
    pub written: KeySet,
    /// Puts issued so far (user bytes = puts x 144).
    pub puts: u64,
    /// `fill`'s timed puts, generated during set-up.
    pub fill_stream: PutStream,
}

impl Embedded {
    /// Opens a fresh store in `dir` with default `Options`, `sync=false`,
    /// and the paper's nine-input offload service as compaction engine.
    /// `traced` adds per-call env clocks and the engine decorator.
    pub fn open(dir: &Path, key_space: u64, traced: bool) -> Result<Embedded, String> {
        let env = BenchEnv::new(Arc::new(StdEnv), traced);
        let counters = env.counters();
        let offload = Arc::new(OffloadService::new(
            FcaeConfig::nine_input(),
            OffloadConfig::default(),
        ));
        let engine: Arc<dyn CompactionEngine> = if traced {
            Arc::new(TracedEngine::new(Arc::clone(&offload) as _))
        } else {
            Arc::clone(&offload) as _
        };
        let options = Options {
            env: Arc::new(env),
            ..Options::default()
        };
        let db = Db::open_with_engine(dir, options, engine).map_err(|e| format!("open: {e}"))?;
        Ok(Embedded {
            dir: dir.to_path_buf(),
            db,
            env: counters,
            offload,
            written: KeySet::new(key_space),
            puts: 0,
            fill_stream: PutStream::default(),
        })
    }

    /// Flushes the memtable and waits until no background work is left.
    pub fn quiesce(&self) -> Result<(), String> {
        self.db.flush().map_err(|e| format!("flush: {e}"))?;
        self.db.wait_for_background_quiescence();
        Ok(())
    }

    /// Bytes the store appended through its env per user byte written.
    pub fn write_amp(&self) -> f64 {
        let appended = self
            .env
            .write_bytes
            .load(std::sync::atomic::Ordering::Relaxed);
        appended as f64 / (self.puts * RECORD_BYTES).max(1) as f64
    }

    /// Bytes on disk per byte of live user data.
    pub fn space_amp(&self) -> f64 {
        crate::stats::dir_bytes(&self.dir) as f64
            / (self.written.len() * RECORD_BYTES).max(1) as f64
    }

    /// Puts `stream` single-threaded. With `deadline`, stops early once it
    /// passes. Logs every put that succeeded.
    fn put_stream(
        &mut self,
        stream: &PutStream,
        values: &Values,
        deadline: Option<Instant>,
        log: &mut ClientLog,
    ) {
        let mut value = Vec::new();
        for (op, key) in stream.keys.chunks_exact(data::KEY_LEN).enumerate() {
            let n = data::key_number(key).expect("stream keys are formatted key numbers");
            values.value_into(n, key, &mut value);
            let t0 = Instant::now();
            let result = {
                let _span = trace::span("op.put", op as u64 + 1);
                self.db.put(key, &value)
            };
            let t1 = Instant::now();
            self.puts += 1;
            if result.is_ok() {
                self.written.insert(n);
                log.record(t0, t1);
            }
            if deadline.is_some_and(|d| t1 > d) {
                break;
            }
        }
    }

    /// Set-up of `get`: the preload, flushed and compacted to rest.
    pub fn preload(&mut self, sizes: &Sizes, seed: u64, values: &Values) -> Result<(), String> {
        let stream = PutStream::generate(sizes.preload, sizes.key_space, seed ^ 0x9e37_79b9);
        let mut done = ClientLog::new(sizes.preload as usize, Instant::now(), sizes.window);
        self.put_stream(&stream, values, None, &mut done);
        let failed = sizes.preload - done.len() as u64;
        if failed > 0 {
            return Err(format!("{failed} of {} preload puts failed", sizes.preload));
        }
        self.quiesce()
    }

    /// Timed phase of `fill`: the put stream set-up generated, timed
    /// through flush and background quiescence, because a fill that leaves
    /// its compaction debt behind has not finished.
    pub fn timed_fill(&mut self, sizes: &Sizes, values: &Values, deadline: Instant) -> Timed {
        let stream = std::mem::take(&mut self.fill_stream);
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let mut log = ClientLog::new(stream.len() as usize, t0, sizes.window);
        self.put_stream(&stream, values, Some(deadline), &mut log);
        let settled = self.quiesce().is_ok();
        let wall_s = t0.elapsed().as_secs_f64();
        let correct = if settled { log.len() as u64 } else { 0 };
        Timed {
            attempted: stream.len(),
            failed: stream.len() - correct,
            wall_s,
            cpu_s: cpu_seconds() - cpu0,
            puts: correct,
            clients: vec![log],
            ..Timed::default()
        }
    }

    /// Timed phase of `get`: each client thread reads keys uniform over
    /// the whole range; a hit must carry the key's value and a miss must
    /// be a key that was never written.
    pub fn timed_get(&self, sizes: &Sizes, seed: u64, values: &Values, deadline: Instant) -> Timed {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let clients: Vec<ClientLog> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..sizes.clients as u64)
                .map(|client| {
                    scope.spawn(move || {
                        let mut rng = SplitMix64::new(seed.wrapping_add(client));
                        let mut log =
                            ClientLog::new(sizes.ops_per_client as usize, t0, sizes.window);
                        let mut key = Vec::new();
                        for op in 0..sizes.ops_per_client {
                            let n = rng.next_below(sizes.key_space);
                            data::key_into(n, &mut key);
                            let t0 = Instant::now();
                            let result = {
                                let _span = trace::span("op.get", (client << 40) + op + 1);
                                self.db.get(&key)
                            };
                            let t1 = Instant::now();
                            let right = match result {
                                Ok(Some(v)) => self.written.contains(n) && values.verify(&key, &v),
                                Ok(None) => !self.written.contains(n),
                                Err(_) => false,
                            };
                            if right {
                                log.record(t0, t1);
                            }
                            if t1 > deadline {
                                break;
                            }
                        }
                        log
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("get client panicked"))
                .collect()
        });
        let mut timed = Timed {
            attempted: sizes.total_ops(),
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu0,
            clients,
            ..Timed::default()
        };
        timed.gets = timed.recorded();
        timed.failed = timed.attempted - timed.gets;
        timed
    }

    /// Correctness check after the timed phase: `sample` written keys read
    /// back with their values, and a full scan that must visit exactly
    /// the written keys, in order, each with its value.
    pub fn verify(&self, sample: u64, values: &Values) -> Result<String, String> {
        let mut rng = SplitMix64::new(0x5a17);
        let mut key = Vec::new();
        let mut checked = 0;
        while checked < sample.min(self.written.len()) {
            let n = rng.next_below(self.written.space());
            if !self.written.contains(n) {
                continue;
            }
            data::key_into(n, &mut key);
            match self.db.get(&key) {
                Ok(Some(v)) if values.verify(&key, &v) => checked += 1,
                other => {
                    return Err(format!(
                        "read-back of key {n}: {:?}",
                        other.map(|v| v.map(|v| v.len()))
                    ))
                }
            }
        }
        let mut it = self.db.iter().map_err(|e| format!("iter: {e}"))?;
        it.seek_to_first();
        let (mut seen, mut last) = (0u64, None);
        while it.valid() {
            let n = data::key_number(it.key()).ok_or("scan returned a foreign key")?;
            if !self.written.contains(n)
                || last.is_some_and(|l| l >= n)
                || !values.verify(it.key(), it.value())
            {
                return Err(format!(
                    "scan returned key {n} unwritten, out of order or with a wrong value"
                ));
            }
            last = Some(n);
            seen += 1;
            it.next();
        }
        it.status().map_err(|e| format!("scan: {e}"))?;
        if seen != self.written.len() {
            return Err(format!(
                "scan saw {seen} keys, {} were written",
                self.written.len()
            ));
        }
        Ok(format!(
            "{checked} keys read back, full scan matched the {seen} keys written"
        ))
    }
}
