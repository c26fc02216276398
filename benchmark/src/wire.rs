//! The two wire workloads: YCSB-A (point reads beside writes) and YCSB-E
//! (short range scans) against an in-process `KvServer` over loopback
//! TCP, closed loop, one blocking `KvClient` per connection.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use server::{KvClient, KvServer, Request, Response, ServerConfig, ServerHandle};
use simkit::SplitMix64;
use sstable::env::StdEnv;
use workloads::{OpKind, YcsbOp, YcsbRunner, YcsbWorkload};

use crate::data::{self, Values, RECORD_BYTES};
use crate::spec::Sizes;
use crate::stats::{cpu_seconds, ClientLog, Timed};
use crate::trace::{self, BenchEnv, EnvCounters};

/// Preload pipelining depth (requests in flight on the one connection).
const PRELOAD_BURST: u64 = 64;

/// Every how-manieth record set-up writes a second time, after the flush.
pub const REFILL_STRIDE: u64 = 16;

/// A running in-process server with the harness's view of it.
pub struct Wire {
    pub dir: PathBuf,
    pub handle: ServerHandle,
    pub env: Arc<EnvCounters>,
    /// Records preloaded (key numbers `0..records`).
    pub records: u64,
    /// Puts issued so far, preload included.
    pub puts: u64,
    /// Records inserted past the preload by the busiest connection; the
    /// connections insert the same dense key numbers, so this is also the
    /// number of distinct new keys.
    pub inserted: u64,
}

/// The server every wire workload runs against: default `ServerConfig`
/// (4 shards, 2 engine slots, `sync=false`), pre-split for dense records.
pub fn server_config(dir: &Path, records: u64, env: BenchEnv) -> ServerConfig {
    ServerConfig {
        root: dir.to_path_buf(),
        key_space: Some(records),
        env: Some(Arc::new(env)),
        ..ServerConfig::default()
    }
}

fn client_error(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl Wire {
    /// Opens a fresh server in `dir`, preloads `sizes.preload` records
    /// through one pipelined connection, lets background work settle and
    /// part-fills the memtables.
    pub fn start(dir: &Path, sizes: &Sizes, values: &Values, traced: bool) -> Result<Wire, String> {
        let env = BenchEnv::new(Arc::new(StdEnv), traced);
        let counters = env.counters();
        let server = KvServer::open(server_config(dir, sizes.preload, env))
            .map_err(|e| client_error("server open", e))?;
        let handle = server
            .start("127.0.0.1:0")
            .map_err(|e| client_error("server start", e))?;
        let mut wire = Wire {
            dir: dir.to_path_buf(),
            handle,
            env: counters,
            records: sizes.preload,
            puts: 0,
            inserted: 0,
        };
        wire.preload(values, 1)?;
        wire.handle.quiesce();
        // A serving store never has empty memtables. Writing every
        // `REFILL_STRIDE`-th record again (same value, no flush after)
        // leaves each shard's memtable about a tenth full, every run.
        wire.preload(values, REFILL_STRIDE)?;
        Ok(wire)
    }

    pub fn connect(&self) -> Result<KvClient, String> {
        KvClient::connect(self.handle.addr()).map_err(|e| client_error("connect", e))
    }

    /// Puts records `0, stride, 2 * stride, ..` below `self.records`.
    fn preload(&mut self, values: &Values, stride: u64) -> Result<(), String> {
        let mut client = self.connect()?;
        let mut reqs = Vec::with_capacity(PRELOAD_BURST as usize);
        let mut next = 0;
        while next < self.records {
            reqs.clear();
            let end = (next + PRELOAD_BURST * stride).min(self.records);
            for n in (next..end).step_by(stride as usize) {
                let key = data::key(n);
                let mut value = Vec::new();
                values.value_into(n, &key, &mut value);
                reqs.push(Request::Put {
                    key,
                    value,
                    sync: false,
                });
            }
            let replies = client
                .pipeline(&reqs)
                .map_err(|e| client_error("preload", e))?;
            if let Some(bad) = replies.iter().find(|r| !matches!(r, Response::Ok)) {
                return Err(format!("preload write rejected: {bad:?}"));
            }
            self.puts += reqs.len() as u64;
            next = end;
        }
        Ok(())
    }

    /// Timed phase: each connection replays its own seeded YCSB stream
    /// (`seed + connection`), one request at a time, and checks every
    /// reply.
    pub fn timed(
        &mut self,
        workload: YcsbWorkload,
        sizes: &Sizes,
        seed: u64,
        values: &Values,
        deadline: Instant,
    ) -> Result<Timed, String> {
        let clients: Vec<KvClient> = (0..sizes.clients)
            .map(|_| {
                let client = self.connect()?;
                // A reply that never comes must not hang the run.
                let wait =
                    deadline.saturating_duration_since(Instant::now()) + Duration::from_secs(1);
                client
                    .set_timeout(Some(wait))
                    .map_err(|e| client_error("set_timeout", e))?;
                Ok(client)
            })
            .collect::<Result<_, String>>()?;
        debug_assert_eq!(
            self.records, sizes.preload,
            "the sizes the server started with"
        );
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let per_conn: Vec<ConnResult> = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(conn, client)| {
                    let stream =
                        YcsbRunner::new(workload, sizes.preload, seed.wrapping_add(conn as u64));
                    scope.spawn(move || {
                        run_connection(client, stream, conn as u64, sizes, t0, values, deadline)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("connection thread panicked"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        let mut timed = Timed {
            attempted: sizes.total_ops(),
            wall_s,
            cpu_s,
            ..Timed::default()
        };
        for conn in per_conn {
            timed.clients.push(conn.log);
            timed.gets += conn.gets;
            timed.puts += conn.puts;
            timed.scans += conn.scans;
            self.puts += conn.puts_sent;
            self.inserted = self.inserted.max(conn.inserted);
        }
        timed.failed = timed.attempted - timed.recorded();
        Ok(timed)
    }

    /// Reads `sample` records back through a fresh connection and checks
    /// their values (after the timed phase, so every update has landed).
    pub fn verify(&self, sample: u64, values: &Values) -> Result<String, String> {
        let mut client = self.connect()?;
        let mut rng = SplitMix64::new(0x5a17);
        let sample = sample.min(self.records);
        for _ in 0..sample {
            let key = data::key(rng.next_below(self.records + self.inserted));
            match client.get(&key) {
                Ok(Some(v)) if values.verify(&key, &v) => {}
                other => {
                    return Err(format!(
                        "read-back of {}: {:?}",
                        String::from_utf8_lossy(&key),
                        other.map(|v| v.map(|v| v.len()))
                    ))
                }
            }
        }
        Ok(format!("{sample} records read back through the wire"))
    }

    /// Bytes the shards appended through their env per user byte written.
    pub fn write_amp(&self) -> f64 {
        self.env.write_bytes.load(Ordering::Relaxed) as f64
            / (self.puts * RECORD_BYTES).max(1) as f64
    }

    /// Bytes on disk per byte of live user data.
    pub fn space_amp(&self) -> f64 {
        let live = (self.records + self.inserted) * RECORD_BYTES;
        crate::stats::dir_bytes(&self.dir) as f64 / live.max(1) as f64
    }

    /// Stops the server; its threads end once their connections are gone.
    pub fn stop(self) {
        self.handle.shutdown();
    }
}

struct ConnResult {
    log: ClientLog,
    gets: u64,
    puts: u64,
    scans: u64,
    /// Puts sent, whether or not they were acknowledged.
    puts_sent: u64,
    inserted: u64,
}

/// What a scan starting at record `start` with `limit` must return: at
/// most `limit` pairs, strictly ascending, none below `start`, every
/// value matching its key — and, because preloaded records are dense and
/// never deleted, exactly the consecutive records up to the preload's
/// end (records past it depend on the other connection's inserts).
fn scan_is_right(
    pairs: &[(Vec<u8>, Vec<u8>)],
    start: u64,
    limit: u64,
    records: u64,
    values: &Values,
) -> bool {
    let must_have = limit.min(records.saturating_sub(start)).max(1);
    if (pairs.len() as u64) < must_have || pairs.len() as u64 > limit {
        return false;
    }
    let mut last = None;
    for (i, (key, value)) in pairs.iter().enumerate() {
        let Some(n) = data::key_number(key) else {
            return false;
        };
        let expected = start + i as u64;
        let in_preload = expected < records;
        if n < start
            || last.is_some_and(|l| l >= n)
            || (in_preload && n != expected)
            || !values.verify(key, value)
        {
            return false;
        }
        last = Some(n);
    }
    true
}

fn run_connection(
    mut client: KvClient,
    mut stream: YcsbRunner,
    conn: u64,
    sizes: &Sizes,
    phase_start: Instant,
    values: &Values,
    deadline: Instant,
) -> ConnResult {
    let (ops, records) = (sizes.ops_per_client, sizes.preload);
    let mut out = ConnResult {
        log: ClientLog::new(ops as usize, phase_start, sizes.window),
        gets: 0,
        puts: 0,
        scans: 0,
        puts_sent: 0,
        inserted: 0,
    };
    let (mut key, mut value) = (Vec::new(), Vec::new());
    for i in 0..ops {
        let op: YcsbOp = stream.next_op();
        data::key_into(op.record, &mut key);
        let op_id = (conn << 40) + i + 1;
        let t0 = Instant::now();
        let right = match op.kind {
            OpKind::Read => {
                let _span = trace::span("op.get", op_id);
                matches!(client.get(&key), Ok(Some(v)) if values.verify(&key, &v))
            }
            OpKind::Insert | OpKind::Update | OpKind::ReadModifyWrite => {
                values.value_into(op.record, &key, &mut value);
                out.puts_sent += 1;
                let _span = trace::span("op.put", op_id);
                client.put(&key, &value, false).is_ok()
            }
            OpKind::Scan => {
                let _span = trace::span("op.scan", op_id);
                let limit = op.scan_len.max(1);
                matches!(client.scan(&key, None, limit as u32),
                    Ok(pairs) if scan_is_right(&pairs, op.record, limit, records, values))
            }
        };
        let t1 = Instant::now();
        if right {
            out.log.record(t0, t1);
            match op.kind {
                OpKind::Read => out.gets += 1,
                OpKind::Scan => out.scans += 1,
                _ => out.puts += 1,
            }
            if op.kind == OpKind::Insert {
                out.inserted = out.inserted.max(op.record + 1 - records);
            }
        }
        if t1 > deadline {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(values: &Values, numbers: &[u64]) -> Vec<(Vec<u8>, Vec<u8>)> {
        numbers
            .iter()
            .map(|&n| {
                let key = data::key(n);
                let mut value = Vec::new();
                values.value_into(n, &key, &mut value);
                (key, value)
            })
            .collect()
    }

    #[test]
    fn scan_check_accepts_dense_runs_and_rejects_gaps() {
        let values = Values::new(1);
        assert!(scan_is_right(
            &pairs(&values, &[5, 6, 7]),
            5,
            3,
            100,
            &values
        ));
        assert!(
            scan_is_right(&pairs(&values, &[98, 99]), 98, 10, 100, &values),
            "range ends early"
        );
        assert!(
            scan_is_right(&pairs(&values, &[98, 99, 103]), 98, 10, 100, &values),
            "insert past preload"
        );
        assert!(
            !scan_is_right(&pairs(&values, &[5, 7]), 5, 3, 100, &values),
            "gap inside preload"
        );
        assert!(
            !scan_is_right(&pairs(&values, &[5, 6]), 5, 3, 100, &values),
            "short reply"
        );
        assert!(
            !scan_is_right(&pairs(&values, &[5, 6, 7, 8]), 5, 3, 100, &values),
            "over limit"
        );
        assert!(
            !scan_is_right(&pairs(&values, &[4, 5, 6]), 5, 3, 100, &values),
            "below start"
        );
        let mut wrong = pairs(&values, &[5, 6, 7]);
        wrong[1].1[20] ^= 1;
        assert!(!scan_is_right(&wrong, 5, 3, 100, &values), "wrong value");
    }
}
