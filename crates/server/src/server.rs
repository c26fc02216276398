//! The sharded KV server.
//!
//! N range-partitioned `lsm::Db` shards behind one TCP listener. Every
//! shard is opened against a per-shard [`offload::ShardOffloadHandle`]
//! onto **one** shared [`offload::OffloadService`], so compaction jobs
//! from all shards contend for the same K engine slots — the
//! multi-tenant regime the paper's single-store evaluation never
//! measured. All shards also share one `obs` bundle and one block
//! cache, so a single metrics export shows the whole box.
//!
//! One thread per connection on blocking sockets: an accept thread
//! (`kv-accept`) gives every socket a thread of its own (`kv-conn`),
//! which reads whatever has arrived, decodes and dispatches every
//! complete frame in it and writes the responses — strictly in request
//! order, which is what allows clients to pipeline. Every request runs
//! on its connection's thread. `lsm::Db::write` parks that thread while
//! a sync write's group commits, and because the other connections have
//! threads of their own their sync writes meet in the same shard's
//! commit queue and ride one leader-elected group: one WAL sync
//! acknowledges them all.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::proto::{self, Request, Response};
use crate::repl::{self, ReplState, SEMI_SYNC_WAIT};
use crate::router::ShardRouter;

/// How the server is built: shard count, store tuning, engine slots.
#[derive(Clone)]
pub struct ServerConfig {
    /// Number of range-partitioned shards.
    pub shards: usize,
    /// Directory holding one `shard<i>` store per shard.
    pub root: PathBuf,
    /// Engine slots on the shared offload service; `0` runs all
    /// compactions on the CPU engine instead (no offload service).
    pub engine_slots: usize,
    /// Sync the WAL on *every* write, regardless of per-request flags.
    /// Required for the power-cut guarantee: an acknowledged write must
    /// survive `SIGKILL`.
    pub sync_writes: bool,
    /// Per-shard memtable budget.
    pub write_buffer_size: usize,
    /// Per-shard SSTable target size.
    pub max_file_size: u64,
    /// Key width for the default decimal shard boundaries.
    pub key_len: usize,
    /// Pre-split hint: the key numbers the workload actually uses are
    /// dense in `[0, key_space)` (e.g. the YCSB record count). `None`
    /// splits the full `key_len`-digit keyspace — correct for uniformly
    /// spread keys, but it routes dense db_bench/YCSB record ids all to
    /// shard 0 (the `server.shard.skew_permille` gauge will say so).
    pub key_space: Option<u64>,
    /// Explicit shard boundaries; `None` derives even decimal splits
    /// from `key_len` and `key_space`.
    pub boundaries: Option<Vec<Vec<u8>>>,
    /// Observability bundle shared by shards, scheduler and server
    /// metrics; a fresh wall-clock bundle when `None`.
    pub obs: Option<Arc<obs::Obs>>,
    /// Storage environment the shards open against; `None` uses the
    /// default OS filesystem. Tests inject a fault-injecting env here.
    pub env: Option<Arc<dyn sstable::env::StorageEnv>>,
    /// Key-value separation threshold passed through to every shard
    /// (`None` disables the value log).
    pub value_log_threshold: Option<usize>,
    /// Run as a replica of the leader at this address: reject writes,
    /// stream and apply its WAL, serve token-gated reads.
    pub replica_of: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            root: PathBuf::from("kv-data"),
            engine_slots: 2,
            sync_writes: false,
            write_buffer_size: 4 << 20,
            max_file_size: 2 << 20,
            key_len: 16,
            key_space: None,
            boundaries: None,
            obs: None,
            env: None,
            value_log_threshold: None,
            replica_of: None,
        }
    }
}

/// Pre-registered server metric handles (`server.*` names).
struct ServerMetrics {
    get_micros: Arc<obs::Histogram>,
    put_micros: Arc<obs::Histogram>,
    del_micros: Arc<obs::Histogram>,
    scan_micros: Arc<obs::Histogram>,
    batch_micros: Arc<obs::Histogram>,
    stats_micros: Arc<obs::Histogram>,
    /// Control-plane requests: replication acks, promotion, sequence
    /// tokens, token-gated reads, shutdown.
    ctl_micros: Arc<obs::Histogram>,
    proto_errors: Arc<obs::Counter>,
    /// Sockets the accept loop lost to an `accept` or thread-spawn error.
    accept_errors: Arc<obs::Counter>,
    connections: Arc<obs::Gauge>,
    /// Per-shard request counters, index = shard.
    shard_requests: Vec<Arc<obs::Counter>>,
    /// Per-shard in-flight request depth gauges.
    shard_in_flight: Vec<Arc<obs::Gauge>>,
    /// Permille of requests absorbed by the hottest shard (1000/N = even).
    skew_permille: Arc<obs::Gauge>,
    /// Live in-flight counts backing the gauges.
    in_flight: Vec<AtomicU64>,
    requests_total: AtomicU64,
    live_connections: AtomicU64,
}

impl ServerMetrics {
    fn new(registry: &obs::Registry, shards: usize) -> Self {
        ServerMetrics {
            get_micros: registry.histogram("server.req.get_micros"),
            put_micros: registry.histogram("server.req.put_micros"),
            del_micros: registry.histogram("server.req.del_micros"),
            scan_micros: registry.histogram("server.req.scan_micros"),
            batch_micros: registry.histogram("server.req.batch_micros"),
            stats_micros: registry.histogram("server.req.stats_micros"),
            ctl_micros: registry.histogram("server.req.ctl_micros"),
            proto_errors: registry.counter("server.proto.errors"),
            accept_errors: registry.counter("server.accept_errors"),
            connections: registry.gauge("server.connections"),
            shard_requests: (0..shards)
                .map(|i| registry.counter(&format!("server.shard{i}.requests")))
                .collect(),
            shard_in_flight: (0..shards)
                .map(|i| registry.gauge(&format!("server.shard{i}.in_flight")))
                .collect(),
            skew_permille: registry.gauge("server.shard.skew_permille"),
            in_flight: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            requests_total: AtomicU64::new(0),
            live_connections: AtomicU64::new(0),
        }
    }

    /// Counts a request against `shard`, refreshing the skew gauge every
    /// 256th request (reading N counters is cheap, but not per-op cheap).
    fn count_shard(&self, shard: usize) {
        if let Some(c) = self.shard_requests.get(shard) {
            c.inc();
        }
        let total = self.requests_total.fetch_add(1, Ordering::Relaxed) + 1;
        if total % 256 == 0 {
            self.refresh_skew();
        }
    }

    /// Recomputes `server.shard.skew_permille` from the shard counters.
    fn refresh_skew(&self) {
        let counts: Vec<u64> = self.shard_requests.iter().map(|c| c.get()).collect();
        let total: u64 = counts.iter().sum();
        let max = counts.iter().copied().max().unwrap_or(0);
        if let Some(permille) = (max * 1000).checked_div(total) {
            self.skew_permille.set(permille);
        }
    }

    /// Runs `f` as one request against `shard`: counted, and in flight on
    /// the shard's depth gauge while it runs.
    fn in_shard<T>(&self, shard: usize, f: impl FnOnce() -> T) -> T {
        self.count_shard(shard);
        let depth = self
            .in_flight
            .get(shard)
            .zip(self.shard_in_flight.get(shard));
        if let Some((n, g)) = depth {
            g.set(n.fetch_add(1, Ordering::Relaxed) + 1);
        }
        let out = f();
        if let Some((n, g)) = depth {
            g.set(n.fetch_sub(1, Ordering::Relaxed).saturating_sub(1));
        }
        out
    }
}

/// State shared by the accept loop and every connection thread.
pub(crate) struct Shared {
    pub(crate) shards: Vec<lsm::Db>,
    router: ShardRouter,
    pub(crate) obs: Arc<obs::Obs>,
    offload: Option<Arc<offload::OffloadService>>,
    metrics: ServerMetrics,
    /// Mirror of [`ServerConfig::sync_writes`]: when set, every write
    /// fsyncs regardless of its per-request flag.
    pub(crate) force_sync: bool,
    shutdown: AtomicBool,
    /// Replication role, replica progress table and `repl.*` metrics.
    pub(crate) repl: ReplState,
    /// Bound listen address, set by `start` (used by the shutdown path
    /// to unblock its own accept loop).
    listen_addr: OnceLock<std::net::SocketAddr>,
}

/// The server: opened stores + router + shared scheduler, ready to
/// accept connections via [`KvServer::start`].
pub struct KvServer {
    shared: Arc<Shared>,
    replica_of: Option<String>,
}

/// A running server: bound address plus shutdown control. Dropping the
/// handle does *not* stop the server; call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
}

impl KvServer {
    /// Opens `config.shards` stores under `config.root`, all sharing one
    /// offload scheduler, one block cache and one obs bundle.
    pub fn open(config: ServerConfig) -> lsm::Result<KvServer> {
        let shards = config.shards.max(1);
        let obs = config.obs.clone().unwrap_or_else(obs::Obs::wall);
        let offload = if config.engine_slots > 0 {
            Some(Arc::new(
                offload::OffloadService::with_slots(
                    fcae::FcaeConfig::two_input(),
                    config.engine_slots,
                    offload::OffloadConfig::default(),
                )
                .with_obs(Arc::clone(&obs)),
            ))
        } else {
            None
        };
        // One cache budget for the whole box, not per shard.
        let shared_cache = Some(sstable::cache::BlockCache::new(8 << 20));
        let boundaries = config
            .boundaries
            .clone()
            .unwrap_or_else(|| match config.key_space {
                Some(space) => ShardRouter::split_boundaries(space, shards, config.key_len),
                None => ShardRouter::decimal_boundaries(shards, config.key_len),
            });
        let router = ShardRouter::new(boundaries);

        let mut dbs = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut options = lsm::Options {
                write_buffer_size: config.write_buffer_size,
                max_file_size: config.max_file_size,
                sync_writes: config.sync_writes,
                shared_block_cache: shared_cache.clone(),
                obs: Some(Arc::clone(&obs)),
                slowdown_sleep: false,
                value_log_threshold_bytes: config.value_log_threshold,
                ..Default::default()
            };
            if let Some(env) = &config.env {
                options.env = Arc::clone(env);
            }
            let dir = config.root.join(format!("shard{i}"));
            let db = match &offload {
                Some(svc) => {
                    lsm::Db::open_with_engine(&dir, options, Arc::new(svc.shard_handle(i)))?
                }
                None => lsm::Db::open(&dir, options)?,
            };
            dbs.push(db);
        }

        let is_replica = config.replica_of.is_some();
        if !is_replica {
            // Leaders pin their WAL from the start so a replica joining
            // later (or reconnecting with zeroed cursors) can replay the
            // full history. The floor advances as replicas acknowledge.
            for db in &dbs {
                if let Ok(cursor) = db.repl_start_cursor() {
                    db.set_wal_retention_floor(cursor.segment);
                }
            }
        }
        let metrics = ServerMetrics::new(&obs.registry, shards);
        let repl = ReplState::new(&obs.registry, is_replica);
        Ok(KvServer {
            shared: Arc::new(Shared {
                shards: dbs,
                router,
                obs,
                offload,
                metrics,
                force_sync: config.sync_writes,
                shutdown: AtomicBool::new(false),
                repl,
                listen_addr: OnceLock::new(),
            }),
            replica_of: config.replica_of,
        })
    }

    /// Binds `addr` (use port 0 for an OS-assigned port), spawns the
    /// accept thread, and returns the running server's handle.
    pub fn start(self, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let _ = self.shared.listen_addr.set(local);
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new()
            .name("kv-accept".into())
            .spawn(move || accept_loop(&shared, || listener.accept().map(|(stream, _)| stream)))?;
        if let Some(leader) = self.replica_of {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || repl::run_replica(shared, leader));
        }
        Ok(ServerHandle {
            shared: self.shared,
            addr: local,
        })
    }
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The bundle all shards, the scheduler and the server record into.
    pub fn obs(&self) -> Arc<obs::Obs> {
        Arc::clone(&self.shared.obs)
    }

    /// The shared offload scheduler (`None` in CPU-only mode).
    pub fn offload(&self) -> Option<Arc<offload::OffloadService>> {
        self.shared.offload.as_ref().map(Arc::clone)
    }

    /// Flushes every shard and waits for background work to settle
    /// (benches call this before reading compaction metrics).
    pub fn quiesce(&self) {
        for db in &self.shared.shards {
            let _ = db.flush();
        }
        for db in &self.shared.shards {
            db.wait_for_background_quiescence();
        }
    }

    /// Stops accepting connections. In-flight connections finish their
    /// current request and exit at the next read (connection reset); the
    /// stores close when the last thread drops the shared state.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.repl.request_stop();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until a graceful shutdown ([`proto::Request::Shutdown`] or
    /// [`ServerHandle::shutdown`] followed by drain) completes — the
    /// `kv-server` binary's replacement for parking forever.
    pub fn wait_shutdown(&self) {
        self.shared.repl.wait_shutdown();
    }

    /// True while this node applies a leader's replication stream.
    pub fn is_replica(&self) -> bool {
        self.shared.repl.is_replica()
    }
}

/// How long the accept loop stands back after a failed accept or
/// spawn, so running out of descriptors or threads cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Gives every socket `accept` yields a `kv-conn` thread until shutdown.
/// A socket that could not be accepted, or for which the OS refused a
/// thread, is dropped and counted; the loop goes on.
fn accept_loop(shared: &Arc<Shared>, mut accept: impl FnMut() -> std::io::Result<TcpStream>) {
    loop {
        let accepted = accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let spawned = accepted.and_then(|stream| {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("kv-conn".into())
                .spawn(move || serve(&shared, stream))
        });
        if spawned.is_err() {
            shared.metrics.accept_errors.inc();
            std::thread::sleep(ACCEPT_BACKOFF);
        }
    }
}

/// A connection thread's whole life: one connection, counted while open.
fn serve(shared: &Shared, stream: TcpStream) {
    let m = &shared.metrics;
    m.connections
        .set(m.live_connections.fetch_add(1, Ordering::Relaxed) + 1);
    let _ = stream.set_nodelay(true);
    let _ = handle_connection(shared, stream);
    m.connections.set(
        m.live_connections
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1),
    );
}

/// Replies are handed to the socket once no complete request is left
/// buffered, or sooner once this many bytes are waiting: a pipelined
/// burst is answered with one `write`, and a burst of large replies
/// still streams.
const OUT_FLUSH_BYTES: usize = 256 << 10;

/// Serves one connection until EOF, I/O error, shutdown, or a protocol
/// violation (which is answered with `ProtoErr` before closing).
fn handle_connection(shared: &Shared, mut stream: TcpStream) -> std::io::Result<()> {
    let mut inbuf = proto::FrameBuf::new();
    let mut out = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        if inbuf.fill_from(&mut stream)? == 0 {
            // EOF ends the connection quietly.
            return Ok(());
        }
        loop {
            let next = inbuf
                .next_frame()
                .and_then(|body| body.map(proto::decode_request).transpose());
            let req = match next {
                Ok(Some(req)) => req,
                Ok(None) => break,
                Err(e) => return reject(shared, &mut stream, &mut out, &e.to_string()),
            };
            // A replication handshake converts this connection into a
            // one-way feed; it never returns to the request/response
            // loop, and a replica sends nothing after it.
            if let Request::ReplHello { cursors } = req {
                if !inbuf.is_empty() {
                    let why = "bytes after replication handshake";
                    return reject(shared, &mut stream, &mut out, why);
                }
                stream.write_all(&out)?;
                return repl::serve_feed(shared, stream, cursors);
            }
            dispatch(shared, req, &mut out);
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if out.len() >= OUT_FLUSH_BYTES {
                stream.write_all(&out)?;
                out.clear();
            }
        }
        stream.write_all(&out)?;
        out.clear();
    }
    Ok(())
}

/// Answers a protocol violation: the replies already encoded, then
/// `ProtoErr(why)`; the caller closes the connection.
fn reject(
    shared: &Shared,
    stream: &mut TcpStream,
    out: &mut Vec<u8>,
    why: &str,
) -> std::io::Result<()> {
    shared.metrics.proto_errors.inc();
    proto::encode_response(out, &Response::ProtoErr(why.to_string()));
    stream.write_all(out)
}

/// Executes one decoded request against the shards, on the connection's
/// thread, and appends its response frame to `out`.
fn dispatch(shared: &Shared, req: Request, out: &mut Vec<u8>) {
    let m = &shared.metrics;
    let t0 = shared.obs.now_micros();
    let (hist, resp) = match req {
        Request::Get { key } => (&m.get_micros, do_get(shared, &key)),
        Request::Put { key, value, sync } => (&m.put_micros, do_put(shared, &key, &value, sync)),
        Request::Delete { key, sync } => (&m.del_micros, do_delete(shared, &key, sync)),
        // The one reply that is not built first: pairs go from the
        // iterator into `out`.
        Request::Scan { start, end, limit } => {
            do_scan(shared, &start, end.as_deref(), limit, out);
            m.scan_micros
                .record(shared.obs.now_micros().saturating_sub(t0));
            return;
        }
        Request::WriteBatch { ops, sync } => (&m.batch_micros, do_batch(shared, ops, sync)),
        Request::Stats { json } => (&m.stats_micros, do_stats(shared, json)),
        // Intercepted in `handle_connection` before dispatch.
        Request::ReplHello { .. } => (
            &m.ctl_micros,
            Response::Err("replication handshake reached dispatch".into()),
        ),
        Request::ReplAck {
            replica,
            shard,
            segment,
            offset: _,
            seq,
        } => (
            &m.ctl_micros,
            do_repl_ack(shared, replica, shard as usize, segment, seq),
        ),
        Request::Promote => (&m.ctl_micros, do_promote(shared)),
        Request::GetSeq => (
            &m.ctl_micros,
            Response::SeqTokens(
                shared
                    .shards
                    .iter()
                    .map(lsm::Db::visible_sequence)
                    .collect(),
            ),
        ),
        Request::GetRyw { key, min_seqs } => (&m.ctl_micros, do_get_ryw(shared, &key, &min_seqs)),
        Request::Shutdown => (&m.ctl_micros, do_shutdown(shared)),
    };
    hist.record(shared.obs.now_micros().saturating_sub(t0));
    proto::encode_response(out, &resp);
}

fn storage_err(e: &lsm::Error) -> Response {
    Response::Err(e.to_string())
}

/// A point read on `shard`, as the reply to send.
fn get_from_shard(shared: &Shared, shard: usize, db: &lsm::Db, key: &[u8]) -> Response {
    match shared.metrics.in_shard(shard, || db.get(key)) {
        Ok(Some(v)) => Response::Value(v),
        Ok(None) => Response::NotFound,
        Err(e) => storage_err(&e),
    }
}

fn do_get(shared: &Shared, key: &[u8]) -> Response {
    let shard = shared.router.shard_for(key);
    match shared.shards.get(shard) {
        Some(db) => get_from_shard(shared, shard, db, key),
        None => Response::Err(format!("no shard {shard}")),
    }
}

/// Replicas apply the leader's stream only; client writes are refused
/// so the two stores cannot diverge.
fn reject_replica_write(shared: &Shared) -> Option<Response> {
    if shared.repl.is_replica() {
        Some(Response::Err(
            "replica: writes must go to the leader".into(),
        ))
    } else {
        None
    }
}

/// Semi-synchronous replication: a *sync* write on a leader with live
/// replicas also waits (bounded) for every registered replica to
/// acknowledge the shard's visible sequence. On timeout the write is
/// still acknowledged — durability on the leader is already settled by
/// the fsync — and `repl.ack_wait_timeouts` counts the degradation.
fn wait_repl(shared: &Shared, shard: usize, db: &lsm::Db, sync: bool) {
    if !(sync || shared.force_sync) || !shared.repl.has_replicas() {
        return;
    }
    let seq = db.visible_sequence();
    if !shared.repl.wait_replicated(shard, seq, SEMI_SYNC_WAIT) {
        shared.repl.metrics.ack_wait_timeouts.inc();
    }
}

/// Commits `batch` to `shard` — the step under every write handler:
/// the shard's request accounting around the store's write, then the
/// semi-synchronous wait. `Err` carries the reply to send instead of
/// `Ok`.
fn commit_to_shard(
    shared: &Shared,
    shard: usize,
    batch: lsm::WriteBatch,
    sync: bool,
) -> Result<(), Response> {
    let Some(db) = shared.shards.get(shard) else {
        return Err(Response::Err(format!("no shard {shard}")));
    };
    let result = shared
        .metrics
        .in_shard(shard, || db.write(batch, lsm::WriteOptions { sync }));
    result.map_err(|e| storage_err(&e))?;
    wait_repl(shared, shard, db, sync);
    Ok(())
}

fn do_put(shared: &Shared, key: &[u8], value: &[u8], sync: bool) -> Response {
    if let Some(resp) = reject_replica_write(shared) {
        return resp;
    }
    let mut batch = lsm::WriteBatch::with_capacity(1, key.len() + value.len());
    batch.put(key, value);
    commit_to_shard(shared, shared.router.shard_for(key), batch, sync)
        .err()
        .unwrap_or(Response::Ok)
}

fn do_delete(shared: &Shared, key: &[u8], sync: bool) -> Response {
    if let Some(resp) = reject_replica_write(shared) {
        return resp;
    }
    let mut batch = lsm::WriteBatch::with_capacity(1, key.len());
    batch.delete(key);
    commit_to_shard(shared, shared.router.shard_for(key), batch, sync)
        .err()
        .unwrap_or(Response::Ok)
}

/// Scans shards in range order, writing each pair from the shard's
/// iterator straight into the reply frame at the end of `out` — ranges
/// are contiguous per shard, so the concatenation is globally sorted.
///
/// Two caps bound the reply: the caller's pair `limit` and a byte budget
/// that keeps the encoded frame under [`proto::MAX_FRAME`] even when
/// every pair carries a large value (each pair costs its key + value +
/// [`lsm::SCAN_PAIR_OVERHEAD`] bytes of budget, which over-covers the
/// 8 bytes of wire framing per pair). A scan cut short by either cap
/// is sent as [`Response::PairsPartial`]; the client resumes past the last
/// returned key, or falls back to a point read when even a single pair
/// exceeded the budget. A storage error replaces the whole reply.
///
/// Consistency: a snapshot of *every* shard in range is pinned up front,
/// before the first shard is read, so slow shard N cannot serve data
/// minutes newer than shard 0's slice. As with [`do_batch`], the
/// guarantee is still per shard: the pins are taken one after another,
/// so a write racing the pin loop may appear in a later shard's slice
/// while missing from an earlier one. A globally consistent multi-shard
/// scan would need a cross-shard sequence barrier the engine does not
/// (yet) provide; the protocol deliberately does not promise it.
fn do_scan(shared: &Shared, start: &[u8], end: Option<&[u8]>, limit: u32, out: &mut Vec<u8>) {
    let limit = limit as usize;
    // Headroom under MAX_FRAME for the response tag, pair count, and the
    // slack between SCAN_PAIR_OVERHEAD and the real framing bytes.
    let byte_budget = proto::MAX_FRAME - 4096;
    let mut pairs = proto::PairsWriter::begin(out);
    let Some((first, last)) = shared.router.shards_for_range(start, end) else {
        return pairs.finish(true);
    };
    // Pin every shard's snapshot before reading any of them.
    let mut snaps = Vec::new();
    for shard in first..=last {
        let Some(db) = shared.shards.get(shard) else {
            break;
        };
        snaps.push((shard, db, db.snapshot()));
    }
    let mut used = 0usize;
    for (shard, db, snap) in &snaps {
        let opts = lsm::ReadOptions {
            snapshot: Some(snap.sequence),
        };
        let (left, budget) = (limit - pairs.len(), byte_budget - used);
        let result = shared.metrics.in_shard(*shard, || {
            db.scan_each(opts, start, end, left, budget, &mut |k, v| {
                used += k.len() + v.len() + lsm::SCAN_PAIR_OVERHEAD;
                pairs.push(k, v);
            })
        });
        match result {
            Ok((_, true)) => {}
            Ok((_, false)) => return pairs.finish(false),
            Err(e) => {
                pairs.abort();
                return proto::encode_response(out, &storage_err(&e));
            }
        }
    }
    pairs.finish(true);
}

/// Splits the ops by owning shard (preserving per-shard order) and
/// commits one `lsm::WriteBatch` per shard. Atomicity is therefore
/// *per shard*, not global — a cross-shard batch that fails part-way
/// reports an error but earlier shards' sub-batches stay committed.
/// [`do_scan`] mirrors this contract on the read side: per-shard
/// snapshots, no cross-shard point-in-time guarantee.
fn do_batch(shared: &Shared, ops: Vec<proto::BatchOp>, sync: bool) -> Response {
    if let Some(resp) = reject_replica_write(shared) {
        return resp;
    }
    fn parts(op: &proto::BatchOp) -> (&[u8], Option<&[u8]>) {
        match op {
            proto::BatchOp::Put { key, value } => (key, Some(value)),
            proto::BatchOp::Delete { key } => (key, None),
        }
    }
    // Sized first — ops and key + value bytes per shard — so each shard's
    // batch is allocated once.
    let mut sizes = vec![(0usize, 0usize); shared.shards.len()];
    for op in &ops {
        let (key, value) = parts(op);
        let shard = shared.router.shard_for(key);
        let Some((count, bytes)) = sizes.get_mut(shard) else {
            return Response::Err(format!("no shard {shard}"));
        };
        *count += 1;
        *bytes += key.len() + value.map_or(0, <[u8]>::len);
    }
    let mut per_shard: Vec<Option<lsm::WriteBatch>> = sizes
        .iter()
        .map(|&(count, bytes)| (count > 0).then(|| lsm::WriteBatch::with_capacity(count, bytes)))
        .collect();
    for op in &ops {
        let (key, value) = parts(op);
        if let Some(Some(batch)) = per_shard.get_mut(shared.router.shard_for(key)) {
            match value {
                Some(value) => batch.put(key, value),
                None => batch.delete(key),
            }
        }
    }
    for (shard, slot) in per_shard.into_iter().enumerate() {
        let Some(batch) = slot else { continue };
        if let Err(resp) = commit_to_shard(shared, shard, batch, sync) {
            return resp;
        }
    }
    Response::Ok
}

/// Records a replica's durable progress and advances the shard's WAL
/// retention floor to the minimum acknowledged segment across replicas.
fn do_repl_ack(shared: &Shared, replica: u64, shard: usize, segment: u64, seq: u64) -> Response {
    let Some(db) = shared.shards.get(shard) else {
        return Response::Err(format!("no shard {shard}"));
    };
    match shared.repl.record_ack(replica, shard, segment, seq) {
        Some(floor) => {
            db.set_wal_retention_floor(floor);
            Response::Ok
        }
        // An id the leader never issued (or already unregistered): the
        // replica's feed is gone, so its acks mean nothing.
        None => Response::Err(format!("unknown replica id {replica}")),
    }
}

/// Promotes this node to leader. Idempotent: promoting a leader is `Ok`.
/// On an actual role flip the apply loop stops at its next poll and the
/// WAL retention floors are pinned so replicas of *this* node (re-pointed
/// by the operator) can bootstrap from the new leader's history.
fn do_promote(shared: &Shared) -> Response {
    if shared.repl.promote() {
        for db in &shared.shards {
            if let Ok(cursor) = db.repl_start_cursor() {
                db.set_wal_retention_floor(cursor.segment);
            }
        }
    }
    Response::Ok
}

/// How long a token-gated read waits for the apply loop before answering
/// [`Response::Lagging`].
const RYW_WAIT: Duration = Duration::from_secs(2);

/// Read-your-writes on a replica: serve the key only once the owning
/// shard has applied past the session token taken from the leader.
fn do_get_ryw(shared: &Shared, key: &[u8], min_seqs: &[u64]) -> Response {
    let shard = shared.router.shard_for(key);
    let Some(db) = shared.shards.get(shard) else {
        return Response::Err(format!("no shard {shard}"));
    };
    let want = min_seqs.get(shard).copied().unwrap_or(0);
    let deadline = Instant::now() + RYW_WAIT;
    loop {
        let applied = db.visible_sequence();
        if applied >= want {
            break;
        }
        if Instant::now() >= deadline {
            return Response::Lagging { applied };
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    get_from_shard(shared, shard, db, key)
}

/// Graceful shutdown: stop accepting, drain in-flight data-plane work,
/// flush the replication stream to every registered replica, then wake
/// whoever parked in [`ServerHandle::wait_shutdown`]. The `Ok` response
/// is sent *after* all of that, so a client that waited for it knows the
/// acknowledged state reached the replicas.
fn do_shutdown(shared: &Shared) -> Response {
    shared.shutdown.store(true, Ordering::SeqCst);
    // Unblock the accept loop so no new connections slip in.
    if let Some(addr) = shared.listen_addr.get() {
        let _ = TcpStream::connect(addr);
    }
    // Drain in-flight shard requests (this request itself never enters a
    // shard gauge, so zero is reachable). Bounded: a stuck write cannot
    // wedge shutdown forever.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let busy: u64 = shared
            .metrics
            .in_flight
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .sum();
        if busy == 0 || Instant::now() >= drain_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Leader with live replicas: push everything written so far and wait
    // (bounded) for acks, so a graceful handover loses nothing.
    if !shared.repl.is_replica() && shared.repl.has_replicas() {
        for db in &shared.shards {
            let _ = db.repl_flush();
        }
        let ack_deadline = Instant::now() + Duration::from_secs(10);
        for (shard, db) in shared.shards.iter().enumerate() {
            let left = ack_deadline.saturating_duration_since(Instant::now());
            if !shared
                .repl
                .wait_replicated(shard, db.visible_sequence(), left)
            {
                shared.repl.metrics.ack_wait_timeouts.inc();
            }
        }
    }
    shared.repl.request_stop();
    shared.repl.signal_shutdown();
    Response::Ok
}

fn do_stats(shared: &Shared, json: bool) -> Response {
    shared.metrics.refresh_skew();
    let registry = &shared.obs.registry;
    // Shards share the registry, so the per-level file gauges carry the
    // server's totals, set once from the shards' own counts.
    let mut files = vec![0usize; lsm::options::NUM_LEVELS];
    for db in &shared.shards {
        for (total, count) in files.iter_mut().zip(db.level_file_counts()) {
            *total += count;
        }
    }
    lsm::set_level_file_gauges(registry, &files);
    Response::Stats(if json {
        registry.export_json()
    } else {
        registry.export_text()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::KvClient;
    use std::io::ErrorKind;

    /// accept → error → accept → shutdown: a failed accept costs the loop
    /// one count and one backoff, and the socket after it is served like
    /// the socket before it.
    #[test]
    fn accept_loop_outlives_an_accept_error() {
        let shared = KvServer::open(ServerConfig {
            shards: 1,
            engine_slots: 0,
            root: "/accept-loop".into(),
            env: Some(Arc::new(sstable::env::MemEnv::new())),
            ..ServerConfig::default()
        })
        .expect("open")
        .shared;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        // Both connections wait in the listener's backlog.
        let mut first = KvClient::connect(addr).expect("connect first");
        let mut second = KvClient::connect(addr).expect("connect second");

        let (answered, both_answered) = std::sync::mpsc::channel::<()>();
        let loop_shared = Arc::clone(&shared);
        let accepting = std::thread::spawn(move || {
            let mut step = 0;
            accept_loop(&loop_shared, || {
                step += 1;
                match step {
                    1 | 3 => listener.accept().map(|(stream, _)| stream),
                    2 => Err(ErrorKind::ConnectionAborted.into()),
                    _ => {
                        // Shutdown ends a connection at its next read:
                        // not before both clients have their answers.
                        let _ = both_answered.recv();
                        loop_shared.shutdown.store(true, Ordering::SeqCst);
                        Err(ErrorKind::ConnectionAborted.into())
                    }
                }
            });
        });
        first.put(b"k", b"v", false).expect("first socket served");
        let got = second.get(b"k").expect("second socket served");
        assert_eq!(got.as_deref(), Some(&b"v"[..]));
        answered.send(()).expect("accept loop alive");
        accepting.join().expect("accept loop returned");
        assert_eq!(shared.metrics.accept_errors.get(), 1);
    }
}
