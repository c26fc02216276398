//! Server-side replication: leader feed serving, replica apply loop,
//! ack bookkeeping and the `repl.*` metric family.
//!
//! Protocol v1 uses **two connections** per replica: a *feed*
//! connection that the replica opens with [`Request::ReplHello`] and the
//! leader then drives one-way (a stream of [`Response::Replicate`]
//! frames), and an *ack* control connection carrying ordinary
//! [`Request::ReplAck`] request/responses. The handshake reply assigns a
//! replica id that ties the two together. On blocking sockets one
//! full-duplex connection is a `try_clone` away (feed thread writes, a
//! second thread reads acks); that is a wire change and rides the
//! fencing-epoch protocol bump of ROADMAP item 2.
//!
//! Durability contract: a leader write with `sync` semantics does not
//! acknowledge until every *registered* replica has acked the shard's
//! visible sequence (semi-synchronous replication, bounded by
//! [`SEMI_SYNC_WAIT`] so a wedged replica degrades to leader-only
//! durability instead of wedging the leader — counted in
//! `repl.ack_wait_timeouts`). A replica acks a record only after
//! [`lsm::Db::apply_replicated`] returned, which WAL-appends the record
//! locally first, so an acked prefix survives a replica power cut too.
//!
//! Catch-up is cursor-based: the replica keeps its per-shard WAL cursors
//! in memory and reconnects with them after a disconnect, so only the
//! unseen suffix is re-shipped. After a replica *restart* the cursors
//! are zero, which the leader treats as "from the start of retained
//! history" — the full retained WAL is re-shipped and the apply path
//! drops already-applied records by sequence, trading restart bandwidth
//! for not having to persist cursors crash-consistently.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use lsm::WalCursor;

use crate::proto::{self, FrameBuf, Request, Response};
use crate::server::Shared;

/// Byte budget per feed chunk read (several WAL blocks' worth).
const FEED_CHUNK_BYTES: usize = 256 * 1024;

/// Feed poll interval while caught up.
const FEED_POLL: Duration = Duration::from_millis(2);

/// Upper bound on a leader sync write's wait for replica acks.
pub(crate) const SEMI_SYNC_WAIT: Duration = Duration::from_secs(2);

/// Replica-side read timeout on the feed socket: the granularity at
/// which the apply loop notices a stop/promote request.
const REPLICA_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Cap on the replica's reconnect backoff.
const RECONNECT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Pre-registered `repl.*` metric handles. Registered unconditionally —
/// a leader without replicas exports zeroed gauges, so dashboards don't
/// have to special-case standalone nodes.
pub(crate) struct ReplMetrics {
    /// Bytes of leader WAL the slowest feed has not consumed.
    pub(crate) lag_bytes: Arc<obs::Gauge>,
    /// Seconds the slowest feed has been continuously behind (0 when
    /// caught up). Driven by the injectable `obs` clock.
    pub(crate) lag_seconds: Arc<obs::Gauge>,
    /// Replication acks processed.
    pub(crate) acks: Arc<obs::Counter>,
    /// Replica→leader promotions on this node.
    pub(crate) promotions: Arc<obs::Counter>,
    /// Handshake→first-caught-up latency per feed connection.
    pub(crate) catchup_micros: Arc<obs::Histogram>,
    /// Stream records shipped by this leader.
    pub(crate) records_sent: Arc<obs::Counter>,
    /// Stream records applied by this replica.
    pub(crate) records_applied: Arc<obs::Counter>,
    /// Put ops dropped from the stream (stale value-log pointers whose
    /// GC rewrite is ahead in the stream).
    pub(crate) skipped_ops: Arc<obs::Counter>,
    /// Semi-sync ack waits that hit [`SEMI_SYNC_WAIT`].
    pub(crate) ack_wait_timeouts: Arc<obs::Counter>,
}

impl ReplMetrics {
    pub(crate) fn new(registry: &obs::Registry) -> Self {
        ReplMetrics {
            lag_bytes: registry.gauge("repl.lag.bytes"),
            lag_seconds: registry.gauge("repl.lag.seconds"),
            acks: registry.counter("repl.acks"),
            promotions: registry.counter("repl.promotions"),
            catchup_micros: registry.histogram("repl.catchup_micros"),
            records_sent: registry.counter("repl.records.sent"),
            records_applied: registry.counter("repl.records.applied"),
            skipped_ops: registry.counter("repl.skipped_ops"),
            ack_wait_timeouts: registry.counter("repl.ack_wait_timeouts"),
        }
    }
}

/// Per-replica progress, updated by acks.
struct ReplicaProgress {
    /// Highest acked sequence per shard.
    seq: Vec<u64>,
    /// Highest acked WAL segment per shard.
    segment: Vec<u64>,
}

/// Replication state shared by dispatch, feed threads and the replica
/// apply loop.
pub(crate) struct ReplState {
    pub(crate) metrics: ReplMetrics,
    /// True while this node applies a leader's stream (rejects writes).
    is_replica: AtomicBool,
    /// Stops feed loops and the replica apply loop (promotion/shutdown).
    stop: AtomicBool,
    next_id: AtomicU64,
    replicas: Mutex<HashMap<u64, ReplicaProgress>>,
    /// Signalled on every ack and on unregister, for semi-sync waiters.
    ack_cv: Condvar,
    /// `obs` micros of the last moment the slowest feed was caught up.
    last_caught_up: AtomicU64,
    /// Graceful-shutdown completion flag + its condvar (the binary's
    /// main thread blocks on it).
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl ReplState {
    pub(crate) fn new(registry: &obs::Registry, is_replica: bool) -> Self {
        ReplState {
            metrics: ReplMetrics::new(registry),
            is_replica: AtomicBool::new(is_replica),
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            replicas: Mutex::new(HashMap::new()),
            ack_cv: Condvar::new(),
            last_caught_up: AtomicU64::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    pub(crate) fn is_replica(&self) -> bool {
        self.is_replica.load(Ordering::Acquire)
    }

    /// Replica→leader transition. Returns whether the role changed
    /// (promoting a leader is a no-op, so retries are idempotent).
    pub(crate) fn promote(&self) -> bool {
        let was = self.is_replica.swap(false, Ordering::AcqRel);
        if was {
            self.stop.store(true, Ordering::Release);
            self.metrics.promotions.inc();
        }
        was
    }

    /// Stops feed loops and the apply loop (shutdown path).
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn register_replica(&self, shards: usize) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::AcqRel);
        let mut table = self
            .replicas
            .lock() // LOCK-ORDER: server.repl.replicas 90
            .unwrap_or_else(PoisonError::into_inner);
        table.insert(
            id,
            ReplicaProgress {
                seq: vec![0; shards],
                segment: vec![0; shards],
            },
        );
        id
    }

    fn unregister_replica(&self, id: u64) {
        let mut table = self
            .replicas
            .lock() // LOCK-ORDER: server.repl.replicas 90
            .unwrap_or_else(PoisonError::into_inner);
        table.remove(&id);
        // Wake semi-sync waiters: a gone replica no longer gates acks.
        self.ack_cv.notify_all();
    }

    pub(crate) fn has_replicas(&self) -> bool {
        !self
            .replicas
            .lock() // LOCK-ORDER: server.repl.replicas 90
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }

    /// Records one ack and returns the new minimum acked segment across
    /// all registered replicas for `shard` — the WAL retention floor the
    /// caller installs on the shard's store. `None` when the replica id
    /// is unknown (stale ack after a disconnect).
    pub(crate) fn record_ack(&self, id: u64, shard: usize, segment: u64, seq: u64) -> Option<u64> {
        let mut table = self
            .replicas
            .lock() // LOCK-ORDER: server.repl.replicas 90
            .unwrap_or_else(PoisonError::into_inner);
        let progress = table.get_mut(&id)?;
        if let (Some(s), Some(g)) = (progress.seq.get_mut(shard), progress.segment.get_mut(shard)) {
            *s = (*s).max(seq);
            *g = (*g).max(segment);
        }
        self.metrics.acks.inc();
        let floor = table
            .values()
            .filter_map(|p| p.segment.get(shard).copied())
            .min();
        self.ack_cv.notify_all();
        floor
    }

    /// Blocks until every registered replica has acked `seq` on `shard`
    /// (immediately true with no replicas), or `timeout` passes.
    pub(crate) fn wait_replicated(&self, shard: usize, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut table = self
            .replicas
            .lock() // LOCK-ORDER: server.repl.replicas 90
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            let all_acked = table
                .values()
                .all(|p| p.seq.get(shard).copied().unwrap_or(0) >= seq);
            if all_acked {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timeout) = self
                .ack_cv
                .wait_timeout(table, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            table = guard;
        }
    }

    /// Marks graceful shutdown complete and wakes
    /// [`ReplState::wait_shutdown`] callers.
    pub(crate) fn signal_shutdown(&self) {
        let mut done = self
            .done
            .lock() // LOCK-ORDER: server.repl.done 95
            .unwrap_or_else(PoisonError::into_inner);
        *done = true;
        self.done_cv.notify_all();
    }

    /// Blocks until a graceful shutdown completes (the `kv-server`
    /// binary's replacement for parking forever).
    pub(crate) fn wait_shutdown(&self) {
        let mut done = self
            .done
            .lock() // LOCK-ORDER: server.repl.done 95
            .unwrap_or_else(PoisonError::into_inner);
        while !*done {
            done = self
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

// ------------------------------------------------------------- leader

/// Serves one feed connection: registers the replica, replays from its
/// cursors, then tails each shard's WAL, shipping records until the
/// socket drops or a stop is requested. The connection thread that
/// decoded the `ReplHello` hands its stream over to this function and
/// never returns to request/response dispatch.
pub(crate) fn serve_feed(
    shared: &Shared,
    mut stream: TcpStream,
    hello_cursors: Vec<(u64, u64)>,
) -> std::io::Result<()> {
    let nshards = shared.shards.len();
    let repl = &shared.repl;
    // Normalize the handshake cursors: one per shard; segment 0 (or a
    // missing entry) means "from the start of retained history" — WAL
    // file numbers are always > 0, so 0 is free as a sentinel.
    let mut cursors: Vec<WalCursor> = Vec::with_capacity(nshards);
    for (i, db) in shared.shards.iter().enumerate() {
        let (segment, offset) = hello_cursors.get(i).copied().unwrap_or((0, 0));
        let cursor = if segment == 0 {
            match db.repl_start_cursor() {
                Ok(c) => c,
                Err(e) => {
                    return send_response(
                        &mut stream,
                        &Response::Err(format!("replication feed: {e}")),
                    );
                }
            }
        } else {
            WalCursor { segment, offset }
        };
        cursors.push(cursor);
    }
    let id = repl.register_replica(nshards);
    let t0 = shared.obs.now_micros();
    repl.last_caught_up.store(t0, Ordering::Release);
    // Handshake reply carries the assigned replica id, which the ack
    // connection echoes in every `ReplAck`.
    send_response(&mut stream, &Response::SeqTokens(vec![id]))?;
    let result = feed_loop(shared, &mut stream, &mut cursors, t0);
    repl.unregister_replica(id);
    result
}

fn feed_loop(
    shared: &Shared,
    stream: &mut TcpStream,
    cursors: &mut [WalCursor],
    t0: u64,
) -> std::io::Result<()> {
    let repl = &shared.repl;
    let mut caught_up_once = false;
    loop {
        if repl.stopped() {
            return Ok(());
        }
        let mut sent = 0usize;
        let mut all_caught_up = true;
        for (shard, db) in shared.shards.iter().enumerate() {
            let chunk = match db.repl_read_chunk(cursors[shard], FEED_CHUNK_BYTES) {
                Ok(chunk) => chunk,
                Err(e) => {
                    // The cursor is unserveable (e.g. points at a
                    // retired segment after a long disconnect): tell the
                    // replica so it can fall back to a full resync.
                    return send_response(stream, &Response::Err(format!("replication feed: {e}")));
                }
            };
            repl.metrics.skipped_ops.add(chunk.skipped_ops);
            for record in chunk.records {
                sent += 1;
                send_response(
                    stream,
                    &Response::Replicate {
                        shard: shard as u32,
                        segment: record.resume.segment,
                        offset: record.resume.offset,
                        last_seq: record.last_seq,
                        record: record.data,
                    },
                )?;
            }
            cursors[shard] = chunk.cursor;
            if chunk.end == lsm::ChunkEnd::More {
                all_caught_up = false;
            }
        }
        repl.metrics.records_sent.add(sent as u64);
        let now = shared.obs.now_micros();
        let lag: u64 = shared
            .shards
            .iter()
            .enumerate()
            .map(|(shard, db)| db.repl_lag_bytes(cursors[shard]))
            .sum();
        repl.metrics.lag_bytes.set(lag);
        if sent == 0 && all_caught_up {
            if !caught_up_once {
                caught_up_once = true;
                repl.metrics.catchup_micros.record(now.saturating_sub(t0));
            }
            repl.last_caught_up.store(now, Ordering::Release);
            repl.metrics.lag_seconds.set(0);
            // Caught up to the readable prefix: push buffered WAL (and
            // value-log) bytes out so the next pass can see them, then
            // poll.
            for db in &shared.shards {
                let _ = db.repl_flush();
            }
            std::thread::sleep(FEED_POLL);
        } else {
            let behind_since = repl.last_caught_up.load(Ordering::Acquire);
            repl.metrics
                .lag_seconds
                .set(now.saturating_sub(behind_since) / 1_000_000);
        }
    }
}

fn send_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut out = Vec::new();
    proto::encode_response(&mut out, resp);
    stream.write_all(&out)
}

// ------------------------------------------------------------ replica

/// The replica apply loop: connect to the leader, stream, apply, ack;
/// reconnect with bounded exponential backoff on any error, resuming
/// from the in-memory cursors. Runs on its own thread until stopped by
/// promotion or shutdown.
pub(crate) fn run_replica(shared: Arc<Shared>, leader: String) {
    let mut cursors: Vec<(u64, u64)> = vec![(0, 0); shared.shards.len()];
    let mut backoff = Duration::from_millis(10);
    while !shared.repl.stopped() {
        match replica_session(&shared, &leader, &mut cursors) {
            Ok(true) => backoff = Duration::from_millis(10),
            Ok(false) | Err(_) => backoff = (backoff * 2).min(RECONNECT_BACKOFF_CAP),
        }
        if shared.repl.stopped() {
            break;
        }
        std::thread::sleep(backoff);
    }
}

/// One feed session. Returns whether any record was applied (resets the
/// caller's backoff).
fn replica_session(
    shared: &Arc<Shared>,
    leader: &str,
    cursors: &mut [(u64, u64)],
) -> std::io::Result<bool> {
    let stream = TcpStream::connect(leader)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLICA_READ_TIMEOUT))?;
    let mut feed = Feed {
        stream,
        inbuf: FrameBuf::new(),
    };
    let mut out = Vec::new();
    proto::encode_request(
        &mut out,
        &Request::ReplHello {
            cursors: cursors.to_vec(),
        },
    );
    feed.stream.write_all(&out)?;
    let repl = &shared.repl;
    let Some(hello) = feed.next_response(|| repl.stopped())? else {
        return Ok(false);
    };
    let id = match hello {
        Response::SeqTokens(ids) if ids.len() == 1 => ids[0],
        Response::Err(_) => {
            // Our cursors are unserveable: full resync next session.
            for c in cursors.iter_mut() {
                *c = (0, 0);
            }
            return Ok(false);
        }
        other => {
            return Err(stream_error(format!(
                "unexpected handshake reply: {other:?}"
            )))
        }
    };
    // Separate control connection for acks, so they never queue behind
    // the one-way feed.
    let mut ack = crate::client::KvClient::connect(leader)
        .map_err(|e| stream_error(format!("ack connect failed: {e}")))?;
    let mut progressed = false;
    loop {
        let Some(frame) = feed.next_response(|| repl.stopped())? else {
            return Ok(progressed);
        };
        match frame {
            Response::Replicate {
                shard,
                segment,
                offset,
                last_seq,
                record,
            } => {
                let shard = shard as usize;
                let Some(db) = shared.shards.get(shard) else {
                    return Err(stream_error(format!("feed for unknown shard {shard}")));
                };
                // Apply with the leader's sequence stamps; sync when the
                // server runs in sync mode so the ack below implies the
                // record survives a replica power cut.
                let applied = db
                    .apply_replicated(&record, last_seq, shared.force_sync)
                    .map_err(|e| stream_error(format!("replica apply failed: {e}")))?;
                if let Some(c) = cursors.get_mut(shard) {
                    *c = (segment, offset);
                }
                repl.metrics.records_applied.inc();
                progressed = true;
                ack.repl_ack(id, shard as u32, segment, offset, applied)
                    .map_err(|e| stream_error(format!("ack failed: {e}")))?;
            }
            Response::Err(_) => {
                // Mid-stream feed error (e.g. the leader lost a segment
                // we still need): full resync next session.
                for c in cursors.iter_mut() {
                    *c = (0, 0);
                }
                return Ok(progressed);
            }
            other => {
                return Err(stream_error(format!("unexpected feed frame: {other:?}")));
            }
        }
    }
}

fn stream_error(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The replica's end of a feed connection: a blocking socket with a
/// read timeout behind a [`FrameBuf`], which keeps partial reads so a
/// timeout can never desynchronize framing.
struct Feed {
    stream: TcpStream,
    inbuf: FrameBuf,
}

impl Feed {
    /// Returns the next decoded frame, or `None` when `stop` turned true
    /// while waiting for bytes; `stop` is polled between reads so the
    /// loop stays responsive to promotion and shutdown.
    fn next_response(&mut self, stop: impl Fn() -> bool) -> std::io::Result<Option<Response>> {
        loop {
            let frame = self
                .inbuf
                .next_frame()
                .map_err(|e| stream_error(format!("feed frame: {e}")))?;
            if let Some(body) = frame {
                return proto::decode_response(body)
                    .map(Some)
                    .map_err(|e| stream_error(format!("feed decode: {e}")));
            }
            if stop() {
                return Ok(None);
            }
            match self.inbuf.fill_from(&mut self.stream) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "feed connection closed",
                    ));
                }
                Ok(_) => {}
                // Read timeout: loop to re-check `stop`.
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
        }
    }
}
