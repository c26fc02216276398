//! In-process integration tests: a real TCP server, real clients, and —
//! the ISSUE 6 acceptance gate — proof that all shards contend for ONE
//! shared offload scheduler (per-shard `offload.shard<i>.jobs` counters
//! on a single registry, ≥2 shards with jobs after a compacting load).

use std::path::PathBuf;

use server::{BatchOp, KvClient, KvServer, Request, Response, ServerConfig, ServerHandle};

fn tmp_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("server-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// 16-digit decimal key `i * stride`, spread across the whole keyspace
/// so the default decimal boundaries route them to every shard.
fn key(i: u64) -> Vec<u8> {
    let space = 10u64.pow(16);
    format!(
        "{:016}",
        (i.wrapping_mul(6_364_136_223_846_793_005)) % space
    )
    .into_bytes()
}

fn start(name: &str, config: ServerConfig) -> (ServerHandle, PathBuf) {
    let root = tmp_root(name);
    let kv = KvServer::open(ServerConfig {
        root: root.clone(),
        ..config
    })
    .expect("open server");
    let handle = kv.start("127.0.0.1:0").expect("bind");
    (handle, root)
}

#[test]
fn end_to_end_ops() {
    let (handle, root) = start("e2e", ServerConfig::default());
    let addr = handle.addr().to_string();
    let mut client = KvClient::connect(&addr).expect("connect");

    // Point ops, routed to different shards by the 16-digit keys.
    for i in 0..100u64 {
        client
            .put(&key(i), format!("value-{i}").as_bytes(), false)
            .expect("put");
    }
    for i in 0..100u64 {
        let got = client.get(&key(i)).expect("get");
        assert_eq!(got.as_deref(), Some(format!("value-{i}").as_bytes()));
    }
    // Above every decimal key — definitely absent, routed to the last shard.
    assert_eq!(client.get(b"zzz-absent").expect("get"), None);

    // Delete, then read-your-delete.
    client.delete(&key(3), false).expect("delete");
    assert_eq!(client.get(&key(3)).expect("get"), None);

    // Full-range scan concatenates per-shard ranges in global key order.
    let pairs = client.scan(b"", None, 1000).expect("scan");
    assert_eq!(pairs.len(), 99, "100 puts minus 1 delete");
    for w in pairs.windows(2) {
        assert!(w[0].0 < w[1].0, "scan output must be strictly sorted");
    }

    // Bounded scan honors the exclusive end and the limit.
    let all: Vec<_> = pairs.iter().map(|(k, _)| k.clone()).collect();
    let bounded = client
        .scan(&all[10], Some(&all[20]), 1000)
        .expect("bounded scan");
    assert_eq!(bounded.len(), 10);
    let limited = client.scan(b"", None, 7).expect("limited scan");
    assert_eq!(limited.len(), 7);

    // A cross-shard batch lands atomically per shard.
    let ops: Vec<BatchOp> = (200..230u64)
        .map(|i| BatchOp::Put {
            key: key(i),
            value: b"batched".to_vec(),
        })
        .chain(std::iter::once(BatchOp::Delete { key: key(5) }))
        .collect();
    client.write_batch(ops, false).expect("write_batch");
    assert_eq!(
        client.get(&key(210)).expect("get"),
        Some(b"batched".to_vec())
    );
    assert_eq!(client.get(&key(5)).expect("get"), None);

    // Stats exports the shared registry (server + lsm metrics together).
    let text = client.stats(false).expect("stats");
    assert!(text.contains("server.req.put_micros"), "stats:\n{text}");
    assert!(text.contains("server.shard0.requests"), "stats:\n{text}");
    assert!(text.contains("lsm.flush.count"), "stats:\n{text}");
    let json = client.stats(true).expect("stats json");
    obs::json::parse(&json).expect("stats --json must be valid JSON");

    // Pipelining: N requests back-to-back, N responses in order.
    let reqs: Vec<Request> = (0..50u64).map(|i| Request::Get { key: key(i) }).collect();
    let resps = client.pipeline(&reqs).expect("pipeline");
    assert_eq!(resps.len(), 50);
    for (i, resp) in resps.iter().enumerate() {
        match resp {
            Response::Value(v) => assert_eq!(v, format!("value-{i}").as_bytes()),
            Response::NotFound => assert!(i == 3 || i == 5, "only deleted keys miss"),
            other => panic!("unexpected pipeline response {other:?}"),
        }
    }

    // Request latency histograms on the shared bundle saw every op.
    let obs = handle.obs();
    assert!(obs.registry.histogram("server.req.get_micros").count() >= 150);
    assert!(obs.registry.histogram("server.req.put_micros").count() >= 100);
    assert!(obs.registry.histogram("server.req.scan_micros").count() >= 3);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression: a scan over large values used to build one `Pairs`
/// response of unbounded size — ~1 MiB values with a generous pair limit
/// encoded past `MAX_FRAME` (16 MiB) and the client's frame check killed
/// the connection. The server must now cap replies by encoded bytes,
/// answer `PairsPartial`, and let the client resume past the last key.
#[test]
fn scan_with_large_values_stays_under_frame_cap_and_resumes() {
    let (handle, root) = start("big-scan", ServerConfig::default());
    let addr = handle.addr().to_string();
    let mut client = KvClient::connect(&addr).expect("connect");

    let mb = 1 << 20;
    for i in 0..20u64 {
        let value = vec![b'a' + (i % 26) as u8; mb];
        client.put(&key(i), &value, false).expect("put");
    }

    let mut all: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut start_key = Vec::new();
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        assert!(rounds <= 40, "resume loop must terminate");
        let (pairs, complete) = client.scan_partial(&start_key, None, 1000).expect("scan");
        if !complete {
            assert!(
                !pairs.is_empty(),
                "a single 1 MiB pair fits the frame budget"
            );
        }
        if let Some((k, _)) = pairs.last() {
            start_key = k.clone();
            start_key.push(0); // resume strictly past the last key
        }
        all.extend(pairs);
        if complete {
            break;
        }
    }
    assert!(rounds >= 2, "20 MiB of pairs cannot fit one 16 MiB frame");
    assert_eq!(all.len(), 20, "every pair arrives exactly once");
    for w in all.windows(2) {
        assert!(w[0].0 < w[1].0, "resumed scan output must stay sorted");
    }
    for (k, v) in &all {
        assert_eq!(v.len(), mb, "key {:?}", String::from_utf8_lossy(k));
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A protocol violation is answered with `ProtoErr`, counted, and the
/// connection is closed — without disturbing other connections.
#[test]
fn protocol_violation_closes_only_that_connection() {
    use std::io::{Read, Write};

    let (handle, root) = start("proto-err", ServerConfig::default());
    let addr = handle.addr().to_string();

    let mut good = KvClient::connect(&addr).expect("connect");
    good.put(b"0000000000000001", b"v", false).expect("put");

    // Hand-rolled bad frame: correct version byte, unknown opcode 0xEE.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect raw");
    raw.write_all(&2u32.to_le_bytes()).expect("len");
    raw.write_all(&[server::proto::PROTO_VERSION, 0xEE])
        .expect("body");
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).expect("server reply then close");
    assert!(buf.len() > 5, "expected a ProtoErr frame before close");
    assert_eq!(buf[4], server::proto::PROTO_VERSION);
    assert_eq!(buf[5], server::proto::tag::PROTO_ERR);

    // The well-behaved connection keeps working.
    assert_eq!(
        good.get(b"0000000000000001").expect("get"),
        Some(b"v".to_vec())
    );
    assert!(handle.obs().registry.counter("server.proto.errors").get() >= 1);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A replication handshake turns the connection into a one-way feed, so
/// a replica sends nothing after it. Bytes that arrive behind the hello
/// (here: a second request in the same write) are a protocol violation,
/// answered and closed like any other — not silently dropped with the
/// read buffer they sit in.
#[test]
fn bytes_after_replication_handshake_are_rejected() {
    use std::io::{Read, Write};

    let (handle, root) = start("hello-tail", ServerConfig::default());
    let mut burst = Vec::new();
    server::proto::encode_request(&mut burst, &Request::GetSeq);
    server::proto::encode_request(&mut burst, &Request::ReplHello { cursors: vec![] });
    server::proto::encode_request(&mut burst, &Request::GetSeq);
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect raw");
    raw.write_all(&burst).expect("send");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("replies, then close");

    // The request ahead of the hello is still answered, in order.
    let mut expected = Vec::new();
    server::proto::encode_response(&mut expected, &Response::SeqTokens(vec![0; 4]));
    server::proto::encode_response(
        &mut expected,
        &Response::ProtoErr("bytes after replication handshake".into()),
    );
    assert_eq!(reply, expected, "no handshake reply: no feed was started");
    assert_eq!(
        handle.obs().registry.counter("server.proto.errors").get(),
        1
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The ISSUE acceptance gate: one `OffloadService` behind every shard.
/// Small buffers force flushes + compactions on multiple shards; the
/// single shared registry must then show `offload.shard<i>.jobs` ≥ 1
/// for at least two distinct shards.
#[test]
fn shards_share_one_offload_scheduler() {
    let (handle, root) = start(
        "shared-offload",
        ServerConfig {
            shards: 4,
            engine_slots: 2,
            write_buffer_size: 32 << 10,
            max_file_size: 16 << 10,
            ..Default::default()
        },
    );
    let addr = handle.addr().to_string();
    let mut client = KvClient::connect(&addr).expect("connect");

    // ~3 MiB spread over all 4 shards — dozens of flushes per shard at a
    // 32 KiB buffer, so every shard queues compaction jobs.
    let value = vec![0xABu8; 512];
    for i in 0..6000u64 {
        client.put(&key(i), &value, false).expect("put");
    }
    handle.quiesce();

    let obs = handle.obs();
    let registry = &obs.registry;
    let jobs: Vec<u64> = (0..4)
        .map(|i| registry.counter(&format!("offload.shard{i}.jobs")).get())
        .collect();
    let busy = jobs.iter().filter(|&&j| j > 0).count();
    assert!(
        busy >= 2,
        "expected ≥2 shards with offload jobs on the shared scheduler, got {jobs:?}"
    );

    // The proof is strongest stated in export form: ONE registry export
    // carries the job counters of multiple shards side by side.
    let export = registry.export_text();
    let exported_shards = (0..4)
        .filter(|i| {
            export.lines().any(|l| {
                l.starts_with(&format!("counter offload.shard{i}.jobs ")) && !l.ends_with(" 0")
            })
        })
        .count();
    assert!(
        exported_shards >= 2,
        "single registry export must show ≥2 shards' jobs:\n{export}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression: `STATS` refreshed the per-level file gauges once per shard
/// on the one registry the shards share, so the export carried the *last*
/// shard's counts. They are the server's totals.
#[test]
fn stats_level_gauges_sum_over_shards() {
    let (handle, root) = start(
        "stats-levels",
        ServerConfig {
            shards: 2,
            boundaries: Some(vec![b"m".to_vec()]),
            ..Default::default()
        },
    );
    let mut client = KvClient::connect(handle.addr().to_string()).expect("connect");
    client.put(b"a", b"first shard", false).expect("put");
    client.put(b"z", b"second shard", false).expect("put");
    // One flushed file on each shard.
    handle.quiesce();

    let text = client.stats(false).expect("stats");
    let level0 = text
        .lines()
        .find(|l| l.contains("lsm.num-files-at-level<0>"))
        .unwrap_or_else(|| panic!("no level-0 gauge in:\n{text}"));
    assert!(
        level0.ends_with(" 2"),
        "two shards, one file each: {level0}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

use sstable::env::{MemEnv, RandomAccessFile, StorageEnv, WritableFile};
use std::path::Path;

/// A `MemEnv` whose WAL (`*.log`) `sync` takes 2 ms — long enough for the
/// other connections' writes to reach the shard's commit queue while one
/// group's sync is in flight.
struct SlowWalSync(MemEnv);

struct SlowSyncLog(Box<dyn WritableFile>);

impl WritableFile for SlowSyncLog {
    fn append(&mut self, data: &[u8]) -> sstable::Result<()> {
        self.0.append(data)
    }
    fn flush(&mut self) -> sstable::Result<()> {
        self.0.flush()
    }
    fn sync(&mut self) -> sstable::Result<()> {
        std::thread::sleep(std::time::Duration::from_millis(2));
        self.0.sync()
    }
    fn bytes_written(&self) -> u64 {
        self.0.bytes_written()
    }
}

impl StorageEnv for SlowWalSync {
    fn open_random_access(&self, path: &Path) -> sstable::Result<Box<dyn RandomAccessFile>> {
        self.0.open_random_access(path)
    }
    fn create_writable(&self, path: &Path) -> sstable::Result<Box<dyn WritableFile>> {
        let file = self.0.create_writable(path)?;
        if path.extension().is_some_and(|ext| ext == "log") {
            return Ok(Box::new(SlowSyncLog(file)));
        }
        Ok(file)
    }
    fn remove_file(&self, path: &Path) -> sstable::Result<()> {
        self.0.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> sstable::Result<()> {
        self.0.create_dir_all(path)
    }
    fn list_dir(&self, path: &Path) -> sstable::Result<Vec<String>> {
        self.0.list_dir(path)
    }
    fn file_exists(&self, path: &Path) -> bool {
        self.0.file_exists(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> sstable::Result<()> {
        self.0.rename(from, to)
    }
}

/// Every connection has a thread of its own, so sync writes from
/// different connections park in one shard's commit queue together and a
/// leader's WAL sync acknowledges its followers' writes too: 400 sync
/// `PUT`s take fewer than 400 group commits.
#[test]
fn sync_writes_from_many_connections_share_group_commits() {
    let kv = KvServer::open(ServerConfig {
        shards: 1,
        root: "/group-commit".into(),
        env: Some(std::sync::Arc::new(SlowWalSync(MemEnv::new()))),
        ..Default::default()
    })
    .expect("open server");
    let handle = kv.start("127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    std::thread::scope(|s| {
        for conn in 0..8u64 {
            s.spawn(move || {
                let mut client = KvClient::connect(addr).expect("connect");
                for i in 0..50 {
                    client.put(&key(conn * 50 + i), b"v", true).expect("put");
                }
            });
        }
    });
    let registry = &handle.obs().registry;
    let leaders = registry.counter("lsm.write.leader").get();
    let followers = registry.counter("lsm.write.follower").get();
    assert!(followers > 0, "no sync write ever rode another's commit");
    assert!(leaders < 400, "{leaders} group commits for 400 sync writes");
    handle.shutdown();
}
