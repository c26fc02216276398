//! Wire-vs-embedded scan equivalence: a `SCAN` answered by writing pairs
//! from each shard's iterator into the reply frame returns exactly the
//! pairs, and exactly the complete/partial flag, that `Db::scan_with`
//! yields for the same contents — the serving path adds transport, not
//! semantics. Covered: value log off and on, 1 and 4 shards (so scans
//! cross shard boundaries and the pair limit and byte budget are carried
//! from shard to shard), ranges cut at the pair limit, and replies cut at
//! the frame byte budget.

use std::sync::Arc;

use lsm::{Db, Options, ReadOptions};
use proptest::prelude::*;
use server::{proto, KvClient, KvServer, ServerConfig, ServerHandle};
use sstable::env::MemEnv;

/// Key numbers are dense in `0..KEY_SPACE`, pre-split evenly over the
/// server's shards.
const KEY_SPACE: u64 = 64;
/// Values at least this long go to the value log, when it is on.
const VLOG_THRESHOLD: usize = 48;

fn key(n: u64) -> Vec<u8> {
    format!("{n:016}").into_bytes()
}

/// The same store twice: behind a server (`shards` shards) and embedded
/// (one `Db`), both in memory, same value-log mode.
struct Twin {
    handle: ServerHandle,
    client: KvClient,
    db: Db,
}

impl Twin {
    fn open(shards: usize, vlog: bool) -> Twin {
        let threshold = vlog.then_some(VLOG_THRESHOLD);
        let server = KvServer::open(ServerConfig {
            shards,
            root: "/wire".into(),
            key_space: Some(KEY_SPACE),
            env: Some(Arc::new(MemEnv::new())),
            value_log_threshold: threshold,
            ..ServerConfig::default()
        })
        .expect("open server");
        let handle = server.start("127.0.0.1:0").expect("bind");
        let client = KvClient::connect(handle.addr()).expect("connect");
        let db = Db::open(
            "/embedded",
            Options {
                env: Arc::new(MemEnv::new()),
                value_log_threshold_bytes: threshold,
                ..Options::default()
            },
        )
        .expect("open db");
        Twin { handle, client, db }
    }

    fn put(&mut self, n: u64, value: &[u8]) {
        self.client.put(&key(n), value, false).expect("wire put");
        self.db.put(&key(n), value).expect("put");
    }

    fn delete(&mut self, n: u64) {
        self.client.delete(&key(n), false).expect("wire delete");
        self.db.delete(&key(n)).expect("delete");
    }

    /// Moves what was written so far into tables, on both sides.
    fn flush(&self) {
        self.handle.quiesce();
        self.db.flush().expect("flush");
    }

    /// Runs one scan on both sides and checks they agree; returns the
    /// agreed outcome.
    fn scan(&mut self, start: &[u8], end: Option<&[u8]>, limit: u32) -> (usize, bool) {
        let wire = self.client.scan_partial(start, end, limit).expect("scan");
        let embedded = self
            .db
            .scan_with(
                ReadOptions::default(),
                start,
                end,
                limit as usize,
                proto::MAX_FRAME - 4096,
            )
            .expect("scan_with");
        assert_eq!(
            wire,
            (embedded.pairs, embedded.complete),
            "SCAN [{:?}, {:?}) limit {limit}",
            String::from_utf8_lossy(start),
            end.map(String::from_utf8_lossy),
        );
        (wire.0.len(), wire.1)
    }
}

impl Drop for Twin {
    fn drop(&mut self) {
        self.handle.shutdown();
    }
}

#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..KEY_SPACE, proptest::collection::vec(any::<u8>(), 0..2 * VLOG_THRESHOLD))
            .prop_map(|(n, value)| Op::Put(n, value)),
        2 => (0..KEY_SPACE).prop_map(Op::Delete),
        1 => Just(Op::Flush),
    ]
}

/// `(start, end, limit)` as key numbers; a bound `>= KEY_SPACE` stands
/// for "none" (end) or "past every key" (start).
fn scan_strategy() -> impl Strategy<Value = (u64, u64, u32)> {
    (0..KEY_SPACE + 4, 0..2 * KEY_SPACE, 0..KEY_SPACE as u32 + 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn wire_scan_equals_embedded_scan_on_random_stores(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        scans in proptest::collection::vec(scan_strategy(), 1..30),
        four_shards in any::<bool>(),
        vlog in any::<bool>(),
    ) {
        let mut twin = Twin::open(if four_shards { 4 } else { 1 }, vlog);
        for op in &ops {
            match op {
                Op::Put(n, value) => twin.put(*n, value),
                Op::Delete(n) => twin.delete(*n),
                Op::Flush => twin.flush(),
            }
        }
        // Everything, then the random ranges and limits.
        twin.scan(b"", None, u32::MAX);
        for &(start, end, limit) in &scans {
            let end = (end < KEY_SPACE).then(|| key(end));
            twin.scan(&key(start), end.as_deref(), limit);
        }
    }
}

/// The frame byte budget, and the pair limit landing exactly on a shard
/// boundary: eighteen 1 MiB values cannot ride one 16 MiB frame, so the
/// reply is cut — at the same pair the embedded scan with the same
/// budget stops at, wherever the shard boundaries fall.
#[test]
fn wire_scan_equals_embedded_scan_at_the_byte_budget_and_the_limit() {
    for (shards, vlog) in [(1, false), (4, false), (1, true), (4, true)] {
        let mut twin = Twin::open(shards, vlog);
        // Every key is present (16 a shard at 4 shards); every third
        // one below 54 carries 1 MiB.
        let big = |n: u64| n % 3 == 1 && n < 54;
        for n in (0..KEY_SPACE).filter(|&n| big(n)) {
            twin.put(n, &vec![b'a' + n as u8 % 26; 1 << 20]);
        }
        twin.flush();
        for n in (0..KEY_SPACE).filter(|&n| !big(n)) {
            twin.put(n, b"small");
        }

        let (pairs, complete) = twin.scan(b"", None, u32::MAX);
        assert!(!complete && pairs > 15, "{pairs} pairs fit the budget");
        // Resuming past the cut agrees too, and finishes.
        let (rest, complete) = twin.scan(&key(pairs as u64), None, u32::MAX);
        assert!(complete);
        assert_eq!(pairs + rest, KEY_SPACE as usize);

        // The limit runs out exactly where shard 0 ends (keys 0..16),
        // one short of it, and one past it; then with nothing behind it.
        for limit in [15, 16, 17] {
            assert_eq!(twin.scan(b"", None, limit), (limit as usize, false));
        }
        assert_eq!(twin.scan(&key(48), None, 16), (16, true));
        assert_eq!(twin.scan(&key(16), Some(&key(32)), 16), (16, true));
        assert_eq!(twin.scan(&key(16), Some(&key(33)), 16), (16, false));
        assert_eq!(twin.scan(&key(40), Some(&key(8)), 5), (0, true));
    }
}
