//! Counts, not times, for the requests that may block: the server
//! allocates as often to answer a sync `PUT` as a buffered one, and as
//! often for a `GetRyw` whose tokens are already satisfied as for a `Get`
//! (plus the decoded token list). Both run on the connection's thread; a
//! server that handed them to another thread and waited for it would pay
//! for the hand-off — a closure, a join state, a thread — on exactly the
//! requests that already pay for an fsync or an apply-loop wait.
//!
//! Same harness as `scan_reply_counts.rs`, and a binary of its own for
//! the same reason: the global counter sees every thread. The test's side
//! of the socket allocates nothing inside a counted window and no other
//! connection is open, so what is counted is the server answering. A
//! memtable arena block or a doubling of the in-memory WAL lands in some
//! windows and not others: each kind is counted over many rounds and its
//! cheapest round compared.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use server::proto::{self, FrameBuf};
use server::{KvServer, Request, ServerConfig};

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

/// Sends the pre-encoded `request` 32 times, each time waiting for its
/// reply frame, and returns the fewest allocations the process made
/// between a send and its reply.
fn cheapest_answer(raw: &mut TcpStream, inbuf: &mut FrameBuf, request: &[u8]) -> u64 {
    let rounds = (0..32).map(|_| {
        let before = ALLOC.allocations();
        raw.write_all(request).expect("send");
        while inbuf.next_frame().expect("frame").is_none() {
            assert_ne!(inbuf.fill_from(raw).expect("read"), 0, "server hung up");
        }
        ALLOC.allocations() - before
    });
    rounds.min().unwrap_or(0)
}

#[test]
fn a_request_that_may_block_costs_what_its_plain_twin_costs() {
    let config = ServerConfig {
        root: "/write-reply-counts".into(),
        key_space: Some(1000),
        env: Some(Arc::new(sstable::env::MemEnv::new())),
        ..ServerConfig::default()
    };
    let shards = config.shards;
    let handle = KvServer::open(config)
        .expect("open")
        .start("127.0.0.1:0")
        .expect("bind");
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    raw.set_nodelay(true).expect("nodelay");
    let mut inbuf = FrameBuf::new();

    let key = b"0000000000000500";
    let (mut buffered, mut synced, mut get, mut ryw) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    proto::write_put(&mut buffered, key, &[b'v'; 64], false);
    proto::write_put(&mut synced, key, &[b'v'; 64], true);
    proto::write_get(&mut get, key);
    // Tokens of a session that has written nothing: satisfied at once.
    let min_seqs = vec![0; shards];
    let key = key.to_vec();
    proto::encode_request(&mut ryw, &Request::GetRyw { key, min_seqs });

    // Each kind's first rounds are its warm-up (the connection's buffers
    // reach their sizes, the key comes to exist); the minimum skips them.
    let buffered = cheapest_answer(&mut raw, &mut inbuf, &buffered);
    let synced = cheapest_answer(&mut raw, &mut inbuf, &synced);
    assert_eq!(synced, buffered, "allocations: sync PUT vs buffered PUT");
    let get = cheapest_answer(&mut raw, &mut inbuf, &get);
    let ryw = cheapest_answer(&mut raw, &mut inbuf, &ryw);
    assert_eq!(ryw, get + 1, "allocations: GetRyw vs Get + token list");
    handle.shutdown();
}
