//! Counts, not times, for the scan reply path:
//!
//! * **Allocations.** What the server allocates to answer a `SCAN` does
//!   not depend on how many pairs the reply carries: pairs go from the
//!   shard's iterator into the connection's output buffer, which is
//!   reused from reply to reply. A server that materialised the reply
//!   (`Vec<(Vec<u8>, Vec<u8>)>`, then a body, then a frame) would differ
//!   by two allocations a pair and more.
//! * **Reads.** A frame that arrives whole costs one `read`, and so does
//!   a burst of frames that arrives together.
//!
//! Single `#[test]` in this binary: the global counter sees every
//! thread. The test's own side of the socket allocates nothing inside
//! the counted window (requests are encoded beforehand, replies land in
//! a `FrameBuf` built beforehand), the stores never flush, and no other
//! connection is open, so what is counted is the server answering.

use std::io::{Read, Write};
use std::sync::Arc;

use server::proto::{self, FrameBuf};
use server::{KvClient, KvServer, Response, ServerConfig};
use sstable::env::MemEnv;

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

fn key(n: u64) -> Vec<u8> {
    format!("{n:016}").into_bytes()
}

/// Sends the pre-encoded `request` and returns how many allocations the
/// process made until the reply — `pairs` pairs, cut at the limit —
/// was in `inbuf`.
fn allocations_to_answer(
    raw: &mut std::net::TcpStream,
    inbuf: &mut FrameBuf,
    request: &[u8],
    pairs: usize,
) -> u64 {
    let before = ALLOC.allocations();
    raw.write_all(request).expect("send");
    let body_len = loop {
        if let Some(body) = inbuf.next_frame().expect("frame") {
            break body.len();
        }
        assert_ne!(inbuf.fill_from(raw).expect("read"), 0, "server hung up");
    };
    let counted = ALLOC.allocations() - before;
    // version, tag, count, then (4 + 16 + 4 + 64) a pair.
    assert_eq!(body_len, 6 + pairs * 88);
    counted
}

/// Hands out one queued chunk per `read` call and counts the calls.
struct ChunkReader {
    chunks: std::collections::VecDeque<Vec<u8>>,
    reads: usize,
}

impl Read for ChunkReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        let Some(chunk) = self.chunks.pop_front() else {
            return Ok(0);
        };
        assert!(
            chunk.len() <= buf.len(),
            "the reader was offered too little space"
        );
        buf[..chunk.len()].copy_from_slice(&chunk);
        Ok(chunk.len())
    }
}

#[test]
fn a_scan_reply_costs_the_same_whatever_it_carries() {
    let records = 1000u64;
    let server = KvServer::open(ServerConfig {
        root: "/scan-reply-counts".into(),
        key_space: Some(records),
        env: Some(Arc::new(MemEnv::new())),
        ..ServerConfig::default()
    })
    .expect("open");
    let handle = server.start("127.0.0.1:0").expect("bind");
    {
        let mut client = KvClient::connect(handle.addr()).expect("connect");
        for n in 0..records {
            client.put(&key(n), &[b'v'; 64], false).expect("put");
        }
        // The reference answer, through the ordinary client.
        let (pairs, complete) = client.scan_partial(&key(10), None, 100).expect("scan");
        assert!(!complete);
        assert!(pairs
            .iter()
            .map(|(k, _)| k)
            .eq((10..110).map(key).collect::<Vec<_>>().iter()));
    }

    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect raw");
    raw.set_nodelay(true).expect("nodelay");
    let mut inbuf = FrameBuf::new();
    let (mut ten, mut hundred) = (Vec::new(), Vec::new());
    proto::write_scan(&mut ten, &key(10), None, 10);
    proto::write_scan(&mut hundred, &key(10), None, 100);

    // Warm-up: the connection's output buffer grows to the larger reply.
    allocations_to_answer(&mut raw, &mut inbuf, &hundred, 100);
    allocations_to_answer(&mut raw, &mut inbuf, &ten, 10);
    let small = allocations_to_answer(&mut raw, &mut inbuf, &ten, 10);
    let large = allocations_to_answer(&mut raw, &mut inbuf, &hundred, 100);
    assert!(
        large.abs_diff(small) <= 2,
        "10-pair reply: {small} allocations, 100-pair reply: {large}"
    );
    // Per request: the decoded start key, the snapshot list and the
    // iterator over one shard's memtable — not a function of the reply.
    assert!(small < 60, "{small} allocations to answer a 10-pair SCAN");
    drop(raw);
    handle.shutdown();

    // One `read` per frame that arrives whole ...
    let frames: Vec<Vec<u8>> = (0..50u8)
        .map(|i| {
            let mut frame = Vec::new();
            proto::encode_response(&mut frame, &Response::Value(vec![i; 10 + usize::from(i)]));
            frame
        })
        .collect();
    let mut src = ChunkReader {
        chunks: frames.iter().cloned().collect(),
        reads: 0,
    };
    let mut buf = FrameBuf::new();
    for frame in &frames {
        assert_eq!(buf.next_frame(), Ok(None));
        assert_eq!(buf.fill_from(&mut src).expect("read"), frame.len());
        assert_eq!(buf.next_frame(), Ok(Some(&frame[4..])));
    }
    assert_eq!(src.reads, frames.len());
    // ... and one for a burst that arrives together.
    let mut src = ChunkReader {
        chunks: [frames.concat()].into(),
        reads: 0,
    };
    buf.fill_from(&mut src).expect("read");
    for frame in &frames {
        assert_eq!(buf.next_frame(), Ok(Some(&frame[4..])));
    }
    assert_eq!((buf.next_frame(), src.reads), (Ok(None), 1));
}
