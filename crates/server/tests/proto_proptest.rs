//! Property tests for the wire codec (ISSUE 6, satellite 3).
//!
//! Five properties hold the protocol line:
//!
//! 1. **Round-trip** — any representable `Request`/`Response` encodes to
//!    a body that decodes back to an equal value.
//! 2. **Truncation** — any strict prefix of a valid encoding decodes to
//!    a clean `ProtoError`, never a panic (and never a bogus success).
//! 3. **Garbage** — arbitrary byte soup (including hostile length
//!    fields) either decodes or errors; it never panics or aborts. The
//!    codec itself sits inside the xtask no-panics lint scope, so this
//!    is defense in depth on top of the static check.
//! 4. **Golden frames** — the in-place encoders produce, byte for byte,
//!    the frames the body-then-frame encoders before them produced.
//! 5. **One reader** — `FrameBuf` yields the same bodies in the same
//!    order however a stream of frames is cut into reads.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use server::proto::{
    self, decode_request, decode_response, encode_request, encode_response, frame_len, BatchOp,
    FrameBuf, PairsWriter, ProtoError, Request, Response,
};

/// The body of `req`'s frame (the prefix checked and stripped).
fn encode_request_body(req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_request(&mut frame, req);
    strip_prefix(frame)
}

fn encode_response_body(resp: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_response(&mut frame, resp);
    strip_prefix(frame)
}

fn strip_prefix(mut frame: Vec<u8>) -> Vec<u8> {
    let body = frame.split_off(4);
    assert_eq!(frame_len(frame.try_into().unwrap()), Ok(body.len()));
    body
}

fn bytes_strategy(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

fn batch_op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        (bytes_strategy(40), bytes_strategy(120))
            .prop_map(|(key, value)| BatchOp::Put { key, value }),
        bytes_strategy(40).prop_map(|key| BatchOp::Delete { key }),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        bytes_strategy(60).prop_map(|key| Request::Get { key }),
        (bytes_strategy(60), bytes_strategy(300), any::<bool>())
            .prop_map(|(key, value, sync)| Request::Put { key, value, sync }),
        (bytes_strategy(60), any::<bool>()).prop_map(|(key, sync)| Request::Delete { key, sync }),
        (
            bytes_strategy(40),
            prop_oneof![Just(None), bytes_strategy(40).prop_map(Some)],
            any::<u32>()
        )
            .prop_map(|(start, end, limit)| Request::Scan { start, end, limit }),
        (
            proptest::collection::vec(batch_op_strategy(), 0..12),
            any::<bool>()
        )
            .prop_map(|(ops, sync)| Request::WriteBatch { ops, sync }),
        any::<bool>().prop_map(|json| Request::Stats { json }),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..6)
            .prop_map(|cursors| Request::ReplHello { cursors }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(replica, shard, segment, offset, seq)| Request::ReplAck {
                replica,
                shard,
                segment,
                offset,
                seq,
            }),
        Just(Request::Promote),
        Just(Request::GetSeq),
        (
            bytes_strategy(60),
            proptest::collection::vec(any::<u64>(), 0..6)
        )
            .prop_map(|(key, min_seqs)| Request::GetRyw { key, min_seqs }),
        Just(Request::Shutdown),
    ]
}

fn pairs_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec((bytes_strategy(30), bytes_strategy(80)), 0..10)
}

fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<char>(), 0..60).prop_map(|cs| cs.into_iter().collect())
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        Just(Response::NotFound),
        bytes_strategy(300).prop_map(Response::Value),
        pairs_strategy().prop_map(Response::Pairs),
        pairs_strategy().prop_map(Response::PairsPartial),
        text_strategy().prop_map(Response::Stats),
        text_strategy().prop_map(Response::Err),
        text_strategy().prop_map(Response::ProtoErr),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            bytes_strategy(200)
        )
            .prop_map(|(shard, segment, offset, last_seq, record)| {
                Response::Replicate {
                    shard,
                    segment,
                    offset,
                    last_seq,
                    record,
                }
            }),
        proptest::collection::vec(any::<u64>(), 0..6).prop_map(Response::SeqTokens),
        any::<u64>().prop_map(|applied| Response::Lagging { applied }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_round_trips(req in request_strategy()) {
        let body = encode_request_body(&req);
        prop_assert_eq!(decode_request(&body), Ok(req));
    }

    #[test]
    fn response_round_trips(resp in response_strategy()) {
        let body = encode_response_body(&resp);
        prop_assert_eq!(decode_response(&body), Ok(resp));
    }

    /// Every strict prefix of a valid request body is a clean error:
    /// truncation can never be mistaken for a different valid message.
    #[test]
    fn truncated_request_is_clean_error(
        req in request_strategy(),
        cut in any::<prop::sample::Index>(),
    ) {
        let body = encode_request_body(&req);
        let cut = cut.index(body.len().max(1));
        if cut < body.len() {
            prop_assert!(decode_request(&body[..cut]).is_err());
        }
    }

    #[test]
    fn truncated_response_never_panics(
        resp in response_strategy(),
        cut in any::<prop::sample::Index>(),
    ) {
        let body = encode_response_body(&resp);
        let cut = cut.index(body.len().max(1));
        // `Value`/`Stats`/`Err` prefixes can still be valid (their
        // payload is "rest of body"), so the property is only: clean
        // decode or clean error, never a panic.
        let _ = decode_response(&body[..cut]);
    }

    /// Arbitrary byte soup: decoding must return, never panic. When it
    /// does decode, re-encoding must itself decode back to the same
    /// value (decode output is always representable). Byte-exact
    /// re-encoding is NOT required — flag bytes accept any nonzero bit
    /// pattern but encode canonically.
    #[test]
    fn garbage_request_never_panics(body in bytes_strategy(2048)) {
        if let Ok(req) = decode_request(&body) {
            let reenc = encode_request_body(&req);
            prop_assert_eq!(decode_request(&reenc), Ok(req));
        }
    }

    #[test]
    fn garbage_response_never_panics(body in bytes_strategy(2048)) {
        let _ = decode_response(&body);
    }

    /// A corrupted-in-flight frame (one byte flipped anywhere in a valid
    /// encoding) must decode cleanly or error cleanly — no panic, no
    /// out-of-bounds.
    #[test]
    fn flipped_byte_never_panics(
        req in request_strategy(),
        flip in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut body = encode_request_body(&req);
        let i = flip.index(body.len());
        body[i] ^= xor;
        let _ = decode_request(&body);
    }

    /// A wrong version byte fails loudly as `VersionMismatch` naming the
    /// peer's version — on any otherwise-valid request or response.
    #[test]
    fn version_mismatch_is_always_loud(
        req in request_strategy(),
        resp in response_strategy(),
        version in any::<u8>(),
    ) {
        let version = if version == proto::PROTO_VERSION {
            version.wrapping_add(1)
        } else {
            version
        };
        let mut body = encode_request_body(&req);
        body[0] = version;
        prop_assert_eq!(
            decode_request(&body),
            Err(proto::ProtoError::VersionMismatch(version))
        );
        let mut body = encode_response_body(&resp);
        body[0] = version;
        prop_assert_eq!(
            decode_response(&body),
            Err(proto::ProtoError::VersionMismatch(version))
        );
    }

    /// Hostile length prefixes are rejected before any allocation.
    #[test]
    fn frame_len_never_panics(prefix in any::<u32>()) {
        match frame_len(prefix.to_le_bytes()) {
            Ok(len) => prop_assert!(len <= proto::MAX_FRAME),
            Err(e) => prop_assert_eq!(e, proto::ProtoError::Oversized),
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Golden frames, captured at the last commit that encoded a body into
/// its own `Vec` and then copied it behind a length prefix: three
/// literal frames for a legible failure, then a digest over 512
/// generated requests and 512 generated responses (fixed seed, the
/// strategies above — changing a strategy means recapturing).
#[test]
fn frames_are_byte_identical_to_the_golden_ones() {
    let mut f = Vec::new();
    encode_request(
        &mut f,
        &Request::Scan {
            start: b"a".to_vec(),
            end: Some(b"z".to_vec()),
            limit: 100,
        },
    );
    assert_eq!(hex(&f), "110000000104010000006101010000007a64000000");
    f.clear();
    encode_response(
        &mut f,
        &Response::Pairs(vec![(b"k1".to_vec(), b"v1".to_vec())]),
    );
    assert_eq!(hex(&f), "12000000010301000000020000006b31020000007631");
    f.clear();
    encode_response(&mut f, &Response::PairsPartial(vec![]));
    assert_eq!(hex(&f), "06000000010500000000");

    let mut rng = TestRng::new(18);
    let (mut reqs, mut resps) = (Vec::new(), Vec::new());
    let (rs, ps) = (request_strategy(), response_strategy());
    for _ in 0..512 {
        encode_request(&mut reqs, &rs.generate(&mut rng));
        encode_response(&mut resps, &ps.generate(&mut rng));
    }
    assert_eq!(
        (reqs.len(), fnv1a(&reqs), resps.len(), fnv1a(&resps)),
        (34503, 0xa834_3c9c_5717_aca2, 53316, 0x7e39_5097_c112_4baa)
    );
}

/// Cuts `stream` into reads of the given sizes (cycled; 0 reads as 1)
/// and returns every body `FrameBuf` yields, the largest capacity it
/// reached and the capacity it ended with.
fn bodies_through_framebuf(stream: &[u8], cuts: &[usize]) -> (Vec<Vec<u8>>, usize, usize) {
    let mut buf = FrameBuf::new();
    let (mut bodies, mut peak) = (Vec::new(), 0);
    let (mut at, mut cut) = (0, 0);
    loop {
        while let Some(body) = buf.next_frame().expect("valid prefixes") {
            bodies.push(body.to_vec());
        }
        if at == stream.len() {
            return (bodies, peak, buf.capacity());
        }
        let space = buf.space();
        let n = cuts[cut % cuts.len()]
            .max(1)
            .min(space.len())
            .min(stream.len() - at);
        space[..n].copy_from_slice(&stream[at..at + n]);
        buf.filled(n);
        peak = peak.max(buf.capacity());
        at += n;
        cut += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pairs writer with 0 / 1 / n pairs and either flag writes the
    /// frame `encode_response` writes for `Pairs` / `PairsPartial`, and
    /// an aborted one leaves the buffer as it found it.
    #[test]
    fn pairs_writer_matches_encode_response(
        pairs in pairs_strategy(),
        complete in any::<bool>(),
        before in bytes_strategy(20),
    ) {
        let mut written = before.clone();
        let mut w = PairsWriter::begin(&mut written);
        prop_assert!(w.is_empty());
        for (k, v) in &pairs {
            w.push(k, v);
        }
        prop_assert_eq!(w.len(), pairs.len());
        w.finish(complete);
        let mut expected = before.clone();
        encode_response(&mut expected, &if complete {
            Response::Pairs(pairs.clone())
        } else {
            Response::PairsPartial(pairs.clone())
        });
        prop_assert_eq!(&written, &expected);

        let mut w = PairsWriter::begin(&mut written);
        for (k, v) in &pairs {
            w.push(k, v);
        }
        w.abort();
        prop_assert_eq!(written, expected);
    }

    /// A concatenation of frames comes out of `FrameBuf` as the same
    /// bodies in the same order whether it arrives one byte at a time,
    /// in random-sized pieces, or many frames to a read.
    #[test]
    fn framebuf_yields_every_body_in_order(
        reqs in proptest::collection::vec(request_strategy(), 0..40),
        cuts in proptest::collection::vec(0usize..700, 1..12),
    ) {
        let mut stream = Vec::new();
        for req in &reqs {
            encode_request(&mut stream, req);
        }
        let bodies: Vec<Vec<u8>> = reqs.iter().map(encode_request_body).collect();
        for cuts in [&cuts[..], &[1], &[usize::MAX]] {
            let (got, peak, _) = bodies_through_framebuf(&stream, cuts);
            prop_assert_eq!(&got, &bodies);
            prop_assert!(peak <= FrameBuf::INITIAL);
        }
    }
}

/// A prefix past `MAX_FRAME` is refused as soon as its four bytes are
/// in, with the buffer still at its initial size: nothing was reserved
/// for the body it announced.
#[test]
fn framebuf_rejects_an_oversized_prefix_before_buffering_its_body() {
    let mut buf = FrameBuf::new();
    let prefix = (proto::MAX_FRAME as u32 + 1).to_le_bytes();
    buf.space()[..3].copy_from_slice(&prefix[..3]);
    buf.filled(3);
    assert_eq!(buf.next_frame(), Ok(None));
    buf.space()[0] = prefix[3];
    buf.filled(1);
    assert_eq!(buf.next_frame(), Err(ProtoError::Oversized));
    assert_eq!(buf.capacity(), FrameBuf::INITIAL);
}

/// A frame larger than the initial capacity is accepted — the buffer
/// grows to exactly that frame — and the capacity is back to the
/// initial one by the time the frames behind it are read.
#[test]
fn framebuf_grows_for_a_large_frame_and_shrinks_back() {
    let big = Response::Value(vec![0xA5; 3 * FrameBuf::INITIAL + 17]);
    let small = Response::Value(b"small".to_vec());
    let sent = [&small, &big, &small, &small];
    let mut stream = Vec::new();
    for resp in sent {
        encode_response(&mut stream, resp);
    }
    for cuts in [&[usize::MAX][..], &[1000], &[1, 70_000, 3]] {
        let (got, peak, end) = bodies_through_framebuf(&stream, cuts);
        let got: Vec<Response> = got.iter().map(|b| decode_response(b).unwrap()).collect();
        assert!(got.iter().eq(sent));
        assert_eq!(peak, encode_response_body(&big).len() + 4);
        assert_eq!(end, FrameBuf::INITIAL);
    }
}
