//! Length-prefixed binary wire protocol.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! +----------------+----------------------+
//! | len: u32 LE    | body: len bytes      |
//! +----------------+----------------------+
//! ```
//!
//! `len` counts the body only and is capped at [`MAX_FRAME`]; anything
//! larger is rejected before allocation, so a hostile peer cannot make
//! the server reserve gigabytes from four bytes of input.
//!
//! Every body starts with a one-byte protocol version
//! ([`PROTO_VERSION`]): mixed-version nodes fail loudly with
//! [`ProtoError::VersionMismatch`] on the first frame instead of
//! misparsing each other's fields. Request bodies continue with an opcode
//! byte; response bodies with a tag byte. Variable-length fields are
//! `u32 LE` length + bytes. Requests on one connection are answered
//! strictly in order, which is what lets clients pipeline: send N frames
//! back-to-back, then read N responses.
//!
//! The codec is pure and panic-free on arbitrary input (it is inside the
//! xtask no-panics lint scope): decode failures return [`ProtoError`],
//! never a crash — the property tests feed truncated, oversized and
//! garbage frames to hold that line.

use std::fmt;

/// Largest accepted frame body (16 MiB) — comfortably above the largest
/// legitimate value/batch, far below an allocation attack.
pub const MAX_FRAME: usize = 16 << 20;

/// Wire protocol version, the first byte of every frame body. Bumped on
/// any incompatible layout change; a peer speaking another version is
/// answered with a [`Response::ProtoErr`] and the connection closes.
pub const PROTO_VERSION: u8 = 1;

/// Request opcodes (first body byte).
pub mod opcode {
    /// Point lookup.
    pub const GET: u8 = 0x01;
    /// Single-key write.
    pub const PUT: u8 = 0x02;
    /// Single-key delete.
    pub const DELETE: u8 = 0x03;
    /// Range scan.
    pub const SCAN: u8 = 0x04;
    /// Atomic-per-shard multi-op write.
    pub const WRITE_BATCH: u8 = 0x05;
    /// Metrics export.
    pub const STATS: u8 = 0x06;
    /// Replication handshake: replica announces resume cursors.
    pub const REPL_HELLO: u8 = 0x07;
    /// Replication progress acknowledgement.
    pub const REPL_ACK: u8 = 0x08;
    /// Promote this replica to leader.
    pub const PROMOTE: u8 = 0x09;
    /// Read the per-shard visible sequences (read-your-writes tokens).
    pub const GET_SEQ: u8 = 0x0A;
    /// Token-gated point lookup on a replica.
    pub const GET_RYW: u8 = 0x0B;
    /// Graceful shutdown: drain, flush the replication stream, exit.
    pub const SHUTDOWN: u8 = 0x0C;
}

/// Response tags (first body byte).
pub mod tag {
    /// Write acknowledged.
    pub const OK: u8 = 0x00;
    /// Key absent.
    pub const NOT_FOUND: u8 = 0x01;
    /// Value payload follows.
    pub const VALUE: u8 = 0x02;
    /// Key/value pair list follows.
    pub const PAIRS: u8 = 0x03;
    /// Stats payload follows.
    pub const STATS: u8 = 0x04;
    /// Key/value pair list follows, truncated server-side (frame budget
    /// or pair limit): more data may exist past the last returned key.
    pub const PAIRS_PARTIAL: u8 = 0x05;
    /// One replication stream record follows.
    pub const REPLICATE: u8 = 0x06;
    /// Per-shard visible sequence list follows.
    pub const SEQ_TOKENS: u8 = 0x07;
    /// Replica cannot serve the requested token yet; its applied
    /// sequence follows.
    pub const LAGGING: u8 = 0x08;
    /// Storage-side error (store stays usable; request failed).
    pub const ERR: u8 = 0x10;
    /// Protocol violation (connection closes after this).
    pub const PROTO_ERR: u8 = 0x11;
}

/// Request flag bits.
pub mod flags {
    /// Sync the WAL before acknowledging this write.
    pub const SYNC: u8 = 0x01;
}

/// One operation inside a [`Request::WriteBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert or overwrite.
    Put {
        /// User key.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Remove.
    Delete {
        /// User key.
        key: Vec<u8>,
    },
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get {
        /// User key.
        key: Vec<u8>,
    },
    /// Single-key write. `sync` forces a WAL sync before the ack.
    Put {
        /// User key.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
        /// Require a WAL sync before acknowledging.
        sync: bool,
    },
    /// Single-key delete.
    Delete {
        /// User key.
        key: Vec<u8>,
        /// Require a WAL sync before acknowledging.
        sync: bool,
    },
    /// Range scan over `[start, end)` (`end` `None` = unbounded),
    /// returning at most `limit` pairs.
    Scan {
        /// Inclusive start key.
        start: Vec<u8>,
        /// Exclusive end key; `None` scans to the keyspace end.
        end: Option<Vec<u8>>,
        /// Pair cap.
        limit: u32,
    },
    /// Multi-op write. Atomic *per shard*: ops are split by the router
    /// and each shard's slice commits as one `lsm::WriteBatch`.
    WriteBatch {
        /// Operations in application order.
        ops: Vec<BatchOp>,
        /// Require a WAL sync before acknowledging.
        sync: bool,
    },
    /// Metrics export; `json` selects the JSON registry export over the
    /// text format.
    Stats {
        /// JSON (`true`) or text (`false`).
        json: bool,
    },
    /// Replication handshake. The connection becomes a one-way feed: the
    /// leader answers [`Response::Ok`], then streams
    /// [`Response::Replicate`] frames resuming from these cursors.
    ReplHello {
        /// Resume cursor per shard, in shard order: `(segment, offset)`.
        cursors: Vec<(u64, u64)>,
    },
    /// Replication progress: the replica durably applied shard `shard`
    /// through WAL position `(segment, offset)` / sequence `seq`. Sent on
    /// a separate control connection so acks never queue behind the feed;
    /// `replica` is the id the handshake's [`Response::SeqTokens`] reply
    /// assigned, tying the two connections together.
    ReplAck {
        /// Replica id from the handshake reply.
        replica: u64,
        /// Shard index.
        shard: u32,
        /// Acknowledged WAL segment.
        segment: u64,
        /// Acknowledged byte offset within the segment.
        offset: u64,
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// Promote this replica to leader: stop applying, start accepting
    /// writes.
    Promote,
    /// Read the per-shard visible sequences — the read-your-writes
    /// session token a client carries to replica reads.
    GetSeq,
    /// Token-gated point lookup on a replica: serve `key` only once the
    /// owning shard's applied sequence reaches its entry in `min_seqs`
    /// (shard order, as returned by [`Request::GetSeq`]).
    GetRyw {
        /// User key.
        key: Vec<u8>,
        /// Minimum applied sequence per shard.
        min_seqs: Vec<u64>,
    },
    /// Graceful shutdown: stop accepting, drain in-flight requests,
    /// flush the replication stream, exit.
    Shutdown,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Write acknowledged (durably, when the request carried `sync`).
    Ok,
    /// Key absent.
    NotFound,
    /// Lookup result.
    Value(Vec<u8>),
    /// Scan result, in key order.
    Pairs(Vec<(Vec<u8>, Vec<u8>)>),
    /// Scan result the server cut short — by the pair limit or by the
    /// response-frame byte budget (large values can hit the frame cap
    /// long before the pair limit). Same body layout as [`Pairs`]; the
    /// caller resumes past the last returned key or falls back to point
    /// reads.
    PairsPartial(Vec<(Vec<u8>, Vec<u8>)>),
    /// Stats payload (text or JSON, per the request).
    Stats(String),
    /// One replication stream record: a sequence-stamped `WriteBatch`
    /// encoding lifted off shard `shard`'s WAL.
    Replicate {
        /// Shard index the record belongs to.
        shard: u32,
        /// WAL segment the record came from.
        segment: u64,
        /// Byte offset of the *next* record (the replica's resume
        /// cursor once this record is applied).
        offset: u64,
        /// Last sequence the leader reserved for this record's batch.
        last_seq: u64,
        /// `lsm::WriteBatch` wire bytes with every value re-inlined.
        record: Vec<u8>,
    },
    /// Per-shard visible sequences, in shard order.
    SeqTokens(Vec<u64>),
    /// The replica's applied sequence is below the requested token; the
    /// client retries here or redirects to the leader.
    Lagging {
        /// The shard's current applied sequence.
        applied: u64,
    },
    /// Storage-side failure; the connection stays open.
    Err(String),
    /// Protocol violation; the server closes the connection after
    /// sending this.
    ProtoErr(String),
}

/// Decode failure. Conversion to a wire response uses
/// [`Response::ProtoErr`] with the `Display` text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Body ended before a field was complete.
    Truncated,
    /// Frame length exceeds [`MAX_FRAME`].
    Oversized,
    /// Unknown request opcode.
    BadOpcode(u8),
    /// Unknown response tag.
    BadTag(u8),
    /// Unknown op kind inside a batch.
    BadBatchOp(u8),
    /// Bytes left over after a complete message.
    TrailingBytes,
    /// A length field points past the end of the body.
    LengthOverflow,
    /// The peer speaks a different protocol version; the payload is the
    /// version byte it sent. The connection closes after reporting it.
    VersionMismatch(u8),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::Oversized => write!(f, "frame exceeds {MAX_FRAME} bytes"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::BadTag(t) => write!(f, "unknown response tag {t:#04x}"),
            ProtoError::BadBatchOp(k) => write!(f, "unknown batch op kind {k:#04x}"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after message"),
            ProtoError::LengthOverflow => write!(f, "length field overruns frame"),
            ProtoError::VersionMismatch(v) => write!(
                f,
                "protocol version mismatch: peer sent {v}, this node speaks {PROTO_VERSION}"
            ),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------- encode

/// One frame being written in place at the end of a buffer: the length
/// prefix is reserved by [`Frame::begin`] and back-patched by
/// [`Frame::finish`], so no body is ever built somewhere else first.
/// Every encoder in this module goes through it.
struct Frame<'a> {
    out: &'a mut Vec<u8>,
    /// Offset of the reserved length prefix in `out`.
    start: usize,
}

impl<'a> Frame<'a> {
    /// Opens a frame whose body starts with the version byte and `kind`
    /// (a request opcode or a response tag).
    fn begin(out: &'a mut Vec<u8>, kind: u8) -> Self {
        let start = out.len();
        out.extend_from_slice(&[0, 0, 0, 0, PROTO_VERSION, kind]);
        Frame { out, start }
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Unprefixed bytes: a payload that runs to the end of the body.
    fn raw(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }

    /// `u32` length + bytes.
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.raw(b);
    }

    fn sync_flag(&mut self, sync: bool) {
        self.u8(if sync { flags::SYNC } else { 0 });
    }

    /// Overwrites the four bytes `offset` past the frame's start.
    fn patch_u32(&mut self, offset: usize, v: u32) {
        let at = self.start + offset;
        if let Some(slot) = self.out.get_mut(at..at + 4) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Back-patches the length prefix; the frame is complete.
    fn finish(mut self) {
        let body = self.out.len() - self.start - 4;
        self.patch_u32(0, body as u32);
    }
}

/// Appends a `Get` request frame for a borrowed key.
pub fn write_get(out: &mut Vec<u8>, key: &[u8]) {
    let mut f = Frame::begin(out, opcode::GET);
    f.bytes(key);
    f.finish();
}

/// Appends a `Put` request frame for a borrowed key and value.
pub fn write_put(out: &mut Vec<u8>, key: &[u8], value: &[u8], sync: bool) {
    let mut f = Frame::begin(out, opcode::PUT);
    f.sync_flag(sync);
    f.bytes(key);
    f.bytes(value);
    f.finish();
}

/// Appends a `Delete` request frame for a borrowed key.
pub fn write_delete(out: &mut Vec<u8>, key: &[u8], sync: bool) {
    let mut f = Frame::begin(out, opcode::DELETE);
    f.sync_flag(sync);
    f.bytes(key);
    f.finish();
}

/// Appends a `Scan` request frame for borrowed bounds.
pub fn write_scan(out: &mut Vec<u8>, start: &[u8], end: Option<&[u8]>, limit: u32) {
    let mut f = Frame::begin(out, opcode::SCAN);
    f.bytes(start);
    match end {
        Some(end) => {
            f.u8(1);
            f.bytes(end);
        }
        None => f.u8(0),
    }
    f.u32(limit);
    f.finish();
}

/// Appends `req` to `out` as a complete frame.
pub fn encode_request(out: &mut Vec<u8>, req: &Request) {
    let f = match req {
        Request::Get { key } => return write_get(out, key),
        Request::Put { key, value, sync } => return write_put(out, key, value, *sync),
        Request::Delete { key, sync } => return write_delete(out, key, *sync),
        Request::Scan { start, end, limit } => {
            return write_scan(out, start, end.as_deref(), *limit)
        }
        Request::WriteBatch { ops, sync } => {
            let mut f = Frame::begin(out, opcode::WRITE_BATCH);
            f.sync_flag(*sync);
            f.u32(ops.len() as u32);
            for op in ops {
                match op {
                    BatchOp::Put { key, value } => {
                        f.u8(0);
                        f.bytes(key);
                        f.bytes(value);
                    }
                    BatchOp::Delete { key } => {
                        f.u8(1);
                        f.bytes(key);
                    }
                }
            }
            f
        }
        Request::Stats { json } => {
            let mut f = Frame::begin(out, opcode::STATS);
            f.u8(u8::from(*json));
            f
        }
        Request::ReplHello { cursors } => {
            let mut f = Frame::begin(out, opcode::REPL_HELLO);
            f.u32(cursors.len() as u32);
            for (segment, offset) in cursors {
                f.u64(*segment);
                f.u64(*offset);
            }
            f
        }
        Request::ReplAck {
            replica,
            shard,
            segment,
            offset,
            seq,
        } => {
            let mut f = Frame::begin(out, opcode::REPL_ACK);
            f.u64(*replica);
            f.u32(*shard);
            f.u64(*segment);
            f.u64(*offset);
            f.u64(*seq);
            f
        }
        Request::Promote => Frame::begin(out, opcode::PROMOTE),
        Request::GetSeq => Frame::begin(out, opcode::GET_SEQ),
        Request::GetRyw { key, min_seqs } => {
            let mut f = Frame::begin(out, opcode::GET_RYW);
            f.bytes(key);
            f.u32(min_seqs.len() as u32);
            for s in min_seqs {
                f.u64(*s);
            }
            f
        }
        Request::Shutdown => Frame::begin(out, opcode::SHUTDOWN),
    };
    f.finish();
}

/// Appends `resp` to `out` as a complete frame.
pub fn encode_response(out: &mut Vec<u8>, resp: &Response) {
    let f = match resp {
        Response::Pairs(pairs) | Response::PairsPartial(pairs) => {
            let mut w = PairsWriter::begin(out);
            for (k, v) in pairs {
                w.push(k, v);
            }
            return w.finish(matches!(resp, Response::Pairs(_)));
        }
        Response::Ok => Frame::begin(out, tag::OK),
        Response::NotFound => Frame::begin(out, tag::NOT_FOUND),
        Response::Value(v) => {
            let mut f = Frame::begin(out, tag::VALUE);
            f.raw(v);
            f
        }
        Response::Stats(s) => {
            let mut f = Frame::begin(out, tag::STATS);
            f.raw(s.as_bytes());
            f
        }
        Response::Replicate {
            shard,
            segment,
            offset,
            last_seq,
            record,
        } => {
            let mut f = Frame::begin(out, tag::REPLICATE);
            f.u32(*shard);
            f.u64(*segment);
            f.u64(*offset);
            f.u64(*last_seq);
            f.bytes(record);
            f
        }
        Response::SeqTokens(seqs) => {
            let mut f = Frame::begin(out, tag::SEQ_TOKENS);
            f.u32(seqs.len() as u32);
            for s in seqs {
                f.u64(*s);
            }
            f
        }
        Response::Lagging { applied } => {
            let mut f = Frame::begin(out, tag::LAGGING);
            f.u64(*applied);
            f
        }
        Response::Err(msg) => {
            let mut f = Frame::begin(out, tag::ERR);
            f.raw(msg.as_bytes());
            f
        }
        Response::ProtoErr(msg) => {
            let mut f = Frame::begin(out, tag::PROTO_ERR);
            f.raw(msg.as_bytes());
            f
        }
    };
    f.finish();
}

/// A scan reply written pair by pair, straight from whatever yields the
/// pairs, into the buffer the socket write takes. Whether the reply is
/// [`Response::Pairs`] or [`Response::PairsPartial`] is only known once
/// the scan stops, so the tag and the pair count are back-patched by
/// [`PairsWriter::finish`] along with the length prefix.
pub struct PairsWriter<'a> {
    frame: Frame<'a>,
    count: u32,
}

impl<'a> PairsWriter<'a> {
    /// Frame offsets of the tag byte and of the pair count.
    const TAG_AT: usize = 5;
    const COUNT_AT: usize = 6;

    /// Opens a pair-list frame at the end of `out`.
    pub fn begin(out: &'a mut Vec<u8>) -> Self {
        let mut frame = Frame::begin(out, tag::PAIRS);
        frame.u32(0);
        PairsWriter { frame, count: 0 }
    }

    /// Appends one pair.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        self.frame.bytes(key);
        self.frame.bytes(value);
        self.count += 1;
    }

    /// Pairs appended so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True before the first [`PairsWriter::push`].
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Completes the frame; `complete == false` marks the list as cut
    /// short ([`Response::PairsPartial`]).
    pub fn finish(mut self, complete: bool) {
        if !complete {
            if let Some(t) = self.frame.out.get_mut(self.frame.start + Self::TAG_AT) {
                *t = tag::PAIRS_PARTIAL;
            }
        }
        self.frame.patch_u32(Self::COUNT_AT, self.count);
        self.frame.finish();
    }

    /// Drops the unfinished frame, leaving the buffer as `begin` found it.
    pub fn abort(self) {
        self.frame.out.truncate(self.frame.start);
    }
}

// ---------------------------------------------------------------- decode

/// Bounds-checked reader over a frame body.
struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(body: &'a [u8]) -> Self {
        Reader { body, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self.body.get(self.pos).ok_or(ProtoError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let end = self.pos.checked_add(4).ok_or(ProtoError::Truncated)?;
        let bytes = self.body.get(self.pos..end).ok_or(ProtoError::Truncated)?;
        self.pos = end;
        let arr: [u8; 4] = bytes.try_into().map_err(|_| ProtoError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let end = self.pos.checked_add(8).ok_or(ProtoError::Truncated)?;
        let bytes = self.body.get(self.pos..end).ok_or(ProtoError::Truncated)?;
        self.pos = end;
        let arr: [u8; 8] = bytes.try_into().map_err(|_| ProtoError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads and checks the version byte every body leads with.
    fn version(&mut self) -> Result<(), ProtoError> {
        let v = self.u8()?;
        if v != PROTO_VERSION {
            return Err(ProtoError::VersionMismatch(v));
        }
        Ok(())
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::LengthOverflow);
        }
        let end = self
            .pos
            .checked_add(len)
            .ok_or(ProtoError::LengthOverflow)?;
        let slice = self
            .body
            .get(self.pos..end)
            .ok_or(ProtoError::LengthOverflow)?;
        self.pos = end;
        Ok(slice.to_vec())
    }

    fn rest(&mut self) -> Vec<u8> {
        let out = self.body.get(self.pos..).unwrap_or(&[]).to_vec();
        self.pos = self.body.len();
        out
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.pos == self.body.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

/// Decodes a request frame body.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtoError> {
    if body.len() > MAX_FRAME {
        return Err(ProtoError::Oversized);
    }
    let mut r = Reader::new(body);
    r.version()?;
    let req = match r.u8()? {
        opcode::GET => Request::Get { key: r.bytes()? },
        opcode::PUT => {
            let flags = r.u8()?;
            Request::Put {
                sync: flags & flags::SYNC != 0,
                key: r.bytes()?,
                value: r.bytes()?,
            }
        }
        opcode::DELETE => {
            let flags = r.u8()?;
            Request::Delete {
                sync: flags & flags::SYNC != 0,
                key: r.bytes()?,
            }
        }
        opcode::SCAN => {
            let start = r.bytes()?;
            let end = match r.u8()? {
                0 => None,
                _ => Some(r.bytes()?),
            };
            Request::Scan {
                start,
                end,
                limit: r.u32()?,
            }
        }
        opcode::WRITE_BATCH => {
            let flags = r.u8()?;
            let count = r.u32()? as usize;
            // Each op needs at least 5 body bytes; reject counts the
            // remaining bytes cannot possibly satisfy before reserving.
            if count > body.len() / 5 + 1 {
                return Err(ProtoError::LengthOverflow);
            }
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                match r.u8()? {
                    0 => ops.push(BatchOp::Put {
                        key: r.bytes()?,
                        value: r.bytes()?,
                    }),
                    1 => ops.push(BatchOp::Delete { key: r.bytes()? }),
                    k => return Err(ProtoError::BadBatchOp(k)),
                }
            }
            Request::WriteBatch {
                ops,
                sync: flags & flags::SYNC != 0,
            }
        }
        opcode::STATS => Request::Stats { json: r.u8()? != 0 },
        opcode::REPL_HELLO => {
            let count = r.u32()? as usize;
            // Each cursor is 16 body bytes; reject impossible counts
            // before reserving.
            if count > body.len() / 16 + 1 {
                return Err(ProtoError::LengthOverflow);
            }
            let mut cursors = Vec::with_capacity(count);
            for _ in 0..count {
                let segment = r.u64()?;
                let offset = r.u64()?;
                cursors.push((segment, offset));
            }
            Request::ReplHello { cursors }
        }
        opcode::REPL_ACK => Request::ReplAck {
            replica: r.u64()?,
            shard: r.u32()?,
            segment: r.u64()?,
            offset: r.u64()?,
            seq: r.u64()?,
        },
        opcode::PROMOTE => Request::Promote,
        opcode::GET_SEQ => Request::GetSeq,
        opcode::GET_RYW => {
            let key = r.bytes()?;
            let count = r.u32()? as usize;
            // Each token is 8 body bytes.
            if count > body.len() / 8 + 1 {
                return Err(ProtoError::LengthOverflow);
            }
            let mut min_seqs = Vec::with_capacity(count);
            for _ in 0..count {
                min_seqs.push(r.u64()?);
            }
            Request::GetRyw { key, min_seqs }
        }
        opcode::SHUTDOWN => Request::Shutdown,
        op => return Err(ProtoError::BadOpcode(op)),
    };
    r.finish()?;
    Ok(req)
}

/// Decodes a response frame body.
pub fn decode_response(body: &[u8]) -> Result<Response, ProtoError> {
    if body.len() > MAX_FRAME {
        return Err(ProtoError::Oversized);
    }
    let mut r = Reader::new(body);
    r.version()?;
    let resp = match r.u8()? {
        tag::OK => Response::Ok,
        tag::NOT_FOUND => Response::NotFound,
        tag::VALUE => Response::Value(r.rest()),
        t @ (tag::PAIRS | tag::PAIRS_PARTIAL) => {
            let count = r.u32()? as usize;
            if count > body.len() / 8 + 1 {
                return Err(ProtoError::LengthOverflow);
            }
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let k = r.bytes()?;
                let v = r.bytes()?;
                pairs.push((k, v));
            }
            if t == tag::PAIRS {
                Response::Pairs(pairs)
            } else {
                Response::PairsPartial(pairs)
            }
        }
        tag::STATS => Response::Stats(String::from_utf8_lossy(&r.rest()).into_owned()),
        tag::REPLICATE => Response::Replicate {
            shard: r.u32()?,
            segment: r.u64()?,
            offset: r.u64()?,
            last_seq: r.u64()?,
            record: r.bytes()?,
        },
        tag::SEQ_TOKENS => {
            let count = r.u32()? as usize;
            if count > body.len() / 8 + 1 {
                return Err(ProtoError::LengthOverflow);
            }
            let mut seqs = Vec::with_capacity(count);
            for _ in 0..count {
                seqs.push(r.u64()?);
            }
            Response::SeqTokens(seqs)
        }
        tag::LAGGING => Response::Lagging { applied: r.u64()? },
        tag::ERR => Response::Err(String::from_utf8_lossy(&r.rest()).into_owned()),
        tag::PROTO_ERR => Response::ProtoErr(String::from_utf8_lossy(&r.rest()).into_owned()),
        t => return Err(ProtoError::BadTag(t)),
    };
    r.finish()?;
    Ok(resp)
}

/// Validates a frame length prefix, returning the body length.
pub fn frame_len(prefix: [u8; 4]) -> Result<usize, ProtoError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        Err(ProtoError::Oversized)
    } else {
        Ok(len)
    }
}

/// Sans-IO frame reader: the one place that turns a byte stream into
/// frame bodies. The owner reads from its socket into [`FrameBuf::space`],
/// reports the count with [`FrameBuf::filled`] and takes bodies out with
/// [`FrameBuf::next_frame`] until that returns `None`, so a frame that
/// arrives whole costs one `read`, and a burst of frames costs one too.
///
/// Consuming a frame moves a read cursor; bytes are only moved when a
/// partial frame has to make room for its remainder. A length prefix is
/// checked against [`MAX_FRAME`] the moment its four bytes are buffered
/// — before the buffer grows for the body. The buffer starts at
/// [`FrameBuf::INITIAL`] bytes, grows to exactly a larger frame's size,
/// and returns to the initial size once that frame is consumed.
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes.
    read: usize,
    /// End of the buffered bytes.
    write: usize,
    /// Size (prefix included) of the incomplete frame at `read`, once its
    /// prefix has been seen; 0 otherwise.
    pending: usize,
}

impl Default for FrameBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameBuf {
    /// Capacity at rest: one `read` picks up this much.
    pub const INITIAL: usize = 64 << 10;

    /// An empty buffer of [`FrameBuf::INITIAL`] bytes.
    pub fn new() -> Self {
        FrameBuf {
            buf: vec![0; Self::INITIAL],
            read: 0,
            write: 0,
            pending: 0,
        }
    }

    /// Current buffer size in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// True when no byte — not even part of a frame — is buffered.
    pub fn is_empty(&self) -> bool {
        self.read == self.write
    }

    /// The next complete frame's body, `None` when more bytes are needed,
    /// or [`ProtoError::Oversized`] for a prefix past [`MAX_FRAME`].
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, ProtoError> {
        let buffered = self.buf.get(self.read..self.write).unwrap_or_default();
        let Some(prefix) = buffered.get(..4).and_then(|p| p.try_into().ok()) else {
            self.pending = 0;
            return Ok(None);
        };
        let end = self.read + 4 + frame_len(prefix)?;
        if end > self.write {
            self.pending = end - self.read;
            return Ok(None);
        }
        let body = self.buf.get(self.read + 4..end);
        self.read = end;
        self.pending = 0;
        Ok(body)
    }

    /// Where the next `read` goes: never empty after
    /// [`FrameBuf::next_frame`] returned `None`, and large enough for the
    /// rest of the frame that call found incomplete.
    pub fn space(&mut self) -> &mut [u8] {
        if self.read > 0 {
            // At most one partial frame is left to move.
            self.buf.copy_within(self.read..self.write, 0);
            self.write -= self.read;
            self.read = 0;
        }
        let want = self.pending.max(Self::INITIAL);
        if self.buf.len() != want && self.write <= want {
            self.buf.resize(want, 0);
            self.buf.shrink_to(want);
        }
        self.buf.get_mut(self.write..).unwrap_or_default()
    }

    /// Records that `n` bytes were read into [`FrameBuf::space`].
    pub fn filled(&mut self, n: usize) {
        self.write = (self.write + n).min(self.buf.len());
    }

    /// One blocking `read` from `src` into the free space; returns what
    /// `read` returned (0 = end of stream).
    pub fn fill_from(&mut self, src: &mut impl std::io::Read) -> std::io::Result<usize> {
        let n = src.read(self.space())?;
        self.filled(n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The body of `req`'s frame (prefix checked and stripped).
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

    fn round_trip_request(req: Request) {
        let body = encode_request_body(&req);
        assert_eq!(decode_request(&body), Ok(req));
    }

    fn round_trip_response(resp: Response) {
        let body = encode_response_body(&resp);
        assert_eq!(decode_response(&body), Ok(resp));
    }

    #[test]
    fn request_round_trips() {
        round_trip_request(Request::Get { key: b"k".to_vec() });
        round_trip_request(Request::Put {
            key: b"k".to_vec(),
            value: vec![0u8; 1000],
            sync: true,
        });
        round_trip_request(Request::Delete {
            key: vec![],
            sync: false,
        });
        round_trip_request(Request::Scan {
            start: b"a".to_vec(),
            end: Some(b"z".to_vec()),
            limit: 100,
        });
        round_trip_request(Request::Scan {
            start: vec![],
            end: None,
            limit: 0,
        });
        round_trip_request(Request::WriteBatch {
            ops: vec![
                BatchOp::Put {
                    key: b"a".to_vec(),
                    value: b"1".to_vec(),
                },
                BatchOp::Delete { key: b"b".to_vec() },
            ],
            sync: true,
        });
        round_trip_request(Request::Stats { json: true });
        round_trip_request(Request::ReplHello {
            cursors: vec![(3, 4096), (7, 0)],
        });
        round_trip_request(Request::ReplHello { cursors: vec![] });
        round_trip_request(Request::ReplAck {
            replica: 1,
            shard: 2,
            segment: 9,
            offset: u64::MAX,
            seq: 12345,
        });
        round_trip_request(Request::Promote);
        round_trip_request(Request::GetSeq);
        round_trip_request(Request::GetRyw {
            key: b"k".to_vec(),
            min_seqs: vec![0, u64::MAX, 7],
        });
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn response_round_trips() {
        round_trip_response(Response::Ok);
        round_trip_response(Response::NotFound);
        round_trip_response(Response::Value(vec![7u8; 300]));
        round_trip_response(Response::Pairs(vec![
            (b"k1".to_vec(), b"v1".to_vec()),
            (vec![], vec![]),
        ]));
        round_trip_response(Response::PairsPartial(vec![(
            b"k1".to_vec(),
            vec![9u8; 64],
        )]));
        round_trip_response(Response::PairsPartial(vec![]));
        round_trip_response(Response::Stats("counter x 1\n".into()));
        round_trip_response(Response::Replicate {
            shard: 1,
            segment: 6,
            offset: 32768,
            last_seq: 99,
            record: vec![0xAB; 200],
        });
        round_trip_response(Response::SeqTokens(vec![5, 0, u64::MAX]));
        round_trip_response(Response::SeqTokens(vec![]));
        round_trip_response(Response::Lagging { applied: 41 });
        round_trip_response(Response::Err("read-only".into()));
        round_trip_response(Response::ProtoErr("truncated frame".into()));
    }

    #[test]
    fn truncation_is_an_error_everywhere() {
        let body = encode_request_body(&Request::Put {
            key: b"key".to_vec(),
            value: b"value".to_vec(),
            sync: false,
        });
        for cut in 0..body.len() {
            let err = decode_request(&body[..cut]);
            assert!(err.is_err(), "prefix of length {cut} must not decode");
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A batch claiming u32::MAX ops in a tiny body must be rejected
        // before any `Vec::with_capacity(u32::MAX)`.
        let mut body = vec![PROTO_VERSION, opcode::WRITE_BATCH, 0];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&body), Err(ProtoError::LengthOverflow));

        // A field length pointing far past the body end.
        let mut body = vec![PROTO_VERSION, opcode::GET];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&body), Err(ProtoError::LengthOverflow));

        // Replication cursor / token counts the body cannot hold.
        let mut body = vec![PROTO_VERSION, opcode::REPL_HELLO];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&body), Err(ProtoError::LengthOverflow));
        let mut body = vec![PROTO_VERSION, tag::SEQ_TOKENS];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_response(&body), Err(ProtoError::LengthOverflow));
        let mut body = vec![PROTO_VERSION, opcode::GET_RYW];
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'k');
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&body), Err(ProtoError::LengthOverflow));
    }

    #[test]
    fn unknown_opcodes_and_trailing_bytes_rejected() {
        assert_eq!(
            decode_request(&[PROTO_VERSION, 0xEE]),
            Err(ProtoError::BadOpcode(0xEE))
        );
        assert_eq!(
            decode_response(&[PROTO_VERSION, 0xEE]),
            Err(ProtoError::BadTag(0xEE))
        );
        let mut body = encode_request_body(&Request::Stats { json: false });
        body.push(0);
        assert_eq!(decode_request(&body), Err(ProtoError::TrailingBytes));
        assert_eq!(decode_request(&[]), Err(ProtoError::Truncated));
    }

    #[test]
    fn version_mismatch_fails_loudly() {
        // A frame from a different protocol version must be rejected on
        // the first byte — never parsed as fields.
        let mut body = encode_request_body(&Request::Get { key: b"k".to_vec() });
        body[0] = PROTO_VERSION + 1;
        assert_eq!(
            decode_request(&body),
            Err(ProtoError::VersionMismatch(PROTO_VERSION + 1))
        );
        let mut body = encode_response_body(&Response::Ok);
        body[0] = 0;
        assert_eq!(decode_response(&body), Err(ProtoError::VersionMismatch(0)));
        // The error's display names both versions so the operator can
        // tell which node is stale.
        let msg = ProtoError::VersionMismatch(9).to_string();
        assert!(msg.contains('9') && msg.contains('1'), "{msg}");
    }

    #[test]
    fn frame_len_caps_at_max() {
        assert_eq!(frame_len(100u32.to_le_bytes()), Ok(100));
        assert_eq!(
            frame_len(u32::MAX.to_le_bytes()),
            Err(ProtoError::Oversized)
        );
    }
}
