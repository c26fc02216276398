//! Blocking client for the wire protocol.
//!
//! One [`KvClient`] wraps one TCP connection. Responses arrive in
//! request order, so [`KvClient::pipeline`] can send a burst of frames
//! and then collect the matching responses — the server-side concurrency
//! model the load generator leans on.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{self, BatchOp, FrameBuf, ProtoError, Request, Response};

/// Client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent bytes that do not decode.
    Proto(ProtoError),
    /// The server reported a protocol violation on our side.
    ServerProto(String),
    /// The server answered, but with a storage error or a response kind
    /// the call did not expect.
    Rejected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::ServerProto(msg) => write!(f, "protocol (server-reported): {msg}"),
            ClientError::Rejected(msg) => write!(f, "rejected by server: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Client result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A connected client.
pub struct KvClient {
    stream: TcpStream,
    /// Outgoing frames of the request (or burst) being sent.
    buf: Vec<u8>,
    /// Incoming bytes; survives a read timeout, so a late reply is still
    /// framed correctly.
    inbuf: FrameBuf,
}

impl KvClient {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<KvClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(KvClient {
            stream,
            buf: Vec::new(),
            inbuf: FrameBuf::new(),
        })
    }

    /// Connects with bounded exponential backoff (10ms doubling to 1s
    /// between attempts) for up to `total` wall time — the tool-side
    /// answer to a server that is restarting or not yet listening.
    pub fn connect_with_backoff<A: ToSocketAddrs + Clone>(
        addr: A,
        total: Duration,
    ) -> Result<KvClient> {
        let deadline = std::time::Instant::now() + total;
        let mut pause = Duration::from_millis(10);
        loop {
            match KvClient::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if std::time::Instant::now() + pause >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(Duration::from_secs(1));
                }
            }
        }
    }

    /// Socket read timeout for every subsequent response wait.
    pub fn set_timeout(&self, dur: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(dur)?;
        Ok(())
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        self.call(|buf| proto::encode_request(buf, req))
    }

    /// Sends the one frame `encode` writes and waits for its response.
    fn call(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<Response> {
        self.buf.clear();
        encode(&mut self.buf);
        self.stream.write_all(&self.buf)?;
        self.read_response()
    }

    /// Sends all requests back-to-back, then reads the matching
    /// responses in order (request pipelining: one round trip's latency
    /// amortized over the burst).
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>> {
        self.buf.clear();
        for req in reqs {
            proto::encode_request(&mut self.buf, req);
        }
        self.stream.write_all(&self.buf)?;
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            out.push(self.read_response()?);
        }
        Ok(out)
    }

    fn read_response(&mut self) -> Result<Response> {
        loop {
            if let Some(body) = self.inbuf.next_frame()? {
                return Ok(proto::decode_response(body)?);
            }
            if self.inbuf.fill_from(&mut self.stream)? == 0 {
                return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
            }
        }
    }

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.call(|buf| proto::write_get(buf, key))? {
            Response::Value(v) => Ok(Some(v)),
            Response::NotFound => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Write; `sync` demands a durable ack.
    pub fn put(&mut self, key: &[u8], value: &[u8], sync: bool) -> Result<()> {
        match self.call(|buf| proto::write_put(buf, key, value, sync))? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Delete; `sync` demands a durable ack.
    pub fn delete(&mut self, key: &[u8], sync: bool) -> Result<()> {
        match self.call(|buf| proto::write_delete(buf, key, sync))? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Range scan over `[start, end)`, at most `limit` pairs. A reply the
    /// server truncated (pair limit or frame budget) is returned as-is;
    /// use [`KvClient::scan_partial`] to learn whether truncation
    /// happened and resume past the last returned key.
    pub fn scan(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: u32,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self.scan_partial(start, end, limit)?.0)
    }

    /// Range scan that also reports completeness: `(pairs, complete)`.
    /// `complete == false` means the server stopped early — at the pair
    /// `limit` or at its response-frame byte budget (large values can
    /// fill a frame in a handful of pairs) — and more data may exist.
    /// Resume with `start` just past the last returned key; an empty,
    /// incomplete reply means the very next pair alone exceeds the frame
    /// budget, so fetch that key with [`KvClient::get`] instead.
    #[allow(clippy::type_complexity)]
    pub fn scan_partial(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: u32,
    ) -> Result<(Vec<(Vec<u8>, Vec<u8>)>, bool)> {
        match self.call(|buf| proto::write_scan(buf, start, end, limit))? {
            Response::Pairs(pairs) => Ok((pairs, true)),
            Response::PairsPartial(pairs) => Ok((pairs, false)),
            other => Err(unexpected(other)),
        }
    }

    /// Multi-op write (atomic per shard).
    pub fn write_batch(&mut self, ops: Vec<BatchOp>, sync: bool) -> Result<()> {
        match self.request(&Request::WriteBatch { ops, sync })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Server-side metrics export (text or JSON).
    pub fn stats(&mut self, json: bool) -> Result<String> {
        match self.request(&Request::Stats { json })? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// Acknowledges replicated progress to the leader: replica `replica`
    /// durably applied shard `shard` through `(segment, offset)` /
    /// sequence `seq`.
    pub fn repl_ack(
        &mut self,
        replica: u64,
        shard: u32,
        segment: u64,
        offset: u64,
        seq: u64,
    ) -> Result<()> {
        match self.request(&Request::ReplAck {
            replica,
            shard,
            segment,
            offset,
            seq,
        })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Per-shard visible sequences: the read-your-writes session token a
    /// client takes from the leader and carries to replica reads.
    pub fn get_seq(&mut self) -> Result<Vec<u64>> {
        match self.request(&Request::GetSeq)? {
            Response::SeqTokens(seqs) => Ok(seqs),
            other => Err(unexpected(other)),
        }
    }

    /// Token-gated point lookup on a replica. `Ok(Err(applied))` means
    /// the replica is lagging behind the token: its applied sequence is
    /// `applied`; retry here or read from the leader.
    #[allow(clippy::type_complexity)]
    pub fn get_ryw(
        &mut self,
        key: &[u8],
        min_seqs: &[u64],
    ) -> Result<std::result::Result<Option<Vec<u8>>, u64>> {
        match self.request(&Request::GetRyw {
            key: key.to_vec(),
            min_seqs: min_seqs.to_vec(),
        })? {
            Response::Value(v) => Ok(Ok(Some(v))),
            Response::NotFound => Ok(Ok(None)),
            Response::Lagging { applied } => Ok(Err(applied)),
            other => Err(unexpected(other)),
        }
    }

    /// Promotes the connected replica to leader (idempotent).
    pub fn promote(&mut self) -> Result<()> {
        match self.request(&Request::Promote)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to shut down gracefully; `Ok` arrives only after
    /// the drain and replication flush completed.
    pub fn shutdown_server(&mut self) -> Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::ProtoErr(msg) => ClientError::ServerProto(msg),
        Response::Err(msg) => ClientError::Rejected(msg),
        other => ClientError::Rejected(format!("unexpected response {other:?}")),
    }
}
