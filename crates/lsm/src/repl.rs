//! Leader-side WAL shipping: a cursor-based tailer over the rotated and
//! active `NNNNNN.log` segments.
//!
//! The replication stream is the WAL itself, re-read as *logical*
//! batches: each record decodes to a sequence-stamped [`WriteBatch`],
//! and when key-value separation is on, every value is re-inlined —
//! inline tags stripped, pointers resolved against the value log — so
//! the stream never references leader-local segment files. The replica
//! re-runs its own separation (or none) on apply, which keeps the two
//! stores byte-comparable at the logical level while leaving each free
//! to lay out its value log independently.
//!
//! A cursor is `(segment, offset)`. Sealed segments (number below the
//! active WAL) are consumed to their end and the cursor hops to the next
//! existing segment; the active segment is tailed with
//! [`LogReader::new_at`], whose [`TailState`] distinguishes "end of the
//! durable prefix, poll again" from "record caught mid-append, re-read
//! from the same offset once more bytes land". Either way the cursor
//! never advances past a record that was not returned whole, so polling
//! replays nothing and fabricates nothing.
//!
//! Stale pointers are expected: value-log GC rewrites a segment's live
//! values through normal sequenced WAL appends *before* removing the
//! segment, so a tailer running behind GC can meet a pointer into a
//! retired segment. The shadowing rewrite is, by construction, already
//! ahead of the cursor in the stream — the op is skipped (and counted)
//! exactly like recovery treats a dangling-but-shadowed pointer.

use std::path::Path;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

use sstable::env::StorageEnv;

use crate::db::Db;
use crate::filename::{log_file_name, parse_file_name, FileType};
use crate::vlog::{self, VlogRuntime};
use crate::wal::LogReader;
use crate::write_batch::{BatchOp, WriteBatch};
use crate::{Error, Result};

/// Position in a leader's WAL stream: a segment file number and a byte
/// offset within it. Ordering is lexicographic, which matches stream
/// order because segment numbers increase monotonically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct WalCursor {
    /// WAL segment file number (`{segment:06}.log`).
    pub segment: u64,
    /// Byte offset of the next unread record within the segment.
    pub offset: u64,
}

/// One logical record lifted off the WAL: a sequence-stamped
/// [`WriteBatch`] encoding with every value re-inlined.
#[derive(Debug, Clone)]
pub struct ReplRecord {
    /// `WriteBatch` wire bytes (raw values, leader-stamped sequences).
    pub data: Vec<u8>,
    /// The last sequence number the leader stamped for this record's
    /// batch — acks and read-your-writes tokens are phrased in it. May
    /// exceed the rebuilt batch's own count when stale-pointer ops were
    /// skipped.
    pub last_seq: u64,
    /// Cursor immediately *after* this record: the position a replica
    /// that applied it resumes from (and acknowledges) — per-record, so
    /// a disconnect mid-chunk never replays or skips.
    pub resume: WalCursor,
}

/// Why a chunk read stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkEnd {
    /// The cursor reached the end of what is currently readable: poll
    /// again later from [`ReplChunk::cursor`].
    CaughtUp,
    /// The byte budget filled; more records are immediately available.
    More,
}

/// Result of one tailing pass.
#[derive(Debug)]
pub struct ReplChunk {
    /// Records read, in WAL (= sequence) order.
    pub records: Vec<ReplRecord>,
    /// Resume position for the next pass.
    pub cursor: WalCursor,
    /// Whether to poll or to read again immediately.
    pub end: ChunkEnd,
    /// Put ops dropped because their value-log pointer referenced a
    /// GC-retired segment (the rewrite is ahead in the stream).
    pub skipped_ops: u64,
}

/// Everything the tailer needs from the store, captured without holding
/// any DB lock: reads race appends and rotations by design, and the
/// [`LogReader`] tail semantics make that safe.
pub(crate) struct TailContext<'a> {
    pub env: &'a dyn StorageEnv,
    pub dir: &'a Path,
    pub vlog: Option<&'a Arc<VlogRuntime>>,
    /// The active WAL's file number at the time of the call; segments
    /// below it are sealed.
    pub active_segment: u64,
}

/// Outcome of re-inlining one raw WAL record.
enum Reinlined {
    Record {
        data: Vec<u8>,
        last_seq: u64,
        skipped: u64,
    },
    /// A pointer in the record runs past the value log's readable
    /// prefix — the append is still buffered or mid-write. The record
    /// must be retried from the same cursor after a flush.
    NotYetDurable,
}

/// Reads up to `max_bytes` of logical records starting at `cursor`.
pub(crate) fn read_chunk(
    ctx: &TailContext<'_>,
    mut cursor: WalCursor,
    max_bytes: usize,
) -> Result<ReplChunk> {
    let mut records = Vec::new();
    let mut bytes = 0usize;
    let mut skipped_ops = 0u64;
    loop {
        if cursor.segment > ctx.active_segment {
            return Err(Error::InvalidArgument(format!(
                "replication cursor at segment {:06} is ahead of the active WAL {:06}",
                cursor.segment, ctx.active_segment
            )));
        }
        let path = log_file_name(ctx.dir, cursor.segment);
        let file = match ctx.env.open_random_access(&path) {
            Ok(f) => f,
            Err(_) if cursor.segment == ctx.active_segment => {
                // The active segment's directory entry may not be
                // observable yet (creation racing this read): poll again.
                return Ok(ReplChunk {
                    records,
                    cursor,
                    end: ChunkEnd::CaughtUp,
                    skipped_ops,
                });
            }
            Err(_) => {
                // A sealed segment the cursor still needs is gone: the
                // retention floor only advances past segments every
                // registered replica acknowledged, so this cursor cannot
                // be served without silent data loss.
                return Err(Error::Corruption(format!(
                    "replication cursor points at missing WAL segment {:06}",
                    cursor.segment
                )));
            }
        };
        let mut reader = LogReader::new_at(file.as_ref(), cursor.offset)?;
        loop {
            let record_start = reader.resume_pos();
            let Some(raw) = reader.read_record() else {
                break;
            };
            match reinline(ctx.vlog, &raw)? {
                Reinlined::Record {
                    data,
                    last_seq,
                    skipped,
                } => {
                    skipped_ops += skipped;
                    bytes += data.len();
                    cursor.offset = reader.resume_pos();
                    records.push(ReplRecord {
                        data,
                        last_seq,
                        resume: cursor,
                    });
                    if bytes >= max_bytes {
                        return Ok(ReplChunk {
                            records,
                            cursor,
                            end: ChunkEnd::More,
                            skipped_ops,
                        });
                    }
                }
                Reinlined::NotYetDurable => {
                    // Stop *before* this record; the caller flushes the
                    // value log and polls again from the same offset.
                    cursor.offset = record_start;
                    return Ok(ReplChunk {
                        records,
                        cursor,
                        end: ChunkEnd::CaughtUp,
                        skipped_ops,
                    });
                }
            }
        }
        cursor.offset = reader.resume_pos();
        if cursor.segment == ctx.active_segment {
            // CleanEof: the durable prefix is consumed. Torn: a record is
            // mid-append. Both mean poll again at the cursor.
            return Ok(ReplChunk {
                records,
                cursor,
                end: ChunkEnd::CaughtUp,
                skipped_ops,
            });
        }
        if reader.corruption_detected() {
            return Err(Error::Corruption(format!(
                "WAL segment {:06} contains corrupt records",
                cursor.segment
            )));
        }
        // Sealed segment fully consumed (a torn tail here is pre-crash
        // garbage recovery would drop too): hop to the next existing
        // segment and keep filling the chunk.
        cursor = WalCursor {
            segment: next_segment(ctx, cursor.segment)?,
            offset: 0,
        };
    }
}

/// The smallest existing log segment after `after` (falling back to the
/// active segment, whose file may not be listed yet mid-rotation).
fn next_segment(ctx: &TailContext<'_>, after: u64) -> Result<u64> {
    let names = ctx.env.list_dir(ctx.dir)?;
    let mut best: Option<u64> = None;
    for name in names {
        if let Some(FileType::Log(n)) = parse_file_name(&name) {
            if n > after && n <= ctx.active_segment && best.is_none_or(|b| n < b) {
                best = Some(n);
            }
        }
    }
    Ok(best.unwrap_or(ctx.active_segment))
}

/// Decodes one raw WAL record and rewrites its values to the plain
/// (untagged, pointer-free) encoding the stream carries.
fn reinline(vlog: Option<&Arc<VlogRuntime>>, raw: &[u8]) -> Result<Reinlined> {
    let batch = WriteBatch::from_data(raw)?;
    let base = batch.sequence();
    let count = u64::from(batch.count());
    let last_seq = base + count.saturating_sub(1);
    let Some(v) = vlog else {
        // No separation: stored bytes are already raw values.
        return Ok(Reinlined::Record {
            data: raw.to_vec(),
            last_seq,
            skipped: 0,
        });
    };
    let mut out = WriteBatch::new();
    let mut skipped = 0u64;
    let mut not_durable = false;
    let mut bad: Option<Error> = None;
    batch.iterate(|op, _| {
        if not_durable || bad.is_some() {
            return;
        }
        match op {
            BatchOp::Put { key, value } => match vlog::decode_stored(value) {
                Ok(vlog::Stored::Inline(raw_value)) => out.put(key, raw_value),
                Ok(vlog::Stored::Pointer(ptr)) => match v.read_pointer(ptr) {
                    Ok(bytes) => out.put(key, &bytes),
                    Err(_) => match v.check_pointer(ptr) {
                        // The WAL record outran the value bytes (vlog
                        // append buffered or mid-write): retry after a
                        // flush rather than shipping a hole.
                        vlog::PointerCheck::Ok | vlog::PointerCheck::TornTail => {
                            not_durable = true;
                        }
                        // Stale pointer into a GC-retired segment: the
                        // shadowing rewrite is ahead in the stream.
                        vlog::PointerCheck::MissingSegment | vlog::PointerCheck::Corrupt => {
                            skipped += 1;
                        }
                    },
                },
                Err(e) => bad = Some(e),
            },
            BatchOp::Delete { key } => out.delete(key),
        }
    })?;
    if let Some(e) = bad {
        return Err(e);
    }
    if not_durable {
        return Ok(Reinlined::NotYetDurable);
    }
    out.set_sequence(base);
    Ok(Reinlined::Record {
        data: out.data().to_vec(),
        last_seq,
        skipped,
    })
}

/// Bytes of WAL between `from` and the end of every on-disk segment —
/// the leader's `repl.lag.bytes` gauge. Approximate by design: it reads
/// directory state without locks, so a concurrent append or rotation
/// shifts it by one record.
pub(crate) fn lag_bytes(env: &dyn StorageEnv, dir: &Path, from: WalCursor) -> u64 {
    let Ok(names) = env.list_dir(dir) else {
        return 0;
    };
    let mut total = 0u64;
    for name in names {
        let Some(FileType::Log(n)) = parse_file_name(&name) else {
            continue;
        };
        if n < from.segment {
            continue;
        }
        let Ok(file) = env.open_random_access(&dir.join(&name)) else {
            continue;
        };
        let Ok(len) = file.len() else { continue };
        if n == from.segment {
            total += len.saturating_sub(from.offset);
        } else {
            total += len;
        }
    }
    total
}

/// The store's side of replication: what a leader's feed loop and a
/// replica's apply loop call.
impl Db {
    /// The active WAL segment's file number (segments below it are
    /// sealed).
    pub fn current_log_number(&self) -> u64 {
        self.inner.state.lock().log_file_number // LOCK-ORDER: db.state 10
    }

    /// Pins WAL segments numbered `floor` and above against deletion so
    /// replication cursors inside them stay serveable. `u64::MAX`
    /// (the default) disables pinning. The leader keeps this at the
    /// slowest registered replica's acknowledged segment.
    pub fn set_wal_retention_floor(&self, floor: u64) {
        self.inner
            .wal_retain_floor
            .store(floor, AtomicOrdering::Release);
    }

    /// The earliest cursor this store can serve a replica from: the
    /// oldest WAL segment still on disk that recovery would replay.
    pub fn repl_start_cursor(&self) -> Result<WalCursor> {
        let (log_number, active) = {
            let state = self.inner.state.lock(); // LOCK-ORDER: db.state 10
            (state.versions.log_number, state.log_file_number)
        };
        let names = self.inner.options.env.list_dir(&self.inner.dir)?;
        let mut earliest = active;
        for name in names {
            if let Some(FileType::Log(n)) = parse_file_name(&name) {
                if n >= log_number && n < earliest {
                    earliest = n;
                }
            }
        }
        Ok(WalCursor {
            segment: earliest,
            offset: 0,
        })
    }

    /// Reads up to `max_bytes` of logical replication records starting
    /// at `cursor`. Lock-free with respect to the write path: the tailer
    /// races appends and rotations by design (see [`crate::repl`]).
    pub fn repl_read_chunk(&self, cursor: WalCursor, max_bytes: usize) -> Result<ReplChunk> {
        let active = self.current_log_number();
        let ctx = TailContext {
            env: self.inner.options.env.as_ref(),
            dir: &self.inner.dir,
            vlog: self.inner.vlog.as_ref(),
            active_segment: active,
        };
        read_chunk(&ctx, cursor, max_bytes)
    }

    /// Pushes buffered WAL (and, when dirty, value-log) bytes out far
    /// enough for the tailer to read them. The feed loop calls this when
    /// a chunk comes back `CaughtUp` so buffered commits don't stall the
    /// stream until the next sync.
    pub fn repl_flush(&self) -> Result<()> {
        let mut epoch = self.inner.epoch.lock(); // LOCK-ORDER: db.epoch 20
        if let Some(v) = &self.inner.vlog {
            // The tailer re-inlines pointers by reading segment files,
            // so the value bytes must be readable before the WAL record
            // that references them becomes so.
            v.sync_if_dirty()?;
        }
        epoch.wal.flush()
    }

    /// Approximate bytes of WAL the stream position `from` has not yet
    /// consumed — the `repl.lag.bytes` gauge.
    pub fn repl_lag_bytes(&self, from: WalCursor) -> u64 {
        lag_bytes(self.inner.options.env.as_ref(), &self.inner.dir, from)
    }

    /// Applies one record from a leader's replication stream — the
    /// replica half of WAL shipping. The record is committed exactly like
    /// a local group of one, except it keeps the leader's sequence stamps,
    /// so leader and replica assign identical sequences to identical ops
    /// and the replica's own recovery path replays the shipped history
    /// unchanged.
    ///
    /// `last_seq` is the stream-declared end of the record's sequence
    /// range; it may exceed the batch's own op count when the leader
    /// skipped GC-shadowed pointer ops while re-inlining. Records at or
    /// below the current visible sequence are duplicates from a cursor
    /// replay after reconnect and are skipped whole (record boundaries
    /// are preserved by the stream, so overlap is always all-or-nothing).
    ///
    /// Returns the new visible sequence.
    pub fn apply_replicated(&self, record: &[u8], last_seq: u64, sync: bool) -> Result<u64> {
        let inner = &self.inner;
        inner.ensure_room()?;
        let batch = WriteBatch::from_data(record)?;
        let base = batch.sequence();
        let count = u64::from(batch.count());
        let end_seq = last_seq.max(base + count.saturating_sub(1));
        if end_seq <= inner.visible() {
            return Ok(inner.visible());
        }
        // Re-run this store's own separation policy over the raw values;
        // the pin guards freshly appended segments against GC until the
        // apply is visible, mirroring `write_inner`.
        let (mut batch, _append_pin) = inner.separate(batch)?;
        let committed = {
            let mut epoch = inner.epoch.lock(); // LOCK-ORDER: db.epoch 20
            inner.writable()?;
            epoch.commit(
                inner,
                "wal commit",
                &mut batch,
                &mut [],
                sync,
                Some(end_seq),
            )
        };
        committed.inspect_err(|_| inner.wake_after_commit_error())
    }
}
