//! WiscKey-style value log: key-value separation for large values.
//!
//! With [`crate::Options::value_log_threshold_bytes`] set, values at or
//! above the threshold are appended to a checksummed, append-only value
//! log (`NNNNNN.vlog` segments in the database directory) and the LSM
//! tree stores a fixed-size pointer instead. Compaction then moves
//! ~21-byte pointer entries rather than KiB values, which is exactly the
//! large-value regime where merge cost is value-length-bound (the
//! paper's optimization 2, applied at the storage layer).
//!
//! # Stored-value encoding
//!
//! When separation is enabled every value stored in the memtable, WAL
//! and SSTables carries a one-byte tag:
//!
//! * `0x00 | raw bytes` — inline value (below the threshold);
//! * `0x01 | segment u64 | offset u64 | len u32` — pointer to a value
//!   log record (21 bytes total, fixed size).
//!
//! The tag makes the two cases self-describing on the read path. A
//! database written with separation enabled must always be opened with
//! it enabled (and vice versa); the encoding of *stored* values differs.
//!
//! # Segment record format
//!
//! `crc32c(4, masked) | klen u32 | vlen u32 | key | value`
//!
//! The CRC covers `klen | vlen | key | value` and uses the same masked
//! crc32c as the WAL. Records are never updated in place; a segment is
//! sealed when the writer rotates past
//! [`crate::Options::value_log_segment_bytes`] and becomes a candidate
//! for garbage collection.
//!
//! # Durability ordering
//!
//! A pointer must never become durable before the bytes it points at:
//!
//! 1. value appended to the vlog and flushed to the OS (writer lock),
//!    so the bytes are *readable* before any pointer to them is — the
//!    real-file writer buffers up to 64 KiB in the process, and a `get`
//!    that followed a non-sync put would otherwise read past the end of
//!    the segment;
//! 2. on a sync commit, the vlog is synced **before** the WAL
//!    ([`crate::Db`]'s group leader does this under the epoch lock);
//! 3. at rotation the retiring segment is synced before it is sealed;
//! 4. GC syncs the rewritten copies (vlog, then WAL) before removing a
//!    dead segment.
//!
//! A power cut can therefore leave a WAL record whose pointer lands past
//! the durable end of a segment only if that write was never
//! acknowledged with `sync`; recovery drops such batches. A pointer into
//! a *missing* segment or at bytes that fail the CRC is real corruption
//! and is routed to [`crate::repair_db`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sstable::coding::decode_fixed32;
use sstable::crc32c;
use sstable::env::{RandomAccessFile, StorageEnv, WritableFile};

use crate::filename::{temp_file_name, vlog_file_name};
use crate::sync_shim::{self, lock as shim_lock};
use crate::write_batch::{BatchOp, WriteBatch};
use crate::{Error, Result};

/// Stored-value tag: inline bytes follow.
pub const TAG_INLINE: u8 = 0x00;
/// Stored-value tag: a [`VlogPointer`] follows.
pub const TAG_POINTER: u8 = 0x01;

/// Encoded pointer size including the tag byte.
pub const POINTER_LEN: usize = 1 + 8 + 8 + 4;

/// Per-record header: crc32c(4) + klen(4) + vlen(4).
const RECORD_HEADER: usize = 12;

/// A fixed-size reference to one value-log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlogPointer {
    /// Segment file number (`{segment:06}.vlog`).
    pub segment: u64,
    /// Byte offset of the record header inside the segment.
    pub offset: u64,
    /// Length of the value payload.
    pub len: u32,
}

impl VlogPointer {
    /// Encodes this pointer as a tagged stored value.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(POINTER_LEN);
        out.push(TAG_POINTER);
        out.extend_from_slice(&self.segment.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out
    }
}

/// A decoded stored value: either the bytes themselves or a pointer.
#[derive(Debug, PartialEq, Eq)]
pub enum Stored<'a> {
    /// Value bytes stored inline (tag stripped).
    Inline(&'a [u8]),
    /// Value lives in the log at this pointer.
    Pointer(VlogPointer),
}

/// Wraps raw value bytes in the tagged inline encoding.
pub fn encode_inline(value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + value.len());
    out.push(TAG_INLINE);
    out.extend_from_slice(value);
    out
}

/// Decodes a tagged stored value.
pub fn decode_stored(raw: &[u8]) -> Result<Stored<'_>> {
    match raw.first() {
        Some(&TAG_INLINE) => Ok(Stored::Inline(&raw[1..])),
        Some(&TAG_POINTER) => {
            if raw.len() != POINTER_LEN {
                return Err(Error::Corruption(format!(
                    "vlog pointer is {} bytes, want {POINTER_LEN}",
                    raw.len()
                )));
            }
            let mut seg = [0u8; 8];
            seg.copy_from_slice(&raw[1..9]);
            let mut off = [0u8; 8];
            off.copy_from_slice(&raw[9..17]);
            let mut len = [0u8; 4];
            len.copy_from_slice(&raw[17..21]);
            Ok(Stored::Pointer(VlogPointer {
                segment: u64::from_le_bytes(seg),
                offset: u64::from_le_bytes(off),
                len: u32::from_le_bytes(len),
            }))
        }
        _ => Err(Error::Corruption("unknown stored-value tag".into())),
    }
}

/// Outcome of validating a pointer against the on-disk segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerCheck {
    /// Record present and checksummed.
    Ok,
    /// Record lies (partly) past the durable end of its segment: the
    /// expected shape of an unacknowledged write after a power cut.
    TornTail,
    /// The segment file does not exist.
    MissingSegment,
    /// Bytes are present but fail the CRC or frame structure.
    Corrupt,
}

/// One decoded value-log record.
#[derive(Debug, Clone)]
pub struct VlogRecord {
    /// User key the record was written under (used by GC liveness).
    pub key: Vec<u8>,
    /// Value payload.
    pub value: Vec<u8>,
    /// Pointer to this record.
    pub ptr: VlogPointer,
}

impl VlogRecord {
    /// On-disk footprint of this record (header + key + value).
    pub fn encoded_len(&self) -> u64 {
        (RECORD_HEADER + self.key.len() + self.value.len()) as u64
    }
}

/// Encodes one record into `out`, returning the value's pointer given
/// the record's start `offset` in `segment`.
fn encode_record(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    let mut body = Vec::with_capacity(8 + key.len() + value.len());
    body.extend_from_slice(&(key.len() as u32).to_le_bytes());
    body.extend_from_slice(&(value.len() as u32).to_le_bytes());
    body.extend_from_slice(key);
    body.extend_from_slice(value);
    let crc = crc32c::mask(crc32c::value(&body));
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&body);
}

/// Parses the record at `data[offset..]`. Returns `Ok(None)` when the
/// bytes end before the record does (torn tail), `Err` on CRC mismatch.
fn parse_record(data: &[u8], offset: usize) -> Result<Option<VlogRecord>> {
    if offset + RECORD_HEADER > data.len() {
        return Ok(None);
    }
    let stored_crc = crc32c::unmask(decode_fixed32(&data[offset..]));
    let klen = decode_fixed32(&data[offset + 4..]) as usize;
    let vlen = decode_fixed32(&data[offset + 8..]) as usize;
    let body_end = offset
        .checked_add(RECORD_HEADER)
        .and_then(|s| s.checked_add(klen))
        .and_then(|s| s.checked_add(vlen));
    let Some(body_end) = body_end else {
        return Err(Error::Corruption("vlog record length overflow".into()));
    };
    if body_end > data.len() {
        return Ok(None);
    }
    let body = &data[offset + 4..body_end];
    if crc32c::value(body) != stored_crc {
        return Err(Error::Corruption(format!(
            "vlog record at offset {offset} fails checksum"
        )));
    }
    let key = body[8..8 + klen].to_vec();
    let value = body[8 + klen..].to_vec();
    Ok(Some(VlogRecord {
        key,
        value,
        ptr: VlogPointer {
            segment: 0,
            offset: offset as u64,
            len: vlen as u32,
        },
    }))
}

/// Appender for the active segment.
struct VlogWriter {
    file: Box<dyn WritableFile>,
    segment: u64,
    offset: u64,
    scratch: Vec<u8>,
}

impl VlogWriter {
    fn append(&mut self, key: &[u8], value: &[u8]) -> Result<VlogPointer> {
        self.scratch.clear();
        encode_record(&mut self.scratch, key, value);
        let ptr = VlogPointer {
            segment: self.segment,
            offset: self.offset,
            len: value.len() as u32,
        };
        self.file.append(&self.scratch)?;
        self.offset += self.scratch.len() as u64;
        Ok(ptr)
    }
}

/// Open-segment handle cache for the read path (a small LRU: handles
/// are cheap to reopen, so eviction only bounds descriptor usage).
struct VlogReaders {
    env: Arc<dyn StorageEnv>,
    dir: PathBuf,
    capacity: usize,
    inner: sync_shim::Mutex<ReadersInner>,
}

#[derive(Default)]
struct ReadersInner {
    handles: HashMap<u64, Arc<dyn RandomAccessFile>>,
    /// LRU order, most recent last.
    order: Vec<u64>,
}

impl VlogReaders {
    fn get(&self, segment: u64) -> Result<Arc<dyn RandomAccessFile>> {
        {
            let mut inner = shim_lock(&self.inner); // LOCK-ORDER: db.vlog.readers 65
            if let Some(h) = inner.handles.get(&segment).cloned() {
                inner.order.retain(|&s| s != segment);
                inner.order.push(segment);
                return Ok(h);
            }
        }
        // Open outside the lock; a racing open of the same segment just
        // wastes one handle.
        let path = vlog_file_name(&self.dir, segment);
        let file: Arc<dyn RandomAccessFile> = self
            .env
            .open_random_access(&path)
            .map_err(|e| {
                Error::Corruption(format!(
                    "vlog segment {segment:06} missing or unreadable: {e}"
                ))
            })?
            .into();
        let mut inner = shim_lock(&self.inner); // LOCK-ORDER: db.vlog.readers 65
        inner.handles.insert(segment, Arc::clone(&file));
        inner.order.retain(|&s| s != segment);
        inner.order.push(segment);
        while inner.order.len() > self.capacity {
            let evict = inner.order.remove(0);
            inner.handles.remove(&evict);
        }
        Ok(file)
    }

    fn evict(&self, segment: u64) {
        let mut inner = shim_lock(&self.inner); // LOCK-ORDER: db.vlog.readers 65
        inner.handles.remove(&segment);
        inner.order.retain(|&s| s != segment);
    }
}

/// Counters and gauges for the `lsm.vlog.*` metric family.
struct VlogMetrics {
    appends: Arc<obs::Counter>,
    appended_bytes: Arc<obs::Counter>,
    resolves: Arc<obs::Counter>,
    gc_rewrites: Arc<obs::Counter>,
    gc_rewritten_bytes: Arc<obs::Counter>,
    gc_segments_retired: Arc<obs::Counter>,
    dead_bytes: Arc<obs::Gauge>,
    segments: Arc<obs::Gauge>,
}

impl VlogMetrics {
    fn new(registry: &obs::Registry) -> Self {
        VlogMetrics {
            appends: registry.counter("lsm.vlog.appends"),
            appended_bytes: registry.counter("lsm.vlog.appended-bytes"),
            resolves: registry.counter("lsm.vlog.resolves"),
            gc_rewrites: registry.counter("lsm.vlog.gc.rewrites"),
            gc_rewritten_bytes: registry.counter("lsm.vlog.gc.rewritten-bytes"),
            gc_segments_retired: registry.counter("lsm.vlog.gc.segments-retired"),
            dead_bytes: registry.gauge("lsm.vlog.dead-bytes"),
            segments: registry.gauge("lsm.vlog.segments"),
        }
    }
}

/// Everything the `Db` needs to run key-value separation: the active
/// segment writer, the reader handle cache, and the staged next segment
/// number for rotations.
pub(crate) struct VlogRuntime {
    /// Separation threshold (values `>=` go to the log).
    pub threshold: usize,
    /// Rotation size for segments.
    segment_max: u64,
    env: Arc<dyn StorageEnv>,
    dir: PathBuf,
    writer: sync_shim::Mutex<VlogWriter>,
    /// Pre-allocated file number for the next rotation (0 = none staged;
    /// file numbers start at 2, so 0 is free as a sentinel). Staged
    /// outside the writer lock because allocating a number takes the
    /// state lock, which ranks *below* the writer lock.
    staged_segment: sync_shim::atomic::AtomicU64,
    /// Set after any append; cleared by [`Self::sync_if_dirty`].
    dirty: sync_shim::atomic::AtomicBool,
    /// Segment → count of records appended here whose WAL commit is not
    /// yet visible. A record in this window is invisible to GC's
    /// liveness check (`get_stored` cannot see an unapplied batch), so
    /// GC would judge it dead and retire the segment out from under the
    /// in-flight write — the committed pointer would then reference a
    /// deleted file. [`Self::is_pinned`] lets GC defer such segments;
    /// pins only drain once a segment is sealed (appends go to the
    /// active segment only), so deferral terminates.
    pending: sync_shim::Mutex<HashMap<u64, usize>>,
    /// Segments on disk including the active one (mirrored into the
    /// `lsm.vlog.segments` gauge).
    segment_count: sync_shim::atomic::AtomicU64,
    readers: VlogReaders,
    metrics: VlogMetrics,
}

/// RAII pin over the segments holding a write's appended values (see
/// [`VlogRuntime::pending`]). Held from the append until the write's WAL
/// commit is visible; on a failed write the drop still unpins — nothing
/// references the orphaned append, so collecting it is harmless.
pub(crate) struct AppendPin {
    runtime: Arc<VlogRuntime>,
    segments: Vec<u64>,
}

impl Drop for AppendPin {
    fn drop(&mut self) {
        let mut pending = shim_lock(&self.runtime.pending); // LOCK-ORDER: db.vlog.pending 26
        for &s in &self.segments {
            if let Some(n) = pending.get_mut(&s) {
                *n -= 1;
                if *n == 0 {
                    pending.remove(&s);
                }
            }
        }
    }
}

impl VlogRuntime {
    /// Recovers the on-disk segments and opens a *fresh* active segment
    /// (numbered `active_segment`): old segments are sealed read-only and
    /// become GC candidates; the newest one gets its torn tail truncated.
    /// The caller must have bumped the version set's file-number counter
    /// past every existing segment before allocating `active_segment`.
    pub(crate) fn recover(
        env: Arc<dyn StorageEnv>,
        dir: &Path,
        threshold: usize,
        segment_max: u64,
        active_segment: u64,
        registry: &obs::Registry,
    ) -> Result<VlogRuntime> {
        let mut segments = list_segments(env.as_ref(), dir)?;
        segments.sort_unstable();
        if let Some(&newest) = segments.last() {
            truncate_torn_tail(env.as_ref(), dir, newest)?;
        }

        let path = vlog_file_name(dir, active_segment);
        let file = env.create_writable(&path)?;
        // The new segment's directory entry must be durable before any
        // synced pointer references it.
        env.sync_dir(dir)?;

        let metrics = VlogMetrics::new(registry);
        metrics.segments.set(segments.len() as u64 + 1);
        Ok(VlogRuntime {
            threshold,
            segment_max,
            env: Arc::clone(&env),
            dir: dir.to_path_buf(),
            writer: sync_shim::Mutex::new(VlogWriter {
                file,
                segment: active_segment,
                offset: 0,
                scratch: Vec::new(),
            }),
            staged_segment: sync_shim::atomic::AtomicU64::new(0),
            dirty: sync_shim::atomic::AtomicBool::new(false),
            pending: sync_shim::Mutex::new(HashMap::new()),
            segment_count: sync_shim::atomic::AtomicU64::new(segments.len() as u64 + 1),
            readers: VlogReaders {
                env,
                dir: dir.to_path_buf(),
                capacity: 64,
                inner: sync_shim::Mutex::new(ReadersInner::default()),
            },
            metrics,
        })
    }

    /// Stages `number` as the next rotation's segment if none is staged.
    /// Returns `false` when a staged number was already present (the
    /// caller's freshly allocated number is wasted — a harmless gap).
    pub(crate) fn stage_segment(&self, number: u64) -> bool {
        use sync_shim::atomic::Ordering;
        self.staged_segment
            .compare_exchange(0, number, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// True when a rotation consumed the staged number and a new one
    /// should be allocated.
    pub(crate) fn needs_stage(&self) -> bool {
        self.staged_segment
            .load(sync_shim::atomic::Ordering::Acquire)
            == 0
    }

    /// Rewrites `batch` for storage: values at or above the threshold go
    /// to the value log and are replaced by pointers; smaller values get
    /// the inline tag. Deletions pass through. The returned batch is the
    /// one to WAL-append and apply; the pin (present iff anything was
    /// appended) must be held until the batch's WAL commit is visible —
    /// dropping it earlier reopens the retire-under-in-flight-write race
    /// described on [`VlogRuntime::pending`].
    pub(crate) fn separate_batch(
        self: &Arc<Self>,
        batch: &WriteBatch,
    ) -> Result<(WriteBatch, Option<AppendPin>)> {
        // First pass: anything to separate? (Common case for small
        // values: tag-only rewrite, no writer lock.)
        let mut any_large = false;
        batch.iterate(|op, _| {
            if let BatchOp::Put { value, .. } = op {
                any_large |= value.len() >= self.threshold;
            }
        })?;

        let mut out = WriteBatch::new();
        if !any_large {
            batch.iterate(|op, _| match op {
                BatchOp::Put { key, value } => out.put(key, &encode_inline(value)),
                BatchOp::Delete { key } => out.delete(key),
            })?;
            return Ok((out, None));
        }

        let mut append_err: Option<Error> = None;
        let mut pinned: Vec<u64> = Vec::new();
        {
            let mut w = shim_lock(&self.writer); // LOCK-ORDER: db.vlog.writer 25
            let iter_result = batch.iterate(|op, _| {
                if append_err.is_some() {
                    return;
                }
                match op {
                    BatchOp::Put { key, value } if value.len() >= self.threshold => {
                        if let Err(e) = self.rotate_if_full(&mut w) {
                            append_err = Some(e);
                            return;
                        }
                        match w.append(key, value) {
                            Ok(ptr) => {
                                self.metrics.appends.inc();
                                self.metrics.appended_bytes.add(value.len() as u64);
                                if pinned.last() != Some(&ptr.segment) {
                                    pinned.push(ptr.segment);
                                }
                                out.put(key, &ptr.encode());
                            }
                            Err(e) => append_err = Some(e),
                        }
                    }
                    BatchOp::Put { key, value } => out.put(key, &encode_inline(value)),
                    BatchOp::Delete { key } => out.delete(key),
                }
            });
            // Pin under the writer lock: rotation (which seals the
            // segment and makes it a GC candidate) needs that same lock,
            // so a sealed segment's pins are always visible to GC.
            let pin = self.pin_segments(&pinned);
            iter_result?;
            self.dirty.store(true, sync_shim::atomic::Ordering::Release);
            match append_err {
                // A failed vlog append leaves the active segment's tail
                // in an unknown state, but nothing references it: the
                // batch is rejected before its WAL append, and later
                // appends go after the partial record only if the file's
                // offset advanced — which it did not (offset moves only
                // on success).
                Some(e) => Err(e),
                // The pointers go to the memtable next, where any reader
                // can follow them: the bytes must leave the writer's
                // buffer first. A flush, not a sync — durability is the
                // commit step's.
                None => {
                    w.file.flush()?;
                    Ok((out, pin))
                }
            }
        }
    }

    /// Appends one value for a GC rewrite, returning the new pointer and
    /// a pin the caller must hold until the rewrite's install (or its
    /// discard) is decided and visible.
    pub(crate) fn append_for_gc(
        self: &Arc<Self>,
        key: &[u8],
        value: &[u8],
    ) -> Result<(VlogPointer, AppendPin)> {
        let mut w = shim_lock(&self.writer); // LOCK-ORDER: db.vlog.writer 25
        self.rotate_if_full(&mut w)?;
        let ptr = w.append(key, value)?;
        // Readable before the install publishes the pointer; the pass
        // syncs only once, at its end.
        w.file.flush()?;
        let pin = self
            .pin_segments(&[ptr.segment])
            // PANIC-OK: None only for an empty slice; one segment given.
            .expect("one segment always pins");
        self.dirty.store(true, sync_shim::atomic::Ordering::Release);
        self.metrics.gc_rewrites.inc();
        self.metrics.gc_rewritten_bytes.add(value.len() as u64);
        Ok((ptr, pin))
    }

    /// Increments the in-flight append count of each segment (deduped by
    /// the caller) and returns the guard that decrements them.
    // LOCK-HELD: db.vlog.writer -- pins must be taken under the same
    // lock rotation uses, or GC could observe a sealed segment unpinned.
    fn pin_segments(self: &Arc<Self>, segments: &[u64]) -> Option<AppendPin> {
        if segments.is_empty() {
            return None;
        }
        {
            let mut pending = shim_lock(&self.pending); // LOCK-ORDER: db.vlog.pending 26
            for &s in segments {
                *pending.entry(s).or_insert(0) += 1;
            }
        }
        Some(AppendPin {
            runtime: Arc::clone(self),
            segments: segments.to_vec(),
        })
    }

    /// True while some append into `segment` has not become visible yet.
    /// Only meaningful for sealed segments (the active one is never a GC
    /// candidate): sealed segments take no new appends, so once this
    /// reads `false` it stays `false`.
    pub(crate) fn is_pinned(&self, segment: u64) -> bool {
        shim_lock(&self.pending).contains_key(&segment) // LOCK-ORDER: db.vlog.pending 26
    }

    /// Rotates the active segment when it passed the size cap and a next
    /// number is staged. Deferring rotation (nothing staged) just lets
    /// the segment grow a little past the cap.
    // LOCK-HELD: db.vlog.writer via w
    fn rotate_if_full(&self, w: &mut VlogWriter) -> Result<()> {
        use sync_shim::atomic::Ordering;
        if w.offset < self.segment_max {
            return Ok(());
        }
        let next = self.staged_segment.swap(0, Ordering::AcqRel);
        if next == 0 {
            return Ok(());
        }
        // Seal the retiring segment: sync it so the sealed-segments-are-
        // fully-durable invariant holds (recovery only tail-truncates the
        // newest segment).
        w.file.sync()?;
        let path = vlog_file_name(&self.dir, next);
        let file = self.env.create_writable(&path)?;
        self.env.sync_dir(&self.dir)?;
        w.file = file;
        w.segment = next;
        w.offset = 0;
        let count = self.segment_count.fetch_add(1, Ordering::AcqRel) + 1;
        self.metrics.segments.set(count);
        Ok(())
    }

    /// Syncs the active segment if any append happened since the last
    /// sync. Called by the group-commit leader *before* the WAL sync,
    /// and by value-log GC before retiring a segment.
    ///
    /// The dirty check happens *under the writer lock*: appends set the
    /// flag while holding it, and a failed sync restores it before
    /// releasing it. Checking the flag outside the lock would let this
    /// return "clean" while another caller's sync is still in flight —
    /// or has just failed — and the caller would then sync the WAL (or
    /// retire a segment) with value bytes that are not durable.
    pub(crate) fn sync_if_dirty(&self) -> Result<()> {
        use sync_shim::atomic::Ordering;
        let mut w = shim_lock(&self.writer); // LOCK-ORDER: db.vlog.writer 25
        if !self.dirty.swap(false, Ordering::AcqRel) {
            return Ok(());
        }
        w.file.sync().inspect_err(|_| {
            // Sync failed: appends are still unsynced.
            self.dirty.store(true, Ordering::Release);
        })?;
        Ok(())
    }

    /// The segment currently accepting appends.
    pub(crate) fn active_segment(&self) -> u64 {
        shim_lock(&self.writer).segment // LOCK-ORDER: db.vlog.writer 25
    }

    /// Resolves a tagged stored value to the user-visible bytes.
    pub(crate) fn resolve(&self, stored: &[u8]) -> Result<Vec<u8>> {
        match decode_stored(stored)? {
            Stored::Inline(v) => Ok(v.to_vec()),
            Stored::Pointer(ptr) => self.read_pointer(ptr),
        }
    }

    /// Reads and verifies the record behind `ptr`, returning the value.
    pub(crate) fn read_pointer(&self, ptr: VlogPointer) -> Result<Vec<u8>> {
        self.metrics.resolves.inc();
        let file = self.readers.get(ptr.segment)?;
        let total = RECORD_HEADER as u64 + record_body_upper_bound(ptr.len);
        let mut buf = vec![0u8; total as usize];
        let n = file.read_at(ptr.offset, &mut buf).map_err(Error::from)?;
        buf.truncate(n);
        match parse_record(&buf, 0)? {
            Some(rec) if rec.ptr.len == ptr.len => Ok(rec.value),
            Some(_) => Err(Error::Corruption(format!(
                "vlog record at {}:{} length mismatch",
                ptr.segment, ptr.offset
            ))),
            None => Err(Error::Corruption(format!(
                "vlog pointer {}:{} past end of segment",
                ptr.segment, ptr.offset
            ))),
        }
    }

    /// Classifies `ptr` without surfacing an error (WAL replay and
    /// repair use this to tell an unacknowledged torn-tail write from
    /// real corruption).
    pub(crate) fn check_pointer(&self, ptr: VlogPointer) -> PointerCheck {
        check_pointer_in(self.env.as_ref(), &self.dir, ptr)
    }

    /// Reads every record of `segment` (a sealed segment: fully durable,
    /// so a torn tail here is corruption, not a crash artifact).
    pub(crate) fn read_segment(&self, segment: u64) -> Result<(Vec<VlogRecord>, u64)> {
        let path = vlog_file_name(&self.dir, segment);
        let data = self.env.open_random_access(&path)?.read_all()?;
        let mut records = Vec::new();
        let mut offset = 0usize;
        while offset < data.len() {
            match parse_record(&data, offset)? {
                Some(mut rec) => {
                    rec.ptr.segment = segment;
                    offset += RECORD_HEADER + rec.key.len() + rec.value.len();
                    records.push(rec);
                }
                None => {
                    return Err(Error::Corruption(format!(
                        "sealed vlog segment {segment:06} ends mid-record"
                    )))
                }
            }
        }
        Ok((records, data.len() as u64))
    }

    /// Sealed (non-active) segments on disk, oldest first.
    pub(crate) fn sealed_segments(&self) -> Result<Vec<u64>> {
        // Listed *before* the active segment is sampled: a rotation in
        // between then only adds a file the list does not have. The other
        // way round, the list could hold a segment created after the
        // sample — the live one — and GC would collect and remove it.
        let mut segs = list_segments(self.env.as_ref(), &self.dir)?;
        let active = self.active_segment();
        segs.retain(|&s| s != active);
        segs.sort_unstable();
        Ok(segs)
    }

    /// Removes a fully-collected segment and drops its reader handle.
    pub(crate) fn remove_segment(&self, segment: u64) -> Result<()> {
        self.env.remove_file(&vlog_file_name(&self.dir, segment))?;
        self.readers.evict(segment);
        self.metrics.gc_segments_retired.inc();
        use sync_shim::atomic::Ordering;
        let count = self
            .segment_count
            .fetch_sub(1, Ordering::AcqRel)
            .saturating_sub(1);
        self.metrics.segments.set(count);
        Ok(())
    }

    /// Publishes the dead-bytes estimate after a GC pass.
    pub(crate) fn publish_gc_gauges(&self, dead_bytes: u64) {
        self.metrics.dead_bytes.set(dead_bytes);
    }
}

/// Upper bound on a record's body size given its value length (the key
/// length is unknown until the header is read; reads fetch
/// header + value + a key allowance and re-read exactly when a key is
/// longer).
fn record_body_upper_bound(value_len: u32) -> u64 {
    // Keys in this store are small (the paper's workloads use 16-byte
    // keys); 4 KiB covers any realistic key without a second read.
    value_len as u64 + 4096
}

/// Lists the `.vlog` segment numbers in `dir`.
pub(crate) fn list_segments(env: &dyn StorageEnv, dir: &Path) -> Result<Vec<u64>> {
    let mut out = Vec::new();
    for name in env.list_dir(dir)? {
        if let Some(crate::filename::FileType::ValueLog(n)) =
            crate::filename::parse_file_name(&name)
        {
            out.push(n);
        }
    }
    Ok(out)
}

/// Classifies `ptr` against the segment files in `dir`.
pub(crate) fn check_pointer_in(env: &dyn StorageEnv, dir: &Path, ptr: VlogPointer) -> PointerCheck {
    let path = vlog_file_name(dir, ptr.segment);
    if !env.file_exists(&path) {
        return PointerCheck::MissingSegment;
    }
    let Ok(file) = env.open_random_access(&path) else {
        return PointerCheck::MissingSegment;
    };
    let Ok(len) = file.len() else {
        return PointerCheck::Corrupt;
    };
    if ptr.offset + RECORD_HEADER as u64 > len {
        return PointerCheck::TornTail;
    }
    let want = RECORD_HEADER as u64 + record_body_upper_bound(ptr.len);
    let to_read = want.min(len.saturating_sub(ptr.offset)) as usize;
    let mut buf = vec![0u8; to_read];
    let Ok(n) = file.read_at(ptr.offset, &mut buf) else {
        return PointerCheck::Corrupt;
    };
    buf.truncate(n);
    match parse_record(&buf, 0) {
        Ok(Some(rec)) if rec.ptr.len == ptr.len => PointerCheck::Ok,
        Ok(Some(_)) => PointerCheck::Corrupt,
        // Record extends past what we read: either a key longer than the
        // allowance (re-read the whole tail) or a genuinely torn tail.
        Ok(None) => {
            if ptr.offset + RECORD_HEADER as u64 > len {
                return PointerCheck::TornTail;
            }
            let mut full = vec![0u8; len.saturating_sub(ptr.offset) as usize];
            let Ok(n) = file.read_at(ptr.offset, &mut full) else {
                return PointerCheck::Corrupt;
            };
            full.truncate(n);
            match parse_record(&full, 0) {
                Ok(Some(rec)) if rec.ptr.len == ptr.len => PointerCheck::Ok,
                Ok(Some(_)) => PointerCheck::Corrupt,
                Ok(None) => PointerCheck::TornTail,
                Err(_) => PointerCheck::Corrupt,
            }
        }
        Err(_) => PointerCheck::Corrupt,
    }
}

/// Truncates the torn tail of `segment`: scans the valid record prefix
/// and, when trailing bytes remain, rewrites the prefix through a temp
/// file and renames it into place. A power cut mid-truncation leaves
/// either the original file or the fully-synced replacement.
pub(crate) fn truncate_torn_tail(env: &dyn StorageEnv, dir: &Path, segment: u64) -> Result<u64> {
    let path = vlog_file_name(dir, segment);
    let data = env.open_random_access(&path)?.read_all()?;
    let mut valid = 0usize;
    while valid < data.len() {
        match parse_record(&data, valid) {
            Ok(Some(rec)) => valid += RECORD_HEADER + rec.key.len() + rec.value.len(),
            // A CRC failure in the prefix is treated like a torn tail
            // too: under the power-cut model the durable bytes are a
            // prefix, so everything from the first bad record on is
            // unacknowledged garbage.
            Ok(None) | Err(_) => break,
        }
    }
    if valid == data.len() {
        return Ok(valid as u64);
    }
    let tmp = temp_file_name(dir, segment);
    let mut f = env.create_writable(&tmp)?;
    f.append(&data[..valid])?;
    // The replacement must be durable before the rename publishes it;
    // otherwise a crash could leave a truncated *and* torn segment.
    f.sync()?;
    drop(f);
    env.rename(&tmp, &path)?;
    env.sync_dir(dir)?;
    Ok(valid as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::env::MemEnv;

    fn runtime(env: &Arc<MemEnv>) -> Arc<VlogRuntime> {
        let (obs, _clock) = obs::Obs::manual();
        env.create_dir_all(Path::new("/v")).unwrap();
        Arc::new(
            VlogRuntime::recover(
                Arc::clone(env) as Arc<dyn StorageEnv>,
                Path::new("/v"),
                64,
                1 << 20,
                2,
                &obs.registry,
            )
            .unwrap(),
        )
    }

    #[test]
    fn pointer_roundtrip() {
        let ptr = VlogPointer {
            segment: 7,
            offset: 12345,
            len: 999,
        };
        let enc = ptr.encode();
        assert_eq!(enc.len(), POINTER_LEN);
        assert_eq!(decode_stored(&enc).unwrap(), Stored::Pointer(ptr));
        let inline = encode_inline(b"hello");
        assert_eq!(decode_stored(&inline).unwrap(), Stored::Inline(b"hello"));
        assert!(decode_stored(&[9u8, 0, 0]).is_err());
        assert!(decode_stored(&[TAG_POINTER, 1, 2]).is_err());
    }

    #[test]
    fn append_and_read_back() {
        let env = Arc::new(MemEnv::new());
        let rt = runtime(&env);
        let big = vec![0xabu8; 200];
        let mut batch = WriteBatch::new();
        batch.put(b"k1", &big);
        batch.put(b"small", b"x");
        batch.delete(b"gone");
        let (rewritten, _pin) = rt.separate_batch(&batch).unwrap();
        let mut stored: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        rewritten
            .iterate(|op, _| match op {
                BatchOp::Put { key, value } => stored.push((key.to_vec(), Some(value.to_vec()))),
                BatchOp::Delete { key } => stored.push((key.to_vec(), None)),
            })
            .unwrap();
        assert_eq!(stored.len(), 3);
        // Large value became a pointer that resolves back.
        let ptr_bytes = stored[0].1.as_ref().unwrap();
        assert_eq!(ptr_bytes.len(), POINTER_LEN);
        assert_eq!(rt.resolve(ptr_bytes).unwrap(), big);
        // Small value stays inline.
        assert_eq!(rt.resolve(stored[1].1.as_ref().unwrap()).unwrap(), b"x");
    }

    #[test]
    fn torn_tail_is_truncated_and_classified() {
        let env = Arc::new(MemEnv::new());
        let rt = runtime(&env);
        let mut batch = WriteBatch::new();
        batch.put(b"key", &[1u8; 100]);
        let (rewritten, _pin) = rt.separate_batch(&batch).unwrap();
        let mut ptr = None;
        rewritten
            .iterate(|op, _| {
                if let BatchOp::Put { value, .. } = op {
                    if let Ok(Stored::Pointer(p)) = decode_stored(value) {
                        ptr = Some(p);
                    }
                }
            })
            .unwrap();
        let ptr = ptr.unwrap();
        rt.sync_if_dirty().unwrap();
        assert_eq!(rt.check_pointer(ptr), PointerCheck::Ok);

        // Chop the record in half: the pointer now reads as torn.
        let path = vlog_file_name(Path::new("/v"), ptr.segment);
        let data = env.open_random_access(&path).unwrap().read_all().unwrap();
        let mut w = env.create_writable(&path).unwrap();
        w.append(&data[..data.len() / 2]).unwrap();
        drop(w);
        assert_eq!(rt.check_pointer(ptr), PointerCheck::TornTail);

        // Truncation removes the partial record entirely.
        let len = truncate_torn_tail(env.as_ref(), Path::new("/v"), ptr.segment).unwrap();
        assert_eq!(len, 0);
        assert_eq!(rt.check_pointer(ptr), PointerCheck::TornTail);
    }

    #[test]
    fn corrupt_record_is_not_torn() {
        let env = Arc::new(MemEnv::new());
        let rt = runtime(&env);
        let mut batch = WriteBatch::new();
        batch.put(b"key", &[2u8; 100]);
        let (rewritten, _pin) = rt.separate_batch(&batch).unwrap();
        let mut ptr = None;
        rewritten
            .iterate(|op, _| {
                if let BatchOp::Put { value, .. } = op {
                    if let Ok(Stored::Pointer(p)) = decode_stored(value) {
                        ptr = Some(p);
                    }
                }
            })
            .unwrap();
        let ptr = ptr.unwrap();
        rt.sync_if_dirty().unwrap();
        // Flip a payload byte in place (same length): CRC must fail.
        let path = vlog_file_name(Path::new("/v"), ptr.segment);
        let mut data = env.open_random_access(&path).unwrap().read_all().unwrap();
        let idx = data.len() - 3;
        data[idx] ^= 0xff;
        let mut w = env.create_writable(&path).unwrap();
        w.append(&data).unwrap();
        drop(w);
        assert_eq!(rt.check_pointer(ptr), PointerCheck::Corrupt);
        assert!(rt.read_pointer(ptr).is_err());
    }

    #[test]
    fn missing_segment_is_classified() {
        let env = Arc::new(MemEnv::new());
        let rt = runtime(&env);
        let ptr = VlogPointer {
            segment: 999,
            offset: 0,
            len: 10,
        };
        assert_eq!(rt.check_pointer(ptr), PointerCheck::MissingSegment);
        assert!(rt.read_pointer(ptr).is_err());
    }

    /// A `MemEnv` whose directory listing first runs a hook, once: what
    /// the hook does lands between a caller's look at the directory and
    /// whatever it looked at before.
    struct HookedListing {
        inner: MemEnv,
        before_list: sync_shim::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl StorageEnv for HookedListing {
        fn open_random_access(
            &self,
            path: &Path,
        ) -> sstable::Result<Box<dyn sstable::env::RandomAccessFile>> {
            self.inner.open_random_access(path)
        }
        fn create_writable(
            &self,
            path: &Path,
        ) -> sstable::Result<Box<dyn sstable::env::WritableFile>> {
            self.inner.create_writable(path)
        }
        fn remove_file(&self, path: &Path) -> sstable::Result<()> {
            self.inner.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> sstable::Result<()> {
            self.inner.create_dir_all(path)
        }
        fn list_dir(&self, path: &Path) -> sstable::Result<Vec<String>> {
            let hook = shim_lock(&self.before_list).take();
            if let Some(hook) = hook {
                hook();
            }
            self.inner.list_dir(path)
        }
        fn file_exists(&self, path: &Path) -> bool {
            self.inner.file_exists(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> sstable::Result<()> {
            self.inner.rename(from, to)
        }
    }

    /// GC asks which segments are sealed while a writer rotates: the
    /// segment born in between is the live one and must not be in the
    /// answer. (Sampling the active segment first and listing second put
    /// it there, and GC then collected and removed the file appends were
    /// still going to — synced, acknowledged values lost; seen as 2 runs
    /// in 150 of `tests/power_cut.rs` at `POWER_CUT_SEED_BASE=240`.)
    #[test]
    fn a_segment_born_while_gc_lists_is_not_called_sealed() {
        let env = Arc::new(HookedListing {
            inner: MemEnv::new(),
            before_list: sync_shim::Mutex::new(None),
        });
        env.create_dir_all(Path::new("/v")).unwrap();
        let (obs, _clock) = obs::Obs::manual();
        let rt = Arc::new(
            VlogRuntime::recover(
                Arc::clone(&env) as Arc<dyn StorageEnv>,
                Path::new("/v"),
                64,
                128,
                2,
                &obs.registry,
            )
            .unwrap(),
        );
        // Segment 2 is past its 128-byte cap and 3 is staged: the next
        // append rotates. It happens inside the listing.
        rt.append_for_gc(b"k1", &[7u8; 200]).unwrap();
        assert!(rt.stage_segment(3));
        *shim_lock(&env.before_list) = Some(Box::new({
            let rt = Arc::clone(&rt);
            move || drop(rt.append_for_gc(b"k2", &[8u8; 200]).unwrap())
        }));
        let sealed = rt.sealed_segments().unwrap();
        assert_eq!(rt.active_segment(), 3);
        assert_eq!(sealed, vec![2]);
    }
}
