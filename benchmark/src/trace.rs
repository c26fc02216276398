//! Measurement from outside the program: spans recorded by the harness
//! around its calls into each layer, and decorators at the two seams the
//! store exposes (`StorageEnv`, `CompactionEngine`).
//!
//! Parentage is a harness-side thread-local "current span", so a client
//! op links to the storage calls made on its own thread (`op.get` →
//! `env.read_at`) and a compaction to its file appends. Work the program
//! moves to its own threads has no request parent until the program
//! itself carries an id (ROADMAP item 5).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use lsm::compaction::{
    CompactionEngine, CompactionOutcome, CompactionRequest, OutputFileFactory, WritePressure,
};
use sstable::env::{RandomAccessFile, StorageEnv, WritableFile};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the span open on the same thread when this one started; 0 = none.
    pub parent: u64,
    /// Client operation this span belongs to; 0 = background work.
    pub op_id: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Every thread's span buffer. Threads of the store never exit while
/// the harness runs, so buffers are shared, not handed over at exit.
static SINKS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

thread_local! {
    /// (current span id, its op id) on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Finished spans of this thread; uncontended until `take_spans`.
    static LOCAL: Arc<Mutex<Vec<Span>>> = {
        let sink = Arc::new(Mutex::new(Vec::new()));
        SINKS.lock().expect("span sinks poisoned").push(Arc::clone(&sink));
        sink
    };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Open span; records itself when dropped. Inert while tracing is off.
pub struct SpanGuard {
    open: Option<(u64, &'static str, u64, (u64, u64))>,
}

/// Opens a span named `name` under this thread's current span. `op_id`
/// 0 inherits the parent's operation.
pub fn span(name: &'static str, op_id: u64) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = CURRENT.get();
    let op = if op_id == 0 { outer.1 } else { op_id };
    CURRENT.set((id, op));
    SpanGuard {
        open: Some((id, name, now_ns(), outer)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((id, name, start_ns, outer)) = self.open.take() else {
            return;
        };
        let op_id = CURRENT.get().1;
        CURRENT.set(outer);
        let finished = Span {
            id,
            name,
            start_ns,
            end_ns: now_ns(),
            parent: outer.0,
            op_id,
        };
        LOCAL.with(|local| local.lock().expect("span sink poisoned").push(finished));
    }
}

/// Takes every span recorded so far, on any thread.
pub fn take_spans() -> Vec<Span> {
    let sinks = SINKS.lock().expect("span sinks poisoned");
    let mut all = Vec::new();
    for sink in sinks.iter() {
        all.append(&mut sink.lock().expect("span sink poisoned"));
    }
    all
}

/// Count, total and self time per span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Summarizes spans by name. A span's self time is its duration minus
/// the part its children cover; children run on the parent's thread, so
/// they never overlap each other.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.op_id
        )?;
    }
    out.flush()
}

// ------------------------------------------------------------ storage env

/// What the store asked of its storage env, by call kind and file kind.
#[derive(Default)]
pub struct EnvCounters {
    pub write_calls: AtomicU64,
    pub write_bytes: AtomicU64,
    pub write_ns: AtomicU64,
    pub sync_calls: AtomicU64,
    pub sync_ns: AtomicU64,
    pub read_calls: AtomicU64,
    pub read_bytes: AtomicU64,
    pub read_ns: AtomicU64,
    /// Bytes appended to `*.log` files.
    pub wal_bytes: AtomicU64,
    /// Bytes appended to `*.ldb` / `*.sst` files.
    pub table_bytes: AtomicU64,
}

/// A point-in-time copy of [`EnvCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnvTotals {
    pub write_calls: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub sync_calls: u64,
    pub sync_ns: u64,
    pub read_calls: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub wal_bytes: u64,
    pub table_bytes: u64,
}

impl EnvCounters {
    /// Reads every counter.
    pub fn totals(&self) -> EnvTotals {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        EnvTotals {
            write_calls: get(&self.write_calls),
            write_bytes: get(&self.write_bytes),
            write_ns: get(&self.write_ns),
            sync_calls: get(&self.sync_calls),
            sync_ns: get(&self.sync_ns),
            read_calls: get(&self.read_calls),
            read_bytes: get(&self.read_bytes),
            read_ns: get(&self.read_ns),
            wal_bytes: get(&self.wal_bytes),
            table_bytes: get(&self.table_bytes),
        }
    }
}

impl EnvTotals {
    /// What was added since `before`.
    pub fn since(self, before: EnvTotals) -> EnvTotals {
        EnvTotals {
            write_calls: self.write_calls - before.write_calls,
            write_bytes: self.write_bytes - before.write_bytes,
            write_ns: self.write_ns - before.write_ns,
            sync_calls: self.sync_calls - before.sync_calls,
            sync_ns: self.sync_ns - before.sync_ns,
            read_calls: self.read_calls - before.read_calls,
            read_bytes: self.read_bytes - before.read_bytes,
            read_ns: self.read_ns - before.read_ns,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            table_bytes: self.table_bytes - before.table_bytes,
        }
    }
}

/// `StorageEnv` decorator (same shape as `sstable::env::FaultEnv`).
/// Always counts calls and bytes — `write_amp` needs them on untraced
/// runs — and, with `timed`, also times each call and records a span.
pub struct BenchEnv {
    inner: Arc<dyn StorageEnv>,
    counters: Arc<EnvCounters>,
    timed: bool,
}

impl BenchEnv {
    /// Wraps `inner`; `timed` adds per-call clocks and spans.
    pub fn new(inner: Arc<dyn StorageEnv>, timed: bool) -> Self {
        BenchEnv {
            inner,
            counters: Arc::new(EnvCounters::default()),
            timed,
        }
    }

    /// The live counters.
    pub fn counters(&self) -> Arc<EnvCounters> {
        Arc::clone(&self.counters)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum FileKind {
    Wal,
    Table,
    Other,
}

fn file_kind(path: &Path) -> FileKind {
    match path.extension().and_then(|e| e.to_str()) {
        Some("log") => FileKind::Wal,
        Some("ldb" | "sst") => FileKind::Table,
        _ => FileKind::Other,
    }
}

/// Runs `f`, timing it into `ns` under a span when `timed`.
fn clocked<T>(timed: bool, name: &'static str, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    if !timed {
        return f();
    }
    let _span = span(name, 0);
    let t0 = Instant::now();
    let out = f();
    ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

struct CountedWritable {
    inner: Box<dyn WritableFile>,
    counters: Arc<EnvCounters>,
    kind: FileKind,
    timed: bool,
}

impl WritableFile for CountedWritable {
    fn append(&mut self, data: &[u8]) -> sstable::Result<()> {
        let c = &self.counters;
        c.write_calls.fetch_add(1, Ordering::Relaxed);
        c.write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        match self.kind {
            FileKind::Wal => c.wal_bytes.fetch_add(data.len() as u64, Ordering::Relaxed),
            FileKind::Table => c
                .table_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed),
            FileKind::Other => 0,
        };
        let inner = &mut self.inner;
        clocked(self.timed, "env.append", &c.write_ns, || inner.append(data))
    }

    fn flush(&mut self) -> sstable::Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> sstable::Result<()> {
        let c = &self.counters;
        c.sync_calls.fetch_add(1, Ordering::Relaxed);
        let inner = &mut self.inner;
        clocked(self.timed, "env.sync", &c.sync_ns, || inner.sync())
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
}

struct CountedRandomAccess {
    inner: Box<dyn RandomAccessFile>,
    counters: Arc<EnvCounters>,
    timed: bool,
}

impl RandomAccessFile for CountedRandomAccess {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> sstable::Result<usize> {
        let c = &self.counters;
        c.read_calls.fetch_add(1, Ordering::Relaxed);
        let n = clocked(self.timed, "env.read_at", &c.read_ns, || {
            self.inner.read_at(offset, buf)
        })?;
        c.read_bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn len(&self) -> sstable::Result<u64> {
        self.inner.len()
    }
}

impl StorageEnv for BenchEnv {
    fn open_random_access(&self, path: &Path) -> sstable::Result<Box<dyn RandomAccessFile>> {
        Ok(Box::new(CountedRandomAccess {
            inner: self.inner.open_random_access(path)?,
            counters: Arc::clone(&self.counters),
            timed: self.timed,
        }))
    }

    fn create_writable(&self, path: &Path) -> sstable::Result<Box<dyn WritableFile>> {
        Ok(Box::new(CountedWritable {
            inner: self.inner.create_writable(path)?,
            counters: Arc::clone(&self.counters),
            kind: file_kind(path),
            timed: self.timed,
        }))
    }

    fn remove_file(&self, path: &Path) -> sstable::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> sstable::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> sstable::Result<Vec<String>> {
        self.inner.list_dir(path)
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> sstable::Result<()> {
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> sstable::Result<()> {
        let c = &self.counters;
        c.sync_calls.fetch_add(1, Ordering::Relaxed);
        clocked(self.timed, "env.sync_dir", &c.sync_ns, || {
            self.inner.sync_dir(path)
        })
    }
}

// ------------------------------------------------------ compaction engine

/// `CompactionEngine` decorator for traced embedded runs: one
/// `engine.compact` span per job, so the file appends a compaction makes
/// on its own thread hang under it.
pub struct TracedEngine {
    inner: Arc<dyn CompactionEngine>,
}

impl TracedEngine {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn CompactionEngine>) -> Self {
        TracedEngine { inner }
    }
}

impl CompactionEngine for TracedEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn max_inputs(&self) -> usize {
        self.inner.max_inputs()
    }

    fn compact(
        &self,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
    ) -> lsm::Result<CompactionOutcome> {
        let _span = span("engine.compact", 0);
        self.inner.compact(req, out)
    }

    fn write_pressure(&self) -> WritePressure {
        self.inner.write_pressure()
    }

    fn run_maintenance(&self, job: &mut dyn FnMut()) {
        self.inner.run_maintenance(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, name: &'static str, start: u64, end: u64, parent: u64) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            s(1, "op.get", 0, 100, 0),
            s(2, "env.read_at", 10, 30, 1),
            s(3, "env.read_at", 40, 70, 1),
            s(4, "op.get", 200, 250, 0),
        ];
        let sum = summarize(&spans);
        assert_eq!(
            sum["op.get"],
            NameTotals {
                count: 2,
                total_ns: 150,
                self_ns: 100
            }
        );
        assert_eq!(
            sum["env.read_at"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        // Self times partition the root spans' wall time.
        let self_total: u64 = sum.values().map(|t| t.self_ns).sum();
        assert_eq!(self_total, 150);
    }

    #[test]
    fn children_longer_than_parent_clamp_to_zero() {
        let spans = [s(1, "a", 0, 10, 0), s(2, "b", 0, 25, 1)];
        assert_eq!(summarize(&spans)["a"].self_ns, 0);
    }

    // One test owns the process-wide recorder, so parallel tests never
    // interleave with it.
    #[test]
    fn recorder_links_children_and_inherits_op_id() {
        set_enabled(false);
        drop(span("ignored", 9));
        set_enabled(true);
        {
            let _op = span("op.put", 42);
            drop(span("env.append", 0));
        }
        set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 2, "disabled span must not record");
        let child = spans.iter().find(|s| s.name == "env.append").unwrap();
        let parent = spans.iter().find(|s| s.name == "op.put").unwrap();
        assert_eq!(child.parent, parent.id);
        assert_eq!(child.op_id, 42);
        assert_eq!(parent.parent, 0);
        assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);

        let dir = std::env::temp_dir().join(format!("kvbench-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        write_jsonl(&spans, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = obs::json::parse(line).unwrap();
            assert!(v.get("name").and_then(|n| n.as_str()).is_some());
            assert!(v.get("parent").and_then(|n| n.as_u64()).is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
