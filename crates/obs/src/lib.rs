//! Workspace observability layer.
//!
//! The paper's whole evaluation (§VII) is measurement: per-level
//! compaction traffic, stall time, kernel throughput, per-stage
//! breakdowns. This crate is the substrate those numbers flow through:
//!
//! * [`Registry`] — a named collection of [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s (p50/p95/p99). Handles are `Arc`s over
//!   relaxed atomics, so hot paths record without locks; the registry
//!   mutex is touched only at registration and export time.
//! * [`TraceBuffer`] — a bounded ring of structured [`Event`]s
//!   (compaction start/finish, flush, write stall, engine
//!   dispatch/fault/fallback, cache eviction, quarantine failure).
//! * [`Clock`] — time injection. Live processes use [`WallClock`];
//!   simulators drive a [`ManualClock`] from modeled time so two
//!   identical runs export byte-identical metrics and traces.
//!
//! * [`CountingAlloc`] — a pass-through global allocator counting
//!   allocations and live bytes, for tests that pin what a path
//!   allocates.
//!
//! Export is deterministic by construction: names iterate in `BTreeMap`
//! order and all numbers are integers.

pub mod alloc;
pub mod clock;
pub mod json;
pub mod metrics;
pub mod trace;

pub use alloc::CountingAlloc;
pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use trace::{Event, EventKind, TraceBuffer};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Named metric registry.
///
/// `counter`/`gauge`/`histogram` get-or-create: the first caller
/// registers the metric, later callers receive the same handle, so
/// independent subsystems can share one registry without coordination.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock();
        if let Some(c) = inner.counters.get(name) {
            return c.clone();
        }
        let c = Arc::new(Counter::new());
        inner.counters.insert(name.to_string(), c.clone());
        c
    }

    /// The gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock();
        if let Some(g) = inner.gauges.get(name) {
            return g.clone();
        }
        let g = Arc::new(Gauge::new());
        inner.gauges.insert(name.to_string(), g.clone());
        g
    }

    /// The histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock();
        if let Some(h) = inner.histograms.get(name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::new());
        inner.histograms.insert(name.to_string(), h.clone());
        h
    }

    /// Value of `name` if a counter with that name exists.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner.lock().counters.get(name).map(|c| c.get())
    }

    /// Snapshot of `name` if a histogram with that name exists.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.inner.lock().histograms.get(name).map(|h| h.snapshot())
    }

    /// Plain-text export: one line per metric, sorted by kind then
    /// name. Byte-stable for identical metric contents.
    pub fn export_text(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for (name, c) in &inner.counters {
            let _ = writeln!(out, "counter {name} {}", c.get());
        }
        for (name, g) in &inner.gauges {
            let _ = writeln!(out, "gauge {name} {}", g.get());
        }
        for (name, h) in &inner.histograms {
            let s = h.snapshot();
            let _ = writeln!(
                out,
                "hist {name} count={} sum={} min={} max={} mean={} p50={} p95={} p99={}",
                s.count,
                s.sum,
                if s.count == 0 { 0 } else { s.min },
                s.max,
                s.mean(),
                s.p50,
                s.p95,
                s.p99
            );
        }
        out
    }

    /// JSON export with the same deterministic ordering as
    /// [`Registry::export_text`]. Built by hand — the workspace is
    /// offline and carries no serde.
    pub fn export_json(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::from("{\"counters\":{");
        for (i, (name, c)) in inner.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), c.get());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in inner.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), g.get());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in inner.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = h.snapshot();
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
                 \"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_string(name),
                s.count,
                s.sum,
                if s.count == 0 { 0 } else { s.min },
                s.max,
                s.mean(),
                s.p50,
                s.p95,
                s.p99
            );
        }
        out.push_str("}}");
        out
    }
}

/// The bundle subsystems share: one registry, one trace, one clock.
///
/// Constructed once per process (or per simulated system) and threaded
/// through `Options`-style structs as `Arc<Obs>`. The trace buffer
/// stamps events with `clock`, so handing a [`ManualClock`] to
/// [`Obs::with_clock`] makes every export deterministic.
pub struct Obs {
    pub registry: Arc<Registry>,
    pub trace: Arc<TraceBuffer>,
    clock: Arc<dyn Clock>,
}

impl Obs {
    /// Default trace capacity used by the convenience constructors.
    pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

    /// An observability bundle stamping events with `clock`.
    pub fn with_clock(trace_capacity: usize, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(Obs {
            registry: Arc::new(Registry::new()),
            trace: Arc::new(TraceBuffer::new(trace_capacity, clock.clone())),
            clock,
        })
    }

    /// A wall-clock bundle for live processes.
    pub fn wall() -> Arc<Self> {
        Self::with_clock(Self::DEFAULT_TRACE_CAPACITY, Arc::new(WallClock::new()))
    }

    /// A deterministic bundle plus the [`ManualClock`] that drives it.
    pub fn manual() -> (Arc<Self>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let obs = Self::with_clock(Self::DEFAULT_TRACE_CAPACITY, clock.clone());
        (obs, clock)
    }

    /// The clock shared by the trace buffer and latency measurements.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Microseconds now, per the bundle's clock.
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Records a trace event.
    pub fn event(&self, kind: EventKind) {
        self.trace.record(kind);
    }

    /// Registry text export followed by the trace export.
    pub fn export_text(&self) -> String {
        let mut out = self.registry.export_text();
        out.push_str(&self.trace.export_text());
        out
    }
}

/// Quotes and escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_get_or_create_shares_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        assert_eq!(b.get(), 3);
        assert_eq!(r.counter_value("x"), Some(3));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn export_text_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("z.last").add(2);
        r.counter("a.first").inc();
        r.gauge("g.max").set_max(5);
        r.histogram("h.lat").record(100);
        let text = r.export_text();
        let a_pos = text.find("a.first").unwrap();
        let z_pos = text.find("z.last").unwrap();
        assert!(a_pos < z_pos);
        assert_eq!(text, r.export_text());
        assert!(text.contains("counter a.first 1"));
        assert!(text.contains("gauge g.max 5"));
        assert!(text.contains("p99=100"));
    }

    #[test]
    fn export_json_shape() {
        let r = Registry::new();
        r.counter("c").inc();
        r.histogram("h").record(7);
        let json = r.export_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"c\":1"));
        assert!(json.contains("\"h\":{\"count\":1,\"sum\":7"));
        assert!(json.ends_with("}}"));
        assert_eq!(json, r.export_json());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    /// Serde-style round trip: every exported name — including the
    /// LevelDB-inherited `lsm.num-files-at-level<N>` spelling with
    /// literal angle brackets, plus quotes, backslashes and control
    /// characters — must survive `export_json` → parse → lookup.
    #[test]
    fn export_json_round_trips_through_parser() {
        let r = Registry::new();
        let hostile = [
            "lsm.num-files-at-level<0>",
            "lsm.num-files-at-level<6>",
            "name with \"quotes\"",
            "back\\slash",
            "tab\there",
            "new\nline",
            "ctrl\u{1}char",
            "unicode-μs",
        ];
        for (i, name) in hostile.iter().enumerate() {
            r.counter(name).add(i as u64 + 1);
            r.gauge(name).set(i as u64 * 10);
        }
        r.histogram("h<angle>").record(123);
        r.counter("big").add(u64::MAX);

        let doc = json::parse(&r.export_json()).expect("export must be valid JSON");
        let counters = doc.get("counters").expect("counters object");
        for (i, name) in hostile.iter().enumerate() {
            assert_eq!(
                counters.get(name).and_then(json::Value::as_u64),
                Some(i as u64 + 1),
                "counter {name:?} must round-trip"
            );
            assert_eq!(
                doc.get("gauges")
                    .and_then(|g| g.get(name))
                    .and_then(json::Value::as_u64),
                Some(i as u64 * 10),
                "gauge {name:?} must round-trip"
            );
        }
        assert_eq!(
            counters.get("big").and_then(json::Value::as_u64),
            Some(u64::MAX)
        );
        let h = doc
            .get("histograms")
            .and_then(|h| h.get("h<angle>"))
            .expect("histogram with angle brackets");
        assert_eq!(h.get("count").and_then(json::Value::as_u64), Some(1));
        assert_eq!(h.get("sum").and_then(json::Value::as_u64), Some(123));
    }
}
