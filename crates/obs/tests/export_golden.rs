//! The deterministic-export contract across the per-thread striping of
//! counters and histograms: the golden strings below were printed by this
//! same script on the commit before striping (one shared cell per
//! metric).

use obs::{EventKind, Obs};

const GOLDEN_TEXT: &str = "\
counter lsm.bloom.checked 30
counter lsm.bloom.useful 1
counter lsm.get.table_probes 32
counter untouched 0
gauge lsm.memtable.shards 8
gauge offload.queue.max 3
hist lsm.get_micros count=16 sum=11932 min=0 max=10946 mean=745 p50=14 p95=10946 p99=10946
hist lsm.put_micros count=1 sum=18446744073709551615 min=18446744073709551615 \
max=18446744073709551615 mean=18446744073709551615 p50=18446744073709551615 \
p95=18446744073709551615 p99=18446744073709551615
hist lsm.scan_micros count=0 sum=0 min=0 max=0 mean=0 p50=0 p95=0 p99=0
#000000         40us flush bytes=4096 micros=17
#000001         42us write_stall micros=1000
trace: 2 buffered, 0 dropped
";

const GOLDEN_JSON: &str = concat!(
    r#"{"counters":{"lsm.bloom.checked":30,"lsm.bloom.useful":1,"#,
    r#""lsm.get.table_probes":32,"untouched":0},"#,
    r#""gauges":{"lsm.memtable.shards":8,"offload.queue.max":3},"#,
    r#""histograms":{"lsm.get_micros":{"count":16,"sum":11932,"min":0,"max":10946,"#,
    r#""mean":745,"p50":14,"p95":10946,"p99":10946},"#,
    r#""lsm.put_micros":{"count":1,"sum":18446744073709551615,"#,
    r#""min":18446744073709551615,"max":18446744073709551615,"#,
    r#""mean":18446744073709551615,"p50":18446744073709551615,"#,
    r#""p95":18446744073709551615,"p99":18446744073709551615},"#,
    r#""lsm.scan_micros":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"#,
    r#""p50":0,"p95":0,"p99":0}}}"#,
);

/// The export a fixed single-threaded `ManualClock` script produces,
/// byte for byte as it was before counters and histograms were
/// striped per thread: the deterministic-trace contract does not
/// notice where samples are stored.
#[test]
fn manual_clock_script_exports_the_same_bytes_as_before_striping() {
    let (obs, clock) = Obs::manual();
    let r = &obs.registry;
    r.counter("lsm.get.table_probes").add(32);
    r.counter("lsm.bloom.checked").add(30);
    r.counter("lsm.bloom.useful").inc();
    r.counter("untouched");
    r.gauge("lsm.memtable.shards").set(8);
    r.gauge("offload.queue.max").set_max(3);
    let get = r.histogram("lsm.get_micros");
    for v in [
        0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 10_946,
    ] {
        get.record(v);
    }
    r.histogram("lsm.put_micros").record(u64::MAX);
    r.histogram("lsm.scan_micros");
    clock.advance(40);
    obs.event(EventKind::Flush {
        bytes: 4096,
        micros: 17,
    });
    clock.advance(2);
    obs.event(EventKind::WriteStall { micros: 1000 });
    assert_eq!(obs.export_text(), GOLDEN_TEXT);
    assert_eq!(obs.registry.export_json(), GOLDEN_JSON);
}
