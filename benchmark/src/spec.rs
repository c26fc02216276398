//! What the benchmark runs and reports: workload names and sizes, and
//! the metric tables. `BENCHMARK.json` at the repository root carries the
//! same names plus each metric's direction and bound; a unit test holds
//! the two in agreement in both directions.

use std::time::Duration;

use obs::json::{Number, Value};

/// The benchmark contract, embedded so `compare` and the tests read the
/// same bounds the driver does.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A workload, fixed by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fill,
    Get,
    YcsbA,
    YcsbE,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fill,
        Workload::Get,
        Workload::YcsbA,
        Workload::YcsbE,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fill => "fill",
            Workload::Get => "get",
            Workload::YcsbA => "ycsb_a",
            Workload::YcsbE => "ycsb_e",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Client threads (embedded) or connections (wire): the box has 2 cores.
pub const CLIENTS: usize = 2;

/// Operation counts of one run. Counts, not durations, are what is held
/// fixed, so both commits of a comparison execute the identical op
/// stream and `write_amp` / `space_amp` compare like with like; the
/// per-second rates below size the timed phase to last about `--seconds`
/// on the 2-core reference box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Records written before the timed phase.
    pub preload: u64,
    /// Key numbers are drawn from `[0, key_space)`.
    pub key_space: u64,
    /// Timed operations per client.
    pub ops_per_client: u64,
    /// Client threads or connections.
    pub clients: usize,
    /// Length of the windows the timed phase is cut into (see
    /// `stats::quiet`): well under the 0.1-1 s bursts in which neighbours
    /// slow this box, long enough to hold some dozens of operations.
    pub window: Duration,
}

impl Sizes {
    pub fn total_ops(&self) -> u64 {
        self.ops_per_client * self.clients as u64
    }
}

/// Sizes of `workload` for a timed phase of about `seconds`, everything
/// multiplied by `scale`. A traced pass runs a quarter of the timed ops.
pub fn sizes(workload: Workload, seconds: f64, scale: f64, traced: bool) -> Sizes {
    let timed = |per_second: f64| {
        let share = if traced { 0.25 } else { 1.0 };
        ((per_second * seconds * scale * share) as u64).max(1)
    };
    let fixed = |n: f64| ((n * scale) as u64).max(1);
    let window = Duration::from_millis(if workload == Workload::YcsbE { 20 } else { 5 });
    match workload {
        Workload::Fill => {
            let ops = timed(100_000.0);
            Sizes {
                preload: 0,
                key_space: (ops * 3 / 5).max(1),
                ops_per_client: ops,
                clients: 1,
                window,
            }
        }
        Workload::Get => Sizes {
            preload: fixed(500_000.0),
            key_space: fixed(500_000.0),
            ops_per_client: timed(70_000.0),
            clients: CLIENTS,
            window,
        },
        Workload::YcsbA => Sizes {
            preload: fixed(200_000.0),
            key_space: fixed(200_000.0),
            ops_per_client: timed(50_000.0),
            clients: CLIENTS,
            window,
        },
        Workload::YcsbE => Sizes {
            preload: fixed(200_000.0),
            key_space: fixed(200_000.0),
            ops_per_client: timed(1_000.0),
            clients: CLIENTS,
            window,
        },
    }
}

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, every workload, untraced run.
pub const END_TO_END: &[MetricDef] = &[
    ("ops_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, traced run. 0 means the layer is not on this
/// workload's path (e.g. `server.*` on `fill`).
pub const PER_LAYER: &[MetricDef] = &[
    ("server.floor_rtt_us", "us"),
    ("server.service_get_us", "us"),
    ("server.service_put_us", "us"),
    ("server.service_scan_us", "us"),
    ("server.rtt_minus_service_us", "us"),
    ("server.unattributed_us", "us"),
    ("server.proto.encode_req_ns", "ns"),
    ("server.proto.decode_req_ns", "ns"),
    ("server.proto.encode_resp_ns", "ns"),
    ("server.proto.decode_resp_ns", "ns"),
    ("server.router.route_ns", "ns"),
    ("server.shard_skew_permille", "permille"),
    ("server.proto_errors", "count"),
    ("lsm.put_us", "us"),
    ("lsm.get_us", "us"),
    ("lsm.scan_us", "us"),
    ("lsm.iter.open_seek_us", "us"),
    ("lsm.iter.next_ns", "ns"),
    ("lsm.stall_share", "ratio"),
    ("lsm.flush.count", "count"),
    ("lsm.flush.mb", "MB"),
    ("lsm.compaction.count", "count"),
    ("lsm.compaction.trivial_moves", "count"),
    ("lsm.compaction.read_mb", "MB"),
    ("lsm.compaction.write_mb", "MB"),
    ("lsm.compaction.busy_s", "s"),
    ("lsm.compaction.mb_per_s", "MB/s"),
    ("lsm.group_commit.avg_size", "ratio"),
    ("lsm.memtable.add_ns", "ns"),
    ("lsm.memtable.get_ns", "ns"),
    ("lsm.wal.append_ns", "ns"),
    ("lsm.cpu_merge.pairs_per_s", "1/s"),
    ("offload.jobs", "count"),
    ("offload.fpga_jobs", "count"),
    ("offload.cpu_fallback_jobs", "count"),
    ("offload.queue_wait_us", "us"),
    ("offload.engine_busy_s", "s"),
    ("offload.cpu_busy_s", "s"),
    ("fcae.kernel.pairs_per_s", "1/s"),
    ("fcae.kernel.mb_per_s", "MB/s"),
    ("fcae.modeled_kernel_s", "s"),
    ("fcae.modeled_pcie_s", "s"),
    ("sstable.block_cache.hit_rate", "ratio"),
    ("sstable.block_cache.misses", "count"),
    ("sstable.table.get_ns", "ns"),
    ("sstable.table.get_absent_ns", "ns"),
    ("sstable.iter.next_ns", "ns"),
    ("sstable.builder.mb_per_s", "MB/s"),
    ("snappy.compress_mb_per_s", "MB/s"),
    ("snappy.decompress_mb_per_s", "MB/s"),
    ("env.write.calls", "count"),
    ("env.write.mb", "MB"),
    ("env.write.s", "s"),
    ("env.sync.calls", "count"),
    ("env.sync.s", "s"),
    ("env.read.calls", "count"),
    ("env.read.mb", "MB"),
    ("env.read.s", "s"),
    ("env.wal.mb", "MB"),
    ("env.table.mb", "MB"),
    ("env.reads_per_get", "ratio"),
    ("trace_overhead_share", "ratio"),
];

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(Number::UInt(n)) => Some(*n as f64),
        Value::Number(Number::Int(n)) => Some(*n as f64),
        Value::Number(Number::Float(n)) => Some(*n),
        _ => None,
    }
}

/// Direction and regression bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end gates of a `BENCHMARK.json` document.
pub fn gates(benchmark_json: &str) -> Result<Vec<Gate>, String> {
    let doc = obs::json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(rows)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end array".into());
    };
    rows.iter()
        .map(|row| {
            let text = |key: &str| row.get(key).and_then(Value::as_str);
            match (
                text("name"),
                text("better"),
                row.get("bound").and_then(as_f64),
            ) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Gate {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end row {row:?}")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn json_rows(key: &str) -> Vec<(String, Option<String>)> {
        let doc = obs::json::parse(BENCHMARK_JSON).unwrap();
        let Some(Value::Array(rows)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} array");
        };
        rows.iter()
            .map(|r| {
                (
                    r.get("name").and_then(Value::as_str).unwrap().to_string(),
                    r.get("unit").and_then(Value::as_str).map(str::to_string),
                )
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = Workload::ALL.iter().map(|w| w.name());
        let metrics = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0);
        for name in workloads.chain(metrics) {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
        }
    }

    #[test]
    fn tables_match_benchmark_json_in_both_directions() {
        let named: Vec<String> = json_rows("workloads").into_iter().map(|r| r.0).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(named, ours);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let theirs = json_rows(key);
            let ours: Vec<(String, Option<String>)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect();
            assert_eq!(theirs, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn gates_parse_with_contract_limits() {
        let gates = gates(BENCHMARK_JSON).unwrap();
        assert_eq!(gates.len(), END_TO_END.len());
        for g in &gates {
            assert!(
                g.bound > 0.0 && g.bound <= 0.25,
                "{}: bound {}",
                g.name,
                g.bound
            );
        }
        let setup = gates.iter().find(|g| g.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better);
        assert!(
            gates.iter().all(|g| g.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn traced_pass_is_a_quarter_and_scale_multiplies() {
        let full = sizes(Workload::Get, 8.0, 1.0, false);
        let traced = sizes(Workload::Get, 8.0, 1.0, true);
        assert_eq!(traced.ops_per_client, full.ops_per_client / 4);
        assert_eq!(traced.preload, full.preload);
        let small = sizes(Workload::Get, 8.0, 0.02, false);
        assert_eq!(small.preload, 10_000);
        assert_eq!(small.total_ops(), full.total_ops() / 50);
    }
}
