//! Single-layer measurements, each timing one crate's public entry point
//! from outside on pairs the workload itself writes: memtable, WAL,
//! table builder and reader, the CPU merge, the FCAE kernel, Snappy, and
//! the wire codec and router.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fcae::{FcaeConfig, FcaeEngine};
use lsm::compaction::{
    CompactionEngine, CompactionInput, CompactionRequest, CpuCompactionEngine, OutputFileFactory,
};
use lsm::memtable::MemTable;
use lsm::wal::LogWriter;
use server::{proto, Request, Response, ShardRouter};
use sstable::comparator::InternalKeyComparator;
use sstable::env::{MemEnv, StorageEnv, WritableFile};
use sstable::format::CompressionType;
use sstable::ikey::{InternalKey, LookupKey, ValueType};
use sstable::iterator::InternalIterator;
use sstable::table::{Table, TableReadOptions};
use sstable::table_builder::TableBuilder;

use crate::data::{self, Values, RECORD_BYTES};

/// Merge fan-in of the compaction measurements.
const MERGE_INPUTS: usize = 4;
/// Repeats per measurement; the median is reported.
const REPEATS: usize = 3;

/// Median over [`REPEATS`] runs of `f`, which returns one measurement.
fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let mut runs: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
    crate::stats::median(&mut runs)
}

/// Nanoseconds per call of `f` over `calls` calls.
fn ns_per_call(calls: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Sorted, distinct pairs of a workload, ready to feed any layer.
pub struct Pairs {
    /// (user key, value), ascending by key.
    pub rows: Vec<(Vec<u8>, Vec<u8>)>,
    /// Keys inside the rows' range that are not among them.
    pub absent: Vec<Vec<u8>>,
}

impl Pairs {
    /// Builds the pairs of `numbers` (any order, duplicates allowed).
    pub fn new(mut numbers: Vec<u64>, values: &Values) -> Pairs {
        numbers.sort_unstable();
        numbers.dedup();
        let rows = numbers
            .iter()
            .map(|&n| {
                let key = data::key(n);
                let mut value = Vec::new();
                values.value_into(n, &key, &mut value);
                (key, value)
            })
            .collect();
        let absent = numbers
            .windows(2)
            .filter(|w| w[1] - w[0] > 1)
            .map(|w| data::key(w[0] + 1))
            .collect();
        Pairs { rows, absent }
    }

    fn user_bytes(&self) -> f64 {
        self.rows.len() as f64 * RECORD_BYTES as f64
    }
}

fn builder_options() -> sstable::table_builder::TableBuilderOptions {
    lsm::Options::default().table_builder_options()
}

fn read_options() -> TableReadOptions {
    lsm::Options::default().table_read_options()
}

/// Builds one table of `rows` (sequence numbers ascending from
/// `first_seq`) at `path`; returns the open table and the build time.
fn build_table(
    env: &MemEnv,
    path: &str,
    rows: &[&(Vec<u8>, Vec<u8>)],
    first_seq: u64,
) -> (Arc<Table>, f64) {
    let file = env.create_writable(Path::new(path)).expect("mem file");
    let ikeys: Vec<InternalKey> = rows
        .iter()
        .enumerate()
        .map(|(i, (k, _))| InternalKey::new(k, first_seq + i as u64, ValueType::Value))
        .collect();
    let t0 = Instant::now();
    let mut builder = TableBuilder::new(builder_options(), file);
    for (ikey, (_, value)) in ikeys.iter().zip(rows) {
        builder.add(ikey.encoded(), value).expect("table add");
    }
    let size = builder.finish().expect("table finish");
    let build_s = t0.elapsed().as_secs_f64();
    let file = env.open_random_access(Path::new(path)).expect("mem file");
    (
        Table::open(file, size, read_options()).expect("table open"),
        build_s,
    )
}

struct MemFactory {
    env: MemEnv,
    next: AtomicU64,
}

impl OutputFileFactory for MemFactory {
    fn new_output(&self) -> lsm::Result<(u64, Box<dyn WritableFile>)> {
        let n = self.next.fetch_add(1, Ordering::SeqCst) + 1;
        let file = self.env.create_writable(Path::new(&format!("/out-{n}")))?;
        Ok((n, file))
    }
}

/// `MERGE_INPUTS` interleaved runs of the pairs (input `i` holds every
/// row with index `i` mod N, so each merge step switches input).
fn merge_inputs(env: &MemEnv, pairs: &Pairs) -> Vec<CompactionInput> {
    (0..MERGE_INPUTS)
        .map(|input| {
            let rows: Vec<_> = pairs
                .rows
                .iter()
                .skip(input)
                .step_by(MERGE_INPUTS)
                .collect();
            let first_seq = 1 + (input * pairs.rows.len()) as u64;
            let (table, _) = build_table(env, &format!("/in-{input}"), &rows, first_seq);
            CompactionInput {
                tables: vec![table],
            }
        })
        .collect()
}

fn clone_inputs(inputs: &[CompactionInput]) -> Vec<CompactionInput> {
    inputs
        .iter()
        .map(|i| CompactionInput {
            tables: i.tables.clone(),
        })
        .collect()
}

/// Name/value rows of the storage-engine layers.
pub fn storage_layers(pairs: &Pairs) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let n = pairs.rows.len();
    let cmp = InternalKeyComparator::default;

    // lsm: memtable insert and lookup, WAL append (MemEnv file, so the
    // record framing and checksum are timed, not the disk).
    let mut table = MemTable::new(cmp());
    out.push((
        "lsm.memtable.add_ns",
        median_of(|| {
            table = MemTable::new(cmp());
            ns_per_call(n, || {
                for (i, (k, v)) in pairs.rows.iter().enumerate() {
                    table.add(i as u64 + 1, ValueType::Value, k, v);
                }
            })
        }),
    ));
    out.push((
        "lsm.memtable.get_ns",
        median_of(|| {
            ns_per_call(n, || {
                for (k, _) in &pairs.rows {
                    black_box(table.get(&LookupKey::new(k, u64::MAX >> 8)));
                }
            })
        }),
    ));
    let env = MemEnv::new();
    let records: Vec<Vec<u8>> = pairs
        .rows
        .iter()
        .map(|(k, v)| [&k[..], &v[..]].concat())
        .collect();
    out.push((
        "lsm.wal.append_ns",
        median_of(|| {
            let file = env
                .create_writable(Path::new("/wal.log"))
                .expect("mem file");
            let mut log = LogWriter::new(file);
            ns_per_call(n, || {
                for r in &records {
                    log.add_record(r).expect("wal append");
                }
            })
        }),
    ));

    // sstable: build one table of all pairs, then read it back.
    let all: Vec<_> = pairs.rows.iter().collect();
    let mut table = None;
    out.push((
        "sstable.builder.mb_per_s",
        median_of(|| {
            let (t, build_s) = build_table(&env, "/table.ldb", &all, 1);
            table = Some(t);
            pairs.user_bytes() / 1e6 / build_s
        }),
    ));
    let table = table.expect("table built");
    let lookups = |keys: &[Vec<u8>]| -> Vec<LookupKey> {
        keys.iter()
            .map(|k| LookupKey::new(k, u64::MAX >> 8))
            .collect()
    };
    let present = lookups(
        &pairs
            .rows
            .iter()
            .map(|(k, _)| k.clone())
            .collect::<Vec<_>>(),
    );
    let absent = lookups(&pairs.absent);
    for (name, keys) in [
        ("sstable.table.get_ns", &present),
        ("sstable.table.get_absent_ns", &absent),
    ] {
        out.push((
            name,
            median_of(|| {
                ns_per_call(keys.len(), || {
                    for k in keys {
                        black_box(table.get(k.internal_key()).expect("table get"));
                    }
                })
            }),
        ));
    }
    out.push((
        "sstable.iter.next_ns",
        median_of(|| {
            let mut it = table.iter();
            it.seek_to_first();
            ns_per_call(n, || {
                while it.valid() {
                    black_box(it.value());
                    it.next();
                }
            })
        }),
    ));

    // lsm + fcae: the same 4-input merge through the CPU engine (real
    // table building into memory) and through the FCAE functional kernel.
    let inputs = merge_inputs(&env, pairs);
    let input_bytes: u64 = inputs.iter().map(CompactionInput::bytes).sum();
    out.push((
        "lsm.cpu_merge.pairs_per_s",
        median_of(|| {
            let req = CompactionRequest {
                level: 0,
                inputs: clone_inputs(&inputs),
                smallest_snapshot: 1 << 40,
                bottommost: true,
                builder_options: builder_options(),
                max_output_file_size: 2 << 20,
            };
            let factory = MemFactory {
                env: env.clone(),
                next: AtomicU64::new(0),
            };
            let t0 = Instant::now();
            let outcome = CpuCompactionEngine
                .compact(&req, &factory)
                .expect("cpu merge");
            (outcome.entries_written + outcome.entries_dropped) as f64 / t0.elapsed().as_secs_f64()
        }),
    ));
    let config = FcaeConfig::nine_input().with_n(MERGE_INPUTS);
    let engine = FcaeEngine::new(config);
    let images = fcae::memory::build_input_images(&inputs, config.w_in).expect("device images");
    let mut kernel_s = 0.0;
    out.push((
        "fcae.kernel.pairs_per_s",
        median_of(|| {
            let t0 = Instant::now();
            let (tables, _, report) = engine
                .run_kernel(
                    &images,
                    1 << 40,
                    true,
                    CompressionType::Snappy,
                    4096,
                    2 << 20,
                )
                .expect("fcae kernel");
            kernel_s = t0.elapsed().as_secs_f64();
            black_box(&tables);
            report.pairs_compared as f64 / kernel_s
        }),
    ));
    out.push(("fcae.kernel.mb_per_s", input_bytes as f64 / 1e6 / kernel_s));

    // snappy: 4 KiB blocks of the pairs, as a data block holds them.
    let raw: Vec<u8> = records.concat();
    let blocks: Vec<&[u8]> = raw.chunks(4096).collect();
    let mut packed = Vec::new();
    out.push((
        "snappy.compress_mb_per_s",
        median_of(|| {
            let t0 = Instant::now();
            packed = blocks.iter().map(|b| snap_codec::compress(b)).collect();
            raw.len() as f64 / 1e6 / t0.elapsed().as_secs_f64()
        }),
    ));
    out.push((
        "snappy.decompress_mb_per_s",
        median_of(|| {
            let t0 = Instant::now();
            for p in &packed {
                black_box(snap_codec::decompress(p).expect("snappy block"));
            }
            raw.len() as f64 / 1e6 / t0.elapsed().as_secs_f64()
        }),
    ));
    out
}

/// Name/value rows of the serving layer's codec and router, replaying
/// `requests` (the workload's first wire operations) and the replies a
/// server would send for them.
pub fn wire_layers(
    requests: &[Request],
    replies: &[Response],
    router: &ShardRouter,
) -> Vec<(&'static str, f64)> {
    let n = requests.len();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut reply_frames: Vec<Vec<u8>> = Vec::new();
    let encode_req = median_of(|| {
        frames = vec![Vec::new(); n];
        ns_per_call(n, || {
            for (req, out) in requests.iter().zip(&mut frames) {
                proto::encode_request(out, req);
            }
        })
    });
    let decode_req = median_of(|| {
        ns_per_call(n, || {
            for frame in &frames {
                black_box(proto::decode_request(&frame[4..]).expect("own frame decodes"));
            }
        })
    });
    let encode_resp = median_of(|| {
        reply_frames = vec![Vec::new(); replies.len()];
        ns_per_call(replies.len(), || {
            for (resp, out) in replies.iter().zip(&mut reply_frames) {
                proto::encode_response(out, resp);
            }
        })
    });
    let decode_resp = median_of(|| {
        ns_per_call(replies.len(), || {
            for frame in &reply_frames {
                black_box(proto::decode_response(&frame[4..]).expect("own frame decodes"));
            }
        })
    });
    let keys: Vec<&[u8]> = requests
        .iter()
        .map(|r| match r {
            Request::Get { key } | Request::Put { key, .. } => key.as_slice(),
            Request::Scan { start, .. } => start.as_slice(),
            _ => &[][..],
        })
        .collect();
    let route = median_of(|| {
        ns_per_call(n, || {
            for key in &keys {
                black_box(router.shard_for(key));
            }
        })
    });
    vec![
        ("server.proto.encode_req_ns", encode_req),
        ("server.proto.decode_req_ns", decode_req),
        ("server.proto.encode_resp_ns", encode_resp),
        ("server.proto.decode_resp_ns", decode_resp),
        ("server.router.route_ns", route),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_layers_report_every_row_positive() {
        let values = Values::new(3);
        let pairs = Pairs::new((0..4000).map(|i| i * 3).collect(), &values);
        assert_eq!(pairs.rows.len(), 4000);
        assert_eq!(pairs.absent.len(), 3999);
        let rows = storage_layers(&pairs);
        assert_eq!(rows.len(), 12);
        for (name, value) in rows {
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
        }
    }
}
