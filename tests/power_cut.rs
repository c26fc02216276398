//! Randomized power-cut harness: the tentpole acceptance test for the
//! fault model.
//!
//! Each round runs a seeded batch of writes against a store on a
//! [`FaultEnv`], cuts power at a random point (dropping every unsynced
//! byte, with a seeded torn tail), reopens, and checks the recovered
//! state against the op log:
//!
//! * every write acknowledged at-or-before the last `sync` **must**
//!   survive;
//! * every recovered value must be one that was actually written —
//!   a key may legally roll back to an older acknowledged-but-unsynced
//!   version (or disappear, if never synced), but it may never read as
//!   garbage or resurrect a version newer than what was written;
//! * companion tests drive injected read corruption (must surface as an
//!   error, never a silent wrong value) and unrecoverable write faults
//!   (must move the store read-only, not drop acks silently).
//!
//! 8 seeds x 25 rounds = 200 distinct crash points, all deterministic.

use std::collections::HashMap;
use std::sync::Arc;

use fcae_repro::lsm::{repair_db, Db, Error, Options, WriteBatch, WriteOptions};
use fcae_repro::sstable::env::{FaultEnv, FaultKind, MemEnv, StorageEnv};

const DIR: &str = "/db";
const SEEDS: u64 = 8;
const ROUNDS_PER_SEED: u64 = 25;
const OPS_PER_ROUND: u64 = 80;
const KEY_SPACE: u64 = 150;

/// SplitMix64: deterministic op/crash-point generation without any
/// wall-clock or global randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Tiny buffers so every round crosses flush/compaction machinery and
/// the crash lands on WAL, table, and MANIFEST writes alike.
fn small_options(env: &FaultEnv) -> Options {
    Options {
        env: Arc::new(env.clone()) as Arc<dyn StorageEnv>,
        write_buffer_size: 8 << 10,
        max_file_size: 8 << 10,
        level1_max_bytes: 16 << 10,
        slowdown_sleep: false,
        ..Default::default()
    }
}

/// Opens the store, routing corruption through `repair_db` the way an
/// operator would. Any other failure is a harness bug.
fn open_or_repair(options: &Options) -> Db {
    match Db::open(DIR, options.clone()) {
        Ok(db) => db,
        Err(Error::Corruption(m)) => {
            let report = repair_db(DIR, options)
                .unwrap_or_else(|e| panic!("repair after '{m}' failed: {e}"));
            assert!(
                report.quarantine_failures.is_empty(),
                "repair left corrupt tables in place: {report:?}"
            );
            Db::open(DIR, options.clone()).expect("open after repair")
        }
        Err(e) => panic!("unexpected open error after power cut: {e}"),
    }
}

#[derive(Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

impl Op {
    fn key(&self) -> &[u8] {
        match self {
            Op::Put(k, _) | Op::Delete(k) => k,
        }
    }

    fn value(&self) -> Option<&[u8]> {
        match self {
            Op::Put(_, v) => Some(v),
            Op::Delete(_) => None,
        }
    }
}

/// One crash round: apply `ops[..cut]` (some synced), cut power, reopen,
/// verify, and return the recovered state as the next round's baseline.
///
/// Verification is per-key: the recovered value must be at least as new
/// as the newest *synced* op on that key, and must be some version that
/// was actually acknowledged — never an invented value.
fn crash_round(
    env: &FaultEnv,
    options: &Options,
    db: Db,
    baseline: &HashMap<Vec<u8>, Vec<u8>>,
    rng: &mut Rng,
    label: &str,
) -> (Db, HashMap<Vec<u8>, Vec<u8>>) {
    // Generate the round's ops (deletes ~1 in 6, values ~90 bytes so a
    // round spans a memtable rotation or two).
    let ops: Vec<Op> = (0..OPS_PER_ROUND)
        .map(|i| {
            let key = format!("key{:04}", rng.below(KEY_SPACE)).into_bytes();
            if rng.below(6) == 0 {
                Op::Delete(key)
            } else {
                Op::Put(
                    key,
                    format!("{label}-o{i}-{:/>80}", rng.below(1000)).into_bytes(),
                )
            }
        })
        .collect();
    let cut = rng.below(OPS_PER_ROUND + 1) as usize;

    // Apply the pre-cut prefix; roughly every 4th op is a synced write.
    let mut last_synced: Option<usize> = None;
    for (i, op) in ops[..cut].iter().enumerate() {
        let mut batch = WriteBatch::new();
        match op {
            Op::Put(k, v) => batch.put(k, v),
            Op::Delete(k) => batch.delete(k),
        }
        let sync = rng.below(4) == 0;
        db.write(batch, WriteOptions { sync })
            .unwrap_or_else(|e| panic!("{label}: pre-cut write {i} failed: {e}"));
        if sync {
            last_synced = Some(i);
        }
    }

    // Power cut: take the store offline mid-flight, tear down the
    // process (background errors are expected and must not panic), then
    // drop every unsynced byte with a seeded torn tail.
    env.set_offline(true);
    drop(db);
    let cut_seed = rng.next();
    env.power_cut(cut_seed)
        .unwrap_or_else(|e| panic!("{label}: power_cut failed: {e}"));

    let db = open_or_repair(options);
    let recovered: HashMap<Vec<u8>, Vec<u8>> = db
        .scan(b"", None, usize::MAX)
        .unwrap_or_else(|e| panic!("{label}: post-recovery scan failed: {e}"))
        .into_iter()
        .collect();

    // Per-key op history for the applied prefix, as (op index, value).
    type History<'a> = HashMap<&'a [u8], Vec<(usize, Option<&'a [u8]>)>>;
    let mut history: History = HashMap::new();
    for (i, op) in ops[..cut].iter().enumerate() {
        history.entry(op.key()).or_default().push((i, op.value()));
    }

    let mut checked: std::collections::HashSet<&[u8]> = std::collections::HashSet::new();
    for (key, hist) in &history {
        checked.insert(key);
        // Newest op on this key that a sync made durable (everything at
        // or before `last_synced` sits in the synced WAL prefix).
        let durable_floor = last_synced
            .and_then(|s| hist.iter().rev().find(|(i, _)| *i <= s))
            .map(|(i, _)| *i);
        // Admissible versions: the durable floor and anything newer; if
        // nothing on this key is durable, the pre-round baseline too.
        let mut allowed: Vec<Option<&[u8]>> = Vec::new();
        for (i, v) in hist {
            if durable_floor.is_none_or(|f| *i >= f) {
                allowed.push(*v);
            }
        }
        if durable_floor.is_none() {
            allowed.push(baseline.get(*key).map(|v| v.as_slice()));
        }
        let got = recovered.get(*key).map(|v| v.as_slice());
        assert!(
            allowed.contains(&got),
            "{label}: key {} recovered {:?}, not among {} admissible versions \
             (cut={cut}, last_synced={last_synced:?}, floor={durable_floor:?})",
            String::from_utf8_lossy(key),
            got.map(String::from_utf8_lossy),
            allowed.len(),
        );
    }

    // Untouched keys must carry the baseline exactly; no key may appear
    // from nowhere.
    for (key, value) in baseline {
        if checked.contains(key.as_slice()) {
            continue;
        }
        assert_eq!(
            recovered.get(key),
            Some(value),
            "{label}: untouched key {} changed across the crash",
            String::from_utf8_lossy(key),
        );
    }
    for key in recovered.keys() {
        assert!(
            baseline.contains_key(key) || history.contains_key(key.as_slice()),
            "{label}: key {} was never written",
            String::from_utf8_lossy(key),
        );
    }

    (db, recovered)
}

/// The main harness: 200 seeded crash points, each verifying the full
/// synced-acknowledged prefix and admissibility of every survivor.
/// `POWER_CUT_SEED_BASE` shifts the seed band so CI's fault matrix can
/// sweep disjoint bands without touching the source.
#[test]
fn power_cut_recovers_synced_prefix_across_200_crash_points() {
    let base: u64 = std::env::var("POWER_CUT_SEED_BASE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    for seed in base..base + SEEDS {
        let env = FaultEnv::new(Arc::new(MemEnv::new()), seed);
        let options = small_options(&env);
        let mut rng = Rng::new(seed.wrapping_mul(0xC0FF_EE00).wrapping_add(7));
        let mut db = Db::open(DIR, options.clone()).expect("fresh open");
        let mut baseline: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for round in 0..ROUNDS_PER_SEED {
            let label = format!("seed{seed}/round{round}");
            let (next_db, next_baseline) =
                crash_round(&env, &options, db, &baseline, &mut rng, &label);
            db = next_db;
            baseline = next_baseline;
        }
        // The store must still be healthy and writable at the end.
        db.put(b"final", b"write").expect("store ends writable");
        assert_eq!(db.get(b"final").unwrap(), Some(b"write".to_vec()));
    }
}

/// Injected read corruption (bit flips) must surface as an error — a
/// checksum mismatch or a failed open — never as a silently wrong value.
#[test]
fn read_corruption_is_detected_never_silent() {
    let env = FaultEnv::new(Arc::new(MemEnv::new()), 42);
    // No block cache: every read goes through the (corrupting) env.
    let options = Options {
        block_cache_bytes: None,
        ..small_options(&env)
    };
    let db = Db::open(DIR, options).expect("open");
    let expected: Vec<(Vec<u8>, Vec<u8>)> = (0..2_000u64)
        .map(|i| {
            (
                format!("key{i:06}").into_bytes(),
                format!("value-{i}-{:0>40}", i).into_bytes(),
            )
        })
        .collect();
    for (k, v) in &expected {
        db.put(k, v).expect("load");
    }
    db.flush().expect("flush");
    db.wait_for_background_quiescence();

    // Flip one bit in roughly every 4th read.
    env.corrupt_reads_one_in(4);
    let mut detected = 0u64;
    let mut clean = 0u64;
    for (k, v) in &expected {
        match db.get(k) {
            Ok(Some(got)) => {
                assert_eq!(
                    &got,
                    v,
                    "corrupted read returned a wrong value for {}",
                    String::from_utf8_lossy(k)
                );
                clean += 1;
            }
            Ok(None) => panic!(
                "corrupted read silently dropped key {}",
                String::from_utf8_lossy(k)
            ),
            Err(_) => detected += 1,
        }
    }
    env.corrupt_reads_one_in(0);
    assert!(env.bits_flipped() > 0, "injection never fired");
    assert!(detected > 0, "no corruption was ever detected");
    assert!(clean > 0, "every read failed; checksum scope too coarse?");

    // With injection off the store reads clean again (nothing was
    // corrupted at rest).
    for (k, v) in expected.iter().step_by(97) {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
    }
}

/// An unrecoverable WAL write fault must reject the failing write and
/// move the store read-only — never acknowledge and then drop data.
#[test]
fn wal_write_fault_moves_store_read_only() {
    let (bundle, _clock) = fcae_repro::obs::Obs::manual();
    let env = FaultEnv::new(Arc::new(MemEnv::new()), 7);
    let options = Options {
        obs: Some(Arc::clone(&bundle)),
        ..small_options(&env)
    };
    let db = Db::open(DIR, options.clone()).expect("open");
    for i in 0..50u64 {
        let mut b = WriteBatch::new();
        b.put(format!("pre{i:03}").as_bytes(), b"durable");
        db.write(b, WriteOptions { sync: true }).expect("pre-fault");
    }

    // The next WAL sync hits ENOSPC: the write must FAIL (not be acked).
    env.inject_errors(FaultKind::Sync, 1);
    let mut b = WriteBatch::new();
    b.put(b"doomed", b"value");
    let err = db.write(b, WriteOptions { sync: true }).unwrap_err();
    assert!(
        matches!(err, Error::Io(_) | Error::Table(_) | Error::ReadOnly(_)),
        "WAL fault must surface as an error, got: {err}"
    );

    // The store is now sticky read-only: writes rejected, reads fine.
    let err = db.put(b"after", b"fault").unwrap_err();
    assert!(
        matches!(err, Error::ReadOnly(_)),
        "post-fault write must be ReadOnly, got: {err}"
    );
    assert!(matches!(db.flush(), Err(Error::ReadOnly(_))));
    assert_eq!(db.get(b"pre000").unwrap(), Some(b"durable".to_vec()));
    assert_eq!(db.get(b"doomed").unwrap(), None, "failed write was acked");
    assert_eq!(
        bundle.registry.counter_value("lsm.bg-error.set"),
        Some(1),
        "bg-error counter must record the transition"
    );
    assert!(
        bundle
            .registry
            .counter_value("lsm.bg-error.readonly-writes")
            .unwrap()
            > 0
    );
    drop(db);

    // The rejected record still sits in the OS-buffered (unsynced) WAL
    // tail, so it has indeterminate durability: after a power cut it may
    // vanish or resurrect with its exact payload, but it must never read
    // back as garbage — and every synced ack must survive.
    env.power_cut(99).expect("power cut");
    let db = Db::open(DIR, options).expect("reopen");
    for i in 0..50u64 {
        assert_eq!(
            db.get(format!("pre{i:03}").as_bytes()).unwrap(),
            Some(b"durable".to_vec()),
            "synced write {i} lost across the fault"
        );
    }
    let doomed = db.get(b"doomed").unwrap();
    assert!(
        doomed.is_none() || doomed.as_deref() == Some(b"value"),
        "failed write resurrected as garbage: {doomed:?}"
    );
}

/// A transient compaction I/O error is retried with backoff and must
/// not take the store read-only.
#[test]
fn transient_compaction_fault_is_retried_not_fatal() {
    let (bundle, _clock) = fcae_repro::obs::Obs::manual();
    let env = FaultEnv::new(Arc::new(MemEnv::new()), 11);
    let options = Options {
        obs: Some(Arc::clone(&bundle)),
        ..small_options(&env)
    };
    let db = Db::open(DIR, options).expect("open");
    // Two overlapping generations so compact_all runs a real merge (a
    // trivial move would bypass the engine and its output writes).
    for round in 0..2u64 {
        for i in 0..300u64 {
            db.put(
                format!("key{i:05}").as_bytes(),
                format!("r{round}-{:0>60}", i).as_bytes(),
            )
            .expect("load");
        }
        db.flush().expect("flush");
        db.wait_for_background_quiescence();
    }

    // One transient append failure lands on the compaction output path.
    env.inject_errors(FaultKind::Append, 1);
    db.compact_all().expect("compaction must survive one fault");
    assert!(
        bundle
            .registry
            .counter_value("lsm.compact.retry.count")
            .unwrap()
            >= 1,
        "retry counter never moved"
    );
    assert_eq!(
        bundle.registry.counter_value("lsm.bg-error.set"),
        Some(0),
        "a retried transient fault must not set the background error"
    );
    db.put(b"still", b"writable").expect("store stays writable");
    for i in (0..300u64).step_by(37) {
        assert_eq!(
            db.get(format!("key{i:05}").as_bytes()).unwrap(),
            Some(format!("r1-{:0>60}", i).into_bytes())
        );
    }
}

/// Value-log band: key-value separation on, so every large value rides
/// the append-only value log and the WAL carries pointers. A GC thread
/// hammers `collect_value_log` while the writer streams, and power is
/// cut at a seeded acknowledgement count — so the crash routinely lands
/// mid-GC (mid-rewrite, mid-retirement, or mid-segment-removal). After
/// recovery:
///
/// * every write acknowledged at-or-before the last synced ack must
///   survive with its exact bytes (vlog-then-WAL sync ordering);
/// * no key may carry an overwritten or deleted generation — GC rewrites
///   must never resurrect stale values past the versions that shadowed
///   them.
#[test]
fn value_log_synced_acks_survive_power_cut_mid_gc() {
    const OPS: u64 = 120;
    const VLOG_KEYS: u64 = 24;
    let base: u64 = std::env::var("POWER_CUT_SEED_BASE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    for seed in base..base + 4 {
        let env = FaultEnv::new(Arc::new(MemEnv::new()), seed ^ 0x91_06);
        // Separation on, tiny segments: GC always has sealed segments to
        // rewrite, and the crash can land between vlog sync, WAL sync,
        // and segment removal.
        let options = Options {
            value_log_threshold_bytes: Some(64),
            value_log_segment_bytes: 1 << 10,
            ..small_options(&env)
        };
        let db = Db::open(DIR, options.clone()).expect("fresh open");
        let mut rng = Rng::new(seed.wrapping_mul(0xB1_0C).wrapping_add(3));
        let cut_after = 30 + (seed % 5) * 18;

        // Acked ops only, in ack order: (key, value-or-tombstone, synced).
        let mut journal: Vec<(Vec<u8>, Option<Vec<u8>>, bool)> = Vec::new();
        let gc_started = std::sync::atomic::AtomicBool::new(false);
        let gc_attempts = std::thread::scope(|s| {
            let gc = {
                let (db, gc_started) = (&db, &gc_started);
                let env = env.clone();
                s.spawn(move || {
                    let mut attempts = 0u64;
                    while !env.is_offline() {
                        attempts += 1;
                        gc_started.store(true, std::sync::atomic::Ordering::SeqCst);
                        // Offline mid-pass surfaces as an error; anything
                        // else GC must absorb without panicking.
                        if db.collect_value_log().is_err() {
                            break;
                        }
                    }
                    attempts
                })
            };
            // The countdown to the cut starts once GC is on its first
            // pass: how soon a spawned thread gets a time slice is the
            // scheduler's business, not the store's.
            while !gc_started.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let mut acked = 0u64;
            for i in 0..OPS {
                let key = format!("vk{:03}", rng.below(VLOG_KEYS)).into_bytes();
                let mut batch = WriteBatch::new();
                // ~180-byte values clear the 64-byte threshold; the
                // (seed, i) tag makes every generation distinguishable,
                // so a resurrected old generation cannot hide.
                let value = (rng.below(6) != 0)
                    .then(|| format!("s{seed}-i{i:04}-{:a>180}", "").into_bytes());
                match &value {
                    Some(v) => batch.put(&key, v),
                    None => batch.delete(&key),
                }
                let sync = rng.below(3) == 0;
                match db.write(batch, WriteOptions { sync }) {
                    Ok(()) => {
                        journal.push((key, value, sync));
                        acked += 1;
                    }
                    // The cut (or a GC-poisoned store after it) reached
                    // us; nothing past this point is acknowledged.
                    Err(_) => break,
                }
                if acked == cut_after {
                    env.set_offline(true);
                }
            }
            env.set_offline(true);
            gc.join().expect("gc thread")
        });
        assert!(gc_attempts >= 1, "seed{seed}: GC never ran before the cut");

        drop(db);
        env.power_cut(seed.wrapping_mul(41).wrapping_add(13))
            .unwrap_or_else(|e| panic!("seed{seed}: power_cut failed: {e}"));
        let db = open_or_repair(&options);

        // Global durable floor: the index of the last synced ack (the WAL
        // prefix up to it is durable, and the vlog is synced before the
        // WAL sync that acks a pointer).
        let last_synced = journal
            .iter()
            .enumerate()
            .rev()
            .find(|(_, (_, _, sync))| *sync)
            .map(|(i, _)| i);
        #[allow(clippy::type_complexity)]
        let mut history: HashMap<&[u8], Vec<(usize, Option<&[u8]>)>> = HashMap::new();
        for (i, (key, value, _)) in journal.iter().enumerate() {
            history
                .entry(key.as_slice())
                .or_default()
                .push((i, value.as_deref()));
        }
        for (key, hist) in &history {
            let floor = last_synced
                .and_then(|s| hist.iter().rev().find(|(i, _)| *i <= s))
                .map(|(i, _)| *i);
            let mut allowed: Vec<Option<&[u8]>> = hist
                .iter()
                .filter(|(i, _)| floor.is_none_or(|f| *i >= f))
                .map(|(_, v)| *v)
                .collect();
            if floor.is_none() {
                // Nothing on this key was ever durable: absence is legal.
                allowed.push(None);
            }
            let got = db.get(key).unwrap_or_else(|e| {
                panic!(
                    "seed{seed}: get {} failed after recovery: {e}",
                    String::from_utf8_lossy(key)
                )
            });
            assert!(
                allowed.contains(&got.as_deref()),
                "seed{seed}: key {} recovered {:?}, not among {} admissible \
                 versions (floor={floor:?}, last_synced={last_synced:?}); \
                 history={:?}",
                String::from_utf8_lossy(key),
                got.as_ref().map(|v| String::from_utf8_lossy(v)),
                allowed.len(),
                hist.iter()
                    .map(|(i, v)| (*i, v.map(|v| v.len()), journal[*i].2))
                    .collect::<Vec<_>>(),
            );
        }
        for (key, _) in db.scan(b"", None, usize::MAX).unwrap() {
            assert!(
                history.contains_key(key.as_slice()),
                "seed{seed}: key {} was never written",
                String::from_utf8_lossy(&key),
            );
        }

        // The recovered store must keep working: GC is harmless and the
        // store stays writable (large values included).
        db.collect_value_log()
            .unwrap_or_else(|e| panic!("seed{seed}: post-recovery GC failed: {e}"));
        let big = vec![b'z'; 200];
        db.put(b"vk-final", &big).expect("store ends writable");
        assert_eq!(db.get(b"vk-final").unwrap(), Some(big));
    }
}

/// Multi-writer band: four concurrent writers stream into one store
/// (exercising leader-elected group commit and epoch rotation under
/// load); power is cut mid-flight. Every write a
/// writer observed as acknowledged at-or-before its own last synced ack
/// must survive recovery, and nothing may read back as garbage.
#[test]
fn multi_writer_synced_acks_survive_power_cut() {
    const WRITERS: usize = 4;
    const OPS: u64 = 150;
    let base: u64 = std::env::var("POWER_CUT_SEED_BASE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    for seed in base..base + 4 {
        let env = FaultEnv::new(Arc::new(MemEnv::new()), seed ^ 0x5eed);
        let options = small_options(&env);
        let db = Db::open(DIR, options.clone()).expect("fresh open");
        // Cut power once this many writes (across all threads) have been
        // acknowledged — a seeded crash point in the middle of the run.
        let cut_after = 40 + (seed % 7) * 55;
        let acked = Arc::new(std::sync::atomic::AtomicU64::new(0));

        // Per-writer journals: (op index, synced) for every *acknowledged*
        // write, captured only after `Db::write` returned Ok.
        let journals: Vec<Vec<(u64, bool)>> = std::thread::scope(|s| {
            let chaos = {
                let env = env.clone();
                let acked = Arc::clone(&acked);
                s.spawn(move || {
                    while acked.load(std::sync::atomic::Ordering::Acquire) < cut_after {
                        std::thread::yield_now();
                    }
                    env.set_offline(true);
                })
            };
            let handles: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let db = &db;
                    let acked = Arc::clone(&acked);
                    s.spawn(move || {
                        let mut rng = Rng::new((seed << 8) | w as u64);
                        let mut journal = Vec::new();
                        for i in 0..OPS {
                            let mut batch = WriteBatch::new();
                            batch.put(
                                format!("w{w}-k{i:04}").as_bytes(),
                                format!("w{w}-v{i}-{:->60}", seed).as_bytes(),
                            );
                            let sync = rng.below(5) == 0;
                            match db.write(batch, WriteOptions { sync }) {
                                Ok(()) => {
                                    journal.push((i, sync));
                                    acked.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                                }
                                // Offline: the power cut reached us. Stop
                                // writing; nothing past this is acked.
                                Err(_) => break,
                            }
                        }
                        journal
                    })
                })
                .collect();
            let journals = handles.into_iter().map(|h| h.join().unwrap()).collect();
            chaos.join().unwrap();
            journals
        });

        drop(db);
        env.power_cut(seed.wrapping_mul(31).wrapping_add(5))
            .unwrap_or_else(|e| panic!("seed{seed}: power_cut failed: {e}"));
        let db = open_or_repair(&options);

        for (w, journal) in journals.iter().enumerate() {
            // The writer's durable floor: its newest op at-or-before its
            // own last synced ack. Everything up to the floor must
            // survive with the exact value written (keys are unique, so
            // no newer version can mask a loss).
            let floor = journal
                .iter()
                .rev()
                .find(|(_, sync)| *sync)
                .map(|(i, _)| *i);
            for (i, _) in journal {
                let key = format!("w{w}-k{i:04}");
                let got = db.get(key.as_bytes()).unwrap();
                let expect = format!("w{w}-v{i}-{:->60}", seed);
                match got {
                    Some(v) => assert_eq!(
                        v,
                        expect.as_bytes(),
                        "seed{seed}: writer {w} op {i} read back garbage"
                    ),
                    None => assert!(
                        floor.is_none_or(|f| *i > f),
                        "seed{seed}: writer {w} op {i} was acknowledged at-or-before \
                         its synced op {floor:?} but did not survive the power cut"
                    ),
                }
            }
        }
        // No key may appear from nowhere.
        for (key, _) in db.scan(b"", None, usize::MAX).unwrap() {
            let s = String::from_utf8(key).unwrap();
            assert!(
                s.starts_with('w') && s.contains("-k"),
                "seed{seed}: unexpected key {s} after recovery"
            );
        }
    }
}
