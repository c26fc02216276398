//! Concurrency stress: multiple writer and reader threads hammer one
//! store while background flushes and (FCAE) compactions run. Guards the
//! races the implementation explicitly handles — obsolete-file GC vs
//! in-flight compaction outputs (`pending_outputs`), version pinning for
//! concurrent readers, flush-during-offload, and the published read view:
//! readers that take no state lock beside every kind of install.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use fcae_repro::fcae::{FcaeConfig, FcaeEngine};
use fcae_repro::lsm::{Db, Options, ReadOptions};
use fcae_repro::sstable::env::{MemEnv, StorageEnv};

fn stress(engine_is_fcae: bool) {
    let env = Arc::new(MemEnv::new());
    let options = Options {
        env: Arc::clone(&env) as Arc<dyn StorageEnv>,
        write_buffer_size: 32 << 10,
        max_file_size: 16 << 10,
        level1_max_bytes: 64 << 10,
        slowdown_sleep: false,
        ..Default::default()
    };
    let db = Arc::new(if engine_is_fcae {
        Db::open_with_engine(
            "/db",
            options,
            Arc::new(FcaeEngine::new(FcaeConfig::nine_input())),
        )
        .unwrap()
    } else {
        Db::open("/db", options).unwrap()
    });

    const WRITERS: usize = 3;
    const READERS: usize = 3;
    const KEYS: u64 = 400;
    const OPS_PER_WRITER: u64 = 4_000;

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    for w in 0..WRITERS {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..OPS_PER_WRITER {
                // Each writer owns a key-stripe, so last-value checks are
                // deterministic per stripe.
                let k = (i * 7 + w as u64) % KEYS;
                let key = format!("w{w}-{k:05}");
                if i % 19 == 5 {
                    db.delete(key.as_bytes()).unwrap();
                } else {
                    let value = format!("w{w}-i{i}-{}", "x".repeat((i % 64) as usize));
                    db.put(key.as_bytes(), value.as_bytes()).unwrap();
                }
            }
        }));
    }

    for r in 0..READERS {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let w = (i + r as u64) % WRITERS as u64;
                let k = i % KEYS;
                let key = format!("w{w}-{k:05}");
                // Any outcome is fine; it must not error or panic.
                let got = db.get(key.as_bytes()).unwrap();
                if let Some(v) = got {
                    assert!(
                        v.starts_with(format!("w{w}-").as_bytes()),
                        "value from the wrong stripe"
                    );
                }
                // Periodic scans exercise version pinning during GC.
                if i.is_multiple_of(257) {
                    let rows = db.scan(b"w0-", Some(b"w0-~"), 50).unwrap();
                    assert!(rows.len() <= 50);
                }
                reads += 1;
                i += 1;
            }
            assert!(reads > 0);
        }));
    }

    // Wait for writers, then stop readers.
    let (writers, readers): (Vec<_>, Vec<_>) = {
        let mut it = handles.into_iter();
        let w: Vec<_> = (&mut it).take(WRITERS).collect();
        (w, it.collect())
    };
    for h in writers {
        h.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().expect("reader panicked");
    }

    db.flush().unwrap();
    db.wait_for_background_quiescence();

    // Every write was committed by exactly one group: either it led the
    // group or rode as a follower. The split is scheduling-dependent but
    // the sum is exact.
    let registry = &db.obs().registry;
    let leaders = registry.counter_value("lsm.write.leader").unwrap_or(0);
    let followers = registry.counter_value("lsm.write.follower").unwrap_or(0);
    assert!(leaders >= 1, "no group commit ever led");
    assert_eq!(
        leaders + followers,
        WRITERS as u64 * OPS_PER_WRITER,
        "leader/follower counters must account for every write"
    );

    // Deterministic final state per stripe: replay a single writer's ops.
    for w in 0..WRITERS as u64 {
        let mut last: std::collections::HashMap<u64, Option<String>> =
            std::collections::HashMap::new();
        for i in 0..OPS_PER_WRITER {
            let k = (i * 7 + w) % KEYS;
            if i % 19 == 5 {
                last.insert(k, None);
            } else {
                last.insert(
                    k,
                    Some(format!("w{w}-i{i}-{}", "x".repeat((i % 64) as usize))),
                );
            }
        }
        for (k, expect) in last {
            let key = format!("w{w}-{k:05}");
            let got = db
                .get(key.as_bytes())
                .unwrap()
                .map(|v| String::from_utf8(v).unwrap());
            assert_eq!(got, expect, "stripe w{w} key {k}");
        }
    }
}

#[test]
fn concurrent_stress_cpu_engine() {
    stress(false);
}

#[test]
fn concurrent_stress_fcae_engine() {
    stress(true);
}

/// Readers beside every install that republishes the read view: memtable
/// rotation, flush, trivial move and compaction (on the offload engine,
/// so flushes also run on writer threads while the device merges). Each
/// key has one writer, which overwrites it with ascending versions and
/// publishes a version once its `put` is acknowledged; a reader samples
/// that floor *before* its `get` and must read the floor or newer — a view
/// published too late, or one that drops a memtable before the table it
/// became is named, shows up as an older version or a missing key. Reads
/// and iterator walks `unwrap`: a table file deleted while a view still
/// names it fails the first probe that has to open it (`MemEnv` cannot
/// open a removed file).
#[test]
fn acknowledged_writes_stay_readable_across_every_install() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const KEYS: usize = 64;
    const VERSIONS: u64 = 150;

    let db = Arc::new(
        Db::open_with_engine(
            "/db",
            Options {
                env: Arc::new(MemEnv::new()),
                write_buffer_size: 32 << 10,
                max_file_size: 16 << 10,
                // The live data (128 keys, ~30 KiB) is a table or two: a
                // level-1 budget under its size keeps level 1 spilling
                // into level 2 — by a trivial move while level 2 is
                // empty, by compactions after.
                level1_max_bytes: 8 << 10,
                slowdown_sleep: false,
                ..Default::default()
            },
            Arc::new(FcaeEngine::new(FcaeConfig::nine_input())),
        )
        .unwrap(),
    );
    let key = |w: usize, k: usize| format!("w{w}-{k:05}");
    // Padding that does not compress away, so the tables have a size.
    let value = |w: usize, k: usize, version: u64| {
        let mut x = (w as u64 + 1) << 40 | (k as u64) << 20 | version;
        let padding: String = (0..12)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                format!("{x:016x}")
            })
            .collect();
        format!("w{w}-{k:05}-v{version:06}-{padding}")
    };
    let version_of = |w: usize, k: usize, v: &[u8]| -> u64 {
        let text = std::str::from_utf8(v).expect("utf-8 value");
        let rest = text
            .strip_prefix(&format!("w{w}-{k:05}-v"))
            .unwrap_or_else(|| panic!("value of another key: {text}"));
        rest[..6].parse().expect("version")
    };
    // Highest acknowledged version per key, 0 before the first.
    let acked: Arc<Vec<AtomicU64>> =
        Arc::new((0..WRITERS * KEYS).map(|_| AtomicU64::new(0)).collect());
    let writers_done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(WRITERS + READERS));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (db, acked, start) = (Arc::clone(&db), Arc::clone(&acked), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for version in 1..=VERSIONS {
                    for k in 0..KEYS {
                        db.put(key(w, k).as_bytes(), value(w, k, version).as_bytes())
                            .unwrap();
                        acked[w * KEYS + k].store(version, Ordering::Release);
                    }
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (db, acked, start, writers_done) = (
                Arc::clone(&db),
                Arc::clone(&acked),
                Arc::clone(&start),
                Arc::clone(&writers_done),
            );
            std::thread::spawn(move || {
                start.wait();
                let mut i = r as u64;
                let mut checked = 0u64;
                // One more sweep after the writers finish: every key at
                // its final version.
                let mut last_sweep = false;
                loop {
                    let done = writers_done.load(Ordering::Acquire);
                    for _ in 0..WRITERS * KEYS {
                        i = i
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let slot = if last_sweep {
                            (checked % (WRITERS * KEYS) as u64) as usize
                        } else {
                            (i >> 33) as usize % (WRITERS * KEYS)
                        };
                        let (w, k) = (slot / KEYS, slot % KEYS);
                        let floor = acked[slot].load(Ordering::Acquire);
                        let got = db.get(key(w, k).as_bytes()).unwrap();
                        match got {
                            Some(v) => {
                                let version = version_of(w, k, &v);
                                assert!(
                                    version >= floor,
                                    "{}: read version {version}, {floor} was acknowledged",
                                    key(w, k)
                                );
                            }
                            None => assert_eq!(floor, 0, "{}: acknowledged, not found", key(w, k)),
                        }
                        checked += 1;
                        if checked.is_multiple_of(97) {
                            // An iterator opened on one view and walked
                            // while installs replace it.
                            let floors: Vec<u64> = (0..KEYS)
                                .map(|k| acked[w * KEYS + k].load(Ordering::Acquire))
                                .collect();
                            let mut it = db.iter().unwrap();
                            it.seek(format!("w{w}-").as_bytes());
                            let mut k = 0;
                            while it.valid() && it.key().starts_with(format!("w{w}-").as_bytes()) {
                                while floors[k] == 0 && it.key() != key(w, k).as_bytes() {
                                    k += 1; // not written when the floors were read
                                }
                                assert_eq!(it.key(), key(w, k).as_bytes());
                                assert!(version_of(w, k, it.value()) >= floors[k]);
                                k += 1;
                                it.next();
                            }
                            it.status().unwrap();
                            assert!(floors[k..].iter().all(|&f| f == 0), "scan ended early");
                        }
                    }
                    if last_sweep {
                        break;
                    }
                    last_sweep = done;
                }
                checked
            })
        })
        .collect();

    for h in writers {
        h.join().expect("writer panicked");
    }
    writers_done.store(true, Ordering::Release);
    for h in readers {
        assert!(h.join().expect("reader panicked") > 0);
    }
    db.wait_for_background_quiescence();
    for slot in 0..WRITERS * KEYS {
        let (w, k) = (slot / KEYS, slot % KEYS);
        let got = db.get(key(w, k).as_bytes()).unwrap().expect("final value");
        assert_eq!(version_of(w, k, &got), VERSIONS);
    }
    // The run crossed every kind of install.
    let stats = db.stats();
    assert!(stats.flushes > 0, "no flush: {stats:?}");
    assert!(stats.trivial_moves > 0, "no trivial move: {stats:?}");
    assert!(stats.engine_compactions > 0, "no compaction: {stats:?}");
}

/// A scanner beside four inserting writers. Iterators read the memtables
/// lazily, a shard lock per step, so inserts (and rotations, flushes and
/// compactions: the write buffer is tiny) land *between* the steps of an
/// open iterator — the test forces that by pausing each walk half way
/// until every writer has moved on. Writer `w` inserts `w{w}-{i:05}` for
/// ascending `i`, each acknowledged before the next, so the store at any
/// snapshot is one prefix per writer; the scan must be exactly that, with
/// the prefix lengths bracketed by the writers' progress counters read
/// around the snapshot, and a second scan at the same snapshot — opened
/// after the memtable it started on is long gone — must repeat it.
#[test]
fn snapshot_scans_beside_writers_match_the_model() {
    const WRITERS: usize = 4;
    const PUTS: u64 = 3_000;
    /// Inserts per writer the scanner waits for in the middle of a walk.
    const ADVANCE: u64 = 64;

    let db = Arc::new(
        Db::open(
            "/db",
            Options {
                env: Arc::new(MemEnv::new()),
                write_buffer_size: 32 << 10,
                max_file_size: 16 << 10,
                level1_max_bytes: 64 << 10,
                slowdown_sleep: false,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let value = |w: usize, i: u64| format!("w{w}-i{i}-{}", "x".repeat((i % 64) as usize));
    let progress: Arc<Vec<AtomicU64>> = Arc::new((0..WRITERS).map(|_| AtomicU64::new(0)).collect());
    let start = Arc::new(Barrier::new(WRITERS + 1));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (db, progress, start) =
                (Arc::clone(&db), Arc::clone(&progress), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PUTS {
                    db.put(format!("w{w}-{i:05}").as_bytes(), value(w, i).as_bytes())
                        .unwrap();
                    progress[w].store(i + 1, Ordering::Release);
                }
            })
        })
        .collect();

    let counts = || -> Vec<u64> { progress.iter().map(|p| p.load(Ordering::Acquire)).collect() };
    start.wait();
    let mut overlapped = 0;
    loop {
        let lo = counts();
        let snapshot = db.snapshot();
        let hi = counts();
        let opts = || ReadOptions {
            snapshot: Some(snapshot.sequence),
        };
        let mut it = db.iter_with(opts()).unwrap();
        it.seek_to_first();
        let mut got = Vec::new();
        let pause_at = lo.iter().sum::<u64>() as usize / 2;
        while it.valid() {
            if got.len() == pause_at {
                // Let every writer insert under the open iterator.
                while counts()
                    .iter()
                    .zip(&hi)
                    .any(|(&now, &then)| now < PUTS && now < then + ADVANCE)
                {
                    std::thread::yield_now();
                }
            }
            got.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status().unwrap();
        if counts()
            .iter()
            .zip(&hi)
            .all(|(&now, &then)| now >= then + ADVANCE)
        {
            overlapped += 1;
        }

        // Keys sort stripe by stripe, ascending `i` within a stripe.
        let mut next = 0usize;
        for w in 0..WRITERS {
            let mut n = 0u64;
            while next < got.len() && got[next].0.starts_with(format!("w{w}-").as_bytes()) {
                assert_eq!(got[next].0, format!("w{w}-{n:05}").as_bytes());
                assert_eq!(got[next].1, value(w, n).as_bytes());
                n += 1;
                next += 1;
            }
            assert!(
                lo[w] <= n && n <= hi[w] + 1,
                "writer {w}: {n} keys in the snapshot, acknowledged {}..={} around it",
                lo[w],
                hi[w]
            );
        }
        assert_eq!(next, got.len(), "keys outside every writer's stripe");

        let again = db
            .scan_with(opts(), b"", None, usize::MAX, usize::MAX)
            .unwrap();
        assert!(again.complete);
        assert_eq!(again.pairs, got, "two scans at one snapshot differ");

        if lo.iter().all(|&n| n == PUTS) {
            assert_eq!(got.len() as u64, WRITERS as u64 * PUTS);
            break;
        }
    }
    for h in writers {
        h.join().expect("writer panicked");
    }
    assert!(overlapped >= 1, "no walk had inserts land under it");
}
