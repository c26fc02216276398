//! The `db_bench` command-line contract: what `--stats` must export and
//! which arguments are refused.

use std::process::{Command, Output};

fn db_bench(test: &str, args: &[&str]) -> Output {
    let db = std::env::temp_dir().join(format!("db-bench-cli-{test}-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_db_bench"))
        .args(args)
        .arg("--db")
        .arg(&db)
        .output()
        .expect("spawn db_bench");
    let _ = std::fs::remove_dir_all(&db);
    out
}

fn stdout_of_successful_run(test: &str, args: &[&str]) -> String {
    let out = db_bench(test, args);
    assert!(
        out.status.success(),
        "db_bench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn stats_export_carries_live_put_histogram_on_the_fcae_engine() {
    let stdout = stdout_of_successful_run(
        "fcae",
        &[
            "--benchmarks",
            "fillrandom",
            "--num",
            "5000",
            "--engine",
            "fcae",
            "--stats",
        ],
    );
    assert!(stdout.contains("engine: fcae"), "{stdout}");
    assert!(stdout.contains("hist lsm.put_micros"), "{stdout}");
}

#[test]
fn multi_writer_run_exports_group_commit_counters() {
    let stdout = stdout_of_successful_run(
        "threads",
        &[
            "--benchmarks",
            "fillrandom,ycsb-a",
            "--num",
            "5000",
            "--threads",
            "4",
            "--stats",
        ],
    );
    assert!(stdout.contains("counter lsm.write.leader"), "{stdout}");
}

#[test]
fn unknown_engine_and_unknown_benchmark_exit_2_before_running() {
    for (test, args, message) in [
        (
            "bad-engine",
            ["--engine", "fpga"],
            "error: unknown engine fpga",
        ),
        (
            "bad-bench",
            ["--benchmarks", "fillrandom,fillrandm"],
            "error: unknown benchmark fillrandm",
        ),
    ] {
        let out = db_bench(test, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(message),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
