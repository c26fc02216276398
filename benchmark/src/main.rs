//! `kvbench` — the repository's one benchmark harness.
//!
//! ```text
//! kvbench [--workload fill|get|ycsb_a|ycsb_e|all] [--seed N] [--seconds S]
//!         [--trace 0|1] [--scale F] [--dir PATH] [--out FILE]
//! kvbench compare A.json B.json
//! ```
//!
//! One workload runs in this process and ends with the result object on
//! the last line of standard output. `all` (the default) runs each
//! workload in a fresh process and writes one JSON document. See
//! `benchmark/README.md` for what is measured and why.

mod compare;
mod data;
mod embedded;
mod envinfo;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use run::{Report, RunConfig};
use spec::Workload;

/// A run still going after this long is killed without a result; the
/// in-run watchdog (120 s) normally ends it first, with failures counted.
const HARD_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    /// `None` = every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: f64,
    dir: PathBuf,
    out: Option<PathBuf>,
}

fn default_seconds() -> f64 {
    obs::json::parse(spec::BENCHMARK_JSON)
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(spec::as_f64))
        .unwrap_or(10.0)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: default_seconds(),
        traced: false,
        scale: 1.0,
        dir: PathBuf::from(".bench_build/kvbench-data"),
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<f64>()
                .map_err(|e| format!("{what} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => args.seconds = number("--seconds")?,
            "--scale" => args.scale = number("--scale")?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--dir" => args.dir = PathBuf::from(value),
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(args)
}

/// The JSON document of a set of runs: the box, the settings, and each
/// workload's result object.
fn document(args: &Args, header: &envinfo::Header, results: &[(Workload, String)]) -> String {
    let runs: Vec<String> = results
        .iter()
        .map(|(w, json)| format!("    \"{}\": {json}", w.name()))
        .collect();
    format!(
        "{{\n  \"env\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"scale\": {},\n  \"trace\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        envinfo::to_json(header),
        args.seed,
        run::json_number(args.seconds),
        run::json_number(args.scale),
        u8::from(args.traced),
        runs.join(",\n")
    )
}

fn write_document(
    args: &Args,
    header: &envinfo::Header,
    results: &[(Workload, String)],
) -> Result<(), String> {
    let default = args
        .dir
        .join(format!("kvbench-trace{}.json", u8::from(args.traced)));
    let path = args.out.clone().unwrap_or(default);
    std::fs::write(&path, document(args, header, results))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("kvbench: wrote {}", path.display());
    Ok(())
}

fn run_one(args: &Args, workload: Workload) -> Result<Report, String> {
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("kvbench: still running after {HARD_LIMIT:?}; giving up without a result");
        std::process::exit(3);
    });
    std::fs::create_dir_all(&args.dir)
        .map_err(|e| format!("create {}: {e}", args.dir.display()))?;
    let header = envinfo::probe(&args.dir, args.seed);
    for (key, value) in &header {
        println!("{key:<16} {value}");
    }
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        dir: args.dir.clone(),
    };
    let report = if args.traced {
        run::per_layer(&cfg)?
    } else {
        run::end_to_end(&cfg)?
    };
    for line in &report.lines {
        println!("{line}");
    }
    if args.out.is_some() {
        write_document(args, &header, &[(workload, report.to_json())])?;
    }
    Ok(report)
}

/// Runs every workload in a fresh process of this executable, echoing
/// its output, and writes the combined document.
fn run_all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.dir)
        .map_err(|e| format!("create {}: {e}", args.dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--scale", &args.scale.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--dir")
            .arg(&args.dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!(
                "workload {} exited with {}",
                workload.name(),
                output.status
            ));
        }
        let last = stdout.lines().last().unwrap_or_default().to_string();
        let parsed =
            obs::json::parse(&last).map_err(|e| format!("workload {}: {e}", workload.name()))?;
        all_correct &= parsed.get("correct") == Some(&obs::json::Value::Bool(true));
        results.push((workload, last));
        println!();
    }
    write_document(args, &envinfo::probe(&args.dir, args.seed), &results)?;
    Ok(all_correct)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: kvbench compare <a.json> <b.json>".into());
    };
    let load = |path: &String| -> Result<obs::json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, any_worse) =
        compare::compare(&load(a)?, &load(b)?, &spec::gates(spec::BENCHMARK_JSON)?)?;
    for row in rows {
        println!("{row}");
    }
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        run_compare(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| match args.workload {
            Some(workload) => run_one(&args, workload).map(|report| {
                println!("{}", report.to_json());
                true
            }),
            None => run_all(&args),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("kvbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "ycsb_e",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::YcsbE));
        assert_eq!((a.seed, a.seconds, a.traced, a.scale), (7, 8.0, true, 1.0));
        let d = args(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.traced), (None, 42, false));
        assert!(
            d.seconds >= 1.0,
            "default comes from BENCHMARK.json run_seconds"
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--scale", "0"]).is_err());
    }

    #[test]
    fn document_parses_and_nests_the_result_objects() {
        let a = args(&["--seed", "9"]).unwrap();
        let header = vec![
            ("cpu", "a \"quoted\" model".to_string()),
            ("seed", "9".to_string()),
        ];
        let report = Report {
            correct: true,
            attempted: 5,
            failed: 0,
            metrics: vec![("ops_s", "1/s", 2.5)],
            lines: Vec::new(),
        };
        let doc = obs::json::parse(&document(
            &a,
            &header,
            &[(Workload::Fill, report.to_json())],
        ))
        .unwrap();
        assert_eq!(doc.get("seed").and_then(|s| s.as_u64()), Some(9));
        assert_eq!(
            doc.get("env")
                .and_then(|e| e.get("cpu"))
                .and_then(|c| c.as_str()),
            Some("a \"quoted\" model")
        );
        let fill = doc.get("workloads").and_then(|w| w.get("fill")).unwrap();
        assert_eq!(fill.get("attempted").and_then(|v| v.as_u64()), Some(5));
    }
}
