//! The environment header printed above every result and stored in the
//! JSON document, so rows from different boxes are never compared blind
//! (KVLite's `print_environment`, extended with the storage env's kind
//! and its fsync cost — a 2-core box and a slow disk change every number).

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use sstable::env::{StdEnv, StorageEnv};

/// (key, value) pairs, in print order.
pub type Header = Vec<(&'static str, String)>;

fn first_line_of(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Median microseconds of 50 append-4-KiB-then-sync calls through
/// `StdEnv` in `dir`.
fn fsync_probe_us(dir: &Path) -> f64 {
    let path = dir.join(format!("fsync-probe-{}", std::process::id()));
    let Ok(mut file) = StdEnv.create_writable(&path) else {
        return 0.0;
    };
    let block = [0x5au8; 4096];
    let mut us: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let _ = file.append(&block);
            let _ = file.sync();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(file);
    let _ = std::fs::remove_file(&path);
    crate::stats::median(&mut us)
}

/// Probes the box. `dir` is where the stores will live.
pub fn probe(dir: &Path, seed: u64) -> Header {
    let ram_gib = first_line_of("/proc/meminfo", "MemTotal")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / (1 << 20) as f64);
    vec![
        (
            "cpu",
            first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("ram_gib", format!("{ram_gib:.1}")),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        ),
        ("rustc", tool_line("rustc", &["--version"])),
        (
            "commit",
            tool_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("seed", seed.to_string()),
        ("env", "StdEnv, sync=false".to_string()),
        ("filesystem", filesystem_of(dir)),
        ("fsync_probe_us", format!("{:.1}", fsync_probe_us(dir))),
    ]
}

/// The header as one JSON object.
pub fn to_json(header: &Header) -> String {
    let fields: Vec<String> = header
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_names_the_box_and_parses() {
        let dir = std::env::temp_dir();
        let header = probe(&dir, 42);
        let keys: Vec<&str> = header.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "cpu",
                "nproc",
                "ram_gib",
                "kernel",
                "rustc",
                "commit",
                "seed",
                "env",
                "filesystem",
                "fsync_probe_us"
            ]
        );
        assert!(header.iter().all(|(_, v)| !v.is_empty()));
        let parsed = obs::json::parse(&to_json(&header)).unwrap();
        assert_eq!(parsed.get("seed").and_then(|s| s.as_str()), Some("42"));
    }
}
