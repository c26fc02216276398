//! Exact order statistics, the clients' latency logs with the quiet set
//! the time metrics are read from, and the process counters the harness
//! reads.

use std::path::Path;
use std::time::{Duration, Instant};

/// Exact `q`-quantile (0 < q <= 1) of `sorted`, nearest-rank: the
/// smallest sample with at least `q` of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Client-observed latency summary over exact per-op samples.
pub struct Latency {
    /// Samples summarized.
    pub count: usize,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
}

/// Sorts `samples_ns` in place and summarizes them.
pub fn latency(samples_ns: &mut [u32]) -> Latency {
    samples_ns.sort_unstable();
    let us = |q: f64| percentile(samples_ns, q).map_or(0.0, |ns| f64::from(ns) / 1e3);
    let sum: u64 = samples_ns.iter().map(|&ns| u64::from(ns)).sum();
    Latency {
        count: samples_ns.len(),
        mean_us: sum as f64 / 1e3 / samples_ns.len().max(1) as f64,
        p50_us: us(0.50),
        p99_us: us(0.99),
        p999_us: us(0.999),
    }
}

/// Nanoseconds of `d`, saturated into a latency sample.
pub fn sample_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// One client's latency samples in issue order, and where each window
/// of the timed phase begins in them.
pub struct ClientLog {
    samples_ns: Vec<u32>,
    /// Per window of the phase: the index of the first sample answered in
    /// it or later.
    windows: Vec<usize>,
    t0: Instant,
    window_ns: u64,
}

impl ClientLog {
    /// A log for up to `ops` operations of a phase that began at `t0` (the
    /// same instant for every client) and is cut into windows of `window`.
    pub fn new(ops: usize, t0: Instant, window: Duration) -> ClientLog {
        ClientLog {
            samples_ns: Vec::with_capacity(ops),
            windows: Vec::new(),
            t0,
            window_ns: (window.as_nanos() as u64).max(1),
        }
    }

    /// Records a correct operation issued at `start` and answered at `end`.
    pub fn record(&mut self, start: Instant, end: Instant) {
        let window = ((end - self.t0).as_nanos() as u64 / self.window_ns) as usize;
        if window >= self.windows.len() {
            self.windows.resize(window + 1, self.samples_ns.len());
        }
        self.samples_ns.push(sample_ns(end - start));
    }

    /// Correct operations recorded.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// Windows this client ran through to their end.
    fn full_windows(&self) -> usize {
        self.windows.len().saturating_sub(1)
    }

    /// The samples answered in full window `w`.
    fn window(&self, w: usize) -> &[u32] {
        &self.samples_ns[self.windows[w]..self.windows[w + 1]]
    }
}

/// What one timed phase did.
#[derive(Default)]
pub struct Timed {
    /// Operations the op stream holds; ones never reached count as failed.
    pub attempted: u64,
    /// Errored, wrong-valued or never-reached operations.
    pub failed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Every client thread's or connection's log.
    pub clients: Vec<ClientLog>,
    /// Correct operations by kind.
    pub gets: u64,
    pub puts: u64,
    pub scans: u64,
}

impl Timed {
    /// Correct operations the clients recorded.
    pub fn recorded(&self) -> u64 {
        self.clients.iter().map(|c| c.len() as u64).sum()
    }

    /// Latency of every correct operation, nanoseconds, client after
    /// client.
    pub fn samples_ns(&self) -> Vec<u32> {
        self.clients
            .iter()
            .flat_map(|c| c.samples_ns.iter().copied())
            .collect()
    }

    pub fn correct_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Correct operations per second of the whole phase.
    pub fn ops_s(&self) -> f64 {
        self.correct_ops() as f64 / self.wall_s
    }

    /// Process CPU time per correct operation of the whole phase.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.correct_ops().max(1) as f64
    }
}

/// Share of a phase's cells that make up its quiet set.
pub const QUIET_SHARE: f64 = 0.02;
/// Fewest operations in a quiet set, so that ten lie beyond its p99.
pub const QUIET_MIN_OPS: usize = 1000;

/// The time metrics of a phase's quiet set. A cell is what one client
/// answered in one window; the quiet set is the `QUIET_SHARE` of the
/// cells that hold the most operations (more, if it takes more to reach
/// `QUIET_MIN_OPS`), among cells in which every other client got at least
/// half as much done - a client running alone is not the workload.
///
/// On a shared host neighbours slow each of the box's cores in bursts,
/// for a share of the run that differs from run to run. They only ever
/// take time away, so the cells that got the most done are the ones that
/// ran undisturbed, and figures taken over them repeat where whole-run
/// figures do not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiet {
    /// Cells in the quiet set, and cells that counted (0: the phase was
    /// shorter than a window and is summarized whole).
    pub cells: usize,
    pub of: usize,
    /// Operations answered in the quiet set.
    pub ops: usize,
    /// Operations per second the clients together sustain at the quiet
    /// set's pace: clients x ops / (cells x window).
    pub ops_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Picks the quiet set of `timed` and summarizes it.
pub fn quiet(timed: &Timed) -> Quiet {
    // Windows every client ran through: the first and last moments of a
    // phase, when some clients are not running yet or any more, fall out.
    let full = timed
        .clients
        .iter()
        .map(ClientLog::full_windows)
        .min()
        .unwrap_or(0);
    // (operations, window, client) of every cell that counts.
    let mut cells: Vec<(usize, usize, usize)> = (0..full)
        .flat_map(|w| {
            let answered: Vec<usize> = timed.clients.iter().map(|c| c.window(w).len()).collect();
            let least = answered.iter().copied().min().unwrap_or(0);
            answered
                .into_iter()
                .enumerate()
                .filter(move |&(_, ops)| ops > 0 && least * 2 >= ops)
                .map(move |(client, ops)| (ops, w, client))
        })
        .collect();
    if cells.is_empty() {
        let lat = latency(&mut timed.samples_ns());
        return Quiet {
            cells: 0,
            of: 0,
            ops: lat.count,
            ops_s: timed.ops_s(),
            p50_us: lat.p50_us,
            p99_us: lat.p99_us,
        };
    }
    cells.sort_by_key(|&(ops, w, client)| (std::cmp::Reverse(ops), w, client));
    let share = (cells.len() as f64 * QUIET_SHARE).ceil() as usize;
    let mut pool = Vec::new();
    let mut kept = 0;
    for &(_, w, client) in &cells {
        if kept >= share && pool.len() >= QUIET_MIN_OPS {
            break;
        }
        pool.extend_from_slice(timed.clients[client].window(w));
        kept += 1;
    }
    let cell_seconds = kept as f64 * timed.clients[0].window_ns as f64 / 1e9;
    let lat = latency(&mut pool);
    Quiet {
        cells: kept,
        of: cells.len(),
        ops: pool.len(),
        ops_s: timed.clients.len() as f64 * pool.len() as f64 / cell_seconds,
        p50_us: lat.p50_us,
        p99_us: lat.p99_us,
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 (utime, stime) in clock ticks; the command name
    // (field 2) may contain spaces, so count from the closing paren.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let ticks = tick() + tick();
    // USER_HZ is 100 on every Linux ABI this harness targets.
    ticks as f64 / 100.0
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: count samples <= candidate, smallest candidate whose
    /// share reaches q.
    fn reference(sorted: &[u32], q: f64) -> u32 {
        *sorted
            .iter()
            .find(|&&c| {
                let at_or_below = sorted.iter().filter(|&&s| s <= c).count();
                at_or_below as f64 >= q * sorted.len() as f64
            })
            .unwrap()
    }

    #[test]
    fn percentile_matches_sorted_reference() {
        let mut rng = simkit::SplitMix64::new(11);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut v: Vec<u32> = (0..n).map(|_| rng.next_below(50) as u32).collect();
            v.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(percentile(&v, q), Some(reference(&v, q)), "n={n} q={q}");
            }
        }
        assert_eq!(percentile::<u32>(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn latency_summary_uses_exact_samples() {
        let mut ns: Vec<u32> = (1..=1000).map(|i| i * 1000).collect();
        let l = latency(&mut ns);
        assert_eq!(l.count, 1000);
        assert_eq!(l.p50_us, 500.0);
        assert_eq!(l.p99_us, 990.0);
        assert_eq!(l.p999_us, 999.0);
        assert!((l.mean_us - 500.5).abs() < 1e-9);
    }

    const WINDOW: Duration = Duration::from_millis(1);

    /// A client that answers `per_window[w].0` operations of
    /// `per_window[w].1` nanoseconds each, evenly spaced, in window `w`.
    fn client(t0: Instant, per_window: &[(usize, u32)]) -> ClientLog {
        let mut log = ClientLog::new(0, t0, WINDOW);
        for (w, &(ops, ns)) in per_window.iter().enumerate() {
            for i in 0..ops {
                let end = t0 + WINDOW * w as u32 + WINDOW * i as u32 / ops as u32;
                log.record(end - Duration::from_nanos(ns.into()), end);
            }
        }
        log
    }

    fn timed(clients: Vec<ClientLog>) -> Timed {
        let ops = clients.iter().map(|c| c.len() as u64).sum();
        Timed {
            attempted: ops,
            wall_s: 1.0,
            clients,
            ..Timed::default()
        }
    }

    #[test]
    fn quiet_set_is_the_busiest_cells() {
        // 4 busy windows among 200; the last one only closes window 199.
        let mut layout = vec![(100, 5000); 201];
        layout[20..24].fill((400, 1000));
        let t0 = Instant::now() + Duration::from_secs(1);
        let q = quiet(&timed(vec![client(t0, &layout)]));
        assert_eq!((q.cells, q.of, q.ops), (4, 200, 1600));
        assert_eq!((q.p50_us, q.p99_us), (1.0, 1.0));
        assert!((q.ops_s - 400_000.0).abs() < 1e-6, "{}", q.ops_s);
    }

    #[test]
    fn quiet_set_grows_until_it_can_hold_a_p99() {
        let t0 = Instant::now() + Duration::from_secs(1);
        let q = quiet(&timed(vec![client(t0, &vec![(50, 1000); 201])]));
        assert_eq!((q.cells, q.ops), (QUIET_MIN_OPS / 50, QUIET_MIN_OPS));
    }

    #[test]
    fn a_client_running_alone_is_not_in_the_quiet_set() {
        // Windows 0..4: the first client answers the most it ever does
        // while the second answers nothing. Windows 10..14: both busy.
        let mut first = vec![(100, 5000); 201];
        first[0..4].fill((500, 1000));
        first[10..14].fill((300, 2000));
        let mut second = vec![(100, 5000); 201];
        second[0..4].fill((0, 0));
        second[10..14].fill((300, 2000));
        let t0 = Instant::now() + Duration::from_secs(1);
        let q = quiet(&timed(vec![client(t0, &first), client(t0, &second)]));
        assert_eq!((q.cells, q.of, q.ops), (8, 2 * 196, 2400));
        assert_eq!(q.p50_us, 2.0);
        assert!((q.ops_s - 600_000.0).abs() < 1e-6, "{}", q.ops_s);
    }

    #[test]
    fn a_phase_shorter_than_a_window_is_summarized_whole() {
        let t0 = Instant::now() + Duration::from_secs(1);
        let run = timed(vec![client(t0, &[(10, 3000)])]);
        let q = quiet(&run);
        assert_eq!((q.cells, q.of, q.ops), (0, 0, 10));
        assert_eq!(q.p50_us, 3.0);
        assert_eq!(q.ops_s, run.ops_s());
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
