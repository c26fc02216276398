//! Lock-cheap metric primitives.
//!
//! All three metric kinds are plain relaxed atomics: recording is a
//! handful of `fetch_add`s with no locking, so they are safe to update
//! from hot paths (per-get latency, per-block cache probes). Snapshots
//! are *not* atomic across fields — they are observability reads, not
//! linearizable state.
//!
//! Counters and histograms are *striped*: each holds `STRIPES` (8)
//! copies of its cells, a cache line apart, a thread records into the
//! copy its thread number names, and a read adds the copies up. Two
//! threads recording into one metric therefore write different cache
//! lines (a `lsm.get_micros` shared by every reader used to bounce
//! between their cores five times a get), and every read returns what
//! one shared cell would have held.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Copies of each counter and histogram. More threads than this share
/// stripes round-robin, which is still correct — the cells are atomic.
const STRIPES: usize = 8;

/// One stripe's cells on cache lines of their own. 128 bytes: x86
/// prefetches lines in adjacent pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe<T>(T);

/// The stripe the calling thread records into: threads are numbered in
/// the order they first record anything.
fn stripe() -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [Stripe<AtomicU64>; STRIPES],
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.stripes[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0, |sum, s| sum.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

/// Last-write-wins instantaneous value, with a high-watermark helper.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-watermark gauges).
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets: bucket `i` holds values whose bit
/// length is `i`, i.e. bucket 0 is exactly `{0}` and bucket `i >= 1`
/// covers `[2^(i-1), 2^i - 1]`. 65 buckets span the full `u64` range.
const BUCKETS: usize = 65;

/// Fixed-bucket histogram over `u64` samples (latencies in micros,
/// batch sizes, byte counts...). Power-of-two buckets keep recording at
/// one `leading_zeros` plus a few relaxed atomics on the recording
/// thread's stripe, and quantiles are estimated by linear interpolation
/// inside the target bucket.
#[derive(Debug, Default)]
pub struct Histogram {
    stripes: [Stripe<HistogramCells>; STRIPES],
}

/// What one stripe has seen.
#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, rounded down; zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let cells = &self.stripes[stripe()].0;
        cells.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(v, Ordering::Relaxed);
        // `fetch_min` / `fetch_max` are compare-exchange loops: only a
        // sample that extends the range pays for one.
        if v < cells.min.load(Ordering::Relaxed) {
            cells.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > cells.max.load(Ordering::Relaxed) {
            cells.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.stripes.iter().fold(0, |sum, s| {
            sum.wrapping_add(s.0.sum.load(Ordering::Relaxed))
        })
    }

    /// Samples per bucket, over all stripes.
    fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut counts = [0u64; BUCKETS];
        for stripe in &self.stripes {
            for (slot, bucket) in counts.iter_mut().zip(stripe.0.buckets.iter()) {
                *slot += bucket.load(Ordering::Relaxed);
            }
        }
        counts
    }

    /// Summarizes the current contents, including p50/p95/p99.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.bucket_counts();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return HistogramSnapshot::default();
        }
        let cells = || self.stripes.iter().map(|s| &s.0);
        let min = cells()
            .map(|c| c.min.load(Ordering::Relaxed))
            .min()
            .unwrap_or(u64::MAX);
        let max = cells()
            .map(|c| c.max.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        let q = |quantile_num: u64, quantile_den: u64| -> u64 {
            // 1-based rank of the requested quantile, rounded up
            // (widened so huge counts cannot overflow the product).
            let rank = ((count as u128 * quantile_num as u128).div_ceil(quantile_den as u128)
                as u64)
                .max(1);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if seen + c >= rank {
                    // Interpolate linearly inside bucket i, clamped to
                    // the observed min/max so sparse histograms do not
                    // report impossible values.
                    let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                    let hi = if i == 0 {
                        0
                    } else if i >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << i) - 1
                    };
                    let into = rank - seen; // 1..=c
                    let est = lo + ((hi - lo) / c).saturating_mul(into);
                    return est.clamp(min, max);
                }
                seen += c;
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min,
            max,
            p50: q(50, 100),
            p95: q(95, 100),
            p99: q(99, 100),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.set_max(3); // lower: ignored
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn histogram_single_value() {
        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 42);
        assert_eq!(s.min, 42);
        assert_eq!(s.max, 42);
        assert_eq!(s.p50, 42);
        assert_eq!(s.p99, 42);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p50 >= s.min && s.p99 <= s.max);
        // p50 of uniform 1..=1000 lives in bucket [512, 1000]; the
        // bucket estimate is coarse but must land in a sane band.
        assert!(s.p50 >= 256 && s.p50 <= 768, "p50={}", s.p50);
        assert!(s.p99 >= 512, "p99={}", s.p99);
    }

    #[test]
    fn histogram_zero_and_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p50, 0);
        assert_eq!(s.p99, u64::MAX);
    }

    /// Deterministic spread of samples over many buckets, zero included.
    fn samples() -> Vec<u64> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..4_000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 97 == 0 {
                    0
                } else {
                    x >> (x % 60)
                }
            })
            .collect()
    }

    /// Striping changes where a sample is stored, never what a read
    /// returns: the same samples recorded from 1, 2, 4 and 8 threads (so
    /// into as many stripes) read back exactly as when one thread — one
    /// stripe, which is the unstriped arithmetic — recorded them all.
    #[test]
    fn striped_reads_equal_unstriped_reads() {
        let samples = samples();
        let (one_h, one_c) = (Histogram::new(), Counter::new());
        for &v in &samples {
            one_h.record(v);
            one_c.add(v);
        }
        let expect = one_h.snapshot();
        assert_eq!(expect.count, samples.len() as u64);
        assert_eq!(
            expect.sum,
            samples.iter().fold(0u64, |s, &v| s.wrapping_add(v))
        );
        assert_eq!(expect.min, 0);
        assert_eq!(expect.max, *samples.iter().max().unwrap());

        for threads in [1usize, 2, 4, 8] {
            let (h, c) = (Histogram::new(), Counter::new());
            std::thread::scope(|s| {
                for part in samples.chunks(samples.len().div_ceil(threads)) {
                    let (h, c) = (&h, &c);
                    s.spawn(move || {
                        for &v in part {
                            h.record(v);
                            c.add(v);
                        }
                    });
                }
            });
            assert_eq!(h.snapshot(), expect, "{threads} threads");
            assert_eq!((h.count(), h.sum()), (expect.count, expect.sum));
            assert_eq!(c.get(), one_c.get(), "{threads} threads");
        }
    }

    #[test]
    fn snapshot_mean() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(h.snapshot().mean(), 15);
        assert_eq!(HistogramSnapshot::default().mean(), 0);
    }
}
