//! Latency histograms, percentiles and slice summaries.
//!
//! Latencies go into a fixed-size log-linear histogram (128 sub-buckets
//! per power of two, so a bucket is under 0.8% wide): recording is one
//! index computation and one increment, memory does not depend on how
//! many operations a run completes, and per-slice histograms merge
//! exactly into the whole-run one.

/// Sub-bucket resolution: 2^7 linear buckets per octave.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^MAX_EXP ns (~18 minutes) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// A latency histogram over nanosecond samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let ns = ns.min((1u64 << MAX_EXP) - 1);
    let exp = 63 - ns.leading_zeros();
    let shift = exp - SUB_BITS;
    (((exp - SUB_BITS + 1) as usize) << SUB_BITS) + ((ns >> shift) & (SUB - 1)) as usize
}

/// The lowest value a bucket holds and how many values it spans, ns.
fn bucket_span(index: usize) -> (f64, f64) {
    let octave = index >> SUB_BITS;
    let sub = (index & (SUB as usize - 1)) as u64;
    if octave == 0 {
        return (sub as f64, 1.0);
    }
    let shift = (octave - 1) as u32;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: vec![0; BUCKETS], total: 0 }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Forget every sample.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile in ns; `None` when empty. Within the bucket
    /// the rank falls in, samples are taken as evenly spread, so a median
    /// that stays in one bucket from run to run still reads as measured
    /// and not as that bucket's midpoint.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            let below = seen;
            seen += u64::from(count);
            if seen >= rank {
                let (low, width) = bucket_span(index);
                let into = ((rank - below) as f64 - 0.5) / f64::from(count);
                return Some(low + (width - 1.0) * into);
            }
        }
        None
    }
}

/// The percentiles a tail may be reported at.
const TAILS: [f64; 5] = [0.9, 0.99, 0.999, 0.9999, 0.99999];

/// The highest percentile that still has at least ten samples beyond it
/// among `n` samples; `None` when even p90 does not (fewer than 100).
pub fn tail_percentile(n: u64) -> Option<f64> {
    TAILS.iter().rev().copied().find(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the acceptance run
/// measures spreads that way). A single value is all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (sorted[0], sorted[0], sorted[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let scaled = i * (n + 1);
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// A sliced metric's value is the slice at this rank toward the good
/// end: of 200 slices, the 6th best. Neighbours on the host only ever
/// slow a slice down, in bursts that last seconds, so the slices near the
/// best say what the program can do and the median says what the
/// neighbours did; the very best is left out because a slice in which one
/// lane stalled flatters the other.
pub const BEST_RANK: f64 = 0.975;

/// Which end of a set of slices is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Best {
    /// Rates: the fastest slice.
    Highest,
    /// Times and costs: the cheapest slice.
    Lowest,
}

/// A metric summarized over the slices of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The metric's value: the slice (or set-up) near the best, see
    /// [`BEST_RANK`].
    pub value: f64,
    /// The median slice.
    pub median: f64,
    /// First quartile over slices.
    pub q1: f64,
    /// Third quartile over slices.
    pub q3: f64,
}

impl Summary {
    /// The slice at [`BEST_RANK`] toward the good end of per-slice
    /// values, with their median and quartiles.
    pub fn best_of(values: &[f64], best: Best) -> Self {
        let mut toward_best: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        let (q1, median, q3) = quartiles(&toward_best);
        toward_best.sort_by(|a, b| match best {
            Best::Highest => a.total_cmp(b),
            Best::Lowest => b.total_cmp(a),
        });
        let rank = (toward_best.len() as f64 * BEST_RANK).ceil() as usize;
        let value = toward_best.get(rank.saturating_sub(1)).copied().unwrap_or(f64::NAN);
        Self { value, median, q1, q3 }
    }

    /// A metric measured once over the whole run (no spread known).
    pub fn point(value: f64) -> Self {
        Self { value, median: value, q1: value, q3: value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(1_200_000), Some(0.99999));
    }

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0usize;
        for ns in [0u64, 1, 127, 128, 129, 255, 256, 1_000, 65_432, 1 << 20, (1 << 39) + 5] {
            let b = bucket_of(ns);
            assert!(b >= last, "bucket order broke at {ns}");
            last = b;
            let (low, width) = bucket_span(b);
            assert!(low <= ns as f64 && (ns as f64) < low + width, "{ns} ns is outside its bucket");
            assert!(width - 1.0 <= 0.008 * ns as f64, "{ns} ns shares a bucket {width} ns wide");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_and_merge() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for us in 1..=50u64 {
            a.record(us * 1_000);
        }
        for us in 51..=100u64 {
            b.record(us * 1_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        let p50 = a.quantile(0.5).unwrap();
        let p99 = a.quantile(0.99).unwrap();
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.01, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.01, "p99 {p99}");
        assert_eq!(Histogram::default().quantile(0.5), None);
        // A bucket 8 ns wide holding 1024..=1031: ranks spread across it.
        let mut one_bucket = Histogram::default();
        (0..4).for_each(|_| one_bucket.record(1_027));
        assert_eq!(one_bucket.quantile(0.25), Some(1_024.875));
        assert_eq!(one_bucket.quantile(1.0), Some(1_030.125));
    }

    #[test]
    fn best_of_takes_the_slice_near_the_good_end() {
        let rates: Vec<f64> = (1..=200).map(f64::from).collect();
        let fast = Summary::best_of(&rates, Best::Highest);
        assert_eq!((fast.value, fast.median), (195.0, 100.5));
        let cheap = Summary::best_of(&rates, Best::Lowest);
        assert_eq!(cheap.value, 6.0);
        // Few slices: the best one. Slices that measured nothing are skipped.
        assert_eq!(Summary::best_of(&[3.0, f64::NAN, 9.0, 5.0], Best::Highest).value, 9.0);
        assert!(Summary::best_of(&[], Best::Lowest).value.is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8], n=4) == [2.25, 4.5, 6.75]
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.25, 4.5, 6.75));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }
}
