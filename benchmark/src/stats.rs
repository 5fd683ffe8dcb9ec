//! Log-bucket histogram, percentiles, median and quartiles.

/// Sub-buckets per power of two: 128 gives every bucket a width of at
/// most 1/128 of its lower edge (0.8 %), and percentiles interpolate
/// inside the bucket.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// A fixed-size histogram of `u64` samples (nanoseconds, usually):
/// exact below 128, then 128 buckets per octave.
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.count).field("max", &self.max).finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = (msb - SUB_BITS + 1) as u64;
    let sub = (v >> (msb - SUB_BITS)) - SUB;
    (octave * SUB + sub) as usize
}

/// Lower edge and width of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, 1);
    }
    let octave = b / SUB;
    let sub = b % SUB;
    let shift = octave - 1;
    ((SUB + sub) << shift, 1 << shift)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; ((64 - SUB_BITS + 1) as u64 * SUB) as usize],
            count: 0,
            max: 0,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// The sample of rank `ceil(p * count)` (nearest-rank percentile,
    /// `p` in `[0, 1]`), interpolated inside its bucket and never above
    /// the exact maximum. 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, width) = bucket_range(b);
                let within = (rank - seen) as f64 / n as f64;
                let v = lo as f64 + within * (width - 1) as f64;
                return v.min(self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }

    /// Non-empty buckets as `(lower_edge, count)`, for the trace file.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (bucket_range(b).0, n))
            .collect()
    }
}

/// Median as Python's `statistics.median` computes it. 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// computes them — the rule the acceptance check uses. With fewer than
/// two values both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A metric's samples reduced the way every report shows them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the median of the samples, unless the
    /// metric says otherwise (`cpu_ns_per_msg` on the simulator
    /// reports the first quartile).
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Reduces `values` (at least one).
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary { value: median(values), q1, q3, n: values.len() }
    }

    /// A single exact value (a count, or a simulated-clock figure that
    /// repeats bit for bit).
    pub fn exact(v: f64) -> Summary {
        Summary { value: v, q1: v, q3: v, n: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps_or_overlap() {
        let mut expect_lo = 0u64;
        for b in 0..(20 * SUB as usize) {
            let (lo, width) = bucket_range(b);
            assert_eq!(lo, expect_lo, "bucket {b} starts where the previous ended");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(lo + width - 1), b);
            expect_lo = lo + width;
        }
        assert_eq!(bucket_of(u64::MAX), Histogram::new().buckets.len() - 1);
    }

    #[test]
    fn small_values_are_exact_and_large_ones_within_a_percent() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.50), 50.0);
        assert_eq!(h.percentile(0.99), 99.0);
        assert_eq!(h.percentile(1.0), 100.0);

        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(1_000_000 + i * 100); // 1.0 ms .. 2.0 ms, uniform
        }
        for (p, exact) in [(0.5, 1_500_000.0), (0.9, 1_900_000.0), (0.99, 1_990_000.0)] {
            let got = h.percentile(p);
            assert!((got - exact).abs() / exact < 0.01, "p{p}: {got} vs {exact}");
        }
        assert_eq!(h.percentile(1.0), 1_999_900.0, "never above the exact maximum");
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 900, 70_000, 5_000_000] {
            a.record(v);
            all.record(v);
        }
        for v in [8u64, 1_000_000_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.nonzero_buckets(), all.nonzero_buckets());
        assert_eq!(a.percentile(0.5), all.percentile(0.5));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.99), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median([5, 1, 3]) == 3; median([4, 1, 3, 2]) == 2.5
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 45, 50], n=4) == [15.0, 30.0, 47.5]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 45.0, 50.0]), (15.0, 47.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_carries_median_quartiles_and_count() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Summary::of(&ten), Summary { value: 5.5, q1: 2.75, q3: 8.25, n: 10 });
        assert_eq!(Summary::exact(3.0), Summary { value: 3.0, q1: 3.0, q3: 3.0, n: 1 });
    }
}
