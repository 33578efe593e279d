//! Small order statistics over measured samples.

use std::time::{Duration, Instant};

use gc_trace::Histogram;

/// The median of `xs` (the mean of the middle pair for an even count), or
/// 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `xs`, or 0 for no samples.
pub fn quantile(xs: &[u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The `q`-quantile of a `gc_trace` histogram, interpolated linearly
/// inside the bucket that holds it.
///
/// `Histogram::quantile` answers with a bucket's midpoint, so a figure
/// read from it moves in steps of up to 1/16 of its magnitude and can read
/// the same on every run. This recovers the rank range of that bucket
/// from the same public `quantile` (each rank `r` of `n` samples is
/// `quantile((r - 0.5) / n)`), takes the bucket's bounds from the
/// histogram's layout (exact below 16, then 16 linear buckets per power of
/// two) and places the target rank uniformly inside it.
pub fn histogram_quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let at_rank = |r: u64| h.quantile((r as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let value = at_rank(rank);
    if value < 16 || value == h.max() {
        return value as f64;
    }
    // First and last rank whose sample lies in `value`'s bucket.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at_rank(mid) < value {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at_rank(mid) > value {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let width = (1u64 << (63 - value.leading_zeros() - 4)) as f64;
    let lower = value as f64 - width / 2.0;
    let within = (rank - first) as f64 + 0.5;
    lower + width * within / (last - first + 1) as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// How long each set-up slice repeats its build.
const SETUP_SLICE: Duration = Duration::from_millis(20);

/// Set-up times gathered in slices across a run. Before each unit of
/// timed work (and once after the last) a workload rebuilds its set-up
/// repeatedly for a short slice, so the reported median spans the whole
/// run instead of one moment of a noisy host.
#[derive(Debug, Default)]
pub struct SetupTimes {
    secs: Vec<f64>,
}

impl SetupTimes {
    /// Runs `build` for one slice (at least once), timing each call, and
    /// returns the last value built. Earlier values are dropped outside
    /// the timed window.
    pub fn slice<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let start = Instant::now();
        let mut last = None;
        while last.is_none() || start.elapsed() < SETUP_SLICE {
            drop(last.take());
            let t = Instant::now();
            let value = build();
            self.secs.push(t.elapsed().as_secs_f64());
            last = Some(value);
        }
        last.expect("at least one build")
    }

    /// The median build time, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.secs)
    }

    /// Builds timed so far.
    pub fn builds(&self) -> usize {
        self.secs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[5, 1, 4, 2, 3], 0.5), 3);
        assert_eq!(quantile(&(1..=100).collect::<Vec<_>>(), 0.99), 99);
        assert_eq!(quantile(&[], 0.99), 0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let h = Histogram::new();
        for v in 1_000..2_000u64 {
            h.record(v);
        }
        // Buckets are 64 wide here; the plain quantile is a midpoint.
        let p50 = histogram_quantile(&h, 0.5);
        assert!((p50 - 1_499.5).abs() < 2.0, "p50 {p50}");
        let p90 = histogram_quantile(&h, 0.9);
        assert!((p90 - 1_899.5).abs() < 2.0, "p90 {p90}");
        assert_eq!(histogram_quantile(&Histogram::new(), 0.5), 0.0);
        let small = Histogram::new();
        small.record(7);
        assert_eq!(histogram_quantile(&small, 0.99), 7.0);
    }

    #[test]
    fn setup_slices_keep_the_last_build() {
        let mut setup = SetupTimes::default();
        let mut n = 0;
        let last = setup.slice(|| {
            n += 1;
            n
        });
        assert_eq!(last, n);
        assert_eq!(setup.builds(), n);
        assert!(setup.median_s() >= 0.0);
    }
}
