//! Order statistics on raw samples.
//!
//! Every number the benchmark reports comes from here: nearest-rank
//! quantiles (a reported value is always one that was measured, never an
//! interpolation or a histogram bucket edge), the median with its
//! interquartile range, the slow decile a run reports of its reps'
//! throughputs, and the tail percentile the choosing-metrics rule asks
//! for — the highest percentile that still has at least ten samples
//! beyond it.

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The highest percentile ever reported as a tail.
pub const MAX_TAIL_PERCENTILE: u32 = 99;

/// Nearest-rank quantile `q` in `[0, 1]` of already sorted samples: the
/// smallest sample with at least `q·n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sorts a copy of `samples` (NaN-free by construction: timings and
/// ratios of positive counts).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median, quartiles and sample count of one set of samples.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub median: f64,
    /// Nearest-rank first quartile.
    pub q1: f64,
    /// Nearest-rank third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let s = sorted(samples);
        Some(Summary {
            n: s.len(),
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
        })
    }

    /// Interquartile range `q3 − q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// The slow decile of per-rep `rates`: the rate that at most a tenth of
/// them (rounded down) fall below, i.e. the nearest-rank p10 of the
/// reps. `None` when there are none.
///
/// This is what a run reports of its per-rep throughputs. On the shared
/// virtual machines the sizes were chosen on, the same single-threaded
/// rep ran up to 1.9× faster, in CPU time too, in the stretches of
/// seconds when the rest of the host was quiet. A run's median lands in
/// whichever speed held for more than half of it, so medians of runs
/// flip between the two; the slow decile stays on the contended speed
/// unless the host was quiet for nine tenths of the run.
pub fn slow_decile(rates: &[f64]) -> Option<f64> {
    sorted(rates).get(rates.len() / 10).copied()
}

/// Nearest rank (1-based) of whole percentile `p` among `n` samples, in
/// exact integer arithmetic.
fn percentile_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).clamp(1, n.max(1))
}

/// The highest whole percentile (at most [`MAX_TAIL_PERCENTILE`]) that
/// leaves at least [`TAIL_SAMPLES_BEYOND`] of `n` samples strictly above
/// its nearest rank. `None` when even the median would not.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=MAX_TAIL_PERCENTILE)
        .rev()
        .find(|&p| n >= percentile_rank(p, n) + TAIL_SAMPLES_BEYOND)
}

/// The tail of `samples`: `(percentile, value)` per [`tail_percentile`].
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let p = tail_percentile(samples.len())?;
    Some((p, sorted(samples)[percentile_rank(p, samples.len()) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.1), 1.0);
        assert_eq!(quantile_sorted(&s, 0.11), 2.0);
        assert_eq!(quantile_sorted(&s, 0.5), 5.0);
        assert_eq!(quantile_sorted(&s, 0.99), 10.0);
        assert_eq!(quantile_sorted(&s, 1.0), 10.0);
        assert_eq!(quantile_sorted(&[7.5], 0.3), 7.5);
    }

    #[test]
    fn summary_median_and_iqr() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.iqr(), 2.0);
        assert!(Summary::of(&[]).is_none());
        let one = Summary::of(&[2.5]).unwrap();
        assert_eq!((one.median, one.iqr()), (2.5, 0.0));
    }

    #[test]
    fn slow_decile_leaves_a_tenth_worse() {
        let s: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        // Two of twenty samples are slower than the value reported.
        assert_eq!(slow_decile(&s), Some(3.0));
        // Fewer than ten: the slowest sample.
        assert_eq!(slow_decile(&s[..9]), Some(12.0));
        assert_eq!(slow_decile(&[]), None);
        // A fast stretch covering most of a run does not move it: 14
        // reps at 140, 6 near 76, of which the two slowest lie below.
        let mut reps = vec![140.0; 14];
        reps.extend([76.0, 77.0, 75.0, 78.0, 76.5, 74.0]);
        assert_eq!(slow_decile(&reps), Some(76.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1000 samples: p99 has exactly ten beyond it.
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99), "capped at p99");
        // 999 samples: p99's rank is 990, nine beyond; p98 leaves 19.
        assert_eq!(tail_percentile(999), Some(98));
        // 200 samples: p95 (rank 190) leaves ten.
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in [20usize, 37, 120, 264, 999, 1000, 2500] {
            let p = tail_percentile(n).unwrap();
            assert!(
                n - percentile_rank(p, n) >= TAIL_SAMPLES_BEYOND,
                "n {n} p {p}"
            );
            if p < MAX_TAIL_PERCENTILE {
                assert!(n - percentile_rank(p + 1, n) < TAIL_SAMPLES_BEYOND, "n {n}");
            }
        }
    }

    #[test]
    fn tail_value_is_the_ranked_sample() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail(&samples), Some((95, 190.0)));
        assert!(tail(&samples[..10]).is_none());
    }
}
