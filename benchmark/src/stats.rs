//! Order statistics for the ledger: medians, the best tail of a run's
//! iterations, the highest percentile a sample can support, and Jain's
//! fairness index.

use crate::spec::Better;

/// Median of `xs` (sorted in place). Panics on an empty slice: every
/// caller has at least one timed iteration.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of an already sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Share of a run's samples at or beyond the one [`best_tail`] picks.
const BEST_TAIL: f64 = 0.05;

/// The sample of `xs` (sorted in place) 5% in from the end `better` names,
/// nearest rank: the 5th percentile of a time, the 95th of a rate — the
/// 3rd best of 50 iterations, the 2nd best of 14, the best of 7 set-ups.
///
/// This is what a run reports for every timing. The sandbox is a microVM
/// on a shared host. What its neighbours do to code that is not a single
/// dependent chain only ever slows an iteration, by up to half, in bursts
/// of seconds inside shifts of minutes; a register-only spin loop does
/// not see it. Ten minutes of back-to-back `sessionize_constrained`
/// iterations cut into 16 s runs: the runs' medians spread 14% between
/// their quartiles and 19% of them sat more than 10% above the typical
/// run; their 5th percentiles spread 7% and 5% of them sat that high.
/// One fast sample is not trusted either, so it is not the minimum.
pub fn best_tail(xs: &mut [f64], better: Better) -> f64 {
    assert!(!xs.is_empty(), "best tail of no samples");
    xs.sort_by(f64::total_cmp);
    percentile_sorted(
        xs,
        match better {
            Better::Lower => BEST_TAIL,
            Better::Higher => 1.0 - BEST_TAIL,
        },
    )
}

/// Tail percentiles the ledger may report, highest first, in per mille
/// (integers, so "ten samples beyond" is exact).
const TAILS_PER_MILLE: [usize; 4] = [999, 990, 950, 900];

/// The highest tail percentile with at least ten samples beyond it, or
/// `None` when the sample supports only a median (fewer than 100 samples).
pub fn highest_supported_tail(samples: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .into_iter()
        .find(|p| samples * (1000 - p) / 1000 >= 10)
        .map(|p| p as f64 / 1000.0)
}

/// A timing as the ledger prints it: median, sample count, and the tail
/// percentile the count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Number of samples.
    pub n: usize,
    /// `(p, value)` of the highest supported tail percentile.
    pub tail: Option<(f64, f64)>,
}

/// Summarise `xs` (sorted in place).
pub fn summarize(xs: &mut [f64]) -> Summary {
    let median = median(xs);
    Summary {
        median,
        n: xs.len(),
        tail: highest_supported_tail(xs.len()).map(|p| (p, percentile_sorted(xs, p))),
    }
}

/// Jain's fairness index: 1.0 when every sample is equal, 1/n when one
/// sample holds everything.
pub fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (xs.len() as f64 * sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn best_tail_is_five_percent_in_from_the_better_end() {
        let mut times: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(best_tail(&mut times, Better::Lower), 3.0);
        assert_eq!(best_tail(&mut times, Better::Higher), 48.0);
        let mut few: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(best_tail(&mut few, Better::Lower), 2.0);
        // Seven set-ups: the fastest one.
        assert_eq!(
            best_tail(&mut [0.6, 0.4, 0.5, 0.7, 0.45, 0.8, 0.9], Better::Lower),
            0.4
        );
        assert_eq!(best_tail(&mut [2.0], Better::Higher), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // Batch iterations: a median and nothing else.
        assert_eq!(highest_supported_tail(9), None);
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.90));
        // 200 tenants: exactly ten samples lie beyond p95.
        assert_eq!(highest_supported_tail(199), Some(0.90));
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_median_count_and_tail() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&mut xs);
        assert_eq!(s.n, 200);
        assert_eq!(s.median, 100.5);
        assert_eq!(s.tail, Some((0.95, 190.0)));
        assert_eq!(summarize(&mut [5.0, 7.0, 6.0]).tail, None);
    }

    #[test]
    fn jain_is_one_when_even_and_one_over_n_when_not() {
        assert!((jain(&[2.0, 2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
    }
}
