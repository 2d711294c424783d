//! Small statistics helpers: quantiles, the tail percentile a sample
//! supports, goodput and the set-up time.

/// Quantile `q` of `sorted` (ascending, non-empty) by linear
/// interpolation between closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Tail percentiles considered, in parts per ten thousand.
const TAILS: [u64; 4] = [9_000, 9_900, 9_990, 9_999];

/// The highest of p90, p99, p99.9 and p99.99 that has at least ten of
/// `n` samples beyond it, as a fraction; `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    TAILS.iter().rev().find(|&&p| n - (n * p).div_ceil(10_000) >= 10).map(|&p| p as f64 / 10_000.0)
}

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered after `latency_ns`, measured from the scheduled send
    /// time; `correct` if every label equals the serial reference.
    Answered { latency_ns: u64, correct: bool },
    /// Refused at admission (`Overloaded`).
    Rejected,
    /// Any other error.
    Failed,
}

impl Outcome {
    /// Whether the request counts as a failed operation.
    pub fn failed(&self) -> bool {
        !matches!(self, Outcome::Answered { correct: true, .. })
    }
}

/// Requests per second of `window_s` answered correctly within
/// `limit_ns`. Rejected, failed and wrong answers are misses.
pub fn goodput_rps(outcomes: &[Outcome], limit_ns: u64, window_s: f64) -> f64 {
    let good = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Answered { latency_ns, correct: true } if *latency_ns <= limit_ns))
        .count();
    good as f64 / window_s
}

/// The quantile of repeated deploys that [`setup_s`] reports.
pub const SETUP_QUANTILE: f64 = 0.1;

/// Set-up time: the 10th percentile of repeated deploys, in seconds.
///
/// Other tenants of a shared host slow the CPU by up to half for
/// stretches of seconds to minutes, so one deploy's time is bimodal and
/// the mix of the two modes, and with it the median, drifts from run to
/// run. The 10th percentile stays with the unhindered mode whenever a
/// tenth of the deploys get it, and still ignores the odd lucky one.
pub fn setup_s(deploy_s: &[f64]) -> f64 {
    quantile(&sorted(deploy_s), SETUP_QUANTILE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
        for n in [100usize, 1_000, 10_000, 123_456] {
            let p = tail_percentile(n).expect("enough samples");
            let beyond = n - (n as f64 * p).ceil() as usize;
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn goodput_counts_rejected_failed_and_wrong_as_misses() {
        let ms = 1_000_000;
        let outcomes = [
            Outcome::Answered { latency_ns: 2 * ms, correct: true },
            Outcome::Answered { latency_ns: 10 * ms, correct: true },
            Outcome::Answered { latency_ns: 11 * ms, correct: true },
            Outcome::Answered { latency_ns: ms, correct: false },
            Outcome::Rejected,
            Outcome::Failed,
        ];
        assert_eq!(goodput_rps(&outcomes, 10 * ms, 2.0), 1.0);
        let failed: Vec<bool> = outcomes.iter().map(Outcome::failed).collect();
        assert_eq!(failed, [false, false, false, true, true, true]);
    }

    #[test]
    fn setup_is_the_tenth_percentile_of_its_deploys() {
        let deploys: Vec<f64> = (1..=11).rev().map(|i| i as f64 / 100.0).collect();
        assert!((setup_s(&deploys) - 0.02).abs() < 1e-12);
        // Bimodal deploys: the slow mode holds the median, not setup_s.
        let mut bimodal = vec![0.15; 17];
        bimodal.extend([0.10; 5]);
        assert_eq!(median(&bimodal), 0.15);
        assert!((setup_s(&bimodal) - 0.10).abs() < 1e-12);
        assert_eq!(setup_s(&[0.2]), 0.2);
    }
}
