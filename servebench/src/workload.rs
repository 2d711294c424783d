//! The workloads and the inputs each draws from its seed: the held-out
//! query pool, the arrival schedule and the query stream.

use crate::fixtures::{Fixture, DEEP, LIGHT};
use rfx_core::splitmix64;
use rfx_data::{specs::DatasetSpec, DatasetKind};
use rfx_forest::Dataset;
use std::time::Duration;

/// Distinct held-out rows per run; requests draw from this pool.
pub const POOL_ROWS: usize = 32_768;

/// Load applied before measurement starts, at the measured rate.
pub const WARMUP: Duration = Duration::from_secs(1);

/// A single request counts toward goodput only if answered correctly
/// within this limit: five times the default 2 ms batch deadline.
pub const GOODPUT_LIMIT: Duration = Duration::from_millis(10);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SinglesLight,
    SinglesHeavy,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SinglesLight, Workload::SinglesHeavy];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SinglesLight => "singles-light",
            Workload::SinglesHeavy => "singles-heavy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The forest this workload deploys.
    pub fn fixture(self) -> Fixture {
        match self {
            Workload::SinglesLight => LIGHT,
            Workload::SinglesHeavy => DEEP,
        }
    }

    /// Open-loop Poisson arrivals of single rows per second.
    pub fn rate_per_s(self) -> f64 {
        match self {
            Workload::SinglesLight => 2_000.0,
            // An eighth of the rate the deep forest sustains on an idle
            // 2-vCPU host. At a fifth and above, the service fell behind
            // without bound whenever other tenants took a quarter of the
            // CPU.
            Workload::SinglesHeavy => 2_500.0,
        }
    }
}

/// A seeded stream of uniform 64-bit values (splitmix64 over a counter).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `purpose`, independent of the other purposes drawn
    /// from the same workload seed.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(purpose)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in (0, 1].
    pub fn unit_open0(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const POOL: u64 = 1;
const SCHEDULE: u64 = 2;
const STREAM: u64 = 3;
const WARMUP_SCHEDULE: u64 = 4;

/// Held-out Susy-like rows drawn from the workload seed. Training uses
/// the dataset's fixed generator seed, so these rows are unseen by the
/// forest but follow the same distribution, and their path lengths match
/// real traffic.
pub fn query_pool(seed: u64, rows: usize) -> Dataset {
    DatasetSpec {
        kind: DatasetKind::SusyLike,
        num_samples: rows,
        seed: Rng::new(seed, POOL).next_u64(),
    }
    .generate()
}

/// Due times, in nanoseconds after the start, of Poisson arrivals at
/// `rate_per_s`: `rate × warmup` of them in the warm-up, then exactly
/// `rate × span` in the measured window that follows it.
pub fn arrival_schedule(seed: u64, rate_per_s: f64, warmup: Duration, span: Duration) -> Vec<u64> {
    let mut due = poisson_arrivals(&mut Rng::new(seed, WARMUP_SCHEDULE), rate_per_s, warmup);
    let offset = warmup.as_nanos() as u64;
    let measured = poisson_arrivals(&mut Rng::new(seed, SCHEDULE), rate_per_s, span);
    due.extend(measured.into_iter().map(|t| t + offset));
    due
}

/// A Poisson process at `rate_per_s` over `span`, conditioned on exactly
/// `rate × span` arrivals: the normalized prefix sums of exponential gaps
/// are the order statistics of that many uniform points, so every seed
/// offers the same request count.
fn poisson_arrivals(rng: &mut Rng, rate_per_s: f64, span: Duration) -> Vec<u64> {
    let n = (rate_per_s * span.as_secs_f64()).round() as usize;
    let mut sums = Vec::with_capacity(n + 1);
    let mut total = 0.0f64;
    for _ in 0..=n {
        total += -rng.unit_open0().ln();
        sums.push(total);
    }
    let span_ns = span.as_nanos() as f64;
    sums.truncate(n);
    sums.into_iter().map(|s| (s / total * span_ns) as u64).collect()
}

/// The pool row each of `n` requests sends, uniform over `0..choices`.
pub fn query_stream(seed: u64, n: usize, choices: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, STREAM);
    (0..n).map(|_| rng.below(choices) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_inputs() {
        let (warm, span) = (Duration::from_millis(100), Duration::from_millis(500));
        assert_eq!(
            arrival_schedule(7, 2_000.0, warm, span),
            arrival_schedule(7, 2_000.0, warm, span)
        );
        assert_eq!(query_stream(7, 1_000, POOL_ROWS), query_stream(7, 1_000, POOL_ROWS));
        let (a, b) = (query_pool(7, 64), query_pool(7, 64));
        assert_eq!(a.raw_features(), b.raw_features());
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (warm, span) = (Duration::from_millis(100), Duration::from_millis(500));
        assert_ne!(
            arrival_schedule(7, 2_000.0, warm, span),
            arrival_schedule(8, 2_000.0, warm, span)
        );
        assert_ne!(query_stream(7, 1_000, POOL_ROWS), query_stream(8, 1_000, POOL_ROWS));
        assert_ne!(query_pool(7, 64).raw_features(), query_pool(8, 64).raw_features());
    }

    #[test]
    fn schedule_is_sorted_inside_the_span_with_the_nominal_count() {
        let (warm, span) = (Duration::from_millis(200), Duration::from_secs(2));
        let due = arrival_schedule(3, 1_500.0, warm, span);
        assert_eq!(due.len(), 300 + 3_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let warm_ns = warm.as_nanos() as u64;
        assert_eq!(due.partition_point(|&t| t < warm_ns), 300);
        assert!(*due.last().expect("non-empty") < warm_ns + span.as_nanos() as u64);
        // Poisson: about half the measured arrivals fall in each half.
        let mid = warm_ns + span.as_nanos() as u64 / 2;
        let first_half = due.iter().filter(|&&t| (warm_ns..mid).contains(&t)).count();
        assert!((1_350..1_650).contains(&first_half), "{first_half}");
    }

    #[test]
    fn query_pool_is_held_out_susy_like() {
        let pool = query_pool(1, 128);
        assert_eq!(pool.num_rows(), 128);
        assert_eq!(pool.num_features(), DatasetKind::SusyLike.paper_features());
        let train = DatasetSpec::scaled(DatasetKind::SusyLike, 128).generate();
        assert_ne!(pool.raw_features(), train.raw_features());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bulk-deep"), None);
    }
}
