//! The benchmark's own arithmetic: percentiles with the tail rule,
//! medians, and failure accounting.

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    highest_reportable(samples, &[]).1
}

/// A timing's tail: the highest of p99, p90 and p75 that has at least
/// ten samples beyond it, as `(percent, value)`. With too few samples for
/// any of them the median stands in, reported as percent 50 (0 for no
/// samples).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    highest_reportable(samples, &[0.99, 0.9, 0.75])
}

fn highest_reportable(samples: &[f64], quantiles: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (50.0, 0.0);
    }
    for &q in quantiles {
        if beyond(v.len(), q) >= 10 {
            return (q * 100.0, percentile(&v, q));
        }
    }
    (50.0, percentile(&v, 0.5))
}

/// Why one operation (a submission or a request) failed.
#[derive(Clone, Debug, PartialEq)]
pub enum Failure {
    /// The simulator refused: a `SimError` or an `OpenLoopError`.
    Sim(String),
    /// The simulator finished but an output disagreed with `linalg-ref`.
    Check(String),
}

/// Operations attempted and failed over a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub sim_failed: u64,
    pub check_failed: u64,
    /// The first failure, for the run's diagnostics.
    pub first: Option<Failure>,
}

impl Tally {
    /// Count `n` operations that share one outcome.
    pub fn record(&mut self, n: u64, outcome: Result<(), Failure>) {
        self.attempted += n;
        if let Err(f) = outcome {
            match f {
                Failure::Sim(_) => self.sim_failed += n,
                Failure::Check(_) => self.check_failed += n,
            }
            self.first.get_or_insert(f);
        }
    }

    pub fn failed(&self) -> u64 {
        self.sim_failed + self.check_failed
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

/// `num / den`, or `empty` when nothing was measured.
pub fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 90.0));
        // 99 samples: p90 has only nine beyond it, so p75 is reported.
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&ninety_nine), (75.0, 75.0));
        // 1000 samples reach p99; 30 fall back to the median.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (99.0, 990.0));
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&thirty), (50.0, 15.0));
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn failed_frac_counts_check_and_sim_failures_alike() {
        let mut t = Tally::default();
        t.record(1, Ok(()));
        t.record(1, Err(Failure::Check("L differs".into())));
        t.record(2, Err(Failure::Sim("bus conflict".into())));
        t.record(4, Ok(()));
        assert_eq!(t.attempted, 8);
        assert_eq!((t.check_failed, t.sim_failed), (1, 2));
        assert_eq!(t.failed(), 3);
        assert!((t.failed_frac() - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(t.first, Some(Failure::Check("L differs".into())));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
