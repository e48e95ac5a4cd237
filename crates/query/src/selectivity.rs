//! Selectivity estimation.
//!
//! The selectivities of Definitions 6–8 are *features* of the cost model
//! but are unknown before execution; the paper relies on sample-based
//! estimators \[31\]. We model the estimator explicitly as the true
//! selectivity perturbed by multiplicative log-normal noise, so experiments
//! can control how wrong the estimates are (and the default training data
//! carries realistic, imperfect selectivity features).

use crate::operators::{OpKind, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A noisy sample-based selectivity estimator.
pub struct SelectivityEstimator {
    rng: StdRng,
    /// Standard deviation of the log-normal relative error; 0 gives exact
    /// estimates.
    sigma: f64,
}

impl SelectivityEstimator {
    /// Creates an estimator with the given seed and relative error level.
    pub fn new(seed: u64, sigma: f64) -> Self {
        assert!(sigma >= 0.0);
        SelectivityEstimator {
            rng: StdRng::seed_from_u64(seed),
            sigma,
        }
    }

    /// A realistic default: ~15% relative error.
    pub fn realistic(seed: u64) -> Self {
        Self::new(seed, 0.15)
    }

    /// Estimates one selectivity value, clamped to `[1e-6, 1]`.
    pub fn estimate(&mut self, true_selectivity: f64) -> f64 {
        if self.sigma == 0.0 {
            return true_selectivity.clamp(1e-6, 1.0);
        }
        // Box–Muller standard normal.
        let u1: f64 = self.rng.gen_range(1e-12..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (true_selectivity * (self.sigma * z).exp()).clamp(1e-6, 1.0)
    }

    /// Estimated selectivity per operator of `query` (1.0 for operators
    /// without a selectivity: sources and sinks).
    pub fn estimate_query(&mut self, query: &Query) -> Vec<f64> {
        query
            .ops()
            .map(|(_, op)| match op {
                OpKind::Filter(f) => self.estimate(f.selectivity),
                OpKind::WindowJoin(j) => self.estimate(j.selectivity),
                OpKind::WindowAggregate(a) => self.estimate(a.selectivity),
                OpKind::Source(_) | OpKind::Sink => 1.0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_estimator_is_identity() {
        let mut e = SelectivityEstimator::new(0, 0.0);
        for s in [0.001, 0.5, 1.0] {
            assert_eq!(e.estimate(s), s);
        }
    }

    #[test]
    fn noisy_estimates_stay_in_unit_interval() {
        let mut e = SelectivityEstimator::new(1, 0.5);
        for _ in 0..1000 {
            let v = e.estimate(0.5);
            assert!((1e-6..=1.0).contains(&v));
        }
    }

    #[test]
    fn noise_is_unbiased_in_log_space() {
        let mut e = SelectivityEstimator::new(2, 0.15);
        let n = 5000;
        let mean_log: f64 = (0..n).map(|_| e.estimate(0.1).ln()).sum::<f64>() / n as f64;
        assert!((mean_log - (0.1f64).ln()).abs() < 0.02, "mean log {mean_log}");
    }

    #[test]
    fn estimate_query_covers_all_ops() {
        use crate::generator::WorkloadGenerator;
        use crate::ranges::FeatureRanges;
        let mut g = WorkloadGenerator::new(3, FeatureRanges::training());
        let q = g.query();
        let mut e = SelectivityEstimator::realistic(4);
        let sels = e.estimate_query(&q);
        assert_eq!(sels.len(), q.len());
        assert!(sels.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }
}
