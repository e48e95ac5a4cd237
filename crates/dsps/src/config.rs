//! Simulation configuration: the paper's measurement protocol (§VII).
//!
//! The protocol's fixed parts are constants: the fluid engine's tick
//! ([`TICK_S`]), the per-operator queue bound ([`QUEUE_CAPACITY`]) and the
//! backpressure tolerance ([`BACKPRESSURE_THRESHOLD`]). [`SimConfig`] holds
//! only what callers vary: how long a run lasts, its warm-up, its noise and
//! its seed.

use serde::{Deserialize, Serialize};

/// Fluid-simulation tick length in seconds.
pub const TICK_S: f64 = 0.5;

/// Per-operator input queue capacity in tuples (Storm's executor queues
/// plus max-spout-pending in-flight tuples; overflow pushes back to the
/// broker). Queued tuples live on the worker's heap, so sustained
/// backpressure also creates memory pressure — the paper's "backpressure
/// ... leading to delays and even query crashes".
pub const QUEUE_CAPACITY: f64 = 100_000.0;

/// Fraction of desired ingest above which a stream counts as
/// backpressured (Definition 4 measures the queued-tuple rate R at the
/// broker; real deployments show residual jitter, so a small tolerance
/// separates "noise" from real backpressure).
pub const BACKPRESSURE_THRESHOLD: f64 = 0.01;

/// Configuration of one simulated query execution.
///
/// The defaults mirror the paper's measurement protocol (§VII): queries run
/// for 4 minutes of stream time with labels collected after a warm-up
/// period, long enough for several window emissions and for the broker's
/// rate control to settle. A run that ends before its warm-up does (any
/// `duration_s` not above `warmup_s`, NaN and negative ones included), and
/// a run that never ends (an infinite `duration_s`), measures nothing and
/// reports failed metrics.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated execution time in seconds.
    pub duration_s: f64,
    /// Warm-up period excluded from latency/throughput measurement.
    pub warmup_s: f64,
    /// Log-normal noise applied per run to operator service costs,
    /// emulating run-to-run variance of a real cluster. 0 disables noise.
    pub cost_noise_sigma: f64,
    /// Log-normal noise applied to the measured labels (throughput and
    /// latencies), emulating measurement error. 0 disables noise.
    pub label_noise_sigma: f64,
    /// RNG seed for the noise processes.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration_s: 240.0,
            warmup_s: 30.0,
            cost_noise_sigma: 0.08,
            label_noise_sigma: 0.04,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// A deterministic configuration without any noise, for tests and
    /// analytical comparisons.
    pub fn deterministic() -> Self {
        SimConfig {
            cost_noise_sigma: 0.0,
            label_noise_sigma: 0.0,
            ..Default::default()
        }
    }

    /// Returns a copy with a different seed (the corpus generator runs one
    /// simulation per workload item with item-specific seeds).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of simulation ticks: none for a non-finite duration, which
    /// would otherwise saturate to `usize::MAX` ticks and never return.
    pub fn ticks(&self) -> usize {
        if !self.duration_s.is_finite() {
            return 0;
        }
        (self.duration_s / TICK_S).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runs_four_minutes() {
        let c = SimConfig::default();
        assert_eq!(c.duration_s, 240.0);
        assert_eq!(c.ticks(), 480);
    }

    #[test]
    fn deterministic_has_no_noise() {
        let c = SimConfig::deterministic();
        assert_eq!(c.cost_noise_sigma, 0.0);
        assert_eq!(c.label_noise_sigma, 0.0);
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let c = SimConfig::default().with_seed(99);
        assert_eq!(c.seed, 99);
        assert_eq!(c.duration_s, SimConfig::default().duration_s);
    }
}
