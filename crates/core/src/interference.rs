//! Learned co-run interference model.
//!
//! The joint scorer prices a contended host by shrinking its hardware row
//! to the share of the machine a query effectively keeps. The original
//! heuristic used the query's proportional share of *resident operator
//! counts* — pricing a heavy windowed join co-resident with eight cheap
//! filters as if it got 1/9th of the host. Costream's stance is that cost
//! structure should be *measured, not guessed*: this module fits an
//! [`InterferenceModel`] from the simulator's labeled co-run corpus
//! ([`costream_dsps::corun`]) and uses it to predict each query's cost
//! inflation on a shared host.
//!
//! ## Features and fit
//!
//! Each (own, external, host) triple is embedded as a fixed-length vector:
//! a bias, log-scaled CPU/RAM/bandwidth *pressure* terms (total and
//! external demand over host capacity, per resource), the count- and
//! rate-proportional external shares, and a `N_OP_CLASSES²` table of
//! ordered operator-class-pair intensities (how much of my rate mass of
//! class *a* faces external rate mass of class *b*). The target is
//! `ln(inflation)`; the fit is ridge-regularized least squares solved by
//! normal equations with Gaussian elimination — tiny, deterministic, and
//! dependency-free. Coefficients therefore exist *per resource* (the
//! pressure terms) and *per operator-class pair* (the table), as the
//! corpus supports.

use costream_dsps::corun::{CorunSample, OpLoad, N_OP_CLASSES};
use costream_query::hardware::Host;
use serde::{Deserialize, Serialize};

/// Dimension of the interference feature vector.
pub const INTERFERENCE_DIM: usize = 9 + N_OP_CLASSES * N_OP_CLASSES;

/// Summed resource demand of a set of resident operator loads.
#[derive(Clone, Copy, Debug, Default)]
struct Demand {
    rate: f64,
    cpu_cores: f64,
    state_bytes: f64,
    egress_bytes_per_s: f64,
    count: usize,
}

fn demand(loads: &[OpLoad]) -> Demand {
    let mut d = Demand::default();
    for l in loads {
        d.rate += l.in_rate;
        d.cpu_cores += l.cpu_cores;
        d.state_bytes += l.state_bytes;
        d.egress_bytes_per_s += l.egress_bytes_per_s;
        d.count += 1;
    }
    d
}

/// The rate-weighted proportional share of a host a query keeps against
/// its co-residents: `own_rate / (own_rate + external_rate)`. This is the
/// heuristic *fallback* the scorer uses when no learned model is
/// configured — it fixes the original count-proportional bug (a heavy
/// operator now weighs as much as its rate, not as much as a filter) but
/// still guesses linearity. Returns 1.0 when nothing external is present.
pub fn rate_weighted_share(own: &[OpLoad], ext: &[OpLoad]) -> f64 {
    let own_rate: f64 = own.iter().map(|l| l.in_rate.max(1e-6)).sum();
    let ext_rate: f64 = ext.iter().map(|l| l.in_rate.max(1e-6)).sum();
    if ext_rate <= 0.0 {
        return 1.0;
    }
    own_rate / (own_rate + ext_rate)
}

/// The cost inflation the proportional-share heuristic *implies*: a query
/// keeping share `s` of the machine runs `1/s` slower. Used as the
/// baseline the learned model must beat on held-out co-runs.
pub fn proportional_inflation(own: &[OpLoad], ext: &[OpLoad]) -> f64 {
    1.0 / rate_weighted_share(own, ext).max(1e-6)
}

/// Embeds one (own, external, host) contention situation.
fn features(own: &[OpLoad], ext: &[OpLoad], host: &Host) -> Vec<f64> {
    let o = demand(own);
    let e = demand(ext);
    let cpu_cap = (host.cpu / 100.0).max(1e-6);
    let ram_cap = (host.ram_mb * 1024.0 * 1024.0).max(1.0);
    let bw_cap = (host.bandwidth_mbits * 1e6 / 8.0).max(1.0);
    let total_rate = (o.rate + e.rate).max(1e-6);

    let mut x = Vec::with_capacity(INTERFERENCE_DIM);
    x.push(1.0); // bias
    x.push(((o.cpu_cores + e.cpu_cores) / cpu_cap).ln_1p());
    x.push((e.cpu_cores / cpu_cap).ln_1p());
    x.push(((o.state_bytes + e.state_bytes) / ram_cap).ln_1p());
    x.push((e.state_bytes / ram_cap).ln_1p());
    x.push(((o.egress_bytes_per_s + e.egress_bytes_per_s) / bw_cap).ln_1p());
    x.push((e.egress_bytes_per_s / bw_cap).ln_1p());
    x.push(e.count as f64 / (o.count + e.count).max(1) as f64);
    x.push(e.rate / total_rate);
    // Ordered class-pair intensities: fraction of my rate in class a,
    // times the external rate mass of class b over the host total.
    let own_rate = o.rate.max(1e-6);
    let mut pair = [0.0f64; N_OP_CLASSES * N_OP_CLASSES];
    for a in own {
        for b in ext {
            pair[a.class.index() * N_OP_CLASSES + b.class.index()] +=
                (a.in_rate.max(1e-6) / own_rate) * (b.in_rate.max(1e-6) / total_rate);
        }
    }
    x.extend_from_slice(&pair);
    debug_assert_eq!(x.len(), INTERFERENCE_DIM);
    x
}

/// Solves `(XᵀX + λI) w = Xᵀy` by Gaussian elimination with partial
/// pivoting. Deterministic; `λ > 0` keeps the system well-conditioned
/// even when a feature column never varies in the corpus.
fn ridge_solve(rows: &[Vec<f64>], ys: &[f64], lambda: f64) -> Vec<f64> {
    let d = INTERFERENCE_DIM;
    let mut a = vec![vec![0.0f64; d + 1]; d];
    for (x, &y) in rows.iter().zip(ys) {
        for i in 0..d {
            for j in 0..d {
                a[i][j] += x[i] * x[j];
            }
            a[i][d] += x[i] * y;
        }
    }
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += lambda;
    }
    // Forward elimination with partial pivoting.
    for col in 0..d {
        let pivot = (col..d)
            .max_by(|&p, &q| a[p][col].abs().partial_cmp(&a[q][col].abs()).expect("finite"))
            .expect("non-empty");
        a.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-12 {
            continue; // regularization makes this unreachable in practice
        }
        let (pivot_rows, rest) = a.split_at_mut(col + 1);
        let pivot_row = &pivot_rows[col];
        for row in rest.iter_mut() {
            let f = row[col] / diag;
            if f == 0.0 {
                continue;
            }
            for (dst, &p) in row[col..=d].iter_mut().zip(&pivot_row[col..=d]) {
                *dst -= f * p;
            }
        }
    }
    // Back substitution.
    let mut w = vec![0.0f64; d];
    for col in (0..d).rev() {
        let mut v = a[col][d];
        for c in col + 1..d {
            v -= a[col][c] * w[c];
        }
        w[col] = if a[col][col].abs() < 1e-12 {
            0.0
        } else {
            v / a[col][col]
        };
    }
    w
}

/// A fitted co-run interference model: predicts the cost inflation a
/// query suffers on a shared host from its own and its co-residents'
/// operator loads. Plug into [`crate::joint::JointSearchProblem`] via the
/// `interference` knob to replace the proportional-share fallback.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    weights: Vec<f64>,
}

impl InterferenceModel {
    /// Fits the model on a labeled co-run corpus with ridge strength
    /// `lambda` (on `ln(inflation)` targets).
    ///
    /// # Panics
    /// Panics on an empty corpus.
    pub fn fit(samples: &[CorunSample], lambda: f64) -> Self {
        assert!(!samples.is_empty(), "cannot fit on an empty corpus");
        let rows: Vec<Vec<f64>> = samples.iter().map(|s| features(&s.own, &s.ext, &s.host)).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.inflation.clamp(0.25, 1e4).ln()).collect();
        InterferenceModel {
            weights: ridge_solve(&rows, &ys, lambda),
        }
    }

    /// Builds a model directly from raw weights (tests, serialization
    /// round-trips, serve goldens with pinned coefficients).
    ///
    /// # Panics
    /// Panics if `weights.len() != INTERFERENCE_DIM`.
    pub fn from_weights(weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), INTERFERENCE_DIM, "weight dimension mismatch");
        InterferenceModel { weights }
    }

    /// The fitted coefficient vector (bias, per-resource pressure terms,
    /// shares, then the row-major class-pair table) — what the fit-replay
    /// tests compare bitwise.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Raw model output: predicted inflation `exp(w·x)`, unclamped below
    /// 1 — used for fit-quality evaluation against measured labels.
    pub fn predict_inflation_raw(&self, own: &[OpLoad], ext: &[OpLoad], host: &Host) -> f64 {
        let x = features(own, ext, host);
        let z: f64 = self.weights.iter().zip(&x).map(|(w, v)| w * v).sum();
        z.clamp(-16.0, 16.0).exp()
    }

    /// Predicted inflation for *pricing*: clamped to `[1, 1e4]` so a
    /// contended host can never look better than an uncontended one.
    pub fn predict_inflation(&self, own: &[OpLoad], ext: &[OpLoad], host: &Host) -> f64 {
        self.predict_inflation_raw(own, ext, host).clamp(1.0, 1e4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costream_dsps::corun::{generate_corpus, CorunConfig, OpClass};

    fn load(class: OpClass, rate: f64) -> OpLoad {
        OpLoad {
            class,
            in_rate: rate,
            cpu_cores: rate * 0.0001,
            state_bytes: 0.0,
            egress_bytes_per_s: 0.0,
        }
    }

    #[test]
    fn rate_weighted_share_tracks_rates_not_counts() {
        let own = vec![load(OpClass::Join, 9000.0)];
        // Nine cheap filters with negligible rate.
        let ext: Vec<OpLoad> = (0..9).map(|_| load(OpClass::Filter, 10.0)).collect();
        let s = rate_weighted_share(&own, &ext);
        assert!(s > 0.98, "heavy join keeps nearly the whole host: {s}");
        // The old count share would have given 1/10th.
        let count_share = 1.0 / 10.0;
        assert!(s > 5.0 * count_share);
    }

    #[test]
    fn fit_is_deterministic_and_recovers_signal() {
        let cfg = CorunConfig {
            scenarios: 24,
            ..CorunConfig::default()
        };
        let corpus = generate_corpus(&cfg);
        let a = InterferenceModel::fit(&corpus, 1.0);
        let b = InterferenceModel::fit(&corpus, 1.0);
        assert_eq!(a, b, "fit must be deterministic");
        // In-sample, the learned predictions must correlate with labels
        // better than a constant-1 predictor.
        let host = corpus[0].host;
        let _ = a.predict_inflation(&corpus[0].own, &corpus[0].ext, &host);
        let mse_model: f64 = corpus
            .iter()
            .map(|s| {
                let p = a.predict_inflation_raw(&s.own, &s.ext, &s.host).ln();
                let y = s.inflation.clamp(0.25, 1e4).ln();
                (p - y) * (p - y)
            })
            .sum::<f64>()
            / corpus.len() as f64;
        let mse_unit: f64 = corpus
            .iter()
            .map(|s| {
                let y = s.inflation.clamp(0.25, 1e4).ln();
                y * y
            })
            .sum::<f64>()
            / corpus.len() as f64;
        assert!(
            mse_model < mse_unit,
            "fit must beat no-inflation: {mse_model} vs {mse_unit}"
        );
    }

    #[test]
    fn pricing_prediction_never_rewards_contention() {
        let corpus = generate_corpus(&CorunConfig {
            scenarios: 8,
            ..CorunConfig::default()
        });
        let m = InterferenceModel::fit(&corpus, 1.0);
        for s in &corpus {
            let p = m.predict_inflation(&s.own, &s.ext, &s.host);
            assert!((1.0..=1e4).contains(&p), "pricing inflation clamped: {p}");
        }
    }

    #[test]
    fn weights_round_trip_through_serde() {
        let m = InterferenceModel::from_weights(vec![0.01; INTERFERENCE_DIM]);
        let json = serde_json::to_string(&m).expect("serialize");
        let back: InterferenceModel = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(m, back);
    }
}
