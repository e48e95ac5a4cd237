//! Loss functions.
//!
//! Each function evaluates the scalar loss for a column of predictions and
//! returns the gradient seed `d(loss)/d(pred)` to feed into
//! [`Tape::backward`](crate::tape::Tape::backward).
//!
//! The paper trains the regression metrics (throughput and the two
//! latencies) with the *Mean Squared Logarithmic Error* because their value
//! ranges span several orders of magnitude (§IV-A). We follow the standard
//! stable parameterization: the network predicts in `log1p` space and
//! training applies plain [`mse`] there, so
//! `loss = mean((log1p(y) - z)^2)` with `z` the raw network output. The
//! prediction in original units is `expm1(z)` ([`msle_inverse`]).

use crate::tensor::Tensor;

/// Result of a loss evaluation: the scalar loss and the gradient seed.
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// `d(loss)/d(predictions)`, same shape as the prediction column.
    pub seed: Tensor,
}

fn check(pred: &Tensor, targets: &[f32]) {
    assert_eq!(pred.cols(), 1, "losses expect an N x 1 prediction column");
    assert_eq!(pred.rows(), targets.len(), "one target per prediction row");
    assert!(!targets.is_empty(), "empty batch");
}

/// Mean squared error between raw predictions and targets.
pub fn mse(pred: &Tensor, targets: &[f32]) -> LossOutput {
    mse_into(pred, targets, Tensor::zeros(pred.rows(), 1))
}

/// [`mse`] writing the gradient seed into `seed`, a caller-provided
/// `rows x 1` buffer (every cell is overwritten) — a training loop draws
/// it from [`Tape::arena`](crate::tape::Tape::arena), where
/// [`Tape::backward`](crate::tape::Tape::backward) returns it to.
pub fn mse_into(pred: &Tensor, targets: &[f32], mut seed: Tensor) -> LossOutput {
    check(pred, targets);
    assert_eq!(seed.shape(), pred.shape(), "seed shape mismatch");
    let n = targets.len() as f32;
    let mut loss = 0.0;
    for (i, &t) in targets.iter().enumerate() {
        let d = pred.get(i, 0) - t;
        loss += d * d / n;
        seed.set(i, 0, 2.0 * d / n);
    }
    LossOutput { loss, seed }
}

/// Converts a `log1p`-space prediction back into original units, clamped to
/// be non-negative and finite.
pub fn msle_inverse(pred_log: f32) -> f32 {
    // exp can overflow f32 for badly initialized models; clamp the input.
    pred_log.clamp(-20.0, 60.0).exp_m1().max(0.0)
}

/// Binary cross-entropy on logits with targets in {0, 1}.
///
/// Uses the numerically stable formulation
/// `max(z, 0) - z*t + ln(1 + exp(-|z|))`.
pub fn bce_with_logits(pred: &Tensor, targets: &[f32]) -> LossOutput {
    bce_with_logits_into(pred, targets, Tensor::zeros(pred.rows(), 1))
}

/// [`bce_with_logits`] writing the gradient seed into a caller-provided
/// `rows x 1` buffer, like [`mse_into`].
pub fn bce_with_logits_into(pred: &Tensor, targets: &[f32], mut seed: Tensor) -> LossOutput {
    check(pred, targets);
    assert_eq!(seed.shape(), pred.shape(), "seed shape mismatch");
    let n = targets.len() as f32;
    let mut loss = 0.0;
    for (i, &t) in targets.iter().enumerate() {
        let z = pred.get(i, 0);
        debug_assert!(t == 0.0 || t == 1.0, "BCE targets must be binary");
        loss += (z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln()) / n;
        let p = 1.0 / (1.0 + (-z).exp());
        seed.set(i, 0, (p - t) / n);
    }
    LossOutput { loss, seed }
}

/// Logistic sigmoid of a logit — the predicted probability of class 1.
pub fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_perfect_prediction_is_zero() {
        let pred = Tensor::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let out = mse(&pred, &[1.0, 2.0, 3.0]);
        assert_eq!(out.loss, 0.0);
        assert!(out.seed.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_gradient_sign() {
        let pred = Tensor::from_vec(1, 1, vec![2.0]);
        let out = mse(&pred, &[1.0]);
        assert!(out.seed.get(0, 0) > 0.0, "over-prediction must push down");
        assert!((out.loss - 1.0).abs() < 1e-6);
    }

    #[test]
    fn msle_inverse_roundtrip() {
        for y in [0.0f32, 0.5, 10.0, 12345.0] {
            let z = (1.0 + y).ln();
            assert!((msle_inverse(z) - y).abs() < 1e-2 * (1.0 + y));
        }
        assert_eq!(msle_inverse(-100.0), 0.0);
        assert!(msle_inverse(1e9).is_finite());
    }

    #[test]
    fn bce_loss_and_gradient() {
        let pred = Tensor::from_vec(2, 1, vec![0.0, 0.0]);
        let out = bce_with_logits(&pred, &[1.0, 0.0]);
        // logit 0 => p=0.5 => loss = ln 2 for both
        assert!((out.loss - (2.0f32).ln()).abs() < 1e-5);
        assert!(out.seed.get(0, 0) < 0.0);
        assert!(out.seed.get(1, 0) > 0.0);
    }

    #[test]
    fn bce_stable_for_large_logits() {
        let pred = Tensor::from_vec(2, 1, vec![100.0, -100.0]);
        let out = bce_with_logits(&pred, &[1.0, 0.0]);
        assert!(out.loss.is_finite());
        assert!(out.loss < 1e-6);
    }

    #[test]
    fn sigmoid_extremes() {
        assert!(sigmoid(50.0) > 0.999);
        assert!(sigmoid(-50.0) < 0.001);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }
}
