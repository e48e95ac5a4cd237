//! The sequential oracle the bitwise tests hold both production passes
//! to: each model on its own, member after member, through the per-op GNN
//! chain of `costream_nn::tape` (`Tape::gnn`) — every encoder row and
//! wave update recorded op by op, nothing shared, merged or fused. The
//! training pass is held to the same chain in costream-nn's
//! `tests/wave_parity.rs`, so one independent reference stands behind
//! both.
//!
//! It is the one pass that still computes the rows nothing reads: the
//! fused pass gives a dead wave target no slot, and the training pass runs
//! no wave without a live target (in the Costream scheme the HW→OPS wave,
//! which the dataflow waves overwrite unread). The oracle runs those waves
//! anyway, as the witness that skipping them moves no bit; and it hands a
//! test the waves and weights to run the training pass or the chain over
//! every wave itself ([`waves`], [`gnn`]).
//!
//! `#[doc(hidden)]` test support: CI's oracle ratchet fails if a non-test
//! line under `crates/*/src`, `src` or `examples` outside this file and
//! costream-nn's `tape.rs` names it.

use crate::ensemble::{combine_member_major, Ensemble};
use crate::model::GnnModel;
use crate::plan::BatchPlan;
use crate::train::TrainedModel;
use costream_nn::loss::{msle_inverse, sigmoid};
use costream_nn::tape::Tape;
use costream_nn::{Gnn, WaveSpec};

/// Every wave of `plan`, in order, and whether any of its targets is live
/// — the waves the training pass runs.
pub fn waves(plan: &BatchPlan) -> impl DoubleEndedIterator<Item = (&dyn WaveSpec, bool)> {
    plan.topo.waves_with_live().map(|(w, live)| (w as &dyn WaveSpec, live))
}

/// A model's weights as the training pass reads them.
pub fn gnn(model: &GnnModel) -> Gnn<'_> {
    model.gnn()
}

/// One model's raw output per graph of `plan` (log-space cost or logit),
/// from the per-op chain over every wave of the plan.
///
/// # Panics
/// Panics when the plan was built for a different scheme.
pub fn forward(model: &GnnModel, plan: &BatchPlan) -> Vec<f32> {
    model.config().check_plan(plan);
    let mut tape = Tape::new();
    let out = tape.gnn(model.gnn(), plan, waves(plan).map(|(w, _)| w));
    tape.value(out).data().to_vec()
}

/// One trained model's predictions for chunk plans: original cost units
/// for regression metrics, probability of the positive class for
/// classification metrics.
pub fn predict_model(model: &TrainedModel, plans: &[BatchPlan]) -> Vec<f64> {
    let (mean, std) = model.denorm_params();
    plans
        .iter()
        .flat_map(|p| forward(model.model(), p))
        .map(|z| {
            if model.metric.is_regression() {
                msle_inverse(z * std + mean) as f64
            } else {
                sigmoid(z) as f64
            }
        })
        .collect()
}

/// An ensemble's combined predictions for chunk plans, member after member.
pub fn predict_ensemble(ensemble: &Ensemble, plans: &[BatchPlan]) -> Vec<f64> {
    let per_member: Vec<Vec<f64>> = ensemble.members().iter().map(|m| predict_model(m, plans)).collect();
    let flat: Vec<f64> = (0..per_member[0].len())
        .flat_map(|i| per_member.iter().map(move |p| p[i]))
        .collect();
    combine_member_major(ensemble.metric, per_member.len(), &flat)
}
