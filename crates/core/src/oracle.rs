//! The sequential oracle the bitwise tests hold the one production pass
//! ([`crate::fused`]) to: each model node by node, member after member,
//! through the `costream_nn::wave` routines the training pass chains —
//! every encoder row and wave update, nothing shared or merged.
//!
//! It is the one pass that still computes the rows nothing reads: the
//! fused pass gives a dead wave target no slot, and the training pass runs
//! no wave without a live target (in the Costream scheme the HW→OPS wave,
//! which the dataflow waves overwrite unread). The oracle runs those waves
//! anyway, as the witness that skipping them moves no bit; and it hands a
//! test the waves and weights to run the training pass over every wave
//! itself ([`waves`], [`gnn`]).
//!
//! `#[doc(hidden)]` test support: CI fails if a non-test line under
//! `crates/*/src`, `src` or `examples` outside this file names it.

use crate::ensemble::{combine_member_major, Ensemble};
use crate::model::GnnModel;
use crate::plan::BatchPlan;
use crate::train::TrainedModel;
use costream_nn::loss::{msle_inverse, sigmoid};
use costream_nn::wave::{encode_scatter, wave_update};
use costream_nn::{Gnn, InferenceArena, Tensor, WaveSpec};

/// Every wave of `plan`, in order, and whether any of its targets is live
/// — the waves the training pass runs.
pub fn waves(plan: &BatchPlan) -> impl DoubleEndedIterator<Item = (&dyn WaveSpec, bool)> {
    plan.topo.waves_with_live().map(|(w, live)| (w as &dyn WaveSpec, live))
}

/// A model's weights as the training pass reads them.
pub fn gnn(model: &GnnModel) -> Gnn<'_> {
    model.gnn()
}

/// One model's raw output per graph of `plan` (log-space cost or logit).
///
/// # Panics
/// Panics when the plan was built for a different scheme.
pub fn forward(model: &GnnModel, plan: &BatchPlan, arena: &mut InferenceArena) -> Vec<f32> {
    model.config().check_plan(plan);
    let (store, h) = (model.store(), model.config().hidden);
    let h0 = encode_scatter(plan, model.encoders(), store, plan.topo.total, h, arena, None);
    let mut cur: Option<Tensor> = None;
    for wave in &plan.topo.waves {
        let before = cur.as_ref().unwrap_or(&h0);
        let after = wave_update(wave, model.updaters(), store, before, &h0, arena, None);
        if let Some(before) = cur.replace(after) {
            arena.recycle(before);
        }
    }
    let mut pooled = arena.alloc_zeroed(plan.topo.n_graphs, h);
    cur.as_ref()
        .unwrap_or(&h0)
        .segment_sum_into(&plan.topo.graph_of, &mut pooled);
    let out = model.readout().forward_inference(arena, store, &pooled);
    let result = out.data().to_vec();
    for t in [out, pooled].into_iter().chain(cur).chain([h0]) {
        arena.recycle(t);
    }
    result
}

/// One trained model's predictions for chunk plans: original cost units
/// for regression metrics, probability of the positive class for
/// classification metrics.
pub fn predict_model(model: &TrainedModel, plans: &[BatchPlan], arena: &mut InferenceArena) -> Vec<f64> {
    let (mean, std) = model.denorm_params();
    plans
        .iter()
        .flat_map(|p| forward(model.model(), p, arena))
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
pub fn predict_ensemble(ensemble: &Ensemble, plans: &[BatchPlan], arena: &mut InferenceArena) -> Vec<f64> {
    let per_member: Vec<Vec<f64>> = ensemble
        .members()
        .iter()
        .map(|m| predict_model(m, plans, arena))
        .collect();
    let flat: Vec<f64> = (0..per_member[0].len())
        .flat_map(|i| per_member.iter().map(move |p| p[i]))
        .collect();
    combine_member_major(ensemble.metric, per_member.len(), &flat)
}
