//! Member-fused ensemble inference — the one production forward path:
//! `costream-serve`'s workers, the placement search's `EnsembleScorer`
//! and every `Ensemble::predict_*` call run it.
//!
//! The reference path, [`crate::ensemble::Ensemble::predict_plans_arena`],
//! runs its `k` members sequentially: every member repeats the *same*
//! plan-dependent bookkeeping — encoder scatter-adds, per-wave
//! gather/segment-sum assembly of `[Σ_children ‖ own]`, target-row
//! scatters, readout pooling — because only the weights differ between
//! members. [`FusedEnsemble`] restructures that loop: the members'
//! weight matrices are stacked column-wise
//! ([`costream_nn::fused::StackedMlp`]), the hidden state becomes one
//! member-major `[nodes, k·hidden]` matrix, and each wave runs **one
//! wider matmul per layer** while all bookkeeping executes once per
//! batch instead of `k` times.
//!
//! # Bitwise identity with the sequential path
//!
//! The fused path is **bitwise identical** to
//! `Ensemble::predict_plans_arena` on the same plans:
//!
//! * every matmul preserves the sequential kernels' per-element
//!   accumulation order and dispatch tier: member-blocked calls run at
//!   the member's own output width, and the serving kernel's assign
//!   semantics, folded epilogue and row indirection are each proven
//!   bit-equal to the zero-fill / bias-pass / gather / scatter ops they
//!   replace (see `costream_nn`'s `FusedLayer` docs);
//! * the remaining bookkeeping ops (block-windowed gather/segment-sum,
//!   `segment_sum_into`, …) process each member's column block
//!   independently in the same edge order — widening the rows changes
//!   which columns travel together, not what is added to what;
//! * denormalization applies the identical per-member f32 ops, and
//!   member combination uses the identical member-ascending f64
//!   summation order ([`crate::ensemble`]'s `combine_member_major`).
//!
//! Beyond running the bookkeeping once, the fused pass also skips the
//! sequential path's per-wave state copy: group outputs depend only on
//! the wave input assembled *before* any target row is written (and
//! `h0` is kept separately for own-state gathers), so targets scatter
//! directly into the live state matrix — and the layer kernel writes
//! them there itself, so the per-group output tensor, its zero-fill and
//! the scatter pass all disappear.

use crate::ensemble::{combine_member_major, Ensemble};
use crate::graph::{Featurization, JointGraph};
use crate::model::{map_spans, ModelConfig, INFERENCE_CHUNK};
use crate::plan::BatchPlan;
use costream_dsps::CostMetric;
use costream_nn::fused::{StackedMlp, WeightPrecision};
use costream_nn::loss::{msle_inverse, sigmoid};
use costream_nn::{InferenceArena, Tensor};

/// A member-fused inference view over a trained [`Ensemble`].
///
/// Holds stacked copies of the members' weights (the members themselves
/// stay the training/golden ground truth). The ensemble stacks its
/// view once and keeps it ([`Ensemble::fused`]); every caller shares it.
#[derive(Clone, Debug)]
pub struct FusedEnsemble {
    metric: CostMetric,
    featurization: Featurization,
    config: ModelConfig,
    k: usize,
    /// Per node type, indexed like `NodeType::ALL`.
    encoders: Vec<StackedMlp>,
    updaters: Vec<StackedMlp>,
    readout: StackedMlp,
    /// Per-member `(target_mean, target_std)`.
    denorm: Vec<(f32, f32)>,
}

impl FusedEnsemble {
    /// Stacks the ensemble's members.
    pub(crate) fn build(ensemble: &Ensemble) -> Self {
        let members = ensemble.members();
        let k = members.len();
        let n_types = members[0].model().encoders().len();
        let stack_type = |pick: &dyn Fn(&crate::train::TrainedModel) -> &costream_nn::Mlp| {
            let per: Vec<_> = members.iter().map(|m| (m.model().store(), pick(m))).collect();
            StackedMlp::stack(&per, WeightPrecision::Exact)
        };
        let encoders = (0..n_types)
            .map(|t| stack_type(&move |m| &m.model().encoders()[t]))
            .collect();
        let updaters = (0..n_types)
            .map(|t| stack_type(&move |m| &m.model().updaters()[t]))
            .collect();
        let readout = stack_type(&|m| m.model().readout());
        FusedEnsemble {
            metric: ensemble.metric,
            featurization: ensemble.featurization(),
            config: *ensemble.model_config(),
            k,
            encoders,
            updaters,
            readout,
            denorm: members.iter().map(|m| m.denorm_params()).collect(),
        }
    }

    /// The metric every member predicts.
    pub fn metric(&self) -> CostMetric {
        self.metric
    }

    /// Featurization the members' graphs were built with.
    pub fn featurization(&self) -> Featurization {
        self.featurization
    }

    /// The members' shared GNN hyper-parameters.
    pub fn model_config(&self) -> &ModelConfig {
        &self.config
    }

    /// Member count.
    pub fn size(&self) -> usize {
        self.k
    }

    /// Combined ensemble prediction for prebuilt chunk plans on a
    /// caller-held arena — the fused drop-in for
    /// [`Ensemble::predict_plans_arena`] (bitwise identical).
    pub fn predict_plans_arena(&self, plans: &[BatchPlan], arena: &mut InferenceArena) -> Vec<f64> {
        let n: usize = plans.iter().map(BatchPlan::len).sum();
        let mut flat = Vec::with_capacity(n * self.k);
        for plan in plans {
            let raw = self.forward_raw(plan, arena);
            for r in 0..raw.rows() {
                for (m, &(mean, std)) in self.denorm.iter().enumerate() {
                    let z = raw.get(r, m);
                    // Identical per-member f32 ops to the sequential
                    // path's `TrainedModel::denormalize`.
                    flat.push(if self.metric.is_regression() {
                        msle_inverse(z * std + mean) as f64
                    } else {
                        sigmoid(z) as f64
                    });
                }
            }
            arena.recycle(raw);
        }
        combine_member_major(self.metric, self.k, &flat)
    }

    /// Combined prediction for prepared graphs, the body of
    /// [`Ensemble::predict_graphs`]: chunk at [`INFERENCE_CHUNK`] → plan →
    /// fused pass. Each chunk's plan is built once and serves every member
    /// in one pass; [`map_spans`] fans the chunks out, one arena per span.
    pub fn predict_graphs(&self, graphs: &[&JointGraph]) -> Vec<f64> {
        let (scheme, rounds) = (self.config.scheme, self.config.traditional_rounds);
        map_spans(graphs, |span| {
            let plans: Vec<BatchPlan> = span
                .chunks(INFERENCE_CHUNK)
                .map(|c| BatchPlan::build(c, scheme, rounds))
                .collect();
            self.predict_plans_arena(&plans, &mut InferenceArena::new())
        })
    }

    /// One fused forward pass: returns the member-major raw outputs
    /// `[n_graphs, k]` (log-space cost or logit per member). Mirrors
    /// `GnnModel::forward_inference` with every state matrix `k` members
    /// wide.
    fn forward_raw(&self, plan: &BatchPlan, arena: &mut InferenceArena) -> Tensor {
        assert_eq!(
            plan.topo.scheme, self.config.scheme,
            "plan built for a different message-passing scheme"
        );
        if plan.topo.scheme == crate::model::Scheme::Traditional {
            assert_eq!(
                plan.topo.traditional_rounds, self.config.traditional_rounds,
                "plan built for different round count"
            );
        }
        let h = self.config.hidden;
        let kh = self.k * h;
        let total = plan.topo.total;

        // The caller recycles the result last, so it is taken first: the
        // arena is a stack, and releasing in reverse order of taking hands
        // every buffer back to the same role next pass. Taken last, the
        // buffers would trade roles and each grow to the largest's size.
        let mut out = arena.alloc_scratch(plan.topo.n_graphs, self.k);

        // ---- per-type encoders: one *shared-input* pass per type
        // (features are member-independent), final layer scattered
        // straight into the k-wide h0 rows. Every node belongs to exactly
        // one type's encoder group, so the groups tile h0 completely and
        // it can start as unzeroed scratch; an assign of the encoder
        // output is bit-equal to the sequential scatter-add onto zeroed
        // rows (the output is never `-0.0`, see `FusedLayer`'s docs).
        let covered: usize = plan.topo.encoders.iter().map(|e| e.globals.len()).sum();
        let mut h0 = if covered == total {
            arena.alloc_scratch(total, kh)
        } else {
            arena.alloc_zeroed(total, kh)
        };
        for (ep, feats) in plan.topo.encoders.iter().zip(&plan.features) {
            self.encoders[ep.type_index].forward_into(arena, feats, true, None, &mut h0, Some(&ep.globals));
        }

        // ---- message passing. The wave input interleaves per member:
        // member `m` owns the contiguous `2*hidden` block
        // `[Σ_children_m ‖ own_m]`, assembled by one block-windowed
        // gather/segment-sum pass each — so the updater's first layer
        // reads each member's full reduction in one contiguous window,
        // exactly like the sequential concat input.
        let mut cur = arena.alloc_copy(&h0);
        for wave in &plan.topo.waves {
            let mut inp = arena.alloc_scratch(wave.targets.len(), 2 * kh);
            cur.gather_segment_sum_into_blocks(&wave.child_rows, &wave.segs, self.k, &mut inp, 0);
            h0.gather_rows_into_blocks(&wave.targets, self.k, &mut inp, h);

            // Each group's rows go through its type's updater MLP and
            // scatter straight into `cur` — no per-wave state copy, no
            // materialized sub-gather. Group outputs are functions of
            // `inp` (fully materialized above) and target indices are
            // unique within a wave, so overwriting target rows in place
            // equals the sequential copy+overwrite.
            for group in &wave.groups {
                let rows = if group.is_identity {
                    None
                } else {
                    Some(group.rows.as_slice())
                };
                self.updaters[group.type_index].forward_into(arena, &inp, false, rows, &mut cur, Some(&group.globals));
            }
            arena.recycle(inp);
        }

        // ---- readout: pool all node states per graph (once, k-wide),
        // then the stacked output MLP → `[n_graphs, k]`.
        let mut pooled = arena.alloc_zeroed(plan.topo.n_graphs, kh);
        cur.segment_sum_into(&plan.topo.graph_of, &mut pooled);
        self.readout.forward_into(arena, &pooled, false, None, &mut out, None);
        arena.recycle(pooled);
        arena.recycle(cur);
        arena.recycle(h0);
        out
    }
}
