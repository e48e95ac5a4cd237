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
//! # One state row per distinct node state
//!
//! The fused pass does not run the plan node by node. It runs a
//! hash-consed slot schedule (`crate::plan`'s module docs): a candidate
//! batch from a placement search repeats most of its encoder rows and
//! wave updates, and each distinct one is one *slot*; a wave update that
//! nothing reads (in the Costream scheme, every HW→OPS update) gets none.
//! The state is one `[slots, k·hidden]` matrix in which every slot is
//! written exactly once — encoders and updaters compute only the new
//! distinct rows, through `StackedMlp::forward_into`'s input and output
//! row maps straight into their slots; a wave assembles inputs for its new
//! distinct targets only; the readout pools each node's final slot per
//! graph. There is no `h0` copy and no per-wave state copy: a wave's new
//! slots are read by later waves only, so the layer kernel writes them in
//! place.
//!
//! Where the matrix lives follows the memo's lifetime. A plan's own
//! one-batch schedule ([`FusedEnsemble::predict_plans_arena`], the serving
//! path) runs on a matrix of this pass, taken from and returned to the
//! arena. A search's memo keeps one matrix per ensemble across the search's
//! batches: each batch writes only the slots no earlier batch computed, at
//! the rows the memo gave them, and reads the rest where earlier batches
//! left them. That is why the memo must not outlive its search — its rows
//! are this ensemble's states, and only this scorer's.
//!
//! The result is still bitwise the sequential path's. Every kernel row is
//! one single-accumulator chain over its own input row, so a row computed
//! once — in this batch or an earlier one — and read by every node that
//! shares its key holds the bits each of those nodes' own computation
//! would have produced: equal keys mean equal inputs, summed in equal
//! order; and a row nothing reads never reaches an output. A batch with
//! nothing to merge lowers to one slot per node plus one per live wave
//! target.

use crate::ensemble::{combine_member_major, Ensemble};
use crate::graph::{Featurization, JointGraph};
use crate::model::{map_spans, ModelConfig, INFERENCE_CHUNK};
use crate::plan::{BatchPlan, SlotSchedule};
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
    /// [`Ensemble::predict_plans_arena`] (bitwise identical). Each plan
    /// runs its own one-batch slot schedule.
    pub fn predict_plans_arena(&self, plans: &[BatchPlan], arena: &mut InferenceArena) -> Vec<f64> {
        let n: usize = plans.iter().map(BatchPlan::len).sum();
        let mut flat = Vec::with_capacity(n * self.k);
        for plan in plans {
            let raw = self.forward_raw(plan, plan.slots(), None, arena);
            self.denormalize_into(&raw, &mut flat);
            arena.recycle(raw);
        }
        combine_member_major(self.metric, self.k, &flat)
    }

    /// Combined prediction for one plan lowered into a search's memo
    /// (`schedule`): the pass computes the schedule's new slots into
    /// `state`, the memo's state matrix for this ensemble, which already
    /// holds every slot an earlier batch of the memo computed.
    pub(crate) fn predict_in_memo(
        &self,
        plan: &BatchPlan,
        schedule: &SlotSchedule,
        state: &mut Tensor,
        arena: &mut InferenceArena,
    ) -> Vec<f64> {
        let raw = self.forward_raw(plan, schedule, Some(state), arena);
        let mut flat = Vec::with_capacity(plan.len() * self.k);
        self.denormalize_into(&raw, &mut flat);
        arena.recycle(raw);
        combine_member_major(self.metric, self.k, &flat)
    }

    /// Appends every member's denormalized prediction for each raw output
    /// row, member-major.
    fn denormalize_into(&self, raw: &Tensor, flat: &mut Vec<f64>) {
        for r in 0..raw.rows() {
            for (m, &(mean, std)) in self.denorm.iter().enumerate() {
                let z = raw.get(r, m);
                // Identical per-member f32 ops to the sequential path's
                // `TrainedModel::denormalize`.
                flat.push(if self.metric.is_regression() {
                    msle_inverse(z * std + mean) as f64
                } else {
                    sigmoid(z) as f64
                });
            }
        }
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
    /// `[n_graphs, k]` (log-space cost or logit per member). Computes what
    /// `GnnModel::forward_inference` computes, `k` members wide, over the
    /// plan's slot schedule: each new distinct node state that something
    /// reads, once, into `held` (a search memo's state matrix, grown to the
    /// schedule's rows) or, without one, into a state matrix of this pass.
    fn forward_raw(
        &self,
        plan: &BatchPlan,
        schedule: &SlotSchedule,
        held: Option<&mut Tensor>,
        arena: &mut InferenceArena,
    ) -> Tensor {
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

        // The caller recycles the result last, so it is taken first: the
        // arena is a stack, and releasing in reverse order of taking hands
        // every buffer back to the same role next pass. Taken last, the
        // buffers would trade roles and each grow to the largest's size.
        let mut out = arena.alloc_scratch(plan.topo.n_graphs, self.k);

        // One k-wide row per slot. Every slot is written exactly once,
        // before anything reads it, so the matrix starts as unzeroed
        // scratch; an assign of a kernel output is bit-equal to the
        // sequential scatter-add onto zeroed rows (the output is never
        // `-0.0`, see `FusedLayer`'s docs). A held matrix keeps the rows
        // earlier batches wrote.
        let mut own_state = None;
        let state = match held {
            Some(state) => {
                grow_rows(state, schedule.state_rows, kh);
                state
            }
            None => own_state.insert(arena.alloc_scratch(schedule.state_rows, kh)),
        };

        // ---- per-type encoders: one *shared-input* pass per type over
        // its new distinct feature rows (features are member-independent),
        // final layer written straight into the rows' slots.
        for (call, feats) in schedule.encoders().zip(&plan.features) {
            if call.slots.is_empty() {
                continue;
            }
            self.encoders[call.type_index].forward_into(arena, feats, true, call.rows, state, Some(call.slots));
        }

        // ---- message passing over each wave's new distinct targets. The
        // wave input interleaves per member: member `m` owns the
        // contiguous `2*hidden` block `[Σ_children_m ‖ own_m]`, assembled
        // by one block-windowed gather/segment-sum pass each — so the
        // updater's first layer reads each member's full reduction in one
        // contiguous window, exactly like the sequential concat input.
        // The wave's new slots are read by later waves only, so each
        // group's updater writes them in place.
        for wave in schedule.waves() {
            let mut inp = arena.alloc_scratch(wave.rows, 2 * kh);
            state.gather_segment_sum_into_blocks(wave.child_slots, wave.segs, self.k, &mut inp, 0);
            state.gather_rows_into_blocks(wave.own, self.k, &mut inp, h);
            for call in wave.calls() {
                self.updaters[call.type_index].forward_into(arena, &inp, false, call.rows, state, Some(call.slots));
            }
            arena.recycle(inp);
        }

        // ---- readout: pool each node's final slot per graph, in node
        // order (once, k-wide), then the stacked output MLP → `[n_graphs, k]`.
        let mut pooled = arena.alloc_zeroed(plan.topo.n_graphs, kh);
        state.gather_segment_sum_into(&schedule.final_slots, &plan.topo.graph_of, &mut pooled);
        self.readout.forward_into(arena, &pooled, false, None, &mut out, None);
        arena.recycle(pooled);
        if let Some(state) = own_state {
            arena.recycle(state);
        }
        out
    }
}

/// Grows a held state matrix to at least `rows` rows of width `cols`,
/// keeping every row it holds (a matrix of another width starts over).
fn grow_rows(state: &mut Tensor, rows: usize, cols: usize) {
    if state.cols() == cols && state.rows() >= rows {
        return;
    }
    let keep = if state.cols() == cols { state.rows() } else { 0 };
    let mut data = std::mem::replace(state, Tensor::zeros(0, 0)).into_data();
    data.truncate(keep * cols);
    data.resize(rows * cols, 0.0);
    *state = Tensor::from_vec(rows, cols, data);
}
