//! The one inference pass and the one engine that runs it. Every
//! prediction — `costream-serve`'s workers, the placement search's
//! `EnsembleScorer`, `Ensemble::predict_*` and `TrainedModel::predict_*` —
//! runs a [`FusedEnsemble`], a view that stacks k trained models (an
//! ensemble's members, or one model at k = 1), through a [`ScoreEngine`].
//! Besides it there is only the training pass, which runs the same
//! routines and keeps what its backward replays.
//!
//! Run member by member, an ensemble repeats the *same* row movement
//! (encoder scatters, per-wave assembly of `[Σ_children ‖ own]`, readout
//! pooling) because only the weights differ. The fused pass stacks the
//! members' weight matrices column-wise
//! ([`costream_nn::fused::StackedMlp`]), carries the state as one
//! member-major `[rows, k·hidden]` matrix, and runs **one wider matmul per
//! layer**, while each row movement is one `Tensor::copy_rows` or
//! `Tensor::add_rows` call per batch, its column window repeated over the
//! k member blocks.
//!
//! # Bitwise identity with the sequential oracle
//!
//! The sequential oracle (the hidden `oracle` module, test support only)
//! runs each model through the per-op GNN chain the training pass is held
//! to. The fused pass is **bitwise identical** to it on the same plans,
//! raw outputs and predictions alike:
//!
//! * every matmul preserves the sequential kernels' per-element
//!   accumulation order and dispatch tier: member-blocked calls run at
//!   the member's own output width, and the serving kernel's assign
//!   semantics, folded epilogue and row indirection are each proven
//!   bit-equal to the zero-fill / bias-pass / gather / scatter ops they
//!   replace (see `costream_nn`'s `FusedLayer` docs);
//! * the wave input and the pool are `add_rows` / `copy_rows` calls whose
//!   window repeats over the member blocks, so each member's columns take
//!   exactly its own sequential additions, in the same edge order;
//! * denormalization applies the identical per-member f32 ops, and
//!   member combination the identical member-ascending f64 summation
//!   ([`crate::ensemble`]'s `combine_member_major`).
//!
//! # One state row per distinct node state
//!
//! The pass runs a hash-consed slot schedule (`crate::plan`'s module
//! docs), not a plan's nodes: each distinct encoder row or wave update
//! is one *slot*. Every slot of the `[slots, k·hidden]` state is written
//! exactly once — encoders and updaters compute only the new distinct
//! rows, through `StackedMlp::forward_into`'s row maps straight into their
//! slots — and the readout pools each node's final slot per graph. Every kernel row is one single-accumulator chain over
//! its own input row, so a row computed once and read by every node that
//! shares its key holds the bits each node's own computation would have:
//! equal keys mean equal inputs, summed in equal order.
//!
//! # One engine
//!
//! A [`ScoreEngine`] owns the slot memo, one state matrix per view and the
//! arena. It lowers a plan — or, for a search, a candidate batch straight
//! from its placements, with no graph and no plan built — into its memo
//! once and runs each view over the schedule; a pass ends in the view's `[n, k]` raw rows (log-space cost
//! or logit per member), which [`ScoreEngine::score`] denormalizes and
//! combines and [`FusedEnsemble::raw_graphs`] returns as they are. Callers
//! differ only in the memo's lifetime (`crate::plan`'s module docs): one
//! batch — a serving worker's engine, kept warm for its life, and every
//! `predict_*` / `raw_graphs` call's — or one search, through the
//! `ScoreMemo` the search's evaluator owns, whose rows are this trio's
//! states and must not outlive the search.

use crate::ensemble::combine_member_major;
use crate::graph::{CandidateBatch, JointGraph};
use crate::model::{ModelConfig, INFERENCE_CHUNK};
use crate::plan::{BatchPlan, SlotMemo, SlotSchedule, SlotStats};
use crate::train::TrainedModel;
use costream_dsps::CostMetric;
use costream_nn::fused::{StackedMlp, WeightPrecision};
use costream_nn::loss::{msle_inverse, sigmoid};
use costream_nn::{InferenceArena, Tensor, Window};

/// A member-fused inference view over k trained models of one metric:
/// stacked copies of their weights. An ensemble
/// ([`Ensemble::fused`](crate::ensemble::Ensemble::fused)) and a single
/// model ([`TrainedModel::fused`], k = 1) each stack theirs once and keep it.
#[derive(Clone, Debug)]
pub struct FusedEnsemble {
    metric: CostMetric,
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
    /// Stacks `members`, which the caller has checked share a metric, a
    /// featurization and a plan-congruent configuration.
    pub(crate) fn build(members: &[TrainedModel]) -> Self {
        let k = members.len();
        let n_types = members[0].model().encoders().len();
        let stack_type = |pick: &dyn Fn(&TrainedModel) -> &costream_nn::Mlp| {
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
            metric: members[0].metric,
            config: *members[0].model().config(),
            k,
            encoders,
            updaters,
            readout,
            denorm: members.iter().map(|m| m.denorm_params()).collect(),
        }
    }

    /// Combined prediction for prebuilt chunk plans on a caller-held
    /// arena: a one-batch [`ScoreEngine`] on `arena` for the length of the
    /// call.
    pub fn predict_plans_arena(&self, plans: &[BatchPlan], arena: &mut InferenceArena) -> Vec<f64> {
        let mut engine = ScoreEngine::with_arena(std::mem::take(arena));
        let scores = plans
            .iter()
            .flat_map(|plan| {
                let (_, [scores]) = engine.score(plan, [self]);
                scores
            })
            .collect();
        *arena = engine.into_arena();
        scores
    }

    /// Combined prediction for prepared graphs, the body of
    /// `Ensemble::predict_graphs`: the raw rows of
    /// [`FusedEnsemble::raw_graphs`], denormalized and combined.
    pub fn predict_graphs(&self, graphs: &[&JointGraph]) -> Vec<f64> {
        self.combine(&self.raw_graphs(graphs))
    }

    /// Member-major raw outputs for prepared graphs, `[n, k]` row-major
    /// (log-space cost or logit per member): chunk at [`INFERENCE_CHUNK`]
    /// → plan → fused pass, every chunk on the caller's thread through one
    /// [`ScoreEngine`]. (Dealing the chunks to two cores saved the one
    /// benchmark call with more than one chunk too little to show in its
    /// `setup_s`.)
    pub fn raw_graphs(&self, graphs: &[&JointGraph]) -> Vec<f32> {
        let (scheme, rounds) = (self.config.scheme, self.config.traditional_rounds);
        let mut engine = ScoreEngine::one_batch();
        graphs
            .chunks(INFERENCE_CHUNK)
            .flat_map(|c| engine.raw(&BatchPlan::build(c, scheme, rounds), self))
            .collect()
    }

    /// Member-major raw rows → per-member predictions: `msle_inverse` of
    /// the destandardized log cost, or the sigmoid of the logit.
    pub(crate) fn denormalize(&self, raw: &[f32]) -> Vec<f64> {
        raw.iter()
            .zip(self.denorm.iter().cycle())
            .map(|(&z, &(mean, std))| {
                if self.metric.is_regression() {
                    msle_inverse(z * std + mean) as f64
                } else {
                    sigmoid(z) as f64
                }
            })
            .collect()
    }

    /// Member-major raw rows → one combined prediction per row.
    fn combine(&self, raw: &[f32]) -> Vec<f64> {
        combine_member_major(self.metric, self.k, &self.denormalize(raw))
    }

    /// One fused forward pass: returns the member-major raw outputs
    /// `[n_graphs, k]` (log-space cost or logit per member), computed over
    /// a slot schedule — a plan's or a candidate batch's: each new distinct
    /// node state that something reads, once, into `state` (the memo's
    /// matrix for this view, grown to the schedule's rows).
    fn forward_raw(&self, schedule: &SlotSchedule, state: &mut Tensor, arena: &mut InferenceArena) -> Tensor {
        self.config.check_scheme(schedule.scheme, schedule.traditional_rounds);
        let h = self.config.hidden;
        let kh = self.k * h;

        // The caller recycles the result last, so it is taken first: the
        // arena is a stack, and releasing in reverse order of taking hands
        // every buffer back to the same role next pass. Taken last, the
        // buffers would trade roles and each grow to the largest's size.
        let mut out = arena.alloc_scratch(schedule.n_graphs, self.k);

        // One k-wide row per slot. Every slot is written exactly once,
        // before anything reads it, so no row needs zeroing first; an
        // assign of a kernel output is bit-equal to the sequential
        // scatter-add onto zeroed rows (the output is never `-0.0`, see
        // `FusedLayer`'s docs). The rows earlier batches of the memo wrote
        // stay where they are.
        grow_rows(state, schedule.state_rows, kh, arena);

        // ---- per-type encoders: one *shared-input* pass per type over
        // its new distinct feature rows (features are member-independent),
        // final layer written straight into the rows' slots.
        for (call, feats) in schedule.encoders() {
            if call.slots.is_empty() {
                continue;
            }
            self.encoders[call.type_index].forward_into(arena, feats, true, call.rows, state, Some(call.slots));
        }

        // ---- message passing over each wave's new distinct targets. The
        // wave input interleaves per member: member `m` owns the
        // contiguous `2*hidden` block `[Σ_children_m ‖ own_m]`, assembled
        // by one `add_rows` over the edges and one `copy_rows` over the
        // targets, each windowed over the k member blocks — so the
        // updater's first layer reads each member's full reduction in one
        // contiguous window, exactly like the sequential concat input.
        // The child sums start from the zeroed buffer, as training's do.
        // The wave's new slots are read by later waves only, so each
        // group's updater writes them in place.
        let half = Window::cols(h).blocks(self.k);
        for wave in schedule.waves() {
            let mut inp = arena.alloc_zeroed(wave.rows, 2 * kh);
            inp.add_rows(
                state,
                wave.segs.iter().copied().zip(wave.child_slots.iter().copied()),
                half,
            );
            inp.copy_rows(state, (0..).zip(wave.own.iter().copied()), half.dst(h));
            for call in wave.calls() {
                self.updaters[call.type_index].forward_into(arena, &inp, false, call.rows, state, Some(call.slots));
            }
            arena.recycle(inp);
        }

        // ---- readout: pool each node's final slot per graph, in node
        // order (once, k-wide), then the stacked output MLP → `[n_graphs, k]`.
        let mut pooled = arena.alloc_zeroed(schedule.n_graphs, kh);
        let nodes = schedule
            .graph_of
            .iter()
            .copied()
            .zip(schedule.final_slots.iter().copied());
        pooled.add_rows(state, nodes, Window::cols(kh));
        self.readout.forward_into(arena, &pooled, false, None, &mut out, None);
        arena.recycle(pooled);
        out
    }
}

/// Grows a state matrix to at least `rows` rows of width `cols`, keeping
/// every row it holds. A matrix that holds no rows of that width starts
/// from an `arena` buffer (so an engine built per call on a warm arena
/// allocates nothing); one that does grows in place, its capacity
/// doubling, so a search memo's matrix is copied only O(log slots) times
/// and leaves no outgrown buffer behind in the arena.
fn grow_rows(state: &mut Tensor, rows: usize, cols: usize, arena: &mut InferenceArena) {
    if state.cols() == cols && state.rows() >= rows {
        return;
    }
    let old = std::mem::replace(state, Tensor::zeros(0, 0));
    let mut data = if old.cols() == cols && !old.is_empty() {
        old.into_data()
    } else {
        arena.recycle(old);
        arena.alloc_scratch(rows, cols).into_data()
    };
    data.resize(rows * cols, 0.0);
    *state = Tensor::from_vec(rows, cols, data);
}

/// The one scoring engine: a slot memo, one state matrix per view scored
/// through it, and the arena every pass takes its scratch from.
/// [`ScoreEngine::score`] lowers a plan into the memo once and runs each
/// given view's fused pass over the schedule — the serving worker, the
/// search scorer and every `predict_*` call score this way, and differ
/// only in how long the memo lives (see the module docs).
///
/// Bitwise, a plan's scores do not depend on the engine, on what it scored
/// before or on its memo's lifetime: they are the sequential oracle's on
/// the same plan.
pub struct ScoreEngine {
    slots: SlotMemo,
    /// One state matrix per position of [`ScoreEngine::score`]'s models.
    states: Vec<Tensor>,
    arena: InferenceArena,
}

impl ScoreEngine {
    fn with_arena(arena: InferenceArena) -> Self {
        ScoreEngine {
            slots: SlotMemo::new(u64::MAX),
            states: Vec::new(),
            arena,
        }
    }

    /// A new engine. Its memo forgets every slot before each plan it
    /// [`score`](ScoreEngine::score)s, so one engine may serve any model
    /// from one batch to the next (a serving worker keeps one for its
    /// life, across hot swaps); only a search's candidate batches share
    /// slots, from one restart to the next, always with the same
    /// ensembles in the same positions. Its buffers stay warm.
    pub fn one_batch() -> Self {
        Self::with_arena(InferenceArena::new())
    }

    /// Forgets every slot, keeping every buffer, and gives the memo a slot
    /// cap and fingerprint mask (see `SlotMemo::restart`).
    pub(crate) fn restart(&mut self, cap: usize, fp_mask: u64) {
        self.slots.restart(cap, fp_mask);
    }

    /// Scores one plan with each of `models`: one lowering into the memo,
    /// then one fused pass per model over its schedule. Returns what the
    /// lowering added to the memo and each model's combined predictions,
    /// in plan order.
    ///
    /// # Panics
    /// Panics if a model's scheme or round count is not the plan's.
    pub fn score<const N: usize>(
        &mut self,
        plan: &BatchPlan,
        models: [&FusedEnsemble; N],
    ) -> (SlotStats, [Vec<f64>; N]) {
        let schedule = plan.lower_into(&mut self.slots);
        self.run(&schedule, models, FusedEnsemble::combine)
    }

    /// [`ScoreEngine::score`] for prepared graphs, chunk by chunk at
    /// [`INFERENCE_CHUNK`]: one plan per chunk, lowered into the memo.
    /// Returns what the lowerings added and each model's predictions, in
    /// graph order.
    pub(crate) fn score_graphs<const N: usize>(
        &mut self,
        graphs: &[&JointGraph],
        models: [&FusedEnsemble; N],
    ) -> (SlotStats, [Vec<f64>; N]) {
        let config = models[0].config;
        let mut stats = SlotStats::default();
        let mut out: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(graphs.len()));
        for chunk in graphs.chunks(INFERENCE_CHUNK) {
            let plan = BatchPlan::build(chunk, config.scheme, config.traditional_rounds);
            let (chunk_stats, scores) = self.score(&plan, models);
            stats += chunk_stats;
            for (all, chunk_scores) in out.iter_mut().zip(scores) {
                all.extend(chunk_scores);
            }
        }
        (stats, out)
    }

    /// Scores graphs `graphs` of a candidate batch with each of `models`:
    /// one placement lowering into the memo (no graph, no plan), then one
    /// fused pass per model. Bitwise, the scores are those of
    /// [`ScoreEngine::score`] on the plan of the same graphs.
    ///
    /// # Panics
    /// Panics if the models differ in scheme or round count.
    pub(crate) fn score_candidates<const N: usize>(
        &mut self,
        batch: &CandidateBatch,
        graphs: std::ops::Range<usize>,
        models: [&FusedEnsemble; N],
    ) -> (SlotStats, [Vec<f64>; N]) {
        let config = models[0].config;
        let schedule = self
            .slots
            .lower_candidates(batch, graphs, config.scheme, config.traditional_rounds);
        self.run(&schedule, models, FusedEnsemble::combine)
    }

    /// One model's member-major raw rows for one plan, `[n_graphs, k]`.
    fn raw(&mut self, plan: &BatchPlan, model: &FusedEnsemble) -> Vec<f32> {
        let schedule = plan.lower_into(&mut self.slots);
        let (_, [raw]) = self.run(&schedule, [model], |_, raw| raw.to_vec());
        raw
    }

    /// Runs each model's pass over `schedule` and hands its raw rows to
    /// `finish`; returns what the lowering added to the memo too.
    fn run<const N: usize, T>(
        &mut self,
        schedule: &SlotSchedule,
        models: [&FusedEnsemble; N],
        finish: impl Fn(&FusedEnsemble, &[f32]) -> T,
    ) -> (SlotStats, [T; N]) {
        if self.states.len() < N {
            self.states.resize_with(N, || Tensor::zeros(0, 0));
        }
        let (states, arena) = (&mut self.states, &mut self.arena);
        let out = std::array::from_fn(|i| {
            let raw = models[i].forward_raw(schedule, &mut states[i], arena);
            let done = finish(models[i], raw.data());
            arena.recycle(raw);
            done
        });
        (schedule.stats, out)
    }

    /// The arena, with the state matrices handed back to it.
    fn into_arena(mut self) -> InferenceArena {
        for state in self.states {
            self.arena.recycle(state);
        }
        self.arena
    }

    /// The arena's pooled floats, then the size of every buffer a memo
    /// recycles (test instrumentation).
    #[cfg(test)]
    pub(crate) fn buffer_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![self.arena.pooled_floats()];
        sizes.extend(self.states.iter().map(Tensor::len));
        sizes.extend(self.slots.capacities());
        sizes
    }

    /// The size of every buffer the placement lowering keeps (test
    /// instrumentation).
    #[cfg(test)]
    pub(crate) fn placement_buffer_sizes(&self) -> Vec<usize> {
        self.slots.placement_capacities()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::Ensemble;
    use crate::test_fixtures;
    use crate::train::TrainConfig;

    /// A serving worker's engine: once it has scored a sequence of batches,
    /// scoring the sequence again grows none of its buffers — arena, state
    /// matrix or memo tables — although its memo starts over at every batch.
    #[test]
    fn a_warm_one_batch_engine_grows_no_buffer() {
        let corpus = test_fixtures::corpus(24, 79);
        let cfg = TrainConfig {
            epochs: 1,
            ..Default::default()
        };
        let e = Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 2);
        let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(e.featurization())).collect();
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        let plans: Vec<BatchPlan> = [0..24, 3..4, 5..17, 20..24]
            .into_iter()
            .map(|r| e.members()[0].model().plan(&refs[r]))
            .collect();
        let mut engine = ScoreEngine::one_batch();
        let first: Vec<_> = plans.iter().map(|p| engine.score(p, [e.fused()])).collect();
        let warm = engine.buffer_sizes();
        assert!(warm.iter().all(|&size| size > 0), "every buffer was used: {warm:?}");
        for _ in 0..3 {
            for (p, want) in plans.iter().zip(&first) {
                assert_eq!(&engine.score(p, [e.fused()]), want);
            }
            assert_eq!(engine.buffer_sizes(), warm, "a repeated sequence must grow no buffer");
        }
    }
}
