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
//! With [`Precision::Exact`] the fused path is **bitwise identical** to
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
//!
//! # Precision ladder
//!
//! * [`Precision::Exact`] (default) — f32 weights, bitwise-equal to the
//!   sequential ensemble. Safe everywhere; the view [`Ensemble::fused`]
//!   owns, and what serving workers run unless told otherwise.
//! * [`Precision::Int8`] (opt-in) — per-output-channel symmetric int8
//!   weight quantization of the **GNN body** (encoders + updaters) with
//!   f32 accumulation and exact f32 biases (dequantized at each layer
//!   epilogue). The readout head always stays f32: its pooled inputs
//!   are whole-graph sums, its output feeds the denormalization
//!   directly, and the log-space `exp` there amplifies any head drift
//!   multiplicatively — quantizing it costs several times the q-error
//!   of the entire body for a sliver of the weight bytes. Built
//!   data-free ([`Ensemble::fused_with_precision`]) or, much tighter,
//!   *calibrated* against captured activations
//!   ([`Ensemble::fused_calibrated`]). Predictions drift from the exact
//!   path either way; callers must gate it behind a q-error bound (the
//!   serving layer self-tests at startup and falls back to exact).

use crate::dataset::{Corpus, CorpusItem};
use crate::ensemble::{combine_member_major, Ensemble};
use crate::graph::{Featurization, JointGraph};
use crate::model::{inference_chunk, map_spans, ModelConfig};
use crate::plan::{BatchPlan, PlanCache};
use costream_dsps::{CostMetric, SimConfig};
use costream_nn::fused::{MlpObs, StackedMlp, WeightPrecision};
use costream_nn::loss::{msle_inverse, sigmoid};
use costream_nn::{InferenceArena, Tensor};
use costream_query::ranges::FeatureRanges;

/// Numeric precision of the fused serving path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// Exact f32 — bitwise identical to the sequential ensemble.
    #[default]
    Exact,
    /// Opt-in int8 weight quantization (f32 accumulate) — approximate,
    /// q-error-bound gated, never the default.
    Int8,
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "exact" | "f32" => Ok(Precision::Exact),
            "int8" => Ok(Precision::Int8),
            other => Err(format!(
                "unknown serving precision {other:?} (expected \"exact\" or \"int8\")"
            )),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::Exact => "exact",
            Precision::Int8 => "int8",
        })
    }
}

/// Calibration-row budget per stacked layer: enough samples to pin the
/// activation geometry the quantizer optimizes against, small enough
/// that capture stays a few MB per layer.
pub const CALIBRATION_ROWS: usize = 1024;

/// Activation observations for every stacked MLP of one ensemble.
struct EnsembleObs {
    encoders: Vec<MlpObs>,
    updaters: Vec<MlpObs>,
    readout: MlpObs,
}

impl EnsembleObs {
    fn new(n_types: usize) -> Self {
        EnsembleObs {
            encoders: (0..n_types).map(|_| MlpObs::new(CALIBRATION_ROWS)).collect(),
            updaters: (0..n_types).map(|_| MlpObs::new(CALIBRATION_ROWS)).collect(),
            readout: MlpObs::new(CALIBRATION_ROWS),
        }
    }
}

/// A member-fused inference view over a trained [`Ensemble`].
///
/// Holds stacked copies of the members' weights (the members themselves
/// stay the training/golden ground truth). The ensemble stacks its exact
/// view once and keeps it ([`Ensemble::fused`]); every caller shares it.
#[derive(Clone, Debug)]
pub struct FusedEnsemble {
    metric: CostMetric,
    featurization: Featurization,
    config: ModelConfig,
    k: usize,
    precision: Precision,
    /// Per node type, indexed like `NodeType::ALL`.
    encoders: Vec<StackedMlp>,
    updaters: Vec<StackedMlp>,
    readout: StackedMlp,
    /// Per-member `(target_mean, target_std)`.
    denorm: Vec<(f32, f32)>,
}

impl FusedEnsemble {
    /// Stacks the ensemble's members at the given precision.
    pub(crate) fn build(ensemble: &Ensemble, precision: Precision) -> Self {
        let members = ensemble.members();
        let k = members.len();
        let wp = match precision {
            Precision::Exact => WeightPrecision::Exact,
            Precision::Int8 => WeightPrecision::Int8,
        };
        let n_types = members[0].model().encoders().len();
        let stack_type = |pick: &dyn Fn(&crate::train::TrainedModel) -> &costream_nn::Mlp, wp: WeightPrecision| {
            let per: Vec<_> = members.iter().map(|m| (m.model().store(), pick(m))).collect();
            StackedMlp::stack(&per, wp)
        };
        let encoders = (0..n_types)
            .map(|t| stack_type(&move |m| &m.model().encoders()[t], wp))
            .collect();
        let updaters = (0..n_types)
            .map(|t| stack_type(&move |m| &m.model().updaters()[t], wp))
            .collect();
        // The readout head stays f32 at every precision (see the module
        // docs' precision ladder).
        let readout = stack_type(&|m| m.model().readout(), WeightPrecision::Exact);
        FusedEnsemble {
            metric: ensemble.metric,
            featurization: ensemble.featurization(),
            config: *ensemble.model_config(),
            k,
            precision,
            encoders,
            updaters,
            readout,
            denorm: members.iter().map(|m| m.denorm_params()).collect(),
        }
    }

    /// Stacks a *calibrated* int8 view. Quantization proceeds in stages,
    /// front to back — encoders, then updaters (the readout head stays
    /// f32, see the module docs). Each stage runs the current
    /// **partially-quantized** hybrid over `plans`, captures the stage's
    /// layer inputs (up to [`CALIBRATION_ROWS`] rows per layer), and
    /// re-quantizes the stage's weights with greedy data-aware rounding
    /// against those samples (`costream_nn`'s
    /// `StackedMlp::stack_calibrated`). Staging matters: a layer
    /// calibrated against the *exact* model's activations would be
    /// rounded for inputs it never sees once its upstream layers are
    /// quantized too — and the wave recurrence compounds that mismatch.
    /// Layers no calibration rows reached (e.g. a node type absent from
    /// every calibration graph) fall back to data-free error-feedback
    /// rounding.
    pub(crate) fn build_calibrated(ensemble: &Ensemble, plans: &[BatchPlan]) -> Self {
        let mut cur = Self::build(ensemble, Precision::Exact);
        let n_types = cur.encoders.len();
        let members = ensemble.members();
        let stack_cal = |pick: &dyn Fn(&crate::train::TrainedModel) -> &costream_nn::Mlp, o: &MlpObs| {
            let per: Vec<_> = members.iter().map(|m| (m.model().store(), pick(m))).collect();
            StackedMlp::stack_calibrated(&per, WeightPrecision::Int8, Some(o))
        };
        for stage in 0..2 {
            let mut obs = EnsembleObs::new(n_types);
            let mut arena = InferenceArena::new();
            for plan in plans {
                let out = cur.forward_raw(plan, &mut arena, Some(&mut obs));
                arena.recycle(out);
            }
            if stage == 0 {
                cur.encoders = (0..n_types)
                    .map(|t| stack_cal(&move |m| &m.model().encoders()[t], &obs.encoders[t]))
                    .collect();
            } else {
                cur.updaters = (0..n_types)
                    .map(|t| stack_cal(&move |m| &m.model().updaters()[t], &obs.updaters[t]))
                    .collect();
            }
        }
        cur.precision = Precision::Int8;
        cur
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

    /// The precision this view was stacked at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Total int8 weight bytes across all stacked layers (0 for
    /// [`Precision::Exact`]).
    pub fn quantized_bytes(&self) -> usize {
        self.encoders
            .iter()
            .chain(&self.updaters)
            .chain(std::iter::once(&self.readout))
            .map(StackedMlp::quantized_bytes)
            .sum()
    }

    /// Combined ensemble prediction for prebuilt chunk plans on a
    /// caller-held arena — the fused drop-in for
    /// [`Ensemble::predict_plans_arena`] (bitwise identical at
    /// [`Precision::Exact`]).
    pub fn predict_plans_arena(&self, plans: &[BatchPlan], arena: &mut InferenceArena) -> Vec<f64> {
        let n: usize = plans.iter().map(BatchPlan::len).sum();
        let mut flat = Vec::with_capacity(n * self.k);
        for plan in plans {
            let raw = self.forward_raw(plan, arena, None);
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

    /// Combined prediction for prepared graphs (plans built here, chunked
    /// at [`inference_chunk`]).
    pub fn predict_graphs(&self, graphs: &[&JointGraph]) -> Vec<f64> {
        self.predict_graphs_with(graphs, None)
    }

    /// Chunk → plan → fused pass, the body of
    /// [`Ensemble::predict_graphs_with`]: each chunk's plan is built (or
    /// fetched from `cache`) once and serves every member in one pass;
    /// [`map_spans`] fans the chunks out, one arena per span.
    pub fn predict_graphs_with(&self, graphs: &[&JointGraph], cache: Option<&PlanCache>) -> Vec<f64> {
        let (scheme, rounds) = (self.config.scheme, self.config.traditional_rounds);
        let chunk = inference_chunk();
        map_spans(graphs, chunk, |span| {
            let plans: Vec<BatchPlan> = span
                .chunks(chunk)
                .map(|c| match cache {
                    Some(cache) => cache.get_or_build(c, scheme, rounds),
                    None => BatchPlan::build(c, scheme, rounds),
                })
                .collect();
            self.predict_plans_arena(&plans, &mut InferenceArena::new())
        })
    }

    /// One fused forward pass: returns the member-major raw outputs
    /// `[n_graphs, k]` (log-space cost or logit per member). Mirrors
    /// `GnnModel::forward_inference` with every state matrix `k` members
    /// wide. `obs` captures activations for calibration; the hot path
    /// passes `None`.
    fn forward_raw(&self, plan: &BatchPlan, arena: &mut InferenceArena, mut obs: Option<&mut EnsembleObs>) -> Tensor {
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
            let enc = &self.encoders[ep.type_index];
            match &mut obs {
                None => enc.forward_into(arena, feats, true, None, &mut h0, Some(&ep.globals)),
                Some(o) => enc.forward_observing(
                    arena,
                    feats,
                    true,
                    None,
                    &mut h0,
                    Some(&ep.globals),
                    &mut o.encoders[ep.type_index],
                ),
            }
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
                let upd = &self.updaters[group.type_index];
                match &mut obs {
                    None => upd.forward_into(arena, &inp, false, rows, &mut cur, Some(&group.globals)),
                    Some(o) => upd.forward_observing(
                        arena,
                        &inp,
                        false,
                        rows,
                        &mut cur,
                        Some(&group.globals),
                        &mut o.updaters[group.type_index],
                    ),
                }
            }
            arena.recycle(inp);
        }

        // ---- readout: pool all node states per graph (once, k-wide),
        // then the stacked output MLP → `[n_graphs, k]`.
        let mut pooled = arena.alloc_zeroed(plan.topo.n_graphs, kh);
        cur.segment_sum_into(&plan.topo.graph_of, &mut pooled);
        match &mut obs {
            None => self.readout.forward_into(arena, &pooled, false, None, &mut out, None),
            Some(o) => self
                .readout
                .forward_observing(arena, &pooled, false, None, &mut out, None, &mut o.readout),
        }
        arena.recycle(pooled);
        arena.recycle(cur);
        arena.recycle(h0);
        out
    }
}

/// Probe-workload parameters of [`int8_self_test`]: a small calibration
/// corpus and a *disjoint* held-out evaluation corpus, both generated
/// deterministically from the training feature ranges. Calibrating and
/// evaluating on the same graphs would flatter the quantizer (greedy
/// rounding optimizes against exactly those activations); the residual
/// int8 error is quantization-grid-limited, so a small probe suffices.
const SELF_TEST_SEED: u64 = 0xC057;
const SELF_TEST_CAL_GRAPHS: usize = 16;
const SELF_TEST_EVAL_GRAPHS: usize = 32;

/// Floor applied to both sides before forming a self-test q-error ratio,
/// so near-zero predictions (classification probabilities, tiny costs)
/// do not blow the ratio up on absolute noise.
const SELF_TEST_FLOOR: f64 = 1e-3;

/// Outcome of the int8 serving self-test: the calibrated view that was
/// measured, plus its worst-case drift. The caller decides whether
/// `max_q` is acceptable — the serving layer compares it against its
/// configured bound and falls back to exact f32 when it is not.
#[derive(Clone, Debug)]
pub struct Int8SelfTest {
    /// The calibrated int8 fused view the probe measured.
    pub view: FusedEnsemble,
    /// Worst-case q-error of the int8 view against the exact fused view
    /// over the held-out probe graphs (≥ 1.0; 1.0 means no measurable
    /// drift after flooring).
    pub max_q: f64,
}

/// Builds a *calibrated* int8 fused view of `ensemble` and measures its
/// worst-case q-error against the exact fused path on a deterministic
/// synthetic probe workload (generation seeds and sizes are fixed, so
/// repeated runs over the same ensemble produce bitwise-identical views
/// and measurements).
///
/// This is the startup gate behind `COSTREAM_SERVE_PRECISION=int8`: the
/// serving layer only swaps the int8 view in when `max_q` stays within
/// its configured bound, and otherwise keeps the exact f32 view. The
/// probe is drawn from the training feature ranges — representative of
/// the workloads the models were fit to, independent of any particular
/// serving traffic.
pub fn int8_self_test(ensemble: &Ensemble) -> Int8SelfTest {
    let chunk = inference_chunk();
    let plans_of = |n: usize, seed: u64| -> Vec<BatchPlan> {
        let corpus = Corpus::generate(n, seed, FeatureRanges::training(), &SimConfig::default());
        let items: Vec<&CorpusItem> = corpus.items.iter().collect();
        let graphs = CorpusItem::featurize_all(&items, ensemble.featurization());
        let cfg = ensemble.model_config();
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        refs.chunks(chunk)
            .map(|c| BatchPlan::build(c, cfg.scheme, cfg.traditional_rounds))
            .collect()
    };
    let cal = plans_of(SELF_TEST_CAL_GRAPHS, SELF_TEST_SEED);
    let eval = plans_of(SELF_TEST_EVAL_GRAPHS, SELF_TEST_SEED ^ 0x9E37_79B9);
    let view = ensemble.fused_calibrated(&cal);
    let mut arena = InferenceArena::new();
    let exact = ensemble.fused().predict_plans_arena(&eval, &mut arena);
    let approx = view.predict_plans_arena(&eval, &mut arena);
    let max_q = exact
        .iter()
        .zip(&approx)
        .map(|(&a, &b)| {
            let (a, b) = (a.max(SELF_TEST_FLOOR), b.max(SELF_TEST_FLOOR));
            (a / b).max(b / a)
        })
        .fold(1.0, f64::max);
    Int8SelfTest { view, max_q }
}
