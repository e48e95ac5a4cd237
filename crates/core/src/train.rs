//! Training the per-metric cost models (§IV-A) and the few-shot
//! fine-tuning procedure of Exp 5b.

use crate::dataset::{Corpus, CorpusItem};
use crate::graph::{Featurization, JointGraph};
use crate::model::{GnnModel, ModelConfig};
use crate::plan::BatchPlan;
use crate::qerror::{accuracy, QErrorSummary};
use costream_dsps::CostMetric;
use costream_nn::loss::{bce_with_logits, bce_with_logits_into, mse, mse_into, msle_inverse, sigmoid};
use costream_nn::optim::{clip_scale, Adam};
use costream_nn::{Gradients, InferenceArena, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Graphs per minibatch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Minibatch shuffling seed.
    pub seed: u64,
    /// GNN hyper-parameters (the model seed comes from here).
    pub model: ModelConfig,
    /// Featurization of the joint graph (Exp 7a ablation).
    pub featurization: Featurization,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            // 16-graph minibatches rank placements measurably better than
            // 32 at equal epoch counts (more optimizer steps per epoch).
            batch_size: 16,
            // 5e-3 converges to train-set Q50 < 2 within 60 epochs on the
            // reference corpora; the previous 3e-3 needed ~2x the epochs.
            lr: 5e-3,
            grad_clip: 5.0,
            seed: 0,
            model: ModelConfig::default(),
            featurization: Featurization::Full,
        }
    }
}

impl TrainConfig {
    /// Returns a copy with model + shuffling seeds replaced (used to build
    /// the seed-varied ensemble of §IV-A).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.model.seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(seed);
        self
    }
}

/// A cost model trained for one metric.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainedModel {
    /// The metric this model predicts.
    pub metric: CostMetric,
    /// The featurization its graphs were built with.
    pub featurization: Featurization,
    /// Mean of the `log1p` targets on the training set; the network learns
    /// standardized residuals, which converges far faster than absolute
    /// log costs (regression metrics only).
    target_mean: f32,
    /// Standard deviation of the `log1p` targets on the training set.
    target_std: f32,
    model: GnnModel,
}

impl TrainedModel {
    /// Predicts the metric for prepared joint graphs: original cost units
    /// for regression metrics, probability of the positive class for
    /// classification metrics. Runs on the tape-free inference fast path.
    pub fn predict_graphs(&self, graphs: &[&JointGraph]) -> Vec<f64> {
        self.denormalize(self.model.predict_raw(graphs))
    }

    /// The underlying GNN (exposed for plan construction and diagnostics).
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// Predicts the metric for prebuilt chunk plans on a caller-held
    /// arena — one member's share of the sequential reference path
    /// ([`Ensemble::predict_plans_arena`](crate::ensemble::Ensemble::predict_plans_arena)).
    pub fn predict_plans_arena(&self, plans: &[BatchPlan], arena: &mut InferenceArena) -> Vec<f64> {
        self.denormalize(
            plans
                .iter()
                .flat_map(|p| self.model.forward_inference(p, arena))
                .collect(),
        )
    }

    /// `(target_mean, target_std)` of the training-set `log1p` targets —
    /// what [`TrainedModel::predict_plans_arena`] applies before
    /// `msle_inverse`. Exposed so [`crate::fused`] can replicate the
    /// denormalization bit for bit.
    pub(crate) fn denorm_params(&self) -> (f32, f32) {
        (self.target_mean, self.target_std)
    }

    fn denormalize(&self, raw: Vec<f32>) -> Vec<f64> {
        raw.into_iter()
            .map(|z| {
                if self.metric.is_regression() {
                    msle_inverse(z * self.target_std + self.target_mean) as f64
                } else {
                    sigmoid(z) as f64
                }
            })
            .collect()
    }

    /// Predicts the metric for corpus items.
    pub fn predict_items(&self, items: &[&CorpusItem]) -> Vec<f64> {
        let graphs = CorpusItem::featurize_all(items, self.featurization);
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        self.predict_graphs(&refs)
    }

    /// Q-error summary over the *successful* items of a corpus.
    ///
    /// # Panics
    /// Panics for classification metrics or when no item succeeded.
    pub fn evaluate_regression(&self, corpus: &Corpus) -> QErrorSummary {
        assert!(self.metric.is_regression());
        let items = corpus.successful();
        let preds = self.predict_items(&items);
        let pairs: Vec<(f64, f64)> = items
            .iter()
            .zip(&preds)
            .map(|(i, &p)| (i.metrics.get(self.metric), p))
            .collect();
        QErrorSummary::of(&pairs)
    }

    /// Accuracy over a balanced subset of a corpus.
    ///
    /// # Panics
    /// Panics for regression metrics.
    pub fn evaluate_classification(&self, corpus: &Corpus, balance_seed: u64) -> f64 {
        assert!(!self.metric.is_regression());
        let items = corpus.balanced(self.metric, balance_seed);
        if items.is_empty() {
            return 1.0; // degenerate: only one class present
        }
        let preds = self.predict_items(&items);
        let pairs: Vec<(bool, bool)> = items
            .iter()
            .zip(&preds)
            .map(|(i, &p)| (i.metrics.get(self.metric) > 0.5, p > 0.5))
            .collect();
        accuracy(&pairs)
    }
}

fn training_view(corpus: &Corpus, metric: CostMetric) -> Vec<&CorpusItem> {
    if metric.is_regression() {
        corpus.successful()
    } else {
        corpus.items.iter().collect()
    }
}

/// Standardized training targets: `log1p` + z-scoring for regression
/// metrics, raw {0,1} for classification.
fn prepare_targets(items: &[&CorpusItem], metric: CostMetric) -> (Vec<f32>, f32, f32) {
    if !metric.is_regression() {
        return (items.iter().map(|i| i.metrics.get(metric) as f32).collect(), 0.0, 1.0);
    }
    let logs: Vec<f32> = items
        .iter()
        .map(|i| (1.0 + i.metrics.get(metric).max(0.0)).ln() as f32)
        .collect();
    let mean = logs.iter().sum::<f32>() / logs.len() as f32;
    let var = logs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / logs.len() as f32;
    let std = var.sqrt().max(1e-3);
    (logs.iter().map(|v| (v - mean) / std).collect(), mean, std)
}

/// Oversamples the minority class to a balanced index multiset — corpora
/// are heavily success-dominated, and an unbalanced classifier would
/// collapse to the majority class.
fn balanced_indices(items: &[&CorpusItem], metric: CostMetric) -> Vec<usize> {
    let pos: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].metrics.get(metric) > 0.5)
        .collect();
    let neg: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].metrics.get(metric) <= 0.5)
        .collect();
    if pos.is_empty() || neg.is_empty() {
        return (0..items.len()).collect();
    }
    let (minority, majority) = if pos.len() < neg.len() { (pos, neg) } else { (neg, pos) };
    let mut out = majority.clone();
    for k in 0..majority.len() {
        out.push(minority[k % minority.len()]);
    }
    out
}

/// One prepared minibatch: its precomputed execution plan plus targets.
/// Plans capture all gather/scatter bookkeeping, so a batch is built once
/// and reused across every epoch and every ensemble member.
#[derive(Clone, Debug)]
pub struct PreparedBatch {
    /// Precomputed execution plan for the batch's graphs.
    pub plan: BatchPlan,
    /// Standardized training target per graph.
    pub targets: Vec<f32>,
}

/// A training corpus lowered to minibatch plans, together with the target
/// standardization it was built with.
#[derive(Clone, Debug)]
pub struct PreparedTraining {
    /// Minibatches (fixed membership; epochs shuffle processing order).
    pub batches: Vec<PreparedBatch>,
    /// Mean of the `log1p` targets (0 for classification).
    pub target_mean: f32,
    /// Std of the `log1p` targets (1 for classification).
    pub target_std: f32,
}

/// Lowers a corpus into minibatch execution plans for one metric. Item
/// order is shuffled once with `cfg.seed` before chunking; epochs then
/// shuffle batch *processing order*, so plans never need rebuilding.
pub fn prepare_training(corpus: &Corpus, metric: CostMetric, cfg: &TrainConfig) -> PreparedTraining {
    let items = training_view(corpus, metric);
    assert!(!items.is_empty(), "no trainable items for {metric:?}");
    let graphs: Vec<JointGraph> = items.iter().map(|i| i.graph(cfg.featurization)).collect();
    let (targets, mean, std) = prepare_targets(&items, metric);
    let mut idx: Vec<usize> = if metric.is_regression() {
        (0..items.len()).collect()
    } else {
        balanced_indices(&items, metric)
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    idx.shuffle(&mut rng);
    let batches = lower_batches(&graphs, &targets, &idx, cfg.batch_size, &cfg.model);
    PreparedTraining {
        batches,
        target_mean: mean,
        target_std: std,
    }
}

/// Chunks `order` (indices into `graphs` / `targets`) into minibatches of
/// `batch_size` and builds each one's execution plan.
fn lower_batches(
    graphs: &[JointGraph],
    targets: &[f32],
    order: &[usize],
    batch_size: usize,
    model: &ModelConfig,
) -> Vec<PreparedBatch> {
    order
        .chunks(batch_size)
        .map(|chunk| {
            let batch_graphs: Vec<&JointGraph> = chunk.iter().map(|&i| &graphs[i]).collect();
            PreparedBatch {
                plan: BatchPlan::build(&batch_graphs, model.scheme, model.traditional_rounds),
                targets: chunk.iter().map(|&i| targets[i]).collect(),
            }
        })
        .collect()
}

/// Trains one GNN for one metric on a corpus.
pub fn train_metric(corpus: &Corpus, metric: CostMetric, cfg: &TrainConfig) -> TrainedModel {
    let prepared = prepare_training(corpus, metric, cfg);
    train_prepared(&prepared, metric, cfg)
}

/// Trains one GNN from already-prepared batches. Ensemble training calls
/// this with *shared* batches, so plan construction happens once for all
/// members.
pub fn train_prepared(prepared: &PreparedTraining, metric: CostMetric, cfg: &TrainConfig) -> TrainedModel {
    let mut model = GnnModel::new(cfg.model);
    fit(&mut model, &prepared.batches, metric, cfg, cfg.epochs, cfg.lr);
    TrainedModel {
        metric,
        featurization: cfg.featurization,
        target_mean: prepared.target_mean,
        target_std: prepared.target_std,
        model,
    }
}

/// Few-shot fine-tuning (Exp 5b): continues training an existing model on
/// a small corpus of additional queries at a reduced learning rate. The
/// target standardization of the base model is kept so predictions remain
/// comparable.
pub fn fine_tune(model: &mut TrainedModel, extra: &Corpus, epochs: usize, lr: f32, cfg: &TrainConfig) {
    let items = training_view(extra, model.metric);
    if items.is_empty() {
        return;
    }
    let graphs: Vec<JointGraph> = items.iter().map(|i| i.graph(model.featurization)).collect();
    let metric = model.metric;
    let targets: Vec<f32> = if metric.is_regression() {
        items
            .iter()
            .map(|i| (((1.0 + i.metrics.get(metric).max(0.0)).ln() as f32) - model.target_mean) / model.target_std)
            .collect()
    } else {
        items.iter().map(|i| i.metrics.get(metric) as f32).collect()
    };
    let order: Vec<usize> = (0..graphs.len()).collect();
    let batches = lower_batches(&graphs, &targets, &order, cfg.batch_size, model.model.config());
    fit(&mut model.model, &batches, metric, cfg, epochs, lr);
}

fn fit(model: &mut GnnModel, batches: &[PreparedBatch], metric: CostMetric, cfg: &TrainConfig, epochs: usize, lr: f32) {
    let mut trainer = Trainer::new(model, metric, lr, cfg.grad_clip);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..batches.len()).collect();
    for _epoch in 0..epochs {
        // Batch membership is frozen in the plans; shuffling the
        // processing order preserves SGD stochasticity without
        // re-deriving any bookkeeping.
        order.shuffle(&mut rng);
        for &bi in &order {
            trainer.step(model, &batches[bi]);
        }
    }
}

/// The state one training run carries from minibatch to minibatch: the
/// optimizer's moments, the per-parameter gradient buffers (zeroed in
/// place) and the arena every tape draws its forward values, retained
/// activations and backward scratch from. All of it is allocated by the
/// first minibatch of a given shape; after that a step allocates no tensor
/// buffer (`tests/train_alloc.rs`).
pub struct Trainer {
    opt: Adam,
    grads: Gradients,
    arena: InferenceArena,
    metric: CostMetric,
    grad_clip: f32,
}

impl Trainer {
    /// Fresh optimizer state for training `model` on `metric`.
    pub fn new(model: &GnnModel, metric: CostMetric, lr: f32, grad_clip: f32) -> Self {
        Trainer {
            opt: Adam::new(lr),
            grads: Gradients::for_store(model.store()),
            arena: InferenceArena::new(),
            metric,
            grad_clip,
        }
    }

    /// One optimizer step on one minibatch: forward, loss, backward,
    /// clipped Adam update. Returns the minibatch's mean loss.
    pub fn step(&mut self, model: &mut GnnModel, batch: &PreparedBatch) -> f32 {
        let (mut tape, out) = model.forward_with_plan_in(&batch.plan, std::mem::take(&mut self.arena));
        let seed = tape.arena().alloc_scratch(batch.targets.len(), 1);
        let loss = if self.metric.is_regression() {
            // Targets are already standardized log costs; plain MSE on
            // them is the paper's MSLE up to the affine normalization.
            mse_into(tape.value(out), &batch.targets, seed)
        } else {
            bce_with_logits_into(tape.value(out), &batch.targets, seed)
        };
        self.grads.zero();
        tape.backward(out, loss.seed, &mut self.grads);
        self.arena = tape.into_arena();
        let scale = clip_scale(&self.grads, self.grad_clip);
        self.opt.step_scaled(model.store_mut(), &self.grads, scale);
        loss.loss
    }

    /// The arena the steps recycle their buffers through (its
    /// `pooled_floats` is the training loop's steady-state scratch
    /// footprint).
    pub fn arena(&self) -> &InferenceArena {
        &self.arena
    }
}

/// Mean training loss of a model over a corpus — used by tests and for
/// monitoring convergence. Regression losses are computed in the model's
/// standardized log-target space.
pub fn mean_loss(model: &TrainedModel, corpus: &Corpus) -> f32 {
    let items = training_view(corpus, model.metric);
    let graphs = CorpusItem::featurize_all(&items, model.featurization);
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    if refs.is_empty() {
        return 0.0;
    }
    let raw = model.model.predict_raw(&refs);
    let pred = Tensor::from_vec(raw.len(), 1, raw);
    if model.metric.is_regression() {
        let targets: Vec<f32> = items
            .iter()
            .map(|i| {
                (((1.0 + i.metrics.get(model.metric).max(0.0)).ln() as f32) - model.target_mean) / model.target_std
            })
            .collect();
        mse(&pred, &targets).loss
    } else {
        let targets: Vec<f32> = items.iter().map(|i| i.metrics.get(model.metric) as f32).collect();
        bce_with_logits(&pred, &targets).loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costream_dsps::SimConfig;
    use costream_query::ranges::FeatureRanges;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 60,
            batch_size: 16,
            ..Default::default()
        }
    }

    #[test]
    fn regression_training_reduces_loss_and_qerror() {
        let corpus = Corpus::generate(150, 21, FeatureRanges::training(), &SimConfig::default());
        let untrained = TrainedModel {
            metric: CostMetric::Throughput,
            featurization: Featurization::Full,
            target_mean: 0.0,
            target_std: 1.0,
            model: GnnModel::new(ModelConfig::default()),
        };
        let loss_before = mean_loss(&untrained, &corpus);
        let model = train_metric(&corpus, CostMetric::Throughput, &quick_cfg());
        let loss_after = mean_loss(&model, &corpus);
        assert!(
            loss_after < loss_before * 0.5,
            "training did not reduce loss: {loss_before} -> {loss_after}"
        );
        let summary = model.evaluate_regression(&corpus);
        assert!(summary.q50 < 5.0, "train-set q50 implausibly bad: {summary}");
    }

    #[test]
    fn classification_training_beats_chance_on_train_set() {
        let corpus = Corpus::generate(200, 22, FeatureRanges::training(), &SimConfig::default());
        let model = train_metric(&corpus, CostMetric::Success, &quick_cfg());
        let acc = model.evaluate_classification(&corpus, 3);
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn predictions_are_positive_costs() {
        let corpus = Corpus::generate(80, 23, FeatureRanges::training(), &SimConfig::default());
        let model = train_metric(&corpus, CostMetric::E2eLatency, &quick_cfg());
        let items: Vec<&CorpusItem> = corpus.items.iter().collect();
        for p in model.predict_items(&items) {
            assert!(p.is_finite() && p >= 0.0);
        }
    }

    #[test]
    fn classification_predictions_are_probabilities() {
        let corpus = Corpus::generate(80, 24, FeatureRanges::training(), &SimConfig::default());
        let model = train_metric(&corpus, CostMetric::Backpressure, &quick_cfg());
        let items: Vec<&CorpusItem> = corpus.items.iter().collect();
        for p in model.predict_items(&items) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn fine_tuning_improves_on_new_distribution() {
        let base = Corpus::generate(120, 25, FeatureRanges::training(), &SimConfig::default());
        let mut model = train_metric(&base, CostMetric::Throughput, &quick_cfg());
        // "New" distribution: fresh items (different seed).
        let extra = Corpus::generate(80, 26, FeatureRanges::training(), &SimConfig::default());
        let before = mean_loss(&model, &extra);
        fine_tune(&mut model, &extra, 10, 1e-3, &quick_cfg());
        let after = mean_loss(&model, &extra);
        assert!(after < before, "fine-tuning did not help: {before} -> {after}");
    }

    #[test]
    fn seeded_training_is_deterministic() {
        let corpus = Corpus::generate(60, 27, FeatureRanges::training(), &SimConfig::default());
        let a = train_metric(&corpus, CostMetric::Throughput, &quick_cfg());
        let b = train_metric(&corpus, CostMetric::Throughput, &quick_cfg());
        let items: Vec<&CorpusItem> = corpus.items.iter().collect();
        assert_eq!(a.predict_items(&items), b.predict_items(&items));
    }
}
