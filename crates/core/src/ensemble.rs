//! Seed-varied model ensembles (§IV-A).
//!
//! Costream reduces prediction uncertainty by training multiple models per
//! metric that differ only in their random initialization seed. At
//! inference time regression predictions are averaged and classification
//! predictions are combined by majority vote.
//!
//! An ensemble predicts through its member-fused view ([`Ensemble::fused`]),
//! the one forward pass of [`crate::fused`]: every `predict_*` entry point
//! here, the placement search's
//! [`EnsembleScorer`](crate::search::EnsembleScorer) and
//! `costream-serve`'s workers run it.

use crate::dataset::{Corpus, CorpusItem};
use crate::fused::FusedEnsemble;
use crate::graph::{Featurization, JointGraph};
use crate::model::ModelConfig;
#[cfg(test)]
use crate::train::train_metric;
use crate::train::{prepare_training, train_prepared, TrainConfig, TrainedModel};
use costream_dsps::CostMetric;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// An ensemble of models for one cost metric. The members cannot change
/// once it is built, so the view behind [`Ensemble::fused`] never goes stale.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ensemble {
    /// The metric all members predict.
    pub metric: CostMetric,
    members: Vec<TrainedModel>,
    /// Stacked on first use; a deserialized ensemble restacks it.
    #[serde(skip)]
    fused: OnceLock<FusedEnsemble>,
}

impl Ensemble {
    /// Trains `k` models with different seeds on the same corpus.
    ///
    /// The corpus is lowered to minibatch execution plans *once*; the
    /// members — which differ only in their weight-init and
    /// batch-order-shuffle seeds — then train from the shared plans in
    /// parallel (they are embarrassingly parallel).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn train(corpus: &Corpus, metric: CostMetric, cfg: &TrainConfig, k: usize) -> Self {
        assert!(k > 0, "an ensemble needs at least one member");
        let prepared = prepare_training(corpus, metric, cfg);
        let members = (0..k)
            .into_par_iter()
            .map(|i| train_prepared(&prepared, metric, &cfg.with_seed(cfg.seed.wrapping_add(1 + i as u64))))
            .collect();
        Self::from_members(members)
    }

    /// Wraps already-trained models.
    ///
    /// # Panics
    /// Panics if the members are empty, predict different metrics, were
    /// trained on different featurizations or have configurations that are
    /// not [plan-congruent](ModelConfig::plan_congruent): one fused view
    /// runs every member on member 0's graphs and plans.
    pub fn from_members(members: Vec<TrainedModel>) -> Self {
        assert!(!members.is_empty(), "empty ensemble");
        let (metric, featurization, config) =
            (members[0].metric, members[0].featurization, members[0].model().config());
        assert!(members.iter().all(|m| m.metric == metric), "mixed-metric ensemble");
        assert!(
            members.iter().all(|m| m.featurization == featurization),
            "mixed-featurization ensemble"
        );
        assert!(
            members.iter().all(|m| m.model().config().plan_congruent(config)),
            "plan-incongruent ensemble"
        );
        Ensemble {
            metric,
            members,
            fused: OnceLock::new(),
        }
    }

    /// The individual members.
    pub fn members(&self) -> &[TrainedModel] {
        &self.members
    }

    /// Featurization the members' graphs were built with.
    pub fn featurization(&self) -> Featurization {
        self.members[0].featurization
    }

    /// The members' shared GNN hyper-parameters (the serving layer reads
    /// the message-passing scheme and round count from here to key its
    /// plan cache).
    pub fn model_config(&self) -> &ModelConfig {
        self.members[0].model().config()
    }

    /// Combined prediction for prepared graphs: the mean for regression
    /// metrics, the majority-vote probability (fraction of members voting
    /// positive) for classification metrics.
    ///
    /// Runs the member-fused production path: chunk → plan → one fused
    /// pass per chunk (see [`FusedEnsemble::predict_graphs`]).
    pub fn predict_graphs(&self, graphs: &[&JointGraph]) -> Vec<f64> {
        self.fused().predict_graphs(graphs)
    }

    /// The member-fused inference view of this ensemble, stacked on the
    /// first call and shared by every later one.
    pub fn fused(&self) -> &FusedEnsemble {
        self.fused.get_or_init(|| FusedEnsemble::build(&self.members))
    }

    /// Combined prediction for corpus items.
    pub fn predict_items(&self, items: &[&CorpusItem]) -> Vec<f64> {
        let graphs = CorpusItem::featurize_all(items, self.featurization());
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        self.predict_graphs(&refs)
    }
}

/// Combines *member-major* flat predictions — `flat` is `[n, k]`
/// row-major with member `m` in column `m` — into the mean (regression)
/// or the majority-vote fraction (classification) per row. Summation is
/// member-ascending on an f64 accumulator.
pub(crate) fn combine_member_major(metric: CostMetric, k: usize, flat: &[f64]) -> Vec<f64> {
    debug_assert_eq!(flat.len() % k, 0);
    if metric.is_regression() {
        flat.chunks_exact(k)
            .map(|row| row.iter().sum::<f64>() / k as f64)
            .collect()
    } else {
        flat.chunks_exact(k)
            .map(|row| row.iter().filter(|&&p| p > 0.5).count() as f64 / k as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qerror::QErrorSummary;
    use costream_dsps::SimConfig;
    use costream_query::ranges::FeatureRanges;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 10,
            batch_size: 16,
            ..Default::default()
        }
    }

    #[test]
    fn ensemble_mean_matches_member_mean() {
        let corpus = Corpus::generate(80, 31, FeatureRanges::training(), &SimConfig::default());
        let e = Ensemble::train(&corpus, CostMetric::Throughput, &quick_cfg(), 3);
        assert_eq!(e.members().len(), 3);
        let items: Vec<&CorpusItem> = corpus.items.iter().take(5).collect();
        let combined = e.predict_items(&items);
        let members: Vec<Vec<f64>> = e.members().iter().map(|m| m.predict_items(&items)).collect();
        for i in 0..items.len() {
            let mean = members.iter().map(|m| m[i]).sum::<f64>() / 3.0;
            assert!((combined[i] - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn members_differ_but_agree_roughly() {
        let corpus = Corpus::generate(100, 32, FeatureRanges::training(), &SimConfig::default());
        let e = Ensemble::train(&corpus, CostMetric::Throughput, &quick_cfg(), 2);
        let items: Vec<&CorpusItem> = corpus.successful();
        let a = e.members()[0].predict_items(&items);
        let b = e.members()[1].predict_items(&items);
        assert_ne!(a, b, "seed-varied members must differ");
    }

    #[test]
    fn classification_vote_is_fraction() {
        let corpus = Corpus::generate(100, 33, FeatureRanges::training(), &SimConfig::default());
        let e = Ensemble::train(&corpus, CostMetric::Success, &quick_cfg(), 3);
        let items: Vec<&CorpusItem> = corpus.items.iter().take(10).collect();
        for p in e.predict_items(&items) {
            // With 3 voters the possible fractions are 0, 1/3, 2/3, 1.
            let scaled = p * 3.0;
            assert!((scaled - scaled.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn ensemble_no_worse_than_worst_member() {
        let corpus = Corpus::generate(120, 34, FeatureRanges::training(), &SimConfig::default());
        let e = Ensemble::train(&corpus, CostMetric::E2eLatency, &quick_cfg(), 3);
        let items = corpus.successful();
        let truth: Vec<f64> = items.iter().map(|i| i.metrics.e2e_latency_ms).collect();
        let q50_of =
            |preds: &[f64]| QErrorSummary::of(&truth.iter().zip(preds).map(|(&t, &p)| (t, p)).collect::<Vec<_>>()).q50;
        let combined = q50_of(&e.predict_items(&items));
        let worst = e
            .members()
            .iter()
            .map(|m| q50_of(&m.predict_items(&items)))
            .fold(0.0, f64::max);
        assert!(combined <= worst * 1.05, "ensemble {combined} vs worst member {worst}");
    }

    #[test]
    #[should_panic(expected = "mixed-metric")]
    fn mixed_metric_members_rejected() {
        let corpus = Corpus::generate(40, 35, FeatureRanges::training(), &SimConfig::default());
        let a = train_metric(&corpus, CostMetric::Throughput, &quick_cfg());
        let b = train_metric(&corpus, CostMetric::Success, &quick_cfg());
        let _ = Ensemble::from_members(vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "mixed-featurization")]
    fn mixed_featurization_members_rejected() {
        let corpus = Corpus::generate(40, 35, FeatureRanges::training(), &SimConfig::default());
        let cfg = TrainConfig {
            epochs: 1,
            ..quick_cfg()
        };
        let a = train_metric(&corpus, CostMetric::Throughput, &cfg);
        let b = train_metric(
            &corpus,
            CostMetric::Throughput,
            &TrainConfig {
                featurization: Featurization::QueryOnly,
                ..cfg
            },
        );
        let _ = Ensemble::from_members(vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "plan-incongruent")]
    fn plan_incongruent_members_rejected() {
        let corpus = Corpus::generate(40, 35, FeatureRanges::training(), &SimConfig::default());
        let cfg = TrainConfig {
            epochs: 1,
            ..quick_cfg()
        };
        let a = train_metric(&corpus, CostMetric::Throughput, &cfg);
        let mut traditional = cfg;
        traditional.model.scheme = crate::model::Scheme::Traditional;
        let b = train_metric(&corpus, CostMetric::Throughput, &traditional);
        let _ = Ensemble::from_members(vec![a, b]);
    }
}
