//! Shared machinery for the experiment suite: scales, model bundles and
//! table formatting.

use costream::prelude::*;
use costream_baselines::{flat_features, FlatVectorModel, GbdtConfig};
use costream_dsps::CostMetric;

/// Experiment scale. The paper's corpus has 43,281 traces and trains on a
/// CloudLab cluster; the suite defaults to a laptop-size scale that keeps
/// the *shape* of every result while finishing in minutes.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Synthetic corpus size for the main experiments.
    pub corpus_size: usize,
    /// Training epochs for the GNN.
    pub epochs: usize,
    /// Ensemble size (the paper uses 3 for placement).
    pub ensemble_k: usize,
    /// Queries per generalization experiment (paper: n = 100).
    pub eval_queries: usize,
    /// Queries per type in the placement experiment (paper: 50).
    pub opt_queries: usize,
    /// Placement candidates enumerated per query.
    pub candidates: usize,
    /// Corpus size for the per-setting retrainings of Exp 3/4/7.
    pub retrain_corpus: usize,
    /// Epochs for the per-setting retrainings.
    pub retrain_epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Tiny scale for smoke tests.
    pub fn quick() -> Self {
        Scale {
            corpus_size: 260,
            epochs: 15,
            ensemble_k: 1,
            eval_queries: 20,
            opt_queries: 4,
            candidates: 6,
            retrain_corpus: 200,
            retrain_epochs: 10,
            seed: 7,
        }
    }

    /// Default reproduction scale (minutes per experiment on one core).
    pub fn paper() -> Self {
        Scale {
            corpus_size: 2600,
            epochs: 70,
            ensemble_k: 3,
            eval_queries: 100,
            opt_queries: 20,
            candidates: 12,
            retrain_corpus: 1100,
            retrain_epochs: 45,
            seed: 7,
        }
    }
}

/// A full bundle of trained predictors: one Costream ensemble and one
/// flat-vector baseline per cost metric.
pub struct Models {
    /// Costream ensembles by metric (ordered as [`CostMetric::ALL`]).
    pub ensembles: Vec<Ensemble>,
    /// Flat-vector baselines by metric (same order).
    pub flat: Vec<FlatVectorModel>,
}

impl Models {
    /// The ensemble for a metric.
    pub fn ensemble(&self, metric: CostMetric) -> &Ensemble {
        self.ensembles
            .iter()
            .find(|e| e.metric == metric)
            .expect("all metrics trained")
    }

    /// The flat baseline for a metric.
    pub fn flat(&self, metric: CostMetric) -> &FlatVectorModel {
        self.flat
            .iter()
            .find(|m| m.metric == metric)
            .expect("all metrics trained")
    }
}

/// Trains Costream ensembles and flat-vector baselines for all five
/// metrics on the same training corpus.
pub fn train_all(train: &Corpus, scale: &Scale) -> Models {
    let cfg = TrainConfig {
        epochs: scale.epochs,
        seed: scale.seed,
        ..Default::default()
    };
    let ensembles = CostMetric::ALL
        .iter()
        .map(|&m| {
            eprintln!("  training Costream {:?} (k={}) ...", m, scale.ensemble_k);
            Ensemble::train(train, m, &cfg, scale.ensemble_k)
        })
        .collect();
    let flat = CostMetric::ALL
        .iter()
        .map(|&m| {
            eprintln!("  training FlatVector {m:?} ...");
            train_flat(train, m)
        })
        .collect();
    Models { ensembles, flat }
}

/// Trains one flat-vector baseline model. Classification metrics get the
/// same minority oversampling the GNN training applies.
fn train_flat(train: &Corpus, metric: CostMetric) -> FlatVectorModel {
    let items: Vec<&CorpusItem> = if metric.is_regression() {
        train.successful()
    } else {
        train.items.iter().collect()
    };
    let mut xs: Vec<Vec<f64>> = items
        .iter()
        .map(|i| flat_features(&i.query, &i.cluster, &i.placement, &i.est_sels))
        .collect();
    let mut ys: Vec<f64> = items.iter().map(|i| i.metrics.get(metric)).collect();
    if !metric.is_regression() {
        let pos: Vec<usize> = (0..ys.len()).filter(|&i| ys[i] > 0.5).collect();
        let neg: Vec<usize> = (0..ys.len()).filter(|&i| ys[i] <= 0.5).collect();
        if !pos.is_empty() && !neg.is_empty() {
            let minority = if pos.len() < neg.len() { pos } else { neg };
            let majority_len = ys.len() - minority.len();
            for k in 0..majority_len.saturating_sub(minority.len()) {
                xs.push(xs[minority[k % minority.len()]].clone());
                ys.push(ys[minority[k % minority.len()]]);
            }
        }
    }
    FlatVectorModel::fit(&xs, &ys, metric, &GbdtConfig::default())
}

/// Flat-baseline predictions for a set of corpus items.
pub fn flat_predict(model: &FlatVectorModel, items: &[&CorpusItem]) -> Vec<f64> {
    items
        .iter()
        .map(|i| model.predict(&flat_features(&i.query, &i.cluster, &i.placement, &i.est_sels)))
        .collect()
}

/// Q-error summary of regression predictions (`preds[i]` for `items[i]`)
/// against the items' measured `metric`.
pub(crate) fn eval_regression(items: &[&CorpusItem], metric: CostMetric, preds: &[f64]) -> QErrorSummary {
    QErrorSummary::of(
        &items
            .iter()
            .zip(preds)
            .map(|(i, &p)| (i.metrics.get(metric), p))
            .collect::<Vec<_>>(),
    )
}

/// Accuracy of classification predictions (`preds[i]` for `items[i]`,
/// positive above 0.5) against the items' measured `metric`.
pub(crate) fn eval_classification(items: &[&CorpusItem], metric: CostMetric, preds: &[f64]) -> f64 {
    accuracy(
        &items
            .iter()
            .zip(preds)
            .map(|(i, &p)| (i.metrics.get(metric) > 0.5, p > 0.5))
            .collect::<Vec<_>>(),
    )
}

/// One comparison row of a results table.
#[derive(Clone, Debug)]
pub struct MetricRow {
    /// Metric name.
    pub metric: CostMetric,
    /// Costream Q50/Q95 (regression) or accuracy in `q50` (classification).
    pub costream: (f64, f64),
    /// FlatVector Q50/Q95 or accuracy.
    pub flat: (f64, f64),
}

/// Evaluates all five metrics on one corpus against both model families:
/// Q-errors over the successful items for regression metrics, accuracy
/// over a balanced subset for classification metrics (1.0 when the
/// subset is empty).
pub fn evaluate_all(models: &Models, corpus: &Corpus, seed: u64) -> Vec<MetricRow> {
    CostMetric::ALL
        .iter()
        .map(|&m| {
            let (ensemble, flat) = (models.ensemble(m), models.flat(m));
            if m.is_regression() {
                let items = corpus.successful();
                let c = eval_regression(&items, m, &ensemble.predict_items(&items));
                let f = eval_regression(&items, m, &flat_predict(flat, &items));
                MetricRow {
                    metric: m,
                    costream: (c.q50, c.q95),
                    flat: (f.q50, f.q95),
                }
            } else {
                let items = corpus.balanced(m, seed);
                let (c, f) = if items.is_empty() {
                    (1.0, 1.0)
                } else {
                    (
                        eval_classification(&items, m, &ensemble.predict_items(&items)),
                        eval_classification(&items, m, &flat_predict(flat, &items)),
                    )
                };
                MetricRow {
                    metric: m,
                    costream: (c, f64::NAN),
                    flat: (f, f64::NAN),
                }
            }
        })
        .collect()
}

/// Prints a comparison table in the layout of Table III.
pub fn print_rows(title: &str, rows: &[MetricRow], paper: &[(&str, &str, &str)]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>20} {:>20}   paper (Costream | Flat)",
        "Metric", "COSTREAM", "FLATVECTOR"
    );
    for (i, r) in rows.iter().enumerate() {
        let fmt = |v: (f64, f64)| {
            if v.1.is_nan() {
                format!("{:.2}%", v.0 * 100.0)
            } else {
                format!("Q50 {:.2} Q95 {:.2}", v.0, v.1)
            }
        };
        let paper_note = paper.get(i).map(|(_, c, f)| format!("{c} | {f}")).unwrap_or_default();
        println!(
            "{:<22} {:>20} {:>20}   {}",
            r.metric.name(),
            fmt(r.costream),
            fmt(r.flat),
            paper_note
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_small() {
        let s = Scale::quick();
        assert!(s.corpus_size < Scale::paper().corpus_size);
    }

    #[test]
    fn train_all_and_evaluate_all_run_end_to_end() {
        let scale = Scale {
            corpus_size: 160,
            epochs: 8,
            ..Scale::quick()
        };
        let corpus = Corpus::generate(
            scale.corpus_size,
            scale.seed,
            FeatureRanges::training(),
            &SimConfig::default(),
        );
        let (train, _, test) = corpus.split(scale.seed);
        let models = train_all(&train, &scale);
        let rows = evaluate_all(&models, &test, 1);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.costream.0.is_finite());
            assert!(r.flat.0.is_finite());
        }
    }
}
