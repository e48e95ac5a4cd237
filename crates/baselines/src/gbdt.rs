//! Gradient-boosted decision trees — the stand-in for LightGBM \[34\], which
//! the paper uses to train the flat-vector baseline \[16\].
//!
//! Histogram-based regression trees boosted on squared loss (regression)
//! or logistic loss (binary classification), LightGBM-style: every
//! feature column is sorted **once per fit** and discretized into at most
//! [`MAX_BINS`] value-boundary bins; each tree node then accumulates
//! per-bin (gradient, hessian, count) statistics in one O(rows) pass and
//! scans the bins for the best split — no per-node re-sorting. The
//! per-feature histogram build + scan fans out over the rayon pool.
//!
//! Non-finite features are handled by total-ordering: NaN (either sign)
//! and `+inf` sort into a terminal bin that every split sends to the
//! right subtree, matching `x <= threshold` routing at predict time —
//! no `partial_cmp` panics on NaN features.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Maximum tree depth.
pub const MAX_DEPTH: usize = 5;
/// Minimum samples in a leaf.
pub const MIN_LEAF: usize = 4;
/// Shrinkage applied to every tree's contribution.
pub const LEARNING_RATE: f64 = 0.1;

/// Hyper-parameters for gradient boosting.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees).
    pub n_trees: usize,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig { n_trees: 150 }
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Node::Leaf { value } => *value,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }
}

/// Maximum histogram bins per feature. At the baseline's scale (hundreds
/// to a few thousand rows) value-boundary bins this fine are effectively
/// exact greedy splitting, at a fraction of the cost.
const MAX_BINS: usize = 255;

/// Sort/bin key: totally ordered, with NaN (either sign) collapsed onto
/// `+inf` so non-finite values share one terminal bin that every split
/// routes right (`x <= threshold` is false for both NaN and `+inf`).
#[inline]
fn bin_key(v: f64) -> f64 {
    if v.is_nan() {
        f64::INFINITY
    } else {
        v
    }
}

/// The feature matrix discretized once per fit: per feature, a bin id per
/// row plus the raw-value threshold at each bin boundary (`thresholds[b]`
/// sends bins `0..=b` to the left subtree).
struct BinnedDataset {
    /// `bins[f][r]`: bin id of row `r` in feature `f` (ids increase with
    /// the feature value).
    bins: Vec<Vec<u16>>,
    /// `thresholds[f]`: one threshold per bin boundary
    /// (`thresholds[f].len() + 1` bins total).
    thresholds: Vec<Vec<f64>>,
}

impl BinnedDataset {
    /// Sorts every feature column once (by total order, so NaN features
    /// cannot panic) and assigns value-boundary bins of roughly
    /// `rows / MAX_BINS` elements. Features are processed in parallel.
    fn build(xs: &[Vec<f64>]) -> Self {
        let n = xs.len();
        let n_features = xs[0].len();
        let target = n.div_ceil(MAX_BINS).max(1);
        let per_feature: Vec<(Vec<u16>, Vec<f64>)> = (0..n_features)
            .into_par_iter()
            .map(|f| {
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_unstable_by(|&a, &b| bin_key(xs[a as usize][f]).total_cmp(&bin_key(xs[b as usize][f])));
                let mut bin_of = vec![0u16; n];
                let mut thresholds = Vec::new();
                let mut cur: u16 = 0;
                let mut count = 0usize;
                let mut prev: Option<f64> = None;
                for &r in &order {
                    let v = xs[r as usize][f];
                    if let Some(pv) = prev {
                        // Bins close only at value boundaries (so equal
                        // values can never straddle a split) once full —
                        // and always before the non-finite terminal block.
                        let differs = bin_key(pv) != bin_key(v);
                        if differs && (count >= target || bin_key(v) == f64::INFINITY) {
                            thresholds.push(if bin_key(v) == f64::INFINITY {
                                // Everything finite stays left; NaN/+inf
                                // fail `x <= pv` and go right.
                                pv
                            } else {
                                // Midpoint, guarded so the threshold always
                                // lands in [pv, v): for adjacent doubles the
                                // midpoint can round up to `v`, and for huge
                                // magnitudes `v - pv` can overflow — either
                                // would route `v` rows left at predict time
                                // after training routed them right (bins are
                                // partitioned by id, predict by `<=`).
                                let mid = pv + 0.5 * (v - pv);
                                if mid.is_finite() && pv <= mid && mid < v {
                                    mid
                                } else {
                                    pv
                                }
                            });
                            cur += 1;
                            count = 0;
                        }
                    }
                    bin_of[r as usize] = cur;
                    count += 1;
                    prev = Some(v);
                }
                (bin_of, thresholds)
            })
            .collect();
        let mut bins = Vec::with_capacity(n_features);
        let mut thresholds = Vec::with_capacity(n_features);
        for (b, t) in per_feature {
            bins.push(b);
            thresholds.push(t);
        }
        BinnedDataset { bins, thresholds }
    }

    fn n_features(&self) -> usize {
        self.bins.len()
    }
}

/// Builds one regression tree on (gradient, hessian) statistics; the leaf
/// value is the Newton step `-Σg / Σh`. Split search is histogram-based:
/// one O(rows) accumulation pass per feature (parallel over features)
/// followed by an O(bins) boundary scan — the pre-sorted bins make
/// per-node sorting unnecessary.
fn build_tree(binned: &BinnedDataset, grads: &[f64], hess: &[f64], rows: &[usize], depth: usize) -> Node {
    let g_sum: f64 = rows.iter().map(|&r| grads[r]).sum();
    let h_sum: f64 = rows.iter().map(|&r| hess[r]).sum();
    let leaf = || Node::Leaf {
        value: -g_sum / (h_sum + 1e-9),
    };
    if depth >= MAX_DEPTH || rows.len() < 2 * MIN_LEAF {
        return leaf();
    }
    let parent_score = g_sum * g_sum / (h_sum + 1e-9);

    // Per-feature best split: (gain, boundary bin); merged in feature
    // order below so the result is deterministic regardless of thread
    // count.
    let scan_feature = |f: usize| -> Option<(f64, usize)> {
        let n_bins = binned.thresholds[f].len() + 1;
        if n_bins < 2 {
            return None;
        }
        let col = &binned.bins[f];
        let mut hist: Vec<(f64, f64, usize)> = vec![(0.0, 0.0, 0); n_bins];
        for &r in rows {
            let h = &mut hist[col[r] as usize];
            h.0 += grads[r];
            h.1 += hess[r];
            h.2 += 1;
        }
        let mut best: Option<(f64, usize)> = None;
        let mut gl = 0.0;
        let mut hl = 0.0;
        let mut cl = 0usize;
        for (b, &(hg, hh, hc)) in hist.iter().enumerate().take(n_bins - 1) {
            gl += hg;
            hl += hh;
            cl += hc;
            if cl < MIN_LEAF || rows.len() - cl < MIN_LEAF {
                continue;
            }
            let gr = g_sum - gl;
            let hr = h_sum - hl;
            let gain = gl * gl / (hl + 1e-9) + gr * gr / (hr + 1e-9) - parent_score;
            if gain > best.map_or(1e-9, |(g, _)| g) {
                best = Some((gain, b));
            }
        }
        best
    };
    // Fan out over features only when the histogram pass is big enough to
    // amortize worker startup — deep nodes with a handful of rows would
    // otherwise pay more for threads than for the O(rows) scan itself.
    const PAR_SPLIT_MIN_ROWS: usize = 512;
    let per_feature: Vec<Option<(f64, usize)>> = if rows.len() < PAR_SPLIT_MIN_ROWS {
        (0..binned.n_features()).map(scan_feature).collect()
    } else {
        (0..binned.n_features()).into_par_iter().map(scan_feature).collect()
    };

    let mut best: Option<(usize, usize, f64)> = None; // (feature, boundary bin, gain)
    for (f, cand) in per_feature.into_iter().enumerate() {
        if let Some((gain, b)) = cand {
            if gain > best.map_or(1e-9, |(_, _, g)| g) {
                best = Some((f, b, gain));
            }
        }
    }

    match best {
        None => leaf(),
        Some((feature, boundary, _)) => {
            let col = &binned.bins[feature];
            let (l, r): (Vec<usize>, Vec<usize>) = rows.iter().partition(|&&r| col[r] as usize <= boundary);
            if l.is_empty() || r.is_empty() {
                return leaf();
            }
            Node::Split {
                feature,
                threshold: binned.thresholds[feature][boundary],
                left: Box::new(build_tree(binned, grads, hess, &l, depth + 1)),
                right: Box::new(build_tree(binned, grads, hess, &r, depth + 1)),
            }
        }
    }
}

/// The boosting objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Squared loss on the raw target.
    Regression,
    /// Logistic loss on a binary {0,1} target; predictions are
    /// probabilities.
    BinaryClassification,
}

/// A gradient-boosted tree model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Gbdt {
    objective: Objective,
    base_score: f64,
    trees: Vec<Node>,
}

impl Gbdt {
    /// Fits a model. Feature columns are sorted and binned **once** here;
    /// every tree of every boosting round reuses the same bins, so the
    /// per-node cost is a single histogram pass instead of a sort.
    /// Non-finite feature values (NaN, ±inf) are tolerated — see the
    /// module docs for their routing semantics.
    ///
    /// # Panics
    /// Panics when `xs` and `ys` are empty or of different lengths.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], objective: Objective, cfg: &GbdtConfig) -> Self {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len());
        let binned = BinnedDataset::build(xs);
        let base_score = match objective {
            Objective::Regression => ys.iter().sum::<f64>() / ys.len() as f64,
            Objective::BinaryClassification => {
                let p = (ys.iter().sum::<f64>() / ys.len() as f64).clamp(1e-4, 1.0 - 1e-4);
                (p / (1.0 - p)).ln()
            }
        };
        let mut scores = vec![base_score; ys.len()];
        let rows: Vec<usize> = (0..ys.len()).collect();
        let mut trees = Vec::with_capacity(cfg.n_trees);
        for _ in 0..cfg.n_trees {
            let (grads, hess): (Vec<f64>, Vec<f64>) = match objective {
                Objective::Regression => (scores.iter().zip(ys).map(|(s, y)| s - y).collect(), vec![1.0; ys.len()]),
                Objective::BinaryClassification => {
                    let ps: Vec<f64> = scores.iter().map(|s| 1.0 / (1.0 + (-s).exp())).collect();
                    (
                        ps.iter().zip(ys).map(|(p, y)| p - y).collect(),
                        ps.iter().map(|p| (p * (1.0 - p)).max(1e-6)).collect(),
                    )
                }
            };
            let tree = build_tree(&binned, &grads, &hess, &rows, 0);
            for (i, x) in xs.iter().enumerate() {
                scores[i] += LEARNING_RATE * tree.predict(x);
            }
            trees.push(tree);
        }
        Gbdt {
            objective,
            base_score,
            trees,
        }
    }

    /// Raw score (regression value or logit) of one sample.
    pub fn score(&self, x: &[f64]) -> f64 {
        self.base_score + LEARNING_RATE * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// Prediction: the raw value for regression, the positive-class
    /// probability for classification.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let s = self.score(x);
        match self.objective {
            Objective::Regression => s,
            Objective::BinaryClassification => 1.0 / (1.0 + (-s).exp()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synthetic(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 3.0 * x[0] + x[1] * x[1] - 2.0 * (x[2] > 0.5) as i32 as f64)
            .collect();
        (xs, ys)
    }

    #[test]
    fn regression_fits_nonlinear_function() {
        let (xs, ys) = synthetic(400, 1);
        let m = Gbdt::fit(&xs, &ys, Objective::Regression, &GbdtConfig::default());
        let mse: f64 = xs.iter().zip(&ys).map(|(x, y)| (m.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        let var = ys.iter().map(|y| y * y).sum::<f64>() / ys.len() as f64;
        assert!(mse < 0.05 * var, "mse {mse} vs var {var}");
    }

    #[test]
    fn boosting_monotonically_improves_training_loss() {
        let (xs, ys) = synthetic(200, 2);
        let mut last = f64::INFINITY;
        for n_trees in [1, 10, 50] {
            let m = Gbdt::fit(&xs, &ys, Objective::Regression, &GbdtConfig { n_trees });
            let mse: f64 = xs.iter().zip(&ys).map(|(x, y)| (m.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
            assert!(mse < last, "mse {mse} not below {last} at {n_trees} trees");
            last = mse;
        }
    }

    #[test]
    fn classification_separates_classes() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] + x[1] > 0.0) as i32 as f64).collect();
        let m = Gbdt::fit(&xs, &ys, Objective::BinaryClassification, &GbdtConfig::default());
        let acc = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| (m.predict(x) > 0.5) == (y > 0.5))
            .count() as f64
            / 300.0;
        assert!(acc > 0.93, "accuracy {acc}");
        for x in &xs {
            let p = m.predict(x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn constant_target_yields_constant_prediction() {
        let (xs, _) = synthetic(50, 4);
        let ys = vec![7.0; 50];
        let m = Gbdt::fit(&xs, &ys, Objective::Regression, &GbdtConfig::default());
        for x in &xs {
            assert!((m.predict(x) - 7.0).abs() < 1e-6);
        }
    }

    #[test]
    fn nan_features_do_not_panic_and_predict_finite() {
        // Regression test for the seed's `partial_cmp(...).expect("finite
        // features")` panic: a column with NaN holes must train fine, with
        // NaN rows routed to the right subtree like any non-finite value.
        let (mut xs, ys) = synthetic(200, 6);
        for (i, x) in xs.iter_mut().enumerate() {
            if i % 7 == 0 {
                x[1] = f64::NAN;
            }
            if i % 11 == 0 {
                x[2] = f64::INFINITY;
            }
        }
        let m = Gbdt::fit(&xs, &ys, Objective::Regression, &GbdtConfig::default());
        for x in &xs {
            assert!(m.predict(x).is_finite(), "prediction must stay finite");
        }
        // The clean features still carry signal: fit quality on the rows
        // with intact x[0] should beat predicting the mean.
        let mse: f64 = xs.iter().zip(&ys).map(|(x, y)| (m.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let var = ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / ys.len() as f64;
        assert!(mse < 0.5 * var, "mse {mse} vs var {var}");
    }

    #[test]
    fn extreme_magnitudes_split_consistently() {
        // Midpoint of ±huge values overflows f64; the guarded threshold
        // must still route predict-time exactly like fit-time binning, so
        // a perfectly separable feature stays perfectly predicted.
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![if i % 2 == 0 { -1e308 } else { 1e308 }, i as f64])
            .collect();
        let ys: Vec<f64> = (0..80).map(|i| if i % 2 == 0 { -3.0 } else { 5.0 }).collect();
        let m = Gbdt::fit(&xs, &ys, Objective::Regression, &GbdtConfig::default());
        for (x, y) in xs.iter().zip(&ys) {
            assert!((m.predict(x) - y).abs() < 1e-4, "{} vs {}", m.predict(x), y);
        }
    }

    #[test]
    fn adjacent_double_values_split_consistently() {
        // pv and v one ulp apart: a naive midpoint rounds to v, sending
        // v-rows left at predict time after fit routed them right.
        let lo = 1.0f64;
        let hi = 1.0f64 + f64::EPSILON;
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![if i % 2 == 0 { lo } else { hi }, (i % 7) as f64])
            .collect();
        let ys: Vec<f64> = (0..80).map(|i| if i % 2 == 0 { 0.0 } else { 10.0 }).collect();
        let m = Gbdt::fit(&xs, &ys, Objective::Regression, &GbdtConfig::default());
        for (x, y) in xs.iter().zip(&ys) {
            assert!((m.predict(x) - y).abs() < 1e-4, "{} vs {}", m.predict(x), y);
        }
    }

    #[test]
    fn all_nan_feature_is_ignored() {
        let (mut xs, ys) = synthetic(100, 7);
        for x in xs.iter_mut() {
            x[3] = f64::NAN;
        }
        let m = Gbdt::fit(&xs, &ys, Objective::Regression, &GbdtConfig::default());
        let mse: f64 = xs.iter().zip(&ys).map(|(x, y)| (m.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        let var = ys.iter().map(|y| y * y).sum::<f64>() / ys.len() as f64;
        assert!(
            mse < 0.1 * var,
            "useful features must still be split on: mse {mse} vs var {var}"
        );
    }

    #[test]
    fn min_leaf_respected_on_tiny_data() {
        let (xs, ys) = synthetic(6, 5);
        let m = Gbdt::fit(&xs, &ys, Objective::Regression, &GbdtConfig::default());
        assert!(!m.trees.is_empty());
        assert!(m.predict(&xs[0]).is_finite());
    }
}
