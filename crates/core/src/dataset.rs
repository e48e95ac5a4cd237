//! The cost-estimation benchmark corpus (§VI) and dataset handling.
//!
//! A [`Corpus`] is a set of executed workload items — query, cluster,
//! placement, estimated selectivities and the measured cost metrics — i.e.
//! exactly the "query traces" the paper's benchmark contains. Corpora are
//! generated against the simulator, split 80/10/10 into train/validation/
//! test (§VII) and can be balanced by binary label for the classification
//! evaluations.

use crate::graph::{Featurization, JointGraph};
use costream_dsps::{simulate, CostMetric, CostMetrics, SimConfig};
use costream_query::generator::WorkloadGenerator;
use costream_query::hardware::Cluster;
use costream_query::operators::Query;
use costream_query::placement::Placement;
use costream_query::ranges::FeatureRanges;
use costream_query::selectivity::SelectivityEstimator;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One executed benchmark trace.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CorpusItem {
    /// The streaming query.
    pub query: Query,
    /// The hardware it ran on.
    pub cluster: Cluster,
    /// The operator placement.
    pub placement: Placement,
    /// Estimated selectivities per operator (model input, §IV-B).
    pub est_sels: Vec<f64>,
    /// Measured cost metrics (training labels).
    pub metrics: CostMetrics,
}

impl CorpusItem {
    /// Builds the joint graph representation for this item.
    pub fn graph(&self, featurization: Featurization) -> JointGraph {
        JointGraph::build(
            &self.query,
            &self.cluster,
            &self.placement,
            &self.est_sels,
            featurization,
        )
    }

    /// Featurizes a set of items into joint graphs — the shared front end
    /// of every `predict_items` path.
    pub fn featurize_all(items: &[&CorpusItem], featurization: Featurization) -> Vec<JointGraph> {
        items.iter().map(|i| i.graph(featurization)).collect()
    }

    /// Executes one workload on the simulator and records the trace.
    fn execute(
        query: Query,
        cluster: Cluster,
        placement: Placement,
        sel_estimator: &mut SelectivityEstimator,
        sim: &SimConfig,
    ) -> Self {
        let est_sels = sel_estimator.estimate_query(&query);
        let result = simulate(&query, &cluster, &placement, sim);
        CorpusItem {
            query,
            cluster,
            placement,
            est_sels,
            metrics: result.metrics,
        }
    }
}

/// A set of executed benchmark traces.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Corpus {
    /// The traces.
    pub items: Vec<CorpusItem>,
}

impl Corpus {
    /// Generates `n` traces from the synthetic benchmark generator (§VI)
    /// with the given feature ranges.
    pub fn generate(n: usize, seed: u64, ranges: FeatureRanges, sim: &SimConfig) -> Self {
        let mut wg = WorkloadGenerator::new(seed, ranges);
        let mut est = SelectivityEstimator::realistic(seed.wrapping_add(1));
        let items = (0..n)
            .map(|k| {
                let (q, c, p) = wg.workload_item();
                CorpusItem::execute(q, c, p, &mut est, &sim.with_seed(seed.wrapping_add(k as u64)))
            })
            .collect();
        Corpus { items }
    }

    /// Executes a list of externally constructed workloads (used by the
    /// unseen-pattern and unseen-benchmark experiments).
    pub fn from_workloads(workloads: Vec<(Query, Cluster, Placement)>, seed: u64, sim: &SimConfig) -> Self {
        let mut est = SelectivityEstimator::realistic(seed.wrapping_add(1));
        let items = workloads
            .into_iter()
            .enumerate()
            .map(|(k, (q, c, p))| CorpusItem::execute(q, c, p, &mut est, &sim.with_seed(seed.wrapping_add(k as u64))))
            .collect();
        Corpus { items }
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the corpus holds no traces.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Shuffles (seeded) and splits 80/10/10 into train/validation/test,
    /// the protocol of §VII.
    pub fn split(mut self, seed: u64) -> (Corpus, Corpus, Corpus) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.items.shuffle(&mut rng);
        let n = self.items.len();
        let n_train = n * 8 / 10;
        let n_val = n / 10;
        let test = self.items.split_off(n_train + n_val);
        let val = self.items.split_off(n_train);
        (
            Corpus { items: self.items },
            Corpus { items: val },
            Corpus { items: test },
        )
    }

    /// Regression view: items with successful executions (failed runs have
    /// no meaningful throughput/latency labels).
    pub fn successful(&self) -> Vec<&CorpusItem> {
        self.items.iter().filter(|i| i.metrics.success).collect()
    }

    /// Balanced subset for a binary metric: equal numbers of positive and
    /// negative examples (the paper balances classification test sets).
    pub fn balanced(&self, metric: CostMetric, seed: u64) -> Vec<&CorpusItem> {
        assert!(!metric.is_regression(), "balancing applies to classification metrics");
        let mut pos: Vec<&CorpusItem> = self.items.iter().filter(|i| i.metrics.get(metric) > 0.5).collect();
        let mut neg: Vec<&CorpusItem> = self.items.iter().filter(|i| i.metrics.get(metric) <= 0.5).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        pos.shuffle(&mut rng);
        neg.shuffle(&mut rng);
        let k = pos.len().min(neg.len());
        let mut out = Vec::with_capacity(2 * k);
        out.extend(pos.into_iter().take(k));
        out.extend(neg.into_iter().take(k));
        out.shuffle(&mut rng);
        out
    }

    /// Serializes the corpus to JSON — the stored form whose bytes
    /// `tests/json_paths.rs` pins.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("corpus serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphTemplate;

    fn small_corpus() -> Corpus {
        Corpus::generate(60, 11, FeatureRanges::training(), &SimConfig::default())
    }

    #[test]
    fn generation_produces_requested_count() {
        let c = small_corpus();
        assert_eq!(c.len(), 60);
        for item in &c.items {
            assert_eq!(item.est_sels.len(), item.query.len());
            assert!(item.placement.is_valid(&item.query, &item.cluster));
        }
    }

    #[test]
    fn split_is_80_10_10() {
        let (train, val, test) = small_corpus().split(1);
        assert_eq!(train.len(), 48);
        assert_eq!(val.len(), 6);
        assert_eq!(test.len(), 6);
    }

    #[test]
    fn split_is_deterministic_and_disjoint() {
        let c = small_corpus();
        let (a1, _, _) = c.clone().split(5);
        let (a2, _, _) = c.split(5);
        assert_eq!(a1.items.len(), a2.items.len());
        assert_eq!(
            serde_json::to_string(&a1.items[0].metrics).unwrap(),
            serde_json::to_string(&a2.items[0].metrics).unwrap()
        );
    }

    #[test]
    fn balanced_subset_is_balanced() {
        let c = Corpus::generate(150, 13, FeatureRanges::training(), &SimConfig::default());
        let b = c.balanced(CostMetric::Backpressure, 2);
        if !b.is_empty() {
            let pos = b.iter().filter(|i| i.metrics.backpressure).count();
            assert_eq!(pos * 2, b.len());
        }
    }

    #[test]
    fn json_roundtrip() {
        let c = Corpus::generate(5, 17, FeatureRanges::training(), &SimConfig::default());
        let json = c.to_json();
        let back: Corpus = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(back.len(), 5);
        // JSON float formatting may differ in the last ulp.
        let (a, b) = (back.items[2].metrics, c.items[2].metrics);
        assert!((a.throughput - b.throughput).abs() < 1e-6);
        assert!((a.processing_latency_ms - b.processing_latency_ms).abs() < 1e-6);
        assert_eq!(a.success, b.success);
        assert_eq!(a.backpressure, b.backpressure);
    }

    #[test]
    fn graphs_build_for_all_items() {
        let c = small_corpus();
        for item in &c.items {
            let g = item.graph(Featurization::Full);
            assert!(g.len() >= item.query.len());
        }
    }

    #[test]
    fn graph_template_matches_direct_featurization() {
        let c = small_corpus();
        for item in c.items.iter().take(10) {
            let template = GraphTemplate::new(&item.query, &item.cluster, &item.est_sels, Featurization::Full);
            let direct = item.graph(Featurization::Full);
            let templated = template.instantiate(&item.placement);
            assert_eq!(templated.nodes.len(), direct.nodes.len());
            for (a, b) in templated.nodes.iter().zip(&direct.nodes) {
                assert_eq!(a.features, b.features);
            }
            assert_eq!(templated.placement_edges, direct.placement_edges);
        }
    }
}
