//! The hash-consed fused pass on batches that repeat themselves.
//!
//! `tests/fused.rs` holds the fused path to the sequential oracle on
//! batches of unrelated graphs, where little merges. What a placement
//! search scores is the other extreme: neighbours of one placement that
//! share most of their encoder rows and wave updates. These tests record
//! the batches real searches hand their scorer (single-query LocalSearch
//! and BeamSearch, joint LocalSearch) and a batch of one graph repeated,
//! and hold the slot-scheduled pass bitwise equal to
//! `Ensemble::predict_plans_arena` on every one of them — for both
//! message-passing schemes and all three featurizations.

use costream::model::INFERENCE_CHUNK;
use costream::plan::SlotStats;
use costream::prelude::*;
use costream::test_fixtures;
use costream_nn::InferenceArena;
use std::sync::{Mutex, OnceLock};

const SCHEMES: [Scheme; 2] = [Scheme::Costream, Scheme::Traditional];
const FEATURIZATIONS: [Featurization; 3] = [
    Featurization::QueryOnly,
    Featurization::HardwareNodes,
    Featurization::Full,
];

/// A 2-member trio per (scheme, featurization), trained once and shared.
fn trio(scheme: Scheme, featurization: Featurization) -> &'static test_fixtures::Trio {
    static TRIOS: [OnceLock<test_fixtures::Trio>; 6] = [const { OnceLock::new() }; 6];
    let slot = SCHEMES.iter().position(|&s| s == scheme).expect("known scheme") * 3
        + FEATURIZATIONS
            .iter()
            .position(|&f| f == featurization)
            .expect("known featurization");
    TRIOS[slot].get_or_init(|| {
        let corpus = test_fixtures::corpus(24, 81);
        let mut cfg = TrainConfig {
            epochs: 1,
            featurization,
            ..Default::default()
        };
        cfg.model.scheme = scheme;
        let train = |metric| Ensemble::train(&corpus, metric, &cfg, 2);
        test_fixtures::Trio {
            target: train(CostMetric::ProcessingLatency),
            success: train(CostMetric::Success),
            backpressure: train(CostMetric::Backpressure),
        }
    })
}

/// A scorer that keeps a copy of every batch it is asked to score.
struct Recorder<'a> {
    inner: EnsembleScorer<'a>,
    batches: Mutex<Vec<Vec<JointGraph>>>,
}

impl Scorer for Recorder<'_> {
    fn target_metric(&self) -> CostMetric {
        self.inner.target_metric()
    }

    fn score_batch(&self, graphs: Vec<JointGraph>) -> Vec<PlacementScores> {
        self.batches.lock().expect("recorder lock").push(graphs.clone());
        self.inner.score_batch(graphs)
    }
}

/// Holds the fused pass of each ensemble of the trio to the sequential
/// oracle on one batch, all three over one set of chunk plans (as the
/// search's scorer runs them); returns the live wave rows those plans
/// hold and how many are distinct.
fn assert_bitwise_like_the_oracle(fx: &test_fixtures::Trio, graphs: &[JointGraph], ctx: &str) -> (usize, usize) {
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let plans: Vec<BatchPlan> = refs
        .chunks(INFERENCE_CHUNK)
        .map(|c| fx.target.members()[0].model().plan(c))
        .collect();
    let bits = |v: Vec<f64>| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    for e in [&fx.target, &fx.success, &fx.backpressure] {
        let want = bits(e.predict_plans_arena(&plans, &mut InferenceArena::new()));
        let got = bits(e.fused().predict_plans_arena(&plans, &mut InferenceArena::new()));
        assert_eq!(got, want, "{ctx}: {:?}", e.metric);
    }
    let stats: Vec<SlotStats> = plans.iter().map(BatchPlan::hash_cons).collect();
    (
        stats.iter().map(|s| s.live_wave_rows).sum(),
        stats.iter().map(|s| s.distinct_wave_rows).sum(),
    )
}

#[test]
fn search_batches_score_bitwise_like_the_sequential_oracle() {
    let (q, cluster, sels) = test_fixtures::workload(311, 8);
    let (queries, joint_cluster, joint_sels) = test_fixtures::multi_query_workload(523, 3, 8);
    let jqs = JointQuery::zip(&queries, &joint_sels);
    for scheme in SCHEMES {
        for featurization in FEATURIZATIONS {
            let fx = trio(scheme, featurization);
            let recorder = Recorder {
                inner: fx.scorer(),
                batches: Mutex::new(Vec::new()),
            };
            let problem = SearchProblem {
                query: &q,
                cluster: &cluster,
                est_sels: &sels,
                featurization,
            };
            let joint = JointSearchProblem {
                queries: &jqs,
                cluster: &joint_cluster,
                featurization,
                interference: None,
            };
            LocalSearch::default().search(&problem, &recorder, 32, 23);
            BeamSearch::default().search(&problem, &recorder, 32, 23);
            LocalSearch::default().search_joint(&joint, &recorder, 16, 29);

            let batches = recorder.batches.into_inner().expect("recorder lock");
            let (mut live, mut distinct) = (0, 0);
            for (i, batch) in batches.iter().enumerate() {
                let ctx = format!("{scheme:?} {featurization:?} batch {i} ({} graphs)", batch.len());
                let (l, d) = assert_bitwise_like_the_oracle(fx, batch, &ctx);
                live += l;
                distinct += d;
            }
            assert!(
                distinct < live,
                "{scheme:?} {featurization:?}: the recorded batches must repeat rows"
            );
        }
    }
}

#[test]
fn one_graph_repeated_costs_one_graphs_slots() {
    for scheme in SCHEMES {
        for featurization in FEATURIZATIONS {
            let fx = trio(scheme, featurization);
            let (q, cluster, sels) = test_fixtures::workload(97, 6);
            let placement = costream::optimizer::enumerate_candidates(&q, &cluster, 1, 5)
                .pop()
                .expect("a 6-host cluster has a valid placement");
            let g = JointGraph::build(&q, &cluster, &placement, &sels, featurization);
            let model = fx.target.members()[0].model();
            let one = model.plan(&[&g]).hash_cons();
            for n in [2, 9, INFERENCE_CHUNK] {
                let ctx = format!("{scheme:?} {featurization:?} n={n}");
                let batch = vec![g.clone(); n];
                let refs: Vec<&JointGraph> = batch.iter().collect();
                let stats = model.plan(&refs).hash_cons();
                assert_eq!(stats.slots(), one.slots(), "{ctx}: slots");
                assert_eq!(stats.wave_rows, n * one.wave_rows, "{ctx}: wave rows");
                assert_bitwise_like_the_oracle(fx, &batch, &ctx);
            }
        }
    }
}
