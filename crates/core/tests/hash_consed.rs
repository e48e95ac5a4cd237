//! The hash-consed fused pass on batches that repeat themselves.
//!
//! `tests/fused.rs` holds the fused path to the sequential oracle on
//! batches of unrelated graphs, where little merges. What a placement
//! search scores is the other extreme: neighbours of one placement that
//! share most of their encoder rows and wave updates, within a batch and
//! across the search's batches. These tests record the batches real
//! searches hand their scorer (single-query LocalSearch, BeamSearch and
//! SimulatedAnnealing, joint LocalSearch, replan) and a batch of one graph
//! repeated, and hold the slot-scheduled pass bitwise equal to
//! the sequential oracle (`costream::oracle`) on every one of them — per batch, and
//! through one search memo across all of a search's batches, including
//! with every fingerprint colliding and with a slot cap the search
//! overruns — for both message-passing schemes and all three
//! featurizations.

use costream::model::INFERENCE_CHUNK;
use costream::plan::SlotStats;
use costream::prelude::*;
use costream::{oracle, test_fixtures};
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

/// A scorer that keeps a copy of every candidate batch a search asks it
/// to score, and what the search's memo held after the last one.
struct Recorder<'a> {
    inner: EnsembleScorer<'a>,
    batches: Mutex<Vec<CandidateBatch>>,
    memo: Mutex<SlotStats>,
}

impl<'a> Recorder<'a> {
    fn new(inner: EnsembleScorer<'a>) -> Self {
        Recorder {
            inner,
            batches: Mutex::new(Vec::new()),
            memo: Mutex::new(SlotStats::default()),
        }
    }

    /// The batches recorded since the last take, and the memo's counts
    /// after the last of them.
    fn take(&self) -> (Vec<CandidateBatch>, SlotStats) {
        let batches = std::mem::take(&mut *self.batches.lock().expect("recorder lock"));
        (batches, std::mem::take(&mut *self.memo.lock().expect("recorder lock")))
    }
}

impl Scorer for Recorder<'_> {
    fn target_metric(&self) -> CostMetric {
        self.inner.target_metric()
    }

    fn score_batch(&self, graphs: Vec<JointGraph>) -> Vec<PlacementScores> {
        self.inner.score_batch(graphs)
    }

    fn score_batch_in(&self, batch: &CandidateBatch, memo: &mut ScoreMemo) -> Vec<PlacementScores> {
        self.batches.lock().expect("recorder lock").push(batch.clone());
        let scores = self.inner.score_batch_in(batch, memo);
        *self.memo.lock().expect("recorder lock") = memo.stats();
        scores
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
        let want = bits(oracle::predict_ensemble(e, &plans));
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
            let recorder = Recorder::new(fx.scorer());
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
            LocalSearch.search(&problem, &recorder, 32, 23);
            BeamSearch.search(&problem, &recorder, 32, 23);
            LocalSearch.search_joint(&joint, &recorder, 16, 29);

            let (batches, _) = recorder.take();
            let (mut live, mut distinct) = (0, 0);
            for (i, batch) in batches.iter().enumerate() {
                let ctx = format!("{scheme:?} {featurization:?} batch {i} ({} graphs)", batch.len());
                let (l, d) = assert_bitwise_like_the_oracle(fx, &batch.graphs(), &ctx);
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

/// The sequential oracle's scores of one batch, as bits: each ensemble of
/// the trio member after member over plans chunked at the default width.
fn oracle_bits(fx: &test_fixtures::Trio, graphs: &[JointGraph]) -> Vec<[u64; 3]> {
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let plans: Vec<BatchPlan> = refs
        .chunks(INFERENCE_CHUNK)
        .map(|c| fx.target.members()[0].model().plan(c))
        .collect();
    let per: Vec<Vec<f64>> = [&fx.target, &fx.success, &fx.backpressure]
        .iter()
        .map(|e| oracle::predict_ensemble(e, &plans))
        .collect();
    (0..graphs.len())
        .map(|i| [per[0][i].to_bits(), per[1][i].to_bits(), per[2][i].to_bits()])
        .collect()
}

fn bits(scores: &[PlacementScores]) -> Vec<[u64; 3]> {
    scores
        .iter()
        .map(|s| [s.cost.to_bits(), s.success.to_bits(), s.backpressure.to_bits()])
        .collect()
}

/// Scores a search's recorded batches through one memo, holds every batch
/// to the oracle bitwise, and returns what the memo computed.
fn replay(
    scorer: &EnsembleScorer<'_>,
    fx: &test_fixtures::Trio,
    batches: &[CandidateBatch],
    mut memo: ScoreMemo,
    ctx: &str,
) -> SlotStats {
    for (i, batch) in batches.iter().enumerate() {
        let got = bits(&scorer.score_batch_in(batch, &mut memo));
        assert_eq!(
            got,
            oracle_bits(fx, &batch.graphs()),
            "{ctx}: batch {i} ({} graphs)",
            batch.len()
        );
    }
    memo.stats()
}

/// The streams of one (scheme, featurization): the batches five searches
/// handed their scorer, each with what its own memo held at the end.
fn recorded_streams(
    fx: &test_fixtures::Trio,
    featurization: Featurization,
) -> Vec<(&'static str, Vec<CandidateBatch>, SlotStats)> {
    let (q, cluster, sels) = test_fixtures::workload(311, 8);
    let (queries, joint_cluster, joint_sels) = test_fixtures::multi_query_workload(523, 3, 8);
    let jqs = JointQuery::zip(&queries, &joint_sels);
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
    let recorder = Recorder::new(fx.scorer());
    let mut streams = Vec::new();
    LocalSearch.search(&problem, &recorder, 32, 23);
    let (b, m) = recorder.take();
    streams.push(("local", b, m));
    BeamSearch.search(&problem, &recorder, 32, 23);
    let (b, m) = recorder.take();
    streams.push(("beam", b, m));
    SimulatedAnnealing.search(&problem, &recorder, 32, 23);
    let (b, m) = recorder.take();
    streams.push(("anneal", b, m));
    let incumbent = LocalSearch.search_joint(&joint, &recorder, 16, 29).best;
    let (b, m) = recorder.take();
    streams.push(("joint local", b, m));
    replan(&joint, &recorder, &incumbent, &[0], &ReplanConfig::default(), 31).expect("live hosts remain");
    let (b, m) = recorder.take();
    streams.push(("replan", b, m));
    streams
}

#[test]
fn a_search_memo_scores_every_stream_bitwise_and_computes_each_state_once() {
    for scheme in SCHEMES {
        for featurization in FEATURIZATIONS {
            let fx = trio(scheme, featurization);
            let scorer = fx.scorer();
            for (name, batches, searched) in recorded_streams(fx, featurization) {
                let ctx = format!("{scheme:?} {featurization:?} {name}");
                assert!(
                    batches.len() > 1,
                    "{ctx}: a stream of one batch pins nothing across batches"
                );
                let replayed = replay(&scorer, fx, &batches, ScoreMemo::new(), &ctx);
                assert_eq!(
                    replayed, searched,
                    "{ctx}: the replay computes what the search computed"
                );

                // One memo across the search computes exactly the distinct
                // rows of one plan over all of its graphs.
                let graphs: Vec<JointGraph> = batches.iter().flat_map(CandidateBatch::graphs).collect();
                let all: Vec<&JointGraph> = graphs.iter().collect();
                let whole = fx.target.members()[0].model().plan(&all).hash_cons();
                assert_eq!(searched.slots(), whole.slots(), "{ctx}: slots");
                assert_eq!(
                    searched.distinct_wave_rows, whole.distinct_wave_rows,
                    "{ctx}: wave slots"
                );
                assert_eq!(searched.wave_rows, whole.wave_rows, "{ctx}: wave rows");
                let per_batch: usize = batches
                    .iter()
                    .map(|b| {
                        let graphs = b.graphs();
                        let refs: Vec<&JointGraph> = graphs.iter().collect();
                        fx.target.members()[0].model().plan(&refs).hash_cons().slots()
                    })
                    .sum();
                assert!(
                    searched.slots() < per_batch,
                    "{ctx}: later batches must reuse earlier states"
                );
            }
        }
    }
}

#[test]
fn colliding_fingerprints_and_an_overrun_slot_cap_stay_bitwise() {
    for scheme in SCHEMES {
        for featurization in FEATURIZATIONS {
            let fx = trio(scheme, featurization);
            let scorer = fx.scorer();
            for (name, batches, searched) in recorded_streams(fx, featurization) {
                let ctx = format!("{scheme:?} {featurization:?} {name}");
                // Every fingerprint 0, across batches: only exact key
                // equality merges, and it merges exactly as much.
                let collided = replay(&scorer, fx, &batches, ScoreMemo::with_limits(4096, 0), &ctx);
                assert_eq!(collided, searched, "{ctx}: collisions change what merges");
                // A cap the search overruns restarts the memo: more work,
                // the same bits.
                let capped = replay(
                    &scorer,
                    fx,
                    &batches,
                    ScoreMemo::with_limits(searched.slots() / 2, u64::MAX),
                    &ctx,
                );
                assert!(
                    capped.slots() > searched.slots(),
                    "{ctx}: the cap must restart the memo"
                );
            }
        }
    }
}

#[test]
fn no_state_survives_a_search() {
    let fx = trio(Scheme::Costream, Featurization::Full);
    let recorder = Recorder::new(fx.scorer());
    let (q, cluster, sels) = test_fixtures::workload(311, 8);
    let problem = SearchProblem {
        query: &q,
        cluster: &cluster,
        est_sels: &sels,
        featurization: Featurization::Full,
    };
    let mut runs = Vec::new();
    for _ in 0..3 {
        let r = LocalSearch.search(&problem, &recorder, 32, 23);
        let (_, memo) = recorder.take();
        runs.push((r.best.assignment().to_vec(), memo));
    }
    assert!(runs[0].1.slots() > 0, "the search must score through its memo");
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "an identical search must compute every slot again: {runs:?}"
    );
}
