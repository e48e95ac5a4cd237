//! Golden tests for member-fused ensemble inference.
//!
//! The fused path ([`costream::fused::FusedEnsemble`]) must be **bitwise
//! identical** to the sequential oracle (`costream::oracle`) —
//! across random plan topologies, batch sizes, member counts and both
//! message-passing schemes, and whatever a reused [`ScoreEngine`] scored
//! before.

use costream::ensemble::Ensemble;
use costream::fused::ScoreEngine;
use costream::graph::{Featurization, JointGraph};
use costream::model::{Scheme, INFERENCE_CHUNK};
use costream::plan::BatchPlan;
use costream::train::TrainConfig;
use costream::{oracle, test_fixtures, Corpus};
use costream_dsps::CostMetric;
use costream_nn::InferenceArena;
use costream_query::generator::WorkloadGenerator;
use costream_query::ranges::FeatureRanges;
use costream_query::selectivity::SelectivityEstimator;
use proptest::prelude::*;
use std::sync::OnceLock;

fn graphs(n: usize, seed: u64) -> Vec<JointGraph> {
    let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
    let mut e = SelectivityEstimator::realistic(seed.wrapping_add(1));
    (0..n)
        .map(|_| {
            let (q, c, p) = g.workload_item();
            let sels = e.estimate_query(&q);
            JointGraph::build(&q, &c, &p, &sels, Featurization::Full)
        })
        .collect()
}

/// A k=4 regression ensemble per scheme, trained once and shared by every
/// proptest case (sub-ensembles of the first `k` members cover k < 4).
fn regression_ensemble(scheme: Scheme) -> &'static Ensemble {
    static COSTREAM: OnceLock<Ensemble> = OnceLock::new();
    static TRADITIONAL: OnceLock<Ensemble> = OnceLock::new();
    let build = move || {
        let corpus = test_fixtures::corpus(24, 77);
        let mut cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        cfg.model.scheme = scheme;
        Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 4)
    };
    match scheme {
        Scheme::Costream => COSTREAM.get_or_init(build),
        Scheme::Traditional => TRADITIONAL.get_or_init(build),
    }
}

/// A k=4 classification (majority-vote) ensemble.
fn classification_ensemble() -> &'static Ensemble {
    static E: OnceLock<Ensemble> = OnceLock::new();
    E.get_or_init(|| {
        let corpus = test_fixtures::corpus(32, 78);
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        Ensemble::train(&corpus, CostMetric::Success, &cfg, 4)
    })
}

fn sub_ensemble(e: &Ensemble, k: usize) -> Ensemble {
    Ensemble::from_members(e.members()[..k].to_vec())
}

fn plans_for(e: &Ensemble, graphs: &[JointGraph]) -> Vec<BatchPlan> {
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    refs.chunks(INFERENCE_CHUNK)
        .map(|chunk| e.members()[0].model().plan(chunk))
        .collect()
}

fn assert_bitwise_eq(fused: &[f64], seq: &[f64], ctx: &str) {
    assert_eq!(fused.len(), seq.len(), "{ctx}: length mismatch");
    for (i, (f, s)) in fused.iter().zip(seq).enumerate() {
        assert_eq!(
            f.to_bits(),
            s.to_bits(),
            "{ctx}: output {i} differs: fused {f} vs sequential {s}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused == sequential, bitwise, over random plan topologies, batch
    /// sizes 1..64, k ∈ {1,2,3,4} and both message-passing schemes.
    #[test]
    fn fused_matches_sequential_bitwise(
        seed in 0u64..10_000,
        n in 1usize..64,
        k in 1usize..=4,
        scheme_pick in 0usize..2,
    ) {
        let scheme = if scheme_pick == 0 { Scheme::Costream } else { Scheme::Traditional };
        let e = sub_ensemble(regression_ensemble(scheme), k);
        let gs = graphs(n, seed);
        let plans = plans_for(&e, &gs);
        let seq = oracle::predict_ensemble(&e, &plans, &mut InferenceArena::new());
        let fused = e.fused().predict_plans_arena(&plans, &mut InferenceArena::new());
        prop_assert_eq!(fused.len(), seq.len());
        for (i, (f, s)) in fused.iter().zip(&seq).enumerate() {
            prop_assert_eq!(
                f.to_bits(), s.to_bits(),
                "scheme {:?} k {} n {} output {}: fused {} vs sequential {}",
                scheme, k, n, i, f, s
            );
        }
    }
}

/// Majority-vote combination (classification metrics) is also bitwise
/// identical, including arena reuse across calls.
#[test]
fn fused_matches_sequential_classification() {
    let e = classification_ensemble();
    let fused = e.fused();
    let mut seq_arena = InferenceArena::new();
    let mut fused_arena = InferenceArena::new();
    for (round, &(n, seed)) in [(17usize, 300u64), (1, 301), (33, 302)].iter().enumerate() {
        let gs = graphs(n, seed);
        let plans = plans_for(e, &gs);
        let seq = oracle::predict_ensemble(e, &plans, &mut seq_arena);
        let f = fused.predict_plans_arena(&plans, &mut fused_arena);
        assert_bitwise_eq(&f, &seq, &format!("classification round {round}"));
        // Vote fractions over 4 members are multiples of a quarter.
        for p in &f {
            assert!((p * 4.0 - (p * 4.0).round()).abs() < 1e-12, "not a vote fraction: {p}");
        }
    }
}

/// `predict_graphs` (plans built internally) agrees with the oracle on
/// chunk plans, and multi-chunk batches (> INFERENCE_CHUNK graphs) combine
/// across chunk boundaries identically.
#[test]
fn fused_predict_graphs_matches_sequential_across_chunks() {
    let e = regression_ensemble(Scheme::Costream);
    let gs = graphs(INFERENCE_CHUNK + 9, 55);
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let seq = oracle::predict_ensemble(e, &plans_for(e, &gs), &mut InferenceArena::new());
    let fused = e.predict_graphs(&refs);
    assert_bitwise_eq(&fused, &seq, "predict_graphs multi-chunk");
}

/// The one-row-pass `combine` refactor must reproduce the previous
/// column-major walk bit for bit (regression and classification).
#[test]
fn combine_refactor_is_bitwise_stable() {
    for e in [regression_ensemble(Scheme::Costream), classification_ensemble()] {
        let gs = graphs(11, 91);
        let plans = plans_for(e, &gs);
        let combined = oracle::predict_ensemble(e, &plans, &mut InferenceArena::new());
        let per_member: Vec<Vec<f64>> = e
            .members()
            .iter()
            .map(|m| oracle::predict_model(m, &plans, &mut InferenceArena::new()))
            .collect();
        let k = e.members().len();
        for (i, c) in combined.iter().enumerate() {
            // The pre-refactor column-major reference combination.
            let reference = if e.metric.is_regression() {
                per_member.iter().map(|p| p[i]).sum::<f64>() / k as f64
            } else {
                per_member.iter().filter(|p| p[i] > 0.5).count() as f64 / k as f64
            };
            assert_eq!(c.to_bits(), reference.to_bits(), "output {i} ({:?})", e.metric);
        }
    }
}

/// Chunking changes throughput, never results: the same graphs lowered
/// to plans at chunk widths 1, 5, 13 and [`INFERENCE_CHUNK`] score
/// bitwise equal to `predict_graphs`.
#[test]
fn predictions_are_chunk_width_invariant() {
    let e = regression_ensemble(Scheme::Costream);
    let gs = graphs(13, 66);
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let baseline = e.predict_graphs(&refs);
    for width in [1, 5, 13, INFERENCE_CHUNK] {
        let plans: Vec<BatchPlan> = refs
            .chunks(width)
            .map(|chunk| e.members()[0].model().plan(chunk))
            .collect();
        let scored = e.fused().predict_plans_arena(&plans, &mut InferenceArena::new());
        assert_bitwise_eq(&scored, &baseline, &format!("chunk width {width}"));
    }
}

/// One one-batch engine, as a serving worker keeps it, scores any sequence
/// of plans — sizes and shapes changing from batch to batch, the model
/// swapped between batches and back, several models on one plan — each
/// bitwise equal to the sequential path on that plan alone: no slot and
/// no state row of one batch reaches the next.
#[test]
fn one_engine_scores_any_sequence_of_plans_and_models_bitwise() {
    let costream = regression_ensemble(Scheme::Costream);
    let two = sub_ensemble(costream, 2);
    let traditional = regression_ensemble(Scheme::Traditional);
    let vote = classification_ensemble();
    let mut engine = ScoreEngine::one_batch();
    let steps: [(&Ensemble, usize, u64); 8] = [
        (costream, 17, 400),
        (&two, 17, 400),
        (costream, 1, 401),
        (vote, INFERENCE_CHUNK, 402),
        (traditional, 9, 403),
        (costream, 5, 404),
        (&two, 33, 405),
        (costream, 17, 400),
    ];
    for (step, &(e, n, seed)) in steps.iter().enumerate() {
        let gs = graphs(n, seed);
        let plan = plans_for(e, &gs).remove(0);
        let want = oracle::predict_ensemble(e, std::slice::from_ref(&plan), &mut InferenceArena::new());
        let (stats, [got]) = engine.score(&plan, [e.fused()]);
        assert_bitwise_eq(&got, &want, &format!("step {step}"));
        assert_eq!(
            stats.encoder_rows,
            gs.iter().map(|g| g.len()).sum::<usize>(),
            "step {step}: one batch, every row lowered"
        );
    }

    // Several models over one lowering: each scores as it would alone.
    let gs = graphs(21, 406);
    let plan = plans_for(costream, &gs).remove(0);
    let (_, [a, b, c]) = engine.score(&plan, [costream.fused(), two.fused(), vote.fused()]);
    for (got, e) in [(a, costream), (b, &two), (c, vote)] {
        let want = oracle::predict_ensemble(e, std::slice::from_ref(&plan), &mut InferenceArena::new());
        assert_bitwise_eq(
            &got,
            &want,
            &format!("trio member {:?} k {}", e.metric, e.members().len()),
        );
    }
}

/// Manual perf probe (not part of the gate — the CI-gated numbers come
/// from `crates/bench`): prints fused vs sequential wall time at the
/// bench shape (k=3, one cached 48-graph plan, warm arena). Run with
/// `cargo test --release -p costream-core --test fused -- --ignored`.
#[test]
#[ignore]
fn perf_probe_fused_vs_sequential() {
    let corpus = Corpus::generate(48, 12, FeatureRanges::training(), &costream_dsps::SimConfig::default());
    let cfg = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    let e = Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 3);
    let gs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(Featurization::Full)).collect();
    let plans = plans_for(&e, &gs);
    let fused = e.fused();

    let time = |f: &mut dyn FnMut() -> Vec<f64>| {
        for _ in 0..5 {
            std::hint::black_box(f());
        }
        let iters = 30;
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    let mut arena = InferenceArena::new();
    let seq_ns = time(&mut || oracle::predict_ensemble(&e, &plans, &mut arena));
    let mut arena = InferenceArena::new();
    let fused_ns = time(&mut || fused.predict_plans_arena(&plans, &mut arena));
    eprintln!(
        "sequential {seq_ns:.0} ns, fused {fused_ns:.0} ns ({:.2}x)",
        seq_ns / fused_ns
    );
}
