//! Golden-equivalence tests for the inference pass.
//!
//! The tape-recording `forward_with_plan_in` is the training forward. The
//! sequential oracle (`costream::oracle`) runs the same wave routines node
//! by node without retaining activations, so the two agree bit for bit.
//! The one production pass — here a trained model's one-member fused view
//! — merges repeated rows and skips dead ones, and must still give the
//! oracle's bits: for both message-passing schemes, with and without host
//! nodes, for regression and classification heads, across chunk
//! boundaries and after fine-tuning. `BatchPlan`s must be safely reusable
//! across epochs, batch orders and ensemble members. The training forward
//! records no wave without a live target; a tape recorded over every wave
//! holds that skip to the same outputs and gradients.

use costream::graph::{Featurization, JointGraph};
use costream::model::{GnnModel, ModelConfig, Scheme, INFERENCE_CHUNK};
use costream::plan::BatchPlan;
use costream::train::{fine_tune, train_metric, TrainConfig, TrainedModel};
use costream::{oracle, test_fixtures};
use costream_dsps::CostMetric;
use costream_nn::loss::mse;
use costream_nn::{Gradients, InferenceArena, Tape, WaveSpec};
use costream_query::generator::WorkloadGenerator;
use costream_query::ranges::FeatureRanges;
use costream_query::selectivity::SelectivityEstimator;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn graphs(n: usize, seed: u64, featurization: Featurization) -> Vec<JointGraph> {
    let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
    let mut e = SelectivityEstimator::realistic(seed.wrapping_add(1));
    (0..n)
        .map(|_| {
            let (q, c, p) = g.workload_item();
            let sels = e.estimate_query(&q);
            JointGraph::build(&q, &c, &p, &sels, featurization)
        })
        .collect()
}

/// A model trained for one epoch on a small corpus.
fn trained(metric: CostMetric, scheme: Scheme, featurization: Featurization) -> TrainedModel {
    let mut cfg = TrainConfig {
        epochs: 1,
        featurization,
        ..Default::default()
    };
    cfg.model.scheme = scheme;
    train_metric(&test_fixtures::corpus(24, 91), metric, &cfg)
}

/// The oracle's raw outputs over plans chunked at the default width.
fn oracle_raw(model: &GnnModel, refs: &[&JointGraph]) -> Vec<f32> {
    let mut arena = InferenceArena::new();
    refs.chunks(INFERENCE_CHUNK)
        .flat_map(|c| oracle::forward(model, &model.plan(c), &mut arena))
        .collect()
}

fn assert_bitwise(tape: &[f32], fast: &[f32], ctx: &str) {
    assert_eq!(tape.len(), fast.len(), "{ctx}: length mismatch");
    for (i, (t, f)) in tape.iter().zip(fast).enumerate() {
        assert_eq!(
            t.to_bits(),
            f.to_bits(),
            "{ctx}: output {i} diverges: tape {t} vs fast {f}"
        );
    }
}

/// Golden equivalence on random batches, both schemes, several seeds.
#[test]
fn oracle_matches_tape_forward() {
    for scheme in [Scheme::Costream, Scheme::Traditional] {
        for seed in 0..4u64 {
            let gs = graphs(12, 100 + seed, Featurization::Full);
            let refs: Vec<&JointGraph> = gs.iter().collect();
            let model = GnnModel::new(ModelConfig::default().with_seed(seed).with_scheme(scheme));

            let plan = model.plan(&refs);
            let (tape, out) = model.forward_with_plan_in(&plan, InferenceArena::new());
            let golden = tape.value(out).data().to_vec();

            let mut arena = InferenceArena::new();
            let fast = oracle::forward(&model, &plan, &mut arena);

            assert_bitwise(&golden, &fast, &format!("{scheme:?} seed {seed}"));
        }
    }
}

/// The oracle must also agree on graphs without host nodes (the
/// QueryOnly featurization skips the OPS→HW / HW→OPS phases entirely).
#[test]
fn oracle_matches_tape_without_hosts() {
    let gs = graphs(6, 7, Featurization::QueryOnly);
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let model = GnnModel::new(ModelConfig::default());
    let plan = model.plan(&refs);
    let (tape, out) = model.forward_with_plan_in(&plan, InferenceArena::new());
    let golden = tape.value(out).data().to_vec();
    let mut arena = InferenceArena::new();
    let fast = oracle::forward(&model, &plan, &mut arena);
    assert_bitwise(&golden, &fast, "query-only");
}

/// A trained model's raw outputs (its one-member engine, chunked and fanned
/// out) must agree with a single monolithic tape forward across chunk
/// boundaries.
#[test]
fn chunked_raw_graphs_match_tape() {
    let gs = graphs(70, 11, Featurization::Full); // spans the 64-graph chunk size
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let model = trained(CostMetric::ProcessingLatency, Scheme::Costream, Featurization::Full);
    let fast = model.fused().raw_graphs(&refs);
    let plan = model.model().plan(&refs);
    let (tape, out) = model.model().forward_with_plan_in(&plan, InferenceArena::new());
    let golden = tape.value(out).data().to_vec();
    // Chunking changes batch composition, not per-graph results: readout
    // sums are per graph, so outputs must agree graph by graph.
    assert_bitwise(&golden, &fast, "chunked");
}

/// The k = 1 engine's raw row is the oracle's, bit for bit, and so are the
/// predictions made from it (a classification model's are sigmoid
/// probabilities, not 0/1 votes): both schemes, with and without host
/// nodes, regression and classification heads, across a chunk boundary.
#[test]
fn one_member_engine_matches_the_oracle_bitwise() {
    let corpus = test_fixtures::corpus(70, 93);
    for scheme in [Scheme::Costream, Scheme::Traditional] {
        for featurization in [Featurization::QueryOnly, Featurization::Full] {
            let gs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(featurization)).collect();
            let refs: Vec<&JointGraph> = gs.iter().collect();
            for metric in [CostMetric::ProcessingLatency, CostMetric::Backpressure] {
                let model = trained(metric, scheme, featurization);
                let ctx = format!("{scheme:?} {featurization:?} {metric:?}");
                assert_bitwise(
                    &oracle_raw(model.model(), &refs),
                    &model.fused().raw_graphs(&refs),
                    &ctx,
                );
                let plans: Vec<BatchPlan> = refs.chunks(INFERENCE_CHUNK).map(|c| model.model().plan(c)).collect();
                let want = oracle::predict_model(&model, &plans, &mut InferenceArena::new());
                let got = model.predict_graphs(&refs);
                assert_eq!(
                    got.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                    "{ctx}: predictions"
                );
                assert!(
                    metric.is_regression() || got.iter().any(|&p| p > 0.0 && p < 1.0),
                    "{ctx}: every probability saturated, so a 0/1 vote would pass too"
                );
            }
        }
    }
}

/// A model that has predicted (and so stacked its view) and is then
/// fine-tuned predicts from its tuned weights, not from a stale view.
#[test]
fn a_fine_tuned_model_predicts_from_its_tuned_weights() {
    let gs = graphs(20, 13, Featurization::Full);
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let mut model = trained(CostMetric::ProcessingLatency, Scheme::Costream, Featurization::Full);
    let before = model.predict_graphs(&refs);
    let cfg = TrainConfig {
        epochs: 1,
        ..Default::default()
    };
    fine_tune(&mut model, &test_fixtures::corpus(16, 92), 2, 1e-2, &cfg);
    let after = model.predict_graphs(&refs);
    assert_ne!(before, after, "fine-tuning must move the weights");
    let plans = vec![model.model().plan(&refs)];
    let want = oracle::predict_model(&model, &plans, &mut InferenceArena::new());
    assert_eq!(
        after.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
    );
}

/// A plan reused across shuffled "epochs" must keep producing identical
/// predictions: the plan owns all bookkeeping, so no state may leak
/// between passes, and plans survive arbitrary reuse order.
#[test]
fn plan_reuse_across_shuffled_epochs_is_stable() {
    let gs = graphs(24, 21, Featurization::Full);
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let model = trained(CostMetric::ProcessingLatency, Scheme::Costream, Featurization::Full);
    let view = model.fused();

    // Batch the graphs into 3 fixed minibatches with one plan each.
    let plans: Vec<BatchPlan> = refs.chunks(8).map(|c| model.model().plan(c)).collect();
    let mut arena = InferenceArena::new();
    let baseline: Vec<Vec<f64>> = plans
        .iter()
        .map(|p| view.predict_plans_arena(std::slice::from_ref(p), &mut arena))
        .collect();

    let mut rng = StdRng::seed_from_u64(5);
    let mut order: Vec<usize> = (0..plans.len()).collect();
    for epoch in 0..5 {
        order.shuffle(&mut rng);
        for &bi in &order {
            let again = view.predict_plans_arena(std::slice::from_ref(&plans[bi]), &mut arena);
            assert_eq!(
                again, baseline[bi],
                "epoch {epoch}: plan {bi} must yield bit-identical predictions on reuse"
            );
        }
    }
}

/// The same plan must serve every seed-varied ensemble member: plans carry
/// no model state, only graph structure.
#[test]
fn one_plan_serves_all_ensemble_members() {
    let gs = graphs(10, 31, Featurization::Full);
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let members: Vec<GnnModel> = (0..3)
        .map(|s| GnnModel::new(ModelConfig::default().with_seed(s)))
        .collect();
    let plan = members[0].plan(&refs);
    let mut arena = InferenceArena::new();
    for m in &members {
        let fast = oracle::forward(m, &plan, &mut arena);
        let (tape, out) = m.forward_with_plan_in(&plan, InferenceArena::new());
        assert_bitwise(tape.value(out).data(), &fast, "shared plan");
    }
}

/// The training forward records a wave only if one of its targets is live
/// — in the Costream scheme every wave but HW→OPS; under Traditional and
/// without host nodes every wave — and one step's parameter gradients are
/// bitwise those of a tape recorded over every wave of the same plan, up
/// to the sign of an exactly-zero sum (printed, if any flips).
#[test]
fn the_training_tape_skips_only_dead_waves_and_keeps_every_gradient() {
    let cases = [
        (Scheme::Costream, Featurization::Full, vec![1]),
        (Scheme::Traditional, Featurization::Full, vec![]),
        (Scheme::Costream, Featurization::QueryOnly, vec![]),
    ];
    for (case, (scheme, featurization, want_dead)) in cases.into_iter().enumerate() {
        let ctx = format!("{scheme:?} {featurization:?}");
        let gs = graphs(12, 300 + case as u64, featurization);
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let model = GnnModel::new(ModelConfig::default().with_seed(case as u64).with_scheme(scheme));
        let plan = model.plan(&refs);
        let waves: Vec<(&dyn WaveSpec, bool)> = oracle::waves(&plan).collect();
        let dead: Vec<usize> = (0..waves.len()).filter(|&i| !waves[i].1).collect();
        assert_eq!(dead, want_dead, "{ctx}: dead waves");

        // The tape over every wave, dead ones included.
        let (encoders, updaters, readout) = oracle::mlps(&model);
        let graph_of: Vec<usize> = gs.iter().enumerate().flat_map(|(i, g)| vec![i; g.len()]).collect();
        let n_graphs = gs.len();
        let store = model.store();
        let mut full = Tape::new();
        let h0 = full.encode_scatter(&plan, encoders, store, graph_of.len(), model.config().hidden);
        let mut cur = h0;
        for &(wave, _) in &waves {
            cur = full.wave_update(cur, h0, wave, updaters, store);
        }
        let pooled = full.segment_sum(cur, graph_of, n_graphs);
        let full_out = readout.forward(&mut full, store, pooled);

        let (mut tape, out) = model.forward_with_plan_in(&plan, InferenceArena::new());
        // One `WaveUpdate` node per wave with a live target: the tapes
        // differ by exactly the dead waves' nodes.
        assert_eq!(full.len() - tape.len(), dead.len(), "{ctx}: recorded waves");
        assert_bitwise(tape.value(out).data(), full.value(full_out).data(), &ctx);

        let targets: Vec<f32> = (0..n_graphs).map(|i| i as f32 * 0.25 - 1.0).collect();
        let seed = |t: &Tape, o| mse(t.value(o), &targets).seed;
        let (mut got, mut want) = (Gradients::for_store(store), Gradients::for_store(store));
        let s = seed(&tape, out);
        tape.backward(out, s, &mut got);
        let s = seed(&full, full_out);
        full.backward(full_out, s, &mut want);
        let mut flipped_zeros = 0;
        for id in store.ids() {
            for (i, (g, w)) in got.grad(id).data().iter().zip(want.grad(id).data()).enumerate() {
                if g.to_bits() == w.to_bits() {
                    continue;
                }
                assert!(
                    *g == 0.0 && *w == 0.0,
                    "{ctx}: {} [{i}] diverges: skipping {g} vs every wave {w}",
                    store.name(id)
                );
                println!("{ctx}: {} [{i}]: zero sign flipped ({g} vs {w})", store.name(id));
                flipped_zeros += 1;
            }
        }
        println!(
            "{ctx}: {} dead of {} waves, {flipped_zeros} flipped zero signs",
            dead.len(),
            waves.len()
        );
    }
}
