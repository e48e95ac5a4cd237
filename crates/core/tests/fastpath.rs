//! Golden-equivalence tests for the inference pass and the training pass.
//!
//! `GnnModel::train_forward` is the training forward. The sequential
//! oracle (`costream::oracle`) runs the per-op chain (`Tape::gnn`) over
//! the same waves, so the two agree bit for bit, outputs and gradients.
//! The one production inference pass — here a trained model's one-member
//! fused view — merges repeated rows, and must still give the oracle's
//! bits: for both message-passing schemes, with and without host nodes,
//! for regression and classification heads, across chunk boundaries and
//! after fine-tuning. `BatchPlan`s must be safely reusable across epochs,
//! batch orders and ensemble members. A pass and arena reused across plans
//! give the gradients of fresh ones.

use costream::graph::{Featurization, JointGraph};
use costream::model::{GnnModel, ModelConfig, Scheme, INFERENCE_CHUNK};
use costream::plan::BatchPlan;
use costream::train::{fine_tune, train_metric, TrainConfig, TrainedModel};
use costream::{oracle, test_fixtures};
use costream_dsps::CostMetric;
use costream_nn::loss::mse;
use costream_nn::tape::Tape;
use costream_nn::{Gradients, InferenceArena, ParamStore, Tensor, TrainingPass};
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
    refs.chunks(INFERENCE_CHUNK)
        .flat_map(|c| oracle::forward(model, &model.plan(c)))
        .collect()
}

/// The training forward's raw outputs over `plan`, on a fresh pass.
fn train_raw(model: &GnnModel, plan: &BatchPlan) -> Vec<f32> {
    let mut pass = TrainingPass::default();
    model
        .train_forward(plan, &mut pass, &mut InferenceArena::new())
        .data()
        .to_vec()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_bitwise(golden: &[f32], fast: &[f32], ctx: &str) {
    assert_eq!(golden.len(), fast.len(), "{ctx}: length mismatch");
    for (i, (g, f)) in golden.iter().zip(fast).enumerate() {
        assert_eq!(
            g.to_bits(),
            f.to_bits(),
            "{ctx}: output {i} diverges: golden {g} vs fast {f}"
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
            let golden = train_raw(&model, &plan);

            let fast = oracle::forward(&model, &plan);

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
    let golden = train_raw(&model, &plan);
    let fast = oracle::forward(&model, &plan);
    assert_bitwise(&golden, &fast, "query-only");
}

/// A trained model's raw outputs (its one-member engine, chunked and fanned
/// out) must agree with a single monolithic training forward across chunk
/// boundaries.
#[test]
fn chunked_raw_graphs_match_tape() {
    let gs = graphs(70, 11, Featurization::Full); // spans the 64-graph chunk size
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let model = trained(CostMetric::ProcessingLatency, Scheme::Costream, Featurization::Full);
    let fast = model.fused().raw_graphs(&refs);
    let plan = model.model().plan(&refs);
    let golden = train_raw(model.model(), &plan);
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
                let want = oracle::predict_model(&model, &plans);
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
    let want = oracle::predict_model(&model, &plans);
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
    for m in &members {
        let fast = oracle::forward(m, &plan);
        assert_bitwise(&train_raw(m, &plan), &fast, "shared plan");
    }
}

/// `got`'s gradients against `want`'s, bit for bit up to the sign of an
/// exactly-zero sum: each flip is printed and counted.
fn flipped_zero_signs(ctx: &str, store: &ParamStore, got: &Gradients, want: &Gradients, reference: &str) -> usize {
    let mut flipped_zeros = 0;
    for id in store.ids() {
        for (i, (g, w)) in got.grad(id).data().iter().zip(want.grad(id).data()).enumerate() {
            if g.to_bits() == w.to_bits() {
                continue;
            }
            assert!(
                *g == 0.0 && *w == 0.0,
                "{ctx}: {} [{i}] diverges: training pass {g} vs {reference} {w}",
                store.name(id)
            );
            println!(
                "{ctx}: {} [{i}]: zero sign flipped ({g} vs {reference} {w})",
                store.name(id)
            );
            flipped_zeros += 1;
        }
    }
    flipped_zeros
}

/// One training step's output is bitwise that of the per-op chain
/// (`Tape::gnn`, the oracle both passes answer to) over the plan's waves,
/// and its parameter gradients are the chain's up to the sign of an
/// exactly-zero sum (printed, if any flips) — in the Costream scheme with
/// and without host nodes and in the Traditional one.
#[test]
fn the_training_pass_matches_the_per_op_chain_outputs_and_gradients() {
    let cases = [
        (Scheme::Costream, Featurization::Full),
        (Scheme::Traditional, Featurization::Full),
        (Scheme::Costream, Featurization::QueryOnly),
    ];
    for (case, (scheme, featurization)) in cases.into_iter().enumerate() {
        let ctx = format!("{scheme:?} {featurization:?}");
        let gs = graphs(12, 300 + case as u64, featurization);
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let model = GnnModel::new(ModelConfig::default().with_seed(case as u64).with_scheme(scheme));
        let plan = model.plan(&refs);
        let mut arena = InferenceArena::new();
        let mut pass = TrainingPass::default();
        let out = model.train_forward(&plan, &mut pass, &mut arena).clone();
        assert_eq!(pass.waves(), oracle::waves(&plan).count(), "{ctx}: every wave runs");

        let targets: Vec<f32> = (0..gs.len()).map(|i| i as f32 * 0.25 - 1.0).collect();
        let store = model.store();
        let mut got = Gradients::for_store(store);
        model.train_backward(&plan, &mut pass, mse(&out, &targets).seed, &mut got, &mut arena);

        let mut chain = Tape::new();
        let chain_out = chain.gnn(oracle::gnn(&model), &plan, oracle::waves(&plan));
        assert_bitwise(
            chain.value(chain_out).data(),
            out.data(),
            &format!("{ctx}: per-op chain"),
        );
        let mut chain_grads = Gradients::for_store(store);
        chain.backward(chain_out, mse(chain.value(chain_out), &targets).seed, &mut chain_grads);
        let chain_flips = flipped_zero_signs(&ctx, store, &got, &chain_grads, "per-op chain");
        println!("{ctx}: {chain_flips} flipped zero signs against the per-op chain");
    }
}

/// A training step on a pass and arena warmed by steps over plans of
/// other shapes gives bitwise the output and gradients of a fresh pass on
/// a fresh arena (recycled buffers leak no state), and a second backward
/// over the same forward — what the micro bench times — the same gradients
/// again.
#[test]
fn arena_reuse_matches_fresh_backward() {
    let model = GnnModel::new(ModelConfig::default().with_seed(3));
    let plans: Vec<BatchPlan> = [(5, 400), (12, 401), (3, 402)]
        .into_iter()
        .map(|(n, seed)| {
            let gs = graphs(n, seed, Featurization::Full);
            model.plan(&gs.iter().collect::<Vec<_>>())
        })
        .collect();
    let store = model.store();
    let step = |pass: &mut TrainingPass, arena: &mut InferenceArena, plan: &BatchPlan| {
        let out = model.train_forward(plan, pass, arena);
        let targets: Vec<f32> = (0..out.rows()).map(|i| i as f32 * 0.5 - 1.0).collect();
        let (out_bits, seed) = (bits(out), mse(out, &targets).seed);
        let mut grads = Gradients::for_store(store);
        model.train_backward(plan, pass, seed.clone(), &mut grads, arena);
        let first: Vec<Vec<u32>> = store.ids().map(|id| bits(grads.grad(id))).collect();
        grads.zero();
        model.train_backward(plan, pass, seed, &mut grads, arena);
        let again: Vec<Vec<u32>> = store.ids().map(|id| bits(grads.grad(id))).collect();
        assert_eq!(first, again, "a second backward over one forward");
        (out_bits, first)
    };
    let (mut pass, mut arena) = (TrainingPass::default(), InferenceArena::new());
    for plan in &plans {
        step(&mut pass, &mut arena, plan);
    }
    for (i, plan) in plans.iter().enumerate().rev() {
        let warm = step(&mut pass, &mut arena, plan);
        let fresh = step(&mut TrainingPass::default(), &mut InferenceArena::new(), plan);
        assert!(warm == fresh, "plan {i}: a warm step differs from a fresh one");
    }
}
