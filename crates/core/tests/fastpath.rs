//! Golden-equivalence tests for the inference fast path.
//!
//! The tape-recording `forward_with_plan` is the training forward; the
//! tape-free `forward_inference` runs the same wave routine without
//! retaining activations, so the two must agree bit for bit for both
//! message-passing schemes, and `BatchPlan`s must be safely reusable
//! across epochs, batch orders and ensemble members.

use costream::graph::{Featurization, JointGraph};
use costream::model::{GnnModel, ModelConfig, Scheme};
use costream::plan::BatchPlan;
use costream_nn::InferenceArena;
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
fn forward_inference_matches_tape_forward() {
    for scheme in [Scheme::Costream, Scheme::Traditional] {
        for seed in 0..4u64 {
            let gs = graphs(12, 100 + seed, Featurization::Full);
            let refs: Vec<&JointGraph> = gs.iter().collect();
            let model = GnnModel::new(ModelConfig::default().with_seed(seed).with_scheme(scheme));

            let plan = model.plan(&refs);
            let (tape, out) = model.forward_with_plan(&plan);
            let golden = tape.value(out).data().to_vec();

            let mut arena = InferenceArena::new();
            let fast = model.forward_inference(&plan, &mut arena);

            assert_bitwise(&golden, &fast, &format!("{scheme:?} seed {seed}"));
        }
    }
}

/// The fast path must also agree on graphs without host nodes (the
/// QueryOnly featurization skips the OPS→HW / HW→OPS phases entirely).
#[test]
fn forward_inference_matches_tape_without_hosts() {
    let gs = graphs(6, 7, Featurization::QueryOnly);
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let model = GnnModel::new(ModelConfig::default());
    let plan = model.plan(&refs);
    let (tape, out) = model.forward_with_plan(&plan);
    let golden = tape.value(out).data().to_vec();
    let mut arena = InferenceArena::new();
    let fast = model.forward_inference(&plan, &mut arena);
    assert_bitwise(&golden, &fast, "query-only");
}

/// predict_raw (chunked, parallel) must agree with a single monolithic
/// tape forward across chunk boundaries.
#[test]
fn chunked_predict_raw_matches_tape() {
    let gs = graphs(70, 11, Featurization::Full); // spans the 64-graph chunk size
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let model = GnnModel::new(ModelConfig::default());
    let fast = model.predict_raw(&refs);
    let plan = model.plan(&refs);
    let (tape, out) = model.forward_with_plan(&plan);
    let golden = tape.value(out).data().to_vec();
    // Chunking changes batch composition, not per-graph results: readout
    // sums are per graph, so outputs must agree graph by graph.
    assert_bitwise(&golden, &fast, "chunked");
}

/// A plan reused across shuffled "epochs" must keep producing identical
/// predictions: the plan owns all bookkeeping, so no state may leak
/// between passes, and plans survive arbitrary reuse order.
#[test]
fn plan_reuse_across_shuffled_epochs_is_stable() {
    let gs = graphs(24, 21, Featurization::Full);
    let refs: Vec<&JointGraph> = gs.iter().collect();
    let model = GnnModel::new(ModelConfig::default());

    // Batch the graphs into 3 fixed minibatches with one plan each.
    let plans: Vec<BatchPlan> = refs.chunks(8).map(|c| model.plan(c)).collect();
    let mut arena = InferenceArena::new();
    let baseline: Vec<Vec<f32>> = plans.iter().map(|p| model.forward_inference(p, &mut arena)).collect();

    let mut rng = StdRng::seed_from_u64(5);
    let mut order: Vec<usize> = (0..plans.len()).collect();
    for epoch in 0..5 {
        order.shuffle(&mut rng);
        for &bi in &order {
            let again = model.forward_inference(&plans[bi], &mut arena);
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
        let fast = m.forward_inference(&plan, &mut arena);
        let (tape, out) = m.forward_with_plan(&plan);
        assert_bitwise(tape.value(out).data(), &fast, "shared plan");
    }
}
