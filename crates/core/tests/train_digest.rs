//! Bitwise pin of the training path.
//!
//! Training keeps its float accumulation order through every refactor of
//! the tape, the optimizer and the training loop — so the weights a fixed
//! seed produces are a constant of the repository, and with them every
//! trained model, golden and benchmark `seed-determined:` line. Each case
//! below trains one model (64 traces, 3 epochs) and folds every
//! parameter's bit pattern into an FNV-1a digest. The values were recorded
//! on the unfused per-op training forward that preceded the fused wave
//! nodes; a change that moves one means the trajectory moved.

use costream::dataset::Corpus;
use costream::graph::Featurization;
use costream::model::Scheme;
use costream::train::{train_metric, TrainConfig, TrainedModel};
use costream_dsps::{CostMetric, SimConfig};
use costream_query::ranges::FeatureRanges;

fn corpus() -> Corpus {
    Corpus::generate(64, 4_221, FeatureRanges::training(), &SimConfig::default())
}

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        seed: 17,
        ..Default::default()
    }
    .with_seed(17)
}

/// Holds a trained model to its recorded digest. The values belong to the
/// `avx2+fma` kernel tier (single-rounding FMA chains); the scalar and NEON
/// tiers round differently and have no recorded values, so they skip.
fn assert_pinned(model: &TrainedModel, expected: u64) {
    if costream_nn::kernel_tier() != "avx2+fma" {
        eprintln!("skipped: digests are recorded for the avx2+fma kernel tier");
        return;
    }
    assert_eq!(
        digest(model),
        expected,
        "trained weights moved: {:#018x}",
        digest(model)
    );
}

/// FNV-1a over the little-endian bit pattern of every parameter scalar,
/// in registration order.
fn digest(model: &TrainedModel) -> u64 {
    let store = model.model().store();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in store.ids() {
        for v in store.value(id).data() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn costream_regression_weights_are_pinned() {
    let model = train_metric(&corpus(), CostMetric::ProcessingLatency, &cfg());
    assert_pinned(&model, 0x196f296a24a67549);
}

#[test]
fn traditional_regression_weights_are_pinned() {
    let mut cfg = cfg();
    cfg.model = cfg.model.with_scheme(Scheme::Traditional);
    let model = train_metric(&corpus(), CostMetric::Throughput, &cfg);
    assert_pinned(&model, 0xd03cc471b948fc4a);
}

#[test]
fn classification_weights_are_pinned() {
    // Both classes must be present, or the balanced oversampling this case
    // exists to cover degenerates to the identity index list.
    let corpus = corpus();
    let failed = corpus.items.iter().filter(|i| !i.metrics.success).count();
    assert!(failed > 0 && failed < corpus.len(), "corpus has one class only");
    let model = train_metric(&corpus, CostMetric::Success, &cfg());
    assert_pinned(&model, 0x8a5869fd3b879966);
}

#[test]
fn query_only_weights_are_pinned() {
    let mut cfg = cfg();
    cfg.featurization = Featurization::QueryOnly;
    let model = train_metric(&corpus(), CostMetric::E2eLatency, &cfg);
    assert_pinned(&model, 0x680405f00919263e);
}
