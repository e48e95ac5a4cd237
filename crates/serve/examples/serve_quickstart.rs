//! Quickstart: serve placement-scoring traffic from concurrent clients.
//!
//! Trains a small throughput ensemble, starts the request-batching
//! service, drives it from several client threads scoring candidate
//! placements, and prints the serving counters (batch sizes, plan-cache
//! hit rate).
//!
//! Run with:
//! `cargo run --release -p costream-serve --example serve_quickstart`

use costream::optimizer::enumerate_candidates;
use costream::prelude::*;
use costream_serve::{ScoringService, ServeConfig};

fn main() {
    // A small corpus + ensemble so the example runs in seconds; a real
    // deployment would load a trained ensemble from disk.
    let corpus = Corpus::generate(120, 42, FeatureRanges::training(), &SimConfig::default());
    let cfg = TrainConfig {
        epochs: 10,
        ..Default::default()
    };
    let ensemble = Ensemble::train(&corpus, CostMetric::Throughput, &cfg, 3);
    let service = ScoringService::start(ensemble, ServeConfig::default());

    // Each client scores every enumerated candidate placement of "its"
    // query — the optimizer workload, but arriving as independent
    // requests from concurrent callers.
    let n_clients = 4;
    std::thread::scope(|s| {
        for c in 0..n_clients {
            let client = service.client();
            s.spawn(move || {
                let mut gen = costream_query::generator::WorkloadGenerator::new(100 + c, FeatureRanges::training());
                let query = gen.query();
                let cluster = gen.cluster(6);
                let est_sels = costream_query::selectivity::SelectivityEstimator::realistic(c).estimate_query(&query);
                let candidates = enumerate_candidates(&query, &cluster, 12, c);
                let mut best = (f64::NEG_INFINITY, 0);
                for (i, placement) in candidates.iter().enumerate() {
                    let graph = JointGraph::build(&query, &cluster, placement, &est_sels, client.featurization());
                    let score = client.score(graph).expect("service alive");
                    if score > best.0 {
                        best = (score, i);
                    }
                }
                println!(
                    "client {c}: best candidate #{} (predicted throughput {:.1} ev/s)",
                    best.1, best.0
                );
            });
        }
    });

    let stats = service.stats();
    println!(
        "served {} requests in {} batches (mean batch {:.1}); plan cache hit rate {:.0}% ({} hits / {} misses)",
        stats.completed,
        stats.batches,
        stats.mean_batch(),
        100.0 * stats.plan_cache_hit_rate(),
        stats.plan_cache_hits,
        stats.plan_cache_misses,
    );
}
