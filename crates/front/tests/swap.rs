//! Concurrent hot swaps: whatever the interleaving of two callers'
//! `Frontend::swap_model` calls, once they return every shard serves the
//! same ensemble at the same version, bitwise, over the wire.

use costream::prelude::*;
use costream::test_fixtures;
use costream_front::{FrontClient, FrontConfig, Frontend, Request, RequestBody, Response, WireLane};
use costream_serve::ServeConfig;
use std::sync::Barrier;

fn quick_ensemble(corpus: &Corpus, train_seed: u64) -> Ensemble {
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        seed: train_seed,
        ..Default::default()
    };
    Ensemble::train(corpus, CostMetric::Throughput, &cfg, 1)
}

/// Two threads swap distinct ensembles onto a four-shard front-end at the
/// same moment, 32 times each, for 250 rounds. After every round each
/// graph is scored over the wire: every answer must carry the round's
/// final version and be bitwise one ensemble's prediction, the same
/// ensemble for every graph, and the graphs must reach every shard.
#[test]
fn concurrent_swaps_leave_every_shard_on_one_ensemble() {
    let corpus = test_fixtures::corpus(24, 113);
    let ensembles = [quick_ensemble(&corpus, 3), quick_ensemble(&corpus, 4)];
    let all: Vec<JointGraph> = corpus
        .items
        .iter()
        .map(|i| i.graph(ensembles[0].featurization()))
        .collect();
    let refs: Vec<&JointGraph> = all.iter().collect();
    let [a, b] = ensembles.each_ref().map(|e| e.predict_graphs(&refs));
    // Only the graphs the two ensembles score differently are asked: each
    // answer then names the ensemble that served it.
    let (graphs, direct): (Vec<&JointGraph>, Vec<[f64; 2]>) = refs
        .iter()
        .zip(a.into_iter().zip(b))
        .filter(|(_, (a, b))| a != b)
        .map(|(g, (a, b))| (*g, [a, b]))
        .unzip();
    assert!(graphs.len() >= 8, "fixture must tell the ensembles apart");

    let mut serve = ServeConfig::default();
    serve.workers = serve.workers.max(1);
    let cfg = FrontConfig {
        shards: 4,
        serve,
        ..FrontConfig::default()
    };
    let front = Frontend::start(ensembles[0].clone(), cfg).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");
    let (rounds, swaps_per_round) = (250, 32);
    let start = Barrier::new(2);
    let mut version = 1;
    for round in 0..rounds {
        std::thread::scope(|s| {
            for e in &ensembles {
                let (front, start) = (&front, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..swaps_per_round {
                        front.swap_model(e).expect("plan-congruent swap");
                    }
                });
            }
        });
        version += 2 * swaps_per_round;
        let mut served_by = None;
        for (i, g) in graphs.iter().enumerate() {
            let resp = client
                .call(&Request {
                    id: i as u64,
                    lane: WireLane::Interactive,
                    deadline_us: None,
                    body: RequestBody::Score { graph: (*g).clone() },
                })
                .expect("scored");
            let Response::Scored { score, version: v, .. } = resp else {
                panic!("round {round}, graph {i} answered {resp:?}");
            };
            assert_eq!(v, version, "round {round}, graph {i}: every shard at the final version");
            let which = (0..2)
                .find(|&e| score == direct[i][e])
                .unwrap_or_else(|| panic!("round {round}, graph {i}: {score} is neither ensemble's"));
            assert_eq!(
                *served_by.get_or_insert(which),
                which,
                "round {round}, graph {i}: shards serve different ensembles"
            );
        }
    }
    let stats = front.stats();
    assert!(
        stats.shards.iter().all(|s| s.completed > 0),
        "the asked graphs must reach every shard"
    );
}
