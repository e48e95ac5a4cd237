//! End-to-end front-end tests: bitwise score fidelity through the wire,
//! versioned hot swap under concurrent load, and graceful drain.

use costream::prelude::*;
use costream::test_fixtures;
use costream_front::{wire, FrontClient, FrontConfig, Frontend, Request, RequestBody, Response, WireLane};
use costream_serve::ServeConfig;
use std::io::Write;
use std::time::Duration;

fn corpus(seed: u64) -> Corpus {
    test_fixtures::corpus(24, seed)
}

fn quick_ensemble(corpus: &Corpus, train_seed: u64) -> Ensemble {
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        seed: train_seed,
        ..Default::default()
    };
    Ensemble::train(corpus, CostMetric::Throughput, &cfg, 1)
}

fn front_config(shards: usize) -> FrontConfig {
    let mut serve = ServeConfig::default();
    serve.workers = serve.workers.max(1);
    FrontConfig {
        shards,
        serve,
        ..FrontConfig::default()
    }
}

#[test]
fn wire_scores_are_bitwise_identical_to_direct_prediction() {
    let corpus = corpus(110);
    // Trained long enough to leave the `msle_inverse` clamps: at 2 epochs
    // this corpus scores 20 of its 24 graphs exactly 0.0, and a wire path
    // that answered another graph's score would pass among them.
    let cfg = TrainConfig {
        epochs: 30,
        batch_size: 16,
        seed: 0,
        ..Default::default()
    };
    let ensemble = Ensemble::train(&corpus, CostMetric::Throughput, &cfg, 1);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = ensemble.predict_graphs(&refs);
    let mut distinct: Vec<u64> = direct.iter().map(|s| s.to_bits()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(
        distinct.len() >= 20,
        "the fixture must tell the graphs apart: {} distinct scores of {}",
        distinct.len(),
        direct.len()
    );

    let front = Frontend::start(ensemble, front_config(2)).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");

    // Ping reports version 1 and the shard count.
    match client.ping(999).expect("pong") {
        Response::Pong { id, version, shards } => {
            assert_eq!((id, version, shards), (999, 1, 2));
        }
        other => panic!("ping answered {other:?}"),
    }

    // Inline Score path: every score bitwise equals direct prediction.
    for (i, g) in graphs.iter().enumerate() {
        let resp = client
            .call(&Request {
                id: i as u64,
                lane: WireLane::Interactive,
                deadline_us: None,
                body: RequestBody::Score { graph: g.clone() },
            })
            .expect("scored");
        match resp {
            Response::Scored { id, score, version } => {
                assert_eq!(id, i as u64);
                assert_eq!(version, 1);
                assert!(score == direct[i], "graph {i}: wire {score} != direct {}", direct[i]);
            }
            other => panic!("graph {i} answered {other:?}"),
        }
    }

    // Pooled path: upload once, score by slot — bitwise identical too.
    match client.load_pool(5000, 0, graphs.clone()).expect("loaded") {
        Response::Loaded { count, .. } => assert_eq!(count as usize, graphs.len()),
        other => panic!("load answered {other:?}"),
    }
    for (i, expected) in direct.iter().enumerate() {
        let resp = client
            .call(&Request {
                id: i as u64,
                lane: WireLane::Bulk,
                deadline_us: None,
                body: RequestBody::ScorePooled { slot: i as u32 },
            })
            .expect("scored");
        match resp {
            Response::Scored { score, .. } => {
                assert!(score == *expected, "slot {i}: pooled {score} != direct {expected}");
            }
            other => panic!("slot {i} answered {other:?}"),
        }
    }

    let stats = front.stats();
    assert_eq!(
        stats.shards.iter().map(|s| s.completed).sum::<u64>(),
        2 * graphs.len() as u64
    );
    // Signature sharding: with two shards and 24 distinct shapes, both
    // shards see traffic (routing is a fixed-key hash of the signature, so
    // this split is deterministic).
    let busy_shards = stats.shards.iter().filter(|s| s.completed > 0).count();
    assert_eq!(busy_shards, 2, "both shards must have served");
}

/// Sends `reqs` as one write, so the server's first read of the burst
/// finds more than one frame behind the first.
fn send_burst(client: &mut FrontClient, reqs: &[Request]) {
    let mut bytes = Vec::new();
    for req in reqs {
        let payload = wire::encode_request(req);
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&payload);
    }
    client.stream_mut().write_all(&bytes).expect("burst written");
}

/// Requests answered on a reader thread, summed over the shards.
fn inline_total(front: &Frontend) -> u64 {
    front.stats().shards.iter().map(|s| s.inline).sum()
}

/// A depth-1 loop is answered on the connection's reader, bitwise equal to
/// direct prediction: the connection owes nothing when each request
/// arrives, and no frame waits behind it. A pipelined burst on the same
/// connection takes the shard queue and the writer, comes back in order,
/// and is answered inline at most once (its last frame may find every
/// earlier answer already written).
#[test]
fn an_idle_connection_is_answered_inline_and_a_burst_still_queues() {
    let corpus = corpus(113);
    let ensemble = quick_ensemble(&corpus, 0);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = ensemble.predict_graphs(&refs);
    let front = Frontend::start(ensemble, front_config(2)).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");
    client.load_pool(0, 0, graphs.clone()).expect("loaded");

    for (i, g) in graphs.iter().enumerate() {
        let resp = client
            .call(&Request {
                id: i as u64,
                lane: WireLane::Interactive,
                deadline_us: None,
                body: RequestBody::Score { graph: g.clone() },
            })
            .expect("scored");
        match resp {
            Response::Scored { id, score, version } => {
                assert_eq!((id, version), (i as u64, 1));
                assert!(score == direct[i], "graph {i}: wire {score} != direct {}", direct[i]);
            }
            other => panic!("graph {i} answered {other:?}"),
        }
    }
    let n = graphs.len() as u64;
    assert_eq!(inline_total(&front), n, "every depth-1 request answered inline");

    let depth = 32;
    for burst in 0..4u64 {
        let before = inline_total(&front);
        let reqs: Vec<Request> = (0..depth)
            .map(|k| Request {
                id: burst * depth + k,
                lane: WireLane::Interactive,
                deadline_us: None,
                body: RequestBody::ScorePooled { slot: (k % n) as u32 },
            })
            .collect();
        send_burst(&mut client, &reqs);
        for req in &reqs {
            match client.recv().expect("answered") {
                Response::Scored { id, score, .. } => {
                    assert_eq!(id, req.id, "burst {burst}: answers in submission order");
                    let slot = (req.id % depth) % n;
                    assert!(score == direct[slot as usize], "burst {burst}, id {id}");
                }
                other => panic!("burst {burst} answered {other:?}"),
            }
        }
        let inline = inline_total(&front) - before;
        assert!(inline <= 1, "burst {burst}: {inline} of {depth} answered inline");
    }
    let stats = front.stats();
    let queued: u64 = stats.shards.iter().map(|s| s.completed - s.inline).sum();
    assert!(
        queued >= 4 * (depth - 1),
        "the bursts were scored by the workers: {queued}"
    );
}

#[test]
fn hot_swap_under_concurrent_wire_load_is_versioned_and_lossless() {
    let corpus = corpus(111);
    let e1 = quick_ensemble(&corpus, 1);
    let e2 = quick_ensemble(&corpus, 2);
    let all: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(e1.featurization())).collect();
    let refs: Vec<&JointGraph> = all.iter().collect();
    // Only the graphs the two versions score differently are asked (the
    // 2-epoch fixture scores half of the 24 alike): each answer then
    // names the version that served it.
    let (graphs, (direct1, direct2)): (Vec<JointGraph>, (Vec<f64>, Vec<f64>)) = all
        .iter()
        .zip(e1.predict_graphs(&refs).into_iter().zip(e2.predict_graphs(&refs)))
        .filter(|(_, (a, b))| a != b)
        .map(|(g, scores)| (g.clone(), scores))
        .unzip();
    assert!(!graphs.is_empty(), "fixture must distinguish the versions");

    let front = Frontend::start(e1, front_config(2)).expect("bind");
    let addr = front.addr();
    let n_clients = 3;
    let rounds = 4;
    std::thread::scope(|s| {
        for c in 0..n_clients {
            let graphs = &graphs;
            let (direct1, direct2) = (&direct1, &direct2);
            s.spawn(move || {
                let mut client = FrontClient::connect(addr).expect("connect");
                client.load_pool(0, 0, graphs.clone()).expect("loaded");
                for step in 0..rounds * graphs.len() {
                    let i = (c * 7 + step) % graphs.len();
                    let resp = client
                        .call(&Request {
                            id: step as u64,
                            lane: WireLane::Interactive,
                            deadline_us: None,
                            body: RequestBody::ScorePooled { slot: i as u32 },
                        })
                        .expect("served across the swap");
                    match resp {
                        // Zero failed requests, and every score is
                        // bitwise the prediction of exactly one version.
                        Response::Scored { score, version, .. } => match version {
                            1 => assert!(score == direct1[i], "v1 must be bitwise v1"),
                            2 => assert!(score == direct2[i], "v2 must be bitwise v2"),
                            v => panic!("impossible version {v}"),
                        },
                        other => panic!("request failed during swap: {other:?}"),
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(5));
        let version = front.swap_model(&e2).expect("plan-congruent swap");
        assert_eq!(version, 2);
    });

    let stats = front.stats();
    assert_eq!(
        stats.shards.iter().map(|s| s.completed).sum::<u64>(),
        (n_clients * rounds * graphs.len()) as u64
    );
    for shard in &stats.shards {
        assert_eq!(shard.failed, 0);
        assert_eq!(shard.swaps, 1);
    }
}

#[test]
fn graceful_shutdown_drains_and_reports() {
    let corpus = corpus(112);
    let ensemble = quick_ensemble(&corpus, 0);
    let graphs: Vec<JointGraph> = corpus
        .items
        .iter()
        .take(6)
        .map(|i| i.graph(ensemble.featurization()))
        .collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = ensemble.predict_graphs(&refs);

    let front = Frontend::start(ensemble, front_config(1)).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");
    // Pipeline a few requests and read the answers, then drain.
    for (i, g) in graphs.iter().enumerate() {
        client
            .send(&Request {
                id: i as u64,
                lane: WireLane::Interactive,
                deadline_us: None,
                body: RequestBody::Score { graph: g.clone() },
            })
            .expect("send");
    }
    for (i, expected) in direct.iter().enumerate() {
        match client.recv().expect("recv") {
            Response::Scored { id, score, .. } => {
                assert_eq!(id as usize, i);
                assert!(score == *expected);
            }
            other => panic!("request {i} answered {other:?}"),
        }
    }
    let report = front.shutdown(Duration::from_secs(10));
    assert!(report.drained, "an idle front-end must drain cleanly");
    assert_eq!(report.abandoned, 0);
    // The connection is closed afterwards.
    assert!(client.ping(0).is_err(), "a drained front-end must not serve");
}

/// An upload whose slots would run past `u32::MAX` is refused whole: it
/// used to wrap and overwrite slot 0 while answering `Loaded`. One that
/// ends exactly at `u32::MAX` is stored.
#[test]
fn a_pool_upload_past_the_last_slot_is_refused_not_wrapped() {
    let corpus = corpus(114);
    let ensemble = quick_ensemble(&corpus, 0);
    let graphs: Vec<JointGraph> = corpus
        .items
        .iter()
        .take(3)
        .map(|i| i.graph(ensemble.featurization()))
        .collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = ensemble.predict_graphs(&refs);
    let front = Frontend::start(ensemble, front_config(1)).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");
    let score = |client: &mut FrontClient, id: u64, slot: u32| {
        client
            .call(&Request {
                id,
                lane: WireLane::Interactive,
                deadline_us: None,
                body: RequestBody::ScorePooled { slot },
            })
            .expect("answered")
    };

    client.load_pool(1, 0, vec![graphs[0].clone()]).expect("loaded");
    match client.load_pool(2, u32::MAX, vec![graphs[1].clone(), graphs[2].clone()]) {
        Ok(Response::Error { id, kind, .. }) => assert_eq!((id, kind), (Some(2), wire::ErrorKind::BadSlot)),
        other => panic!("a wrapping upload answered {other:?}"),
    }
    // Slot 0 still holds the first upload, and the last slot holds nothing.
    assert!(matches!(score(&mut client, 3, 0), Response::Scored { score, .. } if score == direct[0]));
    assert!(matches!(
        score(&mut client, 4, u32::MAX),
        Response::Error {
            kind: wire::ErrorKind::BadSlot,
            ..
        }
    ));

    match client.load_pool(5, u32::MAX - 1, vec![graphs[1].clone(), graphs[2].clone()]) {
        Ok(Response::Loaded { id: 5, count: 2 }) => {}
        other => panic!("an upload ending at the last slot answered {other:?}"),
    }
    assert!(matches!(score(&mut client, 6, u32::MAX), Response::Scored { score, .. } if score == direct[2]));
    assert!(matches!(score(&mut client, 7, 0), Response::Scored { score, .. } if score == direct[0]));
    front.shutdown(Duration::from_secs(10));
}
