//! Fault-injection tests: everything a misbehaving client or a dying
//! worker can throw at the front-end, none of which may stop it from
//! serving well-behaved traffic.

use costream::prelude::*;
use costream::test_fixtures;
use costream_front::wire::{self, ErrorKind, Request, RequestBody, Response, WireLane};
use costream_front::{FrontClient, FrontConfig, Frontend};
use costream_serve::ServeConfig;
use std::io::Write;
use std::net::TcpStream;

fn corpus(seed: u64) -> Corpus {
    test_fixtures::corpus(24, seed)
}

fn quick_ensemble(corpus: &Corpus) -> Ensemble {
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..Default::default()
    };
    Ensemble::train(corpus, CostMetric::Throughput, &cfg, 1)
}

fn front_config() -> FrontConfig {
    let mut serve = ServeConfig::default();
    serve.workers = serve.workers.max(1);
    FrontConfig {
        shards: 2,
        serve,
        max_frame_bytes: 1 << 20,
    }
}

#[test]
fn malformed_payload_gets_typed_error_and_connection_survives() {
    let corpus = corpus(120);
    let front = Frontend::start(quick_ensemble(&corpus), front_config()).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");

    // A well-framed but undecodable payload: typed error, no id echo
    // (there is nothing to echo), and — crucially — the connection keeps
    // serving because the framing was intact.
    wire::write_frame(client.stream_mut(), b"{ this is not a request }").expect("write");
    match client.recv().expect("typed error response") {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, None);
            assert_eq!(kind, ErrorKind::BadRequest);
        }
        other => panic!("malformed payload answered {other:?}"),
    }
    match client.ping(7).expect("connection must survive") {
        Response::Pong { id, .. } => assert_eq!(id, 7),
        other => panic!("ping answered {other:?}"),
    }
    assert_eq!(front.stats().bad_requests, 1);
}

#[test]
fn deeply_nested_payload_gets_typed_error_and_connection_survives() {
    let corpus = corpus(126);
    let front = Frontend::start(quick_ensemble(&corpus), front_config()).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");

    // 10 KB of `[`: a recursive parser follows it down until the reader
    // thread's stack overflows, which aborts the process past any
    // `catch_unwind`. The nesting limit makes it one more undecodable
    // payload.
    wire::write_frame(client.stream_mut(), &vec![b'['; 10_000]).expect("write");
    match client.recv().expect("typed error response") {
        Response::Error { id, kind, detail } => {
            assert_eq!(id, None);
            assert_eq!(kind, ErrorKind::BadRequest);
            assert!(detail.contains("nesting"), "{detail}");
        }
        other => panic!("nested payload answered {other:?}"),
    }
    match client.ping(8).expect("connection must survive") {
        Response::Pong { id, .. } => assert_eq!(id, 8),
        other => panic!("ping answered {other:?}"),
    }
    assert_eq!(front.stats().bad_requests, 1);
}

#[test]
fn oversized_frame_gets_typed_error_then_close_acceptor_survives() {
    let corpus = corpus(121);
    let front = Frontend::start(quick_ensemble(&corpus), front_config()).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");

    // Header declaring 2 MiB against a 1 MiB limit: typed error, then
    // the connection closes (the unread payload makes resync impossible).
    client
        .stream_mut()
        .write_all(&(2u32 << 20).to_be_bytes())
        .expect("header write");
    match client.recv().expect("typed error before close") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Oversized),
        other => panic!("oversized frame answered {other:?}"),
    }
    assert!(client.recv().is_err(), "connection must be closed after Oversized");

    // The acceptor is untouched: a fresh connection serves.
    let mut fresh = FrontClient::connect(front.addr()).expect("acceptor alive");
    assert!(fresh.ping(1).is_ok());
    assert_eq!(front.stats().oversized, 1);
}

#[test]
fn mid_frame_disconnects_are_dropped_silently_front_keeps_serving() {
    let corpus = corpus(122);
    let front = Frontend::start(quick_ensemble(&corpus), front_config()).expect("bind");

    // Several rude clients: partial header, partial payload, instant
    // hangup.
    for partial in [&b"\x00"[..], &b"\x00\x00\x00\x40abc"[..], &[]] {
        let mut s = TcpStream::connect(front.addr()).expect("connect");
        s.write_all(partial).expect("partial write");
        drop(s);
    }
    // The front-end still serves a well-behaved client.
    let mut client = FrontClient::connect(front.addr()).expect("connect");
    assert!(client.ping(1).is_ok());
}

#[test]
fn worker_panic_behind_the_wire_respawns_and_serving_recovers() {
    let corpus = corpus(123);
    let ensemble = quick_ensemble(&corpus);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = ensemble.predict_graphs(&refs);

    let mut cfg = front_config();
    cfg.serve.workers = 1; // One worker per shard: a dead worker is a dead shard.
    let front = Frontend::start(ensemble, cfg).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");
    client.load_pool(0, 0, graphs.clone()).expect("loaded");

    // Kill a worker in *every* shard, then demand correct service.
    for shard in 0..2 {
        front.inject_worker_panic(shard);
    }
    for (i, expected) in direct.iter().enumerate() {
        let resp = client
            .call(&Request {
                id: i as u64,
                lane: WireLane::Interactive,
                deadline_us: None,
                body: RequestBody::ScorePooled { slot: i as u32 },
            })
            .expect("served after worker panics");
        match resp {
            Response::Scored { score, .. } => assert!(score == *expected, "slot {i} must stay bitwise-correct"),
            other => panic!("slot {i} answered {other:?}"),
        }
    }
    assert_eq!(front.stats().worker_respawns(), 2, "both injected panics respawned");
}

#[test]
fn bad_slot_and_malformed_graph_fail_typed_not_fatal() {
    let corpus = corpus(124);
    let ensemble = quick_ensemble(&corpus);
    let good = corpus.items[0].graph(ensemble.featurization());
    let front = Frontend::start(ensemble, front_config()).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");

    // Scoring a never-loaded slot: typed BadSlot.
    let resp = client
        .call(&Request {
            id: 1,
            lane: WireLane::Interactive,
            deadline_us: None,
            body: RequestBody::ScorePooled { slot: 42 },
        })
        .expect("answered");
    assert!(
        matches!(
            resp,
            Response::Error {
                kind: ErrorKind::BadSlot,
                id: Some(1),
                ..
            }
        ),
        "got {resp:?}"
    );

    // A structurally broken graph (edge past the node list) panics the
    // scoring kernel; the panic is contained to this request.
    let mut bad = good.clone();
    bad.dataflow_edges.push((0, 9999));
    let resp = client
        .call(&Request {
            id: 2,
            lane: WireLane::Interactive,
            deadline_us: None,
            body: RequestBody::Score { graph: bad },
        })
        .expect("answered");
    assert!(
        matches!(
            resp,
            Response::Error {
                kind: ErrorKind::Internal,
                id: Some(2),
                ..
            }
        ),
        "got {resp:?}"
    );

    // The connection — and the scoring worker — survive both.
    let resp = client
        .call(&Request {
            id: 3,
            lane: WireLane::Interactive,
            deadline_us: None,
            body: RequestBody::Score { graph: good },
        })
        .expect("answered");
    assert!(matches!(resp, Response::Scored { id: 3, .. }), "got {resp:?}");
}

#[test]
fn overload_with_mixed_lanes_answers_every_request_typed() {
    let corpus = corpus(125);
    let ensemble = quick_ensemble(&corpus);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect();

    // Tiny queues + instant deadline on bulk: heavy pipelined traffic
    // must produce a mix of scores, overloads and sheds — and exactly
    // one typed response per request, never a hang.
    let mut cfg = front_config();
    cfg.serve.workers = 1;
    cfg.serve.queue_cap = 4;
    cfg.serve.bulk_queue_cap = 4;
    let front = Frontend::start(ensemble, cfg).expect("bind");

    let n = 300u64;
    let mut client = FrontClient::connect(front.addr()).expect("connect");
    client.load_pool(0, 0, graphs.clone()).expect("loaded");
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut outcomes = [0u64; 3]; // scored, overloaded/shed, shed
    let depth = 64;
    let mut bulk_shed = 0u64;
    while received < n {
        while sent < n && sent - received < depth {
            let bulk = sent.is_multiple_of(2);
            client
                .send(&Request {
                    id: sent,
                    lane: if bulk { WireLane::Bulk } else { WireLane::Interactive },
                    // Bulk gets an already-hopeless deadline so shedding
                    // deterministically shows up.
                    deadline_us: if bulk { Some(0) } else { Some(5_000_000) },
                    body: RequestBody::ScorePooled {
                        slot: (sent % graphs.len() as u64) as u32,
                    },
                })
                .expect("send");
            sent += 1;
        }
        let was_bulk_shed = match client.recv().expect("every request must be answered") {
            Response::Scored { .. } => {
                outcomes[0] += 1;
                false
            }
            Response::Error {
                kind: ErrorKind::Overloaded,
                ..
            } => {
                outcomes[1] += 1;
                false
            }
            Response::Error {
                kind: ErrorKind::DeadlineExceeded,
                id,
                ..
            } => {
                outcomes[2] += 1;
                id.is_some_and(|i| i % 2 == 0)
            }
            other => panic!("unexpected overload outcome: {other:?}"),
        };
        if was_bulk_shed {
            bulk_shed += 1;
        }
        received += 1;
    }
    assert_eq!(
        outcomes.iter().sum::<u64>(),
        n,
        "exactly one typed response per request"
    );
    assert!(outcomes[0] > 0, "some requests must be scored");
    assert!(outcomes[2] > 0, "bulk's zero deadline must shed");
    assert_eq!(outcomes[2], bulk_shed, "only bulk requests may be shed in this setup");
    // The front-end survives the overload.
    assert!(client.ping(0).is_ok());
}
