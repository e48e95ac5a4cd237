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
use std::sync::mpsc;
use std::time::{Duration, Instant};

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
    // A depth-1 call on an idle connection is scored on its reader, so the
    // loop above need not have reached a worker. One pipelined pass, sent
    // as one write, queues behind its first frame: the respawned workers
    // must score it.
    let before = front.stats();
    let mut burst = Vec::new();
    for i in 0..direct.len() {
        let payload = wire::encode_request(&Request {
            id: 100 + i as u64,
            lane: WireLane::Interactive,
            deadline_us: None,
            body: RequestBody::ScorePooled { slot: i as u32 },
        });
        burst.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        burst.extend_from_slice(&payload);
    }
    client.stream_mut().write_all(&burst).expect("burst written");
    for (i, expected) in direct.iter().enumerate() {
        match client.recv().expect("served after worker panics") {
            Response::Scored { id, score, .. } => {
                assert_eq!(id, 100 + i as u64, "answers in submission order");
                assert!(score == *expected, "pipelined slot {i} must stay bitwise-correct");
            }
            other => panic!("pipelined slot {i} answered {other:?}"),
        }
    }
    let after = front.stats();
    for (shard, (b, a)) in before.shards.iter().zip(&after.shards).enumerate() {
        let by_workers = (a.completed - a.inline) - (b.completed - b.inline);
        let routed = a.completed - b.completed;
        assert!(routed > 0, "shard {shard} got part of the pass");
        assert!(by_workers > 0, "shard {shard}'s respawned worker must score");
    }
    assert_eq!(after.worker_respawns(), 2, "both injected panics respawned");
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

    // A graph whose waves do not order its dataflow is refused before
    // scoring, inline or in an upload: a dataflow edge past the node list,
    // an operator without a wave, a dataflow edge that does not run from a
    // lower wave to a higher one (the last two would score as if the
    // HW→OPS phase the Costream topology does not build were there).
    let mut edge_past_the_end = good.clone();
    edge_past_the_end.dataflow_edges.push((0, 9999));
    let mut no_wave = good.clone();
    no_wave.waves[0] = None;
    let mut backwards = good.clone();
    let &(a, b) = backwards.dataflow_edges.first().expect("a dataflow edge");
    backwards.dataflow_edges.push((b, a));
    for (k, bad) in [edge_past_the_end, no_wave, backwards].into_iter().enumerate() {
        assert!(bad.wave_fault().is_some(), "case {k}");
        let bodies = [
            RequestBody::Score { graph: bad.clone() },
            RequestBody::LoadPool {
                base_slot: 0,
                graphs: vec![good.clone(), bad],
            },
        ];
        for (j, body) in bodies.into_iter().enumerate() {
            let id = 10 + 2 * k as u64 + j as u64;
            let resp = client
                .call(&Request {
                    id,
                    lane: WireLane::Interactive,
                    deadline_us: None,
                    body,
                })
                .expect("answered");
            assert!(
                matches!(resp, Response::Error { kind: ErrorKind::BadRequest, id: Some(got), .. } if got == id),
                "case {k}: got {resp:?}"
            );
        }
    }

    // A structurally broken graph the front end does not check (a
    // placement edge past the node list) panics the scoring kernel; the
    // panic is contained to this request.
    let mut bad = good.clone();
    bad.placement_edges.push((0, bad.len()));
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

    // The connection — and the scoring worker — survive them all.
    assert!(good.wave_fault().is_none());
    let resp = client
        .call(&Request {
            id: 3,
            lane: WireLane::Interactive,
            deadline_us: None,
            body: RequestBody::Score { graph: good },
        })
        .expect("answered");
    assert!(matches!(resp, Response::Scored { id: 3, .. }), "got {resp:?}");
    assert_eq!(front.stats().bad_requests, 6);
}

#[test]
fn a_graph_with_a_non_finite_feature_is_a_bad_request_not_a_score() {
    let corpus = corpus(127);
    let ensemble = quick_ensemble(&corpus);
    let mut good = corpus.items[0].graph(ensemble.featurization());
    // A sentinel the encoder writes once, where the hostile values go.
    const SENTINEL: &str = "0.3125";
    good.nodes[0].features[0] = 0.3125;
    let front = Frontend::start(ensemble, front_config()).expect("bind");
    let mut client = FrontClient::connect(front.addr()).expect("connect");
    let score = |client: &mut FrontClient, id: u64| {
        let resp = client
            .call(&Request {
                id,
                lane: WireLane::Interactive,
                deadline_us: None,
                body: RequestBody::Score { graph: good.clone() },
            })
            .expect("answered");
        match resp {
            Response::Scored { id: got, score, .. } if got == id => score,
            other => panic!("clean graph answered {other:?}"),
        }
    };
    let clean = score(&mut client, 1);
    let bad_request = |client: &mut FrontClient, id: u64, what: &str| match client.recv().expect("answered") {
        Response::Error { id: got, kind, detail } => {
            assert_eq!((got, kind), (Some(id), ErrorKind::BadRequest), "{what}: {detail}");
            assert!(detail.contains("not a finite"), "{what}: {detail}");
        }
        other => panic!("{what} answered {other:?}"),
    };

    // `null` decodes to NaN, 1e39 and f64::MAX to +inf.
    let text = |body: RequestBody, id: u64| {
        let req = Request {
            id,
            lane: WireLane::Interactive,
            deadline_us: None,
            body,
        };
        String::from_utf8(wire::encode_request(&req)).expect("JSON is UTF-8")
    };
    let upload = |id: u64| {
        text(
            RequestBody::LoadPool {
                base_slot: 0,
                graphs: vec![good.clone(), good.clone()],
            },
            id,
        )
    };
    let inline = text(RequestBody::Score { graph: good.clone() }, 10);
    assert_eq!(inline.matches(SENTINEL).count(), 1, "{inline}");
    for (k, hostile) in ["null", "1e39", "1.7976931348623157e308"].into_iter().enumerate() {
        let id = 10 + k as u64;
        let frame = text(RequestBody::Score { graph: good.clone() }, id).replacen(SENTINEL, hostile, 1);
        wire::write_frame(client.stream_mut(), frame.as_bytes()).expect("write");
        bad_request(&mut client, id, &format!("Score with {hostile}"));

        // The second graph of an upload: the whole upload is refused.
        let id = 20 + k as u64;
        let clean_upload = upload(id);
        let at = clean_upload.rfind(SENTINEL).expect("the second graph's sentinel");
        let frame = format!(
            "{}{hostile}{}",
            &clean_upload[..at],
            &clean_upload[at + SENTINEL.len()..]
        );
        wire::write_frame(client.stream_mut(), frame.as_bytes()).expect("write");
        bad_request(&mut client, id, &format!("LoadPool with {hostile}"));
    }

    // A refused upload filled no slot, not even the clean first graph's.
    let resp = client
        .call(&Request {
            id: 30,
            lane: WireLane::Interactive,
            deadline_us: None,
            body: RequestBody::ScorePooled { slot: 0 },
        })
        .expect("answered");
    assert!(
        matches!(
            resp,
            Response::Error {
                kind: ErrorKind::BadSlot,
                id: Some(30),
                ..
            }
        ),
        "got {resp:?}"
    );
    // The connection still scores, and the clean graph's score is unmoved.
    assert_eq!(score(&mut client, 31).to_bits(), clean.to_bits());
    assert_eq!(front.stats().bad_requests, 6);
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

/// A peer that pipelines far past the per-connection bound and hangs up
/// without reading a single answer. Pooled frames decode faster than the
/// shards score them, so the connection's reader runs ahead and parks on a
/// full job channel; once the peer is gone only the writer's failed write
/// can end the connection, by dropping its end of the channel. The
/// front-end keeps serving, and a graceful shutdown still drains — within
/// a bound, so a wedged connection fails this test instead of hanging the
/// suite.
#[test]
fn a_peer_that_pipelines_past_the_bound_and_hangs_up_is_torn_down() {
    let corpus = corpus(128);
    let ensemble = quick_ensemble(&corpus);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect();
    let front = Frontend::start(ensemble, front_config()).expect("bind");

    let mut frames = Vec::new();
    let upload = Request {
        id: 0,
        lane: WireLane::Bulk,
        deadline_us: None,
        body: RequestBody::LoadPool {
            base_slot: 0,
            graphs: graphs.clone(),
        },
    };
    wire::write_frame(&mut frames, &wire::encode_request(&upload)).expect("in-memory write");
    for id in 0..4096u64 {
        let req = Request {
            id,
            lane: WireLane::Bulk,
            deadline_us: None,
            body: RequestBody::ScorePooled {
                slot: (id as usize % graphs.len()) as u32,
            },
        };
        wire::write_frame(&mut frames, &wire::encode_request(&req)).expect("in-memory write");
    }
    let mut rude = TcpStream::connect(front.addr()).expect("connect");
    rude.set_write_timeout(Some(Duration::from_secs(10)))
        .expect("write timeout");
    rude.write_all(&frames).expect("the front-end reads while it answers");
    // Hang up mid-stream, once the shards have answered an eighth of it:
    // the reader, ahead of them, is then parked with frames left to read.
    let since = Instant::now();
    while front.stats().shards.iter().map(|s| s.completed).sum::<u64>() < 512 {
        assert!(
            since.elapsed() < Duration::from_secs(10),
            "the pipelined requests stalled"
        );
        std::thread::yield_now();
    }
    drop(rude);

    let mut fresh = FrontClient::connect(front.addr()).expect("acceptor alive");
    let resp = fresh
        .call(&Request {
            id: 1,
            lane: WireLane::Interactive,
            deadline_us: None,
            body: RequestBody::Score {
                graph: graphs[0].clone(),
            },
        })
        .expect("answered");
    assert!(matches!(resp, Response::Scored { id: 1, .. }), "got {resp:?}");

    let (done, report) = mpsc::channel();
    std::thread::spawn(move || done.send(front.shutdown(Duration::from_secs(5))));
    let report = report
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown must not wedge on the torn-down connection");
    assert!(report.drained, "{report:?}");
}
