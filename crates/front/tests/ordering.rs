//! Responses may share a `write`, and a TCP segment, but never reorder and
//! never wait for a later one: the two promises the coalescing writer has
//! to keep.

use costream::prelude::*;
use costream::test_fixtures;
use costream_front::wire::{self, ErrorKind, Request, RequestBody, Response, WireLane};
use costream_front::{FrontClient, FrontConfig, Frontend};
use std::sync::atomic::{AtomicBool, Ordering};

fn start() -> (Frontend, Vec<JointGraph>, Vec<f64>) {
    let corpus = test_fixtures::corpus(24, 130);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..Default::default()
    };
    let ensemble = Ensemble::train(&corpus, CostMetric::Throughput, &cfg, 1);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = ensemble.predict_graphs(&refs);
    let front = Frontend::start(ensemble, FrontConfig::default()).expect("bind");
    (front, graphs, direct)
}

fn request(id: u64, body: RequestBody) -> Request {
    Request {
        id,
        lane: if id.is_multiple_of(3) {
            WireLane::Bulk
        } else {
            WireLane::Interactive
        },
        deadline_us: None,
        body,
    }
}

#[test]
fn mixed_responses_at_depth_128_arrive_in_submission_order() {
    let (front, graphs, direct) = start();
    let mut client = FrontClient::connect(front.addr()).expect("connect");
    client.load_pool(0, 0, graphs.clone()).expect("loaded");

    // Immediately-known answers (pong, bad slot, undecodable) interleaved
    // with scores that take a batch to arrive: the writer gathers what is
    // ready, and must still hand everything over in the order it was asked.
    enum Expect {
        Pong,
        Score(usize),
        BadSlot,
        BadRequest,
    }
    let total = 128 * 8;
    let depth = 128;
    let plan: Vec<Expect> = (0..total)
        .map(|i| match i % 7 {
            0 => Expect::Pong,
            3 => Expect::BadSlot,
            5 => Expect::BadRequest,
            _ => Expect::Score(i % graphs.len()),
        })
        .collect();
    let (mut sent, mut received) = (0, 0);
    while received < total {
        while sent < total && sent - received < depth {
            let id = sent as u64;
            let sending = match plan[sent] {
                Expect::Pong => client.send(&request(id, RequestBody::Ping)),
                Expect::Score(g) => client.send(&request(id, RequestBody::ScorePooled { slot: g as u32 })),
                Expect::BadSlot => client.send(&request(id, RequestBody::ScorePooled { slot: 9_999 })),
                Expect::BadRequest => wire::write_frame(client.stream_mut(), b"{\"id\":").map_err(Into::into),
            };
            sending.expect("send");
            sent += 1;
        }
        let id = received as u64;
        let response = client.recv().expect("every frame is answered");
        match (&plan[received], &response) {
            (Expect::Pong, Response::Pong { id: echoed, .. }) if *echoed == id => {}
            (Expect::Score(g), Response::Scored { id: echoed, score, .. })
                if *echoed == id && score.to_bits() == direct[*g].to_bits() => {}
            (
                Expect::BadSlot,
                Response::Error {
                    id: Some(echoed),
                    kind: ErrorKind::BadSlot,
                    ..
                },
            ) if *echoed == id => {}
            (
                Expect::BadRequest,
                Response::Error {
                    id: None,
                    kind: ErrorKind::BadRequest,
                    ..
                },
            ) => {}
            _ => panic!("response {received} out of order or wrong: {response:?}"),
        }
        received += 1;
    }
    let stats = front.stats();
    let undecodable = plan.iter().filter(|e| matches!(e, Expect::BadRequest)).count();
    assert_eq!(stats.bad_requests as usize, undecodable);
    assert_eq!(stats.disconnects, 0);
}

#[test]
fn a_lone_request_is_answered_while_another_connection_pipelines() {
    let (front, graphs, direct) = start();
    let addr = front.addr();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // A second connection keeps its writer gathering at depth 64 for as
        // long as the first one is talking.
        let busy = s.spawn(|| {
            let mut client = FrontClient::connect(addr).expect("connect");
            client.load_pool(0, 0, graphs.clone()).expect("loaded");
            let (mut sent, mut received) = (0u64, 0u64);
            while !done.load(Ordering::SeqCst) || received < sent {
                while !done.load(Ordering::SeqCst) && sent - received < 64 {
                    let slot = (sent % graphs.len() as u64) as u32;
                    client
                        .send(&request(sent, RequestBody::ScorePooled { slot }))
                        .expect("send");
                    sent += 1;
                }
                if received < sent {
                    assert_eq!(client.recv().expect("answered").id(), Some(received));
                    received += 1;
                }
            }
            received
        });

        // Depth 1: every call returns only if the writer wrote the one
        // response it held before it went back to wait for the next job.
        let mut lone = FrontClient::connect(addr).expect("connect");
        // A response left in the writer's buffer is a failure, not a hang.
        let patience = Some(std::time::Duration::from_secs(20));
        lone.stream_mut().set_read_timeout(patience).expect("set timeout");
        for round in 0..200u64 {
            let g = round as usize % graphs.len();
            let body = RequestBody::Score {
                graph: graphs[g].clone(),
            };
            match lone.call(&request(round, body)).expect("answered") {
                Response::Scored { id, score, .. } => {
                    assert_eq!(id, round);
                    assert_eq!(score.to_bits(), direct[g].to_bits());
                }
                other => panic!("lone request {round} answered {other:?}"),
            }
            assert!(matches!(lone.ping(round), Ok(Response::Pong { .. })));
        }
        done.store(true, Ordering::SeqCst);
        assert!(busy.join().expect("pipelining connection") > 0);
    });
}
