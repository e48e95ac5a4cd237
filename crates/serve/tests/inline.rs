//! The inline entry, `ScoreClient::try_score_inline`: a request scored on
//! the caller's thread when the service is idle.
//!
//! It must answer exactly as a worker's batch of one would — bitwise equal
//! to `Ensemble::predict_graphs`, tagged with the served version, shed past
//! its deadline, `Internal` on a panicking graph, refused while draining —
//! and count alike. It must never overtake a queued request. Every service
//! here runs without workers, so nothing but the caller's thread scores.

use costream::prelude::*;
use costream::test_fixtures;
use costream_serve::{Lane, ScoringService, ServeConfig, ServeError, ServeStats, SubmitOptions};
use std::time::{Duration, Instant};

fn ensemble(corpus: &Corpus, seed: u64) -> Ensemble {
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        seed,
        ..Default::default()
    };
    Ensemble::train(corpus, CostMetric::Throughput, &cfg, 2)
}

/// No workers: whatever is queued stays queued.
fn idle_service(ensemble: Ensemble) -> ScoringService {
    let cfg = ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    };
    ScoringService::start(ensemble, cfg)
}

/// Every answered request is one of completed, failed or shed, and every
/// submitted one is answered.
fn assert_all_answered(stats: &ServeStats) {
    assert_eq!(
        stats.completed + stats.failed + stats.shed,
        stats.submitted,
        "{stats:?}"
    );
}

#[test]
fn inline_scores_equal_direct_prediction_and_carry_the_swapped_version() {
    let corpus = test_fixtures::corpus(24, 130);
    let (first, second) = (ensemble(&corpus, 1), ensemble(&corpus, 2));
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(first.featurization())).collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = [first.predict_graphs(&refs), second.predict_graphs(&refs)];
    assert_ne!(direct[0], direct[1], "fixture must distinguish the models");

    let service = idle_service(first);
    let client = service.client();
    for (round, want) in direct.iter().enumerate() {
        if round == 1 {
            assert_eq!(service.swap_model(second.clone()), Ok(2));
        }
        for (i, g) in graphs.iter().enumerate() {
            let scored = client
                .try_score_inline(g, SubmitOptions::default())
                .expect("an idle service scores inline")
                .expect("scored");
            assert!(scored.score == want[i], "round {round}, graph {i}");
            assert_eq!(scored.version, round as u64 + 1);
        }
    }
    let n = 2 * graphs.len() as u64;
    let stats = service.stats();
    assert_eq!((stats.inline, stats.submitted, stats.completed), (n, n, n));
    assert_eq!((stats.batches, stats.batch_hist[0], stats.batched_graphs), (n, n, n));
    assert_eq!(stats.interactive.completed, n);
    assert_all_answered(&stats);
}

#[test]
fn inline_declines_while_either_lane_holds_a_queued_request() {
    let corpus = test_fixtures::corpus(8, 131);
    let model = ensemble(&corpus, 1);
    let graph = corpus.items[0].graph(model.featurization());
    for queued in Lane::ALL {
        let service = idle_service(model.clone());
        let client = service.client();
        let opts = |lane| SubmitOptions { lane, deadline: None };
        let pending = client.submit_with(graph.clone(), opts(queued)).expect("fits");
        for lane in Lane::ALL {
            assert!(
                client.try_score_inline(&graph, opts(lane)).is_none(),
                "a {lane:?} request must not overtake a queued {queued:?} one"
            );
        }
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.inline, stats.batches), (1, 0, 0));
        drop(service);
        assert_eq!(pending.wait(), Err(ServeError::ShutDown));
    }
}

#[test]
fn inline_fails_while_draining_as_submit_does() {
    let corpus = test_fixtures::corpus(8, 132);
    let model = ensemble(&corpus, 1);
    let graph = corpus.items[0].graph(model.featurization());
    let mut service = idle_service(model);
    let client = service.client();
    // A queued request nobody drains holds the drain open.
    let held = client.submit(graph.clone()).expect("fits");
    let drain = std::thread::spawn(move || {
        let outcome = service.shutdown_drain(Duration::from_millis(300));
        (service, outcome)
    });
    let opts = SubmitOptions::default();
    let give_up = Instant::now() + Duration::from_secs(10);
    // Declined while the request is queued and admission is open; refused
    // once the drain closes admission.
    let refused = loop {
        match client.try_score_inline(&graph, opts) {
            None => assert!(Instant::now() < give_up, "the drain never closed admission"),
            Some(result) => break result,
        }
        std::thread::yield_now();
    };
    assert_eq!(refused, Err(ServeError::ShutDown));
    assert_eq!(client.submit(graph.clone()).err(), Some(ServeError::ShutDown));
    let (service, outcome) = drain.join().expect("drain");
    assert_eq!((outcome.drained, outcome.abandoned), (false, 1));
    assert_eq!(held.wait(), Err(ServeError::ShutDown));
    assert_eq!(client.try_score_inline(&graph, opts), Some(Err(ServeError::ShutDown)));
    // Nothing counted for the refused calls; the abandoned request failed.
    let stats = service.stats();
    assert_eq!((stats.submitted, stats.inline, stats.failed), (1, 0, 1));
    assert_all_answered(&stats);
}

#[test]
fn an_expired_deadline_is_shed_inline_unscored() {
    let corpus = test_fixtures::corpus(8, 133);
    let model = ensemble(&corpus, 1);
    let graph = corpus.items[0].graph(model.featurization());
    let service = idle_service(model);
    let client = service.client();
    let expired = SubmitOptions {
        lane: Lane::Bulk,
        deadline: Some(Instant::now()),
    };
    assert_eq!(
        client.try_score_inline(&graph, expired),
        Some(Err(ServeError::DeadlineExceeded))
    );
    let stats = service.stats();
    assert_eq!((stats.bulk.submitted, stats.bulk.shed, stats.inline), (1, 1, 1));
    assert_eq!(stats.batches, 0, "a shed request is never scored");
    assert_all_answered(&stats);
}

#[test]
fn a_panicking_graph_answers_internal_and_the_engine_scores_on_bitwise() {
    let corpus = test_fixtures::corpus(24, 134);
    let model = ensemble(&corpus, 1);
    let good = corpus.items[0].graph(model.featurization());
    let other = corpus.items[1].graph(model.featurization());
    let direct = model.predict_graphs(&[&good, &other]);
    let service = idle_service(model);
    let client = service.client();
    // Edges past the node list panic inside plan construction.
    let mut bad_edges = good.clone();
    bad_edges.dataflow_edges.push((0, 9999));
    let opts = SubmitOptions::default();
    for round in 0..3 {
        assert_eq!(
            client.try_score_inline(&bad_edges, opts),
            Some(Err(ServeError::Internal)),
            "round {round}"
        );
        for (g, want) in [&good, &other].into_iter().zip(&direct) {
            let scored = client.try_score_inline(g, opts).expect("idle").expect("scored");
            assert!(
                scored.score == *want,
                "round {round}: the engine must survive the panic"
            );
        }
    }
    let stats = service.stats();
    assert_eq!((stats.completed, stats.failed, stats.inline), (6, 3, 9));
    assert_eq!(stats.batch_hist[0], 9, "a failed request was still a batch of one");
    assert_all_answered(&stats);
}
