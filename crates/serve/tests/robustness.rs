//! Robustness tests for the serving layer: worker respawn, graceful
//! drain, priority lanes, deadline shedding, and versioned hot model
//! swap.

use costream::prelude::*;
use costream::test_fixtures;
use costream_serve::{Lane, Pending, ScoringService, ServeConfig, ServeError, SubmitOptions, SwapError};
use std::time::{Duration, Instant};

fn corpus(seed: u64) -> Corpus {
    test_fixtures::corpus(24, seed)
}

fn quick_cfg(train_seed: u64) -> TrainConfig {
    // `Ensemble::train` derives each member's weight-init seed from the
    // TrainConfig seed, so varying it yields different weights under the
    // same (plan-congruent) architecture.
    TrainConfig {
        epochs: 2,
        batch_size: 16,
        seed: train_seed,
        ..Default::default()
    }
}

fn quick_ensemble(corpus: &Corpus, train_seed: u64) -> Ensemble {
    Ensemble::train(corpus, CostMetric::Throughput, &quick_cfg(train_seed), 1)
}

#[test]
fn worker_panic_is_respawned_and_throughput_recovers() {
    let corpus = corpus(90);
    let ensemble = quick_ensemble(&corpus, 0);
    let graph = corpus.items[0].graph(ensemble.featurization());
    let cfg = ServeConfig {
        workers: 1, // One worker: a dead worker means zero capacity.
        ..ServeConfig::default()
    };
    let service = ScoringService::start(ensemble, cfg);
    let client = service.client();
    assert!(client.score(graph.clone()).is_ok());

    service.inject_worker_panic();
    // Throughput must recover: with the sole worker killed mid-loop,
    // every one of these would hang (or fail) without the respawn.
    for _ in 0..10 {
        assert!(client.score(graph.clone()).is_ok(), "respawned worker must serve");
    }
    let stats = service.stats();
    assert_eq!(stats.worker_respawns, 1, "exactly one injected panic");
    assert_eq!(stats.completed, 11);
    assert_eq!(stats.failed, 0, "no request may be lost to the panic");
}

#[test]
fn shutdown_drain_completes_queued_work_first() {
    let corpus = corpus(91);
    let ensemble = quick_ensemble(&corpus, 0);
    let graphs: Vec<JointGraph> = corpus
        .items
        .iter()
        .take(8)
        .map(|i| i.graph(ensemble.featurization()))
        .collect();
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let mut service = ScoringService::start(ensemble, cfg);
    let client = service.client();
    let pendings: Vec<_> = graphs
        .iter()
        .map(|g| client.submit(g.clone()).expect("queue has room"))
        .collect();

    let outcome = service.shutdown_drain(Duration::from_secs(30));
    assert!(outcome.drained, "a generous deadline must drain everything");
    assert_eq!(outcome.abandoned, 0);
    for p in pendings {
        assert!(p.wait().is_ok(), "queued work must be completed, not failed");
    }
    // Admission is closed after (and during) a drain.
    assert_eq!(client.score(graphs[0].clone()).err(), Some(ServeError::ShutDown));
}

#[test]
fn shutdown_drain_deadline_abandons_what_cannot_finish() {
    let corpus = corpus(92);
    let ensemble = quick_ensemble(&corpus, 0);
    let graph = corpus.items[0].graph(ensemble.featurization());
    // No workers: nothing can drain, so the deadline path is
    // deterministic.
    let cfg = ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    };
    let mut service = ScoringService::start(ensemble, cfg);
    let client = service.client();
    let pendings: Vec<_> = (0..3).map(|_| client.submit(graph.clone()).expect("fits")).collect();
    let outcome = service.shutdown_drain(Duration::from_millis(20));
    assert!(!outcome.drained);
    assert_eq!(outcome.abandoned, 3);
    for p in pendings {
        assert_eq!(p.wait(), Err(ServeError::ShutDown));
    }
}

#[test]
fn lanes_have_independent_admission_budgets() {
    let corpus = corpus(93);
    let ensemble = quick_ensemble(&corpus, 0);
    let graph = corpus.items[0].graph(ensemble.featurization());
    let cfg = ServeConfig {
        workers: 0, // Nothing drains: queue occupancy is deterministic.
        queue_cap: 1,
        bulk_queue_cap: 2,
        ..ServeConfig::default()
    };
    let service = ScoringService::start(ensemble, cfg);
    let client = service.client();
    let bulk = SubmitOptions {
        lane: Lane::Bulk,
        deadline: None,
    };

    // Interactive budget: 1.
    let _p1 = client.submit(graph.clone()).expect("interactive fits");
    assert_eq!(client.submit(graph.clone()).err(), Some(ServeError::Overloaded));
    // A full interactive lane must not consume bulk budget (2)...
    let _b1 = client.submit_with(graph.clone(), bulk).expect("bulk fits");
    let _b2 = client.submit_with(graph.clone(), bulk).expect("bulk fits");
    // ...and a full bulk lane rejects bulk only.
    assert_eq!(
        client.submit_with(graph.clone(), bulk).err(),
        Some(ServeError::Overloaded)
    );

    let stats = service.stats();
    assert_eq!((stats.interactive.submitted, stats.interactive.rejected), (1, 1));
    assert_eq!((stats.bulk.submitted, stats.bulk.rejected), (2, 1));
}

#[test]
fn expired_requests_are_shed_with_typed_error() {
    let corpus = corpus(94);
    let ensemble = quick_ensemble(&corpus, 0);
    let graph = corpus.items[0].graph(ensemble.featurization());
    let service = ScoringService::start(
        ensemble,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let client = service.client();

    // A deadline already reached at submission: the worker must shed the
    // request instead of scoring it.
    let expired = SubmitOptions {
        lane: Lane::Bulk,
        deadline: Some(Instant::now()),
    };
    assert_eq!(
        client
            .submit_with(graph.clone(), expired)
            .and_then(Pending::wait_scored)
            .err(),
        Some(ServeError::DeadlineExceeded)
    );
    // A generous deadline scores normally, version-tagged.
    let live = SubmitOptions {
        lane: Lane::Interactive,
        deadline: Some(Instant::now() + Duration::from_secs(60)),
    };
    let scored = client
        .submit_with(graph.clone(), live)
        .and_then(Pending::wait_scored)
        .expect("not shed");
    assert_eq!(scored.version, 1);

    let stats = service.stats();
    assert_eq!(stats.bulk.shed, 1);
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.interactive.completed, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn hot_swap_is_atomic_versioned_and_bitwise() {
    let corpus = corpus(95);
    // Same architecture, different weight-init seeds: plan-congruent,
    // predictably different scores.
    let e1 = quick_ensemble(&corpus, 1);
    let e2 = quick_ensemble(&corpus, 2);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(e1.featurization())).collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct1 = e1.predict_graphs(&refs);
    let direct2 = e2.predict_graphs(&refs);
    assert_ne!(direct1, direct2, "fixture must distinguish the versions");

    let cfg = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let service = ScoringService::start(e1, cfg);
    assert_eq!(service.model_version(), 1);

    let n_clients = 4;
    let rounds = 6;
    std::thread::scope(|s| {
        for c in 0..n_clients {
            let client = service.client();
            let graphs = &graphs;
            let (direct1, direct2) = (&direct1, &direct2);
            s.spawn(move || {
                for step in 0..rounds * graphs.len() {
                    let i = (c * 5 + step) % graphs.len();
                    // Zero failed requests under concurrent load, and
                    // every response bitwise-matches exactly one of the
                    // two versions — the no-torn-reads contract.
                    let scored = client
                        .submit(graphs[i].clone())
                        .and_then(Pending::wait_scored)
                        .expect("swap must not fail requests");
                    match scored.version {
                        1 => assert!(scored.score == direct1[i], "v1 response must be bitwise v1"),
                        2 => assert!(scored.score == direct2[i], "v2 response must be bitwise v2"),
                        v => panic!("impossible model version {v}"),
                    }
                }
            });
        }
        // Let the clients get in flight, then swap mid-load.
        std::thread::sleep(Duration::from_millis(5));
        let version = service.swap_model(e2.clone()).expect("plan-congruent swap");
        assert_eq!(version, 2);
    });

    assert_eq!(service.model_version(), 2);
    let stats = service.stats();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.completed, (n_clients * rounds * graphs.len()) as u64);

    // After the swap, everything scores as v2, bitwise.
    let client = service.client();
    for (i, g) in graphs.iter().enumerate() {
        let scored = client.submit(g.clone()).and_then(Pending::wait_scored).expect("alive");
        assert_eq!(scored.version, 2);
        assert!(scored.score == direct2[i]);
    }
}

#[test]
fn incompatible_swaps_are_refused_typed() {
    let corpus = corpus(96);
    let e1 = quick_ensemble(&corpus, 1);
    let service = ScoringService::start(e1, ServeConfig::default());

    // Different metric.
    let other_metric = Ensemble::train(&corpus, CostMetric::E2eLatency, &quick_cfg(1), 1);
    assert_eq!(service.swap_model(other_metric).err(), Some(SwapError::MetricMismatch));

    // Different featurization (Exp 7a ablation config).
    let mut fx_cfg = quick_cfg(1);
    fx_cfg.featurization = Featurization::QueryOnly;
    let other_fx = Ensemble::train(&corpus, CostMetric::Throughput, &fx_cfg, 1);
    assert_eq!(
        service.swap_model(other_fx).err(),
        Some(SwapError::FeaturizationMismatch)
    );

    // Plan-incongruent architecture (different round count).
    let mut arch_cfg = quick_cfg(1);
    arch_cfg.model.scheme = Scheme::Traditional;
    let other_arch = Ensemble::train(&corpus, CostMetric::Throughput, &arch_cfg, 1);
    assert_eq!(service.swap_model(other_arch).err(), Some(SwapError::ConfigMismatch));

    // A refused swap leaves the served model untouched.
    assert_eq!(service.model_version(), 1);
    assert_eq!(service.stats().swaps, 0);
}

#[test]
fn pipelined_backlog_coalesces_without_a_timer() {
    let corpus = corpus(97);
    let ensemble = quick_ensemble(&corpus, 0);
    let graphs: Vec<JointGraph> = (0..256)
        .map(|i| corpus.items[i % corpus.items.len()].graph(ensemble.featurization()))
        .collect();
    let direct = ensemble.predict_graphs(&graphs.iter().collect::<Vec<_>>());
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let service = ScoringService::start(ensemble, cfg);
    let client = service.client();

    // One caller, 256 requests in flight before the first wait: nothing
    // holds a batch open, yet the sole worker cannot keep up with the
    // submit loop, so what queues behind each forward pass is scored
    // together.
    let pending: Vec<_> = graphs
        .iter()
        .map(|g| client.submit(g.clone()).expect("admitted"))
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        assert!(
            p.wait().expect("alive") == direct[i],
            "request {i} is not bitwise direct"
        );
    }

    let stats = service.stats();
    assert_eq!(stats.batched_graphs, 256);
    assert!(
        stats.batches < 256,
        "backlog must coalesce, got {} batches",
        stats.batches
    );
    assert_eq!(stats.batch_hist.iter().sum::<u64>(), stats.batches);
    // Bucket i holds batches of at least 2^i requests.
    let at_least: u64 = stats.batch_hist.iter().enumerate().map(|(i, n)| n << i).sum();
    assert!(at_least <= stats.batched_graphs);
}

#[test]
fn closed_loop_caller_is_scored_alone_every_time() {
    let corpus = corpus(98);
    let ensemble = quick_ensemble(&corpus, 0);
    let graph = corpus.items[0].graph(ensemble.featurization());
    let cfg = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let service = ScoringService::start(ensemble, cfg);
    let client = service.client();
    for _ in 0..200 {
        client.score(graph.clone()).expect("alive");
    }
    let stats = service.stats();
    assert_eq!(stats.batch_hist, [200, 0, 0, 0, 0, 0, 0]);
    assert_eq!((stats.batches, stats.batched_graphs), (200, 200));
}
