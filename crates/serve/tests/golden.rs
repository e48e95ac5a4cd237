//! Golden equivalence and behaviour tests for the serving layer.
//!
//! The load-bearing guarantee: scores coming out of the batching service
//! are **bitwise identical** to `Ensemble::predict_graphs` on the same
//! graphs — regardless of how requests get coalesced, for one client or
//! many, for both message-passing schemes. Everything else (admission
//! control, plan-cache accounting, shutdown semantics) is behavioural.

use costream::prelude::*;
use costream::test_fixtures;
use costream_serve::{ScoringService, ServeConfig, ServeError};
use std::sync::Arc;

fn corpus(seed: u64) -> Corpus {
    test_fixtures::corpus(24, seed)
}

fn quick_ensemble(corpus: &Corpus, scheme: Scheme, k: usize) -> Ensemble {
    let mut cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..Default::default()
    };
    cfg.model.scheme = scheme;
    Ensemble::train(corpus, CostMetric::Throughput, &cfg, k)
}

/// Config used by the tests: four workers, more than most runners have
/// cores, so the multi-worker batching paths run on any machine.
fn test_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    }
}

fn scheme_graphs(corpus: &Corpus, ensemble: &Ensemble) -> Vec<JointGraph> {
    corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect()
}

#[test]
fn single_client_matches_direct_bitwise_both_schemes() {
    let corpus = corpus(70);
    for scheme in [Scheme::Costream, Scheme::Traditional] {
        let ensemble = quick_ensemble(&corpus, scheme, 2);
        let graphs = scheme_graphs(&corpus, &ensemble);
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        let direct = ensemble.predict_graphs(&refs);

        let service = ScoringService::start(ensemble, test_config());
        let client = service.client();
        for (i, g) in graphs.iter().enumerate() {
            let served = client.score(g.clone()).expect("service alive");
            assert!(
                served == direct[i],
                "{scheme:?} graph {i}: served {served} != direct {}",
                direct[i]
            );
        }
        let stats = service.stats();
        assert_eq!(stats.completed, graphs.len() as u64);
        assert_eq!(stats.rejected, 0);
    }
}

#[test]
fn many_concurrent_clients_match_direct_bitwise_both_schemes() {
    let corpus = corpus(71);
    for scheme in [Scheme::Costream, Scheme::Traditional] {
        let ensemble = quick_ensemble(&corpus, scheme, 2);
        let graphs = scheme_graphs(&corpus, &ensemble);
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        let direct = ensemble.predict_graphs(&refs);

        let service = ScoringService::start(ensemble, test_config());
        let n_clients = 8;
        std::thread::scope(|s| {
            for c in 0..n_clients {
                let client = service.client();
                let graphs = &graphs;
                let direct = &direct;
                s.spawn(move || {
                    // Each client walks the pool from a different offset,
                    // so coalesced batches mix arbitrary graph subsets.
                    for step in 0..graphs.len() {
                        let i = (c * 3 + step) % graphs.len();
                        let served = client.score(graphs[i].clone()).expect("service alive");
                        assert!(
                            served == direct[i],
                            "{scheme:?} client {c} graph {i}: served {served} != direct {}",
                            direct[i]
                        );
                    }
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.completed, (n_clients * graphs.len()) as u64);
        assert!(stats.batches <= stats.completed);
    }
}

#[test]
fn placement_requests_match_prefeaturized_graphs() {
    let corpus = corpus(72);
    let ensemble = quick_ensemble(&corpus, Scheme::Costream, 2);
    let service = ScoringService::start(ensemble, test_config());
    let client = service.client();
    for item in corpus.items.iter().take(5) {
        let via_graph = client.score(item.graph(client.featurization())).expect("service alive");
        let placed = JointGraph::build(
            &item.query,
            &item.cluster,
            &item.placement,
            &item.est_sels,
            client.featurization(),
        );
        let via_placement = client.score(placed.clone()).expect("service alive");
        let via_request = client.score(Arc::new(placed)).expect("service alive");
        assert!(via_graph == via_placement);
        assert!(via_graph == via_request);
    }
}

#[test]
fn plan_cache_hits_on_recurring_shapes_and_is_shared() {
    let corpus = corpus(73);
    let ensemble = quick_ensemble(&corpus, Scheme::Costream, 2);
    let graph = corpus.items[0].graph(ensemble.featurization());
    let service = ScoringService::start(ensemble, test_config());
    let client = service.client();

    let first = client.score(graph.clone()).expect("service alive");
    let stats = service.stats();
    assert_eq!(stats.plan_cache_hits, 0, "first shape must be a miss");
    assert_eq!(stats.plan_cache_misses, 1);

    // Same shape again (sequential client → same singleton batch shape):
    // topology construction must be skipped, and the served score must
    // be bit-identical to the freshly-built-plan score.
    for _ in 0..3 {
        let again = client.score(graph.clone()).expect("service alive");
        assert!(again == first, "cached-plan score must equal fresh-plan score");
    }
    let stats = service.stats();
    assert_eq!(stats.plan_cache_hits, 3);
    assert_eq!(stats.plan_cache_misses, 1);
    assert!((stats.plan_cache_hit_rate() - 0.75).abs() < 1e-12);
}

/// The plan cache counts per graph shape, not per batch composition: k
/// distinct shapes submitted twice in one pipelined burst are k misses and
/// k hits however the worker happens to batch them (repeats in one batch
/// share the fragment built for the first), and every score is bitwise.
#[test]
fn distinct_shapes_pipelined_twice_miss_once_and_hit_once_each() {
    let corpus = corpus(77);
    let ensemble = quick_ensemble(&corpus, Scheme::Costream, 2);
    let (scheme, rounds) = (Scheme::Costream, ensemble.model_config().traditional_rounds);
    let mut seen = std::collections::HashSet::new();
    let graphs: Vec<JointGraph> = scheme_graphs(&corpus, &ensemble)
        .into_iter()
        .filter(|g| seen.insert(plan_signature(&[g], scheme, rounds)))
        .collect();
    let k = graphs.len();
    assert!(k > 1, "the corpus must hold several shapes");
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = ensemble.predict_graphs(&refs);

    // One worker: two workers planning one new shape at once may both
    // build it (counted twice), which is not what this test is about.
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let service = ScoringService::start(ensemble, cfg);
    let client = service.client();
    let pending: Vec<_> = graphs
        .iter()
        .chain(&graphs)
        .map(|g| client.submit(g.clone()).expect("fits"))
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        assert!(p.wait() == Ok(direct[i % k]), "request {i}");
    }
    let stats = service.stats();
    assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (k as u64, k as u64));
}

#[test]
fn overload_rejects_instead_of_queueing_unboundedly() {
    let corpus = corpus(74);
    let ensemble = quick_ensemble(&corpus, Scheme::Costream, 1);
    let graph = corpus.items[0].graph(ensemble.featurization());
    // No workers: nothing drains, so the queue bound is observable
    // deterministically.
    let cfg = ServeConfig {
        workers: 0,
        queue_cap: 2,
        ..ServeConfig::default()
    };
    let service = ScoringService::start(ensemble, cfg);
    let client = service.client();
    let p1 = client.submit(graph.clone()).expect("first fits");
    let p2 = client.submit(graph.clone()).expect("second fits");
    assert_eq!(client.submit(graph.clone()).err(), Some(ServeError::Overloaded));
    let stats = service.stats();
    assert_eq!((stats.submitted, stats.rejected), (2, 1));

    // Shutdown fails the still-queued requests instead of hanging them.
    drop(service);
    assert_eq!(p1.wait(), Err(ServeError::ShutDown));
    assert_eq!(p2.wait(), Err(ServeError::ShutDown));
}

#[test]
fn malformed_graphs_fail_individually_without_killing_the_worker() {
    let corpus = corpus(76);
    let ensemble = quick_ensemble(&corpus, Scheme::Costream, 1);
    let good = corpus.items[0].graph(ensemble.featurization());
    let other = corpus.items[1].graph(ensemble.featurization());
    let direct = ensemble.predict_graphs(&[&good, &other]);
    let service = ScoringService::start(ensemble, test_config());
    let client = service.client();

    // JointGraph fields are public, so a client *can* hand the service a
    // graph whose edges point past its node list. Scoring it panics
    // inside plan construction; the unwind guard must fail the request
    // and keep the worker alive.
    let mut bad_edges = good.clone();
    bad_edges.dataflow_edges.push((0, 9999));
    assert_eq!(client.score(bad_edges.clone()).err(), Some(ServeError::Internal));
    assert!(client.score(good.clone()).is_ok(), "worker must survive the panic");

    // Shapes no longer split a batch: a malformed graph of another shape,
    // pipelined between good ones, may share their fused pass. The
    // fallback still fails only the offender.
    let p_good = client.submit(good.clone()).expect("fits");
    let p_bad = client.submit(bad_edges).expect("fits");
    let p_other = client.submit(other.clone()).expect("fits");
    assert!(p_good.wait() == Ok(direct[0]));
    assert_eq!(p_bad.wait(), Err(ServeError::Internal));
    assert!(p_other.wait() == Ok(direct[1]));

    // A wrong-width feature vector shares the good graph's *structural*
    // signature, so the two may share a fused pass. The
    // panic fallback rescores individually: the valid request still gets
    // its (bitwise-correct) score, only the malformed one fails.
    let mut bad_features = good.clone();
    bad_features.nodes[0].features.pop();
    let p_good = client.submit(good.clone()).expect("fits");
    let p_bad = client.submit(bad_features).expect("fits");
    assert!(p_good.wait() == Ok(direct[0]));
    assert_eq!(p_bad.wait(), Err(ServeError::Internal));
}

#[test]
fn clients_outliving_the_service_get_shut_down_errors() {
    let corpus = corpus(75);
    let ensemble = quick_ensemble(&corpus, Scheme::Costream, 1);
    let graph = corpus.items[0].graph(ensemble.featurization());
    let service = ScoringService::start(ensemble, test_config());
    let client = service.client();
    assert!(client.score(graph.clone()).is_ok());
    drop(service);
    assert_eq!(client.score(graph).err(), Some(ServeError::ShutDown));
}
