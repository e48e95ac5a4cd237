//! Joint (multi-query) search through the serving layer: a
//! contention-aware joint search driven through [`ServeScorer`] must be
//! **bitwise** identical to the direct [`EnsembleScorer`] path — for any
//! worker count and with several tenants jointly optimizing different
//! query sets concurrently. The kernels' row-stability (per-row results
//! independent of batch composition) is what makes exact equality the
//! right assertion.

use costream::prelude::*;
use costream::test_fixtures;
use costream_query::joint::JointPlacement;
use costream_serve::{ScoringService, ServeConfig, ServeScorer};

fn services(t: &Ensemble, s: &Ensemble, b: &Ensemble, workers: usize) -> [ScoringService; 3] {
    let cfg = ServeConfig {
        workers,
        ..Default::default()
    };
    [
        ScoringService::start(t.clone(), cfg.clone()),
        ScoringService::start(s.clone(), cfg.clone()),
        ScoringService::start(b.clone(), cfg),
    ]
}

fn assert_same_joint_result(a: &JointOptimizationResult, b: &JointOptimizationResult, ctx: &str) {
    assert_eq!(a.best, b.best, "{ctx}: best joint placement");
    assert_eq!(a.initial, b.initial, "{ctx}: initial");
    assert_eq!(a.all_filtered, b.all_filtered, "{ctx}: filter outcome");
    assert_eq!(a.candidates.len(), b.candidates.len(), "{ctx}: candidate count");
    for (i, (x, y)) in a.candidates.iter().zip(&b.candidates).enumerate() {
        assert_eq!(x.placement, y.placement, "{ctx}: candidate {i}");
        assert_eq!(x.per_query.len(), y.per_query.len(), "{ctx}: candidate {i}");
        for (q, (sx, sy)) in x.per_query.iter().zip(&y.per_query).enumerate() {
            assert_eq!(
                sx.cost.to_bits(),
                sy.cost.to_bits(),
                "{ctx}: candidate {i} query {q} cost must be bitwise identical"
            );
            assert_eq!(
                sx.success.to_bits(),
                sy.success.to_bits(),
                "{ctx}: candidate {i} query {q}"
            );
            assert_eq!(
                sx.backpressure.to_bits(),
                sy.backpressure.to_bits(),
                "{ctx}: candidate {i} query {q}"
            );
        }
    }
}

/// Joint search through the service is bitwise identical to the direct
/// path, for every strategy and independent of the worker count.
#[test]
fn serve_backed_joint_search_matches_direct_bitwise() {
    let corpus = test_fixtures::corpus(100, 121);
    let trio = test_fixtures::trio(&corpus, 5, 2);
    let direct = trio.scorer();

    let (queries, cluster, sels) = test_fixtures::multi_query_workload(122, 2, 4);
    let jqs = JointQuery::zip(&queries, &sels);
    let problem = JointSearchProblem {
        queries: &jqs,
        cluster: &cluster,
        featurization: Featurization::Full,
        interference: None,
    };

    for strategy in [
        &RandomEnumeration as &dyn JointPlacementSearch,
        &BeamSearch,
        &LocalSearch,
        &SimulatedAnnealing,
    ] {
        let want = strategy.search_joint(&problem, &direct, 10, 4);
        for workers in [1usize, 4] {
            let [st, ss, sb] = services(&trio.target, &trio.success, &trio.backpressure, workers);
            let scorer = ServeScorer::new(&st, &ss, &sb);
            let got = strategy.search_joint(&problem, &scorer, 10, 4);
            assert_same_joint_result(&want, &got, &format!("{} workers={workers}", strategy.name()));
        }
    }
}

/// The same serve-vs-direct bitwise guarantee with the **learned
/// interference model** pricing contended hosts: the model only changes
/// host feature rows (never the scoring path), so a serve-backed joint
/// search under pinned learned coefficients must still match the
/// direct path bitwise at every worker count.
#[test]
fn serve_backed_joint_search_matches_direct_under_learned_model() {
    let corpus = test_fixtures::corpus(100, 121);
    let trio = test_fixtures::trio(&corpus, 5, 2);
    let direct = trio.scorer();

    // Pinned non-zero coefficients: deterministic, and every contended
    // row is guaranteed to be re-priced by the learned path.
    let model = InterferenceModel::from_weights(vec![0.05; INTERFERENCE_DIM]);
    let (queries, cluster, sels) = test_fixtures::multi_query_workload(122, 2, 4);
    let jqs = JointQuery::zip(&queries, &sels);
    let problem = JointSearchProblem {
        queries: &jqs,
        cluster: &cluster,
        featurization: Featurization::Full,
        interference: Some(&model),
    };

    for strategy in [
        &RandomEnumeration as &dyn JointPlacementSearch,
        &LocalSearch as &dyn JointPlacementSearch,
    ] {
        let want = strategy.search_joint(&problem, &direct, 10, 4);
        for workers in [1usize, 4] {
            let [st, ss, sb] = services(&trio.target, &trio.success, &trio.backpressure, workers);
            let scorer = ServeScorer::new(&st, &ss, &sb);
            let got = strategy.search_joint(&problem, &scorer, 10, 4);
            assert_same_joint_result(&want, &got, &format!("learned {} workers={workers}", strategy.name()));
        }
    }
}

/// Four tenants jointly optimizing *different* query sets through the
/// same three services concurrently: each must get exactly its
/// single-tenant answer, and their candidate batches must coalesce
/// inside the services.
#[test]
fn concurrent_joint_tenants_are_isolated_and_coalesce() {
    let corpus = test_fixtures::corpus(100, 123);
    let trio = test_fixtures::trio(&corpus, 5, 2);
    let direct = trio.scorer();
    let [st, ss, sb] = services(&trio.target, &trio.success, &trio.backpressure, 2);

    let tenants: Vec<_> = (0..4u64)
        .map(|i| {
            let (queries, cluster, sels) = test_fixtures::multi_query_workload(130 + i, 2, 4);
            (queries, cluster, sels, 50 + i)
        })
        .collect();

    let search = |scorer: &dyn Scorer,
                  queries: &[costream_query::Query],
                  cluster: &costream_query::Cluster,
                  sels: &[Vec<f64>],
                  seed: u64| {
        let jqs = JointQuery::zip(queries, sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        LocalSearch.search_joint(&problem, scorer, 12, seed)
    };

    let expected: Vec<JointOptimizationResult> = tenants
        .iter()
        .map(|(q, c, s, seed)| search(&direct, q, c, s, *seed))
        .collect();

    let scorer = ServeScorer::new(&st, &ss, &sb);
    let results: Vec<JointOptimizationResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|(q, c, s, seed)| {
                let scorer = scorer.clone();
                scope.spawn(move || search(&scorer, q, c, s, *seed))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });

    for (i, (want, got)) in expected.iter().zip(&results).enumerate() {
        assert_same_joint_result(want, got, &format!("tenant {i}"));
    }
    let stats = st.stats();
    // Each tenant scores 12 joint candidates x 2 queries against the
    // target service.
    assert!(stats.completed >= 4 * 12 * 2, "all tenant candidates served");
    assert!(
        stats.mean_batch() > 1.0,
        "concurrent joint tenant batches should coalesce (mean batch {})",
        stats.mean_batch()
    );
}

/// A joint placement whose queries share no host scores — through the
/// service — exactly like the same queries scored alone: the occupancy
/// snapshot only changes requests when there *is* contention, so
/// recurring uncontended topologies keep their cache identity.
#[test]
fn uncontended_joint_requests_match_single_query_serving() {
    let corpus = test_fixtures::corpus(80, 124);
    let trio = test_fixtures::trio(&corpus, 4, 2);
    let [st, ss, sb] = services(&trio.target, &trio.success, &trio.backpressure, 1);
    let scorer = ServeScorer::new(&st, &ss, &sb);

    let (queries, cluster, sels) = test_fixtures::multi_query_workload(125, 2, 4);
    let jqs = JointQuery::zip(&queries, &sels);
    let problem = JointSearchProblem {
        queries: &jqs,
        cluster: &cluster,
        featurization: Featurization::Full,
        interference: None,
    };
    let js = JointScorer::new(&problem, &scorer);
    let disjoint = JointPlacement::new(
        cluster.len(),
        vec![
            costream_query::Placement::new(vec![0; queries[0].len()]),
            costream_query::Placement::new(vec![1; queries[1].len()]),
        ],
    );
    let joint = js.evaluate(std::slice::from_ref(&disjoint));
    for (q, jq) in jqs.iter().enumerate() {
        let graph = JointGraph::build(jq.query, &cluster, disjoint.query(q), jq.est_sels, Featurization::Full);
        let single = scorer.score_batch(vec![graph]);
        assert_eq!(joint[0].per_query[q].cost.to_bits(), single[0].cost.to_bits());
        assert_eq!(joint[0].per_query[q].success.to_bits(), single[0].success.to_bits());
        assert_eq!(
            joint[0].per_query[q].backpressure.to_bits(),
            single[0].backpressure.to_bits()
        );
    }
}
