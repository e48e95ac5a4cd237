//! The serving layer as the optimizer's scoring backend: a placement
//! search driven through [`ServeScorer`] must return *bitwise* the same
//! result as the direct [`EnsembleScorer`] path — for any worker count
//! and with many tenants searching concurrently — and the optimizer-as-
//! client path must be able to observe plan-cache effectiveness through
//! the service's `ServeStats`.

use costream::prelude::*;
use costream::search::SearchProblem;
use costream::test_fixtures;
use costream_serve::{ScoringService, ServeConfig, ServeScorer};

fn trio() -> (Ensemble, Ensemble, Ensemble) {
    let corpus = test_fixtures::corpus(100, 21);
    let fx = test_fixtures::trio(&corpus, 5, 2);
    (fx.target, fx.success, fx.backpressure)
}

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

fn assert_same_result(a: &OptimizationResult, b: &OptimizationResult, ctx: &str) {
    assert_eq!(a.best.assignment(), b.best.assignment(), "{ctx}: best placement");
    assert_eq!(a.initial.assignment(), b.initial.assignment(), "{ctx}: initial");
    assert_eq!(a.all_filtered, b.all_filtered, "{ctx}: filter outcome");
    assert_eq!(a.candidates.len(), b.candidates.len(), "{ctx}: candidate count");
    for (i, (x, y)) in a.candidates.iter().zip(&b.candidates).enumerate() {
        assert_eq!(
            x.placement.assignment(),
            y.placement.assignment(),
            "{ctx}: candidate {i}"
        );
        assert_eq!(
            x.predicted_cost.to_bits(),
            y.predicted_cost.to_bits(),
            "{ctx}: candidate {i} cost must be bitwise identical"
        );
        assert_eq!(x.predicted_success.to_bits(), y.predicted_success.to_bits(), "{ctx}");
        assert_eq!(
            x.predicted_backpressure.to_bits(),
            y.predicted_backpressure.to_bits(),
            "{ctx}"
        );
    }
}

/// Search through the service is bitwise identical to the direct path,
/// independent of the worker count: the explicit 1-vs-4 `workers` loop
/// below.
#[test]
fn serve_backed_search_matches_direct_search_bitwise() {
    let (t, s, b) = trio();
    let direct = EnsembleScorer::new(&t, &s, &b);

    let (q, c, sels) = test_fixtures::workload(22, 5);
    let problem = SearchProblem {
        query: &q,
        cluster: &c,
        est_sels: &sels,
        featurization: Featurization::Full,
    };

    for strategy in [&RandomEnumeration as &dyn PlacementSearch, &BeamSearch, &LocalSearch] {
        let want = strategy.search(&problem, &direct, 20, 4);
        for workers in [1usize, 4] {
            let [st, ss, sb] = services(&t, &s, &b, workers);
            let scorer = ServeScorer::new(&st, &ss, &sb);
            let got = strategy.search(&problem, &scorer, 20, 4);
            assert_same_result(&want, &got, &format!("{} workers={workers}", strategy.name()));
        }
    }
}

/// Concurrent tenants (the multi-tenant "millions of users" shape):
/// several threads search different queries through the same three
/// services at once; each must get exactly the single-tenant answer, and
/// the coalescing must show up in the service counters.
#[test]
fn concurrent_tenant_searches_are_isolated_and_coalesce() {
    let (t, s, b) = trio();
    let direct = EnsembleScorer::new(&t, &s, &b);
    let [st, ss, sb] = services(&t, &s, &b, 2);

    let tenants: Vec<_> = (0..4u64)
        .map(|i| {
            let (q, c, sels) = test_fixtures::workload(30 + i, 4);
            (q, c, sels, 50 + i)
        })
        .collect();

    // Single-tenant ground truth through the direct scorer.
    let expected: Vec<OptimizationResult> = tenants
        .iter()
        .map(|(q, c, sels, seed)| {
            let problem = SearchProblem {
                query: q,
                cluster: c,
                est_sels: sels,
                featurization: Featurization::Full,
            };
            LocalSearch.search(&problem, &direct, 16, *seed)
        })
        .collect();

    let scorer = ServeScorer::new(&st, &ss, &sb);
    let results: Vec<OptimizationResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|(q, c, sels, seed)| {
                let scorer = scorer.clone();
                scope.spawn(move || {
                    let problem = SearchProblem {
                        query: q,
                        cluster: c,
                        est_sels: sels,
                        featurization: Featurization::Full,
                    };
                    LocalSearch.search(&problem, &scorer, 16, *seed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });

    for (i, (want, got)) in expected.iter().zip(&results).enumerate() {
        assert_same_result(want, got, &format!("tenant {i}"));
    }
    let stats = st.stats();
    assert!(stats.completed >= 4 * 16, "all tenant candidates served");
    assert!(
        stats.mean_batch() > 1.0,
        "concurrent tenant batches should coalesce (mean batch {})",
        stats.mean_batch()
    );
}

/// The plan-cache counters of `ServeStats`: recurring candidate
/// topologies from an optimizer client must show up as plan-cache hits.
#[test]
fn optimizer_client_observes_plan_cache_effectiveness() {
    let (t, s, b) = trio();
    let [st, ss, sb] = services(&t, &s, &b, 1);
    let scorer = ServeScorer::new(&st, &ss, &sb);

    let (q, c, sels) = test_fixtures::workload(24, 4);
    let problem = SearchProblem {
        query: &q,
        cluster: &c,
        est_sels: &sels,
        featurization: Featurization::Full,
    };

    let first = LocalSearch.search(&problem, &scorer, 16, 8);
    let after_first = st.stats();
    assert!(
        after_first.plan_cache_hits + after_first.plan_cache_misses > 0,
        "search must go through the plan cache"
    );

    // Second identical search: every candidate topology was seen before,
    // so the target service answers from cached topologies only.
    let second = LocalSearch.search(&problem, &scorer, 16, 8);
    let after_second = st.stats();
    assert_eq!(first.best.assignment(), second.best.assignment());
    assert_eq!(
        after_second.plan_cache_misses, after_first.plan_cache_misses,
        "a repeated search must not build any new plan topology"
    );
    assert!(
        after_second.plan_cache_hits >= after_first.plan_cache_hits + 16,
        "repeated candidates must hit the cache ({} -> {})",
        after_first.plan_cache_hits,
        after_second.plan_cache_hits
    );
    assert!(after_second.plan_cache_hit_rate() > 0.0);
}
