//! Wide-cluster search: every strategy repeats itself bit for bit at
//! narrow (8-host) and wide (256-host) fixtures, single-query and joint,
//! carries sane [`SearchStats`], decides on the caller's thread — and a
//! beam round enumerates only the neighbourhoods its budget can use.
//! *What* the strategies score is pinned against the pre-class enumeration
//! in `search_digest.rs`; this file holds the properties that need no
//! recorded value.

use costream::prelude::*;
use costream::search::{SearchProblem, SearchStats};
use costream::test_fixtures;
use proptest::prelude::*;
use std::sync::LazyLock;

static TRIO: LazyLock<test_fixtures::Trio> = LazyLock::new(|| {
    let corpus = test_fixtures::corpus(80, 71);
    test_fixtures::trio(&corpus, 3, 2)
});

fn assert_results_bitwise_eq(a: &OptimizationResult, b: &OptimizationResult, ctx: &str) {
    assert_eq!(a.best.assignment(), b.best.assignment(), "{ctx}: best");
    assert_eq!(a.initial.assignment(), b.initial.assignment(), "{ctx}: initial");
    assert_eq!(a.all_filtered, b.all_filtered, "{ctx}: filter verdict");
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
            "{ctx}: candidate {i} cost bits"
        );
        assert_eq!(
            x.predicted_success.to_bits(),
            y.predicted_success.to_bits(),
            "{ctx}: candidate {i}"
        );
        assert_eq!(
            x.predicted_backpressure.to_bits(),
            y.predicted_backpressure.to_bits(),
            "{ctx}: candidate {i}"
        );
    }
}

/// The counters any strategy run must produce: every scored candidate
/// accounted, wall time attributed, one thread.
fn assert_stats_sane(stats: &SearchStats, n_candidates: usize, ctx: &str) {
    assert_eq!(stats.candidates_scored, n_candidates as u64, "{ctx}: scored");
    assert_eq!(stats.threads, 1, "{ctx}: threads");
    assert!(stats.score_batches > 0, "{ctx}: batches");
    assert!(stats.max_batch <= stats.candidates_scored, "{ctx}: batch bound");
    assert!(stats.featurize_ns > 0, "{ctx}: featurize time");
    assert!(stats.score_ns > 0, "{ctx}: score time");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Single-query: two runs of every neighborhood strategy are bitwise
    /// identical on an 8-host and a 256-host cluster, moves included.
    #[test]
    fn search_repeats_bitwise_with_sane_stats(seed in 0u64..1_000) {
        let scorer = TRIO.scorer();
        let (q, narrow, sels) = test_fixtures::workload(300 + seed, 8);
        let wide = test_fixtures::wide_cluster(256);
        let strategies: [(&str, Box<dyn PlacementSearch>); 3] = [
            ("beam", Box::new(BeamSearch)),
            ("local", Box::new(LocalSearch)),
            ("anneal", Box::new(SimulatedAnnealing)),
        ];
        for (cluster, budget, label) in [(&narrow, 16usize, "8 hosts"), (&wide, 10, "256 hosts")] {
            let problem = SearchProblem {
                query: &q,
                cluster,
                est_sels: &sels,
                featurization: Featurization::Full,
            };
            for (name, strategy) in &strategies {
                let a = strategy.search(&problem, &scorer, budget, seed);
                let b = strategy.search(&problem, &scorer, budget, seed);
                assert_results_bitwise_eq(&a, &b, &format!("{name} @ {label}"));
                assert_stats_sane(&a.stats, a.candidates.len(), name);
                prop_assert!(a.stats.validity_checks() > 0, "{} @ {}: no moves checked", name, label);
                prop_assert!(a.stats.validity_ns > 0, "{} @ {}: no enumeration time", name, label);
                // Same walk => same move statistics.
                prop_assert_eq!(a.stats.moves_generated, b.stats.moves_generated);
                prop_assert_eq!(a.stats.moves_rejected, b.stats.moves_rejected);
            }
        }
    }

    /// Joint (multi-query, contention-aware): two runs of every strategy
    /// are bitwise identical on a 256-host cluster shared by three queries.
    #[test]
    fn joint_search_repeats_bitwise_with_sane_stats(seed in 0u64..1_000) {
        let scorer = TRIO.scorer();
        let (queries, _small, sels) = test_fixtures::multi_query_workload(500 + seed, 3, 4);
        let wide = test_fixtures::wide_cluster(256);
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &wide,
            featurization: Featurization::Full,
            interference: None,
        };
        let strategies: [(&str, Box<dyn JointPlacementSearch>); 3] = [
            ("beam", Box::new(BeamSearch)),
            ("local", Box::new(LocalSearch)),
            ("anneal", Box::new(SimulatedAnnealing)),
        ];
        for (name, strategy) in &strategies {
            let a = strategy.search_joint(&problem, &scorer, 8, seed);
            let b = strategy.search_joint(&problem, &scorer, 8, seed);
            assert_eq!(a.best.flattened(), b.best.flattened(), "{name}: best");
            assert_eq!(a.candidates.len(), b.candidates.len(), "{name}: candidate count");
            for (i, (x, y)) in a.candidates.iter().zip(&b.candidates).enumerate() {
                assert_eq!(x.placement.flattened(), y.placement.flattened(), "{name}: candidate {i}");
                for (sx, sy) in x.per_query.iter().zip(&y.per_query) {
                    assert_eq!(sx.cost.to_bits(), sy.cost.to_bits(), "{name}: candidate {i} cost bits");
                }
            }
            assert_stats_sane(&a.stats, a.candidates.len(), name);
            prop_assert!(a.stats.validity_checks() > 0, "{}: no moves checked", name);
            prop_assert_eq!(a.stats.moves_generated, b.stats.moves_generated);
            prop_assert_eq!(a.stats.moves_rejected, b.stats.moves_rejected);
        }
    }
}

/// Neighbourhoods a 256-host search enumerated, read off its counters: one
/// enumeration checks `n_ops × 255` relocations plus at most `n_ops² / 2`
/// swaps, so for a handful of enumerations the quotient is exact.
fn enumerations(stats: &SearchStats, n_ops: usize) -> u64 {
    assert!(
        n_ops < 100,
        "four enumerations' swaps must stay below one relocation sweep"
    );
    stats.validity_checks() / (n_ops as u64 * 255)
}

/// A default beam (width 4, expand 8, half the budget on seeds) at budget 16
/// has 8 candidates left after seeding: its first member fills the round, and
/// the other three neighbourhoods are never enumerated. At budget 64 the 32
/// left are exactly one whole round, and all four are. `search_digest.rs`
/// holds both streams to the values recorded without the early stop.
#[test]
fn beam_round_enumerates_only_what_its_budget_can_use() {
    let scorer = TRIO.scorer();
    let wide = test_fixtures::wide_cluster(256);

    let (q, _small, sels) = test_fixtures::workload(311, 8);
    let problem = SearchProblem {
        query: &q,
        cluster: &wide,
        est_sels: &sels,
        featurization: Featurization::Full,
    };
    for (budget, rounds) in [(16usize, 1u64), (64, 4)] {
        let r = BeamSearch.search(&problem, &scorer, budget, 23);
        assert_eq!(r.candidates.len(), budget, "single, budget {budget}: spent");
        assert_eq!(enumerations(&r.stats, q.len()), rounds, "single, budget {budget}");
    }

    let (queries, _small, sels) = test_fixtures::multi_query_workload(523, 3, 4);
    let jqs = JointQuery::zip(&queries, &sels);
    let joint = JointSearchProblem {
        queries: &jqs,
        cluster: &wide,
        featurization: Featurization::Full,
        interference: None,
    };
    let n_ops: usize = queries.iter().map(|q| q.len()).sum();
    for (budget, rounds) in [(16usize, 1u64), (64, 4)] {
        let r = BeamSearch.search_joint(&joint, &scorer, budget, 29);
        assert_eq!(r.candidates.len(), budget, "joint, budget {budget}: spent");
        assert_eq!(enumerations(&r.stats, n_ops), rounds, "joint, budget {budget}");
    }
}

/// The baseline strategy threads its stats too (no neighborhood, so no
/// validity counters — but scoring is fully accounted), and stays
/// deterministic run to run at 256 hosts.
#[test]
fn random_enumeration_carries_stats_and_stays_deterministic_at_256_hosts() {
    let scorer = TRIO.scorer();
    let (q, _small, sels) = test_fixtures::workload(42, 4);
    let wide = test_fixtures::wide_cluster(256);
    let problem = SearchProblem {
        query: &q,
        cluster: &wide,
        est_sels: &sels,
        featurization: Featurization::Full,
    };
    let a = RandomEnumeration.search(&problem, &scorer, 10, 5);
    let b = RandomEnumeration.search(&problem, &scorer, 10, 5);
    assert_results_bitwise_eq(&a, &b, "random @ 256 hosts");
    assert_stats_sane(&a.stats, a.candidates.len(), "random");
}
