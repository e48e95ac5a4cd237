//! Integration tests of multi-query co-placement: the acceptance
//! criterion of the joint optimizer. At an *equal scoring budget* (a
//! joint candidate costs one graph prediction per query), the joint
//! search — warm-started with the combination of independent per-query
//! results — must find a contention-aware total predicted cost no worse
//! than that combination on every fixture, strictly better on at least
//! one, and be bitwise deterministic run to run.

use costream::prelude::*;
use costream::search::SearchProblem;
use costream::test_fixtures;
use costream_query::joint::JointPlacement;

struct Fixture {
    queries: Vec<costream_query::Query>,
    cluster: costream_query::Cluster,
    sels: Vec<Vec<f64>>,
}

/// Three fixed multi-query fixtures: small clusters shared by 2–3
/// queries, so co-residency (and therefore contention) is unavoidable.
fn fixtures() -> Vec<Fixture> {
    [(201u64, 2usize, 4usize), (202, 3, 5), (203, 2, 3)]
        .into_iter()
        .map(|(seed, n_queries, hosts)| {
            let (queries, cluster, sels) = test_fixtures::multi_query_workload(seed, n_queries, hosts);
            Fixture { queries, cluster, sels }
        })
        .collect()
}

fn joint_problem<'a>(fx: &'a Fixture, jqs: &'a [JointQuery<'a>]) -> JointSearchProblem<'a> {
    JointSearchProblem {
        queries: jqs,
        cluster: &fx.cluster,
        featurization: Featurization::Full,
        interference: None,
    }
}

fn joint_queries<'a>(fx: &'a Fixture) -> Vec<JointQuery<'a>> {
    JointQuery::zip(&fx.queries, &fx.sels)
}

/// Independent per-query searches at budget `budget` each, combined
/// into one joint placement (the deployment a contention-blind
/// optimizer would pick).
fn independent_combined(fx: &Fixture, scorer: &EnsembleScorer<'_>, budget: usize, seed: u64) -> JointPlacement {
    let placements = fx
        .queries
        .iter()
        .zip(&fx.sels)
        .map(|(q, sels)| {
            let problem = SearchProblem {
                query: q,
                cluster: &fx.cluster,
                est_sels: sels,
                featurization: Featurization::Full,
            };
            LocalSearch::default().search(&problem, scorer, budget, seed).best
        })
        .collect();
    JointPlacement::new(fx.cluster.len(), placements)
}

#[test]
fn joint_search_matches_or_beats_independent_at_equal_budget() {
    let corpus = test_fixtures::corpus(150, 61);
    let trio = test_fixtures::trio(&corpus, 8, 2);
    let scorer = trio.scorer();

    let budget = 16;
    let mut strict_wins = 0usize;
    for (i, fx) in fixtures().iter().enumerate() {
        let jqs = joint_queries(fx);
        let problem = joint_problem(fx, &jqs);
        let refs = problem.query_refs();

        // Independent: each query searched alone at `budget` candidates
        // (budget * n_queries graph predictions in total), then deployed
        // together. Its contention-aware total is what the combination
        // actually costs on the shared cluster.
        let combined = independent_combined(fx, &scorer, budget, 7);
        assert!(combined.is_valid(&refs, &fx.cluster));

        // Joint: the same total scoring work (budget joint candidates =
        // budget * n_queries graph predictions), warm-started with the
        // independent combination — scored first, so `candidates[0]` IS
        // the independent baseline's contention-aware evaluation.
        let r =
            LocalSearch::default().search_joint_seeded(&problem, &scorer, std::slice::from_ref(&combined), budget, 7);
        assert_eq!(r.initial, combined, "fixture {i}: seed must be scored first");
        assert!(r.candidates.len() <= budget, "fixture {i}: overspent");
        assert!(r.best.is_valid(&refs, &fx.cluster), "fixture {i}: invalid best");

        // The warm-start guarantee is on the viability-then-cost ranking
        // (a viable candidate beats any filtered one regardless of raw
        // total), so compare totals only within the same viability class
        // — a class upgrade is a strict win by itself.
        let seed_eval = &r.candidates[0];
        let best = r.best_evaluation();
        let independent_total = seed_eval.total_cost();
        let joint_total = best.total_cost();
        if best.all_viable() == seed_eval.all_viable() {
            assert!(
                joint_total <= independent_total,
                "fixture {i}: joint {joint_total} worse than independent {independent_total}"
            );
            if joint_total < independent_total {
                strict_wins += 1;
            }
        } else {
            assert!(
                best.all_viable(),
                "fixture {i}: the ranking can only ever upgrade viability over the seed"
            );
            strict_wins += 1;
        }
    }
    assert!(
        strict_wins >= 1,
        "joint co-placement should strictly improve on independent placement for at least one fixture"
    );
}

#[test]
fn joint_search_is_bitwise_deterministic_across_runs() {
    let corpus = test_fixtures::corpus(100, 62);
    let trio = test_fixtures::trio(&corpus, 5, 2);
    let scorer = trio.scorer();
    let fx = &fixtures()[0];
    let jqs = joint_queries(fx);
    let problem = joint_problem(fx, &jqs);

    for strategy in [
        &RandomEnumeration as &dyn JointPlacementSearch,
        &BeamSearch::default(),
        &LocalSearch::default(),
        &SimulatedAnnealing::default(),
    ] {
        let a = strategy.search_joint(&problem, &scorer, 12, 5);
        let b = strategy.search_joint(&problem, &scorer, 12, 5);
        assert_eq!(a.best, b.best, "{}: best placement", strategy.name());
        assert_eq!(a.candidates.len(), b.candidates.len(), "{}", strategy.name());
        for (x, y) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(x.placement, y.placement, "{}: candidate order", strategy.name());
            for (sx, sy) in x.per_query.iter().zip(&y.per_query) {
                assert_eq!(
                    sx.cost.to_bits(),
                    sy.cost.to_bits(),
                    "{}: per-query cost must be bitwise identical",
                    strategy.name()
                );
                assert_eq!(sx.success.to_bits(), sy.success.to_bits(), "{}", strategy.name());
                assert_eq!(
                    sx.backpressure.to_bits(),
                    sy.backpressure.to_bits(),
                    "{}",
                    strategy.name()
                );
            }
        }
    }
}

/// Degenerate inputs through every entry of the search core — the four
/// strategies as single-query and as joint searches, and `replan`: each
/// returns a defined result (at least one candidate, a valid best, no more
/// candidates than `budget.max(1)`) instead of panicking or spinning.
#[test]
fn degenerate_inputs_return_defined_results() {
    use costream_query::builder::QueryBuilder;
    use costream_query::datatypes::DataType;
    use costream_query::generator::WorkloadGenerator;
    use costream_query::selectivity::SelectivityEstimator;

    let corpus = test_fixtures::corpus(60, 63);
    let trio = test_fixtures::trio(&corpus, 2, 2);
    let scorer = trio.scorer();

    let mut g = WorkloadGenerator::new(64, FeatureRanges::training());
    let typical: Vec<_> = (0..2).map(|_| g.query()).collect();
    // The smallest query `Query::validate` admits: one source into the sink.
    let smallest = vec![QueryBuilder::new().source(500.0, &[DataType::Int]).sink()];
    let one_host = g.cluster(1);
    let four_hosts = g.cluster(4);

    // (label, queries, cluster, budget, seeds scored first by the joint runs)
    let cases = [
        ("one host", &typical, &one_host, 8usize, 0usize),
        ("budget 0", &typical, &four_hosts, 0, 0),
        ("smallest query", &smallest, &four_hosts, 8, 0),
        ("more seeds than budget", &typical, &four_hosts, 2, 5),
    ];
    for (label, queries, cluster, budget, n_seeds) in cases {
        let sels: Vec<Vec<f64>> = queries
            .iter()
            .map(|q| SelectivityEstimator::realistic(65).estimate_query(q))
            .collect();
        let jqs = JointQuery::zip(queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        let refs = problem.query_refs();
        let seeds: Vec<JointPlacement> = RandomEnumeration
            .search_joint(&problem, &scorer, n_seeds, 3)
            .candidates
            .into_iter()
            .take(n_seeds)
            .map(|c| c.placement)
            .collect();
        let cap = budget.max(1);

        let singles: [&dyn PlacementSearch; 4] = [
            &RandomEnumeration,
            &BeamSearch::default(),
            &LocalSearch::default(),
            &SimulatedAnnealing::default(),
        ];
        let joints: [&dyn JointPlacementSearch; 4] = [
            &RandomEnumeration,
            &BeamSearch::default(),
            &LocalSearch::default(),
            &SimulatedAnnealing::default(),
        ];
        for (single, joint) in singles.into_iter().zip(joints) {
            let ctx = format!("{label}: {}", joint.name());
            let one = SearchProblem {
                query: &queries[0],
                cluster,
                est_sels: &sels[0],
                featurization: Featurization::Full,
            };
            let s = single.search(&one, &scorer, budget, 9);
            assert!(
                (1..=cap).contains(&s.candidates.len()),
                "{ctx}: single scored {}",
                s.candidates.len()
            );
            assert!(s.best.is_valid(&queries[0], cluster), "{ctx}: single best invalid");
            assert!(
                s.candidates.iter().any(|c| c.placement == s.best),
                "{ctx}: single best unscored"
            );

            let j = joint.search_joint_seeded(&problem, &scorer, &seeds, budget, 9);
            assert!(
                (1..=cap).contains(&j.candidates.len()),
                "{ctx}: joint scored {}",
                j.candidates.len()
            );
            assert!(j.best.is_valid(&refs, cluster), "{ctx}: joint best invalid");
            assert!(
                j.candidates.iter().any(|c| c.placement == j.best),
                "{ctx}: joint best unscored"
            );
            if let Some(first) = seeds.first() {
                assert_eq!(&j.initial, first, "{ctx}: seeds are scored first");
            }
        }

        let incumbent = RandomEnumeration.search_joint(&problem, &scorer, 1, 5).best;
        let cfg = ReplanConfig {
            budget,
            ..ReplanConfig::default()
        };
        let o = replan(&problem, &scorer, &incumbent, &[], &cfg, 9).expect("every host is live");
        assert!(o.plan.is_valid(&refs, cluster), "{label}: replan plan invalid");
        assert_eq!(o.migrated, o.plan != incumbent, "{label}: replan migrated flag");
        if budget == 0 {
            assert_eq!(o.plan, incumbent, "{label}: a one-candidate replan stays put");
        }
    }
}
