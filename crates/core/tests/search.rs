//! Integration tests of the placement-search subsystem: delta
//! re-featurization is pinned bitwise-equal to full featurization along
//! real search walks, and the neighborhood strategies beat (or match) the
//! random-enumeration baseline at an equal scoring budget.

use costream::prelude::*;
use costream::search::SearchProblem;
use costream::test_fixtures;
use costream_query::generator::WorkloadGenerator;
use costream_query::placement::neighborhood::Neighborhood;
use costream_query::placement::{colocate_on_strongest, sample_valid};
use costream_query::selectivity::SelectivityEstimator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_graph_bitwise_eq(a: &JointGraph, b: &JointGraph, ctx: &str) {
    assert_eq!(a.nodes.len(), b.nodes.len(), "{ctx}: node count");
    for (i, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
        assert_eq!(x.node_type, y.node_type, "{ctx}: node {i} type");
        assert_eq!(x.features, y.features, "{ctx}: node {i} features must match bitwise");
    }
    assert_eq!(a.dataflow_edges, b.dataflow_edges, "{ctx}: dataflow edges");
    assert_eq!(a.placement_edges, b.placement_edges, "{ctx}: placement edges");
    assert_eq!(a.waves, b.waves, "{ctx}: waves");
}

/// Golden: patching one graph along a chain of neighborhood moves stays
/// bitwise identical to rebuilding from scratch at every step — the
/// guarantee that lets search strategies featurize deltas only.
#[test]
fn delta_refeaturization_is_bitwise_equal_along_search_walks() {
    for seed in 0..6u64 {
        let mut g = WorkloadGenerator::new(100 + seed, FeatureRanges::training());
        let (q, c, _) = g.workload_item();
        let sels = SelectivityEstimator::realistic(200 + seed).estimate_query(&q);
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let mut p = sample_valid(&q, &c, &mut rng).unwrap_or_else(|| colocate_on_strongest(&q, &c));

        for fz in [Featurization::Full, Featurization::HardwareNodes] {
            let template = GraphTemplate::new(&q, &c, &sels, fz);
            let mut graph = template.instantiate(&p);
            assert_graph_bitwise_eq(&graph, &JointGraph::build(&q, &c, &p, &sels, fz), "instantiate");

            let nb = Neighborhood::new(&q, &c);
            let mut walk = p.clone();
            for step in 0..8 {
                let st = nb.visit_state(&walk);
                let neighbors = nb.neighbors(&walk, &st);
                let Some(mv) = neighbors.get(step % neighbors.len().max(1)) else {
                    break;
                };
                walk = mv.apply(&walk);
                template.patch(&mut graph, &walk);
                assert_graph_bitwise_eq(
                    &graph,
                    &JointGraph::build(&q, &c, &walk, &sels, fz),
                    &format!("patch step {step}"),
                );
            }
        }
        p = colocate_on_strongest(&q, &c);
        let template = GraphTemplate::new(&q, &c, &sels, Featurization::Full);
        assert_graph_bitwise_eq(
            &template.instantiate(&p),
            &JointGraph::build(&q, &c, &p, &sels, Featurization::Full),
            "colocated",
        );
    }
}

/// The acceptance criterion of the search subsystem: at an equal scoring
/// budget, the neighborhood strategies find a predicted cost no worse
/// than the random-enumeration baseline (everything is deterministic, so
/// this pins actual behavior, not luck).
#[test]
fn neighborhood_strategies_match_or_beat_random_at_equal_budget() {
    let corpus = test_fixtures::corpus(150, 61);
    let trio = test_fixtures::trio(&corpus, 8, 2);
    let scorer = trio.scorer();

    let budget = 48;
    let mut wins = 0usize;
    let mut queries = 0usize;
    for seed in 0..3u64 {
        let mut g = WorkloadGenerator::new(70 + seed, FeatureRanges::training());
        let q = g.query();
        let c = g.cluster(5);
        let sels = SelectivityEstimator::realistic(80 + seed).estimate_query(&q);
        let problem = SearchProblem {
            query: &q,
            cluster: &c,
            est_sels: &sels,
            featurization: Featurization::Full,
        };
        let random = RandomEnumeration.search(&problem, &scorer, budget, 7);
        let beam = BeamSearch.search(&problem, &scorer, budget, 7);
        let local = LocalSearch.search(&problem, &scorer, budget, 7);

        let best_cost = |r: &OptimizationResult| r.best_evaluation().predicted_cost;
        let (rc, bc, lc) = (best_cost(&random), best_cost(&beam), best_cost(&local));
        assert!(random.candidates.len() <= budget);
        assert!(beam.candidates.len() <= budget);
        assert!(local.candidates.len() <= budget);
        queries += 1;
        // Per-query: neither neighborhood strategy may lose to the
        // baseline; at least one must strictly improve somewhere.
        assert!(bc <= rc, "query {seed}: beam {bc} worse than random {rc}");
        assert!(lc <= rc, "query {seed}: local {lc} worse than random {rc}");
        if bc < rc || lc < rc {
            wins += 1;
        }
    }
    assert!(queries > 0);
    assert!(
        wins > 0,
        "neighborhood search should strictly improve on random enumeration for at least one query"
    );
}

/// The simulated-annealing satellite: on a *wide* cluster (many
/// near-equivalent hosts per capability tier — the plateau landscape
/// hill climbing stalls on), annealing at the same scoring budget must
/// match or beat both the random baseline and greedy LocalSearch, and be
/// bitwise deterministic run to run.
#[test]
fn annealing_matches_or_beats_local_search_on_wide_cluster_at_equal_budget() {
    let corpus = test_fixtures::corpus(150, 61);
    let trio = test_fixtures::trio(&corpus, 8, 2);
    let scorer = trio.scorer();

    let (q, _small, sels) = test_fixtures::workload(86, 5);
    let wide = test_fixtures::wide_cluster(15);
    let problem = SearchProblem {
        query: &q,
        cluster: &wide,
        est_sels: &sels,
        featurization: Featurization::Full,
    };

    let budget = 48;
    let best = |r: &OptimizationResult| r.best_evaluation().predicted_cost;
    for seed in [3u64, 7, 11] {
        let random = RandomEnumeration.search(&problem, &scorer, budget, seed);
        let local = LocalSearch.search(&problem, &scorer, budget, seed);
        let anneal = SimulatedAnnealing.search(&problem, &scorer, budget, seed);
        assert!(anneal.candidates.len() <= budget);

        let (rc, lc, ac) = (best(&random), best(&local), best(&anneal));
        assert!(ac <= rc, "seed {seed}: anneal {ac} worse than random baseline {rc}");
        assert!(
            ac <= lc,
            "seed {seed}: anneal {ac} worse than greedy local search {lc} on the plateau fixture"
        );

        // Determinism: the annealing chain (including its Metropolis
        // coin flips) is a pure function of (inputs, seed).
        let again = SimulatedAnnealing.search(&problem, &scorer, budget, seed);
        assert_eq!(anneal.best.assignment(), again.best.assignment());
        assert_eq!(anneal.candidates.len(), again.candidates.len());
        for (x, y) in anneal.candidates.iter().zip(&again.candidates) {
            assert_eq!(x.placement.assignment(), y.placement.assignment());
            assert_eq!(x.predicted_cost.to_bits(), y.predicted_cost.to_bits());
        }
    }
}
