//! Edge-cloud operator placement: the paper's headline use case (§V),
//! served the way a multi-tenant deployment would run it.
//!
//! Trains the three ensembles the optimizer needs (processing latency +
//! the query-success/backpressure sanity models), stands up one scoring
//! service per model, and drives placement *search* through the serving
//! layer: several tenants optimize their queries concurrently through
//! cloned [`ServeScorer`] handles, so their candidate batches coalesce
//! into fused batches and recurring candidate topologies hit the shared
//! plan cache. The headline IoT query is optimized with both the random-
//! enumeration baseline and hill-climbing local search at an equal
//! scoring budget, and the chosen placements are verified on the
//! simulator.
//!
//! Run with: `cargo run --release --example edge_cloud_placement`

use costream::prelude::*;
use costream::search::SearchProblem;
use costream_dsps::simulate;
use costream_query::datatypes::{DataType, TupleSchema};
use costream_query::generator::WorkloadGenerator;
use costream_query::hardware::{Cluster, Host};
use costream_query::operators::*;
use costream_query::selectivity::SelectivityEstimator;
use costream_serve::{ScoringService, ServeConfig, ServeScorer};

fn main() {
    // 1. Train the cost models (small scale for the example).
    println!("training cost models (latency, success, backpressure) ...");
    let corpus = Corpus::generate(900, 7, FeatureRanges::training(), &SimConfig::default());
    let (train, _, _) = corpus.split(0);
    let cfg = TrainConfig {
        epochs: 50,
        ..Default::default()
    };
    let lp = Ensemble::train(&train, CostMetric::ProcessingLatency, &cfg, 3);
    let success = Ensemble::train(&train, CostMetric::Success, &cfg, 3);
    let backpressure = Ensemble::train(&train, CostMetric::Backpressure, &cfg, 3);

    // 2. Serve the three models: the optimizer scores its candidates as a
    // client of the batching layer instead of calling the ensembles
    // directly — concurrent optimizer runs coalesce server-side.
    let lp_service = ScoringService::start(lp, ServeConfig::default());
    let success_service = ScoringService::start(success, ServeConfig::default());
    let bp_service = ScoringService::start(backpressure, ServeConfig::default());
    let scorer = ServeScorer::new(&lp_service, &success_service, &bp_service);

    // 3. An IoT query: two sensor streams, filtered, joined, aggregated.
    let window = WindowSpec {
        window_type: WindowType::Sliding,
        policy: WindowPolicy::TimeBased,
        size: 4.0,
        slide: 2.0,
    };
    let sensor = TupleSchema::new(vec![DataType::Int, DataType::Double, DataType::Double, DataType::Int]);
    let query = Query::new(
        vec![
            OpKind::Source(SourceSpec {
                event_rate: 1200.0,
                schema: sensor.clone(),
            }),
            OpKind::Source(SourceSpec {
                event_rate: 800.0,
                schema: sensor,
            }),
            OpKind::Filter(FilterSpec {
                function: FilterFunction::Greater,
                literal_type: DataType::Double,
                selectivity: 0.4,
            }),
            OpKind::WindowJoin(JoinSpec {
                key_type: DataType::Int,
                window,
                selectivity: 0.002,
            }),
            OpKind::WindowAggregate(AggSpec {
                function: AggFunction::Mean,
                agg_type: DataType::Double,
                group_by: Some(DataType::Int),
                window,
                selectivity: 0.2,
            }),
            OpKind::Sink,
        ],
        vec![(0, 3), (1, 2), (2, 3), (3, 4), (4, 5)],
    );

    // 4. An edge-fog-cloud cluster with very different capabilities.
    let cluster = Cluster::new(vec![
        Host {
            cpu: 50.0,
            ram_mb: 1000.0,
            bandwidth_mbits: 25.0,
            latency_ms: 80.0,
        }, // edge sensor gateway
        Host {
            cpu: 100.0,
            ram_mb: 2000.0,
            bandwidth_mbits: 50.0,
            latency_ms: 40.0,
        }, // edge box
        Host {
            cpu: 400.0,
            ram_mb: 8000.0,
            bandwidth_mbits: 800.0,
            latency_ms: 10.0,
        }, // fog workstation
        Host {
            cpu: 800.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        }, // cloud server
    ]);

    // 5. Multi-tenant load: other tenants optimize generated queries
    // through the same services while we place the headline query. Every
    // in-flight candidate batch coalesces in the serving layer.
    let budget = 32;
    let est_sels = SelectivityEstimator::realistic(1).estimate_query(&query);
    let (result_random, result_local) = std::thread::scope(|scope| {
        for tenant in 0..3u64 {
            let tenant_scorer = scorer.clone();
            scope.spawn(move || {
                let mut wg = WorkloadGenerator::new(60 + tenant, FeatureRanges::training());
                let q = wg.query();
                let c = wg.cluster(4);
                let sels = SelectivityEstimator::realistic(70 + tenant).estimate_query(&q);
                let problem = SearchProblem {
                    query: &q,
                    cluster: &c,
                    est_sels: &sels,
                    featurization: Featurization::Full,
                };
                let r = LocalSearch.search(&problem, &tenant_scorer, budget, 80 + tenant);
                println!(
                    "tenant {tenant}: scored {} candidates, best predicted Lp {:.0} ms",
                    r.candidates.len(),
                    r.best_evaluation().predicted_cost
                );
            });
        }

        let problem = SearchProblem {
            query: &query,
            cluster: &cluster,
            est_sels: &est_sels,
            featurization: Featurization::Full,
        };
        // Equal scoring budget, two strategies: the paper's baseline vs
        // hill climbing over the move/swap neighborhood.
        let random = RandomEnumeration.search(&problem, &scorer, budget, 2);
        let local = LocalSearch.search(&problem, &scorer, budget, 2);
        (random, local)
    });

    let predicted = |r: &OptimizationResult| r.best_evaluation().predicted_cost;
    println!("\nheadline query, budget {budget} candidates per strategy:");
    println!(
        "  random enumeration: best predicted Lp {:.0} ms, placement {:?}",
        predicted(&result_random),
        result_random.best.assignment()
    );
    println!(
        "  local search:       best predicted Lp {:.0} ms, placement {:?}",
        predicted(&result_local),
        result_local.best.assignment()
    );

    // 6. Serving-layer effectiveness while the tenants ran.
    let stats = lp_service.stats();
    println!(
        "\nlatency service: {} requests in {} fused batches (mean {:.1}), plan cache {} hits / {} misses ({:.0}% hit rate)",
        stats.completed,
        stats.batches,
        stats.mean_batch(),
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        100.0 * stats.plan_cache_hit_rate(),
    );

    // 7. Multi-query co-placement: three tenants' queries placed
    // *jointly* on one shared cluster. Independent per-query searches
    // ignore that co-resident operators contend for the same hosts; the
    // joint search prices that contention (host features degraded to
    // each query's proportional resource share) and edits all queries'
    // placements together — warm-started from the independent result, so
    // at an equal scoring budget it can only match or improve it.
    {
        use costream_query::joint::JointPlacement;
        let mut wg = WorkloadGenerator::new(90, FeatureRanges::training());
        let queries: Vec<Query> = (0..3).map(|_| wg.query()).collect();
        let sels: Vec<Vec<f64>> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| SelectivityEstimator::realistic(91 + i as u64).estimate_query(q))
            .collect();
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        let per_query_budget = 16;
        let combined = JointPlacement::new(
            cluster.len(),
            queries
                .iter()
                .zip(&sels)
                .map(|(q, s)| {
                    let sp = SearchProblem {
                        query: q,
                        cluster: &cluster,
                        est_sels: s,
                        featurization: Featurization::Full,
                    };
                    LocalSearch.search(&sp, &scorer, per_query_budget, 5).best
                })
                .collect(),
        );
        let joint =
            LocalSearch.search_joint_seeded(&problem, &scorer, std::slice::from_ref(&combined), per_query_budget, 5);
        let independent_total = joint.candidates[0].total_cost();
        let joint_total = joint.best_evaluation().total_cost();
        println!(
            "\njoint co-placement of 3 tenant queries (equal budget, contention-aware totals):\n  \
             independent searches combined: {independent_total:.0} ms predicted\n  \
             joint search:                  {joint_total:.0} ms predicted ({:.1}% better)\n  \
             host occupancy chosen jointly: {:?}",
            100.0 * (1.0 - joint_total / independent_total.max(1e-9)),
            joint.best.occupancy()
        );
    }

    // 8. Verify initial vs optimized on the simulator (ground truth).
    let sim = SimConfig::default();
    let before = simulate(&query, &cluster, &result_local.initial, &sim);
    let after = simulate(&query, &cluster, &result_local.best, &sim);
    println!(
        "\nheuristic placement: Lp {:.0} ms, success {}, backpressure {}",
        before.metrics.processing_latency_ms, before.metrics.success, before.metrics.backpressure
    );
    println!(
        "optimized placement: Lp {:.0} ms, success {}, backpressure {}",
        after.metrics.processing_latency_ms, after.metrics.success, after.metrics.backpressure
    );
    if after.metrics.success {
        println!(
            "speed-up: {:.2}x",
            before.metrics.processing_latency_ms / after.metrics.processing_latency_ms.max(1e-3)
        );
    }
}
