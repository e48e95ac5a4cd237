//! Exp 2 — placement optimization: Fig. 9 (median speed-ups of the
//! Costream- and FlatVector-chosen initial placements over the heuristic
//! initial placement) and Fig. 10 (slow-down and monitoring overhead of an
//! online rescheduling baseline).

use crate::harness::{flat_predict, median, Models, Scale};
use costream::optimizer::enumerate_candidates;
use costream::prelude::*;
use costream_baselines::run_monitoring;
use costream_dsps::{simulate, CostMetric};
use costream_query::generator::{QueryTemplate, WorkloadGenerator};
use costream_query::selectivity::SelectivityEstimator;

/// Results of Exp 2a (Fig. 9).
pub struct Exp2aResult {
    /// (query-type label, Costream median speed-up, Flat median speed-up).
    pub speedups: Vec<(String, f64, f64)>,
}

/// Results of Exp 2b (Fig. 10).
pub struct Exp2bResult {
    /// Per query: (event rate, selectivity, slow-down of monitoring's
    /// initial placement vs Costream, monitoring overhead seconds or None).
    pub rows: Vec<(f64, f64, f64, Option<f64>)>,
}

fn pick_with_flat(models: &Models, items: &[CorpusItem]) -> usize {
    // Score all candidate items with the flat baseline and apply the same
    // S/RO filter + argmin-Lp rule as the Costream optimizer.
    let refs: Vec<&CorpusItem> = items.iter().collect();
    let lp = flat_predict(models.flat(CostMetric::ProcessingLatency), &refs);
    let s = flat_predict(models.flat(CostMetric::Success), &refs);
    let ro = flat_predict(models.flat(CostMetric::Backpressure), &refs);
    let viable: Vec<usize> = (0..items.len()).filter(|&i| s[i] >= 0.5 && ro[i] < 0.5).collect();
    let set = if viable.is_empty() {
        (0..items.len()).collect::<Vec<_>>()
    } else {
        viable
    };
    set.into_iter()
        .min_by(|&a, &b| lp[a].partial_cmp(&lp[b]).expect("finite predictions"))
        .expect("non-empty candidates")
}

/// Runs Exp 2a: optimizes the initial placement of `scale.opt_queries`
/// queries per type and reports the median Lp speed-up over the heuristic
/// initial placement.
pub fn run_2a(models: &Models, scale: &Scale) -> Exp2aResult {
    println!("\n== Fig. 9: median Lp speed-up of optimized initial placements ==");
    println!("(paper: Costream up to 21.34x, FlatVector up to 9.79x; Costream >= Flat per type)");
    let optimizer = costream::optimizer::PlacementOptimizer::new(
        models.ensemble(CostMetric::ProcessingLatency),
        models.ensemble(CostMetric::Success),
        models.ensemble(CostMetric::Backpressure),
        scale.candidates,
    );
    let sim = SimConfig::default();
    let mut speedups = Vec::new();
    let cases = [
        (QueryTemplate::Linear, false, "Linear"),
        (QueryTemplate::Linear, true, "Linear +Agg"),
        (QueryTemplate::TwoWayJoin, false, "2-Way-Join"),
        (QueryTemplate::TwoWayJoin, true, "2-Way-Join +Agg"),
        (QueryTemplate::ThreeWayJoin, false, "3-Way-Join"),
        (QueryTemplate::ThreeWayJoin, true, "3-Way-Join +Agg"),
    ];
    for (template, with_agg, label) in cases {
        let mut wg = WorkloadGenerator::new(scale.seed.wrapping_add(900), FeatureRanges::training());
        let mut est = SelectivityEstimator::realistic(scale.seed.wrapping_add(901));
        let mut cs_speed = Vec::new();
        let mut flat_speed = Vec::new();
        for k in 0..scale.opt_queries {
            let n_filters = wg.sample_filter_count();
            let query = wg.query_with(template, n_filters, with_agg);
            let cluster = wg.cluster(5);
            let sels = est.estimate_query(&query);
            let seed = scale.seed.wrapping_add(1000 + k as u64);

            let result = optimizer.optimize(&query, &cluster, &sels, Featurization::Full, seed);
            // Flat baseline picks among the same candidates.
            let candidates = enumerate_candidates(&query, &cluster, scale.candidates, seed);
            let cand_items: Vec<CorpusItem> = candidates
                .iter()
                .map(|p| CorpusItem {
                    query: query.clone(),
                    cluster: cluster.clone(),
                    placement: p.clone(),
                    est_sels: sels.clone(),
                    metrics: CostMetrics::failed(), // labels unused for prediction
                })
                .collect();
            let flat_choice = candidates[pick_with_flat(models, &cand_items)].clone();

            let run = |p: &costream_query::Placement| {
                let r = simulate(&query, &cluster, p, &sim.with_seed(seed));
                if r.metrics.success {
                    r.metrics.processing_latency_ms
                } else {
                    sim.duration_s * 1000.0
                }
            };
            let lp_initial = run(&result.initial);
            let lp_costream = run(&result.best);
            let lp_flat = run(&flat_choice);
            cs_speed.push(lp_initial / lp_costream.max(1e-3));
            flat_speed.push(lp_initial / lp_flat.max(1e-3));
        }
        let (c, f) = (median(&cs_speed), median(&flat_speed));
        println!(
            "{label:<18} Costream {c:>7.2}x   FlatVector {f:>7.2}x  (n={})",
            cs_speed.len()
        );
        speedups.push((label.to_string(), c, f));
    }
    Exp2aResult { speedups }
}

/// Runs Exp 2b: compares Costream's initial placement with the online
/// monitoring baseline over a sweep of linear filter queries.
pub fn run_2b(models: &Models, scale: &Scale) -> Exp2bResult {
    println!("\n== Fig. 10: online monitoring baseline vs Costream initial placement ==");
    println!("(paper: slow-down up to 166x; monitoring overhead 70s .. >2min)");
    let optimizer = costream::optimizer::PlacementOptimizer::new(
        models.ensemble(CostMetric::ProcessingLatency),
        models.ensemble(CostMetric::Success),
        models.ensemble(CostMetric::Backpressure),
        scale.candidates,
    );
    let sim = SimConfig::default();
    let rates = [100.0, 400.0, 1600.0, 6400.0];
    let sels = [0.1, 0.5, 0.9];
    let mut rows = Vec::new();
    let mut wg = WorkloadGenerator::new(scale.seed.wrapping_add(777), FeatureRanges::training());
    for (qi, (&rate, &sel)) in rates.iter().flat_map(|r| sels.iter().map(move |s| (r, s))).enumerate() {
        use costream_query::datatypes::{DataType, TupleSchema};
        use costream_query::operators::*;
        let query = Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: rate,
                    schema: TupleSchema::new(vec![DataType::Int, DataType::Int, DataType::Double, DataType::String]),
                }),
                OpKind::Filter(FilterSpec {
                    function: FilterFunction::Less,
                    literal_type: DataType::Int,
                    selectivity: sel,
                }),
                OpKind::Sink,
            ],
            vec![(0, 1), (1, 2)],
        );
        let cluster = wg.cluster(5);
        let est_sels = vec![1.0, sel, 1.0];
        let seed = scale.seed.wrapping_add(2000 + qi as u64);

        let chosen = optimizer
            .optimize(&query, &cluster, &est_sels, Featurization::Full, seed)
            .best;
        let r = simulate(&query, &cluster, &chosen, &sim.with_seed(seed));
        let lp_costream = if r.metrics.success {
            r.metrics.processing_latency_ms
        } else {
            sim.duration_s * 1000.0
        };

        let run = run_monitoring(&query, &cluster, &sim, seed);
        let slowdown = run.trajectory[0].processing_latency_ms / lp_costream.max(1e-3);
        let overhead = run.time_to_reach(lp_costream);
        println!(
            "rate {rate:>6.0} ev/s  sel {sel:.2}   slow-down {slowdown:>8.2}x   overhead {}",
            overhead.map_or("never competitive".to_string(), |t| format!("{t:.0}s"))
        );
        rows.push((rate, sel, slowdown, overhead));
    }
    Exp2bResult { rows }
}
