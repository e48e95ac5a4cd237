//! Exp 1 — general prediction accuracy: Table III (overall test set),
//! Fig. 7 (grouped by hardware range) and Fig. 8 (grouped by query type).

use crate::harness::{eval_classification, eval_regression, evaluate_all, print_rows, Models, Scale};
use costream::prelude::*;
use costream_dsps::CostMetric;

/// Results of Exp 1.
pub struct Exp1Result {
    /// Table III rows.
    pub overall: Vec<crate::harness::MetricRow>,
    /// Fig. 8: (query-type label, e2e-latency Q50, success accuracy).
    pub by_query_type: Vec<(String, f64, f64)>,
    /// Fig. 7: (dimension label, bucket, e2e-latency Q50).
    pub by_hardware: Vec<(String, String, f64)>,
}

fn query_type_label(item: &CorpusItem) -> String {
    let (_, _, aggs, joins) = item.query.kind_counts();
    let base = match joins {
        0 => "Linear",
        1 => "2-Way-Join",
        _ => "3-Way-Join",
    };
    if aggs > 0 {
        format!("{base} +Agg")
    } else {
        base.to_string()
    }
}

/// Runs Exp 1 on an already trained model bundle and the held-out test set.
pub fn run(models: &Models, test: &Corpus, scale: &Scale) -> Exp1Result {
    // --- Table III --- Classification accuracies are measured on a larger
    // freshly generated evaluation corpus: the 10% test split contains only
    // a handful of failed executions, far too few for a balanced accuracy.
    let class_eval = Corpus::generate(
        (scale.corpus_size * 2).max(600),
        scale.seed.wrapping_add(81),
        FeatureRanges::training(),
        &SimConfig::default(),
    );
    let mut overall = evaluate_all(models, test, scale.seed);
    let class_rows = evaluate_all(models, &class_eval, scale.seed);
    for r in &mut overall {
        if !r.metric.is_regression() {
            let src = class_rows.iter().find(|c| c.metric == r.metric).expect("all metrics");
            r.costream = src.costream;
            r.flat = src.flat;
        }
    }
    print_rows(
        "Table III: overall test-set results",
        &overall,
        &[
            ("Throughput", "1.33 / 5.60", "9.92 / 590.34"),
            ("E2E-latency", "1.37 / 13.28", "24.96 / 827.59"),
            ("Processing latency", "1.46 / 13.90", "22.87 / 458.14"),
            ("Backpressure", "87.89%", "68.70%"),
            ("Query success", "94.96%", "76.85%"),
        ],
    );

    // --- Fig. 8: by query type ---
    println!(
        "\n== Fig. 8: q-error / accuracy per query type (paper: Q50 <= 1.6 everywhere, rising with complexity) =="
    );
    let le = models.ensemble(CostMetric::E2eLatency);
    let succ = models.ensemble(CostMetric::Success);
    let mut by_query_type = Vec::new();
    let labels = [
        "Linear",
        "Linear +Agg",
        "2-Way-Join",
        "2-Way-Join +Agg",
        "3-Way-Join",
        "3-Way-Join +Agg",
    ];
    for label in labels {
        let items: Vec<&CorpusItem> = test
            .items
            .iter()
            .filter(|i| i.metrics.success && query_type_label(i) == label)
            .collect();
        if items.len() < 3 {
            continue;
        }
        let q = eval_regression(&items, CostMetric::E2eLatency, &le.predict_items(&items));
        let all_items: Vec<&CorpusItem> = test.items.iter().filter(|i| query_type_label(i) == label).collect();
        let acc = eval_classification(&all_items, CostMetric::Success, &succ.predict_items(&all_items));
        println!(
            "{label:<18} E2E-lat Q50 {:.2}   success acc {:.1}%  (n={})",
            q.q50,
            acc * 100.0,
            items.len()
        );
        by_query_type.push((label.to_string(), q.q50, acc));
    }

    // --- Fig. 7: by hardware range ---
    println!("\n== Fig. 7: median q-error of E2E-latency over hardware ranges (paper: <= 1.6 across all bins) ==");
    let mut by_hardware = Vec::new();
    type Dim = (&'static str, fn(&CorpusItem) -> f64, Vec<f64>);
    let dims: [Dim; 4] = [
        ("CPU (%)", |i| i.cluster.mean_features().0, vec![200.0, 400.0, 600.0]),
        (
            "RAM (MB)",
            |i| i.cluster.mean_features().1,
            vec![4000.0, 12000.0, 24000.0],
        ),
        (
            "Bandwidth (Mbit/s)",
            |i| i.cluster.mean_features().2,
            vec![200.0, 1600.0, 6400.0],
        ),
        ("Latency (ms)", |i| i.cluster.mean_features().3, vec![10.0, 40.0, 100.0]),
    ];
    for (name, feature, cuts) in dims {
        let mut edges = vec![f64::NEG_INFINITY];
        edges.extend(cuts.iter().copied());
        edges.push(f64::INFINITY);
        for w in edges.windows(2) {
            let items: Vec<&CorpusItem> = test
                .items
                .iter()
                .filter(|i| i.metrics.success && feature(i) > w[0] && feature(i) <= w[1])
                .collect();
            if items.len() < 3 {
                continue;
            }
            let q = eval_regression(&items, CostMetric::E2eLatency, &le.predict_items(&items));
            let bucket = format!("({:.0}, {:.0}]", w[0].max(0.0), w[1].min(1e9));
            println!("{name:<20} {bucket:<18} Q50 {:.2}  (n={})", q.q50, items.len());
            by_hardware.push((name.to_string(), bucket, q.q50));
        }
    }

    Exp1Result {
        overall,
        by_query_type,
        by_hardware,
    }
}
