//! Exp 5 (Table VI-A: unseen filter-chain query patterns; Fig. 11:
//! few-shot fine-tuning) and Exp 6 (Table VI-B: unseen real-world
//! benchmarks).

use crate::harness::{eval_regression, evaluate_all, MetricRow, Models, Scale};
use costream::prelude::*;
use costream::qerror::median;
use costream::train::fine_tune;
use costream_dsps::CostMetric;
use costream_query::benchmarks::BenchmarkQuery;
use costream_query::generator::WorkloadGenerator;
use costream_query::placement::sample_valid;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a corpus of filter-chain queries of a fixed chain length
/// (the unseen pattern of Exp 5).
fn filter_chain_corpus(chain_len: usize, n: usize, seed: u64) -> Corpus {
    let mut wg = WorkloadGenerator::new(seed, FeatureRanges::training());
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let workloads: Vec<_> = (0..n)
        .map(|_| {
            let q = wg.filter_chain_query(chain_len);
            let c = wg.cluster(4);
            let p = sample_valid(&q, &c, &mut rng)
                .unwrap_or_else(|| costream_query::placement::colocate_on_strongest(&q, &c));
            (q, c, p)
        })
        .collect();
    Corpus::from_workloads(workloads, seed.wrapping_add(2), &SimConfig::default())
}

/// Results of Exp 5a.
pub struct Exp5Result {
    /// (chain length, per-metric rows).
    pub by_chain: Vec<(usize, Vec<MetricRow>)>,
    /// Fig. 11: (chain length, throughput Q50 before, after fine-tuning).
    pub finetune: Vec<(usize, f64, f64)>,
}

/// Runs Exp 5a (Table VI-A) and Exp 5b (Fig. 11).
pub fn run_5(models: &Models, train: &Corpus, scale: &Scale) -> Exp5Result {
    println!("\n== Table VI-A: unseen query patterns (filter chains) ==");
    println!(
        "(paper: Costream Q50 1.6-5.5, degrading with chain length; Flat far worse, success prediction collapses)"
    );
    let mut by_chain = Vec::new();
    let mut chains: Vec<(usize, Corpus)> = Vec::new();
    for chain_len in [2usize, 3, 4] {
        let corpus = filter_chain_corpus(
            chain_len,
            scale.eval_queries,
            scale.seed.wrapping_add(500 + chain_len as u64),
        );
        let rows = evaluate_all(models, &corpus, scale.seed);
        println!("\n-- {chain_len}-filter chain --");
        for r in &rows {
            if r.costream.1.is_nan() {
                println!(
                    "  {:<20} Costream {:.1}%   Flat {:.1}%",
                    r.metric.name(),
                    r.costream.0 * 100.0,
                    r.flat.0 * 100.0
                );
            } else {
                println!(
                    "  {:<20} Costream Q50 {:.2} Q95 {:.2}   Flat Q50 {:.2} Q95 {:.2}",
                    r.metric.name(),
                    r.costream.0,
                    r.costream.1,
                    r.flat.0,
                    r.flat.1
                );
            }
        }
        by_chain.push((chain_len, rows));
        chains.push((chain_len, corpus));
    }

    // --- Fig. 11: few-shot fine-tuning of the throughput model ---
    println!("\n== Fig. 11: throughput model before/after fine-tuning on filter chains ==");
    println!("(paper: 4-filter Q50 improves 5.51 -> 1.61)");
    // Fine-tune on a small mixed-chain-length corpus (the paper's 3000
    // extra queries, scaled).
    let extra_n = (scale.corpus_size / 4).max(60);
    let mut extra = Corpus::default();
    for (i, chain_len) in [2usize, 3, 4].into_iter().enumerate() {
        let c = filter_chain_corpus(chain_len, extra_n / 3, scale.seed.wrapping_add(600 + i as u64));
        extra.items.extend(c.items);
    }
    let cfg = TrainConfig {
        epochs: scale.epochs,
        seed: scale.seed,
        ..Default::default()
    };
    let mut tuned = models.ensemble(CostMetric::Throughput).members()[0].clone();
    // Mix some original training data in to avoid catastrophic forgetting.
    let mut mixed = extra.clone();
    mixed.items.extend(train.items.iter().take(extra.len()).cloned());
    fine_tune(&mut tuned, &mixed, scale.retrain_epochs.max(10), 5e-4, &cfg);

    let mut finetune = Vec::new();
    for (chain_len, corpus) in &chains {
        let items = corpus.successful();
        let before = eval_regression(
            &items,
            CostMetric::Throughput,
            &models.ensemble(CostMetric::Throughput).predict_items(&items),
        );
        let after = eval_regression(&items, CostMetric::Throughput, &tuned.predict_items(&items));
        println!(
            "{chain_len}-filter chain: Q50 {:.2} -> {:.2}   Q95 {:.2} -> {:.2}",
            before.q50, after.q50, before.q95, after.q95
        );
        finetune.push((*chain_len, before.q50, after.q50));
    }
    Exp5Result { by_chain, finetune }
}

/// Results of Exp 6.
pub struct Exp6Result {
    /// (benchmark name, per-metric rows).
    pub by_benchmark: Vec<(String, Vec<MetricRow>)>,
}

/// Builds the evaluation corpus for one real-world benchmark query: `n`
/// instances with random rates and random valid placements (§VII-F).
fn benchmark_corpus(bench: BenchmarkQuery, n: usize, seed: u64) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wg = WorkloadGenerator::new(seed.wrapping_add(1), FeatureRanges::training());
    let workloads: Vec<_> = (0..n)
        .map(|_| {
            let q = bench.build(&mut rng);
            let c = wg.cluster(4);
            let p = sample_valid(&q, &c, &mut rng)
                .unwrap_or_else(|| costream_query::placement::colocate_on_strongest(&q, &c));
            (q, c, p)
        })
        .collect();
    Corpus::from_workloads(workloads, seed.wrapping_add(2), &SimConfig::default())
}

/// Runs Exp 6 (Table VI-B): the models predict for the four real-world
/// benchmark queries they never saw.
pub fn run_6(models: &Models, scale: &Scale) -> Exp6Result {
    println!("\n== Table VI-B: unseen real-world benchmarks ==");
    println!("(paper: Costream Q50 1.4-3.7; Flat often orders of magnitude worse)");
    let mut by_benchmark = Vec::new();
    for (bi, bench) in BenchmarkQuery::ALL.into_iter().enumerate() {
        let corpus = benchmark_corpus(bench, scale.eval_queries, scale.seed.wrapping_add(700 + bi as u64));
        let rows = evaluate_all(models, &corpus, scale.seed);
        println!("\n-- {} --", bench.name());
        for r in &rows {
            if r.costream.1.is_nan() {
                println!(
                    "  {:<20} Costream {:.1}%   Flat {:.1}%",
                    r.metric.name(),
                    r.costream.0 * 100.0,
                    r.flat.0 * 100.0
                );
            } else {
                println!(
                    "  {:<20} Costream Q50 {:.2} Q95 {:.2}   Flat Q50 {:.2} Q95 {:.2}",
                    r.metric.name(),
                    r.costream.0,
                    r.costream.1,
                    r.flat.0,
                    r.flat.1
                );
            }
        }
        by_benchmark.push((bench.name().to_string(), rows));
    }
    Exp6Result { by_benchmark }
}

/// Fig. 1 headline: median E2E-latency q-error across the four scenarios.
pub fn print_fig1(seen: &[MetricRow], unseen_hw: &[MetricRow], exp5: &Exp5Result, exp6: &Exp6Result) {
    let le = |rows: &[MetricRow]| {
        rows.iter()
            .find(|r| r.metric == CostMetric::E2eLatency)
            .map(|r| (r.costream.0, r.flat.0))
            .unwrap_or((f64::NAN, f64::NAN))
    };
    let seen_v = le(seen);
    let hw_v = le(unseen_hw);
    let uq: Vec<(f64, f64)> = exp5.by_chain.iter().map(|(_, rows)| le(rows)).collect();
    let uq_v = (
        median(&uq.iter().map(|v| v.0).collect::<Vec<_>>()),
        median(&uq.iter().map(|v| v.1).collect::<Vec<_>>()),
    );
    let ub: Vec<(f64, f64)> = exp6.by_benchmark.iter().map(|(_, rows)| le(rows)).collect();
    let ub_v = (
        median(&ub.iter().map(|v| v.0).collect::<Vec<_>>()),
        median(&ub.iter().map(|v| v.1).collect::<Vec<_>>()),
    );
    println!("\n== Fig. 1: median E2E-latency q-error, Costream vs Flat Vector ==");
    println!("(paper: 1.37/13.28, 1.59/63.79, 2.17/444.03, 1.41/17.15)");
    for (label, v) in [
        ("Seen queries", seen_v),
        ("Unseen hardware", hw_v),
        ("Unseen queries", uq_v),
        ("Unseen benchmark", ub_v),
    ] {
        println!("{label:<18} Costream {:.2}   Flat Vector {:.2}", v.0, v.1);
    }
}
