//! Micro-benchmarks of the reproduction's hot paths: tensor kernels at the
//! exact shapes the GNN MLPs use, graph primitives, batch-plan
//! construction, simulator runs, joint-graph featurization, GNN inference
//! and the training step (forward / backward / update), ensemble training,
//! GBDT fitting and placement enumeration.
//!
//! The harness writes every result to `BENCH_micro.json` (op, ns/iter,
//! throughput) so the performance trajectory is tracked from PR 1 onward.

use costream::optimizer::enumerate_candidates;
use costream::prelude::*;
use costream::train::{prepare_training, train_prepared, GRAD_CLIP, LEARNING_RATE};
use costream_baselines::{Gbdt, GbdtConfig, Objective};
use costream_dsps::simulate;
use costream_nn::loss::mse;
use costream_nn::optim::{clip_scale, Adam};
use costream_nn::{Gradients, InferenceArena, Tensor, TrainingPass, Window};
use costream_query::generator::WorkloadGenerator;
use costream_query::selectivity::SelectivityEstimator;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i as f32 * 0.137 + seed as f32 * 0.311).sin() * 1.3) - 0.2)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Matmul at the shapes the encoder/updater/readout MLPs actually run:
/// update MLPs see `n x 2h @ 2h x u`, encoders `n x feat @ feat x e`,
/// the readout head `g x h @ h x r`.
fn bench_matmul_kernels(c: &mut Criterion) {
    for &(m, k, n, tag) in &[
        (64usize, 64usize, 48usize, "updater_in"),
        (64, 48, 32, "updater_out"),
        (256, 64, 48, "updater_in_big"),
        (64, 21, 48, "encoder_agg"),
        (64, 32, 32, "readout_hidden"),
    ] {
        let a = pseudo_random(m, k, 1);
        let b = pseudo_random(k, n, 2);
        c.bench_function(&format!("matmul_{m}x{k}x{n}_{tag}"), |bch| {
            bch.iter(|| black_box(&a).matmul(black_box(&b)))
        });
    }
    let a = pseudo_random(64, 64, 3);
    let b = pseudo_random(64, 48, 4);
    let bias = pseudo_random(1, 48, 5);
    let mut out = Tensor::zeros(64, 48);
    c.bench_function("affine_relu_fused_64x64x48", |bch| {
        bch.iter(|| Tensor::affine_into(black_box(&a), black_box(&b), black_box(&bias), true, &mut out))
    });
    // Row fringes alone, as training's small wave groups run them: a
    // 3-row affine map (no full row tile on any SIMD body) and the `dx`
    // product of a 5-row group.
    let a3 = pseudo_random(3, 64, 25);
    let mut out3 = Tensor::zeros(3, 48);
    c.bench_function("affine_relu_fused_3x64x48", |bch| {
        bch.iter(|| Tensor::affine_into(black_box(&a3), black_box(&b), black_box(&bias), true, &mut out3))
    });
    let g5 = pseudo_random(5, 32, 26);
    let w5 = pseudo_random(32, 48, 27);
    c.bench_function("matmul_5x32x48", |bch| {
        bch.iter(|| black_box(&g5).matmul(black_box(&w5)))
    });
    // Backward-pass kernels at the MLP shapes: `dW = x^T @ dpre` and
    // `dx = dpre @ W^T` for the small (64-node) and big (256-node) batch.
    c.bench_function("t_matmul_64x64_64x48", |bch| {
        bch.iter(|| black_box(&a).t_matmul(black_box(&b)))
    });
    let g = pseudo_random(64, 48, 6);
    let w = pseudo_random(64, 48, 7);
    c.bench_function("matmul_t_64x48_64x48", |bch| {
        bch.iter(|| black_box(&g).matmul_t(black_box(&w)))
    });
    let xb = pseudo_random(256, 64, 22);
    let gb = pseudo_random(256, 48, 23);
    c.bench_function("t_matmul_256x64_256x48", |bch| {
        bch.iter(|| black_box(&xb).t_matmul(black_box(&gb)))
    });
    let wb = pseudo_random(64, 48, 24);
    c.bench_function("matmul_t_256x48_64x48", |bch| {
        bch.iter(|| black_box(&gb).matmul_t(black_box(&wb)))
    });
}

/// Training-path benches: one minibatch step of `fit`, split where its
/// cost splits — the training pass's forward, its backward, the clip norm
/// and the clipped Adam update — and one whole training epoch over a
/// 48-item corpus. `train_epoch` and
/// `train_backward_batch16` are CI-gated.
fn bench_training_path(c: &mut Criterion) {
    eprintln!("kernel tier: {}", costream_nn::kernel_tier());
    let corpus = Corpus::generate(16, 10, FeatureRanges::training(), &SimConfig::default());
    let cfg = TrainConfig::default();
    let prepared = prepare_training(&corpus, CostMetric::ProcessingLatency, &cfg);
    let batch = &prepared.batches[0];
    let mut model = GnnModel::new(cfg.model);
    let mut grads = Gradients::for_store(model.store());
    let mut arena = InferenceArena::new();
    let mut pass = TrainingPass::default();
    c.bench_function("train_forward_batch16", |b| {
        b.iter(|| model.train_forward(&batch.plan, &mut pass, &mut arena).data()[0])
    });
    {
        // Backward only reads what the forward retained, so one forward
        // serves every iteration.
        let seed = mse(model.train_forward(&batch.plan, &mut pass, &mut arena), &batch.targets).seed;
        c.bench_function("train_backward_batch16", |b| {
            b.iter(|| {
                grads.zero();
                let seed = arena.alloc_copy(&seed);
                model.train_backward(&batch.plan, &mut pass, seed, &mut grads, &mut arena);
            })
        });
    }
    // The clip norm alone, on the backward's gradients: `train_step_batch16`
    // less this row is the Adam update.
    c.bench_function("train_clip_batch16", |b| {
        b.iter(|| clip_scale(black_box(&grads), GRAD_CLIP))
    });
    let mut opt = Adam::new(LEARNING_RATE);
    c.bench_function("train_step_batch16", |b| {
        b.iter(|| {
            let scale = clip_scale(&grads, GRAD_CLIP);
            opt.step_scaled(model.store_mut(), &grads, scale);
        })
    });

    let corpus48 = Corpus::generate(48, 9, FeatureRanges::training(), &SimConfig::default());
    let epoch_cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        ..Default::default()
    };
    let prepared48 = prepare_training(&corpus48, CostMetric::Throughput, &epoch_cfg);
    c.bench_function("train_epoch", |b| {
        b.iter(|| train_prepared(&prepared48, CostMetric::Throughput, &epoch_cfg))
    });
}

/// Graph primitives over a realistic batched-node count (~1k rows, hidden
/// width 32).
fn bench_graph_primitives(c: &mut Criterion) {
    let x = pseudo_random(1024, 32, 8);
    let segments: Vec<usize> = (0..1024).map(|i| (i * 7919) % 128).collect();
    let mut out = Tensor::zeros(128, 32);
    c.bench_function("segment_sum_1024x32_to_128", |bch| {
        bch.iter(|| {
            out.fill_zero();
            black_box(&x).segment_sum_into(black_box(&segments), &mut out);
        })
    });
    let rows: Vec<usize> = (0..2048).map(|i| (i * 31) % 1024).collect();
    let segs: Vec<usize> = (0..2048).map(|i| (i * 13) % 128).collect();
    c.bench_function("gather_segment_sum_2048edges", |bch| {
        bch.iter(|| {
            out.fill_zero();
            let edges = black_box(&segs).iter().copied().zip(black_box(&rows).iter().copied());
            out.add_rows(black_box(&x), edges, Window::cols(32));
        })
    });
    // The fused pass's wave input at k = 3, hidden 32: a zeroed
    // `[64, 3 * 64]` buffer, each member's child sums added into the first
    // half of its block over 128 edges, and each target's own state
    // copied into the second half. Ungated.
    let (k, h) = (3, 32);
    let state = pseudo_random(512, k * h, 26);
    let child_slots: Vec<usize> = (0..128).map(|i| (i * 37) % 512).collect();
    let wave_segs: Vec<usize> = (0..128).map(|i| (i * 5) % 64).collect();
    let own: Vec<usize> = (0..64).map(|i| (i * 11 + 3) % 512).collect();
    let mut arena = InferenceArena::new();
    let half = Window::cols(h).blocks(k);
    c.bench_function("wave_input_k3_64rows", |bch| {
        bch.iter(|| {
            let mut inp = arena.alloc_zeroed(64, 2 * k * h);
            let edges = black_box(&wave_segs)
                .iter()
                .copied()
                .zip(black_box(&child_slots).iter().copied());
            inp.add_rows(black_box(&state), edges, half);
            inp.copy_rows(&state, (0..).zip(black_box(&own).iter().copied()), half.dst(h));
            arena.recycle(black_box(inp));
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = WorkloadGenerator::new(1, FeatureRanges::training());
    let (q, cl, p) = g.workload_item();
    let cfg = SimConfig::default();
    c.bench_function("simulate_4min_query", |b| b.iter(|| simulate(&q, &cl, &p, &cfg)));
}

fn bench_featurize(c: &mut Criterion) {
    let mut g = WorkloadGenerator::new(2, FeatureRanges::training());
    let (q, cl, p) = g.workload_item();
    let sels = SelectivityEstimator::realistic(3).estimate_query(&q);
    c.bench_function("joint_graph_build", |b| {
        b.iter(|| JointGraph::build(&q, &cl, &p, &sels, Featurization::Full))
    });
}

/// Single-model GNN inference: the one fused pass, one member wide (the
/// training forward has its own rows in `bench_training_path`).
fn bench_inference(c: &mut Criterion) {
    let corpus = Corpus::generate(64, 4, FeatureRanges::training(), &SimConfig::default());
    let cfg = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    let model = train_metric(&corpus, CostMetric::ProcessingLatency, &cfg);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(Featurization::Full)).collect();
    let one = &graphs[0];
    let refs: Vec<&JointGraph> = graphs.iter().collect();

    c.bench_function("gnn_inference_single_graph", |b| {
        b.iter(|| model.predict_graphs(&[one]))
    });
    c.bench_function("gnn_inference_batch64", |b| b.iter(|| model.predict_graphs(&refs)));
    // Plan reuse: the steady-state serving cost once plans are cached.
    let plan = model.model().plan(&refs);
    let view = model.fused();
    let mut arena = InferenceArena::new();
    c.bench_function("gnn_inference_batch64_cached_plan", |b| {
        b.iter(|| view.predict_plans_arena(black_box(std::slice::from_ref(&plan)), &mut arena))
    });
    c.bench_function("batch_plan_build_64", |b| b.iter(|| model.model().plan(&refs)));
    // The serving worker's plan on a warm cache: 64 mixed-shape graphs
    // whose fragments are all cached, looked up by the signatures their
    // requests carry, confirmed, stitched and restacked.
    let cfg = model.model().config();
    let (scheme, rounds) = (cfg.scheme, cfg.traditional_rounds);
    let sigs: Vec<PlanSignature> = refs.iter().map(|g| plan_signature(&[g], scheme, rounds)).collect();
    let cache = PlanCache::default();
    cache.get_or_build_signed(&refs, &sigs, scheme, rounds);
    c.bench_function("plan_stitch_64", |b| {
        b.iter(|| cache.get_or_build_signed(&refs, &sigs, scheme, rounds))
    });
}

/// Member-fused ensemble inference (k = 3) over one cached 64-graph chunk
/// plan — the serving worker's steady-state scoring cost.
/// `ensemble_fused_batch64` is CI-gated.
fn bench_ensemble_fused(c: &mut Criterion) {
    let corpus = Corpus::generate(64, 13, FeatureRanges::training(), &SimConfig::default());
    let cfg = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    let ensemble = Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 3);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let plans = vec![ensemble.members()[0].model().plan(&refs)];
    let fused = ensemble.fused();
    let mut arena = InferenceArena::new();
    c.bench_function("ensemble_fused_batch64", |b| {
        b.iter(|| fused.predict_plans_arena(black_box(&plans), &mut arena))
    });
}

/// Seed-varied ensemble training (members train in parallel from shared
/// batch plans).
fn bench_ensemble_train(c: &mut Criterion) {
    let corpus = Corpus::generate(48, 9, FeatureRanges::training(), &SimConfig::default());
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 16,
        ..Default::default()
    };
    c.bench_function("ensemble_train_k4_48x3epochs", |b| {
        b.iter(|| Ensemble::train(&corpus, CostMetric::Throughput, &cfg, 4))
    });
}

fn bench_gbdt(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    let xs: Vec<Vec<f64>> = (0..500)
        .map(|_| (0..26).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0] * 3.0 + x[1]).collect();
    let cfg = GbdtConfig { n_trees: 30 };
    c.bench_function("gbdt_fit_500x26", |b| {
        b.iter(|| Gbdt::fit(&xs, &ys, Objective::Regression, &cfg))
    });
}

/// Load statistics for one serving configuration.
struct LoadStats {
    /// Wall-clock nanoseconds per request across all clients.
    ns_per_request: f64,
    /// Median request latency (ns), submission to response.
    p50_ns: f64,
    /// 99th-percentile request latency (ns), submission to response.
    p99_ns: f64,
}

fn aggregate(mut latencies: Vec<u64>, measure: std::time::Duration) -> LoadStats {
    // Zero completions would fabricate plausible-looking numbers (one
    // "request" per window, 0 ns percentiles); fail loudly instead.
    assert!(
        !latencies.is_empty(),
        "load generator completed no requests in the measurement window"
    );
    latencies.sort_unstable();
    let n = latencies.len();
    LoadStats {
        ns_per_request: measure.as_nanos() as f64 / n as f64,
        p50_ns: latencies.get(n / 2).copied().unwrap_or(0) as f64,
        p99_ns: latencies.get(((n * 99) / 100).min(n - 1)).copied().unwrap_or(0) as f64,
    }
}

/// Drives `clients` strictly synchronous client threads (one request in
/// flight each) against `score` for `measure` (after `warmup`), each
/// walking `pool` from its own offset.
fn run_sync_load(
    clients: usize,
    pool: &[costream::graph::JointGraph],
    warmup: std::time::Duration,
    measure: std::time::Duration,
    score: &(impl Fn(&costream::graph::JointGraph) -> f64 + Sync),
) -> LoadStats {
    use std::time::Instant;
    let latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut i = c * 7;
                    let warm_end = Instant::now() + warmup;
                    while Instant::now() < warm_end {
                        black_box(score(&pool[i % pool.len()]));
                        i += 1;
                    }
                    let mut lats = Vec::new();
                    let end = Instant::now() + measure;
                    while Instant::now() < end {
                        let t0 = Instant::now();
                        black_box(score(&pool[i % pool.len()]));
                        lats.push(t0.elapsed().as_nanos() as u64);
                        i += 1;
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    aggregate(latencies, measure)
}

/// Drives `clients` serving clients, each keeping up to `depth` requests
/// in flight (`depth == 1` is the strict closed loop). Pipelining is the
/// natural client shape for a serving layer — e.g. the placement
/// optimizer submits every candidate of a query at once and collects the
/// scores — and is what lets coalesced batches grow past the client
/// count. Latency is measured per request, submission to response.
fn run_serve_load(
    clients: usize,
    depth: usize,
    pool: &[std::sync::Arc<costream::graph::JointGraph>],
    warmup: std::time::Duration,
    measure: std::time::Duration,
    client_handle: &costream_serve::ScoreClient,
) -> LoadStats {
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::time::Instant;
    let latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let handle = client_handle.clone();
                s.spawn(move || {
                    let mut i = c * 7;
                    let submit = |i: &mut usize| {
                        let g = Arc::clone(&pool[*i % pool.len()]);
                        *i += 1;
                        (Instant::now(), handle.submit(g).expect("queue within bounds"))
                    };
                    let mut pending: VecDeque<_> = VecDeque::with_capacity(depth);
                    let warm_end = Instant::now() + warmup;
                    while Instant::now() < warm_end {
                        while pending.len() < depth {
                            pending.push_back(submit(&mut i));
                        }
                        let (_, p) = pending.pop_front().expect("depth >= 1");
                        black_box(p.wait().expect("service alive"));
                    }
                    let mut lats = Vec::new();
                    let end = Instant::now() + measure;
                    while Instant::now() < end {
                        while pending.len() < depth {
                            pending.push_back(submit(&mut i));
                        }
                        let (t0, p) = pending.pop_front().expect("depth >= 1");
                        black_box(p.wait().expect("service alive"));
                        lats.push(t0.elapsed().as_nanos() as u64);
                    }
                    // Drain the tail outside the measured window.
                    for (_, p) in pending {
                        let _ = p.wait();
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    aggregate(latencies, measure)
}

/// The serving layer under load: requests/s and p50/p99 latency at
/// several client counts, against the synchronous single-request path as
/// the baseline. `serve_throughput` (8 concurrent clients, each
/// pipelining up to 4 candidate scores like the placement optimizer
/// does) is the number the CI regression gate watches; the acceptance
/// target is ≥ 3x the 8-client synchronous throughput. The strict
/// one-in-flight closed loop is recorded alongside as
/// `serve_throughput_depth1`.
///
/// Workload: one *hot query shape* — a recurring graph topology whose
/// feature values (selectivity estimates) shift per request — the
/// serving sweet spot the topology-keyed plan cache is built for.
fn bench_serving(c: &mut Criterion) {
    use costream_serve::{ScoringService, ServeConfig};
    use std::sync::Arc;
    use std::time::Duration;
    let _ = c; // measured with a wall-clock load generator, not Bencher

    let corpus = Corpus::generate(48, 12, FeatureRanges::training(), &SimConfig::default());
    let cfg = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    let ensemble = Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 3);

    // Hot-shape pool: one placed query, 64 feature variants.
    let mut gen = WorkloadGenerator::new(11, FeatureRanges::training());
    let (query, cluster, placement) = gen.workload_item();
    let pool: Vec<JointGraph> = (0..64)
        .map(|i| {
            let sels = SelectivityEstimator::realistic(100 + i).estimate_query(&query);
            JointGraph::build(&query, &cluster, &placement, &sels, Featurization::Full)
        })
        .collect();
    let shared_pool: Vec<Arc<JointGraph>> = pool.iter().cloned().map(Arc::new).collect();

    let warmup = Duration::from_millis(250);
    let measure = Duration::from_secs(1);

    // Synchronous single-request baseline: every client pays per-call
    // plan construction and single-graph kernel launches, one request in
    // flight each (that path has nothing to pipeline into).
    let mut sync_8_ns = f64::NAN;
    for &clients in &[1usize, 8] {
        let stats = run_sync_load(clients, &pool, warmup, measure, &|g| ensemble.predict_graphs(&[g])[0]);
        let suffix = if clients == 1 { "1client" } else { "8clients" };
        criterion::register_result(&format!("sync_throughput_{suffix}"), stats.ns_per_request);
        if clients == 8 {
            sync_8_ns = stats.ns_per_request;
        }
    }

    for &(clients, depth, suffix) in &[
        (1usize, 1usize, "_1client"),
        (4, 4, "_4clients"),
        (8, 1, "_depth1"),
        (8, 4, ""),
    ] {
        let service = ScoringService::start(ensemble.clone(), ServeConfig::default());
        let client = service.client();
        let stats = run_serve_load(clients, depth, &shared_pool, warmup, measure, &client);
        criterion::register_result(&format!("serve_throughput{suffix}"), stats.ns_per_request);
        criterion::register_result(&format!("serve_p50_latency{suffix}"), stats.p50_ns);
        criterion::register_result(&format!("serve_p99_latency{suffix}"), stats.p99_ns);
        let sstats = service.stats();
        eprintln!(
            "  {clients}-client (depth {depth}) serving: mean batch {:.1}, batches by size 1|2-3|4-7|8-15|16-31|32-63|64+ {:?}, plan cache {} hits / {} misses (hit rate {:.0}%)",
            sstats.mean_batch(),
            sstats.batch_hist,
            sstats.plan_cache_hits,
            sstats.plan_cache_misses,
            100.0 * sstats.plan_cache_hit_rate(),
        );
        if suffix.is_empty() || suffix == "_depth1" {
            eprintln!(
                "  8-client depth-{depth} speedup vs synchronous single-request path: {:.2}x",
                sync_8_ns / stats.ns_per_request
            );
        }
    }
}

/// The network front-end under sustained mixed-lane wire load: a
/// million pipelined requests (`COSTREAM_FRONT_REQUESTS` to resize)
/// split over interactive and bulk connections against a 2-shard
/// front-end, with the loadgen's chaos thread injecting connection
/// faults (malformed frames, oversized headers, mid-frame disconnects)
/// the whole time. Records per-lane p50/p99 (`front_{lane}_p{50,99}`);
/// `front_interactive_p99` is the CI-gated QoS number (behind the core-count guard — a
/// multi-connection threaded server's tail is runner-class-dependent).
fn bench_front_load(c: &mut Criterion) {
    use costream_front::loadgen;
    use costream_front::{FrontConfig, Frontend};
    use costream_serve::ServeConfig;
    use std::time::Duration;
    let _ = c; // measured with a wall-clock load generator, not Bencher

    let corpus = Corpus::generate(48, 12, FeatureRanges::training(), &SimConfig::default());
    let cfg = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    let ensemble = Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 3);

    // Mixed-shape pool: several query topologies × feature variants, so
    // the signature routing actually spreads shapes over the shards
    // while each shard's plan cache stays hot on its own subset.
    let mut gen = WorkloadGenerator::new(23, FeatureRanges::training());
    let mut pool: Vec<JointGraph> = Vec::new();
    for _ in 0..4 {
        let (query, cluster, placement) = gen.workload_item();
        for i in 0..16 {
            let sels = SelectivityEstimator::realistic(200 + i).estimate_query(&query);
            pool.push(JointGraph::build(
                &query,
                &cluster,
                &placement,
                &sels,
                Featurization::Full,
            ));
        }
    }

    let requests: u64 = std::env::var("COSTREAM_FRONT_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let mut serve = ServeConfig::default();
    serve.workers = serve.workers.max(1);
    let front = Frontend::start(
        ensemble,
        FrontConfig {
            shards: 2,
            serve,
            ..FrontConfig::default()
        },
    )
    .expect("bind front-end");

    let report = loadgen::run(front.addr(), &pool, requests);

    for (lane, r) in [("interactive", &report.interactive), ("bulk", &report.bulk)] {
        criterion::register_result(&format!("front_{lane}_p50"), r.p50_ns as f64);
        criterion::register_result(&format!("front_{lane}_p99"), r.p99_ns as f64);
        eprintln!(
            "  front {lane}: {} sent, {} ok, {} overloaded, {} shed, {} other; p50 {:.0} µs, p99 {:.0} µs",
            r.sent,
            r.ok,
            r.overloaded,
            r.shed,
            r.other_errors,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
        );
    }
    let stats = front.stats();
    eprintln!(
        "  front: {} requests in {:.2?} ({:.0} req/s), {} chaos rounds absorbed ({} bad frames, {} oversized, {} disconnects), {} worker respawns",
        report.interactive.sent + report.bulk.sent,
        report.elapsed,
        (report.interactive.sent + report.bulk.sent) as f64 / report.elapsed.as_secs_f64(),
        report.chaos_rounds,
        stats.bad_requests,
        stats.oversized,
        stats.disconnects,
        stats.worker_respawns(),
    );
    let drain = front.shutdown(Duration::from_secs(30));
    assert!(drain.drained, "bench front-end must drain cleanly");
}

/// The wire codec on the frame a placement optimizer sends for a graph the
/// front-end has not seen: one inline `Score` request (~1 KB of JSON for a
/// generator topology). Single-threaded, so both rows are gated like a
/// kernel bench. What they protect is the shim's text path: no value tree,
/// one pass over the bytes.
fn bench_wire_codec(c: &mut Criterion) {
    use costream_front::wire::{self, Request, RequestBody, WireLane};
    let mut gen = WorkloadGenerator::new(23, FeatureRanges::training());
    let (query, cluster, placement) = gen.workload_item();
    let sels = SelectivityEstimator::realistic(200).estimate_query(&query);
    let graph = JointGraph::build(&query, &cluster, &placement, &sels, Featurization::Full);
    let request = Request {
        id: 7,
        lane: WireLane::Bulk,
        deadline_us: None,
        body: RequestBody::Score { graph },
    };
    let bytes = wire::encode_request(&request);
    eprintln!("  inline request frame: {} bytes", bytes.len() + wire::HEADER_BYTES);
    c.bench_function("wire_encode_request_inline", |b| {
        b.iter(|| wire::encode_request(black_box(&request)))
    });
    c.bench_function("wire_decode_request_inline", |b| {
        b.iter(|| wire::decode_request(black_box(&bytes)).expect("own encoding decodes"))
    });
}

/// Deciding which candidates to score: `enumerate_12_candidates` on a
/// 6-host cluster, and at 512 hosts one random valid placement
/// (`sample_valid_512h`, rank-select over the bin lists) and one full
/// neighbourhood (`neighbors_into_512h`, one validity check per used host
/// and per bin of unused ones, every host counted and listed).
fn bench_enumeration(c: &mut Criterion) {
    use costream_query::placement::neighborhood::Neighborhood;
    use rand::SeedableRng;

    let mut g = WorkloadGenerator::new(6, FeatureRanges::training());
    let q = g.query();
    let cl = g.cluster(6);
    c.bench_function("enumerate_12_candidates", |b| {
        b.iter(|| enumerate_candidates(&q, &cl, 12, 7))
    });

    let wide = costream::test_fixtures::wide_cluster(512);
    let nb = Neighborhood::new(&q, &wide);
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    c.bench_function("sample_valid_512h", |b| b.iter(|| nb.sample_valid(&mut rng)));
    let p = nb.sample_valid(&mut rng).expect("a 512-host cluster has room");
    let state = nb.visit_state(&p);
    let mut moves = Vec::new();
    c.bench_function("neighbors_into_512h", |b| {
        b.iter(|| nb.neighbors_into(&p, &state, &mut moves).checked())
    });
}

/// The placement-search strategies at an *equal scoring budget*: wall
/// time per full search (`optimizer_search_{random,beam,local}` — the
/// LocalSearch variant is the CI-gated number) plus the quality each
/// strategy buys for that budget, recorded as
/// `optimizer_search_{...}_best_cost` metrics (predicted target cost of
/// the chosen placement, lower is better — exported under the JSON
/// `metrics` key with an explicit unit so the cost-vs-candidates-scored
/// trajectory is tracked in BENCH_micro.json without masquerading as a
/// timing). `search_score_per_candidate` (CI-gated) is what one candidate
/// costs inside the scorer during that LocalSearch — `SearchStats`'
/// `score_ns / candidates_scored`, the fastest of 20 searches — i.e. the
/// in-process production path (the batch's placements lowered straight
/// into the search's memo, then three fused passes) at a search's real
/// batch sizes; the lowering is part of it. `search_unique_row_share`
/// (CI-gated) is the share of that search's wave rows the fused pass
/// computes under the search's memo (each distinct node state once per
/// search), and `placement_lower_b10` times the placement lowering of 10
/// of that search's recorded candidates into a fresh search memo.
fn bench_optimizer_search(c: &mut Criterion) {
    use costream::search::{
        BeamSearch, EnsembleScorer, LocalSearch, PlacementSearch, RandomEnumeration, SearchProblem,
    };

    // Trained far enough that predicted costs spread over placements —
    // the recorded best-cost trajectory is meaningless off a constant
    // predictor (epochs 2 would do that).
    let corpus = Corpus::generate(120, 14, FeatureRanges::training(), &SimConfig::default());
    let cfg = TrainConfig {
        epochs: 10,
        ..Default::default()
    };
    let target = Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 2);
    let success = Ensemble::train(&corpus, CostMetric::Success, &cfg, 2);
    let backpressure = Ensemble::train(&corpus, CostMetric::Backpressure, &cfg, 2);
    let scorer = EnsembleScorer::new(&target, &success, &backpressure);

    // A wide placement space (3-way join, 8 heterogeneous hosts) at a
    // tight budget, so strategy quality differences are visible in the
    // recorded best-cost numbers.
    let mut gen = WorkloadGenerator::new(15, FeatureRanges::training());
    let query = gen.query_of(costream_query::generator::QueryTemplate::ThreeWayJoin);
    let cluster = gen.cluster(8);
    let sels = SelectivityEstimator::realistic(16).estimate_query(&query);
    let problem = SearchProblem {
        query: &query,
        cluster: &cluster,
        est_sels: &sels,
        featurization: Featurization::Full,
    };

    const BUDGET: usize = 32;
    const SEED: u64 = 17;
    let strategies: [&dyn PlacementSearch; 3] = [&RandomEnumeration, &BeamSearch, &LocalSearch];
    let mut best_costs = Vec::new();
    for strategy in strategies {
        c.bench_function(&format!("optimizer_search_{}", strategy.name()), |b| {
            b.iter(|| strategy.search(&problem, &scorer, BUDGET, SEED))
        });
        let r = strategy.search(&problem, &scorer, BUDGET, SEED);
        let best = r.best_evaluation().predicted_cost;
        criterion::register_metric(
            &format!("optimizer_search_{}_best_cost", strategy.name()),
            best,
            "predicted_ms",
        );
        eprintln!(
            "  {:>6}: {} candidates scored -> best predicted cost {:.2}",
            strategy.name(),
            r.candidates.len(),
            best
        );
        best_costs.push(best);
    }
    eprintln!(
        "  equal-budget check (<= random {:.2}): beam {:.2}, local {:.2}",
        best_costs[0], best_costs[1], best_costs[2]
    );

    let per_candidate = (0..20)
        .map(|_| {
            let stats = LocalSearch.search(&problem, &scorer, BUDGET, SEED).stats;
            stats.score_ns as f64 / stats.candidates_scored as f64
        })
        .fold(f64::INFINITY, f64::min);
    criterion::register_result("search_score_per_candidate", per_candidate);

    // What the search's memo computed of that search's wave rows (gated —
    // a lowering that stops merging, within a batch or across batches,
    // reads more) and the placement lowering's cost on a 10-candidate
    // batch.
    let recording = Recording {
        inner: &scorer,
        batches: std::sync::Mutex::new(Vec::new()),
        memo: std::sync::Mutex::new(Default::default()),
    };
    LocalSearch.search(&problem, &recording, BUDGET, SEED);
    let memo = *recording.memo.lock().expect("recording lock");
    let batches = recording.batches.into_inner().expect("recording lock");
    criterion::register_metric(
        "search_unique_row_share",
        memo.distinct_wave_rows as f64 / memo.wave_rows as f64,
        "share",
    );
    let config = *target.model_config();
    let n_batches = batches.len();
    let mut b10 = batches
        .into_iter()
        .find(|b| b.len() >= 10)
        .expect("a LocalSearch round scores at least 10 candidates");
    b10.truncate(10);
    let lower = |b: &CandidateBatch| b.hash_cons(config.scheme, config.traditional_rounds);
    eprintln!(
        "  search memo over {n_batches} batches: {} of {} wave rows computed; a 10-candidate batch alone: {:?}",
        memo.distinct_wave_rows,
        memo.wave_rows,
        lower(&b10)
    );
    c.bench_function("placement_lower_b10", |b| b.iter(|| lower(black_box(&b10))));
}

/// A scorer that keeps a copy of every candidate batch a search asks it
/// to score, and what the search's memo held after the last one.
struct Recording<'a, S> {
    inner: &'a S,
    batches: std::sync::Mutex<Vec<CandidateBatch>>,
    memo: std::sync::Mutex<costream::plan::SlotStats>,
}

impl<S: Scorer> Scorer for Recording<'_, S> {
    fn target_metric(&self) -> CostMetric {
        self.inner.target_metric()
    }

    fn score_batch(&self, graphs: Vec<JointGraph>) -> Vec<PlacementScores> {
        self.inner.score_batch(graphs)
    }

    fn score_batch_in(&self, batch: &CandidateBatch, memo: &mut ScoreMemo) -> Vec<PlacementScores> {
        self.batches.lock().expect("recording lock").push(batch.clone());
        let scores = self.inner.score_batch_in(batch, memo);
        *self.memo.lock().expect("recording lock") = memo.stats();
        scores
    }
}

/// The learned co-run interference model's measure → fit loop: wall
/// time of one ridge fit over the default corpus (`interference_fit`),
/// plus its predictive quality on a **held-out** corpus generated from
/// a disjoint seed. The gated metric is `interference_fit_qerror` —
/// the learned median q-error on held-out co-run inflation — and the
/// proportional-share heuristic's q-error on the same set is recorded
/// ungated as the reference the learned model must stay below.
fn bench_interference(c: &mut Criterion) {
    use costream::interference::{proportional_inflation, InterferenceModel};
    use costream::qerror::QErrorSummary;
    use costream_dsps::corun::{generate_corpus, CorunConfig};

    let train = generate_corpus(&CorunConfig::default());
    let held_out = generate_corpus(&CorunConfig {
        seed: 1007,
        ..CorunConfig::default()
    });
    c.bench_function("interference_fit", |b| {
        b.iter(|| black_box(InterferenceModel::fit(black_box(&train), 1.0)))
    });

    let model = InterferenceModel::fit(&train, 1.0);
    let learned: Vec<(f64, f64)> = held_out
        .iter()
        .map(|s| (s.inflation, model.predict_inflation_raw(&s.own, &s.ext, &s.host)))
        .collect();
    let proportional: Vec<(f64, f64)> = held_out
        .iter()
        .map(|s| (s.inflation, proportional_inflation(&s.own, &s.ext)))
        .collect();
    let lq = QErrorSummary::of(&learned);
    let pq = QErrorSummary::of(&proportional);
    criterion::register_metric("interference_fit_qerror", lq.q50, "q50");
    criterion::register_metric("interference_proportional_qerror", pq.q50, "q50");
    eprintln!(
        "  interference pricing on {} held-out co-run samples ({} train): learned {lq} vs proportional {pq}",
        held_out.len(),
        train.len()
    );
}

/// Multi-query co-placement at an *equal scoring budget*: wall time of
/// one joint LocalSearch over 3 queries on an 8-host cluster
/// (`joint_placement`), plus the quality comparison the subsystem exists
/// for — the best contention-aware **total** predicted cost found by the
/// joint search versus the combination of independent per-query searches
/// (each side spends `budget × n_queries` graph predictions). Both
/// totals are recorded as `metrics` entries
/// (`joint_placement_{joint,independent}_total_cost`); the joint one is
/// CI-gated so co-placement quality can only regress visibly. Contended
/// hosts are priced by the **learned interference model** (fitted on
/// the deterministic default co-run corpus), so the gated number tracks
/// the shipping configuration, not the proportional-share fallback.
fn bench_joint_placement(c: &mut Criterion) {
    use costream::interference::InterferenceModel;
    use costream::joint::{JointPlacementSearch, JointQuery, JointSearchProblem};
    use costream::search::{LocalSearch, PlacementSearch, SearchProblem};
    use costream_dsps::corun::{generate_corpus, CorunConfig};
    use costream_query::joint::JointPlacement;

    let corpus = costream::test_fixtures::corpus(120, 14);
    let trio = costream::test_fixtures::trio(&corpus, 10, 2);
    let scorer = trio.scorer();

    // Contention priced by the learned interference model (the shipping
    // configuration), fitted on a deterministic co-run corpus.
    let model = InterferenceModel::fit(&generate_corpus(&CorunConfig::default()), 1.0);
    // Three queries contending for one 8-host cluster.
    let (queries, cluster, sels) = costream::test_fixtures::multi_query_workload(18, 3, 8);
    let jqs = JointQuery::zip(&queries, &sels);
    let problem = JointSearchProblem {
        queries: &jqs,
        cluster: &cluster,
        featurization: Featurization::Full,
        interference: Some(&model),
    };

    const BUDGET: usize = 16;
    const SEED: u64 = 20;
    // Independent: each query searched alone, then deployed together.
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
                LocalSearch.search(&sp, &scorer, BUDGET, SEED).best
            })
            .collect(),
    );

    let strategy = LocalSearch;
    c.bench_function("joint_placement", |b| {
        b.iter(|| strategy.search_joint_seeded(&problem, &scorer, std::slice::from_ref(&combined), BUDGET, SEED))
    });
    let r = strategy.search_joint_seeded(&problem, &scorer, std::slice::from_ref(&combined), BUDGET, SEED);
    let independent_total = r.candidates[0].total_cost();
    let joint_total = r.best_evaluation().total_cost();
    criterion::register_metric("joint_placement_joint_total_cost", joint_total, "predicted_ms_total");
    criterion::register_metric(
        "joint_placement_independent_total_cost",
        independent_total,
        "predicted_ms_total",
    );
    eprintln!(
        "  joint co-placement: {} joint candidates ({} graph predictions) -> total {:.2} vs independent {:.2} ({:.1}% better)",
        r.candidates.len(),
        r.candidates.len() * queries.len(),
        joint_total,
        independent_total,
        100.0 * (1.0 - joint_total / independent_total)
    );
}

/// Replays a drift scenario through the runtime elasticity loop: the
/// adaptive controller (detect → re-plan → migrate) against the
/// deploy-once static baseline, on the same drifting world. The gated
/// metric is the adaptive run's total cost (observed + migration, ms) —
/// a regression means the loop stopped recovering from drift.
fn bench_replay_drift(c: &mut Criterion) {
    use costream::adaptive::{run_adaptive, run_static, AdaptiveConfig, AdaptiveProblem};
    use costream::joint::MigrationCostModel;
    use costream::test_fixtures;
    use costream_dsps::{DriftEvent, DriftScenario};
    use costream_query::joint::JointPlacement;
    use costream_query::placement::Placement;

    let corpus = test_fixtures::corpus(48, 21);
    let fx = test_fixtures::trio(&corpus, 2, 2);
    let scorer = fx.scorer();
    let (queries, cluster, sels) = test_fixtures::multi_query_workload(205, 2, 5);
    // Deploy each query co-located on its own mid-tier host (healthy at
    // deploy time), then lose query 0's host seventy seconds in.
    let mut ranked: Vec<usize> = (0..cluster.len()).collect();
    ranked.sort_by(|&a, &b| {
        cluster
            .host(b)
            .capability_score()
            .total_cmp(&cluster.host(a).capability_score())
            .then(a.cmp(&b))
    });
    let initial = JointPlacement::new(
        cluster.len(),
        vec![
            Placement::new(vec![ranked[1]; queries[0].len()]),
            Placement::new(vec![ranked[2]; queries[1].len()]),
        ],
    );
    let scenario = DriftScenario::new(vec![DriftEvent::HostLoss {
        host: ranked[1],
        at_s: 70.0,
    }]);
    let problem = AdaptiveProblem {
        queries: &queries,
        est_sels: &sels,
        cluster: &cluster,
        featurization: Featurization::Full,
    };
    let mut cfg = AdaptiveConfig::default();
    cfg.replan.budget = 16;
    cfg.replan.sample_size = 6;
    cfg.replan.migration = MigrationCostModel {
        pause_ms_per_op: 50.0,
        per_op_overhead_bytes: 256.0 * 1024.0,
    };

    c.bench_function("replay_drift", |b| {
        b.iter(|| run_adaptive(&problem, &scorer, initial.clone(), &scenario, &cfg, 11))
    });

    let adaptive = run_adaptive(&problem, &scorer, initial.clone(), &scenario, &cfg, 11);
    let fixed = run_static(&problem, &scorer, initial.clone(), &scenario, &cfg, 11);
    criterion::register_metric(
        "replay_drift_adaptive_total_cost",
        adaptive.total_cost_ms(),
        "observed_ms_total",
    );
    criterion::register_metric(
        "replay_drift_static_total_cost",
        fixed.total_cost_ms(),
        "observed_ms_total",
    );
    eprintln!(
        "  drift replay (host loss): adaptive {:.0} ms total ({} firing(s), {} migration(s), {:.0} ms migration cost) vs static {:.0} ms ({:.1}% better)",
        adaptive.total_cost_ms(),
        adaptive.n_firings,
        adaptive.n_migrations,
        adaptive.total_migration_ms(),
        fixed.total_cost_ms(),
        100.0 * (1.0 - adaptive.total_cost_ms() / fixed.total_cost_ms())
    );
}

/// Wide-cluster placement search at 256 hosts, single-query and 3-query
/// joint at an equal scoring budget. Besides the wall-time entries
/// (`search_wide_256_local`, `search_wide_256_joint`), records
/// `search_wide_256_candidates_per_s` (and its joint twin): hosts and
/// swaps considered by the incremental validity rules per second of the
/// whole search, fastest of three (higher is better; the CI-gated
/// search-throughput number).
fn bench_search_wide(c: &mut Criterion) {
    use costream::joint::{JointPlacementSearch, JointQuery, JointSearchProblem};
    use costream::search::{LocalSearch, PlacementSearch, SearchProblem, SearchStats};
    use costream::test_fixtures;
    use std::time::Instant;

    let corpus = test_fixtures::corpus(48, 31);
    let trio = test_fixtures::trio(&corpus, 2, 2);
    let scorer = trio.scorer();
    let wide = test_fixtures::wide_cluster(256);

    const BUDGET: usize = 16;
    const SEED: u64 = 35;
    const REPS: usize = 3;
    let local = LocalSearch;
    // Checks per second of the fastest of `REPS` runs, after a warm-up.
    let checks_per_s = |run: &dyn Fn() -> SearchStats| {
        run();
        let mut best = f64::INFINITY;
        let mut stats = SearchStats::default();
        for _ in 0..REPS {
            let t0 = Instant::now();
            stats = run();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (stats, best, stats.validity_checks() as f64 / best)
    };

    // --- single query on 256 hosts ---
    let (q, _small, sels) = test_fixtures::workload(33, 4);
    let problem = SearchProblem {
        query: &q,
        cluster: &wide,
        est_sels: &sels,
        featurization: Featurization::Full,
    };
    c.bench_function("search_wide_256_local", |b| {
        b.iter(|| local.search(&problem, &scorer, BUDGET, SEED))
    });
    let (stats, wall_s, per_s) = checks_per_s(&|| local.search(&problem, &scorer, BUDGET, SEED).stats);
    criterion::register_metric("search_wide_256_candidates_per_s", per_s, "candidates_per_s");
    eprintln!(
        "  search_wide 256 hosts: {} checks, {} scored in {:.2} ms -> {:.0} candidates/s",
        stats.validity_checks(),
        stats.candidates_scored,
        wall_s * 1e3,
        per_s
    );

    // --- 3-query joint on the same 256 hosts, equal budget ---
    let (queries, _small, jsels) = test_fixtures::multi_query_workload(36, 3, 4);
    let jqs = JointQuery::zip(&queries, &jsels);
    let jproblem = JointSearchProblem {
        queries: &jqs,
        cluster: &wide,
        featurization: Featurization::Full,
        interference: None,
    };
    c.bench_function("search_wide_256_joint", |b| {
        b.iter(|| local.search_joint(&jproblem, &scorer, BUDGET, SEED))
    });
    let (jstats, jwall_s, jper_s) = checks_per_s(&|| local.search_joint(&jproblem, &scorer, BUDGET, SEED).stats);
    criterion::register_metric("search_wide_256_joint_candidates_per_s", jper_s, "candidates_per_s");
    eprintln!(
        "  search_wide 256 hosts joint (3 queries): {} checks in {:.2} ms -> {:.0} candidates/s",
        jstats.validity_checks(),
        jwall_s * 1e3,
        jper_s
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_matmul_kernels, bench_graph_primitives, bench_training_path, bench_simulator, bench_featurize, bench_inference, bench_ensemble_fused, bench_ensemble_train, bench_gbdt, bench_enumeration, bench_optimizer_search, bench_interference, bench_joint_placement, bench_serving, bench_wire_codec, bench_front_load, bench_replay_drift, bench_search_wide
}
criterion_main!(benches);
