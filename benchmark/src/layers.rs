//! The traced run: the same rounds with spans on in every other one (the
//! rest are the untraced reference of `trace.overhead_share_*`), the
//! in-process serving path the wire numbers are compared with, and one
//! timing per public function of each layer. Layers are crate names: `front`, `serve`, `core`, `nn`,
//! `query`, `dsps` (`baselines` is on no measured path).
//!
//! Every timing here is the harness calling a layer's public function in a
//! loop and reporting the median batch time per call ([`stats::time_ns`]);
//! counters are the ones the program already returns (`FrontStats`,
//! `ServeStats`, `SearchStats`).

use crate::setup::{mix, Fixtures, Variant, JOINT_QUERIES};
use crate::trace::Tracer;
use crate::{median_of, setup, stats, Measured, Session, Tally, TRACED_ROUNDS_SHARE};
use costream::adaptive::{run_adaptive, run_static, AdaptiveConfig, AdaptiveProblem};
use costream::prelude::*;
use costream_dsps::{simulate, simulate_corun, simulate_with_drift, DriftEvent, DriftScenario};
use costream_front::wire;
use costream_nn::{InferenceArena, Initializer, Mlp, ParamStore, StackedMlp, Tensor, WeightPrecision};
use costream_query::generator::WorkloadGenerator;
use costream_query::joint::{JointNeighborhood, JointPlacement};
use costream_query::placement::neighborhood::{Neighborhood, VisitState};
use costream_query::placement::{sample_valid, Placement};
use costream_query::selectivity::SelectivityEstimator;
use costream_serve::{ScoreClient, ScoringService, ServeConfig, ServeScorer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of the per-layer budget spent on the in-process serving path.
const SHARE_SERVE: f64 = 0.25;
/// Individual timings the rest of the per-layer budget is split over.
const N_TIMINGS: f64 = 29.0;

pub fn traced_run(variant: &Variant, seed: u64, seconds: Duration, m: &mut Measured, tally: &mut Tally) {
    let fx = setup::setup(variant, seed);
    let mut tracer = Tracer::new(true);

    // --- rounds, traced and untraced in turn, so that whatever drifts over
    // the run (caches, clocks, neighbours) is on both sides of the overhead ---
    let mut session = Session::start(variant, &fx, seed);
    let budget = seconds.mul_f64(TRACED_ROUNDS_SHARE);
    let start = Instant::now();
    let mut n = 0;
    while n < 2 || start.elapsed() < budget {
        tracer.set_on(n % 2 == 0);
        session.round(&mut tracer, tally);
        n += 1;
    }
    tracer.set_on(true);
    let (w, s, b, clock) = session.finish(&mut tracer, tally);
    println!(
        "{n} rounds in {:.1} s, every other one traced",
        start.elapsed().as_secs_f64()
    );

    // Fastest repetition of the traced side against that of the untraced side.
    let single_ms = |traced: bool| stats::median(&mut s.single_fastest_ms(traced));
    m.put(
        "trace.overhead_share_wire",
        1.0 - w.best_req_per_s(true) / w.best_req_per_s(false),
    );
    m.put("trace.overhead_share_search", single_ms(true) / single_ms(false) - 1.0);
    // Per-layer readings are as measured; this is the state they were read in.
    m.put("clock.yardstick_ns", clock.fast_ns());

    let wire_rtt_us = w.rtt_all_p50_us;
    m.put("front.sat_p99_ms", w.best_p99_ms());
    m.put("front.connections", w.stats.connections as f64);
    m.put("front.bad_requests", w.stats.bad_requests as f64);
    m.put("front.disconnects", w.stats.disconnects as f64);
    m.put("serve.mean_batch", w.sat_mean_batch);
    m.put("serve.plan_cache_hit_rate", w.sat_plan_cache_hit_rate);
    let shard_sum = |f: fn(&costream_serve::ServeStats) -> u64| w.stats.shards.iter().map(f).sum::<u64>() as f64;
    m.put("serve.rejected", shard_sum(|s| s.rejected));
    m.put("serve.shed", shard_sum(|s| s.shed));
    m.put("serve.failed", shard_sum(|s| s.failed));
    m.put("serve.worker_respawns", w.stats.worker_respawns() as f64);

    // Shares from the totals; counts per pass (every pass does the same work).
    search_shares(m, "core.search", &s.single_stats);
    let per_pass = |total: u64| total as f64 / n as f64;
    m.put(
        "core.search.candidates_scored",
        per_pass(s.single_stats.candidates_scored),
    );
    m.put(
        "core.search.validity_checks",
        per_pass(s.single_stats.validity_checks()),
    );
    m.put("core.search.score_batches", per_pass(s.single_stats.score_batches));
    m.put("core.search.threads", s.single_stats.threads as f64);
    search_shares(m, "core.joint", &s.joint_stats);

    // Functions of the seed alone (they differ from seed to seed by more
    // than any bound could cover, which is why they are not end-to-end).
    m.put("core.placement_sim_speedup", s.sim_speedup);
    m.put("core.cost_qerror_p50", b.cost_qerror_p50);
    m.put(
        "core.placement_p95_ms",
        stats::percentile(&mut s.single_fastest_ms(false), 0.95),
    );
    m.put("core.replan_p50_ms", stats::median(&mut s.replan_fastest_ms()));
    m.put("core.train_epoch_ms", b.train_epoch_ms);
    m.put("core.interference_fit_ms", b.interference_fit_ms);
    m.put("core.interference_qerror_p50", b.interference_qerror_p50);
    m.put("dsps.sim_runs_per_s", median_of(&b.chunks, |c| c.sim_runs_per_s));
    m.put(
        "dsps.corun_samples_per_s",
        median_of(&b.chunks, |c| c.corun_samples_per_s),
    );
    crate::print_seed_determined(&s, &b);

    // --- per-layer timings ---
    let layers = seconds.mul_f64(1.0 - TRACED_ROUNDS_SHARE);
    let each = layers.mul_f64((1.0 - SHARE_SERVE) / N_TIMINGS);
    let mut t = Timer {
        tracer: &mut tracer,
        each,
        m,
        id: 0,
    };
    let serve_rtt_us = serve_layer(&fx, layers.mul_f64(SHARE_SERVE), &mut t, tally);
    let infer_b1_us = core_layer(&fx, seed, &mut t);
    t.m.put("front.rtt_minus_serve_us", wire_rtt_us - serve_rtt_us);
    t.m.put("serve.rtt_minus_infer_us", serve_rtt_us - infer_b1_us);
    front_layer(&fx, &mut t);
    nn_layer(&mut t);
    query_layer(seed, &mut t);
    dsps_layer(seed, &mut t);
    adaptive_replay(&fx, seed, &mut t);

    // --- spans out, per-layer table ---
    let path = std::path::Path::new("benchmark/out").join(format!("trace_{}.json", variant.name));
    match tracer.write(&path, variant.name, seed) {
        Ok(()) => println!("{} spans recorded, written to {}", tracer.len(), path.display()),
        Err(e) => tally.op(Some(format!("could not write {}: {e}", path.display()))),
    }
    println!(
        "{:<14} {:<6} {:<44} {:>9} {:>12} {:>12}",
        "phase", "layer", "span", "count", "total ms", "self ms"
    );
    for ((phase, layer, name), row) in tracer.self_times() {
        println!(
            "{phase:<14} {layer:<6} {name:<44} {:>9} {:>12.3} {:>12.3}",
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
}

fn search_shares(m: &mut Measured, prefix: &str, s: &SearchStats) {
    let wall = (s.validity_ns + s.featurize_ns + s.score_ns).max(1) as f64;
    m.put(&format!("{prefix}.validity_share"), s.validity_ns as f64 / wall);
    m.put(&format!("{prefix}.featurize_share"), s.featurize_ns as f64 / wall);
    m.put(&format!("{prefix}.score_share"), s.score_ns as f64 / wall);
    m.put(
        &format!("{prefix}.score_us_per_candidate"),
        s.score_ns as f64 / 1e3 / s.candidates_scored.max(1) as f64,
    );
}

/// Times one public function per call and records it as a metric and as one
/// span covering the whole timing loop.
struct Timer<'a> {
    tracer: &'a mut Tracer,
    each: Duration,
    m: &'a mut Measured,
    id: u64,
}

impl Timer<'_> {
    /// Median nanoseconds per call of `f`, inside one span named `name`.
    fn measure<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnMut() -> R) -> f64 {
        self.id += 1;
        let each = self.each;
        let (ns, _) = self
            .tracer
            .timed("layers", layer, name, self.id, None, || stats::time_ns(each, 5, f));
        ns
    }

    /// Median time per call of `f`, reported as `name` in `unit` (`ns`,
    /// `us` or `ms`).
    fn time<R>(&mut self, layer: &'static str, name: &'static str, unit: &str, f: impl FnMut() -> R) -> f64 {
        let ns = self.measure(layer, name, f);
        let value = match unit {
            "ns" => ns,
            "us" => ns / 1e3,
            "ms" => ns / 1e6,
            other => unreachable!("no such time unit {other}"),
        };
        self.m.put(name, value);
        value
    }
}

/// 64 graphs of distinct generator topologies, whatever the workload's own
/// pool looks like.
fn sample_graphs(seed: u64, n: usize, feat: Featurization) -> Vec<JointGraph> {
    let mut gen = WorkloadGenerator::new(mix(seed, 40), FeatureRanges::training());
    let mut est = SelectivityEstimator::realistic(mix(seed, 41));
    (0..n)
        .map(|_| {
            let (q, c, p) = gen.workload_item();
            JointGraph::build(&q, &c, &p, &est.estimate_query(&q), feat)
        })
        .collect()
}

/// The same pool as the wire phase, through `ScoreClient` with no socket:
/// depth-1 round trip, then one pipelined caller per core at depth 32.
/// Returns the depth-1 median, µs.
fn serve_layer(fx: &Fixtures, budget: Duration, t: &mut Timer<'_>, tally: &mut Tally) -> f64 {
    let service = ScoringService::start(fx.models.target.clone(), ServeConfig::default());
    let client = service.client();
    let pool: Vec<Arc<JointGraph>> = fx.wire.graphs.iter().cloned().map(Arc::new).collect();
    let expected = &fx.wire.expected;

    let mut rtt_us = Vec::new();
    let (mut sent, mut wrong) = (0u64, 0u64);
    let deadline = Instant::now() + budget.mul_f64(0.4);
    while Instant::now() < deadline {
        let k = sent as usize % pool.len();
        let t0 = Instant::now();
        let ((), _) = t.tracer.timed("layers", "serve", "ScoreClient::score", sent, None, || {
            let score = client.score(Arc::clone(&pool[k]));
            wrong += u64::from(score.map(f64::to_bits) != Ok(expected[k].to_bits()));
        });
        rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
        sent += 1;
    }
    tally.ops(
        sent,
        wrong,
        "serve: ScoreClient::score differs from Ensemble::predict_graphs".into(),
    );
    let rtt = stats::median(&mut rtt_us);
    t.m.put("serve.rtt_p50_us", rtt);

    let callers = crate::nproc().min(2);
    let window = budget.mul_f64(0.4);
    let t0 = Instant::now();
    let per_caller: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|_| s.spawn(|| pipelined(&client, &pool, expected, window)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("serve caller")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let (ok, bad) = per_caller.iter().fold((0, 0), |(a, b), &(x, y)| (a + x, b + y));
    tally.ops(
        ok + bad,
        bad,
        "serve: pipelined ScoreClient::submit failed or scored wrong".into(),
    );
    t.m.put("serve.req_per_s", ok as f64 / wall);

    // The optimizer's backend: three services behind one `Scorer`.
    let success = ScoringService::start(fx.models.success.clone(), ServeConfig::default());
    let backpressure = ScoringService::start(fx.models.backpressure.clone(), ServeConfig::default());
    let scorer = ServeScorer::new(&service, &success, &backpressure);
    let batch: Vec<JointGraph> = fx.wire.graphs.iter().take(32).cloned().collect();
    t.time("serve", "serve.scorer_batch32_us", "us", || {
        scorer.try_score_batch(batch.clone()).expect("services are up")
    });
    rtt
}

/// One closed-loop caller at depth 32 on `ScoreClient::submit`; returns
/// (correct, wrong-or-failed).
fn pipelined(client: &ScoreClient, pool: &[Arc<JointGraph>], expected: &[f64], window: Duration) -> (u64, u64) {
    let deadline = Instant::now() + window;
    let mut in_flight = VecDeque::with_capacity(32);
    let (mut sent, mut ok, mut bad) = (0usize, 0u64, 0u64);
    let mut open = true;
    while open || !in_flight.is_empty() {
        while open && in_flight.len() < 32 {
            let k = sent % pool.len();
            match client.submit(Arc::clone(&pool[k])) {
                Ok(pending) => in_flight.push_back((k, pending)),
                Err(_) => bad += 1,
            }
            sent += 1;
            open = Instant::now() < deadline;
        }
        if let Some((k, pending)) = in_flight.pop_front() {
            if pending.wait().map(f64::to_bits) == Ok(expected[k].to_bits()) {
                ok += 1;
            } else {
                bad += 1;
            }
        }
    }
    (ok, bad)
}

/// Graph, plan and inference entry points of `costream-core`. Returns the
/// single-graph fused forward pass, µs.
fn core_layer(fx: &Fixtures, seed: u64, t: &mut Timer<'_>) -> f64 {
    let target = &fx.models.target;
    let feat = target.featurization();
    let cfg = *target.model_config();
    let (scheme, rounds) = (cfg.scheme, cfg.traditional_rounds);

    let mut gen = WorkloadGenerator::new(mix(seed, 42), FeatureRanges::training());
    let (q, c, p) = gen.workload_item();
    let p2 = gen.placement(&q, &c);
    let sels = SelectivityEstimator::realistic(mix(seed, 43)).estimate_query(&q);
    t.time("core", "core.graph_build_ns", "ns", || {
        JointGraph::build(&q, &c, &p, &sels, feat)
    });
    let template = GraphTemplate::new(&q, &c, &sels, feat);
    let mut graph = template.instantiate(&p);
    let mut flip = false;
    t.time("core", "core.template_patch_ns", "ns", || {
        flip = !flip;
        template.patch(&mut graph, if flip { &p2 } else { &p });
    });

    let graphs = sample_graphs(seed, 64, feat);
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    t.time("core", "core.plan_build_b64_us", "us", || {
        BatchPlan::build(&refs, scheme, rounds)
    });
    let cache = PlanCache::new(ServeConfig::default().plan_cache_cap);
    cache.get_or_build(&refs, scheme, rounds);
    t.time("core", "core.plan_cache_hit_b64_us", "us", || {
        cache.get_or_build(&refs, scheme, rounds)
    });
    t.time("core", "core.plan_signature_ns", "ns", || {
        plan_signature(&refs[..1], scheme, rounds)
    });

    let fused = target.fused();
    let mut arena = InferenceArena::new();
    let plans64 = [BatchPlan::build(&refs, scheme, rounds)];
    t.time("core", "core.fused_infer_b64_us", "us", || {
        fused.predict_plans_arena(&plans64, &mut arena)
    });
    let plans1 = [BatchPlan::build(&refs[..1], scheme, rounds)];
    let b1 = t.time("core", "core.fused_infer_b1_us", "us", || {
        fused.predict_plans_arena(&plans1, &mut arena)
    });
    // The path a search takes when it is not behind the serving layer; the
    // scorer takes its graphs by value, so the clone is part of the call.
    let scorer = fx.models.scorer();
    let batch32: Vec<JointGraph> = graphs[..32].to_vec();
    t.time("core", "core.ensemble_predict_b32_us", "us", || {
        scorer.score_batch(batch32.clone())
    });
    b1
}

/// Wire codec on the frames the wire phase actually sends.
fn front_layer(fx: &Fixtures, t: &mut Timer<'_>) {
    let pooled = wire::Request {
        id: 7,
        lane: wire::WireLane::Interactive,
        deadline_us: None,
        body: wire::RequestBody::ScorePooled { slot: 3 },
    };
    let inline = wire::Request {
        id: 7,
        lane: wire::WireLane::Bulk,
        deadline_us: None,
        body: wire::RequestBody::Score {
            graph: fx.wire.graphs[0].clone(),
        },
    };
    let response = wire::Response::Scored {
        id: 7,
        score: fx.wire.expected[0],
        version: 1,
    };
    t.time("front", "front.encode_request_pooled_ns", "ns", || {
        wire::encode_request(black_box(&pooled))
    });
    t.time("front", "front.encode_request_inline_ns", "ns", || {
        wire::encode_request(black_box(&inline))
    });
    let bytes = wire::encode_request(&inline);
    t.time("front", "front.decode_request_inline_ns", "ns", || {
        wire::decode_request(black_box(&bytes)).expect("own encoding decodes")
    });
    t.time("front", "front.encode_response_ns", "ns", || {
        wire::encode_response(black_box(&response))
    });
    let rbytes = wire::encode_response(&response);
    t.time("front", "front.decode_response_ns", "ns", || {
        wire::decode_response(black_box(&rbytes)).expect("own encoding decodes")
    });
    let mean_frame = fx
        .wire
        .graphs
        .iter()
        .map(|g| {
            let req = wire::Request {
                body: wire::RequestBody::Score { graph: g.clone() },
                ..inline.clone()
            };
            (wire::encode_request(&req).len() + wire::HEADER_BYTES) as f64
        })
        .sum::<f64>()
        / fx.wire.graphs.len() as f64;
    t.m.put("front.inline_frame_bytes", mean_frame);
}

fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i as f32 * 0.137 + seed as f32 * 0.311).sin() * 1.3) - 0.2)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Kernels at the shapes the update MLPs run: forward (`matmul`, fused
/// affine+ReLU, member-stacked MLP) and backward (`t_matmul`, `matmul_t`).
fn nn_layer(t: &mut Timer<'_>) {
    let a = pseudo_random(64, 64, 1);
    let b = pseudo_random(64, 48, 2);
    let bias = pseudo_random(1, 48, 3);
    t.time("nn", "nn.matmul_64x64x48_ns", "ns", || {
        black_box(&a).matmul(black_box(&b))
    });
    // Computed from the shapes, not measured.
    t.m.put("nn.matmul_64x64x48_flops", (2 * 64 * 64 * 48) as f64);
    t.m.put("nn.matmul_64x64x48_bytes", (4 * (64 * 64 + 64 * 48 + 64 * 48)) as f64);
    let mut out = Tensor::zeros(64, 48);
    t.time("nn", "nn.affine_relu_64x64x48_ns", "ns", || {
        Tensor::affine_into(black_box(&a), black_box(&b), black_box(&bias), true, &mut out)
    });
    let xb = pseudo_random(256, 64, 4);
    let gb = pseudo_random(256, 48, 5);
    t.time("nn", "nn.t_matmul_256x64x48_ns", "ns", || {
        black_box(&xb).t_matmul(black_box(&gb))
    });
    t.time("nn", "nn.matmul_t_256x48x64_ns", "ns", || {
        black_box(&gb).matmul_t(black_box(&b))
    });
    let x = pseudo_random(1024, 32, 6);
    let segments: Vec<usize> = (0..1024).map(|i| (i * 7919) % 128).collect();
    let mut sums = Tensor::zeros(128, 32);
    t.time("nn", "nn.segment_sum_1024x32_ns", "ns", || {
        sums.fill_zero();
        black_box(&x).segment_sum_into(black_box(&segments), &mut sums);
    });
    let members: Vec<(ParamStore, Mlp)> = (0..3)
        .map(|k| {
            let mut store = ParamStore::new();
            let mlp = Mlp::new(&mut store, &mut Initializer::new(k), "update", &[64, 48, 32]);
            (store, mlp)
        })
        .collect();
    let refs: Vec<(&ParamStore, &Mlp)> = members.iter().map(|(s, m)| (s, m)).collect();
    let stacked = StackedMlp::stack(&refs, WeightPrecision::Exact);
    let mut arena = InferenceArena::new();
    t.time("nn", "nn.stacked_mlp_b64_us", "us", || {
        let y = stacked.forward_shared(&mut arena, black_box(&a));
        arena.recycle(y);
    });
}

/// Neighborhood enumeration at 512 hosts and the per-placement primitives.
fn query_layer(seed: u64, t: &mut Timer<'_>) {
    let mut gen = WorkloadGenerator::new(mix(seed, 44), FeatureRanges::training());
    let mut rng = StdRng::seed_from_u64(mix(seed, 45));
    let wide = gen.wide_cluster(512);
    let queries: Vec<_> = (0..JOINT_QUERIES).map(|_| gen.query()).collect();
    let placements: Vec<Placement> = queries.iter().map(|q| gen.placement(q, &wide)).collect();

    let nb = Neighborhood::new(&queries[0], &wide);
    let (mut state, mut moves) = (VisitState::empty(), Vec::new());
    let mut checked = 0u64;
    // Validity checks per second of one full enumeration.
    let ns = t.measure("query", "query.neighbors_per_s_512h", || {
        nb.visit_state_into(&placements[0], &mut state);
        checked = nb.neighbors_into(&placements[0], &state, &mut moves).checked();
    });
    t.m.put("query.neighbors_per_s_512h", checked as f64 / (ns / 1e9));

    let refs: Vec<_> = queries.iter().collect();
    let jnb = JointNeighborhood::new(&refs, &wide);
    let jp = JointPlacement::new(wide.len(), placements.clone());
    let (mut states, mut jmoves) = (Vec::new(), Vec::new());
    let ns = t.measure("query", "query.joint_neighbors_per_s_512h", || {
        jnb.visit_states_into(&jp, &mut states);
        checked = jnb.neighbors_into(&jp, &states, &mut jmoves).checked();
    });
    t.m.put("query.joint_neighbors_per_s_512h", checked as f64 / (ns / 1e9));

    let narrow = gen.cluster(8);
    let p = gen.placement(&queries[0], &narrow);
    t.time("query", "query.validate_ns", "ns", || {
        black_box(&p).validate(&queries[0], &narrow)
    });
    t.time("query", "query.sample_valid_us", "us", || {
        sample_valid(&queries[0], &narrow, &mut rng)
    });
    t.time("query", "query.workload_item_us", "us", || gen.workload_item());
}

/// The fluid simulator: one solo query, three co-running, one under drift.
fn dsps_layer(seed: u64, t: &mut Timer<'_>) {
    let mut gen = WorkloadGenerator::new(mix(seed, 46), FeatureRanges::training());
    let sim = SimConfig::default();
    let (q, c, p) = gen.workload_item();
    t.time("dsps", "dsps.simulate_us", "us", || simulate(&q, &c, &p, &sim));
    let drift = DriftScenario::sample(mix(seed, 47), &q, &c, sim.duration_s);
    t.time("dsps", "dsps.simulate_drift_us", "us", || {
        simulate_with_drift(&q, &c, &p, &sim, &drift)
    });
    let shared = gen.cluster(8);
    let queries: Vec<_> = (0..3).map(|_| gen.query()).collect();
    let placements: Vec<Placement> = queries.iter().map(|q| gen.placement(q, &shared)).collect();
    let members: Vec<_> = queries.iter().zip(&placements).collect();
    t.time("dsps", "dsps.simulate_corun3_us", "us", || {
        simulate_corun(&members, &shared, &sim)
    });
}

/// The runtime loop on a host-loss replay: two queries, each co-located on
/// one of the two strongest hosts of a 5-host cluster, the first one's host
/// lost 70 s in. Cost is simulated (observed + migration), adaptive over
/// deploy-once static. Scenarios are drawn until one is healthy at deploy
/// time: on a plan that is born bad the detector has nothing to detect.
fn adaptive_replay(fx: &Fixtures, seed: u64, t: &mut Timer<'_>) {
    const DRAWS: usize = 16;
    let mut gen = WorkloadGenerator::new(mix(seed, 48), FeatureRanges::training());
    let cfg = AdaptiveConfig::default();
    let scorer = fx.models.scorer();
    for draw in 0..DRAWS {
        let queries: Vec<_> = (0..2).map(|_| gen.query()).collect();
        let cluster = gen.cluster(5);
        let sels: Vec<Vec<f64>> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| SelectivityEstimator::realistic(mix(seed, 49 + i as u64)).estimate_query(q))
            .collect();
        let mut ranked: Vec<usize> = (0..cluster.len()).collect();
        ranked.sort_by(|&a, &b| {
            let score = |h: usize| cluster.host(h).capability_score();
            score(b).total_cmp(&score(a)).then(a.cmp(&b))
        });
        let initial = JointPlacement::new(
            cluster.len(),
            vec![
                Placement::new(vec![ranked[0]; queries[0].len()]),
                Placement::new(vec![ranked[1]; queries[1].len()]),
            ],
        );
        let scenario = DriftScenario::new(vec![DriftEvent::HostLoss {
            host: ranked[0],
            at_s: 70.0,
        }]);
        let problem = AdaptiveProblem {
            queries: &queries,
            est_sels: &sels,
            cluster: &cluster,
            featurization: fx.models.target.featurization(),
        };
        let fixed = run_static(&problem, &scorer, initial.clone(), &scenario, &cfg, seed);
        if fixed.born_bad && draw + 1 < DRAWS {
            continue;
        }
        let mut adaptive_ms = 0.0;
        t.time("core", "core.adaptive_replay_ms", "ms", || {
            adaptive_ms = run_adaptive(&problem, &scorer, initial.clone(), &scenario, &cfg, seed).total_cost_ms();
        });
        t.m.put(
            "core.adaptive_vs_static_cost_ratio",
            adaptive_ms / fixed.total_cost_ms(),
        );
        return;
    }
}
