//! The repo benchmark. See `benchmark/README.md` for what is measured and
//! why, and `BENCHMARK.json` for the contract the numbers are held to.
//!
//! ```text
//! costream-benchmark --workload hot_narrow --seed 11 --seconds 50 --trace 0
//! costream-benchmark --seed 11              # every workload, each in a fresh child
//! costream-benchmark --trace                # the traced run of every workload
//! costream-benchmark --repeat 3 --sets 2    # what check_repeat.sh runs
//! ```

mod layers;
mod modelbuild;
mod placement;
mod setup;
mod spec;
mod stats;
mod suite;
mod trace;
mod wireload;
mod yardstick;

use setup::{Variant, VARIANTS};
use spec::{MetricMap, MetricValue, ResultLine, Spec};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Seed 11 is the default; seed 12 is the hold-out a later claim must also
/// pass on.
const DEFAULT_SEED: u64 = 11;
/// Set-up is repeated and its median reported, so one slow training run
/// does not decide `setup_s`.
const SETUP_REPEATS: usize = 3;
/// First word of the line [`print_seed_determined`] prints.
pub const SEED_DETERMINED: &str = "seed-determined:";
/// Clock ticks per second of the `/proc/stat` counters.
const USER_HZ: f64 = 100.0;
/// Share of `--seconds` the rounds of the traced run get; the per-layer
/// timings get the rest.
pub const TRACED_ROUNDS_SHARE: f64 = 0.7;

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// One operation; `fault` says why it failed.
    pub fn op(&mut self, fault: Option<String>) {
        self.ops(1, u64::from(fault.is_some()), fault.unwrap_or_default());
    }

    /// `attempted` operations of which `failed` failed for `reason`.
    pub fn ops(&mut self, attempted: u64, failed: u64, reason: String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub sets: usize,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds as f64,
        trace: false,
        repeat: 1,
        sets: 1,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--repeat" => args.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--sets" => args.sets = value("a count")?.parse().map_err(|e| format!("--sets: {e}"))?,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    if args.repeat == 0 || !(1..=2).contains(&args.sets) {
        return Err("--repeat must be at least 1 and --sets 1 or 2".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Shipped defaults are what is measured: every `COSTREAM_*` variable
    // changes a default somewhere in the program.
    if let Some((k, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("COSTREAM_")) {
        eprintln!(
            "refusing to measure with {} set: unset every COSTREAM_* variable",
            k.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let spec = Spec::load();
    let args = match parse_args(&spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--repeat N] [--sets 1|2]"
            );
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        None => suite::run(&spec, &args),
        Some(name) => match VARIANTS.iter().find(|v| v.name == name) {
            Some(variant) => run_one(&spec, variant, &args),
            None => {
                let known: Vec<&str> = VARIANTS.iter().map(|v| v.name).collect();
                eprintln!("unknown workload {name}; known: {}", known.join(", "));
                ExitCode::from(2)
            }
        },
    }
}

/// Named values of one run, in report order.
#[derive(Default)]
pub struct Measured(pub Vec<(String, f64)>);

impl Measured {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
}

fn run_one(spec: &Spec, variant: &Variant, args: &Args) -> ExitCode {
    let seconds = Duration::from_secs_f64(args.seconds);
    println!(
        "workload {} = {} + {} + build_model | seed {} | {} s | trace {} | nproc {} | kernel tier {}",
        variant.name,
        variant.wire_phase(),
        variant.search_phase(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        costream_nn::kernel_tier()
    );
    let mut tally = Tally::default();
    let mut measured = Measured::default();
    if args.trace {
        layers::traced_run(variant, args.seed, seconds, &mut measured, &mut tally);
    } else {
        untraced_run(variant, args.seed, seconds, &mut measured, &mut tally);
    }

    println!(
        "operations: {} attempted, {} succeeded, {} failed",
        tally.attempted,
        tally.attempted - tally.failed,
        tally.failed
    );
    for reason in &tally.reasons {
        println!("  failed: {reason}");
    }
    let (extra, missing) = spec.check_names(args.trace, &measured.0);
    if !extra.is_empty() || !missing.is_empty() {
        eprintln!("harness and BENCHMARK.json disagree: not listed {extra:?}, not measured {missing:?}");
        return ExitCode::FAILURE;
    }
    let metrics = spec
        .expected(args.trace)
        .iter()
        .map(|&(name, unit)| {
            let value = measured.0.iter().find(|(n, _)| n == name).expect("checked above").1;
            println!("{name:<36} {value:>16.4} {unit}");
            (
                name.to_string(),
                MetricValue {
                    value,
                    unit: unit.to_string(),
                },
            )
        })
        .collect();
    let line = ResultLine {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics: MetricMap(metrics),
    };
    println!("{}", serde_json::to_string(&line).expect("result lines serialize"));
    ExitCode::SUCCESS
}

/// The three phases of a workload, advanced together one round at a time.
///
/// The sandbox this runs in speeds up and slows down by a fifth to a half
/// over seconds and over minutes. Interleaving the phases in short rounds
/// puts every metric through the same mix of fast and slow stretches, and
/// gives every item of every phase repetitions spread over the whole run, of
/// which the fastest is reported ([`stats::fastest_per_item`]).
pub struct Session<'a> {
    pub wire: wireload::Wire<'a>,
    pub search: placement::Search<'a>,
    pub build: modelbuild::Build,
    /// Read between the phases of every round; see [`yardstick`].
    pub clock: yardstick::Yardstick,
}

impl<'a> Session<'a> {
    pub fn start(variant: &Variant, fx: &'a setup::Fixtures, seed: u64) -> Self {
        Session {
            wire: wireload::Wire::start(variant.wire, variant.wire_phase(), fx),
            search: placement::Search::new(variant.search, variant.search_phase(), fx, seed),
            build: modelbuild::Build::new("build_model", seed),
            clock: yardstick::Yardstick::new(),
        }
    }

    /// One wire slice pair, one search pass, one build chunk.
    pub fn round(&mut self, tracer: &mut Tracer, tally: &mut Tally) {
        self.clock.read();
        self.wire.round(tracer);
        self.clock.read();
        self.search.round(tracer, tally);
        self.clock.read();
        self.build.round(tracer, tally);
    }

    pub fn finish(
        self,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> (
        wireload::WireOutcome,
        placement::SearchOutcome,
        modelbuild::BuildOutcome,
        yardstick::Yardstick,
    ) {
        (
            self.wire.finish(tally),
            self.search.finish(tracer, tally),
            self.build.finish(tracer, tally),
            self.clock,
        )
    }
}

/// Median over rounds of one per-round value.
pub fn median_of<T>(rounds: &[T], value: impl Fn(&T) -> f64) -> f64 {
    stats::median(&mut rounds.iter().map(value).collect::<Vec<_>>())
}

/// The measured run: set-up (repeated, median), then rounds of the three
/// phases with tracing off until `seconds` have passed. Every timing and
/// rate reported is the fastest repetition of the work it times, at the
/// reference clock ([`yardstick`]).
fn untraced_run(variant: &Variant, seed: u64, seconds: Duration, m: &mut Measured, tally: &mut Tally) {
    let mut tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut fx = None;
    for _ in 0..SETUP_REPEATS {
        drop(fx.take());
        let t0 = Instant::now();
        fx = Some(setup::setup(variant, seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let fx = fx.expect("set-up ran");
    let (traces, samples) = setup::setup_work();
    println!(
        "setup: {SETUP_REPEATS} x ({traces} solo traces simulated, {samples} item-epoch-members trained, inputs generated): {setup_s:?} s"
    );
    let setup_s = stats::median(&mut setup_s);

    let mut session = Session::start(variant, &fx, seed);
    let start = Instant::now();
    // Per round: wall seconds and the share of CPU time the hypervisor took
    // (printed so a slow round can be told from a disturbed one).
    let mut weather: Vec<(f64, f64)> = Vec::new();
    while start.elapsed() < seconds {
        let (t0, steal0) = (Instant::now(), stats::steal_ticks());
        session.round(&mut tracer, tally);
        let wall = t0.elapsed().as_secs_f64();
        let stolen = (stats::steal_ticks() - steal0) as f64 / USER_HZ / (wall * nproc() as f64);
        weather.push((wall, stolen));
    }
    let rounds_s = start.elapsed().as_secs_f64();
    let (w, s, b, clock) = session.finish(&mut tracer, tally);
    let rounds = weather.len();
    println!(
        "{rounds} rounds in {rounds_s:.1} s. What each round read over all its samples (the neighbours included; not what is reported):"
    );
    println!("round   wall_s  stolen   req/s  p99_ms  rtt_us  single_ms  p95_ms  joint_ms  train/s");
    for (i, (wall, stolen)) in weather.iter().enumerate() {
        let (wr, sp) = (&w.rounds[i], &s.passes[i]);
        println!(
            "{i:>5}  {wall:>6.2}  {stolen:>6.3}  {:>6.0}  {:>6.2}  {:>6.0}  {:>9.2}  {:>6.2}  {:>8.2}  {:>7.0}",
            wr.sat_req_per_s,
            wr.sat_p99_ms,
            wr.rtt_p50_us,
            stats::median(&mut sp.single_ms.clone()),
            stats::percentile(&mut sp.single_ms.clone(), 0.95),
            stats::median(&mut sp.joint_ms.clone()),
            b.train_samples_per_s[i]
        );
    }
    println!(
        "reported: the fastest repetition of each piece of work, at the reference clock. The yardstick's fast burst of {} took {:.4} ns per iteration (reference {} ns): times x {:.4}, rates x {:.4}",
        clock.bursts(),
        clock.fast_ns(),
        yardstick::REFERENCE_NS,
        clock.time_at_reference(1.0),
        clock.rate_at_reference(1.0)
    );
    println!("{:<28} {:>16} {:>16}", "", "as measured", "at reference");
    let mut time = |name: &str, measured: f64| {
        let scaled = clock.time_at_reference(measured);
        println!("{name:<28} {measured:>16.4} {scaled:>16.4}");
        m.put(name, scaled);
    };
    time("setup_s", setup_s);
    time("score_rtt_p50_us", w.rtt_fastest_p50_us());
    let (mut single, mut joint) = (s.single_fastest_ms(false), s.joint_fastest_ms());
    time("placement_p50_ms", stats::median(&mut single));
    time("joint_placement_p50_ms", stats::median(&mut joint));
    let mut rate = |name: &str, measured: f64| {
        let scaled = clock.rate_at_reference(measured);
        println!("{name:<28} {measured:>16.4} {scaled:>16.4}");
        m.put(name, scaled);
    };
    rate("score_req_per_s", w.best_req_per_s(false));
    rate(
        "train_samples_per_s",
        b.train_samples_per_s.iter().copied().fold(f64::NAN, f64::max),
    );

    println!(
        "{}: {} shards x {} workers; per round one rtt slice (1 conn, depth 1, {} requests) + sat slices for {:?} ({} conn, depth 32, {} requests each)",
        variant.wire_phase(),
        w.shards,
        w.workers_per_shard,
        w.rtt.sent / rounds as u64,
        wireload::SAT_ROUND,
        w.sat_connections,
        w.sat_slice_requests
    );
    println!("  rtt: {:?}", w.rtt);
    println!("  sat: {:?}", w.sat);
    let graphs = w.rtt_fastest_us.len();
    println!(
        "  rtt: {graphs} graphs, {} round trips each; median over graphs of the fastest {:.1} us (median over all round trips {:.1} us)",
        w.rtt.ok / graphs as u64,
        w.rtt_fastest_p50_us(),
        w.rtt_all_p50_us
    );
    let per_slice = w.sat_slice_requests as usize * w.sat_connections;
    println!(
        "  sat: {} slices of {per_slice} responses ({} beyond a slice's p99); median slice {:.0} req/s, p99 {:.2} ms; lowest p99 of a slice {:.2} ms (per-layer: front.sat_p99_ms)",
        w.sat_slices.len(),
        stats::beyond(per_slice, 0.99),
        median_of(&w.sat_slices, |x| x.req_per_s),
        median_of(&w.sat_slices, |x| x.p99_ms),
        w.best_p99_ms()
    );
    println!(
        "  sat mean batch {:.2}, plan-cache hit rate {:.3}",
        w.sat_mean_batch, w.sat_plan_cache_hit_rate
    );

    let (n_single, n_joint, n_replan) = s.per_pass;
    println!(
        "{}: search threads {}; {rounds} passes over {n_single} single ({} beyond their p95) and {n_joint} joint items; {n_replan} re-plans in the first passes only",
        variant.search_phase(),
        s.single_stats.threads,
        stats::beyond(n_single, 0.95),
    );
    println!(
        "  {n_single} single items deployed in the simulator: simulated speed-up of the chosen plan over its heuristic seed {:.4} x (geometric mean)",
        s.sim_speedup
    );
    println!(
        "  per-layer readings of this run, as measured: core.placement_p95_ms {:.3}, core.replan_p50_ms {:.3} over {n_replan} items",
        stats::percentile(&mut single, 0.95),
        stats::median(&mut s.replan_fastest_ms())
    );

    println!(
        "build_model: {} simulations ({:.0} per second in the median chunk), {} item-epoch-members; held-out q-error p50 {:.4} on {} items",
        b.sim_runs,
        median_of(&b.chunks, |c| c.sim_runs_per_s),
        b.train_samples,
        b.cost_qerror_p50,
        b.heldout_items,
    );
    m.put("peak_rss_mb", stats::peak_rss_mb());
    print_seed_determined(&s, &b);
}

/// One line holding everything that is a function of the seed alone; the
/// repeat check compares it between runs as text.
pub fn print_seed_determined(s: &placement::SearchOutcome, b: &modelbuild::BuildOutcome) {
    println!(
        "{SEED_DETERMINED} choices {:016x} sim_speedup {} corpus+predictions {:016x} qerror_p50 {}",
        s.digest.0, s.sim_speedup, b.digest.0, b.cost_qerror_p50
    );
}
