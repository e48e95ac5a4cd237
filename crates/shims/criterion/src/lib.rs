//! Vendored stand-in for `criterion`.
//!
//! Provides the `Criterion` / `criterion_group!` / `criterion_main!`
//! surface the bench harness uses, measured with `std::time::Instant`.
//! Each benchmark warms up, picks an iteration count that fills roughly
//! `measurement_time / sample_size` per sample, records the median
//! nanoseconds per iteration over `sample_size` samples, prints a
//! criterion-style line, and registers the result.
//!
//! [`write_results`] (called by the `criterion_main!` expansion after all
//! groups ran) exports every registered result as JSON — by default to
//! `BENCH_micro.json` in the working directory, or to the path in the
//! `BENCH_JSON` environment variable. Each entry records the op name,
//! ns/iter, and derived throughput (iterations per second), so perf
//! trajectories can be tracked across commits.

pub use std::hint::black_box;

use std::sync::Mutex;
use std::time::{Duration, Instant};

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());
static METRICS: Mutex<Vec<MetricResult>> = Mutex::new(Vec::new());

/// One finished benchmark measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark id.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// One non-timing quality metric recorded alongside the benchmarks
/// (e.g. the predicted cost a search strategy found for its budget).
/// Exported under a separate `metrics` key so timing consumers never
/// misread a value as nanoseconds.
#[derive(Clone, Debug)]
pub struct MetricResult {
    /// Metric id.
    pub name: String,
    /// Measured value, in `unit`.
    pub value: f64,
    /// Unit label (e.g. `"predicted_ms"`).
    pub unit: String,
}

/// Benchmark driver (builder + runner).
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Total target measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up time before measuring.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher {
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            sample_size: self.sample_size,
            ns_per_iter: None,
        };
        f(&mut bencher);
        let ns = bencher.ns_per_iter.expect("bench closure must call Bencher::iter");
        eprintln!("{id:<40} time: [{}]", format_ns(ns));
        RESULTS.lock().expect("results lock").push(BenchResult {
            name: id.to_string(),
            ns_per_iter: ns,
        });
        self
    }
}

/// Timing harness passed to the bench closure.
pub struct Bencher {
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
    ns_per_iter: Option<f64>,
}

impl Bencher {
    /// Measures a closure. The return value is passed through
    /// [`black_box`] so the computation is not optimized away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: run until the warm-up budget is spent, estimating the
        // per-iteration cost as we go.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);

        // Pick iterations per sample to fill measurement_time/sample_size.
        let per_sample_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let iters = ((per_sample_ns / est_ns).round() as u64).max(1);

        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = samples[samples.len() / 2];
        self.ns_per_iter = Some(median);
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Registers an externally measured result alongside the
/// `bench_function` ones, under the same JSON export. For harnesses the
/// closed-loop `Bencher` can't express — load generators measuring
/// wall-clock throughput and latency percentiles across client threads.
pub fn register_result(name: &str, ns_per_iter: f64) {
    eprintln!("{name:<40} time: [{}]", format_ns(ns_per_iter));
    RESULTS.lock().expect("results lock").push(BenchResult {
        name: name.to_string(),
        ns_per_iter,
    });
}

/// Registers a non-timing quality metric (exported under the JSON
/// `metrics` key, with an explicit unit, so it is never confused with a
/// ns/iter timing and gets no derived throughput).
pub fn register_metric(name: &str, value: f64, unit: &str) {
    eprintln!("{name:<40} {value:.2} {unit}");
    METRICS.lock().expect("metrics lock").push(MetricResult {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    });
}

/// Writes all registered results as JSON: a `meta` header recording the
/// runner (core count matters — ensemble training fans its members out
/// over the cores and the serving benches run a worker per core, so
/// ns/iter is only comparable between runners of equal width) followed by the `results` array. Called automatically by the
/// `criterion_main!` expansion.
pub fn write_results() {
    let results = RESULTS.lock().expect("results lock");
    let metrics = METRICS.lock().expect("metrics lock");
    if results.is_empty() && metrics.is_empty() {
        return;
    }
    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_micro.json".to_string());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = format!("{{\n  \"meta\": {{\"cores\": {cores}}},\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"ns_per_iter\": {:.1}, \"throughput_per_s\": {:.3}}}",
            r.name,
            r.ns_per_iter,
            1e9 / r.ns_per_iter
        ));
    }
    out.push_str("\n  ]");
    if !metrics.is_empty() {
        out.push_str(",\n  \"metrics\": [\n");
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    {{\"op\": \"{}\", \"value\": {:.3}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    match std::fs::write(&path, &out) {
        Ok(()) => eprintln!(
            "wrote {} bench results + {} metrics to {path} ({cores} cores)",
            results.len(),
            metrics.len()
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Declares a benchmark group function.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(name = $name; config = $crate::Criterion::default(); targets = $($target),+);
    };
}

/// Declares the benchmark binary's `main`, running all groups and then
/// exporting results.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_results();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_registers() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5));
        c.bench_function("shim_smoke_sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let results = RESULTS.lock().unwrap();
        let r = results.iter().find(|r| r.name == "shim_smoke_sum").expect("registered");
        assert!(r.ns_per_iter > 0.0);
    }

    #[test]
    fn ns_formatting_scales() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("µs"));
        assert!(format_ns(12_000_000.0).contains("ms"));
    }
}
