//! Suite mode (no `--workload`): every workload of `BENCHMARK.json`, each
//! in a fresh child process so no run inherits another's heap, caches or
//! threads. `--repeat N` repeats the suite and prints min / median / max and
//! spread over bound per metric; `--sets 2` does that twice and fails when a
//! median of the second set is worse than the first by more than its bound
//! (what `check_repeat.sh` runs).

use crate::spec::{ResultLine, Spec};
use crate::{stats, Args, SEED_DETERMINED};
use std::process::{Command, ExitCode, Stdio};

/// One workload's values per metric over the repeats of one set.
type Samples = Vec<(String, Vec<f64>)>;

/// Runs one workload in a child process; returns its result line and its
/// seed-determined line.
fn run_child(workload: &str, args: &Args, echo: bool) -> Result<(ResultLine, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child for {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    if echo {
        // Everything but the machine-readable last line.
        print!(
            "{}",
            &text[..text.len() - last.len() - usize::from(text.ends_with('\n'))]
        );
    }
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let determined = text
        .lines()
        .find(|l| l.starts_with(SEED_DETERMINED))
        .unwrap_or_default()
        .to_string();
    serde_json::from_str(last)
        .map(|line| (line, determined))
        .map_err(|e| format!("{workload} printed no result line: {e}"))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(values: &mut [f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Share by which `b` is worse than `a` (negative when better).
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

pub fn run(spec: &Spec, args: &Args) -> ExitCode {
    let runs = args.repeat * args.sets;
    for w in &spec.workloads {
        println!("{}: {}", w.name, w.why);
    }
    let mut ok = true;
    // What each workload's first run printed as a function of the seed alone.
    let mut determined: Vec<Option<String>> = vec![None; spec.workloads.len()];
    // sets × workloads × metrics × repeats
    let mut sets: Vec<Vec<Samples>> = Vec::new();
    for set in 0..args.sets {
        let mut per_workload: Vec<Samples> = vec![Vec::new(); spec.workloads.len()];
        for rep in 0..args.repeat {
            for (w, workload) in spec.workloads.iter().enumerate() {
                if runs > 1 {
                    println!("--- set {}, repeat {}: {} ---", set + 1, rep + 1, workload.name);
                }
                match run_child(&workload.name, args, runs == 1) {
                    Ok((line, seed_line)) => {
                        println!(
                            "{}: correct {}, {} attempted, {} failed",
                            workload.name, line.correct, line.attempted, line.failed
                        );
                        ok &= line.correct && line.failed == 0;
                        let first = determined[w].get_or_insert_with(|| seed_line.clone());
                        if *first != seed_line {
                            println!("  must repeat exactly at one seed and did not:\n  {first}\n  {seed_line}");
                            ok = false;
                        }
                        for (name, v) in line.metrics.0 {
                            match per_workload[w].iter_mut().find(|(n, _)| *n == name) {
                                Some((_, values)) => values.push(v.value),
                                None => per_workload[w].push((name, vec![v.value])),
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
        sets.push(per_workload);
    }

    let bound_of = |name: &str| {
        spec.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.better.as_str(), m.bound))
    };
    let unit_of = |name: &str| {
        spec.expected(args.trace)
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
            .to_string()
    };
    for (s, per_workload) in sets.iter_mut().enumerate() {
        for (w, samples) in per_workload.iter_mut().enumerate() {
            println!(
                "\n=== {} (seed {}, set {}) ===",
                spec.workloads[w].name,
                args.seed,
                s + 1
            );
            println!(
                "{:<36} {:>14} {:>14} {:>14} {:<6} {:>8} {:>7}",
                "metric", "min", "median", "max", "unit", "spread", "bound"
            );
            for (name, values) in samples.iter_mut() {
                let (min, max) = (
                    values.iter().copied().fold(f64::INFINITY, f64::min),
                    values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                );
                let med = stats::median(values);
                let spread = quartiles(values).map_or("-".to_string(), |(q1, q2, q3)| format!("{:.4}", (q3 - q1) / q2));
                let bound = bound_of(name).map_or("-".to_string(), |(_, b)| format!("{b:.2}"));
                println!(
                    "{name:<36} {min:>14.4} {med:>14.4} {max:>14.4} {:<6} {spread:>8} {bound:>7}",
                    unit_of(name)
                );
            }
        }
    }

    if let [first, second] = &mut sets[..] {
        println!("\n=== set 2 against set 1: median worsened by (share of set 1) ===");
        for (w, (a, b)) in first.iter_mut().zip(second.iter_mut()).enumerate() {
            for ((name, va), (_, vb)) in a.iter_mut().zip(b.iter_mut()) {
                let Some((better, bound)) = bound_of(name) else {
                    continue;
                };
                let worse = worsening(better, stats::median(va), stats::median(vb));
                let verdict = if worse > bound { "OVER ITS BOUND" } else { "ok" };
                println!(
                    "{:<12} {name:<28} {worse:>+9.4} bound {bound:.2}  {verdict}",
                    spec.workloads[w].name
                );
                ok &= worse <= bound;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
