//! Sample reduction, digests and process counters shared by the phases.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of unsorted samples; NaN when empty.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((samples.len() as f64 - 1.0) * q).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// Median of unsorted samples; NaN when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Per item, the fastest of its repetitions. `passes` yields one slice per
/// pass; slot `i` of every slice is the same item doing the same work.
///
/// Why the fastest and not the median: the sandbox is a few cores of a
/// shared host whose neighbours slow every reading by a fifth to a half for
/// minutes at a time, in bursts of milliseconds. Nothing they do makes a
/// reading faster, so over a few dozen repetitions the fastest one is the
/// time the program itself needs; the median is mostly a reading of the
/// neighbours. A change to the program moves every repetition, the fastest
/// included.
pub fn fastest_per_item<'a>(passes: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for pass in passes {
        if best.is_empty() {
            best = pass.to_vec();
        }
        for (b, &x) in best.iter_mut().zip(pass) {
            *b = b.min(x);
        }
    }
    best
}

/// Samples beyond the given percentile — the guide asks for at least ten
/// behind every reported tail.
pub fn beyond(n: usize, q: f64) -> usize {
    ((n as f64) * (1.0 - q)).floor() as usize
}

/// FNV-1a over 64-bit words: the digest the determinism checks compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn slice(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB; NaN where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time the hypervisor took from this guest since boot, summed over
/// cores, in clock ticks (the `steal` column of `/proc/stat`); 0 where it is
/// not reported.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(|l| l.split_whitespace().nth(8)?.parse().ok()))
        .unwrap_or(0)
}

/// Calls `f` in batches until `budget` has elapsed (at least `min_iters`
/// times) and returns the **median** batch time per call in nanoseconds.
/// One untimed warm-up batch fills caches and lazy state first.
pub fn time_ns<R>(budget: Duration, min_iters: usize, mut f: impl FnMut() -> R) -> f64 {
    // Size a batch to ~1/40 of the budget from one probe call.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let probe = t0.elapsed().as_secs_f64().max(1e-9);
    let batch = ((budget.as_secs_f64() / 40.0 / probe) as usize).clamp(1, 1 << 20);
    for _ in 0..batch {
        std::hint::black_box(f());
    }
    let mut per_call = Vec::new();
    let mut iters = 0usize;
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline || iters < min_iters {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
        iters += batch;
    }
    median(&mut per_call)
}
