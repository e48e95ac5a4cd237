//! The clock yardstick: a fixed arithmetic loop that belongs to the harness,
//! timed between the phases of every round.
//!
//! The sandbox is a few cores of a shared host, and how fast those cores run
//! is the host's decision: with its other tenants idle the identical search
//! decision takes 2.2 ms, an hour later 2.6 ms or 2.9 ms, each steadily so
//! for minutes, in every repetition, the fastest included. A time in
//! milliseconds read alone therefore says which state the host was in, to
//! within a fifth. The yardstick is what that state does to code that cannot
//! change: eight independent eight-lane multiply-add chains, nothing but
//! arithmetic, no memory traffic. Its fast bursts move with the host's state
//! (4.1 to 4.9 ns per iteration over the same hours) and with nothing else.
//!
//! Every time and rate the untraced run reports is scaled by
//! `REFERENCE_NS / fast burst`: it is the reading **at the reference
//! clock**, the speed at which the yardstick takes [`REFERENCE_NS`] per
//! iteration. The unscaled readings and the yardstick's own are printed with
//! every run. The scaling removes about half of what the host's state does
//! to a reading (the program also loses cache and memory bandwidth to the
//! neighbours, which arithmetic does not feel); it cannot remove a change to
//! the program, which the yardstick does not run.

use std::hint::black_box;
use std::time::Instant;

/// What an iteration takes on the box the benchmark was sized on, in its
/// usual state: readings are reported as if it always did.
pub const REFERENCE_NS: f64 = 4.3;

const CHAINS: usize = 8;
const LANES: usize = 8;
/// Iterations per burst: about 3 ms, the length of a search decision, so a
/// burst and a decision have the same chance of an undisturbed stretch.
const ITERATIONS: usize = 500_000;

/// Where among a run's bursts, fastest first, the one that is used sits:
/// the very fastest of sixty is now and then a stray (8 % under the next),
/// the one a twentieth of the way down is not.
const FAST_BURST: f64 = 0.05;

pub struct Yardstick {
    chains: [[f32; LANES]; CHAINS],
    /// Nanoseconds per iteration of every burst so far.
    bursts_ns: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            chains: [[1.0; LANES]; CHAINS],
            bursts_ns: Vec::new(),
        }
    }

    /// One burst.
    pub fn read(&mut self) {
        // The factors keep every lane between 1 and 2 forever: x → x·m + c
        // has its fixed point at c / (1 − m) = 2.
        let m = black_box([0.999_999_f32; LANES]);
        let c = black_box([2e-6_f32; LANES]);
        let mut chains = black_box(self.chains);
        let t0 = Instant::now();
        for _ in 0..ITERATIONS {
            for chain in chains.iter_mut() {
                for lane in 0..LANES {
                    chain[lane] = chain[lane] * m[lane] + c[lane];
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / ITERATIONS as f64;
        self.chains = black_box(chains);
        self.bursts_ns.push(ns);
    }

    /// Nanoseconds per iteration of the [`FAST_BURST`] burst so far.
    pub fn fast_ns(&self) -> f64 {
        crate::stats::percentile(&mut self.bursts_ns.clone(), FAST_BURST)
    }

    pub fn bursts(&self) -> usize {
        self.bursts_ns.len()
    }

    /// What a time read in this run is at the reference clock.
    pub fn time_at_reference(&self, measured: f64) -> f64 {
        measured * REFERENCE_NS / self.fast_ns()
    }

    /// What a rate read in this run is at the reference clock.
    pub fn rate_at_reference(&self, measured: f64) -> f64 {
        measured * self.fast_ns() / REFERENCE_NS
    }
}
