//! # costream-serve — a request-batching scoring service
//!
//! The cost models of the Costream reproduction are only useful in
//! production if placement-scoring queries can be served at high
//! throughput. The inference fast path (`BatchPlan` + `InferenceArena`)
//! is synchronous and single-caller: concurrent clients calling
//! [`Ensemble::predict_graphs`](costream::ensemble::Ensemble::predict_graphs)
//! directly each pay per-call plan construction and tiny-batch kernel
//! launches.
//!
//! This crate puts a dynamic request-coalescing front end — the standard
//! batching architecture of learned-model servers — in front of an
//! ensemble:
//!
//! * Clients submit [`ScoreRequest`]s (a prebuilt
//!   [`JointGraph`](costream::graph::JointGraph), or a query + placement
//!   to featurize) through a cheap, cloneable [`ScoreClient`] handle.
//! * A batching core (bounded MPSC submission queue + worker threads
//!   driving the tape-free fast path, oneshot-style response slots)
//!   coalesces whatever is queued into one fused batch per tick, bounded
//!   by the inference chunk width
//!   ([`INFERENCE_CHUNK`](costream::model::INFERENCE_CHUNK)) — kernel and
//!   plan costs amortize across concurrent callers exactly like they do
//!   across a training epoch. Batches are sized by backlog, never by a timer: an idle
//!   service scores a lone request at once, and what arrives while the
//!   workers are busy is the next batch.
//! * A topology-keyed [`PlanCache`](costream::plan::PlanCache), shared
//!   across workers and all ensemble members, lets recurring graph
//!   shapes skip `BatchPlan` construction entirely.
//! * Admission control: when the queue is full, callers get
//!   [`ServeError::Overloaded`] immediately instead of unbounded latency.
//! * Each worker owns a recycled
//!   [`InferenceArena`](costream_nn::InferenceArena), and one coalesced
//!   batch serves *all* ensemble members through the **member-fused**
//!   view ([`FusedEnsemble`](costream::fused::FusedEnsemble)): the
//!   members' weights are stacked once at startup, so every wave runs
//!   one wider matmul per layer and the plan bookkeeping executes once
//!   per batch instead of once per member.
//! * [`ServeScorer`] plugs three services (target metric + the
//!   success/backpressure sanity models) into the placement-search
//!   subsystem of [`costream::search`]: concurrent optimizer runs
//!   submit their candidate batches as pipelined requests and coalesce
//!   inside the services — the serving layer is the optimizer's
//!   backend, not just a demo.
//!
//! Serving is **bitwise identical** to the direct prediction path: the
//! worker chunks coalesced batches at
//! the same width as `Ensemble::predict_graphs`, the fused view
//! preserves every kernel's per-element accumulation order (see
//! [`costream::fused`] for the identity argument), and member
//! combination is order-identical shared code — the golden tests in
//! `tests/golden.rs` assert exact equality under heavy concurrency for
//! both message-passing schemes.
//!
//! ```no_run
//! use costream::prelude::*;
//! use costream_serve::{ScoringService, ServeConfig};
//!
//! let corpus = Corpus::generate(200, 7, FeatureRanges::training(), &SimConfig::default());
//! let ensemble = Ensemble::train(&corpus, CostMetric::Throughput, &TrainConfig::default(), 3);
//! let service = ScoringService::start(ensemble, ServeConfig::default());
//! let client = service.client(); // Clone per client thread
//! let graph = corpus.items[0].graph(client.featurization());
//! let score = client.score(graph).expect("service alive");
//! println!("predicted throughput: {score}");
//! ```

#![warn(missing_docs)]

mod scorer;
mod service;

pub use costream::plan::CacheStats;
pub use scorer::ServeScorer;
pub use service::{
    DrainOutcome, Lane, LaneStats, ModelState, Pending, ScoreClient, ScoreRequest, Scored, ScoringService, ServeStats,
    SubmitOptions,
};

use std::fmt;

/// Tuning knobs of the batching core.
///
/// The serving model is a *tick* loop that batches **by backlog**: a
/// worker that finds the queue non-empty drains what is there (up to one
/// inference chunk, [`costream::model::INFERENCE_CHUNK`]) and scores it as
/// one fused batch, without waiting for
/// company. Under load requests queue up while the workers score, so
/// batches grow with the backlog by themselves; on an idle service a lone
/// request is answered in a forward pass plus two thread wake-ups.
/// [`ServeStats::batch_hist`] shows which sizes the traffic produced.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the queue. Defaults to the
    /// `COSTREAM_SERVE_WORKERS` environment variable when set, else the
    /// machine's available parallelism. `0` is allowed and means "never
    /// drain" — useful only for testing admission control.
    pub workers: usize,
    /// Bound of the **interactive-lane** submission queue
    /// ([`Lane::Interactive`], the default lane); submissions beyond it
    /// are rejected with [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Bound of the **bulk-lane** submission queue ([`Lane::Bulk`]).
    /// A separate budget, so a bulk re-scoring flood fills its own queue
    /// and gets rejected without consuming interactive admission
    /// capacity — and vice versa.
    pub bulk_queue_cap: usize,
    /// Capacity (distinct batch topologies) of the shared plan cache.
    pub plan_cache_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: default_workers(),
            queue_cap: 1024,
            bulk_queue_cap: 1024,
            plan_cache_cap: 128,
        }
    }
}

/// Parses a `COSTREAM_SERVE_WORKERS` setting. `None` (variable unset)
/// means no override; `Some` must be an unsigned integer.
fn parse_workers(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("not an unsigned integer: {v:?}")),
        },
    }
}

/// Worker-count default: `COSTREAM_SERVE_WORKERS` when set (CI uses this
/// to exercise the multi-worker batching paths on narrow containers),
/// else the machine's available parallelism. An unparsable setting warns
/// on stderr (once per process) and falls back rather than aborting a
/// serving process.
fn default_workers() -> usize {
    let raw = std::env::var("COSTREAM_SERVE_WORKERS").ok();
    match parse_workers(raw.as_deref()) {
        Ok(Some(n)) => return n,
        Ok(None) => {}
        Err(e) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| eprintln!("warning: ignoring COSTREAM_SERVE_WORKERS: {e}"));
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Why a scoring request was not served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control rejected the request: the submission queue is at
    /// capacity. Back off and retry.
    Overloaded,
    /// The service shut down before (or while) handling the request, or
    /// is draining and no longer admits work.
    ShutDown,
    /// The request's deadline ([`SubmitOptions::deadline`]) passed while
    /// it was still queued; it was shed without being scored — an answer
    /// nobody is waiting for anymore must not occupy a worker slot.
    DeadlineExceeded,
    /// Scoring this request panicked (most likely a malformed request
    /// graph — out-of-range edge indices or wrong feature widths). When
    /// a fused batch panics, its requests are rescored individually, so
    /// this error lands only on the request that itself fails; the
    /// worker survives and subsequent traffic is unaffected.
    Internal,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "scoring service overloaded: submission queue full"),
            ServeError::ShutDown => write!(f, "scoring service shut down"),
            ServeError::DeadlineExceeded => {
                write!(f, "request shed: deadline passed before a worker picked it up")
            }
            ServeError::Internal => write!(f, "scoring failed: batch panicked (malformed request graph?)"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Why [`ScoringService::swap_model`] refused a replacement ensemble.
///
/// A swap must be invisible to everything already in flight: queued
/// requests carry plan signatures precomputed under the current model's
/// config, the shared plan cache holds topologies keyed the same way,
/// and clients compare scores across versions — so the replacement must
/// predict the same metric, featurize identically, and be plan-congruent
/// (see [`costream::model::ModelConfig::plan_congruent`]). Different
/// *weights* (retraining, more members) are exactly what a swap is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapError {
    /// The replacement predicts a different [`costream::CostMetric`].
    MetricMismatch,
    /// The replacement expects a different
    /// [`Featurization`](costream::graph::Featurization) — clients'
    /// prebuilt graphs would silently mis-featurize.
    FeaturizationMismatch,
    /// The replacement's [`ModelConfig`](costream::model::ModelConfig)
    /// is not plan-congruent with the served one (different layer widths,
    /// message-passing scheme, or round count).
    ConfigMismatch,
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::MetricMismatch => write!(f, "model swap refused: replacement predicts a different metric"),
            SwapError::FeaturizationMismatch => {
                write!(f, "model swap refused: replacement uses a different featurization")
            }
            SwapError::ConfigMismatch => {
                write!(
                    f,
                    "model swap refused: replacement config is not plan-congruent with the served model"
                )
            }
        }
    }
}

impl std::error::Error for SwapError {}

#[cfg(test)]
mod tests {
    use super::parse_workers;

    /// `COSTREAM_SERVE_WORKERS` parsing: unset, valid settings (`0` is
    /// the admission-control test's "never drain"), and the typos
    /// `default_workers` warns about instead of silently ignoring.
    #[test]
    fn workers_knob_parsing() {
        assert_eq!(parse_workers(None), Ok(None));
        assert_eq!(parse_workers(Some("4")), Ok(Some(4)));
        assert_eq!(parse_workers(Some(" 2 ")), Ok(Some(2)));
        assert_eq!(parse_workers(Some("0")), Ok(Some(0)));
        for typo in ["four", "-1", "4x", ""] {
            let warning = parse_workers(Some(typo)).expect_err(typo);
            assert!(
                warning.contains(&format!("{typo:?}")),
                "warning must quote the value: {warning}"
            );
        }
    }
}
