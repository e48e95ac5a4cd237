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
//! * Clients submit featurized
//!   [`JointGraph`](costream::graph::JointGraph)s, owned or shared, through
//!   a cheap, cloneable [`ScoreClient`] handle.
//! * A batching core (bounded MPSC submission queue + worker threads
//!   driving the fused inference pass, one `std::sync::mpsc` channel
//!   per request for its answer)
//!   coalesces whatever is queued into one fused batch per tick, bounded
//!   by the inference chunk width
//!   ([`INFERENCE_CHUNK`](costream::model::INFERENCE_CHUNK)) — kernel and
//!   plan costs amortize across concurrent callers exactly like they do
//!   across a training epoch. Batches are sized by backlog, never by a timer: an idle
//!   service scores a lone request at once, and what arrives while the
//!   workers are busy is the next batch.
//! * A [`PlanCache`](costream::plan::PlanCache) of per-graph topology
//!   fragments, shared across workers and all ensemble members: a batch of
//!   any shapes is one plan stitched from them, and a shape seen before
//!   skips topology construction in whatever batch it recurs.
//! * Admission control: when the queue is full, callers get
//!   [`ServeError::Overloaded`] immediately instead of unbounded latency.
//! * Each worker owns one warm
//!   [`ScoreEngine`](costream::fused::ScoreEngine) — the scoring engine
//!   in-process search and `Ensemble::predict_graphs` run too, here with a
//!   memo that lasts one batch — and one coalesced batch serves *all*
//!   ensemble members through the **member-fused** view
//!   ([`FusedEnsemble`](costream::fused::FusedEnsemble)): the members'
//!   weights are stacked once at startup, so every wave runs one wider
//!   matmul per layer and the plan bookkeeping executes once per batch
//!   instead of once per member.
//! * [`ServeScorer`] plugs three services (target metric + the
//!   success/backpressure sanity models) into the placement-search
//!   subsystem of [`costream::search`]: concurrent optimizer runs
//!   submit their candidate batches as pipelined requests and coalesce
//!   inside the services — the serving layer is the optimizer's
//!   backend, not just a demo.
//!
//! Serving is **bitwise identical** to the direct prediction path: a
//! stitched plan equals the one `Ensemble::predict_graphs` builds for the
//! same graphs, a graph's rows never depend on its batch neighbours, the
//! fused view preserves every kernel's per-element accumulation order (see
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

pub use scorer::ServeScorer;
pub use service::{
    DrainOutcome, Lane, LaneStats, ModelState, Pending, ScoreClient, Scored, ScoringService, ServeStats, SubmitOptions,
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
    /// Worker threads draining the queue. Defaults to the machine's
    /// available parallelism. `0` is allowed and means "never drain" —
    /// useful only for testing admission control.
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
    /// Capacity of the shared plan cache, in distinct *graph* shapes: one
    /// topology fragment per shape, stitched into the plan of any batch the
    /// shape recurs in.
    pub plan_cache_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_cap: 1024,
            bulk_queue_cap: 1024,
            plan_cache_cap: 128,
        }
    }
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
/// config, the shared plan cache holds fragments built the same way,
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
