//! The serve-backed candidate scorer: plugs the batching service into the
//! placement-search subsystem of `costream::search`.
//!
//! A [`ServeScorer`] holds one [`ScoreClient`] per required model — the
//! target metric plus the query-success and backpressure sanity models —
//! and submits every candidate of a batch to all three services as
//! *pipelined* requests before waiting on any of them. That shape is what
//! makes the serving layer the optimizer's backend rather than a demo:
//! when many optimizer runs execute concurrently (the multi-tenant
//! scenario), their in-flight candidate batches coalesce into one fused
//! pass per service batch whatever their shapes, and structurally
//! congruent candidates (same used-host layout) share one topology
//! fragment in the services' [`PlanCache`](costream::plan::PlanCache).
//!
//! Served scores are bitwise identical to the direct
//! [`EnsembleScorer`](costream::search::EnsembleScorer) path (the serving
//! golden tests pin this), so a search driven through a `ServeScorer`
//! returns exactly the placement the direct path would — regardless of
//! worker counts or how requests interleave.
//!
//! A search hands its scorer candidates as placements (a
//! [`CandidateBatch`](costream::graph::CandidateBatch)); the in-process
//! scorer lowers them without building a graph, but a `ServeScorer` must
//! put graphs on the wire, so it builds them itself: it keeps the default
//! `Scorer::score_batch_in`, which instantiates the batch's graphs
//! (`CandidateBatch::graphs`) and scores them through `score_batch`.
//!
//! Multi-query co-placement routes through here unchanged: a
//! [`JointScorer`](costream::joint::JointScorer) built over a
//! `ServeScorer` submits all `candidates × queries` graphs of a joint
//! batch as one pipelined burst, so N tenants' *joint* searches coalesce
//! exactly like single-query ones. Each request's occupancy snapshot
//! travels inside its featurized host rows (contention-degraded only
//! where hosts are shared), so an uncontended graph keeps the structure,
//! and the cached fragment, of its single-query shape. The joint golden tests
//! pin serve-backed joint search bitwise-equal to the direct path across
//! worker counts and concurrent tenants.

use crate::{Pending, ScoreClient, ScoringService, ServeError};
use costream::graph::JointGraph;
use costream::search::{PlacementScores, Scorer};
use costream::CostMetric;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First sleep after an [`ServeError::Overloaded`] rejection.
const INITIAL_BACKOFF: Duration = Duration::from_micros(50);
/// Cap on the exponential backoff between retries.
const MAX_BACKOFF: Duration = Duration::from_millis(5);
/// Default bound on how long one batch may spend retrying admission.
const DEFAULT_SUBMIT_DEADLINE: Duration = Duration::from_secs(10);

/// A [`Scorer`] that scores candidates through three scoring services.
/// Cloning is cheap (three `Arc` handles); clone one per optimizer
/// thread.
#[derive(Clone)]
pub struct ServeScorer {
    target: ScoreClient,
    success: ScoreClient,
    backpressure: ScoreClient,
    metric: CostMetric,
    submit_deadline: Duration,
}

impl ServeScorer {
    /// Creates a scorer from the three services the placement procedure
    /// of Fig. 4 needs.
    ///
    /// # Panics
    /// Panics if the served ensembles' metrics do not match their roles.
    pub fn new(target: &ScoringService, success: &ScoringService, backpressure: &ScoringService) -> Self {
        let (target, success, backpressure) = (target.client(), success.client(), backpressure.client());
        let metric = target.metric();
        assert!(metric.is_regression(), "target must be a regression metric");
        assert_eq!(success.metric(), CostMetric::Success);
        assert_eq!(backpressure.metric(), CostMetric::Backpressure);
        ServeScorer {
            target,
            success,
            backpressure,
            metric,
            submit_deadline: DEFAULT_SUBMIT_DEADLINE,
        }
    }

    /// Bounds how long one candidate batch may spend retrying admission
    /// (exponential backoff) before [`try_score_batch`](Self::try_score_batch)
    /// gives up with [`ServeError::Overloaded`]. The default is 10 s —
    /// generous for a healthy service, but finite, so a saturated or
    /// wedged service sheds the caller instead of live-locking it.
    pub fn with_submit_deadline(mut self, deadline: Duration) -> Self {
        self.submit_deadline = deadline;
        self
    }

    /// Scores a candidate batch, returning a typed error instead of
    /// panicking when the backend is unavailable: `Overloaded` when the
    /// submit deadline expired while the service was shedding load,
    /// `ShutDown` when the service went away (including mid-retry), and
    /// `Internal` when a request itself failed to score.
    pub fn try_score_batch(&self, graphs: Vec<JointGraph>) -> Result<Vec<PlacementScores>, ServeError> {
        let shared: Vec<Arc<JointGraph>> = graphs.into_iter().map(Arc::new).collect();
        // One deadline bounds the whole batch: retry time is a property
        // of the service's health, not of the batch size.
        let deadline = Instant::now() + self.submit_deadline;
        // Submit the whole batch to all three services before waiting on
        // anything. Workers batch by backlog, and a submit is far cheaper
        // than an idle worker's wake-up or a forward pass: most of a
        // service's N requests are queued before its first worker drains,
        // and the rest (and concurrent tenants') while it scores — so the
        // round still lands in few fused batches, with no fill timer.
        let submit_all = |client: &ScoreClient| -> Result<Vec<Pending>, ServeError> {
            shared.iter().map(|g| submit_backoff(client, g, deadline)).collect()
        };
        let cost = submit_all(&self.target)?;
        let success = submit_all(&self.success)?;
        let backpressure = submit_all(&self.backpressure)?;
        cost.into_iter()
            .zip(success)
            .zip(backpressure)
            .map(|((c, s), b)| {
                Ok(PlacementScores {
                    cost: c.wait()?,
                    success: s.wait()?,
                    backpressure: b.wait()?,
                })
            })
            .collect()
    }
}

/// Submits one shared graph, retrying with bounded exponential backoff
/// while the service sheds load. Workers drain the queue independently of
/// this thread, so a short sleep usually suffices; if the queue is still
/// full at `deadline` the overload is returned to the caller instead of
/// live-locking it. A shutdown observed mid-retry surfaces immediately as
/// [`ServeError::ShutDown`].
fn submit_backoff(client: &ScoreClient, graph: &Arc<JointGraph>, deadline: Instant) -> Result<Pending, ServeError> {
    let mut backoff = INITIAL_BACKOFF;
    loop {
        match client.submit(Arc::clone(graph)) {
            Ok(pending) => return Ok(pending),
            Err(ServeError::Overloaded) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(ServeError::Overloaded);
                }
                std::thread::sleep(backoff.min(deadline - now));
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
            Err(e) => return Err(e),
        }
    }
}

impl Scorer for ServeScorer {
    fn target_metric(&self) -> CostMetric {
        self.metric
    }

    /// # Panics
    /// Panics when the backend is unavailable (shut down, or still
    /// overloaded at the submit deadline): a search cannot continue
    /// without its scoring backend. Callers that prefer a typed error use
    /// [`ServeScorer::try_score_batch`].
    fn score_batch(&self, graphs: Vec<JointGraph>) -> Vec<PlacementScores> {
        self.try_score_batch(graphs)
            .unwrap_or_else(|e| panic!("placement search lost its scoring backend: {e}"))
    }
}
