//! The batching core: submission queue, worker tick loop, answer channels.
//!
//! Production-robustness additions on top of the original micro-batcher:
//!
//! * **Priority lanes** — two submission queues ([`Lane::Interactive`],
//!   [`Lane::Bulk`]) with independent admission budgets; workers always
//!   drain interactive work first, so bulk re-scoring can never starve a
//!   latency-sensitive placement query, and a full bulk queue rejects
//!   bulk traffic without consuming interactive budget.
//! * **Deadlines** — a request may carry a deadline
//!   ([`SubmitOptions::deadline`]); a request found expired when a worker
//!   picks it up is shed with [`ServeError::DeadlineExceeded`] *before*
//!   occupying a batch slot.
//! * **Versioned hot swap** — workers score through an
//!   `Arc<`[`ModelState`]`>` snapshot taken once per batch;
//!   [`ScoringService::swap_model`] atomically replaces the model, so a
//!   retrained ensemble goes live with zero downtime and every request is
//!   scored against exactly one version (reported in [`Scored::version`]).
//! * **Worker respawn** — a worker that panics outside the per-batch
//!   catch (the batching tick itself) is caught at the top of the worker
//!   thread and the loop restarts, so capacity never silently shrinks;
//!   queue locks recover from poisoning. Requests lost mid-tick are
//!   answered [`ServeError::Internal`] by a drop guard instead of
//!   hanging their callers.
//! * **Graceful drain** — [`ScoringService::shutdown_drain`] stops
//!   admission, lets workers finish everything already queued (bounded
//!   by a deadline), and only then stops the workers; `Drop` remains the
//!   immediate path that fails queued work with [`ServeError::ShutDown`].

use crate::{ServeConfig, ServeError, SwapError};
use costream::ensemble::Ensemble;
use costream::fused::{FusedEnsemble, ScoreEngine};
use costream::graph::{Featurization, JointGraph};
use costream::model::{Scheme, INFERENCE_CHUNK};
use costream::plan::{plan_signature, PlanCache, PlanSignature};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Quality-of-service lane of a request. Workers drain interactive work
/// strictly before bulk work, and each lane has its own admission budget
/// ([`ServeConfig::queue_cap`] vs [`ServeConfig::bulk_queue_cap`]), so
/// bulk floods neither starve nor crowd out interactive traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency-sensitive traffic (a tenant's placement search waiting on
    /// the answer). The default.
    #[default]
    Interactive,
    /// Throughput traffic that tolerates delay and shedding (periodic
    /// re-scoring of deployed placements, corpus sweeps).
    Bulk,
}

impl Lane {
    pub(crate) const COUNT: usize = 2;

    /// Queue index of the lane.
    #[inline]
    pub(crate) fn idx(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Bulk => 1,
        }
    }

    /// Both lanes, in drain-priority order.
    pub const ALL: [Lane; 2] = [Lane::Interactive, Lane::Bulk];
}

/// Per-request submission options.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Priority lane (default [`Lane::Interactive`]).
    pub lane: Lane,
    /// Optional deadline: a request still queued past this instant is
    /// shed with [`ServeError::DeadlineExceeded`] instead of being
    /// scored (load-shedding — an answer nobody is waiting for anymore
    /// must not occupy a batch slot).
    pub deadline: Option<Instant>,
}

/// A served score, tagged with the model version that produced it — the
/// hot-swap observability contract: every request is scored by exactly
/// one [`ModelState`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scored {
    /// The combined ensemble prediction.
    pub score: f64,
    /// Version of the model snapshot that scored this request (1 for the
    /// ensemble the service started with, +1 per successful
    /// [`ScoringService::swap_model`]).
    pub version: u64,
}

/// One immutable served-model snapshot: the ensemble (which owns its
/// member-fused view) and the version number. Workers take an
/// `Arc<ModelState>` per batch, so a swap never tears a batch and every
/// response is attributable to exactly one version.
pub struct ModelState {
    /// The served ensemble.
    pub ensemble: Ensemble,
    /// Monotonic model version (starts at 1).
    pub version: u64,
}

impl ModelState {
    /// The member-fused view the workers score with: the one the
    /// ensemble itself owns — the same one in-process prediction and
    /// placement search run.
    pub fn fused(&self) -> &FusedEnsemble {
        self.ensemble.fused()
    }
}

/// A request's answer, as its [`Pending`] receives it.
type Answer = Result<Scored, ServeError>;

/// A queued request: the featurized graph, its structural signature
/// (computed on the submitting thread; the worker's plan-cache key for
/// the graph's topology fragment), its lane/deadline, and the sending end
/// of its one-answer channel.
///
/// The `Drop` guard answers [`ServeError::Internal`] if the request is
/// dropped unanswered — the safety net that keeps callers from hanging
/// when a worker panics mid-tick with requests in its local batch.
struct QueuedRequest {
    graph: Arc<JointGraph>,
    sig: PlanSignature,
    lane: Lane,
    deadline: Option<Instant>,
    /// Taken by the first answer.
    reply: Option<SyncSender<Answer>>,
    stats: Arc<StatsInner>,
}

impl QueuedRequest {
    /// Answers the request exactly once: the first answer takes the
    /// sender, so a later one (the drop guard's) finds nothing to send on.
    /// The counters are bumped *before* the send, and a channel's send
    /// happens before the receive that gets it, so a client that has its
    /// score already observes itself counted (`answered` is also what the
    /// drain path waits on).
    fn answer(&mut self, result: Answer) {
        let Some(reply) = self.reply.take() else {
            return;
        };
        let counter = match &result {
            Ok(_) => &self.stats.completed[self.lane.idx()],
            Err(ServeError::DeadlineExceeded) => &self.stats.shed[self.lane.idx()],
            Err(_) => &self.stats.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.stats.answered.fetch_add(1, Ordering::Relaxed);
        // The one message fits the channel's one place, so this never
        // blocks; it fails only when the caller dropped its `Pending`.
        let _ = reply.send(result);
    }

    /// Whether the deadline (if any) has passed at `now`.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

impl Drop for QueuedRequest {
    fn drop(&mut self) {
        // No-op when already answered (the common path).
        self.answer(Err(ServeError::Internal));
    }
}

struct QueueState {
    /// One queue per lane, indexed by [`Lane::idx`]; drained in
    /// [`Lane::ALL`] order (interactive strictly first).
    lanes: [VecDeque<QueuedRequest>; Lane::COUNT],
    /// Draining: admission closed, queued work still being finished.
    draining: bool,
    /// Shut down: workers exit as soon as they observe it.
    shutdown: bool,
}

impl QueueState {
    fn queued(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

#[derive(Default)]
struct StatsInner {
    submitted: [AtomicU64; Lane::COUNT],
    rejected: [AtomicU64; Lane::COUNT],
    completed: [AtomicU64; Lane::COUNT],
    shed: [AtomicU64; Lane::COUNT],
    failed: AtomicU64,
    answered: AtomicU64,
    batched_graphs: AtomicU64,
    /// Scored batches per size bucket; their sum is the batch count.
    batch_hist: [AtomicU64; BATCH_HIST_BUCKETS],
    worker_respawns: AtomicU64,
    swaps: AtomicU64,
}

/// Buckets of [`ServeStats::batch_hist`]: batch sizes 1, 2–3, 4–7, 8–15,
/// 16–31, 32–63 and 64+.
const BATCH_HIST_BUCKETS: usize = 7;

/// Histogram bucket of a batch of `len >= 1` requests: `floor(log2(len))`,
/// with everything from 64 up in the last bucket.
fn batch_hist_bucket(len: usize) -> usize {
    (len.ilog2() as usize).min(BATCH_HIST_BUCKETS - 1)
}

struct Shared {
    /// The current served-model snapshot; replaced whole by
    /// [`ScoringService::swap_model`]. Workers take a read lock once per
    /// batch and hold only the `Arc`.
    model: RwLock<Arc<ModelState>>,
    /// What signatures, plans and client-side featurization need of the
    /// model, captured once at start so a submission takes no `model`
    /// lock: all three are swap-invariant ([`ScoringService::swap_model`]
    /// refuses a replacement that differs in any of them).
    featurization: Featurization,
    scheme: Scheme,
    traditional_rounds: usize,
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    /// Signalled on submission, on shutdown/drain, and on panic
    /// injection.
    ready: Condvar,
    cache: PlanCache,
    stats: Arc<StatsInner>,
    /// Test hook: pending injected worker panics (see
    /// [`ScoringService::inject_worker_panic`]).
    panic_requests: AtomicUsize,
}

impl Shared {
    /// Queue lock that recovers from poisoning: a worker panicking while
    /// holding the lock must not take the whole service down with it.
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current model snapshot.
    fn model(&self) -> Arc<ModelState> {
        Arc::clone(&self.model.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Claims one injected panic, if any is pending.
    fn claim_injected_panic(&self) -> bool {
        self.panic_requests
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// Per-lane counter snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneStats {
    /// Requests accepted into this lane's queue.
    pub submitted: u64,
    /// Requests rejected by this lane's admission budget
    /// ([`ServeError::Overloaded`]).
    pub rejected: u64,
    /// Requests scored and answered.
    pub completed: u64,
    /// Requests shed past their deadline
    /// ([`ServeError::DeadlineExceeded`]).
    pub shed: u64,
}

/// A snapshot of serving-layer counters.
#[derive(Clone, Copy, Debug)]
pub struct ServeStats {
    /// Requests accepted into the queue (all lanes).
    pub submitted: u64,
    /// Requests rejected by admission control ([`ServeError::Overloaded`],
    /// all lanes).
    pub rejected: u64,
    /// Requests scored and answered (all lanes).
    pub completed: u64,
    /// Requests shed past their deadline (all lanes).
    pub shed: u64,
    /// Requests answered [`ServeError::Internal`] (scoring panic or a
    /// request lost to a worker panic).
    pub failed: u64,
    /// Coalesced batches scored.
    pub batches: u64,
    /// Total graphs across all scored batches.
    pub batched_graphs: u64,
    /// Scored batches by size, in fixed log₂ buckets: 1, 2–3, 4–7, 8–15,
    /// 16–31, 32–63, 64+. Sums to [`batches`](Self::batches) — the answer
    /// to "why was this batch this size" that the mean alone hides (a
    /// closed-loop caller shows as bucket 0, a pipelined burst as one
    /// large bucket).
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// Worker loops restarted after a panic outside the per-batch catch.
    pub worker_respawns: u64,
    /// Successful model hot swaps.
    pub swaps: u64,
    /// Scored graphs whose topology fragment came from the plan cache.
    pub plan_cache_hits: u64,
    /// Scored graphs whose topology fragment had to be built.
    pub plan_cache_misses: u64,
    /// Per-lane breakdown, indexed like [`Lane::ALL`].
    pub interactive: LaneStats,
    /// Per-lane breakdown of the bulk lane.
    pub bulk: LaneStats,
}

impl ServeStats {
    /// Mean coalesced batch size (0.0 before the first batch).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_graphs as f64 / self.batches as f64
        }
    }

    /// Fraction of scored graphs whose fragment came from the cache (0.0
    /// when unused).
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }
}

/// What [`ScoringService::shutdown_drain`] achieved.
#[derive(Clone, Copy, Debug)]
pub struct DrainOutcome {
    /// Every request accepted before the drain was answered.
    pub drained: bool,
    /// Requests still unanswered at the drain deadline, failed with
    /// [`ServeError::ShutDown`].
    pub abandoned: u64,
}

/// The request-batching scoring service: owns the model snapshot, the
/// shared plan cache and the worker threads. Dropping the service shuts
/// it down immediately: workers are joined and any still-queued request
/// fails with [`ServeError::ShutDown`]; use
/// [`ScoringService::shutdown_drain`] to finish queued work first.
pub struct ScoringService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ScoringService {
    /// Starts the service: spawns `cfg.workers` worker threads around the
    /// ensemble (served as model version 1).
    ///
    /// # Panics
    /// Panics when `queue_cap` or `plan_cache_cap` is zero.
    pub fn start(ensemble: Ensemble, cfg: ServeConfig) -> Self {
        let cache = PlanCache::new(cfg.plan_cache_cap);
        Self::start_with_cache(ensemble, cfg, cache)
    }

    fn start_with_cache(ensemble: Ensemble, cfg: ServeConfig, cache: PlanCache) -> Self {
        assert!(cfg.queue_cap > 0, "queue_cap must be >= 1");
        assert!(cfg.bulk_queue_cap > 0, "bulk_queue_cap must be >= 1");
        // Stack the fused view now, not under the first request.
        ensemble.fused();
        let model = ModelState { ensemble, version: 1 };
        let model_cfg = model.ensemble.model_config();
        let shared = Arc::new(Shared {
            featurization: model.ensemble.featurization(),
            scheme: model_cfg.scheme,
            traditional_rounds: model_cfg.traditional_rounds,
            model: RwLock::new(Arc::new(model)),
            queue: Mutex::new(QueueState {
                lanes: Default::default(),
                draining: false,
                shutdown: false,
            }),
            ready: Condvar::new(),
            cache,
            stats: Arc::new(StatsInner::default()),
            panic_requests: AtomicUsize::new(0),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("costream-serve-{i}"))
                    .spawn(move || worker_thread(&sh))
                    .expect("spawn serving worker")
            })
            .collect();
        ScoringService { shared, workers }
    }

    /// A cheap, cloneable submission handle.
    pub fn client(&self) -> ScoreClient {
        ScoreClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The current served-model snapshot (ensemble + fused view +
    /// version). The snapshot is immutable; a concurrent
    /// [`swap_model`](Self::swap_model) replaces the service's snapshot
    /// but never mutates one already handed out.
    pub fn model(&self) -> Arc<ModelState> {
        self.shared.model()
    }

    /// The current model version (1 until the first successful swap).
    pub fn model_version(&self) -> u64 {
        self.shared.model().version
    }

    /// Hot-swaps the served model: subsequent batches score against
    /// `ensemble` while in-flight batches finish on the snapshot they
    /// already hold — zero downtime, and every response carries the
    /// version that produced it ([`Scored::version`]). It is a running
    /// service's one model-update path; nothing in this repository calls
    /// it outside the hot-swap tests that pin it.
    ///
    /// The replacement must be *serving-compatible* with the current
    /// model: same metric, same featurization, and a
    /// plan-congruent config (see
    /// [`ModelConfig::plan_congruent`](costream::model::ModelConfig::plan_congruent))
    /// — queued requests carry precomputed plan signatures and the plan
    /// cache holds topology fragments built for the current scheme/round
    /// count, both of which must stay valid across the swap.
    ///
    /// Returns the new version on success.
    pub fn swap_model(&self, ensemble: Ensemble) -> Result<u64, SwapError> {
        let current = self.shared.model();
        if ensemble.metric != current.ensemble.metric {
            return Err(SwapError::MetricMismatch);
        }
        if ensemble.featurization() != current.ensemble.featurization() {
            return Err(SwapError::FeaturizationMismatch);
        }
        if !ensemble.model_config().plan_congruent(current.ensemble.model_config()) {
            return Err(SwapError::ConfigMismatch);
        }
        // Stack the fused view outside the write lock (it is the
        // expensive part); the version is assigned under the lock so
        // concurrent swaps serialize cleanly.
        ensemble.fused();
        let mut guard = self.shared.model.write().unwrap_or_else(|e| e.into_inner());
        let version = guard.version + 1;
        *guard = Arc::new(ModelState { ensemble, version });
        self.shared.stats.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }

    /// Snapshot of the serving counters (including plan-cache hit/miss
    /// and the per-lane breakdown).
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        let lane = |l: Lane| LaneStats {
            submitted: s.submitted[l.idx()].load(Ordering::Relaxed),
            rejected: s.rejected[l.idx()].load(Ordering::Relaxed),
            completed: s.completed[l.idx()].load(Ordering::Relaxed),
            shed: s.shed[l.idx()].load(Ordering::Relaxed),
        };
        let (interactive, bulk) = (lane(Lane::Interactive), lane(Lane::Bulk));
        let batch_hist: [u64; BATCH_HIST_BUCKETS] = std::array::from_fn(|i| s.batch_hist[i].load(Ordering::Relaxed));
        ServeStats {
            submitted: interactive.submitted + bulk.submitted,
            rejected: interactive.rejected + bulk.rejected,
            completed: interactive.completed + bulk.completed,
            shed: interactive.shed + bulk.shed,
            failed: s.failed.load(Ordering::Relaxed),
            batches: batch_hist.iter().sum(),
            batched_graphs: s.batched_graphs.load(Ordering::Relaxed),
            batch_hist,
            worker_respawns: s.worker_respawns.load(Ordering::Relaxed),
            swaps: s.swaps.load(Ordering::Relaxed),
            plan_cache_hits: self.shared.cache.hits(),
            plan_cache_misses: self.shared.cache.misses(),
            interactive,
            bulk,
        }
    }

    /// Gracefully drains the service: admission closes immediately
    /// (subsequent submissions fail with [`ServeError::ShutDown`]),
    /// workers finish everything already queued, then stop. Waits at
    /// most `deadline`; whatever is still unanswered then is failed with
    /// [`ServeError::ShutDown`] and counted in
    /// [`DrainOutcome::abandoned`].
    ///
    /// The final join waits for batches already being scored, so the
    /// call can overrun `deadline` by roughly one batch's scoring time.
    pub fn shutdown_drain(&mut self, deadline: Duration) -> DrainOutcome {
        {
            let mut q = self.shared.lock_queue();
            q.draining = true;
        }
        self.shared.ready.notify_all();
        let end = Instant::now() + deadline;
        loop {
            let outstanding = {
                let s = &self.shared.stats;
                let submitted: u64 = s.submitted.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                submitted - s.answered.load(Ordering::Relaxed)
            };
            if outstanding == 0 || Instant::now() >= end {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let abandoned = self.stop_and_fail_queued();
        DrainOutcome {
            drained: abandoned == 0,
            abandoned,
        }
    }

    /// Immediate shutdown: stop workers, fail everything still queued.
    /// Returns how many queued requests were failed with
    /// [`ServeError::ShutDown`].
    fn stop_and_fail_queued(&mut self) -> u64 {
        {
            let mut q = self.shared.lock_queue();
            q.shutdown = true;
        }
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Workers are gone; fail whatever is still queued so no caller
        // blocks forever.
        let mut q = self.shared.lock_queue();
        let mut failed = 0;
        for lane in &mut q.lanes {
            for mut req in lane.drain(..) {
                req.answer(Err(ServeError::ShutDown));
                failed += 1;
            }
        }
        failed
    }

    /// Test/fault-injection hook: makes one worker panic at the top of
    /// its next batching tick — *outside* the per-batch unwind guard —
    /// exercising the respawn path. Hidden from docs; not part of the
    /// serving API.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self) {
        self.shared.panic_requests.fetch_add(1, Ordering::AcqRel);
        self.shared.ready.notify_all();
    }
}

impl Drop for ScoringService {
    fn drop(&mut self) {
        self.stop_and_fail_queued();
    }
}

/// A submission handle. Cloning is cheap (one `Arc`); clone one per
/// client thread.
#[derive(Clone)]
pub struct ScoreClient {
    shared: Arc<Shared>,
}

impl ScoreClient {
    /// The featurization the served ensemble expects — use it when
    /// prebuilding [`JointGraph`]s on the client side. Swap-stable:
    /// [`ScoringService::swap_model`] only accepts replacements with the
    /// same featurization.
    pub fn featurization(&self) -> Featurization {
        self.shared.featurization
    }

    /// Submits a featurized graph without blocking on the result. Pass an
    /// `Arc` to score a shared graph without copying it; a caller that
    /// featurizes ([`JointGraph::build`] with [`ScoreClient::featurization`])
    /// does so on its own thread, so featurization parallelizes across
    /// clients instead of serializing in the workers. Defaults:
    /// [`Lane::Interactive`], no deadline — see [`ScoreClient::submit_with`].
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when the lane's queue is at capacity,
    /// [`ServeError::ShutDown`] when the service stopped or is draining.
    pub fn submit(&self, graph: impl Into<Arc<JointGraph>>) -> Result<Pending, ServeError> {
        self.submit_with(graph, SubmitOptions::default())
    }

    /// Submits a request on an explicit lane and/or with a deadline.
    ///
    /// # Errors
    /// See [`ScoreClient::submit`].
    pub fn submit_with(&self, graph: impl Into<Arc<JointGraph>>, opts: SubmitOptions) -> Result<Pending, ServeError> {
        let graph = graph.into();
        let (reply, answer) = sync_channel(1);
        let sig = plan_signature(&[graph.as_ref()], self.shared.scheme, self.shared.traditional_rounds);
        let lane = opts.lane;
        let cap = match lane {
            Lane::Interactive => self.shared.cfg.queue_cap,
            Lane::Bulk => self.shared.cfg.bulk_queue_cap,
        };
        {
            let mut q = self.shared.lock_queue();
            if q.shutdown || q.draining {
                return Err(ServeError::ShutDown);
            }
            if q.lanes[lane.idx()].len() >= cap {
                self.shared.stats.rejected[lane.idx()].fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded);
            }
            q.lanes[lane.idx()].push_back(QueuedRequest {
                graph,
                sig,
                lane,
                deadline: opts.deadline,
                reply: Some(reply),
                stats: Arc::clone(&self.shared.stats),
            });
            // Counted while the queue lock is held, so `submitted` can
            // never be observed behind `completed`.
            self.shared.stats.submitted[lane.idx()].fetch_add(1, Ordering::Relaxed);
        }
        self.shared.ready.notify_one();
        Ok(Pending { answer })
    }

    /// Submits a request and blocks until it is scored.
    ///
    /// # Errors
    /// See [`ScoreClient::submit`]; additionally fails with
    /// [`ServeError::ShutDown`] when the service stops mid-flight.
    pub fn score(&self, graph: impl Into<Arc<JointGraph>>) -> Result<f64, ServeError> {
        self.submit(graph)?.wait()
    }

    /// The metric the served ensemble predicts (swap-stable).
    pub fn metric(&self) -> costream::CostMetric {
        self.shared.model().ensemble.metric
    }

    /// The current model version (see [`ScoringService::model_version`]).
    pub fn model_version(&self) -> u64 {
        self.shared.model().version
    }
}

/// A submitted-but-unanswered request; [`Pending::wait`] parks until the
/// batch containing it is scored.
pub struct Pending {
    answer: Receiver<Answer>,
}

impl Pending {
    /// Blocks until the request is scored (or the service sheds it /
    /// shuts down).
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] when the service stopped before scoring,
    /// [`ServeError::DeadlineExceeded`] when the request was shed.
    pub fn wait(self) -> Result<f64, ServeError> {
        self.wait_scored().map(|s| s.score)
    }

    /// Like [`Pending::wait`], but returns the score together with the
    /// model version that produced it.
    ///
    /// # Errors
    /// See [`Pending::wait`].
    pub fn wait_scored(self) -> Result<Scored, ServeError> {
        // The request's drop guard answers before its sender can go, so
        // the channel cannot disconnect unanswered; should it, that reads
        // as an internal failure rather than a hang.
        self.answer.recv().unwrap_or(Err(ServeError::Internal))
    }

    /// Takes the answer if the request already has one, without blocking:
    /// what [`Pending::wait_scored`] would return at once. `None` means no
    /// answer yet, and the answer can still be waited for. A caller that
    /// holds several `Pending`s (a connection's writer) uses it to collect
    /// the answered ones before it parks on the first that is not.
    pub fn try_scored(&self) -> Option<Result<Scored, ServeError>> {
        self.answer.try_recv().ok()
    }
}

/// Worker thread body: run the batching loop, and when it panics outside
/// the per-batch catch (a bug in the tick itself, or an injected test
/// panic), restart it instead of silently shrinking serving capacity.
/// Requests a panicking tick had already drained are answered
/// [`ServeError::Internal`] by the [`QueuedRequest`] drop guard during
/// unwind, so their callers never hang.
fn worker_thread(sh: &Shared) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(sh))) {
            Ok(()) => return, // Clean shutdown/drain exit.
            Err(_) => {
                if sh.lock_queue().shutdown {
                    return;
                }
                sh.stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The batching loop: collect a micro-batch per tick, score it, repeat
/// until shutdown. The worker's one-batch scoring engine lives as long as
/// the loop, so after the first few batches its arena, memo tables and
/// state matrix are all reused; its memo forgets every slot before each
/// batch, so it never carries a state across a model swap.
fn worker_loop(sh: &Shared) {
    let mut engine = ScoreEngine::one_batch();
    while let Some(mut batch) = collect_batch(sh) {
        if batch.is_empty() {
            // Everything we drained was past its deadline.
            continue;
        }
        // One model snapshot per batch: every request in this batch —
        // and therefore every response — is produced by exactly this
        // version, even if a swap lands mid-batch.
        let model = sh.model();
        sh.stats.batched_graphs.fetch_add(batch.len() as u64, Ordering::Relaxed);
        sh.stats.batch_hist[batch_hist_bucket(batch.len())].fetch_add(1, Ordering::Relaxed);
        // A batch is at most one inference chunk of any shapes: one plan
        // stitched from per-graph fragments, one fused pass.
        score_batch(sh, &model, &mut batch, &mut engine);
    }
}

/// One batching tick, sized **by backlog**: blocks until at least one
/// request is queued, then drains what is there — up to `INFERENCE_CHUNK`,
/// interactive lane strictly first, shedding expired requests as it
/// goes — and returns it to be scored at once. There is no fill wait:
/// whatever arrives while the workers are busy (or during an idle
/// worker's wake-up) is the next batch, so batch size follows load and a
/// lone request on an idle service costs a forward pass plus two
/// wake-ups. Returns `None` on shutdown, or when draining and the queue
/// is empty.
fn collect_batch(sh: &Shared) -> Option<Vec<QueuedRequest>> {
    let mut q = sh.lock_queue();
    loop {
        if q.shutdown || (q.draining && q.queued() == 0) {
            return None;
        }
        if sh.claim_injected_panic() {
            drop(q);
            panic!("injected worker panic (test hook)");
        }
        if q.queued() > 0 {
            break;
        }
        q = sh.ready.wait(q).unwrap_or_else(|e| e.into_inner());
    }
    // Drain up to one inference chunk of live requests: interactive
    // strictly before bulk, and anything already past its deadline is shed
    // here — before it can occupy a batch slot.
    let now = Instant::now();
    let mut batch = Vec::with_capacity(q.queued().min(INFERENCE_CHUNK));
    for lane in Lane::ALL {
        while batch.len() < INFERENCE_CHUNK {
            let Some(mut req) = q.lanes[lane.idx()].pop_front() else {
                break;
            };
            if req.expired(now) {
                req.answer(Err(ServeError::DeadlineExceeded));
                continue;
            }
            batch.push(req);
        }
    }
    Some(batch)
}

/// Scores one batch under an unwind guard and answers its requests. A
/// panic (most likely a malformed request graph — out-of-range edge
/// indices or wrong feature widths; `JointGraph` fields are public) falls
/// back to scoring the batch's requests *individually*, so only the
/// offending request fails with [`ServeError::Internal`] while co-batched
/// requests still get their scores; the worker survives either way.
fn score_batch(sh: &Shared, model: &ModelState, batch: &mut [QueuedRequest], engine: &mut ScoreEngine) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    match catch_unwind(AssertUnwindSafe(|| score_graphs(sh, model, batch, engine))) {
        Ok(scores) => {
            // Counters land before the answers go out (inside `answer`) so
            // a caller that just received its score observes them already
            // updated.
            for (req, score) in batch.iter_mut().zip(scores) {
                req.answer(Ok(Scored {
                    score,
                    version: model.version,
                }));
            }
        }
        Err(_) => {
            for req in batch {
                match catch_unwind(AssertUnwindSafe(|| {
                    score_graphs(sh, model, std::slice::from_ref(req), engine)
                })) {
                    Ok(scores) => req.answer(Ok(Scored {
                        score: scores[0],
                        version: model.version,
                    })),
                    Err(_) => req.answer(Err(ServeError::Internal)),
                }
            }
        }
    }
}

/// One fused forward for a batch: a plan stitched from the shared
/// fragment cache, looked up by the signatures the requests carry, then
/// all ensemble members at once through the worker's scoring engine
/// (bitwise identical to the sequential oracle — see [`costream::fused`]).
fn score_graphs(sh: &Shared, model: &ModelState, batch: &[QueuedRequest], engine: &mut ScoreEngine) -> Vec<f64> {
    let graphs: Vec<&JointGraph> = batch.iter().map(|r| r.graph.as_ref()).collect();
    let sigs: Vec<PlanSignature> = batch.iter().map(|r| r.sig).collect();
    let plan = sh
        .cache
        .get_or_build_signed(&graphs, &sigs, sh.scheme, sh.traditional_rounds);
    let (_, [scores]) = engine.score(&plan, [model.fused()]);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use costream::prelude::*;
    use costream::test_fixtures;

    /// With every signature keyed alike, each fragment lookup is decided by
    /// the exact structural check alone. A batch mixing every shape of a
    /// corpus, queued before the worker starts so that it is one batch,
    /// still scores bitwise equal to `Ensemble::predict_graphs`.
    #[test]
    fn colliding_signatures_still_score_mixed_batches_bitwise() {
        let corpus = test_fixtures::corpus(24, 78);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..Default::default()
        };
        let ensemble = Ensemble::train(&corpus, CostMetric::Throughput, &cfg, 2);
        let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect();
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        let direct = ensemble.predict_graphs(&refs);

        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let cache = PlanCache::with_signature_mask(cfg.plan_cache_cap, 0);
        let service = ScoringService::start_with_cache(ensemble, cfg, cache);
        let client = service.client();
        for round in 0..2 {
            let pending: Vec<Pending> = graphs.iter().map(|g| client.submit(g.clone()).expect("fits")).collect();
            let shared = Arc::clone(&service.shared);
            let worker = std::thread::spawn(move || {
                let mut batch = collect_batch(&shared).expect("queued work");
                score_batch(&shared, &shared.model(), &mut batch, &mut ScoreEngine::one_batch());
            });
            worker.join().expect("worker");
            for (i, p) in pending.into_iter().enumerate() {
                assert!(p.wait() == Ok(direct[i]), "round {round}, graph {i}");
            }
        }
        let stats = service.stats();
        assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, 2 * graphs.len() as u64);
        assert!(
            stats.plan_cache_misses > 2,
            "distinct shapes must have missed under the mask"
        );
    }

    /// `try_scored` takes the answer: `None` before the request is scored,
    /// the answer once it is, `None` after that. A request that
    /// `try_scored` found unanswered still gets its answer from
    /// `wait_scored`, here parked before the batch is scored.
    #[test]
    fn try_scored_takes_the_answer_once_and_an_unanswered_request_can_still_wait() {
        let corpus = test_fixtures::corpus(8, 79);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 16,
            ..Default::default()
        };
        let ensemble = Ensemble::train(&corpus, CostMetric::Throughput, &cfg, 1);
        let graph = corpus.items[0].graph(ensemble.featurization());
        let want = Scored {
            score: ensemble.predict_graphs(&[&graph])[0],
            version: 1,
        };
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let service = ScoringService::start(ensemble, cfg);
        let client = service.client();
        let polled = client.submit(graph.clone()).expect("fits");
        let waited = client.submit(graph).expect("fits");
        assert_eq!(polled.try_scored(), None, "no answer before the batch is scored");
        assert_eq!(waited.try_scored(), None, "no answer before the batch is scored");
        let waiter = std::thread::spawn(move || waited.wait_scored());
        let mut batch = collect_batch(&service.shared).expect("queued work");
        assert_eq!(batch.len(), 2, "one batch");
        score_batch(
            &service.shared,
            &service.shared.model(),
            &mut batch,
            &mut ScoreEngine::one_batch(),
        );
        assert_eq!(polled.try_scored(), Some(Ok(want)));
        assert_eq!(polled.try_scored(), None, "the answer is taken once");
        assert_eq!(waiter.join().expect("waiter"), Ok(want));
    }

    /// The drop guard: a request answered and then dropped keeps its
    /// answer (the guard's `Internal` loses), and a request lost in a tick
    /// that panics after draining it is answered `Internal` during the
    /// unwind. The counters already say so when the caller has its answer.
    #[test]
    fn the_drop_guard_answers_only_a_request_lost_unanswered() {
        let corpus = test_fixtures::corpus(8, 80);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 16,
            ..Default::default()
        };
        let ensemble = Ensemble::train(&corpus, CostMetric::Throughput, &cfg, 1);
        let graph = corpus.items[0].graph(ensemble.featurization());
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let service = ScoringService::start(ensemble, cfg);
        let client = service.client();

        let scored = client.submit(graph.clone()).expect("fits");
        let mut batch = collect_batch(&service.shared).expect("queued work");
        score_batch(
            &service.shared,
            &service.shared.model(),
            &mut batch,
            &mut ScoreEngine::one_batch(),
        );
        drop(batch);
        assert!(scored.wait().is_ok(), "the score, not the guard's Internal");
        let stats = service.stats();
        assert_eq!((stats.completed, stats.failed), (1, 0));

        let lost = client.submit(graph).expect("fits");
        let shared = Arc::clone(&service.shared);
        let tick = std::thread::spawn(move || {
            let _batch = collect_batch(&shared).expect("queued work");
            panic!("a tick panics with its batch drained");
        });
        assert!(tick.join().is_err(), "the tick panicked");
        assert_eq!(lost.wait(), Err(ServeError::Internal));
        let stats = service.stats();
        assert_eq!((stats.completed, stats.failed), (1, 1));
    }

    /// A worker scores every batch of its life through one engine. Through
    /// one engine, the same mixed batch scored under the served model, a
    /// hot-swapped one of another member count and the first again matches
    /// each model's own `Ensemble::predict_graphs` bitwise: no slot and no
    /// state row crosses a batch or a swap.
    #[test]
    fn one_worker_engine_scores_across_hot_swaps_bitwise() {
        let corpus = test_fixtures::corpus(24, 81);
        let train = |seed, k| {
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 16,
                seed,
                ..Default::default()
            };
            Ensemble::train(&corpus, CostMetric::Throughput, &cfg, k)
        };
        let models = [train(1, 1), train(2, 2), train(1, 1)];
        let graphs: Vec<JointGraph> = corpus
            .items
            .iter()
            .map(|i| i.graph(models[0].featurization()))
            .collect();
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        let direct: Vec<Vec<f64>> = models.iter().map(|m| m.predict_graphs(&refs)).collect();
        assert_ne!(direct[0], direct[1], "fixture must distinguish the models");

        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let [first, rest @ ..] = models;
        let service = ScoringService::start(first, cfg);
        let client = service.client();
        let mut engine = ScoreEngine::one_batch();
        for (step, want) in direct.iter().enumerate() {
            if step > 0 {
                service.swap_model(rest[step - 1].clone()).expect("plan-congruent swap");
            }
            let pending: Vec<Pending> = graphs.iter().map(|g| client.submit(g.clone()).expect("fits")).collect();
            let mut batch = collect_batch(&service.shared).expect("queued work");
            assert_eq!(batch.len(), graphs.len(), "one batch");
            score_batch(&service.shared, &service.shared.model(), &mut batch, &mut engine);
            for (i, p) in pending.into_iter().enumerate() {
                let scored = p.wait_scored().expect("scored");
                assert_eq!(scored.version, step as u64 + 1);
                assert!(scored.score == want[i], "step {step}, graph {i}");
            }
        }
    }
}
