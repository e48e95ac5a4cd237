//! The runtime elasticity loop: simulate → detect misprediction →
//! re-search → migrate → resume.
//!
//! Costream's placement decision is made once, from a model prediction.
//! A real cluster then *drifts*: ingest rates ramp, operator
//! selectivities shift, hosts slow down or disappear. This module closes
//! the loop at runtime:
//!
//! 1. each **epoch**, the running [`JointPlacement`] is simulated as a
//!    **co-run** (via [`simulate_corun_with_drift`]) on the real
//!    cluster — shared CPU water-fill, shared egress budgets, shared
//!    heap — under the epoch's window of the [`DriftScenario`].
//!    A deploy-time calibration run of the same co-run in a drift-free
//!    world flags **born-bad** plans — unhealthy before any drift, which
//!    first-observation calibration would otherwise silently absorb;
//! 2. a [`MispredictionDetector`] compares the observed cost against
//!    the cost the model predicted when the incumbent plan was chosen,
//!    as a q-error. The detector self-calibrates: the first observation
//!    sets the reference (absorbing the systematic simulator-vs-model
//!    bias), and only a *sustained* relative divergence —
//!    `max(q/reference, reference/q) > q_threshold` for `hysteresis`
//!    consecutive epochs — fires. A cool-down after each re-planning
//!    keeps a single drift event from triggering a migration storm;
//! 3. on firing, the controller refreshes its telemetry (drifted rates,
//!    scaled selectivity estimates, degraded hosts, dead hosts) and
//!    runs the migration-aware [`replan`] warm-started from the
//!    incumbent. The chosen plan is adopted only if it beats staying
//!    put *including* its one-time migration cost; either way the
//!    detector re-arms against the refreshed prediction.
//!
//! With an empty scenario the loop is inert by construction: every
//! epoch re-simulates the identical world with the identical seed, the
//! q-error equals the calibration reference forever, and the detector
//! never fires — zero migrations, matching the drift layer's
//! bitwise-neutrality guarantee one level up.
//!
//! Epochs are independently simulated windows (state does not carry
//! across epoch boundaries); a scenario's wall-clock events are mapped
//! into each window via [`DriftScenario::shifted`]. Scenario event
//! indices (sources, operators) address *every* query of the joint
//! placement — world drift, not per-query drift.

use crate::graph::Featurization;
use crate::joint::{replan, JointQuery, JointScorer, JointSearchProblem, ReplanConfig, ReplanError};
use crate::qerror::q_error;
use crate::search::Scorer;
use costream_dsps::{simulate_corun_with_drift, DriftScenario, SimConfig};
use costream_query::hardware::Cluster;
use costream_query::joint::JointPlacement;
use costream_query::operators::Query;
use costream_query::placement::Placement;

/// Minimum selectivity estimate fed back into re-planning telemetry.
const MIN_EST_SEL: f64 = 1e-4;

/// Detects sustained divergence between observed and predicted cost.
///
/// Stateful: feed one q-error per epoch via [`observe`](Self::observe);
/// call [`rearm`](Self::rearm) after acting on a firing.
#[derive(Clone, Debug)]
pub struct MispredictionDetector {
    /// Relative degradation (vs the calibrated reference q-error) that
    /// counts as a misprediction. Must exceed 1.
    pub q_threshold: f64,
    /// Consecutive over-threshold epochs required before firing —
    /// hysteresis against one-epoch transients.
    pub hysteresis: usize,
    /// Epochs after a [`rearm`](Self::rearm) during which observations
    /// are ignored (the system settles into the new plan).
    pub cooldown_epochs: usize,
    reference: Option<f64>,
    streak: usize,
    cooldown: usize,
}

impl MispredictionDetector {
    /// A detector with the given knobs, initially uncalibrated.
    pub fn new(q_threshold: f64, hysteresis: usize, cooldown_epochs: usize) -> Self {
        assert!(
            q_threshold > 1.0,
            "a threshold <= 1 would fire on the calibration epoch"
        );
        MispredictionDetector {
            q_threshold,
            hysteresis: hysteresis.max(1),
            cooldown_epochs,
            reference: None,
            streak: 0,
            cooldown: 0,
        }
    }

    /// Feeds one epoch's q-error; returns whether the detector fires.
    ///
    /// The first observation after construction or [`rearm`](Self::rearm)
    /// calibrates the reference — a systematic model-vs-reality bias
    /// (the simulator is not the model) therefore never fires by
    /// itself; only *divergence relative to calibration* does. The test
    /// is two-sided (`max(q/ref, ref/q) > q_threshold`): whether the
    /// model's prediction sat above or below reality at plan time, a
    /// drifting world moves the observed cost *away from it* in one
    /// direction or the other, and both directions mean the plan's
    /// premises no longer hold.
    pub fn observe(&mut self, q: f64) -> bool {
        let reference = *self.reference.get_or_insert(q);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            self.streak = 0;
            return false;
        }
        let divergence = (q / reference).max(reference / q);
        if divergence > self.q_threshold {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        self.streak >= self.hysteresis
    }

    /// Resets calibration after a re-planning: the next observation
    /// recalibrates the reference, and a cool-down suppresses firings
    /// while the new plan settles.
    pub fn rearm(&mut self) {
        self.reference = None;
        self.streak = 0;
        self.cooldown = self.cooldown_epochs;
    }

    /// The calibrated reference q-error, if any epoch has been observed.
    pub fn reference(&self) -> Option<f64> {
        self.reference
    }
}

/// Knobs of the adaptive controller.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Control-loop epoch length (seconds of simulated wall clock).
    pub epoch_s: f64,
    /// Number of epochs to run.
    pub n_epochs: usize,
    /// Detector: relative q-error degradation that counts as drift.
    pub q_threshold: f64,
    /// Detector: consecutive bad epochs before firing.
    pub hysteresis: usize,
    /// Detector: quiet epochs after each re-planning.
    pub cooldown_epochs: usize,
    /// The migration-aware re-placement search.
    pub replan: ReplanConfig,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            epoch_s: 60.0,
            n_epochs: 8,
            q_threshold: 1.5,
            hysteresis: 2,
            cooldown_epochs: 1,
            replan: ReplanConfig::default(),
        }
    }
}

/// One epoch of the adaptation trajectory.
#[derive(Clone, Copy, Debug)]
pub struct EpochRecord {
    /// Wall-clock start of the epoch (seconds).
    pub t0_s: f64,
    /// Observed cost over the epoch: summed per-query end-to-end
    /// latency (ms), with a failed query charged the whole epoch
    /// (`epoch_s × 1000` ms).
    pub observed_cost_ms: f64,
    /// The model's predicted steady-state cost the incumbent was chosen
    /// on (ms).
    pub predicted_cost_ms: f64,
    /// q-error between observed and predicted cost.
    pub q: f64,
    /// Whether the detector fired this epoch.
    pub fired: bool,
    /// Whether a firing led to an adopted migration.
    pub migrated: bool,
    /// Modeled one-time cost of that migration (ms; 0 when none).
    pub migration_cost_ms: f64,
    /// Whether a firing's re-planning failed (e.g. every host dead).
    /// The incumbent is kept and the detector re-armed; the controller
    /// keeps running instead of crashing.
    pub replan_failed: bool,
}

/// Trajectory and totals of one controller run.
#[derive(Clone, Debug)]
pub struct AdaptiveRun {
    /// Per-epoch records, in order.
    pub epochs: Vec<EpochRecord>,
    /// The joint placement running after the last epoch.
    pub final_plan: JointPlacement,
    /// Detector firings over the run.
    pub n_firings: usize,
    /// Adopted migrations over the run.
    pub n_migrations: usize,
    /// Firings whose re-planning returned an error (no live hosts).
    pub n_replan_failures: usize,
    /// Deploy-time health check: true when at least one query of the
    /// *initial* plan fails its calibration-epoch simulation in a
    /// drift-free world. A born-bad plan anchors the detector's
    /// reference at deploy time and can never fire on its own badness —
    /// this flag is how the controller distinguishes "born bad" (bad
    /// plan, no drift needed) from "drifted bad" (detector firings).
    pub born_bad: bool,
}

impl AdaptiveRun {
    /// Summed observed cost across epochs (ms).
    pub fn total_observed_ms(&self) -> f64 {
        self.epochs.iter().map(|e| e.observed_cost_ms).sum()
    }

    /// Summed modeled migration cost across epochs (ms).
    pub fn total_migration_ms(&self) -> f64 {
        self.epochs.iter().map(|e| e.migration_cost_ms).sum()
    }

    /// The run's total cost: observed plus migration (ms) — the number
    /// an adaptive run must keep below its static counterpart to pay
    /// for its migrations.
    pub fn total_cost_ms(&self) -> f64 {
        self.total_observed_ms() + self.total_migration_ms()
    }
}

/// The full workload handed to the controller.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveProblem<'a> {
    /// The running queries.
    pub queries: &'a [Query],
    /// Estimated per-operator selectivities, one vector per query.
    pub est_sels: &'a [Vec<f64>],
    /// The (undrifted) hardware.
    pub cluster: &'a Cluster,
    /// Featurization for re-planning candidate graphs.
    pub featurization: Featurization,
}

/// Runs the adaptive controller: simulate each epoch, detect sustained
/// misprediction, re-plan with migration awareness, migrate when it
/// pays. Deterministic in `(problem, initial, scenario, cfg, seed)`.
pub fn run_adaptive(
    problem: &AdaptiveProblem<'_>,
    scorer: &dyn Scorer,
    initial: JointPlacement,
    scenario: &DriftScenario,
    cfg: &AdaptiveConfig,
    seed: u64,
) -> AdaptiveRun {
    run_loop(problem, scorer, initial, scenario, cfg, seed, true)
}

/// The do-nothing baseline: the same epoch simulation under the same
/// scenario, but the initial placement is never revisited — what a
/// deploy-once Costream run experiences under drift.
pub fn run_static(
    problem: &AdaptiveProblem<'_>,
    scorer: &dyn Scorer,
    initial: JointPlacement,
    scenario: &DriftScenario,
    cfg: &AdaptiveConfig,
    seed: u64,
) -> AdaptiveRun {
    run_loop(problem, scorer, initial, scenario, cfg, seed, false)
}

fn run_loop(
    problem: &AdaptiveProblem<'_>,
    scorer: &dyn Scorer,
    initial: JointPlacement,
    scenario: &DriftScenario,
    cfg: &AdaptiveConfig,
    seed: u64,
    adapt: bool,
) -> AdaptiveRun {
    assert_eq!(problem.queries.len(), problem.est_sels.len());
    assert_eq!(initial.len(), problem.queries.len());
    let mut incumbent = initial;
    let mut detector = MispredictionDetector::new(cfg.q_threshold, cfg.hysteresis, cfg.cooldown_epochs);

    // The prediction the incumbent is held against: its model-predicted
    // steady-state cost under the telemetry available at plan time.
    let mut predicted = {
        let jqs = JointQuery::zip(problem.queries, problem.est_sels);
        let jsp = JointSearchProblem {
            queries: &jqs,
            cluster: problem.cluster,
            featurization: problem.featurization,
            interference: None,
        };
        JointScorer::new(&jsp, scorer).evaluate(std::slice::from_ref(&incumbent))[0].total_cost()
    };

    // One fixed simulation seed: epochs differ only through the
    // scenario's window, so a drift-free run observes *identical*
    // epochs and the detector stays silent by construction.
    let sim = SimConfig {
        duration_s: cfg.epoch_s,
        warmup_s: (0.25 * cfg.epoch_s).min(SimConfig::default().warmup_s),
        seed,
        ..SimConfig::deterministic()
    };

    // One epoch's ground truth: the whole joint placement simulated as a
    // **co-run** on the real (drifting) cluster — shared CPU water-fill,
    // shared egress budgets, shared heap — so observed truth does not
    // inherit the pricing heuristic's guesses. The observation is the summed
    // per-query end-to-end latency (Definition 3: includes broker wait,
    // so drift absorbed as backlog growth stays visible), with a failed
    // query charged the whole epoch.
    let observe_epoch = |jp: &JointPlacement, window: &DriftScenario| -> f64 {
        let members: Vec<(&Query, &Placement)> = problem
            .queries
            .iter()
            .enumerate()
            .map(|(q, query)| (query, jp.query(q)))
            .collect();
        simulate_corun_with_drift(&members, problem.cluster, &sim, window)
            .iter()
            .map(|r| {
                if r.metrics.success {
                    r.metrics.e2e_latency_ms
                } else {
                    cfg.epoch_s * 1000.0
                }
            })
            .sum()
    };

    // Deploy-time calibration-epoch health check: simulate the initial
    // plan in a *drift-free* world. A plan with a failing member here is
    // born bad — the detector calibrates its reference on the first
    // (already awful) epoch and can therefore never fire on badness that
    // was there from the start. This check does not trigger migration
    // (no drift has happened; the no-drift-never-migrates contract
    // stands) — it flags.
    let born_bad = {
        let calm = DriftScenario::none();
        let members: Vec<(&Query, &Placement)> = problem
            .queries
            .iter()
            .enumerate()
            .map(|(q, query)| (query, incumbent.query(q)))
            .collect();
        simulate_corun_with_drift(&members, problem.cluster, &sim, &calm)
            .iter()
            .any(|r| !r.metrics.success)
    };

    let mut epochs = Vec::with_capacity(cfg.n_epochs);
    let mut n_firings = 0;
    let mut n_migrations = 0;
    let mut n_replan_failures = 0;
    for epoch in 0..cfg.n_epochs {
        let t0 = epoch as f64 * cfg.epoch_s;
        let window = scenario.shifted(t0);
        let observed = observe_epoch(&incumbent, &window);
        let q = q_error(observed, predicted);
        let fired = adapt && detector.observe(q);
        let mut migrated = false;
        let mut migration_cost_ms = 0.0;
        let mut replan_failed = false;
        if fired {
            n_firings += 1;
            // Refresh telemetry at the epoch boundary and re-plan.
            let t_now = (epoch as f64 + 1.0) * cfg.epoch_s;
            let drifted_queries: Vec<Query> = problem
                .queries
                .iter()
                .map(|query| scenario.query_at(query, t_now))
                .collect();
            let drifted_sels: Vec<Vec<f64>> = problem
                .est_sels
                .iter()
                .map(|sels| {
                    sels.iter()
                        .enumerate()
                        .map(|(op, &s)| (s * scenario.selectivity_factor(op, t_now)).max(MIN_EST_SEL))
                        .collect()
                })
                .collect();
            let drifted_cluster = scenario.cluster_at(problem.cluster, t_now);
            let dead = scenario.dead_hosts(t_now);
            let jqs = JointQuery::zip(&drifted_queries, &drifted_sels);
            let jsp = JointSearchProblem {
                queries: &jqs,
                cluster: &drifted_cluster,
                featurization: problem.featurization,
                interference: None,
            };
            // Amortize the one-time migration charge over the epochs the
            // new plan is expected to keep running: late-run firings face
            // a stricter bar than early ones. The configured horizon acts
            // as a floor so a caller can force longer-sighted replans.
            let mut replan_cfg = cfg.replan;
            let remaining = cfg.n_epochs.saturating_sub(epoch + 1) as f64;
            replan_cfg.horizon_epochs = remaining.max(cfg.replan.horizon_epochs);
            match replan(
                &jsp,
                scorer,
                &incumbent,
                &dead,
                &replan_cfg,
                seed ^ (epoch as u64).wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(1),
            ) {
                Ok(outcome) => {
                    if outcome.migrated {
                        migrated = true;
                        migration_cost_ms = outcome.migration_cost_ms;
                        n_migrations += 1;
                        incumbent = outcome.plan.clone();
                    }
                    // The incumbent (new or confirmed) is now held against
                    // its prediction under *current* telemetry.
                    predicted = outcome.steady_cost;
                    detector.rearm();
                }
                Err(ReplanError::NoLiveHosts | ReplanError::QueryCountMismatch { .. }) => {
                    // Nowhere to place anything (or an incumbent that is
                    // not this problem's): keep the (unservable)
                    // incumbent, record the failure, and re-arm so the
                    // cool-down spaces out retries while the cluster is
                    // gone. The controller survives total cluster loss.
                    replan_failed = true;
                    n_replan_failures += 1;
                    detector.rearm();
                }
            }
        }
        epochs.push(EpochRecord {
            t0_s: t0,
            observed_cost_ms: observed,
            predicted_cost_ms: predicted,
            q,
            fired,
            migrated,
            migration_cost_ms,
            replan_failed,
        });
    }

    AdaptiveRun {
        epochs,
        final_plan: incumbent,
        n_firings,
        n_migrations,
        n_replan_failures,
        born_bad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_calibrates_then_fires_on_sustained_degradation() {
        let mut d = MispredictionDetector::new(1.5, 2, 0);
        assert!(!d.observe(3.0)); // calibration: reference = 3.0
        assert!(!d.observe(3.2)); // within 1.5x of reference
        assert!(!d.observe(5.0)); // first bad epoch — hysteresis holds
        assert!(d.observe(5.0)); // second bad epoch — fire
        assert_eq!(d.reference(), Some(3.0));
    }

    #[test]
    fn detector_tolerates_transients() {
        let mut d = MispredictionDetector::new(1.5, 2, 0);
        assert!(!d.observe(1.0));
        for _ in 0..10 {
            assert!(!d.observe(4.0)); // spike...
            assert!(!d.observe(1.0)); // ...that never sustains
        }
    }

    #[test]
    fn rearm_recalibrates_and_cools_down() {
        let mut d = MispredictionDetector::new(1.5, 1, 2);
        assert!(!d.observe(1.0));
        assert!(d.observe(2.0));
        d.rearm();
        // Cool-down: even large q-errors are ignored for two epochs, and
        // the first of them recalibrates the reference.
        assert!(!d.observe(10.0));
        assert_eq!(d.reference(), Some(10.0));
        assert!(!d.observe(30.0));
        // Cooled down; 12 < 10 * 1.5, so still quiet...
        assert!(!d.observe(12.0));
        // ...but sustained degradation relative to the new reference fires.
        assert!(d.observe(16.0));
    }

    #[test]
    fn detector_is_two_sided() {
        // The model over-predicted at plan time (reference q is large,
        // pred >> obs): a degrading world *shrinks* q. That divergence
        // must fire just like growth would.
        let mut d = MispredictionDetector::new(1.5, 2, 0);
        assert!(!d.observe(100.0)); // calibration
        assert!(!d.observe(20.0)); // first divergent epoch
        assert!(d.observe(20.0)); // sustained — fire
    }

    #[test]
    fn constant_q_error_never_fires() {
        // The no-drift shape: identical epochs, whatever the systematic
        // model-vs-simulator bias happens to be.
        for bias in [0.5, 1.0, 7.0] {
            let mut d = MispredictionDetector::new(1.2, 2, 1);
            for _ in 0..50 {
                assert!(!d.observe(bias));
            }
        }
    }
}
