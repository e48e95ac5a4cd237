//! Online monitoring / rescheduling baseline (Aniello et al. \[1\], adapted
//! as in Exp 2b).
//!
//! The baseline starts from a heuristic placement, observes runtime
//! statistics while the query executes, and periodically migrates
//! operators: the hottest operator moves off the most overloaded host, and
//! the endpoints of the busiest cross-host link are co-located. Every
//! migration pays a redeployment penalty (operators and window state must
//! move), which is the "monitoring overhead" the paper reports against
//! Costream's immediate, model-chosen initial placement.

use costream_dsps::{simulate_with_drift, DriftScenario, ExecutionProfile, SimConfig};
use costream_query::hardware::Cluster;
use costream_query::operators::Query;
use costream_query::placement::{sample_valid, Placement};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Seconds of execution the scheduler observes before each rescheduling
/// decision.
pub const OBSERVE_S: f64 = 20.0;
/// Fixed redeployment time per migration round (worker restart,
/// rewiring), seconds.
pub const REDEPLOY_S: f64 = 12.0;
/// Maximum rescheduling rounds.
pub const MAX_ROUNDS: usize = 6;
/// Relative improvement below which the scheduler stops adapting.
pub const MIN_IMPROVEMENT: f64 = 0.03;

/// One step of the monitoring trajectory.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// Wall-clock seconds since the query was started (monitoring +
    /// migration time spent so far).
    pub elapsed_s: f64,
    /// Processing latency of the placement active at this time (ms).
    pub processing_latency_ms: f64,
}

/// Result of running the monitoring scheduler on one query.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MonitoringRun {
    /// Latency trajectory, starting with the initial heuristic placement.
    pub trajectory: Vec<TrajectoryPoint>,
    /// The final placement.
    pub final_placement: Placement,
}

impl MonitoringRun {
    /// First time at which the trajectory reaches `target_ms` (or slightly
    /// better); `None` when it never becomes competitive. This is the
    /// "monitoring overhead" axis of Fig. 10.
    pub fn time_to_reach(&self, target_ms: f64) -> Option<f64> {
        self.trajectory
            .iter()
            .find(|p| p.processing_latency_ms <= target_ms * 1.05)
            .map(|p| p.elapsed_s)
    }
}

/// Runs the online monitoring scheduler for one query.
pub fn run_monitoring(query: &Query, cluster: &Cluster, sim: &SimConfig, seed: u64) -> MonitoringRun {
    run_monitoring_under_drift(query, cluster, sim, seed, &DriftScenario::none())
}

/// Runs the online monitoring scheduler while a [`DriftScenario`]
/// perturbs the world: each observation round simulates the scenario's
/// window starting at the round's wall-clock offset (observation and
/// migration time included), so the reactive baseline experiences the
/// same drifting world as the model-driven adaptive controller it is
/// compared against. With the empty scenario this is exactly
/// [`run_monitoring`] — bitwise, trajectory for trajectory.
fn run_monitoring_under_drift(
    query: &Query,
    cluster: &Cluster,
    sim: &SimConfig,
    seed: u64,
    scenario: &DriftScenario,
) -> MonitoringRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut placement = sample_valid(query, cluster, &mut rng)
        .unwrap_or_else(|| costream_query::placement::colocate_on_strongest(query, cluster));
    let profile = ExecutionProfile::of(query);

    let mut elapsed = 0.0;
    let mut trajectory = Vec::new();
    let mut last_latency = f64::INFINITY;

    for round in 0..=MAX_ROUNDS {
        let result = simulate_with_drift(
            query,
            cluster,
            &placement,
            &sim.with_seed(seed.wrapping_add(round as u64)),
            &scenario.shifted(elapsed),
        );
        let latency = if result.metrics.success {
            result.metrics.processing_latency_ms
        } else {
            // A crashed redeployment is observed as a worst-case latency.
            sim.duration_s * 1000.0
        };
        trajectory.push(TrajectoryPoint {
            elapsed_s: elapsed,
            processing_latency_ms: latency,
        });

        if round == MAX_ROUNDS {
            break;
        }
        // Converged?
        if latency.is_finite() && last_latency.is_finite() && last_latency != f64::INFINITY {
            let improvement = (last_latency - latency) / last_latency.max(1e-9);
            if improvement.abs() < MIN_IMPROVEMENT && round > 0 {
                break;
            }
        }
        last_latency = latency;

        // --- rescheduling decision from runtime statistics only ---
        let trace = &result.trace;
        let mut assignment = placement.assignment().to_vec();
        let mut moved = false;

        // 1. Offload the hottest operator from an overloaded host to the
        //    least-utilized host.
        if let Some(hot_host) = trace.hottest_host() {
            if trace.host_utilization[hot_host] > 0.7 {
                let victim = (0..query.len())
                    .filter(|&o| assignment[o] == hot_host)
                    .max_by(|&a, &b| {
                        trace.op_cpu_cores[a]
                            .partial_cmp(&trace.op_cpu_cores[b])
                            .expect("finite demand")
                    });
                let target = (0..cluster.len()).min_by(|&a, &b| {
                    trace.host_utilization[a]
                        .partial_cmp(&trace.host_utilization[b])
                        .expect("finite util")
                });
                if let (Some(v), Some(t)) = (victim, target) {
                    if t != hot_host {
                        assignment[v] = t;
                        moved = true;
                    }
                }
            }
        }
        // 2. Co-locate the endpoints of the busiest cross-host link
        //    (traffic-aware scheduling of [1]).
        if !moved {
            if let Some(e) = trace.busiest_edge() {
                if trace.edge_bytes_per_s[e] > 0.0 {
                    let (a, b) = query.edges()[e];
                    if assignment[a] != assignment[b] {
                        // Move the upstream operator next to the consumer.
                        assignment[a] = assignment[b];
                        moved = true;
                    }
                }
            }
        }
        if !moved {
            break;
        }

        // Migration penalty: redeploy time plus shipping the operator
        // state of the moved operators across the network.
        let state_bytes: f64 = (0..query.len())
            .filter(|&o| assignment[o] != placement.host_of(o))
            .map(|o| profile.state_bytes(o) + 2.0 * 1024.0 * 1024.0)
            .sum();
        let min_bw_bytes = cluster
            .hosts()
            .iter()
            .map(|h| h.bandwidth_mbits * 1e6 / 8.0)
            .fold(f64::INFINITY, f64::min)
            .max(1.0);
        elapsed += OBSERVE_S + REDEPLOY_S + state_bytes / min_bw_bytes;
        placement = Placement::new(assignment);
    }

    MonitoringRun {
        trajectory,
        final_placement: placement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costream_query::generator::WorkloadGenerator;
    use costream_query::ranges::FeatureRanges;

    #[test]
    fn monitoring_produces_a_trajectory() {
        let mut g = WorkloadGenerator::new(1, FeatureRanges::training());
        let q = g.query();
        let c = g.cluster(4);
        let run = run_monitoring(&q, &c, &SimConfig::deterministic(), 2);
        assert!(!run.trajectory.is_empty());
        assert_eq!(run.trajectory[0].elapsed_s, 0.0);
        let best = run
            .trajectory
            .iter()
            .map(|p| p.processing_latency_ms)
            .fold(f64::INFINITY, f64::min);
        assert!(best.is_finite());
        // Elapsed time is non-decreasing.
        for w in run.trajectory.windows(2) {
            assert!(w[1].elapsed_s >= w[0].elapsed_s);
        }
    }

    #[test]
    fn adaptation_never_ends_worse_than_it_started_much() {
        // The greedy scheduler may oscillate but its best point must be at
        // least as good as the initial placement.
        let mut g = WorkloadGenerator::new(3, FeatureRanges::training());
        for seed in 0..5 {
            let q = g.query();
            let c = g.cluster(5);
            let run = run_monitoring(&q, &c, &SimConfig::deterministic(), seed);
            let best = run
                .trajectory
                .iter()
                .map(|p| p.processing_latency_ms)
                .fold(f64::INFINITY, f64::min);
            assert!(best <= run.trajectory[0].processing_latency_ms + 1e-9);
        }
    }

    #[test]
    fn empty_scenario_is_bitwise_plain_monitoring() {
        let mut g = WorkloadGenerator::new(7, FeatureRanges::training());
        let q = g.query();
        let c = g.cluster(4);
        let plain = run_monitoring(&q, &c, &SimConfig::deterministic(), 5);
        let drifted = run_monitoring_under_drift(
            &q,
            &c,
            &SimConfig::deterministic(),
            5,
            &costream_dsps::DriftScenario::none(),
        );
        assert_eq!(plain.trajectory.len(), drifted.trajectory.len());
        for (a, b) in plain.trajectory.iter().zip(&drifted.trajectory) {
            assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
            assert_eq!(a.processing_latency_ms.to_bits(), b.processing_latency_ms.to_bits());
        }
        assert_eq!(plain.final_placement, drifted.final_placement);
    }

    #[test]
    fn drift_changes_the_observed_trajectory() {
        use costream_dsps::DriftEvent;
        let mut g = WorkloadGenerator::new(9, FeatureRanges::training());
        let q = g.query();
        let c = g.cluster(4);
        let plain = run_monitoring(&q, &c, &SimConfig::deterministic(), 3);
        // Slow every host to 10% from t=0: whatever the scheduler does,
        // its observations cannot match the undrifted run.
        let events = (0..c.len())
            .map(|host| DriftEvent::HostSlowdown {
                host,
                at_s: 0.0,
                factor: 0.1,
            })
            .collect();
        let drifted = run_monitoring_under_drift(
            &q,
            &c,
            &SimConfig::deterministic(),
            3,
            &costream_dsps::DriftScenario::new(events),
        );
        assert_ne!(
            plain.trajectory[0].processing_latency_ms.to_bits(),
            drifted.trajectory[0].processing_latency_ms.to_bits(),
            "a 10x slowdown must be visible to the monitoring loop"
        );
    }

    #[test]
    fn time_to_reach_semantics() {
        let run = MonitoringRun {
            trajectory: vec![
                TrajectoryPoint {
                    elapsed_s: 0.0,
                    processing_latency_ms: 1000.0,
                },
                TrajectoryPoint {
                    elapsed_s: 30.0,
                    processing_latency_ms: 200.0,
                },
                TrajectoryPoint {
                    elapsed_s: 70.0,
                    processing_latency_ms: 90.0,
                },
            ],
            final_placement: Placement::new(vec![0]),
        };
        assert_eq!(run.time_to_reach(200.0), Some(30.0));
        assert_eq!(run.time_to_reach(50.0), None);
        assert_eq!(run.time_to_reach(2000.0), Some(0.0));
    }
}
