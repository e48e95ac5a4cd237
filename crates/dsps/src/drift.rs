//! Drift and fault injection for the fluid simulator.
//!
//! A real deployment does not hold the conditions the cost model was
//! queried under: source rates ramp, operator selectivities drift, hosts
//! slow down (noisy neighbours, thermal throttling) or disappear
//! (preemption, hardware failure). A [`DriftScenario`] is a determinstic,
//! seedable schedule of such events, applied by
//! [`simulate_with_drift`](crate::engine::simulate_with_drift) *mid-run*:
//! the simulation keeps executing in a degraded state rather than
//! panicking, so the adaptation loop upstream can observe the degradation
//! and react.
//!
//! # Authoring a `DriftScenario`
//!
//! A scenario is just a list of [`DriftEvent`]s; each event names the
//! entity it perturbs, its onset time (seconds into the run) and a
//! multiplicative factor. Factors compose multiplicatively when several
//! events target the same entity, so a rate *spike* is an up-ramp plus a
//! later down-ramp:
//!
//! ```
//! use costream_dsps::drift::{DriftEvent, DriftScenario};
//!
//! let scenario = DriftScenario::new(vec![
//!     // Source 0 ramps to 4x its nominal rate between t=60s and t=90s.
//!     DriftEvent::RateRamp { source: 0, at_s: 60.0, over_s: 30.0, factor: 4.0 },
//!     // Host 2 loses 80% of its CPU at t=120s (noisy neighbour).
//!     DriftEvent::HostSlowdown { host: 2, at_s: 120.0, factor: 0.2 },
//!     // Host 1 is preempted outright at t=180s.
//!     DriftEvent::HostLoss { host: 1, at_s: 180.0 },
//! ]);
//! assert_eq!(scenario.rate_factor(0, 0.0), 1.0);
//! assert_eq!(scenario.rate_factor(0, 75.0), 2.5); // mid-ramp
//! assert!(!scenario.host_alive(1, 200.0));
//! ```
//!
//! All lookups are pure functions of time, so a scenario can be windowed
//! (see [`DriftScenario::shifted`]) to replay an epoch `[t0, t0+e)` of a
//! longer timeline, and the same scenario replayed twice yields bitwise
//! identical simulations. An *empty* scenario returns exactly `1.0` /
//! `true` from every lookup, which the engine multiplies through — so a
//! drift-free run is bitwise identical to plain
//! [`simulate`](crate::engine::simulate) and the golden training labels
//! are unaffected by this layer existing.

use costream_query::hardware::{Cluster, Host, HostId};
use costream_query::operators::{OpId, OpKind, Query, SourceSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One scheduled perturbation of the simulated world.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DriftEvent {
    /// The named source's event rate ramps linearly from its current
    /// factor to `factor` times nominal over `[at_s, at_s + over_s]` and
    /// holds afterwards. `over_s <= 0` is a step.
    RateRamp {
        /// Source operator whose ingest rate drifts.
        source: OpId,
        /// Onset time in seconds into the run.
        at_s: f64,
        /// Ramp duration in seconds (`<= 0` for a step change).
        over_s: f64,
        /// Multiplicative factor reached at the end of the ramp.
        factor: f64,
    },
    /// The named operator's selectivity (output factor) steps to `factor`
    /// times nominal at `at_s` — data distribution drift.
    SelectivityShift {
        /// Operator whose selectivity drifts.
        op: OpId,
        /// Onset time in seconds into the run.
        at_s: f64,
        /// Multiplicative factor applied to the operator's output factor.
        factor: f64,
    },
    /// The named host's effective CPU steps to `factor` times nominal at
    /// `at_s` (noisy neighbour, thermal throttling).
    HostSlowdown {
        /// Host whose CPU degrades.
        host: HostId,
        /// Onset time in seconds into the run.
        at_s: f64,
        /// Multiplicative factor applied to the host's CPU capacity.
        factor: f64,
    },
    /// The named host is lost (preemption, failure) at `at_s`. Operators
    /// placed on it stall — they process nothing from then on — but the
    /// simulation keeps running in a degraded state.
    HostLoss {
        /// Host that disappears.
        host: HostId,
        /// Time of loss in seconds into the run.
        at_s: f64,
    },
}

/// A deterministic schedule of [`DriftEvent`]s.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DriftScenario {
    /// The scheduled events, in no particular order.
    pub events: Vec<DriftEvent>,
}

impl DriftScenario {
    /// A scenario from an explicit event list.
    pub fn new(events: Vec<DriftEvent>) -> Self {
        DriftScenario { events }
    }

    /// The empty (drift-free) scenario. Every lookup returns the neutral
    /// factor, so simulating under it is bitwise identical to simulating
    /// without a scenario at all.
    pub fn none() -> Self {
        DriftScenario { events: Vec::new() }
    }

    /// True when the scenario has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True when any event perturbs a source rate (the engine switches
    /// its backpressure threshold basis to the time-averaged offered rate
    /// only in that case, keeping drift-free runs bitwise stable).
    pub fn has_rate_events(&self) -> bool {
        self.events.iter().any(|e| matches!(e, DriftEvent::RateRamp { .. }))
    }

    /// A deterministic, seedable random scenario over a query/cluster:
    /// one to three events with pseudo-random kinds, targets, onsets in
    /// `[0.2, 0.7] * horizon_s` and factors. Useful for fuzzing the
    /// degraded-but-alive engine paths.
    pub fn sample(seed: u64, query: &Query, cluster: &Cluster, horizon_s: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD21F_7A5E_11C0_9B3D);
        let sources: Vec<OpId> = query
            .ops()
            .filter_map(|(i, op)| matches!(op, OpKind::Source(_)).then_some(i))
            .collect();
        let n_events = rng.gen_range(1..=3usize);
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let at_s = horizon_s * rng.gen_range(0.2..0.7);
            events.push(match rng.gen_range(0..4u32) {
                0 => DriftEvent::RateRamp {
                    source: sources[rng.gen_range(0..sources.len())],
                    at_s,
                    over_s: horizon_s * rng.gen_range(0.05..0.2),
                    factor: rng.gen_range(0.25..6.0),
                },
                1 => DriftEvent::SelectivityShift {
                    op: rng.gen_range(0..query.len()),
                    at_s,
                    factor: rng.gen_range(0.2..3.0),
                },
                2 => DriftEvent::HostSlowdown {
                    host: rng.gen_range(0..cluster.len()),
                    at_s,
                    factor: rng.gen_range(0.05..0.8),
                },
                _ => DriftEvent::HostLoss {
                    host: rng.gen_range(0..cluster.len()),
                    at_s,
                },
            });
        }
        DriftScenario { events }
    }

    /// The combined rate factor of source `source` at time `t` (seconds).
    /// `1.0` when no event applies.
    pub fn rate_factor(&self, source: OpId, t: f64) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if let DriftEvent::RateRamp {
                source: s,
                at_s,
                over_s,
                factor,
            } = *e
            {
                if s == source {
                    f *= ramp(t, at_s, over_s, factor);
                }
            }
        }
        f
    }

    /// The combined selectivity factor of operator `op` at time `t`.
    pub fn selectivity_factor(&self, op: OpId, t: f64) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if let DriftEvent::SelectivityShift { op: o, at_s, factor } = *e {
                if o == op && t >= at_s {
                    f *= factor;
                }
            }
        }
        f
    }

    /// The combined CPU factor of host `host` at time `t`. Host loss is
    /// *not* folded in here — see [`host_alive`](Self::host_alive).
    pub fn cpu_factor(&self, host: HostId, t: f64) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if let DriftEvent::HostSlowdown { host: h, at_s, factor } = *e {
                if h == host && t >= at_s {
                    f *= factor;
                }
            }
        }
        f
    }

    /// Whether host `host` is still alive at time `t`.
    pub fn host_alive(&self, host: HostId, t: f64) -> bool {
        !self.events.iter().any(|e| match *e {
            DriftEvent::HostLoss { host: h, at_s } => h == host && t >= at_s,
            _ => false,
        })
    }

    /// Hosts dead at time `t`, ascending.
    pub fn dead_hosts(&self, t: f64) -> Vec<HostId> {
        let mut dead: Vec<HostId> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                DriftEvent::HostLoss { host, at_s } if t >= at_s => Some(host),
                _ => None,
            })
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// The same scenario with all onsets shifted `t0` seconds earlier:
    /// lookups at time `t` on the shifted scenario equal lookups at
    /// `t0 + t` on the original. Used to replay epoch windows of a long
    /// timeline (a ramp completed before the window opens as its final
    /// factor from `t = 0`).
    pub fn shifted(&self, t0: f64) -> DriftScenario {
        let events = self
            .events
            .iter()
            .map(|e| match *e {
                DriftEvent::RateRamp {
                    source,
                    at_s,
                    over_s,
                    factor,
                } => DriftEvent::RateRamp {
                    source,
                    at_s: at_s - t0,
                    over_s,
                    factor,
                },
                DriftEvent::SelectivityShift { op, at_s, factor } => DriftEvent::SelectivityShift {
                    op,
                    at_s: at_s - t0,
                    factor,
                },
                DriftEvent::HostSlowdown { host, at_s, factor } => DriftEvent::HostSlowdown {
                    host,
                    at_s: at_s - t0,
                    factor,
                },
                DriftEvent::HostLoss { host, at_s } => DriftEvent::HostLoss { host, at_s: at_s - t0 },
            })
            .collect();
        DriftScenario { events }
    }

    /// Telemetry view of the cluster at time `t`: each host's CPU scaled
    /// by its current slowdown factor. Dead hosts keep their descriptions
    /// (exclude them via [`dead_hosts`](Self::dead_hosts) — a re-placement
    /// search needs the slot indices to stay aligned with the incumbent).
    pub fn cluster_at(&self, cluster: &Cluster, t: f64) -> Cluster {
        let hosts: Vec<Host> = (0..cluster.len())
            .map(|h| {
                let mut host = *cluster.host(h);
                host.cpu *= self.cpu_factor(h, t);
                host
            })
            .collect();
        Cluster::new(hosts)
    }

    /// Telemetry view of the query at time `t`: source event rates scaled
    /// by their current rate factors. Non-source operators are unchanged
    /// (selectivity drift is reported separately so the caller can scale
    /// its estimated selectivities).
    pub fn query_at(&self, query: &Query, t: f64) -> Query {
        let ops: Vec<OpKind> = query
            .ops()
            .map(|(i, op)| match op {
                OpKind::Source(s) => OpKind::Source(SourceSpec {
                    event_rate: s.event_rate * self.rate_factor(i, t),
                    schema: s.schema.clone(),
                }),
                other => other.clone(),
            })
            .collect();
        Query::new(ops, query.edges().to_vec())
    }
}

/// Linear ramp from 1 at `at_s` to `factor` at `at_s + over_s`, clamped.
/// Exactly 1.0 before onset so pre-drift simulation is bitwise unchanged.
fn ramp(t: f64, at_s: f64, over_s: f64, factor: f64) -> f64 {
    if t < at_s {
        return 1.0;
    }
    if over_s <= 0.0 || t >= at_s + over_s {
        return factor;
    }
    1.0 + (factor - 1.0) * (t - at_s) / over_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use costream_query::datatypes::{DataType, TupleSchema};
    use costream_query::generator::WorkloadGenerator;
    use costream_query::operators::{FilterFunction, FilterSpec};
    use costream_query::ranges::FeatureRanges;

    fn two_op_query(rate: f64) -> Query {
        let schema = TupleSchema::new(vec![DataType::Int]);
        Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: rate,
                    schema,
                }),
                OpKind::Filter(FilterSpec {
                    function: FilterFunction::Less,
                    literal_type: DataType::Int,
                    selectivity: 0.5,
                }),
                OpKind::Sink,
            ],
            vec![(0, 1), (1, 2)],
        )
    }

    #[test]
    fn empty_scenario_is_neutral() {
        let s = DriftScenario::none();
        assert_eq!(s.rate_factor(0, 100.0), 1.0);
        assert_eq!(s.selectivity_factor(3, 100.0), 1.0);
        assert_eq!(s.cpu_factor(2, 100.0), 1.0);
        assert!(s.host_alive(0, 1e9));
        assert!(s.dead_hosts(1e9).is_empty());
        assert!(!s.has_rate_events());
    }

    #[test]
    fn ramp_interpolates_and_holds() {
        let s = DriftScenario::new(vec![DriftEvent::RateRamp {
            source: 0,
            at_s: 10.0,
            over_s: 20.0,
            factor: 3.0,
        }]);
        assert_eq!(s.rate_factor(0, 9.9), 1.0);
        assert!((s.rate_factor(0, 20.0) - 2.0).abs() < 1e-12);
        assert_eq!(s.rate_factor(0, 30.0), 3.0);
        assert_eq!(s.rate_factor(0, 1e6), 3.0);
        assert_eq!(s.rate_factor(1, 1e6), 1.0, "other sources unaffected");
    }

    #[test]
    fn factors_compose_multiplicatively() {
        let s = DriftScenario::new(vec![
            DriftEvent::HostSlowdown {
                host: 1,
                at_s: 0.0,
                factor: 0.5,
            },
            DriftEvent::HostSlowdown {
                host: 1,
                at_s: 50.0,
                factor: 0.5,
            },
        ]);
        assert_eq!(s.cpu_factor(1, 10.0), 0.5);
        assert_eq!(s.cpu_factor(1, 60.0), 0.25);
    }

    #[test]
    fn shifted_window_matches_absolute_lookup() {
        let s = DriftScenario::new(vec![
            DriftEvent::RateRamp {
                source: 0,
                at_s: 60.0,
                over_s: 30.0,
                factor: 4.0,
            },
            DriftEvent::HostLoss { host: 2, at_s: 100.0 },
        ]);
        let w = s.shifted(75.0);
        for t in [0.0, 10.0, 24.9, 25.1, 200.0] {
            assert_eq!(w.rate_factor(0, t), s.rate_factor(0, 75.0 + t));
            assert_eq!(w.host_alive(2, t), s.host_alive(2, 75.0 + t));
        }
    }

    #[test]
    fn telemetry_views_reflect_drift() {
        let q = two_op_query(1000.0);
        let hosts = vec![
            Host {
                cpu: 400.0,
                ram_mb: 8000.0,
                bandwidth_mbits: 1000.0,
                latency_ms: 5.0,
            };
            3
        ];
        let c = Cluster::new(hosts);
        let s = DriftScenario::new(vec![
            DriftEvent::RateRamp {
                source: 0,
                at_s: 0.0,
                over_s: 0.0,
                factor: 2.0,
            },
            DriftEvent::HostSlowdown {
                host: 1,
                at_s: 0.0,
                factor: 0.25,
            },
            DriftEvent::HostLoss { host: 2, at_s: 30.0 },
        ]);
        let q2 = s.query_at(&q, 50.0);
        match q2.op(0) {
            OpKind::Source(src) => assert_eq!(src.event_rate, 2000.0),
            _ => panic!("op 0 should stay a source"),
        }
        let c2 = s.cluster_at(&c, 50.0);
        assert_eq!(c2.host(0).cpu, 400.0);
        assert_eq!(c2.host(1).cpu, 100.0);
        assert_eq!(s.dead_hosts(50.0), vec![2]);
        assert_eq!(s.dead_hosts(10.0), Vec::<HostId>::new());
    }

    #[test]
    fn sampled_scenarios_are_deterministic_per_seed() {
        let mut g = WorkloadGenerator::new(5, FeatureRanges::training());
        let (q, c, _) = g.workload_item();
        let a = DriftScenario::sample(42, &q, &c, 240.0);
        let b = DriftScenario::sample(42, &q, &c, 240.0);
        assert_eq!(a, b);
        let other = DriftScenario::sample(43, &q, &c, 240.0);
        assert!(!a.events.is_empty() && !other.events.is_empty());
    }
}
