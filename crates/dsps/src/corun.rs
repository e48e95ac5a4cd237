//! Co-run interference measurement harness.
//!
//! Costream learns its costs from measured executions; this module extends
//! that stance to **multi-tenant physics**. It simulates sets of queries
//! co-resident on shared hosts with [`crate::engine::simulate_corun`],
//! compares each member's cost against its solo run on the same hardware,
//! and emits a labeled corpus of *cost inflation* samples — the ground
//! truth an interference model (see `costream::interference`) is fitted
//! against. Everything here is deterministic per seed: the same
//! [`CorunConfig`] always reproduces the same corpus, bit for bit, so the
//! fit in CI is replayable.
//!
//! ## Corpus format
//!
//! One [`CorunSample`] per (scenario, query, contended host): the host's
//! hardware description, the query's own operator loads resident there,
//! the co-residents' external loads on the same host, and the measured
//! solo/co-run end-to-end latencies whose ratio is the inflation label.
//! Samples are serde-serializable, so the corpus can be dumped as JSON
//! for offline analysis.

use costream_query::hardware::{Cluster, Host};
use costream_query::operators::{OpKind, Query};
use costream_query::placement::Placement;
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::cost::ExecutionProfile;
use crate::engine::simulate_corun;

/// Coarse operator class used for interference features: contention is
/// not symmetric across operator kinds (a windowed join trashes caches
/// and heap in ways a stateless filter never will), so the fitted model
/// carries a coefficient per ordered class pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Data source (broker ingest).
    Source,
    /// Stateless filter.
    Filter,
    /// Windowed aggregation (keyed state).
    Aggregate,
    /// Windowed join (dual-sided state).
    Join,
    /// Terminal sink.
    Sink,
}

/// Number of distinct [`OpClass`] values.
pub const N_OP_CLASSES: usize = 5;

impl OpClass {
    /// Classifies an operator.
    pub fn of(op: &OpKind) -> Self {
        match op {
            OpKind::Source(_) => OpClass::Source,
            OpKind::Filter(_) => OpClass::Filter,
            OpKind::WindowAggregate(_) => OpClass::Aggregate,
            OpKind::WindowJoin(_) => OpClass::Join,
            OpKind::Sink => OpClass::Sink,
        }
    }

    /// Dense index in `0..N_OP_CLASSES`, for pair-coefficient tables.
    pub fn index(self) -> usize {
        match self {
            OpClass::Source => 0,
            OpClass::Filter => 1,
            OpClass::Aggregate => 2,
            OpClass::Join => 3,
            OpClass::Sink => 4,
        }
    }
}

/// The nominal resource footprint of one operator, derived from the
/// analytical [`ExecutionProfile`] — the *predictable* side of a co-run:
/// what the operator asks of its host before contention bends anything.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OpLoad {
    /// Operator class.
    pub class: OpClass,
    /// Nominal input rate (tuples/s).
    pub in_rate: f64,
    /// Nominal CPU demand in reference cores (`rate * service_cost`).
    pub cpu_cores: f64,
    /// Resident window state (bytes).
    pub state_bytes: f64,
    /// Nominal egress (bytes/s) if the out-edge crosses hosts.
    pub egress_bytes_per_s: f64,
}

/// Computes every operator's [`OpLoad`] for a query.
pub fn profile_loads(query: &Query) -> Vec<OpLoad> {
    let profile = ExecutionProfile::of(query);
    (0..query.len())
        .map(|i| OpLoad {
            class: OpClass::of(query.op(i)),
            in_rate: profile.nominal_in_rate[i],
            cpu_cores: profile.nominal_in_rate[i] * profile.service_cost_ms[i] / 1000.0,
            state_bytes: profile.state_bytes(i),
            egress_bytes_per_s: profile.nominal_out_rate[i] * profile.out_tuple_bytes[i],
        })
        .collect()
}

/// One labeled interference measurement: a query sharing `host` with
/// external operators, its cost inflation versus running alone.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CorunSample {
    /// Scenario index within the corpus (replay handle).
    pub scenario: usize,
    /// Which member of the scenario this sample describes.
    pub query_idx: usize,
    /// The shared host's hardware description.
    pub host: Host,
    /// The sample query's own operator loads resident on `host`.
    pub own: Vec<OpLoad>,
    /// Co-residents' operator loads on the same host.
    pub ext: Vec<OpLoad>,
    /// Measured solo end-to-end latency (ms).
    pub solo_cost_ms: f64,
    /// Measured co-run end-to-end latency (ms).
    pub corun_cost_ms: f64,
    /// The label: `corun_cost_ms / solo_cost_ms` (>= values below 1 do
    /// occur — queueing phase shifts — but the mass sits above 1).
    pub inflation: f64,
}

/// Corpus generation parameters. Deterministic: the corpus is a pure
/// function of this config.
#[derive(Clone, Debug)]
pub struct CorunConfig {
    /// Number of co-run scenarios to simulate.
    pub scenarios: usize,
    /// Queries per scenario (>= 2 so there is something to contend with).
    pub queries_per_scenario: usize,
    /// Base RNG seed for workload generation.
    pub seed: u64,
}

impl Default for CorunConfig {
    fn default() -> Self {
        CorunConfig {
            scenarios: 48,
            queries_per_scenario: 2,
            seed: 7,
        }
    }
}

/// Generates the labeled interference corpus.
///
/// Each scenario draws `queries_per_scenario` random queries and a shared
/// host plus one private host per query from the training ranges. Even
/// scenarios stack every operator of every query on the shared host
/// (full-stack contention); odd scenarios keep each query's upstream half
/// on its private host and contend only the downstream half (partial
/// contention, cross-host edges active). Each member is then simulated
/// solo and co-run on the *same* cluster and placement, and every member
/// whose solo and co-run executions both succeed yields one
/// [`CorunSample`] labeled with its end-to-end latency inflation. Both
/// runs use the noise-free [`SimConfig::deterministic`] protocol, so they
/// draw identical service costs and the label isolates contention.
/// Failed runs (either side) are skipped: a crash has no finite label —
/// the blast-radius coupling is pinned by engine tests instead.
pub fn generate_corpus(cfg: &CorunConfig) -> Vec<CorunSample> {
    use costream_query::generator::WorkloadGenerator;
    use costream_query::ranges::FeatureRanges;

    assert!(
        cfg.queries_per_scenario >= 2,
        "need co-residents to measure interference"
    );
    let sim = SimConfig::deterministic();
    let mut samples = Vec::new();
    for s in 0..cfg.scenarios {
        let mut g = WorkloadGenerator::new(cfg.seed.wrapping_add(s as u64), FeatureRanges::training());
        let queries: Vec<Query> = (0..cfg.queries_per_scenario).map(|_| g.query()).collect();
        // Host 0 is shared; host 1 + q is query q's private host.
        let mut hosts = vec![g.host()];
        hosts.extend((0..cfg.queries_per_scenario).map(|_| g.host()));
        let cluster = Cluster::new(hosts);
        let full_stack = s % 2 == 0;
        let placements: Vec<Placement> = queries
            .iter()
            .enumerate()
            .map(|(q, query)| {
                let n = query.len();
                Placement::new(
                    (0..n)
                        .map(|i| {
                            if full_stack || i >= n / 2 {
                                0 // shared host
                            } else {
                                1 + q // private upstream
                            }
                        })
                        .collect(),
                )
            })
            .collect();

        let solo: Vec<_> = queries
            .iter()
            .zip(&placements)
            .map(|(q, p)| simulate_corun(&[(q, p)], &cluster, &sim).pop().expect("one member"))
            .collect();
        let members: Vec<(&Query, &Placement)> = queries.iter().zip(placements.iter()).collect();
        let corun = simulate_corun(&members, &cluster, &sim);

        // Per-member loads resident on the shared host.
        let resident_loads: Vec<Vec<OpLoad>> = queries
            .iter()
            .zip(&placements)
            .map(|(q, p)| {
                profile_loads(q)
                    .into_iter()
                    .enumerate()
                    .filter(|&(i, _)| p.host_of(i) == 0)
                    .map(|(_, l)| l)
                    .collect()
            })
            .collect();

        for q in 0..queries.len() {
            if !solo[q].metrics.success || !corun[q].metrics.success {
                continue;
            }
            let own = resident_loads[q].clone();
            if own.is_empty() {
                continue;
            }
            let ext: Vec<OpLoad> = resident_loads
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != q)
                .flat_map(|(_, l)| l.iter().copied())
                .collect();
            if ext.is_empty() {
                continue;
            }
            let solo_cost = solo[q].metrics.e2e_latency_ms;
            let corun_cost = corun[q].metrics.e2e_latency_ms;
            if solo_cost <= 0.0 {
                continue;
            }
            samples.push(CorunSample {
                scenario: s,
                query_idx: q,
                host: *cluster.host(0),
                own,
                ext,
                solo_cost_ms: solo_cost,
                corun_cost_ms: corun_cost,
                inflation: corun_cost / solo_cost,
            });
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_nonempty() {
        let cfg = CorunConfig {
            scenarios: 8,
            ..CorunConfig::default()
        };
        let a = generate_corpus(&cfg);
        let b = generate_corpus(&cfg);
        assert!(!a.is_empty(), "corpus must produce samples");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.query_idx, y.query_idx);
            assert_eq!(
                x.inflation.to_bits(),
                y.inflation.to_bits(),
                "labels must replay bitwise"
            );
            assert_eq!(x.own, y.own);
            assert_eq!(x.ext, y.ext);
        }
    }

    #[test]
    fn inflation_mass_sits_above_one() {
        let cfg = CorunConfig {
            scenarios: 16,
            ..CorunConfig::default()
        };
        let corpus = generate_corpus(&cfg);
        let above = corpus.iter().filter(|s| s.inflation > 1.0).count();
        assert!(
            above * 2 > corpus.len(),
            "contention should inflate most members: {above}/{}",
            corpus.len()
        );
        for s in &corpus {
            assert!(s.inflation.is_finite() && s.inflation > 0.0);
            assert!(!s.own.is_empty() && !s.ext.is_empty());
        }
    }

    #[test]
    fn corpus_serializes_round_trip() {
        let cfg = CorunConfig {
            scenarios: 4,
            ..CorunConfig::default()
        };
        let corpus = generate_corpus(&cfg);
        let json = serde_json::to_string(&corpus).expect("serialize");
        let back: Vec<CorunSample> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(corpus.len(), back.len());
    }
}
