//! A per-tuple discrete-event simulator used to cross-validate the fluid
//! engine.
//!
//! The fluid engine in [`crate::engine`] approximates queueing behaviour
//! with rate equations; this module executes *individual tuples* through
//! linear (join-free) pipelines with FIFO queues and deterministic service
//! times, which is exact for that class. Agreement between the two engines
//! on the workloads both can express is part of the test suite — the
//! standard way to validate a fluid approximation.
//!
//! Scope: sources, filters and sinks (the paper's "linear queries"), one
//! placement, deterministic service times derived from the same
//! [`ExecutionProfile`] the fluid engine uses. Windowed operators are out
//! of scope here; their behaviour is validated against analytical
//! expectations in the engine's own tests.

use crate::cost::ExecutionProfile;
use costream_query::hardware::Cluster;
use costream_query::operators::{OpKind, Query};
use costream_query::placement::Placement;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a per-tuple simulation.
#[derive(Clone, Copy, Debug)]
pub struct DesResult {
    /// Tuples that reached the sink per second (after warm-up).
    pub throughput: f64,
    /// Mean source-to-sink latency of delivered tuples in milliseconds.
    pub mean_latency_ms: f64,
    /// Tuples delivered in total.
    pub delivered: u64,
}

#[derive(Debug, PartialEq)]
struct Event {
    /// Time in seconds.
    time: f64,
    /// Operator the tuple arrives at.
    op: usize,
    /// Time the tuple entered the system (for latency accounting).
    born: f64,
    /// Monotonic sequence number per operator (selectivity thinning).
    seq: u64,
}

impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("finite times")
            .then(self.op.cmp(&other.op))
            .then(self.seq.cmp(&other.seq))
    }
}

/// Runs a per-tuple simulation of a *linear* query (sources, filters,
/// sink only) for `duration_s` seconds with `warmup_s` excluded from the
/// measurements — the independent witness this module's tests
/// cross-validate the fluid engine against. A run that ends before its
/// warm-up does (`duration_s` not above `warmup_s`, NaN included) or never
/// ends (an infinite `duration_s`) measures nothing, as
/// [`SimConfig`](crate::config::SimConfig) documents for the fluid engine:
/// no throughput, infinite latency, nothing delivered.
///
/// # Panics
/// Panics if the query contains windowed operators (out of scope) or the
/// placement arity mismatches.
pub fn simulate_des(
    query: &Query,
    cluster: &Cluster,
    placement: &Placement,
    duration_s: f64,
    warmup_s: f64,
) -> DesResult {
    assert_eq!(placement.assignment().len(), query.len(), "placement arity mismatch");
    for (_, op) in query.ops() {
        assert!(
            matches!(op, OpKind::Source(_) | OpKind::Filter(_) | OpKind::Sink),
            "the DES cross-validator only supports linear source/filter/sink queries"
        );
    }
    if !(duration_s.is_finite() && duration_s > warmup_s) {
        return DesResult {
            throughput: 0.0,
            mean_latency_ms: f64::INFINITY,
            delivered: 0,
        };
    }
    let profile = ExecutionProfile::of(query);
    let sink = query.sink();
    let downs: Vec<Option<usize>> = (0..query.len()).map(|i| query.downstream(i).first().copied()).collect();

    // Service time per tuple in seconds. Co-located operators share the
    // host: each operator gets an equal share of the host's cores (the
    // fluid engine's water-filling converges to this under symmetric
    // load).
    let mut ops_per_host = vec![0usize; cluster.len()];
    for op in 0..query.len() {
        ops_per_host[placement.host_of(op)] += 1;
    }
    let service_s: Vec<f64> = (0..query.len())
        .map(|i| {
            let host = cluster.host(placement.host_of(i));
            let share = (host.cpu / 100.0) / ops_per_host[placement.host_of(i)] as f64;
            profile.service_cost_ms[i] / 1000.0 / share.max(1e-9)
        })
        .collect();

    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    // Seed source arrivals: deterministic inter-arrival times.
    for (id, op) in query.ops() {
        if let OpKind::Source(s) = op {
            let period = 1.0 / s.event_rate.max(1e-9);
            let mut t = period;
            let mut seq = 0;
            while t < duration_s {
                heap.push(Reverse(Event {
                    time: t,
                    op: id,
                    born: t,
                    seq,
                }));
                seq += 1;
                t += period;
            }
        }
    }

    // FIFO per operator: the time its server frees up.
    let mut free_at = vec![0.0f64; query.len()];
    // Deterministic selectivity thinning: pass ⌊(n+1)·sel⌋ − ⌊n·sel⌋.
    let mut passed = vec![0u64; query.len()];
    let mut seen = vec![0u64; query.len()];
    let mut seq_out = vec![0u64; query.len()];

    let mut delivered = 0u64;
    let mut latency_sum = 0.0f64;

    while let Some(Reverse(ev)) = heap.pop() {
        let start = ev.time.max(free_at[ev.op]);
        // The wall clock stops at the horizon: tuples still queued when
        // the execution ends are never delivered (they are the backlog the
        // fluid engine accounts to the broker).
        if start >= duration_s {
            continue;
        }
        let done = start + service_s[ev.op];
        free_at[ev.op] = done;

        if ev.op == sink {
            if done >= warmup_s {
                delivered += 1;
                latency_sum += done - ev.born;
            }
            continue;
        }
        // Selectivity filter.
        let sel = match query.op(ev.op) {
            OpKind::Filter(f) => f.selectivity,
            _ => 1.0,
        };
        seen[ev.op] += 1;
        let should_pass = ((seen[ev.op] as f64) * sel).floor() as u64;
        if should_pass <= passed[ev.op] {
            continue;
        }
        passed[ev.op] += 1;

        if let Some(d) = downs[ev.op] {
            // Network hop if the next operator lives elsewhere.
            let mut arrive = done;
            let (ha, hb) = (placement.host_of(ev.op), placement.host_of(d));
            if ha != hb {
                arrive += cluster.link_latency_ms(ha, hb) / 1000.0;
                arrive += profile.out_tuple_bytes[ev.op] * 8.0 / (cluster.link_bandwidth_mbits(ha, hb) * 1e6);
            }
            seq_out[ev.op] += 1;
            heap.push(Reverse(Event {
                time: arrive,
                op: d,
                born: ev.born,
                seq: seq_out[ev.op],
            }));
        }
    }

    DesResult {
        throughput: delivered as f64 / (duration_s - warmup_s),
        mean_latency_ms: if delivered > 0 {
            latency_sum / delivered as f64 * 1000.0
        } else {
            f64::INFINITY
        },
        delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::simulate;
    use costream_query::datatypes::{DataType, TupleSchema};
    use costream_query::hardware::Host;
    use costream_query::operators::{FilterFunction, FilterSpec, SourceSpec};

    fn source(rate: f64, attributes: usize) -> OpKind {
        OpKind::Source(SourceSpec {
            event_rate: rate,
            schema: TupleSchema::new(vec![DataType::Int; attributes]),
        })
    }

    fn linear(rate: f64, sel: f64) -> Query {
        let filter = OpKind::Filter(FilterSpec {
            function: FilterFunction::Less,
            literal_type: DataType::Int,
            selectivity: sel,
        });
        Query::new(vec![source(rate, 3), filter, OpKind::Sink], vec![(0, 1), (1, 2)])
    }

    fn strong() -> Cluster {
        Cluster::new(vec![Host {
            cpu: 800.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        }])
    }

    #[test]
    fn des_throughput_matches_stream_algebra() {
        let q = linear(1000.0, 0.5);
        let p = Placement::new(vec![0, 0, 0]);
        let r = simulate_des(&q, &strong(), &p, 60.0, 10.0);
        assert!((r.throughput - 500.0).abs() < 25.0, "T = {}", r.throughput);
        assert!(r.mean_latency_ms < 10.0);
    }

    #[test]
    fn des_agrees_with_fluid_engine_below_saturation() {
        // The headline cross-validation: both engines must agree on
        // throughput (tightly) and latency (same order) for linear queries
        // that stay below CPU saturation.
        let cases = [(200.0, 0.8), (1000.0, 0.5), (4000.0, 0.25)];
        for (rate, sel) in cases {
            let q = linear(rate, sel);
            let p = Placement::new(vec![0, 0, 0]);
            let cluster = strong();
            let fluid = simulate(&q, &cluster, &p, &SimConfig::deterministic());
            let des = simulate_des(&q, &cluster, &p, 240.0, 30.0);
            let t_ratio = fluid.metrics.throughput / des.throughput.max(1e-9);
            assert!(
                (0.85..=1.15).contains(&t_ratio),
                "rate {rate}: fluid T {} vs DES T {}",
                fluid.metrics.throughput,
                des.throughput
            );
            // Latencies: both in the same order of magnitude (fluid adds
            // M/M/1-style congestion terms the deterministic DES lacks).
            assert!(
                fluid.metrics.processing_latency_ms < des.mean_latency_ms * 50.0 + 50.0
                    && des.mean_latency_ms < fluid.metrics.processing_latency_ms * 50.0 + 50.0,
                "rate {rate}: fluid Lp {} vs DES {}",
                fluid.metrics.processing_latency_ms,
                des.mean_latency_ms
            );
        }
    }

    #[test]
    fn des_shows_saturation_like_fluid() {
        // At rates beyond the host's capacity both engines must agree that
        // the sink receives (far) less than the offered load.
        let q = linear(25600.0, 1.0);
        let p = Placement::new(vec![0, 0, 0]);
        let weak = Cluster::new(vec![Host {
            cpu: 50.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        }]);
        let fluid = simulate(&q, &weak, &p, &SimConfig::deterministic());
        let des = simulate_des(&q, &weak, &p, 60.0, 10.0);
        assert!(des.throughput < 25600.0 * 0.5, "DES T = {}", des.throughput);
        assert!(
            fluid.metrics.throughput < 25600.0 * 0.5,
            "fluid T = {}",
            fluid.metrics.throughput
        );
    }

    #[test]
    fn cross_host_hop_adds_latency_in_des() {
        let q = linear(200.0, 1.0);
        let far = Cluster::new(vec![
            Host {
                cpu: 800.0,
                ram_mb: 32000.0,
                bandwidth_mbits: 1000.0,
                latency_ms: 80.0,
            },
            Host {
                cpu: 800.0,
                ram_mb: 32000.0,
                bandwidth_mbits: 1000.0,
                latency_ms: 1.0,
            },
        ]);
        let colocated = simulate_des(&q, &far, &Placement::new(vec![1, 1, 1]), 60.0, 10.0);
        let spread = simulate_des(&q, &far, &Placement::new(vec![0, 1, 1]), 60.0, 10.0);
        assert!(spread.mean_latency_ms > colocated.mean_latency_ms + 70.0);
    }

    #[test]
    fn a_run_that_never_ends_or_ends_in_its_warm_up_measures_nothing() {
        let q = linear(1000.0, 0.5);
        let p = Placement::new(vec![0, 0, 0]);
        for (duration_s, warmup_s) in [(f64::INFINITY, 10.0), (f64::NAN, 10.0), (10.0, 10.0), (5.0, 10.0)] {
            let r = simulate_des(&q, &strong(), &p, duration_s, warmup_s);
            assert_eq!(r.throughput, 0.0, "duration {duration_s}, warm-up {warmup_s}");
            assert_eq!(
                r.mean_latency_ms,
                f64::INFINITY,
                "duration {duration_s}, warm-up {warmup_s}"
            );
            assert_eq!(r.delivered, 0, "duration {duration_s}, warm-up {warmup_s}");
        }
    }

    #[test]
    #[should_panic(expected = "only supports linear")]
    fn windowed_queries_rejected() {
        use costream_query::operators::{AggFunction, AggSpec, WindowPolicy, WindowSpec, WindowType};
        let aggregate = OpKind::WindowAggregate(AggSpec {
            function: AggFunction::Mean,
            agg_type: DataType::Int,
            group_by: None,
            window: WindowSpec {
                window_type: WindowType::Tumbling,
                policy: WindowPolicy::CountBased,
                size: 5.0,
                slide: 5.0,
            },
            selectivity: 0.5,
        });
        let q = Query::new(vec![source(10.0, 1), aggregate, OpKind::Sink], vec![(0, 1), (1, 2)]);
        let p = Placement::new(vec![0, 0, 0]);
        let _ = simulate_des(&q, &strong(), &p, 10.0, 1.0);
    }
}
