//! Per-operator service cost and stream-algebra rate model.
//!
//! The simulator needs two things per operator: how much CPU one tuple
//! costs (on a reference core), and how many output tuples one input tuple
//! produces. Both follow the operator semantics of §III-A / §IV-B:
//! filters scale with predicate complexity, windowed operators with window
//! size, joins with the number of probe matches in the opposite window,
//! and everything with tuple width and data-type complexity — the same
//! operator-related features the cost model learns from.

use costream_query::datatypes::TupleSchema;
use costream_query::operators::{OpId, OpKind, Query};

/// Static, rate-independent execution profile of one query: per-tuple CPU
/// costs, output factors and tuple sizes, in data-flow order.
#[derive(Clone, Debug)]
pub struct ExecutionProfile {
    /// Steady-state input rate per operator (tuples/s), assuming no
    /// resource limits — the "nominal" rates implied by the stream algebra.
    pub nominal_in_rate: Vec<f64>,
    /// Steady-state output rate per operator under the same assumption.
    pub nominal_out_rate: Vec<f64>,
    /// CPU milliseconds (reference core) to process one input tuple.
    pub service_cost_ms: Vec<f64>,
    /// Output tuples produced per processed input tuple.
    pub output_factor: Vec<f64>,
    /// Serialized size of one output tuple in bytes.
    pub out_tuple_bytes: Vec<f64>,
    /// Live window state held by the operator in tuples (both join sides).
    pub window_state_tuples: Vec<f64>,
    /// JVM-expanded bytes of one tuple held in window state.
    pub state_tuple_bytes: Vec<f64>,
}

/// In-memory (JVM) expansion of a serialized tuple: object headers, boxed
/// fields, hash-map entries. Streaming engines running on the JVM hold
/// window state at a large multiple of the wire size.
fn jvm_bytes(schema: &TupleSchema) -> f64 {
    // Storm's TupleImpl plus boxed field objects measure at an order of
    // magnitude above the wire size; ~600 B for a small numeric tuple.
    96.0 + schema
        .attributes
        .iter()
        .map(|d| d.byte_size() * 24.0 + 48.0)
        .sum::<f64>()
}

fn avg_compare_cost(schema: &TupleSchema) -> f64 {
    if schema.attributes.is_empty() {
        1.0
    } else {
        schema.attributes.iter().map(|d| d.compare_cost()).sum::<f64>() / schema.attributes.len() as f64
    }
}

impl ExecutionProfile {
    /// Computes the execution profile of a query.
    pub fn of(query: &Query) -> Self {
        let n = query.len();
        let schemas = query.output_schemas();
        let order = query.topo_order().expect("valid query");

        let mut nominal_in_rate = vec![0.0; n];
        let mut nominal_out_rate = vec![0.0; n];
        let mut service_cost_ms = vec![0.0; n];
        let mut output_factor = vec![0.0; n];
        let mut window_state_tuples = vec![0.0; n];
        let mut state_tuple_bytes = vec![0.0; n];

        for &id in &order {
            let ups = query.upstream(id);
            let in_rate: f64 = ups.iter().map(|&u| nominal_out_rate[u]).sum();
            nominal_in_rate[id] = in_rate;
            match query.op(id) {
                OpKind::Source(s) => {
                    nominal_in_rate[id] = s.event_rate;
                    nominal_out_rate[id] = s.event_rate;
                    output_factor[id] = 1.0;
                    // Deserialization + emission, scaling with tuple bytes.
                    service_cost_ms[id] = 0.065 + 0.0003 * s.schema.tuple_bytes();
                }
                OpKind::Filter(f) => {
                    output_factor[id] = f.selectivity;
                    nominal_out_rate[id] = in_rate * f.selectivity;
                    service_cost_ms[id] = 0.028 + 0.012 * f.function.eval_cost() * f.literal_type.compare_cost();
                }
                OpKind::WindowAggregate(a) => {
                    let w_tuples = a.window.tuples_in_window(in_rate).max(1.0);
                    // One output row per distinct group per emission;
                    // per-input-tuple factor = groups / slide-tuples.
                    let slide_tuples = match a.window.policy {
                        costream_query::operators::WindowPolicy::CountBased => a.window.slide.max(1.0),
                        costream_query::operators::WindowPolicy::TimeBased => (a.window.slide * in_rate).max(1.0),
                    };
                    let groups = if a.group_by.is_some() {
                        (a.selectivity * w_tuples).max(1.0)
                    } else {
                        1.0
                    };
                    output_factor[id] = groups / slide_tuples;
                    nominal_out_rate[id] = in_rate * output_factor[id];
                    // Per-tuple state update (hash lookup for group-by) plus
                    // amortized emission cost.
                    let group_cost = a.group_by.map_or(0.0, |g| 0.012 * g.compare_cost());
                    service_cost_ms[id] = 0.035
                        + group_cost
                        + 0.006 * a.agg_type.compare_cost()
                        + 0.012 * output_factor[id].min(w_tuples);
                    window_state_tuples[id] = Self::live_tuples(&a.window, in_rate);
                    state_tuple_bytes[id] = jvm_bytes(&schemas[ups[0]]);
                }
                OpKind::WindowJoin(j) => {
                    // Each arriving tuple probes the opposite window; the
                    // expected matches per probe are sel * |W_other|.
                    let r1 = nominal_out_rate[ups[0]];
                    let r2 = nominal_out_rate[ups[1]];
                    let w1 = j.window.tuples_in_window(r1).max(1.0);
                    let w2 = j.window.tuples_in_window(r2).max(1.0);
                    let out_rate = j.selectivity * (r1 * w2 + r2 * w1);
                    nominal_out_rate[id] = out_rate;
                    output_factor[id] = if in_rate > 0.0 { out_rate / in_rate } else { 0.0 };
                    // Result construction dominates for explosive joins;
                    // capped because such joins saturate long before the
                    // per-probe cost model matters.
                    let matches_per_probe = (j.selectivity * w1.max(w2)).min(2000.0);
                    service_cost_ms[id] = 0.045 + 0.020 * j.key_type.compare_cost() + 0.010 * matches_per_probe;
                    window_state_tuples[id] = Self::live_tuples(&j.window, r1) + Self::live_tuples(&j.window, r2);
                    // Average of both input schemas.
                    state_tuple_bytes[id] = 0.5 * (jvm_bytes(&schemas[ups[0]]) + jvm_bytes(&schemas[ups[1]]));
                }
                OpKind::Sink => {
                    output_factor[id] = 1.0;
                    nominal_out_rate[id] = in_rate;
                    service_cost_ms[id] = 0.040 + 0.0002 * schemas[id].tuple_bytes();
                }
            }
            // Wider tuples cost more to handle throughout.
            let width_cost = 1.0 + 0.02 * schemas[id].width() as f64 * avg_compare_cost(&schemas[id]);
            service_cost_ms[id] *= width_cost;
        }

        let out_tuple_bytes = schemas.iter().map(TupleSchema::tuple_bytes).collect();
        ExecutionProfile {
            nominal_in_rate,
            nominal_out_rate,
            service_cost_ms,
            output_factor,
            out_tuple_bytes,
            window_state_tuples,
            state_tuple_bytes,
        }
    }

    /// Live tuples held for a window over a stream at `rate`: sliding
    /// windows retain `size` tuples plus the emission backlog.
    fn live_tuples(w: &costream_query::operators::WindowSpec, rate: f64) -> f64 {
        let base = w.tuples_in_window(rate);
        // Sliding windows with small slides keep overlapping panes alive.
        let overlap = (w.size / w.slide.max(1e-9)).clamp(1.0, 4.0);
        base * (0.5 + 0.5 * overlap)
    }

    /// Total window state bytes of an operator at its nominal rates.
    pub fn state_bytes(&self, op: OpId) -> f64 {
        self.window_state_tuples[op] * self.state_tuple_bytes[op]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costream_query::generator::WorkloadGenerator;
    use costream_query::ranges::FeatureRanges;

    #[test]
    fn profiles_of_generated_queries_are_sane() {
        let mut g = WorkloadGenerator::new(1, FeatureRanges::training());
        for _ in 0..100 {
            let q = g.query();
            let p = ExecutionProfile::of(&q);
            for (id, _) in q.ops() {
                assert!(p.service_cost_ms[id] > 0.0, "zero cost at {id}");
                assert!(
                    p.service_cost_ms[id] < 1000.0,
                    "absurd cost at {id}: {}",
                    p.service_cost_ms[id]
                );
                assert!(p.nominal_out_rate[id] >= 0.0);
                assert!(p.output_factor[id].is_finite());
            }
        }
    }

    #[test]
    fn filter_reduces_rate_by_selectivity() {
        use costream_query::datatypes::{DataType, TupleSchema};
        use costream_query::operators::*;
        let q = Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: 1000.0,
                    schema: TupleSchema::new(vec![DataType::Int, DataType::Int, DataType::Int]),
                }),
                OpKind::Filter(FilterSpec {
                    function: FilterFunction::Less,
                    literal_type: DataType::Int,
                    selectivity: 0.25,
                }),
                OpKind::Sink,
            ],
            vec![(0, 1), (1, 2)],
        );
        let p = ExecutionProfile::of(&q);
        assert!((p.nominal_out_rate[1] - 250.0).abs() < 1e-9);
        assert!((p.nominal_in_rate[2] - 250.0).abs() < 1e-9);
    }

    #[test]
    fn string_filters_cost_more_than_int_filters() {
        use costream_query::datatypes::{DataType, TupleSchema};
        use costream_query::operators::*;
        let mk = |lit: DataType, f: FilterFunction| {
            let q = Query::new(
                vec![
                    OpKind::Source(SourceSpec {
                        event_rate: 100.0,
                        schema: TupleSchema::new(vec![DataType::Int, DataType::Int, DataType::Int]),
                    }),
                    OpKind::Filter(FilterSpec {
                        function: f,
                        literal_type: lit,
                        selectivity: 0.5,
                    }),
                    OpKind::Sink,
                ],
                vec![(0, 1), (1, 2)],
            );
            ExecutionProfile::of(&q).service_cost_ms[1]
        };
        assert!(mk(DataType::String, FilterFunction::StartsWith) > mk(DataType::Int, FilterFunction::Less));
    }

    #[test]
    fn larger_windows_mean_more_state_and_join_cost() {
        use costream_query::datatypes::{DataType, TupleSchema};
        use costream_query::operators::*;
        let mk = |size: f64| {
            let w = WindowSpec {
                window_type: WindowType::Tumbling,
                policy: WindowPolicy::CountBased,
                size,
                slide: size,
            };
            let q = Query::new(
                vec![
                    OpKind::Source(SourceSpec {
                        event_rate: 500.0,
                        schema: TupleSchema::new(vec![DataType::Int, DataType::Int, DataType::Int]),
                    }),
                    OpKind::Source(SourceSpec {
                        event_rate: 500.0,
                        schema: TupleSchema::new(vec![DataType::Int, DataType::Int, DataType::Int]),
                    }),
                    OpKind::WindowJoin(JoinSpec {
                        key_type: DataType::Int,
                        window: w,
                        selectivity: 0.01,
                    }),
                    OpKind::Sink,
                ],
                vec![(0, 2), (1, 2), (2, 3)],
            );
            let p = ExecutionProfile::of(&q);
            (p.service_cost_ms[2], p.state_bytes(2))
        };
        let (c_small, s_small) = mk(10.0);
        let (c_big, s_big) = mk(640.0);
        assert!(c_big > c_small);
        assert!(s_big > s_small);
    }

    #[test]
    fn time_window_state_scales_with_rate() {
        use costream_query::operators::{WindowPolicy, WindowSpec, WindowType};
        let w = WindowSpec {
            window_type: WindowType::Tumbling,
            policy: WindowPolicy::TimeBased,
            size: 8.0,
            slide: 8.0,
        };
        let lo = ExecutionProfile::live_tuples(&w, 100.0);
        let hi = ExecutionProfile::live_tuples(&w, 10_000.0);
        assert!(hi > 50.0 * lo);
    }
}
