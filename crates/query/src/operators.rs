//! Streaming operators and the logical query DAG.
//!
//! A [`Query`] is a directed acyclic graph of algebraic streaming operators
//! (§III-A of the paper): sources describe incoming data streams, `filter`,
//! windowed `aggregate` and windowed `join` transform them, and a single
//! sink terminates the plan. Edges are the *logical data flow*.

use crate::datatypes::{DataType, TupleSchema};
use serde::{Deserialize, Serialize};

/// Index of an operator inside a [`Query`].
pub type OpId = usize;

/// Shifting strategy of a window (Table I: `window type`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowType {
    /// Window advances by `slide < size` — overlapping windows.
    Sliding,
    /// Window advances by its full size — non-overlapping.
    Tumbling,
}

/// Counting mode of a window (Table I: `window policy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowPolicy {
    /// Window size measured in tuples.
    CountBased,
    /// Window size measured in seconds.
    TimeBased,
}

/// Window configuration shared by windowed joins and aggregations.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowSpec {
    /// Sliding or tumbling.
    pub window_type: WindowType,
    /// Count- or time-based.
    pub policy: WindowPolicy,
    /// Size in tuples (count-based) or seconds (time-based).
    pub size: f64,
    /// Slide in the same unit as `size`; equals `size` for tumbling windows.
    pub slide: f64,
}

impl WindowSpec {
    /// Number of tuples held by one window instance at a stream rate of
    /// `rate` tuples/second.
    pub fn tuples_in_window(&self, rate: f64) -> f64 {
        match self.policy {
            WindowPolicy::CountBased => self.size,
            WindowPolicy::TimeBased => self.size * rate,
        }
    }

    /// Seconds between successive window emissions at stream rate `rate`.
    pub fn emission_period(&self, rate: f64) -> f64 {
        let slide = self.slide.max(1e-9);
        match self.policy {
            WindowPolicy::CountBased => {
                if rate <= 0.0 {
                    f64::INFINITY
                } else {
                    slide / rate
                }
            }
            WindowPolicy::TimeBased => slide,
        }
    }
}

/// Comparison function of a filter predicate (Table II: `filter function`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterFunction {
    /// `<`
    Less,
    /// `>`
    Greater,
    /// `<=`
    LessEq,
    /// `>=`
    GreaterEq,
    /// `!=`
    NotEq,
    /// String prefix test.
    StartsWith,
    /// String suffix test.
    EndsWith,
}

impl FilterFunction {
    /// All filter functions of Table II.
    pub const ALL: [FilterFunction; 7] = [
        FilterFunction::Less,
        FilterFunction::Greater,
        FilterFunction::LessEq,
        FilterFunction::GreaterEq,
        FilterFunction::NotEq,
        FilterFunction::StartsWith,
        FilterFunction::EndsWith,
    ];

    /// Index used for one-hot feature encoding.
    pub fn one_hot_index(self) -> usize {
        Self::ALL.iter().position(|f| *f == self).expect("member of ALL")
    }

    /// Relative evaluation cost (string scans cost more than comparisons).
    pub fn eval_cost(self) -> f64 {
        match self {
            FilterFunction::StartsWith | FilterFunction::EndsWith => 2.5,
            _ => 1.0,
        }
    }
}

/// Aggregation function (Table II: `agg. function`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunction {
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Mean,
    /// Paper lists `avg` alongside `mean`; kept as a distinct label.
    Avg,
}

impl AggFunction {
    /// All aggregation functions of Table II.
    pub const ALL: [AggFunction; 4] = [AggFunction::Min, AggFunction::Max, AggFunction::Mean, AggFunction::Avg];

    /// Index used for one-hot feature encoding.
    pub fn one_hot_index(self) -> usize {
        Self::ALL.iter().position(|f| *f == self).expect("member of ALL")
    }
}

/// A data source (spout): describes the characteristics of one unbounded
/// input stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SourceSpec {
    /// Tuples emitted per second at the event broker.
    pub event_rate: f64,
    /// Schema of the emitted tuples.
    pub schema: TupleSchema,
}

/// A filter operator with one or more conjunctive predicates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FilterSpec {
    /// Comparison function of the predicate.
    pub function: FilterFunction,
    /// Data type of the comparison literal.
    pub literal_type: DataType,
    /// True selectivity per Definition 6 (outgoing / incoming tuples).
    pub selectivity: f64,
}

/// A windowed aggregation operator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AggSpec {
    /// Aggregation function applied per window (and group).
    pub function: AggFunction,
    /// Data type of the aggregated attribute.
    pub agg_type: DataType,
    /// Data type of the group-by attribute, if any.
    pub group_by: Option<DataType>,
    /// Window configuration.
    pub window: WindowSpec,
    /// True selectivity per Definition 8 (distinct groups / window length).
    pub selectivity: f64,
}

/// A windowed join over two input streams.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JoinSpec {
    /// Data type of the join key.
    pub key_type: DataType,
    /// Window configuration applied to both inputs.
    pub window: WindowSpec,
    /// True selectivity per Definition 7 (qualifying pairs / cross product).
    pub selectivity: f64,
}

/// One operator of the query DAG.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// Data source.
    Source(SourceSpec),
    /// Filter.
    Filter(FilterSpec),
    /// Windowed aggregation.
    WindowAggregate(AggSpec),
    /// Windowed join.
    WindowJoin(JoinSpec),
    /// Terminal sink persisting/forwarding results.
    Sink,
}

impl OpKind {
    /// Short lowercase name, used in diagnostics and feature logs.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Source(_) => "source",
            OpKind::Filter(_) => "filter",
            OpKind::WindowAggregate(_) => "aggregate",
            OpKind::WindowJoin(_) => "join",
            OpKind::Sink => "sink",
        }
    }
}

/// A streaming query: operators plus logical data-flow edges.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Query {
    ops: Vec<OpKind>,
    /// Directed edges `(from, to)` along the data flow.
    edges: Vec<(OpId, OpId)>,
}

impl Query {
    /// Creates a query and validates its structure.
    ///
    /// # Panics
    /// Panics if the DAG is malformed (see [`Query::validate`]).
    pub fn new(ops: Vec<OpKind>, edges: Vec<(OpId, OpId)>) -> Self {
        let q = Query { ops, edges };
        q.validate().expect("malformed query");
        q
    }

    /// Structural validation: exactly one sink, at least one source, edges
    /// in range, acyclic, sources have no inputs, sink has no outputs,
    /// joins have exactly two inputs, filters/aggregates exactly one.
    pub fn validate(&self) -> Result<(), String> {
        if self.ops.is_empty() {
            return Err("empty query".into());
        }
        for &(a, b) in &self.edges {
            if a >= self.ops.len() || b >= self.ops.len() {
                return Err(format!("edge ({a},{b}) out of range"));
            }
            if a == b {
                return Err("self loop".into());
            }
        }
        let sinks = self.ops.iter().filter(|o| matches!(o, OpKind::Sink)).count();
        if sinks != 1 {
            return Err(format!("expected exactly 1 sink, found {sinks}"));
        }
        if !self.ops.iter().any(|o| matches!(o, OpKind::Source(_))) {
            return Err("no sources".into());
        }
        for (id, op) in self.ops.iter().enumerate() {
            let fan_in = self.upstream(id).len();
            let fan_out = self.downstream(id).len();
            match op {
                OpKind::Source(_) => {
                    if fan_in != 0 {
                        return Err(format!("source {id} has inputs"));
                    }
                    if fan_out == 0 {
                        return Err(format!("source {id} is disconnected"));
                    }
                }
                OpKind::Sink => {
                    if fan_out != 0 {
                        return Err(format!("sink {id} has outputs"));
                    }
                    if fan_in == 0 {
                        return Err(format!("sink {id} is disconnected"));
                    }
                }
                OpKind::WindowJoin(_) => {
                    if fan_in != 2 {
                        return Err(format!("join {id} has {fan_in} inputs, expected 2"));
                    }
                }
                OpKind::Filter(_) | OpKind::WindowAggregate(_) => {
                    if fan_in != 1 {
                        return Err(format!("{} {id} has {fan_in} inputs, expected 1", op.name()));
                    }
                    if fan_out == 0 {
                        return Err(format!("{} {id} is disconnected", op.name()));
                    }
                }
            }
        }
        // Acyclicity: topo_order errors on cycles.
        self.topo_order().map(|_| ())
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the query has no operators (never true for valid queries).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operator by id.
    pub fn op(&self, id: OpId) -> &OpKind {
        &self.ops[id]
    }

    /// All operators with their ids.
    pub fn ops(&self) -> impl Iterator<Item = (OpId, &OpKind)> {
        self.ops.iter().enumerate()
    }

    /// Logical data-flow edges.
    pub fn edges(&self) -> &[(OpId, OpId)] {
        &self.edges
    }

    /// Ids of operators feeding directly into `id`.
    pub fn upstream(&self, id: OpId) -> Vec<OpId> {
        self.edges.iter().filter(|&&(_, b)| b == id).map(|&(a, _)| a).collect()
    }

    /// Ids of operators directly consuming the output of `id`.
    pub fn downstream(&self, id: OpId) -> Vec<OpId> {
        self.edges.iter().filter(|&&(a, _)| a == id).map(|&(_, b)| b).collect()
    }

    /// Id of the sink.
    pub fn sink(&self) -> OpId {
        self.ops()
            .find(|(_, o)| matches!(o, OpKind::Sink))
            .map(|(i, _)| i)
            .expect("validated query has a sink")
    }

    /// Topological order along the data flow (sources first).
    pub fn topo_order(&self) -> Result<Vec<OpId>, String> {
        let n = self.ops.len();
        let mut in_deg = vec![0usize; n];
        for &(_, b) in &self.edges {
            in_deg[b] += 1;
        }
        let mut queue: Vec<OpId> = (0..n).filter(|&i| in_deg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &(a, b) in &self.edges {
                if a == v {
                    in_deg[b] -= 1;
                    if in_deg[b] == 0 {
                        queue.push(b);
                    }
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err("query graph contains a cycle".into())
        }
    }

    /// Output schema of every operator, computed along the data flow.
    ///
    /// Filters pass their input schema through; aggregations emit a compact
    /// result tuple (group key + aggregate, or just the aggregate); joins
    /// concatenate both input schemas.
    pub fn output_schemas(&self) -> Vec<TupleSchema> {
        let order = self.topo_order().expect("validated");
        let mut out: Vec<Option<TupleSchema>> = vec![None; self.ops.len()];
        for id in order {
            let ups = self.upstream(id);
            let schema = match &self.ops[id] {
                OpKind::Source(s) => s.schema.clone(),
                OpKind::Filter(_) => out[ups[0]].clone().expect("upstream visited"),
                OpKind::WindowAggregate(a) => {
                    let mut attrs = vec![a.agg_type];
                    if let Some(g) = a.group_by {
                        attrs.push(g);
                    }
                    // window start/end timestamps
                    attrs.push(DataType::Int);
                    attrs.push(DataType::Int);
                    TupleSchema::new(attrs)
                }
                OpKind::WindowJoin(_) => {
                    let a = out[ups[0]].clone().expect("upstream visited");
                    let b = out[ups[1]].clone().expect("upstream visited");
                    a.concat(&b)
                }
                OpKind::Sink => out[ups[0]].clone().expect("upstream visited"),
            };
            out[id] = Some(schema);
        }
        out.into_iter().map(|s| s.expect("all visited")).collect()
    }

    /// Average input tuple width of an operator (averaged over its inputs,
    /// matching the `tuple width in` feature of Table I); 0 for sources.
    pub fn input_width(&self, id: OpId, schemas: &[TupleSchema]) -> f64 {
        let ups = self.upstream(id);
        if ups.is_empty() {
            0.0
        } else {
            ups.iter().map(|&u| schemas[u].width() as f64).sum::<f64>() / ups.len() as f64
        }
    }

    /// Counts of each operator kind `(sources, filters, aggs, joins)`.
    pub fn kind_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for op in &self.ops {
            match op {
                OpKind::Source(_) => c.0 += 1,
                OpKind::Filter(_) => c.1 += 1,
                OpKind::WindowAggregate(_) => c.2 += 1,
                OpKind::WindowJoin(_) => c.3 += 1,
                OpKind::Sink => {}
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_schema() -> TupleSchema {
        TupleSchema::new(vec![DataType::Int, DataType::Double, DataType::String])
    }

    pub(crate) fn linear_query() -> Query {
        Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: 100.0,
                    schema: simple_schema(),
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

    fn join_query() -> Query {
        let w = WindowSpec {
            window_type: WindowType::Tumbling,
            policy: WindowPolicy::CountBased,
            size: 10.0,
            slide: 10.0,
        };
        Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: 100.0,
                    schema: simple_schema(),
                }),
                OpKind::Source(SourceSpec {
                    event_rate: 50.0,
                    schema: simple_schema(),
                }),
                OpKind::WindowJoin(JoinSpec {
                    key_type: DataType::Int,
                    window: w,
                    selectivity: 0.01,
                }),
                OpKind::Sink,
            ],
            vec![(0, 2), (1, 2), (2, 3)],
        )
    }

    #[test]
    fn linear_query_valid() {
        let q = linear_query();
        assert_eq!(q.sink(), 2);
        assert_eq!(q.upstream(1), vec![0]);
        assert_eq!(q.downstream(1), vec![2]);
    }

    #[test]
    fn join_schemas_concat() {
        let q = join_query();
        let schemas = q.output_schemas();
        assert_eq!(schemas[2].width(), 6);
        assert_eq!(q.input_width(3, &schemas), 6.0);
        assert_eq!(q.input_width(2, &schemas), 3.0);
    }

    #[test]
    fn agg_output_schema_compact() {
        let w = WindowSpec {
            window_type: WindowType::Sliding,
            policy: WindowPolicy::TimeBased,
            size: 2.0,
            slide: 1.0,
        };
        let q = Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: 10.0,
                    schema: simple_schema(),
                }),
                OpKind::WindowAggregate(AggSpec {
                    function: AggFunction::Mean,
                    agg_type: DataType::Double,
                    group_by: Some(DataType::String),
                    window: w,
                    selectivity: 0.3,
                }),
                OpKind::Sink,
            ],
            vec![(0, 1), (1, 2)],
        );
        let schemas = q.output_schemas();
        assert_eq!(schemas[1].width(), 4);
    }

    #[test]
    fn topo_order_sources_before_sink() {
        let q = join_query();
        let order = q.topo_order().unwrap();
        let pos = |x: OpId| order.iter().position(|&v| v == x).unwrap();
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn validation_rejects_two_sinks() {
        let q = Query {
            ops: vec![
                OpKind::Source(SourceSpec {
                    event_rate: 1.0,
                    schema: simple_schema(),
                }),
                OpKind::Sink,
                OpKind::Sink,
            ],
            edges: vec![(0, 1), (0, 2)],
        };
        assert!(q.validate().is_err());
    }

    #[test]
    fn validation_rejects_join_with_one_input() {
        let w = WindowSpec {
            window_type: WindowType::Tumbling,
            policy: WindowPolicy::CountBased,
            size: 5.0,
            slide: 5.0,
        };
        let q = Query {
            ops: vec![
                OpKind::Source(SourceSpec {
                    event_rate: 1.0,
                    schema: simple_schema(),
                }),
                OpKind::WindowJoin(JoinSpec {
                    key_type: DataType::Int,
                    window: w,
                    selectivity: 0.1,
                }),
                OpKind::Sink,
            ],
            edges: vec![(0, 1), (1, 2)],
        };
        assert!(q.validate().is_err());
    }

    #[test]
    fn validation_rejects_cycle() {
        let q = Query {
            ops: vec![
                OpKind::Source(SourceSpec {
                    event_rate: 1.0,
                    schema: simple_schema(),
                }),
                OpKind::Filter(FilterSpec {
                    function: FilterFunction::Greater,
                    literal_type: DataType::Int,
                    selectivity: 0.5,
                }),
                OpKind::Filter(FilterSpec {
                    function: FilterFunction::Greater,
                    literal_type: DataType::Int,
                    selectivity: 0.5,
                }),
                OpKind::Sink,
            ],
            edges: vec![(0, 1), (1, 2), (2, 1), (1, 3)],
        };
        assert!(q.validate().is_err());
    }

    #[test]
    fn window_tuple_math() {
        let count = WindowSpec {
            window_type: WindowType::Sliding,
            policy: WindowPolicy::CountBased,
            size: 100.0,
            slide: 50.0,
        };
        assert_eq!(count.tuples_in_window(37.0), 100.0);
        assert!((count.emission_period(10.0) - 5.0).abs() < 1e-9);
        let time = WindowSpec {
            window_type: WindowType::Tumbling,
            policy: WindowPolicy::TimeBased,
            size: 4.0,
            slide: 4.0,
        };
        assert_eq!(time.tuples_in_window(25.0), 100.0);
        assert_eq!(time.emission_period(25.0), 4.0);
    }

    #[test]
    fn kind_counts() {
        let q = join_query();
        assert_eq!(q.kind_counts(), (2, 0, 0, 1));
    }
}
