//! A fluent builder for streaming queries.
//!
//! Hand-assembling `(ops, edges)` vectors is error-prone for downstream
//! users; the builder tracks open stream heads and wires edges as
//! operators are appended, producing a validated [`Query`].
//!
//! ```
//! use costream_query::builder::QueryBuilder;
//! use costream_query::datatypes::DataType;
//! use costream_query::operators::{AggFunction, FilterFunction, WindowPolicy, WindowSpec, WindowType};
//!
//! let window = WindowSpec {
//!     window_type: WindowType::Tumbling,
//!     policy: WindowPolicy::CountBased,
//!     size: 20.0,
//!     slide: 20.0,
//! };
//! let query = QueryBuilder::new()
//!     .source(500.0, &[DataType::Int, DataType::Double])
//!     .filter(FilterFunction::Greater, DataType::Double, 0.4)
//!     .source(200.0, &[DataType::Int, DataType::Int, DataType::String])
//!     .join(DataType::Int, window, 0.01)
//!     .aggregate(AggFunction::Mean, DataType::Double, None, window, 0.5)
//!     .sink();
//! assert_eq!(query.len(), 6);
//! ```

use crate::datatypes::{DataType, TupleSchema};
use crate::operators::{
    AggFunction, AggSpec, FilterFunction, FilterSpec, JoinSpec, OpId, OpKind, Query, SourceSpec, WindowSpec,
};

/// Incrementally builds a [`Query`] by hand — how the simulator, search
/// and builder tests assemble the exact shapes they check (the generator
/// samples the workloads everything else runs).
///
/// The builder maintains a stack of *open heads* (stream ends not yet
/// consumed). Unary operators pop one head and push their own id; joins
/// pop two; [`QueryBuilder::sink`] requires exactly one open head.
#[derive(Debug, Default)]
pub struct QueryBuilder {
    ops: Vec<OpKind>,
    edges: Vec<(OpId, OpId)>,
    heads: Vec<OpId>,
}

impl QueryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a data source with the given event rate and schema, opening a
    /// new stream head.
    pub fn source(mut self, event_rate: f64, attributes: &[DataType]) -> Self {
        let id = self.ops.len();
        self.ops.push(OpKind::Source(SourceSpec {
            event_rate,
            schema: TupleSchema::new(attributes.to_vec()),
        }));
        self.heads.push(id);
        self
    }

    fn push_unary(&mut self, op: OpKind) {
        let head = self
            .heads
            .pop()
            .expect("a unary operator needs an open stream; add a source first");
        let id = self.ops.len();
        self.ops.push(op);
        self.edges.push((head, id));
        self.heads.push(id);
    }

    /// Appends a filter to the most recent stream head.
    ///
    /// # Panics
    /// Panics if no stream is open.
    pub fn filter(mut self, function: FilterFunction, literal_type: DataType, selectivity: f64) -> Self {
        self.push_unary(OpKind::Filter(FilterSpec {
            function,
            literal_type,
            selectivity,
        }));
        self
    }

    /// Appends a windowed aggregation to the most recent stream head.
    ///
    /// # Panics
    /// Panics if no stream is open.
    pub fn aggregate(
        mut self,
        function: AggFunction,
        agg_type: DataType,
        group_by: Option<DataType>,
        window: WindowSpec,
        selectivity: f64,
    ) -> Self {
        self.push_unary(OpKind::WindowAggregate(AggSpec {
            function,
            agg_type,
            group_by,
            window,
            selectivity,
        }));
        self
    }

    /// Joins the two most recently opened stream heads.
    ///
    /// # Panics
    /// Panics if fewer than two streams are open.
    pub fn join(mut self, key_type: DataType, window: WindowSpec, selectivity: f64) -> Self {
        assert!(self.heads.len() >= 2, "a join needs two open streams");
        let right = self.heads.pop().expect("checked");
        let left = self.heads.pop().expect("checked");
        let id = self.ops.len();
        self.ops.push(OpKind::WindowJoin(JoinSpec {
            key_type,
            window,
            selectivity,
        }));
        self.edges.push((left, id));
        self.edges.push((right, id));
        self.heads.push(id);
        self
    }

    /// Terminates the query with a sink and validates it.
    ///
    /// # Panics
    /// Panics unless exactly one stream head is open, or if the resulting
    /// query fails structural validation.
    pub fn sink(mut self) -> Query {
        assert_eq!(
            self.heads.len(),
            1,
            "a query needs exactly one open stream at the sink; {} are open",
            self.heads.len()
        );
        let head = self.heads.pop().expect("checked");
        let id = self.ops.len();
        self.ops.push(OpKind::Sink);
        self.edges.push((head, id));
        Query::new(self.ops, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{WindowPolicy, WindowType};

    fn window() -> WindowSpec {
        WindowSpec {
            window_type: WindowType::Tumbling,
            policy: WindowPolicy::CountBased,
            size: 10.0,
            slide: 10.0,
        }
    }

    #[test]
    fn linear_pipeline() {
        let q = QueryBuilder::new()
            .source(100.0, &[DataType::Int, DataType::Int, DataType::Int])
            .filter(FilterFunction::Less, DataType::Int, 0.5)
            .sink();
        assert_eq!(q.len(), 3);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn three_way_join_builds() {
        let q = QueryBuilder::new()
            .source(100.0, &[DataType::Int, DataType::Int, DataType::Int])
            .source(100.0, &[DataType::Int, DataType::Int, DataType::Int])
            .join(DataType::Int, window(), 0.01)
            .source(50.0, &[DataType::Int, DataType::Double, DataType::String])
            .join(DataType::Int, window(), 0.01)
            .sink();
        let (s, _, _, j) = q.kind_counts();
        assert_eq!((s, j), (3, 2));
    }

    #[test]
    #[should_panic(expected = "two open streams")]
    fn join_without_two_streams_panics() {
        let _ = QueryBuilder::new()
            .source(1.0, &[DataType::Int])
            .join(DataType::Int, window(), 0.1);
    }

    #[test]
    #[should_panic(expected = "exactly one open stream")]
    fn sink_with_two_open_streams_panics() {
        let _ = QueryBuilder::new()
            .source(1.0, &[DataType::Int])
            .source(1.0, &[DataType::Int])
            .sink();
    }

    #[test]
    #[should_panic(expected = "add a source first")]
    fn filter_without_source_panics() {
        let _ = QueryBuilder::new().filter(FilterFunction::Less, DataType::Int, 0.5);
    }

    #[test]
    fn builder_equals_manual_construction() {
        use crate::operators::SourceSpec;
        let manual = Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: 100.0,
                    schema: TupleSchema::new(vec![DataType::Int]),
                }),
                OpKind::Filter(FilterSpec {
                    function: FilterFunction::NotEq,
                    literal_type: DataType::Int,
                    selectivity: 0.9,
                }),
                OpKind::Sink,
            ],
            vec![(0, 1), (1, 2)],
        );
        let built = QueryBuilder::new()
            .source(100.0, &[DataType::Int])
            .filter(FilterFunction::NotEq, DataType::Int, 0.9)
            .sink();
        assert_eq!(manual, built);
    }
}
