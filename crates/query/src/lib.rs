//! # costream-query — streaming queries, hardware and workloads
//!
//! The query-side substrate of the Costream reproduction:
//!
//! * [`operators`] — the algebraic streaming operator DAG (§III-A):
//!   sources, filters, windowed aggregations, windowed joins, sink;
//! * [`datatypes`] — tuple schemas and attribute types;
//! * [`hardware`] — heterogeneous hosts, clusters, capability bins;
//! * [`placement`] — operator→host mappings and the validity rules of the
//!   heuristic enumeration strategy (Fig. 5);
//! * [`joint`] — multi-query co-placement: joint placements with per-host
//!   occupancy and the cross-query edit neighborhood;
//! * [`features`] — the transferable features of Table I;
//! * [`ranges`] — the training/evaluation feature ranges of Tables II/IV/V;
//! * [`generator`] — the synthetic benchmark generator of §VI (Fig. 6
//!   templates);
//! * [`selectivity`] — noisy sample-based selectivity estimation (Defs 6–8);
//! * [`benchmarks`] — the real-world benchmark queries of Exp 6.

#![warn(missing_docs)]

pub mod benchmarks;
pub mod datatypes;
pub mod features;
pub mod generator;
pub mod hardware;
pub mod joint;
pub mod operators;
pub mod placement;
pub mod ranges;
pub mod selectivity;

pub use datatypes::{DataType, TupleSchema};
pub use generator::{QueryTemplate, WorkloadGenerator};
pub use hardware::{CapabilityBin, Cluster, Host, HostId};
pub use joint::{JointMove, JointNeighborhood, JointPlacement};
pub use operators::{OpId, OpKind, Query, WindowPolicy, WindowSpec, WindowType};
pub use placement::{Placement, PlacementViolation};
pub use ranges::FeatureRanges;
