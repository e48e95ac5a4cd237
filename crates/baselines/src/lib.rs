//! # costream-baselines — the comparison systems of the evaluation
//!
//! * [`flat`] — the flat-vector learned cost model (\[16\] extended to
//!   streaming, §VII "Baselines"): one fixed-width feature vector per
//!   placed query, trained with gradient-boosted trees;
//! * [`gbdt`] — exact-split gradient-boosted decision trees, the
//!   substitution for LightGBM \[34\];
//! * [`monitoring`] — the online monitoring/rescheduling scheduler
//!   (\[1\], adapted) used by Exp 2b, including its migration overheads.

#![warn(missing_docs)]

pub mod flat;
pub mod gbdt;
pub mod monitoring;

pub use flat::{flat_features, FlatVectorModel, FLAT_WIDTH};
pub use gbdt::{Gbdt, GbdtConfig, Objective};
pub use monitoring::{run_monitoring, MonitoringRun};
