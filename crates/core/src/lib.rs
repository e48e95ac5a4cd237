//! # costream — learned cost models for operator placement
//!
//! A from-scratch Rust implementation of *Costream* (ICDE 2024): a
//! zero-shot learned cost model that predicts the execution costs of a
//! distributed streaming query **before** running it, for any operator
//! placement on heterogeneous edge-cloud hardware, and the placement
//! optimizer built on top of it.
//!
//! * [`graph`] — the joint operator-resource graph (§III-A) and the
//!   featurization ablations of Exp 7a;
//! * [`model`] — the GNN with the paper's three-phase message-passing
//!   scheme (Algorithm 1) and the traditional-scheme ablation of Exp 7b,
//!   with its one training pass (forward and backward);
//! * [`fused`] — the one inference pass: every single model and every
//!   ensemble predicts through a member-fused view run by one engine;
//! * [`plan`] — precomputed [`plan::BatchPlan`]s: per-batch gather/scatter
//!   bookkeeping built once and reused across epochs and ensemble members,
//!   plus the [`plan::PlanCache`] of per-graph topology fragments that
//!   lets serving layers plan a batch of any shapes by stitching instead
//!   of traversing the graphs, and the
//!   hash-consed slot schedule the fused pass runs (each distinct node
//!   state once per batch, or once per search through the search's
//!   [`search::ScoreMemo`]) — every caller scores through the one engine,
//!   [`fused::ScoreEngine`];
//! * [`dataset`] — benchmark corpora (§VI): generation against the
//!   simulator, 80/10/10 splits, balanced classification subsets;
//! * [`train`] — per-metric training (MSLE regression / BCE
//!   classification) and few-shot fine-tuning (Exp 5b);
//! * [`ensemble`] — seed-varied ensembles with mean/majority-vote
//!   combination (§IV-A);
//! * [`optimizer`] — heuristic placement enumeration (Fig. 5) and
//!   cost-based candidate selection (Fig. 4);
//! * [`search`] — the pluggable placement-search subsystem: the
//!   [`search::Scorer`] backend abstraction (direct ensembles or the
//!   serving layer) and the [`search::PlacementSearch`] strategies
//!   (random enumeration, beam search, hill climbing with restarts,
//!   simulated annealing), each an adapter onto the one search core;
//! * [`joint`] — that core: contention-aware scoring and the
//!   [`joint::JointPlacementSearch`] strategies over N queries sharing
//!   a cluster (a single query is N = 1), plus migration-aware
//!   [`joint::replan`] through the same evaluator;
//! * [`qerror`] — the q-error / accuracy evaluation metrics of §VII.
//!
//! ```no_run
//! use costream::prelude::*;
//!
//! // 1. Build a benchmark corpus against the bundled DSPS simulator.
//! let corpus = Corpus::generate(1000, 42, FeatureRanges::training(), &SimConfig::default());
//! let (train, _val, test) = corpus.split(0);
//!
//! // 2. Train a throughput model and evaluate its q-error.
//! let model = train_metric(&train, CostMetric::Throughput, &TrainConfig::default());
//! println!("{}", model.evaluate_regression(&test));
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod dataset;
pub mod ensemble;
pub mod fused;
pub mod graph;
pub mod interference;
pub mod joint;
pub mod model;
pub mod optimizer;
#[doc(hidden)]
pub mod oracle;
pub mod plan;
pub mod qerror;
pub mod search;
#[doc(hidden)]
pub mod test_fixtures;
pub mod train;

/// Convenience re-exports for typical usage.
pub mod prelude {
    pub use crate::adaptive::{run_adaptive, run_static, AdaptiveConfig, AdaptiveProblem, AdaptiveRun, EpochRecord};
    pub use crate::dataset::{Corpus, CorpusItem};
    pub use crate::ensemble::Ensemble;
    pub use crate::fused::FusedEnsemble;
    pub use crate::graph::{CandidateBatch, Featurization, GraphTemplate, JointGraph};
    pub use crate::interference::{proportional_inflation, rate_weighted_share, InterferenceModel, INTERFERENCE_DIM};
    pub use crate::joint::{
        replan, JointCandidateEvaluation, JointOptimizationResult, JointPlacementSearch, JointQuery, JointScorer,
        JointSearchProblem, MigrationCostModel, ReplanConfig, ReplanError, ReplanOutcome,
    };
    pub use crate::model::{GnnModel, ModelConfig, Scheme};
    pub use crate::optimizer::{enumerate_candidates, OptimizationResult, PlacementOptimizer};
    pub use crate::plan::{plan_signature, BatchPlan, PlanCache, PlanSignature};
    pub use crate::qerror::{accuracy, q_error, QErrorSummary};
    pub use crate::search::{
        BeamSearch, EnsembleScorer, LocalSearch, PlacementScores, PlacementSearch, RandomEnumeration, ScoreMemo,
        Scorer, SearchProblem, SearchStats, SimulatedAnnealing,
    };
    pub use crate::train::{fine_tune, train_metric, TrainConfig, TrainedModel};
    pub use costream_dsps::{
        generate_corpus, profile_loads, CorunConfig, CorunSample, CostMetric, CostMetrics, OpClass, OpLoad, SimConfig,
    };
    pub use costream_query::ranges::FeatureRanges;
}

pub use prelude::*;
