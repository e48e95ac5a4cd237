//! Set-up: every input of a run, made from `--seed`, and the models the
//! timed phases score with.
//!
//! The program under test receives only what is generated here. Nothing
//! comes from `costream::test_fixtures` or `costream_front::loadgen`, so a
//! later change to the program cannot change the load.

use costream::prelude::*;
use costream_dsps::corun::{generate_corpus, CorunConfig};
use costream_query::generator::WorkloadGenerator;
use costream_query::hardware::Cluster;
use costream_query::operators::Query;
use costream_query::selectivity::SelectivityEstimator;

/// Which way the wire phase uses the serving layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireKind {
    /// `wire_hot`: 8 topologies × 8 selectivity variants, uploaded once,
    /// then `ScorePooled` — recurring shapes, tiny frames, plan cache hot.
    Hot,
    /// `wire_cold`: inline `Score { graph }` round-robin over 1 024 distinct
    /// generator topologies (> 2 × `plan_cache_cap` per shard pair).
    Cold,
}

/// Which cluster shape the search phase runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchKind {
    /// `search_narrow`: every item has its own 8-host edge-cloud cluster.
    Narrow,
    /// `search_wide`: every item shares one 512-host `wide_cluster`.
    Wide,
}

/// A workload: one wire phase, one search phase and the build phase.
#[derive(Clone, Copy, Debug)]
pub struct Variant {
    pub name: &'static str,
    pub wire: WireKind,
    pub search: SearchKind,
}

pub const VARIANTS: [Variant; 2] = [
    Variant {
        name: "hot_narrow",
        wire: WireKind::Hot,
        search: SearchKind::Narrow,
    },
    Variant {
        name: "cold_wide",
        wire: WireKind::Cold,
        search: SearchKind::Wide,
    },
];

impl Variant {
    pub fn wire_phase(&self) -> &'static str {
        match self.wire {
            WireKind::Hot => "wire_hot",
            WireKind::Cold => "wire_cold",
        }
    }

    pub fn search_phase(&self) -> &'static str {
        match self.search {
            SearchKind::Narrow => "search_narrow",
            SearchKind::Wide => "search_wide",
        }
    }
}

/// Set-up sizes. Fixed, not scaled by `--seconds`: the models every timed
/// phase scores with must not depend on how long the run measures.
pub const SETUP_CORPUS: usize = 400;
pub const SETUP_EPOCHS: usize = 10;
pub const SETUP_MEMBERS: usize = 3;
const HOT_TOPOLOGIES: usize = 8;
const HOT_VARIANTS: usize = 8;
const COLD_TOPOLOGIES: usize = 1024;
const NARROW_HOSTS: usize = 8;
const WIDE_HOSTS: usize = 512;
pub const JOINT_QUERIES: usize = 3;
/// Items per search pass. What a decision costs depends on the query drawn,
/// so a median over few items is mostly a property of the seed; what every
/// item needs to be read well is a few dozen passes (its fastest is
/// reported), so a pass has to stay under a second. 200 single items leave
/// ten beyond their 95th percentile.
const SINGLE_ITEMS: usize = 200;
const NARROW_JOINT_ITEMS: usize = 64;
const WIDE_JOINT_ITEMS: usize = 48;

/// An independent seed per input stream, so adding a stream never shifts
/// the others.
pub fn mix(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The three ensembles of the Fig. 4 placement procedure plus the learned
/// co-run interference model.
pub struct Models {
    pub target: Ensemble,
    pub success: Ensemble,
    pub backpressure: Ensemble,
    pub interference: InterferenceModel,
}

impl Models {
    pub fn scorer(&self) -> EnsembleScorer<'_> {
        EnsembleScorer::new(&self.target, &self.success, &self.backpressure)
    }
}

/// Graphs the wire phase sends and the score each must come back with.
pub struct WireInputs {
    pub graphs: Vec<JointGraph>,
    /// `Ensemble::predict_graphs` of the target model, per graph.
    pub expected: Vec<f64>,
}

/// One single-query search problem.
pub struct SingleItem {
    pub query: Query,
    pub cluster: usize,
    pub sels: Vec<f64>,
}

/// One joint (and re-plan) problem: [`JOINT_QUERIES`] queries on one cluster.
pub struct JointItem {
    pub queries: Vec<Query>,
    pub cluster: usize,
    pub sels: Vec<Vec<f64>>,
}

pub struct SearchInputs {
    pub clusters: Vec<Cluster>,
    pub singles: Vec<SingleItem>,
    pub joints: Vec<JointItem>,
}

pub struct Fixtures {
    pub models: Models,
    pub wire: WireInputs,
    pub search: SearchInputs,
}

/// Solo traces simulated and items × epochs × members trained by one
/// [`setup`], for the reader of `setup_s`.
pub fn setup_work() -> (usize, usize) {
    (SETUP_CORPUS, SETUP_CORPUS * SETUP_EPOCHS * SETUP_MEMBERS * 3)
}

pub fn setup(variant: &Variant, seed: u64) -> Fixtures {
    let models = train_models(seed);
    let wire = wire_inputs(variant.wire, seed, &models.target);
    let search = search_inputs(variant.search, seed);
    Fixtures { models, wire, search }
}

fn train_models(seed: u64) -> Models {
    let corpus = Corpus::generate(
        SETUP_CORPUS,
        mix(seed, 1),
        FeatureRanges::training(),
        &SimConfig::default(),
    );
    let cfg = TrainConfig {
        epochs: SETUP_EPOCHS,
        seed: mix(seed, 2),
        ..Default::default()
    };
    let interference = InterferenceModel::fit(
        &generate_corpus(&CorunConfig {
            seed: mix(seed, 3),
            ..Default::default()
        }),
        1.0,
    );
    Models {
        target: Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, SETUP_MEMBERS),
        success: Ensemble::train(&corpus, CostMetric::Success, &cfg, SETUP_MEMBERS),
        backpressure: Ensemble::train(&corpus, CostMetric::Backpressure, &cfg, SETUP_MEMBERS),
        interference,
    }
}

fn wire_inputs(kind: WireKind, seed: u64, target: &Ensemble) -> WireInputs {
    let feat = target.featurization();
    let mut gen = WorkloadGenerator::new(mix(seed, 10), FeatureRanges::training());
    let graphs: Vec<JointGraph> = match kind {
        WireKind::Hot => (0..HOT_TOPOLOGIES)
            .flat_map(|t| {
                let (query, cluster, placement) = gen.workload_item();
                (0..HOT_VARIANTS)
                    .map(|v| {
                        let stream = 100 + (t * HOT_VARIANTS + v) as u64;
                        let sels = SelectivityEstimator::realistic(mix(seed, stream)).estimate_query(&query);
                        JointGraph::build(&query, &cluster, &placement, &sels, feat)
                    })
                    .collect::<Vec<_>>()
            })
            .collect(),
        WireKind::Cold => {
            let mut est = SelectivityEstimator::realistic(mix(seed, 11));
            (0..COLD_TOPOLOGIES)
                .map(|_| {
                    let (query, cluster, placement) = gen.workload_item();
                    let sels = est.estimate_query(&query);
                    JointGraph::build(&query, &cluster, &placement, &sels, feat)
                })
                .collect()
        }
    };
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let expected = target.predict_graphs(&refs);
    WireInputs { graphs, expected }
}

fn search_inputs(kind: SearchKind, seed: u64) -> SearchInputs {
    let mut gen = WorkloadGenerator::new(mix(seed, 20), FeatureRanges::training());
    let n_joint = match kind {
        SearchKind::Narrow => NARROW_JOINT_ITEMS,
        SearchKind::Wide => WIDE_JOINT_ITEMS,
    };
    let mut clusters = Vec::new();
    if kind == SearchKind::Wide {
        clusters.push(gen.wide_cluster(WIDE_HOSTS));
    }
    let mut cluster_for_item = |gen: &mut WorkloadGenerator| match kind {
        SearchKind::Narrow => {
            clusters.push(gen.cluster(NARROW_HOSTS));
            clusters.len() - 1
        }
        SearchKind::Wide => 0,
    };
    let mut stream = 200u64;
    let mut estimate = |q: &Query| {
        stream += 1;
        SelectivityEstimator::realistic(mix(seed, stream)).estimate_query(q)
    };
    let singles = (0..SINGLE_ITEMS)
        .map(|_| {
            let query = gen.query();
            let cluster = cluster_for_item(&mut gen);
            let sels = estimate(&query);
            SingleItem { query, cluster, sels }
        })
        .collect();
    let joints = (0..n_joint)
        .map(|_| {
            let queries: Vec<Query> = (0..JOINT_QUERIES).map(|_| gen.query()).collect();
            let cluster = cluster_for_item(&mut gen);
            let sels = queries.iter().map(&mut estimate).collect();
            JointItem { queries, cluster, sels }
        })
        .collect();
    SearchInputs {
        clusters,
        singles,
        joints,
    }
}
