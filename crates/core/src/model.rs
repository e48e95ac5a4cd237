//! The Costream GNN (§III-B, Algorithm 1).
//!
//! Per-node-type encoder MLPs turn transferable features into hidden
//! states; the states are then refined by the paper's three-phase message
//! passing — operators→hardware, hardware→operators, sources→operators
//! along the data flow — each update computing
//! `h'_v = MLP'_T([Σ_{u∈children(v)} h'_u ‖ h_v])`; finally a sum readout
//! over all node states feeds the output MLP. The *traditional* synchronous
//! scheme of the Exp 7b ablation is available behind [`Scheme`].
//!
//! A [`GnnModel`] runs one pass itself: the tape-recording training
//! forward. Inference is the one fused pass of [`crate::fused`] — a
//! trained model predicts through its one-member view
//! ([`crate::train::TrainedModel::fused`]), an ensemble through its
//! k-member view — and the node-by-node pass survives only as the
//! sequential oracle of the bitwise tests (the hidden `oracle` module).

use crate::graph::JointGraph;
use crate::plan::{BatchPlan, WavePlan};
use costream_nn::{
    EncodeSpec, EncoderPart, InferenceArena, Initializer, Mlp, NodeId, ParamStore, Tape, WaveGroup, WaveSpec,
};
use costream_query::features::NodeType;
use serde::{Deserialize, Serialize};

/// Message-passing scheme (Exp 7b ablation, Fig. 13).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// The paper's scheme: OPS→HW, HW→OPS, SOURCES→OPS (Algorithm 1).
    Costream,
    /// Traditional GNN: several rounds in which every node is updated from
    /// all of its neighbours simultaneously, regardless of node type.
    Traditional,
}

/// Hyper-parameters of the GNN.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Width of the hidden states `h_v`.
    pub hidden: usize,
    /// Hidden width of the per-type encoder MLPs.
    pub encoder_hidden: usize,
    /// Hidden width of the per-type update MLPs.
    pub update_hidden: usize,
    /// Hidden width of the readout MLP.
    pub readout_hidden: usize,
    /// Message-passing scheme.
    pub scheme: Scheme,
    /// Rounds of synchronous updates for [`Scheme::Traditional`].
    pub traditional_rounds: usize,
    /// Weight-initialization seed (the ensemble members differ only here).
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            hidden: 32,
            encoder_hidden: 48,
            update_hidden: 48,
            readout_hidden: 32,
            scheme: Scheme::Costream,
            traditional_rounds: 3,
            seed: 0,
        }
    }
}

impl ModelConfig {
    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different message-passing scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Whether two configurations produce interchangeable *serving*
    /// artifacts: identical layer shapes and identical
    /// [`BatchPlan`] topologies (plan signatures
    /// hash the message-passing scheme and round count). The seed is
    /// deliberately ignored — it only varies the weight init, which is
    /// exactly what a hot model swap replaces. The serving layer refuses
    /// to swap in an ensemble whose config is not plan-congruent, because
    /// queued requests' precomputed signatures (and every cached plan)
    /// would silently stop matching.
    pub fn plan_congruent(&self, other: &ModelConfig) -> bool {
        self.hidden == other.hidden
            && self.encoder_hidden == other.encoder_hidden
            && self.update_hidden == other.update_hidden
            && self.readout_hidden == other.readout_hidden
            && self.scheme == other.scheme
            && self.traditional_rounds == other.traditional_rounds
    }

    /// Asserts that `plan` was built for this configuration's message
    /// passing: every forward pass over a plan checks this first.
    pub(crate) fn check_plan(&self, plan: &BatchPlan) {
        self.check_scheme(plan.topo.scheme, plan.topo.traditional_rounds);
    }

    /// Asserts that a plan or slot schedule built for `scheme` and
    /// `traditional_rounds` suits this configuration's message passing.
    pub(crate) fn check_scheme(&self, scheme: Scheme, traditional_rounds: usize) {
        assert_eq!(scheme, self.scheme, "plan built for a different message-passing scheme");
        if self.scheme == Scheme::Traditional {
            assert_eq!(
                traditional_rounds, self.traditional_rounds,
                "plan built for different round count"
            );
        }
    }
}

/// The GNN over joint operator-resource graphs. Output semantics depend on
/// the trained metric: `log1p(cost)` for regression heads, a logit for
/// classification heads (see [`crate::train`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GnnModel {
    config: ModelConfig,
    store: ParamStore,
    encoders: Vec<Mlp>,
    updaters: Vec<Mlp>,
    readout: Mlp,
}

impl GnnModel {
    /// Creates a model with freshly initialized weights.
    pub fn new(config: ModelConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(config.seed);
        let encoders = NodeType::ALL
            .iter()
            .map(|t| {
                Mlp::new(
                    &mut store,
                    &mut init,
                    &format!("enc.{}", t.name()),
                    &[t.feature_width(), config.encoder_hidden, config.hidden],
                )
            })
            .collect();
        let updaters = NodeType::ALL
            .iter()
            .map(|t| {
                Mlp::new(
                    &mut store,
                    &mut init,
                    &format!("upd.{}", t.name()),
                    &[2 * config.hidden, config.update_hidden, config.hidden],
                )
            })
            .collect();
        let readout = Mlp::new(
            &mut store,
            &mut init,
            "readout",
            &[config.hidden, config.readout_hidden, 1],
        );
        GnnModel {
            config,
            store,
            encoders,
            updaters,
            readout,
        }
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The parameter store (exposed for gradient-buffer construction).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The parameter store (exposed for optimizers and fine-tuning).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Per-type encoder MLPs, indexed like [`NodeType::ALL`] (exposed for
    /// stacked-weight views in [`crate::fused`]).
    pub(crate) fn encoders(&self) -> &[Mlp] {
        &self.encoders
    }

    /// Per-type update MLPs, indexed like [`NodeType::ALL`].
    pub(crate) fn updaters(&self) -> &[Mlp] {
        &self.updaters
    }

    /// The readout MLP.
    pub(crate) fn readout(&self) -> &Mlp {
        &self.readout
    }

    /// Builds the execution plan for a batch of graphs under this model's
    /// scheme. Plans depend only on graph structure, so one plan serves
    /// every epoch and every seed-varied ensemble member.
    pub fn plan(&self, graphs: &[&JointGraph]) -> BatchPlan {
        BatchPlan::build(graphs, self.config.scheme, self.config.traditional_rounds)
    }

    /// Tape-recording forward pass driven by a precomputed [`BatchPlan`]:
    /// the training forward. The returned tape supports `backward`.
    ///
    /// The tape holds one fused node for the per-type encoders and one per
    /// message-passing wave that has a live target, each running a
    /// `costream_nn::wave` routine and keeping only what its hand-written
    /// backward replays, then the readout as small ops (a segment sum and
    /// the output MLP's affine nodes). Gradients are bitwise those of the
    /// per-op chain the fused nodes replace; outputs are bitwise those of
    /// inference.
    ///
    /// A wave none of whose targets' new states anything reads is not
    /// recorded — in the Costream scheme the HW→OPS wave, whose rows the
    /// dataflow waves overwrite unread; a wave with one live target runs
    /// whole. The liveness flags come with the plan's topology. Skipping
    /// moves no output bit, and no gradient bit but the sign of an exactly
    /// zero sum: a dead row's upstream gradient is exactly zero, and each
    /// weight-gradient element is one accumulation chain over rows. The
    /// sequential oracle (`costream::oracle`) alone still computes the
    /// unread rows, as the witness.
    ///
    /// The tape borrows both this model's parameters (zero-clone pinning)
    /// and the plan's feature matrices and index lists (zero-copy op
    /// recording), so per-minibatch tape construction copies neither —
    /// drop the tape before mutating either.
    ///
    /// The tape draws its buffers from `arena`. A training loop passes the
    /// arena the previous minibatch's tape returned ([`Tape::into_arena`]);
    /// after the first minibatch nothing the tape holds is allocated again.
    ///
    /// # Panics
    /// Panics when the plan was built for a different scheme.
    pub fn forward_with_plan_in<'m>(&'m self, plan: &'m BatchPlan, arena: InferenceArena) -> (Tape<'m>, NodeId) {
        self.config.check_plan(plan);
        let mut tape = Tape::with_arena(arena);
        let h0 = tape.encode_scatter(plan, &self.encoders, &self.store, plan.topo.total, self.config.hidden);
        let mut cur = h0;
        for (wave, live) in plan.topo.live_waves() {
            if live.contains(&true) {
                cur = tape.wave_update(cur, h0, wave, &self.updaters, &self.store);
            }
        }
        // Readout: sum all node states per graph, then the output MLP.
        let pooled = tape.segment_sum(cur, &plan.topo.graph_of, plan.topo.n_graphs);
        let out = self.readout.forward(&mut tape, &self.store, pooled);
        (tape, out)
    }
}

/// A plan's encoder routing, as the shared encoding routine reads it: MLP
/// indices are positions in `NodeType::ALL`, like [`GnnModel`]'s encoders.
impl EncodeSpec for BatchPlan {
    fn parts(&self) -> usize {
        self.topo.n_encoders()
    }

    fn part(&self, i: usize) -> EncoderPart<'_> {
        let (mlp, globals) = self.topo.encoder(i);
        EncoderPart {
            mlp,
            features: &self.features[i],
            globals,
        }
    }
}

/// One planned wave, as the shared wave routine reads it.
impl WaveSpec for WavePlan {
    fn child_rows(&self) -> &[usize] {
        WavePlan::child_rows(self)
    }

    fn segs(&self) -> &[usize] {
        WavePlan::segs(self)
    }

    fn targets(&self) -> &[usize] {
        WavePlan::targets(self)
    }

    fn groups(&self) -> usize {
        self.n_groups()
    }

    fn group(&self, i: usize) -> WaveGroup<'_> {
        let g = WavePlan::group(self, i);
        WaveGroup {
            mlp: g.type_index,
            rows: g.rows,
            globals: g.globals,
            is_identity: g.is_identity,
        }
    }
}

/// Graphs per inference chunk: big enough to amortize plan construction,
/// small enough to parallelize candidate scoring across cores. The
/// serving layer chunks its coalesced batches at the same width so served
/// results are bitwise identical to the direct prediction path.
///
/// Per-graph predictions are bitwise independent of how graphs are
/// chunked into batches (graphs only interact through per-graph segment
/// sums), so the width sets throughput, never results.
pub const INFERENCE_CHUNK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Featurization;
    use crate::train::TrainedModel;
    use costream_dsps::CostMetric;
    use costream_query::generator::WorkloadGenerator;
    use costream_query::ranges::FeatureRanges;
    use costream_query::selectivity::SelectivityEstimator;

    fn graphs(n: usize, featurization: Featurization) -> Vec<JointGraph> {
        let mut g = WorkloadGenerator::new(7, FeatureRanges::training());
        let mut e = SelectivityEstimator::realistic(8);
        (0..n)
            .map(|_| {
                let (q, c, p) = g.workload_item();
                let sels = e.estimate_query(&q);
                JointGraph::build(&q, &c, &p, &sels, featurization)
            })
            .collect()
    }

    /// Raw outputs of `model` on the production route: its one-member
    /// fused view.
    fn raw(model: &GnnModel, graphs: &[&JointGraph]) -> Vec<f32> {
        TrainedModel::new(CostMetric::Throughput, Featurization::Full, (0.0, 1.0), model.clone())
            .fused()
            .raw_graphs(graphs)
    }

    #[test]
    fn forward_produces_one_output_per_graph() {
        let gs = graphs(5, Featurization::Full);
        let model = GnnModel::new(ModelConfig::default());
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let out = raw(&model, &refs);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_works_without_host_nodes() {
        let gs = graphs(3, Featurization::QueryOnly);
        let model = GnnModel::new(ModelConfig::default());
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let out = raw(&model, &refs);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn traditional_scheme_runs() {
        let gs = graphs(3, Featurization::Full);
        let model = GnnModel::new(ModelConfig::default().with_scheme(Scheme::Traditional));
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let out = raw(&model, &refs);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    /// Chunking never changes results: a graph scored in a batch and alone
    /// gives the same bits.
    #[test]
    fn batching_matches_single_graph_forward() {
        let gs = graphs(4, Featurization::Full);
        let model = GnnModel::new(ModelConfig::default());
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let batched = raw(&model, &refs);
        for (i, g) in gs.iter().enumerate() {
            let single = raw(&model, &[g]);
            assert_eq!(
                batched[i].to_bits(),
                single[0].to_bits(),
                "graph {i}: batched {} vs single {}",
                batched[i],
                single[0]
            );
        }
    }

    #[test]
    fn different_seeds_different_predictions() {
        let gs = graphs(1, Featurization::Full);
        let a = GnnModel::new(ModelConfig::default().with_seed(1));
        let b = GnnModel::new(ModelConfig::default().with_seed(2));
        assert_ne!(raw(&a, &[&gs[0]]), raw(&b, &[&gs[0]]));
    }

    #[test]
    fn placement_changes_prediction() {
        // The whole point of the joint graph: the same query on different
        // placements must produce different model inputs/outputs.
        let mut wg = WorkloadGenerator::new(9, FeatureRanges::training());
        let q = wg.query();
        let c = wg.cluster(4);
        let mut e = SelectivityEstimator::new(1, 0.0);
        let sels = e.estimate_query(&q);
        let p1 = costream_query::placement::colocate_on_strongest(&q, &c);
        let p2 = costream_query::Placement::new(vec![0; q.len()]);
        let g1 = JointGraph::build(&q, &c, &p1, &sels, Featurization::Full);
        let g2 = JointGraph::build(&q, &c, &p2, &sels, Featurization::Full);
        let model = GnnModel::new(ModelConfig::default());
        assert_ne!(raw(&model, &[&g1]), raw(&model, &[&g2]));
    }

    #[test]
    fn parameter_count_is_substantial() {
        let model = GnnModel::new(ModelConfig::default());
        let store = model.store();
        let scalars: usize = store.ids().map(|id| store.value(id).len()).sum();
        assert!(scalars > 10_000, "{scalars}");
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let gs = graphs(2, Featurization::Full);
        let model = GnnModel::new(ModelConfig::default());
        let json = serde_json::to_string(&model).expect("serialize");
        let restored: GnnModel = serde_json::from_str(&json).expect("deserialize");
        let refs: Vec<&JointGraph> = gs.iter().collect();
        assert_eq!(raw(&model, &refs), raw(&restored, &refs));
    }
}
