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
//! A [`GnnModel`] runs one pass itself: the training pass
//! ([`GnnModel::train_forward`] and [`GnnModel::train_backward`]).
//! Inference is the one fused pass of [`crate::fused`] — a trained model
//! predicts through its one-member view
//! ([`crate::train::TrainedModel::fused`]), an ensemble through its
//! k-member view. Both passes are held to one per-op chain, which the
//! sequential oracle of the bitwise tests (the hidden `oracle` module)
//! runs over real plans.

use crate::graph::JointGraph;
use crate::plan::BatchPlan;
use costream_nn::{
    BatchSpec, EncodeSpec, EncoderPart, Gnn, Gradients, InferenceArena, Initializer, Mlp, ParamStore, Tensor,
    TrainingPass, WaveSpec,
};
use costream_query::features::NodeType;
use serde::{json, DeError, Deserialize, Serialize};

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
#[derive(Clone, Debug, Serialize)]
pub struct GnnModel {
    config: ModelConfig,
    store: ParamStore,
    encoders: Vec<Mlp>,
    updaters: Vec<Mlp>,
    readout: Mlp,
}

/// A [`GnnModel`] as stored, before its layers are checked.
#[derive(Deserialize)]
struct StoredGnnModel {
    config: ModelConfig,
    store: ParamStore,
    encoders: Vec<Mlp>,
    updaters: Vec<Mlp>,
    readout: Mlp,
}

/// A stored model loads only if it is a model [`GnnModel::new`] could have
/// built for its config: one encoder and one update MLP per node type, the
/// layer widths the config and each type's feature width give (so each
/// MLP's widths chain), and every layer's weight (`in_dim x out_dim`) and
/// bias (`1 x out_dim`) in the store at those shapes. Anything else is a
/// load error, not a model whose first prediction reads out of bounds.
impl Deserialize for GnnModel {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        let StoredGnnModel {
            config,
            store,
            encoders,
            updaters,
            readout,
        } = StoredGnnModel::read_json(r)?;
        let types = NodeType::ALL.len();
        if encoders.len() != types || updaters.len() != types {
            return Err(DeError::msg(format!(
                "model has {} encoders and {} update MLPs, not one per node type ({types})",
                encoders.len(),
                updaters.len()
            )));
        }
        let c = &config;
        for (t, (enc, upd)) in NodeType::ALL.iter().zip(encoders.iter().zip(&updaters)) {
            let (enc_widths, upd_widths) = (
                [t.feature_width(), c.encoder_hidden, c.hidden],
                [2 * c.hidden, c.update_hidden, c.hidden],
            );
            check_mlp(&store, enc, &enc_widths, &format!("encoder {}", t.name()))?;
            check_mlp(&store, upd, &upd_widths, &format!("update MLP {}", t.name()))?;
        }
        check_mlp(&store, &readout, &[c.hidden, c.readout_hidden, 1], "readout")?;
        Ok(GnnModel {
            config,
            store,
            encoders,
            updaters,
            readout,
        })
    }
}

/// `Ok` when `mlp`'s layers have exactly the `widths` and every weight
/// and bias is in `store` at its layer's shape.
fn check_mlp(store: &ParamStore, mlp: &Mlp, widths: &[usize], what: &str) -> Result<(), DeError> {
    let fail = |msg: String| Err(DeError::msg(format!("{what}: {msg}")));
    if mlp.layers().len() + 1 != widths.len() {
        return fail(format!(
            "{} layers, the config gives {}",
            mlp.layers().len(),
            widths.len() - 1
        ));
    }
    for (i, (layer, w)) in mlp.layers().iter().zip(widths.windows(2)).enumerate() {
        if (layer.in_dim(), layer.out_dim()) != (w[0], w[1]) {
            let got = (layer.in_dim(), layer.out_dim());
            return fail(format!("layer {i} is {got:?}, the config gives {:?}", (w[0], w[1])));
        }
        for (id, shape) in [(layer.weight_id(), (w[0], w[1])), (layer.bias_id(), (1, w[1]))] {
            if !store.ids().any(|known| known == id) {
                return fail(format!(
                    "layer {i} names parameter {id:?}, the store has {}",
                    store.len()
                ));
            }
            if store.value(id).shape() != shape {
                let got = store.value(id).shape();
                return fail(format!(
                    "layer {i} parameter {id:?} is {got:?}, the layer needs {shape:?}"
                ));
            }
        }
    }
    Ok(())
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

    /// The weights as the training pass reads them.
    pub(crate) fn gnn(&self) -> Gnn<'_> {
        Gnn {
            store: &self.store,
            encoders: &self.encoders,
            updaters: &self.updaters,
            readout: &self.readout,
        }
    }

    /// The training forward over a precomputed [`BatchPlan`]: `pass` runs
    /// the encoders, every wave with a live target, the pool and the
    /// readout, keeps what its backward replays, and returns the raw
    /// output per graph — bitwise that of inference, and of the per-op
    /// chain both passes are held to.
    ///
    /// A wave none of whose targets' new states anything reads is not run
    /// — in the Costream scheme the HW→OPS wave, whose rows the dataflow
    /// waves overwrite unread; a wave with one live target runs whole. The
    /// liveness flags come with the plan's topology. Skipping moves no
    /// output bit, and no gradient bit but the sign of an exactly zero sum:
    /// a dead row's upstream gradient is exactly zero, and each
    /// weight-gradient element is one accumulation chain over rows. The
    /// sequential oracle (`costream::oracle`, that per-op chain over every
    /// wave) alone still computes the unread rows, as the witness.
    ///
    /// Buffers come from `arena`; a training loop passes the same arena
    /// and pass to every minibatch, and after the first nothing is
    /// allocated again.
    ///
    /// # Panics
    /// Panics when the plan was built for a different scheme.
    pub fn train_forward<'p>(
        &self,
        plan: &BatchPlan,
        pass: &'p mut TrainingPass,
        arena: &mut InferenceArena,
    ) -> &'p Tensor {
        self.config.check_plan(plan);
        pass.forward(self.gnn(), plan, training_waves(plan), arena)
    }

    /// The backward of the last [`GnnModel::train_forward`] over the same
    /// `plan`, seeded with `d(loss)/d(output) = seed`: accumulates every
    /// parameter gradient into `grads`.
    pub fn train_backward(
        &self,
        plan: &BatchPlan,
        pass: &mut TrainingPass,
        seed: Tensor,
        grads: &mut Gradients,
        arena: &mut InferenceArena,
    ) {
        pass.backward(self.gnn(), plan, training_waves(plan), seed, grads, arena);
    }
}

/// The waves of `plan` the training pass runs.
fn training_waves(plan: &BatchPlan) -> impl DoubleEndedIterator<Item = &dyn WaveSpec> {
    plan.topo
        .waves_with_live()
        .filter_map(|(w, live)| live.then_some(w as &dyn WaveSpec))
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

/// A plan's pooling, as the training pass reads it.
impl BatchSpec for BatchPlan {
    fn graph_of(&self) -> &[usize] {
        &self.topo.graph_of
    }

    fn n_graphs(&self) -> usize {
        self.topo.n_graphs
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

    /// One float too many in a stored weight is a load error, not a model
    /// that runs on a prefix of the weight's data.
    #[test]
    fn a_model_with_an_extra_float_in_a_weight_does_not_load() {
        let json = serde_json::to_string(&GnnModel::new(ModelConfig::default())).expect("serialize");
        let at = json.find(r#""data":["#).expect("a stored tensor") + r#""data":["#.len();
        let corrupt = format!("{}0.5,{}", &json[..at], &json[at..]);
        let Err(err) = serde_json::from_str::<GnnModel>(&corrupt) else {
            panic!("a corrupt weight is refused");
        };
        assert!(err.to_string().contains("does not match data length"), "{err}");
    }

    /// The stored default model with `from` replaced by `to` once.
    fn load_edited(from: &str, to: &str) -> Result<GnnModel, serde_json::Error> {
        let json = serde_json::to_string(&GnnModel::new(ModelConfig::default())).expect("serialize");
        assert!(json.contains(from), "the stored model has {from}");
        serde_json::from_str::<GnnModel>(&json.replacen(from, to, 1))
    }

    /// A weight whose data fills its shape but whose shape is not its
    /// layer's — the first encoder's `5 x 48` stored as `48 x 5` — is a
    /// load error, not a model whose first prediction panics.
    #[test]
    fn a_model_with_a_transposed_weight_does_not_load() {
        let width = NodeType::ALL[0].feature_width();
        let hidden = ModelConfig::default().encoder_hidden;
        let stored = format!(r#""rows":{width},"cols":{hidden}"#);
        let err = load_edited(&stored, &format!(r#""rows":{hidden},"cols":{width}"#)).expect_err("refused");
        assert!(err.to_string().contains("the layer needs"), "{err}");
    }

    /// A layer naming a parameter the store does not hold, a layer whose
    /// widths do not chain, and a config the layers were not built for
    /// are load errors too.
    #[test]
    fn a_model_whose_layers_do_not_fit_its_store_or_config_does_not_load() {
        let err = load_edited(r#""w":0,"#, r#""w":999,"#).expect_err("out-of-range parameter refused");
        assert!(err.to_string().contains("the store has"), "{err}");
        let hidden = ModelConfig::default().encoder_hidden;
        let edited = format!(r#""in_dim":{hidden},"out_dim""#);
        let err = load_edited(&edited, r#""in_dim":7,"out_dim""#).expect_err("unchained widths refused");
        assert!(err.to_string().contains("the config gives"), "{err}");
        let err = load_edited(r#""readout_hidden":32"#, r#""readout_hidden":16"#).expect_err("config mismatch refused");
        assert!(err.to_string().contains("readout: layer 0"), "{err}");
    }
}
