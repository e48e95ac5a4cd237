//! The Costream GNN (§III-B, Algorithm 1).
//!
//! Per-node-type encoder MLPs turn transferable features into hidden
//! states; the states are then refined by the paper's three-phase message
//! passing — operators→hardware, hardware→operators, sources→operators
//! along the data flow — each update computing
//! `h'_v = MLP'_T([Σ_{u∈children(v)} h'_u ‖ h_v])`; finally a sum readout
//! over all node states feeds the output MLP. The *traditional* synchronous
//! scheme of the Exp 7b ablation is available behind [`Scheme`].

use crate::graph::JointGraph;
use crate::plan::{BatchPlan, WavePlan};
use costream_nn::wave::{encode_scatter, wave_update};
use costream_nn::{
    EncodeSpec, EncoderPart, InferenceArena, Initializer, Mlp, NodeId, ParamStore, Tape, Tensor, WaveGroup, WaveSpec,
};
use costream_query::features::NodeType;
use rayon::prelude::*;
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
    /// [`BatchPlan`](crate::plan::BatchPlan) topologies (plan signatures
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

    /// Total number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.store.scalar_count()
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
    /// It is the inference pass plus retained activations. The tape holds
    /// one fused node for the per-type encoders and one per message-passing
    /// wave, each running the routine [`GnnModel::forward_inference`] runs
    /// (`costream_nn::wave`) and keeping only what its hand-written
    /// backward replays, then the readout as small ops (a segment sum and
    /// the output MLP's affine nodes). Gradients are bitwise those of the
    /// per-op chain the fused nodes replace.
    ///
    /// The tape borrows both this model's parameters (zero-clone pinning)
    /// and the plan's feature matrices and index lists (zero-copy op
    /// recording), so per-minibatch tape construction copies neither —
    /// drop the tape before mutating either.
    ///
    /// # Panics
    /// Panics when the plan was built for a different scheme.
    pub fn forward_with_plan<'m>(&'m self, plan: &'m BatchPlan) -> (Tape<'m>, NodeId) {
        self.forward_with_plan_in(plan, InferenceArena::new())
    }

    /// [`GnnModel::forward_with_plan`] on a tape that draws its buffers
    /// from `arena`. A training loop passes the arena the previous
    /// minibatch's tape returned ([`Tape::into_arena`]); after the first
    /// minibatch nothing the tape holds is allocated again.
    pub fn forward_with_plan_in<'m>(&'m self, plan: &'m BatchPlan, arena: InferenceArena) -> (Tape<'m>, NodeId) {
        self.check_plan(plan);
        let mut tape = Tape::with_arena(arena);
        let h0 = tape.encode_scatter(plan, &self.encoders, &self.store, plan.topo.total, self.config.hidden);
        let mut cur = h0;
        for wave in &plan.topo.waves {
            cur = tape.wave_update(cur, h0, &**wave, &self.updaters, &self.store);
        }
        // Readout: sum all node states per graph, then the output MLP.
        let pooled = tape.segment_sum(cur, &plan.topo.graph_of, plan.topo.n_graphs);
        let out = self.readout.forward(&mut tape, &self.store, pooled);
        (tape, out)
    }

    /// Tape-free forward pass on arena buffers: the inference fast path.
    ///
    /// Runs the routines [`GnnModel::forward_with_plan`] records
    /// (`costream_nn::wave`) without a tape: no nodes, no parameter
    /// clones, every intermediate recycled at once — so it cannot be used
    /// for training, and its outputs are bitwise the tape's. Returns one
    /// raw output per graph.
    ///
    /// # Panics
    /// Panics when the plan was built for a different scheme.
    pub fn forward_inference(&self, plan: &BatchPlan, arena: &mut InferenceArena) -> Vec<f32> {
        self.check_plan(plan);
        let h = self.config.hidden;
        let h0 = encode_scatter(plan, &self.encoders, &self.store, plan.topo.total, h, arena, None);
        let mut cur: Option<Tensor> = None;
        for wave in &plan.topo.waves {
            let before = cur.as_ref().unwrap_or(&h0);
            let after = wave_update(&**wave, &self.updaters, &self.store, before, &h0, arena, None);
            if let Some(before) = cur.replace(after) {
                arena.recycle(before);
            }
        }

        // ---- readout ----
        let mut pooled = arena.alloc_zeroed(plan.topo.n_graphs, h);
        cur.as_ref()
            .unwrap_or(&h0)
            .segment_sum_into(&plan.topo.graph_of, &mut pooled);
        let out = self.readout.forward_inference(arena, &self.store, &pooled);
        let result = out.data().to_vec();
        arena.recycle(out);
        arena.recycle(pooled);
        if let Some(cur) = cur {
            arena.recycle(cur);
        }
        arena.recycle(h0);
        result
    }

    /// Raw scalar outputs for a batch of graphs (log-space cost or logit,
    /// depending on what the model was trained for).
    ///
    /// Runs on the tape-free fast path, chunked and fanned out like every
    /// other inference entry point ([`map_spans`]).
    pub fn predict_raw(&self, graphs: &[&JointGraph]) -> Vec<f32> {
        map_spans(graphs, |span| {
            let mut arena = InferenceArena::new();
            span.chunks(INFERENCE_CHUNK)
                .flat_map(|c| self.forward_inference(&self.plan(c), &mut arena))
                .collect()
        })
    }

    fn check_plan(&self, plan: &BatchPlan) {
        assert_eq!(
            plan.topo.scheme, self.config.scheme,
            "plan built for a different message-passing scheme"
        );
        if self.config.scheme == Scheme::Traditional {
            assert_eq!(
                plan.topo.traditional_rounds, self.config.traditional_rounds,
                "plan built for different round count"
            );
        }
    }
}

/// A plan's encoder routing, as the shared encoding routine reads it: MLP
/// indices are positions in `NodeType::ALL`, like [`GnnModel`]'s encoders.
impl EncodeSpec for BatchPlan {
    fn parts(&self) -> usize {
        self.topo.encoders.len()
    }

    fn part(&self, i: usize) -> EncoderPart<'_> {
        let ep = &self.topo.encoders[i];
        EncoderPart {
            mlp: ep.type_index,
            features: &self.features[i],
            globals: &ep.globals,
        }
    }
}

/// One planned wave, as the shared wave routine reads it.
impl WaveSpec for WavePlan {
    fn child_rows(&self) -> &[usize] {
        &self.child_rows
    }

    fn segs(&self) -> &[usize] {
        &self.segs
    }

    fn targets(&self) -> &[usize] {
        &self.targets
    }

    fn keep(&self) -> &[usize] {
        &self.keep
    }

    fn groups(&self) -> usize {
        self.groups.len()
    }

    fn group(&self, i: usize) -> WaveGroup<'_> {
        let g = &self.groups[i];
        WaveGroup {
            mlp: g.type_index,
            rows: &g.rows,
            globals: &g.globals,
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

/// Scores `graphs` in [`INFERENCE_CHUNK`]-wide plans, `score` taking a
/// *span* (a whole number of chunks) at a time. At most one chunk — every round of a
/// placement search — runs inline, without even asking for the core count;
/// more are dealt to the workers in contiguous, evenly sized spans.
pub(crate) fn map_spans<T: Send>(graphs: &[&JointGraph], score: impl Fn(&[&JointGraph]) -> Vec<T> + Sync) -> Vec<T> {
    if graphs.len() <= INFERENCE_CHUNK {
        return score(graphs);
    }
    let chunks = graphs.len().div_ceil(INFERENCE_CHUNK);
    let span = chunks.div_ceil(rayon::current_num_threads()) * INFERENCE_CHUNK;
    let per_span: Vec<Vec<T>> = graphs.par_chunks(span).map(&score).collect();
    per_span.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Featurization;
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

    #[test]
    fn forward_produces_one_output_per_graph() {
        let gs = graphs(5, Featurization::Full);
        let model = GnnModel::new(ModelConfig::default());
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let out = model.predict_raw(&refs);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_works_without_host_nodes() {
        let gs = graphs(3, Featurization::QueryOnly);
        let model = GnnModel::new(ModelConfig::default());
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let out = model.predict_raw(&refs);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn traditional_scheme_runs() {
        let gs = graphs(3, Featurization::Full);
        let model = GnnModel::new(ModelConfig::default().with_scheme(Scheme::Traditional));
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let out = model.predict_raw(&refs);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn batching_matches_single_graph_forward() {
        let gs = graphs(4, Featurization::Full);
        let model = GnnModel::new(ModelConfig::default());
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let batched = model.predict_raw(&refs);
        for (i, g) in gs.iter().enumerate() {
            let single = model.predict_raw(&[g]);
            assert!(
                (batched[i] - single[0]).abs() < 1e-4,
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
        assert_ne!(a.predict_raw(&[&gs[0]]), b.predict_raw(&[&gs[0]]));
    }

    #[test]
    fn placement_changes_prediction() {
        // The whole point of the joint graph: the same query on different
        // placements must produce different model inputs/outputs.
        let mut wg = WorkloadGenerator::new(9, FeatureRanges::training());
        let q = wg.query();
        let c = wg.cluster(4);
        let mut e = SelectivityEstimator::exact(1);
        let sels = e.estimate_query(&q);
        let p1 = costream_query::placement::colocate_on_strongest(&q, &c);
        let p2 = costream_query::Placement::new(vec![0; q.len()]);
        let g1 = JointGraph::build(&q, &c, &p1, &sels, Featurization::Full);
        let g2 = JointGraph::build(&q, &c, &p2, &sels, Featurization::Full);
        let model = GnnModel::new(ModelConfig::default());
        let o1 = model.predict_raw(&[&g1]);
        let o2 = model.predict_raw(&[&g2]);
        assert_ne!(o1, o2);
    }

    #[test]
    fn parameter_count_is_substantial() {
        let model = GnnModel::new(ModelConfig::default());
        assert!(model.parameter_count() > 10_000, "{}", model.parameter_count());
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let gs = graphs(2, Featurization::Full);
        let model = GnnModel::new(ModelConfig::default());
        let json = serde_json::to_string(&model).expect("serialize");
        let restored: GnnModel = serde_json::from_str(&json).expect("deserialize");
        let refs: Vec<&JointGraph> = gs.iter().collect();
        assert_eq!(model.predict_raw(&refs), restored.predict_raw(&refs));
    }
}
