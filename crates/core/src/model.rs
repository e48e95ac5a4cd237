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
use crate::plan::BatchPlan;
use costream_nn::{InferenceArena, Initializer, Mlp, NodeId, ParamStore, Tape};
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

    /// Tape-recording forward pass driven by a precomputed [`BatchPlan`].
    /// This is the training ground truth: the returned tape supports
    /// `backward`.
    ///
    /// The tape borrows both this model's parameters (zero-clone pinning)
    /// and the plan's feature matrices and index lists (zero-copy op
    /// recording), so per-minibatch tape construction copies neither —
    /// drop the tape before mutating either.
    ///
    /// # Panics
    /// Panics when the plan was built for a different scheme.
    pub fn forward_with_plan<'m>(&'m self, plan: &'m BatchPlan) -> (Tape<'m>, NodeId) {
        self.check_plan(plan);
        let h = self.config.hidden;
        let total = plan.topo.total;
        let mut tape = Tape::new();

        // ---- per-type encoders ----
        let mut h0 = tape.input(costream_nn::Tensor::zeros(total, h));
        for (ep, feats) in plan.topo.encoders.iter().zip(&plan.features) {
            let x = tape.input_ref(feats);
            let enc = self.encoders[ep.type_index].forward(&mut tape, &self.store, x);
            let scattered = tape.segment_sum(enc, &ep.globals, total);
            h0 = tape.add(h0, scattered);
        }

        // ---- message passing ----
        let mut cur = h0;
        for wave in &plan.topo.waves {
            // `[Σ_children h'_u ‖ h_v]` for each target. The child sum is
            // one fused gather+segment-sum node: the `edges x hidden`
            // gathered matrix is never materialized, forward or backward.
            let child_sum = tape.gather_segment_sum(cur, &wave.child_rows, &wave.segs, wave.targets.len());
            let own = tape.gather_rows(h0, &wave.targets);
            let inp = tape.concat_cols(child_sum, own);

            // Route target rows through the update MLP of their type.
            let mut updated = tape.input(costream_nn::Tensor::zeros(total, h));
            for group in &wave.groups {
                let sub = tape.gather_rows(inp, &group.rows);
                let out = self.updaters[group.type_index].forward(&mut tape, &self.store, sub);
                let scattered = tape.segment_sum(out, &group.globals, total);
                updated = tape.add(updated, scattered);
            }

            // Carry non-target rows forward from `cur`.
            cur = if wave.keep.is_empty() {
                updated
            } else {
                let kept = tape.gather_segment_sum(cur, &wave.keep, &wave.keep, total);
                tape.add(updated, kept)
            };
        }

        // ---- readout: sum all node states per graph, then the output MLP.
        let pooled = tape.segment_sum(cur, &plan.topo.graph_of, plan.topo.n_graphs);
        let out = self.readout.forward(&mut tape, &self.store, pooled);
        (tape, out)
    }

    /// Tape-free forward pass on arena buffers: the inference fast path.
    ///
    /// Executes the same arithmetic as [`GnnModel::forward_with_plan`]
    /// (same kernels, same accumulation order) but records no tape nodes,
    /// clones no parameters and recycles every intermediate, so it cannot
    /// be used for training. Returns one raw output per graph.
    ///
    /// # Panics
    /// Panics when the plan was built for a different scheme.
    pub fn forward_inference(&self, plan: &BatchPlan, arena: &mut InferenceArena) -> Vec<f32> {
        self.check_plan(plan);
        let h = self.config.hidden;
        let total = plan.topo.total;

        // ---- per-type encoders (scatter-add straight into h0) ----
        let mut h0 = arena.alloc_zeroed(total, h);
        for (ep, feats) in plan.topo.encoders.iter().zip(&plan.features) {
            let enc = self.encoders[ep.type_index].forward_inference(arena, &self.store, feats);
            h0.scatter_add_rows(&enc, &ep.globals);
            arena.recycle(enc);
        }

        // ---- message passing ----
        let mut cur = arena.alloc_copy(&h0);
        for wave in &plan.topo.waves {
            // Assemble `[Σ_children h'_u ‖ h_v]` directly into the wave
            // input buffer — neither half is materialized separately.
            let mut inp = arena.alloc_zeroed(wave.targets.len(), 2 * h);
            cur.gather_segment_sum_into_cols(&wave.child_rows, &wave.segs, &mut inp, 0);
            h0.gather_rows_into_cols(&wave.targets, &mut inp, h);

            // Start from the previous state and overwrite target rows in
            // place: target indices are unique within a wave, so this
            // equals the tape path's zero + scatter-add + keep-add with
            // two fewer passes over the state matrix.
            let mut updated = arena.alloc_copy(&cur);
            for group in &wave.groups {
                let out = if group.is_identity {
                    self.updaters[group.type_index].forward_inference(arena, &self.store, &inp)
                } else {
                    let mut sub = arena.alloc_zeroed(group.rows.len(), 2 * h);
                    inp.gather_rows_into(&group.rows, &mut sub);
                    let out = self.updaters[group.type_index].forward_inference(arena, &self.store, &sub);
                    arena.recycle(sub);
                    out
                };
                updated.scatter_copy_rows(&out, &group.globals);
                arena.recycle(out);
            }
            arena.recycle(inp);
            arena.recycle(cur);
            cur = updated;
        }

        // ---- readout ----
        let mut pooled = arena.alloc_zeroed(plan.topo.n_graphs, h);
        cur.segment_sum_into(&plan.topo.graph_of, &mut pooled);
        let out = self.readout.forward_inference(arena, &self.store, &pooled);
        let result = out.data().to_vec();
        arena.recycle(out);
        arena.recycle(pooled);
        arena.recycle(cur);
        arena.recycle(h0);
        result
    }

    /// Raw scalar outputs for a batch of graphs (log-space cost or logit,
    /// depending on what the model was trained for).
    ///
    /// Runs on the tape-free fast path, chunked and fanned out like every
    /// other inference entry point ([`map_spans`]).
    pub fn predict_raw(&self, graphs: &[&JointGraph]) -> Vec<f32> {
        let chunk = inference_chunk();
        map_spans(graphs, chunk, |span| {
            let mut arena = InferenceArena::new();
            span.chunks(chunk)
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

/// Graphs per inference chunk: big enough to amortize plan construction,
/// small enough to parallelize candidate scoring across cores. The
/// serving layer chunks its coalesced batches at the same width so served
/// results are bitwise identical to the direct prediction path.
///
/// This is the *default*; [`inference_chunk`] lets wider runners override
/// it per process via `COSTREAM_INFERENCE_CHUNK`. Per-graph predictions
/// are bitwise independent of how graphs are chunked into batches (graphs
/// only interact through per-graph segment sums), so sweeping the chunk
/// size changes throughput, never results.
pub const INFERENCE_CHUNK: usize = 64;

/// An invalid `COSTREAM_INFERENCE_CHUNK` setting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkConfigError {
    /// A chunk size of zero would make chunked iteration diverge.
    Zero,
    /// The value did not parse as an unsigned integer.
    Invalid(String),
}

impl std::fmt::Display for ChunkConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkConfigError::Zero => write!(f, "chunk size must be at least 1"),
            ChunkConfigError::Invalid(v) => write!(f, "not an unsigned integer: {v:?}"),
        }
    }
}

impl std::error::Error for ChunkConfigError {}

/// Parses an inference chunk-size override. `None` (variable unset) means
/// the [`INFERENCE_CHUNK`] default; `Some` must be a positive integer.
pub fn parse_inference_chunk(raw: Option<&str>) -> Result<usize, ChunkConfigError> {
    match raw {
        None => Ok(INFERENCE_CHUNK),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(0) => Err(ChunkConfigError::Zero),
            Ok(n) => Ok(n),
            Err(_) => Err(ChunkConfigError::Invalid(v.to_string())),
        },
    }
}

/// The effective graphs-per-chunk width: `COSTREAM_INFERENCE_CHUNK` when
/// set and valid, [`INFERENCE_CHUNK`] otherwise (invalid settings warn on
/// stderr rather than aborting a serving process).
pub fn inference_chunk() -> usize {
    let raw = std::env::var("COSTREAM_INFERENCE_CHUNK").ok();
    match parse_inference_chunk(raw.as_deref()) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("warning: ignoring COSTREAM_INFERENCE_CHUNK: {e}");
            INFERENCE_CHUNK
        }
    }
}

/// Scores `graphs` in `chunk`-wide plans, `score` taking a *span* (a whole
/// number of chunks) at a time. At most one chunk — every round of a
/// placement search — runs inline, without even asking for the core count;
/// more are dealt to the workers in contiguous, evenly sized spans.
pub(crate) fn map_spans<T: Send>(
    graphs: &[&JointGraph],
    chunk: usize,
    score: impl Fn(&[&JointGraph]) -> Vec<T> + Sync,
) -> Vec<T> {
    if graphs.len() <= chunk {
        return score(graphs);
    }
    let span = graphs.len().div_ceil(chunk).div_ceil(rayon::current_num_threads()) * chunk;
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
