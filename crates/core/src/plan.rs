//! Precomputed batch execution plans and the fragment-keyed plan cache.
//!
//! `GnnModel::forward` used to re-derive all gather/scatter bookkeeping —
//! per-type encoder row groups, message-passing edge segments, the wave
//! schedule and the readout segments —
//! from the raw [`JointGraph`]s on *every* minibatch. That bookkeeping
//! depends only on graph structure, not on model parameters, so it is
//! identical across every epoch and every seed-varied ensemble member.
//!
//! A [`BatchPlan`] captures it once per batch: the trainer builds plans
//! up front and reuses them for all epochs and all ensemble members, and
//! the fused inference pass lowers a plan to its slot schedule (below)
//! with zero per-call graph traversal.
//!
//! # Topology vs. features
//!
//! A plan splits into two parts with very different lifetimes:
//!
//! * `PlanTopology` — everything derived from graph *structure* (node
//!   types, edge lists, wave schedule, readout segments). Immutable,
//!   shared behind an `Arc`, and reusable for any batch whose graphs have
//!   the same shapes — even when the feature *values* differ.
//! * The stacked encoder feature matrices — one tensor per node type,
//!   cheap to rebuild and different for every batch.
//!
//! # Fragments and stitching
//!
//! Within a batch, graphs share only the weights, so a batch topology is
//! its graphs' own topologies laid side by side: every list a graph
//! contributes is the list it would have alone, shifted by the nodes, wave
//! targets and segments of the graphs before it. The [`PlanCache`] caches
//! those per-graph *fragments* — one per distinct graph shape, keyed by the
//! one-graph [`PlanSignature`] a serving layer computes per request — and
//! stitches (`PlanTopology::stitch`) a batch topology from them: an
//! O(nodes + edges) concatenation with no graph traversal, equal field for
//! field to `PlanTopology::build` on the same graphs. Any mix of shapes
//! is then one plan and one fused pass, and a shape is a cache hit in any
//! batch once it has been seen in one. The signature only routes a lookup:
//! a hit is confirmed by comparing the graph's node types, edge lists and
//! waves with the copy the fragment keeps, and a mismatch rebuilds. The
//! cache is thread-safe (one lock around the LRU map, fragments shared by
//! `Arc`) and counts hits and misses per graph.
//!
//! A fragment keeps every wave its graph could take part in, whether or
//! not the graph has a target in it (the host phase, and every dataflow
//! wave below its depth), so wave `k` of any two fragments is the same
//! batch wave; stitching drops the waves no graph of the batch has a target
//! in, as the batch build does.
//!
//! A topology is built in one linear pass over the batch: node types are
//! read once, encoder and wave type groups come from counting sorts, the
//! dataflow waves' targets and edges are bucketed by wave in one sweep,
//! and one `pos_of` scratch serves every wave, reset only where a wave
//! wrote it. Every list comes out in the same (type, graph, node or edge)
//! order a wave-by-wave rescan produces, so training, the sequential
//! oracle and every digest see the same plans.
//!
//! A topology's lists all live in one buffer (`TopoIndex`) that its
//! encoders and waves hold ranges of, so a build or a stitch allocates a
//! handful of vectors, not a few per wave and node type: on the serving
//! path allocation, not copying, is what a plan costs. A wave keeps no
//! list of the nodes it leaves alone: every build lists a wave's targets
//! in ascending order, so the training backward, the one pass that
//! carries those nodes' gradients row by row, walks the complement.
//!
//! # Hash-consed slot schedules
//!
//! The batches a placement search scores are neighbours of one another:
//! a candidate's node states depend on its placement only through its
//! placement edges and the states they reach (in the Costream scheme, the
//! host nodes' alone; Algorithm 1, §III-B), so most of a batch's encoder
//! rows and wave updates repeat a computation another candidate already
//! makes — in the same batch or in an earlier batch of the same search.
//! The fused inference pass therefore does not run a plan node by node; it
//! runs a *slot schedule*, a plan — or, in a search, a batch of placements
//! (below) — lowered into a `SlotMemo` that holds every distinct node state
//! seen so far. A slot is one distinct node state:
//!
//! * an encoder row's slot is keyed by (node type, the exact `f32` bits of
//!   its features) — `-0.0` and `+0.0`, or two NaN payloads, never merge;
//! * a wave target's slot is keyed by (its own `h0` slot, the ordered list
//!   of its children's current slots). The node type is part of the own
//!   slot's key, so it needs no field of its own.
//!
//! Every wave target's new state is read, by the readout or by a later
//! wave: the Costream topology has no HW→OPS wave (see
//! [`Scheme::Costream`]), so in a graph whose waves order its dataflow
//! ([`JointGraph::wave_fault`]) no wave of either scheme computes a row
//! nothing reads, and the lowering, the training pass and the sequential
//! oracle all run every wave of a topology.
//!
//! Keys are interned through 64-bit fingerprints in open-addressed
//! tables; fingerprints only route, and two keys merge only after an exact
//! comparison. (Fingerprints start from a per-process random state, so a
//! batch from the wire cannot be crafted to make every probe collide.)
//!
//! # A memo's lifetime
//!
//! Every fused pass runs on a memo: the one scoring engine
//! ([`ScoreEngine`](crate::fused::ScoreEngine)) lowers each plan or
//! candidate batch into the memo it owns and keeps the memo's slots in one
//! state matrix per ensemble. What is lowered decides how long the slots
//! live — one batch or one search, never longer:
//!
//! * **One batch** — every plan: the serving worker's, and every
//!   `predict_graphs`, `raw_graphs` and `predict_plans_arena` call's. The
//!   memo forgets every slot before it lowers a plan, so nothing outlives a
//!   plan (not even a model swap between two batches can reach a stale
//!   row), and if no encoder row
//!   repeats (no two targets can then share an own slot) the lowering stops
//!   there: every wave target gets a fresh slot and no wave key is
//!   hashed. Skipping a merge never changes a bit — it only repeats work —
//!   so the shortcut is sound whatever the graphs.
//! * **One search** — a search's candidates: the in-process scorer lowers
//!   each chunk of each batch, straight from its placements, into the memo
//!   its search's evaluator owns, so a batch's schedule holds only the
//!   slots no earlier batch of the search computed, and the state matrices
//!   keep their rows across batches. Every key is recorded, since a later batch may reach
//!   it. A constant slot cap restarts the memo, which bounds its memory; a
//!   restart only repeats work.
//!
//! The slots index rows computed with one ensemble's weights, so a search
//! memo must not outlive the search that filled it: a new model, or another
//! scorer, would read states its weights never produced. (The scorer's
//! pool restarts a memo's buffers empty before another search takes them.)
//!
//! Why a merge is bitwise exact — within a batch or across batches: every
//! kernel row the pass runs is one single-accumulator chain over its own
//! input row, independent of its batch neighbours (see
//! `costream_nn::fused`), so a row's bits depend on its input row alone,
//! not on the batch that computed it. Equal encoder keys are equal input
//! rows. Equal wave keys are equal inputs too: the child half sums the same
//! slots in the same (edge) order from zero, and the own half copies the
//! same `h0` row. The readout pools each node's final slot in node order,
//! the same additions in the same order as pooling the per-node state.
//!
//! # Lowering placements
//!
//! A search's candidates are placements of a few queries, each with a
//! [`GraphTemplate`]; what tells them apart is only which host each
//! operator sits on (and, with co-resident queries, a contended host's
//! degraded row). The search memo therefore never sees a [`JointGraph`]
//! or a [`BatchPlan`]: it lowers a [`CandidateBatch`] chunk from (template,
//! placement, override rows) directly, into the same keys a plan of the
//! same graphs would produce.
//!
//! * Per template, once per search, the memo builds the topology of the
//!   template's *one-host shape* — every operator on one host node — and
//!   reads off each wave target's children and whether its key can depend
//!   on the placement: a host's own row does, and so does every key that
//!   reads a placed state. A candidate graph is that shape with the host
//!   node standing for each host it uses, on the operators placed there.
//! * Per template, once per memo generation (a slot-cap restart begins a
//!   new one), its operator rows are interned, and so are the keys of its
//!   targets no placement can change — in the Costream scheme every
//!   dataflow target, since dataflow keys read operator states alone. Each
//!   candidate graph takes those slots as they are.
//! * A plain host row is interned once per template and host, computed
//!   from the host the first time a candidate uses it; a contended row
//!   is interned by its bits.
//! * Each graph's placed targets are keyed on its own slots, wave by wave
//!   across the chunk, exactly as the plan lowering keys them.
//!
//! The keys, and so the slots, the merges and every count in
//! [`SlotStats`], are those of the plan of the same graphs; only the
//! slots' numbering and the order of a wave's rows differ, which no bit
//! depends on.

use crate::graph::{CandidateBatch, GraphTemplate, JointGraph};
use crate::model::Scheme;
use costream_nn::{Tensor, WaveGroup, WaveSpec};
use costream_query::features::NodeType;
use std::borrow::Cow;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Every index list of one topology, concatenated: encoders and waves
/// hold ranges into it, so a topology is a handful of allocations however
/// many waves and node types it has — building or stitching one is a few
/// linear writes, not a few dozen small vectors.
#[derive(Debug)]
struct TopoIndex {
    items: Vec<usize>,
    groups: Vec<GroupRanges>,
}

/// Where one type group's lists sit in the [`TopoIndex`].
#[derive(Clone, Debug)]
struct GroupRanges {
    type_index: usize,
    rows: Range<usize>,
    globals: Range<usize>,
}

/// Where one wave's lists sit in the [`TopoIndex`].
#[derive(Clone, Debug)]
struct WaveRanges {
    child_rows: Range<usize>,
    segs: Range<usize>,
    targets: Range<usize>,
    /// Range of [`TopoIndex::groups`].
    groups: Range<usize>,
}

/// One message-passing update: which edges feed which targets, how target
/// rows split by node type, and which rows carry over untouched — ranges
/// of its topology's shared index. Cloning shares the index, so the
/// repeated rounds of [`Scheme::Traditional`] are one set of lists. Its
/// lists are read through [`WaveSpec`], as the training pass reads them;
/// a group's MLP index is its position in `NodeType::ALL`.
#[derive(Clone, Debug)]
pub(crate) struct WavePlan {
    index: Arc<TopoIndex>,
    at: WaveRanges,
}

impl WaveSpec for WavePlan {
    fn child_rows(&self) -> &[usize] {
        &self.index.items[self.at.child_rows.clone()]
    }

    fn segs(&self) -> &[usize] {
        &self.index.items[self.at.segs.clone()]
    }

    fn targets(&self) -> &[usize] {
        &self.index.items[self.at.targets.clone()]
    }

    fn groups(&self) -> usize {
        self.at.groups.len()
    }

    fn group(&self, i: usize) -> WaveGroup<'_> {
        let g = &self.index.groups[self.at.groups.start + i];
        WaveGroup {
            mlp: g.type_index,
            rows: &self.index.items[g.rows.clone()],
            globals: &self.index.items[g.globals.clone()],
            is_identity: g.rows.len() == self.at.targets.len(),
        }
    }
}

impl WavePlan {
    fn group_ranges(&self) -> &[GroupRanges] {
        &self.index.groups[self.at.groups.clone()]
    }

    /// The target rows grouped by node type, in `NodeType::ALL` order.
    pub fn groups(&self) -> impl Iterator<Item = WaveGroup<'_>> {
        (0..self.at.groups.len()).map(|i| self.group(i))
    }
}

/// Two waves are equal when their lists are, wherever they sit.
impl PartialEq for WavePlan {
    fn eq(&self, other: &Self) -> bool {
        self.child_rows() == other.child_rows()
            && self.segs() == other.segs()
            && self.targets() == other.targets()
            && self.groups().eq(other.groups())
    }
}

/// The structural (feature-free) part of a batch plan: everything that
/// depends only on graph *shapes*, shared behind an `Arc` so the plan
/// cache and all ensemble members reuse one copy.
#[derive(Debug)]
pub(crate) struct PlanTopology {
    /// Message-passing scheme the topology was built for.
    pub scheme: Scheme,
    /// Rounds baked into the topology for [`Scheme::Traditional`].
    pub traditional_rounds: usize,
    /// Total node count across the batch.
    pub total: usize,
    /// Number of graphs in the batch.
    pub n_graphs: usize,
    /// The lists the encoders and waves index.
    index: Arc<TopoIndex>,
    /// Per node type present, in `NodeType::ALL` order: the type index
    /// (selects the encoder MLP) and the range of its rows' global node
    /// indices.
    encoders: Vec<(usize, Range<usize>)>,
    /// Ordered update waves.
    pub waves: Vec<WavePlan>,
    /// Graph id of every node (readout segments).
    pub graph_of: Vec<usize>,
}

impl PlanTopology {
    /// Number of node types present (encoder calls).
    pub fn n_encoders(&self) -> usize {
        self.encoders.len()
    }

    /// The `i`-th encoder's type index and the global node index of each of
    /// its feature rows. The stacked rows themselves live on the
    /// [`BatchPlan`] (they change per batch; the routing does not).
    pub fn encoder(&self, i: usize) -> (usize, &[usize]) {
        let (type_index, globals) = &self.encoders[i];
        (*type_index, &self.index.items[globals.clone()])
    }

    /// Every encoder, in `NodeType::ALL` order.
    pub fn encoders(&self) -> impl Iterator<Item = (usize, &[usize])> {
        (0..self.n_encoders()).map(|i| self.encoder(i))
    }
}

/// Two topologies are equal when every list is, wherever it sits.
impl PartialEq for PlanTopology {
    fn eq(&self, other: &Self) -> bool {
        self.scheme == other.scheme
            && self.traditional_rounds == other.traditional_rounds
            && self.total == other.total
            && self.n_graphs == other.n_graphs
            && self.encoders().eq(other.encoders())
            && self.waves == other.waves
            && self.graph_of == other.graph_of
    }
}

/// Writes a topology's lists into one [`TopoIndex`], section by section.
struct TopoBuilder {
    index: TopoIndex,
    encoders: Vec<(usize, Range<usize>)>,
    waves: Vec<WaveRanges>,
}

impl TopoBuilder {
    /// A builder whose index holds `items` entries without growing.
    fn with_capacity(items: usize) -> Self {
        TopoBuilder {
            index: TopoIndex {
                items: Vec::with_capacity(items),
                groups: Vec::new(),
            },
            encoders: Vec::with_capacity(NodeType::ALL.len()),
            waves: Vec::new(),
        }
    }

    /// Makes room for `waves` waves once the encoders are in: a wave has
    /// at most one group per node type present.
    fn reserve_waves(&mut self, waves: usize) {
        self.waves.reserve_exact(waves);
        self.index.groups.reserve_exact(waves * self.encoders.len());
    }

    /// Records a type group whose lists were just appended.
    fn group(&mut self, type_index: usize, rows: Range<usize>, globals: Range<usize>) {
        self.index.groups.push(GroupRanges {
            type_index,
            rows,
            globals,
        });
    }

    /// The topology, every recorded wave appearing `repeat` times in a row
    /// (the rounds of [`Scheme::Traditional`]; 1 otherwise).
    fn finish(
        self,
        scheme: Scheme,
        traditional_rounds: usize,
        n_graphs: usize,
        graph_of: Vec<usize>,
        repeat: usize,
    ) -> PlanTopology {
        let index = Arc::new(self.index);
        let waves = self
            .waves
            .into_iter()
            .flat_map(|at| std::iter::repeat_n(at, repeat))
            .map(|at| WavePlan {
                index: Arc::clone(&index),
                at,
            })
            .collect();
        PlanTopology {
            scheme,
            traditional_rounds,
            total: graph_of.len(),
            n_graphs,
            index,
            encoders: self.encoders,
            waves,
            graph_of,
        }
    }
}

/// The full precomputed execution plan for one batch of joint graphs:
/// a shared `PlanTopology` plus the batch's stacked encoder features.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Shared structural bookkeeping.
    pub(crate) topo: Arc<PlanTopology>,
    /// Stacked `n_nodes_of_type x feature_width` encoder inputs, parallel
    /// to `topo.encoders`.
    pub(crate) features: Vec<Tensor>,
}

impl BatchPlan {
    /// Number of graphs the plan covers.
    pub fn len(&self) -> usize {
        self.topo.n_graphs
    }

    /// True for an empty plan (never produced by [`BatchPlan::build`]).
    pub fn is_empty(&self) -> bool {
        self.topo.n_graphs == 0
    }

    /// Builds the plan for a batch of graphs under a message-passing
    /// scheme. `traditional_rounds` is only consulted for
    /// [`Scheme::Traditional`].
    ///
    /// # Panics
    /// Panics on an empty batch.
    pub fn build(graphs: &[&JointGraph], scheme: Scheme, traditional_rounds: usize) -> Self {
        let topo = Arc::new(PlanTopology::build(graphs, scheme, traditional_rounds));
        Self::with_topology(topo, graphs)
    }

    /// Assembles a plan from a built or stitched topology by stacking the
    /// feature rows. The topology's structure must match the graphs (a
    /// plan-cache fragment is checked against its graph exactly).
    fn with_topology(topo: Arc<PlanTopology>, graphs: &[&JointGraph]) -> Self {
        debug_assert_eq!(topo.n_graphs, graphs.len());
        debug_assert_eq!(topo.total, graphs.iter().map(|g| g.len()).sum::<usize>());
        let features = stack_features(&topo, graphs);
        BatchPlan { topo, features }
    }

    /// Every wave of the plan, in order, as the training pass and the
    /// per-op chain read them.
    pub(crate) fn waves(&self) -> impl DoubleEndedIterator<Item = &dyn WaveSpec> {
        self.topo.waves.iter().map(|w| w as &dyn WaveSpec)
    }

    /// Lowers the plan into `memo`: the schedule computes only the slots
    /// the memo does not hold yet, and records them there.
    pub(crate) fn lower_into(&self, memo: &mut SlotMemo) -> SlotSchedule<'_> {
        memo.lower(&self.topo, &self.features)
    }

    /// Lowers the plan to its slot schedule and reports how much merged
    /// (see the module docs) — the lowering every pass of a
    /// [`ScoreEngine`](crate::fused::ScoreEngine) over a plan starts with,
    /// exposed to time and inspect it.
    pub fn hash_cons(&self) -> SlotStats {
        self.lower_into(&mut SlotMemo::new(u64::MAX)).stats
    }
}

impl CandidateBatch {
    /// Lowers the batch, as one chunk, into a fresh search memo — what the
    /// first batch of a search costs the in-process scorer before its
    /// fused pass — and reports what merged. Exposed to time and inspect
    /// the placement lowering, like [`BatchPlan::hash_cons`] the plan's.
    pub fn hash_cons(&self, scheme: Scheme, traditional_rounds: usize) -> SlotStats {
        let mut memo = SlotMemo::new(u64::MAX);
        memo.lower_candidates(self, 0..self.len(), scheme, traditional_rounds)
            .stats
    }
}

/// Stacks the encoder feature rows of a batch in the exact order the
/// topology's `globals` lists were built in (`NodeType::ALL` order, then
/// graph order, then node order) — in a single pass over the nodes:
/// appending each node's features to its type's bucket visits every
/// bucket in (graph, node) order, which is exactly the per-type order of
/// the multi-pass build. This runs once per served batch.
///
/// # Panics
/// Panics on a feature row of the wrong width for its node type: it would
/// shift every later row of that type, and the graphs of a batch share
/// the stack.
fn stack_features(topo: &PlanTopology, graphs: &[&JointGraph]) -> Vec<Tensor> {
    let mut slot_of = [usize::MAX; NodeType::ALL.len()];
    let mut buckets: Vec<Vec<f32>> = topo
        .encoders()
        .enumerate()
        .map(|(slot, (type_index, globals))| {
            slot_of[type_index] = slot;
            Vec::with_capacity(globals.len() * NodeType::ALL[type_index].feature_width())
        })
        .collect();
    for g in graphs {
        for node in &g.nodes {
            assert_eq!(
                node.features.len(),
                node.node_type.feature_width(),
                "feature row of the wrong width"
            );
            // `NodeType::ALL` lists the variants in declaration order, so
            // the discriminant doubles as the type index.
            buckets[slot_of[node.node_type as usize]].extend_from_slice(&node.features);
        }
    }
    topo.encoders()
        .zip(buckets)
        .map(|((type_index, globals), rows)| {
            Tensor::from_vec(globals.len(), NodeType::ALL[type_index].feature_width(), rows)
        })
        .collect()
}

impl PlanTopology {
    /// Builds the structural bookkeeping for a batch of graphs, in one
    /// linear pass (see the module docs).
    ///
    /// # Panics
    /// Panics on an empty batch.
    fn build(graphs: &[&JointGraph], scheme: Scheme, traditional_rounds: usize) -> Self {
        Self::linear(graphs, scheme, traditional_rounds, false)
    }

    /// The linear pass. `every_wave` keeps the host phase and every
    /// dataflow wave whether or not a node of the batch is its target —
    /// the fragment layout (see the module docs).
    fn linear(graphs: &[&JointGraph], scheme: Scheme, traditional_rounds: usize, every_wave: bool) -> Self {
        assert!(!graphs.is_empty(), "empty batch");

        // ---- node types and readout segments, once per batch ----
        let total: usize = graphs.iter().map(|g| g.len()).sum();
        let mut offsets = Vec::with_capacity(graphs.len());
        let mut types: Vec<usize> = Vec::with_capacity(total);
        let mut graph_of: Vec<usize> = Vec::with_capacity(total);
        let (mut n_dataflow, mut n_placement, mut n_waves) = (0, 0, 0);
        for (gi, g) in graphs.iter().enumerate() {
            offsets.push(types.len());
            // `NodeType::ALL` lists the variants in declaration order, so
            // the discriminant doubles as the type index.
            types.extend(g.nodes.iter().map(|n| n.node_type as usize));
            graph_of.extend(std::iter::repeat_n(gi, g.len()));
            n_dataflow += g.dataflow_edges.len();
            n_placement += g.placement_edges.len();
            n_waves = n_waves.max(g.n_waves());
        }
        // What the lists take at most: the encoders cover every node once;
        // each target is listed once, and once more in its group's rows and
        // globals; and each kept edge is a child row and a segment. A host
        // is a target of the host phase, an operator of at most one
        // dataflow wave.
        let items = match scheme {
            Scheme::Costream => 4 * total + 2 * (n_placement + n_dataflow),
            Scheme::Traditional => 4 * total + 4 * (n_dataflow + n_placement),
        };
        let mut b = TopoBuilder::with_capacity(items);

        // ---- encoder groups, in NodeType::ALL order ----
        b.encoders
            .extend(present(split_by_type(&mut b.index.items, total, |_, g| types[g])));
        b.reserve_waves(match scheme {
            Scheme::Costream => 1 + n_waves,
            Scheme::Traditional => 1,
        });

        // ---- wave schedule ----
        let mut scratch = WaveScratch {
            types: &types,
            pos_of: vec![usize::MAX; total],
        };
        let globalized = |edges: fn(&JointGraph) -> &[(usize, usize)]| -> Vec<(usize, usize)> {
            graphs
                .iter()
                .zip(&offsets)
                .flat_map(|(g, &off)| edges(g).iter().map(move |&(a, b)| (off + a, off + b)))
                .collect()
        };
        let repeat = match scheme {
            Scheme::Costream => {
                const HOST: usize = NodeType::Host as usize;
                if every_wave || types.contains(&HOST) {
                    // Phase 1: OPS→HW over the placement edges (op, host).
                    // Phase 2 (HW→OPS) is not built: see `Scheme::Costream`.
                    let ophw = globalized(|g| &g.placement_edges);
                    scratch.wave(&mut b, (0..total).filter(|&g| types[g] == HOST), &ophw);
                }

                // Phase 3: SOURCES→OPS, in topological waves. Targets and
                // dataflow edges are bucketed by wave in one counting sort
                // (an edge belongs to its target's wave), each bucket in
                // (graph, node) / (graph, edge) order.
                let (mut t_start, mut e_start) = (vec![0usize; n_waves + 1], vec![0usize; n_waves + 1]);
                for g in graphs {
                    for &w in g.waves.iter().flatten() {
                        t_start[w + 1] += 1;
                    }
                    for &(_, b) in &g.dataflow_edges {
                        if let Some(w) = g.waves[b] {
                            e_start[w + 1] += 1;
                        }
                    }
                }
                for w in 0..n_waves {
                    t_start[w + 1] += t_start[w];
                    e_start[w + 1] += e_start[w];
                }
                let (mut t_fill, mut e_fill) = (t_start.clone(), e_start.clone());
                let mut targets = vec![0usize; t_start[n_waves]];
                let mut edges = vec![(0usize, 0usize); e_start[n_waves]];
                for (g, &off) in graphs.iter().zip(&offsets) {
                    for (li, &wave) in g.waves.iter().enumerate() {
                        if let Some(w) = wave {
                            targets[t_fill[w]] = off + li;
                            t_fill[w] += 1;
                        }
                    }
                    for &(a, b) in &g.dataflow_edges {
                        if let Some(w) = g.waves[b] {
                            edges[e_fill[w]] = (off + a, off + b);
                            e_fill[w] += 1;
                        }
                    }
                }
                for w in 0..n_waves {
                    let wave_targets = &targets[t_start[w]..t_start[w + 1]];
                    if wave_targets.is_empty() && !every_wave {
                        continue;
                    }
                    let wave_edges = &edges[e_start[w]..e_start[w + 1]];
                    scratch.wave(&mut b, wave_targets.iter().copied(), wave_edges);
                }
                1
            }
            Scheme::Traditional => {
                let mut edges: Vec<(usize, usize)> = Vec::with_capacity(2 * (n_dataflow + n_placement));
                for (g, &off) in graphs.iter().zip(&offsets) {
                    for &(a, b) in g.dataflow_edges.iter().chain(&g.placement_edges) {
                        edges.push((off + a, off + b));
                        edges.push((off + b, off + a));
                    }
                }
                scratch.wave(&mut b, 0..total, &edges);
                traditional_rounds
            }
        };
        b.finish(scheme, traditional_rounds, graphs.len(), graph_of, repeat)
    }

    /// The topology of a batch, concatenated from its graphs' fragments
    /// (see the module docs): equal, list for list, to
    /// [`PlanTopology::build`] on the same graphs.
    fn stitch(frags: &[&Fragment], scheme: Scheme, traditional_rounds: usize) -> Self {
        let mut offsets = Vec::with_capacity(frags.len());
        let mut total = 0;
        for f in frags {
            offsets.push(total);
            total += f.topo.total;
        }
        let mut graph_of = Vec::with_capacity(total);
        for (gi, f) in frags.iter().enumerate() {
            graph_of.extend(std::iter::repeat_n(gi, f.topo.total));
        }
        // Every list of the batch is the fragments' lists concatenated.
        let depth = frags.iter().map(|f| f.topo.waves.len()).max().unwrap_or(0);
        let items = frags.iter().map(|f| f.topo.index.items.len()).sum();
        let mut b = TopoBuilder::with_capacity(items);

        // Each type's encoder rows, graph by graph: sized in one pass over
        // the fragments, written in a second.
        let mut counts = [0usize; NodeType::ALL.len()];
        for f in frags {
            for (t, globals) in &f.topo.encoders {
                counts[*t] += globals.len();
            }
        }
        let split = by_type(&mut b.index.items, counts);
        let mut fill = split.clone().map(|r| r.start);
        for (f, &off) in frags.iter().zip(&offsets) {
            for (t, globals) in &f.topo.encoders {
                fill[*t] = shifted(&mut b.index.items, fill[*t], &f.topo.index.items[globals.clone()], off);
            }
        }
        b.encoders.extend(present(split));
        b.reserve_waves(depth);

        let has_targets = |k: usize| {
            frags
                .iter()
                .any(|f| f.topo.waves.get(k).is_some_and(|w| !w.targets().is_empty()))
        };
        let repeat = match scheme {
            Scheme::Costream => {
                // Wave 0 is the host phase, which every fragment has; then
                // the dataflow waves, as deep as the deepest graph.
                for k in (0..depth).filter(|&k| has_targets(k)) {
                    stitch_wave(&mut b, frags, &offsets, k);
                }
                1
            }
            Scheme::Traditional => {
                if traditional_rounds > 0 {
                    stitch_wave(&mut b, frags, &offsets, 0);
                }
                traditional_rounds
            }
        };
        b.finish(scheme, traditional_rounds, frags.len(), graph_of, repeat)
    }
}

/// Wave `k` of a batch from wave `k` of each fragment: targets and edges
/// shifted by the graph's node offset, segments and type-group rows by the
/// targets before it. A graph without a wave `k` adds nothing to it.
fn stitch_wave(b: &mut TopoBuilder, frags: &[&Fragment], offsets: &[usize], k: usize) {
    let parts = || frags.iter().zip(offsets).map(|(f, &off)| (off, f.topo.waves.get(k)));
    // Sized in one pass over the fragments and written in a second, each
    // fragment's lists all at once: the child rows, segments and targets,
    // then one rows and one globals section per type any graph has a
    // target of. Rows and segments shift by the targets before each
    // graph, everything else by its nodes.
    let (mut edges, mut n_targets, mut counts) = (0, 0, [0usize; NodeType::ALL.len()]);
    for w in parts().filter_map(|(_, w)| w) {
        edges += w.at.child_rows.len();
        n_targets += w.at.targets.len();
        for g in w.group_ranges() {
            counts[g.type_index] += g.rows.len();
        }
    }
    let items = &mut b.index.items;
    let child_rows = items.len()..items.len() + edges;
    let segs = child_rows.end..child_rows.end + edges;
    let targets = segs.end..segs.end + n_targets;
    items.resize(targets.end, 0);
    let (rows, globals) = (by_type(items, counts), by_type(items, counts));
    let (mut child_fill, mut seg_fill, mut target_fill) = (child_rows.start, segs.start, targets.start);
    let (mut rows_fill, mut globals_fill) = (rows.clone().map(|r| r.start), globals.clone().map(|r| r.start));
    for (off, w) in parts() {
        let Some(w) = w else { continue };
        let base = target_fill - targets.start;
        child_fill = shifted(items, child_fill, w.child_rows(), off);
        seg_fill = shifted(items, seg_fill, w.segs(), base);
        target_fill = shifted(items, target_fill, w.targets(), off);
        let src = &w.index.items;
        for g in w.group_ranges() {
            let t = g.type_index;
            rows_fill[t] = shifted(items, rows_fill[t], &src[g.rows.clone()], base);
            globals_fill[t] = shifted(items, globals_fill[t], &src[g.globals.clone()], off);
        }
    }
    let first_group = b.index.groups.len();
    for ((t, rows), (_, globals)) in present(rows).zip(present(globals)) {
        b.group(t, rows, globals);
    }
    b.waves.push(WaveRanges {
        child_rows,
        segs,
        targets,
        groups: first_group..b.index.groups.len(),
    });
}

/// One graph's share of a batch topology, as the [`PlanCache`] keeps it:
/// the graph's structure, compared in full on every hit, and its topology
/// in the fragment layout (see the module docs).
#[derive(Debug)]
struct Fragment {
    types: Vec<NodeType>,
    dataflow_edges: Vec<(usize, usize)>,
    placement_edges: Vec<(usize, usize)>,
    waves: Vec<Option<usize>>,
    topo: Arc<PlanTopology>,
    /// Whether `topo` is also [`PlanTopology::build`] of the graph alone
    /// (no wave of the layout lacks a target), so a one-graph batch runs
    /// it as it is.
    alone: bool,
}

impl Fragment {
    /// # Panics
    /// Panics on a malformed graph — an edge endpoint past its node list,
    /// or a wave list of another length. In a batch such an index would
    /// reach a neighbour's nodes; alone, it fails only its own request.
    fn build(g: &JointGraph, scheme: Scheme, traditional_rounds: usize) -> Self {
        let n = g.len();
        assert!(
            g.waves.len() == n
                && g.dataflow_edges
                    .iter()
                    .chain(&g.placement_edges)
                    .all(|&(a, b)| a < n && b < n),
            "malformed graph: an edge or wave list does not fit its {n} nodes"
        );
        let topo = PlanTopology::linear(&[g], scheme, traditional_rounds, true);
        let alone = scheme == Scheme::Traditional || topo.waves.iter().all(|w| !w.targets().is_empty());
        Fragment {
            types: g.nodes.iter().map(|node| node.node_type).collect(),
            dataflow_edges: g.dataflow_edges.clone(),
            placement_edges: g.placement_edges.clone(),
            waves: g.waves.clone(),
            topo: Arc::new(topo),
            alone,
        }
    }

    /// Whether the fragment is exactly the one `g` builds.
    fn fits(&self, g: &JointGraph, scheme: Scheme, traditional_rounds: usize) -> bool {
        self.topo.scheme == scheme
            && self.topo.traditional_rounds == traditional_rounds
            && self.types.len() == g.nodes.len()
            && self.types.iter().zip(&g.nodes).all(|(&t, node)| t == node.node_type)
            && self.dataflow_edges == g.dataflow_edges
            && self.placement_edges == g.placement_edges
            && self.waves == g.waves
    }
}

/// Appends room for `counts[t]` entries per node type, in `NodeType::ALL`
/// order, and returns each type's range (empty for a count of 0).
fn by_type(items: &mut Vec<usize>, counts: [usize; NodeType::ALL.len()]) -> [Range<usize>; NodeType::ALL.len()] {
    let mut start = items.len();
    let ranges = counts.map(|c| {
        start += c;
        start - c..start
    });
    items.resize(start, 0);
    ranges
}

/// Writes `src + off` into `items` from `at` on and returns where it
/// stopped.
fn shifted(items: &mut [usize], at: usize, src: &[usize], off: usize) -> usize {
    let end = at + src.len();
    for (dst, &s) in items[at..end].iter_mut().zip(src) {
        *dst = s + off;
    }
    end
}

/// Appends `0..n` sorted by node type (`type_of(items, i)`, an index into
/// `NodeType::ALL`) with a counting sort, each type's list ascending, and
/// returns the range of each type (empty for a type absent).
fn split_by_type(
    items: &mut Vec<usize>,
    n: usize,
    type_of: impl Fn(&[usize], usize) -> usize,
) -> [Range<usize>; NodeType::ALL.len()] {
    let mut counts = [0usize; NodeType::ALL.len()];
    for i in 0..n {
        counts[type_of(items, i)] += 1;
    }
    let split = by_type(items, counts);
    let mut fill = split.clone().map(|r| r.start);
    for i in 0..n {
        let t = type_of(items, i);
        items[fill[t]] = i;
        fill[t] += 1;
    }
    split
}

/// The non-empty ranges of a [`split_by_type`], with their type index.
fn present(split: [Range<usize>; NodeType::ALL.len()]) -> impl Iterator<Item = (usize, Range<usize>)> {
    split.into_iter().enumerate().filter(|(_, r)| !r.is_empty())
}

/// What every wave of one topology build shares: the batch's node types
/// and one position table, `usize::MAX` everywhere between waves.
struct WaveScratch<'a> {
    types: &'a [usize],
    pos_of: Vec<usize>,
}

impl WaveScratch<'_> {
    /// One wave, appended to `b`: the edges `(child, target)` that reach
    /// one of `targets` (in edge order) become its CSR segments, the
    /// targets split by type, and every other node carries over.
    fn wave(&mut self, b: &mut TopoBuilder, targets: impl IntoIterator<Item = usize>, edges: &[(usize, usize)]) {
        let pos_of = &mut self.pos_of;
        let items = &mut b.index.items;
        let targets = push_range(items, targets);
        for (p, i) in targets.clone().enumerate() {
            pos_of[items[i]] = p;
        }
        let reached = || edges.iter().filter(|&&(_, target)| pos_of[target] != usize::MAX);
        let child_rows = push_range(items, reached().map(|&(child, _)| child));
        let segs = push_range(items, reached().map(|&(_, target)| pos_of[target]));
        for i in targets.clone() {
            pos_of[items[i]] = usize::MAX;
        }
        let types = self.types;
        let first_group = b.index.groups.len();
        let split = split_by_type(items, targets.len(), |items, r| types[items[targets.start + r]]);
        for (type_index, rows) in present(split) {
            let items = &mut b.index.items;
            let start = items.len();
            for i in rows.clone() {
                let global = items[targets.start + items[i]];
                items.push(global);
            }
            let globals = start..items.len();
            b.group(type_index, rows, globals);
        }
        b.waves.push(WaveRanges {
            child_rows,
            segs,
            targets,
            groups: first_group..b.index.groups.len(),
        });
    }
}

/// One MLP call of the slot schedule: ranges of the schedule's index list
/// naming the input rows it computes and the state slot each lands in.
#[derive(Clone, Debug, PartialEq)]
struct SlotCall {
    /// Index into `NodeType::ALL` (selects the MLP).
    type_index: usize,
    /// Input rows to compute; `None` computes every input row in order.
    rows: Option<Range<usize>>,
    /// State slot written by each computed row.
    slots: Range<usize>,
}

/// One message-passing wave of the slot schedule: only its new targets,
/// one wave-input row each (ranges of the schedule's index list).
#[derive(Clone, Debug, PartialEq)]
struct SlotWave {
    /// Wave-input rows (new distinct targets).
    rows: usize,
    /// Slot of the child each contributing edge reads, in edge order.
    child_slots: Range<usize>,
    /// Wave-input row each edge accumulates into.
    segs: Range<usize>,
    /// `h0` slot of each wave-input row (its own-state half).
    own: Range<usize>,
    /// The wave's calls, one per node type present (range of `calls`).
    calls: Range<usize>,
}

/// A plan or a candidate batch lowered into a [`SlotMemo`] (see the
/// module docs): the fused pass keeps one `[state_rows, k·hidden]` state
/// matrix and writes each of the schedule's new slots exactly once; the
/// slots an earlier batch of the memo computed are already there. Row maps
/// live in one flat list so a lowering allocates a handful of buffers, not
/// a few per wave. A plan's schedule borrows the plan's stacked features
/// and readout segments; a candidate batch's owns the rows it gathered.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SlotSchedule<'a> {
    /// Message-passing scheme and rounds the schedule was lowered for.
    pub scheme: Scheme,
    pub traditional_rounds: usize,
    /// Every row map, concatenated; calls and waves hold ranges into it.
    index: Vec<usize>,
    /// The encoder calls (parallel to `inputs`), then every wave's calls.
    calls: Vec<SlotCall>,
    n_encoders: usize,
    /// Each encoder call's input rows.
    inputs: Cow<'a, [Tensor]>,
    waves: Vec<SlotWave>,
    /// Each node's slot after the last wave (readout input, node order).
    pub final_slots: Vec<usize>,
    /// Graph of each node (readout segments), parallel to `final_slots`.
    pub graph_of: Cow<'a, [usize]>,
    /// Graphs the readout pools (rows of the pass's output).
    pub n_graphs: usize,
    /// Rows the state matrix needs: every slot the memo holds.
    pub state_rows: usize,
    /// Row and slot counts of this batch (the new slots only).
    pub stats: SlotStats,
}

/// One MLP call as the fused pass reads it.
pub(crate) struct CallView<'a> {
    /// Index into `NodeType::ALL` (selects the MLP).
    pub type_index: usize,
    /// Input rows to compute; `None` computes every input row in order.
    pub rows: Option<&'a [usize]>,
    /// State slot written by each computed row.
    pub slots: &'a [usize],
}

/// One wave as the fused pass reads it.
pub(crate) struct WaveView<'a> {
    /// Wave-input rows.
    pub rows: usize,
    /// Slot of the child each contributing edge reads.
    pub child_slots: &'a [usize],
    /// Wave-input row each edge accumulates into.
    pub segs: &'a [usize],
    /// `h0` slot of each wave-input row.
    pub own: &'a [usize],
    schedule: &'a SlotSchedule<'a>,
    calls: &'a [SlotCall],
}

impl<'a> WaveView<'a> {
    /// The wave's updater calls, one per node type present.
    pub fn calls(&self) -> impl Iterator<Item = CallView<'a>> + '_ {
        self.calls.iter().map(|c| self.schedule.view(c))
    }
}

/// What hash-consing merged: node-state rows the per-node pass would
/// compute against the distinct ones the slot schedule computes — for one
/// plan ([`BatchPlan::hash_cons`]), or summed over the batches of a memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Encoder rows of the plan (its node count).
    pub encoder_rows: usize,
    /// Distinct encoder rows (slots the encoders write).
    pub distinct_encoder_rows: usize,
    /// Wave-target rows across all waves (what a per-node pass computes).
    pub wave_rows: usize,
    /// Distinct wave-target rows (slots the updaters write).
    pub distinct_wave_rows: usize,
}

impl SlotStats {
    /// Rows of the fused pass's state matrix: every distinct row once —
    /// the count the hash-consing tests compare across memos.
    pub fn slots(&self) -> usize {
        self.distinct_encoder_rows + self.distinct_wave_rows
    }
}

impl std::ops::AddAssign for SlotStats {
    fn add_assign(&mut self, other: SlotStats) {
        self.encoder_rows += other.encoder_rows;
        self.distinct_encoder_rows += other.distinct_encoder_rows;
        self.wave_rows += other.wave_rows;
        self.distinct_wave_rows += other.distinct_wave_rows;
    }
}

/// Open-addressed fingerprint → key-id table. A fingerprint only routes a
/// probe; the caller's exact key comparison decides every merge.
#[derive(Debug)]
struct SlotTable {
    /// `(fingerprint, key id)`, `id == usize::MAX` for an empty entry.
    entries: Vec<(u64, usize)>,
    /// Occupied entries.
    len: usize,
    /// The per-process start of every fingerprint ([`fingerprint_key`]).
    key: u64,
    /// ANDed into every fingerprint: `u64::MAX` in production; `0` in a
    /// test forces every key to collide and leaves all merging to the
    /// exact checks.
    fp_mask: u64,
}

impl SlotTable {
    fn new(fp_mask: u64) -> Self {
        SlotTable {
            entries: Vec::new(),
            len: 0,
            key: fingerprint_key(),
            fp_mask,
        }
    }

    /// Empties the table, keeping its capacity. The next [`reserve`]
    /// sizes it for that lowering alone, so a memo reused for small
    /// batches after a large one does not sweep the large table.
    ///
    /// [`reserve`]: SlotTable::reserve
    fn clear(&mut self) {
        self.entries.clear();
        self.len = 0;
    }

    /// Makes room for `more` keys at load ≤ 1/2, rehashing in place if it
    /// grows.
    fn reserve(&mut self, more: usize) {
        let cap = (2 * (self.len + more)).max(16).next_power_of_two();
        if cap <= self.entries.len() {
            return;
        }
        let old: Vec<(u64, usize)> = self
            .entries
            .iter()
            .copied()
            .filter(|&(_, id)| id != usize::MAX)
            .collect();
        self.entries.clear();
        self.entries.resize(cap, (0, usize::MAX));
        for (fp, id) in old {
            let i = self.free_entry(fp);
            self.entries[i] = (fp, id);
        }
    }

    fn start(&self, fp: u64) -> usize {
        (fp.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (self.entries.len() - 1)
    }

    fn free_entry(&self, fp: u64) -> usize {
        let mask = self.entries.len() - 1;
        let mut i = self.start(fp);
        while self.entries[i].1 != usize::MAX {
            i = (i + 1) & mask;
        }
        i
    }

    /// The id of a recorded key equal to the probed one (`same(id)`
    /// decides equality), or `fresh`, recorded under `fp`. The caller has
    /// reserved room for it.
    fn intern(&mut self, fp: u64, fresh: usize, mut same: impl FnMut(usize) -> bool) -> usize {
        let fp = fp & self.fp_mask;
        let mask = self.entries.len() - 1;
        let mut i = self.start(fp);
        loop {
            let (f, id) = self.entries[i];
            if id == usize::MAX {
                self.entries[i] = (fp, fresh);
                self.len += 1;
                return fresh;
            }
            if f == fp && same(id) {
                return id;
            }
            i = (i + 1) & mask;
        }
    }

    /// Fingerprint of an encoder key: node type and feature bits, two
    /// features per step.
    fn row_fingerprint(&self, type_index: usize, row: &[f32]) -> u64 {
        let mut h = fp_step(self.key, type_index as u64);
        let mut pairs = row.chunks_exact(2);
        for p in &mut pairs {
            h = fp_step(h, u64::from(p[0].to_bits()) | u64::from(p[1].to_bits()) << 32);
        }
        if let [x] = pairs.remainder() {
            h = fp_step(h, u64::from(x.to_bits()));
        }
        h
    }

    /// Fingerprint of a wave key: own slot, child count and child slots.
    fn wave_fingerprint(&self, own: usize, children: &[usize]) -> u64 {
        let h = fp_step(fp_step(self.key, own as u64), children.len() as u64);
        children.iter().fold(h, |h, &c| fp_step(h, c as u64))
    }
}

/// The state every fingerprint starts from, drawn once per process. Feature
/// values arrive from outside the program (wire requests), so a fixed
/// start would let a batch be crafted offline to make every probe collide:
/// that costs time (never a bit, the exact check decides), and the random
/// start takes it away.
fn fingerprint_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().build_hasher().finish())
}

fn fp_step(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Appends `items` to `index` and returns where they landed.
fn push_range(index: &mut Vec<usize>, items: impl IntoIterator<Item = usize>) -> Range<usize> {
    let start = index.len();
    index.extend(items);
    start..index.len()
}

/// An encoder slot's key: node type and the bits of its feature row.
#[derive(Debug)]
struct EncoderKey {
    type_index: usize,
    /// Range of the row in [`SlotMemo::rows`].
    row: Range<usize>,
    slot: usize,
}

/// A wave slot's key: own `h0` slot and the ordered child slots.
#[derive(Debug)]
struct WaveKey {
    own: usize,
    /// Range of the child slots in [`SlotMemo::kids`].
    kids: Range<usize>,
    slot: usize,
}

/// One new wave-input row of a schedule being built: its node type, its
/// own `h0` slot, the slot it writes and how many child slots it sums (the
/// child slots themselves are already in the schedule's index, row after
/// row).
#[derive(Clone, Copy, Debug)]
struct FreshRow {
    type_index: usize,
    own: usize,
    slot: usize,
    kids: usize,
}

/// A wave target of a template's one-host shape
/// ([`GraphTemplate::one_host_shape`]), as the placement lowering reads it.
#[derive(Clone, Debug)]
struct ShapeTarget {
    /// Shape node: an operator, or `n_ops` — the host node, which stands
    /// for every host a candidate uses.
    node: usize,
    type_index: usize,
    /// Its children (shape nodes, in edge order): a range of
    /// [`TemplateCache::kids`].
    kids: Range<usize>,
}

/// One wave of a template's shape: its targets whose keys can depend on
/// the placement (a host's own row does, and so does every key that reads
/// a placed state), then those whose keys cannot — ranges of
/// [`TemplateCache::targets`].
#[derive(Clone, Debug)]
struct ShapeWave {
    placed: Range<usize>,
    unplaced: Range<usize>,
}

/// One template's entry in a search memo: the waves of its one-host shape,
/// read once per search, and the slots its rows got in the memo's current
/// generation. The `h0`, `cur`, `fixed` and `hosts` ranges index
/// [`TemplateCache::slots`].
#[derive(Clone, Debug)]
struct TemplateEntry {
    /// [`GraphTemplate::id`].
    id: u64,
    n_ops: usize,
    /// Whether the shape has a host node (not under `QueryOnly`).
    has_hosts: bool,
    /// The shape's targets, a range of [`TemplateCache::targets`], and its
    /// waves, a range of [`TemplateCache::waves`].
    targets: Range<usize>,
    waves: Range<usize>,
    /// Per candidate graph: wave targets `op_rows + host_rows · used
    /// hosts`.
    op_rows: usize,
    host_rows: usize,
    /// Targets no placement can change (all of them operators).
    unplaced_rows: usize,
    /// The memo generation the slots below belong to (`None`: none yet).
    generation: Option<u64>,
    /// Shape waves whose unplaced targets hold slots in this generation.
    fixed_waves: usize,
    /// Each operator's encoder slot.
    h0: Range<usize>,
    /// Each operator's current slot in the unplaced walk.
    cur: Range<usize>,
    /// Per shape target, its slot when it is unplaced.
    fixed: Range<usize>,
    /// Per cluster host, its plain row's slot (`usize::MAX` until a
    /// candidate uses the host).
    hosts: Range<usize>,
}

/// What a search memo knows of the templates it lowered candidates of:
/// every entry's lists, concatenated, so a repeated search reuses them.
#[derive(Debug, Default)]
struct TemplateCache {
    entries: Vec<TemplateEntry>,
    waves: Vec<ShapeWave>,
    targets: Vec<ShapeTarget>,
    kids: Vec<usize>,
    slots: Vec<usize>,
}

impl TemplateCache {
    /// Forgets every template, keeping the buffers.
    fn clear(&mut self) {
        self.entries.clear();
        self.waves.clear();
        self.targets.clear();
        self.kids.clear();
        self.slots.clear();
    }

    /// The entry of `template`, its shape read when first seen: the shape's
    /// topology (wave `k` is the same wave for every template of one
    /// featurization: the host phase when the shape has a host node, then
    /// one wave per dataflow depth) and which keys can depend on the
    /// placement — a target's is placed when its own row is a host's or it
    /// reads a placed state. In the Costream scheme that is the OPS→HW
    /// phase only: every dataflow key reads operator states alone.
    fn entry(&mut self, template: &GraphTemplate, scheme: Scheme, traditional_rounds: usize) -> usize {
        if let Some(e) = self.entries.iter().position(|e| e.id == template.id()) {
            return e;
        }
        let shape = template.one_host_shape();
        let n_ops = template.op_nodes().len();
        let topo = PlanTopology::build(&[&shape], scheme, traditional_rounds);
        // Whether the state each shape node holds at this point is placed.
        let mut placed_now: Vec<bool> = (0..shape.len()).map(|v| v >= n_ops).collect();
        let (targets_start, waves_start) = (self.targets.len(), self.waves.len());
        let mut rows = [0usize; 2];
        let (mut after, mut unplaced) = (Vec::new(), Vec::new());
        for w in &topo.waves {
            let first = self.targets.len();
            for (p, &t) in w.targets().iter().enumerate() {
                rows[usize::from(t >= n_ops)] += 1;
                let start = self.kids.len();
                self.kids.extend(
                    w.child_rows()
                        .iter()
                        .zip(w.segs())
                        .filter(|&(_, &seg)| seg == p)
                        .map(|(&c, _)| c),
                );
                let placed = t >= n_ops || self.kids[start..].iter().any(|&c| placed_now[c]);
                after.push((t, placed));
                let target = ShapeTarget {
                    node: t,
                    type_index: shape.nodes[t].node_type as usize,
                    kids: start..self.kids.len(),
                };
                if placed {
                    self.targets.push(target);
                } else {
                    unplaced.push(target);
                }
            }
            let split = self.targets.len();
            self.targets.append(&mut unplaced);
            for (t, placed) in after.drain(..) {
                placed_now[t] = placed;
            }
            self.waves.push(ShapeWave {
                placed: first..split,
                unplaced: split..self.targets.len(),
            });
        }
        let n_targets = self.targets.len() - targets_start;
        let mut take = |n: usize| {
            let start = self.slots.len();
            self.slots.resize(start + n, usize::MAX);
            start..self.slots.len()
        };
        let (h0, cur, fixed, hosts) = (take(n_ops), take(n_ops), take(n_targets), take(template.n_hosts()));
        self.entries.push(TemplateEntry {
            id: template.id(),
            n_ops,
            has_hosts: shape.len() > n_ops,
            targets: targets_start..self.targets.len(),
            waves: waves_start..self.waves.len(),
            op_rows: rows[0],
            host_rows: rows[1],
            unplaced_rows: self.waves[waves_start..].iter().map(|w| w.unplaced.len()).sum(),
            generation: None,
            fixed_waves: 0,
            h0,
            cur,
            fixed,
            hosts,
        });
        self.entries.len() - 1
    }
}

/// What one placement lowering works in, kept by the memo so a repeated
/// search allocates none of it: per graph of the chunk, its template entry,
/// its used hosts (ascending), each operator's host rank, and every node's
/// `h0` and current slot.
#[derive(Debug, Default)]
struct PlacedScratch {
    entry: Vec<usize>,
    /// One graph's used hosts, ascending.
    used: Vec<usize>,
    hosts: Vec<usize>,
    /// Where each graph's used hosts end in `hosts`.
    host_ends: Vec<usize>,
    /// First node of each graph in `h0` / `cur` (its operators' in `rank`
    /// start at `rank_start`).
    node_start: Vec<usize>,
    rank_start: Vec<usize>,
    rank: Vec<usize>,
    h0: Vec<usize>,
    cur: Vec<usize>,
    /// One key's child slots.
    kids: Vec<usize>,
    /// One wave's new current slots, `(node, slot)`.
    after: Vec<(usize, usize)>,
    fresh: Vec<FreshRow>,
}

/// Every distinct node state a batch, or a search's batches, computed so
/// far: the encoder and wave keys, interned through fingerprint tables,
/// and the slot each was given (see the module docs for its lifetime).
/// Lowering a plan or a candidate batch into it yields a [`SlotSchedule`]
/// of the new slots only.
#[derive(Debug)]
pub(crate) struct SlotMemo {
    encoders: SlotTable,
    encoder_keys: Vec<EncoderKey>,
    /// Feature row of every encoder key, concatenated (compared by bits).
    rows: Vec<f32>,
    waves: SlotTable,
    wave_keys: Vec<WaveKey>,
    /// Child slots of every wave key, concatenated.
    kids: Vec<usize>,
    /// Slots given out: the state matrix rows the memo's slots index.
    n_slots: usize,
    /// Counts the times the memo forgot its slots: a template's slots
    /// belong to one generation.
    generation: u64,
    /// A candidate lowering that could take the memo past this many slots
    /// restarts it first (a search memo's memory bound).
    cap: usize,
    /// The templates of the candidates lowered so far (a search memo's).
    templates: TemplateCache,
    scratch: PlacedScratch,
}

impl SlotMemo {
    /// An empty memo with no slot cap; `fp_mask` as in [`SlotTable`].
    pub(crate) fn new(fp_mask: u64) -> Self {
        SlotMemo {
            encoders: SlotTable::new(fp_mask),
            encoder_keys: Vec::new(),
            rows: Vec::new(),
            waves: SlotTable::new(fp_mask),
            wave_keys: Vec::new(),
            kids: Vec::new(),
            n_slots: 0,
            generation: 0,
            cap: usize::MAX,
            templates: TemplateCache::default(),
            scratch: PlacedScratch::default(),
        }
    }

    /// Forgets every slot and every template, and sets the slot cap — a
    /// lowering that could take the memo past `cap` slots restarts it
    /// first — and the fingerprint mask, as in [`SlotTable`].
    pub(crate) fn restart(&mut self, cap: usize, fp_mask: u64) {
        self.clear();
        self.templates.clear();
        self.cap = cap;
        self.encoders.fp_mask = fp_mask;
        self.waves.fp_mask = fp_mask;
    }

    /// Forgets every slot, keeping every buffer's capacity (and each
    /// template's shape: only its slots go stale).
    fn clear(&mut self) {
        self.encoders.clear();
        self.encoder_keys.clear();
        self.rows.clear();
        self.waves.clear();
        self.wave_keys.clear();
        self.kids.clear();
        self.n_slots = 0;
        self.generation += 1;
    }

    /// Capacity of every buffer the memo's keys live in (test
    /// instrumentation: a warm memo that repeats a search grows none of
    /// them).
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> [usize; 6] {
        [
            self.encoders.entries.capacity(),
            self.encoder_keys.capacity(),
            self.rows.capacity(),
            self.waves.entries.capacity(),
            self.wave_keys.capacity(),
            self.kids.capacity(),
        ]
    }

    /// Capacity of every buffer the placement lowering keeps (test
    /// instrumentation, like [`SlotMemo::capacities`]).
    #[cfg(test)]
    pub(crate) fn placement_capacities(&self) -> Vec<usize> {
        let (t, p) = (&self.templates, &self.scratch);
        vec![
            t.entries.capacity(),
            t.waves.capacity(),
            t.targets.capacity(),
            t.kids.capacity(),
            t.slots.capacity(),
            p.entry.capacity(),
            p.used.capacity(),
            p.hosts.capacity(),
            p.host_ends.capacity(),
            p.node_start.capacity(),
            p.rank_start.capacity(),
            p.rank.capacity(),
            p.h0.capacity(),
            p.cur.capacity(),
            p.kids.capacity(),
            p.after.capacity(),
            p.fresh.capacity(),
        ]
    }

    /// The slot of encoder key (`type_index`, bits of `row`), and whether
    /// it is new. The caller has reserved room for it.
    fn intern_row(&mut self, type_index: usize, row: &[f32]) -> (usize, bool) {
        let fresh = self.encoder_keys.len();
        let fp = self.encoders.row_fingerprint(type_index, row);
        let (keys, rows) = (&self.encoder_keys, &self.rows);
        let k = self.encoders.intern(fp, fresh, |k| {
            let key = &keys[k];
            key.type_index == type_index && same_bits(&rows[key.row.clone()], row)
        });
        if k != fresh {
            return (self.encoder_keys[k].slot, false);
        }
        let start = self.rows.len();
        self.rows.extend_from_slice(row);
        self.encoder_keys.push(EncoderKey {
            type_index,
            row: start..self.rows.len(),
            slot: self.n_slots,
        });
        self.n_slots += 1;
        (self.n_slots - 1, true)
    }

    /// The slot of wave key (`own`, `children`), and whether it is new.
    /// The caller has reserved room for it.
    fn intern_wave(&mut self, own: usize, children: &[usize]) -> (usize, bool) {
        let fresh = self.wave_keys.len();
        let fp = self.waves.wave_fingerprint(own, children);
        let (keys, kids) = (&self.wave_keys, &self.kids);
        let k = self.waves.intern(fp, fresh, |k| {
            keys[k].own == own && kids[keys[k].kids.clone()] == *children
        });
        if k != fresh {
            return (self.wave_keys[k].slot, false);
        }
        let kids = push_range(&mut self.kids, children.iter().copied());
        self.wave_keys.push(WaveKey {
            own,
            kids,
            slot: self.n_slots,
        });
        self.n_slots += 1;
        (self.n_slots - 1, true)
    }

    /// Lowers one plan, alone: the memo forgets every slot first, then
    /// every encoder row and wave target is interned against the
    /// plan's own keys, and only those with no equal key get a new slot
    /// (and a row of the schedule).
    fn lower<'a>(&mut self, topo: &'a PlanTopology, features: &'a [Tensor]) -> SlotSchedule<'a> {
        self.clear();
        let wave_rows: usize = topo.waves.iter().map(|w| w.targets().len()).sum();
        let edges: usize = topo.waves.iter().map(|w| w.child_rows().len()).sum();
        let mut s = SlotSchedule {
            scheme: topo.scheme,
            traditional_rounds: topo.traditional_rounds,
            // What the lowering can emit at most: encoder rows and slots,
            // then per wave target own, rows and slots, and per edge child
            // slot and segment.
            index: Vec::with_capacity(2 * topo.total + 3 * wave_rows + 2 * edges),
            calls: Vec::with_capacity(topo.n_encoders() + topo.waves.iter().map(WaveSpec::groups).sum::<usize>()),
            n_encoders: topo.n_encoders(),
            inputs: Cow::Borrowed(features),
            waves: Vec::with_capacity(topo.waves.len()),
            final_slots: Vec::new(),
            graph_of: Cow::Borrowed(&topo.graph_of),
            n_graphs: topo.n_graphs,
            state_rows: 0,
            stats: SlotStats {
                encoder_rows: topo.total,
                wave_rows,
                ..SlotStats::default()
            },
        };

        // ---- encoder rows, keyed by (type, feature bits). A call's new
        // slots are consecutive, so its slot map is a run of ids. ----
        self.encoders.reserve(topo.total);
        self.encoder_keys.reserve(topo.total);
        self.rows.reserve(features.iter().map(|f| f.data().len()).sum());
        let first = self.n_slots;
        let mut h0 = vec![0usize; topo.total];
        for ((type_index, globals), feats) in topo.encoders().zip(features) {
            let call_first = self.n_slots;
            let rows_start = s.index.len();
            for (r, &node) in globals.iter().enumerate() {
                let (slot, fresh) = self.intern_row(type_index, feats.row_slice(r));
                if fresh {
                    s.index.push(r);
                }
                h0[node] = slot;
            }
            let rows = if self.n_slots - call_first < globals.len() {
                Some(rows_start..s.index.len())
            } else {
                s.index.truncate(rows_start);
                None
            };
            let slots = push_range(&mut s.index, call_first..self.n_slots);
            s.calls.push(SlotCall {
                type_index,
                rows,
                slots,
            });
        }
        s.stats.distinct_encoder_rows = self.n_slots - first;

        // A wave key can repeat only if an encoder row does: with every own
        // slot new no two targets share a key, and no later batch reads a
        // plan's slots, so then no wave is hashed at all.
        let merge = s.stats.distinct_encoder_rows < topo.total;
        let mut cur = h0.clone();
        self.lower_waves(&mut s, topo, &h0, &mut cur, merge);
        s.final_slots = cur;
        s.state_rows = self.n_slots;
        s
    }

    /// Lowers the waves. A wave computes one input row per target that
    /// needs a slot of its own: when merging, a target is interned by (own
    /// slot, child slots in edge order) against every key the memo holds,
    /// and only the first of equal keys is computed; otherwise every target
    /// gets a new slot.
    fn lower_waves(&mut self, s: &mut SlotSchedule, topo: &PlanTopology, h0: &[usize], cur: &mut [usize], merge: bool) {
        let first = self.n_slots;
        if merge {
            self.waves.reserve(s.stats.wave_rows);
            self.wave_keys.reserve(s.stats.wave_rows);
            self.kids.reserve(topo.waves.iter().map(|w| w.child_rows().len()).sum());
        }
        // Per-wave scratch: child slots bucketed by target (CSR), each
        // target's node type, the new rows and each target's new slot.
        let (mut start, mut fill, mut by_target) = (Vec::new(), Vec::new(), Vec::new());
        let (mut type_of, mut fresh, mut after) = (Vec::new(), Vec::new(), Vec::new());
        for w in &topo.waves {
            let n = w.targets().len();
            start.clear();
            start.resize(n + 1, 0);
            for &seg in w.segs() {
                start[seg + 1] += 1;
            }
            for p in 0..n {
                start[p + 1] += start[p];
            }
            fill.clear();
            fill.extend_from_slice(&start[..n]);
            by_target.clear();
            by_target.resize(w.child_rows().len(), 0);
            for (&c, &seg) in w.child_rows().iter().zip(w.segs()) {
                by_target[fill[seg]] = cur[c];
                fill[seg] += 1;
            }
            type_of.clear();
            type_of.resize(n, 0);
            for g in w.groups() {
                for &r in g.rows {
                    type_of[r] = g.mlp;
                }
            }

            // Key every target on its pre-wave children; a new one's child
            // slots go straight into the schedule's index.
            let child_start = s.index.len();
            fresh.clear();
            after.clear();
            for (p, &t) in w.targets().iter().enumerate() {
                let own = h0[t];
                let children = &by_target[start[p]..start[p + 1]];
                let (slot, new) = if merge {
                    self.intern_wave(own, children)
                } else {
                    self.n_slots += 1;
                    (self.n_slots - 1, true)
                };
                if new {
                    s.index.extend_from_slice(children);
                    fresh.push(FreshRow {
                        type_index: type_of[p],
                        own,
                        slot,
                        kids: children.len(),
                    });
                }
                after.push((t, slot));
            }
            // The new slots become current only once every key is built.
            for &(t, slot) in &after {
                cur[t] = slot;
            }
            s.push_wave(child_start, &fresh);
        }
        s.stats.distinct_wave_rows = self.n_slots - first;
    }

    /// Lowers graphs `graphs` of a candidate batch straight from their
    /// placements (see the module docs): no graph and no plan is built. A
    /// template's operator rows, and the keys of its targets no placement
    /// can change, are interned once per memo generation; a plain host row
    /// once per host, an override row by its bits; and each graph's placed
    /// targets per graph. Wave `k` of the schedule holds every new slot of
    /// shape wave `k`, across the chunk, as a plan of the same graphs would.
    ///
    /// # Panics
    /// Panics if a placement does not fit its template (operator count,
    /// host ids).
    pub(crate) fn lower_candidates(
        &mut self,
        batch: &CandidateBatch,
        graphs: Range<usize>,
        scheme: Scheme,
        traditional_rounds: usize,
    ) -> SlotSchedule<'static> {
        let mut cache = std::mem::take(&mut self.templates);
        let mut sc = std::mem::take(&mut self.scratch);
        let s = self.lower_placed(&mut cache, &mut sc, batch, graphs, scheme, traditional_rounds);
        self.templates = cache;
        self.scratch = sc;
        s
    }

    /// The body of [`SlotMemo::lower_candidates`], with the template cache
    /// and the scratch taken out of the memo.
    fn lower_placed(
        &mut self,
        cache: &mut TemplateCache,
        sc: &mut PlacedScratch,
        batch: &CandidateBatch,
        graphs: Range<usize>,
        scheme: Scheme,
        traditional_rounds: usize,
    ) -> SlotSchedule<'static> {
        // ---- per graph: its template, used hosts and host ranks ----
        for v in [
            &mut sc.entry,
            &mut sc.hosts,
            &mut sc.host_ends,
            &mut sc.node_start,
            &mut sc.rank_start,
        ] {
            v.clear();
        }
        sc.rank.clear();
        // Nodes and wave targets; and the wave keys the lowering may intern
        // (placed targets, plus the unplaced ones of a template new to this
        // generation).
        let (mut total, mut wave_rows, mut keyed) = (0, 0, 0);
        for i in graphs.clone() {
            let (template, placement) = (batch.template(i), batch.placement(i));
            let e = cache.entry(template, scheme, traditional_rounds);
            let entry = &cache.entries[e];
            let assignment = placement.assignment();
            assert_eq!(assignment.len(), entry.n_ops, "placement arity mismatch");
            sc.used.clear();
            sc.rank_start.push(sc.rank.len());
            if entry.has_hosts {
                sc.used.extend_from_slice(assignment);
                sc.used.sort_unstable();
                sc.used.dedup();
                assert!(
                    sc.used.last().is_none_or(|&h| h < template.n_hosts()),
                    "placement references a host outside the template's cluster"
                );
                let used = &sc.used;
                sc.rank.extend(
                    assignment
                        .iter()
                        .map(|h| used.binary_search(h).expect("used host has a rank")),
                );
            }
            sc.hosts.extend_from_slice(&sc.used);
            let u = sc.used.len();
            sc.entry.push(e);
            sc.host_ends.push(sc.hosts.len());
            sc.node_start.push(total);
            total += entry.n_ops + u;
            wave_rows += entry.op_rows + u * entry.host_rows;
            keyed += entry.op_rows - entry.unplaced_rows + u * entry.host_rows;
        }
        if self.n_slots.saturating_add(total + wave_rows) > self.cap {
            self.clear();
        }
        let generation = self.generation;
        let mut s = SlotSchedule {
            scheme,
            traditional_rounds,
            // Room for what a typical chunk emits: a slot per new encoder
            // row, and per new wave row its own, row, slot and segment
            // plus the child slots (about one per node).
            index: Vec::with_capacity(2 * total + 4 * keyed),
            calls: Vec::new(),
            n_encoders: 0,
            inputs: Cow::Owned(Vec::new()),
            waves: Vec::new(),
            final_slots: Vec::new(),
            graph_of: Cow::Owned(Vec::new()),
            n_graphs: graphs.len(),
            state_rows: 0,
            stats: SlotStats {
                encoder_rows: total,
                wave_rows,
                ..SlotStats::default()
            },
        };

        // ---- encoder rows: a template's operators once per generation,
        // then each graph's hosts. ----
        self.encoders.reserve(total);
        self.encoder_keys.reserve(total);
        let first = self.n_slots;
        let mut new_rows: [(Vec<f32>, Vec<usize>); NodeType::ALL.len()] = Default::default();
        let mut intern_row = |memo: &mut SlotMemo, type_index: usize, row: &[f32]| {
            let (slot, fresh) = memo.intern_row(type_index, row);
            if fresh {
                new_rows[type_index].0.extend_from_slice(row);
                new_rows[type_index].1.push(slot);
            }
            slot
        };
        const HOST: usize = NodeType::Host as usize;
        sc.h0.clear();
        for (g, i) in graphs.clone().enumerate() {
            let template = batch.template(i);
            let entry = &mut cache.entries[sc.entry[g]];
            if entry.generation != Some(generation) {
                entry.generation = Some(generation);
                entry.fixed_waves = 0;
                keyed += entry.unplaced_rows;
                cache.slots[entry.fixed.clone()].fill(usize::MAX);
                cache.slots[entry.hosts.clone()].fill(usize::MAX);
                for (op, node) in template.op_nodes().iter().enumerate() {
                    let slot = intern_row(self, node.node_type as usize, &node.features);
                    cache.slots[entry.h0.start + op] = slot;
                    cache.slots[entry.cur.start + op] = slot;
                }
            }
            sc.h0.extend_from_slice(&cache.slots[entry.h0.clone()]);
            let used = if g == 0 { 0 } else { sc.host_ends[g - 1] }..sc.host_ends[g];
            for &h in &sc.hosts[used] {
                let slot = match batch.overrides(i).iter().find(|(o, _)| *o == h) {
                    Some((_, row)) => {
                        assert_eq!(
                            row.len(),
                            NodeType::Host.feature_width(),
                            "feature row of the wrong width"
                        );
                        intern_row(self, HOST, row)
                    }
                    None => {
                        let plain = &mut cache.slots[entry.hosts.start + h];
                        if *plain == usize::MAX {
                            *plain = intern_row(self, HOST, &template.host_row(h));
                        }
                        *plain
                    }
                };
                sc.h0.push(slot);
            }
        }
        for (type_index, (rows, slots)) in new_rows.into_iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let input = Tensor::from_vec(slots.len(), NodeType::ALL[type_index].feature_width(), rows);
            let slots = push_range(&mut s.index, slots);
            s.calls.push(SlotCall {
                type_index,
                rows: None,
                slots,
            });
            s.inputs.to_mut().push(input);
        }
        s.n_encoders = s.calls.len();
        s.stats.distinct_encoder_rows = self.n_slots - first;

        // ---- waves, shape wave by shape wave across the chunk: a key is
        // built on its graph's pre-wave slots, and the new ones become
        // current once the graph's wave is keyed. ----
        self.waves.reserve(keyed);
        self.wave_keys.reserve(keyed);
        let first = self.n_slots;
        sc.cur.clear();
        sc.cur.extend_from_slice(&sc.h0);
        let n_waves = sc
            .entry
            .iter()
            .map(|&e| cache.entries[e].waves.len())
            .max()
            .unwrap_or(0);
        for k in 0..n_waves {
            let child_start = s.index.len();
            sc.fresh.clear();
            for g in 0..graphs.len() {
                let e = sc.entry[g];
                let entry = &cache.entries[e];
                if k >= entry.waves.len() {
                    continue;
                }
                let wave = cache.waves[entry.waves.start + k].clone();
                let n_ops = entry.n_ops;
                // Target `j`'s slot in `fixed` (parallel to `targets`).
                let (fixed, targets) = (entry.fixed.start, entry.targets.start);
                let fixed_of = move |j: usize| fixed + j - targets;

                // The template's unplaced targets, keyed once per generation
                // on the template's own operator slots.
                if entry.fixed_waves == k {
                    let (h0, cur) = (entry.h0.start, entry.cur.start);
                    for j in wave.unplaced.clone() {
                        let t = &cache.targets[j];
                        sc.kids.clear();
                        sc.kids
                            .extend(cache.kids[t.kids.clone()].iter().map(|&c| cache.slots[cur + c]));
                        let own = cache.slots[h0 + t.node];
                        let (slot, new) = self.intern_wave(own, &sc.kids);
                        if new {
                            s.index.extend_from_slice(&sc.kids);
                            sc.fresh.push(FreshRow {
                                type_index: t.type_index,
                                own,
                                slot,
                                kids: sc.kids.len(),
                            });
                        }
                        cache.slots[fixed_of(j)] = slot;
                        sc.after.push((t.node, slot));
                    }
                    for (v, slot) in sc.after.drain(..) {
                        cache.slots[cur + v] = slot;
                    }
                    cache.entries[e].fixed_waves = k + 1;
                }

                // The graph's placed targets, keyed on its pre-wave slots —
                // the host node once per used host, on the operators placed
                // there; then its unplaced ones take the template's slots.
                let (nodes, ranks) = (sc.node_start[g], sc.rank_start[g]);
                let used = sc.host_ends[g] - if g == 0 { 0 } else { sc.host_ends[g - 1] };
                for j in wave.placed {
                    let t = &cache.targets[j];
                    let kids = &cache.kids[t.kids.clone()];
                    let on_hosts = if t.node < n_ops { 0..1 } else { 0..used };
                    for r in on_hosts {
                        let (node, host) = if t.node < n_ops {
                            (t.node, sc.rank[ranks + t.node])
                        } else {
                            (n_ops + r, r)
                        };
                        sc.kids.clear();
                        for &c in kids {
                            if c == n_ops {
                                sc.kids.push(sc.cur[nodes + n_ops + host]);
                            } else if t.node < n_ops || sc.rank[ranks + c] == r {
                                sc.kids.push(sc.cur[nodes + c]);
                            }
                        }
                        let own = sc.h0[nodes + node];
                        let (slot, new) = self.intern_wave(own, &sc.kids);
                        if new {
                            s.index.extend_from_slice(&sc.kids);
                            sc.fresh.push(FreshRow {
                                type_index: t.type_index,
                                own,
                                slot,
                                kids: sc.kids.len(),
                            });
                        }
                        sc.after.push((node, slot));
                    }
                }
                for j in wave.unplaced {
                    sc.cur[nodes + cache.targets[j].node] = cache.slots[fixed_of(j)];
                }
                for (v, slot) in sc.after.drain(..) {
                    sc.cur[nodes + v] = slot;
                }
            }
            s.push_wave(child_start, &sc.fresh);
        }
        s.stats.distinct_wave_rows = self.n_slots - first;

        // ---- readout: each graph's nodes in node order ----
        s.final_slots = sc.cur.clone();
        let graph_of = s.graph_of.to_mut();
        graph_of.reserve_exact(total);
        for g in 0..graphs.len() {
            let end = sc.node_start.get(g + 1).copied().unwrap_or(total);
            graph_of.extend(std::iter::repeat_n(g, end - sc.node_start[g]));
        }
        s.state_rows = self.n_slots;
        s
    }
}

/// Bitwise equality of two feature rows.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl SlotSchedule<'_> {
    /// Appends one wave of `fresh` rows, whose child slots the index holds
    /// from `child_start` on, row after row: its segments, own slots and
    /// one updater call per node type present. A wave with no new row is
    /// left out.
    fn push_wave(&mut self, child_start: usize, fresh: &[FreshRow]) {
        if fresh.is_empty() {
            return;
        }
        let child_slots = child_start..self.index.len();
        let segs = push_range(
            &mut self.index,
            fresh
                .iter()
                .enumerate()
                .flat_map(|(row, f)| std::iter::repeat_n(row, f.kids)),
        );
        let own = push_range(&mut self.index, fresh.iter().map(|f| f.own));
        let mut present = [false; NodeType::ALL.len()];
        for f in fresh {
            present[f.type_index] = true;
        }
        let first_call = self.calls.len();
        for type_index in (0..NodeType::ALL.len()).filter(|&t| present[t]) {
            let rows = push_range(
                &mut self.index,
                fresh
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.type_index == type_index)
                    .map(|(r, _)| r),
            );
            let start = self.index.len();
            for r in rows.clone() {
                let slot = fresh[self.index[r]].slot;
                self.index.push(slot);
            }
            let slots = start..self.index.len();
            self.calls.push(SlotCall {
                type_index,
                rows: (rows.len() < fresh.len()).then_some(rows),
                slots,
            });
        }
        self.waves.push(SlotWave {
            rows: fresh.len(),
            child_slots,
            segs,
            own,
            calls: first_call..self.calls.len(),
        });
    }

    fn view<'a>(&'a self, call: &'a SlotCall) -> CallView<'a> {
        CallView {
            type_index: call.type_index,
            rows: call.rows.clone().map(|r| &self.index[r]),
            slots: &self.index[call.slots.clone()],
        }
    }

    /// The encoder calls, each with its input rows. A call whose rows an
    /// earlier batch of the memo computed has no slots.
    pub fn encoders(&self) -> impl Iterator<Item = (CallView<'_>, &Tensor)> {
        self.calls[..self.n_encoders]
            .iter()
            .map(|c| self.view(c))
            .zip(self.inputs.iter())
    }

    /// The waves that compute at least one new slot, in order.
    pub fn waves(&self) -> impl Iterator<Item = WaveView<'_>> {
        self.waves.iter().map(|w| WaveView {
            rows: w.rows,
            child_slots: &self.index[w.child_slots.clone()],
            segs: &self.index[w.segs.clone()],
            own: &self.index[w.own.clone()],
            schedule: self,
            calls: &self.calls[w.calls.clone()],
        })
    }
}

/// Structural signature of a batch of graphs — in serving, of one graph:
/// a hash over the node types, edge lists, scheme and round count a
/// `PlanTopology` depends on, and nothing the feature *values* can
/// change. Equal structures have equal signatures.
///
/// A signature only routes: it picks a [`PlanCache`] entry or a serving
/// shard. Its hash has fixed keys, so a client can search offline for
/// two shapes that collide; the cache therefore confirms every hit by
/// comparing the structure itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanSignature {
    hash: u64,
    n_graphs: u32,
    total_nodes: u32,
    total_edges: u32,
}

/// Computes the structural signature of a batch (see [`PlanSignature`]).
pub fn plan_signature(graphs: &[&JointGraph], scheme: Scheme, traditional_rounds: usize) -> PlanSignature {
    let mut h = DefaultHasher::new();
    (scheme as u8).hash(&mut h);
    if scheme == Scheme::Traditional {
        traditional_rounds.hash(&mut h);
    }
    let mut total_nodes = 0usize;
    let mut total_edges = 0usize;
    for g in graphs {
        g.nodes.len().hash(&mut h);
        for node in &g.nodes {
            (node.node_type as u8).hash(&mut h);
        }
        g.dataflow_edges.hash(&mut h);
        g.placement_edges.hash(&mut h);
        total_nodes += g.len();
        total_edges += g.dataflow_edges.len() + g.placement_edges.len();
    }
    PlanSignature {
        hash: h.finish(),
        n_graphs: graphs.len() as u32,
        total_nodes: total_nodes as u32,
        total_edges: total_edges as u32,
    }
}

struct CacheSlot {
    frag: Arc<Fragment>,
    last_used: u64,
}

struct CacheInner {
    /// Keyed by the masked signature hash (see [`PlanCache::key`]).
    map: HashMap<u64, CacheSlot>,
    tick: u64,
}

/// A thread-safe LRU cache of per-graph topology fragments, keyed by
/// one-graph [`PlanSignature`]s and confirmed by exact comparison (see the
/// module docs).
///
/// [`PlanCache::get_or_build`] returns a ready-to-run [`BatchPlan`] for a
/// batch of any shapes: it builds and inserts only the fragments it lacks,
/// evicting the least-recently-used at capacity, stitches the batch
/// topology from them and stacks the feature rows. Hits and misses count
/// per graph.
pub struct PlanCache {
    capacity: usize,
    /// ANDed into every signature hash before it keys the map.
    sig_mask: u64,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` fragments (distinct
    /// graph shapes).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_signature_mask(capacity, u64::MAX)
    }

    /// A cache that ANDs `mask` into every signature before it keys a
    /// fragment: `0` makes every shape collide, leaving every hit to the
    /// exact check. Test instrumentation only.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[doc(hidden)]
    pub fn with_signature_mask(capacity: usize, mask: u64) -> Self {
        assert!(capacity > 0, "plan cache needs capacity >= 1");
        PlanCache {
            capacity,
            sig_mask: mask,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn key(&self, sig: &PlanSignature) -> u64 {
        sig.hash & self.sig_mask
    }

    /// Returns a plan for the batch, stitched from cached fragments where
    /// the graphs' shapes have been seen (see
    /// [`PlanCache::get_or_build_signed`]).
    ///
    /// # Panics
    /// Panics on an empty batch (as [`BatchPlan::build`] does).
    pub fn get_or_build(&self, graphs: &[&JointGraph], scheme: Scheme, traditional_rounds: usize) -> BatchPlan {
        let sigs: Vec<PlanSignature> = graphs
            .iter()
            .map(|g| plan_signature(&[g], scheme, traditional_rounds))
            .collect();
        self.get_or_build_signed(graphs, &sigs, scheme, traditional_rounds)
    }

    /// [`PlanCache::get_or_build`] for a caller that already holds each
    /// graph's one-graph signature (`plan_signature(&[g], ..)`, parallel to
    /// `graphs`) — a serving layer computes it per request at submission.
    ///
    /// # Panics
    /// Panics on an empty batch, on `sigs` of another length, and on a
    /// malformed graph (an edge or wave list that does not fit its nodes).
    pub fn get_or_build_signed(
        &self,
        graphs: &[&JointGraph],
        sigs: &[PlanSignature],
        scheme: Scheme,
        traditional_rounds: usize,
    ) -> BatchPlan {
        assert!(!graphs.is_empty(), "empty batch");
        assert_eq!(graphs.len(), sigs.len(), "one signature per graph");
        let keys: Vec<u64> = sigs.iter().map(|s| self.key(s)).collect();
        let mut frags: Vec<Option<Arc<Fragment>>> = {
            let mut inner = self.inner.lock().expect("plan cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            keys.iter()
                .map(|k| {
                    inner.map.get_mut(k).map(|slot| {
                        slot.last_used = tick;
                        Arc::clone(&slot.frag)
                    })
                })
                .collect()
        };
        // Confirm and build outside the lock: concurrent misses for
        // different shapes shouldn't serialize. A racing duplicate build of
        // one shape is benign (last insert wins; both fragments are valid).
        let mut built: Vec<(u64, Arc<Fragment>)> = Vec::new();
        let mut hits = 0;
        for ((g, &key), frag) in graphs.iter().zip(&keys).zip(&mut frags) {
            if frag.as_ref().is_some_and(|f| f.fits(g, scheme, traditional_rounds)) {
                hits += 1;
                continue;
            }
            // A shape new to the cache may repeat within the batch.
            if let Some((_, f)) = built
                .iter()
                .find(|(k, f)| *k == key && f.fits(g, scheme, traditional_rounds))
            {
                *frag = Some(Arc::clone(f));
                hits += 1;
                continue;
            }
            let f = Arc::new(Fragment::build(g, scheme, traditional_rounds));
            built.push((key, Arc::clone(&f)));
            *frag = Some(f);
        }
        if !built.is_empty() {
            let mut inner = self.inner.lock().expect("plan cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            for (key, frag) in &built {
                let frag = Arc::clone(frag);
                inner.map.insert(*key, CacheSlot { frag, last_used: tick });
            }
            // Evict the least-recently-used fragments past capacity, all in
            // one scan of the map.
            let excess = inner.map.len().saturating_sub(self.capacity);
            if excess > 0 {
                let mut by_age: Vec<(u64, u64)> = inner.map.iter().map(|(&key, slot)| (slot.last_used, key)).collect();
                by_age.select_nth_unstable(excess - 1);
                for (_, key) in &by_age[..excess] {
                    inner.map.remove(key);
                }
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(built.len() as u64, Ordering::Relaxed);

        let frags: Vec<&Fragment> = frags
            .iter()
            .map(|f| f.as_deref().expect("every graph has a fragment"))
            .collect();
        let topo = match frags[..] {
            [f] if f.alone => Arc::clone(&f.topo),
            _ => Arc::new(PlanTopology::stitch(&frags, scheme, traditional_rounds)),
        };
        BatchPlan::with_topology(topo, graphs)
    }

    /// Graphs whose fragment was cached (or built earlier in their batch)
    /// so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Graphs whose fragment had to be built so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl Default for PlanCache {
    /// A cache sized for a serving layer: 128 distinct graph shapes.
    fn default() -> Self {
        PlanCache::new(128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Featurization;
    use costream_query::generator::WorkloadGenerator;
    use costream_query::ranges::FeatureRanges;
    use costream_query::selectivity::SelectivityEstimator;

    fn graphs(n: usize, featurization: Featurization) -> Vec<JointGraph> {
        graphs_from(19, n, featurization)
    }

    /// Fragments the cache holds.
    fn cached(cache: &PlanCache) -> usize {
        cache.inner.lock().expect("plan cache lock").map.len()
    }

    fn graphs_from(seed: u64, n: usize, featurization: Featurization) -> Vec<JointGraph> {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let mut e = SelectivityEstimator::realistic(seed + 1);
        (0..n)
            .map(|_| {
                let (q, c, p) = g.workload_item();
                let sels = e.estimate_query(&q);
                JointGraph::build(&q, &c, &p, &sels, featurization)
            })
            .collect()
    }

    #[test]
    fn plan_covers_all_nodes_once() {
        let gs = graphs(4, Featurization::Full);
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let plan = BatchPlan::build(&refs, Scheme::Costream, 0);
        let total: usize = gs.iter().map(|g| g.len()).sum();
        assert_eq!(plan.topo.total, total);
        assert_eq!(plan.len(), 4);
        // Every node appears in exactly one encoder group, and the
        // stacked features match the routing lists row for row.
        let mut seen = vec![false; total];
        for ((type_index, globals), feats) in plan.topo.encoders().zip(&plan.features) {
            assert_eq!(feats.rows(), globals.len());
            assert_eq!(feats.cols(), NodeType::ALL[type_index].feature_width());
            for &g in globals {
                assert!(!seen[g], "node {g} encoded twice");
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every node must be encoded");
        assert_eq!(plan.topo.graph_of.len(), total);
    }

    #[test]
    fn waves_partition_targets_and_keep() {
        let gs = graphs(3, Featurization::Full);
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let plan = BatchPlan::build(&refs, Scheme::Costream, 0);
        assert!(!plan.topo.waves.is_empty());
        for wave in &plan.topo.waves {
            assert_eq!(wave.child_rows().len(), wave.segs().len());
            // Targets ascend strictly within the batch, so every other
            // node is the carried rest the backward pass merge-walks.
            let targets = wave.targets();
            assert!(targets.windows(2).all(|p| p[0] < p[1]), "targets must ascend strictly");
            assert!(targets.iter().all(|&t| t < plan.topo.total));
            // Groups partition the target rows.
            let group_rows: usize = wave.groups().map(|g| g.rows.len()).sum();
            assert_eq!(group_rows, wave.targets().len());
            for g in wave.groups() {
                assert_eq!(g.rows.len(), g.globals.len());
            }
        }
    }

    #[test]
    fn query_only_batches_have_no_host_waves() {
        let gs = graphs(2, Featurization::QueryOnly);
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let plan = BatchPlan::build(&refs, Scheme::Costream, 0);
        // No hosts → only the dataflow waves survive.
        let max_waves = gs.iter().map(|g| g.n_waves()).max().unwrap();
        assert!(plan.topo.waves.len() <= max_waves);
    }

    #[test]
    fn traditional_plan_repeats_rounds() {
        let gs = graphs(2, Featurization::Full);
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let plan = BatchPlan::build(&refs, Scheme::Traditional, 3);
        assert_eq!(plan.topo.waves.len(), 3);
        assert_eq!(plan.topo.waves[0].targets().len(), plan.topo.total);
    }

    #[test]
    fn signature_ignores_feature_values() {
        // Full vs. HardwareNodes: identical structure (same nodes, same
        // edges), different host feature values.
        let mut g = WorkloadGenerator::new(42, FeatureRanges::training());
        let (q, c, p) = g.workload_item();
        let sels = SelectivityEstimator::realistic(43).estimate_query(&q);
        let full = JointGraph::build(&q, &c, &p, &sels, Featurization::Full);
        let masked = JointGraph::build(&q, &c, &p, &sels, Featurization::HardwareNodes);
        assert_ne!(
            full.nodes.iter().map(|n| n.features.clone()).collect::<Vec<_>>(),
            masked.nodes.iter().map(|n| n.features.clone()).collect::<Vec<_>>(),
            "featurizations must differ in values for this test to mean anything"
        );
        assert_eq!(
            plan_signature(&[&full], Scheme::Costream, 0),
            plan_signature(&[&masked], Scheme::Costream, 0)
        );
    }

    #[test]
    fn signature_separates_structure_scheme_and_order() {
        let gs = graphs(3, Featurization::Full);
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let sig = plan_signature(&refs, Scheme::Costream, 0);
        // Different batch composition → different signature.
        assert_ne!(sig, plan_signature(&refs[..2], Scheme::Costream, 0));
        // Different scheme → different signature.
        assert_ne!(sig, plan_signature(&refs, Scheme::Traditional, 3));
        // Different round count → different signature (Traditional only).
        assert_ne!(
            plan_signature(&refs, Scheme::Traditional, 2),
            plan_signature(&refs, Scheme::Traditional, 3)
        );
        // Order matters: plans are positional.
        let swapped: Vec<&JointGraph> = vec![&gs[1], &gs[0], &gs[2]];
        if plan_signature(&refs[..1], Scheme::Costream, 0) != plan_signature(&refs[1..2], Scheme::Costream, 0) {
            assert_ne!(sig, plan_signature(&swapped, Scheme::Costream, 0));
        }
    }

    #[test]
    fn cache_hits_share_topology_and_count() {
        let gs = graphs(2, Featurization::Full);
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let cache = PlanCache::new(4);
        // Hits and misses count per graph: a batch of two new shapes is two
        // misses, and the same batch again two hits.
        let a = cache.get_or_build(&refs, Scheme::Costream, 0);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        let b = cache.get_or_build(&refs, Scheme::Costream, 0);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert_eq!(a.topo, b.topo);
        assert_eq!(cached(&cache), 2);
        // A one-graph batch runs its fragment's topology itself.
        let c = cache.get_or_build(&refs[..1], Scheme::Costream, 0);
        let d = cache.get_or_build(&refs[..1], Scheme::Costream, 0);
        assert!(
            Arc::ptr_eq(&c.topo, &d.topo),
            "a one-graph hit must share the cached topology"
        );
    }

    #[test]
    fn cache_evicts_least_recently_used_at_capacity() {
        let gs = graphs(3, Featurization::Full);
        let a: Vec<&JointGraph> = vec![&gs[0]];
        let b: Vec<&JointGraph> = vec![&gs[1]];
        let c: Vec<&JointGraph> = vec![&gs[2]];
        // The three singleton batches must be structurally distinct for
        // the eviction order to be observable.
        let sigs: Vec<PlanSignature> = [&a, &b, &c]
            .iter()
            .map(|refs| plan_signature(refs, Scheme::Costream, 0))
            .collect();
        assert!(sigs[0] != sigs[1] && sigs[1] != sigs[2] && sigs[0] != sigs[2]);

        let cache = PlanCache::new(2);
        cache.get_or_build(&a, Scheme::Costream, 0); // miss: {a}
        cache.get_or_build(&b, Scheme::Costream, 0); // miss: {a, b}
        cache.get_or_build(&a, Scheme::Costream, 0); // hit, a freshened
        cache.get_or_build(&c, Scheme::Costream, 0); // miss: evicts b (LRU)
        assert_eq!(cached(&cache), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        cache.get_or_build(&b, Scheme::Costream, 0); // b was evicted: miss (evicts a, now LRU)
        assert_eq!((cache.hits(), cache.misses()), (1, 4));
        cache.get_or_build(&c, Scheme::Costream, 0); // c survived both evictions: hit
        assert_eq!((cache.hits(), cache.misses()), (2, 4));
    }

    #[test]
    fn cached_plan_restacks_fresh_features() {
        // Same structure, different feature values (Full vs. masked
        // hardware): a cache hit must carry the *new* batch's features.
        let mut g = WorkloadGenerator::new(44, FeatureRanges::training());
        let (q, c, p) = g.workload_item();
        let sels = SelectivityEstimator::realistic(45).estimate_query(&q);
        let full = JointGraph::build(&q, &c, &p, &sels, Featurization::Full);
        let masked = JointGraph::build(&q, &c, &p, &sels, Featurization::HardwareNodes);
        let cache = PlanCache::new(2);
        let pf = cache.get_or_build(&[&full], Scheme::Costream, 0);
        let pm = cache.get_or_build(&[&masked], Scheme::Costream, 0);
        assert_eq!(cache.hits(), 1);
        assert!(Arc::ptr_eq(&pf.topo, &pm.topo));
        let direct = BatchPlan::build(&[&masked], Scheme::Costream, 0);
        for (a, b) in pm.features.iter().zip(&direct.features) {
            assert_eq!(a.data(), b.data(), "hit path must restack the new features");
        }
    }

    /// Signatures only route: a fragment serves a graph only when its
    /// structure is the graph's, whatever key the two share.
    #[test]
    fn fragment_hits_are_confirmed_exactly() {
        let gs = graphs(3, Featurization::Full);
        let built = |refs: &[&JointGraph]| PlanTopology::build(refs, Scheme::Costream, 0);

        // Every shape keyed alike: one slot, and each lookup compares.
        let cache = PlanCache::with_signature_mask(8, 0);
        let batch = [&gs[0], &gs[1], &gs[0], &gs[2]];
        let plan = cache.get_or_build(&batch, Scheme::Costream, 0);
        assert_eq!(*plan.topo, built(&batch));
        // The repeat of gs[0] finds the fragment built earlier in its batch.
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        assert_eq!(cached(&cache), 1);
        let plan = cache.get_or_build(&[&gs[1]], Scheme::Costream, 0);
        assert_eq!(*plan.topo, built(&[&gs[1]]));
        assert_eq!(
            (cache.hits(), cache.misses()),
            (1, 4),
            "the slot holds gs[2], not gs[1]"
        );

        // The signature does not hash the waves; the exact check does.
        let mut deeper = gs[0].clone();
        for w in deeper.waves.iter_mut().flatten().filter(|w| **w > 0) {
            *w += 1;
        }
        let sig = |g: &JointGraph| plan_signature(&[g], Scheme::Costream, 0);
        assert_eq!(sig(&gs[0]), sig(&deeper));
        let cache = PlanCache::new(8);
        cache.get_or_build(&[&gs[0]], Scheme::Costream, 0);
        let plan = cache.get_or_build(&[&deeper], Scheme::Costream, 0);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(*plan.topo, built(&[&deeper]));
        // A fragment serves only the scheme and round count it was built for.
        let cache = PlanCache::new(8);
        cache.get_or_build(&[&gs[0]], Scheme::Traditional, 2);
        let plan = cache.get_or_build(&[&gs[0]], Scheme::Traditional, 3);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(*plan.topo, PlanTopology::build(&[&gs[0]], Scheme::Traditional, 3));
    }

    #[test]
    fn malformed_graphs_fail_in_their_own_fragment() {
        let gs = graphs(2, Featurization::Full);
        let mut edge_past_the_end = gs[1].clone();
        edge_past_the_end.placement_edges.push((0, gs[1].len()));
        let mut short_waves = gs[1].clone();
        short_waves.waves.pop();
        let cache = PlanCache::new(8);
        for bad in [edge_past_the_end, short_waves] {
            let batch = [&gs[0], &bad];
            let build = || cache.get_or_build(&batch, Scheme::Costream, 0);
            let plan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
            assert!(plan.is_err(), "a malformed graph must not reach a stitched plan");
        }
        assert_eq!(cached(&cache), 0, "a batch that failed inserts nothing");
    }

    fn plan_of(gs: &[JointGraph], scheme: Scheme) -> BatchPlan {
        let refs: Vec<&JointGraph> = gs.iter().collect();
        BatchPlan::build(&refs, scheme, 2)
    }

    #[test]
    fn signed_zeros_and_nan_payloads_never_merge() {
        let g = graphs(1, Featurization::Full).remove(0);
        // Two copies of one graph whose first feature differs only as `a`
        // vs `b`: every other row of the second copy merges.
        let stats = |a: f32, b: f32| {
            let (mut x, mut y) = (g.clone(), g.clone());
            x.nodes[0].features[0] = a;
            y.nodes[0].features[0] = b;
            plan_of(&[x, y], Scheme::Costream).hash_cons()
        };
        let equal = stats(0.0, 0.0);
        let (quiet_nan, payload_nan) = (f32::from_bits(0x7fc0_0001), f32::from_bits(0x7fc0_0002));
        assert_eq!(stats(quiet_nan, quiet_nan), equal, "equal bits merge, NaN or not");
        for (a, b) in [(0.0, -0.0), (quiet_nan, payload_nan)] {
            let split = stats(a, b);
            assert_eq!(
                split.distinct_encoder_rows,
                equal.distinct_encoder_rows + 1,
                "{a:?} vs {b:?}: rows equal as floats but not in bits must not merge"
            );
            assert!(split.distinct_wave_rows > equal.distinct_wave_rows);
        }
    }

    #[test]
    fn forced_fingerprint_collisions_are_resolved_by_the_exact_check() {
        let gs = graphs(3, Featurization::Full);
        let repeats = [
            gs[0].clone(),
            gs[1].clone(),
            gs[0].clone(),
            gs[2].clone(),
            gs[1].clone(),
        ];
        for scheme in [Scheme::Costream, Scheme::Traditional] {
            for batch in [&gs[..], &repeats[..]] {
                let plan = plan_of(batch, scheme);
                let routed = plan.lower_into(&mut SlotMemo::new(u64::MAX));
                // Every fingerprint 0: each probe walks every recorded key,
                // and only exact equality may merge.
                let collided = plan.lower_into(&mut SlotMemo::new(0));
                assert_eq!(collided, routed, "{scheme:?}, {} graphs", batch.len());
            }
            let stats = plan_of(&repeats, scheme).hash_cons();
            assert!(stats.distinct_wave_rows < stats.wave_rows, "the repeats must merge");
        }
    }

    #[test]
    fn an_all_distinct_batch_gets_one_slot_per_node_and_live_wave_target() {
        // Generated graphs may repeat a row (two sinks, twin hosts), so
        // every node gets a first feature of its own.
        let mut gs = graphs(4, Featurization::Full);
        for (i, node) in gs.iter_mut().flat_map(|g| &mut g.nodes).enumerate() {
            node.features[0] = i as f32;
        }
        for scheme in [Scheme::Costream, Scheme::Traditional] {
            let plan = plan_of(&gs, scheme);
            let stats = plan.hash_cons();
            assert_eq!(stats.distinct_encoder_rows, plan.topo.total, "no row repeats");
            let targets: usize = plan.topo.waves.iter().map(|w| w.targets().len()).sum();
            assert_eq!(stats.wave_rows, targets);
            assert_eq!(stats.distinct_wave_rows, stats.wave_rows, "{scheme:?}");
            assert_eq!(stats.slots(), plan.topo.total + stats.wave_rows, "{scheme:?}");
        }
    }

    /// Which wave targets' new states anything reads, one flag per target
    /// of every wave in order — the reference that no topology computes a
    /// row nothing reads. The readout reads each node's last state, and a
    /// wave reads the current state of its live targets' children; own
    /// halves read `h0`, never a wave's output.
    fn live_targets(topo: &PlanTopology) -> Vec<bool> {
        let mut live = vec![false; topo.waves.iter().map(|w| w.targets().len()).sum()];
        // Whether the state each node holds at this point of the walk is read.
        let mut read = vec![true; topo.total];
        let mut end = live.len();
        for w in topo.waves.iter().rev() {
            let wave_live = &mut live[end - w.targets().len()..end];
            end -= w.targets().len();
            for (l, &t) in wave_live.iter_mut().zip(w.targets()) {
                *l = read[t];
                read[t] = false;
            }
            for (&c, &seg) in w.child_rows().iter().zip(w.segs()) {
                if wave_live[seg] {
                    read[c] = true;
                }
            }
        }
        live
    }

    /// Every target of every topology is read — a batch build, a plan
    /// stitched from cached fragments (at least half of them hits) and each
    /// template's one-host shape, in the Costream scheme under every
    /// featurization and in the Traditional one — so a wave nothing reads
    /// cannot creep back into any of them. A Costream topology of graphs
    /// with hosts is the host phase and one wave per dataflow depth.
    #[test]
    fn every_wave_target_of_every_topology_is_read() {
        let all_read = |topo: &PlanTopology, what: &str| {
            let live = live_targets(topo);
            assert!(
                live.iter().all(|&l| l),
                "{what}: {} unread wave targets",
                live.iter().filter(|&&l| !l).count()
            );
        };
        for (scheme, rounds) in [(Scheme::Costream, 0), (Scheme::Traditional, 2)] {
            for featurization in [
                Featurization::QueryOnly,
                Featurization::HardwareNodes,
                Featurization::Full,
            ] {
                let ctx = format!("{scheme:?} {featurization:?}");
                let mut gen = WorkloadGenerator::new(29, FeatureRanges::training());
                let mut est = SelectivityEstimator::realistic(30);
                let (templates, gs): (Vec<GraphTemplate>, Vec<JointGraph>) = (0..12)
                    .map(|_| {
                        let (q, c, p) = gen.workload_item();
                        let template = GraphTemplate::new(&q, &c, &est.estimate_query(&q), featurization);
                        let graph = template.instantiate(&p);
                        (template, graph)
                    })
                    .unzip();
                let refs: Vec<&JointGraph> = gs.iter().collect();
                let built = BatchPlan::build(&refs, scheme, rounds);
                all_read(&built.topo, &format!("{ctx}: batch build"));
                let cache = PlanCache::new(16);
                cache.get_or_build(&refs[..6], scheme, rounds);
                let stitched = cache.get_or_build(&refs, scheme, rounds);
                assert!(
                    cache.hits() >= 6,
                    "{ctx}: the second batch reuses the first's fragments"
                );
                all_read(&stitched.topo, &format!("{ctx}: stitched"));
                for (i, template) in templates.iter().enumerate() {
                    let shape = PlanTopology::build(&[&template.one_host_shape()], scheme, rounds);
                    all_read(&shape, &format!("{ctx}: template {i}'s shape"));
                }
                if scheme == Scheme::Costream {
                    let depth = gs.iter().map(JointGraph::n_waves).max().unwrap_or(0);
                    let host_phase = usize::from(featurization != Featurization::QueryOnly);
                    assert_eq!(built.topo.waves.len(), host_phase + depth, "{ctx}: waves");
                }
            }
        }
    }

    /// A topology as plain lists: what the oracle below produces, and what
    /// every topology is compared through.
    #[derive(Debug, PartialEq)]
    struct Lists {
        total: usize,
        n_graphs: usize,
        encoders: Vec<(usize, Vec<usize>)>,
        waves: Vec<WaveLists>,
        graph_of: Vec<usize>,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct WaveLists {
        child_rows: Vec<usize>,
        segs: Vec<usize>,
        targets: Vec<usize>,
        /// `(type index, rows, globals, is_identity)` per type group.
        groups: Vec<(usize, Vec<usize>, Vec<usize>, bool)>,
    }

    impl PlanTopology {
        fn lists(&self) -> Lists {
            Lists {
                total: self.total,
                n_graphs: self.n_graphs,
                encoders: self.encoders().map(|(t, g)| (t, g.to_vec())).collect(),
                waves: self
                    .waves
                    .iter()
                    .map(|w| WaveLists {
                        child_rows: w.child_rows().to_vec(),
                        segs: w.segs().to_vec(),
                        targets: w.targets().to_vec(),
                        groups: w
                            .groups()
                            .map(|g| (g.mlp, g.rows.to_vec(), g.globals.to_vec(), g.is_identity))
                            .collect(),
                    })
                    .collect(),
                graph_of: self.graph_of.clone(),
            }
        }
    }

    /// The wave-by-wave topology build the linear pass replaced, kept as
    /// its oracle: every dataflow wave rescans every graph, and every wave
    /// gets a batch-sized position table of its own.
    fn reference_topology(graphs: &[&JointGraph], scheme: Scheme, traditional_rounds: usize) -> Lists {
        let mut offsets = Vec::with_capacity(graphs.len());
        let mut total = 0usize;
        for g in graphs {
            offsets.push(total);
            total += g.len();
        }
        let mut encoders = Vec::new();
        for (ti, t) in NodeType::ALL.iter().enumerate() {
            let mut globals: Vec<usize> = Vec::new();
            for (gi, g) in graphs.iter().enumerate() {
                for (li, node) in g.nodes.iter().enumerate() {
                    if node.node_type == *t {
                        globals.push(offsets[gi] + li);
                    }
                }
            }
            if !globals.is_empty() {
                encoders.push((ti, globals));
            }
        }
        let node_type = |global: usize| -> NodeType {
            let gi = match offsets.binary_search(&global) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            graphs[gi].nodes[global - offsets[gi]].node_type
        };
        let mut waves = Vec::new();
        match scheme {
            Scheme::Costream => {
                let mut host_targets: Vec<usize> = Vec::new();
                let mut ophw_edges: Vec<(usize, usize)> = Vec::new();
                for (gi, g) in graphs.iter().enumerate() {
                    for (li, node) in g.nodes.iter().enumerate() {
                        if node.node_type == NodeType::Host {
                            host_targets.push(offsets[gi] + li);
                        }
                    }
                    for &(op, hn) in &g.placement_edges {
                        ophw_edges.push((offsets[gi] + op, offsets[gi] + hn));
                    }
                }
                if !host_targets.is_empty() {
                    waves.push(reference_wave(host_targets, &ophw_edges, total, &node_type));
                }
                let n_waves = graphs.iter().map(|g| g.n_waves()).max().unwrap_or(0);
                for w in 0..n_waves {
                    let mut targets: Vec<usize> = Vec::new();
                    let mut edges: Vec<(usize, usize)> = Vec::new();
                    for (gi, g) in graphs.iter().enumerate() {
                        for (li, wave) in g.waves.iter().enumerate() {
                            if *wave == Some(w) {
                                targets.push(offsets[gi] + li);
                            }
                        }
                        for &(a, b) in &g.dataflow_edges {
                            if g.waves[b] == Some(w) {
                                edges.push((offsets[gi] + a, offsets[gi] + b));
                            }
                        }
                    }
                    if !targets.is_empty() {
                        waves.push(reference_wave(targets, &edges, total, &node_type));
                    }
                }
            }
            Scheme::Traditional => {
                let mut edges: Vec<(usize, usize)> = Vec::new();
                let mut targets: Vec<usize> = Vec::new();
                for (gi, g) in graphs.iter().enumerate() {
                    for li in 0..g.len() {
                        targets.push(offsets[gi] + li);
                    }
                    for &(a, b) in g.dataflow_edges.iter().chain(&g.placement_edges) {
                        edges.push((offsets[gi] + a, offsets[gi] + b));
                        edges.push((offsets[gi] + b, offsets[gi] + a));
                    }
                }
                let round = reference_wave(targets, &edges, total, &node_type);
                waves.extend(std::iter::repeat_n(round, traditional_rounds));
            }
        }
        let mut graph_of: Vec<usize> = Vec::with_capacity(total);
        for (gi, g) in graphs.iter().enumerate() {
            graph_of.extend(std::iter::repeat_n(gi, g.len()));
        }
        Lists {
            total,
            n_graphs: graphs.len(),
            encoders,
            waves,
            graph_of,
        }
    }

    fn reference_wave(
        targets: Vec<usize>,
        edges: &[(usize, usize)],
        total: usize,
        node_type: &impl Fn(usize) -> NodeType,
    ) -> WaveLists {
        let mut pos_of = vec![usize::MAX; total];
        for (p, &g) in targets.iter().enumerate() {
            pos_of[g] = p;
        }
        let mut child_rows: Vec<usize> = Vec::new();
        let mut segs: Vec<usize> = Vec::new();
        for &(child, target) in edges {
            let p = pos_of[target];
            if p != usize::MAX {
                child_rows.push(child);
                segs.push(p);
            }
        }
        let row_types: Vec<NodeType> = targets.iter().map(|&g| node_type(g)).collect();
        let mut groups = Vec::new();
        for (ti, t) in NodeType::ALL.iter().enumerate() {
            let rows: Vec<usize> = (0..targets.len()).filter(|&r| row_types[r] == *t).collect();
            if rows.is_empty() {
                continue;
            }
            let globals: Vec<usize> = rows.iter().map(|&r| targets[r]).collect();
            let is_identity = rows.len() == targets.len();
            groups.push((ti, rows, globals, is_identity));
        }
        WaveLists {
            child_rows,
            segs,
            targets,
            groups,
        }
    }

    use proptest::prelude::*;

    /// `got == want`, list by list, naming the first list that differs.
    fn same_lists(got: &Lists, want: &Lists) -> Result<(), TestCaseError> {
        prop_assert_eq!(&got.encoders, &want.encoders);
        prop_assert_eq!(got.waves.len(), want.waves.len());
        for (w, (a, b)) in got.waves.iter().zip(&want.waves).enumerate() {
            prop_assert_eq!(&a.child_rows, &b.child_rows, "wave {} child_rows", w);
            prop_assert_eq!(&a.segs, &b.segs, "wave {} segs", w);
            prop_assert_eq!(&a.targets, &b.targets, "wave {} targets", w);
            prop_assert_eq!(&a.groups, &b.groups, "wave {} groups", w);
        }
        prop_assert_eq!(&got.graph_of, &want.graph_of);
        prop_assert!(got == want, "some other field differs");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The linear-pass topology is field for field the wave-by-wave
        /// rescan's: encoders, every wave's edge segments, targets, type
        /// groups and keep-list, and the readout segments — for both
        /// schemes, all three featurizations (`QueryOnly` batches have no
        /// host node, so no host-phase wave) and 1–70 graphs.
        #[test]
        fn linear_topology_build_equals_the_wave_by_wave_rescan(
            seed in 0u64..1_000_000,
            n in 1usize..71,
            scheme in 0usize..2,
            featurization in 0usize..3,
            rounds in 1usize..4,
        ) {
            let scheme = [Scheme::Costream, Scheme::Traditional][scheme];
            let featurization = [Featurization::QueryOnly, Featurization::HardwareNodes, Featurization::Full][featurization];
            let gs = graphs_from(seed, n, featurization);
            let refs: Vec<&JointGraph> = gs.iter().collect();
            let built = PlanTopology::build(&refs, scheme, rounds);
            same_lists(&built.lists(), &reference_topology(&refs, scheme, rounds))?;
            prop_assert_eq!((built.scheme, built.traditional_rounds), (scheme, rounds));
            if featurization == Featurization::QueryOnly && scheme == Scheme::Costream {
                let max_waves = gs.iter().map(|g| g.n_waves()).max().unwrap_or(0);
                prop_assert!(built.waves.len() <= max_waves, "no host, no host-phase wave");
            }
        }

        /// A topology stitched from cached fragments is field for field the
        /// batch build's, and so are the stacked features — for 1–70 graphs
        /// drawn in any order from a pool of up to 8 shapes (so batches mix
        /// repeats and distinct shapes of different depths), both schemes
        /// (Traditional at 2 and 3 rounds) and all three featurizations,
        /// also mixed in one batch (host-free `QueryOnly` graphs next to
        /// graphs with hosts). Some pool graphs get an empty dataflow wave,
        /// and a quarter of the runs key every shape alike. The cache holds
        /// 4 fragments, so it also evicts between and within batches. Every
        /// pool graph is also planned alone.
        #[test]
        fn stitched_topology_equals_the_batch_build(
            seed in 0u64..1_000_000,
            picks in proptest::collection::vec(0usize..8, 1..71),
            distinct in 1usize..9,
            scheme in 0usize..3,
            featurization in 0usize..4,
            gaps in 0usize..2,
            collide in 0usize..4,
        ) {
            let (scheme, rounds) = [(Scheme::Costream, 0), (Scheme::Traditional, 2), (Scheme::Traditional, 3)][scheme];
            let featurizations = [Featurization::QueryOnly, Featurization::HardwareNodes, Featurization::Full];
            let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
            let mut e = SelectivityEstimator::realistic(seed + 1);
            let pool: Vec<JointGraph> = (0..distinct)
                .map(|i| {
                    let (q, c, p) = g.workload_item();
                    let sels = e.estimate_query(&q);
                    let f = featurizations[if featurization == 3 { i % 3 } else { featurization }];
                    let mut graph = JointGraph::build(&q, &c, &p, &sels, f);
                    if gaps == 1 && i % 2 == 1 {
                        for w in graph.waves.iter_mut().flatten().filter(|w| **w > 0) {
                            *w += 1;
                        }
                    }
                    graph
                })
                .collect();
            let batch: Vec<&JointGraph> = picks.iter().map(|&i| &pool[i % distinct]).collect();
            let reversed: Vec<&JointGraph> = batch.iter().rev().copied().collect();
            let cache = PlanCache::with_signature_mask(4, if collide == 0 { 0 } else { u64::MAX });
            let want = BatchPlan::build(&batch, scheme, rounds);
            for warm in [&batch[..0], &reversed[..]] {
                if !warm.is_empty() {
                    cache.get_or_build(warm, scheme, rounds);
                }
                let plan = cache.get_or_build(&batch, scheme, rounds);
                for (a, b) in plan.features.iter().zip(&want.features) {
                    prop_assert!(same_bits(a.data(), b.data()), "stacked features differ");
                }
                same_lists(&plan.topo.lists(), &want.topo.lists())?;
                prop_assert!(*plan.topo == *want.topo, "{:?} x{}: some other field differs", scheme, rounds);
            }
            // Each shape alone, where a fragment may run as it is.
            for g in &pool {
                let plan = cache.get_or_build(&[g], scheme, rounds);
                same_lists(&plan.topo.lists(), &PlanTopology::build(&[g], scheme, rounds).lists())?;
            }
        }
    }
}
