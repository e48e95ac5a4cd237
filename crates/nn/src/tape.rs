//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Tape`] records a DAG of tensor operations during the forward pass and
//! replays it in reverse to accumulate gradients. Model parameters live in a
//! [`ParamStore`] outside the tape; a forward pass pins them onto the tape as
//! **borrowed** leaf nodes — pinning copies nothing, the tape just holds
//! `&Tensor` views into the store for its lifetime, so one set of parameters
//! can be reused across many tapes (one tape per minibatch) without a single
//! parameter clone.
//!
//! Gradients are kept apart from the parameters in a [`Gradients`] buffer
//! set, preallocated once per training run and zeroed in place between
//! minibatches. The split is what makes the borrow story work: the tape
//! holds shared references into the `ParamStore` while `backward`
//! accumulates into the independent `Gradients`, and the optimizer then
//! updates the store after the tape is dropped.
//!
//! The operation set is deliberately small — exactly what the Costream GNN
//! needs: dense affine maps (fused matmul+bias+ReLU via [`Tape::affine`]),
//! ReLU/sigmoid non-linearities, column concatenation, row gathering and
//! segmented row sums (the "sum over children / sum over graph" primitives
//! of Algorithm 1 in the paper) — plus two fused nodes that record a whole
//! step of the GNN at once: [`Tape::encode_scatter`] (every per-type
//! encoder into the initial state) and [`Tape::wave_update`] (one
//! message-passing wave). The fused nodes run the very routines inference
//! runs ([`crate::wave`]) and keep only the activations their hand-written
//! backward replays; the small ops remain as the oracle they are tested
//! against, bit for bit.

use crate::inference::InferenceArena;
use crate::layers::Mlp;
use crate::tensor::Tensor;
use crate::wave::{self, EncodeSpec, WaveSpec};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

/// Identifier of a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

/// Storage for trainable parameters.
///
/// Gradients live separately in [`Gradients`] so a live tape (which borrows
/// parameter values) never aliases the buffers `backward` writes into.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter tensor under a diagnostic name.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.params.len());
        self.params.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn scalar_count(&self) -> usize {
        self.params.iter().map(Tensor::len).sum()
    }

    /// Immutable access to a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Mutable access to a parameter value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// Name a parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }
}

/// Per-parameter gradient buffers, shape-matched to a [`ParamStore`].
///
/// Allocate once per training run with [`Gradients::for_store`], zero in
/// place with [`Gradients::zero`] before each backward pass, and hand to
/// the optimizer together with the store. Keeping these out of the
/// `ParamStore` lets `Tape::backward` accumulate into them while the tape
/// still borrows the parameter values.
#[derive(Clone, Debug, Default)]
pub struct Gradients {
    bufs: Vec<Tensor>,
}

impl Gradients {
    /// Creates zeroed gradient buffers matching every parameter in `store`.
    pub fn for_store(store: &ParamStore) -> Self {
        Gradients {
            bufs: store.params.iter().map(|p| Tensor::zeros(p.rows(), p.cols())).collect(),
        }
    }

    /// Number of gradient buffers.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// True when no buffers are held.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// The accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.bufs[id.0]
    }

    /// Zeroes every buffer in place (no reallocation).
    pub fn zero(&mut self) {
        for g in &mut self.bufs {
            g.fill_zero();
        }
    }

    /// Adds `delta` into the gradient of `id`.
    pub fn accumulate(&mut self, id: ParamId, delta: &Tensor) {
        self.bufs[id.0].add_assign(delta);
    }

    /// Global gradient norm (L2 over all scalars), used for clipping.
    pub fn norm(&self) -> f32 {
        self.bufs.iter().map(Tensor::sq_norm).sum::<f32>().sqrt()
    }

    /// Scales all gradients in place (used for gradient clipping).
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.bufs {
            g.scale_assign(s);
        }
    }
}

/// Index lists in ops are [`Cow`]s: long-lived callers (whose batch plan
/// outlives the tape) pass borrowed slices and pay nothing per minibatch;
/// ad-hoc callers pass owned `Vec`s.
enum Op<'p> {
    /// Constant input or pinned parameter.
    Leaf(Option<ParamId>),
    /// `a @ b`.
    MatMul(usize, usize),
    /// Fused `x @ w + bias` (+ ReLU): one node instead of three, one fused
    /// backward pass computing the ReLU mask, bias reduction and both
    /// matmul gradients without intermediate tensors.
    Affine {
        x: usize,
        w: usize,
        bias: usize,
        relu: bool,
    },
    /// `x + b` where `b` is a `1 x cols` bias broadcast over rows.
    AddBias(usize, usize),
    /// Element-wise `a + b`.
    Add(usize, usize),
    /// Element-wise max(x, 0).
    Relu(usize),
    /// Element-wise logistic sigmoid.
    Sigmoid(usize),
    /// `[a | b]` along columns.
    ConcatCols(usize, usize),
    /// Rows of `x` selected by index (with repetition allowed).
    GatherRows(usize, Cow<'p, [usize]>),
    /// Row `r` of the output is the sum of input rows `i` with
    /// `segments[i] == r`.
    SegmentSum { input: usize, segments: Cow<'p, [usize]> },
    /// Fused gather + segmented sum over edges:
    /// `out[segs[e]] += input[rows[e]]`.
    GatherSegmentSum {
        input: usize,
        rows: Cow<'p, [usize]>,
        segs: Cow<'p, [usize]>,
    },
    /// `x * s`.
    Scale(usize, f32),
    /// Fused per-type encoders scattered into the initial GNN state
    /// ([`wave::encode_scatter`]); `saved` indexes the retained hidden
    /// activations.
    EncodeScatter {
        spec: &'p dyn EncodeSpec,
        encoders: &'p [Mlp],
        store: &'p ParamStore,
        saved: Range<usize>,
    },
    /// One fused message-passing wave ([`wave::wave_update`]) from state
    /// `cur` and initial state `h0`; `saved` indexes what it retained.
    WaveUpdate {
        cur: usize,
        h0: usize,
        wave: &'p dyn WaveSpec,
        updaters: &'p [Mlp],
        store: &'p ParamStore,
        saved: Range<usize>,
    },
}

/// A node's value: owned by the tape for computed ops, borrowed for the
/// zero-clone leaf cases (pinned parameters and [`Tape::input_ref`]
/// inputs).
enum Value<'p> {
    Owned(Tensor),
    Param(&'p Tensor),
}

struct Node<'p> {
    value: Value<'p>,
    op: Op<'p>,
}

fn val<'a>(nodes: &'a [Node<'_>], idx: usize) -> &'a Tensor {
    match &nodes[idx].value {
        Value::Owned(t) => t,
        Value::Param(t) => t,
    }
}

/// A single-use computation tape.
///
/// The lifetime `'p` ties the tape to the [`ParamStore`] whose parameters
/// it has pinned; [`Tape::backward`] writes into a separate [`Gradients`],
/// so the store only needs to stay immutably borrowed while the tape is
/// alive.
///
/// Every value the tape computes is drawn from the [`InferenceArena`] it
/// owns. [`Tape::new`] starts from an empty arena; a training loop builds
/// each minibatch's tape with [`Tape::with_arena`] on the arena the last
/// one returned from [`Tape::into_arena`], and after the first minibatch
/// no forward value, retained activation or backward scratch tensor is
/// allocated again.
#[derive(Default)]
pub struct Tape<'p> {
    nodes: Vec<Node<'p>>,
    /// Activations retained by the fused nodes, indexed by their ops.
    saved: Vec<Tensor>,
    arena: InferenceArena,
}

impl<'p> Tape<'p> {
    /// Creates an empty tape on an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape that draws its buffers from `arena`.
    pub fn with_arena(mut arena: InferenceArena) -> Self {
        Tape {
            nodes: Vec::new(),
            saved: std::mem::take(&mut arena.lists.saved),
            arena,
        }
    }

    /// Ends the tape, returning its arena with every buffer the tape held
    /// recycled into it.
    pub fn into_arena(self) -> InferenceArena {
        let Tape {
            nodes,
            mut saved,
            mut arena,
        } = self;
        for node in nodes.into_iter().rev() {
            if let Value::Owned(t) = node.value {
                arena.recycle(t);
            }
        }
        for t in saved.drain(..).rev() {
            arena.recycle(t);
        }
        arena.lists.saved = saved;
        arena
    }

    /// The tape's arena, for drawing a buffer that will be handed back to
    /// the tape (the loss gradient seed given to [`Tape::backward`]).
    pub fn arena(&mut self) -> &mut InferenceArena {
        &mut self.arena
    }

    fn push(&mut self, value: Tensor, op: Op<'p>) -> NodeId {
        self.nodes.push(Node {
            value: Value::Owned(value),
            op,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a non-trainable input.
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Leaf(None))
    }

    /// Records a non-trainable input by reference (zero-copy): the tape
    /// borrows `value` for its lifetime instead of cloning it. Use for
    /// long-lived inputs such as the feature matrices cached in a batch
    /// plan.
    pub fn input_ref(&mut self, value: &'p Tensor) -> NodeId {
        self.nodes.push(Node {
            value: Value::Param(value),
            op: Op::Leaf(None),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Pins a parameter from `store` onto the tape; gradients flowing into
    /// this node are accumulated into the matching [`Gradients`] buffer on
    /// [`Tape::backward`]. The value is **borrowed**, not cloned — pinning
    /// a parameter is free regardless of its size.
    pub fn param(&mut self, store: &'p ParamStore, id: ParamId) -> NodeId {
        self.nodes.push(Node {
            value: Value::Param(store.value(id)),
            op: Op::Leaf(Some(id)),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        val(&self.nodes, id.0)
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (val(&self.nodes, a.0), val(&self.nodes, b.0));
        let mut out = self.arena.alloc_zeroed(av.rows(), bv.cols());
        av.matmul_acc(bv, &mut out);
        self.push(out, Op::MatMul(a.0, b.0))
    }

    /// Fused affine map `x @ w + bias`, optionally with ReLU — the same
    /// kernel the inference path runs ([`Tensor::affine_into`]), recorded
    /// as a single node. Both the forward value and the backward pass are
    /// bitwise identical to the unfused `matmul` → `add_bias` → `relu`
    /// chain, with three fewer nodes and no intermediate tensors.
    pub fn affine(&mut self, x: NodeId, w: NodeId, bias: NodeId, relu: bool) -> NodeId {
        let (xv, wv, bv) = (val(&self.nodes, x.0), val(&self.nodes, w.0), val(&self.nodes, bias.0));
        // `affine_into` zero-fills its output itself.
        let mut out = self.arena.alloc_scratch(xv.rows(), wv.cols());
        Tensor::affine_into(xv, wv, bv, relu, &mut out);
        self.push(
            out,
            Op::Affine {
                x: x.0,
                w: w.0,
                bias: bias.0,
                relu,
            },
        )
    }

    /// `x + bias`, with `bias` a `1 x cols` row broadcast over rows of `x`.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let (xv, bv) = (val(&self.nodes, x.0), val(&self.nodes, bias.0));
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(bv.cols(), xv.cols(), "bias width mismatch");
        let mut out = self.arena.alloc_copy(xv);
        for r in 0..out.rows() {
            let row = out.row_slice_mut(r);
            for (o, b) in row.iter_mut().zip(bv.data()) {
                *o += *b;
            }
        }
        self.push(out, Op::AddBias(x.0, bias.0))
    }

    /// Element-wise `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut out = self.arena.alloc_copy(val(&self.nodes, a.0));
        out.add_assign(val(&self.nodes, b.0));
        self.push(out, Op::Add(a.0, b.0))
    }

    /// Element-wise ReLU.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let mut out = self.arena.alloc_copy(val(&self.nodes, x.0));
        for v in out.data_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        self.push(out, Op::Relu(x.0))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let mut out = self.arena.alloc_copy(val(&self.nodes, x.0));
        for v in out.data_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        self.push(out, Op::Sigmoid(x.0))
    }

    /// Concatenates `a` and `b` along columns.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (val(&self.nodes, a.0), val(&self.nodes, b.0));
        let mut out = self.arena.alloc_scratch(av.rows(), av.cols() + bv.cols());
        av.concat_cols_into(bv, &mut out);
        self.push(out, Op::ConcatCols(a.0, b.0))
    }

    /// Selects rows of `x` by `idx` (repetition allowed). Pass a borrowed
    /// slice (e.g. out of a cached batch plan) to record the op without
    /// copying the index list; a `Vec` works too for ad-hoc callers.
    pub fn gather_rows(&mut self, x: NodeId, idx: impl Into<Cow<'p, [usize]>>) -> NodeId {
        let idx = idx.into();
        let xv = val(&self.nodes, x.0);
        let mut out = self.arena.alloc_scratch(idx.len(), xv.cols());
        xv.gather_rows_into(&idx, &mut out);
        self.push(out, Op::GatherRows(x.0, idx))
    }

    /// Segmented row sum: output row `s` is the sum of all input rows `i`
    /// with `segments[i] == s`. Rows with no contribution stay zero, which
    /// is exactly the "empty children set" case of the GNN update.
    /// Borrowed segment lists are recorded without copying.
    pub fn segment_sum(&mut self, x: NodeId, segments: impl Into<Cow<'p, [usize]>>, out_rows: usize) -> NodeId {
        let segments = segments.into();
        let xv = val(&self.nodes, x.0);
        assert!(segments.iter().all(|&s| s < out_rows), "segment id out of range");
        let mut out = self.arena.alloc_zeroed(out_rows, xv.cols());
        xv.segment_sum_into(&segments, &mut out);
        self.push(out, Op::SegmentSum { input: x.0, segments })
    }

    /// Fused gather + segmented sum: `out[segs[e]] += x[rows[e]]` for
    /// every edge `e` — the "sum the children's hidden states" primitive
    /// as one node. Equivalent to `gather_rows` followed by `segment_sum`
    /// (bitwise: same per-edge accumulation order) without materializing
    /// the `edges x cols` gathered matrix in either direction. Borrowed
    /// index lists are recorded without copying.
    ///
    /// # Panics
    /// Panics when `rows` and `segs` differ in length or a segment id is
    /// out of range.
    pub fn gather_segment_sum(
        &mut self,
        x: NodeId,
        rows: impl Into<Cow<'p, [usize]>>,
        segs: impl Into<Cow<'p, [usize]>>,
        out_rows: usize,
    ) -> NodeId {
        let (rows, segs) = (rows.into(), segs.into());
        let xv = val(&self.nodes, x.0);
        assert_eq!(rows.len(), segs.len(), "one segment per gathered row");
        assert!(segs.iter().all(|&s| s < out_rows), "segment id out of range");
        let mut out = self.arena.alloc_zeroed(out_rows, xv.cols());
        xv.gather_segment_sum_into(&rows, &segs, &mut out);
        self.push(out, Op::GatherSegmentSum { input: x.0, rows, segs })
    }

    /// `x * s`.
    pub fn scale(&mut self, x: NodeId, s: f32) -> NodeId {
        let mut out = self.arena.alloc_copy(val(&self.nodes, x.0));
        out.scale_assign(s);
        self.push(out, Op::Scale(x.0, s))
    }

    /// The initial GNN state as ONE node: every node type's feature rows
    /// through its encoder MLP, scattered into a `total x hidden` matrix
    /// ([`wave::encode_scatter`], the routine inference runs). Stands for
    /// the per-type chain `input_ref` → `Mlp::forward` → `segment_sum` →
    /// `add` onto zeros; forward value and parameter gradients are bitwise
    /// those of that chain. The feature matrices are constants, so the
    /// backward pass forms no gradient for them.
    pub fn encode_scatter(
        &mut self,
        spec: &'p dyn EncodeSpec,
        encoders: &'p [Mlp],
        store: &'p ParamStore,
        total: usize,
        hidden: usize,
    ) -> NodeId {
        let start = self.saved.len();
        let saved = Some(&mut self.saved);
        let h0 = wave::encode_scatter(spec, encoders, store, total, hidden, &mut self.arena, saved);
        let saved = start..self.saved.len();
        self.push(
            h0,
            Op::EncodeScatter {
                spec,
                encoders,
                store,
                saved,
            },
        )
    }

    /// One message-passing wave as ONE node ([`wave::wave_update`], the
    /// routine inference runs): the state after updating the wave's target
    /// rows of `cur` from their children's rows of `cur` and their own
    /// rows of `h0`. Stands for the chain `gather_segment_sum` ‖
    /// `gather_rows` → `concat_cols` → per type group (`gather_rows` →
    /// `Mlp::forward` → `segment_sum` → `add`) → `add` of the carried rows;
    /// forward value (up to the sign of zero) and every gradient are
    /// bitwise those of that chain.
    pub fn wave_update(
        &mut self,
        cur: NodeId,
        h0: NodeId,
        wave: &'p dyn WaveSpec,
        updaters: &'p [Mlp],
        store: &'p ParamStore,
    ) -> NodeId {
        let start = self.saved.len();
        let updated = wave::wave_update(
            wave,
            updaters,
            store,
            val(&self.nodes, cur.0),
            val(&self.nodes, h0.0),
            &mut self.arena,
            Some(&mut self.saved),
        );
        let saved = start..self.saved.len();
        self.push(
            updated,
            Op::WaveUpdate {
                cur: cur.0,
                h0: h0.0,
                wave,
                updaters,
                store,
                saved,
            },
        )
    }

    /// Runs the backward pass seeding `d(loss)/d(out) = seed` and
    /// accumulates parameter gradients into `grads` (zero it first unless
    /// gradient accumulation across batches is intended). Scratch tensors
    /// come from, and `seed` ends up in, the tape's own arena.
    ///
    /// # Panics
    /// Panics if `seed` does not match the shape of `out`'s value, or if
    /// `grads` was built for a different store.
    pub fn backward(&mut self, out: NodeId, seed: Tensor, grads: &mut Gradients) {
        run_backward(&self.nodes, &self.saved, out, seed, grads, &mut self.arena);
    }

    /// [`Tape::backward`] on a caller-provided scratch arena instead of
    /// the tape's own: node-gradient buffers, weight transposes and their
    /// bookkeeping lists are drawn from and recycled into `arena`.
    pub fn backward_with_arena(&self, out: NodeId, seed: Tensor, grads: &mut Gradients, arena: &mut InferenceArena) {
        run_backward(&self.nodes, &self.saved, out, seed, grads, arena);
    }
}

/// Scratch state of one backward pass: the arena every temporary is drawn
/// from, and the weight matrices transposed so far. `dx += dpre @ W^T`
/// needs `W^T` row-major; a weight used by several nodes (an update MLP
/// runs once per wave) is transposed once per pass, not once per use.
pub(crate) struct Scratch<'a> {
    /// Source and sink of every temporary.
    pub arena: &'a mut InferenceArena,
    /// `(address of W, W^T)`. Addresses identify tensors here because
    /// everything a tape pins or owns outlives the pass unmoved.
    transposed: Vec<(usize, Tensor)>,
}

impl<'a> Scratch<'a> {
    fn new(arena: &'a mut InferenceArena) -> Self {
        let transposed = std::mem::take(&mut arena.lists.transposed);
        Scratch { arena, transposed }
    }

    /// `w^T`, transposed on first request.
    pub fn transposed(&mut self, w: &Tensor) -> &Tensor {
        let key = std::ptr::from_ref(w) as usize;
        let at = match self.transposed.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                let mut wt = self.arena.alloc_scratch(w.cols(), w.rows());
                w.transpose_into(&mut wt);
                self.transposed.push((key, wt));
                self.transposed.len() - 1
            }
        };
        &self.transposed[at].1
    }

    fn finish(mut self) {
        for (_, wt) in self.transposed.drain(..) {
            self.arena.recycle(wt);
        }
        self.arena.lists.transposed = self.transposed;
    }
}

fn run_backward(
    nodes: &[Node<'_>],
    saved: &[Tensor],
    out: NodeId,
    seed: Tensor,
    grads: &mut Gradients,
    arena: &mut InferenceArena,
) {
    assert_eq!(seed.shape(), val(nodes, out.0).shape(), "seed shape mismatch");
    let mut slots = std::mem::take(&mut arena.lists.slots);
    slots.resize_with(nodes.len(), || None);
    slots[out.0] = Some(seed);
    let mut ctx = Scratch::new(arena);

    for i in (0..nodes.len()).rev() {
        let g = match slots[i].take() {
            Some(g) => g,
            None => continue,
        };
        match &nodes[i].op {
            Op::Leaf(Some(pid)) => {
                grads.accumulate(*pid, &g);
                ctx.arena.recycle(g);
            }
            Op::Leaf(None) => ctx.arena.recycle(g),
            Op::MatMul(a, b) => {
                // da += g @ b^T, db += a^T @ g — both accumulate
                // straight into the (pooled) gradient slots.
                let (av, bv) = (val(nodes, *a), val(nodes, *b));
                let da = slot_zeroed(&mut slots, *a, g.rows(), bv.rows(), ctx.arena);
                g.matmul_t_acc(bv, da);
                let db = slot_zeroed(&mut slots, *b, av.cols(), g.cols(), ctx.arena);
                av.t_matmul_acc(&g, db);
                ctx.arena.recycle(g);
            }
            Op::Affine { x, w, bias, relu } => {
                // One fused pass: mask g by the ReLU activation mask
                // (the node's own output is the activation), reduce the
                // bias gradient, then both matmul gradients.
                let mut dpre = g;
                if *relu {
                    mask_relu(&mut dpre, val(nodes, i));
                }
                let db = slot_zeroed(&mut slots, *bias, 1, dpre.cols(), ctx.arena);
                add_col_sums(db, &dpre);
                let (xv, wv) = (val(nodes, *x), val(nodes, *w));
                let dw = slot_zeroed(&mut slots, *w, xv.cols(), dpre.cols(), ctx.arena);
                xv.t_matmul_acc(&dpre, dw);
                // A constant input has no use for its gradient.
                if !matches!(nodes[*x].op, Op::Leaf(None)) {
                    let dx = slot_zeroed(&mut slots, *x, dpre.rows(), wv.rows(), ctx.arena);
                    dpre.matmul_acc(ctx.transposed(wv), dx);
                }
                ctx.arena.recycle(dpre);
            }
            Op::AddBias(x, bias) => {
                let db = slot_zeroed(&mut slots, *bias, 1, g.cols(), ctx.arena);
                add_col_sums(db, &g);
                give(&mut slots, *x, g, ctx.arena);
            }
            Op::Add(a, b) => {
                add_to(&mut slots, *a, &g, ctx.arena);
                give(&mut slots, *b, g, ctx.arena);
            }
            Op::Relu(x) => {
                let mut dx = g;
                mask_relu(&mut dx, val(nodes, *x));
                give(&mut slots, *x, dx, ctx.arena);
            }
            Op::Sigmoid(x) => {
                let mut dx = g;
                for (d, y) in dx.data_mut().iter_mut().zip(val(nodes, i).data()) {
                    *d *= y * (1.0 - y);
                }
                give(&mut slots, *x, dx, ctx.arena);
            }
            Op::ConcatCols(a, b) => {
                let ac = val(nodes, *a).cols();
                let bc = val(nodes, *b).cols();
                let da = slot_zeroed(&mut slots, *a, g.rows(), ac, ctx.arena);
                add_rows(da, &g, 0, (0..g.rows()).map(|r| (r, r)));
                let db = slot_zeroed(&mut slots, *b, g.rows(), bc, ctx.arena);
                add_rows(db, &g, ac, (0..g.rows()).map(|r| (r, r)));
                ctx.arena.recycle(g);
            }
            Op::GatherRows(x, idx) => {
                let rows = val(nodes, *x).rows();
                let dx = slot_zeroed(&mut slots, *x, rows, g.cols(), ctx.arena);
                add_rows(dx, &g, 0, idx.iter().copied().zip(0..));
                ctx.arena.recycle(g);
            }
            Op::SegmentSum { input, segments } => {
                let dx = slot_zeroed(&mut slots, *input, segments.len(), g.cols(), ctx.arena);
                add_rows(dx, &g, 0, segments.iter().copied().enumerate());
                ctx.arena.recycle(g);
            }
            Op::GatherSegmentSum { input, rows, segs } => {
                // One pass, no edges x cols intermediate:
                // dx[rows[e]] += g[segs[e]].
                let in_rows = val(nodes, *input).rows();
                let dx = slot_zeroed(&mut slots, *input, in_rows, g.cols(), ctx.arena);
                add_rows(dx, &g, 0, rows.iter().copied().zip(segs.iter().copied()));
                ctx.arena.recycle(g);
            }
            Op::Scale(x, s) => {
                let mut dx = g;
                dx.scale_assign(*s);
                give(&mut slots, *x, dx, ctx.arena);
            }
            Op::EncodeScatter {
                spec,
                encoders,
                store,
                saved: at,
            } => {
                wave::encode_scatter_backward(*spec, encoders, store, &saved[at.clone()], g, grads, &mut ctx);
            }
            Op::WaveUpdate {
                cur,
                h0,
                wave,
                updaters,
                store,
                saved: at,
            } => {
                wave::wave_update_backward(
                    *wave,
                    updaters,
                    store,
                    &saved[at.clone()],
                    g,
                    &mut slots,
                    (*cur, *h0),
                    grads,
                    &mut ctx,
                );
            }
        }
    }

    // Every slot was taken as its node was visited: pinned parameters
    // accumulated into `grads`, everything else recycled along the way.
    ctx.finish();
    slots.clear();
    arena.lists.slots = slots;
}

/// Zeroes `dpre` wherever the ReLU output `y` is not positive.
pub(crate) fn mask_relu(dpre: &mut Tensor, y: &Tensor) {
    for (d, v) in dpre.data_mut().iter_mut().zip(y.data()) {
        if *v <= 0.0 {
            *d = 0.0;
        }
    }
}

/// `db += column sums of dpre`, rows in order.
pub(crate) fn add_col_sums(db: &mut Tensor, dpre: &Tensor) {
    let dst = db.row_slice_mut(0);
    for r in 0..dpre.rows() {
        for (d, v) in dst.iter_mut().zip(dpre.row_slice(r)) {
            *d += *v;
        }
    }
}

/// `dst[d] += src[s][col_off .. col_off + dst.cols]` for every `(d, s)`
/// pair, in order — the backward of every gather, scatter and
/// concatenation here.
pub(crate) fn add_rows(dst: &mut Tensor, src: &Tensor, col_off: usize, pairs: impl Iterator<Item = (usize, usize)>) {
    let width = dst.cols();
    for (d, s) in pairs {
        let from = &src.row_slice(s)[col_off..col_off + width];
        for (dv, sv) in dst.row_slice_mut(d).iter_mut().zip(from) {
            *dv += *sv;
        }
    }
}

/// Ensures `slots[idx]` holds a tensor of the given shape (allocating
/// a zeroed one from the arena if empty) and returns it for in-place
/// accumulation.
pub(crate) fn slot_zeroed<'g>(
    slots: &'g mut [Option<Tensor>],
    idx: usize,
    rows: usize,
    cols: usize,
    arena: &mut InferenceArena,
) -> &'g mut Tensor {
    let t = slots[idx].get_or_insert_with(|| arena.alloc_zeroed(rows, cols));
    debug_assert_eq!(t.shape(), (rows, cols), "gradient shape mismatch");
    t
}

/// Moves `t` into the gradient slot of `idx`, or adds it and recycles the
/// buffer when the slot is already populated (the multi-consumer case).
fn give(slots: &mut [Option<Tensor>], idx: usize, t: Tensor, arena: &mut InferenceArena) {
    match &mut slots[idx] {
        Some(g) => {
            g.add_assign(&t);
            arena.recycle(t);
        }
        slot @ None => *slot = Some(t),
    }
}

/// Adds `src` into the gradient slot of `idx`, allocating a copy from the
/// arena when the slot is empty.
fn add_to(slots: &mut [Option<Tensor>], idx: usize, src: &Tensor, arena: &mut InferenceArena) {
    match &mut slots[idx] {
        Some(g) => g.add_assign(src),
        slot @ None => *slot = Some(arena.alloc_copy(src)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(values: Vec<Tensor>) -> (ParamStore, Vec<ParamId>) {
        let mut s = ParamStore::new();
        let ids = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| s.register(format!("p{i}"), v))
            .collect();
        (s, ids)
    }

    #[test]
    fn matmul_backward_matches_hand_computation() {
        // y = x @ w, loss = sum(y); dL/dw = x^T @ 1, dL/dx = 1 @ w^T
        let (store, ids) = store_with(vec![Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])]);
        let mut grads = Gradients::for_store(&store);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(1, 2, vec![5.0, 6.0]));
        let w = tape.param(&store, ids[0]);
        let y = tape.matmul(x, w);
        tape.backward(y, Tensor::full(1, 2, 1.0), &mut grads);
        assert_eq!(grads.grad(ids[0]).data(), &[5.0, 5.0, 6.0, 6.0]);
    }

    #[test]
    fn param_pinning_does_not_clone() {
        let (store, ids) = store_with(vec![Tensor::from_vec(1, 2, vec![1.0, 2.0])]);
        let mut tape = Tape::new();
        let w = tape.param(&store, ids[0]);
        // The tape node's value is literally the store's buffer.
        assert!(std::ptr::eq(
            tape.value(w).data().as_ptr(),
            store.value(ids[0]).data().as_ptr()
        ));
    }

    #[test]
    fn segment_sum_forward_and_backward() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(3, 2, vec![1.0, 2.0, 10.0, 20.0, 100.0, 200.0]));
        let s = tape.segment_sum(x, vec![0, 1, 0], 2);
        assert_eq!(tape.value(s).data(), &[101.0, 202.0, 10.0, 20.0]);
    }

    #[test]
    fn gather_rows_repeats() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let g = tape.gather_rows(x, vec![1, 1, 0]);
        assert_eq!(tape.value(g).data(), &[3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn empty_segment_stays_zero() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let s = tape.segment_sum(x, vec![2], 3);
        assert_eq!(tape.value(s).data(), &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn fused_affine_matches_unfused_chain_bitwise() {
        let (store, ids) = store_with(vec![
            Tensor::from_vec(3, 4, (0..12).map(|i| 0.1 * i as f32 - 0.5).collect()),
            Tensor::from_vec(1, 4, vec![0.05, -0.02, 0.3, -0.4]),
        ]);
        let x_t = Tensor::from_vec(2, 3, (0..6).map(|i| (i as f32 * 0.7).sin()).collect());

        // Unfused: matmul -> add_bias -> relu.
        let mut grads_a = Gradients::for_store(&store);
        let mut tape_a = Tape::new();
        let xa = tape_a.input(x_t.clone());
        let wa = tape_a.param(&store, ids[0]);
        let ba = tape_a.param(&store, ids[1]);
        let h = tape_a.matmul(xa, wa);
        let h = tape_a.add_bias(h, ba);
        let ya = tape_a.relu(h);
        tape_a.backward(ya, Tensor::full(2, 4, 1.0), &mut grads_a);

        // Fused affine.
        let mut grads_b = Gradients::for_store(&store);
        let mut tape_b = Tape::new();
        let xb = tape_b.input(x_t);
        let wb = tape_b.param(&store, ids[0]);
        let bb = tape_b.param(&store, ids[1]);
        let yb = tape_b.affine(xb, wb, bb, true);
        tape_b.backward(yb, Tensor::full(2, 4, 1.0), &mut grads_b);

        assert_eq!(tape_a.value(ya).data(), tape_b.value(yb).data());
        assert_eq!(grads_a.grad(ids[0]).data(), grads_b.grad(ids[0]).data());
        assert_eq!(grads_a.grad(ids[1]).data(), grads_b.grad(ids[1]).data());
    }

    #[test]
    fn fused_gather_segment_sum_matches_unfused_chain_bitwise() {
        let (store, ids) = store_with(vec![Tensor::from_vec(
            4,
            3,
            (0..12).map(|i| 0.21 * i as f32 - 1.0).collect(),
        )]);
        let rows = vec![0usize, 2, 2, 3, 1];
        let segs = vec![1usize, 0, 1, 1, 2];

        let mut grads_a = Gradients::for_store(&store);
        let mut tape_a = Tape::new();
        let wa = tape_a.param(&store, ids[0]);
        let g = tape_a.gather_rows(wa, rows.clone());
        let ya = tape_a.segment_sum(g, segs.clone(), 3);
        tape_a.backward(ya, Tensor::full(3, 3, 1.0), &mut grads_a);

        let mut grads_b = Gradients::for_store(&store);
        let mut tape_b = Tape::new();
        let wb = tape_b.param(&store, ids[0]);
        let yb = tape_b.gather_segment_sum(wb, rows, segs, 3);
        tape_b.backward(yb, Tensor::full(3, 3, 1.0), &mut grads_b);

        assert_eq!(tape_a.value(ya).data(), tape_b.value(yb).data());
        assert_eq!(grads_a.grad(ids[0]).data(), grads_b.grad(ids[0]).data());
    }

    /// Finite-difference gradient check over a network exercising every op.
    #[test]
    fn gradient_check_all_ops() {
        let seed_vals = vec![
            Tensor::from_vec(3, 4, (0..12).map(|i| 0.1 * i as f32 - 0.5).collect()),
            Tensor::from_vec(1, 4, vec![0.05, -0.02, 0.3, -0.4]),
            Tensor::from_vec(8, 2, (0..16).map(|i| 0.07 * i as f32 - 0.4).collect()),
        ];
        let (mut store, ids) = store_with(seed_vals);

        // Forward: affine(x, w0, b) -> relu/sigmoid branches -> gathers
        // -> concat -> segment_sum -> @ w2 -> scale -> sum
        fn forward<'p>(store: &'p ParamStore, ids: &[ParamId]) -> (Tape<'p>, NodeId) {
            let mut tape = Tape::new();
            let x = tape.input(Tensor::from_vec(
                4,
                3,
                (0..12).map(|i| (i as f32 * 0.13).sin()).collect(),
            ));
            let w0 = tape.param(store, ids[0]);
            let b = tape.param(store, ids[1]);
            let h = tape.matmul(x, w0);
            let h = tape.add_bias(h, b);
            let r = tape.relu(h);
            let s = tape.sigmoid(h);
            let g = tape.gather_rows(r, vec![0, 2, 1, 3, 0]);
            let g2 = tape.gather_rows(s, vec![1, 1, 2, 3, 0]);
            let c = tape.concat_cols(g, g2);
            let seg = tape.segment_sum(c, vec![0, 1, 0, 1, 2], 3);
            let w2 = tape.param(store, ids[2]);
            let out = tape.matmul(seg, w2);
            let out = tape.scale(out, 0.5);
            (tape, out)
        }

        let loss_of = |store: &ParamStore| -> f32 {
            let (tape, out) = forward(store, &ids);
            tape.value(out).sum()
        };

        let mut grads = Gradients::for_store(&store);
        {
            let (mut tape, out) = forward(&store, &ids);
            let shape = tape.value(out).shape();
            tape.backward(out, Tensor::full(shape.0, shape.1, 1.0), &mut grads);
        }

        let eps = 1e-3;
        for pid in store.ids().collect::<Vec<_>>() {
            for k in 0..store.value(pid).len() {
                let orig = store.value(pid).data()[k];
                store.value_mut(pid).data_mut()[k] = orig + eps;
                let lp = loss_of(&store);
                store.value_mut(pid).data_mut()[k] = orig - eps;
                let lm = loss_of(&store);
                store.value_mut(pid).data_mut()[k] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads.grad(pid).data()[k];
                assert!(
                    (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs().max(analytic.abs())),
                    "param {} elem {}: numeric {} vs analytic {}",
                    store.name(pid),
                    k,
                    numeric,
                    analytic
                );
            }
        }
    }

    #[test]
    fn grads_accumulate_across_backwards() {
        let (store, ids) = store_with(vec![Tensor::from_vec(1, 1, vec![2.0])]);
        let mut grads = Gradients::for_store(&store);
        for _ in 0..3 {
            let mut tape = Tape::new();
            let x = tape.input(Tensor::from_vec(1, 1, vec![1.0]));
            let w = tape.param(&store, ids[0]);
            let y = tape.matmul(x, w);
            tape.backward(y, Tensor::full(1, 1, 1.0), &mut grads);
        }
        assert_eq!(grads.grad(ids[0]).data(), &[3.0]);
        grads.zero();
        assert_eq!(grads.grad(ids[0]).data(), &[0.0]);
    }

    #[test]
    fn grad_clipping_scales() {
        let (store, ids) = store_with(vec![Tensor::from_vec(1, 2, vec![1.0, 1.0])]);
        let mut grads = Gradients::for_store(&store);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(1, 1, vec![3.0]));
        let w = tape.param(&store, ids[0]);
        let g = tape.gather_rows(w, vec![0]);
        let y = tape.matmul(x, g);
        tape.backward(y, Tensor::full(1, 2, 1.0), &mut grads);
        let n = grads.norm();
        assert!((n - (9.0f32 + 9.0).sqrt()).abs() < 1e-5);
        grads.scale(0.5);
        assert!((grads.norm() - n * 0.5).abs() < 1e-5);
    }

    #[test]
    fn backward_arena_reuse_is_stable() {
        // Two identical backward passes through one arena must agree
        // exactly (recycled buffers are re-zeroed on alloc).
        let (store, ids) = store_with(vec![Tensor::from_vec(2, 2, vec![0.3, -0.2, 0.5, 0.9])]);
        let mut arena = InferenceArena::new();
        let run = |arena: &mut InferenceArena| {
            let mut grads = Gradients::for_store(&store);
            let mut tape = Tape::new();
            let x = tape.input(Tensor::from_vec(3, 2, vec![1.0, 2.0, -1.0, 0.5, 0.25, -2.0]));
            let w = tape.param(&store, ids[0]);
            let h = tape.matmul(x, w);
            let r = tape.relu(h);
            let s = tape.segment_sum(r, vec![0, 1, 0], 2);
            tape.backward_with_arena(s, Tensor::full(2, 2, 1.0), &mut grads, arena);
            grads.grad(ids[0]).data().to_vec()
        };
        let first = run(&mut arena);
        let pooled_after_first = arena.pooled();
        let second = run(&mut arena);
        assert_eq!(first, second);
        assert!(pooled_after_first > 0, "arena should have recycled buffers");
    }
}
