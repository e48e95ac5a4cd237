//! The per-op test oracle: reverse-mode differentiation on a flat tape.
//!
//! Both production passes are held to one reference, written down here
//! once: [`Tape::gnn`] records Algorithm 1's GNN op by op — encoders,
//! `gather_segment_sum` ‖ `gather_rows` → `concat_cols` → per type group
//! `gather_rows` → MLP → `segment_sum` → `add`, the carried rows, the pool
//! and the readout. The training pass ([`crate::wave::TrainingPass`]) must
//! give its outputs and every gradient bit for bit
//! (`tests/wave_parity.rs`), and costream-core's sequential oracle runs it
//! over real batch plans, every wave included, to hold the fused inference
//! pass to its outputs. A [`Tape`] records a chain of small ops during a
//! forward pass and replays it in reverse to accumulate gradients.
//!
//! The op set is exactly what that chain and the finite-difference check
//! record: leaves (constant inputs and **borrowed** parameters from a
//! [`ParamStore`]), the affine map `x @ w + bias` (+ ReLU) on the kernel
//! every pass runs ([`Tensor::affine_into`]), element-wise `add`, column
//! concatenation, row gathering and the segmented row sums; each of the
//! last four, forward and backward, is [`Tensor::copy_rows`] or
//! [`Tensor::add_rows`] over its index lists, the routines both passes
//! run. Gradients go to a [`Gradients`] buffer set.
//!
//! `#[doc(hidden)]` test support: CI's oracle ratchet fails if a code line
//! under `crates/*/src`, `src` or `examples` outside this file and
//! costream-core's `oracle.rs` names the tape.

use crate::layers::Mlp;
use crate::params::{Gradients, ParamId, ParamStore};
use crate::tensor::{Tensor, Window};
use crate::wave::{mask_relu, BatchSpec, Gnn, WaveSpec};
use std::borrow::Cow;

/// Identifier of a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

/// Index lists in ops are [`Cow`]s: a caller whose lists outlive the tape
/// passes borrowed slices, an ad-hoc caller owned `Vec`s.
enum Op<'p> {
    /// Constant input or pinned parameter.
    Leaf(Option<ParamId>),
    /// Fused `x @ w + bias` (+ ReLU).
    Affine {
        x: usize,
        w: usize,
        bias: usize,
        relu: bool,
    },
    /// Element-wise `a + b`.
    Add(usize, usize),
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
/// it has pinned and to the inputs it borrows; [`Tape::backward`] writes
/// into a separate [`Gradients`].
#[derive(Default)]
pub struct Tape<'p> {
    nodes: Vec<Node<'p>>,
}

impl<'p> Tape<'p> {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, value: Value<'p>, op: Op<'p>) -> NodeId {
        self.nodes.push(Node { value, op });
        NodeId(self.nodes.len() - 1)
    }

    fn push_owned(&mut self, value: Tensor, op: Op<'p>) -> NodeId {
        self.push(Value::Owned(value), op)
    }

    /// Records a non-trainable input.
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push_owned(value, Op::Leaf(None))
    }

    /// Records a non-trainable input by reference: the tape borrows
    /// `value` for its lifetime instead of cloning it.
    pub fn input_ref(&mut self, value: &'p Tensor) -> NodeId {
        self.push(Value::Param(value), Op::Leaf(None))
    }

    /// Pins a parameter from `store` onto the tape; gradients flowing into
    /// this node are accumulated into the matching [`Gradients`] buffer on
    /// [`Tape::backward`]. The value is **borrowed**, not cloned.
    pub fn param(&mut self, store: &'p ParamStore, id: ParamId) -> NodeId {
        self.push(Value::Param(store.value(id)), Op::Leaf(Some(id)))
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        val(&self.nodes, id.0)
    }

    /// Fused affine map `x @ w + bias`, optionally with ReLU, on the kernel
    /// every pass runs ([`Tensor::affine_into`]).
    pub fn affine(&mut self, x: NodeId, w: NodeId, bias: NodeId, relu: bool) -> NodeId {
        let (xv, wv, bv) = (val(&self.nodes, x.0), val(&self.nodes, w.0), val(&self.nodes, bias.0));
        let mut out = Tensor::zeros(xv.rows(), wv.cols());
        Tensor::affine_into(xv, wv, bv, relu, &mut out);
        let (x, w, bias) = (x.0, w.0, bias.0);
        self.push_owned(out, Op::Affine { x, w, bias, relu })
    }

    /// Records `mlp`'s forward pass on `x`: one affine node per layer, with
    /// ReLU on every layer but the last — the per-op form of
    /// `Mlp::forward_arena`.
    pub fn mlp(&mut self, mlp: &Mlp, store: &'p ParamStore, x: NodeId) -> NodeId {
        let last = mlp.layers().len() - 1;
        mlp.layers().iter().enumerate().fold(x, |h, (i, layer)| {
            let w = self.param(store, layer.weight_id());
            let b = self.param(store, layer.bias_id());
            self.affine(h, w, b, i != last)
        })
    }

    /// Records the GNN over `batch` op by op, on the inputs of
    /// [`TrainingPass::forward`](crate::wave::TrainingPass::forward), and
    /// returns its `[n_graphs x 1]` output node. A wave's carried rows are
    /// found by a mask over its targets, which need not be ascending. Every
    /// kernel input is a copied `h0` row, a zero-seeded sum or an MLP
    /// output, so the `+0.0`-seeded `add`s carry no zero's sign into a
    /// kernel: the chain's bits are the passes' bits.
    pub fn gnn(
        &mut self,
        gnn: Gnn<'p>,
        batch: &'p dyn BatchSpec,
        waves: impl IntoIterator<Item = &'p dyn WaveSpec>,
    ) -> NodeId {
        let (store, total, hidden) = (gnn.store, batch.graph_of().len(), gnn.readout.in_dim());
        let mut h0 = self.input(Tensor::zeros(total, hidden));
        for i in 0..batch.parts() {
            let part = batch.part(i);
            let x = self.input_ref(part.features);
            let encoded = self.mlp(&gnn.encoders[part.mlp], store, x);
            let scattered = self.segment_sum(encoded, part.globals, total);
            h0 = self.add(h0, scattered);
        }
        let (mut cur, mut is_target) = (h0, vec![false; total]);
        for wave in waves {
            let targets = wave.targets();
            let child_sum = self.gather_segment_sum(cur, wave.child_rows(), wave.segs(), targets.len());
            let own = self.gather_rows(h0, targets);
            let inp = self.concat_cols(child_sum, own);
            let mut updated = self.input(Tensor::zeros(total, hidden));
            for g in 0..wave.groups() {
                let group = wave.group(g);
                let sub = self.gather_rows(inp, group.rows);
                let out = self.mlp(&gnn.updaters[group.mlp], store, sub);
                let scattered = self.segment_sum(out, group.globals, total);
                updated = self.add(updated, scattered);
            }
            is_target.fill(false);
            targets.iter().for_each(|&t| is_target[t] = true);
            let keep: Vec<usize> = (0..total).filter(|&r| !is_target[r]).collect();
            cur = if keep.is_empty() {
                updated
            } else {
                let kept = self.gather_segment_sum(cur, keep.clone(), keep, total);
                self.add(updated, kept)
            };
        }
        let pooled = self.segment_sum(cur, batch.graph_of(), batch.n_graphs());
        self.mlp(gnn.readout, store, pooled)
    }

    /// Element-wise `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut out = val(&self.nodes, a.0).clone();
        out.add_assign(val(&self.nodes, b.0));
        self.push_owned(out, Op::Add(a.0, b.0))
    }

    /// Concatenates `a` and `b` along columns.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (val(&self.nodes, a.0), val(&self.nodes, b.0));
        assert_eq!(av.rows(), bv.rows(), "concat row mismatch");
        let (ac, same) = (av.cols(), || (0..av.rows()).map(|r| (r, r)));
        let mut out = Tensor::zeros(av.rows(), ac + bv.cols());
        out.copy_rows(av, same(), Window::cols(ac));
        out.copy_rows(bv, same(), Window::cols(bv.cols()).dst(ac));
        self.push_owned(out, Op::ConcatCols(a.0, b.0))
    }

    /// Selects rows of `x` by `idx` (repetition allowed).
    pub fn gather_rows(&mut self, x: NodeId, idx: impl Into<Cow<'p, [usize]>>) -> NodeId {
        let idx = idx.into();
        let xv = val(&self.nodes, x.0);
        let mut out = Tensor::zeros(idx.len(), xv.cols());
        out.copy_rows(xv, (0..).zip(idx.iter().copied()), Window::cols(xv.cols()));
        self.push_owned(out, Op::GatherRows(x.0, idx))
    }

    /// Segmented row sum: output row `s` is the sum of all input rows `i`
    /// with `segments[i] == s`. Rows with no contribution stay zero, which
    /// is exactly the "empty children set" case of the GNN update.
    pub fn segment_sum(&mut self, x: NodeId, segments: impl Into<Cow<'p, [usize]>>, out_rows: usize) -> NodeId {
        let segments = segments.into();
        let xv = val(&self.nodes, x.0);
        assert_eq!(segments.len(), xv.rows(), "one segment id per input row");
        let mut out = Tensor::zeros(out_rows, xv.cols());
        out.add_rows(xv, segments.iter().copied().zip(0..), Window::cols(xv.cols()));
        self.push_owned(out, Op::SegmentSum { input: x.0, segments })
    }

    /// Fused gather + segmented sum: `out[segs[e]] += x[rows[e]]` for
    /// every edge `e` — the "sum the children's hidden states" primitive
    /// as one node, with the per-edge accumulation order of `gather_rows`
    /// followed by `segment_sum`.
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
        let mut out = Tensor::zeros(out_rows, xv.cols());
        let edges = segs.iter().copied().zip(rows.iter().copied());
        out.add_rows(xv, edges, Window::cols(xv.cols()));
        self.push_owned(out, Op::GatherSegmentSum { input: x.0, rows, segs })
    }

    /// Runs the backward pass seeding `d(loss)/d(out) = seed` and
    /// accumulates parameter gradients into `grads` (zero it first unless
    /// gradient accumulation across batches is intended).
    ///
    /// # Panics
    /// Panics if `seed` does not match the shape of `out`'s value, or if
    /// `grads` was built for a different store.
    pub fn backward(&self, out: NodeId, seed: Tensor, grads: &mut Gradients) {
        let nodes = &self.nodes;
        assert_eq!(seed.shape(), val(nodes, out.0).shape(), "seed shape mismatch");
        let mut slots: Vec<Option<Tensor>> = nodes.iter().map(|_| None).collect();
        slots[out.0] = Some(seed);

        for i in (0..nodes.len()).rev() {
            let Some(g) = slots[i].take() else { continue };
            match &nodes[i].op {
                Op::Leaf(Some(pid)) => grads.accumulate(*pid, &g),
                Op::Leaf(None) => {}
                Op::Affine { x, w, bias, relu } => {
                    // Mask g by the ReLU activation (the node's own output),
                    // reduce the bias gradient, then both matmul gradients.
                    let mut dpre = g;
                    if *relu {
                        mask_relu(&mut dpre, val(nodes, i));
                    }
                    let every_row = (0..dpre.rows()).map(|r| (0, r));
                    let db = slot_zeroed(&mut slots, *bias, 1, dpre.cols());
                    db.add_rows(&dpre, every_row, Window::cols(dpre.cols()));
                    let (xv, wv) = (val(nodes, *x), val(nodes, *w));
                    xv.t_matmul_acc(&dpre, slot_zeroed(&mut slots, *w, xv.cols(), dpre.cols()));
                    // A constant input has no use for its gradient.
                    if !matches!(nodes[*x].op, Op::Leaf(None)) {
                        let mut wt = Tensor::zeros(wv.cols(), wv.rows());
                        wv.transpose_into(&mut wt);
                        dpre.matmul_acc(&wt, slot_zeroed(&mut slots, *x, dpre.rows(), wv.rows()));
                    }
                }
                Op::Add(a, b) => {
                    match &mut slots[*a] {
                        Some(da) => da.add_assign(&g),
                        slot @ None => *slot = Some(g.clone()),
                    }
                    match &mut slots[*b] {
                        Some(db) => db.add_assign(&g),
                        slot @ None => *slot = Some(g),
                    }
                }
                Op::ConcatCols(a, b) => {
                    let (ac, bc) = (val(nodes, *a).cols(), val(nodes, *b).cols());
                    let same = || (0..g.rows()).map(|r| (r, r));
                    let da = slot_zeroed(&mut slots, *a, g.rows(), ac);
                    da.add_rows(&g, same(), Window::cols(ac));
                    let db = slot_zeroed(&mut slots, *b, g.rows(), bc);
                    db.add_rows(&g, same(), Window::cols(bc).src(ac));
                }
                Op::GatherRows(x, idx) => {
                    let dx = slot_zeroed(&mut slots, *x, val(nodes, *x).rows(), g.cols());
                    dx.add_rows(&g, idx.iter().copied().zip(0..), Window::cols(g.cols()));
                }
                Op::SegmentSum { input, segments } => {
                    let dx = slot_zeroed(&mut slots, *input, segments.len(), g.cols());
                    dx.add_rows(&g, (0..).zip(segments.iter().copied()), Window::cols(g.cols()));
                }
                Op::GatherSegmentSum { input, rows, segs } => {
                    // dx[rows[e]] += g[segs[e]], no edges x cols intermediate.
                    let dx = slot_zeroed(&mut slots, *input, val(nodes, *input).rows(), g.cols());
                    let edges = rows.iter().copied().zip(segs.iter().copied());
                    dx.add_rows(&g, edges, Window::cols(g.cols()));
                }
            }
        }
    }
}

/// Ensures `slots[idx]` holds a tensor of the given shape (a zeroed one if
/// empty) and returns it for in-place accumulation.
fn slot_zeroed(slots: &mut [Option<Tensor>], idx: usize, rows: usize, cols: usize) -> &mut Tensor {
    let t = slots[idx].get_or_insert_with(|| Tensor::zeros(rows, cols));
    debug_assert_eq!(t.shape(), (rows, cols), "gradient shape mismatch");
    t
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

    /// `x @ w` as an affine node over a zero bias, without ReLU.
    fn linear<'p>(tape: &mut Tape<'p>, store: &'p ParamStore, x: NodeId, w: ParamId, b: ParamId) -> NodeId {
        let (w, b) = (tape.param(store, w), tape.param(store, b));
        tape.affine(x, w, b, false)
    }

    #[test]
    fn matmul_backward_matches_hand_computation() {
        // y = x @ w (+ a zero bias), loss = sum(y); dL/dw = x^T @ 1,
        // dL/db = column sums of 1.
        let (store, ids) = store_with(vec![
            Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
            Tensor::zeros(1, 2),
        ]);
        let mut grads = Gradients::for_store(&store);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(1, 2, vec![5.0, 6.0]));
        let y = linear(&mut tape, &store, x, ids[0], ids[1]);
        assert_eq!(tape.value(y).data(), &[23.0, 34.0]);
        tape.backward(y, Tensor::from_vec(1, 2, vec![1.0; 2]), &mut grads);
        assert_eq!(grads.grad(ids[0]).data(), &[5.0, 5.0, 6.0, 6.0]);
        assert_eq!(grads.grad(ids[1]).data(), &[1.0, 1.0]);
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
        let (store, ids) = store_with(vec![Tensor::from_vec(3, 2, vec![1.0, 2.0, 10.0, 20.0, 100.0, 200.0])]);
        let mut grads = Gradients::for_store(&store);
        let mut tape = Tape::new();
        let x = tape.param(&store, ids[0]);
        let s = tape.segment_sum(x, vec![0, 1, 0], 2);
        assert_eq!(tape.value(s).data(), &[101.0, 202.0, 10.0, 20.0]);
        tape.backward(s, Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]), &mut grads);
        assert_eq!(grads.grad(ids[0]).data(), &[1.0, 2.0, 3.0, 4.0, 1.0, 2.0]);
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
        tape_a.backward(ya, Tensor::from_vec(3, 3, vec![1.0; 9]), &mut grads_a);

        let mut grads_b = Gradients::for_store(&store);
        let mut tape_b = Tape::new();
        let wb = tape_b.param(&store, ids[0]);
        let yb = tape_b.gather_segment_sum(wb, rows, segs, 3);
        tape_b.backward(yb, Tensor::from_vec(3, 3, vec![1.0; 9]), &mut grads_b);

        assert_eq!(tape_a.value(ya).data(), tape_b.value(yb).data());
        assert_eq!(grads_a.grad(ids[0]).data(), grads_b.grad(ids[0]).data());
    }

    /// Finite-difference gradient check over a network recording every op
    /// the tape keeps: `affine` with and without ReLU, `add`,
    /// `concat_cols`, `gather_rows`, `segment_sum` and
    /// `gather_segment_sum`.
    #[test]
    fn gradient_check_all_ops() {
        let seed_vals = vec![
            Tensor::from_vec(3, 4, (0..12).map(|i| 0.1 * i as f32 - 0.5).collect()),
            Tensor::from_vec(1, 4, vec![0.05, -0.02, 0.3, -0.4]),
            Tensor::from_vec(4, 4, (0..16).map(|i| (i as f32 * 0.9).cos() * 0.5).collect()),
            Tensor::from_vec(1, 4, vec![-0.1, 0.2, 0.05, 0.15]),
            Tensor::from_vec(8, 2, (0..16).map(|i| 0.07 * i as f32 - 0.4).collect()),
            Tensor::from_vec(1, 2, vec![0.3, -0.2]),
        ];
        let (mut store, ids) = store_with(seed_vals);
        // Unequal weights on the outputs, so no two gradient paths cancel.
        let weights = [1.0f32, -0.5, 0.25, 2.0, -1.5, 0.75];

        // affine+ReLU -> affine -> add -> gather_rows ‖ gather_segment_sum
        // -> concat_cols -> segment_sum -> affine.
        fn forward<'p>(store: &'p ParamStore, ids: &[ParamId]) -> (Tape<'p>, NodeId) {
            let mut tape = Tape::new();
            let x = tape.input(Tensor::from_vec(
                4,
                3,
                (0..12).map(|i| (i as f32 * 0.13).sin()).collect(),
            ));
            let (w0, b0) = (tape.param(store, ids[0]), tape.param(store, ids[1]));
            let h = tape.affine(x, w0, b0, true);
            let (w1, b1) = (tape.param(store, ids[2]), tape.param(store, ids[3]));
            let h2 = tape.affine(h, w1, b1, false);
            let a = tape.add(h, h2);
            let g = tape.gather_rows(a, vec![0, 2, 1, 3, 0]);
            let kids = tape.gather_segment_sum(h2, vec![1, 1, 2, 3, 0, 2], vec![0, 4, 1, 2, 3, 4], 5);
            let c = tape.concat_cols(g, kids);
            let seg = tape.segment_sum(c, vec![0, 1, 0, 1, 2], 3);
            let (w2, b2) = (tape.param(store, ids[4]), tape.param(store, ids[5]));
            let out = tape.affine(seg, w2, b2, false);
            (tape, out)
        }

        let loss_of = |store: &ParamStore| -> f32 {
            let (tape, out) = forward(store, &ids);
            tape.value(out).data().iter().zip(weights).map(|(v, w)| v * w).sum()
        };

        let mut grads = Gradients::for_store(&store);
        {
            let (tape, out) = forward(&store, &ids);
            assert_eq!(tape.value(out).shape(), (3, 2));
            tape.backward(out, Tensor::from_vec(3, 2, weights.to_vec()), &mut grads);
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
        let (store, ids) = store_with(vec![Tensor::from_vec(1, 1, vec![2.0]), Tensor::zeros(1, 1)]);
        let mut grads = Gradients::for_store(&store);
        for _ in 0..3 {
            let mut tape = Tape::new();
            let x = tape.input(Tensor::from_vec(1, 1, vec![1.0]));
            let y = linear(&mut tape, &store, x, ids[0], ids[1]);
            tape.backward(y, Tensor::from_vec(1, 1, vec![1.0; 1]), &mut grads);
        }
        assert_eq!(grads.grad(ids[0]).data(), &[3.0]);
        grads.zero();
        assert_eq!(grads.grad(ids[0]).data(), &[0.0]);
    }

    #[test]
    fn grad_clipping_scales() {
        let (store, ids) = store_with(vec![Tensor::from_vec(1, 2, vec![1.0, 1.0]), Tensor::zeros(1, 2)]);
        let mut grads = Gradients::for_store(&store);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(1, 1, vec![3.0]));
        let y = linear(&mut tape, &store, x, ids[0], ids[1]);
        tape.backward(y, Tensor::from_vec(1, 2, vec![1.0; 2]), &mut grads);
        // dL/dw = [3, 3], dL/db = [1, 1].
        let n = grads.norm();
        assert!((n - (9.0f32 + 9.0 + 1.0 + 1.0).sqrt()).abs() < 1e-5);
        grads.scale(0.5);
        assert!((grads.norm() - n * 0.5).abs() < 1e-5);
    }
}
