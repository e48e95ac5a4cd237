//! The building blocks of a batched GNN pass, each defined once, and the
//! one training pass that chains them.
//!
//! A forward pass over a batch of typed graphs is *encode* — every node
//! type's feature rows through that type's encoder MLP, scattered into one
//! `[total x hidden]` state — followed by a sequence of message-passing
//! *waves*, each computing `h'_v = MLP_T([Σ_{u∈children(v)} h'_u ‖ h_v])`
//! for its target rows and carrying every other row forward, then a sum
//! pool per graph and the readout MLP.
//!
//! The [`TrainingPass`] runs these steps; `encode_scatter` and
//! `wave_update` are their one definition, and push the activations the
//! backward needs onto the pass's list. The hand-written backward of each
//! step lives beside its forward and accumulates in exactly the order the
//! per-op chain (`gather_segment_sum` → `gather_rows` → `concat_cols` →
//! per-group `gather_rows` → MLP → `segment_sum` → `add`, plus the carry
//! of every row the wave leaves alone) does, so gradients are bitwise
//! those of that chain as the test oracle, the hidden `tape` module's
//! `Tape::gnn`, records it — up to the sign of a weight-gradient element
//! that is exactly zero, which nothing reads.
//!
//! Both directions write in place where the chain would form a zeroed
//! temporary and add it. The forward overwrites the target rows of one
//! state matrix wave after wave. The backward forms the gradient of the
//! state before a wave in the buffer of the gradient after it, and writes
//! a parameter's first gradient contribution of a step straight into its
//! still-zero [`Gradients`] buffer. `wave_update_backward` and
//! `mlp_backward` say why each keeps the bits.
//!
//! The index lists come from the caller's batch plan through small
//! traits, so this crate needs to know nothing about graphs.

use crate::inference::InferenceArena;
use crate::layers::Mlp;
use crate::params::{Gradients, ParamId, ParamStore};
use crate::tensor::Tensor;

/// One node type's share of the encoding step.
pub struct EncoderPart<'a> {
    /// Index of the encoder MLP in [`Gnn::encoders`].
    pub mlp: usize,
    /// Stacked `rows x feature_width` inputs of this type.
    pub features: &'a Tensor,
    /// State row each encoded row lands in (unique across all parts).
    pub globals: &'a [usize],
}

/// The encoding step of one batch: which feature rows go through which
/// encoder and where the results land.
pub trait EncodeSpec {
    /// Number of node types present.
    fn parts(&self) -> usize;
    /// The `i`-th type's inputs and routing.
    fn part(&self, i: usize) -> EncoderPart<'_>;
}

/// The target rows of one wave that share an update MLP.
pub struct WaveGroup<'a> {
    /// Index of the update MLP in [`Gnn::updaters`].
    pub mlp: usize,
    /// Rows of the wave's `[targets x 2*hidden]` input this group takes.
    pub rows: &'a [usize],
    /// State row each updated row overwrites.
    pub globals: &'a [usize],
    /// `rows` is `0..targets` — the group is the whole wave input.
    pub is_identity: bool,
}

/// One message-passing wave: which edges feed which targets, how the
/// targets split over update MLPs; every other state row carries over.
pub trait WaveSpec {
    /// State row of the child at the source of each edge.
    fn child_rows(&self) -> &[usize];
    /// Position in [`WaveSpec::targets`] each edge accumulates into.
    fn segs(&self) -> &[usize];
    /// State rows this wave updates, strictly ascending.
    fn targets(&self) -> &[usize];
    /// Number of type groups; every target row is in exactly one.
    fn groups(&self) -> usize;
    /// The `i`-th type group.
    fn group(&self, i: usize) -> WaveGroup<'_>;
}

/// The initial state `h0`: every part's feature rows through its encoder,
/// scatter-added into a zeroed `[total x hidden]` matrix. The hidden
/// activations of every encoder are pushed onto `saved` in part order
/// (what [`encode_scatter`]'s backward replays).
fn encode_scatter(
    spec: &dyn EncodeSpec,
    encoders: &[Mlp],
    store: &ParamStore,
    total: usize,
    hidden: usize,
    arena: &mut InferenceArena,
    saved: &mut Vec<Tensor>,
) -> Tensor {
    let mut h0 = arena.alloc_zeroed(total, hidden);
    for i in 0..spec.parts() {
        let part = spec.part(i);
        let enc = encoders[part.mlp].forward_arena(arena, store, part.features, saved);
        h0.scatter_add_rows(&enc, part.globals);
        arena.recycle(enc);
    }
    h0
}

/// Backward of [`encode_scatter`]: `g` is `d(loss)/d(h0)`. Feature
/// matrices are constants, so no input gradient is formed.
fn encode_scatter_backward(
    spec: &dyn EncodeSpec,
    encoders: &[Mlp],
    saved: &[Tensor],
    g: Tensor,
    ctx: &mut Backward<'_>,
) {
    let mut end = saved.len();
    for i in (0..spec.parts()).rev() {
        let part = spec.part(i);
        let mlp = &encoders[part.mlp];
        let start = end - (mlp.layers().len() - 1);
        // A copy, not `+0.0 + g`: `g` is a state gradient, never `-0.0`.
        let mut d_enc = ctx.arena.alloc_scratch(part.globals.len(), g.cols());
        g.gather_rows_into(part.globals, &mut d_enc);
        mlp_backward(mlp, part.features, &saved[start..end], d_enc, false, ctx);
        end = start;
    }
    ctx.arena.recycle(g);
}

/// One wave: turns `cur`, the state before it, into the state after it.
/// `h0` is the initial state (the `h_v` half of every update input).
///
/// The wave input `[Σ_children ‖ own]` is assembled directly into one
/// buffer from `cur` before anything is written; then the target rows of
/// `cur` are overwritten in place — target indices are unique within a
/// wave, so this is a zeroed state plus scatter-add plus the carried rows,
/// with no pass over the rows the wave leaves alone.
///
/// What the backward needs is pushed onto `saved` in this order: per
/// group its MLP's hidden activations, then its gathered input rows unless
/// the group is the identity; finally the wave input.
fn wave_update(
    wave: &dyn WaveSpec,
    updaters: &[Mlp],
    store: &ParamStore,
    cur: &mut Tensor,
    h0: &Tensor,
    arena: &mut InferenceArena,
    saved: &mut Vec<Tensor>,
) {
    let h = h0.cols();
    // The child-sum half accumulates, so it must start at zero.
    let mut inp = arena.alloc_zeroed(wave.targets().len(), 2 * h);
    cur.gather_segment_sum_into_cols(wave.child_rows(), wave.segs(), &mut inp, 0);
    h0.gather_rows_into_cols(wave.targets(), &mut inp, h);

    for i in 0..wave.groups() {
        let group = wave.group(i);
        let mlp = &updaters[group.mlp];
        let out = if group.is_identity {
            mlp.forward_arena(arena, store, &inp, saved)
        } else {
            let mut sub = arena.alloc_scratch(group.rows.len(), 2 * h);
            inp.gather_rows_into(group.rows, &mut sub);
            let out = mlp.forward_arena(arena, store, &sub, saved);
            saved.push(sub);
            out
        };
        cur.scatter_copy_rows(&out, group.globals);
        arena.recycle(out);
    }
    saved.push(inp);
}

/// Backward of [`wave_update`]: `g` is `d(loss)/d(state after the wave)`.
/// Returns the gradient of the state before it, formed in `g`'s own
/// buffer, unless `into_h0` — the state before the wave *is* `h0` — when
/// it accumulates into `d_h0` instead, after `h0`'s other gradients and in
/// the order the per-op chain accumulates them: carried rows, own half,
/// child half. The `h0` half of the wave input always goes to `d_h0`.
///
/// Carried in place, a carried row's gradient stays `g`'s row where the
/// per-op chain forms `+0.0 + g` in a zeroed buffer; target rows are
/// zeroed and then take the child half, as there. The two agree bit for
/// bit because a state gradient is never `-0.0`: the pooled gradient and
/// every later one are sums that start from a `+0.0` buffer (or a `+0.0`
/// target row) and only add, and a sum is `-0.0` only when both its
/// operands are.
fn wave_update_backward(
    wave: &dyn WaveSpec,
    updaters: &[Mlp],
    saved: &[Tensor],
    mut g: Tensor,
    into_h0: bool,
    d_h0: &mut Tensor,
    ctx: &mut Backward<'_>,
) -> Option<Tensor> {
    let (total, h) = g.shape();
    let targets = wave.targets();
    // Carried into `h0`: every row outside the ascending targets, found by
    // a merge walk, passes its gradient straight through, in row order.
    if into_h0 && targets.len() < total {
        let mut next = targets.iter().copied().peekable();
        let carried = (0..total).filter(|&r| next.next_if_eq(&r).is_none());
        add_rows(d_h0, &g, 0, carried.map(|r| (r, r)));
    }

    // Groups in reverse, each through its MLP into the wave-input gradient.
    // The groups partition the wave input's rows, so each row of `d_inp`
    // is one group's input gradient, where the per-op chain holds `+0.0`
    // plus it: equal but for a `-0.0`, which reads the same here. `d_inp`
    // is only ever added into state gradients, never `-0.0`, and
    // `x + -0.0 == x + +0.0` for every `x` but `-0.0`. So an identity
    // group's input gradient is `d_inp` itself, and other groups' rows are
    // copied into place.
    let mut end = saved.len() - 1;
    let inp = &saved[end];
    let mut d_inp: Option<Tensor> = None;
    for i in (0..wave.groups()).rev() {
        let group = wave.group(i);
        let mlp = &updaters[group.mlp];
        let x = if group.is_identity {
            inp
        } else {
            end -= 1;
            &saved[end]
        };
        let start = end - (mlp.layers().len() - 1);
        // A copy, not `+0.0 + g`: a state gradient is never `-0.0`.
        let mut d_out = ctx.arena.alloc_scratch(group.globals.len(), h);
        g.gather_rows_into(group.globals, &mut d_out);
        let d_sub = mlp_backward(mlp, x, &saved[start..end], d_out, true, ctx).expect("input gradient was requested");
        if group.is_identity {
            d_inp = Some(d_sub);
        } else {
            let d_inp = d_inp.get_or_insert_with(|| ctx.arena.alloc_scratch(inp.rows(), inp.cols()));
            d_inp.scatter_copy_rows(&d_sub, group.rows);
            ctx.arena.recycle(d_sub);
        }
        end = start;
    }
    // A wave without targets has no group and an empty input.
    let d_inp = d_inp.unwrap_or_else(|| ctx.arena.alloc_zeroed(inp.rows(), inp.cols()));

    // `[Σ_children ‖ own]`: the own half goes to h0, then the child half
    // along the edges to the previous state.
    add_rows(d_h0, &d_inp, h, targets.iter().copied().zip(0..));
    let edges = wave.child_rows().iter().copied().zip(wave.segs().iter().copied());
    let d_cur = if into_h0 {
        add_rows(d_h0, &d_inp, 0, edges);
        ctx.arena.recycle(g);
        None
    } else {
        for &t in targets {
            g.row_slice_mut(t).fill(0.0);
        }
        add_rows(&mut g, &d_inp, 0, edges);
        Some(g)
    };
    ctx.arena.recycle(d_inp);
    d_cur
}

/// Backward of [`Mlp::forward_arena`] for input `x`, retained `hidden`
/// activations and output gradient `g`: per layer, last to first, the ReLU
/// mask, the bias and weight gradients and the input gradient through the
/// once-per-pass weight transpose. Returns `d(loss)/d(x)` when `want_dx`.
///
/// A parameter's first contribution since [`Gradients::zero`] is written
/// straight into its gradient buffer, which is still all `+0.0`: the
/// column sums start from that `+0.0` and `dw`'s FMA chains load it as
/// their seed. Every later contribution — an update MLP runs once per
/// wave — is formed from zero in a temporary and then added, the order a
/// pinned-parameter leaf of the per-op chain accumulates in. For the bias
/// this is bit for bit the old `+0.0 + db`, since a sum started from
/// `+0.0` is never `-0.0`. An FMA chain can underflow to `-0.0`, so a
/// first-touch `dw` element can differ from `+0.0 + dw` — by a zero's
/// sign only, and only where the sum is exactly zero. Nothing downstream
/// reads that sign: the clip norm squares it, and Adam's first moment
/// `β1·m + (1-β1)·g` is never `-0.0` (it starts at `+0.0`), so adding
/// `±0.0` to it leaves it unchanged, while the second moment takes `g²`.
fn mlp_backward(
    mlp: &Mlp,
    x: &Tensor,
    hidden: &[Tensor],
    mut g: Tensor,
    want_dx: bool,
    ctx: &mut Backward<'_>,
) -> Option<Tensor> {
    let layers = mlp.layers();
    for (i, layer) in layers.iter().enumerate().rev() {
        let input = if i == 0 { x } else { &hidden[i - 1] };
        if i + 1 < layers.len() {
            mask_relu(&mut g, &hidden[i]);
        }
        ctx.contribute(layer.bias_id(), |db| add_col_sums(db, &g));
        ctx.contribute(layer.weight_id(), |dw| input.t_matmul_acc(&g, dw));
        if i == 0 && !want_dx {
            break;
        }
        let mut dx = ctx.arena.alloc_scratch(g.rows(), input.cols());
        let store = ctx.store;
        g.matmul_into(ctx.transposed(store.value(layer.weight_id())), &mut dx);
        ctx.arena.recycle(std::mem::replace(&mut g, dx));
    }
    if want_dx {
        Some(g)
    } else {
        ctx.arena.recycle(g);
        None
    }
}

/// Zeroes `dpre` wherever the ReLU output `y` is `<= 0.0`, and keeps it
/// where `y` is positive or NaN. Written as a select over every element,
/// not a branch, so it compiles to a vector blend: a branch on the sign
/// of a ReLU output mispredicts about half the time.
pub(crate) fn mask_relu(dpre: &mut Tensor, y: &Tensor) {
    for (d, v) in dpre.data_mut().iter_mut().zip(y.data()) {
        *d = if *v <= 0.0 { 0.0 } else { *d };
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

/// The state of one backward pass: the parameters, the gradients it
/// accumulates into, the arena every temporary is drawn from, and the
/// weight matrices transposed so far. `dx += dpre @ W^T` needs `W^T`
/// row-major; a weight used by several steps (an update MLP runs once per
/// wave) is transposed once per pass, not once per use.
struct Backward<'a> {
    store: &'a ParamStore,
    grads: &'a mut Gradients,
    /// Source and sink of every temporary.
    arena: &'a mut InferenceArena,
    /// `(address of W, W^T)`. Addresses identify tensors here because the
    /// parameter store does not move during a backward pass.
    transposed: &'a mut Vec<(usize, Tensor)>,
}

impl Backward<'_> {
    /// `grad(id) += form(zeros)`: `form` writes straight into the gradient
    /// buffer when that is still all `+0.0`, else into a zeroed temporary
    /// that is then added (see [`mlp_backward`]).
    fn contribute(&mut self, id: ParamId, form: impl FnOnce(&mut Tensor)) {
        let (buf, untouched) = self.grads.buf_mut(id);
        if untouched {
            form(buf);
            return;
        }
        let mut delta = self.arena.alloc_zeroed(buf.rows(), buf.cols());
        form(&mut delta);
        buf.add_assign(&delta);
        self.arena.recycle(delta);
    }

    /// `w^T`, transposed on first request.
    fn transposed(&mut self, w: &Tensor) -> &Tensor {
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
}

/// The GNN a [`TrainingPass`] runs: its parameters and its MLPs, indexed
/// as the encode and wave specs index them.
#[derive(Clone, Copy)]
pub struct Gnn<'a> {
    /// Every parameter of the MLPs below.
    pub store: &'a ParamStore,
    /// Per-type encoder MLPs ([`EncoderPart::mlp`] indexes them).
    pub encoders: &'a [Mlp],
    /// Per-type update MLPs ([`WaveGroup::mlp`] indexes them).
    pub updaters: &'a [Mlp],
    /// The readout MLP over each graph's pooled state.
    pub readout: &'a Mlp,
}

/// A minibatch as the [`TrainingPass`] reads it: its encoding, and the
/// graph each state row is pooled into.
pub trait BatchSpec: EncodeSpec {
    /// Graph of every state row; its length is the number of rows.
    fn graph_of(&self) -> &[usize];
    /// Number of graphs (pooled rows).
    fn n_graphs(&self) -> usize;
}

/// The one training pass: a fixed forward — the encoding, the given waves,
/// a sum pool per graph and the readout MLP — and its fixed backward over
/// what the forward retained.
///
/// The pass owns what its backward replays: the encoder, wave and readout
/// activations (the inputs of every MLP layer but the states themselves),
/// the pooled states and the raw output. The waves update one copy of
/// `h0` in place, which goes back to the arena after the pool. The
/// backward only reads the retained values, so it can run again on the
/// same forward; the next forward recycles them. Weight transposes live
/// for one backward.
///
/// Buffers come from, and go back to, the arena the caller passes; a
/// training loop that passes one arena to every step allocates no tensor
/// buffer after the first step of a given shape, and the pass's own lists
/// keep their capacity.
#[derive(Default)]
pub struct TrainingPass {
    /// What the forward retained: the encoders' activations, each wave's,
    /// the readout's, then the pooled states (the readout's input) and the
    /// raw output.
    saved: Vec<Tensor>,
    /// Where the encoders' activations end in `saved`, then each wave's.
    ends: Vec<usize>,
    /// Weight transposes of one backward pass.
    transposed: Vec<(usize, Tensor)>,
}

impl TrainingPass {
    /// The forward pass over `batch`, running `waves` in order after the
    /// encoding; returns the raw `[n_graphs x 1]` output. Its values are
    /// bitwise those of the per-op chain over the same waves, and of
    /// inference over the same plan.
    pub fn forward<'w>(
        &mut self,
        gnn: Gnn<'_>,
        batch: &dyn BatchSpec,
        waves: impl IntoIterator<Item = &'w dyn WaveSpec>,
        arena: &mut InferenceArena,
    ) -> &Tensor {
        for t in self.saved.drain(..) {
            arena.recycle(t);
        }
        self.ends.clear();
        let (store, total, h) = (gnn.store, batch.graph_of().len(), gnn.readout.in_dim());
        let h0 = encode_scatter(batch, gnn.encoders, store, total, h, arena, &mut self.saved);
        self.ends.push(self.saved.len());
        // The waves update one state in place; it starts as a copy of `h0`,
        // which every wave reads as the own half.
        let mut cur: Option<Tensor> = None;
        for wave in waves {
            let state = cur.get_or_insert_with(|| arena.alloc_copy(&h0));
            wave_update(wave, gnn.updaters, store, state, &h0, arena, &mut self.saved);
            self.ends.push(self.saved.len());
        }
        let mut pooled = arena.alloc_zeroed(batch.n_graphs(), h);
        let last = cur.as_ref().unwrap_or(&h0);
        last.segment_sum_into(batch.graph_of(), &mut pooled);
        for t in cur.into_iter().chain([h0]) {
            arena.recycle(t);
        }
        let out = gnn.readout.forward_arena(arena, store, &pooled, &mut self.saved);
        self.saved.extend([pooled, out]);
        &self.saved[self.saved.len() - 1]
    }

    /// Number of waves the last forward ran.
    pub fn waves(&self) -> usize {
        self.ends.len().saturating_sub(1)
    }

    /// The backward of the last [`TrainingPass::forward`], seeded with
    /// `d(loss)/d(output) = seed`: accumulates every parameter gradient
    /// into `grads` (zero it first unless accumulation is intended).
    /// `batch`, `gnn` and `waves` must be the forward's.
    ///
    /// It walks the forward's steps in reverse: the readout, the pool, each
    /// wave, the encoders. One state-gradient buffer goes through the
    /// waves: each wave zeroes its target rows and adds its child half in
    /// place, so carried rows are never copied. The initial state `h0` is
    /// also the first wave's input, so one `d_h0` buffer receives every
    /// later wave's own-half gradient and then the first wave's carried,
    /// own and child halves — the order in which the per-op chain's single
    /// `h0` node receives them.
    ///
    /// Each parameter's first contribution since `grads` was zeroed is
    /// written straight into its buffer, later ones are formed and added;
    /// a second backward without a `zero()` between adds to the first. The
    /// gradients equal the per-op chain's bit for bit but for the sign of
    /// an exactly zero weight-gradient element, which neither the clip
    /// norm nor Adam reads.
    ///
    /// # Panics
    /// Panics without a forward, on a seed of another shape than the
    /// output, or when `waves` are not the forward's.
    pub fn backward<'w, W>(
        &mut self,
        gnn: Gnn<'_>,
        batch: &dyn BatchSpec,
        waves: W,
        seed: Tensor,
        grads: &mut Gradients,
        arena: &mut InferenceArena,
    ) where
        W: IntoIterator<Item = &'w dyn WaveSpec>,
        W::IntoIter: DoubleEndedIterator,
    {
        let (ends, transposed) = (&self.ends, &mut self.transposed);
        let ([saved @ .., pooled, out], Some(&readout_at)) = (&self.saved[..], ends.last()) else {
            panic!("backward without a forward");
        };
        assert_eq!(seed.shape(), out.shape(), "seed shape mismatch");
        let ctx = &mut Backward {
            store: gnn.store,
            grads,
            arena,
            transposed,
        };
        let readout_saved = &saved[readout_at..];
        let d_pooled = mlp_backward(gnn.readout, pooled, readout_saved, seed, true, ctx).expect("input gradient");
        let (graph_of, h) = (batch.graph_of(), d_pooled.cols());
        let mut d_last = ctx.arena.alloc_zeroed(graph_of.len(), h);
        add_rows(&mut d_last, &d_pooled, 0, graph_of.iter().copied().enumerate());
        ctx.arena.recycle(d_pooled);

        // `d_state` is the gradient of the state after wave `k`; without a
        // wave, the pool read `h0` itself.
        let (mut d_h0, mut d_state) = match ends.len() {
            1 => (d_last, None),
            _ => (ctx.arena.alloc_zeroed(graph_of.len(), h), Some(d_last)),
        };
        let mut waves = waves.into_iter().rev();
        for k in (1..ends.len()).rev() {
            let wave = waves.next().expect("fewer waves than the forward ran");
            let g = d_state.take().expect("one gradient per wave");
            let at = ends[k - 1]..ends[k];
            // The first wave's input is `h0` itself.
            d_state = wave_update_backward(wave, gnn.updaters, &saved[at], g, k == 1, &mut d_h0, ctx);
        }
        assert!(waves.next().is_none(), "more waves than the forward ran");
        encode_scatter_backward(batch, gnn.encoders, &saved[..ends[0]], d_h0, ctx);
        for (_, wt) in ctx.transposed.drain(..) {
            ctx.arena.recycle(wt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::tape::Tape;

    /// Six rows of two types in two graphs, each type with its own
    /// features.
    struct Batch {
        parts: Vec<(usize, Tensor, Vec<usize>)>,
        graph_of: Vec<usize>,
    }

    impl EncodeSpec for Batch {
        fn parts(&self) -> usize {
            self.parts.len()
        }
        fn part(&self, i: usize) -> EncoderPart<'_> {
            let (mlp, features, globals) = &self.parts[i];
            EncoderPart {
                mlp: *mlp,
                features,
                globals,
            }
        }
    }

    impl BatchSpec for Batch {
        fn graph_of(&self) -> &[usize] {
            &self.graph_of
        }
        fn n_graphs(&self) -> usize {
            2
        }
    }

    /// A wave updating rows `0, 2, 4` (type 0) from rows `1, 3, 5` (and
    /// row 2 from row 0) through update MLP 0; rows 1, 3 and 5 carry.
    struct TypeZeroWave;

    impl WaveSpec for TypeZeroWave {
        fn child_rows(&self) -> &[usize] {
            &[1, 3, 5, 0]
        }
        fn segs(&self) -> &[usize] {
            &[0, 1, 2, 1]
        }
        fn targets(&self) -> &[usize] {
            &[0, 2, 4]
        }
        fn groups(&self) -> usize {
            1
        }
        fn group(&self, _: usize) -> WaveGroup<'_> {
            WaveGroup {
                mlp: 0,
                rows: &[0, 1, 2],
                globals: &[0, 2, 4],
                is_identity: true,
            }
        }
    }

    /// Bitwise equality up to the sign of zeros; returns the number of
    /// flipped zero signs.
    fn zero_sign_flips(pass: &Tensor, chain: &Tensor, what: &str) -> usize {
        let mut flips = 0;
        for (a, b) in pass.data().iter().zip(chain.data()) {
            if a.to_bits() != b.to_bits() {
                assert!(*a == 0.0 && *b == 0.0, "{what}: {a} vs {b}");
                flips += 1;
            }
        }
        flips
    }

    /// Update MLP 0 gets one contribution per wave: its first goes straight
    /// into the zeroed gradient buffer, the later ones are formed and
    /// added. At 1, 2 and 3 uses, and for a second backward into the same
    /// buffers without a `zero()` between (which must add, not overwrite),
    /// every gradient is the per-op chain's; flipped zero signs are
    /// printed, as `fastpath.rs` does.
    #[test]
    fn first_touch_gradients_are_the_per_op_chains_at_one_two_and_three_uses() {
        let (hidden, types) = (3, [0usize, 1, 0, 1, 0, 0]);
        let mut store = ParamStore::new();
        let mut init = Initializer::new(5);
        let encoders: Vec<Mlp> = (0..2)
            .map(|t| Mlp::new(&mut store, &mut init, &format!("enc{t}"), &[2 + t, 4, hidden]))
            .collect();
        let updaters: Vec<Mlp> = (0..2)
            .map(|t| Mlp::new(&mut store, &mut init, &format!("upd{t}"), &[2 * hidden, 5, hidden]))
            .collect();
        let readout = Mlp::new(&mut store, &mut init, "readout", &[hidden, 4, 1]);
        let batch = Batch {
            parts: (0..2)
                .map(|t| {
                    let globals: Vec<usize> = (0..types.len()).filter(|&r| types[r] == t).collect();
                    let data = (0..globals.len() * (2 + t))
                        .map(|i| (i as f32 * 0.83 + t as f32).sin())
                        .collect();
                    (t, Tensor::from_vec(globals.len(), 2 + t, data), globals)
                })
                .collect(),
            graph_of: vec![0, 0, 0, 1, 1, 1],
        };
        let gnn = Gnn {
            store: &store,
            encoders: &encoders,
            updaters: &updaters,
            readout: &readout,
        };
        let seed = Tensor::from_vec(2, 1, vec![0.7, -1.3]);
        let mut flips = 0;
        for uses in 1..=3 {
            let waves = || std::iter::repeat_n(&TypeZeroWave as &dyn WaveSpec, uses);
            let mut chain = Tape::new();
            let out = chain.gnn(gnn, &batch, waves());
            let mut grads_chain = Gradients::for_store(&store);
            let (mut pass, mut arena) = (TrainingPass::default(), InferenceArena::new());
            pass.forward(gnn, &batch, waves(), &mut arena);
            let mut grads_pass = Gradients::for_store(&store);
            for backward in 1..=2 {
                chain.backward(out, seed.clone(), &mut grads_chain);
                pass.backward(gnn, &batch, waves(), seed.clone(), &mut grads_pass, &mut arena);
                for id in store.ids() {
                    let what = format!("{} at {uses} uses, backward {backward}", store.name(id));
                    flips += zero_sign_flips(grads_pass.grad(id), grads_chain.grad(id), &what);
                }
            }
            let upd0 = updaters[0].layers()[0].weight_id();
            assert!(
                grads_pass.grad(upd0).data().iter().any(|v| *v != 0.0),
                "update MLP 0 is trained"
            );
        }
        println!("first-touch gradients: {flips} flipped zero signs against the per-op chain");
    }

    /// The mask keeps a gradient where the ReLU output is positive or NaN
    /// and writes `+0.0` where it is `<= 0.0`, both zeros included. A
    /// select written `if v > 0.0 { d } else { 0.0 }` drops the NaN row.
    #[test]
    fn mask_relu_zeroes_exactly_where_the_output_is_not_above_zero() {
        let y = Tensor::from_vec(1, 6, vec![f32::NAN, -0.0, 0.0, -1.5, 2.0, f32::MIN_POSITIVE]);
        let mut d = Tensor::from_vec(1, 6, vec![3.0, 4.0, -5.0, 6.0, -7.0, 8.0]);
        mask_relu(&mut d, &y);
        let bits: Vec<u32> = d.data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = [3.0f32, 0.0, 0.0, 0.0, -7.0, 8.0].iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
    }
}
