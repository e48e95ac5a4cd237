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
//! [`encode_scatter`] and [`wave_update`] are the only definitions of
//! the first two steps. Inference calls them with `saved: None` and every
//! intermediate goes straight back to the arena; the [`TrainingPass`]
//! calls them with `Some(list)` and the activations its backward needs are
//! pushed onto the list instead. The hand-written backward of each step
//! lives beside its forward and accumulates in exactly the order the
//! per-op chain (`gather_segment_sum` → `gather_rows` → `concat_cols` →
//! per-group `gather_rows` → MLP → `segment_sum` → `add`, plus the carry
//! of every row the wave leaves alone) does, so gradients are bitwise
//! those of that chain as the test oracle, the hidden `tape` module,
//! records it.
//!
//! The index lists come from the caller's batch plan through small
//! traits, so this crate needs to know nothing about graphs.

use crate::inference::InferenceArena;
use crate::layers::Mlp;
use crate::params::{Gradients, ParamStore};
use crate::tensor::Tensor;

/// One node type's share of the encoding step.
pub struct EncoderPart<'a> {
    /// Index of the encoder MLP in the slice handed to [`encode_scatter`].
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
    /// Index of the update MLP in the slice handed to [`wave_update`].
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
/// scatter-added into a zeroed `[total x hidden]` matrix.
///
/// With `saved`, the hidden activations of every encoder are pushed onto
/// it in part order (what [`encode_scatter`]'s backward replays).
pub fn encode_scatter(
    spec: &dyn EncodeSpec,
    encoders: &[Mlp],
    store: &ParamStore,
    total: usize,
    hidden: usize,
    arena: &mut InferenceArena,
    mut saved: Option<&mut Vec<Tensor>>,
) -> Tensor {
    let mut h0 = arena.alloc_zeroed(total, hidden);
    for i in 0..spec.parts() {
        let part = spec.part(i);
        let enc = encoders[part.mlp].forward_arena(arena, store, part.features, saved.as_deref_mut());
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
        let mut d_enc = ctx.arena.alloc_zeroed(part.globals.len(), g.cols());
        add_rows(&mut d_enc, &g, 0, part.globals.iter().copied().enumerate());
        mlp_backward(mlp, part.features, &saved[start..end], d_enc, false, ctx);
        end = start;
    }
    ctx.arena.recycle(g);
}

/// One wave: returns the state after it. `cur` is the state before it and
/// `h0` the initial state (the `h_v` half of every update input).
///
/// The wave input `[Σ_children ‖ own]` is assembled directly into one
/// buffer, and the new state starts as a copy of `cur` whose target rows
/// are overwritten — target indices are unique within a wave, so this is
/// a zeroed state plus scatter-add plus the carried rows, with two fewer
/// passes over the state matrix.
///
/// With `saved`, what the backward needs is pushed in this order: per
/// group its MLP's hidden activations, then its gathered input rows unless
/// the group is the identity; finally the wave input.
pub fn wave_update(
    wave: &dyn WaveSpec,
    updaters: &[Mlp],
    store: &ParamStore,
    cur: &Tensor,
    h0: &Tensor,
    arena: &mut InferenceArena,
    mut saved: Option<&mut Vec<Tensor>>,
) -> Tensor {
    let h = h0.cols();
    // The child-sum half accumulates, so it must start at zero.
    let mut inp = arena.alloc_zeroed(wave.targets().len(), 2 * h);
    cur.gather_segment_sum_into_cols(wave.child_rows(), wave.segs(), &mut inp, 0);
    h0.gather_rows_into_cols(wave.targets(), &mut inp, h);

    let mut updated = arena.alloc_copy(cur);
    for i in 0..wave.groups() {
        let group = wave.group(i);
        let mlp = &updaters[group.mlp];
        let out = if group.is_identity {
            mlp.forward_arena(arena, store, &inp, saved.as_deref_mut())
        } else {
            let mut sub = arena.alloc_scratch(group.rows.len(), 2 * h);
            inp.gather_rows_into(group.rows, &mut sub);
            let out = mlp.forward_arena(arena, store, &sub, saved.as_deref_mut());
            arena.retire(sub, saved.as_deref_mut());
            out
        };
        updated.scatter_copy_rows(&out, group.globals);
        arena.recycle(out);
    }
    arena.retire(inp, saved);
    updated
}

/// Backward of [`wave_update`]: `g` is `d(loss)/d(state after the wave)`.
/// The gradient of the state before it accumulates into `d_cur`, and that
/// of `h0` into `d_h0`; `d_cur` is `None` when the state before the wave
/// *is* `h0`, and then both go to `d_h0`, in the order the per-op chain
/// accumulates them: carried rows, own half, child half.
fn wave_update_backward(
    wave: &dyn WaveSpec,
    updaters: &[Mlp],
    saved: &[Tensor],
    g: Tensor,
    mut d_cur: Option<&mut Tensor>,
    d_h0: &mut Tensor,
    ctx: &mut Backward<'_>,
) {
    let (total, h) = g.shape();
    // Carried rows — every row outside the ascending targets, found by a
    // merge walk — pass their gradient straight through, in row order.
    let targets = wave.targets();
    if targets.len() < total {
        let mut next = targets.iter().copied().peekable();
        let carried = (0..total).filter(|&r| next.next_if_eq(&r).is_none());
        let d_carried = d_cur.as_deref_mut().unwrap_or(&mut *d_h0);
        add_rows(d_carried, &g, 0, carried.map(|r| (r, r)));
    }

    // Groups in reverse, each through its MLP into the wave-input gradient.
    let mut end = saved.len() - 1;
    let inp = &saved[end];
    let mut d_inp = ctx.arena.alloc_zeroed(inp.rows(), inp.cols());
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
        let mut d_out = ctx.arena.alloc_zeroed(group.globals.len(), h);
        add_rows(&mut d_out, &g, 0, group.globals.iter().copied().enumerate());
        let d_sub = mlp_backward(mlp, x, &saved[start..end], d_out, true, ctx).expect("input gradient was requested");
        add_rows(&mut d_inp, &d_sub, 0, group.rows.iter().copied().zip(0..));
        ctx.arena.recycle(d_sub);
        end = start;
    }
    ctx.arena.recycle(g);

    // `[Σ_children ‖ own]`: the own half goes to h0, then the child half
    // along the edges to the previous state.
    add_rows(d_h0, &d_inp, h, targets.iter().copied().zip(0..));
    let edges = wave.child_rows().iter().copied().zip(wave.segs().iter().copied());
    add_rows(d_cur.unwrap_or(d_h0), &d_inp, 0, edges);
    ctx.arena.recycle(d_inp);
}

/// Backward of [`Mlp::forward_arena`] for input `x`, retained `hidden`
/// activations and output gradient `g`: per layer, last to first, the ReLU
/// mask, the bias and weight gradients (each formed from zero, then added
/// into `grads` — the order a pinned-parameter leaf accumulates in) and
/// the input gradient through the once-per-step weight transpose. Returns
/// `d(loss)/d(x)` when `want_dx`.
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
        let mut db = ctx.arena.alloc_zeroed(1, g.cols());
        add_col_sums(&mut db, &g);
        ctx.grads.accumulate(layer.bias_id(), &db);
        ctx.arena.recycle(db);
        let mut dw = ctx.arena.alloc_zeroed(input.cols(), g.cols());
        input.t_matmul_acc(&g, &mut dw);
        ctx.grads.accumulate(layer.weight_id(), &dw);
        ctx.arena.recycle(dw);
        if i == 0 && !want_dx {
            break;
        }
        let mut dx = ctx.arena.alloc_zeroed(g.rows(), input.cols());
        let store = ctx.store;
        g.matmul_acc(ctx.transposed(store.value(layer.weight_id())), &mut dx);
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

/// The one training pass: a fixed forward — [`encode_scatter`], the given
/// waves ([`wave_update`]), a sum pool per graph and the readout MLP — and
/// its fixed backward over what the forward retained.
///
/// The pass owns what its backward replays: the encoder, wave and readout
/// activations (the inputs of every MLP layer but the states themselves),
/// the pooled states and the raw output. Each wave's input state goes back
/// to the arena as soon as the next state exists. The backward only reads
/// the retained values, so it can run again on the same forward; the next
/// forward recycles them. Weight transposes live for one backward.
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
    /// bitwise those of inference over the same waves.
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
        let h0 = encode_scatter(batch, gnn.encoders, store, total, h, arena, Some(&mut self.saved));
        self.ends.push(self.saved.len());
        let mut cur: Option<Tensor> = None;
        for wave in waves {
            let before = cur.as_ref().unwrap_or(&h0);
            let after = wave_update(wave, gnn.updaters, store, before, &h0, arena, Some(&mut self.saved));
            self.ends.push(self.saved.len());
            if let Some(before) = cur.replace(after) {
                arena.recycle(before);
            }
        }
        let mut pooled = arena.alloc_zeroed(batch.n_graphs(), h);
        let last = cur.as_ref().unwrap_or(&h0);
        last.segment_sum_into(batch.graph_of(), &mut pooled);
        for t in cur.into_iter().chain([h0]) {
            arena.recycle(t);
        }
        let out = gnn.readout.forward_arena(arena, store, &pooled, Some(&mut self.saved));
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
    /// wave, the encoders. The initial state `h0` is also the first wave's
    /// input, so one `d_h0` buffer receives every later wave's own-half
    /// gradient and then the first wave's carried, own and child halves —
    /// the order in which the per-op chain's single `h0` node receives them.
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
            // The first wave's input is `h0` itself.
            let mut d_cur = (k > 1).then(|| ctx.arena.alloc_zeroed(graph_of.len(), h));
            let at = ends[k - 1]..ends[k];
            wave_update_backward(wave, gnn.updaters, &saved[at], g, d_cur.as_mut(), &mut d_h0, ctx);
            d_state = d_cur;
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
