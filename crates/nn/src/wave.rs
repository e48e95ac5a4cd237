//! The two building blocks of a batched GNN pass, each defined once.
//!
//! A forward pass over a batch of typed graphs is *encode* — every node
//! type's feature rows through that type's encoder MLP, scattered into one
//! `[total x hidden]` state — followed by a sequence of message-passing
//! *waves*, each computing `h'_v = MLP_T([Σ_{u∈children(v)} h'_u ‖ h_v])`
//! for its target rows and carrying every other row forward.
//!
//! [`encode_scatter`] and [`wave_update`] are the only definitions of
//! those two steps. Inference calls them with `saved: None` and every
//! intermediate goes straight back to the arena; the tape's fused nodes
//! ([`Tape::encode_scatter`](crate::tape::Tape::encode_scatter),
//! [`Tape::wave_update`](crate::tape::Tape::wave_update)) call them with
//! `Some(list)` and the activations a backward pass needs are pushed onto
//! the list instead. The hand-written backward of each step lives beside
//! its forward and accumulates in exactly the order the per-op chain
//! (`gather_segment_sum` → `gather_rows` → `concat_cols` → per-group
//! `gather_rows` → MLP → `segment_sum` → `add`, plus the carry of every
//! row the wave leaves alone) does,
//! so gradients are bitwise those of that chain.
//!
//! The index lists come from the caller's batch plan through two small
//! traits, so this crate needs to know nothing about graphs.

use crate::inference::InferenceArena;
use crate::layers::Mlp;
use crate::tape::{add_col_sums, add_rows, mask_relu, slot_zeroed, Gradients, ParamStore, Scratch};
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
pub(crate) fn encode_scatter_backward(
    spec: &dyn EncodeSpec,
    encoders: &[Mlp],
    store: &ParamStore,
    saved: &[Tensor],
    g: Tensor,
    grads: &mut Gradients,
    ctx: &mut Scratch<'_>,
) {
    let mut end = saved.len();
    for i in (0..spec.parts()).rev() {
        let part = spec.part(i);
        let mlp = &encoders[part.mlp];
        let start = end - (mlp.layers().len() - 1);
        let mut d_enc = ctx.arena.alloc_zeroed(part.globals.len(), g.cols());
        add_rows(&mut d_enc, &g, 0, part.globals.iter().copied().enumerate());
        mlp_backward(mlp, store, part.features, &saved[start..end], d_enc, false, grads, ctx);
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

/// Backward of [`wave_update`]: `g` is `d(loss)/d(state after the wave)`;
/// the gradients of the state before it and of `h0` accumulate into the
/// node-gradient slots `cur` and `h0` (which may be the same slot).
#[allow(clippy::too_many_arguments)] // one call site, mirrors the forward
pub(crate) fn wave_update_backward(
    wave: &dyn WaveSpec,
    updaters: &[Mlp],
    store: &ParamStore,
    saved: &[Tensor],
    g: Tensor,
    slots: &mut [Option<Tensor>],
    (cur, h0): (usize, usize),
    grads: &mut Gradients,
    ctx: &mut Scratch<'_>,
) {
    let (total, h) = g.shape();
    // Carried rows — every row outside the ascending targets, found by a
    // merge walk — pass their gradient straight through, in row order.
    let targets = wave.targets();
    if targets.len() < total {
        let d_cur = slot_zeroed(slots, cur, total, h, ctx.arena);
        let mut next = targets.iter().copied().peekable();
        let carried = (0..total).filter(|&r| next.next_if_eq(&r).is_none());
        add_rows(d_cur, &g, 0, carried.map(|r| (r, r)));
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
        let d_sub = mlp_backward(mlp, store, x, &saved[start..end], d_out, true, grads, ctx)
            .expect("input gradient was requested");
        add_rows(&mut d_inp, &d_sub, 0, group.rows.iter().copied().zip(0..));
        ctx.arena.recycle(d_sub);
        end = start;
    }
    ctx.arena.recycle(g);

    // `[Σ_children ‖ own]`: the own half goes to h0, then the child half
    // along the edges to the previous state.
    let d_h0 = slot_zeroed(slots, h0, total, h, ctx.arena);
    add_rows(d_h0, &d_inp, h, wave.targets().iter().copied().zip(0..));
    let d_cur = slot_zeroed(slots, cur, total, h, ctx.arena);
    let edges = wave.child_rows().iter().copied().zip(wave.segs().iter().copied());
    add_rows(d_cur, &d_inp, 0, edges);
    ctx.arena.recycle(d_inp);
}

/// Backward of [`Mlp::forward_arena`] for input `x`, retained `hidden`
/// activations and output gradient `g`: per layer, last to first, the ReLU
/// mask, the bias and weight gradients (each formed from zero, then added
/// into `grads` — the order a pinned-parameter leaf accumulates in) and
/// the input gradient through the once-per-step weight transpose. Returns
/// `d(loss)/d(x)` when `want_dx`.
#[allow(clippy::too_many_arguments)] // private; every argument is used once
fn mlp_backward(
    mlp: &Mlp,
    store: &ParamStore,
    x: &Tensor,
    hidden: &[Tensor],
    mut g: Tensor,
    want_dx: bool,
    grads: &mut Gradients,
    ctx: &mut Scratch<'_>,
) -> Option<Tensor> {
    let layers = mlp.layers();
    for (i, layer) in layers.iter().enumerate().rev() {
        let input = if i == 0 { x } else { &hidden[i - 1] };
        if i + 1 < layers.len() {
            mask_relu(&mut g, &hidden[i]);
        }
        let mut db = ctx.arena.alloc_zeroed(1, g.cols());
        add_col_sums(&mut db, &g);
        grads.accumulate(layer.bias_id(), &db);
        ctx.arena.recycle(db);
        let mut dw = ctx.arena.alloc_zeroed(input.cols(), g.cols());
        input.t_matmul_acc(&g, &mut dw);
        grads.accumulate(layer.weight_id(), &dw);
        ctx.arena.recycle(dw);
        if i == 0 && !want_dx {
            break;
        }
        let mut dx = ctx.arena.alloc_zeroed(g.rows(), input.cols());
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
