//! Trainable parameters and their gradients.
//!
//! Model parameters live in a [`ParamStore`]; each registered tensor is
//! named by a [`ParamId`]. Gradients are kept apart in a [`Gradients`]
//! buffer set, preallocated once per training run and zeroed in place
//! between minibatches: a backward pass reads the parameter values while it
//! accumulates into the independent buffers, and the optimizer then
//! updates the store.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

/// Storage for trainable parameters.
///
/// Gradients live separately in [`Gradients`] so a backward pass (which
/// reads parameter values) never aliases the buffers it writes into.
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
/// `ParamStore` lets a backward pass accumulate into them while it still
/// borrows the parameter values.
///
/// The set knows which buffers have stayed all `+0.0` since the last
/// `zero()`. The training pass writes a parameter's first contribution of
/// a step straight into such a buffer instead of forming it in a zeroed
/// temporary and adding it (see its `mlp_backward` for why that keeps
/// every bit the optimizer reads), and `zero()` skips the buffers nothing
/// touched. The clip norm runs on a schedule built once here.
#[derive(Clone, Debug, Default)]
pub struct Gradients {
    bufs: Vec<Tensor>,
    /// Per buffer: nothing has written to it since it was last zeroed.
    untouched: Vec<bool>,
    /// [`Gradients::norm`]'s schedule: per block of [`NORM_BLOCK`]
    /// consecutive buffers, its buffers in lockstep groups.
    norm_blocks: Vec<Vec<NormGroup>>,
}

/// Buffers per block of the norm's schedule: the per-buffer sums of one
/// block sit in a stack array until they are added in buffer order.
const NORM_BLOCK: usize = 64;

/// Most chains the norm runs in lockstep.
const NORM_LANES: usize = 8;

/// Up to [`NORM_LANES`] buffers of one length whose squared sums the norm
/// forms in lockstep.
#[derive(Clone, Debug)]
struct NormGroup {
    ids: [usize; NORM_LANES],
    lanes: usize,
}

impl Gradients {
    /// Creates zeroed gradient buffers matching every parameter in `store`.
    pub fn for_store(store: &ParamStore) -> Self {
        let bufs: Vec<Tensor> = store.params.iter().map(|p| Tensor::zeros(p.rows(), p.cols())).collect();
        let norm_blocks = (0..bufs.len())
            .step_by(NORM_BLOCK)
            .map(|lo| {
                let hi = (lo + NORM_BLOCK).min(bufs.len());
                let mut groups: Vec<NormGroup> = Vec::new();
                for id in lo..hi {
                    let len = bufs[id].len();
                    let open = groups
                        .iter_mut()
                        .find(|g| g.lanes < NORM_LANES && bufs[g.ids[0]].len() == len);
                    match open {
                        Some(g) => {
                            g.ids[g.lanes] = id;
                            g.lanes += 1;
                        }
                        None => groups.push(NormGroup {
                            ids: [id; NORM_LANES],
                            lanes: 1,
                        }),
                    }
                }
                groups
            })
            .collect();
        Gradients {
            untouched: vec![true; bufs.len()],
            bufs,
            norm_blocks,
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
        for (g, untouched) in self.bufs.iter_mut().zip(&mut self.untouched) {
            if !*untouched {
                g.fill_zero();
                *untouched = true;
            }
        }
    }

    /// Adds `delta` into the gradient of `id`.
    pub fn accumulate(&mut self, id: ParamId, delta: &Tensor) {
        self.untouched[id.0] = false;
        self.bufs[id.0].add_assign(delta);
    }

    /// The gradient buffer of `id` to write into, and whether it was still
    /// all `+0.0` since the last [`Gradients::zero`]; from here on it
    /// counts as written.
    pub(crate) fn buf_mut(&mut self, id: ParamId) -> (&mut Tensor, bool) {
        let untouched = std::mem::replace(&mut self.untouched[id.0], false);
        (&mut self.bufs[id.0], untouched)
    }

    /// Global gradient norm (L2 over all scalars), used for clipping.
    ///
    /// Bitwise `Σ_buffers (Σ_elements v * v)`, both sums in order from
    /// `Iterator::sum`'s `-0.0` seed: every buffer keeps its own in-order
    /// chain, but up to eight chains of one length run in lockstep, so
    /// their adds overlap instead of each waiting on the one before. The
    /// per-buffer sums then go into the total in buffer order, one block
    /// of buffers at a time. Nothing is allocated.
    pub fn norm(&self) -> f32 {
        let mut total = -0.0f32;
        for (block, groups) in self.norm_blocks.iter().enumerate() {
            let lo = block * NORM_BLOCK;
            let mut sums = [0.0f32; NORM_BLOCK];
            for group in groups {
                let ids = &group.ids[..group.lanes];
                let got = match group.lanes {
                    1 => sq_sums::<1>(&self.bufs, ids),
                    2 => sq_sums::<2>(&self.bufs, ids),
                    3 => sq_sums::<3>(&self.bufs, ids),
                    4 => sq_sums::<4>(&self.bufs, ids),
                    5 => sq_sums::<5>(&self.bufs, ids),
                    6 => sq_sums::<6>(&self.bufs, ids),
                    7 => sq_sums::<7>(&self.bufs, ids),
                    _ => sq_sums::<8>(&self.bufs, ids),
                };
                for (&id, s) in ids.iter().zip(got) {
                    sums[id - lo] = s;
                }
            }
            let n = NORM_BLOCK.min(self.bufs.len() - lo);
            for s in &sums[..n] {
                total += s;
            }
        }
        total.sqrt()
    }

    /// Scales all gradients in place: the two-pass form of the clip that
    /// [`Adam::step_scaled`](crate::optim::Adam::step_scaled) folds into its
    /// update, kept as the reference the optimizer tests hold that fold to.
    pub fn scale(&mut self, s: f32) {
        for (g, untouched) in self.bufs.iter_mut().zip(&mut self.untouched) {
            g.scale_assign(s);
            *untouched = false;
        }
    }
}

/// `Σ v * v` over each of the `N` equal-length buffers `ids`, every one an
/// in-order chain from `-0.0`, returned in `[f32; NORM_LANES]` lane order.
/// The chains advance in lockstep, four elements of each per step (one
/// bounds check per four), then the last `len % 4` one at a time.
fn sq_sums<const N: usize>(bufs: &[Tensor], ids: &[usize]) -> [f32; NORM_LANES] {
    let chains: [&[f32]; N] = std::array::from_fn(|l| bufs[ids[l]].data());
    let len = chains[0].len();
    let chains = chains.map(|c| &c[..len]);
    let mut acc = [-0.0f32; N];
    let quads = len - len % 4;
    for i in (0..quads).step_by(4) {
        for (a, c) in acc.iter_mut().zip(&chains) {
            let q = &c[i..i + 4];
            *a += q[0] * q[0];
            *a += q[1] * q[1];
            *a += q[2] * q[2];
            *a += q[3] * q[3];
        }
    }
    for i in quads..len {
        for (a, c) in acc.iter_mut().zip(&chains) {
            *a += c[i] * c[i];
        }
    }
    let mut out = [0.0; NORM_LANES];
    out[..N].copy_from_slice(&acc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The norm as written before the lockstep schedule: each buffer's
    /// squares summed in order, then the sums in buffer order.
    fn in_order(grads: &Gradients, store: &ParamStore) -> f32 {
        let sq = |id| grads.grad(id).data().iter().map(|v| v * v).sum::<f32>();
        store.ids().map(sq).sum::<f32>().sqrt()
    }

    /// Values below 1 with every fifth one near 3000: a small square
    /// added to a large sum loses bits that small squares summed first
    /// keep, so the sum depends on the order it is taken in.
    fn spread(n: usize, salt: usize) -> Vec<f32> {
        let big = |i: usize| if (i + salt).is_multiple_of(5) { 3000.0 } else { 1.0 };
        (0..n).map(|i| ((i * 7 + salt) as f32 * 0.61).sin() * big(i)).collect()
    }

    /// A store of `(rows, cols)` tensors with gradients from [`spread`].
    fn filled(shapes: &[(usize, usize)]) -> (ParamStore, Gradients) {
        let mut store = ParamStore::new();
        let ids: Vec<ParamId> = shapes
            .iter()
            .map(|&(r, c)| store.register("p", Tensor::zeros(r, c)))
            .collect();
        let mut grads = Gradients::for_store(&store);
        for (salt, (&id, &(r, c))) in ids.iter().zip(shapes).enumerate() {
            grads.accumulate(id, &Tensor::from_vec(r, c, spread(r * c, salt)));
        }
        (store, grads)
    }

    /// Groups of 1–9 buffers of one length, for lengths 0, 1, odd and
    /// even, interleaved with each other and spread over more than one
    /// schedule block: the lockstep norm is bitwise the in-order one.
    #[test]
    fn the_lockstep_norm_is_bitwise_the_in_order_sum() {
        for lens in [[0usize, 1, 7, 48], [1, 3, 33, 96], [5, 0, 2, 17]] {
            for copies in 1..=9 {
                // Each length `copies` times, interleaved, then once more
                // each, so groups fill, spill over and sit alone.
                let mut shapes = Vec::new();
                for _ in 0..copies {
                    shapes.extend(lens.iter().map(|&n| (1, n)));
                }
                shapes.extend(lens.iter().map(|&n| (n, 1)));
                let (store, grads) = filled(&shapes);
                assert_eq!(
                    grads.norm().to_bits(),
                    in_order(&grads, &store).to_bits(),
                    "{lens:?} x {copies}"
                );
            }
        }
        let many: Vec<(usize, usize)> = (0..150).map(|i| (1 + i % 4, 3 + i % 5)).collect();
        let (store, grads) = filled(&many);
        assert_eq!(
            grads.norm().to_bits(),
            in_order(&grads, &store).to_bits(),
            "three blocks"
        );

        // The values are ones where order matters: summed from the other
        // end, the same squares give other bits.
        let reversed = grads
            .bufs
            .iter()
            .rev()
            .map(|b| b.data().iter().rev().map(|v| v * v).sum::<f32>());
        assert_ne!(reversed.sum::<f32>().sqrt().to_bits(), grads.norm().to_bits());
    }

    /// An all-zero store, an empty one and one of empty buffers keep the
    /// in-order sum's zero signs.
    #[test]
    fn the_lockstep_norm_keeps_the_zero_signs_of_the_in_order_sum() {
        for shapes in [vec![(3, 4), (1, 4), (3, 4)], vec![], vec![(0, 3), (2, 0)]] {
            let (store, grads) = {
                let mut store = ParamStore::new();
                for &(r, c) in &shapes {
                    store.register("p", Tensor::zeros(r, c));
                }
                let grads = Gradients::for_store(&store);
                (store, grads)
            };
            assert_eq!(grads.norm().to_bits(), in_order(&grads, &store).to_bits(), "{shapes:?}");
        }
    }

    /// A buffer counts as untouched from creation and from `zero()` until
    /// something writes to it; `zero()` clears what was written.
    #[test]
    fn untouched_buffers_are_tracked_between_zeroes() {
        let (store, mut grads) = filled(&[(2, 2), (1, 3)]);
        let ids: Vec<ParamId> = store.ids().collect();
        assert!(!grads.buf_mut(ids[0]).1, "accumulate writes");
        grads.zero();
        assert!(grads.grad(ids[0]).data().iter().all(|v| v.to_bits() == 0));
        assert!(grads.buf_mut(ids[1]).1, "zeroed");
        assert!(!grads.buf_mut(ids[1]).1, "handed out once");
        grads.zero();
        grads.scale(-1.0);
        assert_eq!(grads.grad(ids[1]).data()[0].to_bits(), (-0.0f32).to_bits());
        assert!(!grads.buf_mut(ids[0]).1, "scaling by -1 makes -0.0");
        grads.zero();
        assert!(grads.grad(ids[1]).data().iter().all(|v| v.to_bits() == 0));
    }
}
