//! Dense layers and multi-layer perceptrons.
//!
//! Every layer offers two execution paths (see the crate docs): the
//! tape-recording `forward`, one generic affine node per layer, and the
//! tape-free [`Mlp::forward_arena`], which runs the same arithmetic through
//! the fused affine kernel on arena buffers — recycling its hidden
//! activations for inference, or retaining them for the tape's fused GNN
//! nodes, whose hand-written backward replays them.

use crate::inference::InferenceArena;
use crate::init::Initializer;
use crate::tape::{NodeId, ParamId, ParamStore, Tape};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A dense affine layer `y = x @ W + b`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new layer's parameters in `store`.
    pub fn new(store: &mut ParamStore, init: &mut Initializer, name: &str, in_dim: usize, out_dim: usize) -> Self {
        let w = store.register(format!("{name}.w"), init.kaiming(in_dim, out_dim));
        let b = store.register(format!("{name}.b"), init.zeros(1, out_dim));
        Linear { w, b, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter id of the weight matrix (`in_dim x out_dim`), exposed so
    /// stacked-weight views ([`crate::fused`]) can read the tensor.
    pub fn weight_id(&self) -> ParamId {
        self.w
    }

    /// Parameter id of the bias row vector (`1 x out_dim`).
    pub fn bias_id(&self) -> ParamId {
        self.b
    }

    /// Records the affine map on the tape (no activation).
    pub fn forward<'p>(&self, tape: &mut Tape<'p>, store: &'p ParamStore, x: NodeId) -> NodeId {
        self.forward_fused(tape, store, x, false)
    }

    /// Records the affine map, optionally fused with ReLU, as a single
    /// tape node. Parameters are pinned by reference (no clone), and the
    /// forward value runs through the same [`Tensor::affine_into`] kernel
    /// as the inference path.
    pub fn forward_fused<'p>(&self, tape: &mut Tape<'p>, store: &'p ParamStore, x: NodeId, relu: bool) -> NodeId {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.affine(x, w, b, relu)
    }

    /// Tape-free affine map, optionally fused with ReLU, on arena buffers.
    pub fn forward_inference(&self, arena: &mut InferenceArena, store: &ParamStore, x: &Tensor, relu: bool) -> Tensor {
        let w = store.value(self.w);
        let b = store.value(self.b);
        // `affine_into` zero-fills its output itself.
        let mut out = arena.alloc_scratch(x.rows(), w.cols());
        Tensor::affine_into(x, w, b, relu, &mut out);
        out
    }
}

/// A multi-layer perceptron with ReLU activations between layers.
///
/// The last layer is linear (no activation) so the same type serves as a
/// regression head, a logit head and the hidden-state encoder/updater MLPs
/// of the Costream GNN.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[in, hidden, out]`.
    ///
    /// # Panics
    /// Panics if fewer than two widths are supplied.
    pub fn new(store: &mut ParamStore, init: &mut Initializer, name: &str, widths: &[usize]) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least input and output widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, init, &format!("{name}.l{i}"), w[0], w[1]))
            .collect();
        Mlp { layers }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The individual layers, in order (exposed for stacked-weight views).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Records the full forward pass on the tape. Hidden layers record the
    /// fused affine+ReLU node, mirroring the inference path op for op.
    pub fn forward<'p>(&self, tape: &mut Tape<'p>, store: &'p ParamStore, x: NodeId) -> NodeId {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward_fused(tape, store, h, i != last);
        }
        h
    }

    /// Tape-free forward pass on arena buffers. Hidden layers run the
    /// fused affine+ReLU kernel; intermediates are recycled immediately,
    /// so a whole MLP pass allocates nothing in steady state.
    pub fn forward_inference(&self, arena: &mut InferenceArena, store: &ParamStore, x: &Tensor) -> Tensor {
        self.forward_arena(arena, store, x, None)
    }

    /// [`Mlp::forward_inference`] that can keep what a backward pass
    /// needs: with `saved`, every hidden activation (the output of each
    /// layer but the last, in layer order) is pushed onto it instead of
    /// being recycled. One body, so the training forward *is* the
    /// inference forward plus retained activations.
    pub fn forward_arena(
        &self,
        arena: &mut InferenceArena,
        store: &ParamStore,
        x: &Tensor,
        mut saved: Option<&mut Vec<Tensor>>,
    ) -> Tensor {
        let last = self.layers.len() - 1;
        let mut cur = self.layers[0].forward_inference(arena, store, x, last != 0);
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            let next = layer.forward_inference(arena, store, &cur, i != last);
            arena.retire(cur, saved.as_deref_mut());
            cur = next;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Gradients;
    use crate::tensor::Tensor;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let l = Linear::new(&mut store, &mut init, "l", 3, 5);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(4, 3));
        let y = l.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (4, 5));
    }

    #[test]
    fn mlp_end_to_end_shapes_and_param_count() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let m = Mlp::new(&mut store, &mut init, "m", &[6, 8, 8, 2]);
        assert_eq!(m.in_dim(), 6);
        assert_eq!(m.out_dim(), 2);
        // 3 layers => 3 weights + 3 biases
        assert_eq!(store.len(), 6);
        assert_eq!(store.scalar_count(), 6 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(1, 6));
        let y = m.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_too_few_widths_panics() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let _ = Mlp::new(&mut store, &mut init, "m", &[4]);
    }

    #[test]
    fn mlp_can_overfit_xor() {
        // Sanity check that layers + tape + a hand-rolled SGD step learn.
        let mut store = ParamStore::new();
        let mut init = Initializer::new(42);
        let m = Mlp::new(&mut store, &mut init, "m", &[2, 8, 1]);
        let mut grads = Gradients::for_store(&store);
        let xs = Tensor::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let ys = [0.0f32, 1.0, 1.0, 0.0];
        let mut last_loss = f32::INFINITY;
        for step in 0..2000 {
            {
                let mut tape = Tape::new();
                let x = tape.input(xs.clone());
                let out = m.forward(&mut tape, &store, x);
                let pred = tape.value(out);
                let mut seed = Tensor::zeros(4, 1);
                let mut loss = 0.0;
                for (i, &y) in ys.iter().enumerate() {
                    let d = pred.get(i, 0) - y;
                    loss += d * d / 4.0;
                    seed.set(i, 0, 2.0 * d / 4.0);
                }
                if step == 1999 {
                    last_loss = loss;
                }
                grads.zero();
                tape.backward(out, seed, &mut grads);
            }
            for pid in store.ids().collect::<Vec<_>>() {
                let p = store.value_mut(pid);
                for (pv, gv) in p.data_mut().iter_mut().zip(grads.grad(pid).data()) {
                    *pv -= 0.1 * gv;
                }
            }
        }
        assert!(last_loss < 0.01, "xor not learned, loss = {last_loss}");
    }
}
