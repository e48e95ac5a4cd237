//! The Adam optimizer over a [`ParamStore`] + [`Gradients`] pair.
//!
//! It runs a **fused** update loop: moment update and parameter
//! write happen in one pass over each tensor, reading gradients directly
//! from the preallocated [`Gradients`] buffers — no per-step tensor clones
//! anywhere on the training hot path.

use crate::params::{Gradients, ParamStore};
use crate::tensor::Tensor;

/// Adam optimizer (Kingma & Ba). Global-norm gradient clipping folds into
/// the update pass: [`clip_scale`] computes the factor and
/// [`Adam::step_scaled`] applies it to each gradient as it is read.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the conventional defaults β1=0.9, β2=0.999, ε=1e-8.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one Adam step from the gradients in `grads`.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        self.step_scaled(store, grads, 1.0);
    }

    /// Applies one Adam step from `grad_scale * grads` without writing
    /// the scaled gradients anywhere: scaling (by [`clip_scale`]'s factor),
    /// moment updates, bias correction and the parameter write are one pass
    /// per tensor (one load of `g`, one store of `p`, no temporaries).
    /// Bitwise the step taken after scaling `grads` in place — and for a
    /// scale of exactly `1.0`, the step on `grads` as they are.
    pub fn step_scaled(&mut self, store: &mut ParamStore, grads: &Gradients, grad_scale: f32) {
        if self.m.len() != store.len() {
            self.m = zeros_like(store);
            self.v = self.m.clone();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, eps, beta1, beta2) = (self.lr, self.eps, self.beta1, self.beta2);
        for (slot, id) in store.ids().enumerate() {
            let g = grads.grad(id);
            let m = &mut self.m[slot];
            let v = &mut self.v[slot];
            let p = store.value_mut(id);
            let it = p
                .data_mut()
                .iter_mut()
                .zip(m.data_mut())
                .zip(v.data_mut())
                .zip(g.data());
            for (((pv, mv), vv), gv) in it {
                let gv = grad_scale * gv;
                *mv = beta1 * *mv + (1.0 - beta1) * gv;
                *vv = beta2 * *vv + (1.0 - beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

/// The factor that clips the global gradient norm of `grads` to at most
/// `max_norm`: `max_norm / norm` when the norm exceeds it, else exactly
/// `1.0`. Hand it to [`Adam::step_scaled`] (or [`Gradients::scale`]).
pub fn clip_scale(grads: &Gradients, max_norm: f32) -> f32 {
    let n = grads.norm();
    if n > max_norm && n > 0.0 {
        max_norm / n
    } else {
        1.0
    }
}

fn zeros_like(store: &ParamStore) -> Vec<Tensor> {
    store
        .ids()
        .map(|id| Tensor::zeros(store.value(id).rows(), store.value(id).cols()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::layers::Mlp;
    use crate::loss::mse;
    use crate::tape::Tape;

    fn train_quadratic<F: FnMut(&mut ParamStore, &Gradients)>(seed: u64, steps: usize, mut stepper: F) -> f32 {
        // Fit y = 3x - 1 with a tiny MLP; return final loss.
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let mlp = Mlp::new(&mut store, &mut init, "m", &[1, 8, 1]);
        let mut grads = Gradients::for_store(&store);
        let xs: Vec<f32> = (0..16).map(|i| i as f32 / 8.0 - 1.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let x_t = Tensor::from_vec(16, 1, xs);
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            {
                let mut tape = Tape::new();
                let x = tape.input(x_t.clone());
                let out = tape.mlp(&mlp, &store, x);
                let l = mse(tape.value(out), &ys);
                last = l.loss;
                grads.zero();
                tape.backward(out, l.seed, &mut grads);
            }
            stepper(&mut store, &grads);
        }
        last
    }

    /// Adam reads nothing of a zero gradient's sign: steps on gradients
    /// whose zeros are `+0.0` and on the same gradients with `-0.0` zeros
    /// leave every parameter bitwise equal, `-0.0` parameters included.
    /// (The training pass's first-touch weight gradients rest on this.)
    #[test]
    fn adam_does_not_read_the_sign_of_a_zero_gradient() {
        let values = [-0.0f32, 1.5, 0.0, -0.0, 0.25, -2.0];
        // Every third gradient is `zero`, in turn.
        let grads_at = |step: usize, zero: f32| {
            let g = |i: usize| {
                if (i + step).is_multiple_of(3) {
                    zero
                } else {
                    (i as f32 - 2.5) * 0.1
                }
            };
            Tensor::from_vec(2, 3, (0..6).map(g).collect())
        };
        let run = |zero: f32| {
            let mut store = ParamStore::new();
            let id = store.register("p", Tensor::from_vec(2, 3, values.to_vec()));
            let mut grads = Gradients::for_store(&store);
            let mut opt = Adam::new(0.1);
            for step in 0..5 {
                grads.zero();
                let (buf, _) = grads.buf_mut(id);
                buf.copy_from(&grads_at(step, zero));
                let scale = clip_scale(&grads, 0.05);
                opt.step_scaled(&mut store, &grads, scale);
            }
            store.value(id).data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        assert_eq!(run(0.0), run(-0.0));
    }

    #[test]
    fn adam_converges_on_linear_fit() {
        let mut opt = Adam::new(0.01);
        let loss = train_quadratic(2, 500, |s, g| opt.step(s, g));
        assert!(loss < 1e-3, "adam loss {loss}");
    }

    #[test]
    fn scaled_step_is_bitwise_the_step_on_scaled_gradients() {
        let mut init = Initializer::new(5);
        let mut store_a = ParamStore::new();
        let ids = [
            store_a.register("w", init.kaiming(7, 5)),
            store_a.register("b", init.kaiming(1, 5)),
        ];
        let mut store_b = store_a.clone();
        let mut grads = Gradients::for_store(&store_a);
        for (k, id) in ids.into_iter().enumerate() {
            let (r, c) = store_a.value(id).shape();
            grads.accumulate(id, &init.kaiming(r, c));
            grads.accumulate(id, &Tensor::from_vec(r, c, vec![k as f32; r * c]));
        }
        let scale = clip_scale(&grads, 0.5);
        assert!(scale < 1.0, "the test needs something to clip");
        let (mut folded, mut two_pass) = (Adam::new(0.01), Adam::new(0.01));
        let mut scaled = grads.clone();
        scaled.scale(scale);
        for _ in 0..3 {
            folded.step_scaled(&mut store_a, &grads, scale);
            two_pass.step(&mut store_b, &scaled);
        }
        for id in ids {
            let bits = |s: &ParamStore| s.value(id).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&store_a), bits(&store_b));
        }
    }

    #[test]
    fn clipping_reduces_norm() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(4);
        let mlp = Mlp::new(&mut store, &mut init, "m", &[2, 4, 1]);
        let mut grads = Gradients::for_store(&store);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(1, 2, vec![100.0, -100.0]));
        let out = tape.mlp(&mlp, &store, x);
        let l = mse(tape.value(out), &[1e4]);
        tape.backward(out, l.seed, &mut grads);
        assert!(grads.norm() > 1.0, "the test needs something to clip");
        grads.scale(clip_scale(&grads, 1.0));
        assert!(grads.norm() <= 1.0 + 1e-4);
        assert_eq!(clip_scale(&grads, 10.0), 1.0, "inside the bound nothing scales");
    }
}
