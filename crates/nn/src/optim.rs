//! Gradient-descent optimizers over a [`ParamStore`] + [`Gradients`] pair.
//!
//! Both optimizers run **fused** update loops: moment update and parameter
//! write happen in one pass over each tensor, reading gradients directly
//! from the preallocated [`Gradients`] buffers — no per-step tensor clones
//! anywhere on the training hot path.

use crate::tape::{Gradients, ParamStore};
use crate::tensor::Tensor;

/// Plain stochastic gradient descent with optional momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step from the gradients in `grads`. Velocity
    /// update and parameter write are fused into a single pass.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        if self.velocity.len() != store.len() {
            self.velocity = zeros_like(store);
        }
        let (lr, momentum) = (self.lr, self.momentum);
        for (slot, id) in store.ids().enumerate() {
            let g = grads.grad(id);
            let v = &mut self.velocity[slot];
            let p = store.value_mut(id);
            for ((pv, vv), gv) in p.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                *vv = momentum * *vv + gv;
                *pv -= lr * *vv;
            }
        }
    }
}

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

    /// Replaces the learning rate (used by fine-tuning, which continues
    /// training at a reduced rate).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
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
                let out = mlp.forward(&mut tape, &store, x);
                let l = mse(tape.value(out), &ys);
                last = l.loss;
                grads.zero();
                tape.backward(out, l.seed, &mut grads);
            }
            stepper(&mut store, &grads);
        }
        last
    }

    #[test]
    fn sgd_converges_on_linear_fit() {
        let mut opt = Sgd::new(0.05, 0.9);
        let loss = train_quadratic(1, 500, |s, g| opt.step(s, g));
        assert!(loss < 1e-3, "sgd loss {loss}");
    }

    #[test]
    fn adam_converges_on_linear_fit() {
        let mut opt = Adam::new(0.01);
        let loss = train_quadratic(2, 500, |s, g| opt.step(s, g));
        assert!(loss < 1e-3, "adam loss {loss}");
    }

    #[test]
    fn adam_faster_than_plain_sgd_early() {
        let mut adam = Adam::new(0.01);
        let adam_loss = train_quadratic(3, 60, |s, g| adam.step(s, g));
        let mut sgd = Sgd::new(0.001, 0.0);
        let sgd_loss = train_quadratic(3, 60, |s, g| sgd.step(s, g));
        assert!(adam_loss < sgd_loss, "adam {adam_loss} vs sgd {sgd_loss}");
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
            grads.accumulate(id, &init.kaiming(store_a.value(id).rows(), store_a.value(id).cols()));
            grads.accumulate(
                id,
                &Tensor::full(store_a.value(id).rows(), store_a.value(id).cols(), k as f32),
            );
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
        let out = mlp.forward(&mut tape, &store, x);
        let l = mse(tape.value(out), &[1e4]);
        tape.backward(out, l.seed, &mut grads);
        assert!(grads.norm() > 1.0, "the test needs something to clip");
        grads.scale(clip_scale(&grads, 1.0));
        assert!(grads.norm() <= 1.0 + 1e-4);
        assert_eq!(clip_scale(&grads, 10.0), 1.0, "inside the bound nothing scales");
    }
}
