//! Gradient parity between the oracle tape and the seed semantics.
//!
//! The tape's fused affine node (matmul, bias and ReLU as one node, on
//! borrowed parameter leaves) must be a pure refactor of the seed
//! implementation: for a random MLP the loss and every parameter gradient
//! have to match, bit for bit, a straight-line reference implementation
//! of the seed tape's math (separate matmul / bias / ReLU steps, gradients
//! composed from the same public `Tensor` kernels). This is what holds
//! the affine node to the unfused matmul → bias → ReLU chain.

use costream_nn::loss::mse;
use costream_nn::tape::Tape;
use costream_nn::{Gradients, Initializer, Mlp, ParamStore, Tensor};
use proptest::prelude::*;

/// Reference forward + backward for a 2-layer MLP `[in, hidden, 1]`,
/// written exactly as the seed tape executed it: matmul, broadcast bias
/// add, ReLU mask on the pre-activation, and the classic backward
/// formulas `dW = x^T @ dpre`, `dx = dpre @ W^T`, `db = colsum(dpre)`.
#[allow(clippy::type_complexity)]
fn reference_mlp(
    store: &ParamStore,
    w0: costream_nn::ParamId,
    b0: costream_nn::ParamId,
    w1: costream_nn::ParamId,
    b1: costream_nn::ParamId,
    x: &Tensor,
    targets: &[f32],
) -> (f32, Vec<Vec<f32>>) {
    let add_bias = |t: &Tensor, b: &Tensor| {
        let mut out = t.clone();
        for r in 0..out.rows() {
            for (o, bv) in out.row_slice_mut(r).iter_mut().zip(b.data()) {
                *o += *bv;
            }
        }
        out
    };
    let colsum = |t: &Tensor| {
        let mut out = Tensor::zeros(1, t.cols());
        for r in 0..t.rows() {
            for (o, v) in out.data_mut().iter_mut().zip(t.row_slice(r)) {
                *o += *v;
            }
        }
        out
    };

    // Forward.
    let pre1 = add_bias(&x.matmul(store.value(w0)), store.value(b0));
    let mut act1 = pre1.clone();
    for v in act1.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    let out = add_bias(&act1.matmul(store.value(w1)), store.value(b1));
    let l = mse(&out, targets);

    // Backward.
    let dpre2 = l.seed;
    let db1 = colsum(&dpre2);
    let dw1 = act1.t_matmul(&dpre2);
    let mut dpre1 = dpre2.matmul_t(store.value(w1));
    for (d, v) in dpre1.data_mut().iter_mut().zip(pre1.data()) {
        if *v <= 0.0 {
            *d = 0.0;
        }
    }
    let db0 = colsum(&dpre1);
    let dw0 = x.t_matmul(&dpre1);

    (
        l.loss,
        vec![
            dw0.data().to_vec(),
            db0.data().to_vec(),
            dw1.data().to_vec(),
            db1.data().to_vec(),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Loss + gradients from the rewritten tape match the seed reference
    /// bit for bit on random MLPs.
    #[test]
    fn rewritten_tape_matches_seed_reference(
        seed in 0u64..10_000,
        rows in 1usize..8,
        in_dim in 1usize..7,
        hidden in 1usize..10,
    ) {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let mlp = Mlp::new(&mut store, &mut init, "m", &[in_dim, hidden, 1]);
        let ids: Vec<_> = store.ids().collect();
        prop_assert_eq!(ids.len(), 4); // w0, b0, w1, b1

        let x = Tensor::from_vec(
            rows,
            in_dim,
            (0..rows * in_dim).map(|i| (i as f32 * 0.37 + seed as f32 * 0.11).sin()).collect(),
        );
        let targets: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.71 + seed as f32 * 0.03).cos()).collect();

        // Rewritten tape path.
        let mut grads = Gradients::for_store(&store);
        let tape_loss = {
            let mut tape = Tape::new();
            let xn = tape.input(x.clone());
            let out = tape.mlp(&mlp, &store, xn);
            let l = mse(tape.value(out), &targets);
            tape.backward(out, l.seed, &mut grads);
            l.loss
        };

        // Seed reference.
        let (ref_loss, ref_grads) = reference_mlp(&store, ids[0], ids[1], ids[2], ids[3], &x, &targets);

        prop_assert_eq!(
            tape_loss.to_bits(),
            ref_loss.to_bits(),
            "loss diverged: tape {} vs reference {}",
            tape_loss,
            ref_loss
        );
        for (pid, expect) in ids.iter().zip(&ref_grads) {
            let got = grads.grad(*pid).data();
            prop_assert_eq!(got.len(), expect.len());
            for (i, (g, e)) in got.iter().zip(expect).enumerate() {
                prop_assert_eq!(
                    g.to_bits(),
                    e.to_bits(),
                    "param {} elem {}: tape {} vs reference {}",
                    store.name(*pid),
                    i,
                    g,
                    e
                );
            }
        }
    }

}
