//! Property-based tests of the per-op oracle tape and the losses: the
//! tape's gradients must match finite differences for randomly shaped
//! networks, losses are non-negative, and a segment sum conserves mass.

use costream_nn::loss::mse;
use costream_nn::tape::Tape;
use costream_nn::{Gradients, Initializer, Mlp, ParamStore, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Finite-difference check for a random 2-layer MLP on random input.
    #[test]
    fn mlp_gradients_match_finite_differences(
        seed in 0u64..10_000,
        rows in 1usize..5,
        in_dim in 1usize..6,
        hidden in 1usize..8,
    ) {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let mlp = Mlp::new(&mut store, &mut init, "m", &[in_dim, hidden, 1]);
        let x_data: Vec<f32> = (0..rows * in_dim).map(|i| (i as f32 * 0.37 + seed as f32).sin()).collect();
        let targets: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.71).cos()).collect();

        let loss_of = |store: &ParamStore| -> f32 {
            let mut tape = Tape::new();
            let x = tape.input(Tensor::from_vec(rows, in_dim, x_data.clone()));
            let out = tape.mlp(&mlp, store, x);
            mse(tape.value(out), &targets).loss
        };

        let mut grads = Gradients::for_store(&store);
        {
            let mut tape = Tape::new();
            let x = tape.input(Tensor::from_vec(rows, in_dim, x_data.clone()));
            let out = tape.mlp(&mlp, &store, x);
            let l = mse(tape.value(out), &targets);
            tape.backward(out, l.seed, &mut grads);
        }

        let eps = 1e-2f32;
        // Spot-check a few scalars of every parameter tensor. A central
        // difference can straddle a ReLU kink, where the (correct)
        // subgradient legitimately disagrees with the secant — tolerate a
        // small number of such coordinates rather than shrinking eps into
        // f32 noise.
        let l0 = loss_of(&store);
        for pid in store.ids().collect::<Vec<_>>() {
            let len = store.value(pid).len();
            for k in [0, len / 2, len - 1] {
                let orig = store.value(pid).data()[k];
                store.value_mut(pid).data_mut()[k] = orig + eps;
                let lp = loss_of(&store);
                store.value_mut(pid).data_mut()[k] = orig - eps;
                let lm = loss_of(&store);
                store.value_mut(pid).data_mut()[k] = orig;
                // At a ReLU kink the analytic subgradient matches one of
                // the one-sided secants rather than the central one; all
                // three are valid witnesses of a correct gradient.
                let central = (lp - lm) / (2.0 * eps);
                let forward = (lp - l0) / eps;
                let backward = (l0 - lm) / eps;
                let analytic = grads.grad(pid).data()[k];
                let agrees = [central, forward, backward]
                    .iter()
                    .any(|n| (n - analytic).abs() < 5e-2 * (1.0 + n.abs().max(analytic.abs())));
                prop_assert!(
                    agrees,
                    "analytic {} vs central {} / forward {} / backward {}",
                    analytic, central, forward, backward
                );
            }
        }
    }

    /// Losses are non-negative and zero exactly at perfect predictions.
    #[test]
    fn mse_nonnegative(v in proptest::collection::vec(-100f32..100.0, 1..20)) {
        let pred = Tensor::from_vec(v.len(), 1, v.clone());
        let out = mse(&pred, &v);
        prop_assert!(out.loss.abs() < 1e-5);
        let shifted: Vec<f32> = v.iter().map(|x| x + 1.0).collect();
        let out2 = mse(&pred, &shifted);
        prop_assert!(out2.loss > 0.0);
    }

    /// segment_sum conserves mass: summing the output equals summing the
    /// input regardless of the segment assignment.
    #[test]
    fn segment_sum_conserves_mass(
        rows in 1usize..12,
        cols in 1usize..6,
        out_rows in 1usize..8,
        seed in 0u64..1000,
    ) {
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i as u64 + seed) as f32 * 0.173).sin()).collect();
        let segments: Vec<usize> = (0..rows).map(|i| (i as u64 + seed) as usize % out_rows).collect();
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(rows, cols, data.clone()));
        let s = tape.segment_sum(x, segments, out_rows);
        let in_sum: f32 = data.iter().sum();
        let out_sum: f32 = tape.value(s).data().iter().sum();
        prop_assert!((in_sum - out_sum).abs() < 1e-3 * (1.0 + in_sum.abs()));
    }
}
