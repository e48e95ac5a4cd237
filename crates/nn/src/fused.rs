//! Member-fused ensemble layers: stacked-weight parameter views.
//!
//! A `k`-member ensemble runs `k` structurally identical MLPs over the
//! same row movement of one plan. This module concatenates the members'
//! weight matrices **column-wise** — member `m`'s `in x out` weights
//! become the columns `m*out .. (m+1)*out` of one `[in, k*out]` tensor,
//! biases likewise — so the ensemble state can be carried as one
//! *member-major* wide matrix (`[rows, k*width]`, member `m` in column
//! block `m`) and every gather, scatter and segment sum of the plan is
//! one [`Tensor::copy_rows`] or [`Tensor::add_rows`] call whose
//! [`Window`](crate::tensor::Window) repeats over the `k` blocks, instead
//! of `k` calls.
//!
//! # Bitwise identity with the sequential path
//!
//! The fused forward must stay bitwise identical to running the members
//! sequentially (one kernel call per member and layer). Two ingredients
//! guarantee this:
//!
//! 1. **Per-element accumulation order.** Every matmul body accumulates
//!    each output element with a single accumulator over the reduction
//!    dimension in order, and the element's value is independent of its
//!    column position within a tile — so a member-blocked strided call
//!    (`n = out_w`, writing member `m`'s column window) and a dense
//!    per-member call produce identical bits.
//! 2. **Same width, same body.** The dispatcher picks the body, and with
//!    it the rounding family, by the call's width `n`. Every stacked call,
//!    over a shared input or a member-major one, is one member's
//!    `n = out_w` call, so it takes the body the sequential call takes.
//!
//! # Serving fast path
//!
//! [`StackedMlp::forward_into`] is the serving entry point: each layer is
//! one `crate::tensor::FusedLayer` call per member, seeded from `+0.0` —
//! no destination zero-fill, bias/ReLU folded into the store, input rows
//! read through a gather map and final rows scattered through an output
//! map, so the layer needs no separate gather, zero, epilogue or scatter
//! pass on any tier (see `FusedLayer`'s docs for the proof that this is
//! bitwise the composed sequence).

use crate::inference::InferenceArena;
use crate::layers::{Linear, Mlp};
use crate::params::ParamStore;
use crate::tensor::{fused_layer, FusedLayer, Tensor};

/// Numeric representation of the stacked weights: bit-exact f32 copies.
// One variant, kept only because `benchmark/src/layers.rs` passes
// `WeightPrecision::Exact` to `StackedMlp::stack` and only a `[benchmark]`
// PR may edit that file; it goes with that argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightPrecision {
    /// Bit-exact f32 copies of the members' weights.
    Exact,
}

/// `k` members' [`Linear`] layers stacked column-wise into one tensor.
#[derive(Clone, Debug)]
pub struct StackedLinear {
    k: usize,
    in_w: usize,
    out_w: usize,
    /// `[in_w, k*out_w]`; member `m` occupies columns `m*out_w..`.
    w: Tensor,
    /// `[1, k*out_w]`.
    b: Tensor,
}

impl StackedLinear {
    /// Stacks one layer from each member. All members must share the
    /// layer shape.
    ///
    /// # Panics
    /// Panics when `members` is empty or shapes disagree.
    pub fn stack(members: &[(&ParamStore, &Linear)], _precision: WeightPrecision) -> Self {
        assert!(!members.is_empty(), "stacking zero members");
        let k = members.len();
        let (in_w, out_w) = (members[0].1.in_dim(), members[0].1.out_dim());
        let wide = k * out_w;
        let mut w = Tensor::zeros(in_w, wide);
        let mut b = Tensor::zeros(1, wide);
        for (m, (store, layer)) in members.iter().enumerate() {
            assert_eq!(
                (layer.in_dim(), layer.out_dim()),
                (in_w, out_w),
                "member {m} layer shape mismatch"
            );
            let mw = store.value(layer.weight_id());
            let mb = store.value(layer.bias_id());
            for r in 0..in_w {
                for c in 0..out_w {
                    w.set(r, m * out_w + c, mw.get(r, c));
                }
            }
            for c in 0..out_w {
                b.set(0, m * out_w + c, mb.get(0, c));
            }
        }
        StackedLinear { k, in_w, out_w, w, b }
    }

    /// Member count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Per-member output width.
    pub fn out_w(&self) -> usize {
        self.out_w
    }

    /// Computes this layer over `m` logical rows of `src` and writes the
    /// epilogued result into `out`, where `m = src_rows.len()` when an
    /// input gather map is given (else `src.rows()`), and logical output
    /// row `i` lands at physical row `out_rows[i]` when a scatter map is
    /// given (else `i`). One `n = out_w` call per member, matching the
    /// sequential call: `shared` declares a member-independent input (`src`
    /// is `[rows, in_w]`, every member reads all of it); otherwise `src` is
    /// `[rows, k*in_w]` member-major. `out` may be unzeroed scratch: every
    /// addressed cell is overwritten.
    fn forward_layer(
        &self,
        src: &Tensor,
        shared: bool,
        src_rows: Option<&[usize]>,
        relu: bool,
        out: &mut Tensor,
        out_rows: Option<&[usize]>,
    ) {
        let wide = self.k * self.out_w;
        let m = src_rows.map_or(src.rows(), <[usize]>::len);
        assert_eq!(
            src.cols(),
            if shared { self.in_w } else { self.k * self.in_w },
            "layer input width mismatch"
        );
        assert_eq!(out.cols(), wide, "layer output width mismatch");
        if out_rows.is_none() {
            assert_eq!(out.rows(), m, "layer output rows mismatch");
        }
        for mi in 0..self.k {
            let (a0, o0) = (if shared { 0 } else { mi * self.in_w }, mi * self.out_w);
            let member = FusedLayer {
                a: &src.data()[a0..],
                a_rs: src.cols(),
                a_ks: 1,
                a_rows: src_rows,
                m,
                kd: self.in_w,
                b: &self.w.data()[o0..],
                b_rs: wide,
                n: self.out_w,
                out_rs: wide,
                out_rows,
                accumulate: false,
                bias: Some(&self.b.data()[o0..o0 + self.out_w]),
                relu,
            };
            fused_layer(&member, &mut out.data_mut()[o0..]);
        }
    }
}

/// `k` members' [`Mlp`]s stacked layer-by-layer.
#[derive(Clone, Debug)]
pub struct StackedMlp {
    layers: Vec<StackedLinear>,
}

impl StackedMlp {
    /// Stacks one MLP from each member (all must share widths).
    ///
    /// # Panics
    /// Panics when `members` is empty or layer counts/shapes disagree.
    pub fn stack(members: &[(&ParamStore, &Mlp)], precision: WeightPrecision) -> Self {
        assert!(!members.is_empty(), "stacking zero members");
        let depth = members[0].1.layers().len();
        assert!(
            members.iter().all(|(_, m)| m.layers().len() == depth),
            "member MLP depth mismatch"
        );
        let layers = (0..depth)
            .map(|l| {
                let per_layer: Vec<(&ParamStore, &Linear)> =
                    members.iter().map(|(s, m)| (*s, &m.layers()[l])).collect();
                StackedLinear::stack(&per_layer, precision)
            })
            .collect();
        StackedMlp { layers }
    }

    /// Member count.
    pub fn k(&self) -> usize {
        self.layers[0].k()
    }

    /// Per-member output width of the final layer.
    pub fn out_w(&self) -> usize {
        self.layers.last().expect("non-empty").out_w()
    }

    /// Forward pass over a *shared* input into a new `[rows, k*out_w]`
    /// arena tensor: [`StackedMlp::forward_into`] with every row of `x`
    /// and no scatter map.
    pub fn forward_shared(&self, arena: &mut InferenceArena, x: &Tensor) -> Tensor {
        let mut out = arena.alloc_scratch(x.rows(), self.k() * self.out_w());
        self.forward_into(arena, x, true, None, &mut out, None);
        out
    }

    /// Serving fast path: forwards `m` logical rows of `x` through the
    /// MLP (ReLU on all but the last layer) and writes the final layer
    /// straight into `dst` — at rows `dst_rows` when a scatter map is
    /// given (logical row `i` → `dst` row `dst_rows[i]`), else densely
    /// into `dst`'s first `m` rows.
    ///
    /// `shared_input` declares a member-independent `[rows, in_w]` input
    /// (the encoder feature matrix); otherwise `x` is member-major
    /// `[rows, k*in_w]`. `x_rows`, when given, restricts the pass to
    /// those physical rows of `x` without materializing the gather
    /// (`m = x_rows.len()`).
    ///
    /// The result is bitwise identical to gathering
    /// `x_rows`, running each member's MLP layer by layer, and
    /// scatter-copying into `dst` — with none of those passes actually
    /// executed: each layer is one `FusedLayer` call, or one per member.
    pub fn forward_into(
        &self,
        arena: &mut InferenceArena,
        x: &Tensor,
        shared_input: bool,
        x_rows: Option<&[usize]>,
        dst: &mut Tensor,
        dst_rows: Option<&[usize]>,
    ) {
        let last = self.layers.len() - 1;
        let m = x_rows.map_or(x.rows(), <[usize]>::len);
        let mut cur: Option<Tensor> = None;
        for (li, layer) in self.layers.iter().enumerate() {
            let relu = li != last;
            let (src, shared, rows) = match &cur {
                None => (x, shared_input, x_rows),
                Some(c) => (c, false, None),
            };
            if li == last {
                layer.forward_layer(src, shared, rows, relu, dst, dst_rows);
            } else {
                // Intermediates are unzeroed scratch: `forward_layer`
                // overwrites every cell.
                let mut nxt = arena.alloc_scratch(m, layer.k() * layer.out_w());
                layer.forward_layer(src, shared, rows, relu, &mut nxt, None);
                if let Some(c) = cur.take() {
                    arena.recycle(c);
                }
                cur = Some(nxt);
            }
        }
        if let Some(c) = cur.take() {
            arena.recycle(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::tape::Tape;

    /// One member's layer through the per-op oracle.
    fn sequential_layer(store: &ParamStore, layer: &Linear, x: &Tensor, relu: bool) -> Tensor {
        let mut tape = Tape::new();
        let x = tape.input_ref(x);
        let (w, b) = (tape.param(store, layer.weight_id()), tape.param(store, layer.bias_id()));
        let y = tape.affine(x, w, b, relu);
        tape.value(y).clone()
    }

    /// `k` independent seed-varied single layers plus their stores.
    fn members(k: usize, in_w: usize, out_w: usize) -> Vec<(ParamStore, Linear)> {
        (0..k)
            .map(|m| {
                let mut store = ParamStore::new();
                let mut init = Initializer::new(100 + m as u64);
                let l = Linear::new(&mut store, &mut init, "l", in_w, out_w);
                (store, l)
            })
            .collect()
    }

    fn mlp_members(k: usize, widths: &[usize]) -> Vec<(ParamStore, Mlp)> {
        (0..k)
            .map(|m| {
                let mut store = ParamStore::new();
                let mut init = Initializer::new(200 + m as u64);
                let mlp = Mlp::new(&mut store, &mut init, "m", widths);
                (store, mlp)
            })
            .collect()
    }

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| ((i as f32 * 0.193 + seed as f32 * 0.771).sin() * 1.7) - 0.2)
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// One stacked layer over every row of `x`, as `forward_into` runs it.
    fn layer_forward(layer: &StackedLinear, x: &Tensor, shared: bool, relu: bool) -> Tensor {
        let mut out = Tensor::from_vec(
            x.rows(),
            layer.k() * layer.out_w(),
            vec![f32::NAN; x.rows() * layer.k() * layer.out_w()],
        );
        layer.forward_layer(x, shared, None, relu, &mut out, None);
        out
    }

    /// Member-blocked stacked calls must be bitwise-equal to dense
    /// sequential per-member calls, across widths that land on every
    /// dispatch tier (wide SIMD, fringe, scalar).
    #[test]
    fn stacked_linear_bitwise_matches_sequential() {
        for &(k, in_w, out_w, rows) in &[
            (1usize, 16usize, 48usize, 9usize),
            (3, 16, 48, 10),
            (4, 64, 48, 7),
            (3, 32, 1, 13), // narrow head: every member call scalar
            (2, 8, 5, 6),   // SIMD fringe widths
        ] {
            let ms = members(k, in_w, out_w);
            let refs: Vec<(&ParamStore, &Linear)> = ms.iter().map(|(s, l)| (s, l)).collect();
            let stacked = StackedLinear::stack(&refs, WeightPrecision::Exact);

            // Member-major stacked input [rows, k*in_w].
            let per_member_x: Vec<Tensor> = (0..k).map(|m| pseudo_random(rows, in_w, 7 + m as u64)).collect();
            let mut x = Tensor::zeros(rows, k * in_w);
            for (m, xm) in per_member_x.iter().enumerate() {
                for r in 0..rows {
                    for c in 0..in_w {
                        x.set(r, m * in_w + c, xm.get(r, c));
                    }
                }
            }
            for relu in [false, true] {
                let fused = layer_forward(&stacked, &x, false, relu);
                for (m, (store, layer)) in ms.iter().enumerate() {
                    let seq = sequential_layer(store, layer, &per_member_x[m], relu);
                    for r in 0..rows {
                        for c in 0..out_w {
                            assert_eq!(
                                fused.get(r, m * out_w + c).to_bits(),
                                seq.get(r, c).to_bits(),
                                "k={k} member {m} ({r},{c}) relu={relu}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A shared-input layer must match sequential per-member calls
    /// bitwise, including when the per-member width is below the SIMD
    /// threshold but the stacked width `k*out_w` is not.
    #[test]
    fn shared_linear_bitwise_matches_sequential() {
        for &(k, in_w, out_w, rows) in &[
            (3usize, 21usize, 48usize, 11usize),
            (4, 10, 32, 5),
            (8, 12, 1, 9),  // k*out_w = 8 crosses the AVX2 threshold; out_w = 1 must stay scalar
            (4, 16, 1, 6),  // k*out_w = 4 crosses the NEON threshold likewise
            (2, 16, 6, 10), // below threshold both ways
        ] {
            let ms = members(k, in_w, out_w);
            let refs: Vec<(&ParamStore, &Linear)> = ms.iter().map(|(s, l)| (s, l)).collect();
            let stacked = StackedLinear::stack(&refs, WeightPrecision::Exact);
            let x = pseudo_random(rows, in_w, 3);
            let fused = layer_forward(&stacked, &x, true, true);
            for (m, (store, layer)) in ms.iter().enumerate() {
                let seq = sequential_layer(store, layer, &x, true);
                for r in 0..rows {
                    for c in 0..out_w {
                        assert_eq!(
                            fused.get(r, m * out_w + c).to_bits(),
                            seq.get(r, c).to_bits(),
                            "k={k} out_w={out_w} member {m} ({r},{c})"
                        );
                    }
                }
            }
        }
    }

    /// Full stacked MLPs agree with sequential member MLPs bitwise.
    #[test]
    fn stacked_mlp_bitwise_matches_sequential() {
        let (k, rows) = (3, 14);
        let widths = [21, 48, 32];
        let ms = mlp_members(k, &widths);
        let refs: Vec<(&ParamStore, &Mlp)> = ms.iter().map(|(s, m)| (s, m)).collect();
        let stacked = StackedMlp::stack(&refs, WeightPrecision::Exact);
        let mut arena = InferenceArena::new();
        let x = pseudo_random(rows, widths[0], 5);
        let fused = stacked.forward_shared(&mut arena, &x);
        assert_eq!(fused.shape(), (rows, k * 32));
        for (m, (store, mlp)) in ms.iter().enumerate() {
            let mut tape = Tape::new();
            let input = tape.input_ref(&x);
            let out = tape.mlp(mlp, store, input);
            let seq = tape.value(out);
            for r in 0..rows {
                for c in 0..32 {
                    assert_eq!(
                        fused.get(r, m * 32 + c).to_bits(),
                        seq.get(r, c).to_bits(),
                        "member {m} ({r},{c})"
                    );
                }
            }
        }
        arena.recycle(fused);
    }
}
