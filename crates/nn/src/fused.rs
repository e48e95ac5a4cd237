//! Member-fused ensemble layers: stacked-weight parameter views.
//!
//! A `k`-member ensemble runs `k` structurally identical MLPs over the
//! same plan bookkeeping. This module concatenates the members' weight
//! matrices **column-wise** — member `m`'s `in x out` weights become the
//! columns `m*out .. (m+1)*out` of one `[in, k*out]` tensor, biases
//! likewise — so the ensemble state can be carried as one *member-major*
//! wide matrix (`[rows, k*width]`, member `m` in column block `m`) and
//! every gather/scatter/segment-sum of the plan executes once instead of
//! `k` times.
//!
//! # Bitwise identity with the sequential path
//!
//! The fused forward must stay bitwise identical to running the members
//! sequentially (`Mlp::forward_inference` per member). Two ingredients
//! guarantee this:
//!
//! 1. **Per-element accumulation order.** Every microkernel tier
//!    accumulates each output element with a single accumulator over the
//!    reduction dimension in order, and the element's value is
//!    independent of its column position within a tile — so a
//!    member-blocked strided call (`n = out_w`, writing member `m`'s
//!    column window) and a dense per-member call produce identical bits.
//! 2. **Tier dispatch parity.** Dispatch selects SIMD by the *call's*
//!    output width. Member-blocked calls use `n = out_w`, matching the
//!    sequential call exactly. The one shared-input *wide* call
//!    ([`StackedLinear::forward_shared`], `n = k*out_w`) forces the
//!    scalar kernel whenever `out_w` alone would have taken it
//!    ([`crate::tensor::simd_min_width`]) — otherwise fusing `k` narrow
//!    heads could cross the SIMD threshold and change rounding (FMA
//!    contracts one rounding step).
//!
//! # Serving fast path
//!
//! [`StackedMlp::forward_into`] is the serving entry point: it runs each
//! layer through the assign-semantics fused kernel
//! (`crate::tensor::FusedLayer`) — no destination zero-fill, bias/ReLU
//! folded into the store, input rows read through a gather map and final
//! rows scattered through an output map, so the layer needs no separate
//! gather/zero/epilogue/scatter passes at all. Calls the kernel has no
//! fast tier for (narrow heads, non-AVX2 machines) fall back to a
//! composition of the standard primitives, which keeps every tier's
//! bitwise story intact (see `FusedLayer`'s docs for the proof).

use crate::inference::InferenceArena;
use crate::layers::{Linear, Mlp};
use crate::tape::ParamStore;
use crate::tensor::{
    fused_layer_available, fused_layer_fast, matmul_accumulate_scalar, matmul_accumulate_strided, simd_min_width,
    FusedLayer, Tensor,
};

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

    /// Per-member input width.
    pub fn in_w(&self) -> usize {
        self.in_w
    }

    /// Per-member output width.
    pub fn out_w(&self) -> usize {
        self.out_w
    }

    /// Wide affine map over a *shared* input: every member reads the same
    /// `[rows, in_w]` matrix `x` (the encoder first layer — input
    /// features are member-independent). One `k*out_w`-wide kernel call,
    /// scalar-forced when a sequential per-member call would have been
    /// scalar (see module docs).
    pub fn forward_shared(&self, arena: &mut InferenceArena, x: &Tensor, relu: bool) -> Tensor {
        assert_eq!(x.cols(), self.in_w, "shared input width mismatch");
        let wide = self.k * self.out_w;
        let mut out = arena.alloc_zeroed(x.rows(), wide);
        if self.out_w >= simd_min_width() {
            matmul_accumulate_strided(
                x.data(),
                self.in_w,
                1,
                x.rows(),
                self.in_w,
                self.w.data(),
                wide,
                wide,
                out.data_mut(),
                wide,
            );
        } else {
            matmul_accumulate_scalar(
                x.data(),
                self.in_w,
                1,
                x.rows(),
                self.in_w,
                self.w.data(),
                wide,
                wide,
                out.data_mut(),
                wide,
            );
        }
        self.epilogue(&mut out, relu);
        out
    }

    /// Member-blocked affine map: `x` is `[rows, k*in_w]` member-major.
    /// Runs one `n = out_w` strided kernel call per member, so the
    /// dispatch tier and the per-element accumulation order match a
    /// sequential per-member call exactly.
    pub fn forward_stacked(&self, arena: &mut InferenceArena, x: &Tensor, relu: bool) -> Tensor {
        assert_eq!(x.cols(), self.k * self.in_w, "stacked input width mismatch");
        let wide = self.k * self.out_w;
        let rows = x.rows();
        let mut out = arena.alloc_zeroed(rows, wide);
        for m in 0..self.k {
            let a_off = m * self.in_w;
            let o_off = m * self.out_w;
            matmul_accumulate_strided(
                &x.data()[a_off..],
                x.cols(),
                1,
                rows,
                self.in_w,
                &self.w.data()[o_off..],
                wide,
                self.out_w,
                &mut out.data_mut()[o_off..],
                wide,
            );
        }
        self.epilogue(&mut out, relu);
        out
    }

    /// Serving fast-path layer call: computes this layer over `m` logical
    /// rows of `src` and writes the epilogued result into `out`, where
    /// `m = src_rows.len()` when an input gather map is given (else
    /// `src.rows()`), and logical output row `i` lands at physical row
    /// `out_rows[i]` when a scatter map is given (else `i`). `shared`
    /// declares a member-independent input (`src` is `[rows, in_w]`, one
    /// wide kernel call); otherwise `src` is `[rows, k*in_w]`
    /// member-major (one `n = out_w` call per member, matching the
    /// sequential dispatch tier).
    ///
    /// Uses the assign-semantics fused kernel when available — `out` may
    /// be unzeroed scratch; every addressed cell is overwritten. Where no
    /// fast kernel applies (narrow heads, non-AVX2 machines, or a shared
    /// call whose per-member width sits below [`simd_min_width`]), the
    /// call decomposes into the standard gather + matmul + epilogue +
    /// scatter primitives, preserving each tier's bitwise behaviour.
    #[allow(clippy::too_many_arguments)]
    fn forward_layer(
        &self,
        arena: &mut InferenceArena,
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
        // The wide shared call must not cross a dispatch tier a
        // sequential per-member call would not have crossed.
        let fast = if shared {
            self.out_w >= simd_min_width() && fused_layer_available(wide)
        } else {
            fused_layer_available(self.out_w)
        };
        if fast {
            let out_rs = out.cols();
            if shared {
                fused_layer_fast(
                    &FusedLayer {
                        a: src.data(),
                        a_rs: src.cols(),
                        a_rows: src_rows,
                        m,
                        kd: self.in_w,
                        b: self.w.data(),
                        b_rs: wide,
                        n: wide,
                        bias: self.b.data(),
                        relu,
                        out_rs,
                        out_rows,
                    },
                    out.data_mut(),
                );
            } else {
                for mi in 0..self.k {
                    fused_layer_fast(
                        &FusedLayer {
                            a: &src.data()[mi * self.in_w..],
                            a_rs: src.cols(),
                            a_rows: src_rows,
                            m,
                            kd: self.in_w,
                            b: &self.w.data()[mi * self.out_w..],
                            b_rs: wide,
                            n: self.out_w,
                            bias: &self.b.data()[mi * self.out_w..(mi + 1) * self.out_w],
                            relu,
                            out_rs,
                            out_rows,
                        },
                        &mut out.data_mut()[mi * self.out_w..],
                    );
                }
            }
            return;
        }
        // Portable fallback: same ops the sequential path would run.
        let gathered = src_rows.map(|rows| {
            let mut g = arena.alloc_zeroed(rows.len(), src.cols());
            src.gather_rows_into(rows, &mut g);
            g
        });
        let x = gathered.as_ref().unwrap_or(src);
        let tmp = if shared {
            self.forward_shared(arena, x, relu)
        } else {
            self.forward_stacked(arena, x, relu)
        };
        match out_rows {
            Some(rows) => out.scatter_copy_rows(&tmp, rows),
            None => out.copy_from(&tmp),
        }
        arena.recycle(tmp);
        if let Some(g) = gathered {
            arena.recycle(g);
        }
    }

    /// Bias (+ReLU) epilogue: the identical per-element operations as
    /// [`Tensor::affine_into`]'s tail.
    fn epilogue(&self, out: &mut Tensor, relu: bool) {
        let wide = self.k * self.out_w;
        let bias = self.b.data();
        for r in 0..out.rows() {
            let row = &mut out.data_mut()[r * wide..(r + 1) * wide];
            if relu {
                for (o, &b) in row.iter_mut().zip(bias) {
                    *o = (*o + b).max(0.0);
                }
            } else {
                for (o, &b) in row.iter_mut().zip(bias) {
                    *o += b;
                }
            }
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

    /// Forward pass over a *shared* input (first layer wide, subsequent
    /// layers member-blocked). Mirrors `Mlp::forward_inference` per
    /// member: ReLU on all but the last layer, intermediates recycled.
    pub fn forward_shared(&self, arena: &mut InferenceArena, x: &Tensor) -> Tensor {
        let last = self.layers.len() - 1;
        let mut cur = self.layers[0].forward_shared(arena, x, last != 0);
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            let next = layer.forward_stacked(arena, &cur, i != last);
            arena.recycle(cur);
            cur = next;
        }
        cur
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
    /// `x_rows`, running each member's `Mlp::forward_inference`, and
    /// scatter-copying into `dst` — with none of those passes actually
    /// executed (see [`StackedLinear::forward_layer`]).
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
                layer.forward_layer(arena, src, shared, rows, relu, dst, dst_rows);
            } else {
                // Intermediates are unzeroed scratch: `forward_layer`
                // overwrites every cell.
                let mut nxt = arena.alloc_scratch(m, layer.k() * layer.out_w());
                layer.forward_layer(arena, src, shared, rows, relu, &mut nxt, None);
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
            let mut arena = InferenceArena::new();

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
                let fused = stacked.forward_stacked(&mut arena, &x, relu);
                for (m, (store, layer)) in ms.iter().enumerate() {
                    let seq = layer.forward_inference(&mut arena, store, &per_member_x[m], relu);
                    for r in 0..rows {
                        for c in 0..out_w {
                            assert_eq!(
                                fused.get(r, m * out_w + c).to_bits(),
                                seq.get(r, c).to_bits(),
                                "k={k} member {m} ({r},{c}) relu={relu}"
                            );
                        }
                    }
                    arena.recycle(seq);
                }
                arena.recycle(fused);
            }
        }
    }

    /// The shared-input wide call must match sequential per-member calls
    /// bitwise, including when the per-member width is below the SIMD
    /// threshold but the fused width is not (the scalar-force gate).
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
            let mut arena = InferenceArena::new();
            let x = pseudo_random(rows, in_w, 3);
            let fused = stacked.forward_shared(&mut arena, &x, true);
            for (m, (store, layer)) in ms.iter().enumerate() {
                let seq = layer.forward_inference(&mut arena, store, &x, true);
                for r in 0..rows {
                    for c in 0..out_w {
                        assert_eq!(
                            fused.get(r, m * out_w + c).to_bits(),
                            seq.get(r, c).to_bits(),
                            "k={k} out_w={out_w} member {m} ({r},{c})"
                        );
                    }
                }
                arena.recycle(seq);
            }
            arena.recycle(fused);
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
            let seq = mlp.forward_inference(&mut arena, store, &x);
            for r in 0..rows {
                for c in 0..32 {
                    assert_eq!(
                        fused.get(r, m * 32 + c).to_bits(),
                        seq.get(r, c).to_bits(),
                        "member {m} ({r},{c})"
                    );
                }
            }
            arena.recycle(seq);
        }
        arena.recycle(fused);
    }
}
