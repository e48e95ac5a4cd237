//! Dense row-major `f32` matrices.
//!
//! A [`Tensor`] is the only numeric container of the network code.
//! Everything in Costream's models is small (hidden widths of 32–128,
//! minibatches of a few hundred graph nodes), so a straightforward dense
//! representation with tight loops is both simple and fast enough.
//!
//! # Kernel dispatch tiers
//!
//! Every matmul — [`Tensor::matmul`] (`a @ b`), [`Tensor::t_matmul`]
//! (`a^T @ b`, the weight-gradient kernel), [`Tensor::matmul_t`]
//! (`a @ b^T`), the fused affine map [`Tensor::affine_into`] and the
//! member-stacked layers of [`crate::fused`] — is one `FusedLayer` call
//! (`a` strides, `b`/`out` windows, row maps, a `+0.0` or load seed, an
//! optional bias/ReLU epilogue) through one dispatcher, which picks the
//! body from the machine and the call's width `n`:
//!
//! 1. **SIMD** (x86-64 with avx2+fma runtime-detected and `n >= 8`, or
//!    aarch64 and `n >= 4`): one register tile, written once as a generic
//!    body over a lane type, which each ISA supplies with its register
//!    operations (splat, load, store, FMA, add, ReLU, and on AVX-512 the
//!    masked load and store) and a one-line `#[target_feature]` entry
//!    that fixes the tile geometry:
//!    * AVX-512 (when avx512f is also detected): 6 rows x 48 / 16 /
//!      masked columns of zmm registers;
//!    * AVX2: 4 rows x 24 / 8 / scalar `mul_add` columns of ymm;
//!    * NEON: 4 rows x 8 / 4 / scalar `mul_add` columns of `float32x4_t`.
//!
//!    Every row fringe keeps its body's full column structure. All three
//!    are one rounding family: every element is a single in-order FMA
//!    chain. No target built here compiles NEON's register operations (CI
//!    has no aarch64 target), but its tile geometry runs on every host in
//!    the conformance test, through stand-in lanes of plain `f32`s.
//! 2. **Portable** (every narrower call, and every target without a SIMD
//!    tier), in safe code: 4-row x 8-column register tiles and a
//!    one-column fringe, each element the two-rounding chain
//!    `acc + a * b`.
//!
//! `t_matmul` reaches the dispatcher through a strided view of `a`
//! (reading `a[k * ca + i]` instead of `a[i * kd + k]` — the transpose is
//! never materialized), and `matmul_t` transposes its right-hand operand
//! and then runs `matmul`, so all three variants produce bitwise-identical
//! accumulation per machine.
//!
//! # Row movement
//!
//! Every gather, scatter, segment sum, concatenation and column sum of
//! both passes and of the per-op oracle, forward and backward, is one of
//! two routines over `(destination row, source row)` pairs and a
//! [`Window`] of columns repeated over member blocks:
//! [`Tensor::copy_rows`] stores, [`Tensor::add_rows`] accumulates, pairs
//! in the given order.
//!
//! Which tier is active can be checked with [`kernel_tier`] (the bench
//! harness prints it); the dispatch tests in this module hold every tier
//! to the portable body's two-rounding chain to round-off, and the
//! conformance tests hold the SIMD tile in every tier's geometry, each
//! x86 entry the host supports and the portable body, called directly,
//! to their written-out chains bitwise.

use serde::{json, DeError, Deserialize, Serialize};

/// A dense row-major matrix of `f32` values.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A [`Tensor`] as stored, before its shape is checked.
#[derive(Deserialize)]
struct StoredTensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A stored tensor loads only if its data fills its shape exactly: a model
/// file with a float too many or too few in a weight is refused, not run
/// on a prefix of its data or read out of bounds.
impl Deserialize for Tensor {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        let StoredTensor { rows, cols, data } = StoredTensor::read_json(r)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(DeError::msg(format!(
                "tensor shape {rows}x{cols} does not match data length {}",
                data.len()
            )));
        }
        Ok(Tensor { rows, cols, data })
    }
}

/// The columns of a row that [`Tensor::copy_rows`] and
/// [`Tensor::add_rows`] move: the destination's and the source's rows
/// each split into `k` equal member blocks, and in every block `width`
/// columns move, from column `src` of the source block to column `dst` of
/// the destination block. [`Window::cols`] is one block with both offsets
/// at 0, a whole row when `width` is the row's.
///
/// A member-major ensemble state (`[rows, k*h]`, member `m` in block `m`)
/// assembles its `[Σ_children ‖ own]` wave input (`[targets, k*2h]`) with
/// `Window::cols(h).blocks(k)` for the child sums and
/// `Window::cols(h).blocks(k).dst(h)` for the own half; the backward of a
/// concatenation reads one half back with `.src(offset)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    k: usize,
    dst: usize,
    src: usize,
    width: usize,
}

impl Window {
    /// `width` columns of one block, at column 0 on both sides.
    pub const fn cols(width: usize) -> Self {
        Window {
            k: 1,
            dst: 0,
            src: 0,
            width,
        }
    }

    /// The same window in each of `k` member blocks per row.
    pub const fn blocks(self, k: usize) -> Self {
        Window { k, ..self }
    }

    /// The same window, written from column `dst` of each destination
    /// block.
    pub const fn dst(self, dst: usize) -> Self {
        Window { dst, ..self }
    }

    /// The same window, read from column `src` of each source block.
    pub const fn src(self, src: usize) -> Self {
        Window { src, ..self }
    }
}

impl Tensor {
    /// Creates a `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "shape {}x{} does not match data length {}",
            rows,
            cols,
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self @ other`.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_acc(other, &mut out);
        out
    }

    /// Accumulating matrix product `out += self @ other`.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn matmul_acc(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul output shape mismatch");
        fused_layer(&self.dense(other), &mut out.data);
    }

    /// Matrix product `self^T @ other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.t_matmul_acc(other, &mut out);
        out
    }

    /// Accumulating transposed product `out += self^T @ other`, the
    /// weight-gradient kernel of the backward pass. One dispatched call
    /// over a strided view of `self` (element `(i, k)` of `self^T` is
    /// `self[k * cols + i]`), so no transpose is materialized and the
    /// accumulation order matches [`Tensor::matmul_acc`] exactly.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn t_matmul_acc(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul shape mismatch: ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.cols, other.cols), "t_matmul output shape mismatch");
        let call = FusedLayer {
            a_rs: 1,
            a_ks: self.cols,
            m: self.cols,
            kd: self.rows,
            ..self.dense(other)
        };
        fused_layer(&call, &mut out.data);
    }

    /// Matrix product `self @ other^T`.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_t_acc(other, &mut out);
        out
    }

    /// Accumulating product `out += self @ other^T`: `other` is transposed
    /// into a new tensor and the product runs as [`Tensor::matmul_acc`],
    /// so the accumulation order is identical to it. The backward pass
    /// does not use it: it transposes each weight once per step
    /// ([`Tensor::transpose_into`]) and forms `dx` with one product.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    fn matmul_t_acc(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.rows), "matmul_t output shape mismatch");
        let mut bt = Tensor::zeros(other.cols, other.rows);
        other.transpose_into(&mut bt);
        self.matmul_acc(&bt, out);
    }

    /// Writes `self^T` into `out` (`cols x rows`). The backward pass
    /// transposes each weight matrix once per step with this and then forms
    /// `dx = dpre @ W^T` as one product — the same call on the same
    /// operands as [`Tensor::matmul_t`], which re-transposes on every
    /// call.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose output shape mismatch");
        transpose(&self.data, self.rows, self.cols, &mut out.data);
    }

    /// Fused affine map `out = x @ w + bias`, optionally with ReLU, writing
    /// into a caller-provided buffer. This is every pass's workhorse: one
    /// `FusedLayer` call seeded from `+0.0` with the bias/ReLU epilogue
    /// folded into the store, so `out` may be unzeroed scratch.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn affine_into(x: &Tensor, w: &Tensor, bias: &Tensor, relu: bool, out: &mut Tensor) {
        assert_eq!(
            x.cols, w.rows,
            "affine shape mismatch: {}x{} @ {}x{}",
            x.rows, x.cols, w.rows, w.cols
        );
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, w.cols, "bias width mismatch");
        assert_eq!(out.shape(), (x.rows, w.cols), "affine output shape mismatch");
        let call = FusedLayer {
            accumulate: false,
            bias: Some(&bias.data),
            relu,
            ..x.dense(w)
        };
        fused_layer(&call, &mut out.data);
    }

    /// `out = self @ other`, every cell written: bitwise a zeroed `out`
    /// plus [`Tensor::matmul_acc`], without the zero fill (the call seeds
    /// from `+0.0`, not a loaded `+0.0`). The backward's input-gradient
    /// product.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul output shape mismatch");
        let call = FusedLayer {
            accumulate: false,
            ..self.dense(other)
        };
        fused_layer(&call, &mut out.data);
    }

    /// The call `out += self @ w` over whole tensors (shapes checked by the
    /// caller): no window, no row map, seeded from `out`, no epilogue.
    fn dense<'a>(&'a self, w: &'a Tensor) -> FusedLayer<'a> {
        FusedLayer {
            a: &self.data,
            a_rs: self.cols,
            a_ks: 1,
            a_rows: None,
            m: self.rows,
            kd: self.cols,
            b: &w.data,
            b_rs: w.cols,
            n: w.cols,
            out_rs: w.cols,
            out_rows: None,
            accumulate: true,
            bias: None,
            relu: false,
        }
    }

    /// Consumes the tensor, returning its backing buffer (for arena reuse).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Copies another tensor's contents into this one.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Row movement by store: for every `(d, s)` in `pairs`, in order,
    /// the source columns of `win` in row `s` of `src` overwrite its
    /// destination columns in row `d` of `self`, block by block (see
    /// [`Window`]). Every other cell keeps its bits; a destination row
    /// named twice ends with its last pair's source. Allocates nothing.
    ///
    /// # Panics
    /// Panics when the window does not fit both widths, or a row of a
    /// pair is out of range (unless the window is empty).
    pub fn copy_rows(&mut self, src: &Tensor, pairs: impl IntoIterator<Item = (usize, usize)>, win: Window) {
        move_rows(self, src, pairs, win, |d, s| d.copy_from_slice(s));
    }

    /// Row movement by accumulation: for every `(d, s)` in `pairs`, in
    /// order, the source columns of `win` in row `s` of `src` are added
    /// element-wise into its destination columns in row `d` of `self`,
    /// block by block (see [`Window`]). Each element receives its
    /// additions in pair order — one `f32` add per pair that names its
    /// row — so a gather, scatter, segment sum or column sum written as
    /// pairs keeps the bits of the loop it replaces. Every cell outside
    /// the window keeps its bits. Allocates nothing.
    ///
    /// # Panics
    /// Panics when the window does not fit both widths, or a row of a
    /// pair is out of range (unless the window is empty).
    pub fn add_rows(&mut self, src: &Tensor, pairs: impl IntoIterator<Item = (usize, usize)>, win: Window) {
        move_rows(self, src, pairs, win, |d, s| {
            for (dv, sv) in d.iter_mut().zip(s) {
                *dv += *sv;
            }
        });
    }

    /// Segmented row sum into a caller-provided (zeroed) buffer: row `s` of
    /// `out` accumulates all rows `i` of `self` with `segments[i] == s`.
    // Kept only because `benchmark/src/layers.rs` times it; it goes with
    // that call in the next PR that may edit the benchmark.
    pub fn segment_sum_into(&self, segments: &[usize], out: &mut Tensor) {
        out.add_rows(self, segments.iter().copied().zip(0..), Window::cols(self.cols));
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Scales every element in place.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Fills the tensor with zeros.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// The one body of [`Tensor::copy_rows`] and [`Tensor::add_rows`]:
/// `op(destination window, source window)` per pair, then per member
/// block, in order. Every window is a checked slice, so a row out of
/// range panics (an empty window moves nothing and checks nothing). The
/// first block is peeled off the block loop: written as one loop, the
/// common one-block case timed ≈ 30 % slower than a plain row loop.
fn move_rows(
    dst: &mut Tensor,
    src: &Tensor,
    pairs: impl IntoIterator<Item = (usize, usize)>,
    win: Window,
    op: impl Fn(&mut [f32], &[f32]),
) {
    let (dc, sc, w) = (dst.cols, src.cols, win.width);
    assert!(win.k > 0, "a window spans at least one member block");
    assert!(
        dc % win.k == 0 && sc % win.k == 0,
        "member count must divide both widths"
    );
    let (dbw, sbw) = (dc / win.k, sc / win.k);
    assert!(win.dst + w <= dbw, "destination window out of range");
    assert!(win.src + w <= sbw, "source window out of range");
    for (d, s) in pairs {
        let (mut at, mut of) = (d * dc + win.dst, s * sc + win.src);
        op(&mut dst.data[at..at + w], &src.data[of..of + w]);
        for _ in 1..win.k {
            (at, of) = (at + dbw, of + sbw);
            op(&mut dst.data[at..at + w], &src.data[of..of + w]);
        }
    }
}

/// `dst = src^T` for a row-major `rows x cols` matrix `src`. Four source
/// rows go per pass, so each pass writes four adjacent floats of every
/// `dst` row; the slices are cut to their lengths first, so the inner loop
/// does no bounds check per element. The last `rows % 4` rows go one at a
/// time.
fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    if rows == 0 || cols == 0 {
        return;
    }
    let (src, dst) = (&src[..rows * cols], &mut dst[..rows * cols]);
    let mut quads = src.chunks_exact(4 * cols);
    for (q, quad) in quads.by_ref().enumerate() {
        let (r0, rest) = quad.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let j = 4 * q;
        let lanes = r0.iter().zip(r1).zip(r2).zip(r3);
        for (d, (((&a, &b), &c), &e)) in dst.chunks_exact_mut(rows).zip(lanes) {
            d[j..j + 4].copy_from_slice(&[a, b, c, e]);
        }
    }
    let done = rows - rows % 4;
    for (j, row) in quads.remainder().chunks_exact(cols).enumerate() {
        for (d, &v) in dst.chunks_exact_mut(rows).zip(row) {
            d[done + j] = v;
        }
    }
}

/// Name of the rounding family runtime dispatch selects on this machine
/// for calls of SIMD width: `"avx2+fma"`, `"neon"` or `"scalar"`. Narrow
/// calls (under 8 columns on x86-64, under 4 on aarch64) take the portable
/// body's two-rounding chain regardless of the reported tier; the bench
/// harness prints this value so recorded numbers can be attributed to a
/// tier.
///
/// The name is the *rounding family*, not the instruction set: an
/// avx512f host reports `"avx2+fma"` too, because its AVX-512 body
/// computes every element as the same single-rounding FMA chain as the
/// AVX2 body, bit for bit. The pinned digests (`train_digest`,
/// `search_digest`) check for this string.
pub fn kernel_tier() -> &'static str {
    match simd_min_width() {
        8 => "avx2+fma",
        4 => "neon",
        _ => "scalar",
    }
}

/// Smallest width at which [`fused_layer`] runs a SIMD body instead of
/// the portable two-rounding chain: 8 with avx2+fma on x86-64, 4 with
/// NEON on aarch64, never elsewhere.
fn simd_min_width() -> usize {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        return 8;
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        return 4;
    }
    usize::MAX
}

/// Portable body of [`FusedLayer`], in safe code: blocks of 4 rows (a
/// fringe block repeats its last row and stores only its own), 8-column
/// register tiles, then one column at a time. Every element is one
/// two-rounding chain `acc + a * b` over `k` in order from its seed, then
/// `+ bias`, then `max(0.0)`.
///
/// # Panics
/// Panics on the calls the SIMD bodies refuse: a window stride below `n`,
/// or a call reaching past `a`, `b`, `bias` or `out`.
fn matmul_portable(l: &FusedLayer<'_>, out: &mut [f32]) {
    let (a_lim, o_lim) = l.row_limits(out.len());
    for i in (0..l.m).step_by(4) {
        let rows = (l.m - i).min(4);
        let ab: [usize; 4] = std::array::from_fn(|r| row_base(l.a_rows, i + r.min(rows - 1), l.a_rs, a_lim));
        let ob: [usize; 4] = std::array::from_fn(|r| row_base(l.out_rows, i + r.min(rows - 1), l.out_rs, o_lim));
        let mut j = 0;
        while j + 8 <= l.n {
            portable_tile::<8>(l, (&ab, &ob, rows, j), out);
            j += 8;
        }
        while j < l.n {
            portable_tile::<1>(l, (&ab, &ob, rows, j), out);
            j += 1;
        }
    }
}

/// One `4 x W` register tile of [`matmul_portable`] at column `j`: seed,
/// `k` chain, epilogue, then a store of the block's first `rows` rows.
#[inline(always)]
fn portable_tile<const W: usize>(
    l: &FusedLayer<'_>,
    (ab, ob, rows, j): (&[usize; 4], &[usize; 4], usize, usize),
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; 4];
    if l.accumulate {
        for (acc_r, &o) in acc.iter_mut().zip(ob) {
            acc_r.copy_from_slice(&out[o + j..o + j + W]);
        }
    }
    for k in 0..l.kd {
        let bk = &l.b[k * l.b_rs + j..k * l.b_rs + j + W];
        for (acc_r, &a) in acc.iter_mut().zip(ab) {
            let av = l.a[a + k * l.a_ks];
            for (v, &bv) in acc_r.iter_mut().zip(bk) {
                *v += av * bv;
            }
        }
    }
    for (acc_r, &o) in acc.iter().zip(ob).take(rows) {
        for (c, (dst, &v)) in out[o + j..o + j + W].iter_mut().zip(acc_r).enumerate() {
            let v = l.bias.map_or(v, |bias| v + bias[j + c]);
            *dst = if l.relu { v.max(0.0) } else { v };
        }
    }
}

/// Descriptor of one matmul call — every matmul, training's and
/// serving's, on every tier, is one [`fused_layer`] call of it:
/// `out[o(i)][j] = epilogue(seed(i, j) + Σ_k a[a(i)][k] * b[k][j])`
/// for `m` logical rows, `n` columns and a `kd`-deep reduction. Row `i`
/// reads physical row `a(i) = a_rows[i]` of `a` and writes physical row
/// `o(i) = out_rows[i]` of `out` when a map is given (else `i`), so a
/// layer can read gathered rows and scatter its output without
/// materializing either permutation.
///
/// * **Seed.** With `accumulate` every accumulator starts from the
///   current `out` element (`matmul_acc`, `t_matmul_acc`); without it
///   from `+0.0`, so `out` may be unzeroed scratch
///   ([`Tensor::affine_into`], [`Tensor::matmul_into`] and the stacked
///   layers).
/// * **Epilogue.** An optional `bias` add (`n` entries), then an optional
///   ReLU.
///
/// # Bitwise identity
///
/// Every body computes every element as one in-order chain over `k` from
/// its seed, whichever tile, fringe or lane width it lands in — lane
/// grouping changes which elements travel together, never what any
/// element accumulates. The chain is the body's rounding family: a
/// single-rounding FMA chain on the SIMD tile (every lane type, and
/// `f32::mul_add` in its scalar column fringe), the two-rounding
/// `acc + a * b` on the portable body. Hence:
///
/// * Seeding `+0.0` equals seeding from a zero-filled destination:
///   `fma(a, b, +0.0)` is `fma(a, b, load(out))` when `out` holds `+0.0`,
///   and `+0.0 + a * b` is the same sum either way.
/// * The x86 ReLU is `max(v, +0.0)`, i.e. `if v > 0.0 { v } else { 0.0 }`,
///   and so is the tile's scalar column fringe on every tier. NEON's
///   registers use `fmaxnm`, which is that too on every value a chain
///   yields (it takes `+0.0` over `-0.0` and a number over a quiet NaN).
///   The portable body's `v.max(0.0)` may differ from it only at
///   `v = -0.0`, and `acc + bias` is `-0.0` only when both addends are.
/// * Written through an output map, an element equals a scatter-add onto
///   a zeroed row (`+0.0 + v`) unless it is `-0.0`. The ReLU never
///   yields `-0.0`, and a bias never is: it starts at `+0.0`, and Adam's
///   `p -= u` reaches `-0.0` only from `p = -0.0`.
/// * The scalar column fringe of the AVX2 and NEON entries chains
///   `mul_add` from the same seed, and the AVX-512 entry's masked tail
///   chains the same FMAs, its masked-off lanes neither read nor written.
#[derive(Clone, Copy)]
pub(crate) struct FusedLayer<'a> {
    /// Input base (possibly a member column window of a wider matrix):
    /// element `(i, k)` is `a[a(i) * a_rs + k * a_ks]`.
    pub a: &'a [f32],
    pub a_rs: usize,
    pub a_ks: usize,
    pub a_rows: Option<&'a [usize]>,
    /// Logical row count and reduction depth.
    pub m: usize,
    pub kd: usize,
    /// Weight window, row stride `b_rs >= n`.
    pub b: &'a [f32],
    pub b_rs: usize,
    pub n: usize,
    /// Output window, row stride `out_rs >= n`.
    pub out_rs: usize,
    pub out_rows: Option<&'a [usize]>,
    /// Seed the accumulators from `out` instead of `+0.0`.
    pub accumulate: bool,
    /// Epilogue: bias window (`n` entries), then ReLU.
    pub bias: Option<&'a [f32]>,
    pub relu: bool,
}

impl FusedLayer<'_> {
    /// Checks the call's window strides, `b` window and bias against
    /// their slices, and returns the largest row base offset `a` and an
    /// `out` of `out_len` elements can take. A kernel that checks every
    /// row base against these (see [`row_base`]) forms no address outside
    /// `a`, `b`, `bias` or `out`: that is what makes the SIMD bodies'
    /// raw-pointer loads and stores sound. The portable body runs the same
    /// checks, so every body refuses the same calls.
    fn row_limits(&self, out_len: usize) -> (usize, usize) {
        assert!(
            self.b_rs >= self.n && self.out_rs >= self.n,
            "window row stride below its width"
        );
        if let Some(bias) = self.bias {
            assert!(bias.len() >= self.n, "bias window too short");
        }
        if self.m == 0 || self.n == 0 {
            // No element is read or written.
            return (usize::MAX, usize::MAX);
        }
        let a_lim = match self.kd.checked_sub(1) {
            // `a` and `b` are never read.
            None => usize::MAX,
            Some(k_last) => {
                let b_end = k_last.checked_mul(self.b_rs).and_then(|x| x.checked_add(self.n));
                assert!(b_end.is_some_and(|end| end <= self.b.len()), "weight window too short");
                let a_span = k_last.checked_mul(self.a_ks).filter(|&span| span < self.a.len());
                self.a.len() - 1 - a_span.expect("input too short")
            }
        };
        let o_lim = out_len.checked_sub(self.n).expect("output too short");
        (a_lim, o_lim)
    }
}

/// Offset of logical row `i`'s first element on one side of a
/// [`FusedLayer`] call — its physical row through `map` when there is
/// one, times the row stride `rs` — checked against that side's limit
/// from `row_limits`. Inlined into the kernels' row loops, the check is a
/// compare per row, not a pass over the row maps.
#[inline(always)]
fn row_base(map: Option<&[usize]>, i: usize, rs: usize, lim: usize) -> usize {
    let row = map.map_or(i, |rows| rows[i]);
    match row.checked_mul(rs) {
        Some(base) if base <= lim => base,
        _ => panic!("row {row} lies outside its matrix"),
    }
}

/// Runs one [`FusedLayer`] call — the one dispatcher of every matmul.
/// From [`simd_min_width`] columns on it runs this machine's entry of the
/// one SIMD tile (on x86-64 AVX-512 when avx512f is detected, else AVX2;
/// on aarch64 NEON); every narrower call, and every call on a target
/// without a SIMD tier, runs the portable body's two-rounding chain.
///
/// # Panics
/// Panics when a window stride is below `n`, or the call's shapes,
/// strides or row maps would reach past `a`, `b`, `bias` or `out`
/// (checked before the call touches them).
pub(crate) fn fused_layer(l: &FusedLayer<'_>, out: &mut [f32]) {
    if l.n < simd_min_width() {
        return matmul_portable(l, out);
    }
    // SAFETY: `simd_min_width` is finite only where avx2 and fma (x86-64)
    // or NEON (aarch64) were detected, avx512f is detected before its body
    // runs, and each body checks its own bounds.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        if is_x86_feature_detected!("avx512f") {
            matmul_avx512(l, out);
        } else {
            matmul_avx2(l, out);
        }
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        matmul_neon(l, out);
    }
}

/// AVX-512 entry of [`FusedLayer`]: the one tile in zmm registers, 6-row
/// blocks of 48 columns (18 accumulators and 3 `b` registers), then
/// 16-column tiles, then one masked tile for the last `< 16` columns.
///
/// # Safety
/// The CPU must support avx512f.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_avx512(l: &FusedLayer<'_>, out: &mut [f32]) {
    register_tiled::<std::arch::x86_64::__m512, 6, 3>(l, out)
}

/// AVX2+FMA entry of [`FusedLayer`]: the one tile in ymm registers, 4-row
/// blocks of 24 columns (12 accumulators and 3 `b` registers, the widest
/// tile that fits ymm), then 8-column tiles, then a scalar `mul_add`
/// column fringe.
///
/// # Safety
/// The CPU must support avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_avx2(l: &FusedLayer<'_>, out: &mut [f32]) {
    register_tiled::<std::arch::x86_64::__m256, 4, 3>(l, out)
}

/// NEON entry of [`FusedLayer`]: the one tile in `float32x4_t` registers,
/// 4-row blocks of 8 columns, then 4-column tiles, then a scalar `mul_add`
/// column fringe. NEON is baseline on aarch64, so unlike AVX2 there is no
/// per-feature fallback concern.
///
/// # Safety
/// The CPU must support NEON.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn matmul_neon(l: &FusedLayer<'_>, out: &mut [f32]) {
    register_tiled::<std::arch::aarch64::float32x4_t, 4, 2>(l, out)
}

/// The register operations of one SIMD tier: all that [`register_tiled`]
/// asks of it. A lane type is one register of `W` `f32` lanes; pointers
/// need no alignment.
///
/// The methods are `unsafe` because they may run only inlined into their
/// tier's `#[target_feature]` entry, and because they read or write `W`
/// floats at `p` (the first `n` for `load_first` and `store_first`),
/// which the tile checks with [`row_base`] before it forms the pointer.
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "aarch64")), allow(dead_code))]
trait Lanes: Copy {
    /// Lanes per register.
    const W: usize;
    /// Whether the columns past the last whole register run as one masked
    /// tile (`load_first`, `store_first`) rather than one `mul_add` chain
    /// per element.
    const MASKED: bool = false;
    /// `v` in every lane.
    unsafe fn splat(v: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    /// The first `n < W` lanes from `p`, the others `+0.0`; nothing past
    /// them is read.
    unsafe fn load_first(_n: usize, _p: *const f32) -> Self {
        unreachable!("only a masked tier loads part of a register")
    }
    /// The first `n < W` lanes to `p`; nothing past them is written.
    unsafe fn store_first(self, _n: usize, _p: *mut f32) {
        unreachable!("only a masked tier stores part of a register")
    }
    /// `a * b + acc` per lane, rounded once.
    unsafe fn fma(a: Self, b: Self, acc: Self) -> Self;
    unsafe fn add(self, other: Self) -> Self;
    /// The tier's ReLU per lane (see [`FusedLayer`] on `-0.0`).
    unsafe fn relu(self) -> Self;
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Lanes;
    use std::arch::x86_64::*;

    impl Lanes for __m512 {
        const W: usize = 16;
        const MASKED: bool = true;
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm512_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn load_first(n: usize, p: *const f32) -> Self {
            _mm512_maskz_loadu_ps((1 << n) - 1, p)
        }
        #[inline(always)]
        unsafe fn store_first(self, n: usize, p: *mut f32) {
            _mm512_mask_storeu_ps(p, (1 << n) - 1, self)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, acc: Self) -> Self {
            _mm512_fmadd_ps(a, b, acc)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            _mm512_add_ps(self, other)
        }
        /// `max(v, +0.0)`: `if v > 0.0 { v } else { 0.0 }`.
        #[inline(always)]
        unsafe fn relu(self) -> Self {
            _mm512_max_ps(self, _mm512_setzero_ps())
        }
    }

    impl Lanes for __m256 {
        const W: usize = 8;
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, acc: Self) -> Self {
            _mm256_fmadd_ps(a, b, acc)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            _mm256_add_ps(self, other)
        }
        /// `max(v, +0.0)`: `if v > 0.0 { v } else { 0.0 }`.
        #[inline(always)]
        unsafe fn relu(self) -> Self {
            _mm256_max_ps(self, _mm256_setzero_ps())
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::Lanes;
    use std::arch::aarch64::*;

    impl Lanes for float32x4_t {
        const W: usize = 4;
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            vdupq_n_f32(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            vld1q_f32(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            vst1q_f32(p, self)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, acc: Self) -> Self {
            vfmaq_f32(acc, a, b)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            vaddq_f32(self, other)
        }
        /// `fmaxnm(v, +0.0)`, what `f32::max` compiles to on aarch64.
        #[inline(always)]
        unsafe fn relu(self) -> Self {
            vmaxnmq_f32(self, vdupq_n_f32(0.0))
        }
    }
}

/// The one register-tiled body of every SIMD tier, over lane type `L`:
/// blocks of `ROWS` rows, each a row of tiles `WIDE` registers wide, then
/// one register wide, then the tier's column fringe (see
/// [`register_tiled_rows`]); then one fringe block of the last
/// `m % ROWS` rows with the same column structure, so every block is a
/// fixed-size register tile. Every element is one in-order `L::fma` chain
/// from its seed.
///
/// # Safety
/// `L`'s instructions must be enabled: it runs inlined into its tier's
/// `#[target_feature]` entry. Bounds are the body's own: it checks the
/// call with `row_limits` and every row base with [`row_base`].
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "aarch64")), allow(dead_code))]
#[inline(always)]
unsafe fn register_tiled<L: Lanes, const ROWS: usize, const WIDE: usize>(l: &FusedLayer<'_>, out: &mut [f32]) {
    const { assert!(4 <= ROWS && ROWS <= 6, "the row fringe has blocks of 1 to 5 rows") };
    let lim = l.row_limits(out.len());
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i + ROWS <= l.m {
        register_tiled_rows::<L, ROWS, WIDE>(l, lim, i, op);
        i += ROWS;
    }
    // A guard on `ROWS` keeps a body from compiling a fringe block it
    // can never run.
    match l.m - i {
        0 => {}
        1 => register_tiled_rows::<L, 1, WIDE>(l, lim, i, op),
        2 => register_tiled_rows::<L, 2, WIDE>(l, lim, i, op),
        3 => register_tiled_rows::<L, 3, WIDE>(l, lim, i, op),
        4 if ROWS > 4 => register_tiled_rows::<L, 4, WIDE>(l, lim, i, op),
        5 if ROWS > 5 => register_tiled_rows::<L, 5, WIDE>(l, lim, i, op),
        _ => unreachable!("a row fringe is shorter than a block"),
    }
}

/// One block of [`register_tiled`]: logical rows `i..i + R`, every column.
/// `WIDE`-register tiles, then one-register tiles, then the columns left:
/// one masked tile on a masked tier, else one `mul_add` chain per element
/// (`f32::mul_add` is the same single-rounding FMA).
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "aarch64")), allow(dead_code))]
#[inline(always)]
unsafe fn register_tiled_rows<L: Lanes, const R: usize, const WIDE: usize>(
    l: &FusedLayer<'_>,
    (a_lim, o_lim): (usize, usize),
    i: usize,
    op: *mut f32,
) {
    let ab: [usize; R] = std::array::from_fn(|r| row_base(l.a_rows, i + r, l.a_rs, a_lim));
    let ob: [usize; R] = std::array::from_fn(|r| row_base(l.out_rows, i + r, l.out_rs, o_lim));
    let rows = (&ab, &ob);
    let mut j = 0;
    while j + WIDE * L::W <= l.n {
        register_tile::<L, R, WIDE, false>(l, rows, j, L::W, op);
        j += WIDE * L::W;
    }
    while j + L::W <= l.n {
        register_tile::<L, R, 1, false>(l, rows, j, L::W, op);
        j += L::W;
    }
    if L::MASKED {
        if j < l.n {
            register_tile::<L, R, 1, true>(l, rows, j, l.n - j, op);
        }
        return;
    }
    let (ap, bp) = (l.a.as_ptr(), l.b.as_ptr());
    for j in j..l.n {
        for (&a, &o) in ab.iter().zip(&ob) {
            let o = op.add(o + j);
            let mut v = if l.accumulate { *o } else { 0.0f32 };
            for k in 0..l.kd {
                v = (*ap.add(k * l.a_ks + a)).mul_add(*bp.add(k * l.b_rs + j), v);
            }
            if let Some(bias) = l.bias {
                v += bias[j];
            }
            // The x86 ReLU, `max(v, +0.0)`, on one element.
            *o = if !l.relu || v > 0.0 { v } else { 0.0 };
        }
    }
}

/// One `R x C`-register tile of [`register_tiled`] at column `j`: seed,
/// `k` chain, epilogue, store. With `MASK` the one register holds only
/// the first `lanes` columns (a masked tier's column fringe). The
/// branches on the call's flags are taken once per tile, not per
/// register.
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "aarch64")), allow(dead_code))]
#[inline(always)]
unsafe fn register_tile<L: Lanes, const R: usize, const C: usize, const MASK: bool>(
    l: &FusedLayer<'_>,
    (ab, ob): (&[usize; R], &[usize; R]),
    j: usize,
    lanes: usize,
    op: *mut f32,
) {
    let load = |p: *const f32| if MASK { L::load_first(lanes, p) } else { L::load(p) };
    let (ap, bp) = (l.a.as_ptr(), l.b.as_ptr());
    let mut acc: [[L; C]; R] = if l.accumulate {
        std::array::from_fn(|r| std::array::from_fn(|c| load(op.add(ob[r] + j + c * L::W))))
    } else {
        [[L::splat(0.0); C]; R]
    };
    for k in 0..l.kd {
        let (ak, bk) = (ap.add(k * l.a_ks), bp.add(k * l.b_rs + j));
        let bv: [L; C] = std::array::from_fn(|c| load(bk.add(c * L::W)));
        for (acc_r, &a) in acc.iter_mut().zip(ab) {
            let av = L::splat(*ak.add(a));
            for (v, &b) in acc_r.iter_mut().zip(&bv) {
                *v = L::fma(av, b, *v);
            }
        }
    }
    if let Some(bias) = l.bias {
        let bv: [L; C] = std::array::from_fn(|c| load(bias.as_ptr().add(j + c * L::W)));
        for acc_r in &mut acc {
            for (v, &b) in acc_r.iter_mut().zip(&bv) {
                *v = v.add(b);
            }
        }
    }
    for (acc_r, &o) in acc.iter().zip(ob) {
        for (c, &v) in acc_r.iter().enumerate() {
            let v = if l.relu { v.relu() } else { v };
            let p = op.add(o + j + c * L::W);
            if MASK {
                v.store_first(lanes, p)
            } else {
                v.store(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `transpose_into` writes exactly `out[c][r] = self[r][c]` for every
    /// shape up to 9 x 9 — every count of four-row blocks and every
    /// remainder, empty shapes included — and for a weight's 64 x 48.
    #[test]
    fn transpose_into_is_its_definition_for_every_small_shape() {
        let shapes = (0..=9).flat_map(|r| (0..=9).map(move |c| (r, c))).chain([(64, 48)]);
        for (rows, cols) in shapes {
            let data = (0..rows * cols).map(|i| i as f32 * 0.5 - 3.0).collect();
            let src = Tensor::from_vec(rows, cols, data);
            let mut out = Tensor::from_vec(cols, rows, vec![f32::NAN; rows * cols]);
            src.transpose_into(&mut out);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(
                        out.get(c, r).to_bits(),
                        src.get(r, c).to_bits(),
                        "{rows}x{cols} at ({r}, {c})"
                    );
                }
            }
        }
    }

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f64;
                for k in 0..a.cols() {
                    acc += a.get(i, k) as f64 * b.get(k, j) as f64;
                }
                out.set(i, j, acc as f32);
            }
        }
        out
    }

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| ((i as f32 * 0.137 + seed as f32 * 0.311).sin() * 2.0) - 0.3)
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(2, 3);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.get(1, 0), 3.0);
        assert_eq!(t.row_slice(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    fn read(text: &str) -> Result<Tensor, DeError> {
        Tensor::read_json(&mut json::Reader::new(text))
    }

    #[test]
    fn a_stored_tensor_with_data_past_its_shape_does_not_load() {
        let err = read(r#"{"rows":1,"cols":2,"data":[1,2,3]}"#).expect_err("3 floats in a 1x2 tensor");
        assert!(err.0.contains("1x2"), "{err}");
        let huge = format!(r#"{{"rows":{},"cols":2,"data":[1,2]}}"#, usize::MAX);
        assert!(read(&huge).is_err(), "rows x cols overflows");
        let t = read(r#"{"rows":1,"cols":2,"data":[1,2]}"#).expect("a well-formed tensor loads");
        assert_eq!(t, Tensor::from_vec(1, 2, vec![1.0, 2.0]));
    }

    #[test]
    fn a_stored_tensor_with_data_short_of_its_shape_does_not_load() {
        assert!(read(r#"{"rows":4,"cols":4,"data":[1]}"#).is_err());
        assert!(read(r#"{"rows":0,"cols":3,"data":[]}"#).is_ok());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        // a^T is 2x3, result 2x2
        let c = a.t_matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        // a^T = [[1,3,5],[2,4,6]]; a^T@b = [[1+5, 3+5],[2+6, 4+6]]
        assert_eq!(c.data(), &[6.0, 8.0, 8.0, 10.0]);
    }

    #[test]
    fn matmul_t_matches_matmul_of_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(2, 3, vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0]);
        let c = a.matmul_t(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[3.0, 5.0, 9.0, 11.0]);
    }

    #[test]
    fn add_scale_sum_mean() {
        let mut a = Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        a.add_assign(&b);
        assert_eq!(a.data().iter().sum::<f32>(), 14.0);
        a.scale_assign(0.5);
        assert_eq!(a.data().iter().sum::<f32>() / 4.0, 1.75);
    }

    #[test]
    fn blocked_matmul_matches_naive_on_odd_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 16),
            (5, 13, 3),
            (7, 26, 48),
            (64, 48, 32),
            (9, 2, 1),
        ] {
            let a = pseudo_random(m, k, 1);
            let b = pseudo_random(k, n, 2);
            let fast = a.matmul(&b);
            let slow = naive_matmul(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()), "{m}x{k}@{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn blocked_matmul_handles_zeros_in_activations() {
        // The old kernel special-cased a == 0.0; the new one must produce
        // identical results on sparse (post-ReLU-like) inputs.
        let mut a = pseudo_random(6, 9, 3);
        for v in a.data_mut().iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let b = pseudo_random(9, 4, 4);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn t_matmul_blocked_matches_naive() {
        for &(r, ca, cb) in &[(1, 2, 3), (4, 4, 4), (5, 3, 7), (13, 8, 2), (64, 32, 48)] {
            let a = pseudo_random(r, ca, 5);
            let b = pseudo_random(r, cb, 6);
            let fast = a.t_matmul(&b);
            // a^T @ b via explicit transpose + naive product.
            let mut at = Tensor::zeros(ca, r);
            for i in 0..r {
                for j in 0..ca {
                    at.set(j, i, a.get(i, j));
                }
            }
            let slow = naive_matmul(&at, &b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!(
                    (x - y).abs() < 1e-3 * (1.0 + y.abs()),
                    "{r}x{ca}^T@{r}x{cb}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn matmul_t_unrolled_matches_naive() {
        for &(m, k, rb) in &[(1, 1, 1), (3, 5, 2), (4, 9, 4), (6, 26, 3)] {
            let a = pseudo_random(m, k, 7);
            let b = pseudo_random(rb, k, 8);
            let fast = a.matmul_t(&b);
            let mut bt = Tensor::zeros(k, rb);
            for i in 0..rb {
                for j in 0..k {
                    bt.set(j, i, b.get(i, j));
                }
            }
            let slow = naive_matmul(&a, &bt);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()));
            }
        }
    }

    /// `t_matmul` reaches the dispatch through a strided view of `a`; the
    /// materialized transpose pushed through `matmul` takes the exact same
    /// kernel with the same accumulation order, so the two must agree
    /// **bitwise** on every machine and tier.
    #[test]
    fn t_matmul_bitwise_matches_shared_kernel_on_transpose() {
        for &(r, ca, cb) in &[(1, 2, 3), (4, 4, 4), (5, 3, 7), (13, 8, 2), (64, 32, 48), (256, 64, 48)] {
            let a = pseudo_random(r, ca, 11);
            let b = pseudo_random(r, cb, 12);
            let mut at = Tensor::zeros(ca, r);
            for i in 0..r {
                for j in 0..ca {
                    at.set(j, i, a.get(i, j));
                }
            }
            assert_eq!(
                a.t_matmul(&b).data(),
                at.matmul(&b).data(),
                "{r}x{ca}^T @ {r}x{cb} diverged from the shared kernel"
            );
        }
    }

    /// `matmul_t` transposes its right operand once and runs the shared
    /// kernel; pre-transposing by hand and calling `matmul` must therefore
    /// agree **bitwise**.
    #[test]
    fn matmul_t_bitwise_matches_shared_kernel_on_transpose() {
        for &(m, k, rb) in &[(1, 1, 1), (3, 5, 2), (4, 9, 4), (6, 26, 3), (64, 48, 64), (128, 32, 64)] {
            let a = pseudo_random(m, k, 13);
            let b = pseudo_random(rb, k, 14);
            let mut bt = Tensor::zeros(k, rb);
            for i in 0..rb {
                for j in 0..k {
                    bt.set(j, i, b.get(i, j));
                }
            }
            assert_eq!(
                a.matmul_t(&b).data(),
                a.matmul(&bt).data(),
                "{m}x{k} @ ({rb}x{k})^T diverged from the shared kernel"
            );
        }
    }

    /// Every SIMD tier must agree with the portable body's two-rounding
    /// chain to f32 round-off (FMA contracts one rounding step, so the
    /// comparison is tolerance-based; the dispatch itself is exact per
    /// machine).
    #[test]
    fn dispatched_kernels_match_scalar_reference() {
        for &(m, k, n) in &[(4, 8, 16), (7, 26, 48), (64, 64, 48), (5, 13, 9), (64, 64, 33)] {
            let a = pseudo_random(m, k, 15);
            let b = pseudo_random(k, n, 16);
            // Forward orientation.
            let fast = a.matmul(&b);
            let mut slow = Tensor::zeros(m, n);
            matmul_portable(&a.dense(&b), slow.data_mut());
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-4 * (1.0 + y.abs()), "matmul {m}x{k}x{n}: {x} vs {y}");
            }
            // Transposed-A orientation (the t_matmul stride pattern):
            // (k x n)^T @ (k x n) = n x n through both paths.
            let tf = b.t_matmul(&b);
            let mut ts = Tensor::zeros(n, n);
            let strided = FusedLayer {
                a_rs: 1,
                a_ks: n,
                m: n,
                kd: k,
                ..b.dense(&b)
            };
            matmul_portable(&strided, ts.data_mut());
            for (x, y) in tf.data().iter().zip(ts.data()) {
                assert!((x - y).abs() < 1e-4 * (1.0 + y.abs()), "t_matmul {k}x{n}^T: {x} vs {y}");
            }
        }
        eprintln!("active kernel tier: {}", kernel_tier());
    }

    #[test]
    fn acc_variants_accumulate_instead_of_overwriting() {
        let a = pseudo_random(3, 4, 17);
        let b = pseudo_random(4, 5, 18);
        let mut out = a.matmul(&b);
        a.matmul_acc(&b, &mut out); // out = 2 * (a @ b)
        let once = a.matmul(&b);
        for (x, y) in out.data().iter().zip(once.data()) {
            assert!((x - 2.0 * y).abs() < 1e-5 * (1.0 + y.abs()));
        }

        let g = pseudo_random(6, 5, 19);
        let w = pseudo_random(4, 5, 20); // g @ w^T : 6x4
        let mut acc = g.matmul_t(&w);
        g.matmul_t_acc(&w, &mut acc);
        let one = g.matmul_t(&w);
        for (x, y) in acc.data().iter().zip(one.data()) {
            assert!((x - 2.0 * y).abs() < 1e-5 * (1.0 + y.abs()));
        }

        let x = pseudo_random(6, 4, 21);
        let mut tacc = x.t_matmul(&g); // 4x5
        x.t_matmul_acc(&g, &mut tacc);
        let tone = x.t_matmul(&g);
        for (u, v) in tacc.data().iter().zip(tone.data()) {
            assert!((u - 2.0 * v).abs() < 1e-5 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn kernel_tier_reports_a_known_tier() {
        assert!(matches!(kernel_tier(), "avx2+fma" | "neon" | "scalar"));
    }

    #[test]
    fn fused_affine_matches_unfused() {
        let x = pseudo_random(5, 8, 9);
        let w = pseudo_random(8, 6, 10);
        let bias = pseudo_random(1, 6, 11);
        let mut fused = Tensor::zeros(5, 6);
        Tensor::affine_into(&x, &w, &bias, true, &mut fused);
        let mut unfused = x.matmul(&w);
        for r in 0..unfused.rows() {
            let row = unfused.row_slice_mut(r);
            for (o, &b) in row.iter_mut().zip(bias.data()) {
                *o += b;
            }
        }
        for v in unfused.data_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        assert_eq!(fused.data(), unfused.data());
    }

    /// [`Tensor::copy_rows`] (`add: false`) or [`Tensor::add_rows`]
    /// written out: one element at a time, pairs in order, blocks in
    /// order.
    fn move_rows_reference(dst: &mut Tensor, src: &Tensor, pairs: &[(usize, usize)], win: Window, add: bool) {
        let (dbw, sbw) = (dst.cols() / win.k, src.cols() / win.k);
        for &(d, s) in pairs {
            for m in 0..win.k {
                for c in 0..win.width {
                    let v = src.get(s, m * sbw + win.src + c);
                    let at = m * dbw + win.dst + c;
                    let new = if add { dst.get(d, at) + v } else { v };
                    dst.set(d, at, new);
                }
            }
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Both routines are their written-out loops, bit for bit, over one,
    /// two and three member blocks, zero and non-zero window offsets on
    /// either side, empty and repeating pair lists, and destinations
    /// prefilled with NaN: a copy writes exactly its window, and an add
    /// leaves every cell outside it bit-identical. The source values
    /// mix magnitudes from 1e-3 to 1e8 of both signs, so a sum into a
    /// repeated destination row depends on its order (checked below):
    /// a routine that reordered its pairs would fail. The pair lists
    /// include the cases of the gather, scatter, segment-sum and
    /// concatenation loops these two replaced, with their values.
    #[test]
    fn copy_rows_and_add_rows_are_their_written_out_loops() {
        // The replaced loops' cases, on their own 3 x 2 matrix: a gather,
        // a segment sum (which is also the edge sum with rows 0, 1, 2),
        // a scatter-add of two rows into one and a concatenation.
        let x = Tensor::from_vec(3, 2, vec![1.0, 2.0, 10.0, 20.0, 100.0, 200.0]);
        let mut g = Tensor::zeros(2, 2);
        g.copy_rows(&x, [(0, 2), (1, 0)], Window::cols(2));
        assert_eq!(g.data(), &[100.0, 200.0, 1.0, 2.0]);
        let mut seg = Tensor::zeros(2, 2);
        x.segment_sum_into(&[0, 1, 0], &mut seg);
        assert_eq!(seg.data(), &[101.0, 202.0, 10.0, 20.0]);
        let mut acc = Tensor::zeros(3, 2);
        acc.add_rows(&g, [(1, 0), (1, 1)], Window::cols(2));
        assert_eq!(acc.data(), &[0.0, 0.0, 101.0, 202.0, 0.0, 0.0]);
        let mut cat = Tensor::zeros(3, 4);
        let same = || (0..3).map(|r| (r, r));
        cat.copy_rows(&x, same(), Window::cols(2));
        cat.copy_rows(&x, same(), Window::cols(2).dst(2));
        assert_eq!(cat.row_slice(1), &[10.0, 20.0, 10.0, 20.0]);

        let pair_lists: Vec<Vec<(usize, usize)>> = vec![
            vec![],
            vec![(0, 2), (1, 0)],
            vec![(0, 0), (1, 1), (0, 2)],
            vec![(1, 0), (1, 1)],
            (0..3).map(|r| (r, r)).collect(),
            vec![(2, 0), (2, 1), (2, 2), (2, 3), (0, 3), (2, 0), (1, 2), (0, 0), (0, 1)],
            (0..4).map(|s| (0, s)).collect(),
        ];
        let magnitudes = [1.0e8f32, 1.0, -1.0e8, 3.0e-3, 7.0e7, -3.25, -7.0e7, 0.5];
        let mut order_matters = false;
        for k in 1..=3 {
            for (dst_w, src_w, dst, src, width) in [(2, 2, 0, 0, 2), (5, 3, 2, 1, 2), (4, 6, 0, 3, 3), (3, 3, 1, 0, 1)]
            {
                let win = Window::cols(width).blocks(k).dst(dst).src(src);
                let src_data = (0..4 * k * src_w)
                    .map(|i| magnitudes[i % magnitudes.len()] * (1.0 + i as f32 / 64.0))
                    .collect();
                let source = Tensor::from_vec(4, k * src_w, src_data);
                let in_window = |c: usize| (dst..dst + width).contains(&(c % dst_w));
                for pairs in &pair_lists {
                    for add in [false, true] {
                        // NaN everywhere a copy must not read back; an add
                        // starts its window from finite values.
                        let prefill = (0..3 * k * dst_w)
                            .map(|i| {
                                if add && in_window(i % (k * dst_w)) {
                                    0.25 * i as f32
                                } else {
                                    f32::NAN
                                }
                            })
                            .collect();
                        let prefilled = Tensor::from_vec(3, k * dst_w, prefill);
                        let (mut want, mut got) = (prefilled.clone(), prefilled.clone());
                        move_rows_reference(&mut want, &source, pairs, win, add);
                        if add {
                            got.add_rows(&source, pairs.iter().copied(), win);
                        } else {
                            got.copy_rows(&source, pairs.iter().copied(), win);
                        }
                        let case = format!("k {k}, {win:?}, pairs {pairs:?}, add {add}");
                        assert_eq!(bits(&got), bits(&want), "{case}");
                        let mut reversed = prefilled;
                        let back: Vec<_> = pairs.iter().rev().copied().collect();
                        move_rows_reference(&mut reversed, &source, &back, win, add);
                        order_matters |= add && bits(&reversed) != bits(&want);
                    }
                }
            }
        }
        assert!(order_matters, "some sum must depend on the order of its pairs");
    }

    /// A pair naming a row past either tensor, a window past either
    /// block, or a member count that does not divide a width panics,
    /// for a copy and for an add alike.
    #[test]
    fn rows_and_windows_out_of_range_panic() {
        let src = Tensor::zeros(2, 4);
        let cases = [
            ((2, 0), Window::cols(4)),
            ((0, 2), Window::cols(4)),
            ((0, 0), Window::cols(4).dst(1)),
            ((0, 0), Window::cols(2).src(3)),
            ((0, 0), Window::cols(1).blocks(3)),
        ];
        for ((d, s), win) in cases {
            for add in [false, true] {
                let moved = std::panic::catch_unwind(|| {
                    let mut dst = Tensor::zeros(2, 4);
                    if add {
                        dst.add_rows(&src, [(d, s)], win);
                    } else {
                        dst.copy_rows(&src, [(d, s)], win);
                    }
                });
                assert!(moved.is_err(), "pair ({d}, {s}), {win:?}, add {add} must panic");
            }
        }
    }

    /// The checks the SIMD bodies run before they touch memory: the
    /// limits admit exactly the row bases whose elements lie inside the
    /// slices, and a row past them, or one whose base overflows, panics.
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    #[test]
    fn row_checks_admit_exactly_the_rows_inside_the_slices() {
        // `a`: 3 rows of stride 2, depth 2; `out`: 3 rows of 4 in 12.
        let call = FusedLayer {
            a: &[0.0; 6],
            a_rs: 2,
            a_ks: 1,
            a_rows: None,
            m: 3,
            kd: 2,
            b: &[0.0; 8],
            b_rs: 4,
            n: 4,
            out_rs: 4,
            out_rows: None,
            accumulate: false,
            bias: None,
            relu: false,
        };
        let (a_lim, o_lim) = call.row_limits(12);
        assert_eq!((a_lim, o_lim), (4, 8));
        assert_eq!(row_base(Some(&[2]), 0, 2, a_lim), 4);
        assert_eq!(row_base(Some(&[2]), 0, 4, o_lim), 8);
        for row in [3, usize::MAX] {
            assert!(std::panic::catch_unwind(|| row_base(Some(&[row]), 0, 4, o_lim)).is_err());
        }
        let short_a = FusedLayer { a: &[0.0; 1], ..call };
        assert!(std::panic::catch_unwind(|| short_a.row_limits(12)).is_err());
        let short_b = FusedLayer { b: &[0.0; 7], ..call };
        assert!(std::panic::catch_unwind(|| short_b.row_limits(12)).is_err());
        assert!(std::panic::catch_unwind(|| call.row_limits(3)).is_err());
    }

    /// The scalar reference of a [`FusedLayer`] call: per element, a
    /// `mul_add` chain from its seed in `k` order, then the epilogue.
    fn fma_chain_reference(l: &FusedLayer<'_>, out: &mut [f32]) {
        for i in 0..l.m {
            let ar = l.a_rows.map_or(i, |r| r[i]);
            let or = l.out_rows.map_or(i, |r| r[i]);
            for j in 0..l.n {
                let o = or * l.out_rs + j;
                let mut acc = if l.accumulate { out[o] } else { 0.0 };
                for k in 0..l.kd {
                    acc = l.a[ar * l.a_rs + k * l.a_ks].mul_add(l.b[k * l.b_rs + j], acc);
                }
                if let Some(bias) = l.bias {
                    acc += bias[j];
                }
                if l.relu {
                    acc = if acc > 0.0 { acc } else { 0.0 };
                }
                out[o] = acc;
            }
        }
    }

    /// A stand-in register of `N` plain `f32` lanes, so the one tile runs
    /// in every tier's geometry on any host: lane-wise `mul_add` is the
    /// FMA and the ReLU is the x86 one. The 16-lane stand-in is AVX-512's
    /// and masked, as AVX-512 is.
    impl<const N: usize> Lanes for [f32; N] {
        const W: usize = N;
        const MASKED: bool = N == 16;
        unsafe fn splat(v: f32) -> Self {
            [v; N]
        }
        unsafe fn load(p: *const f32) -> Self {
            Self::load_first(N, p)
        }
        unsafe fn store(self, p: *mut f32) {
            self.store_first(N, p)
        }
        unsafe fn load_first(n: usize, p: *const f32) -> Self {
            std::array::from_fn(|i| if i < n { *p.add(i) } else { 0.0 })
        }
        unsafe fn store_first(self, n: usize, p: *mut f32) {
            for (i, v) in self.into_iter().enumerate().take(n) {
                *p.add(i) = v;
            }
        }
        unsafe fn fma(a: Self, b: Self, acc: Self) -> Self {
            std::array::from_fn(|i| a[i].mul_add(b[i], acc[i]))
        }
        unsafe fn add(self, other: Self) -> Self {
            std::array::from_fn(|i| self[i] + other[i])
        }
        unsafe fn relu(self) -> Self {
            self.map(|v| if v > 0.0 { v } else { 0.0 })
        }
    }

    /// The one register tile equals the `mul_add` chain bitwise in every
    /// tier's geometry — NEON's (4 rows x 2 registers of 4, `mul_add`
    /// fringe), AVX2's (4 x 3 of 8, `mul_add` fringe) and AVX-512's (6 x 3
    /// of 16, masked fringe), each through the stand-in lanes on any host —
    /// and so does every x86 entry this host supports, called directly
    /// rather than through dispatch. The matrix covers every row fringe
    /// of every geometry, column tiles and fringes, an `a` read with
    /// `a_ks = 1` and strided, `b` / `out` windows wider than `n`, row
    /// maps, both seeds and every epilogue; a body writes no cell outside
    /// the rows and columns it addresses, nor past the `out` it is given.
    #[test]
    fn every_simd_body_equals_the_fma_chain_bitwise() {
        type Body = unsafe fn(&FusedLayer<'_>, &mut [f32]);
        #[allow(unused_mut)] // no x86 entry joins on other hosts
        let mut bodies: Vec<(&str, Body)> = vec![
            ("neon stand-in", register_tiled::<[f32; 4], 4, 2>),
            ("avx2 stand-in", register_tiled::<[f32; 8], 4, 3>),
            ("avx512 stand-in", register_tiled::<[f32; 16], 6, 3>),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                bodies.push(("avx2", matmul_avx2));
            }
            if is_x86_feature_detected!("avx512f") {
                bodies.push(("avx512", matmul_avx512));
            }
        }
        let values = |len: usize, seed: u64| -> Vec<f32> { pseudo_random(1, len, seed).into_data() };
        let mut calls = 0usize;
        for m in 0..=13usize {
            for &n in &[4usize, 5, 8, 9, 15, 16, 17, 23, 24, 25, 47, 48, 49, 64, 97] {
                for &kd in &[0usize, 1, 7, 48, 64] {
                    for layout in 0..8u32 {
                        let (strided, window, maps) = (layout & 1 != 0, layout & 2 != 0, layout & 4 != 0);
                        let pad = if window { 3 } else { 0 };
                        // Physical rows behind the logical ones.
                        let (a_phys, o_phys) = if maps { (m + 2, m + 3) } else { (m, m) };
                        let (a_rs, a_ks) = if strided { (1, a_phys + pad) } else { (kd + pad, 1) };
                        let a = values((a_phys + pad) * (kd + pad), (m * 131 + n * 7 + kd) as u64);
                        let (b_rs, out_rs) = (n + pad, n + 2 * pad);
                        let b = values(kd * b_rs, (n * 17 + kd) as u64 + 5);
                        let bias = values(n, n as u64 + 9);
                        let a_rows: Vec<usize> = (0..m).map(|i| (i * 7 + 1) % a_phys).collect();
                        let out_rows: Vec<usize> = (0..m).map(|i| o_phys - 1 - i).collect();
                        // The body gets the first `out_len` cells; the rest
                        // is a guard it must not write.
                        let out_len = o_phys * out_rs;
                        let mut before = values(out_len + 16, (m + n + kd) as u64 + 3);
                        // A seed of -0.0 must chain as -0.0.
                        before[0] = -0.0;
                        for accumulate in [false, true] {
                            for (bias, relu) in [(None, false), (Some(&bias[..]), false), (Some(&bias[..]), true)] {
                                let call = FusedLayer {
                                    a: &a,
                                    a_rs,
                                    a_ks,
                                    a_rows: maps.then_some(&a_rows[..]),
                                    m,
                                    kd,
                                    b: &b,
                                    b_rs,
                                    n,
                                    out_rs,
                                    out_rows: maps.then_some(&out_rows[..]),
                                    accumulate,
                                    bias,
                                    relu,
                                };
                                let mut want = before.clone();
                                fma_chain_reference(&call, &mut want);
                                for (name, body) in &bodies {
                                    let mut got = before.clone();
                                    // SAFETY: an x86 entry's features were
                                    // detected above, a stand-in needs none, and
                                    // the tile checks its own bounds.
                                    unsafe { body(&call, &mut got[..out_len]) };
                                    calls += 1;
                                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                                    assert_eq!(
                                        bits(&got),
                                        bits(&want),
                                        "{name}: m={m} n={n} kd={kd} strided={strided} window={window} \
                                         maps={maps} accumulate={accumulate} bias={} relu={relu}",
                                        bias.is_some()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        eprintln!(
            "{calls} body calls held to the fma chain on {:?}",
            bodies.iter().map(|b| b.0).collect::<Vec<_>>()
        );
    }

    /// The two-rounding chain written out: per element `acc += a * b` in
    /// `k` order from its seed, then `+ bias`, then `max(0.0)`.
    fn two_rounding_reference(l: &FusedLayer<'_>, out: &mut [f32]) {
        for i in 0..l.m {
            let ar = l.a_rows.map_or(i, |r| r[i]);
            let or = l.out_rows.map_or(i, |r| r[i]);
            for j in 0..l.n {
                let o = or * l.out_rs + j;
                let mut acc = if l.accumulate { out[o] } else { 0.0 };
                for k in 0..l.kd {
                    acc += l.a[ar * l.a_rs + k * l.a_ks] * l.b[k * l.b_rs + j];
                }
                if let Some(bias) = l.bias {
                    acc += bias[j];
                }
                if l.relu {
                    acc = acc.max(0.0);
                }
                out[o] = acc;
            }
        }
    }

    /// The portable body, called directly, computes its two-rounding
    /// chain bitwise as written out above — over every fringe of its 4-row
    /// blocks, 8-column tiles and one-column fringe, an `a` read with
    /// `a_ks = 1` and strided, `b` / `out` windows wider than `n`, row
    /// maps, both seeds and every epilogue — and writes no cell outside
    /// the rows and columns it addresses.
    #[test]
    fn the_portable_body_computes_its_chain_bitwise() {
        let values = |len: usize, seed: u64| -> Vec<f32> { pseudo_random(1, len, seed).into_data() };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut calls = 0usize;
        for m in 0..=9usize {
            for n in (0..=9usize).chain([16, 33]) {
                for &kd in &[0usize, 1, 7, 48] {
                    for layout in 0..8u32 {
                        let (strided, window, maps) = (layout & 1 != 0, layout & 2 != 0, layout & 4 != 0);
                        let pad = if window { 3 } else { 0 };
                        // Physical rows behind the logical ones.
                        let (a_phys, o_phys) = if maps { (m + 2, m + 3) } else { (m, m) };
                        let (a_rs, a_ks) = if strided { (1, a_phys + pad) } else { (kd + pad, 1) };
                        let a = values((a_phys + pad) * (kd + pad), (m * 131 + n * 7 + kd) as u64);
                        let (b_rs, out_rs) = (n + pad, n + 2 * pad);
                        let b = values(kd * b_rs, (n * 17 + kd) as u64 + 5);
                        let bias = values(n, n as u64 + 9);
                        let a_rows: Vec<usize> = (0..m).map(|i| (i * 7 + 1) % a_phys).collect();
                        let out_rows: Vec<usize> = (0..m).map(|i| o_phys - 1 - i).collect();
                        let mut before = values(o_phys * out_rs, (m + n + kd) as u64 + 3);
                        // A seed of -0.0 must chain as -0.0.
                        if let Some(v) = before.first_mut() {
                            *v = -0.0;
                        }
                        for accumulate in [false, true] {
                            for (bias, relu) in [(None, false), (Some(&bias[..]), false), (Some(&bias[..]), true)] {
                                let call = FusedLayer {
                                    a: &a,
                                    a_rs,
                                    a_ks,
                                    a_rows: maps.then_some(&a_rows[..]),
                                    m,
                                    kd,
                                    b: &b,
                                    b_rs,
                                    n,
                                    out_rs,
                                    out_rows: maps.then_some(&out_rows[..]),
                                    accumulate,
                                    bias,
                                    relu,
                                };
                                let (mut want, mut got) = (before.clone(), before.clone());
                                two_rounding_reference(&call, &mut want);
                                matmul_portable(&call, &mut got);
                                assert_eq!(
                                    bits(&got),
                                    bits(&want),
                                    "m={m} n={n} kd={kd} strided={strided} window={window} maps={maps} \
                                     accumulate={accumulate} bias={} relu={relu}",
                                    bias.is_some()
                                );
                                calls += 1;
                            }
                        }
                    }
                }
            }
        }
        eprintln!("{calls} portable calls held to the two-rounding chain");
    }
}
