//! Dense row-major `f32` matrices.
//!
//! A [`Tensor`] is the only numeric container used by the autograd tape.
//! Everything in Costream's models is small (hidden widths of 32–128,
//! minibatches of a few hundred graph nodes), so a straightforward dense
//! representation with tight loops is both simple and fast enough.
//!
//! # Kernel dispatch tiers
//!
//! All three matmul variants — [`Tensor::matmul`] (`a @ b`, forward),
//! [`Tensor::t_matmul`] (`a^T @ b`, the weight-gradient kernel) and
//! [`Tensor::matmul_t`] (`a @ b^T`, the input-gradient kernel) — run
//! through **one** shared accumulating microkernel, selected at runtime
//! from three tiers:
//!
//! 1. **AVX2+FMA** (x86-64, runtime-detected): 4-row × 16-column output
//!    tiles held in `ymm` registers across the full `k` loop.
//! 2. **NEON** (aarch64, always present): the same tiling at 4 × 8 with
//!    `float32x4_t` registers.
//! 3. **Scalar** (any target, and the fallback for narrow outputs):
//!    4-row-blocked lockstep loops that LLVM auto-vectorizes.
//!
//! `t_matmul` reaches the shared kernel through a strided view of `a`
//! (reading `a[k * ca + i]` instead of `a[i * kd + k]` — the transpose is
//! never materialized), and `matmul_t` transposes its small right-hand
//! operand (a weight matrix) once and then runs the same kernel, so all
//! three variants produce bitwise-identical accumulation per machine.
//!
//! Which tier is active can be checked with [`kernel_tier`] (the bench
//! harness prints it), and the dispatch tests in this module assert that
//! every tier agrees with the scalar reference on this machine.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32` values.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
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

    /// Creates a `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
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

    /// Creates a `1 x n` row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let cols = data.len();
        Tensor { rows: 1, cols, data }
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
        matmul_accumulate(&self.data, self.rows, self.cols, &other.data, other.cols, &mut out.data);
    }

    /// Matrix product `self^T @ other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.t_matmul_acc(other, &mut out);
        out
    }

    /// Accumulating transposed product `out += self^T @ other`, the
    /// weight-gradient kernel of the backward pass. Runs the shared
    /// microkernel over a strided view of `self` (element `(i, k)` of
    /// `self^T` is `self[k * cols + i]`), so no transpose is materialized
    /// and the accumulation order matches [`Tensor::matmul_acc`] exactly.
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
        let (rows, ca, cb) = (self.rows, self.cols, other.cols);
        matmul_accumulate_strided(&self.data, 1, ca, ca, rows, &other.data, cb, cb, &mut out.data, cb);
    }

    /// Matrix product `self @ other^T`.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_t_acc(other, &mut out);
        out
    }

    /// Accumulating product `out += self @ other^T`, the input-gradient
    /// kernel of the backward pass. `other` is a weight matrix (small —
    /// at most `hidden x 2*hidden`), so it is transposed once into a
    /// thread-local scratch buffer (reused across calls, keeping tensor
    /// allocations off the steady-state backward path) and the shared
    /// microkernel does the heavy lifting, keeping the accumulation order
    /// identical to [`Tensor::matmul_acc`].
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn matmul_t_acc(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.rows), "matmul_t output shape mismatch");
        let (m, kd, rb) = (self.rows, self.cols, other.rows);
        TRANSPOSE_SCRATCH.with(|cell| {
            let mut bt = cell.borrow_mut();
            bt.clear();
            bt.resize(kd * rb, 0.0);
            transpose(&other.data, rb, kd, &mut bt);
            matmul_accumulate(&self.data, m, kd, &bt, rb, &mut out.data);
        });
    }

    /// Writes `self^T` into `out` (`cols x rows`). The backward pass
    /// transposes each weight matrix once per step with this and then runs
    /// `dx += dpre @ W^T` as a plain [`Tensor::matmul_acc`] — the same
    /// kernel on the same operands as [`Tensor::matmul_t_acc`], which
    /// re-transposes on every call.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose output shape mismatch");
        transpose(&self.data, self.rows, self.cols, &mut out.data);
    }

    /// Fused affine map `out = x @ w + bias`, optionally with ReLU, writing
    /// into a caller-provided buffer. This is the inference-path workhorse:
    /// one kernel call replaces the tape's matmul + add-bias + relu nodes
    /// (and their three intermediate allocations).
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
        out.fill_zero();
        matmul_accumulate(&x.data, x.rows, x.cols, &w.data, w.cols, &mut out.data);
        let n = w.cols;
        if relu {
            for r in 0..x.rows {
                let row = &mut out.data[r * n..(r + 1) * n];
                for (o, &b) in row.iter_mut().zip(&bias.data) {
                    *o = (*o + b).max(0.0);
                }
            }
        } else {
            for r in 0..x.rows {
                let row = &mut out.data[r * n..(r + 1) * n];
                for (o, &b) in row.iter_mut().zip(&bias.data) {
                    *o += b;
                }
            }
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

    /// Writes rows of `self` selected by `idx` (repetition allowed) into
    /// `out`, which must be `idx.len() x self.cols`.
    pub fn gather_rows_into(&self, idx: &[usize], out: &mut Tensor) {
        assert_eq!(out.shape(), (idx.len(), self.cols), "gather output shape mismatch");
        for (r, &i) in idx.iter().enumerate() {
            out.row_slice_mut(r).copy_from_slice(self.row_slice(i));
        }
    }

    /// Overwrites row `idx[r]` of `self` with row `r` of `src` (for
    /// unique indices this equals scatter-add into zeroed rows, minus the
    /// zeroing and accumulation passes).
    ///
    /// # Panics
    /// Panics when widths differ or an index is out of range.
    pub fn scatter_copy_rows(&mut self, src: &Tensor, idx: &[usize]) {
        assert_eq!(self.cols, src.cols, "scatter width mismatch");
        assert_eq!(src.rows, idx.len(), "one target row per source row");
        for (r, &dst) in idx.iter().enumerate() {
            let s = &src.data[r * src.cols..(r + 1) * src.cols];
            self.data[dst * self.cols..(dst + 1) * self.cols].copy_from_slice(s);
        }
    }

    /// Fused gather + segmented sum into a *column window* of `out`:
    /// `out[segs[e]][col_off..col_off + self.cols] += self[rows[e]]`.
    /// Lets a message-passing wave assemble `[Σ_children ‖ own]` without
    /// materializing either half.
    pub fn gather_segment_sum_into_cols(&self, rows: &[usize], segs: &[usize], out: &mut Tensor, col_off: usize) {
        assert_eq!(rows.len(), segs.len(), "one segment per gathered row");
        assert!(col_off + self.cols <= out.cols, "column window out of range");
        for (&src_row, &dst_row) in rows.iter().zip(segs) {
            let src = &self.data[src_row * self.cols..(src_row + 1) * self.cols];
            let base = dst_row * out.cols + col_off;
            let dst = &mut out.data[base..base + self.cols];
            for (d, v) in dst.iter_mut().zip(src) {
                *d += *v;
            }
        }
    }

    /// Gather rows into a *column window* of `out`:
    /// `out[r][col_off..col_off + self.cols] = self[idx[r]]`.
    pub fn gather_rows_into_cols(&self, idx: &[usize], out: &mut Tensor, col_off: usize) {
        assert_eq!(out.rows, idx.len(), "one output row per index");
        assert!(col_off + self.cols <= out.cols, "column window out of range");
        for (r, &i) in idx.iter().enumerate() {
            let base = r * out.cols + col_off;
            out.data[base..base + self.cols].copy_from_slice(self.row_slice(i));
        }
    }

    /// Member-major fused gather + segmented sum into per-member *block
    /// windows*: `self` is `[rows, k*h]` member-major and `out` is
    /// `[targets, k*block_w]`; member `m`'s sum lands at columns
    /// `m*block_w + col_off .. + h`, i.e.
    /// `out[segs[e]][m*block_w + col_off ..] += self[rows[e]][m*h ..]`.
    ///
    /// The target windows are **zeroed first** (the wave-input buffer is
    /// handed out unzeroed scratch), then accumulated in edge order — the
    /// identical per-element addition chain as a zeroed buffer plus
    /// [`Tensor::gather_segment_sum_into_cols`] per member.
    pub fn gather_segment_sum_into_blocks(
        &self,
        rows: &[usize],
        segs: &[usize],
        k: usize,
        out: &mut Tensor,
        col_off: usize,
    ) {
        assert_eq!(rows.len(), segs.len(), "one segment per gathered row");
        assert_eq!(self.cols % k, 0, "member count must divide source width");
        assert_eq!(out.cols % k, 0, "member count must divide output width");
        let h = self.cols / k;
        let bw = out.cols / k;
        assert!(col_off + h <= bw, "block window out of range");
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for m in 0..k {
                row[m * bw + col_off..m * bw + col_off + h].fill(0.0);
            }
        }
        for (&src_row, &dst_row) in rows.iter().zip(segs) {
            let src = &self.data[src_row * self.cols..(src_row + 1) * self.cols];
            let dst = &mut out.data[dst_row * out.cols..(dst_row + 1) * out.cols];
            for m in 0..k {
                let s = &src[m * h..(m + 1) * h];
                let d = &mut dst[m * bw + col_off..m * bw + col_off + h];
                for (dv, sv) in d.iter_mut().zip(s) {
                    *dv += *sv;
                }
            }
        }
    }

    /// Member-major gather into per-member *block windows*:
    /// `out[r][m*block_w + col_off .. + h] = self[idx[r]][m*h ..]` with
    /// `self` `[rows, k*h]` member-major and `out` `[idx.len(), k*block_w]`.
    /// Pure copies — exact, like [`Tensor::gather_rows_into_cols`].
    pub fn gather_rows_into_blocks(&self, idx: &[usize], k: usize, out: &mut Tensor, col_off: usize) {
        assert_eq!(out.rows, idx.len(), "one output row per index");
        assert_eq!(self.cols % k, 0, "member count must divide source width");
        assert_eq!(out.cols % k, 0, "member count must divide output width");
        let h = self.cols / k;
        let bw = out.cols / k;
        assert!(col_off + h <= bw, "block window out of range");
        for (r, &i) in idx.iter().enumerate() {
            let src = &self.data[i * self.cols..(i + 1) * self.cols];
            let dst = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for m in 0..k {
                dst[m * bw + col_off..m * bw + col_off + h].copy_from_slice(&src[m * h..(m + 1) * h]);
            }
        }
    }

    /// Adds row `r` of `src` into row `idx[r]` of `self`.
    ///
    /// # Panics
    /// Panics when widths differ or an index is out of range.
    pub fn scatter_add_rows(&mut self, src: &Tensor, idx: &[usize]) {
        assert_eq!(self.cols, src.cols, "scatter width mismatch");
        assert_eq!(src.rows, idx.len(), "one target row per source row");
        for (r, &dst) in idx.iter().enumerate() {
            let s = &src.data[r * src.cols..(r + 1) * src.cols];
            let d = &mut self.data[dst * self.cols..(dst + 1) * self.cols];
            for (dv, sv) in d.iter_mut().zip(s) {
                *dv += *sv;
            }
        }
    }

    /// Adds the rows `idx` of `other` into the same rows of `self`
    /// (the "carry forward untouched nodes" step of a message-passing
    /// wave).
    pub fn add_rows_at(&mut self, other: &Tensor, idx: &[usize]) {
        assert_eq!(self.shape(), other.shape(), "add_rows_at shape mismatch");
        for &i in idx {
            let s = &other.data[i * self.cols..(i + 1) * self.cols];
            let d = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (dv, sv) in d.iter_mut().zip(s) {
                *dv += *sv;
            }
        }
    }

    /// Segmented row sum into a caller-provided (zeroed) buffer: row `s` of
    /// `out` accumulates all rows `i` of `self` with `segments[i] == s`.
    pub fn segment_sum_into(&self, segments: &[usize], out: &mut Tensor) {
        assert_eq!(segments.len(), self.rows, "one segment id per input row");
        assert_eq!(out.cols, self.cols, "segment output width mismatch");
        for (i, &s) in segments.iter().enumerate() {
            let src = &self.data[i * self.cols..(i + 1) * self.cols];
            let dst = &mut out.data[s * out.cols..(s + 1) * out.cols];
            for (d, v) in dst.iter_mut().zip(src) {
                *d += *v;
            }
        }
    }

    /// Fused gather + segmented sum: `out[segs[e]] += self[rows[e]]` for
    /// every edge `e`. Equivalent to `gather_rows` followed by
    /// `segment_sum` without materializing the gathered matrix.
    pub fn gather_segment_sum_into(&self, rows: &[usize], segs: &[usize], out: &mut Tensor) {
        assert_eq!(rows.len(), segs.len(), "one segment per gathered row");
        assert_eq!(out.cols, self.cols, "gather-segment output width mismatch");
        for (&src_row, &dst_row) in rows.iter().zip(segs) {
            let src = &self.data[src_row * self.cols..(src_row + 1) * self.cols];
            let dst = &mut out.data[dst_row * out.cols..(dst_row + 1) * out.cols];
            for (d, v) in dst.iter_mut().zip(src) {
                *d += *v;
            }
        }
    }

    /// Writes `[self | other]` (column concatenation) into `out`.
    pub fn concat_cols_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, other.rows, "concat row mismatch");
        assert_eq!(
            out.shape(),
            (self.rows, self.cols + other.cols),
            "concat output shape mismatch"
        );
        for r in 0..self.rows {
            let dst = out.row_slice_mut(r);
            dst[..self.cols].copy_from_slice(self.row_slice(r));
            dst[self.cols..].copy_from_slice(other.row_slice(r));
        }
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

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0.0 for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Returns true when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// `dst = src^T` for a row-major `rows x cols` matrix `src`.
fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for (j, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (k, &v) in row.iter().enumerate() {
            dst[k * rows + j] = v;
        }
    }
}

thread_local! {
    /// Reused weight-transpose scratch for [`Tensor::matmul_t_acc`]: the
    /// per-call buffer would otherwise be the only steady-state
    /// allocation left on the backward hot path.
    static TRANSPOSE_SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Name of the microkernel tier runtime dispatch selects on this machine:
/// `"avx2+fma"`, `"neon"` or `"scalar"`. Narrow outputs (`n < 8` on
/// x86-64, `n < 4` on aarch64) always take the scalar path regardless of
/// the reported tier; the bench harness prints this value so recorded
/// numbers can be attributed to a tier.
pub fn kernel_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        return "avx2+fma";
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        return "neon";
    }
    "scalar"
}

/// Smallest per-call output width `n` at which the dispatcher leaves the
/// scalar tier on this machine. The fused-ensemble path uses this to keep
/// a *wide* (`k * out_w`-column) shared-input matmul on the exact tier a
/// sequential per-member (`out_w`-column) call would have taken, so the
/// two stay bitwise identical even when `out_w` sits below the SIMD
/// threshold but `k * out_w` does not.
pub(crate) fn simd_min_width() -> usize {
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

/// Accumulating matmul microkernel: `out += a @ b` with `a` of shape
/// `m x kd` and `b` of shape `kd x n`, all row-major.
fn matmul_accumulate(a: &[f32], m: usize, kd: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * kd);
    matmul_accumulate_strided(a, kd, 1, m, kd, b, n, n, out, n);
}

/// The shared accumulating microkernel behind all three matmul variants:
/// `out[i * out_rs + j] += Σ_k a[i * a_rs + k * a_ks] * b[k * b_rs + j]`
/// for an `m x n` output and a `kd`-deep reduction. `a` is read through
/// (row, k) strides so the same kernel serves `a @ b` (`a_rs = kd,
/// a_ks = 1`) and `a^T @ b` (`a_rs = 1, a_ks = ca`) without materializing
/// a transpose — only scalar broadcasts of `a` are loaded, so striding
/// costs nothing. `b` and `out` carry their own row strides (`b_rs`,
/// `out_rs`, both `>= n`) so one call can read and write an `n`-column
/// *window* of wider matrices — the fused-ensemble path runs one call per
/// stacked member into that member's column block.
///
/// Dispatches to a runtime-detected AVX2+FMA register-tiled kernel on
/// x86-64 (4x16 output tiles held in ymm registers across the full `k`
/// loop), a NEON 4x8 kernel on aarch64, and a portable 4-row-blocked
/// scalar kernel that LLVM auto-vectorizes everywhere else. There is no
/// data-dependent `a == 0.0` branch in any inner loop — such a branch
/// mispredicts heavily on post-ReLU activations and blocks vectorization.
///
/// Per output element every tier accumulates over `k` in order with a
/// single accumulator, so the forward, inference and backward paths
/// (which all share this function) agree bitwise with each other on the
/// same machine; a given element's value is also independent of its
/// column position within a tile, which is what makes member-blocked
/// windowed calls bitwise-equal to dense per-member calls.
#[allow(clippy::too_many_arguments)] // flat FFI-style kernel signature
pub(crate) fn matmul_accumulate_strided(
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    m: usize,
    kd: usize,
    b: &[f32],
    b_rs: usize,
    n: usize,
    out: &mut [f32],
    out_rs: usize,
) {
    debug_assert!(b_rs >= n && out_rs >= n);
    debug_assert!(m == 0 || kd == 0 || a.len() > (m - 1) * a_rs + (kd - 1) * a_ks);
    debug_assert!(kd == 0 || n == 0 || b.len() >= (kd - 1) * b_rs + n);
    debug_assert!(m == 0 || n == 0 || out.len() >= (m - 1) * out_rs + n);
    #[cfg(target_arch = "x86_64")]
    {
        if n >= 8 && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // Safety: feature detection succeeded; slice bounds are
            // checked by the debug asserts above and the loop structure.
            unsafe { matmul_accumulate_avx2(a, a_rs, a_ks, m, kd, b, b_rs, n, out, out_rs) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if n >= 4 && std::arch::is_aarch64_feature_detected!("neon") {
            // Safety: NEON is mandatory on aarch64 and detection succeeded.
            unsafe { matmul_accumulate_neon(a, a_rs, a_ks, m, kd, b, b_rs, n, out, out_rs) };
            return;
        }
    }
    matmul_accumulate_scalar(a, a_rs, a_ks, m, kd, b, b_rs, n, out, out_rs);
}

/// AVX2+FMA kernel: 4-row x 16-column output tiles kept in registers
/// across the whole `k` loop (8 fma accumulators + 2 `b` vectors), with
/// 8-wide and scalar fringes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_accumulate_avx2(
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    m: usize,
    kd: usize,
    b: &[f32],
    b_rs: usize,
    n: usize,
    out: &mut [f32],
    out_rs: usize,
) {
    use std::arch::x86_64::*;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= m {
        let mut j = 0;
        while j + 16 <= n {
            let mut acc = [[_mm256_setzero_ps(); 2]; 4];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r[0] = _mm256_loadu_ps(op.add((i + r) * out_rs + j));
                acc_r[1] = _mm256_loadu_ps(op.add((i + r) * out_rs + j + 8));
            }
            for k in 0..kd {
                let b0 = _mm256_loadu_ps(bp.add(k * b_rs + j));
                let b1 = _mm256_loadu_ps(bp.add(k * b_rs + j + 8));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add((i + r) * a_rs + k * a_ks));
                    acc_r[0] = _mm256_fmadd_ps(av, b0, acc_r[0]);
                    acc_r[1] = _mm256_fmadd_ps(av, b1, acc_r[1]);
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add((i + r) * out_rs + j), acc_r[0]);
                _mm256_storeu_ps(op.add((i + r) * out_rs + j + 8), acc_r[1]);
            }
            j += 16;
        }
        while j + 8 <= n {
            let mut acc = [_mm256_setzero_ps(); 4];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                *acc_r = _mm256_loadu_ps(op.add((i + r) * out_rs + j));
            }
            for k in 0..kd {
                let b0 = _mm256_loadu_ps(bp.add(k * b_rs + j));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add((i + r) * a_rs + k * a_ks));
                    *acc_r = _mm256_fmadd_ps(av, b0, *acc_r);
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add((i + r) * out_rs + j), *acc_r);
            }
            j += 8;
        }
        while j < n {
            for r in 0..4 {
                let mut acc = *op.add((i + r) * out_rs + j);
                for k in 0..kd {
                    acc = (*ap.add((i + r) * a_rs + k * a_ks)).mul_add(*bp.add(k * b_rs + j), acc);
                }
                *op.add((i + r) * out_rs + j) = acc;
            }
            j += 1;
        }
        i += 4;
    }
    while i < m {
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = _mm256_loadu_ps(op.add(i * out_rs + j));
            for k in 0..kd {
                let av = _mm256_set1_ps(*ap.add(i * a_rs + k * a_ks));
                acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(k * b_rs + j)), acc);
            }
            _mm256_storeu_ps(op.add(i * out_rs + j), acc);
            j += 8;
        }
        while j < n {
            let mut acc = *op.add(i * out_rs + j);
            for k in 0..kd {
                acc = (*ap.add(i * a_rs + k * a_ks)).mul_add(*bp.add(k * b_rs + j), acc);
            }
            *op.add(i * out_rs + j) = acc;
            j += 1;
        }
        i += 1;
    }
}

/// NEON kernel: 4-row x 8-column output tiles (8 fma accumulators of
/// `float32x4_t`), with 4-wide and scalar fringes. NEON is baseline on
/// aarch64, so unlike AVX2 there is no per-feature fallback concern.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_accumulate_neon(
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    m: usize,
    kd: usize,
    b: &[f32],
    b_rs: usize,
    n: usize,
    out: &mut [f32],
    out_rs: usize,
) {
    use std::arch::aarch64::*;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= m {
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = [[vdupq_n_f32(0.0); 2]; 4];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r[0] = vld1q_f32(op.add((i + r) * out_rs + j));
                acc_r[1] = vld1q_f32(op.add((i + r) * out_rs + j + 4));
            }
            for k in 0..kd {
                let b0 = vld1q_f32(bp.add(k * b_rs + j));
                let b1 = vld1q_f32(bp.add(k * b_rs + j + 4));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = *ap.add((i + r) * a_rs + k * a_ks);
                    acc_r[0] = vfmaq_n_f32(acc_r[0], b0, av);
                    acc_r[1] = vfmaq_n_f32(acc_r[1], b1, av);
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                vst1q_f32(op.add((i + r) * out_rs + j), acc_r[0]);
                vst1q_f32(op.add((i + r) * out_rs + j + 4), acc_r[1]);
            }
            j += 8;
        }
        while j + 4 <= n {
            let mut acc = [vdupq_n_f32(0.0); 4];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                *acc_r = vld1q_f32(op.add((i + r) * out_rs + j));
            }
            for k in 0..kd {
                let b0 = vld1q_f32(bp.add(k * b_rs + j));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = *ap.add((i + r) * a_rs + k * a_ks);
                    *acc_r = vfmaq_n_f32(*acc_r, b0, av);
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                vst1q_f32(op.add((i + r) * out_rs + j), *acc_r);
            }
            j += 4;
        }
        while j < n {
            for r in 0..4 {
                let mut acc = *op.add((i + r) * out_rs + j);
                for k in 0..kd {
                    acc = (*ap.add((i + r) * a_rs + k * a_ks)).mul_add(*bp.add(k * b_rs + j), acc);
                }
                *op.add((i + r) * out_rs + j) = acc;
            }
            j += 1;
        }
        i += 4;
    }
    while i < m {
        let mut j = 0;
        while j + 4 <= n {
            let mut acc = vld1q_f32(op.add(i * out_rs + j));
            for k in 0..kd {
                let av = *ap.add(i * a_rs + k * a_ks);
                acc = vfmaq_n_f32(acc, vld1q_f32(bp.add(k * b_rs + j)), av);
            }
            vst1q_f32(op.add(i * out_rs + j), acc);
            j += 4;
        }
        while j < n {
            let mut acc = *op.add(i * out_rs + j);
            for k in 0..kd {
                acc = (*ap.add(i * a_rs + k * a_ks)).mul_add(*bp.add(k * b_rs + j), acc);
            }
            *op.add(i * out_rs + j) = acc;
            j += 1;
        }
        i += 1;
    }
}

/// Portable fallback kernel (also the non-SIMD path for narrow outputs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_accumulate_scalar(
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    m: usize,
    kd: usize,
    b: &[f32],
    b_rs: usize,
    n: usize,
    out: &mut [f32],
    out_rs: usize,
) {
    let mut i = 0;
    while i + 4 <= m {
        // Four disjoint strided row windows (split_at_mut keeps the
        // borrow checker happy; the last window only needs `n` columns).
        let (o0, rest) = out[i * out_rs..].split_at_mut(out_rs);
        let (o1, rest) = rest.split_at_mut(out_rs);
        let (o2, rest) = rest.split_at_mut(out_rs);
        let (o0, o1, o2, o3) = (&mut o0[..n], &mut o1[..n], &mut o2[..n], &mut rest[..n]);
        for k in 0..kd {
            let a0 = a[i * a_rs + k * a_ks];
            let a1 = a[(i + 1) * a_rs + k * a_ks];
            let a2 = a[(i + 2) * a_rs + k * a_ks];
            let a3 = a[(i + 3) * a_rs + k * a_ks];
            let brow = &b[k * b_rs..k * b_rs + n];
            // Lockstep zips let LLVM drop every bounds check and vectorize.
            let it = o0
                .iter_mut()
                .zip(o1.iter_mut())
                .zip(o2.iter_mut())
                .zip(o3.iter_mut())
                .zip(brow);
            for ((((v0, v1), v2), v3), &bv) in it {
                *v0 += a0 * bv;
                *v1 += a1 * bv;
                *v2 += a2 * bv;
                *v3 += a3 * bv;
            }
        }
        i += 4;
    }
    while i < m {
        let orow = &mut out[i * out_rs..i * out_rs + n];
        for k in 0..kd {
            let av = a[i * a_rs + k * a_ks];
            let brow = &b[k * b_rs..k * b_rs + n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
        i += 1;
    }
}

/// Descriptor for one serving-only fused layer call:
/// `out[out_row(i)][j] = epilogue(Σ_k a[a_row(i)][k] * b[k][j])`, where the
/// epilogue is bias add and optional ReLU, folded into the register store.
///
/// Unlike [`matmul_accumulate_strided`] this kernel has *assign*
/// semantics — the accumulators start at `+0.0` instead of loading `out`
/// — so the destination never needs a zero-fill pass, and the optional
/// row maps let it read gathered input rows and scatter output rows
/// without materializing either permutation.
///
/// # Bitwise identity
///
/// The result is bitwise identical to zero-fill +
/// [`matmul_accumulate_strided`] (AVX2 tier) + the
/// [`Tensor::affine_into`] bias/ReLU tail, for every reachable input:
///
/// * `fma(a, b, +0.0)` equals `fma(a, b, load(out))` when `out` was
///   zero-filled, so seeding the accumulators from `_mm256_setzero_ps`
///   instead of loading the zeroed destination changes nothing; the
///   per-element in-order single-accumulator chain over `k` is the same.
/// * An accumulator chain seeded from `+0.0` can never become `-0.0`
///   under round-to-nearest: a sum is `-0.0` only when *both* addends
///   are `-0.0` (exact cancellation yields `+0.0`), and the seed is
///   `+0.0` — so by induction the accumulator, and therefore
///   `acc + bias`, is never `-0.0`, and writing the row through a
///   scatter map is bit-equal to scatter-*add* onto zeroed rows.
/// * The scalar column fringe chains `mul_add` from `0.0f32` exactly as
///   the AVX2 tier's scalar fringe chains it from the zeroed
///   destination. (This kernel only ever runs where the sequential
///   dispatch would pick AVX2, see [`fused_layer_fast`] — the scalar
///   *tier*'s two-rounding `+=` is not replicated here.)
#[derive(Clone, Copy)]
pub(crate) struct FusedLayer<'a> {
    /// Input base (possibly a member column window of a wider matrix),
    /// row stride `a_rs`; logical row `i` reads physical row
    /// `a_rows[i]` when a map is given.
    pub a: &'a [f32],
    pub a_rs: usize,
    pub a_rows: Option<&'a [usize]>,
    /// Logical row count and reduction depth.
    pub m: usize,
    pub kd: usize,
    /// Weight window, row stride `b_rs >= n`.
    pub b: &'a [f32],
    pub b_rs: usize,
    pub n: usize,
    /// Bias window (`n` entries).
    pub bias: &'a [f32],
    pub relu: bool,
    /// Output window, row stride `out_rs`; logical row `i` writes
    /// physical row `out_rows[i]` when a map is given.
    pub out_rs: usize,
    pub out_rows: Option<&'a [usize]>,
}

/// True when [`fused_layer_fast`] has a kernel for an `n`-column call on
/// this machine — i.e. exactly when [`matmul_accumulate_strided`] would
/// dispatch the AVX2 tier, so using the fused kernel never changes which
/// tier's rounding a call sees.
pub(crate) fn fused_layer_available(n: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        n >= 8 && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = n;
        false
    }
}

/// Runs the serving-only fused layer kernel (see [`FusedLayer`]); returns
/// `false` without touching `out` when no fast kernel applies here
/// (caller composes the portable fallback from the standard primitives).
pub(crate) fn fused_layer_fast(l: &FusedLayer<'_>, out: &mut [f32]) -> bool {
    if !fused_layer_available(l.n) {
        return false;
    }
    assert!(l.bias.len() >= l.n, "bias window too short");
    if let Some(r) = l.a_rows {
        assert!(r.len() >= l.m, "input row map too short");
    }
    if let Some(r) = l.out_rows {
        assert!(r.len() >= l.m, "output row map too short");
    }
    debug_assert!(l.b_rs >= l.n && l.b.len() >= l.kd.saturating_sub(1) * l.b_rs + l.n);
    debug_assert!((0..l.m).all(|i| {
        let ar = l.a_rows.map_or(i, |r| r[i]);
        let or = l.out_rows.map_or(i, |r| r[i]);
        (l.kd == 0 || l.a.len() >= ar * l.a_rs + l.kd) && out.len() >= or * l.out_rs + l.n
    }));
    #[cfg(target_arch = "x86_64")]
    // Safety: feature detection succeeded in `fused_layer_available` /
    // the avx512f check; bounds are guarded by the asserts above.
    unsafe {
        if is_x86_feature_detected!("avx512f") {
            fused_layer_avx512(l, out);
        } else {
            fused_layer_avx2(l, out);
        }
    };
    true
}

/// AVX-512 fused layer kernel: 6-row x 48-column assign tiles (18 fma
/// accumulators + 3 `b` vectors in zmm), a 16-wide column block, and a
/// *masked* column tail, with row fringes of 1..=5 rows sharing the same
/// column structure. Bias / ReLU are applied in registers before
/// the store, exactly like the AVX2 tier.
///
/// # Bitwise identity
///
/// Identical to [`fused_layer_avx2`] (and therefore to the sequential
/// AVX2 dispatch tier): vector *width* only groups more independent
/// output elements per instruction — each element still accumulates
/// through one in-order single-accumulator FMA chain over `k`, each FMA
/// rounds once, and the masked tail writes FMA-chained elements just as
/// the AVX2 tier's `mul_add` scalar fringe does. Lane grouping changes
/// which elements travel together, never what any element accumulates.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fused_layer_avx512(l: &FusedLayer<'_>, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let ap = l.a.as_ptr();
    let bp = l.b.as_ptr();
    let biasp = l.bias.as_ptr();
    let op = out.as_mut_ptr();
    let zero = _mm512_setzero_ps();
    macro_rules! a_base {
        ($i:expr) => {
            (match l.a_rows {
                Some(r) => *r.get_unchecked($i),
                None => $i,
            }) * l.a_rs
        };
    }
    macro_rules! o_base {
        ($i:expr) => {
            (match l.out_rows {
                Some(r) => *r.get_unchecked($i),
                None => $i,
            }) * l.out_rs
        };
    }
    // Folded epilogue on one 16-lane accumulator at column `j`.
    macro_rules! fin {
        ($acc:expr, $j:expr) => {{
            let bv = _mm512_loadu_ps(biasp.add($j));
            let mut v = _mm512_add_ps($acc, bv);
            if l.relu {
                v = _mm512_max_ps(v, zero);
            }
            v
        }};
    }
    // Masked variant for the <16-column tail.
    macro_rules! fin_m {
        ($acc:expr, $j:expr, $mask:expr) => {{
            let bv = _mm512_maskz_loadu_ps($mask, biasp.add($j));
            let mut v = _mm512_add_ps($acc, bv);
            if l.relu {
                v = _mm512_max_ps(v, zero);
            }
            v
        }};
    }
    // One row block of `R <= 6` rows (const-generic so each variant
    // compiles to a fixed register tile).
    macro_rules! row_block {
        ($rows:expr, $i:expr) => {{
            let r_n: usize = $rows;
            let mut ab = [0usize; 6];
            let mut ob = [0usize; 6];
            for r in 0..r_n {
                ab[r] = a_base!($i + r);
                ob[r] = o_base!($i + r);
            }
            let mut j = 0;
            while j + 48 <= l.n {
                let mut acc = [[zero; 3]; 6];
                for k in 0..l.kd {
                    let bk = bp.add(k * l.b_rs + j);
                    let b0 = _mm512_loadu_ps(bk);
                    let b1 = _mm512_loadu_ps(bk.add(16));
                    let b2 = _mm512_loadu_ps(bk.add(32));
                    for r in 0..r_n {
                        let av = _mm512_set1_ps(*ap.add(ab[r] + k));
                        acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
                        acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
                        acc[r][2] = _mm512_fmadd_ps(av, b2, acc[r][2]);
                    }
                }
                for r in 0..r_n {
                    _mm512_storeu_ps(op.add(ob[r] + j), fin!(acc[r][0], j));
                    _mm512_storeu_ps(op.add(ob[r] + j + 16), fin!(acc[r][1], j + 16));
                    _mm512_storeu_ps(op.add(ob[r] + j + 32), fin!(acc[r][2], j + 32));
                }
                j += 48;
            }
            while j + 16 <= l.n {
                let mut acc = [zero; 6];
                for k in 0..l.kd {
                    let b0 = _mm512_loadu_ps(bp.add(k * l.b_rs + j));
                    for r in 0..r_n {
                        let av = _mm512_set1_ps(*ap.add(ab[r] + k));
                        acc[r] = _mm512_fmadd_ps(av, b0, acc[r]);
                    }
                }
                for r in 0..r_n {
                    _mm512_storeu_ps(op.add(ob[r] + j), fin!(acc[r], j));
                }
                j += 16;
            }
            if j < l.n {
                let mask: __mmask16 = (1u16 << (l.n - j)) - 1;
                let mut acc = [zero; 6];
                for k in 0..l.kd {
                    let b0 = _mm512_maskz_loadu_ps(mask, bp.add(k * l.b_rs + j));
                    for r in 0..r_n {
                        let av = _mm512_set1_ps(*ap.add(ab[r] + k));
                        acc[r] = _mm512_fmadd_ps(av, b0, acc[r]);
                    }
                }
                for r in 0..r_n {
                    _mm512_mask_storeu_ps(op.add(ob[r] + j), mask, fin_m!(acc[r], j, mask));
                }
            }
        }};
    }
    let mut i = 0;
    while i + 6 <= l.m {
        row_block!(6, i);
        i += 6;
    }
    let rem = l.m - i;
    if rem > 0 {
        row_block!(rem, i);
    }
}

/// AVX2+FMA fused layer kernel: 4-row x 24-column assign tiles (12 fma
/// accumulators + 3 `b` vectors — the widest tile that still fits ymm),
/// with 8-wide and scalar column fringes and a 1-row fringe. Bias /
/// ReLU are applied in registers before the store.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fused_layer_avx2(l: &FusedLayer<'_>, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let ap = l.a.as_ptr();
    let bp = l.b.as_ptr();
    let biasp = l.bias.as_ptr();
    let op = out.as_mut_ptr();
    let zero = _mm256_setzero_ps();
    // Row base offsets through the optional maps (macros, not closures,
    // so everything stays inside this target_feature body).
    macro_rules! a_base {
        ($i:expr) => {
            (match l.a_rows {
                Some(r) => *r.get_unchecked($i),
                None => $i,
            }) * l.a_rs
        };
    }
    macro_rules! o_base {
        ($i:expr) => {
            (match l.out_rows {
                Some(r) => *r.get_unchecked($i),
                None => $i,
            }) * l.out_rs
        };
    }
    // Folded epilogue on one 8-lane accumulator at column `j`.
    macro_rules! fin {
        ($acc:expr, $j:expr) => {{
            let bv = _mm256_loadu_ps(biasp.add($j));
            let mut v = _mm256_add_ps($acc, bv);
            if l.relu {
                v = _mm256_max_ps(v, zero);
            }
            v
        }};
    }
    macro_rules! fin1 {
        ($acc:expr, $j:expr) => {{
            let v = $acc + l.bias[$j];
            if l.relu {
                v.max(0.0)
            } else {
                v
            }
        }};
    }
    let mut i = 0;
    while i + 4 <= l.m {
        let ab = [a_base!(i), a_base!(i + 1), a_base!(i + 2), a_base!(i + 3)];
        let ob = [o_base!(i), o_base!(i + 1), o_base!(i + 2), o_base!(i + 3)];
        let mut j = 0;
        while j + 24 <= l.n {
            let mut acc = [[zero; 3]; 4];
            for k in 0..l.kd {
                let bk = bp.add(k * l.b_rs + j);
                let b0 = _mm256_loadu_ps(bk);
                let b1 = _mm256_loadu_ps(bk.add(8));
                let b2 = _mm256_loadu_ps(bk.add(16));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add(ab[r] + k));
                    acc_r[0] = _mm256_fmadd_ps(av, b0, acc_r[0]);
                    acc_r[1] = _mm256_fmadd_ps(av, b1, acc_r[1]);
                    acc_r[2] = _mm256_fmadd_ps(av, b2, acc_r[2]);
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(ob[r] + j), fin!(acc_r[0], j));
                _mm256_storeu_ps(op.add(ob[r] + j + 8), fin!(acc_r[1], j + 8));
                _mm256_storeu_ps(op.add(ob[r] + j + 16), fin!(acc_r[2], j + 16));
            }
            j += 24;
        }
        while j + 8 <= l.n {
            let mut acc = [zero; 4];
            for k in 0..l.kd {
                let b0 = _mm256_loadu_ps(bp.add(k * l.b_rs + j));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add(ab[r] + k));
                    *acc_r = _mm256_fmadd_ps(av, b0, *acc_r);
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(ob[r] + j), fin!(*acc_r, j));
            }
            j += 8;
        }
        while j < l.n {
            for r in 0..4 {
                let mut acc = 0.0f32;
                for k in 0..l.kd {
                    acc = (*ap.add(ab[r] + k)).mul_add(*bp.add(k * l.b_rs + j), acc);
                }
                *op.add(ob[r] + j) = fin1!(acc, j);
            }
            j += 1;
        }
        i += 4;
    }
    while i < l.m {
        let ab = a_base!(i);
        let ob = o_base!(i);
        let mut j = 0;
        while j + 8 <= l.n {
            let mut acc = zero;
            for k in 0..l.kd {
                let av = _mm256_set1_ps(*ap.add(ab + k));
                acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(k * l.b_rs + j)), acc);
            }
            _mm256_storeu_ps(op.add(ob + j), fin!(acc, j));
            j += 8;
        }
        while j < l.n {
            let mut acc = 0.0f32;
            for k in 0..l.kd {
                acc = (*ap.add(ab + k)).mul_add(*bp.add(k * l.b_rs + j), acc);
            }
            *op.add(ob + j) = fin1!(acc, j);
            j += 1;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(a.sum(), 14.0);
        a.scale_assign(0.5);
        assert_eq!(a.mean(), 1.75);
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

    /// Every SIMD tier must agree with the scalar reference kernel to f32
    /// round-off (FMA contracts one rounding step, so the comparison is
    /// tolerance-based; the dispatch itself is exact per machine).
    #[test]
    fn dispatched_kernels_match_scalar_reference() {
        for &(m, k, n) in &[(4, 8, 16), (7, 26, 48), (64, 64, 48), (5, 13, 9), (64, 64, 33)] {
            let a = pseudo_random(m, k, 15);
            let b = pseudo_random(k, n, 16);
            // Forward orientation.
            let fast = a.matmul(&b);
            let mut slow = Tensor::zeros(m, n);
            matmul_accumulate_scalar(a.data(), k, 1, m, k, b.data(), n, n, slow.data_mut(), n);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-4 * (1.0 + y.abs()), "matmul {m}x{k}x{n}: {x} vs {y}");
            }
            // Transposed-A orientation (the t_matmul stride pattern):
            // (k x n)^T @ (k x n) = n x n through both paths.
            let tf = b.t_matmul(&b);
            let mut ts = Tensor::zeros(n, n);
            matmul_accumulate_scalar(b.data(), 1, n, n, k, b.data(), n, n, ts.data_mut(), n);
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

    #[test]
    fn gather_scatter_segment_helpers() {
        let x = Tensor::from_vec(3, 2, vec![1.0, 2.0, 10.0, 20.0, 100.0, 200.0]);
        let mut g = Tensor::zeros(2, 2);
        x.gather_rows_into(&[2, 0], &mut g);
        assert_eq!(g.data(), &[100.0, 200.0, 1.0, 2.0]);

        let mut seg = Tensor::zeros(2, 2);
        x.segment_sum_into(&[0, 1, 0], &mut seg);
        assert_eq!(seg.data(), &[101.0, 202.0, 10.0, 20.0]);

        let mut fused = Tensor::zeros(2, 2);
        x.gather_segment_sum_into(&[0, 1, 2], &[0, 1, 0], &mut fused);
        assert_eq!(fused.data(), seg.data());

        let mut acc = Tensor::zeros(3, 2);
        acc.scatter_add_rows(&g, &[1, 1]);
        assert_eq!(acc.data(), &[0.0, 0.0, 101.0, 202.0, 0.0, 0.0]);

        let mut carried = Tensor::zeros(3, 2);
        carried.add_rows_at(&x, &[0, 2]);
        assert_eq!(carried.data(), &[1.0, 2.0, 0.0, 0.0, 100.0, 200.0]);

        let mut cat = Tensor::zeros(3, 4);
        x.concat_cols_into(&x, &mut cat);
        assert_eq!(cat.row_slice(1), &[10.0, 20.0, 10.0, 20.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Tensor::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }
}
