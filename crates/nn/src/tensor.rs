//! Dense row-major `f32` matrices.
//!
//! A [`Tensor`] is the only numeric container of the network code.
//! Everything in Costream's models is small (hidden widths of 32–128,
//! minibatches of a few hundred graph nodes), so a straightforward dense
//! representation with tight loops is both simple and fast enough.
//!
//! # Kernel dispatch tiers
//!
//! All three matmul variants — [`Tensor::matmul`] (`a @ b`, forward),
//! [`Tensor::t_matmul`] (`a^T @ b`, the weight-gradient kernel) and
//! [`Tensor::matmul_t`] (`a @ b^T`, the input-gradient kernel) — and the
//! fused affine map [`Tensor::affine_into`] run through **one** shared
//! microkernel, selected at runtime from three tiers:
//!
//! 1. **x86 SIMD** (x86-64 with avx2+fma runtime-detected, `n >= 8`):
//!    one register-tiled body per ISA behind one call descriptor
//!    (`FusedLayer`) that training and serving share — AVX-512 (when
//!    avx512f is also detected) tiles 6 rows x 48 / 16 / masked
//!    columns, AVX2 tiles 4 rows x 24 / 8 / scalar `mul_add` columns, and
//!    every row fringe keeps its body's full column structure. Both are
//!    one rounding family: every element is a single in-order FMA chain.
//! 2. **NEON** (aarch64, always present): 4-row x 8-column tiles of
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
//! harness prints it); the dispatch tests in this module hold every tier
//! to the scalar reference, and the conformance test holds each x86 body
//! the host supports, called directly, to a `mul_add` chain bitwise.

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
    fn matmul_t_acc(&self, other: &Tensor, out: &mut Tensor) {
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
    /// kernel on the same operands as [`Tensor::matmul_t`], which
    /// re-transposes on every call.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose output shape mismatch");
        transpose(&self.data, self.rows, self.cols, &mut out.data);
    }

    /// Fused affine map `out = x @ w + bias`, optionally with ReLU, writing
    /// into a caller-provided buffer. This is every pass's workhorse: on
    /// the x86 SIMD tier one `FusedLayer` call seeded from `+0.0` with
    /// the bias/ReLU epilogue folded into the store; elsewhere a zero
    /// fill, the accumulating kernel and a bias/ReLU pass.
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
        x.product_into(w, Some(&bias.data), relu, out);
    }

    /// `out = self @ other`, every cell written: bitwise a zeroed `out`
    /// plus [`Tensor::matmul_acc`], without the zero fill on the x86 SIMD
    /// tier (its `FusedLayer` seeds from a `+0.0` register, not a loaded
    /// `+0.0`). The backward's input-gradient product.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul output shape mismatch");
        self.product_into(other, None, false, out);
    }

    /// `out = epilogue(self @ w)` for checked shapes: one `FusedLayer`
    /// call seeded from `+0.0` on the x86 SIMD tier, else a zero fill, the
    /// accumulating kernel and a bias/ReLU pass when there is a bias.
    fn product_into(&self, w: &Tensor, bias: Option<&[f32]>, relu: bool, out: &mut Tensor) {
        let n = w.cols;
        let call = FusedLayer {
            a: &self.data,
            a_rs: self.cols,
            a_ks: 1,
            a_rows: None,
            m: self.rows,
            kd: self.cols,
            b: &w.data,
            b_rs: n,
            n,
            out_rs: n,
            out_rows: None,
            accumulate: false,
            bias,
            relu,
        };
        if fused_layer_fast(&call, &mut out.data) {
            return;
        }
        out.fill_zero();
        matmul_accumulate(&self.data, self.rows, self.cols, &w.data, n, &mut out.data);
        if let Some(bias) = bias {
            out.add_bias_relu(bias, relu);
        }
    }

    /// `row + bias`, then ReLU when `relu`, on every row: the epilogue of
    /// the tiers without a `FusedLayer` body.
    pub(crate) fn add_bias_relu(&mut self, bias: &[f32], relu: bool) {
        assert_eq!(bias.len(), self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_slice_mut(r).iter_mut().zip(bias) {
                *o = if relu { (*o + b).max(0.0) } else { *o + b };
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
///
/// The name is the *rounding family*, not the instruction set: an
/// avx512f host reports `"avx2+fma"` too, because its AVX-512 body
/// computes every element as the same single-rounding FMA chain as the
/// AVX2 body, bit for bit. The pinned digests (`train_digest`,
/// `search_digest`) check for this string.
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
/// On x86-64 with `n >= 8` and avx2+fma this is one [`FusedLayer`] call
/// that seeds its accumulators from `out` (see [`fused_layer_fast`]); on
/// aarch64 with `n >= 4` it runs the NEON 4x8 kernel, and everywhere else
/// a portable 4-row-blocked scalar kernel that LLVM auto-vectorizes. There
/// is no data-dependent `a == 0.0` branch in any inner loop — such a
/// branch mispredicts heavily on post-ReLU activations and blocks
/// vectorization.
///
/// Per output element every tier accumulates over `k` in order with a
/// single accumulator, so the forward, inference and backward paths
/// (which all share this function) agree bitwise with each other on the
/// same machine; a given element's value is also independent of its
/// column position within a tile, which is what makes member-blocked
/// windowed calls bitwise-equal to dense per-member calls.
///
/// # Panics
/// Panics when `a`, `b` or `out` is too short for the strides and shape,
/// or a window stride is below `n`.
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
    let call = FusedLayer {
        a,
        a_rs,
        a_ks,
        a_rows: None,
        m,
        kd,
        b,
        b_rs,
        n,
        out_rs,
        out_rows: None,
        accumulate: true,
        bias: None,
        relu: false,
    };
    if fused_layer_fast(&call, out) {
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        if n >= 4 && std::arch::is_aarch64_feature_detected!("neon") {
            let (a_lim, o_lim) = call.row_limits(out.len());
            if m > 0 {
                // The kernel walks rows `0..m` densely: the last bounds all.
                row_base(None, m - 1, a_rs, a_lim);
                row_base(None, m - 1, out_rs, o_lim);
            }
            // SAFETY: NEON was detected just above, and the checks above
            // bound every address the kernel forms.
            unsafe { matmul_accumulate_neon(a, a_rs, a_ks, m, kd, b, b_rs, n, out, out_rs) };
            return;
        }
    }
    matmul_accumulate_scalar(a, a_rs, a_ks, m, kd, b, b_rs, n, out, out_rs);
}

/// NEON kernel: 4-row x 8-column output tiles (8 fma accumulators of
/// `float32x4_t`), with 4-wide and scalar fringes. NEON is baseline on
/// aarch64, so unlike AVX2 there is no per-feature fallback concern.
///
/// # Safety
/// The CPU must support NEON, and the call must pass the row checks
/// [`matmul_accumulate_strided`] makes before it runs this body.
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

/// Descriptor of one x86 SIMD matmul call — every x86 SIMD matmul goes
/// through it:
/// `out[o(i)][j] = epilogue(seed(i, j) + Σ_k a[a(i)][k] * b[k][j])`
/// for `m` logical rows, `n` columns and a `kd`-deep reduction. Row `i`
/// reads physical row `a(i) = a_rows[i]` of `a` and writes physical row
/// `o(i) = out_rows[i]` of `out` when a map is given (else `i`), so a
/// layer can read gathered rows and scatter its output without
/// materializing either permutation.
///
/// * **Seed.** With `accumulate` every accumulator starts from the
///   current `out` element ([`matmul_accumulate_strided`], so
///   `matmul_acc`, `t_matmul_acc` and the ensemble's stacked layers);
///   without it from `+0.0`, so `out` may be unzeroed scratch
///   ([`Tensor::affine_into`] and the serving layers).
/// * **Epilogue.** An optional `bias` add (`n` entries), then an optional
///   ReLU, applied in registers before the store.
///
/// # Bitwise identity
///
/// Both bodies compute every element as one in-order, single-rounding
/// FMA chain over `k` from its seed, whichever tile, fringe or lane
/// width it lands in — lane grouping changes which elements travel
/// together, never what any element accumulates. Hence:
///
/// * Seeding `+0.0` equals seeding from a zero-filled destination:
///   `fma(a, b, +0.0)` is `fma(a, b, load(out))` when `out` holds `+0.0`.
/// * The ReLU is x86 `max(v, +0.0)`, i.e. `if v > 0.0 { v } else { 0.0 }`.
///   It equals the scalar tails' `(acc + bias).max(0.0)` for every `v`
///   but `-0.0`, and `acc + bias` is `-0.0` only when both addends are.
/// * Written through an output map, an element equals a scatter-add onto
///   a zeroed row (`+0.0 + v`) unless it is `-0.0`. The ReLU never
///   yields `-0.0`, and a bias never is: it starts at `+0.0`, and Adam's
///   `p -= u` reaches `-0.0` only from `p = -0.0`.
/// * The scalar column fringe of the AVX2 body chains `mul_add` from the
///   same seed, and the AVX-512 body's masked tail chains the same FMAs.
///
/// The scalar *tier*'s two-rounding `+=` is not this family: a call
/// runs here only where [`fused_layer_available`] holds.
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

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
impl FusedLayer<'_> {
    /// Checks the call's window strides, `b` window and bias against
    /// their slices, and returns the largest row base offset `a` and an
    /// `out` of `out_len` elements can take. A kernel that checks every
    /// row base against these (see [`row_base`]) forms no address outside
    /// `a`, `b`, `bias` or `out`: that is what makes its raw-pointer loads
    /// and stores sound.
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
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
fn row_base(map: Option<&[usize]>, i: usize, rs: usize, lim: usize) -> usize {
    let row = map.map_or(i, |rows| rows[i]);
    match row.checked_mul(rs) {
        Some(base) if base <= lim => base,
        _ => panic!("row {row} lies outside its matrix"),
    }
}

/// True when [`fused_layer_fast`] has a kernel for an `n`-column call on
/// this machine: x86-64 with `n >=` [`simd_min_width`], exactly where
/// the dispatch has always left the scalar tier, so routing a call here
/// never changes which tier's rounding it sees.
pub(crate) fn fused_layer_available(n: usize) -> bool {
    cfg!(target_arch = "x86_64") && n >= simd_min_width()
}

/// Runs one [`FusedLayer`] call on this machine's x86 SIMD body — the
/// AVX-512 one when avx512f is detected, else the AVX2 one — and returns
/// `true`; returns `false` without touching `out` when
/// [`fused_layer_available`] does not hold (the caller then composes the
/// portable tiers). The one safe entry point to both bodies.
///
/// # Panics
/// Panics when the call's shapes, strides or row maps would reach past
/// `a`, `b`, `bias` or `out` (checked by the body before it touches
/// them).
pub(crate) fn fused_layer_fast(l: &FusedLayer<'_>, out: &mut [f32]) -> bool {
    if !fused_layer_available(l.n) {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `fused_layer_available` holds only where avx2+fma were
    // detected, and avx512f is detected before its body runs.
    unsafe {
        if is_x86_feature_detected!("avx512f") {
            matmul_avx512(l, out);
        } else {
            matmul_avx2(l, out);
        }
    }
    true
}

/// AVX-512 body of [`FusedLayer`]: tiles of 6 rows x 48 columns (18 fma
/// accumulators + 3 `b` vectors in zmm), then 16-column tiles and one
/// *masked* tile for the last `< 16` columns; a fringe of 1..=5 rows
/// keeps the same column structure as a fixed-size register tile.
///
/// # Safety
/// The CPU must support avx512f. Bounds are the body's own: it checks
/// the call with `row_limits` and every row base with [`row_base`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_avx512(l: &FusedLayer<'_>, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let (a_lim, o_lim) = l.row_limits(out.len());
    let (ap, bp, op) = (l.a.as_ptr(), l.b.as_ptr(), out.as_mut_ptr());
    let zero = _mm512_setzero_ps();
    // One tile: rows at offsets `$ab` / `$ob`, `$c` 16-lane column
    // vectors from column `$j` — every lane, or the lanes of `$mask`
    // when `$masked`. Seed, `k` chain, epilogue, store; the branches on
    // the call's flags are taken once per tile, not per register.
    macro_rules! tile {
        ($c:literal, $j:expr, $masked:literal, $mask:expr, $ab:expr, $ob:expr) => {{
            const C: usize = $c;
            let (j, mask, ab, ob): (usize, __mmask16, &[usize], &[usize]) = ($j, $mask, &$ab, &$ob);
            macro_rules! load {
                ($p:expr) => {
                    if $masked {
                        _mm512_maskz_loadu_ps(mask, $p)
                    } else {
                        _mm512_loadu_ps($p)
                    }
                };
            }
            let mut acc = [[zero; C]; R];
            if l.accumulate {
                for r in 0..R {
                    for c in 0..C {
                        acc[r][c] = load!(op.add(ob[r] + j + 16 * c));
                    }
                }
            }
            for k in 0..l.kd {
                let (ak, bk) = (ap.add(k * l.a_ks), bp.add(k * l.b_rs + j));
                let mut bv = [zero; C];
                for c in 0..C {
                    bv[c] = load!(bk.add(16 * c));
                }
                for r in 0..R {
                    let av = _mm512_set1_ps(*ak.add(ab[r]));
                    for c in 0..C {
                        acc[r][c] = _mm512_fmadd_ps(av, bv[c], acc[r][c]);
                    }
                }
            }
            if let Some(bias) = l.bias {
                for c in 0..C {
                    let bv = load!(bias.as_ptr().add(j + 16 * c));
                    for r in 0..R {
                        acc[r][c] = _mm512_add_ps(acc[r][c], bv);
                    }
                }
            }
            for r in 0..R {
                for c in 0..C {
                    let v = if l.relu {
                        _mm512_max_ps(acc[r][c], zero)
                    } else {
                        acc[r][c]
                    };
                    let p = op.add(ob[r] + j + 16 * c);
                    if $masked {
                        _mm512_mask_storeu_ps(p, mask, v);
                    } else {
                        _mm512_storeu_ps(p, v);
                    }
                }
            }
        }};
    }
    // One block of `$rows` rows from logical row `$i`, a literal so each
    // block compiles to a fixed register tile.
    macro_rules! row_block {
        ($rows:literal, $i:expr) => {{
            const R: usize = $rows;
            let mut ab = [0usize; R];
            let mut ob = [0usize; R];
            for r in 0..R {
                ab[r] = row_base(l.a_rows, $i + r, l.a_rs, a_lim);
                ob[r] = row_base(l.out_rows, $i + r, l.out_rs, o_lim);
            }
            let mut j = 0;
            while j + 48 <= l.n {
                tile!(3, j, false, 0, ab, ob);
                j += 48;
            }
            while j + 16 <= l.n {
                tile!(1, j, false, 0, ab, ob);
                j += 16;
            }
            if j < l.n {
                tile!(1, j, true, (1u16 << (l.n - j)) - 1, ab, ob);
            }
        }};
    }
    let mut i = 0;
    while i + 6 <= l.m {
        row_block!(6, i);
        i += 6;
    }
    match l.m - i {
        1 => row_block!(1, i),
        2 => row_block!(2, i),
        3 => row_block!(3, i),
        4 => row_block!(4, i),
        5 => row_block!(5, i),
        _ => {}
    }
}

/// AVX2+FMA body of [`FusedLayer`]: tiles of 4 rows x 24 columns (12 fma
/// accumulators + 3 `b` vectors — the widest tile that still fits ymm),
/// then 8-column tiles and a scalar `mul_add` column fringe; a fringe of
/// 1..=3 rows keeps the same column structure as a fixed-size register
/// tile.
///
/// # Safety
/// The CPU must support avx2 and fma. Bounds are the body's own: it
/// checks the call with `row_limits` and every row base with
/// [`row_base`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_avx2(l: &FusedLayer<'_>, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let (a_lim, o_lim) = l.row_limits(out.len());
    let (ap, bp, op) = (l.a.as_ptr(), l.b.as_ptr(), out.as_mut_ptr());
    let zero = _mm256_setzero_ps();
    // One tile: rows at offsets `$ab` / `$ob`, `$c` 8-lane column
    // vectors from column `$j`. Seed, `k` chain, epilogue, store; the
    // branches on the call's flags are taken once per tile.
    macro_rules! tile {
        ($c:literal, $j:expr, $ab:expr, $ob:expr) => {{
            const C: usize = $c;
            let (j, ab, ob): (usize, &[usize], &[usize]) = ($j, &$ab, &$ob);
            let mut acc = [[zero; C]; R];
            if l.accumulate {
                for r in 0..R {
                    for c in 0..C {
                        acc[r][c] = _mm256_loadu_ps(op.add(ob[r] + j + 8 * c));
                    }
                }
            }
            for k in 0..l.kd {
                let (ak, bk) = (ap.add(k * l.a_ks), bp.add(k * l.b_rs + j));
                let mut bv = [zero; C];
                for c in 0..C {
                    bv[c] = _mm256_loadu_ps(bk.add(8 * c));
                }
                for r in 0..R {
                    let av = _mm256_set1_ps(*ak.add(ab[r]));
                    for c in 0..C {
                        acc[r][c] = _mm256_fmadd_ps(av, bv[c], acc[r][c]);
                    }
                }
            }
            if let Some(bias) = l.bias {
                for c in 0..C {
                    let bv = _mm256_loadu_ps(bias.as_ptr().add(j + 8 * c));
                    for r in 0..R {
                        acc[r][c] = _mm256_add_ps(acc[r][c], bv);
                    }
                }
            }
            for r in 0..R {
                for c in 0..C {
                    let v = if l.relu {
                        _mm256_max_ps(acc[r][c], zero)
                    } else {
                        acc[r][c]
                    };
                    _mm256_storeu_ps(op.add(ob[r] + j + 8 * c), v);
                }
            }
        }};
    }
    // One block of `$rows` rows from logical row `$i`, a literal so each
    // block compiles to a fixed register tile.
    macro_rules! row_block {
        ($rows:literal, $i:expr) => {{
            const R: usize = $rows;
            let mut ab = [0usize; R];
            let mut ob = [0usize; R];
            for r in 0..R {
                ab[r] = row_base(l.a_rows, $i + r, l.a_rs, a_lim);
                ob[r] = row_base(l.out_rows, $i + r, l.out_rs, o_lim);
            }
            let mut j = 0;
            while j + 24 <= l.n {
                tile!(3, j, ab, ob);
                j += 24;
            }
            while j + 8 <= l.n {
                tile!(1, j, ab, ob);
                j += 8;
            }
            while j < l.n {
                for r in 0..R {
                    let o = op.add(ob[r] + j);
                    let mut v = if l.accumulate { *o } else { 0.0f32 };
                    for k in 0..l.kd {
                        v = (*ap.add(k * l.a_ks + ab[r])).mul_add(*bp.add(k * l.b_rs + j), v);
                    }
                    if let Some(bias) = l.bias {
                        v += bias[j];
                    }
                    // `_mm256_max_ps(v, +0.0)`, lane by lane.
                    *o = if !l.relu || v > 0.0 { v } else { 0.0 };
                }
                j += 1;
            }
        }};
    }
    let mut i = 0;
    while i + 4 <= l.m {
        row_block!(4, i);
        i += 4;
    }
    match l.m - i {
        1 => row_block!(1, i),
        2 => row_block!(2, i),
        3 => row_block!(3, i),
        _ => {}
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

        let mut cat = Tensor::zeros(3, 4);
        x.concat_cols_into(&x, &mut cat);
        assert_eq!(cat.row_slice(1), &[10.0, 20.0, 10.0, 20.0]);
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

    /// Every x86 SIMD body this host supports, called directly rather
    /// than through dispatch, equals the `mul_add` chain bitwise — over
    /// every row fringe of both bodies, column tiles and fringes, an `a`
    /// read with `a_ks = 1` and strided, `b` / `out` windows wider than
    /// `n`, row maps, both seeds and every epilogue — and writes no cell
    /// outside the rows and columns it addresses.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_simd_body_equals_the_fma_chain_bitwise() {
        type Body = unsafe fn(&FusedLayer<'_>, &mut [f32]);
        let mut bodies: Vec<(&str, Body)> = Vec::new();
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            bodies.push(("avx2", matmul_avx2));
        }
        if is_x86_feature_detected!("avx512f") {
            bodies.push(("avx512", matmul_avx512));
        }
        if bodies.is_empty() {
            eprintln!("skipped: no x86 SIMD body runs on this host");
            return;
        }
        let values = |len: usize, seed: u64| -> Vec<f32> { pseudo_random(1, len, seed).into_data() };
        let mut calls = 0usize;
        for m in 0..=13usize {
            for &n in &[8usize, 9, 15, 16, 17, 23, 24, 25, 47, 48, 49, 64, 97] {
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
                                let mut want = before.clone();
                                fma_chain_reference(&call, &mut want);
                                for (name, body) in &bodies {
                                    let mut got = before.clone();
                                    // SAFETY: the body's features were detected
                                    // above; it checks its own bounds.
                                    unsafe { body(&call, &mut got) };
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
}
