//! Minimal dense row-major matrix used by the MLP substrate.
//!
//! Simplicity and robustness over cleverness: no BLAS, no SIMD
//! intrinsics, no `unsafe` — `Vec<f32>` with explicit shape checks that
//! panic early on programmer error (shape mismatches are bugs, not
//! runtime conditions).
//!
//! # The GEMM kernel
//!
//! All three products run one kernel: [`Matrix::matmul_into`] (`A · B`,
//! every forward layer), [`Matrix::t_matmul_into`] (`Aᵀ · B`, the weight
//! gradient) and [`Matrix::matmul_t_into`] (`A · Bᵀ`, the backpropagated
//! delta). It computes `out[i][j] = Σ a(i, kk) · b(j, kk)` in register
//! tiles of 4 output rows × 8 output columns, with 4-column, 1-column and
//! 1-row tails. It reads each operand as lanes of `k` elements: the left
//! operand's lanes are the output rows, the right operand's the output
//! columns. A lane is either a row of the stored matrix (contiguous) or a
//! column of it (one element per stored row):
//!
//! | product | left lanes | right lanes |
//! |---|---|---|
//! | `matmul_into`, `self (m x k) · rhs (k x n)` | rows of `self`, stride `k` | columns of `rhs`, stride `n` |
//! | `t_matmul_into`, `selfᵀ · rhs`, `self (k x m)` | columns of `self`, stride `m` | columns of `rhs`, stride `n` |
//! | `matmul_t_into`, `self · rhsᵀ`, `rhs (n x k)` | rows of `self`, stride `k` | rows of `rhs`, stride `k` |
//!
//! **Why the bits are fixed.** Every output element is the f32 fold
//! `(((+0.0 + a₀b₀) + a₁b₁) + …)` over `kk` ascending: each tile
//! accumulator starts at `+0.0` and takes its products in that order,
//! the order of the tests' naive oracles and of every pinned output
//! byte. The same additions round the same way, so the results are the
//! same bits, `-0.0` and NaN included. Rust never contracts
//! `a * b + c` into a fused multiply-add. Output row `i` reads only lane
//! `i` of the left operand, so a row's bits do not depend on which other
//! rows share the batch — the property that lets training compute frozen
//! layers once per job ([`crate::mlp::Mlp::frozen_inputs`]).
//!
//! **No zero-skip.** The kernel has no data-dependent branch. Skipping
//! zero inputs (about half of a post-ReLU row) would give the same bits
//! for finite operands: a sum started at `+0.0` is never `-0.0` under
//! round-to-nearest, and adding a `±0.0` product leaves any other value
//! unchanged. But IEEE 754 makes `0 · ∞` NaN, and a zero-skip would hide
//! that NaN.

use serde::{Deserialize, Serialize};

/// A dense row-major `rows x cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes the matrix to `rows x cols` and fills it with zeros,
    /// reusing the existing allocation when the capacity suffices — the
    /// building block of the `*_into` GEMM variants and the training
    /// scratch buffers, which would otherwise allocate a fresh `Vec` per
    /// minibatch.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` an exact copy of `other`, reusing the existing
    /// allocation when possible.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// `self (m x k) * rhs (k x n) -> (m x n)`, written into a
    /// caller-owned output matrix (reshaped here), so hot loops can reuse
    /// one allocation across calls. Runs the module's one GEMM kernel.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        gemm(Operand::Rows(&self.data, k), Operand::Cols(&rhs.data, n), (m, k, n), out);
    }

    /// `self^T (k x m) * rhs (k x n)` computed without materialising the
    /// transpose, written into a caller-owned `m x n` output matrix — the
    /// backprop weight-gradient kernel.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "t_matmul leading dimension mismatch");
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        gemm(Operand::Cols(&self.data, m), Operand::Cols(&rhs.data, n), (m, k, n), out);
    }

    /// `self (m x k) * rhs^T (n x k)` computed without materialising the
    /// transpose, written into a caller-owned `m x n` output matrix — the
    /// backprop delta kernel.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "matmul_t trailing dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        gemm(Operand::Rows(&self.data, k), Operand::Rows(&rhs.data, k), (m, k, n), out);
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale(&mut self, scale: f32) {
        for a in self.data.iter_mut() {
            *a *= scale;
        }
    }
}

/// One GEMM operand as the kernel reads it: lanes (the left operand's
/// rows, or the right operand's columns) of `k` elements each, in one of
/// the two layouts a row-major [`Matrix`] offers.
#[derive(Clone, Copy)]
enum Operand<'a> {
    /// Lane `r` is the contiguous run `data[r * stride..][..k]`.
    Rows(&'a [f32], usize),
    /// Element `kk` of lanes `r, r + 1, ...` is the contiguous run
    /// starting at `data[kk * stride + r]`.
    Cols(&'a [f32], usize),
}

/// `N` consecutive lanes of an [`Operand`], sliced once per tile so the
/// `k` loop reads them without per-element bounds checks.
enum Lanes<'a, const N: usize> {
    Rows([&'a [f32]; N]),
    Cols(&'a [f32], usize, usize),
}

impl<'a> Operand<'a> {
    /// Lanes `r0..r0 + N`, each `k` long.
    #[inline(always)]
    fn lanes<const N: usize>(self, r0: usize, k: usize) -> Lanes<'a, N> {
        match self {
            Operand::Rows(data, stride) => {
                Lanes::Rows(std::array::from_fn(|r| &data[(r0 + r) * stride..][..k]))
            }
            Operand::Cols(data, stride) => Lanes::Cols(data, r0, stride),
        }
    }
}

impl<const N: usize> Lanes<'_, N> {
    /// Element `kk` of each lane.
    #[inline(always)]
    fn at(&self, kk: usize) -> [f32; N] {
        match self {
            Lanes::Rows(rows) => std::array::from_fn(|r| rows[r][kk]),
            Lanes::Cols(data, r0, stride) => {
                let run = &data[kk * stride + r0..][..N];
                std::array::from_fn(|r| run[r])
            }
        }
    }
}

/// The GEMM kernel behind all three products: `out (m x n)[i][j] =
/// Σ a(i, kk) · b(j, kk)` over `kk` in `0..k`, with `out` reshaped here
/// and every element written. Rows go four at a time, then one at a
/// time; within those rows, columns go eight at a time, then one block of
/// four, then one at a time. Each block is one [`tile`].
#[inline(always)]
fn gemm(a: Operand<'_>, b: Operand<'_>, (m, k, n): (usize, usize, usize), out: &mut Matrix) {
    out.resize_zeroed(m, n);
    let mut i = 0;
    while i + 4 <= m {
        tile_row::<4>(a, b, (i, k, n), &mut out.data);
        i += 4;
    }
    for i in i..m {
        tile_row::<1>(a, b, (i, k, n), &mut out.data);
    }
}

/// The tiles of output rows `i..i + R`.
#[inline(always)]
fn tile_row<const R: usize>(
    a: Operand<'_>,
    b: Operand<'_>,
    (i, k, n): (usize, usize, usize),
    out: &mut [f32],
) {
    let mut j = 0;
    while j + 8 <= n {
        tile::<R, 8>(a, b, (i, j, k, n), out);
        j += 8;
    }
    if j + 4 <= n {
        tile::<R, 4>(a, b, (i, j, k, n), out);
        j += 4;
    }
    for j in j..n {
        tile::<R, 1>(a, b, (i, j, k, n), out);
    }
}

/// Output block `(i..i + R) x (j..j + C)`: `R x C` accumulators held in
/// registers across the whole `k` loop, each starting at `+0.0` and
/// taking `+= a · b` for `kk` ascending, then stored once.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: Operand<'_>,
    b: Operand<'_>,
    (i, j, k, n): (usize, usize, usize, usize),
    out: &mut [f32],
) {
    let (a, b) = (a.lanes::<R>(i, k), b.lanes::<C>(j, k));
    let mut acc = [[0.0f32; C]; R];
    for kk in 0..k {
        let (av, bv) = (a.at(kk), b.at(kk));
        for (acc_row, &x) in acc.iter_mut().zip(&av) {
            for (o, &y) in acc_row.iter_mut().zip(&bv) {
                *o += x * y;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * n + j..][..C].copy_from_slice(acc_row);
    }
}

/// Row-wise softmax in place: [`softmax_row`] on every row.
pub fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows {
        softmax_row(m.row_mut(r));
    }
}

/// Softmax of one row in place. Numerically stabilised by subtracting the
/// row max before exponentiating. The one copy of the softmax arithmetic:
/// training's [`softmax_rows`] and the inference path's fallback both run
/// it, so the two agree bit for bit.
///
/// Inference reads the predicted class off the logits and calls this only
/// when the logits cannot settle it. Let a row's max `m` be finite and
/// held at index `t`, and let every other `l_i` satisfy
/// `l_i - m <= -2^-10`, computed in f32 exactly as below (a `-∞` entry
/// does, and its `exp` is 0; NaN never does). Then
/// `exp(0) = 1`, and every other `exp(l_i - m)` is at most
/// `exp(-2^-10) ≈ 1 - 2^-10`, which stays below `1 - 2^-11` even with a
/// few ulps of libm error. Dividing by the same sum is monotone, and a
/// relative gap of 2^-11 survives f32's 2^-24 rounding, so `p_t` is the
/// strict unique maximum of the softmax row: the logit argmax is its
/// argmax, bit-exactly. A tie, a near-tie, or a non-finite logit (`0 · ∞`
/// from the branch-free GEMM) runs this function instead.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    // The max's own term is exp(0) = 1, so a finite row sums to at least
    // 1; a row holding NaN or +∞ (or only -∞) sums to NaN.
    debug_assert!(sum >= 1.0 || sum.is_nan());
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// The GEMM arithmetic before the tiled kernel: one plain fold per
/// output element over `kk` ascending — the oracle every kernel test and
/// the training reference in [`crate::mlp`] are checked against.
#[cfg(test)]
pub(crate) mod naive {
    use super::Matrix;

    /// `a (m x k) · b (k x n)`.
    pub(crate) fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "naive matmul inner dimension mismatch");
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).fold(0.0f32, |acc, kk| acc + a.get(i, kk) * b.get(kk, j))
        })
    }

    /// The stored transpose of `a`.
    pub(crate) fn transpose(a: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols(), a.rows(), |r, c| a.get(c, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocating forms of the kernels — the tests' shorthands.
    impl Matrix {
        fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
            assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
            Self { rows, cols, data }
        }

        fn matmul(&self, rhs: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(0, 0);
            self.matmul_into(rhs, &mut out);
            out
        }

        fn t_matmul(&self, rhs: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(0, 0);
            self.t_matmul_into(rhs, &mut out);
            out
        }

        fn matmul_t(&self, rhs: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(0, 0);
            self.matmul_t_into(rhs, &mut out);
            out
        }
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        // a^T is 2x3; result is 2x2.
        let c = a.t_matmul(&b);
        let at = Matrix::from_vec(2, 3, vec![1., 3., 5., 2., 4., 6.]);
        let expected = at.matmul(&b);
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, vec![1., 0., 0., 0., 1., 0., 0., 0., 1., 1., 1., 1.]);
        let c = a.matmul_t(&b);
        let bt = Matrix::from_fn(3, 4, |r, cidx| b.get(cidx, r));
        let expected = a.matmul(&bt);
        assert_eq!(c, expected);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        softmax_rows(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Softmax is monotone: larger logits -> larger probabilities.
        assert!(m.get(0, 2) > m.get(0, 1));
        assert!(m.get(0, 1) > m.get(0, 0));
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut m = Matrix::from_vec(1, 3, vec![1000.0, 1000.0, 1000.0]);
        softmax_rows(&mut m);
        for &v in m.data() {
            assert!((v - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "matmul inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Deterministic non-zero pseudo-random fill (no RNG dependency).
    fn fill(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 17 + salt * 101) % 97) as f32 / 97.0 - 0.5
        })
    }

    /// Asserts two matrices are **bit**-identical — stricter than `==`
    /// (which would let `-0.0` slide and fail on NaN) and the contract
    /// the kernel pins: same shapes, same ascending-k accumulation order,
    /// same bits.
    fn assert_bits(label: &str, got: &Matrix, want: &Matrix) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{label}: shape");
        for (i, (g, w)) in got.data().iter().zip(want.data().iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: element {i}: {g} vs {w}");
        }
    }

    /// Runs all three products of the logical `a (m x k) · b (k x n)`,
    /// each on the operands stored the way it reads them, into an output
    /// buffer primed with NaNs (no residue may survive), and checks each
    /// against the naive fold bit for bit. Returns the fold.
    fn assert_products_match_naive(label: &str, a: &Matrix, b: &Matrix) -> Matrix {
        let want = naive::matmul(a, b);
        let dirty = || Matrix::from_fn(11, 37, |_, _| f32::NAN);
        let mut out = dirty();
        a.matmul_into(b, &mut out);
        assert_bits(&format!("matmul {label}"), &out, &want);
        let mut out = dirty();
        naive::transpose(a).t_matmul_into(b, &mut out);
        assert_bits(&format!("t_matmul {label}"), &out, &want);
        let mut out = dirty();
        a.matmul_t_into(&naive::transpose(b), &mut out);
        assert_bits(&format!("matmul_t {label}"), &out, &want);
        want
    }

    /// All three kernels against the naive ascending-k fold over every
    /// tile path: m from 1 to 9 (each `m mod 4`, so 4-row blocks and the
    /// 1-row tail), n from 1 to 32 (8-column blocks, the 4-column tail
    /// and the 1-column tail, alone and together), k from 1 to 24; plain
    /// left operands and ReLU-shaped ones holding `±0.0`; outputs written
    /// into NaN-primed dirty buffers. On ReLU-shaped operands
    /// `matmul` and `t_matmul` also match the zero-skip loops they once
    /// were (finite operands, so the skip cannot hide a NaN).
    #[test]
    fn gemm_kernels_are_bit_identical_to_naive_reference() {
        for m in 1..=9 {
            for n in [1, 3, 4, 5, 6, 8, 9, 12, 16, 24, 32] {
                for k in [1, 2, 16, 24] {
                    let b = fill(k, n, n + k);
                    let label = format!("{m}x{k}x{n}");
                    assert_products_match_naive(&label, &fill(m, k, m), &b);

                    let a = relu_fill(m, k, m + k);
                    let label = format!("{label} (zeros)");
                    let want = assert_products_match_naive(&label, &a, &b);
                    assert_bits(&label, &matmul_skip_reference(&a, &b), &want);
                    let at = naive::transpose(&a);
                    assert_bits(&label, &t_matmul_skip_reference(&at, &b), &want);
                }
            }
        }
        // No inner dimension: every product is `+0.0`.
        let want =
            assert_products_match_naive("5x0x13", &Matrix::zeros(5, 0), &Matrix::zeros(0, 13));
        assert!(want.data().iter().all(|v| v.to_bits() == 0));
    }

    /// [`fill`] with ReLU's zeros punched in: every third element `+0.0`,
    /// every sixth (offset by one) `-0.0`.
    fn relu_fill(rows: usize, cols: usize, salt: usize) -> Matrix {
        let base = fill(rows, cols, salt);
        Matrix::from_fn(rows, cols, |r, c| match (r * cols + c + salt) % 6 {
            0 | 3 => 0.0,
            1 => -0.0,
            _ => base.get(r, c),
        })
    }

    /// The zero-skip `matmul_into` body the branch-free kernel replaced.
    fn matmul_skip_reference(a: &Matrix, rhs: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows, a.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &a.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The zero-skip `t_matmul_into` body the branch-free kernel replaced.
    fn t_matmul_skip_reference(a: &Matrix, rhs: &Matrix) -> Matrix {
        let (k, m, n) = (a.rows, a.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            let a_row = &a.data[kk * m..(kk + 1) * m];
            let b_row = &rhs.data[kk * n..(kk + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The one documented change of the branch-free kernels: a zero
    /// operand no longer hides a non-finite one — `0 · ∞` is NaN, per
    /// IEEE 754 — in all three products. Then a `±∞` meets a `±0.0` under
    /// every output position of a 5 x 13 product (4-row block and 1-row
    /// tail; 8-column block, 4-column tail and 1-column tail), from either
    /// side, and every kernel must put NaN there with the naive fold's
    /// bits.
    #[test]
    fn zero_times_infinity_is_nan_in_both_kernels() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan());
        assert_eq!(matmul_skip_reference(&a, &b).get(0, 0), 2.0, "the skip hid the infinity");
        let at = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        assert!(at.t_matmul(&b).get(0, 0).is_nan());
        assert_eq!(t_matmul_skip_reference(&at, &b).get(0, 0), 2.0);
        let bt = Matrix::from_vec(1, 2, vec![f32::INFINITY, 2.0]);
        assert!(a.matmul_t(&bt).get(0, 0).is_nan());

        let (m, k, n) = (5, 3, 13);
        for i in 0..m {
            for j in 0..n {
                let kk = (i + j) % k;
                let (zero, inf) =
                    if (i + j) % 2 == 0 { (0.0, f32::INFINITY) } else { (-0.0, f32::NEG_INFINITY) };
                for inf_on_left in [false, true] {
                    let (mut a, mut b) = (fill(m, k, i), fill(k, n, j));
                    let (a_val, b_val) = if inf_on_left { (inf, zero) } else { (zero, inf) };
                    a.set(i, kk, a_val);
                    b.set(kk, j, b_val);
                    let label = format!("({i}, {j}), infinity on the left: {inf_on_left}");
                    let want = assert_products_match_naive(&label, &a, &b);
                    assert!(want.get(i, j).is_nan(), "{label}");
                }
            }
        }
    }

    /// A row's product does not depend on its batch: row `r` of an
    /// n-row `matmul` is bit-identical to the 1-row `matmul` of row `r`
    /// alone — what makes frozen-layer activations computable once for
    /// a whole training set.
    #[test]
    fn matmul_row_is_independent_of_its_batch() {
        let (n, k, cols) = (9, 16, 24);
        let a = relu_fill(n, k, 5);
        let w = fill(k, cols, 6);
        let batch = a.matmul(&w);
        for r in 0..n {
            let one = Matrix::from_vec(1, k, a.row(r).to_vec()).matmul(&w);
            let want = Matrix::from_vec(1, cols, batch.row(r).to_vec());
            assert_bits(&format!("row {r}"), &one, &want);
        }
    }

    /// One scratch buffer reused across all three `_into` kernels, each
    /// with a different output shape, primed with NaNs: any residue from
    /// a previous occupant would surface as a NaN or a wrong bit.
    #[test]
    fn into_kernels_reuse_dirty_buffers_without_residue() {
        let a = fill(5, 7, 5);
        let b = fill(7, 6, 6);
        let at = fill(7, 5, 7);
        let bt = fill(6, 7, 8);

        let mut out = Matrix::from_fn(9, 9, |_, _| f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_bits("matmul_into (dirty)", &out, &a.matmul(&b));
        at.t_matmul_into(&b, &mut out);
        assert_bits("t_matmul_into (dirty)", &out, &at.t_matmul(&b));
        a.matmul_t_into(&bt, &mut out);
        assert_bits("matmul_t_into (dirty)", &out, &a.matmul_t(&bt));
    }
}
