//! Minimal dense row-major matrix used by the MLP substrate.
//!
//! Design goals mirror the networking guides' idioms: simplicity and
//! robustness over cleverness. No BLAS, no SIMD intrinsics, no lifetime
//! tricks — just `Vec<f32>` with explicit shape checks that panic early on
//! programmer error (shape mismatches are bugs, not runtime conditions).

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
    /// caller-owned output matrix (reshaped and zeroed here), so hot loops
    /// can reuse one allocation across calls.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    ///
    /// Output row `i` is built from input row `i` alone, so a row's bits
    /// do not depend on which other rows share the batch — the property
    /// that lets training compute frozen layers once per job
    /// ([`crate::mlp::Mlp::frozen_inputs`]).
    ///
    /// The inner loop has no data-dependent branch. Skipping zero inputs
    /// (about half of a post-ReLU row) would give the same bits whenever
    /// `rhs` is finite: each accumulator starts at `+0.0`, a sum of
    /// round-to-nearest additions starting there is never `-0.0`, and
    /// adding a `±0.0` product to anything else leaves it unchanged. With
    /// a non-finite `rhs` entry, IEEE 754 makes `0 · ∞` NaN, and that NaN
    /// reaches the output, where a zero-skip would hide it.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.resize_zeroed(m, n);
        // i-k-j loop order keeps the inner loop sequential over both
        // `rhs` and `out` rows, which is the cache-friendly ordering for
        // row-major data. Each output element accumulates over k in
        // ascending order, which pins the (non-associative) f32 sum.
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                let b_row = &rhs.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self^T (k x m) * rhs (k x n)` computed without materialising the
    /// transpose, written into a caller-owned `m x n` output matrix — the
    /// backprop weight-gradient kernel, allocation-free when the caller
    /// reuses `out`. Branch free like [`Matrix::matmul_into`], with the
    /// same consequence: a zero in `self` times a non-finite `rhs` entry
    /// yields NaN.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "t_matmul leading dimension mismatch");
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        out.resize_zeroed(m, n);
        for kk in 0..k {
            let a_row = &self.data[kk * m..(kk + 1) * m];
            let b_row = &rhs.data[kk * n..(kk + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self (m x k) * rhs^T (n x k)` computed without materialising the
    /// transpose, written into a caller-owned `m x n` output matrix.
    ///
    /// Register-blocked along the output columns: four columns per pass
    /// share one read of the `self` row and run four independent
    /// accumulator chains (instruction-level parallelism the scalar
    /// dot-product loop cannot reach, since a single f32 accumulator is
    /// a serial dependency chain). Every accumulator still sums over k
    /// in ascending order, so results are bit-identical to the scalar
    /// reference.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "matmul_t trailing dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.resize_zeroed(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let b0 = &rhs.data[j * k..(j + 1) * k];
                let b1 = &rhs.data[(j + 1) * k..(j + 2) * k];
                let b2 = &rhs.data[(j + 2) * k..(j + 3) * k];
                let b3 = &rhs.data[(j + 3) * k..(j + 4) * k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (kk, &a) in a_row.iter().enumerate() {
                    s0 += a * b0[kk];
                    s1 += a * b1[kk];
                    s2 += a * b2[kk];
                    s3 += a * b3[kk];
                }
                out_row[j] = s0;
                out_row[j + 1] = s1;
                out_row[j + 2] = s2;
                out_row[j + 3] = s3;
                j += 4;
            }
            while j < n {
                let b_row = &rhs.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out_row[j] = acc;
                j += 1;
            }
        }
    }

    /// Adds `other * scale` element-wise in place.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.rows, other.rows, "add_scaled shape mismatch");
        assert_eq!(self.cols, other.cols, "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * scale;
        }
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale(&mut self, scale: f32) {
        for a in self.data.iter_mut() {
            *a *= scale;
        }
    }
}

/// Applies ReLU in place and writes the activation mask used for backprop
/// (`true` where the input was positive) into a caller-owned buffer
/// (cleared here), so the training loop reuses one mask allocation per
/// layer.
pub fn relu_inplace_into(m: &mut Matrix, mask: &mut Vec<bool>) {
    mask.clear();
    mask.reserve(m.data.len());
    for v in m.data.iter_mut() {
        if *v > 0.0 {
            mask.push(true);
        } else {
            *v = 0.0;
            mask.push(false);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocating forms of the kernels — the tests' oracles and
    /// shorthands.
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

    fn relu_inplace(m: &mut Matrix) -> Vec<bool> {
        let mut mask = Vec::new();
        relu_inplace_into(m, &mut mask);
        mask
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
    fn relu_masks_negatives() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        let mask = relu_inplace(&mut m);
        assert_eq!(m.data(), &[0.0, 0.0, 2.0, 0.0]);
        assert_eq!(mask, vec![false, false, true, false]);
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
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[0.5, 1.0, 1.5, 2.0]);
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
    /// (which would let `-0.0` slide) and the contract the kernel
    /// optimisations pin: same shapes, same ascending-k accumulation
    /// order, same bits.
    fn assert_bits(label: &str, got: &Matrix, want: &Matrix) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{label}: shape");
        for (i, (g, w)) in got.data().iter().zip(want.data().iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: element {i}: {g} vs {w}");
        }
    }

    /// The optimised kernels (i-k-j `matmul`, transpose-free `t_matmul`,
    /// register-blocked `matmul_t`) against naive triple loops that
    /// accumulate over ascending k — the pre-optimisation order. Shapes
    /// make the 4-wide block cover one full block *and* a scalar
    /// remainder (n = 6).
    #[test]
    fn gemm_kernels_are_bit_identical_to_naive_reference() {
        let (m, k, n) = (5, 7, 6);
        let a = fill(m, k, 1);

        let b = fill(k, n, 2);
        let c = a.matmul(&b);
        let naive = Matrix::from_fn(m, n, |i, j| {
            (0..k).fold(0.0f32, |acc, kk| acc + a.get(i, kk) * b.get(kk, j))
        });
        assert_bits("matmul", &c, &naive);

        let at = fill(k, m, 3); // k x m — t_matmul computes at^T * b
        let c = at.t_matmul(&b);
        let naive = Matrix::from_fn(m, n, |i, j| {
            (0..k).fold(0.0f32, |acc, kk| acc + at.get(kk, i) * b.get(kk, j))
        });
        assert_bits("t_matmul", &c, &naive);

        let bt = fill(n, k, 4); // n x k — matmul_t computes a * bt^T
        let c = a.matmul_t(&bt);
        let naive = Matrix::from_fn(m, n, |i, j| {
            (0..k).fold(0.0f32, |acc, kk| acc + a.get(i, kk) * bt.get(j, kk))
        });
        assert_bits("matmul_t", &c, &naive);

        // ReLU-shaped left operands: a third exact `+0.0`, a sixth
        // `-0.0`. The branch-free kernels must match both the naive fold
        // and the zero-skip kernels they replaced, bit for bit.
        for (m, k, n) in [(5, 7, 6), (1, 16, 24), (8, 24, 16), (3, 1, 5), (6, 16, 6)] {
            let a = relu_fill(m, k, m + k);
            let b = fill(k, n, n);
            let label = format!("matmul {m}x{k}x{n} (zeros)");
            let naive = Matrix::from_fn(m, n, |i, j| {
                (0..k).fold(0.0f32, |acc, kk| acc + a.get(i, kk) * b.get(kk, j))
            });
            assert_bits(&label, &a.matmul(&b), &naive);
            assert_bits(&label, &a.matmul(&b), &matmul_skip_reference(&a, &b));

            let at = relu_fill(k, m, m * k);
            let label = format!("t_matmul {m}x{k}x{n} (zeros)");
            let naive = Matrix::from_fn(m, n, |i, j| {
                (0..k).fold(0.0f32, |acc, kk| acc + at.get(kk, i) * b.get(kk, j))
            });
            assert_bits(&label, &at.t_matmul(&b), &naive);
            assert_bits(&label, &at.t_matmul(&b), &t_matmul_skip_reference(&at, &b));
        }
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

    /// The one documented change of the branch-free kernels: a zero left
    /// operand no longer hides a non-finite right operand — `0 · ∞` is
    /// NaN, per IEEE 754.
    #[test]
    fn zero_times_infinity_is_nan_in_both_kernels() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan());
        assert_eq!(matmul_skip_reference(&a, &b).get(0, 0), 2.0, "the skip hid the infinity");
        let at = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        assert!(at.t_matmul(&b).get(0, 0).is_nan());
        assert_eq!(t_matmul_skip_reference(&at, &b).get(0, 0), 2.0);
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
