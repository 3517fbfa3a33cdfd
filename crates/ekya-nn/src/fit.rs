//! Learning-curve fitting for the micro-profiler.
//!
//! Ekya's micro-profiler trains each candidate configuration for a handful
//! of epochs on a small data sample, then fits the observed accuracy-epoch
//! points to a non-linear curve model (the one used by Optimus) with a
//! non-negative least squares solver, and extrapolates to the full
//! training run (§4.3). This module implements:
//!
//! * a dense linear least-squares solver (normal equations + Gaussian
//!   elimination with partial pivoting);
//! * the Lawson–Hanson active-set NNLS algorithm, from scratch;
//! * the saturating curve model `acc(k) = c - 1/(a·k + b)` with `a, b >= 0`,
//!   fitted by a grid search over the asymptote `c` with NNLS solving for
//!   `(a, b)` at each candidate `c`.
//!
//! The curve is monotone non-decreasing in `k` and saturates at `c`, which
//! matches the empirical shape of DNN fine-tuning curves.

use serde::{Deserialize, Serialize};

/// Solves the square system `m x = rhs` by Gaussian elimination with
/// partial pivoting. Returns `None` when the matrix is singular
/// (pivot below `1e-12`).
pub fn solve_linear(m: &[Vec<f64>], rhs: &[f64]) -> Option<Vec<f64>> {
    let n = rhs.len();
    assert_eq!(m.len(), n, "matrix/rhs size mismatch");
    let mut a: Vec<Vec<f64>> = m
        .iter()
        .zip(rhs.iter())
        .map(|(row, &r)| {
            assert_eq!(row.len(), n, "matrix must be square");
            let mut v = row.clone();
            v.push(r);
            v
        })
        .collect();

    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap();
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        let pivot: Vec<f64> = a[col].clone();
        for below in a.iter_mut().take(n).skip(col + 1) {
            let factor = below[col] / pivot[col];
            for (v, p) in below[col..=n].iter_mut().zip(&pivot[col..=n]) {
                *v -= factor * p;
            }
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = a[row][n];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// Unconstrained linear least squares: minimises `||A x - y||_2` via the
/// normal equations. `a` is row-major with `a.len()` rows of `n` columns.
pub fn lstsq(a: &[Vec<f64>], y: &[f64]) -> Option<Vec<f64>> {
    let rows = a.len();
    assert_eq!(rows, y.len(), "row count mismatch");
    if rows == 0 {
        return None;
    }
    let n = a[0].len();
    // ata = A^T A (n x n), aty = A^T y (n).
    let mut ata = vec![vec![0.0; n]; n];
    let mut aty = vec![0.0; n];
    for (row, &yi) in a.iter().zip(y.iter()) {
        assert_eq!(row.len(), n, "ragged design matrix");
        for i in 0..n {
            aty[i] += row[i] * yi;
            for j in i..n {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    for i in 0..n {
        let (above, below) = ata.split_at_mut(i);
        for (j, upper_row) in above.iter().enumerate() {
            below[0][j] = upper_row[i]; // symmetric fill
        }
    }
    solve_linear(&ata, &aty)
}

/// Non-negative least squares: minimises `||A x - y||_2` subject to
/// `x >= 0`, using the Lawson–Hanson active-set method.
///
/// This is the same primitive the paper delegates to
/// `scipy.optimize.nnls` \[3\].
pub fn nnls(a: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
    let rows = a.len();
    assert_eq!(rows, y.len(), "row count mismatch");
    if rows == 0 {
        return Vec::new();
    }
    let n = a[0].len();
    let mut x = vec![0.0f64; n];
    let mut passive = vec![false; n];
    let tol = 1e-10;
    let max_outer = 3 * n + 10;

    // Solves LS restricted to the passive set; entries outside it are 0.
    let solve_passive = |passive: &[bool]| -> Option<Vec<f64>> {
        let idx: Vec<usize> = (0..n).filter(|&i| passive[i]).collect();
        if idx.is_empty() {
            return Some(vec![0.0; n]);
        }
        let sub: Vec<Vec<f64>> =
            a.iter().map(|row| idx.iter().map(|&i| row[i]).collect()).collect();
        let sol = lstsq(&sub, y)?;
        let mut full = vec![0.0; n];
        for (&i, &v) in idx.iter().zip(sol.iter()) {
            full[i] = v;
        }
        Some(full)
    };

    for _ in 0..max_outer {
        // Gradient of the residual: w = A^T (y - A x).
        let mut w = vec![0.0f64; n];
        for (row, &yi) in a.iter().zip(y.iter()) {
            let pred: f64 = row.iter().zip(x.iter()).map(|(&ai, &xi)| ai * xi).sum();
            let r = yi - pred;
            for (wi, &ai) in w.iter_mut().zip(row.iter()) {
                *wi += ai * r;
            }
        }
        // Most-violating active variable.
        let candidate = (0..n)
            .filter(|&i| !passive[i])
            .max_by(|&i, &j| w[i].partial_cmp(&w[j]).unwrap_or(std::cmp::Ordering::Equal));
        let Some(j) = candidate else { break };
        if w[j] <= tol {
            break;
        }
        passive[j] = true;

        let mut z = match solve_passive(&passive) {
            Some(z) => z,
            None => {
                passive[j] = false;
                break;
            }
        };
        // Inner loop: retreat until the passive solution is feasible.
        let mut inner_guard = 0;
        while passive.iter().enumerate().any(|(i, &p)| p && z[i] <= tol) {
            inner_guard += 1;
            if inner_guard > n + 2 {
                break;
            }
            let mut alpha = f64::INFINITY;
            for i in 0..n {
                if passive[i] && z[i] <= tol {
                    let denom = x[i] - z[i];
                    if denom.abs() > 1e-15 {
                        alpha = alpha.min(x[i] / denom);
                    } else {
                        alpha = 0.0;
                    }
                }
            }
            if !alpha.is_finite() {
                break;
            }
            for i in 0..n {
                if passive[i] {
                    x[i] += alpha * (z[i] - x[i]);
                    if x[i] <= tol {
                        x[i] = 0.0;
                        passive[i] = false;
                    }
                }
            }
            z = match solve_passive(&passive) {
                Some(z) => z,
                None => break,
            };
        }
        x = z;
        for (xi, &p) in x.iter_mut().zip(passive.iter()) {
            if !p {
                *xi = 0.0;
            }
        }
    }
    for xi in x.iter_mut() {
        if *xi < 0.0 {
            *xi = 0.0;
        }
    }
    x
}

/// The fitted saturating learning curve `acc(k) = c - 1/(a k + b)`.
///
/// `k` is training progress measured in *full-data epoch equivalents*:
/// training for `e` epochs on a `f` fraction of the data advances `k` by
/// `e * f`, so curves observed on micro-profiling samples extrapolate
/// directly to full retraining runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LearningCurve {
    /// Slope parameter (`>= 0`).
    pub a: f64,
    /// Offset parameter (`> 0`).
    pub b: f64,
    /// Asymptotic accuracy in `(0, 1]`.
    pub c: f64,
}

impl LearningCurve {
    /// A degenerate flat curve pinned at `acc` (used when there are too few
    /// observations to fit).
    pub fn flat(acc: f64) -> Self {
        let acc = acc.clamp(0.0, 1.0);
        // 1/(a*k+b) == 0 requires b -> inf; emulate with a huge offset.
        Self { a: 0.0, b: 1e12, c: acc }
    }

    /// Predicted accuracy after `k` full-data epoch equivalents, clamped
    /// to `[0, 1]`.
    pub fn predict(&self, k: f64) -> f64 {
        let k = k.max(0.0);
        let denom = self.a * k + self.b;
        let v = if denom <= 1e-12 { 0.0 } else { self.c - 1.0 / denom };
        v.clamp(0.0, 1.0)
    }

    /// Fits the curve to `(k, accuracy)` observations with the asymptote
    /// allowed anywhere up to 1.0. See [`LearningCurve::fit_capped`].
    pub fn fit(points: &[(f64, f64)]) -> Self {
        Self::fit_capped(points, 1.0)
    }

    /// Fits the curve to `(k, accuracy)` observations.
    ///
    /// Uses the linearisation `1/(c - acc) = a k + b` for each candidate
    /// asymptote `c` on a grid, solves `(a, b)` with [`nnls`], and keeps
    /// the candidate with the lowest squared error in accuracy space
    /// (ties break towards the *smallest* asymptote, so the fit does not
    /// hallucinate headroom the observations cannot support).
    ///
    /// `c_max` caps the asymptote: early-terminated micro-profiling runs
    /// only observe the start of the curve, where the data often cannot
    /// distinguish "fast rise to a low ceiling" from "slow rise to a high
    /// ceiling". Callers that know how much headroom is plausible (e.g.
    /// the micro-profiler, which bounds it relative to the best observed
    /// accuracy) pass it here.
    ///
    /// Falls back to [`LearningCurve::flat`] at the best observed accuracy
    /// when fewer than two distinct points are available.
    pub fn fit_capped(points: &[(f64, f64)], c_max: f64) -> Self {
        let pts: Vec<(f64, f64)> = points
            .iter()
            .filter(|(k, acc)| k.is_finite() && acc.is_finite() && *k >= 0.0)
            .map(|&(k, acc)| (k, acc.clamp(0.0, 1.0)))
            .collect();
        if pts.len() < 2 {
            let best = pts.iter().map(|p| p.1).fold(0.0, f64::max);
            return Self::flat(best);
        }
        let max_acc = pts.iter().map(|p| p.1).fold(0.0, f64::max);
        // The asymptote must sit above every observation but never above
        // 1.0 (perfect accuracy); when both collide (max_acc == 1.0) the
        // grid degenerates to the single candidate c = 1.0.
        let c_floor = (max_acc + 0.005).min(1.0);
        let c_cap = c_max.clamp(c_floor, 1.0);

        let mut best: Option<(f64, LearningCurve)> = None;
        // Design matrix rows [k, 1]: identical for every asymptote candidate,
        // so build it (and the target buffer) once outside the grid loop.
        let a_mat: Vec<Vec<f64>> = pts.iter().map(|&(k, _)| vec![k, 1.0]).collect();
        let mut yv: Vec<f64> = vec![0.0; pts.len()];
        // Asymptote candidates strictly above every observation, up to the
        // cap. The ascending grid plus strict improvement means equal-error
        // fits resolve to the smallest plausible asymptote.
        let mut c = c_floor.min(c_cap);
        loop {
            // Target 1/(c - acc) for this candidate asymptote.
            for (y, &(_, acc)) in yv.iter_mut().zip(pts.iter()) {
                *y = 1.0 / (c - acc).max(1e-9);
            }
            let sol = nnls(&a_mat, &yv);
            let (a, b) = (sol[0], sol[1].max(1e-9));
            let curve = LearningCurve { a, b, c };
            let err: f64 = pts.iter().map(|&(k, acc)| (curve.predict(k) - acc).powi(2)).sum();
            if best.as_ref().map(|(e, _)| err < *e).unwrap_or(true) {
                best = Some((err, curve));
            }
            if c >= c_cap {
                break;
            }
            c = (c + 0.01).min(c_cap);
        }
        best.map(|(_, c)| c).unwrap_or_else(|| Self::flat(max_acc))
    }

    /// Root-mean-square error of the fit on `points`.
    pub fn rmse(&self, points: &[(f64, f64)]) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        let sq: f64 = points.iter().map(|&(k, acc)| (self.predict(k) - acc).powi(2)).sum();
        (sq / points.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_linear_identity() {
        let m = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve_linear(&m, &[3.0, 4.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_singular_returns_none() {
        let m = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_linear(&m, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_linear_needs_pivoting() {
        // Zero on the diagonal forces a row swap.
        let m = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve_linear(&m, &[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lstsq_recovers_line() {
        // y = 2x + 1 with exact data.
        let a: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..10).map(|i| 2.0 * i as f64 + 1.0).collect();
        let sol = lstsq(&a, &y).unwrap();
        assert!((sol[0] - 2.0).abs() < 1e-9);
        assert!((sol[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nnls_matches_lstsq_when_unconstrained_solution_is_positive() {
        let a: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..20).map(|i| 0.5 * i as f64 + 2.0).collect();
        let x = nnls(&a, &y);
        assert!((x[0] - 0.5).abs() < 1e-6, "got {x:?}");
        assert!((x[1] - 2.0).abs() < 1e-6, "got {x:?}");
    }

    #[test]
    fn nnls_clamps_negative_solution_to_zero() {
        // Unconstrained solution has a negative slope; NNLS must pin it at 0.
        let a: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..10).map(|i| 5.0 - 0.3 * i as f64).collect();
        let x = nnls(&a, &y);
        assert_eq!(x[0], 0.0, "slope must be clamped: {x:?}");
        assert!(x[1] > 0.0);
    }

    #[test]
    fn nnls_all_zero_target() {
        let a: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 + 1.0]).collect();
        let y = vec![0.0; 5];
        let x = nnls(&a, &y);
        assert!(x[0].abs() < 1e-9);
    }

    #[test]
    fn nnls_never_negative_randomised() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12345);
        for _ in 0..50 {
            let rows = rng.gen_range(3..12);
            let cols = rng.gen_range(1..4);
            let a: Vec<Vec<f64>> =
                (0..rows).map(|_| (0..cols).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect();
            let y: Vec<f64> = (0..rows).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let x = nnls(&a, &y);
            assert_eq!(x.len(), cols);
            for v in &x {
                assert!(*v >= 0.0, "negative NNLS output: {x:?}");
            }
        }
    }

    #[test]
    fn nnls_beats_or_matches_zero_vector() {
        // The NNLS residual can never exceed the residual of x = 0 when
        // that is checked against the returned solution.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(777);
        for _ in 0..30 {
            let rows = rng.gen_range(4..10);
            let a: Vec<Vec<f64>> = (0..rows).map(|_| vec![rng.gen_range(0.0..2.0), 1.0]).collect();
            let y: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..3.0)).collect();
            let x = nnls(&a, &y);
            let res = |xv: &[f64]| -> f64 {
                a.iter()
                    .zip(y.iter())
                    .map(|(row, &yi)| {
                        let p: f64 = row.iter().zip(xv).map(|(&ai, &xi)| ai * xi).sum();
                        (p - yi).powi(2)
                    })
                    .sum()
            };
            assert!(res(&x) <= res(&[0.0, 0.0]) + 1e-9);
        }
    }

    #[test]
    fn curve_fit_recovers_synthetic_curve() {
        let truth = LearningCurve { a: 0.8, b: 1.6, c: 0.9 };
        let pts: Vec<(f64, f64)> = (1..=5).map(|k| (k as f64, truth.predict(k as f64))).collect();
        let fit = LearningCurve::fit(&pts);
        // Extrapolation to 30 epochs should be close to the true curve.
        let err = (fit.predict(30.0) - truth.predict(30.0)).abs();
        assert!(err < 0.03, "extrapolation error {err} too high: fit {fit:?}");
    }

    #[test]
    fn curve_is_monotone_and_saturates() {
        let c = LearningCurve::fit(&[(0.5, 0.4), (1.0, 0.55), (2.0, 0.65), (4.0, 0.72)]);
        let mut prev = 0.0;
        for i in 0..200 {
            let v = c.predict(i as f64 * 0.5);
            assert!(v + 1e-9 >= prev, "curve must be monotone");
            assert!(v <= 1.0);
            prev = v;
        }
        assert!(c.predict(1e9) <= c.c.clamp(0.0, 1.0) + 1e-9);
    }

    #[test]
    fn flat_curve_predicts_constant() {
        let c = LearningCurve::flat(0.66);
        assert!((c.predict(0.0) - 0.66).abs() < 1e-6);
        assert!((c.predict(100.0) - 0.66).abs() < 1e-6);
    }

    #[test]
    fn fit_with_single_point_falls_back_to_flat() {
        let c = LearningCurve::fit(&[(1.0, 0.5)]);
        assert!((c.predict(50.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn fit_ignores_non_finite_points() {
        let c = LearningCurve::fit(&[(1.0, 0.5), (f64::NAN, 0.9), (2.0, 0.6), (3.0, f64::NAN)]);
        assert!(c.predict(3.0) >= 0.5);
    }

    #[test]
    fn fit_tolerates_perfect_accuracy_observations() {
        // Regression: observations hitting 1.0 used to panic the clamp.
        let c = LearningCurve::fit_capped(&[(0.1, 0.9), (0.2, 1.0), (0.3, 1.0)], 1.0);
        assert!(c.predict(10.0) <= 1.0);
        assert!(c.predict(10.0) > 0.9);
        let c2 = LearningCurve::fit(&[(0.1, 1.0), (0.2, 1.0)]);
        assert!(c2.predict(5.0) <= 1.0);
    }

    #[test]
    fn rmse_zero_on_perfect_fit() {
        let truth = LearningCurve { a: 1.0, b: 2.0, c: 0.85 };
        let pts: Vec<(f64, f64)> = (1..=6).map(|k| (k as f64, truth.predict(k as f64))).collect();
        assert!(truth.rmse(&pts) < 1e-12);
    }
}
