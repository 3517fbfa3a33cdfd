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
//! The solvers are fixed-width: a design matrix is a slice of `[f64; N]`
//! rows with the column count `N` known at compile time, and every
//! intermediate — the normal equations, the elimination tableau, the
//! passive-set sub-problem — is an `N`-wide array on the stack. The curve
//! fit runs one NNLS per asymptote candidate (about 45 per fit, one fit
//! per curve key per stream per window), and none of them touches the
//! heap. The arithmetic matches the slice-of-`Vec` solver the unit tests
//! keep as their oracle operation for operation and in the same order
//! (same `sum` folds, same last-maximum-wins pivot and variable choice,
//! same symmetric fill), so the results are bit-identical to it.
//!
//! The curve is monotone non-decreasing in `k` and saturates at `c`, which
//! matches the empirical shape of DNN fine-tuning curves.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Solves the leading `n × n` block of the square system `a x = b` by
/// Gaussian elimination with partial pivoting. Returns `None` when it is
/// singular (pivot below `1e-12`); entries of the solution past `n` are 0.
fn solve_linear<const N: usize>(
    mut a: [[f64; N]; N],
    mut b: [f64; N],
    n: usize,
) -> Option<[f64; N]> {
    for col in 0..n {
        // Partial pivot (on ties the last row wins, as `max_by` does).
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap_or(Ordering::Equal)
            })
            .unwrap();
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let (pivot, pivot_rhs) = (a[col], b[col]);
        for below in (col + 1)..n {
            let factor = a[below][col] / pivot[col];
            for (v, p) in a[below][col..n].iter_mut().zip(&pivot[col..n]) {
                *v -= factor * p;
            }
            b[below] -= factor * pivot_rhs;
        }
    }
    let mut x = [0.0; N];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// Unconstrained linear least squares on the columns `cols[..n]` of `A`
/// (rows `a`), in that order: minimises `||A' x - y||_2` via the normal
/// equations. Entry `i` of the solution belongs to column `cols[i]`, and
/// entries past `n` are 0. Returns `None` when `a` has no rows or the
/// normal equations are singular.
fn lstsq<const N: usize>(
    a: &[[f64; N]],
    y: &[f64],
    cols: &[usize; N],
    n: usize,
) -> Option<[f64; N]> {
    assert_eq!(a.len(), y.len(), "row count mismatch");
    if a.is_empty() {
        return None;
    }
    // ata = A'^T A' (n x n), aty = A'^T y (n).
    let mut ata = [[0.0; N]; N];
    let mut aty = [0.0; N];
    for (row, &yi) in a.iter().zip(y) {
        for i in 0..n {
            aty[i] += row[cols[i]] * yi;
            for j in i..n {
                ata[i][j] += row[cols[i]] * row[cols[j]];
            }
        }
    }
    for i in 0..n {
        let (above, below) = ata.split_at_mut(i);
        for (j, upper_row) in above.iter().enumerate() {
            below[0][j] = upper_row[i]; // symmetric fill
        }
    }
    solve_linear(ata, aty, n)
}

/// Non-negative least squares: minimises `||A x - y||_2` subject to
/// `x >= 0`, using the Lawson–Hanson active-set method. `a` holds the rows
/// of `A`; with no rows the solution is all zeros.
///
/// This is the same primitive the paper delegates to
/// `scipy.optimize.nnls` \[3\].
pub fn nnls<const N: usize>(a: &[[f64; N]], y: &[f64]) -> [f64; N] {
    assert_eq!(a.len(), y.len(), "row count mismatch");
    let mut x = [0.0f64; N];
    if a.is_empty() {
        return x;
    }
    let mut passive = [false; N];
    let tol = 1e-10;
    let max_outer = 3 * N + 10;

    // Solves LS restricted to the passive set; entries outside it are 0.
    let solve_passive = |passive: &[bool; N]| -> Option<[f64; N]> {
        let mut cols = [0usize; N];
        let mut m = 0;
        for i in (0..N).filter(|&i| passive[i]) {
            cols[m] = i;
            m += 1;
        }
        if m == 0 {
            return Some([0.0; N]);
        }
        let sol = lstsq(a, y, &cols, m)?;
        let mut full = [0.0; N];
        for (&i, &v) in cols[..m].iter().zip(&sol) {
            full[i] = v;
        }
        Some(full)
    };

    for _ in 0..max_outer {
        // Gradient of the residual: w = A^T (y - A x).
        let mut w = [0.0f64; N];
        for (row, &yi) in a.iter().zip(y) {
            let pred: f64 = row.iter().zip(&x).map(|(&ai, &xi)| ai * xi).sum();
            let r = yi - pred;
            for (wi, &ai) in w.iter_mut().zip(row) {
                *wi += ai * r;
            }
        }
        // Most-violating active variable (on ties the last one wins).
        let candidate = (0..N)
            .filter(|&i| !passive[i])
            .max_by(|&i, &j| w[i].partial_cmp(&w[j]).unwrap_or(Ordering::Equal));
        let Some(j) = candidate else { break };
        if w[j] <= tol {
            break;
        }
        passive[j] = true;

        // A singular passive system ends the search at the current `x`.
        let Some(mut z) = solve_passive(&passive) else { break };
        // Inner loop: retreat until the passive solution is feasible.
        let mut inner_guard = 0;
        while passive.iter().zip(&z).any(|(&p, &zi)| p && zi <= tol) {
            inner_guard += 1;
            if inner_guard > N + 2 {
                break;
            }
            let mut alpha = f64::INFINITY;
            for i in 0..N {
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
            for i in 0..N {
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
        for (xi, &p) in x.iter_mut().zip(&passive) {
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
    /// asymptote `c` on a grid, solves `(a, b)` with the two-column
    /// [`nnls`] (no heap allocation per candidate), and keeps
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
        // The rows are fixed-width, so each candidate's NNLS works on the
        // stack: the grid search allocates nothing past these two buffers.
        let a_mat: Vec<[f64; 2]> = pts.iter().map(|&(k, _)| [k, 1.0]).collect();
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
            let [a, b] = nnls(&a_mat, &yv);
            let b = b.max(1e-9);
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

/// The slice-of-`Vec` solver the fixed-width one replaced, and the curve
/// fit on top of it, kept verbatim as the oracle of the bit-identity tests:
/// every fixed-width result must equal these `to_bits` for `to_bits`.
#[cfg(test)]
mod reference {
    use super::LearningCurve;

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
                    a[i][col]
                        .abs()
                        .partial_cmp(&a[j][col].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
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

    /// [`LearningCurve::fit_capped`] on the reference [`nnls`].
    pub fn fit_capped(points: &[(f64, f64)], c_max: f64) -> LearningCurve {
        let pts: Vec<(f64, f64)> = points
            .iter()
            .filter(|(k, acc)| k.is_finite() && acc.is_finite() && *k >= 0.0)
            .map(|&(k, acc)| (k, acc.clamp(0.0, 1.0)))
            .collect();
        if pts.len() < 2 {
            let best = pts.iter().map(|p| p.1).fold(0.0, f64::max);
            return LearningCurve::flat(best);
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
        best.map(|(_, c)| c).unwrap_or_else(|| LearningCurve::flat(max_acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn solve_linear_identity() {
        let x = solve_linear([[1.0, 0.0], [0.0, 1.0]], [3.0, 4.0], 2).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_singular_returns_none() {
        assert!(solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0], 2).is_none());
    }

    #[test]
    fn solve_linear_needs_pivoting() {
        // Zero on the diagonal forces a row swap.
        let x = solve_linear([[0.0, 1.0], [1.0, 0.0]], [5.0, 7.0], 2).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lstsq_recovers_line() {
        // y = 2x + 1 with exact data.
        let a: Vec<[f64; 2]> = (0..10).map(|i| [i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..10).map(|i| 2.0 * i as f64 + 1.0).collect();
        let sol = lstsq(&a, &y, &[0, 1], 2).unwrap();
        assert!((sol[0] - 2.0).abs() < 1e-9);
        assert!((sol[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nnls_matches_lstsq_when_unconstrained_solution_is_positive() {
        let a: Vec<[f64; 2]> = (0..20).map(|i| [i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..20).map(|i| 0.5 * i as f64 + 2.0).collect();
        let x = nnls(&a, &y);
        assert!((x[0] - 0.5).abs() < 1e-6, "got {x:?}");
        assert!((x[1] - 2.0).abs() < 1e-6, "got {x:?}");
    }

    #[test]
    fn nnls_clamps_negative_solution_to_zero() {
        // Unconstrained solution has a negative slope; NNLS must pin it at 0.
        let a: Vec<[f64; 2]> = (0..10).map(|i| [i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..10).map(|i| 5.0 - 0.3 * i as f64).collect();
        let x = nnls(&a, &y);
        assert_eq!(x[0], 0.0, "slope must be clamped: {x:?}");
        assert!(x[1] > 0.0);
    }

    #[test]
    fn nnls_all_zero_target() {
        let a: Vec<[f64; 1]> = (0..5).map(|i| [i as f64 + 1.0]).collect();
        let y = vec![0.0; 5];
        let x = nnls(&a, &y);
        assert!(x[0].abs() < 1e-9);
    }

    /// A random `rows × N` system; `rows` may be 0.
    fn arb_system<const N: usize>(rng: &mut StdRng, rows: usize) -> (Vec<[f64; N]>, Vec<f64>) {
        let a = (0..rows).map(|_| std::array::from_fn(|_| rng.gen_range(-2.0..2.0))).collect();
        let y = (0..rows).map(|_| rng.gen_range(-2.0..2.0)).collect();
        (a, y)
    }

    fn check_never_negative<const N: usize>(rng: &mut StdRng, rows: usize) {
        let (a, y) = arb_system::<N>(rng, rows);
        let x = nnls(&a, &y);
        for v in &x {
            assert!(*v >= 0.0, "negative NNLS output: {x:?}");
        }
    }

    #[test]
    fn nnls_never_negative_randomised() {
        let mut rng = StdRng::seed_from_u64(12345);
        for _ in 0..50 {
            let rows = rng.gen_range(3..12);
            match rng.gen_range(1..4) {
                1 => check_never_negative::<1>(&mut rng, rows),
                2 => check_never_negative::<2>(&mut rng, rows),
                _ => check_never_negative::<3>(&mut rng, rows),
            }
        }
    }

    #[test]
    fn nnls_beats_or_matches_zero_vector() {
        // The NNLS residual can never exceed the residual of x = 0 when
        // that is checked against the returned solution.
        let mut rng = StdRng::seed_from_u64(777);
        for _ in 0..30 {
            let rows = rng.gen_range(4..10);
            let a: Vec<[f64; 2]> = (0..rows).map(|_| [rng.gen_range(0.0..2.0), 1.0]).collect();
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

    fn to_vecs<const N: usize>(a: &[[f64; N]]) -> Vec<Vec<f64>> {
        a.iter().map(|row| row.to_vec()).collect()
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that `nnls`, `lstsq` and (on the normal equations)
    /// `solve_linear` give the reference's bits on one system.
    fn assert_matches_reference<const N: usize>(a: &[[f64; N]], y: &[f64], what: &str) {
        let got = nnls(a, y);
        let want = reference::nnls(&to_vecs(a), y);
        if a.is_empty() {
            // The reference returns no entries; the fixed-width solver zeros.
            assert!(want.is_empty() && got.iter().all(|&v| v == 0.0), "{what}: {got:?}");
        } else {
            assert_eq!(bits(&got), bits(&want), "{what}: nnls {got:?} vs {want:?}");
        }
        let got = lstsq(a, y, &std::array::from_fn(|i| i), N).map(|x| bits(&x));
        let want = reference::lstsq(&to_vecs(a), y).map(|x| bits(&x));
        assert_eq!(got, want, "{what}: lstsq");

        let m: [[f64; N]; N] =
            std::array::from_fn(|i| std::array::from_fn(|j| a.iter().map(|r| r[i] * r[j]).sum()));
        let rhs: [f64; N] =
            std::array::from_fn(|i| a.iter().zip(y).map(|(r, &yi)| r[i] * yi).sum());
        let got = solve_linear(m, rhs, N).map(|x| bits(&x));
        let want = reference::solve_linear(&to_vecs(&m), &rhs).map(|x| bits(&x));
        assert_eq!(got, want, "{what}: solve_linear");
    }

    /// A random system with, at random, one column zeroed, scaled below
    /// the pivot threshold or duplicated, or rows repeated.
    fn arb_degenerate_system<const N: usize>(rng: &mut StdRng) -> (Vec<[f64; N]>, Vec<f64>) {
        let rows = rng.gen_range(0..12);
        let (mut a, y) = arb_system::<N>(rng, rows);
        let col = rng.gen_range(0..N);
        match rng.gen_range(0..5) {
            0 => a.iter_mut().for_each(|r| r[col] = 0.0),
            1 => a.iter_mut().for_each(|r| r[col] *= 1e-7),
            2 => a.iter_mut().for_each(|r| r[col] = r[N - 1 - col]),
            3 if rows > 1 => {
                let first = a[0];
                a.iter_mut().step_by(2).for_each(|r| *r = first);
            }
            _ => {}
        }
        (a, y)
    }

    #[test]
    fn nnls_matches_vec_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x22_15);
        for case in 0..20_000 {
            match case % 3 {
                0 => {
                    let (a, y) = arb_degenerate_system::<1>(&mut rng);
                    assert_matches_reference(&a, &y, &format!("case {case}"));
                }
                1 => {
                    let (a, y) = arb_degenerate_system::<2>(&mut rng);
                    assert_matches_reference(&a, &y, &format!("case {case}"));
                }
                _ => {
                    let (a, y) = arb_degenerate_system::<3>(&mut rng);
                    assert_matches_reference(&a, &y, &format!("case {case}"));
                }
            }
        }
    }

    /// The curve fit's own systems: rows `[k, 1]` against a target
    /// `1/(c - acc)` for some asymptote `c`.
    #[test]
    fn nnls_matches_vec_reference_on_curve_fit_systems() {
        let mut rng = StdRng::seed_from_u64(0xc0_42);
        for case in 0..20_000 {
            let rows = rng.gen_range(1..10);
            let a: Vec<[f64; 2]> = (0..rows).map(|_| [rng.gen_range(0.0..4.0), 1.0]).collect();
            let c: f64 = rng.gen_range(0.5..1.0);
            let y: Vec<f64> =
                (0..rows).map(|_| 1.0 / (c - rng.gen_range(0.0..c)).max(1e-9)).collect();
            assert_matches_reference(&a, &y, &format!("case {case}"));
        }
    }

    fn assert_fit_matches_reference(points: &[(f64, f64)], c_max: f64, what: &str) {
        let got = LearningCurve::fit_capped(points, c_max);
        let want = reference::fit_capped(points, c_max);
        assert_eq!(
            [got.a, got.b, got.c].map(f64::to_bits),
            [want.a, want.b, want.c].map(f64::to_bits),
            "{what}: {got:?} vs {want:?} on {points:?} (c_max {c_max})"
        );
    }

    #[test]
    fn fit_capped_matches_vec_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xf17);
        for case in 0..5_000 {
            let len = rng.gen_range(0..9);
            // Micro-profiling checkpoints: progress on a coarse grid (so
            // repeated `k` is common), accuracy anywhere in [0, 1], with
            // exact 1.0 and out-of-range values mixed in.
            let points: Vec<(f64, f64)> = (0..len)
                .map(|_| {
                    let k = rng.gen_range(0..6) as f64 * 0.25;
                    let acc = match rng.gen_range(0..8) {
                        0 => 1.0,
                        1 => rng.gen_range(-0.2..1.2),
                        _ => rng.gen_range(0.0..1.0),
                    };
                    (k, acc)
                })
                .collect();
            let c_max = rng.gen_range(0.3..1.3);
            assert_fit_matches_reference(&points, c_max, &format!("case {case}"));
        }
    }

    #[test]
    fn degenerate_inputs_match_reference() {
        // 0, 1 and 2 points.
        assert_fit_matches_reference(&[], 1.0, "no points");
        assert_fit_matches_reference(&[(1.0, 0.4)], 1.0, "one point");
        assert_fit_matches_reference(&[(0.5, 0.4), (1.0, 0.6)], 0.9, "two points");
        // Repeated k: the [k, 1] columns are parallel.
        assert_fit_matches_reference(&[(1.0, 0.4), (1.0, 0.6), (1.0, 0.5)], 1.0, "repeated k");
        // Every accuracy 1.0: c_floor == c_cap, a one-candidate grid.
        assert_fit_matches_reference(&[(0.5, 1.0), (1.0, 1.0)], 0.8, "all perfect");

        // A zero column never enters the passive set.
        let a = [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]];
        let y = [1.0, 2.0, 2.5];
        assert_matches_reference(&a, &y, "zero column");
        assert_eq!(nnls(&a, &y)[0], 0.0);

        // A singular passive system: the column enters (its gradient
        // 1e-7 beats the tolerance) but its normal equation's pivot
        // (1e-14) does not, so `solve_linear` refuses and NNLS stops at 0.
        let a = [[1e-7, 0.0], [0.0, 1e-7]];
        let y = [1.0, 1.0];
        assert!(solve_linear([[1e-14]], [1e-7], 1).is_none());
        assert!(lstsq(&a, &y, &[0, 1], 2).is_none());
        assert_matches_reference(&a, &y, "singular passive system");
        assert_eq!(nnls(&a, &y), [0.0, 0.0]);

        // No rows at all.
        assert_matches_reference::<2>(&[], &[], "no rows");
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
