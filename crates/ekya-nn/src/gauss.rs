//! Dependency-free Gaussian sampling, shared workspace-wide.
//!
//! Three call sites used to sample normals three different ways (a local
//! Box–Muller closure in `mlp`, a private module in
//! `ekya-core::microprofiler`, and `rand_distr::Normal` in
//! `ekya-video::drift`). This module is the single replacement: one
//! Box–Muller implementation, no `rand_distr` dependency anywhere.

use rand::Rng;

/// One sample from the zero-mean Gaussian `N(0, std²)`.
///
/// Box–Muller from two uniforms; `u1` is bounded away from 0 so the log
/// is always finite. Deterministic given the RNG state.
pub fn sample_gaussian<R: Rng>(rng: &mut R, std: f64) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos() * std
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_match() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_gaussian(&mut rng, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn zero_std_is_degenerate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_gaussian(&mut rng, 0.0), 0.0);
    }
}
