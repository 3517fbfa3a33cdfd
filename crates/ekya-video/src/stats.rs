//! Distribution statistics over windows.
//!
//! Used by two parts of the system: the model-cache baseline (§6.5) picks
//! the cached model "whose class distribution (vector of object class
//! frequencies) of its training data has the closest Euclidean distance
//! with the current window's data", and the drift diagnostics behind
//! Fig 2a.

/// Euclidean (L2) distance between two class-frequency vectors.
///
/// # Panics
/// Panics when the vectors have different lengths.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distribution length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y).powi(2)).sum::<f64>().sqrt()
}

/// Index of the distribution in `candidates` closest (Euclidean) to
/// `target`, or `None` when `candidates` is empty.
pub fn nearest_distribution(target: &[f64], candidates: &[Vec<f64>]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .map(|(i, c)| (euclidean_distance(target, c), i))
        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(_, i)| i)
}

/// Mean of a slice (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `p`-th percentile (nearest-rank) of a slice; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median absolute value of a slice (used for the micro-profiler error
/// statistic, Fig 11a's "median absolute error of 5.8%").
pub fn median_abs(xs: &[f64]) -> f64 {
    let abs: Vec<f64> = xs.iter().map(|x| x.abs()).collect();
    percentile(&abs, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_identity_is_zero() {
        let d = vec![0.2, 0.3, 0.5];
        assert_eq!(euclidean_distance(&d, &d), 0.0);
    }

    #[test]
    fn euclidean_known_value() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        assert!((euclidean_distance(&a, &b) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn nearest_distribution_picks_closest() {
        let target = vec![0.5, 0.5];
        let candidates = vec![vec![1.0, 0.0], vec![0.45, 0.55], vec![0.0, 1.0]];
        assert_eq!(nearest_distribution(&target, &candidates), Some(1));
        assert_eq!(nearest_distribution(&target, &[]), None);
    }

    #[test]
    fn percentile_and_median() {
        let xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(median_abs(&[-3.0, 1.0, -2.0]), 2.0);
    }

    #[test]
    fn mean_and_std() {
        let xs = vec![2.0, 4.0, 6.0];
        assert!((mean(&xs) - 4.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }
}
