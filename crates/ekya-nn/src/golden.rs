//! Golden-model teachers for knowledge-distillation labelling.
//!
//! Manual labelling is infeasible for continuous training on the edge, so
//! Ekya labels retraining data with an expensive, highly accurate "golden
//! model" (§2.2) — a teacher supervising a low-cost student.
//! [`OracleTeacher`] returns the ground-truth label with probability
//! `1 - error_rate`, otherwise a uniformly random *wrong* label. It is the
//! stand-in for ResNeXt101, whose labels the paper verified to be "very
//! similar to human-annotated labels" (§6.1).

use crate::data::Sample;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A source of (possibly imperfect) labels for unlabeled frames.
pub trait Teacher {
    /// Labels a feature vector. `true_y` is the simulation's ground truth,
    /// available because the workload is synthetic; a real teacher model
    /// may ignore it.
    fn label(&mut self, x: &[f32], true_y: usize) -> usize;

    /// The teacher's expected labelling accuracy, in `[0, 1]`.
    fn expected_accuracy(&self) -> f64;
}

/// Ground-truth oracle with injected label noise.
#[derive(Debug, Clone)]
pub struct OracleTeacher {
    error_rate: f64,
    num_classes: usize,
    rng: StdRng,
}

impl OracleTeacher {
    /// Creates an oracle teacher. `error_rate` is clamped to `[0, 1]`.
    pub fn new(error_rate: f64, num_classes: usize, seed: u64) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        Self {
            error_rate: error_rate.clamp(0.0, 1.0),
            num_classes,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Teacher for OracleTeacher {
    fn label(&mut self, _x: &[f32], true_y: usize) -> usize {
        if self.rng.gen_bool(self.error_rate) {
            // Uniformly random wrong label.
            let offset = self.rng.gen_range(1..self.num_classes);
            (true_y + offset) % self.num_classes
        } else {
            true_y
        }
    }

    fn expected_accuracy(&self) -> f64 {
        1.0 - self.error_rate
    }
}

/// Labels `(features, ground_truth)` pairs with a teacher, producing
/// training samples whose `y` is the *teacher's* label (the student never
/// sees ground truth — §2.2).
pub fn distill_labels<T: Teacher>(teacher: &mut T, frames: &[Sample]) -> Vec<Sample> {
    frames.iter().map(|f| Sample::new(f.x.clone(), teacher.label(&f.x, f.y))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error_oracle_is_exact() {
        let mut t = OracleTeacher::new(0.0, 6, 1);
        for y in 0..6 {
            assert_eq!(t.label(&[0.0], y), y);
        }
        assert_eq!(t.expected_accuracy(), 1.0);
    }

    #[test]
    fn oracle_error_rate_is_respected() {
        let mut t = OracleTeacher::new(0.1, 6, 2);
        let n = 10_000;
        let wrong = (0..n).filter(|_| t.label(&[0.0], 3) != 3).count();
        let rate = wrong as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "observed error rate {rate}");
    }

    #[test]
    fn oracle_errors_are_always_wrong_labels() {
        // The error branch must never return the true label.
        let mut t = OracleTeacher::new(1.0, 4, 3);
        for _ in 0..100 {
            assert_ne!(t.label(&[0.0], 2), 2);
        }
    }

    #[test]
    fn oracle_labels_in_range() {
        let mut t = OracleTeacher::new(0.5, 5, 4);
        for y in 0..5 {
            for _ in 0..50 {
                let l = t.label(&[0.0], y);
                assert!(l < 5);
            }
        }
    }

    #[test]
    fn distill_preserves_features() {
        let mut t = OracleTeacher::new(0.0, 3, 5);
        let frames = vec![Sample::new(vec![1.0, 2.0], 1), Sample::new(vec![3.0, 4.0], 2)];
        let labeled = distill_labels(&mut t, &frames);
        assert_eq!(labeled.len(), 2);
        assert_eq!(labeled[0].x, vec![1.0, 2.0]);
        assert_eq!(labeled[0].y, 1);
        assert_eq!(labeled[1].y, 2);
    }
}
