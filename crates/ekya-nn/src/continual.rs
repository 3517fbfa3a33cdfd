//! iCaRL-flavoured continual-learning support.
//!
//! Ekya retrains incrementally "even as some knowledge from before is
//! retained", using "a modified version of iCaRL" (§2.2). The part of
//! iCaRL that matters to the system (as opposed to the vision model) is
//! its **class-balanced exemplar memory**: a bounded set of
//! representative samples from past windows that is mixed into each
//! retraining batch so the model does not catastrophically forget classes
//! that are rare in the current window.
//!
//! Implemented: per-class bounded exemplar sets with herding-style
//! selection (keep the samples closest to the running class mean), and
//! mixing of exemplars into a window's training set. Omitted:
//! nearest-mean-of-exemplars classification (our student classifies with
//! its own head, as Ekya's ResNet18 does).

use crate::data::Sample;
use serde::{Deserialize, Serialize};

/// Bounded, class-balanced exemplar memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExemplarMemory {
    num_classes: usize,
    capacity_per_class: usize,
    per_class: Vec<Vec<Sample>>,
}

impl ExemplarMemory {
    /// Creates an empty memory holding at most `capacity_per_class`
    /// exemplars for each of `num_classes` classes.
    pub fn new(num_classes: usize, capacity_per_class: usize) -> Self {
        Self { num_classes, capacity_per_class, per_class: vec![Vec::new(); num_classes] }
    }

    /// Number of exemplars stored for `class`.
    pub fn class_len(&self, class: usize) -> usize {
        self.per_class.get(class).map_or(0, Vec::len)
    }

    /// Ingests a window's labeled samples, then re-selects exemplars per
    /// class by herding: the kept samples are those closest (L2) to the
    /// class's mean feature vector, which approximates iCaRL's
    /// mean-preserving selection.
    pub fn update(&mut self, samples: &[Sample]) {
        for s in samples {
            if s.y < self.num_classes {
                self.per_class[s.y].push(s.clone());
            }
        }
        for class in 0..self.num_classes {
            let pool = &mut self.per_class[class];
            if pool.len() <= self.capacity_per_class {
                continue;
            }
            let dim = pool[0].x.len();
            let mut mean = vec![0.0f64; dim];
            for s in pool.iter() {
                for (m, &v) in mean.iter_mut().zip(s.x.iter()) {
                    *m += v as f64;
                }
            }
            for m in mean.iter_mut() {
                *m /= pool.len() as f64;
            }
            let mut scored: Vec<(f64, usize)> = pool
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let d: f64 =
                        s.x.iter().zip(mean.iter()).map(|(&v, &m)| (v as f64 - m).powi(2)).sum();
                    (d, i)
                })
                .collect();
            scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            scored.truncate(self.capacity_per_class);
            let mut keep_idx: Vec<usize> = scored.into_iter().map(|(_, i)| i).collect();
            keep_idx.sort_unstable();
            let kept: Vec<Sample> = keep_idx.into_iter().map(|i| pool[i].clone()).collect();
            *pool = kept;
        }
    }

    /// Builds a retraining set: the window's fresh samples plus all stored
    /// exemplars. Fresh data comes first, in place; the caller shuffles per
    /// epoch.
    pub fn training_mix(&self, mut window_samples: Vec<Sample>) -> Vec<Sample> {
        for pool in &self.per_class {
            window_samples.extend(pool.iter().cloned());
        }
        window_samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(class: usize, v: f32) -> Sample {
        Sample::new(vec![v, v], class)
    }

    #[test]
    fn memory_respects_capacity() {
        let mut mem = ExemplarMemory::new(3, 5);
        let samples: Vec<Sample> = (0..30).map(|i| mk(i % 3, i as f32)).collect();
        mem.update(&samples);
        for c in 0..3 {
            assert_eq!(mem.class_len(c), 5);
        }
    }

    #[test]
    fn herding_keeps_samples_near_mean() {
        let mut mem = ExemplarMemory::new(1, 3);
        // Mean of {0,1,2,3,100} is ~21.2; the kept three must exclude 100.
        let samples = vec![mk(0, 0.0), mk(0, 1.0), mk(0, 2.0), mk(0, 3.0), mk(0, 100.0)];
        mem.update(&samples);
        assert_eq!(mem.class_len(0), 3);
        let mix = mem.training_mix(Vec::new());
        assert!(mix.iter().all(|s| s.x[0] < 50.0), "outlier must be herded out: {mix:?}");
    }

    #[test]
    fn training_mix_combines_fresh_and_exemplars() {
        let mut mem = ExemplarMemory::new(2, 2);
        mem.update(&[mk(0, 1.0), mk(1, 2.0)]);
        let fresh = vec![mk(0, 9.0)];
        let mix = mem.training_mix(fresh);
        assert_eq!(mix.len(), 3);
        assert_eq!(mix[0].x[0], 9.0, "fresh data first");
    }

    #[test]
    fn out_of_range_labels_are_ignored() {
        let mut mem = ExemplarMemory::new(2, 4);
        mem.update(&[mk(5, 1.0)]);
        assert_eq!((mem.class_len(0), mem.class_len(1), mem.class_len(5)), (0, 0, 0));
    }

    #[test]
    fn repeated_updates_preserve_balance() {
        let mut mem = ExemplarMemory::new(2, 4);
        for w in 0..10 {
            let samples: Vec<Sample> = (0..8).map(|i| mk(i % 2, (w * 8 + i) as f32)).collect();
            mem.update(&samples);
        }
        assert_eq!(mem.class_len(0), 4);
        assert_eq!(mem.class_len(1), 4);
    }
}
