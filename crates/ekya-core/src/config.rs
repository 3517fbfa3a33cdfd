//! Retraining and inference configurations (§3.1).
//!
//! A **retraining configuration** γ is a hyperparameter vector: number of
//! epochs, batch size, number of neurons in the last layer, number of
//! layers to retrain, and the fraction of the window's data to train on
//! (§6.1 lists exactly these five). An **inference configuration** λ
//! controls frame sampling and input resolution, trading accuracy for GPU
//! demand.

use serde::{Deserialize, Serialize};

/// A retraining configuration γ ∈ Γ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrainConfig {
    /// Training epochs over the selected data.
    pub epochs: u32,
    /// Minibatch size.
    pub batch_size: u32,
    /// Width of the last hidden layer ("number of neurons in the last
    /// layer").
    pub last_layer_neurons: u32,
    /// Number of trailing layers to retrain (1 = head only).
    pub layers_trained: u32,
    /// Fraction of the window's labelled training pool to use.
    pub data_fraction: f64,
}

impl RetrainConfig {
    /// Training progress in *full-pool epoch equivalents*: how many passes
    /// over the complete window pool this configuration's SGD work equals.
    /// This is the `k` axis of the micro-profiler's learning curve.
    pub fn k_total(&self) -> f64 {
        self.epochs as f64 * self.data_fraction
    }

    /// Key identifying the model variant this config trains — configs that
    /// share a key differ only in how *long* they train (epochs and data
    /// fraction), so they lie on the same learning curve and can share one
    /// micro-profiling run.
    pub fn curve_key(&self) -> CurveKey {
        CurveKey {
            batch_size: self.batch_size,
            last_layer_neurons: self.last_layer_neurons,
            layers_trained: self.layers_trained,
        }
    }

    /// Compact human-readable label (for experiment output).
    pub fn label(&self) -> String {
        format!(
            "e{}-b{}-n{}-l{}-f{:.2}",
            self.epochs,
            self.batch_size,
            self.last_layer_neurons,
            self.layers_trained,
            self.data_fraction
        )
    }
}

/// Model-variant key for sharing learning curves (see
/// [`RetrainConfig::curve_key`]).
///
/// `Ord` follows field order — (batch, width, depth) — which is also the
/// order recorded traces list their true curves in; `ekya-sim` relies on
/// that equivalence to keep trace fingerprints stable (BTreeMap keyed by
/// `CurveKey` iterates exactly like the historical explicit sort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CurveKey {
    /// Minibatch size.
    pub batch_size: u32,
    /// Last hidden layer width.
    pub last_layer_neurons: u32,
    /// Trailing layers retrained.
    pub layers_trained: u32,
}

/// The default 18-configuration grid used throughout the evaluation
/// ("18 configurations per model", §6.3): epochs × data fraction × layers.
pub fn default_retrain_grid() -> Vec<RetrainConfig> {
    let mut grid = Vec::new();
    for &epochs in &[3u32, 10, 30] {
        for &data_fraction in &[0.2f64, 0.5, 1.0] {
            for &layers_trained in &[1u32, 3] {
                grid.push(RetrainConfig {
                    epochs,
                    batch_size: 32,
                    last_layer_neurons: 16,
                    layers_trained,
                    data_fraction,
                });
            }
        }
    }
    grid
}

/// An extended 54-configuration grid additionally sweeping the last-layer
/// width, for the profiling-cost ablations.
pub fn extended_retrain_grid() -> Vec<RetrainConfig> {
    let mut grid = Vec::new();
    for &epochs in &[3u32, 10, 30] {
        for &data_fraction in &[0.2f64, 0.5, 1.0] {
            for &layers_trained in &[1u32, 3] {
                for &last_layer_neurons in &[8u32, 16, 32] {
                    grid.push(RetrainConfig {
                        epochs,
                        batch_size: 32,
                        last_layer_neurons,
                        layers_trained,
                        data_fraction,
                    });
                }
            }
        }
    }
    grid
}

/// The richest configuration of `grid`: most layers retrained, then the
/// most training (`k_total`); among equals, the last one listed. The cloud
/// and cached-model baselines train with it, and the trace recorder's
/// reference chain adopts it.
///
/// # Panics
/// Panics when `grid` is empty.
pub fn richest_config(grid: &[RetrainConfig]) -> RetrainConfig {
    *grid
        .iter()
        .max_by(|a, b| {
            (a.layers_trained, a.k_total())
                .partial_cmp(&(b.layers_trained, b.k_total()))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty grid")
}

/// An inference configuration λ ∈ Λ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Fraction of arriving frames that are analysed (frame sampling).
    pub frame_sampling: f64,
    /// Input resolution scale (1.0 = native).
    pub resolution: f64,
}

impl InferenceConfig {
    /// The configuration a plan names when no inference profile keeps up
    /// with the stream: the default grid's cheapest point.
    pub const FALLBACK: InferenceConfig = InferenceConfig { frame_sampling: 0.05, resolution: 0.5 };

    /// Multiplicative accuracy factor of this configuration relative to
    /// analysing every frame at native resolution.
    ///
    /// Modeled as `sampling^0.15 * resolution^0.2` — gentle concave decay,
    /// matching the empirical observation that video analytics tolerates
    /// moderate subsampling with modest accuracy loss (Chameleon \[36\]):
    /// half-rate sampling costs ~10% accuracy, native/4 sampling ~19%.
    pub fn accuracy_factor(&self) -> f64 {
        self.frame_sampling.clamp(0.0, 1.0).powf(0.15) * self.resolution.clamp(0.0, 1.0).powf(0.2)
    }

    /// Compact human-readable label.
    pub fn label(&self) -> String {
        format!("s{:.2}-r{:.2}", self.frame_sampling, self.resolution)
    }
}

/// The default inference-configuration grid: frame sampling × resolution.
pub fn default_inference_grid() -> Vec<InferenceConfig> {
    let mut grid = Vec::new();
    for &frame_sampling in &[1.0f64, 0.75, 0.5, 0.25, 0.1, 0.05] {
        for &resolution in &[1.0f64, 0.75, 0.5] {
            grid.push(InferenceConfig { frame_sampling, resolution });
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_has_18_configs() {
        assert_eq!(default_retrain_grid().len(), 18);
    }

    #[test]
    fn extended_grid_has_54_configs() {
        assert_eq!(extended_retrain_grid().len(), 54);
    }

    #[test]
    fn k_total_combines_epochs_and_fraction() {
        let c = RetrainConfig {
            epochs: 10,
            batch_size: 32,
            last_layer_neurons: 16,
            layers_trained: 3,
            data_fraction: 0.3,
        };
        assert!((c.k_total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn curve_key_groups_epoch_and_fraction_variants() {
        let grid = default_retrain_grid();
        let keys: std::collections::HashSet<_> = grid.iter().map(|c| c.curve_key()).collect();
        // 18 configs collapse to 2 model variants (layers_trained 1 or 3).
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn accuracy_factor_bounds_and_monotonicity() {
        let full = InferenceConfig { frame_sampling: 1.0, resolution: 1.0 };
        assert!((full.accuracy_factor() - 1.0).abs() < 1e-12);
        let half = InferenceConfig { frame_sampling: 0.5, resolution: 1.0 };
        assert!(half.accuracy_factor() < 1.0 && half.accuracy_factor() > 0.85);
        let lowres = InferenceConfig { frame_sampling: 0.5, resolution: 0.5 };
        assert!(lowres.accuracy_factor() < half.accuracy_factor());
    }

    #[test]
    fn inference_grid_contains_full_quality() {
        let grid = default_inference_grid();
        assert!(grid
            .iter()
            .any(|c| (c.frame_sampling - 1.0).abs() < 1e-12 && (c.resolution - 1.0).abs() < 1e-12));
        assert_eq!(grid.len(), 18);
    }

    #[test]
    fn richest_config_keeps_the_last_of_equals() {
        let grid = default_retrain_grid();
        let richest = richest_config(&grid);
        assert_eq!((richest.epochs, richest.layers_trained), (30, 3));
        assert_eq!(richest.data_fraction, 1.0);
        // Two configurations that tie on (layers, k): the later one wins.
        let a = RetrainConfig { last_layer_neurons: 8, ..richest };
        let b = RetrainConfig { last_layer_neurons: 32, ..richest };
        assert_eq!(richest_config(&[a, b]), b);
    }

    #[test]
    fn labels_are_distinct() {
        let grid = default_retrain_grid();
        let labels: std::collections::HashSet<_> = grid.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), grid.len());
    }
}
