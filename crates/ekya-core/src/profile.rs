//! Performance profiles: what the scheduler knows about each
//! configuration's accuracy and resource demand.
//!
//! Retraining profiles come from the micro-profiler (§4.3); inference
//! profiles come from the (cheap, well-studied) inference profilers of
//! prior work, which the paper reuses ("we use these efficient inference
//! profilers in our joint solution", §3.1) — here they are computed
//! directly from the cost model.

use crate::config::{InferenceConfig, RetrainConfig};
use ekya_nn::cost::CostModel;
use ekya_nn::fit::LearningCurve;
use serde::{Deserialize, Serialize};

/// Micro-profiled estimate for one retraining configuration on one stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetrainProfile {
    /// The configuration profiled.
    pub config: RetrainConfig,
    /// Accuracy learning curve over full-pool epoch equivalents `k`
    /// (`curve.predict(0)` ≈ current accuracy; saturates at the config's
    /// attainable accuracy).
    pub curve: LearningCurve,
    /// GPU-seconds per epoch at 100% GPU allocation, for this config's
    /// data size (`data_fraction` × window pool) — the quantity the
    /// micro-profiler measures and the scheduler scales linearly (§4.3).
    pub gpu_seconds_per_epoch: f64,
}

impl RetrainProfile {
    /// Total GPU-seconds to run the full retraining at 100% allocation.
    pub fn total_gpu_seconds(&self) -> f64 {
        self.config.epochs as f64 * self.gpu_seconds_per_epoch
    }

    /// Estimated accuracy after the full retraining completes.
    pub fn post_accuracy(&self) -> f64 {
        self.curve.predict(self.config.k_total())
    }
}

/// Profile for one inference configuration on one stream.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct InferenceProfile {
    /// The configuration profiled.
    pub config: InferenceConfig,
    /// Multiplicative accuracy factor relative to full-quality inference.
    pub accuracy_factor: f64,
    /// GPUs required to keep up with the live stream at this
    /// configuration.
    pub gpu_demand: f64,
}

/// Builds inference profiles for a stream from the cost model.
///
/// `size_factor` is the model's cost relative to the reference edge model
/// ([`CostModel::size_factor`]); `fps` is the stream frame rate.
pub fn build_inference_profiles(
    cost: &CostModel,
    size_factor: f64,
    fps: f64,
    grid: &[InferenceConfig],
) -> Vec<InferenceProfile> {
    grid.iter()
        .map(|&config| InferenceProfile {
            config,
            accuracy_factor: config.accuracy_factor(),
            gpu_demand: cost.infer_gpu_demand(
                size_factor,
                fps,
                config.frame_sampling,
                config.resolution,
            ),
        })
        .collect()
}

/// Returns the indices of profiles on the Pareto frontier of
/// (total GPU-seconds ↓, post-retraining accuracy ↑) — Fig 3b's boundary.
///
/// A profile is Pareto-optimal when no other profile has both lower cost
/// and at least as high accuracy (with at least one strict improvement).
pub fn pareto_frontier(profiles: &[RetrainProfile]) -> Vec<usize> {
    let mut frontier = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let dominated = profiles.iter().enumerate().any(|(j, q)| {
            j != i
                && q.total_gpu_seconds() <= p.total_gpu_seconds()
                && q.post_accuracy() >= p.post_accuracy()
                && (q.total_gpu_seconds() < p.total_gpu_seconds()
                    || q.post_accuracy() > p.post_accuracy())
        });
        if !dominated {
            frontier.push(i);
        }
    }
    frontier
}

/// Distance of a profile from the Pareto frontier in normalised
/// (cost, accuracy) space — the signal used to prune "historically not
/// useful" configurations (§4.3, pruning technique 3).
pub fn pareto_distance(profiles: &[RetrainProfile], idx: usize) -> f64 {
    let frontier = pareto_frontier(profiles);
    if frontier.contains(&idx) || profiles.is_empty() {
        return 0.0;
    }
    let max_cost =
        profiles.iter().map(RetrainProfile::total_gpu_seconds).fold(f64::MIN, f64::max).max(1e-9);
    let p = &profiles[idx];
    frontier
        .iter()
        .map(|&f| {
            let q = &profiles[f];
            let dc = (p.total_gpu_seconds() - q.total_gpu_seconds()) / max_cost;
            let da = p.post_accuracy() - q.post_accuracy();
            (dc * dc + da * da).sqrt()
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_profile(epochs: u32, gpu_s_per_epoch: f64, asymptote: f64) -> RetrainProfile {
        RetrainProfile {
            config: RetrainConfig {
                epochs,
                batch_size: 32,
                last_layer_neurons: 16,
                layers_trained: 3,
                data_fraction: 1.0,
            },
            curve: LearningCurve { a: 1.0, b: 1.0, c: asymptote },
            gpu_seconds_per_epoch: gpu_s_per_epoch,
        }
    }

    #[test]
    fn total_gpu_seconds_scales_with_epochs() {
        let p = mk_profile(10, 2.0, 0.9);
        assert!((p.total_gpu_seconds() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn post_accuracy_respects_curve() {
        let p = mk_profile(30, 1.0, 0.9);
        let expected = p.curve.predict(30.0);
        assert!((p.post_accuracy() - expected).abs() < 1e-12);
        assert!(p.post_accuracy() < 0.9);
        assert!(p.post_accuracy() > 0.85);
    }

    #[test]
    fn pareto_frontier_excludes_dominated() {
        // p0: cheap & good. p1: more expensive with *lower* accuracy
        // (dominated by p0). p2: most expensive but best accuracy (on
        // frontier). Note post_accuracy evaluates the curve at k = epochs,
        // so accuracies are checked via the profiles themselves.
        let profiles =
            vec![mk_profile(5, 1.0, 0.80), mk_profile(20, 1.0, 0.60), mk_profile(30, 1.0, 0.95)];
        assert!(profiles[1].post_accuracy() < profiles[0].post_accuracy());
        assert!(profiles[1].total_gpu_seconds() > profiles[0].total_gpu_seconds());
        let frontier = pareto_frontier(&profiles);
        assert!(frontier.contains(&0));
        assert!(!frontier.contains(&1));
        assert!(frontier.contains(&2));
    }

    #[test]
    fn pareto_distance_zero_on_frontier() {
        let profiles = vec![mk_profile(5, 1.0, 0.80), mk_profile(30, 1.0, 0.95)];
        assert_eq!(pareto_distance(&profiles, 0), 0.0);
        assert_eq!(pareto_distance(&profiles, 1), 0.0);
    }

    #[test]
    fn pareto_distance_positive_off_frontier() {
        let profiles =
            vec![mk_profile(5, 1.0, 0.80), mk_profile(25, 1.0, 0.60), mk_profile(30, 1.0, 0.95)];
        assert!(pareto_distance(&profiles, 1) > 0.0);
    }

    #[test]
    fn inference_profiles_built_from_cost_model() {
        let cost = CostModel::default();
        let grid = crate::config::default_inference_grid();
        let profiles = build_inference_profiles(&cost, 1.0, 30.0, &grid);
        assert_eq!(profiles.len(), grid.len());
        // Full quality config demands the most GPU.
        let full = profiles
            .iter()
            .find(|p| {
                (p.config.frame_sampling - 1.0).abs() < 1e-9
                    && (p.config.resolution - 1.0).abs() < 1e-9
            })
            .unwrap();
        for p in &profiles {
            assert!(p.gpu_demand <= full.gpu_demand + 1e-12);
            assert!(p.accuracy_factor <= 1.0 + 1e-12);
        }
    }
}
