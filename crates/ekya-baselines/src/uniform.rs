//! The uniform scheduler baseline (§6.1).
//!
//! "Our baseline, called uniform scheduler, uses (a) a fixed retraining
//! configuration, and (b) a static retraining/inference resource
//! allocation (these are adopted by prior schedulers [7, 31, 73])." The
//! fixed configurations are two points on a hold-out dataset's Pareto
//! frontier: Config 1 ("high" resource usage) and Config 2 ("low").
//! A variant is labelled e.g. "Uniform (Config 2, 90%)" when 90% of the
//! GPUs go to inference and 10% to retraining.

use ekya_core::{
    best_feasible_infer, exhaustive_profile, pareto_frontier, InferenceConfig, PlannedRetrain,
    Policy, PolicyCtx, RetrainConfig, RetrainProfile, StreamPlan, TrainHyper, WindowPlan,
};
use ekya_nn::cost::CostModel;
use ekya_nn::fit::LearningCurve;
use ekya_nn::golden::{distill_labels, OracleTeacher};
use ekya_nn::mlp::{Mlp, MlpArch};
use ekya_video::{DatasetKind, DatasetSpec, VideoDataset};

/// The uniform baseline policy.
#[derive(Debug, Clone)]
pub struct UniformPolicy {
    /// The fixed retraining configuration every stream uses every window.
    pub retrain_config: RetrainConfig,
    /// Fraction of total GPUs reserved for inference (the rest retrains).
    pub inference_share: f64,
    /// Label for reports, e.g. "Uniform (Config 2, 90%)".
    pub label: String,
}

impl UniformPolicy {
    /// Creates a uniform policy.
    pub fn new(
        retrain_config: RetrainConfig,
        inference_share: f64,
        label: impl Into<String>,
    ) -> Self {
        Self {
            retrain_config,
            inference_share: inference_share.clamp(0.0, 1.0),
            label: label.into(),
        }
    }
}

impl Policy for UniformPolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn needs_profiles(&self) -> bool {
        false // fixed configuration: no profiling cost
    }

    fn plan_window(&mut self, ctx: &PolicyCtx<'_>) -> WindowPlan {
        let n = ctx.streams.len().max(1) as f64;
        let infer_gpus = ctx.total_gpus * self.inference_share / n;
        let train_gpus = ctx.total_gpus * (1.0 - self.inference_share) / n;
        let streams = ctx
            .streams
            .iter()
            .map(|s| {
                // Even a static scheduler picks the best *feasible*
                // inference configuration (prior work's inference
                // profilers are cheap, §3.1).
                let infer_config = best_feasible_infer(s.infer_profiles, infer_gpus)
                    .map_or(InferenceConfig::FALLBACK, |p| p.config);
                StreamPlan {
                    retrain: if train_gpus > 0.0 {
                        Some(PlannedRetrain { config: self.retrain_config, gpus: train_gpus })
                    } else {
                        None
                    },
                    infer_config,
                    infer_gpus,
                }
            })
            .collect();
        WindowPlan { streams }
    }
}

/// Derives the uniform baseline's Config 1 / Config 2 from a **hold-out**
/// stream, mirroring §6.1: profile every configuration on hold-out data,
/// take the Pareto frontier, and pick a high-resource point (the most
/// accurate) and a low-resource point (the cheapest within 0.05 accuracy
/// of the knee).
pub fn holdout_configs(
    kind: DatasetKind,
    grid: &[RetrainConfig],
    cost: &CostModel,
    seed: u64,
) -> (RetrainConfig, RetrainConfig) {
    // Two hold-out windows: warm the model on the first, profile on the
    // second (the steady-state regime).
    let ds = VideoDataset::generate(DatasetSpec::new(kind, 2, seed ^ 0xD15C));
    let mut teacher = OracleTeacher::new(0.02, ds.num_classes, seed ^ 0x7EAC);
    let w0 = distill_labels(&mut teacher, &ds.window(0).train_pool);
    let w1 = distill_labels(&mut teacher, &ds.window(1).train_pool);
    let val = distill_labels(&mut teacher, &ds.window(1).val);

    let mut model = Mlp::new(MlpArch::edge(ds.feature_dim, ds.num_classes, 16), seed);
    let mut warm = ekya_core::RetrainExecution::new(
        &model,
        &w0,
        RetrainConfig {
            epochs: 30,
            batch_size: 32,
            last_layer_neurons: 16,
            layers_trained: 3,
            data_fraction: 1.0,
        },
        ds.num_classes,
        TrainHyper::default(),
        seed,
    );
    warm.run_to_completion();
    model = warm.model().clone();
    model.set_layers_trained(usize::MAX);

    let (accs, _) = exhaustive_profile(
        &model,
        &w1,
        &val,
        grid,
        ds.num_classes,
        TrainHyper::default(),
        cost,
        seed,
    );
    // Wrap measured accuracies as flat-curve profiles for the frontier.
    let profiles: Vec<RetrainProfile> = grid
        .iter()
        .zip(&accs)
        .map(|(&config, &acc)| {
            let variant = ekya_core::build_variant(&model, &config, seed);
            let n = ((w1.len() as f64) * config.data_fraction).round().max(1.0) as usize;
            RetrainProfile {
                config,
                curve: flat_at(acc, config.k_total()),
                gpu_seconds_per_epoch: cost.train_epoch_gpu_seconds(&variant, n, config.batch_size),
            }
        })
        .collect();
    let frontier = pareto_frontier(&profiles);
    assert!(!frontier.is_empty(), "frontier cannot be empty");

    let config1_idx = *frontier
        .iter()
        .max_by(|&&a, &&b| {
            profiles[a]
                .post_accuracy()
                .partial_cmp(&profiles[b].post_accuracy())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty");
    let max_acc = profiles[config1_idx].post_accuracy();
    let config2_idx = frontier
        .iter()
        .copied()
        .filter(|&i| profiles[i].post_accuracy() >= max_acc - 0.05)
        .min_by(|&a, &b| {
            profiles[a]
                .total_gpu_seconds()
                .partial_cmp(&profiles[b].total_gpu_seconds())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(config1_idx);
    (profiles[config1_idx].config, profiles[config2_idx].config)
}

/// A curve that evaluates to `acc` at `k` (and saturates there) — used to
/// embed point measurements in profile structures.
fn flat_at(acc: f64, _k: f64) -> LearningCurve {
    LearningCurve::flat(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekya_core::default_retrain_grid;
    use ekya_sim::{run_windows, RunnerConfig};
    use ekya_video::StreamSet;

    #[test]
    fn uniform_policy_splits_resources_evenly() {
        let grid = default_retrain_grid();
        let mut policy = UniformPolicy::new(grid[0], 0.5, "Uniform (C1, 50%)");
        assert!(!policy.needs_profiles());
        let streams = StreamSet::generate(DatasetKind::Waymo, 2, 2, 41);
        let cfg = RunnerConfig { total_gpus: 2.0, seed: 1, ..RunnerConfig::default() };
        let report = run_windows(&mut policy, &streams, &cfg, 2);
        for w in &report.windows {
            for s in &w.streams {
                assert!((s.infer_gpus - 0.5).abs() < 1e-9);
                assert!((s.train_gpus - 0.5).abs() < 1e-9);
                assert!(s.retrained, "uniform retrains every window");
            }
        }
    }

    #[test]
    fn inference_share_90_leaves_little_training() {
        let grid = default_retrain_grid();
        let mut policy = UniformPolicy::new(grid[0], 0.9, "Uniform (C1, 90%)");
        let streams = StreamSet::generate(DatasetKind::Waymo, 3, 1, 42);
        let ctx_total = 1.0;
        let cfg = RunnerConfig { total_gpus: ctx_total, seed: 1, ..RunnerConfig::default() };
        let report = run_windows(&mut policy, &streams, &cfg, 1);
        let s = &report.windows[0].streams[0];
        assert!((s.infer_gpus - 0.3).abs() < 1e-9);
        assert!((s.train_gpus - ctx_total * 0.1 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn holdout_config_selection() {
        let grid = default_retrain_grid();
        let (c1, c2) = holdout_configs(DatasetKind::Cityscapes, &grid, &CostModel::default(), 77);
        // Config 1 must cost at least as much as Config 2 (it is the
        // high-resource point).
        let cost_of = |c: &RetrainConfig| c.epochs as f64 * c.data_fraction;
        assert!(cost_of(&c1) >= cost_of(&c2), "config1 {c1:?} should out-cost config2 {c2:?}");
        assert!(grid.contains(&c1));
        assert!(grid.contains(&c2));
    }
}
