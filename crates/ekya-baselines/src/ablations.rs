//! Factor-analysis ablations (Fig 8).
//!
//! * `Ekya-FixedRes` — keeps the micro-profiler's configuration selection
//!   but replaces the thief allocation with the uniform baseline's static
//!   partition.
//! * `Ekya-FixedConfig` — keeps the thief allocation but pins every
//!   stream to one fixed retraining configuration.

use ekya_core::{
    pick_configs_fixed, thief_schedule, InferenceConfig, PlannedRetrain, Policy, PolicyCtx,
    RetrainChoice, RetrainConfig, SchedulerParams, StreamInput, StreamPlan, WindowPlan,
};

/// Ekya without the thief allocator: static 50/50 partition per stream,
/// micro-profiled configuration selection.
#[derive(Debug, Clone)]
pub struct EkyaFixedRes {
    params: SchedulerParams,
    /// Fraction of GPUs for inference (matches the uniform variant it is
    /// compared against).
    pub inference_share: f64,
}

impl EkyaFixedRes {
    /// Creates the ablation with the paper's default 50% split.
    pub fn new(params: SchedulerParams, inference_share: f64) -> Self {
        Self { params, inference_share: inference_share.clamp(0.0, 1.0) }
    }
}

impl Policy for EkyaFixedRes {
    fn name(&self) -> String {
        "Ekya-FixedRes".to_string()
    }

    fn plan_window(&mut self, ctx: &PolicyCtx<'_>) -> WindowPlan {
        let n = ctx.streams.len().max(1) as f64;
        let infer_gpus = ctx.total_gpus * self.inference_share / n;
        let train_gpus = ctx.total_gpus * (1.0 - self.inference_share) / n;
        let inputs: Vec<StreamInput<'_>> = ctx
            .streams
            .iter()
            .map(|s| StreamInput {
                id: s.id,
                serving_accuracy: s.serving_accuracy,
                retrain_profiles: s.retrain_profiles,
                infer_profiles: s.infer_profiles,
                in_progress: None,
            })
            .collect();
        let alloc: Vec<(f64, f64)> = vec![(infer_gpus, train_gpus); ctx.streams.len()];
        let schedule = pick_configs_fixed(&inputs, &alloc, ctx.window_secs, &self.params);
        WindowPlan {
            streams: schedule
                .decisions
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let s = &ctx.streams[i];
                    StreamPlan {
                        retrain: match d.retrain {
                            RetrainChoice::Start { profile_idx } => Some(PlannedRetrain {
                                config: s.retrain_profiles[profile_idx].config,
                                gpus: train_gpus,
                            }),
                            _ => None,
                        },
                        infer_config: d
                            .infer_profile_idx
                            .map(|idx| s.infer_profiles[idx].config)
                            .unwrap_or(InferenceConfig::FALLBACK),
                        infer_gpus,
                    }
                })
                .collect(),
        }
    }
}

/// Ekya without configuration adaptation: thief allocation over a single
/// pinned retraining configuration.
#[derive(Debug, Clone)]
pub struct EkyaFixedConfig {
    params: SchedulerParams,
    /// The pinned configuration.
    pub config: RetrainConfig,
}

impl EkyaFixedConfig {
    /// Creates the ablation.
    pub fn new(params: SchedulerParams, config: RetrainConfig) -> Self {
        Self { params, config }
    }
}

impl Policy for EkyaFixedConfig {
    fn name(&self) -> String {
        "Ekya-FixedConfig".to_string()
    }

    fn plan_window(&mut self, ctx: &PolicyCtx<'_>) -> WindowPlan {
        // Restrict every stream's candidates to the pinned configuration
        // (the micro-profile for it is still used for cost/accuracy).
        let filtered: Vec<Vec<ekya_core::RetrainProfile>> = ctx
            .streams
            .iter()
            .map(|s| {
                s.retrain_profiles.iter().filter(|p| p.config == self.config).cloned().collect()
            })
            .collect();
        let inputs: Vec<StreamInput<'_>> = ctx
            .streams
            .iter()
            .enumerate()
            .map(|(i, s)| StreamInput {
                id: s.id,
                serving_accuracy: s.serving_accuracy,
                retrain_profiles: &filtered[i],
                infer_profiles: s.infer_profiles,
                in_progress: None,
            })
            .collect();
        let schedule = thief_schedule(&inputs, ctx.window_secs, &self.params);
        WindowPlan {
            streams: schedule
                .decisions
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let s = &ctx.streams[i];
                    StreamPlan {
                        retrain: match d.retrain {
                            RetrainChoice::Start { profile_idx } => Some(PlannedRetrain {
                                config: filtered[i][profile_idx].config,
                                gpus: d.train_gpus,
                            }),
                            _ => None,
                        },
                        infer_config: d
                            .infer_profile_idx
                            .map(|idx| s.infer_profiles[idx].config)
                            .unwrap_or(InferenceConfig::FALLBACK),
                        infer_gpus: d.infer_gpus,
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekya_core::default_retrain_grid;
    use ekya_sim::{run_windows, RunnerConfig};
    use ekya_video::{DatasetKind, StreamSet};

    #[test]
    fn fixed_res_uses_static_partition() {
        let streams = StreamSet::generate(DatasetKind::Cityscapes, 2, 2, 51);
        let mut policy = EkyaFixedRes::new(SchedulerParams::new(2.0), 0.5);
        let cfg = RunnerConfig { total_gpus: 2.0, seed: 2, ..RunnerConfig::default() };
        let report = run_windows(&mut policy, &streams, &cfg, 2);
        for w in &report.windows {
            for s in &w.streams {
                assert!((s.infer_gpus - 0.5).abs() < 1e-9);
            }
        }
        assert_eq!(report.policy, "Ekya-FixedRes");
    }

    #[test]
    fn fixed_config_only_uses_pinned_config() {
        let streams = StreamSet::generate(DatasetKind::Cityscapes, 2, 3, 52);
        let pinned = default_retrain_grid()[7];
        let mut policy = EkyaFixedConfig::new(SchedulerParams::new(2.0), pinned);
        let cfg = RunnerConfig { total_gpus: 2.0, seed: 3, ..RunnerConfig::default() };
        let report = run_windows(&mut policy, &streams, &cfg, 3);
        for w in &report.windows {
            for s in &w.streams {
                if let Some(c) = s.retrain_config {
                    assert_eq!(c, pinned, "only the pinned config may run");
                }
            }
        }
    }
}
