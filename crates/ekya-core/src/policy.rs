//! The scheduling-policy interface between the window runner and the
//! schedulers, plus Ekya's own policy (thief scheduler + micro-profiles).
//!
//! The simulator's window runner (in `ekya-sim`) is generic over
//! [`Policy`], so the paper's baselines — uniform schedulers, ablations,
//! cloud offload, cached models (implemented in `ekya-baselines`) — plug
//! into the exact same execution loop as Ekya itself, which is what makes
//! the evaluation comparisons apples-to-apples.

use crate::config::{InferenceConfig, RetrainConfig};
use crate::profile::{InferenceProfile, RetrainProfile};
use crate::scheduler::{
    thief_schedule, InProgressRetrain, RetrainChoice, SchedulerParams, StreamInput,
};
use ekya_video::StreamId;
use serde::{Deserialize, Serialize};

/// Per-stream facts available to a policy when planning a window.
#[derive(Debug, Clone)]
pub struct PolicyStream<'a> {
    /// Stream identity.
    pub id: StreamId,
    /// Frame rate of the live stream.
    pub fps: f64,
    /// Accuracy of the currently deployed model on this window's data.
    pub serving_accuracy: f64,
    /// Class distribution of this window's (teacher-labelled) data.
    pub class_dist: &'a [f64],
    /// Appearance-drift magnitude since the previous window.
    pub drift_magnitude: f64,
    /// Micro-profiled retraining candidates (empty when the runner was
    /// told the policy does not need profiles).
    pub retrain_profiles: &'a [RetrainProfile],
    /// Inference configuration profiles.
    pub infer_profiles: &'a [InferenceProfile],
}

/// Everything a policy sees at window-planning time.
#[derive(Debug, Clone)]
pub struct PolicyCtx<'a> {
    /// Index of the retraining window being planned.
    pub window_idx: usize,
    /// Window duration ‖T‖ in seconds.
    pub window_secs: f64,
    /// Total GPUs on the edge server.
    pub total_gpus: f64,
    /// Per-stream inputs.
    pub streams: Vec<PolicyStream<'a>>,
}

/// A planned retraining job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedRetrain {
    /// The configuration to run.
    pub config: RetrainConfig,
    /// GPUs allocated to the retraining job.
    pub gpus: f64,
}

/// The plan for one stream in one window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamPlan {
    /// Retraining job, or `None` to skip retraining this window.
    pub retrain: Option<PlannedRetrain>,
    /// Chosen inference configuration.
    pub infer_config: InferenceConfig,
    /// GPUs allocated to the inference job.
    pub infer_gpus: f64,
}

/// A full window plan, one entry per stream (in `PolicyCtx::streams`
/// order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowPlan {
    /// Per-stream plans.
    pub streams: Vec<StreamPlan>,
}

impl WindowPlan {
    /// Total GPUs the plan allocates.
    pub fn total_gpus(&self) -> f64 {
        self.streams.iter().map(|s| s.infer_gpus + s.retrain.map(|r| r.gpus).unwrap_or(0.0)).sum()
    }
}

/// In-flight retraining state passed to [`Policy::replan`] (one entry per
/// stream; `None` when the stream is not retraining or already finished).
pub type InFlight = Option<InProgressRetrain>;

/// Allocation update produced by a mid-window replan. Configurations of
/// in-flight jobs are pinned; only allocations (and inference configs)
/// may change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplanStream {
    /// New inference configuration.
    pub infer_config: InferenceConfig,
    /// New inference allocation.
    pub infer_gpus: f64,
    /// New training allocation (0 for streams without in-flight work).
    pub train_gpus: f64,
}

/// A scheduling policy: decides configurations and allocations per window.
///
/// `Send` is a supertrait so boxed policies can be constructed on one
/// thread and driven on another — the experiment harness in `ekya-bench`
/// fans grid cells out across a worker pool, each cell owning its policy.
pub trait Policy: Send {
    /// Policy name for reports.
    fn name(&self) -> String;

    /// Whether the runner should micro-profile retraining configurations
    /// before calling [`Policy::plan_window`]. Baselines with fixed
    /// configurations return `false` and skip the profiling cost.
    fn needs_profiles(&self) -> bool {
        true
    }

    /// Plans the upcoming window.
    fn plan_window(&mut self, ctx: &PolicyCtx<'_>) -> WindowPlan;

    /// Called when a retraining job completes mid-window (§4.2: Algorithm
    /// 1 re-runs "on the completion of every training job"). Returns new
    /// allocations, or `None` to keep the current ones.
    fn replan(
        &mut self,
        _ctx: &PolicyCtx<'_>,
        _in_flight: &[InFlight],
        _remaining_secs: f64,
    ) -> Option<Vec<ReplanStream>> {
        None
    }
}

/// Ekya's policy: micro-profiled configurations + the thief scheduler.
#[derive(Debug, Clone)]
pub struct EkyaPolicy {
    params: SchedulerParams,
}

impl EkyaPolicy {
    /// Creates the policy with the given scheduler parameters.
    pub fn new(params: SchedulerParams) -> Self {
        Self { params }
    }

    /// The scheduler parameters in use.
    pub fn params(&self) -> &SchedulerParams {
        &self.params
    }

    fn to_stream_inputs<'a>(
        ctx: &'a PolicyCtx<'a>,
        in_flight: Option<&'a [InFlight]>,
    ) -> Vec<StreamInput<'a>> {
        ctx.streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                // During a mid-window replan, streams without in-flight
                // work may not start a *new* retraining (at most one
                // retraining per video per window — Eq. 1 constraint 3),
                // so their candidate list is emptied.
                let retrain_profiles = match in_flight {
                    Some(f) if f[i].is_none() => &[][..],
                    _ => s.retrain_profiles,
                };
                StreamInput {
                    id: s.id,
                    serving_accuracy: s.serving_accuracy,
                    retrain_profiles,
                    infer_profiles: s.infer_profiles,
                    in_progress: in_flight.and_then(|f| f[i].clone()),
                }
            })
            .collect()
    }
}

impl Policy for EkyaPolicy {
    fn name(&self) -> String {
        "Ekya".to_string()
    }

    fn plan_window(&mut self, ctx: &PolicyCtx<'_>) -> WindowPlan {
        let inputs = Self::to_stream_inputs(ctx, None);
        let schedule = thief_schedule(&inputs, ctx.window_secs, &self.params);
        let streams = schedule
            .decisions
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let s = &ctx.streams[i];
                let retrain = match d.retrain {
                    RetrainChoice::Start { profile_idx } => Some(PlannedRetrain {
                        config: s.retrain_profiles[profile_idx].config,
                        gpus: d.train_gpus,
                    }),
                    _ => None,
                };
                let infer_config = d
                    .infer_profile_idx
                    .map(|idx| s.infer_profiles[idx].config)
                    .unwrap_or(InferenceConfig::FALLBACK);
                StreamPlan { retrain, infer_config, infer_gpus: d.infer_gpus }
            })
            .collect();
        WindowPlan { streams }
    }

    fn replan(
        &mut self,
        ctx: &PolicyCtx<'_>,
        in_flight: &[InFlight],
        remaining_secs: f64,
    ) -> Option<Vec<ReplanStream>> {
        let inputs = Self::to_stream_inputs(ctx, Some(in_flight));
        // `lookahead_windows` is in full-window units, but the scheduler
        // scales it by whatever horizon it is handed. Mid-window the
        // horizon is the (shrinking) remainder, so compensate to keep the
        // post-retraining credit at `lookahead * window` — otherwise a
        // near-complete retrain gets almost no credit late in the window,
        // the exact myopia the lookahead exists to prevent.
        let mut params = self.params;
        if remaining_secs > 1e-9 {
            params.lookahead_windows =
                self.params.lookahead_windows * ctx.window_secs / remaining_secs;
        }
        let schedule = thief_schedule(&inputs, remaining_secs, &params);
        Some(
            schedule
                .decisions
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let s = &ctx.streams[i];
                    let infer_config = d
                        .infer_profile_idx
                        .map(|idx| s.infer_profiles[idx].config)
                        .unwrap_or(InferenceConfig::FALLBACK);
                    let train_gpus = if in_flight[i].is_some() { d.train_gpus } else { 0.0 };
                    ReplanStream { infer_config, infer_gpus: d.infer_gpus, train_gpus }
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::default_inference_grid;
    use crate::profile::build_inference_profiles;
    use ekya_nn::cost::CostModel;
    use ekya_nn::fit::LearningCurve;

    fn mk_profiles() -> (Vec<RetrainProfile>, Vec<InferenceProfile>) {
        let retrain = vec![RetrainProfile {
            config: RetrainConfig {
                epochs: 10,
                batch_size: 32,
                last_layer_neurons: 16,
                layers_trained: 3,
                data_fraction: 1.0,
            },
            curve: LearningCurve { a: 1.0, b: 2.5, c: 0.9 },
            gpu_seconds_per_epoch: 4.0,
        }];
        let infer =
            build_inference_profiles(&CostModel::default(), 1.0, 30.0, &default_inference_grid());
        (retrain, infer)
    }

    #[test]
    fn ekya_policy_produces_feasible_plan() {
        let (retrain, infer) = mk_profiles();
        let class_dist = vec![1.0 / 6.0; 6];
        let ctx = PolicyCtx {
            window_idx: 0,
            window_secs: 200.0,
            total_gpus: 2.0,
            streams: (0..3)
                .map(|i| PolicyStream {
                    id: StreamId(i),
                    fps: 30.0,
                    serving_accuracy: 0.5,
                    class_dist: &class_dist,
                    drift_magnitude: 0.5,
                    retrain_profiles: &retrain,
                    infer_profiles: &infer,
                })
                .collect(),
        };
        let mut policy = EkyaPolicy::new(SchedulerParams::new(2.0));
        let plan = policy.plan_window(&ctx);
        assert_eq!(plan.streams.len(), 3);
        assert!(plan.total_gpus() <= 2.0 + 1e-9);
        assert!(policy.needs_profiles());
        assert_eq!(policy.name(), "Ekya");
    }

    #[test]
    fn replan_pins_in_flight_configs() {
        let (retrain, infer) = mk_profiles();
        let class_dist = vec![1.0 / 6.0; 6];
        let ctx = PolicyCtx {
            window_idx: 0,
            window_secs: 200.0,
            total_gpus: 2.0,
            streams: (0..2)
                .map(|i| PolicyStream {
                    id: StreamId(i),
                    fps: 30.0,
                    serving_accuracy: 0.6,
                    class_dist: &class_dist,
                    drift_magnitude: 0.2,
                    retrain_profiles: &retrain,
                    infer_profiles: &infer,
                })
                .collect(),
        };
        let mut policy = EkyaPolicy::new(SchedulerParams::new(2.0));
        // Stream 0 finished its retraining; stream 1 still in flight.
        let in_flight: Vec<InFlight> = vec![
            None,
            Some(InProgressRetrain {
                config: retrain[0].config,
                curve: retrain[0].curve,
                k_done: 5.0,
                gpu_seconds_remaining: 20.0,
            }),
        ];
        let replan = policy.replan(&ctx, &in_flight, 100.0).unwrap();
        assert_eq!(replan.len(), 2);
        // The finished stream gets no training GPUs.
        assert_eq!(replan[0].train_gpus, 0.0);
        // Budget still respected.
        let total: f64 = replan.iter().map(|r| r.infer_gpus + r.train_gpus).sum();
        assert!(total <= 2.0 + 1e-9);
    }
}
