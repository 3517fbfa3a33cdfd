#![warn(missing_docs)]

//! # ekya — reproduction of "Ekya: Continuous Learning of Video Analytics
//! # Models on Edge Compute Servers" (NSDI 2022)
//!
//! This facade crate re-exports the full workspace:
//!
//! * [`core`] (`ekya-core`) — thief scheduler, micro-profiler, estimator,
//!   and the edge↔cloud links of Table 4 (`core::net`);
//! * [`nn`] (`ekya-nn`) — learning substrate (MLPs, SGD, NNLS curve fits);
//! * [`video`] (`ekya-video`) — synthetic drifting video workloads;
//! * [`sim`] (`ekya-sim`) — discrete-event execution + trace replay;
//! * [`server`] (`ekya-server`) — the live deployment: one serving shape,
//!   `EdgeDaemon` (inference shards, supervised trainers, hot-swaps), on
//!   the actor runtime re-exported as [`actors`] (the paper's Ray, §5:
//!   typed, bounded mailboxes and supervised restart);
//! * [`baselines`] (`ekya-baselines`) — uniform/ablation/cloud/cache
//!   comparisons;
//! * [`telemetry`] (`ekya-telemetry`) — two-plane structured tracing:
//!   a deterministic logical plane (spans/events/counters keyed by
//!   window, cell, shard, model version) plus a quarantined wall-clock
//!   plane, off by default (`EKYA_TRACE`).
//!
//! Two experiment-layer crates ride on top (dev-dependencies of this
//! facade, guarded by `tests/workspace_smoke.rs`): `ekya-bench` — the
//! parallel experiment harness with one binary per paper table/figure —
//! and `ekya-orchestrate` — the `ekya_grid` launcher that plans,
//! spawns, supervises, retries, and merges a sharded grid run as one
//! command.
//!
//! ## Quickstart
//!
//! ```
//! use ekya::prelude::*;
//!
//! // Two camera streams, three retraining windows, one GPU.
//! let streams = StreamSet::generate(DatasetKind::UrbanTraffic, 2, 3, 42);
//! let mut policy = EkyaPolicy::new(SchedulerParams::new(1.0));
//! let cfg = RunnerConfig { total_gpus: 1.0, ..RunnerConfig::default() };
//! let report = run_windows(&mut policy, &streams, &cfg, 3);
//! assert!(report.mean_accuracy() > 0.0);
//! ```

pub use ekya_baselines as baselines;
pub use ekya_core as core;
pub use ekya_nn as nn;
pub use ekya_server as server;
pub use ekya_server::actors;
pub use ekya_sim as sim;
pub use ekya_telemetry as telemetry;
pub use ekya_video as video;

/// One-stop imports for the common experiment workflow.
pub mod prelude {
    pub use ekya_baselines::{
        holdout_configs, run_cloud_retraining, run_fig2b, run_model_cache, CloudRunConfig,
        EkyaFixedConfig, EkyaFixedRes, OraclePolicy, UniformPolicy,
    };
    pub use ekya_core::net::LinkModel;
    pub use ekya_core::{
        default_inference_grid, default_retrain_grid, EkyaPolicy, InferenceConfig, MicroProfiler,
        MicroProfilerParams, Policy, RetrainConfig, SchedulerParams,
    };
    pub use ekya_nn::{CostModel, LearningCurve, Mlp, MlpArch};
    pub use ekya_server::{EdgeDaemon, ServeConfig};
    pub use ekya_sim::{
        record_trace, run_windows, ReplayPolicyHarness, RunReport, RunnerConfig, Trace,
    };
    pub use ekya_video::{DatasetKind, DatasetSpec, StreamSet, VideoDataset};
}
