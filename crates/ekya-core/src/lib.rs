#![warn(missing_docs)]

//! # ekya-core — the paper's primary contribution
//!
//! Joint scheduling of DNN inference and continuous retraining on edge
//! servers, reproducing Ekya (Bhardwaj et al., NSDI 2022):
//!
//! * [`config`] — retraining (γ) and inference (λ) configuration spaces
//!   (§3.1);
//! * [`profile`] — resource/accuracy profiles and the Pareto frontier
//!   (Fig 3b);
//! * [`estimator`] — `EstimateAccuracy`: inference accuracy averaged over
//!   the retraining window, the paper's headline metric;
//! * [`scheduler`] — the thief scheduler (Algorithms 1 and 2, §4.2);
//! * [`microprofiler`] — the micro-profiler: early-terminated training on
//!   sampled data, NNLS curve extrapolation, history-based pruning (§4.3);
//! * [`knapsack`] — exact solver for the underlying multi-dimensional
//!   knapsack (Eq. 1), used as an oracle on small instances;
//! * [`adapt`] — mid-window estimate correction (§5);
//! * [`exec`] — real retraining execution shared by profiling and the
//!   simulator;
//! * [`learner`] — the per-stream learner (golden-model teacher, iCaRL
//!   exemplar memory, micro-profiler) and the window preparation it runs
//!   for the simulator, the serving daemon's Phase A, the trace recorder
//!   and Fig. 10: label the train pool then val, mix in exemplars,
//!   measure the serving model, micro-profile;
//! * [`net`] — the half-duplex edge↔cloud links of Table 4 (§6.5) and
//!   their FIFO transfer queue, shared by the cloud-retraining baseline
//!   and the serving daemon's swap ledger;
//! * [`policy`] — the policy trait the window runner is generic over, and
//!   [`policy::EkyaPolicy`] combining all of the above;
//! * [`hash`] — the workspace's one FNV-1a implementation (cell seeds,
//!   registry memo keys, trace and merge fingerprints).

pub mod adapt;
pub mod config;
pub mod estimator;
pub mod exec;
pub mod hash;
pub mod knapsack;
pub mod learner;
pub mod microprofiler;
pub mod net;
pub mod policy;
pub mod profile;
pub mod scheduler;

pub use config::{
    default_inference_grid, default_retrain_grid, extended_retrain_grid, richest_config, CurveKey,
    InferenceConfig, RetrainConfig,
};
pub use estimator::{
    best_feasible_infer, estimate_window, AccuracyEstimate, EstimateParams, RetrainWork,
};
pub use exec::{build_variant, RetrainExecution, TrainHyper};
pub use hash::fnv1a;
pub use knapsack::optimal_schedule;
pub use learner::{stream_seed, PreparedWindow, StreamLearner};
pub use microprofiler::{
    exhaustive_profile, profile_config, MicroProfiler, MicroProfilerParams, ProfileOutput,
};
pub use policy::{
    EkyaPolicy, InFlight, PlannedRetrain, Policy, PolicyCtx, PolicyStream, ReplanStream,
    StreamPlan, WindowPlan,
};
pub use profile::{
    build_inference_profiles, pareto_distance, pareto_frontier, InferenceProfile, RetrainProfile,
};
pub use scheduler::{
    pick_configs_fixed, thief_schedule, InProgressRetrain, RetrainChoice, Schedule,
    SchedulerObjective, SchedulerParams, StreamDecision, StreamInput,
};
