#![warn(missing_docs)]

//! # ekya-net — network substrate for the Ekya reproduction
//!
//! Edge↔cloud link models and transfer scheduling for the paper's
//! alternative-design comparison (§6.5, Table 4): uploading training data
//! to the cloud and downloading retrained models over the constrained
//! links typical of edge deployments (4G cellular, satellite).
//!
//! Implemented: bandwidth/latency/loss link models with the paper's
//! Table 4 presets and bandwidth scaling, FIFO shared-link transfer
//! scheduling, and cloud-retraining window simulation (instantaneous
//! cloud training — the paper's conservative assumption). Omitted:
//! per-packet simulation, TCP dynamics, congestion control — bulk-transfer
//! completion times are what Table 4 needs, and those are
//! bandwidth-dominated.

pub mod cloud;
pub mod link;
pub mod transfer;

pub use cloud::{simulate_cloud_window, CloudJobSpec, CloudWindowOutcome};
pub use link::{Direction, LinkModel};
pub use transfer::{CompletedTransfer, LinkScheduler, Transfer};
