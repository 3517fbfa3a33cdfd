#![warn(missing_docs)]

//! # ekya-sim — execution substrate for the Ekya reproduction
//!
//! The paper evaluates with a real testbed plus a trace-driven simulator
//! (§6.1). This crate provides both halves in one stack:
//!
//! * [`engine`] — deterministic discrete-event core (integer-microsecond
//!   clock, generation-based lazy cancellation);
//! * [`gpu`] — fractional GPU shares: inverse-power-of-two quantisation
//!   and MPS restart costs (§5);
//! * [`runner`] — the end-to-end window runner: teacher labelling,
//!   micro-profiling, policy planning, epoch-by-epoch *real* training,
//!   checkpoint hot-swaps, mid-window estimate correction and
//!   rescheduling;
//! * [`trace`] — profile logging and trace-driven replay, mirroring the
//!   paper's scaling methodology ("the simulator takes as input the
//!   accuracy and resource usage ... logged from our testbed");
//! * [`metrics`] — step-function accuracy timelines and run reports.
//!
//! Implemented: everything the evaluation needs. Omitted: GPU memory
//! pressure, PCIe contention, multi-tenant interference beyond fractional
//! shares — none of which the paper models either.

pub mod engine;
pub mod gpu;
pub mod metrics;
pub mod runner;
pub mod time;
pub mod trace;

pub use engine::{Engine, Generation};
pub use gpu::{quantize_inv_pow2, MpsCosts};
pub use metrics::{RunReport, StreamWindowReport, Timeline, WindowReport};
pub use runner::{run_windows, RunnerConfig};
pub use time::SimTime;
pub use trace::{record_trace, ReplayPolicyHarness, StreamWindowTrace, Trace, WindowTrace};
