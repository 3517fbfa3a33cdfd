#![warn(missing_docs)]

//! # ekya-server — the wall-clock deployment
//!
//! The paper's evaluation has two halves: a real system implementation on
//! Ray actors (§5) and a trace-driven simulator (§6.1). `ekya-sim` covers
//! the simulator; this crate covers the deployment: **serving slots**
//! that keep classifying live frames while **trainer actors** run real
//! SGD on other threads, hot-swapping improved checkpoints into serving,
//! with the micro-profiler and thief scheduler planning every window.
//!
//! There is one serving shape, [`EdgeDaemon`]: one lock-guarded slot per
//! admitted stream (model, version, forward-pass scratch, counters) that
//! the daemon's pump, every [`DaemonClient`], the stream's trainer and
//! the window phases use directly — one stream is the smallest
//! deployment, hundreds the largest — a supervised trainer pool, typed
//! admission control, and a deterministic status snapshot
//! ([`StatusSnapshot`]). A slot's lock is held for one batch or one
//! model read or swap, so a checkpoint never queues behind other
//! streams' frames, and a panic while classifying takes down only its
//! own stream's serving.
//!
//! The paper implements Ekya's modules — scheduler, micro-profiler and
//! per-stream training/inference jobs — as long-running Ray actors (§5).
//! [`actors`] is the dependency-light Rust stand-in the trainers run on:
//! typed mailboxes over `std::sync::mpsc` channels on OS threads
//! (CPU-bound work does not belong on an async runtime), blocking and
//! deferred asks, and supervised restart on panic (the §5 "failure
//! recovery"). Every mailbox is **bounded** — [`actors::spawn_bounded`]
//! and [`actors::spawn_supervised_bounded`] are the only constructors —
//! so a slow consumer (a trainer hogging its thread) blocks its producers
//! instead of growing a queue until the box runs out of memory.
//! Distribution across machines and actor migration are omitted; a
//! single edge server needs neither.
//!
//! Implemented: serving slots, trainer actors, checkpoint hot-swaps with
//! a modelled reload the trainer pays, end-to-end windowed operation,
//! liveness metrics (frames served during retraining), admission control
//! and per-stream serving ledgers. Omitted: real GPU binding and
//! fractional-share enforcement — wall-clock threads share CPU, so
//! timing fidelity (retraining durations under fractional allocations)
//! is the job of `ekya-sim`'s virtual-time runner. Use this crate to
//! validate the architecture; use `ekya-sim` to evaluate scheduling
//! policy.

pub mod actors;
pub mod metrics;
pub mod serve;
pub mod trainer;

pub use metrics::{StatusSnapshot, StatusView, StreamStatus};
pub use serve::{
    AdmissionError, ArrivalPattern, DaemonClient, EdgeDaemon, LiveStats, ServeConfig, ServeError,
    ServeWindowReport,
};
pub use trainer::{SwapTarget, TrainJobSpec, TrainOutcome, TrainerActor, TrainerMsg, TrainerReply};
