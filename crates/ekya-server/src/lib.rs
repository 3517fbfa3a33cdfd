#![warn(missing_docs)]

//! # ekya-server — the wall-clock actor deployment
//!
//! The paper's evaluation has two halves: a real system implementation on
//! Ray actors (§5) and a trace-driven simulator (§6.1). `ekya-sim` covers
//! the simulator; this crate covers the deployment: **inference shards**
//! that keep classifying live frames while **trainer actors** run real
//! SGD on other threads, hot-swapping improved checkpoints into serving,
//! with the micro-profiler and thief scheduler planning every window.
//!
//! There is one serving shape, [`EdgeDaemon`]: a fixed pool of
//! bounded-mailbox [`InferenceShard`]s multiplexing the admitted streams
//! (one stream on one shard is the smallest deployment, hundreds of
//! streams the largest), a supervised trainer pool, typed admission
//! control, and a deterministic status snapshot ([`StatusSnapshot`]).
//!
//! The paper implements Ekya's modules — scheduler, micro-profiler and
//! per-stream training/inference jobs — as long-running Ray actors (§5).
//! [`actors`] is the dependency-light Rust stand-in: typed mailboxes over
//! `std::sync::mpsc` channels on OS threads (CPU-bound work does not
//! belong on an async runtime), blocking and deferred asks, request queueing while an
//! actor is busy (the §5 model-reload behaviour), and supervised restart
//! on panic (the §5 "failure recovery"). Every mailbox is **bounded** —
//! [`actors::spawn_bounded`] and [`actors::spawn_supervised_bounded`]
//! are the only constructors — so a slow consumer (a trainer hogging its
//! thread, a shard mid-reload) blocks its producers instead of growing a
//! queue until the box runs out of memory. Distribution across machines
//! and actor migration are omitted; a single edge server needs neither.
//!
//! Implemented: shard/trainer actors, checkpoint hot-swaps with
//! reload-time queueing, end-to-end windowed operation, liveness metrics
//! (frames served during retraining), admission control and per-stream
//! serving ledgers. Omitted: real GPU binding and fractional-share
//! enforcement — wall-clock threads share CPU, so timing fidelity
//! (retraining durations under fractional allocations) is the job of
//! `ekya-sim`'s virtual-time runner. Use this crate to validate the
//! architecture; use `ekya-sim` to evaluate scheduling policy.

pub mod actors;
pub mod metrics;
pub mod serve;
pub mod trainer;

pub use metrics::{StatusSnapshot, StatusView, StreamStatus};
pub use serve::{
    AdmissionError, ArrivalPattern, ClassifyJob, DaemonClient, EdgeDaemon, InferenceShard,
    ServeConfig, ServeError, ServeWindowReport, ShardLive, ShardMsg, ShardReply,
};
pub use trainer::{SwapTarget, TrainJobSpec, TrainOutcome, TrainerActor, TrainerMsg, TrainerReply};
