//! Supervised multi-process grid execution: the library half of the
//! `ekya_grid` bin.
//!
//! The grid bins shard (`EKYA_SHARD=i/N`) and resume (`EKYA_RESUME=1`)
//! on their own; this module turns a declarative grid into one
//! supervised multi-process run instead of N hand-launched shards —
//!
//! ```text
//! ekya_grid run --bin fig06_streams --shards 4 --max-retries 2
//! ```
//!
//! * `plan` — inspects a bin's declarative workload
//!   ([`crate::bin_workload`]: name, cell count, shard math via
//!   [`crate::ShardSpec`]) and pins the launch-time [`crate::Knobs`]
//!   into a `plan.json` under `results/orchestrate/<run>/`, so every
//!   (re)spawn of every shard runs under byte-identical knobs.
//! * `spawn` — launches the `N` shard processes (`ekya_grid worker`,
//!   which runs the bin's sweep in-process via [`crate::run_bin`]) with
//!   the plan's `EKYA_*` env and per-shard logs in the run directory.
//! * `monitor` — watches each shard's `.partial.json` checkpoint
//!   (cell count + mtime) as a heartbeat and atomically rewrites a
//!   `status.json` (cells done / total, per-shard state, observed
//!   cells/sec, ETA) that `ekya_grid status` renders while the run
//!   executes.
//! * `retry` — the supervision loop: detects exited-nonzero, stalled
//!   (no checkpoint progress within a timeout), and killed shards, and
//!   relaunches them with `EKYA_RESUME=1` — bounded attempts,
//!   exponential backoff, and per-shard failure records that survive in
//!   `status.json` when a shard is excluded for good.
//! * `merge` — recombines shard reports in-process
//!   ([`crate::merge_reports`]), fingerprints the merged file, optionally
//!   verifies it byte-for-byte against a reference report, and (for a
//!   supervised run) promotes it to `results/<bin>.json`. `ekya_grid
//!   merge` runs the same driver over shard files collected by hand.
//!
//! Because resume can only skip work — never change it — a run that
//! loses shards to crashes, kills, or stalls converges to a merged
//! report **byte-identical** to an uninterrupted unsharded run. CI
//! holds that guarantee on every `./ci.sh quick` by killing a shard
//! mid-grid on purpose.

mod merge;
mod monitor;
mod plan;
mod retry;
mod spawn;

pub use merge::{merge_run, MergedInfo};
pub use monitor::{
    read_status, RunState, ShardEvent, ShardFailure, ShardState, ShardStatus, Status,
};
pub use plan::{Plan, ShardPlan};
pub use retry::{supervise, SuperviseOpts};
pub use spawn::Spawner;
