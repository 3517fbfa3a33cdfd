#![warn(missing_docs)]

//! # ekya-orchestrate — supervised multi-process grid execution
//!
//! PR 3 made the experiment grids shardable (`EKYA_SHARD=i/N`) and
//! resumable (`EKYA_RESUME`), but an operator still had to hand-launch
//! every shard process, babysit failures, and run `grid_merge` by hand.
//! This crate is the job-supervision layer that closes that gap: the
//! `ekya_grid` binary turns a declarative grid into one supervised
//! multi-process run —
//!
//! ```text
//! ekya_grid run --bin fig06_streams --shards 4 --max-retries 2
//! ```
//!
//! * [`plan`] — inspects a bin's declarative workload
//!   (`ekya_bench::bin_workload`: name, cell count, shard math via
//!   `ShardSpec`) and pins the launch-time env knobs into a `plan.json`
//!   under `results/orchestrate/<run>/`, so every (re)spawn of every
//!   shard runs under byte-identical knobs.
//! * [`spawn`] — launches the `N` shard processes (`ekya_grid worker`,
//!   which runs the bin's sweep in-process via `ekya_bench::run_bin`)
//!   with the right `EKYA_SHARD`/`EKYA_SEED`/`EKYA_WINDOWS`/… env and
//!   per-shard logs in the run directory.
//! * [`monitor`] — watches each shard's `.partial.json` checkpoint
//!   (cell count + mtime) as a heartbeat and atomically rewrites a
//!   `status.json` (cells done / total, per-shard state, observed
//!   cells/sec, ETA) that `ekya_grid status` renders while the run
//!   executes.
//! * [`retry`] — the supervision loop: detects exited-nonzero, stalled
//!   (no checkpoint progress within a timeout), and killed shards, and
//!   relaunches them with `EKYA_RESUME=1` — bounded attempts,
//!   exponential backoff, and per-shard failure records that survive in
//!   `status.json` when a shard is excluded for good.
//! * [`merge`] — once every shard reports complete, recombines the
//!   shard reports in-process (`merge_reports`), fingerprints the merged
//!   file, optionally verifies it byte-for-byte against a reference
//!   report, and promotes it to `results/<bin>.json`.
//!
//! Because resume can only skip work — never change it — a run that
//! loses shards to crashes, kills, or stalls converges to a merged
//! report **byte-identical** to an uninterrupted unsharded run. CI
//! holds that guarantee on every `./ci.sh quick` by killing a shard
//! mid-grid on purpose.

pub mod merge;
pub mod monitor;
pub mod plan;
pub mod retry;
pub mod spawn;

pub use merge::{merge_run, promote, MergedInfo};
pub use monitor::{
    probe_shard, read_status, status_path, write_status, Progress, RunState, ShardEvent,
    ShardFailure, ShardState, ShardStatus, Status,
};
pub use plan::{Plan, PlanEnv, ShardPlan};
pub use retry::{backoff_delay, supervise, SuperviseOpts};
pub use spawn::Spawner;
