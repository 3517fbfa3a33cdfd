//! Run observability: per-shard progress probing (the checkpoint
//! heartbeat) and the atomically-rewritten `status.json` that
//! `ekya_grid status` renders while shards execute.

use super::merge::MergedInfo;
use super::plan::Plan;
use crate::load_report;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Lifecycle of one shard under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardState {
    /// Not yet spawned.
    Pending,
    /// A worker process is executing it.
    Running,
    /// Last attempt failed; waiting out the backoff before respawning.
    Retrying,
    /// Its final shard report is complete on disk.
    Done,
    /// Attempts exhausted — excluded from the run, recorded in
    /// [`ShardStatus::failures`]; the run cannot merge.
    Failed,
}

/// One failed attempt of a shard — the `excluded`-style record that
/// survives in `status.json` so a post-mortem never needs the
/// supervisor's terminal output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardFailure {
    /// Which attempt failed (1-based).
    pub attempt: usize,
    /// Why: exit status, stall description, or spawn error.
    pub reason: String,
}

/// Live state of one shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStatus {
    /// Shard coordinates, `"i/N"`.
    pub shard: String,
    /// First cell of the slice (inclusive).
    pub start: usize,
    /// One past the last cell of the slice.
    pub end: usize,
    /// Current lifecycle state.
    pub state: ShardState,
    /// Attempts started so far (1-based; 0 = never spawned).
    pub attempt: usize,
    /// Cells checkpointed or reported so far.
    pub cells_done: usize,
    /// PID of the live worker, when running.
    pub pid: Option<u32>,
    /// Every failed attempt, in order.
    pub failures: Vec<ShardFailure>,
}

/// One lifecycle transition of a supervised run, folded into
/// `status.json` in emission order — the orchestrator's event log, so a
/// post-mortem (or `ekya_grid status`) can reconstruct what the
/// supervisor did without its terminal output. Run-level transitions
/// (merge, completion) carry an empty `shard` and attempt 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEvent {
    /// Shard coordinates `"i/N"`, or `""` for run-level events.
    pub shard: String,
    /// Attempt the event belongs to (0 for run-level events).
    pub attempt: usize,
    /// What happened: `spawned`, `already_complete`, `done`,
    /// `attempt_failed`, `retry_scheduled`, `exhausted`, `merging`,
    /// `complete`, `run_failed`.
    pub event: String,
    /// Free-form detail (pid, exit reason, backoff, merge target).
    pub detail: String,
}

/// Overall lifecycle of a supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunState {
    /// Shards executing (or retrying).
    Running,
    /// All shards done; merging their reports.
    Merging,
    /// Merged (and verified/promoted when requested).
    Complete,
    /// At least one shard exhausted its attempts.
    Failed,
}

/// The whole-run snapshot, atomically rewritten to
/// `<run_dir>/status.json` on every supervision tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Status {
    /// The bin being run.
    pub bin: String,
    /// Overall lifecycle state.
    pub state: RunState,
    /// Cells in the full grid.
    pub total_cells: usize,
    /// Cells completed across all shards (checkpoints + done shards).
    pub cells_done: usize,
    /// Observed throughput of this supervision session (cells completed
    /// since launch / elapsed wall-clock), 0.0 until progress appears.
    pub cells_per_sec: f64,
    /// Estimated seconds to completion at the observed rate.
    pub eta_secs: Option<f64>,
    /// Per-shard state, in shard-index order.
    pub shards: Vec<ShardStatus>,
    /// Lifecycle transitions in emission order (see [`ShardEvent`]).
    pub events: Vec<ShardEvent>,
    /// The merge outcome, once the run completed.
    pub merged: Option<MergedInfo>,
}

/// `<run_dir>/status.json`.
pub(crate) fn status_path(run_dir: &Path) -> PathBuf {
    run_dir.join("status.json")
}

/// Atomically rewrites `status.json` (tmp sibling + rename), so a
/// concurrent `ekya_grid status` never reads a torn file.
pub(crate) fn write_status(run_dir: &Path, status: &Status) -> Result<(), String> {
    let path = status_path(run_dir);
    let tmp = path.with_extension("tmp");
    crate::write_json(&tmp, status)?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("cannot rename {}: {e}", tmp.display()))
}

/// Reads the current `status.json` of a run directory.
pub fn read_status(run_dir: &Path) -> Result<Status, String> {
    let path = status_path(run_dir);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e} — has the run been started?", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// A stat-level signature of shard `i`'s newest artifact (mtime + size
/// of the final report or the `.partial.json` checkpoint, whichever is
/// newer). Checkpoints embed full per-cell reports and grow to many
/// megabytes on real grids, so the supervisor compares this signature
/// on every poll tick and pays for a full [`probe_shard`] parse only
/// when something actually changed on disk.
pub(crate) fn probe_signature(plan: &Plan, run_dir: &Path, i: usize) -> Option<(SystemTime, u64)> {
    let sig = |p: PathBuf| {
        let meta = std::fs::metadata(&p).ok()?;
        Some((meta.modified().ok()?, meta.len()))
    };
    let report = sig(plan.shard_report_path(run_dir, i));
    let partial = sig(plan.shard_partial_path(run_dir, i));
    match (report, partial) {
        (Some(r), Some(p)) => Some(if p.0 > r.0 { p } else { r }),
        (r, p) => r.or(p),
    }
}

/// A progress probe of one shard's on-disk artifacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Progress {
    /// Cells the shard has durably completed (final report, else
    /// checkpoint).
    pub(crate) cells_done: usize,
    /// True when the final shard report is complete.
    pub(crate) complete: bool,
    /// Modification time of the newest artifact — together with
    /// `cells_done`, the heartbeat the stall detector watches.
    pub(crate) heartbeat: Option<SystemTime>,
}

/// Probes shard `i`'s report/checkpoint files: a complete final report
/// wins; otherwise the `.partial.json` checkpoint's cell count is the
/// durable progress. Unparseable files (e.g. a kill mid-write) read as
/// no progress — exactly how a resuming worker treats them.
pub(crate) fn probe_shard(plan: &Plan, run_dir: &Path, i: usize) -> Progress {
    let expected = plan.shards[i].cells();
    let report = plan.shard_report_path(run_dir, i);
    let mtime = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();

    if let Ok(r) = load_report(&report) {
        if r.cells.len() == expected {
            return Progress { cells_done: expected, complete: true, heartbeat: mtime(&report) };
        }
    }
    let partial = plan.shard_partial_path(run_dir, i);
    if let Ok(p) = load_report(&partial) {
        return Progress {
            cells_done: p.cells.len().min(expected),
            complete: false,
            heartbeat: mtime(&partial),
        };
    }
    Progress { cells_done: 0, complete: false, heartbeat: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HarnessReport, Knobs};

    fn tiny_plan() -> Plan {
        let knobs = Knobs { windows: Some(1), quick: true, workers: 1, ..Knobs::default() };
        Plan::new("fig06_streams", 2, knobs, 1, 600, 100).unwrap()
    }

    #[test]
    fn status_roundtrips_atomically() {
        let plan = tiny_plan();
        let dir = std::env::temp_dir().join(format!("ekya_orch_status_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let status = Status {
            bin: plan.bin.clone(),
            state: RunState::Running,
            total_cells: plan.total_cells,
            cells_done: 3,
            cells_per_sec: 1.5,
            eta_secs: Some(11.3),
            shards: plan
                .shards
                .iter()
                .map(|s| ShardStatus {
                    shard: s.shard.to_string(),
                    start: s.start,
                    end: s.end,
                    state: ShardState::Running,
                    attempt: 1,
                    cells_done: 1,
                    pid: Some(4242),
                    failures: vec![ShardFailure { attempt: 1, reason: "exit code 17".into() }],
                })
                .collect(),
            events: vec![ShardEvent {
                shard: "0/2".into(),
                attempt: 1,
                event: "spawned".into(),
                detail: "pid=4242".into(),
            }],
            merged: None,
        };
        write_status(&dir, &status).unwrap();
        assert_eq!(read_status(&dir).unwrap(), status);
        // The tmp sibling never survives a successful write.
        assert!(!status_path(&dir).with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_reads_partial_checkpoints_and_final_reports() {
        let plan = tiny_plan();
        let dir = std::env::temp_dir().join(format!("ekya_orch_probe_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Nothing on disk: zero progress, no heartbeat.
        let p = probe_shard(&plan, &dir, 0);
        assert_eq!((p.cells_done, p.complete), (0, false));
        assert!(p.heartbeat.is_none());

        // A partial checkpoint counts its cells but is never complete.
        let partial = HarnessReport {
            name: plan.bin.clone(),
            total_cells: plan.total_cells,
            shard: Some(plan.shards[0].shard),
            failed: 0,
            cells: Vec::new(),
        };
        crate::write_json(&plan.shard_partial_path(&dir, 0), &partial).unwrap();
        let p = probe_shard(&plan, &dir, 0);
        assert_eq!((p.cells_done, p.complete), (0, false));
        assert!(p.heartbeat.is_some(), "checkpoint mtime is the heartbeat");

        // Corrupt final report (kill mid-write): ignored, not trusted.
        std::fs::write(plan.shard_report_path(&dir, 0), "{ torn").unwrap();
        assert!(!probe_shard(&plan, &dir, 0).complete);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
