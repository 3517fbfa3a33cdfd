//! The supervision loop: spawn every shard, watch heartbeats, retry
//! failures with resume, and drive the run to a merged report.
//!
//! Failure taxonomy (each produces a [`ShardFailure`] record):
//!
//! * **exited nonzero / killed** — the worker process died (crash,
//!   OOM-kill, operator `kill`); its checkpoint survives, so the retry
//!   resumes and pays only for the cells in flight.
//! * **exited clean without a complete report** — the worker returned 0
//!   but its shard report is missing or truncated (e.g. a full disk);
//!   treated exactly like a crash.
//! * **stalled** — a shard made no checkpoint progress
//!   (cell count and mtime both unchanged) for the stall budget —
//!   `stall_timeout_secs · attempt`, escalating so a shard whose honest
//!   time-to-first-checkpoint exceeds the configured timeout is not
//!   killed identically forever; the supervisor kills and retries it.
//!
//! Retries are bounded (`max_retries` beyond the first attempt) with
//! exponential backoff (`backoff_ms · 2^(retry-1)`). A shard that
//! exhausts its attempts is marked [`ShardState::Failed`] and excluded;
//! the remaining shards still run to completion so their work is on
//! disk for a later `ekya_grid resume`, but the run ends
//! [`RunState::Failed`] and nothing is merged.

use super::merge::{merge_run, promote};
use super::monitor::{
    probe_shard, probe_signature, write_status, RunState, ShardEvent, ShardFailure, ShardState,
    ShardStatus, Status,
};
use super::plan::Plan;
use super::spawn::Spawner;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant, SystemTime};

/// Supervision policy knobs (the plan holds the science knobs).
#[derive(Debug, Clone)]
pub struct SuperviseOpts {
    /// How often shards are polled and `status.json` refreshed.
    pub poll_interval: Duration,
    /// Spawn *first* attempts with `EKYA_RESUME=1` — `ekya_grid resume`
    /// sets this so a restarted run reuses everything on disk. Retries
    /// always resume regardless.
    pub resume: bool,
    /// Fault injection for tests/CI: `(shard_index, crash_after_cells)`
    /// — the shard's first attempt gets `EKYA_ORCH_CRASH_AFTER` and dies
    /// mid-grid; its retries run clean.
    pub inject_crash: Option<(usize, usize)>,
    /// Verify the merged report byte-for-byte against this reference
    /// file (the determinism gate CI uses).
    pub verify_against: Option<PathBuf>,
    /// Copy the merged report to the canonical `results/<bin>.json`.
    pub promote: bool,
}

impl Default for SuperviseOpts {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(200),
            resume: false,
            inject_crash: None,
            verify_against: None,
            promote: true,
        }
    }
}

/// Backoff before retry `retry` (1-based): `backoff_ms · 2^(retry-1)`,
/// exponent capped so pathological retry counts cannot overflow.
fn backoff_delay(backoff_ms: u64, retry: usize) -> Duration {
    Duration::from_millis(backoff_ms.saturating_mul(1u64 << (retry.saturating_sub(1)).min(10)))
}

/// Supervisor-side runtime state of one shard (the on-disk
/// [`ShardStatus`] plus what only the supervisor can know).
struct ShardRt {
    child: Option<Child>,
    retry_at: Option<Instant>,
    last_beat: Instant,
    last_signature: Option<(SystemTime, u64)>,
}

/// Runs `plan` to completion under `spawner`: spawns every incomplete
/// shard, supervises heartbeats and exits, retries with resume, merges
/// once all shards are done, and returns the final [`Status`] (also the
/// last thing written to `status.json`).
///
/// `Err` means the supervisor itself could not proceed (unspawnable
/// workers, unmergeable reports, failed verification); a run whose
/// shards exhausted their retries is *not* an `Err` — it returns
/// `Ok(status)` with [`RunState::Failed`] and the failure records.
pub fn supervise(
    plan: &Plan,
    run_dir: &Path,
    spawner: &Spawner,
    opts: &SuperviseOpts,
) -> Result<Status, String> {
    std::fs::create_dir_all(run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let started = Instant::now();
    let max_attempts = plan.max_retries + 1;

    let mut status = Status {
        bin: plan.bin.clone(),
        state: RunState::Running,
        total_cells: plan.total_cells,
        cells_done: 0,
        cells_per_sec: 0.0,
        eta_secs: None,
        shards: plan
            .shards
            .iter()
            .map(|s| ShardStatus {
                shard: s.shard.to_string(),
                start: s.start,
                end: s.end,
                state: ShardState::Pending,
                attempt: 0,
                cells_done: 0,
                pid: None,
                failures: Vec::new(),
            })
            .collect(),
        events: Vec::new(),
        merged: None,
    };
    let mut rt: Vec<ShardRt> = plan
        .shards
        .iter()
        .map(|_| ShardRt { child: None, retry_at: None, last_beat: started, last_signature: None })
        .collect();

    // A previous supervisor of this run directory may have died leaving
    // its workers orphaned — spawning fresh ones beside them would race
    // two processes onto the same report/checkpoint files. Reap any
    // worker the old status.json still names before (re)spawning.
    reap_orphan_workers(plan, run_dir);

    // Initial probe + spawn: shards already complete on disk (a resumed
    // or re-entered run) are Done for free; the rest start attempt 1.
    {
        let Status { shards, events, .. } = &mut status;
        for (i, sh) in rt.iter_mut().enumerate() {
            let probe = probe_shard(plan, run_dir, i);
            if probe.complete {
                shards[i].state = ShardState::Done;
                shards[i].cells_done = probe.cells_done;
                events.push(ShardEvent {
                    shard: shards[i].shard.clone(),
                    attempt: 0,
                    event: "already_complete".into(),
                    detail: format!("{} cells on disk", probe.cells_done),
                });
                continue;
            }
            shards[i].cells_done = probe.cells_done;
            let crash = opts.inject_crash.filter(|&(shard, _)| shard == i).map(|(_, after)| after);
            spawn_attempt(plan, spawner, i, &mut shards[i], sh, opts.resume, crash, events);
        }
    }
    let initial_done: usize = status.shards.iter().map(|s| s.cells_done).sum();
    refresh_totals(&mut status, initial_done, started);
    write_status(run_dir, &status)?;

    // ---- The supervision loop. ----
    // The stall budget escalates linearly with the attempt number: a
    // shard whose legitimate time-to-first-checkpoint exceeds the
    // configured timeout (a long first cell, fig08's in-memory trace
    // recording) would otherwise be killed identically on every retry
    // and could never complete; a genuinely hung worker still dies,
    // just with a growing grace period.
    let stall = Duration::from_secs(plan.stall_timeout_secs);
    loop {
        let Status { shards, events, .. } = &mut status;
        for (i, sh) in rt.iter_mut().enumerate() {
            let st = &mut shards[i];
            match st.state {
                ShardState::Done | ShardState::Failed | ShardState::Pending => {}
                ShardState::Retrying => {
                    if sh.retry_at.is_some_and(|at| Instant::now() >= at) {
                        sh.retry_at = None;
                        spawn_attempt(plan, spawner, i, st, sh, true, None, events);
                    }
                }
                ShardState::Running => {
                    let child = sh.child.as_mut().expect("running shard has a child");
                    match child.try_wait() {
                        Err(e) => {
                            // Losing track of a child is unrecoverable
                            // supervision state; surface it.
                            return Err(format!("cannot wait on shard {}: {e}", st.shard));
                        }
                        Ok(Some(exit)) => {
                            sh.child = None;
                            st.pid = None;
                            let probe = probe_shard(plan, run_dir, i);
                            st.cells_done = probe.cells_done;
                            if probe.complete {
                                st.state = ShardState::Done;
                                events.push(ShardEvent {
                                    shard: st.shard.clone(),
                                    attempt: st.attempt,
                                    event: "done".into(),
                                    detail: format!("{} cells", probe.cells_done),
                                });
                            } else {
                                let reason = match exit.code() {
                                    Some(0) => {
                                        "exited 0 without a complete shard report".to_string()
                                    }
                                    Some(code) => format!("exit code {code}"),
                                    None => "killed by signal".to_string(),
                                };
                                record_failure(plan, st, sh, reason, max_attempts, events);
                            }
                        }
                        Ok(None) => {
                            // Cheap stat first: only pay for parsing the
                            // (potentially multi-MB) checkpoint when its
                            // mtime/size actually moved.
                            let signature = probe_signature(plan, run_dir, i);
                            if signature.is_some() && signature != sh.last_signature {
                                sh.last_signature = signature;
                                sh.last_beat = Instant::now();
                                let probe = probe_shard(plan, run_dir, i);
                                st.cells_done = probe.cells_done.max(st.cells_done);
                            } else if sh.last_beat.elapsed() >= stall * st.attempt as u32 {
                                let _ = child.kill();
                                let _ = child.wait();
                                sh.child = None;
                                st.pid = None;
                                record_failure(
                                    plan,
                                    st,
                                    sh,
                                    format!(
                                        "stalled: no checkpoint progress for {}s \
                                         (attempt {} budget)",
                                        plan.stall_timeout_secs * st.attempt as u64,
                                        st.attempt
                                    ),
                                    max_attempts,
                                    events,
                                );
                            }
                        }
                    }
                }
            }
        }

        refresh_totals(&mut status, initial_done, started);
        write_status(run_dir, &status)?;

        let all_done = status.shards.iter().all(|s| s.state == ShardState::Done);
        let any_live = status
            .shards
            .iter()
            .any(|s| matches!(s.state, ShardState::Running | ShardState::Retrying));
        if all_done {
            break;
        }
        if !any_live {
            // Some shard exhausted its attempts and nothing is running:
            // the run has failed, but everything completed so far is on
            // disk for `ekya_grid resume` after the operator intervenes.
            status.state = RunState::Failed;
            status.events.push(run_event("run_failed", "a shard exhausted its attempts"));
            write_status(run_dir, &status)?;
            return Ok(status);
        }
        std::thread::sleep(opts.poll_interval);
    }

    // ---- All shards complete: merge, verify, promote. ----
    status.state = RunState::Merging;
    status.events.push(run_event("merging", ""));
    write_status(run_dir, &status)?;
    let shards: Vec<PathBuf> =
        (0..plan.shards.len()).map(|i| plan.shard_report_path(run_dir, i)).collect();
    let mut merged =
        merge_run(&shards, Some(&plan.merged_path(run_dir)), opts.verify_against.as_deref())?;
    if opts.promote {
        merged.promoted_to = Some(promote(plan, run_dir)?.display().to_string());
    }
    status.events.push(run_event("complete", &merged.path));
    status.merged = Some(merged);
    status.state = RunState::Complete;
    refresh_totals(&mut status, initial_done, started);
    write_status(run_dir, &status)?;
    Ok(status)
}

/// A run-level [`ShardEvent`] (no shard coordinates, attempt 0).
fn run_event(event: &str, detail: &str) -> ShardEvent {
    ShardEvent { shard: String::new(), attempt: 0, event: event.into(), detail: detail.into() }
}

/// Starts the next attempt of one shard (spawn failures count as
/// attempts too — a persistently unspawnable worker exhausts its retries
/// instead of looping forever).
#[allow(clippy::too_many_arguments)] // supervision state is genuinely this wide
fn spawn_attempt(
    plan: &Plan,
    spawner: &Spawner,
    index: usize,
    st: &mut ShardStatus,
    sh: &mut ShardRt,
    resume: bool,
    crash_after: Option<usize>,
    events: &mut Vec<ShardEvent>,
) {
    st.attempt += 1;
    match spawner.spawn(plan, index, st.attempt, resume, crash_after) {
        Ok(child) => {
            let pid = child.id();
            st.pid = Some(pid);
            sh.child = Some(child);
            sh.last_beat = Instant::now();
            st.state = ShardState::Running;
            events.push(ShardEvent {
                shard: st.shard.clone(),
                attempt: st.attempt,
                event: "spawned".into(),
                detail: format!("pid={pid}{}", if resume { " resume" } else { "" }),
            });
        }
        Err(e) => {
            record_failure(
                plan,
                st,
                sh,
                format!("spawn failed: {e}"),
                plan.max_retries + 1,
                events,
            );
        }
    }
}

/// Appends a failure record and decides the shard's fate: schedule a
/// backed-off retry while attempts remain, exclude it otherwise.
fn record_failure(
    plan: &Plan,
    st: &mut ShardStatus,
    sh: &mut ShardRt,
    reason: String,
    max_attempts: usize,
    events: &mut Vec<ShardEvent>,
) {
    eprintln!("[ekya_grid: shard {} attempt {} failed — {reason}]", st.shard, st.attempt);
    events.push(ShardEvent {
        shard: st.shard.clone(),
        attempt: st.attempt,
        event: "attempt_failed".into(),
        detail: reason.clone(),
    });
    st.failures.push(ShardFailure { attempt: st.attempt, reason });
    if st.attempt < max_attempts {
        let delay = backoff_delay(plan.backoff_ms, st.attempt);
        eprintln!(
            "[ekya_grid: shard {} retrying with resume in {:.1}s ({} of {} attempts used)]",
            st.shard,
            delay.as_secs_f64(),
            st.attempt,
            max_attempts
        );
        st.state = ShardState::Retrying;
        sh.retry_at = Some(Instant::now() + delay);
        events.push(ShardEvent {
            shard: st.shard.clone(),
            attempt: st.attempt,
            event: "retry_scheduled".into(),
            detail: format!("backoff {:.1}s", delay.as_secs_f64()),
        });
    } else {
        eprintln!("[ekya_grid: shard {} FAILED — {} attempts exhausted]", st.shard, st.attempt);
        st.state = ShardState::Failed;
        events.push(ShardEvent {
            shard: st.shard.clone(),
            attempt: st.attempt,
            event: "exhausted".into(),
            detail: format!("{} attempts", st.attempt),
        });
    }
}

/// Kills shard workers a previous supervisor of this run directory left
/// behind (supervisor SIGKILLed, workers orphaned): for every pid the
/// old `status.json` records, the process is killed only if its command
/// line is recognizably an `... worker ... <bin> ...` invocation — pid
/// reuse must never hit an innocent process. Linux-only (`/proc`
/// cmdline check); elsewhere the pids are reported for manual cleanup.
fn reap_orphan_workers(plan: &Plan, run_dir: &Path) {
    let Ok(prior) = super::monitor::read_status(run_dir) else { return };
    for s in prior.shards.iter().filter(|s| s.state == ShardState::Running) {
        let Some(pid) = s.pid else { continue };
        if cfg!(target_os = "linux") {
            let Ok(raw) = std::fs::read(format!("/proc/{pid}/cmdline")) else { continue };
            let cmdline = String::from_utf8_lossy(&raw).replace('\0', " ");
            if cmdline.contains("worker") && cmdline.contains(&plan.bin) {
                eprintln!(
                    "[ekya_grid: killing orphaned shard {} worker (pid {pid}) \
                     left by a previous supervisor]",
                    s.shard
                );
                let _ = std::process::Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        } else {
            eprintln!(
                "[ekya_grid: a previous supervisor recorded shard {} worker pid {pid} as \
                 running — verify it is gone before trusting this run's outputs]",
                s.shard
            );
        }
    }
}

/// Recomputes the whole-run counters from the per-shard states.
fn refresh_totals(status: &mut Status, initial_done: usize, started: Instant) {
    status.cells_done = status.shards.iter().map(|s| s.cells_done).sum();
    let elapsed = started.elapsed().as_secs_f64();
    let fresh = status.cells_done.saturating_sub(initial_done);
    status.cells_per_sec = if elapsed > 0.0 && fresh > 0 { fresh as f64 / elapsed } else { 0.0 };
    let remaining = status.total_cells.saturating_sub(status.cells_done);
    status.eta_secs = (status.cells_per_sec > 0.0 && remaining > 0)
        .then(|| remaining as f64 / status.cells_per_sec);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_retry_and_saturates() {
        assert_eq!(backoff_delay(500, 1), Duration::from_millis(500));
        assert_eq!(backoff_delay(500, 2), Duration::from_millis(1000));
        assert_eq!(backoff_delay(500, 4), Duration::from_millis(4000));
        // Capped exponent: huge retry counts do not overflow.
        assert_eq!(backoff_delay(500, 1000), Duration::from_millis(500 * 1024));
        assert_eq!(backoff_delay(u64::MAX, 1000), Duration::from_millis(u64::MAX));
    }
}
