//! Shard-process launching: builds the worker `Command` for one shard
//! attempt — env knobs from the plan, logs into the run directory.
//!
//! A worker is `<program> worker --bin <bin>` — by default the
//! `ekya_grid` binary itself (`std::env::current_exe`), which runs the
//! bin's sweep in-process via [`crate::run_bin`]. The program is a
//! plain path so tests can substitute fault-simulation scripts (a
//! worker that hangs, a worker that exits nonzero) without touching the
//! supervision logic.

use super::plan::Plan;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// The env knobs the spawner owns. Each is cleared from the inherited
/// environment and re-set from the plan, so a stray `EKYA_SHARD` (or a
/// supervisor itself running under `EKYA_QUICK`) in the operator's shell
/// can never leak into a worker and desynchronize it from the plan.
/// `EKYA_TRACE` is owned too: a literal trace path would have every
/// shard rewrite the same file, so a traced supervisor hands its workers
/// `EKYA_TRACE=1` and each shard writes its own suffixed trace.
const OWNED_ENV: [&str; 10] = [
    "EKYA_SHARD",
    "EKYA_RESUME",
    "EKYA_SEED",
    "EKYA_WINDOWS",
    "EKYA_STREAMS",
    "EKYA_QUICK",
    "EKYA_WORKERS",
    "EKYA_RESULTS_DIR",
    "EKYA_ORCH_CRASH_AFTER",
    "EKYA_TRACE",
];

/// Launches shard workers for one run directory.
#[derive(Debug, Clone)]
pub struct Spawner {
    /// The worker executable (`ekya_grid` itself in normal operation).
    pub program: PathBuf,
    /// The run directory — becomes the workers' `EKYA_RESULTS_DIR`, so
    /// shard reports, checkpoints, and logs all land here.
    pub run_dir: PathBuf,
}

impl Spawner {
    /// A spawner using an explicit worker program.
    pub fn new(program: PathBuf, run_dir: &Path) -> Self {
        Self { program, run_dir: run_dir.to_path_buf() }
    }

    /// The normal spawner: workers are this very executable re-invoked
    /// in `worker` mode.
    pub fn current_exe(run_dir: &Path) -> Result<Self, String> {
        let program =
            std::env::current_exe().map_err(|e| format!("cannot resolve current exe: {e}"))?;
        Ok(Self::new(program, run_dir))
    }

    /// Spawns one attempt of shard `index`: `EKYA_SHARD=i/N`, the plan's
    /// pinned knobs, `EKYA_RESUME=1` when `resume` (retries and resumed
    /// runs), `EKYA_ORCH_CRASH_AFTER` when `crash_after` injects a
    /// fault, and `EKYA_TRACE=1` when the supervisor itself is traced. Stdout/stderr append to the shard's log with an attempt
    /// header, so one file tells the whole story of a flaky shard.
    pub fn spawn(
        &self,
        plan: &Plan,
        index: usize,
        attempt: usize,
        resume: bool,
        crash_after: Option<usize>,
    ) -> Result<Child, String> {
        let shard = &plan.shards[index];
        let log_path = plan.shard_log_path(&self.run_dir, index);
        if let Some(dir) = log_path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let mut log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| format!("cannot open {}: {e}", log_path.display()))?;
        let _ = writeln!(
            log,
            "--- shard {} attempt {attempt}{}{} ---",
            shard.shard,
            if resume { " (resume)" } else { "" },
            crash_after.map(|k| format!(" (injected crash after {k} cells)")).unwrap_or_default()
        );
        let err_log =
            log.try_clone().map_err(|e| format!("cannot clone log {}: {e}", log_path.display()))?;

        let mut cmd = Command::new(&self.program);
        cmd.arg("worker").arg("--bin").arg(&plan.bin);
        for key in OWNED_ENV {
            cmd.env_remove(key);
        }
        let knobs = &plan.knobs;
        cmd.env("EKYA_SHARD", shard.shard.to_string())
            .env("EKYA_SEED", knobs.seed.to_string())
            .env("EKYA_WORKERS", knobs.workers.to_string())
            .env("EKYA_RESULTS_DIR", &self.run_dir);
        if let Some(w) = knobs.windows {
            cmd.env("EKYA_WINDOWS", w.to_string());
        }
        if let Some(s) = knobs.streams {
            cmd.env("EKYA_STREAMS", s.to_string());
        }
        if knobs.quick {
            cmd.env("EKYA_QUICK", "1");
        }
        if resume {
            cmd.env("EKYA_RESUME", "1");
        }
        if let Some(k) = crash_after {
            cmd.env("EKYA_ORCH_CRASH_AFTER", k.to_string());
        }
        if crate::knob::trace().is_some() {
            cmd.env("EKYA_TRACE", "1");
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::from(log)).stderr(Stdio::from(err_log));
        cmd.spawn().map_err(|e| {
            format!("cannot spawn shard {} worker ({}): {e}", shard.shard, self.program.display())
        })
    }
}
