//! `ekya_grid` — one command instead of N terminals for a sharded grid.
//!
//! Subcommands:
//!
//! ```text
//! ekya_grid run --bin fig06_streams --shards 4 [--max-retries 2] ...
//! ekya_grid status [--run NAME | --run-dir PATH]
//! ekya_grid resume [--run NAME | --run-dir PATH] [--max-retries K]
//! ekya_grid merge SHARD.json... [-o OUT] [--verify-against REF]
//! ekya_grid worker --bin BIN          (internal: one shard, env-driven)
//! ```
//!
//! `run` plans the grid (`plan.json`), spawns one worker process per
//! shard (this same binary in `worker` mode), supervises them —
//! heartbeat monitoring via the `.partial.json` checkpoints, bounded
//! retry-with-resume on crash/stall/kill — and, when every shard
//! completes, merges the shard reports in-process and (by default)
//! promotes the merged file to `results/<bin>.json`. All run artifacts
//! (plan, status, shard reports, checkpoints, per-shard logs, merged
//! report) live under the run directory, default
//! `results/orchestrate/<run>/`.
//!
//! The science knobs come from the `EKYA_*` env alone
//! (`ekya_bench::Knobs::from_env`), pinned into the plan at launch; each
//! shard gets `EKYA_WORKERS` ÷ shards worker threads (at least one).
//!
//! `run` flags: `--bin` (required; see `ekya_bench::shardable_bins`),
//! `--shards N` (default 2), `--max-retries K` (default 2),
//! `--stall-timeout SECS` (default 600), `--backoff-ms MS` (default
//! 500), `--run NAME` / `--run-dir PATH`, `--worker-program PATH`
//! (substitute the shard worker executable — e.g. the
//! `examples/ssh_worker.sh` wrapper for multi-machine fan-out; default:
//! this very binary in `worker` mode),
//! `--verify-against FILE` (fail unless the merged report is
//! byte-identical to FILE), `--no-promote`, and `--inject-crash I:K`
//! (fault injection: shard I's first attempt exits after K cells — the
//! retry-with-resume proof CI runs).
//!
//! `merge` recombines shard reports collected by hand — e.g. copied back
//! from machines without a shared filesystem — with the same driver
//! `run` uses: the output defaults to `results/<name>.json`, and
//! `--verify-against` fails unless it is byte-identical to REF, naming
//! the first diverging cell.
//!
//! Exit codes: 0 on success, 1 on a failed run or merge, 2 on usage
//! errors or when the supervisor itself cannot proceed.

use ekya_bench::orchestrate::{
    merge_run, read_status, supervise, MergedInfo, Plan, RunState, Spawner, Status, SuperviseOpts,
};
use ekya_bench::Knobs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let result = match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("run", rest)) => cmd_run(rest),
        Some(("status", rest)) => cmd_status(rest),
        Some(("resume", rest)) => cmd_resume(rest),
        Some(("merge", rest)) => cmd_merge(rest),
        Some(("worker", rest)) => cmd_worker(rest),
        _ => Err(usage()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ekya_grid: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: ekya_grid run --bin BIN --shards N [options] | \
     status [--run NAME | --run-dir PATH] | \
     resume [--run NAME | --run-dir PATH] [--max-retries K] | \
     merge SHARD.json... [-o OUT] [--verify-against REF] | \
     worker --bin BIN (internal)"
        .to_string()
}

/// A parsed command line: the subcommand's `known` flags as `--key
/// value` pairs or switches (`-o` is `--out`), plus positional arguments
/// when `positional`. Anything else is a usage error, so a misspelt or
/// retired flag fails instead of being ignored.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

const SWITCHES: [&str; 1] = ["--no-promote"];

/// `run`'s flags; `resume` takes those from `--max-retries` on (the
/// rest are pinned in the plan).
const RUN_FLAGS: [&str; 11] = [
    "--bin",
    "--shards",
    "--stall-timeout",
    "--backoff-ms",
    "--max-retries",
    "--run",
    "--run-dir",
    "--worker-program",
    "--verify-against",
    "--no-promote",
    "--inject-crash",
];

impl Flags {
    fn parse(args: &[String], known: &[&str], positional: bool) -> Result<Self, String> {
        let mut flags = Self { pairs: Vec::new(), positional: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = if arg == "-o" { "--out" } else { arg.as_str() };
            if !known.contains(&flag) {
                if positional && !flag.starts_with('-') {
                    flags.positional.push(arg.clone());
                    continue;
                }
                return Err(format!("unexpected argument `{arg}` — {}", usage()));
            }
            let value = if SWITCHES.contains(&flag) {
                None
            } else {
                Some(it.next().ok_or_else(|| format!("{flag} needs a value"))?.clone())
            };
            flags.pairs.push((flag.to_string(), value));
        }
        Ok(flags)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| f == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`")))
            .transpose()
    }
}

/// The run directory: explicit `--run-dir`, else
/// `results/orchestrate/<--run | bin>`.
fn run_dir_of(flags: &Flags, bin_for_default: Option<&str>) -> Result<PathBuf, String> {
    if let Some(dir) = flags.get("--run-dir") {
        return Ok(PathBuf::from(dir));
    }
    let name = flags
        .get("--run")
        .map(str::to_string)
        .or_else(|| bin_for_default.map(str::to_string))
        .ok_or("need --run NAME or --run-dir PATH")?;
    Ok(ekya_bench::results_dir().join("orchestrate").join(name))
}

/// The shard-worker launcher: `--worker-program` substitutes any
/// executable speaking the worker protocol (argv `worker --bin BIN`,
/// knobs via `EKYA_*` env) — the hook multi-machine fan-out rides (see
/// `examples/ssh_worker.sh`); the default is this very binary re-invoked
/// in `worker` mode. The program is pinned into the plan, so `resume`
/// respawns through the same program a run was launched with.
fn spawner_for(plan: &Plan, run_dir: &Path) -> Result<Spawner, String> {
    match &plan.worker_program {
        Some(program) => Ok(Spawner::new(PathBuf::from(program), run_dir)),
        None => Spawner::current_exe(run_dir),
    }
}

/// Resolves a `--worker-program` value for pinning into the plan:
/// path-like values are canonicalized — the pinned value must keep
/// resolving when `resume` later runs from a different working
/// directory — and a nonexistent path fails here, at launch, instead of
/// burning every shard's retries. Bare names (no separator) are kept
/// verbatim for PATH lookup.
fn resolve_worker_program(program: &str) -> Result<String, String> {
    if !program.contains(std::path::MAIN_SEPARATOR) {
        return Ok(program.to_string());
    }
    std::fs::canonicalize(program)
        .map(|p| p.display().to_string())
        .map_err(|e| format!("--worker-program {program}: {e}"))
}

fn supervise_opts(flags: &Flags, resume: bool) -> Result<SuperviseOpts, String> {
    let inject_crash = match flags.get("--inject-crash") {
        None => None,
        Some(v) => {
            let parts: Vec<&str> = v.split(':').collect();
            let parsed = match parts.as_slice() {
                [i, k] => i.parse::<usize>().ok().zip(k.parse::<usize>().ok()),
                _ => None,
            };
            Some(parsed.ok_or_else(|| format!("--inject-crash: expected I:K, got `{v}`"))?)
        }
    };
    Ok(SuperviseOpts {
        resume,
        inject_crash,
        verify_against: flags.get("--verify-against").map(PathBuf::from),
        promote: !flags.has("--no-promote"),
        ..SuperviseOpts::default()
    })
}

/// `path (fingerprint F), verified ≡ REF, promoted to P` for a merge.
fn describe(merged: &MergedInfo) -> String {
    let verified = merged.verified_against.as_deref().map(|r| format!(", verified ≡ {r}"));
    let promoted = merged.promoted_to.as_deref().map(|p| format!(", promoted to {p}"));
    format!(
        "{} (fingerprint {}){}{}",
        merged.path,
        merged.fingerprint,
        verified.unwrap_or_default(),
        promoted.unwrap_or_default()
    )
}

fn finish(status: Status) -> ExitCode {
    match status.state {
        RunState::Complete => {
            let merged = status.merged.expect("complete run has a merge");
            println!(
                "ekya_grid: COMPLETE — {} cells across {} shards → {}",
                status.total_cells,
                status.shards.len(),
                describe(&merged)
            );
            ExitCode::SUCCESS
        }
        state => {
            eprintln!(
                "ekya_grid: run ended {state:?} — {} of {} cells done; see status.json \
                 and the shard logs in the run directory",
                status.cells_done, status.total_cells
            );
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &RUN_FLAGS, false)?;
    let bin = flags.get("--bin").ok_or("run: --bin is required")?.to_string();
    let shards: usize = flags.parsed("--shards")?.unwrap_or(2);
    let run_dir = run_dir_of(&flags, Some(&bin))?;
    if Plan::path(&run_dir).exists() {
        return Err(format!(
            "{} already holds a plan — `ekya_grid resume --run-dir {}` to continue it, \
             or pick a fresh --run/--run-dir",
            run_dir.display(),
            run_dir.display()
        ));
    }

    let mut plan = Plan::new(
        &bin,
        shards,
        Knobs::from_env(),
        flags.parsed("--max-retries")?.unwrap_or(2),
        flags.parsed("--stall-timeout")?.unwrap_or(600),
        flags.parsed("--backoff-ms")?.unwrap_or(500),
    )?;
    plan.worker_program = flags.get("--worker-program").map(resolve_worker_program).transpose()?;
    plan.save(&run_dir)?;
    println!(
        "ekya_grid: planned {} — {} cells across {} shards, {} worker(s) each → {}",
        plan.bin,
        plan.total_cells,
        plan.shards.len(),
        plan.knobs.workers,
        run_dir.display()
    );

    let spawner = spawner_for(&plan, &run_dir)?;
    let status = supervise(&plan, &run_dir, &spawner, &supervise_opts(&flags, false)?)?;
    Ok(finish(status))
}

fn cmd_resume(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &RUN_FLAGS[4..], false)?;
    let run_dir = run_dir_of(&flags, None)?;
    let mut plan = Plan::load(&run_dir)?;
    if let Some(max_retries) = flags.parsed("--max-retries")? {
        plan.max_retries = max_retries;
    }
    // The pinned worker program carries over from the launch by default
    // (an ssh-fanned run must not silently respawn local workers); an
    // explicit --worker-program on resume overrides it.
    if let Some(program) = flags.get("--worker-program") {
        plan.worker_program = Some(resolve_worker_program(program)?);
    }
    println!(
        "ekya_grid: resuming {} — {} cells across {} shards ({})",
        plan.bin,
        plan.total_cells,
        plan.shards.len(),
        run_dir.display()
    );
    let spawner = spawner_for(&plan, &run_dir)?;
    let status = supervise(&plan, &run_dir, &spawner, &supervise_opts(&flags, true)?)?;
    Ok(finish(status))
}

fn cmd_merge(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--out", "--verify-against"], true)?;
    if flags.positional.is_empty() {
        return Err(format!("merge: no shard reports given — {}", usage()));
    }
    let shards: Vec<PathBuf> = flags.positional.iter().map(PathBuf::from).collect();
    let out = flags.get("--out").map(Path::new);
    match merge_run(&shards, out, flags.get("--verify-against").map(Path::new)) {
        Ok(merged) => {
            println!("ekya_grid: merged {} shard reports → {}", shards.len(), describe(&merged));
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("ekya_grid: merge FAILED — {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_status(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--run", "--run-dir"], false)?;
    let run_dir = run_dir_of(&flags, None)?;
    let status = read_status(&run_dir)?;
    let rate = if status.cells_per_sec > 0.0 {
        format!(" · {:.2} cells/s", status.cells_per_sec)
    } else {
        String::new()
    };
    println!(
        "{} [{:?}] — {}/{} cells{rate}{}",
        status.bin,
        status.state,
        status.cells_done,
        status.total_cells,
        status.eta_secs.map(|eta| format!(" · ETA {eta:.0}s")).unwrap_or_default(),
    );
    for s in &status.shards {
        let failures = if s.failures.is_empty() {
            String::new()
        } else {
            format!(
                " · {} failure(s), last: {}",
                s.failures.len(),
                s.failures.last().map(|f| f.reason.as_str()).unwrap_or("-")
            )
        };
        println!(
            "  shard {:>7} [{:?}] attempt {} — {}/{} cells{}{failures}",
            s.shard,
            s.state,
            s.attempt,
            s.cells_done,
            s.end - s.start,
            s.pid.map(|p| format!(" · pid {p}")).unwrap_or_default(),
        );
    }
    if let Some(m) = &status.merged {
        println!("  merged: {} (fingerprint {})", m.path, m.fingerprint);
    }
    if !status.events.is_empty() {
        // The tail of the lifecycle log — enough to see the latest
        // spawn/retry/merge transitions without opening status.json.
        println!("  recent events:");
        for e in status.events.iter().rev().take(5).rev() {
            let who = if e.shard.is_empty() {
                "run".to_string()
            } else {
                format!("shard {} attempt {}", e.shard, e.attempt)
            };
            let detail =
                if e.detail.is_empty() { String::new() } else { format!(" — {}", e.detail) };
            println!("    {who}: {}{detail}", e.event);
        }
    }
    // Exit code mirrors run health so scripts can poll `status`.
    Ok(match status.state {
        RunState::Failed => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    })
}

/// Internal worker mode: run one shard of a bin in-process, entirely
/// driven by the env the supervisor set (`EKYA_SHARD`, `EKYA_RESUME`,
/// `EKYA_RESULTS_DIR`, …). Kept as a subcommand of this same binary so
/// the supervisor has no build-time dependency on the bin binaries and
/// tests can spawn it via `CARGO_BIN_EXE_ekya_grid`.
fn cmd_worker(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--bin"], false)?;
    let bin = flags.get("--bin").ok_or("worker: --bin is required")?;
    ekya_bench::run_bin(bin, &Knobs::from_env())?;
    Ok(ExitCode::SUCCESS)
}
