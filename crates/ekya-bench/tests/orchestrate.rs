//! Integration tests for the supervised launcher's failure paths:
//!
//! 1. a shard killed mid-grid (crash injection) is retried with resume
//!    and the run converges to a merged report **byte-identical** to an
//!    unsharded single-process run;
//! 2. a stalled shard (no checkpoint progress within the timeout) is
//!    killed and retried, and bounded attempts eventually exclude it;
//! 3. a shard that keeps exiting nonzero exhausts its retries, leaves
//!    `excluded`-style failure records in `status.json`, and the run
//!    ends Failed without merging.
//!
//! The real-worker test spawns the actual `ekya_grid` binary
//! (`CARGO_BIN_EXE_ekya_grid`) in worker mode; the fault-simulation
//! tests substitute tiny shell scripts as the worker program, which is
//! exactly what the `Spawner.program` indirection exists for.

use ekya_bench::orchestrate::{
    read_status, supervise, Plan, RunState, ShardState, Spawner, SuperviseOpts,
};
use ekya_bench::Knobs;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn ekya_grid_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_ekya_grid"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ekya_orch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The quick fig08 workload: one trace recording plus 8 cheap replay
/// cells — the lightest real grid, and it exercises the fig08 port onto
/// the shard/resume machinery at the same time.
fn quick_env() -> Knobs {
    Knobs {
        seed: 42,
        windows: Some(1),
        streams: Some(2),
        quick: true,
        workers: 1,
        ..Knobs::default()
    }
}

#[cfg(unix)]
fn fake_worker(dir: &Path, name: &str, body: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let path = dir.join(name);
    std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

#[test]
fn crashed_shard_resumes_and_merge_is_byte_identical_to_unsharded() {
    let run_dir = temp_dir("crash");

    // Reference: a plain unsharded single-process worker run — no
    // supervisor, no shards, no retries.
    let ref_dir = temp_dir("crash_ref");
    let status = std::process::Command::new(ekya_grid_bin())
        .args(["worker", "--bin", "fig08_factors"])
        .env_remove("EKYA_SHARD")
        .env_remove("EKYA_RESUME")
        .env("EKYA_QUICK", "1")
        .env("EKYA_WINDOWS", "1")
        .env("EKYA_STREAMS", "2")
        .env("EKYA_SEED", "42")
        .env("EKYA_WORKERS", "1")
        .env("EKYA_RESULTS_DIR", &ref_dir)
        .status()
        .expect("reference worker spawns");
    assert!(status.success(), "reference worker failed");
    let reference = ref_dir.join("fig08_factors.json");
    assert!(reference.is_file(), "reference report missing");

    // Supervised run: 2 shards, shard 0's first attempt is killed after
    // 1 completed cell. Verification against the reference runs inside
    // the merge driver — a mismatch would fail the supervise call.
    let plan = Plan::new("fig08_factors", 2, quick_env(), 2, 600, 10).unwrap();
    plan.save(&run_dir).unwrap();
    let spawner = Spawner::new(ekya_grid_bin(), &run_dir);
    let opts = SuperviseOpts {
        poll_interval: Duration::from_millis(25),
        inject_crash: Some((0, 1)),
        verify_against: Some(reference.clone()),
        promote: false,
        ..SuperviseOpts::default()
    };
    let status = supervise(&plan, &run_dir, &spawner, &opts).expect("supervised run succeeds");

    assert_eq!(status.state, RunState::Complete);
    assert_eq!(status.cells_done, status.total_cells);
    let shard0 = &status.shards[0];
    assert!(shard0.attempt >= 2, "the crashed shard must have been retried");
    assert!(
        shard0.failures.iter().any(|f| f.reason.contains("exit code 17")),
        "injected crash must be recorded: {:?}",
        shard0.failures
    );
    assert!(status.shards.iter().all(|s| s.state == ShardState::Done));

    // Byte-identity, asserted directly on top of the in-merge verify.
    let merged = std::fs::read(plan.merged_path(&run_dir)).unwrap();
    let expect = std::fs::read(&reference).unwrap();
    assert_eq!(merged, expect, "merged report must be byte-identical to the unsharded run");
    let info = status.merged.as_ref().expect("merge info recorded");
    assert_eq!(info.verified_against.as_deref(), Some(reference.to_str().unwrap()));

    // status.json on disk matches what supervise returned, and the logs
    // tell the retry story.
    assert_eq!(read_status(&run_dir).unwrap(), status);
    let log = std::fs::read_to_string(plan.shard_log_path(&run_dir, 0)).unwrap();
    assert!(log.contains("attempt 1"), "log records the first attempt");
    assert!(log.contains("attempt 2 (resume)"), "log records the resumed retry");

    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn fig07_crashed_shard_resumes_and_merge_is_byte_identical_to_unsharded() {
    // The per-dataset trace-replay port (fig07) under the full failure
    // path: 4 shards (slices spanning both quick datasets), shard 0
    // killed after its first cell, retried with resume — the merged
    // report must equal an unsharded single-process run byte for byte.
    let run_dir = temp_dir("fig07");
    let ref_dir = temp_dir("fig07_ref");

    let status = std::process::Command::new(ekya_grid_bin())
        .args(["worker", "--bin", "fig07_provisioning"])
        .env_remove("EKYA_SHARD")
        .env_remove("EKYA_RESUME")
        .env("EKYA_QUICK", "1")
        .env("EKYA_WINDOWS", "1")
        .env("EKYA_STREAMS", "2")
        .env("EKYA_SEED", "42")
        .env("EKYA_WORKERS", "1")
        .env("EKYA_RESULTS_DIR", &ref_dir)
        .status()
        .expect("reference worker spawns");
    assert!(status.success(), "reference fig07 worker failed");
    let reference = ref_dir.join("fig07_provisioning.json");
    assert!(reference.is_file(), "reference report missing");

    let plan = Plan::new("fig07_provisioning", 4, quick_env(), 2, 600, 10).unwrap();
    plan.save(&run_dir).unwrap();
    let spawner = Spawner::new(ekya_grid_bin(), &run_dir);
    let opts = SuperviseOpts {
        poll_interval: Duration::from_millis(25),
        inject_crash: Some((0, 1)),
        verify_against: Some(reference.clone()),
        promote: false,
        ..SuperviseOpts::default()
    };
    let status = supervise(&plan, &run_dir, &spawner, &opts).expect("fig07 supervised run");

    assert_eq!(status.state, RunState::Complete);
    assert!(status.shards[0].attempt >= 2, "the crashed shard must have been retried");
    assert!(
        status.shards[0].failures.iter().any(|f| f.reason.contains("exit code 17")),
        "injected crash must be recorded: {:?}",
        status.shards[0].failures
    );
    // Byte-identity, asserted directly on top of the in-merge verify.
    assert_eq!(
        std::fs::read(plan.merged_path(&run_dir)).unwrap(),
        std::fs::read(&reference).unwrap(),
        "merged fig07 report must be byte-identical to the unsharded run"
    );
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn table4_shard_union_is_byte_identical_to_unsharded() {
    // The cloud-delay port (table4): (network × bandwidth-scale) cells
    // plus the Ekya reference cell, supervised across 4 shards and
    // merged — byte-identical to an unsharded single-process run.
    let run_dir = temp_dir("table4");
    let ref_dir = temp_dir("table4_ref");

    let status = std::process::Command::new(ekya_grid_bin())
        .args(["worker", "--bin", "table4_cloud"])
        .env_remove("EKYA_SHARD")
        .env_remove("EKYA_RESUME")
        .env("EKYA_QUICK", "1")
        .env("EKYA_WINDOWS", "1")
        .env("EKYA_STREAMS", "2")
        .env("EKYA_SEED", "42")
        .env("EKYA_WORKERS", "1")
        .env("EKYA_RESULTS_DIR", &ref_dir)
        .status()
        .expect("reference worker spawns");
    assert!(status.success(), "reference table4 worker failed");
    let reference = ref_dir.join("table4_cloud.json");

    let plan = Plan::new("table4_cloud", 4, quick_env(), 1, 600, 10).unwrap();
    plan.save(&run_dir).unwrap();
    let spawner = Spawner::new(ekya_grid_bin(), &run_dir);
    let opts = SuperviseOpts {
        poll_interval: Duration::from_millis(25),
        verify_against: Some(reference.clone()),
        promote: false,
        ..SuperviseOpts::default()
    };
    let status = supervise(&plan, &run_dir, &spawner, &opts).expect("table4 supervised run");
    assert_eq!(status.state, RunState::Complete);
    assert_eq!(
        std::fs::read(plan.merged_path(&run_dir)).unwrap(),
        std::fs::read(&reference).unwrap(),
        "merged table4 report must be byte-identical to the unsharded run"
    );
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn every_newly_ported_small_bin_merges_byte_identical_across_4_shards() {
    // The remaining ports — table5 (2 cells), fig09 (1 cell: surplus
    // shards own empty slices), fig11 (4 quick cells), and the design
    // ablations (6 cells) — each supervised across 4 shards and merged
    // byte-identical to an unsharded single-process run.
    for bin in ["table5_cache", "fig09_allocation", "fig11_profiler", "ablation_design"] {
        let run_dir = temp_dir(&format!("small_{bin}"));
        let ref_dir = temp_dir(&format!("small_{bin}_ref"));

        let status = std::process::Command::new(ekya_grid_bin())
            .args(["worker", "--bin", bin])
            .env_remove("EKYA_SHARD")
            .env_remove("EKYA_RESUME")
            .env("EKYA_QUICK", "1")
            .env("EKYA_WINDOWS", "2")
            .env("EKYA_STREAMS", "2")
            .env("EKYA_SEED", "42")
            .env("EKYA_WORKERS", "1")
            .env("EKYA_RESULTS_DIR", &ref_dir)
            .status()
            .expect("reference worker spawns");
        assert!(status.success(), "reference {bin} worker failed");
        let reference = ref_dir.join(format!("{bin}.json"));
        assert!(reference.is_file(), "reference {bin} report missing");

        let knobs = Knobs { windows: Some(2), ..quick_env() };
        let plan = Plan::new(bin, 4, knobs, 1, 600, 10).unwrap();
        plan.save(&run_dir).unwrap();
        let spawner = Spawner::new(ekya_grid_bin(), &run_dir);
        let opts = SuperviseOpts {
            poll_interval: Duration::from_millis(25),
            verify_against: Some(reference.clone()),
            promote: false,
            ..SuperviseOpts::default()
        };
        let status = supervise(&plan, &run_dir, &spawner, &opts)
            .unwrap_or_else(|e| panic!("{bin} supervised run failed: {e}"));
        assert_eq!(status.state, RunState::Complete, "{bin} did not complete");
        assert_eq!(
            std::fs::read(plan.merged_path(&run_dir)).unwrap(),
            std::fs::read(&reference).unwrap(),
            "merged {bin} report must be byte-identical to the unsharded run"
        );
        let _ = std::fs::remove_dir_all(&run_dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }
}

#[cfg(unix)]
#[test]
fn stalled_shard_is_killed_retried_and_eventually_excluded() {
    let run_dir = temp_dir("stall");
    // A worker that never writes a checkpoint: heartbeat silence.
    let script = fake_worker(&run_dir, "hang.sh", "sleep 60");

    let mut plan = Plan::new("fig08_factors", 1, quick_env(), 1, 600, 10).unwrap();
    plan.stall_timeout_secs = 1;
    plan.save(&run_dir).unwrap();
    let spawner = Spawner::new(script, &run_dir);
    let opts = SuperviseOpts {
        poll_interval: Duration::from_millis(25),
        promote: false,
        ..SuperviseOpts::default()
    };
    let status = supervise(&plan, &run_dir, &spawner, &opts).unwrap();

    assert_eq!(status.state, RunState::Failed);
    let shard = &status.shards[0];
    assert_eq!(shard.state, ShardState::Failed);
    assert_eq!(shard.attempt, 2, "one retry beyond the first attempt");
    assert_eq!(shard.failures.len(), 2);
    assert!(
        shard.failures.iter().all(|f| f.reason.contains("stalled")),
        "both failures must be stalls: {:?}",
        shard.failures
    );
    assert!(status.merged.is_none());
    let _ = std::fs::remove_dir_all(&run_dir);
}

#[cfg(unix)]
#[test]
fn exit_code_failures_exhaust_retries_without_merging() {
    let run_dir = temp_dir("exitcode");
    let script = fake_worker(&run_dir, "die.sh", "exit 3");

    let plan = Plan::new("fig08_factors", 2, quick_env(), 2, 600, 10).unwrap();
    plan.save(&run_dir).unwrap();
    let spawner = Spawner::new(script, &run_dir);
    let opts = SuperviseOpts {
        poll_interval: Duration::from_millis(25),
        promote: false,
        ..SuperviseOpts::default()
    };
    let status = supervise(&plan, &run_dir, &spawner, &opts).unwrap();

    assert_eq!(status.state, RunState::Failed);
    for shard in &status.shards {
        assert_eq!(shard.state, ShardState::Failed);
        assert_eq!(shard.attempt, 3, "max_retries=2 → 3 attempts");
        assert_eq!(shard.failures.len(), 3);
        assert!(shard.failures.iter().all(|f| f.reason == "exit code 3"), "{:?}", shard.failures);
    }
    assert!(status.merged.is_none());
    assert!(!plan.merged_path(&run_dir).exists(), "a failed run must not merge");
    // The on-disk status carries the full failure records for post-mortem.
    assert_eq!(read_status(&run_dir).unwrap(), status);
    let _ = std::fs::remove_dir_all(&run_dir);
}

#[cfg(unix)]
#[test]
fn clean_exit_without_a_report_counts_as_a_failure() {
    let run_dir = temp_dir("noreport");
    let script = fake_worker(&run_dir, "noop.sh", "true");

    let plan = Plan::new("fig08_factors", 1, quick_env(), 0, 600, 10).unwrap();
    plan.save(&run_dir).unwrap();
    let spawner = Spawner::new(script, &run_dir);
    let opts = SuperviseOpts {
        poll_interval: Duration::from_millis(25),
        promote: false,
        ..SuperviseOpts::default()
    };
    let status = supervise(&plan, &run_dir, &spawner, &opts).unwrap();

    assert_eq!(status.state, RunState::Failed);
    assert_eq!(status.shards[0].attempt, 1, "max_retries=0 → a single attempt");
    assert!(
        status.shards[0]
            .failures
            .iter()
            .all(|f| f.reason.contains("exited 0 without a complete shard report")),
        "{:?}",
        status.shards[0].failures
    );
    let _ = std::fs::remove_dir_all(&run_dir);
}

/// `ekya_grid <args>` with none of this process's `EKYA_*` env, under
/// the quick fig-bin knobs plus `env`, writing into `dir`.
fn ekya_grid(args: &[&str], dir: &Path, env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = std::process::Command::new(ekya_grid_bin());
    for (key, _) in std::env::vars().filter(|(k, _)| k.starts_with("EKYA_")) {
        cmd.env_remove(key);
    }
    cmd.args(args)
        .env("EKYA_QUICK", "1")
        .env("EKYA_WINDOWS", "1")
        .env("EKYA_SEED", "42")
        .env("EKYA_WORKERS", "1")
        .env("EKYA_RESULTS_DIR", dir)
        .envs(env.iter().copied())
        .output()
        .expect("ekya_grid spawns")
}

#[test]
fn merge_subcommand_is_byte_identical_and_refuses_overlap_and_divergence() {
    let dir = temp_dir("merge_cli");
    let fig06 = ["worker", "--bin", "fig06_streams"];
    for env in [&[][..], &[("EKYA_SHARD", "0/2")], &[("EKYA_SHARD", "1/2")]] {
        let out = ekya_grid(&fig06, &dir, env);
        assert!(out.status.success(), "fig06 worker {env:?} failed");
    }
    let shard = |i: usize| dir.join(format!("fig06_streams_shard{i}of2.json"));
    let unsharded = dir.join("fig06_streams.json");
    let (s0, s1) = (shard(0), shard(1));
    let (s0, s1) = (s0.to_str().unwrap(), s1.to_str().unwrap());

    // Two shard reports merge to the unsharded run's bytes.
    let merged = dir.join("merged.json");
    let out = ekya_grid(&["merge", s0, s1, "-o", merged.to_str().unwrap()], &dir, &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::read(&merged).unwrap(), std::fs::read(&unsharded).unwrap());

    // The same shard twice is an overlap, named by its cell range.
    let out = ekya_grid(&["merge", s0, s0, "-o", merged.to_str().unwrap()], &dir, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("overlapping shards: shard 0/2 (cells 0.."), "{stderr}");

    // A reference that differs in one cell fails verification, naming it.
    let mut reference = ekya_bench::load_report(&unsharded).unwrap();
    reference.cells[3].mean_accuracy += 0.125;
    let reference_path = dir.join("reference.json");
    ekya_bench::write_json(&reference_path, &reference).unwrap();
    let verify = ["merge", s0, s1, "-o", merged.to_str().unwrap(), "--verify-against"];
    let out = ekya_grid(&[&verify[..], &[reference_path.to_str().unwrap()]].concat(), &dir, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    let label = reference.cells[3].scenario.label();
    assert!(stderr.contains(&format!("reports diverge at cell 3 ({label})")), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_shards_each_write_their_own_trace() {
    // A literal EKYA_TRACE path in the supervisor's env must not reach
    // the workers, or every shard rewrites the same file.
    let dir = temp_dir("trace");
    let run_dir = dir.join("run");
    let literal = dir.join("one.jsonl");
    let args = ["run", "--bin", "fig08_factors", "--shards", "2", "--backoff-ms", "10"];
    let run = [&args[..], &["--no-promote", "--run-dir", run_dir.to_str().unwrap()]].concat();
    let env = [("EKYA_STREAMS", "2"), ("EKYA_TRACE", literal.to_str().unwrap())];
    let out = ekya_grid(&run, &dir, &env);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for i in 0..2 {
        let trace = run_dir.join(format!("TRACE_fig08_factors_shard{i}of2.jsonl"));
        assert!(trace.is_file(), "shard {i} wrote no trace of its own at {}", trace.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_knobs_fail_fast_naming_the_variable() {
    let dir = temp_dir("bad_knob");
    let out = ekya_grid(&["worker", "--bin", "fig09_allocation"], &dir, &[("EKYA_SEED", "0x2a")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "EKYA_SEED=0x2a must not run under the default seed");
    assert!(stderr.contains("EKYA_SEED"), "{stderr}");
    // A fault-injection knob too: a crash count that does not parse must
    // not run the grid crash-free and let a fault test pass vacuously.
    let env = [("EKYA_ORCH_CRASH_AFTER", "two")];
    let out = ekya_grid(&["worker", "--bin", "fig09_allocation"], &dir, &env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "EKYA_ORCH_CRASH_AFTER=two must not run crash-free");
    assert!(stderr.contains("EKYA_ORCH_CRASH_AFTER") && stderr.contains("two"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
