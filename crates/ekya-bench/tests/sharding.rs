//! Integration tests for sharded + resumable grid execution — the three
//! operator guarantees the harness documents:
//!
//! 1. the union of shard reports is **byte-identical** to an unsharded
//!    single-process run;
//! 2. resuming over a truncated report executes only the missing cells
//!    and still writes the identical report (resume-after-kill, also
//!    through a really killed `fig06_streams` process);
//! 3. merging rejects overlapping and missing shard ranges.

use ekya_baselines::PolicySpec;
use ekya_bench::{merge_reports, Grid, GridExec, GridRun, HarnessReport, ShardSpec};
use ekya_video::DatasetKind;

/// A small but real grid: every cell runs actual retraining windows.
fn tiny_grid() -> Grid {
    Grid::new(2, 42)
        .datasets(&[DatasetKind::Waymo])
        .stream_counts(&[1, 2])
        .gpu_counts(&[1.0])
        .policies(vec![PolicySpec::Ekya, PolicySpec::FixedRes { inference_share: 0.5 }])
}

fn run_shard(grid: &Grid, shard: Option<ShardSpec>) -> GridRun {
    GridExec::new("tiny", 2).shard(shard).run(grid)
}

fn bytes(report: &HarnessReport) -> String {
    serde_json::to_string_pretty(report).expect("serialise report")
}

#[test]
fn shard_union_is_byte_identical_to_unsharded() {
    let grid = tiny_grid();
    let full = run_shard(&grid, None);
    assert!(full.report.is_complete());
    assert_eq!(full.report.failed, 0);

    let shard0 = run_shard(&grid, Some(ShardSpec { index: 0, count: 2 }));
    let shard1 = run_shard(&grid, Some(ShardSpec { index: 1, count: 2 }));

    // Shard outputs are disjoint slices of the full enumeration.
    assert_eq!(shard0.report.cells.len(), 2);
    assert_eq!(shard1.report.cells.len(), 2);
    assert!(!shard0.report.is_complete());
    let prints0: std::collections::HashSet<u64> =
        shard0.report.cells.iter().map(|c| c.scenario.fingerprint()).collect();
    assert!(shard1.report.cells.iter().all(|c| !prints0.contains(&c.scenario.fingerprint())));

    // Merge order must not matter; the result equals the unsharded run
    // byte for byte.
    let merged = merge_reports(&[shard1.report.clone(), shard0.report.clone()]).unwrap();
    assert_eq!(merged, full.report);
    assert_eq!(bytes(&merged), bytes(&full.report), "merged union must be byte-identical");
}

#[test]
fn resume_executes_only_the_missing_cells() {
    let grid = tiny_grid();
    let full = run_shard(&grid, None);

    // Simulate a killed run whose checkpoint holds only half the cells
    // (drop every other one, as the ISSUE's kill scenario prescribes).
    let truncated = HarnessReport {
        cells: full
            .report
            .cells
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, c)| c.clone())
            .collect(),
        ..full.report.clone()
    };
    let prior = truncated.prior_cells();
    assert_eq!(prior.len(), 2);

    let resumed = GridExec::new("tiny", 2).prior(prior).run(&grid);
    assert_eq!(resumed.stats.resumed, 2, "half the cells come from the prior report");
    assert_eq!(resumed.stats.executed, 2, "only the missing half is executed");
    assert_eq!(resumed.report, full.report);
    assert_eq!(bytes(&resumed.report), bytes(&full.report), "resume must not change a byte");
}

#[test]
fn resume_composes_with_sharding() {
    let grid = tiny_grid();
    let shard = Some(ShardSpec { index: 0, count: 2 });
    let reference = run_shard(&grid, shard);

    // A prior covering the *whole* grid still only fills this shard's
    // slice — and makes the shard run free of execution.
    let full_prior = run_shard(&grid, None).report.prior_cells();
    let resumed = GridExec::new("tiny", 2).shard(shard).prior(full_prior).run(&grid);
    assert_eq!(resumed.stats.executed, 0);
    assert_eq!(resumed.stats.resumed, 2);
    assert_eq!(bytes(&resumed.report), bytes(&reference.report));
}

#[test]
fn merge_rejects_overlapping_and_missing_shards() {
    let grid = tiny_grid();
    let shard0 = run_shard(&grid, Some(ShardSpec { index: 0, count: 2 })).report;
    let shard1 = run_shard(&grid, Some(ShardSpec { index: 1, count: 2 })).report;

    // The same shard twice → overlap.
    let err = merge_reports(&[shard0.clone(), shard0.clone()]).unwrap_err();
    assert!(err.contains("overlap"), "unexpected message: {err}");

    // A lone shard → missing cells, naming the uncovered range.
    let err = merge_reports(std::slice::from_ref(&shard1)).unwrap_err();
    assert!(err.contains("missing cells 0..2"), "unexpected message: {err}");

    // A truncated shard report (e.g. a live checkpoint) → rejected.
    let mut partial = shard0.clone();
    partial.cells.pop();
    let err = merge_reports(&[partial, shard1]).unwrap_err();
    assert!(err.contains("partial or truncated"), "unexpected message: {err}");
}

#[test]
fn checkpoint_file_tracks_completed_cells() {
    let grid = tiny_grid();
    let path = std::env::temp_dir()
        .join(format!("ekya_sharding_ckpt_{}.partial.json", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let run = GridExec::new("tiny", 2).checkpoint(Some(path.clone())).run(&grid);
    // After the run the checkpoint holds every completed cell, parses as
    // a report, and its prior map resumes the whole grid for free.
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let ckpt: HarnessReport = serde_json::from_str(&text).expect("checkpoint parses");
    assert_eq!(ckpt.cells, run.report.cells);
    let resumed = GridExec::new("tiny", 2).prior(ckpt.prior_cells()).run(&grid);
    assert_eq!(resumed.stats.executed, 0);
    assert_eq!(resumed.report, run.report);
    let _ = std::fs::remove_file(&path);
}

/// The real kill: run the fig06 bin as a subprocess with crash injection
/// two cells in, then resume it. The checkpoint flushed before the
/// injected exit must hold exactly the two completed cells, and the
/// resumed run's report must be byte-identical to an undisturbed run's.
#[test]
fn killed_run_resumes_to_byte_identical_report() {
    let bin = env!("CARGO_BIN_EXE_fig06_streams");
    let base: &[(&str, &str)] =
        &[("EKYA_QUICK", "1"), ("EKYA_WINDOWS", "1"), ("EKYA_SEED", "42"), ("EKYA_WORKERS", "2")];
    let run = |dir: &std::path::Path, extra: &[(&str, &str)]| {
        let mut cmd = std::process::Command::new(bin);
        for var in ["EKYA_SHARD", "EKYA_RESUME", "EKYA_ORCH_CRASH_AFTER"] {
            cmd.env_remove(var);
        }
        cmd.envs(base.iter().copied())
            .env("EKYA_RESULTS_DIR", dir)
            .envs(extra.iter().copied())
            .status()
            .expect("fig06_streams spawns")
    };
    let temp = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("ekya_kill_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    };

    let ref_dir = temp("ref");
    assert!(run(&ref_dir, &[]).success(), "reference run failed");
    let reference = std::fs::read(ref_dir.join("fig06_streams.json")).expect("reference report");

    let run_dir = temp("kill");
    let status = run(&run_dir, &[("EKYA_ORCH_CRASH_AFTER", "2")]);
    assert_eq!(status.code(), Some(17), "crash injection must exit 17");
    let partial: HarnessReport = serde_json::from_str(
        &std::fs::read_to_string(run_dir.join("fig06_streams.partial.json"))
            .expect("a killed run must leave a checkpoint"),
    )
    .expect("checkpoint parses");
    assert_eq!(partial.cells.len(), 2, "checkpoint must hold exactly the completed cells");

    assert!(run(&run_dir, &[("EKYA_RESUME", "1")]).success(), "resumed run failed");
    let resumed = std::fs::read(run_dir.join("fig06_streams.json")).expect("resumed report");
    assert_eq!(resumed, reference, "killed+resumed report must be byte-identical");
    assert!(
        !run_dir.join("fig06_streams.partial.json").exists(),
        "checkpoint must be removed once the final report lands"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
}
