//! Integration tests for the parallel experiment harness: determinism
//! (serial ≡ 4 workers, byte for byte — for scenario grids, the fig03
//! config sweep, and trace-replay grids), panic isolation at grid level,
//! and knob parsing.

use ekya_baselines::PolicySpec;
use ekya_bench::{
    config_grid, fig07_grid, run_grid, ConfigSweep, Grid, GridExec, Knobs, ReplayTraces,
};
use ekya_video::DatasetKind;

/// A small but real grid: every cell runs actual retraining windows.
fn tiny_grid() -> Grid {
    Grid::new(2, 42)
        .datasets(&[DatasetKind::Waymo])
        .stream_counts(&[1, 2])
        .gpu_counts(&[1.0])
        .policies(vec![PolicySpec::Ekya, PolicySpec::FixedRes { inference_share: 0.5 }])
}

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let grid = tiny_grid();
    let serial = run_grid(&grid, 1);
    let parallel = run_grid(&grid, 4);

    assert_eq!(serial.report.failed, 0);
    assert_eq!(parallel.report.failed, 0);
    assert_eq!(serial.report.cells.len(), 4);
    assert!(serial.report.is_complete());
    // Structural equality first (better failure message granularity)...
    assert_eq!(serial.report.cells, parallel.report.cells);
    // ...then the byte-identical guarantee the harness documents — over
    // the whole report, which is deterministic by construction (timing
    // lives in the unserialized RunStats).
    let s = serde_json::to_string_pretty(&serial.report).unwrap();
    let p = serde_json::to_string_pretty(&parallel.report).unwrap();
    assert_eq!(s, p, "serialized reports must match byte for byte");
    assert_eq!(serial.stats.executed, 4);
    assert_eq!(serial.stats.resumed, 0);
    // The cells did real work.
    for cell in &serial.report.cells {
        assert!(cell.mean_accuracy > 0.0, "cell {} produced no accuracy", cell.scenario.label());
        assert!(cell.report.is_some());
    }
}

/// The other fan-out path: the fig03 configuration sweep seeds every
/// configuration from its own label, so which worker a config lands on
/// cannot change its point.
#[test]
fn config_sweep_is_identical_across_worker_counts() {
    let configs = config_grid(true);
    let sweep = ConfigSweep::prepare(42);
    let serial = sweep.measure(&configs, 1);
    let parallel = sweep.measure(&configs, 4);
    assert_eq!(serial, parallel, "parallel config sweep diverged from serial sweep");
    assert_eq!(serial.len(), configs.len());
    assert!(serial.iter().all(|p| p.error.is_none()), "config sweep had poisoned configs");
}

/// The third cell shape: a replay grid run through a custom evaluator
/// (`GridExec::run_with` over shared, lazily recorded `ReplayTraces`).
/// Each cell is keyed by its scenario, never by dispatch order, so the
/// report is the same file at any worker count.
#[test]
fn replay_grid_is_byte_identical_across_worker_counts() {
    let grid = fig07_grid(true, 2, 4, 42);
    let traces = ReplayTraces::for_grid(&grid);
    let replay = |workers| {
        GridExec::new("fig07_quick_replay", workers)
            .run_with(&grid, |sc| traces.replay(&grid, sc))
            .report
    };
    let serial = replay(1);
    let parallel = replay(4);
    assert_eq!(serial, parallel, "parallel replay diverged from serial replay");
    assert_eq!(
        serde_json::to_string_pretty(&serial).unwrap(),
        serde_json::to_string_pretty(&parallel).unwrap(),
        "serialized replay reports must match byte for byte"
    );
    assert_eq!(serial.failed, 0, "replay grid had poisoned cells");
    assert_eq!(serial.cells.len(), grid.cells().len());
}

#[test]
fn poisoned_cell_does_not_sink_the_run() {
    // streams = 0 makes the runner panic ("need at least one stream");
    // the harness must isolate that cell and complete the others.
    let grid = Grid::new(2, 42)
        .datasets(&[DatasetKind::Waymo])
        .stream_counts(&[0, 1])
        .gpu_counts(&[1.0])
        .policies(vec![PolicySpec::Ekya]);
    let report = run_grid(&grid, 2).report;

    assert_eq!(report.cells.len(), 2);
    assert_eq!(report.failed, 1);
    let poisoned = report.cells.iter().find(|c| c.scenario.streams == 0).unwrap();
    let healthy = report.cells.iter().find(|c| c.scenario.streams == 1).unwrap();
    assert!(
        poisoned.error.as_deref().unwrap_or_default().contains("need at least one stream"),
        "poisoned cell should carry the panic message, got {:?}",
        poisoned.error
    );
    assert!(poisoned.report.is_none());
    assert!(healthy.error.is_none());
    assert!(healthy.mean_accuracy > 0.0);
}

#[test]
fn poisoned_cell_between_healthy_cells_fails_alone() {
    // The poisoned cell sits between healthy ones in dispatch order; on
    // one worker both healthy cells run on the thread the poisoned cell
    // just unwound, and neither may inherit its failure.
    let grid = Grid::new(2, 42)
        .datasets(&[DatasetKind::Waymo])
        .stream_counts(&[0, 1, 2])
        .gpu_counts(&[1.0])
        .policies(vec![PolicySpec::Ekya]);
    for workers in [1, 2] {
        let report = run_grid(&grid, workers).report;

        assert_eq!(report.cells.len(), 3);
        assert_eq!(report.failed, 1);
        let poisoned = report.cells.iter().find(|c| c.scenario.streams == 0).unwrap();
        assert!(
            poisoned.error.as_deref().unwrap_or_default().contains("need at least one stream"),
            "poisoned cell should carry the panic message, got {:?}",
            poisoned.error
        );
        assert!(poisoned.report.is_none());
        for healthy in report.cells.iter().filter(|c| c.scenario.streams > 0) {
            assert!(healthy.error.is_none(), "healthy cell failed on {workers} workers");
            assert!(healthy.mean_accuracy > 0.0);
        }
    }
}

#[test]
fn knobs_parse_from_env_once() {
    // `from_env` reads the ambient environment; unset knobs fall back to
    // the per-bin defaults passed at the call sites.
    let knobs = Knobs::from_env();
    let _ = knobs.quick();
    assert!(knobs.workers() >= 1);
    assert!(knobs.windows(7) >= 1);
    assert!(knobs.streams(3) >= 1);
}
