//! Serving-path workloads: synthetic camera fleets plus the loadgen
//! driver shared by the `ekya_serve` / `ekya_loadgen` bins and the
//! serving-path tests.
//!
//! The report produced here ([`LoadgenReport`]) carries only the
//! daemon's *logical* serving plane — the deterministic status snapshot
//! and aggregates derived from it. Shard counts, trainer counts, worker
//! counts and every wall-clock observation are deliberately excluded,
//! which is what lets `tests/serve_path.rs` assert a serial (1/1/1)
//! daemon and a parallel one produce **byte-identical** reports for the
//! same fleet.

use ekya_server::{ArrivalPattern, EdgeDaemon, ServeConfig, ShardLive, StatusSnapshot};
use ekya_video::{DatasetKind, DatasetSpec, VideoDataset};
use serde::{Deserialize, Serialize};

/// The tiny per-stream dataset the quick fleets are built from: 40
/// frames per 10-second window at 4 fps, half of them teacher-labelled —
/// small enough that hundreds of streams profile and retrain in seconds.
pub fn quick_fleet_spec(windows: usize, seed: u64) -> DatasetSpec {
    DatasetSpec {
        kind: DatasetKind::Waymo,
        num_windows: windows,
        window_secs: 10.0,
        fps: 4.0,
        label_fraction: 0.5,
        val_samples: 24,
        seed,
    }
}

/// Generates a decorrelated fleet of `n` quick streams, cycling the
/// paper's four workload families so the daemon multiplexes heterogeneous
/// drift processes (stream `i` gets seed `seed + 1000 i`).
pub fn quick_fleet(n: usize, windows: usize, seed: u64) -> Vec<VideoDataset> {
    (0..n)
        .map(|i| {
            let spec = DatasetSpec {
                kind: DatasetKind::ALL[i % DatasetKind::ALL.len()],
                seed: seed.wrapping_add(1000 * i as u64),
                ..quick_fleet_spec(windows, seed)
            };
            VideoDataset::generate(spec)
        })
        .collect()
}

/// One loadgen run: fleet size × window count × arrival pattern, plus
/// the daemon's concurrency shape (which must not affect the report).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Concurrent camera streams to admit.
    pub streams: usize,
    /// Retraining windows to serve.
    pub windows: usize,
    /// Frame-arrival shape for the logical ledger.
    pub arrival: ArrivalPattern,
    /// Base seed (fleet generation and daemon).
    pub seed: u64,
    /// Inference shards.
    pub infer_shards: usize,
    /// Supervised trainers.
    pub trainer_shards: usize,
    /// Window-boundary planner threads.
    pub planner_workers: usize,
    /// Extra admission attempts beyond capacity, each of which must be
    /// rejected with a typed error (exercises admission control on every
    /// loadgen run).
    pub overload_attempts: usize,
    /// Fault injection: crash (exit 17) mid-way through this window.
    pub crash_mid_window: Option<usize>,
}

impl FleetConfig {
    /// The serial reference shape: one shard, one trainer, one planner
    /// thread. [`run_fleet`] must produce the identical report for this
    /// and for any parallel shape.
    pub fn serial(streams: usize, windows: usize, seed: u64) -> Self {
        Self {
            streams,
            windows,
            arrival: ArrivalPattern::Uniform,
            seed,
            infer_shards: 1,
            trainer_shards: 1,
            planner_workers: 1,
            overload_attempts: 2,
            crash_mid_window: None,
        }
    }

    /// A parallel shape with `workers` planner threads and trainers and
    /// two inference shards.
    pub fn parallel(streams: usize, windows: usize, seed: u64, workers: usize) -> Self {
        Self {
            infer_shards: 2,
            trainer_shards: workers.max(2),
            planner_workers: workers.max(2),
            ..Self::serial(streams, windows, seed)
        }
    }
}

/// The deterministic outcome of a loadgen run (logical plane only — see
/// the module docs for why nothing wall-clock lives here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Streams admitted.
    pub streams: usize,
    /// Windows served.
    pub windows: usize,
    /// Arrival pattern the ledger ran under.
    pub arrival: ArrivalPattern,
    /// Base seed.
    pub seed: u64,
    /// Mean end-of-run serving accuracy across streams.
    pub mean_accuracy: f64,
    /// Total checkpoints hot-swapped into serving.
    pub checkpoints_swapped: u64,
    /// Total frames served by the logical ledger.
    pub frames_served: u64,
    /// Total frames still backlogged at the end of the run.
    pub frames_backlogged: u64,
    /// The full per-stream status snapshot.
    pub snapshot: StatusSnapshot,
}

/// Boots a daemon for `cfg` and admits its quick fleet plus
/// `overload_attempts` doomed extras.
///
/// # Panics
/// Panics when an in-capacity stream is rejected or an overload attempt
/// is admitted — either means admission control is broken.
pub fn build_daemon(cfg: &FleetConfig) -> EdgeDaemon {
    let serve = ServeConfig {
        capacity: cfg.streams,
        infer_shards: cfg.infer_shards,
        trainer_shards: cfg.trainer_shards,
        planner_workers: cfg.planner_workers,
        arrival: cfg.arrival,
        seed: cfg.seed,
        crash_mid_window: cfg.crash_mid_window,
        ..ServeConfig::quick(2.0)
    };
    let mut daemon = EdgeDaemon::new(serve);
    for ds in quick_fleet(cfg.streams, cfg.windows, cfg.seed) {
        daemon.admit(ds).expect("in-capacity stream must be admitted");
    }
    for extra in quick_fleet(cfg.overload_attempts, cfg.windows, cfg.seed ^ 0x0DD) {
        assert!(
            daemon.admit(extra).is_err(),
            "stream beyond capacity must be rejected, not queued"
        );
    }
    daemon
}

/// Builds the report for a daemon that has finished serving.
pub fn report_for(cfg: &FleetConfig, daemon: &EdgeDaemon) -> LoadgenReport {
    let snapshot = daemon.status_snapshot();
    let n = snapshot.streams.len().max(1);
    LoadgenReport {
        streams: cfg.streams,
        windows: cfg.windows,
        arrival: cfg.arrival,
        seed: cfg.seed,
        mean_accuracy: snapshot.streams.iter().map(|s| s.accuracy).sum::<f64>() / n as f64,
        checkpoints_swapped: snapshot.streams.iter().map(|s| s.checkpoints_swapped).sum(),
        frames_served: snapshot.streams.iter().map(|s| s.frames_served).sum(),
        frames_backlogged: snapshot.streams.iter().map(|s| s.frames_backlogged).sum(),
        snapshot,
    }
}

/// Runs a whole fleet to completion: admit, serve every window, report.
/// Returns the deterministic report plus the wall-plane live counters
/// (frames actually classified by the shards — nonzero proves the
/// serving path stayed live, but never serialised).
pub fn run_fleet(cfg: &FleetConfig) -> (LoadgenReport, ShardLive) {
    let mut daemon = build_daemon(cfg);
    for _ in 0..cfg.windows {
        daemon.run_window();
    }
    let report = report_for(cfg, &daemon);
    let errs = report.snapshot.validate();
    assert!(errs.is_empty(), "inconsistent status snapshot: {errs:?}");
    let live = daemon.live_stats();
    daemon.shutdown();
    (report, live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fleet_is_heterogeneous_and_reproducible() {
        let a = quick_fleet(5, 2, 7);
        let b = quick_fleet(5, 2, 7);
        assert_eq!(a.len(), 5);
        assert!(a.iter().zip(&b).all(|(x, y)| x.spec == y.spec));
        // Cycles through distinct workload families.
        assert_ne!(a[0].spec.kind, a[1].spec.kind);
        assert_eq!(a[0].spec.kind, a[4].spec.kind);
    }

    #[test]
    fn serial_and_parallel_fleets_report_identically() {
        let serial = run_fleet(&FleetConfig::serial(4, 2, 13)).0;
        let parallel = run_fleet(&FleetConfig::parallel(4, 2, 13, 3)).0;
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string_pretty(&serial).unwrap(),
            serde_json::to_string_pretty(&parallel).unwrap()
        );
        assert_eq!(serial.snapshot.rejected, 2, "both overload attempts counted");
    }
}
