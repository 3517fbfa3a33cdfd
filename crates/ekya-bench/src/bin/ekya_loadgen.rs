//! `ekya_loadgen` — serving-path load generator.
//!
//! Drives a full fleet through the serving daemon — fleet size × window
//! count × arrival pattern — and reports sustained throughput in
//! **stream-windows per second** (one unit = one stream fully served
//! through one retraining window: labelling, profiling, scheduling,
//! retraining, hot-swap, and its slice of live traffic).
//!
//! Writes two files to `results/`:
//! * `serve_status.json` — the daemon's deterministic status snapshot;
//!   two runs with the same `EKYA_SEED` produce byte-identical files
//!   whatever the machine or worker count (the serving-path determinism
//!   suite holds loadgen to exactly that);
//! * `loadgen_metrics.json` — the wall-clock observations (throughput,
//!   live-plane frames), which are machine-dependent by nature and live
//!   in their own file so they can never contaminate the snapshot.
//!
//! Knobs: `EKYA_STREAMS_LIVE` (default 200), `EKYA_WINDOWS` (default 2),
//! `EKYA_SEED`, `EKYA_WORKERS`, `EKYA_ARRIVAL`, `EKYA_RESULTS_DIR`.

use ekya_bench::serve::{run_fleet, FleetConfig};
use ekya_bench::{knob, results_dir, write_json, Knobs};
use ekya_server::ArrivalPattern;
use serde::Serialize;
use std::time::Instant;

/// Wall-clock observations of one loadgen run (machine-dependent; kept
/// strictly apart from the deterministic snapshot).
#[derive(Debug, Clone, Serialize)]
struct LoadgenMetrics {
    streams: usize,
    windows: usize,
    arrival: ArrivalPattern,
    seed: u64,
    workers: usize,
    wall_secs: f64,
    stream_windows_per_sec: f64,
    live_frames_classified: u64,
    live_swaps: u64,
    mean_accuracy: f64,
    checkpoints_swapped: u64,
    rejected: u64,
}

fn main() {
    let knobs = Knobs::from_env();
    let streams = knob::streams_live().unwrap_or(200);
    let windows = knobs.windows(2);
    let workers = knobs.workers();
    let arrival = knob::arrival();
    let cfg =
        FleetConfig { arrival, ..FleetConfig::parallel(streams, windows, knobs.seed, workers) };

    println!(
        "ekya_loadgen: {streams} streams × {windows} windows, {arrival:?} arrivals, \
         seed {}, {} trainers / {} planner threads …",
        cfg.seed, cfg.trainer_shards, cfg.planner_workers
    );
    let started = Instant::now();
    let (report, live) = run_fleet(&cfg);
    let wall_secs = started.elapsed().as_secs_f64();
    let units = (streams * windows) as f64;
    let throughput = units / wall_secs.max(1e-9);

    println!(
        "ekya_loadgen: sustained {streams} concurrent streams · {:.0} stream-windows in \
         {wall_secs:.2} s · {throughput:.1} stream-windows/s · mean accuracy {:.3} · \
         {} checkpoints swapped · {} live frames classified · {} rejected",
        units,
        report.mean_accuracy,
        report.checkpoints_swapped,
        live.served,
        report.snapshot.rejected
    );

    if let Err(e) = write_json(&results_dir().join("serve_status.json"), &report.snapshot) {
        eprintln!("ekya_loadgen: cannot write snapshot: {e}");
        std::process::exit(1);
    }
    let metrics = LoadgenMetrics {
        streams,
        windows,
        arrival,
        seed: cfg.seed,
        workers,
        wall_secs,
        stream_windows_per_sec: throughput,
        live_frames_classified: live.served,
        live_swaps: live.swaps,
        mean_accuracy: report.mean_accuracy,
        checkpoints_swapped: report.checkpoints_swapped,
        rejected: report.snapshot.rejected,
    };
    if let Err(e) = write_json(&results_dir().join("loadgen_metrics.json"), &metrics) {
        eprintln!("ekya_loadgen: cannot write metrics: {e}");
        std::process::exit(1);
    }
    println!("[results written to {}]", results_dir().display());
}
