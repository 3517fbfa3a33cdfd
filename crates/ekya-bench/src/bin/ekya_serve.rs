//! `ekya_serve` — the long-running multi-tenant serving daemon.
//!
//! Boots an [`ekya_server::EdgeDaemon`], admits a synthetic camera fleet
//! (plus two doomed overload attempts, so admission control is exercised
//! on every run), then serves retraining windows online: micro-profile +
//! thief-schedule, retrain on the supervised pool, hot-swap checkpoints,
//! keep classifying live frames throughout. After every completed window
//! the deterministic status snapshot is written **atomically**
//! (tmp + rename) to `results/serve_status.json`, so a crashed daemon
//! always leaves a consistent snapshot of its last completed window.
//!
//! Knobs: `EKYA_STREAMS_LIVE` (fleet size, default 8),
//! `EKYA_WINDOWS` (default 3), `EKYA_SEED`, `EKYA_WORKERS`,
//! `EKYA_ARRIVAL` (`uniform` | `bursty` | `staggered`),
//! `EKYA_RESULTS_DIR`, and `EKYA_SERVE_CRASH_AFTER` (fault injection:
//! exit 17 mid-way through that window).
//!
//! `ekya_serve --validate` instead reads the snapshot back, checks every
//! internal-consistency invariant, and exits nonzero on violations —
//! the CI smoke lane and the crash-injection test both use it.

use ekya_bench::serve::{build_daemon, report_for, FleetConfig};
use ekya_bench::{knob, results_dir, write_json, Knobs};
use ekya_server::StatusSnapshot;
use serde::Serialize;
use std::path::PathBuf;

fn snapshot_path() -> PathBuf {
    results_dir().join("serve_status.json")
}

/// Flushes the telemetry session (when one is active) — called at every
/// window boundary, right after the status snapshot lands.
fn flush_trace(traced: bool) {
    if traced {
        if let Err(e) = ekya_telemetry::flush() {
            eprintln!("ekya_serve: trace flush failed: {e}");
        }
    }
}

/// Writes the snapshot atomically: the tmp file is fully written, then
/// renamed over the live path, so a reader (or a daemon killed mid-write)
/// never sees a torn snapshot. Generic over the snapshot form — the
/// serving loop hands it the daemon's borrowed `StatusView` (built only
/// because a sink is installed; serialises byte-identically to the
/// owned `StatusSnapshot`).
fn write_snapshot(snap: &impl Serialize) {
    let path = snapshot_path();
    let tmp = path.with_extension("json.tmp");
    if let Err(e) = write_json(&tmp, snap) {
        eprintln!("ekya_serve: cannot write snapshot: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::rename(&tmp, &path) {
        eprintln!("ekya_serve: cannot publish snapshot: {e}");
        std::process::exit(1);
    }
}

fn validate() -> ! {
    let path = snapshot_path();
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("ekya_serve --validate: cannot read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let snap: StatusSnapshot = match serde_json::from_str(&raw) {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("ekya_serve --validate: {} is not a snapshot: {e}", path.display());
            std::process::exit(1);
        }
    };
    let errs = snap.validate();
    if errs.is_empty() {
        println!(
            "ekya_serve --validate: {} consistent ({} streams, {} windows, {} rejected) ✓",
            path.display(),
            snap.admitted,
            snap.windows_completed,
            snap.rejected
        );
        std::process::exit(0);
    }
    for e in &errs {
        eprintln!("ekya_serve --validate: {e}");
    }
    std::process::exit(1);
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--validate") {
        validate();
    }

    let knobs = Knobs::from_env();
    let streams = knob::streams_live().unwrap_or(8);
    let windows = knobs.windows(3);
    let cfg = FleetConfig {
        arrival: knob::arrival(),
        crash_mid_window: knob::serve_crash_after(),
        ..FleetConfig::parallel(streams, windows, knobs.seed, knobs.workers())
    };

    println!(
        "ekya_serve: admitting {streams} streams ({:?} arrivals, seed {}) …",
        cfg.arrival, cfg.seed
    );
    // Telemetry session for the daemon's lifetime. Unlike the grid bins,
    // the trace is flushed (atomically, tmp + rename) after *every*
    // completed window: a daemon killed mid-window — including the
    // EKYA_SERVE_CRASH_AFTER injection, which exits without unwinding —
    // leaves a valid trace truncated at the last window boundary, the
    // exact analogue of the snapshot discipline below.
    let traced = ekya_bench::trace_path("serve", None);
    if let Some(path) = &traced {
        let _ = std::fs::create_dir_all(results_dir());
        ekya_telemetry::start(Some(path.clone()));
        eprintln!("[ekya_serve: EKYA_TRACE → {}]", path.display());
    }
    let mut daemon = build_daemon(&cfg);
    // Window-0 snapshot: even a daemon that crashes during its first
    // window leaves a consistent (empty-ledger) snapshot behind.
    write_snapshot(&daemon.status_view());
    flush_trace(traced.is_some());
    // Per-window snapshots ride the daemon's snapshot sink: the daemon
    // builds a *borrowed* status view (no per-stream ledger clones) at
    // each window boundary, and only because this sink is installed.
    let traced_on = traced.is_some();
    daemon.set_snapshot_sink(move |view| {
        write_snapshot(view);
        flush_trace(traced_on);
    });

    for w in 0..windows {
        let reports = daemon.run_window();
        let retrained = reports.iter().filter(|r| r.retrained).count();
        let failed = reports.iter().filter(|r| r.retrain_failed).count();
        let swapped: u64 = reports.iter().map(|r| r.checkpoints_swapped).sum();
        println!(
            "ekya_serve: window {w}: {retrained}/{streams} retrained ({failed} failed), \
             {swapped} checkpoints swapped"
        );
    }

    let report = report_for(&cfg, &daemon);
    let live = daemon.live_stats();
    println!(
        "ekya_serve: done — mean accuracy {:.3}, {} frames served (logical), \
         {} backlogged, {} live-plane frames classified, snapshot at {}",
        report.mean_accuracy,
        report.frames_served,
        report.frames_backlogged,
        live.served,
        snapshot_path().display()
    );
    daemon.shutdown();
    if let Some(path) = &traced {
        flush_trace(true);
        ekya_telemetry::stop();
        eprintln!("[ekya_serve: trace written to {}]", path.display());
    }
}
