//! # ekya-bench — experiment harness
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p ekya-bench --bin figNN_*`). Binaries print
//! the same rows/series the paper reports and write machine-readable
//! JSON to `results/`.
//!
//! The paper's result grids — (dataset × streams × GPUs × policy) — are
//! embarrassingly parallel, so the bins no longer hand-roll serial
//! nested-for sweeps: [`grid`] declares a sweep as data and [`harness`]
//! fans its cells out across a shared-queue worker pool with
//! deterministic per-cell seeding (parallel ≡ serial, byte for byte).
//!
//! Environment knobs shared by all binaries (parsed once, by
//! [`Knobs::from_env`]):
//!
//! * `EKYA_WINDOWS` — override the number of retraining windows;
//! * `EKYA_STREAMS` — override the number of concurrent streams;
//! * `EKYA_SEED` — override the base RNG seed;
//! * `EKYA_QUICK=1` — shrink sweeps for a fast smoke run;
//! * `EKYA_WORKERS` — harness worker threads (default: hardware
//!   parallelism);
//! * `EKYA_SHARD=i/N` — run shard `i` of `N` of a grid bin's cell range
//!   (merge the per-shard reports with `ekya_grid merge`);
//! * `EKYA_RESUME=1` — resume a killed or partial run from its previous
//!   report/checkpoint;
//! * `EKYA_RESULTS_DIR` — redirect `results/` (used by the `ekya_grid`
//!   supervisor to give each run its own directory).
//!
//! The serving-path bins (`ekya_serve`, `ekya_loadgen`; see [`serve`])
//! additionally read `EKYA_STREAMS_LIVE` (fleet size), `EKYA_ARRIVAL`
//! (frame-arrival pattern), and `EKYA_SERVE_CRASH_AFTER` (fault
//! injection) via [`knob`].
//!
//! The shardable bins also have a declarative identity ([`bins`]) that
//! the `ekya_grid` launcher ([`orchestrate`]) uses to plan, spawn,
//! supervise, and merge a whole sharded run with one command.
//!
//! The full operator guide — every knob, the report JSON schema, worked
//! sharding/resume examples, and the determinism guarantees — lives in
//! `crates/ekya-bench/README.md`.

pub mod bins;
pub mod config_profile;
pub mod grid;
pub mod harness;
pub mod knob;
pub mod orchestrate;
pub mod serve;

pub use bins::{
    ablation_grid_for, ablation_policies, bin_workload, fig07_datasets, fig07_grid, fig07_grid_for,
    fig08_grid, fig08_grid_for, fig08_policies, fig09_grid_for, fig10_grid, fig11_eps,
    fig11_grid_for, run_ablation_bin, run_bin, run_fig07_bin, run_fig08_bin, run_fig09_bin,
    run_fig11_bin, run_table4_bin, run_table5_bin, shardable_bins, table3_grid, table4_grid_for,
    table4_policies, table4_scales, table5_grid_for, table5_pretrain_windows, ReplayTraces,
    FIG10_DELTAS, FIG10_GPUS, FIG11_GPUS, TABLE4_GPUS, TABLE4_WINDOW_SECS, TABLE5_GPUS,
};
pub use config_profile::{config_grid, pareto_flags, run_config_bin, ConfigPoint, ConfigSweep};
pub use grid::{cell_seed, coverage_order, fig06_grid, fnv1a, Grid, Scenario, ShardSpec};
pub use harness::{
    default_workers, load_report, merge_reports, report_path, run_grid, run_grid_bin,
    run_grid_bin_with, run_scenario, trace_path, CellResult, GridExec, GridRun, HarnessReport,
    Knobs, RunStats,
};

pub use knob::env_f64;
pub use serve::{
    build_daemon, quick_fleet, quick_fleet_spec, run_fleet, FleetConfig, LoadgenReport,
};

use serde::Serialize;
use std::path::PathBuf;

/// A printable results table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the table in aligned-markdown form.
    pub fn print(&self) {
        println!("\n## {}\n", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |cells: &[String], widths: &[usize]| {
            let line: Vec<String> =
                cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = *w)).collect();
            println!("| {} |", line.join(" | "));
        };
        print_row(&self.headers, &widths);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            print_row(row, &widths);
        }
    }
}

/// Writes `value` as pretty-printed JSON to `path`, creating the parent
/// directory first. The single place result files are produced — every
/// writer (bins via [`save_json`], the harness's reports, `ekya_grid merge`)
/// goes through it, so the on-disk format can never diverge between
/// them (the byte-identity guarantees depend on that).
pub fn write_json<T: Serialize>(path: &std::path::Path, value: &T) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialise {}: {e}", path.display()))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes a serialisable result to `results/<name>.json` (relative to the
/// workspace root when run via cargo, else the current directory).
/// Returns the written path on success, `None` when serialization or IO
/// failed (after printing the error) — callers that chain follow-up
/// actions (e.g. removing a checkpoint) key off the return value.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    let path = results_dir().join(format!("{name}.json"));
    match write_json(&path, value) {
        Ok(()) => {
            println!("\n[results written to {}]", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("failed to save {name}: {e}");
            None
        }
    }
}

/// The workspace `results/` directory (resolved via `CARGO_MANIFEST_DIR`
/// when run through cargo, else relative to the current directory).
///
/// `EKYA_RESULTS_DIR` overrides the resolution entirely — the
/// `ekya_grid` supervisor points each shard worker (and its
/// hermetic tests) at a per-run directory this way, so orchestrated
/// shard reports and checkpoints never collide with a foreground run's.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("EKYA_RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        // crates/ekya-bench -> workspace root two levels up.
        let p = PathBuf::from(manifest);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            return root.join("results");
        }
    }
    PathBuf::from("results")
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_default() {
        assert_eq!(env_f64("EKYA_DOES_NOT_EXIST", 1.5), 1.5);
    }

    #[test]
    fn table_rows_align() {
        let mut t = Table::new("test", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
        t.print(); // smoke: no panic
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("test", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
