//! Figure 8 — factor analysis of Ekya's two mechanisms.
//!
//! `Ekya-FixedRes` removes the thief allocation (static 50/50 split, but
//! micro-profiled configuration selection); `Ekya-FixedConfig` removes
//! configuration adaptation (thief allocation over one pinned
//! configuration). Both should lose accuracy relative to full Ekya, most
//! visibly when the system is under stress (few GPUs).
//!
//! One mechanistic trace recording (lazy — a fully resumed run skips
//! it), then a (GPUs × policy) replay grid on the harness. The cells
//! have ordinary [`Scenario`](ekya_bench::Scenario) identities, so the
//! full shard/resume machinery applies: the harness report lands in
//! `results/fig08_factors.json` (`_shardIofN` when sharded), the derived
//! figure points in `results/fig08_factors_points.json`.
//! `EKYA_SHARD=i/N` runs one slice of the grid (merge with `ekya_grid merge`
//! or drive the whole run with `ekya_grid`); `EKYA_RESUME=1` continues a
//! killed run.
//!
//! Run: `cargo run --release -p ekya-bench --bin fig08_factors`
//! Knobs: EKYA_WINDOWS (default 6), EKYA_STREAMS (default 10),
//!        EKYA_QUICK=1, EKYA_WORKERS, EKYA_SHARD, EKYA_RESUME
//!        (see crates/ekya-bench/README.md).

use ekya_bench::{f3, fig08_grid_for, run_fig08_bin, save_json, Knobs, Table};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    gpus: f64,
    scheduler: String,
    accuracy: f64,
}

fn main() {
    let knobs = Knobs::from_env();
    // Same single grid definition the runner and the orchestrator's
    // planner use — the table can never describe a different sweep.
    let grid = fig08_grid_for(&knobs);
    let run = run_fig08_bin(&knobs);
    let report = &run.report;

    if report.is_complete() {
        let points: Vec<Point> = report
            .cells
            .iter()
            .filter(|c| c.error.is_none())
            .map(|c| Point {
                gpus: c.scenario.gpus,
                scheduler: c.policy.clone(),
                accuracy: c.mean_accuracy,
            })
            .collect();

        let mut t = Table::new(
            format!(
                "Fig 8 — factor analysis ({} streams, Cityscapes)",
                grid.stream_counts.first().copied().expect("fig08 grid has a streams axis")
            ),
            &["scheduler", "2 GPUs", "4 GPUs", "6 GPUs", "8 GPUs"],
        );
        for sched in grid.policies.iter().map(|p| p.label()) {
            let mut row = vec![sched.clone()];
            for &g in &[2.0f64, 4.0, 6.0, 8.0] {
                let v = points
                    .iter()
                    .find(|p| p.gpus == g && p.scheduler == sched)
                    .map(|p| f3(p.accuracy))
                    .unwrap_or_else(|| "-".into());
                row.push(v);
            }
            t.row(row);
        }
        t.print();
        println!(
            "\nExpected ordering (paper): Ekya >= Ekya-FixedRes, Ekya-FixedConfig >= Uniform, \
             with the gaps largest at few GPUs."
        );

        save_json("fig08_factors_points", &points);
    } else {
        report.print_shard_notice("the factor table is");
    }
    run.print_footer();
}
