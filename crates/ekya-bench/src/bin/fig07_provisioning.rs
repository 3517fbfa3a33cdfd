//! Figure 7 — accuracy vs provisioned GPUs, 10 concurrent streams, four
//! datasets.
//!
//! Uses the trace-driven simulator exactly as the paper does ("to scale
//! to more GPUs, we use the simulator, which uses profiles recorded from
//! real tests"): one mechanistic recording per dataset — recorded lazily
//! by whichever worker needs it first — then fast replay of every
//! (dataset × GPU count × scheduler) cell. The cells carry ordinary
//! [`Scenario`](ekya_bench::Scenario) identities
//! ([`run_fig07_bin`]), so the full
//! shard/resume machinery applies: `EKYA_SHARD=i/N` runs one slice of
//! the grid (merge with `ekya_grid merge` or drive the whole run with
//! `ekya_grid`), `EKYA_RESUME=1` continues a killed run. The harness
//! report lands in `results/fig07_provisioning.json` (`_shardIofN` when
//! sharded); the derived figure points move to
//! `results/fig07_provisioning_points.json`.
//!
//! Also derives the headline "4x resource saving": the GPU count where
//! the best baseline finally matches Ekya's accuracy at 4 GPUs.
//!
//! Run: `cargo run --release -p ekya-bench --bin fig07_provisioning`
//! Knobs: EKYA_WINDOWS (default 6), EKYA_STREAMS (default 10),
//!        EKYA_QUICK=1 (2 datasets, fewer GPUs), EKYA_WORKERS,
//!        EKYA_SHARD, EKYA_RESUME (see crates/ekya-bench/README.md).

use ekya_bench::{f3, fig07_grid_for, run_fig07_bin, save_json, Knobs, Table};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    dataset: String,
    gpus: f64,
    scheduler: String,
    accuracy: f64,
}

fn main() {
    let knobs = Knobs::from_env();
    // Same single grid definition the runner and the orchestrator's
    // planner use — the tables can never describe a different sweep.
    let grid = fig07_grid_for(&knobs);
    let run = run_fig07_bin(&knobs);
    let report = &run.report;

    if report.is_complete() {
        let points: Vec<Point> = report
            .cells
            .iter()
            .filter(|c| c.error.is_none())
            .map(|c| Point {
                dataset: c.scenario.dataset.name().to_string(),
                gpus: c.scenario.gpus,
                scheduler: c.policy.clone(),
                accuracy: c.mean_accuracy,
            })
            .collect();

        // The column axis is the grid's own GPU axis, so the table can
        // never show a different sweep than the one that ran (no
        // permanently empty quick-mode columns, no silently dropped
        // points if the axis changes).
        let gpu_headers: Vec<String> = grid.gpu_counts.iter().map(|g| format!("{g}")).collect();
        let headers: Vec<&str> =
            std::iter::once("scheduler").chain(gpu_headers.iter().map(String::as_str)).collect();
        for &kind in &grid.datasets {
            let mut t = Table::new(
                format!(
                    "Fig 7 — {} ({} streams): accuracy vs provisioned GPUs",
                    kind.name(),
                    grid.stream_counts.first().copied().expect("fig07 grid has a streams axis")
                ),
                &headers,
            );
            for sched in grid.policies.iter().map(|p| p.label()) {
                let mut row = vec![sched.clone()];
                for &g in &grid.gpu_counts {
                    let v = points
                        .iter()
                        .find(|p| p.dataset == kind.name() && p.gpus == g && p.scheduler == sched)
                        .map(|p| f3(p.accuracy))
                        .unwrap_or_else(|| "-".into());
                    row.push(v);
                }
                t.row(row);
            }
            t.print();

            // The 4x headline: Ekya@4 GPUs vs best baseline per GPU count.
            let ekya_at = |g: f64| {
                points
                    .iter()
                    .find(|p| p.dataset == kind.name() && p.gpus == g && p.scheduler == "Ekya")
                    .map(|p| p.accuracy)
            };
            let best_uniform_at = |g: f64| {
                points
                    .iter()
                    .filter(|p| {
                        p.dataset == kind.name()
                            && p.gpus == g
                            && p.scheduler.starts_with("Uniform")
                    })
                    .map(|p| p.accuracy)
                    .fold(f64::MIN, f64::max)
            };
            if let Some(ekya4) = ekya_at(4.0) {
                let needed =
                    grid.gpu_counts.iter().find(|&&g| best_uniform_at(g) >= ekya4).copied();
                match needed {
                    Some(g) => println!(
                        "{}: best uniform needs {}x the GPUs to match Ekya@4 GPUs (paper: 4x)",
                        kind.name(),
                        g / 4.0
                    ),
                    None => println!(
                        "{}: no uniform variant matches Ekya@4 GPUs even at {} GPUs (> {:.0}x)",
                        kind.name(),
                        grid.gpu_counts.last().unwrap(),
                        grid.gpu_counts.last().unwrap() / 4.0
                    ),
                }
            }
        }

        save_json("fig07_provisioning_points", &points);
    } else {
        report.print_shard_notice("tables and the 4x headline are");
    }
    run.print_footer();
}
