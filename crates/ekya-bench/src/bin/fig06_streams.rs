//! Figure 6 — accuracy vs number of concurrent streams (1 and 2 GPUs,
//! Cityscapes and Waymo).
//!
//! As streams share a fixed GPU budget, Ekya degrades gracefully by
//! shifting resources from retraining to inference and picking cheaper
//! retraining configurations, while uniform baselines fall off faster
//! (the paper reports up to 29% advantage under 1 GPU).
//!
//! Declarative grid on the parallel harness: the sweep is
//! [`ekya_bench::fig06_grid`], fanned out across `EKYA_WORKERS` threads.
//! `EKYA_SHARD=i/N` runs one slice of the grid (merge the shard reports
//! with `ekya_grid merge`); `EKYA_RESUME=1` continues a killed run.
//! Run: `cargo run --release -p ekya-bench --bin fig06_streams`
//! Knobs: EKYA_WINDOWS (default 4), EKYA_QUICK=1, EKYA_WORKERS,
//!        EKYA_SHARD, EKYA_RESUME (see crates/ekya-bench/README.md).

use ekya_bench::{f3, fig06_grid, run_grid_bin, Knobs, Table};

fn main() {
    let knobs = Knobs::from_env();
    let grid = fig06_grid(knobs.quick, knobs.windows(4), knobs.seed);
    let run = run_grid_bin("fig06_streams", &grid, &knobs);
    let report = &run.report;

    if report.is_complete() {
        // Print one table per (dataset, gpus).
        for &kind in &grid.datasets {
            for &gpus in &grid.gpu_counts {
                let mut t = Table::new(
                    format!("Fig 6 — {} with {} provisioned GPU(s)", kind.name(), gpus),
                    &["scheduler", "2 streams", "4 streams", "6 streams", "8 streams"],
                );
                for policy in &grid.policies {
                    let mut row = vec![policy.label()];
                    for &n in &[2usize, 4, 6, 8] {
                        let v = report
                            .accuracy_where(|c| {
                                c.scenario.dataset == kind
                                    && c.scenario.gpus == gpus
                                    && c.scenario.streams == n
                                    && c.scenario.policy == *policy
                            })
                            .map(f3)
                            .unwrap_or_else(|| "-".into());
                        row.push(v);
                    }
                    t.row(row);
                }
                t.print();
            }
        }

        // Headline: Ekya's advantage over the best uniform at max contention.
        let max_n = *grid.stream_counts.last().unwrap();
        for &kind in &grid.datasets {
            for &gpus in &grid.gpu_counts {
                let at = |prefix: &str| -> Option<f64> {
                    report
                        .cells
                        .iter()
                        .filter(|c| {
                            c.error.is_none()
                                && c.scenario.dataset == kind
                                && c.scenario.gpus == gpus
                                && c.scenario.streams == max_n
                                && c.policy.starts_with(prefix)
                        })
                        .map(|c| c.mean_accuracy)
                        .fold(None, |best: Option<f64>, a| Some(best.map_or(a, |b| b.max(a))))
                };
                match (at("Ekya"), at("Uniform")) {
                    (Some(ekya), Some(uniform)) => println!(
                        "{} @ {} GPU, {} streams: Ekya {:+.1}% over best uniform (paper: up to 29% @1 GPU, 23% @2 GPUs)",
                        kind.name(),
                        gpus,
                        max_n,
                        (ekya - uniform) * 100.0
                    ),
                    // Panic-isolated cells can leave a scheduler group empty;
                    // say so instead of comparing against nothing.
                    _ => println!(
                        "{} @ {} GPU, {} streams: headline unavailable (cells failed — see errors in the JSON)",
                        kind.name(),
                        gpus,
                        max_n
                    ),
                }
            }
        }
    } else {
        report.print_shard_notice("tables and headlines are");
    }
    run.print_footer();
}
