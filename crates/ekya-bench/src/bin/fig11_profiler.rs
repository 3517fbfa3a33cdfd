//! Figure 11 — micro-profiler effectiveness.
//!
//! (a) Distribution of the micro-profiler's accuracy-estimation errors
//!     against ground truth (train every configuration to completion):
//!     the paper reports largely unbiased errors with a median absolute
//!     error of 5.8%. Derived from one trace recording at presentation
//!     time (whole-grid runs only).
//! (b) Robustness: inject controlled Gaussian noise ε into the profiler's
//!     predictions and measure Ekya's end-to-end accuracy; the paper sees
//!     at most ~3% drop up to ε = 20%. Every (ε × GPUs) point is a grid
//!     cell (`PolicySpec::EkyaNoise`), so the sweep shards, resumes, and
//!     orchestrates like any grid bin
//!     ([`run_fig11_bin`]).
//!
//! The harness report lands in `results/fig11_profiler.json`
//! (`_shardIofN` when sharded); the derived error distribution and noise
//! curves move to `results/fig11_profiler_points.json`.
//!
//! Run: `cargo run --release -p ekya-bench --bin fig11_profiler`
//! Knobs: EKYA_WINDOWS (default 4), EKYA_STREAMS (default 4),
//!        EKYA_QUICK=1 (fewer ε points), EKYA_WORKERS, EKYA_SHARD,
//!        EKYA_RESUME (see crates/ekya-bench/README.md).

use ekya_baselines::PolicySpec;
use ekya_bench::{f3, fig11_eps, run_fig11_bin, save_json, Knobs, Table, FIG11_GPUS};
use ekya_sim::{record_trace, RunnerConfig};
use ekya_video::{stats, DatasetKind, StreamSet};
use serde::Serialize;

#[derive(Serialize)]
struct Fig11Output {
    errors: Vec<f64>,
    median_abs_error: f64,
    mean_error: f64,
    noise_accuracy: Vec<(f64, f64, f64)>, // (epsilon, gpus, accuracy)
}

fn main() {
    let knobs = Knobs::from_env();
    let run = run_fig11_bin(&knobs);
    let report = &run.report;

    if !report.is_complete() {
        report.print_shard_notice("the error distribution and noise tables are");
        run.print_footer();
        return;
    }
    if report.failed > 0 {
        // A poisoned cell would silently read as accuracy 0.0 in the
        // noise tables; fail loudly instead (the pre-port behaviour).
        eprintln!(
            "[fig11: {} poisoned cell(s) — derived tables not computed; \
             see the errors in the JSON report]",
            report.failed
        );
        run.print_footer();
        std::process::exit(1);
    }

    let windows = knobs.windows(4);
    let num_streams = knobs.streams(4);
    let seed = knobs.seed;
    let kind = DatasetKind::Cityscapes;

    // ---- (a) estimation-error distribution ----
    // The recorded trace carries both the micro-profiled estimates and the
    // ground-truth curves measured by running every model variant to
    // completion — their difference at each configuration's k_total is
    // exactly the profiler's estimation error.
    eprintln!("[recording trace — {num_streams} streams x {windows} windows]");
    let streams = StreamSet::generate(kind, num_streams, windows, seed);
    let cfg = RunnerConfig { seed, ..RunnerConfig::default() };
    let trace = record_trace(&streams, &cfg, windows, 4);

    let mut errors: Vec<f64> = Vec::new();
    for w in &trace.windows {
        for st in &w.streams {
            for est in &st.est_profiles {
                if let Some(truth) = st.true_curve(est.config.curve_key()) {
                    let k = est.config.k_total();
                    errors.push(est.post_accuracy() - truth.predict(k));
                }
            }
        }
    }
    let median = stats::median_abs(&errors);
    let mean = stats::mean(&errors);

    let mut ha =
        Table::new("Fig 11a — micro-profiler estimation-error distribution", &["bucket", "count"]);
    let buckets = [-0.3f64, -0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2, 0.3];
    for pair in buckets.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let count = errors.iter().filter(|e| **e >= lo && **e < hi).count();
        ha.row(vec![format!("[{lo:+.2}, {hi:+.2})"), count.to_string()]);
    }
    ha.print();
    println!(
        "\n{} estimates; median |error| = {:.3} (paper: 0.058), mean error = {:+.3} \
         (paper: largely unbiased)",
        errors.len(),
        median,
        mean
    );

    // ---- (b) robustness to controlled estimate noise ----
    // Pure lookups into the harness report (by spec equality — every
    // EkyaNoise cell reports under the plain "Ekya" policy name).
    let eps_grid = fig11_eps(knobs.quick);
    let at = |eps: f64, gpus: f64| {
        report
            .cells
            .iter()
            .find(|c| {
                c.error.is_none()
                    && c.scenario.gpus == gpus
                    && c.scenario.policy == PolicySpec::EkyaNoise { noise_std: eps }
            })
            .map(|c| c.mean_accuracy)
            // Poisoned cells already aborted the bin above; a missing
            // (eps, gpus) cell means the grid builder and this lookup
            // disagree — fail loudly instead of plotting a 0.0 point.
            .expect("fig11 grid covers every (noise, gpus) cell")
    };
    let noise_accuracy: Vec<(f64, f64, f64)> = eps_grid
        .iter()
        .flat_map(|&eps| FIG11_GPUS.iter().map(move |&gpus| (eps, gpus, at(eps, gpus))))
        .collect();

    let mut hb = Table::new(
        "Fig 11b — Ekya accuracy under controlled estimate noise ε",
        &["ε", "1 GPU", "4 GPUs"],
    );
    for &eps in eps_grid {
        let mut row = vec![format!("{:.0}%", eps * 100.0)];
        for &gpus in &FIG11_GPUS {
            row.push(f3(at(eps, gpus)));
        }
        hb.row(row);
    }
    hb.print();
    println!(
        "\nAccuracy drop at ε=20% vs ε=0: {:+.1}% @1 GPU, {:+.1}% @4 GPUs (paper: <= 3%)",
        (at(0.2, 1.0) - at(0.0, 1.0)) * 100.0,
        (at(0.2, 4.0) - at(0.0, 4.0)) * 100.0
    );

    save_json(
        "fig11_profiler_points",
        &Fig11Output { errors, median_abs_error: median, mean_error: mean, noise_accuracy },
    );
    run.print_footer();
}
