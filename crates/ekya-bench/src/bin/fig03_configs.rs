//! Figure 3 — retraining-configuration tradeoffs.
//!
//! (a) Accuracy vs GPU-seconds when varying two example hyperparameters
//!     (data fraction and layers trained), others held constant.
//! (b) The resource-accuracy scatter of the full configuration grid with
//!     its Pareto boundary; the paper observes a ~200x spread in GPU cost
//!     and that higher cost does not imply higher accuracy.
//!
//! The sweep core lives in `ekya_bench::config_profile`
//! ([`ConfigSweep`](ekya_bench::ConfigSweep) + `run_config_bin`):
//! exhaustive profiling rides the harness's worker pool with
//! **per-config seeding** (`base_seed ^ fnv1a("cfg|" + label)`), so the
//! output is identical at any `EKYA_WORKERS`. The whole sweep takes a
//! fraction of a second, so the bin does not shard: under `EKYA_SHARD`
//! it warns and writes the full `fig03_configs.json`. `EKYA_QUICK=1`
//! profiles the 18-config default grid instead of the extended 54.
//!
//! Run: `cargo run --release -p ekya-bench --bin fig03_configs`
//! Knobs: EKYA_SEED, EKYA_QUICK=1, EKYA_WORKERS
//!        (see crates/ekya-bench/README.md).

use ekya_bench::{f1, f3, run_config_bin, Knobs, Table};
use ekya_core::RetrainConfig;

fn main() {
    let knobs = Knobs::from_env();
    let (sweep, points_b) = run_config_bin(&knobs);

    // ---- (a) two example hyperparameters ----
    let mut axis_a: Vec<RetrainConfig> = Vec::new();
    for &frac in &[0.2f64, 0.5, 1.0] {
        axis_a.push(RetrainConfig {
            epochs: 15,
            batch_size: 32,
            last_layer_neurons: 16,
            layers_trained: 3,
            data_fraction: frac,
        });
    }
    for &layers in &[1u32, 2, 3] {
        axis_a.push(RetrainConfig {
            epochs: 15,
            batch_size: 32,
            last_layer_neurons: 16,
            layers_trained: layers,
            data_fraction: 1.0,
        });
    }
    let points_a = sweep.measure(&axis_a, knobs.workers());
    let mut ta = Table::new(
        "Fig 3a — effect of data fraction (rho) and layers trained",
        &["hyperparameter", "GPU seconds", "accuracy"],
    );
    for (i, (c, p)) in axis_a.iter().zip(&points_a).enumerate() {
        // The first three entries sweep the data fraction; the rest sweep
        // the layers-trained axis.
        let label = if i < 3 {
            format!("rho={}", c.data_fraction)
        } else {
            format!("layers={}", c.layers_trained)
        };
        if p.error.is_some() {
            ta.row(vec![label, "-".into(), "failed".into()]);
        } else {
            ta.row(vec![label, f1(p.gpu_seconds), f3(p.accuracy)]);
        }
    }
    ta.print();

    // ---- (b) full grid + Pareto boundary ----
    let mut tb = Table::new(
        "Fig 3b — resource vs accuracy of the full configuration grid",
        &["config", "GPU seconds", "accuracy", "Pareto"],
    );
    for p in &points_b {
        if p.error.is_some() {
            tb.row(vec![p.label.clone(), "-".into(), "failed".into(), "".into()]);
        } else {
            tb.row(vec![
                p.label.clone(),
                f1(p.gpu_seconds),
                f3(p.accuracy),
                if p.on_pareto { "*".into() } else { "".into() },
            ]);
        }
    }
    tb.print();

    let costs = || points_b.iter().filter(|p| p.error.is_none()).map(|p| p.gpu_seconds);
    let max_cost = costs().fold(f64::MIN, f64::max);
    let min_cost = costs().fold(f64::MAX, f64::min);
    println!(
        "\nGPU-cost spread across configurations: {:.0}x (paper reports ~200x)",
        max_cost / min_cost
    );
    let on_frontier = points_b.iter().filter(|p| p.on_pareto).count();
    println!("Pareto-optimal configurations: {on_frontier} of {}", points_b.len());
}
