//! §6.3 — thief-scheduler decision latency.
//!
//! The paper: "the thief scheduler efficiently makes its decisions in
//! 9.4 s when deciding for 10 video streams across 8 GPUs with 18
//! configurations per model for a 200 s retraining window" (Python on
//! the testbed). This binary measures the Rust implementation across
//! problem shapes, reporting wall time and `PickConfigs` evaluation
//! counts (the algorithmic-work metric that is language-independent) —
//! from the paper's 10-stream shape up to the fleets the daemon serves
//! (100–400 streams), where the scheduler has to stay cheap enough to
//! re-run on every retraining-job completion. Every shape's schedule must
//! fit its GPU budget; the binary exits non-zero otherwise.
//!
//! Run: `cargo run --release -p ekya-bench --bin scheduler_runtime`

use ekya_bench::{save_json, Knobs, Table};
use ekya_core::{
    default_inference_grid, thief_schedule, RetrainConfig, RetrainProfile, SchedulerParams,
    StreamInput,
};
use ekya_nn::cost::CostModel;
use ekya_nn::fit::LearningCurve;
use ekya_video::StreamId;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    streams: usize,
    gpus: f64,
    configs: usize,
    evaluations: usize,
    runtime_ms: f64,
    fraction_of_window: f64,
}

/// Deterministic pseudo-random profile grid of the requested size.
fn profiles(n_configs: usize, seed: u64) -> Vec<RetrainProfile> {
    let mut x = seed.wrapping_add(1);
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..n_configs)
        .map(|i| RetrainProfile {
            config: RetrainConfig {
                epochs: [3u32, 10, 30][i % 3],
                batch_size: 32,
                last_layer_neurons: 16,
                layers_trained: 1 + (i as u32 % 3),
                data_fraction: [0.2f64, 0.5, 1.0][(i / 3) % 3],
            },
            curve: LearningCurve { a: 0.5 + next(), b: 1.0 + next(), c: 0.6 + 0.35 * next() },
            gpu_seconds_per_epoch: 0.5 + 4.0 * next(),
        })
        .collect()
}

fn main() {
    let seed = Knobs::from_env().seed;
    let infer = ekya_core::build_inference_profiles(
        &CostModel::default(),
        1.0,
        30.0,
        &default_inference_grid(),
    );

    let shapes: Vec<(usize, f64, usize)> = vec![
        (2, 1.0, 18),
        (4, 2.0, 18),
        (10, 8.0, 18), // the paper's §6.3 shape
        (10, 8.0, 54),
        (20, 8.0, 18),
        (40, 16.0, 18),
        // Fleet scale: many cameras per edge server.
        (100, 16.0, 18),
        (200, 16.0, 18),
        (400, 32.0, 18),
    ];

    let mut rows = Vec::new();
    for &(n, gpus, n_cfg) in &shapes {
        let per_stream: Vec<Vec<RetrainProfile>> =
            (0..n).map(|s| profiles(n_cfg, seed.wrapping_add(s as u64))).collect();
        let inputs: Vec<StreamInput> = (0..n)
            .map(|s| StreamInput {
                id: StreamId(s as u32),
                serving_accuracy: 0.35 + 0.04 * (s % 8) as f64,
                retrain_profiles: &per_stream[s],
                infer_profiles: &infer,
                in_progress: None,
            })
            .collect();
        let params = SchedulerParams::new(gpus);
        // Warm once, then measure.
        let schedule = thief_schedule(&inputs, 200.0, &params);
        if schedule.total_allocated() > gpus + 1e-9 {
            eprintln!(
                "[scheduler_runtime: {n} streams on {gpus} GPUs over-allocated: {} GPUs]",
                schedule.total_allocated()
            );
            std::process::exit(1);
        }
        let reps = 10;
        let started = Instant::now();
        for _ in 0..reps {
            let _ = thief_schedule(&inputs, 200.0, &params);
        }
        let runtime = started.elapsed().as_secs_f64() / reps as f64;
        rows.push(Row {
            streams: n,
            gpus,
            configs: n_cfg,
            evaluations: schedule.evaluations,
            runtime_ms: runtime * 1e3,
            fraction_of_window: runtime / 200.0,
        });
    }

    let mut t = Table::new(
        "§6.3 — thief scheduler decision latency",
        &[
            "streams",
            "GPUs",
            "configs",
            "PickConfigs evals",
            "runtime (ms)",
            "fraction of 200 s window",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.streams.to_string(),
            format!("{}", r.gpus),
            r.configs.to_string(),
            r.evaluations.to_string(),
            format!("{:.3}", r.runtime_ms),
            format!("{:.2e}", r.fraction_of_window),
        ]);
    }
    t.print();
    let paper_shape = rows.iter().find(|r| r.streams == 10 && r.configs == 18).unwrap();
    let largest = rows.iter().max_by_key(|r| r.streams).unwrap();
    println!(
        "\nPaper's shape (10 streams, 8 GPUs, 18 configs): {:.3} ms here ({:.2e} of the 200 s \
         window) vs 9.4 s in the paper's Python. Largest shape ({} streams, {} GPUs, {} \
         configs): {:.3} ms, {:.2e} of the window.",
        paper_shape.runtime_ms,
        paper_shape.fraction_of_window,
        largest.streams,
        largest.gpus,
        largest.configs,
        largest.runtime_ms,
        largest.fraction_of_window
    );

    save_json("scheduler_runtime", &rows);
}
