//! Figure 10 — effect of the allocation quantum Δ on the thief scheduler.
//!
//! Finer Δ explores allocations more finely (the paper gains ~8% going
//! from Δ=1.0 to Δ=0.1) at the cost of scheduler runtime — which must
//! stay a tiny fraction of the 200-second window (9.5 s in the paper's
//! Python at Δ=0.1; Rust is orders of magnitude faster).
//!
//! Accuracy comes from a harness grid of mechanistic runs (GPUs × Δ, via
//! `PolicySpec::EkyaDelta`); runtime from timing `thief_schedule`
//! serially on profiles micro-profiled from the same workload (timing is
//! the one thing a busy worker pool would distort). The harness report
//! lands in `results/fig10_delta.json`, the derived Δ-sensitivity points
//! in `results/fig10_delta_points.json`. `EKYA_SHARD=i/N` runs one slice
//! of the grid (merge with `grid_merge`); `EKYA_RESUME=1` continues a
//! killed run.
//!
//! Run: `cargo run --release -p ekya-bench --bin fig10_delta`
//! Knobs: EKYA_WINDOWS (default 4), EKYA_STREAMS (default 10),
//!        EKYA_WORKERS, EKYA_SHARD, EKYA_RESUME
//!        (see crates/ekya-bench/README.md).

use ekya_baselines::PolicySpec;
use ekya_bench::{f3, fig10_grid, run_grid_bin, save_json, Knobs, Table, FIG10_DELTAS, FIG10_GPUS};
use ekya_core::{thief_schedule, SchedulerParams, StreamInput, StreamLearner};
use ekya_nn::mlp::{Mlp, MlpArch};
use ekya_sim::RunnerConfig;
use ekya_video::{DatasetKind, StreamSet};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    gpus: f64,
    delta: f64,
    accuracy: f64,
    scheduler_runtime_secs: f64,
    runtime_fraction_of_window: f64,
    evaluations: usize,
}

const DELTAS: [f64; 4] = FIG10_DELTAS;
const GPU_AXIS: [f64; 2] = FIG10_GPUS;

fn main() {
    let knobs = Knobs::from_env();
    let windows = knobs.windows(4);
    let num_streams = knobs.streams(10);
    let seed = knobs.seed();
    let kind = DatasetKind::Cityscapes;

    // ---- Accuracy: a (GPUs × Δ) grid of full mechanistic runs. ----
    // The grid definition is shared with the orchestrator's planner and
    // worker (`ekya_bench::bins`).
    let grid = fig10_grid(windows, num_streams, seed);
    let run = run_grid_bin("fig10_delta", &grid, &knobs);
    let report = &run.report;
    if !report.is_complete() {
        println!(
            "[shard report: {} of {} cells — the Δ table needs the whole grid; \
             merge the shards with `grid_merge` first]",
            report.cells.len(),
            report.total_cells
        );
        return;
    }

    // ---- Scheduler-runtime measurement input: real micro-profiles. ----
    // Seeded with the same mixed cell seed the accuracy grid uses, so
    // the runtime rows really are measured on the grid's workload.
    let workload_seed = ekya_bench::cell_seed(seed, kind, num_streams, windows);
    let cfg = RunnerConfig { seed: workload_seed, ..RunnerConfig::default() };
    let streams = StreamSet::generate(kind, num_streams, windows, workload_seed);
    let ds0 = streams.iter().next().unwrap().1;
    let model = Mlp::new(MlpArch::edge(ds0.feature_dim, ds0.num_classes, 16), workload_seed);
    let prep = StreamLearner::new(
        workload_seed,
        ds0.num_classes,
        cfg.teacher_error_rate,
        cfg.exemplar_per_class,
        cfg.profiler,
        cfg.cost.clone(),
    )
    .prepare(&model, ds0.window(0), &cfg.retrain_grid, Some(1));
    let profiles = prep.profile.expect("profile seed given").profiles;
    let serving = prep.serving_sys;
    let infer_profiles =
        ekya_core::build_inference_profiles(&cfg.cost, 1.0, 30.0, &cfg.inference_grid);
    let window_secs = ds0.spec.window_secs;

    let mut points = Vec::new();
    for &gpus in &GPU_AXIS {
        for &delta in &DELTAS {
            let params = SchedulerParams { delta, ..SchedulerParams::new(gpus) };
            let accuracy = report
                .accuracy_where(|c| {
                    c.scenario.gpus == gpus && c.scenario.policy == PolicySpec::EkyaDelta { delta }
                })
                .expect("grid covers every (gpus, delta)");

            // Runtime: time the thief on a realistic 10-stream input.
            let inputs: Vec<StreamInput> = (0..num_streams)
                .map(|i| StreamInput {
                    id: ekya_video::StreamId(i as u32),
                    serving_accuracy: (serving - 0.03 * (i % 4) as f64).max(0.1),
                    retrain_profiles: &profiles,
                    infer_profiles: &infer_profiles,
                    in_progress: None,
                })
                .collect();
            let reps = 5;
            let started = Instant::now();
            let mut evals = 0;
            for _ in 0..reps {
                evals = thief_schedule(&inputs, window_secs, &params).evaluations;
            }
            let runtime = started.elapsed().as_secs_f64() / reps as f64;

            points.push(Point {
                gpus,
                delta,
                accuracy,
                scheduler_runtime_secs: runtime,
                runtime_fraction_of_window: runtime / window_secs,
                evaluations: evals,
            });
        }
    }

    let mut t = Table::new(
        format!("Fig 10 — Δ sensitivity ({num_streams} streams)"),
        &["GPUs", "Δ", "accuracy", "PickConfigs evals", "sched runtime (s)", "fraction of window"],
    );
    for p in &points {
        t.row(vec![
            format!("{}", p.gpus),
            format!("{}", p.delta),
            f3(p.accuracy),
            p.evaluations.to_string(),
            format!("{:.5}", p.scheduler_runtime_secs),
            format!("{:.7}", p.runtime_fraction_of_window),
        ]);
    }
    t.print();

    for &gpus in &GPU_AXIS {
        let acc = |d: f64| points.iter().find(|p| p.gpus == gpus && p.delta == d).unwrap().accuracy;
        println!(
            "{} GPUs: Δ=0.1 vs Δ=1.0 accuracy {:+.1}% (paper: ~+8%); runtime remains \
             a negligible fraction of the 200 s window (paper: 4.7% at Δ=0.1 in Python)",
            gpus,
            (acc(0.1) - acc(1.0)) * 100.0
        );
    }

    save_json("fig10_delta_points", &points);
}
