//! Property tests over the core invariants. Each property is a seeded
//! loop: [`CASES`] random cases, each drawn from its own `StdRng` seeded
//! from the property's name and the case number, so every run checks the
//! same cases and a failure names the case that broke.

use ekya::core::{
    default_inference_grid, estimate_window, fnv1a, pick_configs_fixed, thief_schedule,
    EstimateParams, InferenceProfile, RetrainConfig, RetrainProfile, RetrainWork, SchedulerParams,
    StreamInput,
};
use ekya::nn::{nnls, CostModel, LearningCurve};
use ekya::sim::{quantize_inv_pow2, Timeline};
use ekya::video::StreamId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases per property.
const CASES: u64 = 256;

/// Runs `check(case, rng)` for every case of the property `name`.
fn for_cases(name: &str, mut check: impl FnMut(u64, &mut StdRng)) {
    let salt = fnv1a(name.as_bytes());
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(salt ^ case.wrapping_mul(0x9E3779B97F4A7C15));
        check(case, &mut rng);
    }
}

fn arb_curve(rng: &mut StdRng) -> LearningCurve {
    LearningCurve {
        a: rng.gen_range(0.01..5.0),
        b: rng.gen_range(0.5..10.0),
        c: rng.gen_range(0.2..1.0),
    }
}

/// Learning curves are monotone non-decreasing and bounded by [0, 1].
#[test]
fn curve_monotone_bounded() {
    for_cases("curve_monotone_bounded", |case, rng| {
        let curve = arb_curve(rng);
        let (k1, k2): (f64, f64) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        let v1 = curve.predict(k1.min(k2));
        let v2 = curve.predict(k1.max(k2));
        assert!(v1 <= v2 + 1e-12, "case {case}: {curve:?} falls from {v1} to {v2}");
        assert!((0.0..=1.0).contains(&v1) && (0.0..=1.0).contains(&v2), "case {case}");
    });
}

/// Fitting any set of valid observations yields a usable curve.
#[test]
fn curve_fit_never_panics() {
    for_cases("curve_fit_never_panics", |case, rng| {
        let len = rng.gen_range(0..12);
        let points: Vec<(f64, f64)> =
            (0..len).map(|_| (rng.gen_range(0.0..30.0), rng.gen_range(0.0..=1.0))).collect();
        let c = LearningCurve::fit(&points);
        assert!(c.predict(10.0).is_finite(), "case {case}: {points:?}");
    });
}

/// NNLS solutions are always element-wise non-negative and never worse
/// than the zero vector.
#[test]
fn nnls_nonnegative_and_sane() {
    for_cases("nnls_nonnegative_and_sane", |case, rng| {
        let rows = rng.gen_range(1..10);
        let a: Vec<[f64; 2]> =
            (0..rows).map(|_| [rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)]).collect();
        let y: Vec<f64> = (0..rows).map(|_| rng.gen_range(-3.0..3.0)).collect();
        // One entry per column: the fixed-width solver's return type says so.
        let x: [f64; 2] = nnls(&a, &y);
        assert!(x.iter().all(|&v| v >= 0.0), "case {case}: {x:?}");
        let res = |xv: &[f64]| -> f64 {
            a.iter()
                .zip(&y)
                .map(|(row, &yi)| {
                    let p: f64 = row.iter().zip(xv).map(|(&ai, &xi)| ai * xi).sum();
                    (p - yi).powi(2)
                })
                .sum()
        };
        assert!(res(&x) <= res(&[0.0, 0.0]) + 1e-6, "case {case}: {x:?}");
    });
}

/// The estimator's average accuracy is always within [min observed
/// accuracy, 1] and the duration math is consistent.
#[test]
fn estimator_outputs_bounded() {
    let infer = InferenceProfile {
        config: ekya::core::InferenceConfig { frame_sampling: 0.5, resolution: 1.0 },
        accuracy_factor: 0.9,
        gpu_demand: 0.05,
    };
    for_cases("estimator_outputs_bounded", |case, rng| {
        let curve = arb_curve(rng);
        let serving: f64 = rng.gen_range(0.0..1.0);
        let work = RetrainWork {
            curve: &curve,
            k_total: 10.0,
            k_done: 0.0,
            gpu_seconds_remaining: rng.gen_range(0.1..500.0),
        };
        let train_alloc = rng.gen_range(0.0..4.0);
        let infer_alloc = rng.gen_range(0.05..4.0);
        let est = estimate_window(
            Some(&work),
            serving,
            &infer,
            None,
            train_alloc,
            infer_alloc,
            200.0,
            &EstimateParams::default(),
        )
        .expect("inference fits");
        assert!(est.avg_accuracy >= 0.0 && est.avg_accuracy <= 1.0, "case {case}");
        assert!(est.min_accuracy <= est.avg_accuracy + 1e-9, "case {case}");
        assert!(est.end_model_accuracy + 1e-12 >= serving.clamp(0.0, 1.0), "case {case}");
        if est.completes && train_alloc > 0.0 {
            assert!(est.retrain_duration_secs <= 200.0 + 1e-6, "case {case}");
        }
    });
}

/// The thief scheduler never over-allocates the GPU budget and its
/// objective never falls below the no-stealing floor it starts from:
/// Algorithm 1's fair allocation with `PickConfigs` applied to it.
#[test]
fn thief_respects_budget() {
    let infer = ekya::core::build_inference_profiles(
        &CostModel::default(),
        1.0,
        30.0,
        &default_inference_grid(),
    );
    for_cases("thief_respects_budget", |case, rng| {
        let total_gpus = rng.gen_range(0.5..8.0);
        let n = rng.gen_range(1..=12);
        let serving = rng.gen_range(0.2..0.9);
        let asymptote = rng.gen_range(0.5..1.0);
        // Empty for some cases: retraining cannot be chosen at all.
        let profiles: Vec<RetrainProfile> = (0..rng.gen_range(0..=2))
            .map(|i| RetrainProfile {
                config: RetrainConfig {
                    epochs: 10,
                    batch_size: 32,
                    last_layer_neurons: 16,
                    layers_trained: 3,
                    data_fraction: 1.0,
                },
                curve: LearningCurve { a: 1.0, b: 2.0, c: asymptote },
                gpu_seconds_per_epoch: 3.0 * (1 + i) as f64,
            })
            .collect();
        let streams: Vec<StreamInput> = (0..n)
            .map(|i| StreamInput {
                id: StreamId(i as u32),
                serving_accuracy: serving,
                retrain_profiles: &profiles,
                infer_profiles: &infer,
                in_progress: None,
            })
            .collect();
        let params = SchedulerParams::new(total_gpus);
        let schedule = thief_schedule(&streams, 200.0, &params);
        assert!(schedule.total_allocated() <= total_gpus + 1e-6, "case {case}");
        for d in &schedule.decisions {
            assert!(d.train_gpus >= 0.0 && d.infer_gpus >= 0.0, "case {case}: {d:?}");
        }

        // Algorithm 1's fair start in milli-GPU units: floor(G / 1e-3)
        // units split evenly over the 2n jobs, remainder to the first.
        let units = (total_gpus / 1e-3).floor() as usize;
        let job_gpus =
            |job: usize| (units / (2 * n) + usize::from(job < units % (2 * n))) as f64 * 1e-3;
        let fair: Vec<(f64, f64)> =
            (0..n).map(|s| (job_gpus(2 * s), job_gpus(2 * s + 1))).collect();
        let floor = pick_configs_fixed(&streams, &fair, 200.0, &params).avg_accuracy;
        assert!(
            schedule.avg_accuracy >= floor - 1e-12,
            "case {case}: thief {} fell below its fair start {floor}",
            schedule.avg_accuracy
        );
    });
}

/// GPU quantisation never increases the demand (so packing a set of
/// quantised jobs never exceeds the original budget) and lands on the
/// supported grid.
#[test]
fn quantisation_sound() {
    for_cases("quantisation_sound", |case, rng| {
        let alloc = rng.gen_range(0.0..16.0);
        let q = quantize_inv_pow2(alloc);
        assert!(q >= 0.0, "case {case}: {alloc} -> {q}");
        if alloc >= 0.125 {
            assert!(q <= alloc + 1e-12, "case {case}: {alloc} -> {q}");
        }
        if q > 0.0 && q < 1.0 {
            assert!([0.5, 0.25, 0.125].contains(&q), "case {case}: {alloc} -> {q}");
        } else if q >= 1.0 {
            assert!(q.fract().abs() < 1e-12, "case {case}: {alloc} -> {q}");
        }
    });
}

/// Timeline averages always lie between the minimum and maximum values
/// set on the timeline.
#[test]
fn timeline_average_bounded() {
    for_cases("timeline_average_bounded", |case, rng| {
        let values: Vec<f64> = (0..rng.gen_range(1..20)).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut t = Timeline::new(0.0, values[0]);
        for (i, v) in values.iter().enumerate().skip(1) {
            t.set(i as f64 * 10.0, *v);
        }
        let avg = t.average(0.0, values.len() as f64 * 10.0);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(avg >= min - 1e-9 && avg <= max + 1e-9, "case {case}: {values:?}");
    });
}
