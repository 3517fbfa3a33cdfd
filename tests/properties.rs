//! Property-based tests (proptest) over the core invariants.

use ekya::core::{
    default_inference_grid, estimate_window, pick_configs_fixed, thief_schedule, EstimateParams,
    InferenceProfile, RetrainConfig, RetrainProfile, RetrainWork, SchedulerParams, StreamInput,
};
use ekya::nn::{nnls, CostModel, LearningCurve};
use ekya::sim::{quantize_inv_pow2, Timeline};
use ekya::video::StreamId;
use proptest::prelude::*;

fn arb_curve() -> impl Strategy<Value = LearningCurve> {
    (0.01f64..5.0, 0.5f64..10.0, 0.2f64..1.0).prop_map(|(a, b, c)| LearningCurve { a, b, c })
}

proptest! {
    /// Learning curves are monotone non-decreasing and bounded by [0, 1].
    #[test]
    fn curve_monotone_bounded(curve in arb_curve(), k1 in 0.0f64..100.0, k2 in 0.0f64..100.0) {
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        let v1 = curve.predict(lo);
        let v2 = curve.predict(hi);
        prop_assert!(v1 <= v2 + 1e-12);
        prop_assert!((0.0..=1.0).contains(&v1));
        prop_assert!((0.0..=1.0).contains(&v2));
    }

    /// Fitting any set of valid observations yields a usable curve.
    #[test]
    fn curve_fit_never_panics(
        points in prop::collection::vec((0.0f64..30.0, 0.0f64..=1.0), 0..12)
    ) {
        let c = LearningCurve::fit(&points);
        prop_assert!(c.predict(10.0).is_finite());
    }

    /// NNLS solutions are always element-wise non-negative and never
    /// worse than the zero vector.
    #[test]
    fn nnls_nonnegative_and_sane(
        rows in prop::collection::vec(
            (prop::collection::vec(-3.0f64..3.0, 2), -3.0f64..3.0), 1..10)
    ) {
        let a: Vec<Vec<f64>> = rows.iter().map(|(r, _)| r.clone()).collect();
        let y: Vec<f64> = rows.iter().map(|(_, v)| *v).collect();
        let x = nnls(&a, &y);
        prop_assert_eq!(x.len(), 2);
        for v in &x {
            prop_assert!(*v >= 0.0);
        }
        let res = |xv: &[f64]| -> f64 {
            a.iter().zip(&y).map(|(row, &yi)| {
                let p: f64 = row.iter().zip(xv).map(|(&ai, &xi)| ai * xi).sum();
                (p - yi).powi(2)
            }).sum()
        };
        prop_assert!(res(&x) <= res(&[0.0, 0.0]) + 1e-6);
    }

    /// The estimator's average accuracy is always within [min observed
    /// accuracy, 1] and the duration math is consistent.
    #[test]
    fn estimator_outputs_bounded(
        curve in arb_curve(),
        serving in 0.0f64..1.0,
        gpu_seconds in 0.1f64..500.0,
        train_alloc in 0.0f64..4.0,
        infer_alloc in 0.05f64..4.0,
    ) {
        let infer = InferenceProfile {
            config: ekya::core::InferenceConfig { frame_sampling: 0.5, resolution: 1.0 },
            accuracy_factor: 0.9,
            gpu_demand: 0.05,
        };
        let work = RetrainWork {
            curve: &curve,
            k_total: 10.0,
            k_done: 0.0,
            gpu_seconds_remaining: gpu_seconds,
        };
        let est = estimate_window(
            Some(&work), serving, &infer, None, train_alloc, infer_alloc, 200.0,
            &EstimateParams::default(),
        ).expect("inference fits");
        prop_assert!(est.avg_accuracy >= 0.0 && est.avg_accuracy <= 1.0);
        prop_assert!(est.min_accuracy <= est.avg_accuracy + 1e-9);
        prop_assert!(est.end_model_accuracy + 1e-12 >= serving.clamp(0.0, 1.0));
        if est.completes && train_alloc > 0.0 {
            prop_assert!(est.retrain_duration_secs <= 200.0 + 1e-6);
        }
    }

    /// The thief scheduler never over-allocates the GPU budget and its
    /// objective never falls below the no-stealing floor it starts from:
    /// Algorithm 1's fair allocation with `PickConfigs` applied to it.
    #[test]
    fn thief_respects_budget(
        total_gpus in 0.5f64..8.0,
        n in 1usize..=12,
        n_profiles in 0usize..=2,
        serving in 0.2f64..0.9,
        asymptote in 0.5f64..1.0,
    ) {
        let infer = ekya::core::build_inference_profiles(
            &CostModel::default(), 1.0, 30.0, &default_inference_grid());
        // Empty for some cases: retraining cannot be chosen at all.
        let profiles: Vec<RetrainProfile> = (0..n_profiles).map(|i| RetrainProfile {
            config: RetrainConfig {
                epochs: 10, batch_size: 32, last_layer_neurons: 16,
                layers_trained: 3, data_fraction: 1.0,
            },
            curve: LearningCurve { a: 1.0, b: 2.0, c: asymptote },
            gpu_seconds_per_epoch: 3.0 * (1 + i) as f64,
        }).collect();
        let streams: Vec<StreamInput> = (0..n).map(|i| StreamInput {
            id: StreamId(i as u32),
            serving_accuracy: serving,
            retrain_profiles: &profiles,
            infer_profiles: &infer,
            in_progress: None,
        }).collect();
        let params = SchedulerParams::new(total_gpus);
        let schedule = thief_schedule(&streams, 200.0, &params);
        prop_assert!(schedule.total_allocated() <= total_gpus + 1e-6);
        for d in &schedule.decisions {
            prop_assert!(d.train_gpus >= 0.0);
            prop_assert!(d.infer_gpus >= 0.0);
        }

        // Algorithm 1's fair start in milli-GPU units: floor(G / 1e-3)
        // units split evenly over the 2n jobs, remainder to the first.
        let units = (total_gpus / 1e-3).floor() as usize;
        let job_gpus = |job: usize| {
            (units / (2 * n) + usize::from(job < units % (2 * n))) as f64 * 1e-3
        };
        let fair: Vec<(f64, f64)> =
            (0..n).map(|s| (job_gpus(2 * s), job_gpus(2 * s + 1))).collect();
        let floor = pick_configs_fixed(&streams, &fair, 200.0, &params).avg_accuracy;
        prop_assert!(
            schedule.avg_accuracy >= floor - 1e-12,
            "thief {} fell below its fair start {floor}", schedule.avg_accuracy
        );
    }

    /// GPU quantisation never increases the demand (so packing a set of
    /// quantised jobs never exceeds the original budget) and lands on the
    /// supported grid.
    #[test]
    fn quantisation_sound(alloc in 0.0f64..16.0) {
        let q = quantize_inv_pow2(alloc);
        prop_assert!(q >= 0.0);
        if alloc >= 0.125 {
            prop_assert!(q <= alloc + 1e-12);
        }
        if q > 0.0 && q < 1.0 {
            prop_assert!([0.5, 0.25, 0.125].contains(&q));
        } else if q >= 1.0 {
            prop_assert!((q.fract()).abs() < 1e-12);
        }
    }

    /// Timeline averages always lie between the minimum and maximum
    /// values set on the timeline.
    #[test]
    fn timeline_average_bounded(
        values in prop::collection::vec(0.0f64..1.0, 1..20),
    ) {
        let mut t = Timeline::new(0.0, values[0]);
        for (i, v) in values.iter().enumerate().skip(1) {
            t.set(i as f64 * 10.0, *v);
        }
        let horizon = values.len() as f64 * 10.0;
        let avg = t.average(0.0, horizon);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(avg >= min - 1e-9 && avg <= max + 1e-9);
    }
}
