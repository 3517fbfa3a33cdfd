//! Window-averaged accuracy estimation (`EstimateAccuracy` in Algorithm 2).
//!
//! Ekya's headline metric is **inference accuracy averaged over the
//! retraining window** (§1, contribution 1): while a model retrains, the
//! old model keeps serving (possibly hot-swapped at checkpoints, §5); when
//! retraining completes, the improved model serves for the remainder of
//! the window. This module integrates that piecewise-constant accuracy
//! timeline for a candidate (retraining work, inference configuration,
//! GPU allocation) triple, scaling retraining time linearly with the
//! allocation exactly as the micro-profiler's measurements allow (§4.3,
//! opportunity (i)).

use crate::profile::InferenceProfile;
use ekya_nn::fit::LearningCurve;
use serde::{Deserialize, Serialize};

/// Description of (remaining) retraining work for one stream.
///
/// At window start `k_done = 0`; when the scheduler re-runs mid-window
/// (on another job's completion, §4.2), `k_done` reflects progress and
/// `gpu_seconds_remaining` the cost still to pay.
#[derive(Debug, Clone)]
pub struct RetrainWork<'a> {
    /// Accuracy learning curve over full-pool epoch equivalents.
    pub curve: &'a LearningCurve,
    /// Total `k` this configuration trains to.
    pub k_total: f64,
    /// Progress already made, in `k` units.
    pub k_done: f64,
    /// GPU-seconds still required at 100% allocation.
    pub gpu_seconds_remaining: f64,
}

/// Estimation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimateParams {
    /// Minimum instantaneous inference accuracy the application requires
    /// (`a_MIN`; 0.4 in the paper's Fig 4 example).
    pub a_min: f64,
    /// When set, the retraining job checkpoints every `Δk` of progress and
    /// the serving model is hot-swapped if the checkpoint is better (§5).
    pub checkpoint_every_k: Option<f64>,
}

impl Default for EstimateParams {
    fn default() -> Self {
        Self { a_min: 0.4, checkpoint_every_k: None }
    }
}

/// Result of estimating one candidate decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyEstimate {
    /// Inference accuracy averaged over the horizon (the objective).
    pub avg_accuracy: f64,
    /// Minimum instantaneous inference accuracy over the horizon (checked
    /// against `a_min`).
    pub min_accuracy: f64,
    /// Wall-clock seconds until retraining completes (0 when there is no
    /// retraining; may exceed the horizon — see [`Self::completes`]).
    pub retrain_duration_secs: f64,
    /// Model accuracy at the end of the horizon (before the inference
    /// configuration's accuracy factor).
    pub end_model_accuracy: f64,
    /// Whether the retraining completes within the horizon. Decisions
    /// whose retraining exceeds the window are rejected by the scheduler
    /// (first constraint of Eq. 1).
    pub completes: bool,
}

/// The highest-`accuracy_factor` profile that keeps up under `gpus`
/// (`gpu_demand <= gpus + 1e-9`); among equals the last one wins. `None`
/// when nothing keeps up.
pub fn best_feasible_infer<'a>(
    profiles: impl IntoIterator<Item = &'a InferenceProfile>,
    gpus: f64,
) -> Option<&'a InferenceProfile> {
    profiles.into_iter().filter(|p| p.gpu_demand <= gpus + 1e-9).max_by(|a, b| {
        a.accuracy_factor.partial_cmp(&b.accuracy_factor).unwrap_or(std::cmp::Ordering::Equal)
    })
}

/// Picks the highest-accuracy inference profile that keeps up under
/// `alloc`, preferring those whose delivered accuracy
/// (`model_accuracy x accuracy_factor`) meets `a_min`. Returns the index
/// into `profiles`, or `None` when nothing keeps up.
pub fn pick_best_infer(
    profiles: &[InferenceProfile],
    alloc: f64,
    model_accuracy: f64,
    a_min: f64,
) -> Option<usize> {
    const EPS: f64 = 1e-9;
    let feasible: Vec<usize> =
        (0..profiles.len()).filter(|&i| profiles[i].gpu_demand <= alloc + EPS).collect();
    if feasible.is_empty() {
        return None;
    }
    let best_by_af = |candidates: &[usize]| -> usize {
        *candidates
            .iter()
            .max_by(|&&a, &&b| {
                profiles[a]
                    .accuracy_factor
                    .partial_cmp(&profiles[b].accuracy_factor)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Tie-break: prefer lower GPU demand.
                    .then_with(|| {
                        profiles[b]
                            .gpu_demand
                            .partial_cmp(&profiles[a].gpu_demand)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
            })
            .expect("non-empty candidates")
    };
    let meets_floor: Vec<usize> = feasible
        .iter()
        .copied()
        .filter(|&i| model_accuracy * profiles[i].accuracy_factor >= a_min - EPS)
        .collect();
    Some(if meets_floor.is_empty() { best_by_af(&feasible) } else { best_by_af(&meets_floor) })
}

/// Estimates the average inference accuracy over `horizon_secs`.
///
/// Returns `None` when the inference job cannot keep up with the live
/// stream under `infer_alloc` (the configuration is infeasible at this
/// allocation — Algorithm 2 line 3 filters these).
///
/// `serving_accuracy` is the accuracy of the currently deployed model on
/// the current window's data (i.e. *after* any drift-induced drop).
///
/// `infer_after` is the inference configuration used *after* retraining
/// completes: the scheduler re-runs on every completion (§4.2), returning
/// the training job's GPUs to inference, so the post-retraining phase can
/// run a richer configuration. Pass `None` to keep `infer` throughout
/// (e.g. when there is no retraining).
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's parameter list
pub fn estimate_window(
    work: Option<&RetrainWork<'_>>,
    serving_accuracy: f64,
    infer: &InferenceProfile,
    infer_after: Option<&InferenceProfile>,
    train_alloc: f64,
    infer_alloc: f64,
    horizon_secs: f64,
    params: &EstimateParams,
) -> Option<AccuracyEstimate> {
    const EPS: f64 = 1e-9;
    if infer.gpu_demand > infer_alloc + EPS {
        return None; // cannot keep up with the live stream
    }
    let af = infer.accuracy_factor;
    // The post-completion configuration may use the reclaimed training
    // GPUs; it must keep up under the combined allocation.
    let af_after = match infer_after {
        Some(p) if p.gpu_demand <= infer_alloc + train_alloc + EPS => p.accuracy_factor.max(af),
        _ => af,
    };
    let horizon = horizon_secs.max(EPS);
    let serving = serving_accuracy.clamp(0.0, 1.0);

    let Some(work) = work else {
        return Some(AccuracyEstimate {
            avg_accuracy: serving * af,
            min_accuracy: serving * af,
            retrain_duration_secs: 0.0,
            end_model_accuracy: serving,
            completes: true,
        });
    };

    if work.gpu_seconds_remaining <= EPS {
        // Work already complete: the retrained model serves throughout.
        let post = work.curve.predict(work.k_total).max(serving);
        return Some(AccuracyEstimate {
            avg_accuracy: post * af_after,
            min_accuracy: post * af_after,
            retrain_duration_secs: 0.0,
            end_model_accuracy: post,
            completes: true,
        });
    }

    if train_alloc <= EPS {
        // Retraining never progresses; the stale model serves throughout.
        return Some(AccuracyEstimate {
            avg_accuracy: serving * af,
            min_accuracy: serving * af,
            retrain_duration_secs: f64::INFINITY,
            end_model_accuracy: serving,
            completes: false,
        });
    }

    let duration = work.gpu_seconds_remaining / train_alloc;
    let completes = duration <= horizon + EPS;
    let post = work.curve.predict(work.k_total);

    // Build the piecewise-constant inference-accuracy timeline.
    // Segments: (duration_secs, model_accuracy, accuracy_factor).
    let mut segments: Vec<(f64, f64, f64)> = Vec::new();
    let train_end = duration.min(horizon);
    match params.checkpoint_every_k {
        Some(dk) if dk > EPS && completes => {
            // Checkpoints at k = k_done + i*dk while < k_total; swap only
            // when the checkpoint beats the currently-serving model.
            let k_span = (work.k_total - work.k_done).max(EPS);
            let mut current = serving;
            let mut t_prev = 0.0;
            let mut i = 1u32;
            loop {
                let k = work.k_done + f64::from(i) * dk;
                if k >= work.k_total {
                    break;
                }
                let t = train_end * (k - work.k_done) / k_span;
                if t >= train_end {
                    break;
                }
                segments.push((t - t_prev, current, af));
                current = current.max(work.curve.predict(k));
                t_prev = t;
                i += 1;
            }
            segments.push((train_end - t_prev, current, af));
        }
        _ => {
            segments.push((train_end, serving, af));
        }
    }
    if completes {
        // Retrained model serves for the rest of the window (deployed only
        // if it improves on the serving one) under the post-completion
        // inference configuration.
        segments.push((horizon - train_end, post.max(serving), af_after));
    }

    let total_time: f64 = segments.iter().map(|s| s.0).sum();
    debug_assert!((total_time - horizon).abs() < 1e-6 * horizon.max(1.0) + 1e-6);
    let integral: f64 = segments.iter().map(|(dt, acc, f)| dt * acc * f).sum();
    let min_acc = segments
        .iter()
        .filter(|(dt, _, _)| *dt > EPS)
        .map(|&(_, acc, f)| acc * f)
        .fold(f64::INFINITY, f64::min);
    let end_model = if completes { post.max(serving) } else { serving };

    Some(AccuracyEstimate {
        avg_accuracy: integral / horizon,
        min_accuracy: if min_acc.is_finite() { min_acc } else { serving * af },
        retrain_duration_secs: duration,
        end_model_accuracy: end_model,
        completes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InferenceConfig;

    fn infer_profile(demand: f64, af: f64) -> InferenceProfile {
        InferenceProfile {
            config: InferenceConfig { frame_sampling: 1.0, resolution: 1.0 },
            accuracy_factor: af,
            gpu_demand: demand,
        }
    }

    fn curve() -> LearningCurve {
        // predict(0) ~ 0.5, rises to ~0.9.
        LearningCurve { a: 1.0, b: 2.5, c: 0.9 }
    }

    #[test]
    fn infeasible_inference_returns_none() {
        let c = curve();
        let work =
            RetrainWork { curve: &c, k_total: 10.0, k_done: 0.0, gpu_seconds_remaining: 50.0 };
        let est = estimate_window(
            Some(&work),
            0.5,
            &infer_profile(0.5, 1.0),
            None,
            1.0,
            0.25, // less than the 0.5 demand
            200.0,
            &EstimateParams::default(),
        );
        assert!(est.is_none());
    }

    #[test]
    fn no_retraining_is_flat() {
        let est = estimate_window(
            None,
            0.6,
            &infer_profile(0.25, 0.9),
            None,
            0.0,
            0.5,
            200.0,
            &EstimateParams::default(),
        )
        .unwrap();
        assert!((est.avg_accuracy - 0.54).abs() < 1e-9);
        assert!((est.min_accuracy - 0.54).abs() < 1e-9);
        assert!(est.completes);
        assert_eq!(est.retrain_duration_secs, 0.0);
    }

    #[test]
    fn retraining_splits_window() {
        let c = curve();
        // 50 GPU-s at alloc 1.0 -> 50 s of a 200 s window at serving 0.5,
        // then post accuracy for 150 s.
        let work =
            RetrainWork { curve: &c, k_total: 10.0, k_done: 0.0, gpu_seconds_remaining: 50.0 };
        let est = estimate_window(
            Some(&work),
            0.5,
            &infer_profile(0.25, 1.0),
            None,
            1.0,
            0.5,
            200.0,
            &EstimateParams::default(),
        )
        .unwrap();
        let post = c.predict(10.0);
        let expected = (50.0 * 0.5 + 150.0 * post) / 200.0;
        assert!((est.avg_accuracy - expected).abs() < 1e-9);
        assert!(est.completes);
        assert!((est.retrain_duration_secs - 50.0).abs() < 1e-9);
        assert!((est.end_model_accuracy - post).abs() < 1e-9);
        assert!((est.min_accuracy - 0.5).abs() < 1e-9);
    }

    #[test]
    fn more_allocation_finishes_sooner_and_scores_higher() {
        let c = curve();
        let work =
            RetrainWork { curve: &c, k_total: 10.0, k_done: 0.0, gpu_seconds_remaining: 80.0 };
        let p = infer_profile(0.1, 1.0);
        let params = EstimateParams::default();
        let slow = estimate_window(Some(&work), 0.5, &p, None, 0.5, 0.5, 200.0, &params).unwrap();
        let fast = estimate_window(Some(&work), 0.5, &p, None, 1.0, 0.5, 200.0, &params).unwrap();
        assert!(fast.avg_accuracy > slow.avg_accuracy);
        assert!(fast.retrain_duration_secs < slow.retrain_duration_secs);
    }

    #[test]
    fn overlong_retraining_marked_incomplete() {
        let c = curve();
        let work =
            RetrainWork { curve: &c, k_total: 10.0, k_done: 0.0, gpu_seconds_remaining: 500.0 };
        let est = estimate_window(
            Some(&work),
            0.5,
            &infer_profile(0.1, 1.0),
            None,
            1.0,
            0.5,
            200.0,
            &EstimateParams::default(),
        )
        .unwrap();
        assert!(!est.completes);
        // The whole window is served by the stale model.
        assert!((est.avg_accuracy - 0.5).abs() < 1e-9);
        assert!((est.end_model_accuracy - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_train_alloc_never_completes() {
        let c = curve();
        let work =
            RetrainWork { curve: &c, k_total: 10.0, k_done: 0.0, gpu_seconds_remaining: 10.0 };
        let est = estimate_window(
            Some(&work),
            0.5,
            &infer_profile(0.1, 1.0),
            None,
            0.0,
            0.5,
            200.0,
            &EstimateParams::default(),
        )
        .unwrap();
        assert!(!est.completes);
        assert!(est.retrain_duration_secs.is_infinite());
    }

    #[test]
    fn checkpointing_improves_average() {
        let c = curve();
        let work =
            RetrainWork { curve: &c, k_total: 10.0, k_done: 0.0, gpu_seconds_remaining: 100.0 };
        let p = infer_profile(0.1, 1.0);
        let without = estimate_window(
            Some(&work),
            0.4,
            &p,
            None,
            1.0,
            0.5,
            200.0,
            &EstimateParams { a_min: 0.0, checkpoint_every_k: None },
        )
        .unwrap();
        let with = estimate_window(
            Some(&work),
            0.4,
            &p,
            None,
            1.0,
            0.5,
            200.0,
            &EstimateParams { a_min: 0.0, checkpoint_every_k: Some(2.0) },
        )
        .unwrap();
        assert!(
            with.avg_accuracy > without.avg_accuracy,
            "checkpoint swaps should raise the average: {} vs {}",
            with.avg_accuracy,
            without.avg_accuracy
        );
        // End state identical.
        assert!((with.end_model_accuracy - without.end_model_accuracy).abs() < 1e-9);
    }

    #[test]
    fn degrading_retrain_is_not_deployed() {
        // A curve whose asymptote is below the serving accuracy: the end
        // accuracy must not drop (the system keeps the better model).
        let c = LearningCurve { a: 1.0, b: 2.0, c: 0.55 };
        let work =
            RetrainWork { curve: &c, k_total: 10.0, k_done: 0.0, gpu_seconds_remaining: 20.0 };
        let est = estimate_window(
            Some(&work),
            0.7,
            &infer_profile(0.1, 1.0),
            None,
            1.0,
            0.5,
            200.0,
            &EstimateParams::default(),
        )
        .unwrap();
        assert!((est.end_model_accuracy - 0.7).abs() < 1e-9);
    }

    #[test]
    fn work_already_complete_serves_post_model() {
        let c = curve();
        let work =
            RetrainWork { curve: &c, k_total: 10.0, k_done: 10.0, gpu_seconds_remaining: 0.0 };
        let est = estimate_window(
            Some(&work),
            0.5,
            &infer_profile(0.1, 1.0),
            None,
            0.0,
            0.5,
            200.0,
            &EstimateParams::default(),
        )
        .unwrap();
        assert!(est.completes);
        assert!((est.avg_accuracy - c.predict(10.0)).abs() < 1e-9);
    }

    #[test]
    fn accuracy_factor_scales_everything() {
        let est_full = estimate_window(
            None,
            0.8,
            &infer_profile(0.1, 1.0),
            None,
            0.0,
            0.5,
            100.0,
            &EstimateParams::default(),
        )
        .unwrap();
        let est_half = estimate_window(
            None,
            0.8,
            &infer_profile(0.1, 0.5),
            None,
            0.0,
            0.5,
            100.0,
            &EstimateParams::default(),
        )
        .unwrap();
        assert!((est_half.avg_accuracy * 2.0 - est_full.avg_accuracy).abs() < 1e-9);
    }
}
