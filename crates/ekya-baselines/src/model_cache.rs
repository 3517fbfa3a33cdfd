//! Cached-model reuse alternative (§6.5).
//!
//! Instead of retraining, pre-train and cache models from earlier windows
//! and, in each new window, deploy the cached model whose training-data
//! class distribution is nearest (Euclidean) to the current window's.
//! GPU cycles all go to inference. The paper finds this loses to Ekya
//! (0.72 vs 0.78) because "even though the class distributions may be
//! similar, the models cannot be directly reused from any window as the
//! appearances of objects may still differ considerably" — exactly the
//! appearance-drift component our workload generator models.

use ekya_core::{best_feasible_infer, richest_config, stream_seed, InferenceConfig, TrainHyper};
use ekya_nn::data::DataView;
use ekya_nn::golden::{distill_labels, OracleTeacher};
use ekya_nn::mlp::{Mlp, MlpArch};
use ekya_sim::{RunReport, RunnerConfig, StreamWindowReport, Timeline, WindowReport};
use ekya_video::{stats::nearest_distribution, StreamSet};

/// Runs the model-cache baseline.
///
/// Windows `0..pretrain_windows` build the cache (training one model per
/// window per stream, continuing from the previous — the paper's "a few
/// tens of DNNs from earlier retraining windows"); the remaining windows
/// are evaluated with cache lookups only and are the reported result.
pub fn run_model_cache(
    streams: &StreamSet,
    rc: &RunnerConfig,
    num_windows: usize,
    pretrain_windows: usize,
) -> RunReport {
    assert!(!streams.is_empty(), "need at least one stream");
    assert!(pretrain_windows >= 1, "need at least one cached model");
    assert!(num_windows > pretrain_windows, "need evaluation windows after the cache phase");
    let datasets: Vec<_> = streams.iter().collect();
    let n = datasets.len();
    let num_classes = datasets[0].1.num_classes;
    let window_secs = datasets[0].1.spec.window_secs;
    let full_config = richest_config(&rc.retrain_grid);

    let mut report = RunReport { policy: "Model cache".to_string(), windows: Vec::new() };
    // Per-stream cache: (class_dist, model).
    let mut caches: Vec<Vec<(Vec<f64>, Mlp)>> = vec![Vec::new(); n];

    // ---- Cache-building phase. ----
    for (s, (_, ds)) in datasets.iter().enumerate() {
        let seed = stream_seed(rc.seed, s);
        let mut teacher = OracleTeacher::new(rc.teacher_error_rate, num_classes, seed ^ 0xC0);
        let mut model =
            Mlp::new(MlpArch::edge(ds.feature_dim, num_classes, rc.initial_head_width), seed);
        for w_idx in 0..pretrain_windows {
            let w = ds.window(w_idx);
            let labelled = distill_labels(&mut teacher, &w.train_pool);
            let mut exec = ekya_core::RetrainExecution::new(
                &model,
                &labelled,
                full_config,
                num_classes,
                TrainHyper::default(),
                seed.wrapping_add((w_idx as u64) << 20),
            );
            exec.run_to_completion();
            model = exec.model().clone();
            model.set_layers_trained(usize::MAX);
            caches[s].push((w.class_dist.clone(), model.clone()));
        }
    }

    // ---- Evaluation phase: lookups only, all GPUs to inference. ----
    let infer_gpus = rc.total_gpus / n as f64;
    for w_idx in pretrain_windows..num_windows {
        let mut stream_reports = Vec::with_capacity(n);
        for (s, (id, ds)) in datasets.iter().enumerate() {
            let w = ds.window(w_idx);
            let dists: Vec<Vec<f64>> = caches[s].iter().map(|(d, _)| d.clone()).collect();
            let pick = nearest_distribution(&w.class_dist, &dists).expect("non-empty cache");
            let model = &caches[s][pick].1;
            let serving_true = model.accuracy(DataView::new(&w.val, num_classes));

            let profiles = ekya_core::build_inference_profiles(
                &rc.cost,
                rc.cost.size_factor(model),
                ds.spec.fps,
                &rc.inference_grid,
            );
            let (af, infer_config) = best_feasible_infer(&profiles, infer_gpus)
                .map_or((0.0, InferenceConfig::FALLBACK), |p| (p.accuracy_factor, p.config));

            let timeline = Timeline::new(0.0, serving_true * af);
            stream_reports.push(StreamWindowReport {
                id: *id,
                avg_accuracy: timeline.average(0.0, window_secs),
                min_accuracy: serving_true * af,
                start_model_accuracy: serving_true,
                end_model_accuracy: serving_true,
                retrained: false,
                retrain_config: None,
                retrain_completed: false,
                train_gpus: 0.0,
                infer_gpus,
                infer_config,
                profiling_gpu_seconds: 0.0,
                wasted_gpu_seconds: 0.0,
                timeline: timeline.points().to_vec(),
            });
        }
        report.windows.push(WindowReport { window_idx: w_idx, streams: stream_reports });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekya_video::DatasetKind;

    #[test]
    fn cache_baseline_runs() {
        let streams = StreamSet::generate(DatasetKind::Cityscapes, 2, 6, 71);
        let rc = RunnerConfig { total_gpus: 2.0, seed: 5, ..RunnerConfig::default() };
        let report = run_model_cache(&streams, &rc, 6, 3);
        assert_eq!(report.windows.len(), 3, "only eval windows reported");
        assert!(report.mean_accuracy() > 0.0);
        assert_eq!(report.retrain_rate(), 0.0, "cache baseline never retrains");
    }

    #[test]
    #[should_panic(expected = "need evaluation windows")]
    fn requires_eval_windows() {
        let streams = StreamSet::generate(DatasetKind::Waymo, 1, 3, 72);
        let rc = RunnerConfig::default();
        run_model_cache(&streams, &rc, 3, 3);
    }
}
