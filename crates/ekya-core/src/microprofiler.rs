//! The micro-profiler (§4.3).
//!
//! At each retraining window the scheduler needs, for every candidate
//! configuration, (a) the accuracy it would reach after retraining and
//! (b) its resource demand. Obtaining these exactly would require running
//! every retraining to completion — which is what the scheduler is trying
//! to avoid. The micro-profiler instead:
//!
//! 1. trains each *model variant* on a small uniform sample of the
//!    window's data (`profile_data_fraction`, default 10%) for a few
//!    epochs (`profile_epochs`, default 5) — **early termination**;
//! 2. fits the observed accuracy-vs-progress points to the saturating
//!    curve of [`ekya_nn::fit::LearningCurve`] with NNLS and extrapolates
//!    to the configuration's full `k = epochs x data_fraction`;
//! 3. measures GPU-seconds per epoch at 100% allocation from the cost
//!    model (resource demands are deterministic — opportunity (i));
//! 4. **prunes** configurations that have historically landed far from
//!    the resource-accuracy Pareto frontier.
//!
//! Configurations that share a model variant (same batch size, layer
//! freeze and head width — see [`RetrainConfig::curve_key`]) differ only
//! in how far along the same learning curve they train, so one
//! micro-training run serves all of them.

use crate::config::{CurveKey, RetrainConfig};
use crate::exec::{build_variant, resizes_head, TrainHyper};
use crate::profile::{pareto_distance, RetrainProfile};
use ekya_nn::cost::CostModel;
use ekya_nn::data::{subsample, DataView, Sample};
use ekya_nn::fit::LearningCurve;
use ekya_nn::gauss::sample_gaussian;
use ekya_nn::mlp::{Mlp, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Micro-profiler parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroProfilerParams {
    /// Fraction of the window's training pool used for profiling
    /// ("5%-10%", §4.3). Uniform random sampling.
    pub profile_data_fraction: f64,
    /// Profiling epochs before early termination ("say, 5", §4.3).
    pub profile_epochs: u32,
    /// SGD hyperparameters (shared with real execution).
    pub hyper: TrainHyper,
    /// Enable history-based pruning of configurations.
    pub prune: bool,
    /// With pruning on, keep at most this many configurations (plus any
    /// never profiled before).
    pub prune_keep: usize,
    /// Std-dev of Gaussian noise added to accuracy predictions — the
    /// controlled-error knob of Fig 11b (0 disables).
    pub noise_std: f64,
    /// Maximum accuracy headroom the fitted curve may extrapolate above
    /// the best accuracy observed during micro-training. Early-terminated
    /// observations cannot distinguish a fast rise to a low ceiling from a
    /// slow rise to a high one; bounding the asymptote keeps estimates
    /// from hallucinating accuracy a capacity-limited model can never
    /// reach.
    pub max_headroom: f64,
}

impl Default for MicroProfilerParams {
    fn default() -> Self {
        Self {
            profile_data_fraction: 0.1,
            profile_epochs: 5,
            hyper: TrainHyper::default(),
            prune: true,
            prune_keep: 12,
            noise_std: 0.0,
            max_headroom: 0.45,
        }
    }
}

/// Output of one profiling pass.
#[derive(Debug, Clone)]
pub struct ProfileOutput {
    /// One profile per surviving configuration (pruned ones are absent).
    pub profiles: Vec<RetrainProfile>,
    /// GPU-seconds the profiling itself consumed (charged against the
    /// window — profiling "must share compute resources", §4.3).
    pub gpu_seconds_spent: f64,
    /// Number of configurations skipped by history-based pruning.
    pub pruned: usize,
}

/// The micro-profiler. One instance per stream (its pruning history is
/// per-model).
#[derive(Debug, Clone)]
pub struct MicroProfiler {
    params: MicroProfilerParams,
    cost: CostModel,
    /// Exponential moving average of each configuration's distance from
    /// the Pareto frontier (larger = historically less useful).
    history: BTreeMap<String, f64>,
    rng: StdRng,
}

impl MicroProfiler {
    /// Creates a profiler.
    pub fn new(params: MicroProfilerParams, cost: CostModel, seed: u64) -> Self {
        Self { params, cost, history: BTreeMap::new(), rng: StdRng::seed_from_u64(seed) }
    }

    /// The profiler's parameters.
    pub fn params(&self) -> &MicroProfilerParams {
        &self.params
    }

    /// Profiles `configs` for a stream whose serving model is `model`,
    /// using the current window's teacher-labelled `train_pool` and `val`
    /// split. Returns extrapolated profiles plus the profiling cost.
    ///
    /// Each learning curve is fitted to the variant's accuracy on `val`
    /// before micro-training (the k = 0 point) and after each profiling
    /// epoch. A variant that keeps the serving head is, untrained, the
    /// serving model, so its k = 0 point is `model`'s accuracy on `val`:
    /// measured here at most once per call and shared by every such
    /// variant, or, when [`crate::StreamLearner::prepare`] calls, the
    /// serving accuracy it has already measured on the same split. A
    /// variant with a resized head is measured on its own.
    pub fn profile(
        &mut self,
        model: &Mlp,
        train_pool: &[Sample],
        val: &[Sample],
        configs: &[RetrainConfig],
        num_classes: usize,
        seed: u64,
    ) -> ProfileOutput {
        self.profile_measured(model, train_pool, val, configs, num_classes, seed, None)
    }

    /// [`MicroProfiler::profile`], given `model`'s accuracy on `val` when
    /// the caller has measured it already.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn profile_measured(
        &mut self,
        model: &Mlp,
        train_pool: &[Sample],
        val: &[Sample],
        configs: &[RetrainConfig],
        num_classes: usize,
        seed: u64,
        mut serving_accuracy: Option<f64>,
    ) -> ProfileOutput {
        let (selected, pruned) = self.select_configs(configs);

        // One micro-training run per model variant (curve key). A variant
        // that keeps the serving head is, untrained, the serving model:
        // its k = 0 accuracy is evaluated at most once here and shared.
        let mut curves: BTreeMap<CurveKey, LearningCurve> = BTreeMap::new();
        let mut gpu_seconds_spent = 0.0;
        for config in &selected {
            let key = config.curve_key();
            if curves.contains_key(&key) {
                continue;
            }
            let untrained_accuracy = (!resizes_head(model, config)).then(|| {
                *serving_accuracy
                    .get_or_insert_with(|| model.accuracy(DataView::new(val, num_classes)))
            });
            let (curve, cost) = self.micro_train(
                model,
                train_pool,
                val,
                config,
                num_classes,
                seed,
                untrained_accuracy,
            );
            // Logical-plane telemetry: the micro-training cost comes from
            // the cost model, so the span value is deterministic. The
            // enabled() guard keeps the disabled path allocation-free.
            if ekya_telemetry::enabled() {
                ekya_telemetry::span("core.profiler", "microtrain", cost, &config.label());
                ekya_telemetry::hist_observe("core.profiler", "microtrain_gpu_secs", cost);
            }
            gpu_seconds_spent += cost;
            curves.insert(key, curve);
        }

        let pool_len = train_pool.len();
        // Costing needs an (untrained) model variant per configuration, but
        // variants depend only on the curve-key fields (head width, layers
        // trained) and the seed — memoise one per curve key instead of
        // rebuilding (clone + seeded head re-init) for every configuration.
        let mut variants: BTreeMap<CurveKey, Mlp> = BTreeMap::new();
        let profiles: Vec<RetrainProfile> = selected
            .iter()
            .map(|&config| {
                let mut curve = curves[&config.curve_key()];
                if self.params.noise_std > 0.0 {
                    // Fig 11b: controlled Gaussian error on the predicted
                    // accuracy, implemented as a shift of the asymptote.
                    let eps = sample_gaussian(&mut self.rng, self.params.noise_std);
                    curve.c = (curve.c + eps).clamp(0.05, 1.0);
                }
                let n_train = ((pool_len as f64) * config.data_fraction).round().max(1.0) as usize;
                let variant = variants
                    .entry(config.curve_key())
                    .or_insert_with(|| build_variant(model, &config, seed.wrapping_add(17)));
                RetrainProfile {
                    config,
                    curve,
                    gpu_seconds_per_epoch: self.cost.train_epoch_gpu_seconds(
                        variant,
                        n_train,
                        config.batch_size,
                    ),
                }
            })
            .collect();

        // Update pruning history from this window's own estimates.
        self.observe(&profiles);

        if ekya_telemetry::enabled() {
            ekya_telemetry::counter_add("core.profiler", "configs_profiled", profiles.len() as u64);
            ekya_telemetry::counter_add("core.profiler", "configs_pruned", pruned as u64);
            ekya_telemetry::span(
                "core.profiler",
                "profile",
                gpu_seconds_spent,
                &format!("profiled={} pruned={pruned}", profiles.len()),
            );
        }

        ProfileOutput { profiles, gpu_seconds_spent, pruned }
    }

    /// Runs the micro-training for one model variant and fits its curve.
    /// `untrained_accuracy`, when given, is the untrained variant's
    /// accuracy on `val` (the caller's shared k = 0 point). The sample and
    /// `val` go through the variant's frozen layers once, not per epoch.
    /// Returns `(curve, gpu_seconds)`.
    #[allow(clippy::too_many_arguments)]
    fn micro_train(
        &self,
        model: &Mlp,
        train_pool: &[Sample],
        val: &[Sample],
        config: &RetrainConfig,
        num_classes: usize,
        seed: u64,
        untrained_accuracy: Option<f64>,
    ) -> (LearningCurve, f64) {
        let frac = self.params.profile_data_fraction.clamp(0.01, 1.0);
        let sample = subsample(train_pool, frac, seed.wrapping_add(31));
        let mut variant = build_variant(model, config, seed.wrapping_add(17));
        let val_frozen = variant.frozen_inputs(DataView::new(val, num_classes));
        let sample_frozen = variant.frozen_inputs(DataView::new(&sample, num_classes));

        let mut points: Vec<(f64, f64)> =
            Vec::with_capacity(self.params.profile_epochs as usize + 1);
        let k0 = untrained_accuracy.unwrap_or_else(|| variant.accuracy_frozen(&val_frozen));
        points.push((0.0, k0));
        let mut opt = Sgd::new(&variant, self.params.hyper.lr, self.params.hyper.momentum);
        for e in 0..self.params.profile_epochs {
            variant.train_epoch_frozen(
                &sample_frozen,
                &mut opt,
                config.batch_size as usize,
                seed.wrapping_add(500 + e as u64),
            );
            // Training e+1 epochs on `frac` of the pool ≈ (e+1)*frac
            // full-pool epoch equivalents.
            points.push(((e + 1) as f64 * frac, variant.accuracy_frozen(&val_frozen)));
        }
        let best_observed = points.iter().map(|p| p.1).fold(0.0, f64::max);
        let curve = LearningCurve::fit_capped(&points, best_observed + self.params.max_headroom);
        let gpu_seconds = self.params.profile_epochs as f64
            * self.cost.train_epoch_gpu_seconds(&variant, sample.len(), config.batch_size);
        (curve, gpu_seconds)
    }

    /// Applies history-based pruning (§4.3 technique 3). Returns the
    /// surviving configurations and how many were pruned.
    fn select_configs(&self, configs: &[RetrainConfig]) -> (Vec<RetrainConfig>, usize) {
        if !self.params.prune || configs.len() <= self.params.prune_keep {
            return (configs.to_vec(), 0);
        }
        // Never-profiled configurations are always explored; profiled ones
        // are ranked by their historical Pareto distance and only the most
        // promising fill the remaining budget.
        let mut keep_idx: Vec<usize> = Vec::new();
        let mut seen: Vec<(f64, usize)> = Vec::new();
        for (i, c) in configs.iter().enumerate() {
            match self.history.get(&c.label()) {
                None => keep_idx.push(i),
                Some(&d) => seen.push((d, i)),
            }
        }
        seen.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for (_, i) in seen {
            if keep_idx.len() >= self.params.prune_keep {
                break;
            }
            keep_idx.push(i);
        }
        keep_idx.sort_unstable();
        let kept: Vec<RetrainConfig> = keep_idx.into_iter().map(|i| configs[i]).collect();
        let pruned = configs.len() - kept.len();
        (kept, pruned)
    }

    /// Folds a window's profiles into the pruning history (EMA of each
    /// configuration's Pareto distance).
    pub fn observe(&mut self, profiles: &[RetrainProfile]) {
        const ALPHA: f64 = 0.5;
        for (i, p) in profiles.iter().enumerate() {
            let d = pareto_distance(profiles, i);
            let entry = self.history.entry(p.config.label()).or_insert(d);
            *entry = ALPHA * d + (1.0 - ALPHA) * *entry;
        }
    }
}

/// Ground-truth profiling of **one** configuration: retrains it to
/// completion on the full window data and measures the final accuracy.
///
/// This is the per-config unit [`exhaustive_profile`] iterates over. It
/// exists as a standalone function so callers that fan a configuration
/// grid out across threads (or across machines, via the experiment
/// harness's shard layer) can profile each configuration independently —
/// the result depends only on the arguments, never on which other
/// configurations are profiled alongside it, so splitting the config
/// slice keeps every number identical.
///
/// Returns `(final_accuracy, gpu_seconds_spent)`.
#[allow(clippy::too_many_arguments)] // mirrors the micro-profiler's profiling interface
pub fn profile_config(
    model: &Mlp,
    train_pool: &[Sample],
    val: &[Sample],
    config: RetrainConfig,
    num_classes: usize,
    hyper: TrainHyper,
    cost: &CostModel,
    seed: u64,
) -> (f64, f64) {
    let mut exec =
        crate::exec::RetrainExecution::new(model, train_pool, config, num_classes, hyper, seed);
    let per_epoch =
        cost.train_epoch_gpu_seconds(exec.model(), exec.num_samples(), config.batch_size);
    exec.run_to_completion();
    (exec.accuracy(val), per_epoch * config.epochs as f64)
}

/// Ground-truth profiling: actually retrains every configuration to
/// completion on the full window data and measures the final accuracy.
/// This is what the micro-profiler avoids; it exists to quantify the
/// micro-profiler's estimation error (Fig 11a) and cost advantage (the
/// ~100x claim).
///
/// Every configuration is profiled with the same `seed` (see
/// [`profile_config`] for the per-config unit, which callers wanting
/// per-config seeding invoke directly).
///
/// Returns `(final_accuracies, gpu_seconds_spent)` aligned with `configs`.
#[allow(clippy::too_many_arguments)] // mirrors the micro-profiler's profiling interface
pub fn exhaustive_profile(
    model: &Mlp,
    train_pool: &[Sample],
    val: &[Sample],
    configs: &[RetrainConfig],
    num_classes: usize,
    hyper: TrainHyper,
    cost: &CostModel,
    seed: u64,
) -> (Vec<f64>, f64) {
    let mut accs = Vec::with_capacity(configs.len());
    let mut gpu_seconds = 0.0;
    for &config in configs {
        let (acc, spent) =
            profile_config(model, train_pool, val, config, num_classes, hyper, cost, seed);
        gpu_seconds += spent;
        accs.push(acc);
    }
    (accs, gpu_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::default_retrain_grid;
    use ekya_video::{DatasetKind, DatasetSpec, VideoDataset};

    fn setup() -> (Mlp, VideoDataset) {
        let ds = VideoDataset::generate(DatasetSpec {
            val_samples: 200,
            ..DatasetSpec::new(DatasetKind::Cityscapes, 3, 77)
        });
        let model = Mlp::new(ekya_nn::mlp::MlpArch::edge(ds.feature_dim, ds.num_classes, 16), 5);
        (model, ds)
    }

    fn profiler(noise: f64, prune: bool) -> MicroProfiler {
        MicroProfiler::new(
            MicroProfilerParams { noise_std: noise, prune, ..MicroProfilerParams::default() },
            CostModel::default(),
            9,
        )
    }

    #[test]
    fn profiles_every_config_without_pruning() {
        let (model, ds) = setup();
        let w = ds.window(0);
        let grid = default_retrain_grid();
        let out =
            profiler(0.0, false).profile(&model, &w.train_pool, &w.val, &grid, ds.num_classes, 1);
        assert_eq!(out.profiles.len(), grid.len());
        assert_eq!(out.pruned, 0);
        assert!(out.gpu_seconds_spent > 0.0);
    }

    #[test]
    fn profiling_is_much_cheaper_than_exhaustive() {
        let (model, ds) = setup();
        let w = ds.window(0);
        let grid = default_retrain_grid();
        let mut p = profiler(0.0, false);
        let out = p.profile(&model, &w.train_pool, &w.val, &grid, ds.num_classes, 1);
        let (_, exhaustive_cost) = exhaustive_profile(
            &model,
            &w.train_pool,
            &w.val,
            &grid,
            ds.num_classes,
            TrainHyper::default(),
            &CostModel::default(),
            1,
        );
        let speedup = exhaustive_cost / out.gpu_seconds_spent;
        assert!(
            speedup > 20.0,
            "micro-profiling should be drastically cheaper: speedup = {speedup:.1}"
        );
    }

    #[test]
    fn estimates_are_reasonably_accurate() {
        // The realistic (steady-state) profiling scenario: the serving
        // model is already trained on the previous window and retraining
        // adapts it to the current one — exactly the regime in which
        // Ekya's micro-profiler operates after the first window.
        let (cold, ds) = setup();
        let w0 = ds.window(0);
        let mut warm = crate::exec::RetrainExecution::new(
            &cold,
            &w0.train_pool,
            RetrainConfig {
                epochs: 30,
                batch_size: 32,
                last_layer_neurons: 16,
                layers_trained: 3,
                data_fraction: 1.0,
            },
            ds.num_classes,
            TrainHyper::default(),
            7,
        );
        warm.run_to_completion();
        let model = warm.model().clone();

        let w = ds.window(1);
        // Evaluate a subset of configs for speed.
        let grid: Vec<RetrainConfig> = default_retrain_grid()
            .into_iter()
            .filter(|c| c.epochs >= 10 && c.data_fraction >= 0.3)
            .collect();
        let mut p = profiler(0.0, false);
        let out = p.profile(&model, &w.train_pool, &w.val, &grid, ds.num_classes, 2);
        let (truth, _) = exhaustive_profile(
            &model,
            &w.train_pool,
            &w.val,
            &grid,
            ds.num_classes,
            TrainHyper::default(),
            &CostModel::default(),
            2,
        );
        let errors: Vec<f64> = out
            .profiles
            .iter()
            .zip(&truth)
            .map(|(prof, &t)| (prof.post_accuracy() - t).abs())
            .collect();
        let median = ekya_video::stats::percentile(&errors, 50.0);
        assert!(
            median < 0.10,
            "median estimation error should be moderate: {median:.3} (errors {errors:?})"
        );
    }

    #[test]
    fn pruning_reduces_configs_and_cost() {
        let (model, ds) = setup();
        let grid = default_retrain_grid();
        let mut p = profiler(0.0, true);
        // First window: nothing pruned (no history).
        let w0 = ds.window(0);
        let out0 = p.profile(&model, &w0.train_pool, &w0.val, &grid, ds.num_classes, 3);
        assert_eq!(out0.pruned, 0);
        // Second window: history exists, prune down to prune_keep.
        let w1 = ds.window(1);
        let out1 = p.profile(&model, &w1.train_pool, &w1.val, &grid, ds.num_classes, 4);
        assert_eq!(out1.profiles.len(), p.params().prune_keep);
        assert_eq!(out1.pruned, grid.len() - p.params().prune_keep);
    }

    #[test]
    fn noise_perturbs_estimates() {
        let (model, ds) = setup();
        let w = ds.window(0);
        let grid = &default_retrain_grid()[..4];
        let clean =
            profiler(0.0, false).profile(&model, &w.train_pool, &w.val, grid, ds.num_classes, 5);
        let noisy =
            profiler(0.2, false).profile(&model, &w.train_pool, &w.val, grid, ds.num_classes, 5);
        let diff: f64 = clean
            .profiles
            .iter()
            .zip(&noisy.profiles)
            .map(|(a, b)| (a.post_accuracy() - b.post_accuracy()).abs())
            .sum();
        assert!(diff > 0.01, "noise should move the estimates: total diff = {diff}");
    }

    #[test]
    fn curve_sharing_caps_training_runs() {
        // 18 default configs share only 2 curve keys, so profiling cost
        // must equal that of 2 micro-training runs, not 18.
        let (model, ds) = setup();
        let w = ds.window(0);
        let grid = default_retrain_grid();
        let one_key: Vec<RetrainConfig> =
            grid.iter().filter(|c| c.layers_trained == 3).copied().collect();
        let mut p_all = profiler(0.0, false);
        let mut p_one = profiler(0.0, false);
        let all = p_all.profile(&model, &w.train_pool, &w.val, &grid, ds.num_classes, 6);
        let one = p_one.profile(&model, &w.train_pool, &w.val, &one_key, ds.num_classes, 6);
        assert!(all.gpu_seconds_spent < one.gpu_seconds_spent * 3.0);
    }

    /// The shared k = 0 point is exact: for every variant that keeps the
    /// serving head, the serving model's accuracy equals the untrained
    /// variant's own evaluation, so the fitted curves are the same bits.
    #[test]
    fn shared_untrained_accuracy_matches_the_variants_own() {
        let (model, ds) = setup();
        let w = ds.window(0);
        let p = profiler(0.0, false);
        let serving = model.accuracy(DataView::new(&w.val, ds.num_classes));
        let mut checked = 0;
        for config in default_retrain_grid().iter().filter(|c| !resizes_head(&model, c)) {
            let run =
                |k0| p.micro_train(&model, &w.train_pool, &w.val, config, ds.num_classes, 3, k0);
            assert_eq!(run(Some(serving)), run(None), "{}", config.label());
            checked += 1;
        }
        assert!(checked > 0, "the default grid keeps the serving head somewhere");
    }

    #[test]
    fn profile_output_is_deterministic() {
        let (model, ds) = setup();
        let w = ds.window(0);
        let grid = &default_retrain_grid()[..6];
        let a = profiler(0.0, false).profile(&model, &w.train_pool, &w.val, grid, 6, 8);
        let b = profiler(0.0, false).profile(&model, &w.train_pool, &w.val, grid, 6, 8);
        for (pa, pb) in a.profiles.iter().zip(&b.profiles) {
            assert_eq!(pa.curve, pb.curve);
        }
    }
}
