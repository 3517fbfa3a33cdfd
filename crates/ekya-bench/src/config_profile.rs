//! Shared result types for `fig03_configs`' exhaustive per-configuration
//! profiling — the one sweep in the suite whose cells are retraining
//! *configurations* rather than simulation [`Scenario`](crate::Scenario)s.
//!
//! The sweep fans out on the harness's worker pool, and each
//! configuration is profiled with its own seed (`base_seed ^
//! fnv1a(config label)`), so the numbers are identical at any worker
//! count. The whole sweep takes a fraction of a second, so it is not
//! sharded: `EKYA_SHARD` is ignored with a warning and the complete point
//! list is written, with the whole-grid Pareto flags ([`pareto_flags`]).

use crate::grid::fnv1a;
use crate::harness::{run_parallel, Knobs};
use crate::save_json;
use ekya_core::{
    default_retrain_grid, extended_retrain_grid, profile_config, RetrainConfig, RetrainExecution,
    TrainHyper,
};
use ekya_nn::cost::CostModel;
use ekya_nn::data::Sample;
use ekya_nn::golden::{distill_labels, OracleTeacher};
use ekya_nn::mlp::{Mlp, MlpArch};
use ekya_video::{DatasetKind, DatasetSpec, VideoDataset};
use serde::{Deserialize, Serialize};

/// One profiled retraining configuration: its GPU cost, its final
/// accuracy, and whether it sits on the cost/accuracy Pareto frontier of
/// the full configuration grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigPoint {
    /// Compact configuration label (`RetrainConfig::label`).
    pub label: String,
    /// Total GPU-seconds to retrain this configuration to completion
    /// (0.0 when the config was poisoned).
    pub gpu_seconds: f64,
    /// Final accuracy on the window's validation set (0.0 when the
    /// config was poisoned).
    pub accuracy: f64,
    /// On the Pareto frontier of the complete grid.
    pub on_pareto: bool,
    /// Panic message when profiling this configuration was poisoned —
    /// the same isolation the scenario grids give a failed cell: the
    /// rest of the sweep completes and the failure travels in the data.
    pub error: Option<String>,
}

/// Pareto-frontier membership over (cost, accuracy): a point is on the
/// frontier iff no other point is at most as expensive **and** at least
/// as accurate with one of the two strict — the same dominance rule as
/// `ekya_core::pareto_frontier`, stated directly on profiled points.
/// Poisoned points are never on the frontier and never dominate anyone.
pub fn pareto_flags(points: &[ConfigPoint]) -> Vec<bool> {
    points
        .iter()
        .map(|p| {
            p.error.is_none()
                && !points.iter().any(|q| {
                    q.error.is_none()
                        && q.gpu_seconds <= p.gpu_seconds
                        && q.accuracy >= p.accuracy
                        && (q.gpu_seconds < p.gpu_seconds || q.accuracy > p.accuracy)
                })
        })
        .collect()
}

/// The configuration grid fig03 profiles: the paper's extended
/// 54-configuration grid, or the 18-configuration default grid under
/// quick mode (`EKYA_QUICK=1`).
pub fn config_grid(quick: bool) -> Vec<RetrainConfig> {
    if quick {
        default_retrain_grid()
    } else {
        extended_retrain_grid()
    }
}

/// The profiling context of the fig03 configuration sweep: one warm
/// steady-state model plus the window data every configuration is
/// profiled against.
///
/// Preparing it is the sweep's one-off cost (a full 30-epoch warm-up
/// retraining); [`ConfigSweep::measure`] then profiles any list of
/// configurations on the work-stealing pool with **per-config seeding**
/// (`base_seed ^ fnv1a("cfg|" + label)`), so every configuration's
/// numbers are a pure function of (model, data, config) — independent of
/// which other configurations run alongside it, so the sweep's bytes do
/// not depend on the worker count.
pub struct ConfigSweep {
    model: Mlp,
    train: Vec<Sample>,
    val: Vec<Sample>,
    num_classes: usize,
    cost: CostModel,
    base_seed: u64,
}

impl ConfigSweep {
    /// Builds the steady-state profiling context for `base_seed`:
    /// generates the two-window Cityscapes dataset, distills teacher
    /// labels, and warms the edge model with one full retraining on
    /// window 0 — exactly the setup `fig03_configs` has always used.
    pub fn prepare(base_seed: u64) -> Self {
        let cost = CostModel::default();
        let ds = VideoDataset::generate(DatasetSpec::new(DatasetKind::Cityscapes, 2, base_seed));
        let nc = ds.num_classes;
        let mut teacher = OracleTeacher::new(0.02, nc, base_seed ^ 0xAA);
        let w0 = distill_labels(&mut teacher, &ds.window(0).train_pool);
        let train = distill_labels(&mut teacher, &ds.window(1).train_pool);
        let val = distill_labels(&mut teacher, &ds.window(1).val);

        let base = Mlp::new(MlpArch::edge(ds.feature_dim, nc, 16), base_seed);
        let mut warm = RetrainExecution::new(
            &base,
            &w0,
            RetrainConfig {
                epochs: 30,
                batch_size: 32,
                last_layer_neurons: 16,
                layers_trained: 3,
                data_fraction: 1.0,
            },
            nc,
            TrainHyper::default(),
            base_seed,
        );
        warm.run_to_completion();
        let mut model = warm.model().clone();
        model.set_layers_trained(usize::MAX);

        Self { model, train, val, num_classes: nc, cost, base_seed }
    }

    /// Profiles `configs` across `workers` threads, one [`ConfigPoint`]
    /// per configuration in input order. A panicking configuration is
    /// isolated into its point's `error` field — the same isolation a
    /// grid cell gets — so one poisoned config cannot sink the sweep.
    pub fn measure(&self, configs: &[RetrainConfig], workers: usize) -> Vec<ConfigPoint> {
        let profile = |_: usize, c: RetrainConfig| {
            let cfg_seed = self.base_seed ^ fnv1a(format!("cfg|{}", c.label()).as_bytes());
            let (accuracy, gpu_seconds) = profile_config(
                &self.model,
                &self.train,
                &self.val,
                c,
                self.num_classes,
                TrainHyper::default(),
                &self.cost,
                cfg_seed,
            );
            ConfigPoint { label: c.label(), gpu_seconds, accuracy, on_pareto: false, error: None }
        };
        run_parallel(configs.to_vec(), workers, profile, |_, _| {})
            .into_iter()
            .zip(configs)
            .map(|(r, c)| {
                r.unwrap_or_else(|message| {
                    eprintln!("[fig03: config {} poisoned — {message}]", c.label());
                    ConfigPoint {
                        label: c.label(),
                        gpu_seconds: 0.0,
                        accuracy: 0.0,
                        on_pareto: false,
                        error: Some(message),
                    }
                })
            })
            .collect()
    }
}

/// The environment-driven front door for the fig03 configuration sweep —
/// the config-grid sibling of
/// [`run_grid_bin`](crate::harness::run_grid_bin).
///
/// Prepares the sweep, profiles the whole [`config_grid`], computes the
/// Pareto flags, writes the point list to `results/fig03_configs.json`,
/// and returns it for the bin's tables. The returned [`ConfigSweep`] lets
/// the caller profile extra configurations (fig03's panel (a) axes)
/// without paying the warm-up again. The sweep neither shards nor
/// checkpoints (it takes a fraction of a second), so `EKYA_SHARD` and
/// `EKYA_RESUME` warn and the full sweep runs.
pub fn run_config_bin(knobs: &Knobs) -> (ConfigSweep, Vec<ConfigPoint>) {
    knobs.warn_if_sharded("fig03_configs");
    knobs.warn_if_resume("fig03_configs");
    let sweep = ConfigSweep::prepare(knobs.seed);
    let mut points = sweep.measure(&config_grid(knobs.quick), knobs.workers());
    let flags = pareto_flags(&points);
    for (p, on) in points.iter_mut().zip(flags) {
        p.on_pareto = on;
    }
    save_json("fig03_configs", &points);
    (sweep, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(label: &str, gpu_seconds: f64, accuracy: f64) -> ConfigPoint {
        ConfigPoint { label: label.into(), gpu_seconds, accuracy, on_pareto: false, error: None }
    }

    #[test]
    fn config_grid_quick_is_a_smaller_sweep() {
        let quick = config_grid(true);
        let full = config_grid(false);
        assert!(!quick.is_empty());
        assert!(quick.len() < full.len());
        // Every quick config exists in the full grid, so quick results
        // are a genuine subset of the paper sweep.
        for c in &quick {
            assert!(full.contains(c), "quick config {c:?} missing from full grid");
        }
    }

    #[test]
    fn pareto_flags_mark_undominated_points() {
        // a: cheap & good (frontier); b: pricier & worse (dominated by a);
        // c: priciest & best (frontier); d: ties a exactly (frontier —
        // neither strictly dominates the other).
        let points =
            vec![pt("a", 1.0, 0.8), pt("b", 2.0, 0.7), pt("c", 3.0, 0.9), pt("d", 1.0, 0.8)];
        assert_eq!(pareto_flags(&points), vec![true, false, true, true]);
    }

    #[test]
    fn pareto_flags_quarantine_poisoned_points() {
        // A poisoned point carries (0.0, 0.0) — cheapest possible — but
        // must neither join the frontier nor dominate real points.
        let mut poisoned = pt("x", 0.0, 0.0);
        poisoned.error = Some("boom".into());
        let points = vec![poisoned, pt("a", 1.0, 0.8)];
        assert_eq!(pareto_flags(&points), vec![false, true]);
    }
}
