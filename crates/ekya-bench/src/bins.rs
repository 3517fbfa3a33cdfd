//! Declarative identity of the shardable fig/table bins — the registry
//! the `ekya_grid` supervisor ([`crate::orchestrate`]) plans, spawns,
//! and merges against.
//!
//! Each shardable bin is a pure function of the shared environment knobs
//! ([`Knobs`]): its grid (and therefore its cell count and shard ranges)
//! is fully determined by `(bin name, knobs)`. This
//! module states that identity **once** — the bin binaries and the
//! orchestrator's in-process worker both build their workload here, so a
//! worker-run shard is byte-identical to a hand-launched one by
//! construction, not by convention.
//!
//! Since the every-experiment-is-a-cell refactor, **every** fig/table
//! bin of the evaluation expresses its work this way: cells are
//! [`Scenario`]s (the policy axis carries the bin's
//! variant as a [`PolicySpec`] — cloud links, cache designs, estimate
//! noise, design toggles are all registry-buildable specs now), and the
//! bins that are not plain simulations supply a custom evaluator to
//! [`GridExec::run_with`](crate::GridExec::run_with):
//!
//! * trace replay (fig07, fig08) — the [`ReplayTraces`] helper records
//!   each dataset's mechanistic trace once, lazily, and replays every
//!   (GPUs × policy) cell against it;
//! * cloud offload (table4) and cached models (table5) — the §6.5 run
//!   functions from `ekya-baselines`, keyed on the cell's spec;
//! * runner-side toggles (fig11's estimate noise, the design
//!   ablations) — applied from the spec before executing the windows.
//!
//! Only the bins that do not shard (`fig02_motivation`, `fig03_configs`,
//! `fig04_example`, `scheduler_runtime`) remain outside the registry.
//!
//! * [`bin_workload`] — the scenario [`Grid`] of a bin, used for
//!   planning: total cells, shard math via
//!   [`ShardSpec::range`](crate::ShardSpec::range).
//! * [`run_bin`] — execute a bin's sweep under the given knobs, writing
//!   exactly the report files the bin binary writes (tables and other
//!   presentation stay in the binaries).

use crate::grid::{cell_seed, fig06_grid, Grid, Scenario};
use crate::harness::{run_grid_bin, run_grid_bin_with, CellResult, GridRun, Knobs};
use ekya_baselines::{
    run_cloud_retraining, run_model_cache, standard_policies, CloudNetwork, CloudRunConfig,
    DesignToggle, HoldoutPick, PolicyBuildCtx, PolicySpec,
};
use ekya_sim::{record_trace, run_windows, ReplayPolicyHarness, RunReport, RunnerConfig, Trace};
use ekya_video::{DatasetKind, DatasetSpec, StreamSet};
use std::sync::OnceLock;

/// The Δ axis of the Figure 10 sweep (allocation-quantum sensitivity).
pub const FIG10_DELTAS: [f64; 4] = [0.1, 0.2, 0.5, 1.0];

/// The GPU axis of the Figure 10 sweep.
pub const FIG10_GPUS: [f64; 2] = [4.0, 8.0];

/// The GPU budget of the Table 4 setting (8 streams, 4 GPUs).
pub const TABLE4_GPUS: f64 = 4.0;

/// Table 4's retraining-window length (400-second windows, §6.5).
pub const TABLE4_WINDOW_SECS: f64 = 400.0;

/// The GPU budget of the Table 5 setting (model-cache comparison).
pub const TABLE5_GPUS: f64 = 8.0;

/// The GPU axis of the Figure 11b noise sweep.
pub const FIG11_GPUS: [f64; 2] = [1.0, 4.0];

/// The Table 3 grid (capacity vs provisioned GPUs): Cityscapes,
/// streams × {1, 2} GPUs, all standard policies.
pub fn table3_grid(windows: usize, base_seed: u64) -> Grid {
    Grid::new(windows, base_seed)
        .datasets(&[DatasetKind::Cityscapes])
        .stream_counts(&[2, 4, 6, 8])
        .gpu_counts(&[1.0, 2.0])
        .policies(standard_policies())
}

/// The Figure 10 grid (Δ sensitivity): Cityscapes, one stream count,
/// [`FIG10_GPUS`] × [`FIG10_DELTAS`] via `PolicySpec::EkyaDelta`.
pub fn fig10_grid(windows: usize, streams: usize, base_seed: u64) -> Grid {
    Grid::new(windows, base_seed)
        .datasets(&[DatasetKind::Cityscapes])
        .stream_counts(&[streams])
        .gpu_counts(&FIG10_GPUS)
        .policies(FIG10_DELTAS.iter().map(|&delta| PolicySpec::EkyaDelta { delta }).collect())
}

/// The Figure 8 factor-analysis policies: full Ekya, its two ablations,
/// and the uniform reference.
pub fn fig08_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Uniform { pick: HoldoutPick::Config2, inference_share: 0.5 },
        PolicySpec::FixedRes { inference_share: 0.5 },
        PolicySpec::FixedConfig { pick: HoldoutPick::Config2 },
        PolicySpec::Ekya,
    ]
}

/// The Figure 8 grid (factor analysis): Cityscapes, one stream count,
/// a GPU axis (shrunk under quick mode) × [`fig08_policies`]. Cells are
/// evaluated by trace replay ([`run_fig08_bin`]), but their *identity*
/// is an ordinary [`Scenario`] — which is what makes
/// `EKYA_SHARD`/`EKYA_RESUME` (and the orchestrator) work on fig08.
pub fn fig08_grid(quick: bool, windows: usize, streams: usize, base_seed: u64) -> Grid {
    let gpus: &[f64] = if quick { &[2.0, 8.0] } else { &[2.0, 4.0, 6.0, 8.0] };
    Grid::new(windows, base_seed)
        .datasets(&[DatasetKind::Cityscapes])
        .stream_counts(&[streams])
        .gpu_counts(gpus)
        .policies(fig08_policies())
}

/// [`fig08_grid`] under the shared env knobs — the *single* place the
/// fig08 defaults (6 windows, 10 streams) are applied, used by the
/// planner ([`bin_workload`]), the runner ([`run_fig08_bin`]), and the
/// `fig08_factors` binary's presentation, so none of them can describe
/// a different grid than the one that executes.
pub fn fig08_grid_for(knobs: &Knobs) -> Grid {
    fig08_grid(knobs.quick, knobs.windows(6), knobs.streams(10), knobs.seed)
}

/// The Figure 7 dataset axis: two datasets under quick mode, all four
/// otherwise (the paper's Fig 7 shows one panel per dataset).
pub fn fig07_datasets(quick: bool) -> Vec<DatasetKind> {
    if quick {
        vec![DatasetKind::Cityscapes, DatasetKind::UrbanTraffic]
    } else {
        DatasetKind::ALL.to_vec()
    }
}

/// The Figure 7 grid (accuracy vs provisioned GPUs): every dataset ×
/// a GPU axis × the standard policies, evaluated by trace replay
/// ([`run_fig07_bin`]) — one recording per dataset, fanned out lazily
/// like fig08's, then fast replay of every (scheduler × GPU) cell.
pub fn fig07_grid(quick: bool, windows: usize, streams: usize, base_seed: u64) -> Grid {
    let gpus: &[f64] = if quick { &[1.0, 4.0, 8.0] } else { &[1.0, 2.0, 4.0, 6.0, 8.0, 16.0] };
    Grid::new(windows, base_seed)
        .datasets(&fig07_datasets(quick))
        .stream_counts(&[streams])
        .gpu_counts(gpus)
        .policies(standard_policies())
}

/// [`fig07_grid`] under the shared env knobs (defaults: 6 windows,
/// 10 streams).
pub fn fig07_grid_for(knobs: &Knobs) -> Grid {
    fig07_grid(knobs.quick, knobs.windows(6), knobs.streams(10), knobs.seed)
}

/// The Table 4 bandwidth-scale axis: how much fatter each link is tried
/// at (Table 4's "bandwidth needed to match Ekya" question, asked as
/// independent cells instead of an in-cell search).
pub fn table4_scales(quick: bool) -> &'static [f64] {
    if quick {
        &[1.0, 4.0, 12.0]
    } else {
        &[1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    }
}

/// The Table 4 policy axis: every network preset at every bandwidth
/// scale (`PolicySpec::CloudDelay`), plus Ekya at the edge as the
/// reference row.
pub fn table4_policies(quick: bool) -> Vec<PolicySpec> {
    let mut out = Vec::new();
    for network in CloudNetwork::ALL {
        for &bandwidth_scale in table4_scales(quick) {
            out.push(PolicySpec::CloudDelay { network, bandwidth_scale });
        }
    }
    out.push(PolicySpec::Ekya);
    out
}

/// The Table 4 grid (cloud retraining vs Ekya at the edge): Cityscapes,
/// 8 streams sharing [`TABLE4_GPUS`] GPUs over 400-second windows.
pub fn table4_grid_for(knobs: &Knobs) -> Grid {
    Grid::new(knobs.windows(4), knobs.seed)
        .datasets(&[DatasetKind::Cityscapes])
        .stream_counts(&[knobs.streams(8)])
        .gpu_counts(&[TABLE4_GPUS])
        .policies(table4_policies(knobs.quick))
}

/// Evaluation windows of a Table 5 run: the first half of the windows
/// builds the model cache, the rest are scored.
pub fn table5_pretrain_windows(windows: usize) -> usize {
    (windows / 2).max(1)
}

/// The Table 5 grid (Ekya vs cached-model reuse): two cells —
/// `PolicySpec::ModelCache` and `PolicySpec::Ekya` — over one shared
/// Cityscapes stream set. The window count is floored at 2 so the cache
/// design always has at least one cache window and one eval window.
pub fn table5_grid_for(knobs: &Knobs) -> Grid {
    Grid::new(knobs.windows(8).max(2), knobs.seed)
        .datasets(&[DatasetKind::Cityscapes])
        .stream_counts(&[knobs.streams(6)])
        .gpu_counts(&[TABLE5_GPUS])
        .policies(vec![PolicySpec::ModelCache, PolicySpec::Ekya])
}

/// The Figure 9 grid (per-stream allocation over windows): a single
/// cell — two Urban Building streams sharing one GPU under Ekya — with
/// the same `Scenario` identity and seeding as any other grid cell, so
/// its numbers line up with any grid containing this cell.
pub fn fig09_grid_for(knobs: &Knobs) -> Grid {
    Grid::new(knobs.windows(8), knobs.seed)
        .datasets(&[DatasetKind::UrbanBuilding])
        .stream_counts(&[2])
        .gpu_counts(&[1.0])
        .policies(vec![PolicySpec::Ekya])
}

/// The Figure 11b noise axis ε (quick mode keeps the endpoints plus the
/// paper's headline 20% point).
pub fn fig11_eps(quick: bool) -> &'static [f64] {
    if quick {
        &[0.0, 0.20]
    } else {
        &[0.0, 0.05, 0.10, 0.20, 0.50]
    }
}

/// The Figure 11b grid (robustness to estimate noise): Cityscapes,
/// [`FIG11_GPUS`] × ε via `PolicySpec::EkyaNoise`. The evaluator
/// injects the spec's ε into `RunnerConfig::profiler.noise_std` before
/// executing the windows mechanistically.
pub fn fig11_grid_for(knobs: &Knobs) -> Grid {
    Grid::new(knobs.windows(4), knobs.seed)
        .datasets(&[DatasetKind::Cityscapes])
        .stream_counts(&[knobs.streams(4)])
        .gpu_counts(&FIG11_GPUS)
        .policies(
            fig11_eps(knobs.quick)
                .iter()
                .map(|&noise_std| PolicySpec::EkyaNoise { noise_std })
                .collect(),
        )
}

/// The design-ablation policy axis: full Ekya plus one
/// `PolicySpec::DesignAblation` per §5 mechanism.
pub fn ablation_policies() -> Vec<PolicySpec> {
    let mut out = vec![PolicySpec::Ekya];
    out.extend(DesignToggle::ALL.iter().map(|&toggle| PolicySpec::DesignAblation { toggle }));
    out
}

/// The design-ablation grid (DESIGN.md §5 toggles): Cityscapes, one
/// stream count, 2 GPUs, [`ablation_policies`].
pub fn ablation_grid_for(knobs: &Knobs) -> Grid {
    Grid::new(knobs.windows(4), knobs.seed)
        .datasets(&[DatasetKind::Cityscapes])
        .stream_counts(&[knobs.streams(6)])
        .gpu_counts(&[2.0])
        .policies(ablation_policies())
}

/// Wraps a simulator run into the cell it evaluated.
fn cell_from_report(sc: &Scenario, report: RunReport) -> CellResult {
    CellResult {
        scenario: sc.clone(),
        policy: report.policy.clone(),
        mean_accuracy: report.mean_accuracy(),
        retrain_rate: report.retrain_rate(),
        report: Some(report),
        error: None,
    }
}

/// Lazily recorded mechanistic traces for the replay grids (fig07,
/// fig08) — the one copy of the record/replay pattern the bins used to
/// duplicate.
///
/// One recording per dataset of the grid, created on first use from
/// inside whichever worker thread reaches that dataset first (a fully
/// resumed run never records anything). Recording is a pure function of
/// (dataset, streams, windows, base seed) — the same purity as the
/// cells themselves — so every shard process re-records identical
/// traces; the [`Trace::fingerprint`] logged at recording time is the
/// cross-process witness.
pub struct ReplayTraces {
    streams: usize,
    windows: usize,
    base_seed: u64,
    max_staleness: usize,
    slots: Vec<(DatasetKind, OnceLock<Trace>)>,
}

impl ReplayTraces {
    /// Trace slots for every dataset of `grid`, recorded at the grid's
    /// (single) stream count, window count, and per-workload seed.
    pub fn for_grid(grid: &Grid) -> Self {
        let streams = *grid.stream_counts.first().expect("replay grids have one stream count");
        Self {
            streams,
            windows: grid.windows,
            base_seed: grid.base_seed,
            max_staleness: 6,
            slots: grid.datasets.iter().map(|&kind| (kind, OnceLock::new())).collect(),
        }
    }

    /// The (lazily recorded) trace for one dataset of the grid.
    pub fn trace(&self, kind: DatasetKind) -> &Trace {
        let slot = self
            .slots
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, slot)| slot)
            .expect("dataset registered in the replay grid");
        slot.get_or_init(|| {
            // The seed hash excludes policy and GPUs, so this is exactly
            // the seed every replay cell of this dataset carries.
            let seed = cell_seed(self.base_seed, kind, self.streams, self.windows);
            eprintln!(
                "[recording trace — {} ({} streams x {} windows)]",
                kind.name(),
                self.streams,
                self.windows
            );
            let set = StreamSet::cached(kind, self.streams, self.windows, seed);
            let cfg = RunnerConfig { seed, ..RunnerConfig::default() };
            let trace = record_trace(&set, &cfg, self.windows, self.max_staleness);
            eprintln!(
                "[trace recorded — {} fingerprint {:016x}]",
                kind.name(),
                trace.fingerprint()
            );
            trace
        })
    }

    /// Replays one cell against its dataset's trace — the shared
    /// evaluator of the replay grids.
    pub fn replay(&self, grid: &Grid, sc: &Scenario) -> CellResult {
        let trace = self.trace(sc.dataset);
        let ctx = PolicyBuildCtx::new(sc.dataset, sc.gpus, grid.holdout_seed(sc.dataset));
        let mut policy = sc.policy.build(&ctx);
        let report = ReplayPolicyHarness::new(sc.gpus).run(policy.as_mut(), trace);
        cell_from_report(sc, report)
    }
}

/// Runs the Figure 8 sweep under the shared env knobs: records the
/// mechanistic trace once (lazily — a fully resumed run never pays for
/// it), then replays every (GPUs × policy) cell through
/// [`run_grid_bin_with`], which gives fig08 the full shard / resume /
/// checkpoint machinery of the scenario-grid bins.
pub fn run_fig08_bin(knobs: &Knobs) -> GridRun {
    let grid = fig08_grid_for(knobs);
    let traces = ReplayTraces::for_grid(&grid);
    run_grid_bin_with("fig08_factors", &grid, knobs, |sc| traces.replay(&grid, sc))
}

/// Runs the Figure 7 sweep: one lazy recording per dataset
/// ([`ReplayTraces`]), then replay of every (dataset × GPUs × policy)
/// cell — sharded, resumable, and orchestratable like any grid bin.
pub fn run_fig07_bin(knobs: &Knobs) -> GridRun {
    let grid = fig07_grid_for(knobs);
    let traces = ReplayTraces::for_grid(&grid);
    run_grid_bin_with("fig07_provisioning", &grid, knobs, |sc| traces.replay(&grid, sc))
}

/// Runs the Table 4 sweep: each cell is one cloud-retraining simulation
/// over its spec's (network × bandwidth-scale) link — or the Ekya edge
/// reference — on one shared 400-second-window stream set.
pub fn run_table4_bin(knobs: &Knobs) -> GridRun {
    let grid = table4_grid_for(knobs);
    let streams = OnceLock::new();
    run_grid_bin_with("table4_cloud", &grid, knobs, |sc| {
        let set = streams.get_or_init(|| {
            let base = DatasetSpec {
                window_secs: TABLE4_WINDOW_SECS,
                ..DatasetSpec::new(sc.dataset, sc.windows, sc.seed)
            };
            StreamSet::generate_from_spec(base, sc.streams)
        });
        let cfg = RunnerConfig { total_gpus: sc.gpus, seed: sc.seed, ..RunnerConfig::default() };
        let report = match &sc.policy {
            PolicySpec::CloudDelay { network, bandwidth_scale } => run_cloud_retraining(
                set,
                &CloudRunConfig::new(network.link().scaled(*bandwidth_scale), cfg),
                sc.windows,
            ),
            _ => {
                let ctx = PolicyBuildCtx::new(sc.dataset, sc.gpus, grid.holdout_seed(sc.dataset));
                let mut policy = sc.policy.build(&ctx);
                run_windows(policy.as_mut(), set, &cfg, sc.windows)
            }
        };
        cell_from_report(sc, report)
    })
}

/// Runs the Table 5 comparison: the model-cache design and Ekya as two
/// cells over one shared stream set. Both cells are scored over the
/// post-cache evaluation windows only ([`table5_pretrain_windows`]), so
/// their `mean_accuracy` values are directly comparable.
pub fn run_table5_bin(knobs: &Knobs) -> GridRun {
    let grid = table5_grid_for(knobs);
    let streams = OnceLock::new();
    run_grid_bin_with("table5_cache", &grid, knobs, |sc| {
        let set = streams
            .get_or_init(|| StreamSet::generate(sc.dataset, sc.streams, sc.windows, sc.seed));
        let cfg = RunnerConfig { total_gpus: sc.gpus, seed: sc.seed, ..RunnerConfig::default() };
        let pretrain = table5_pretrain_windows(sc.windows);
        match &sc.policy {
            PolicySpec::ModelCache => {
                // run_model_cache reports the eval windows only already.
                cell_from_report(sc, run_model_cache(set, &cfg, sc.windows, pretrain))
            }
            _ => {
                let ctx = PolicyBuildCtx::new(sc.dataset, sc.gpus, grid.holdout_seed(sc.dataset));
                let mut policy = sc.policy.build(&ctx);
                let report = run_windows(policy.as_mut(), set, &cfg, sc.windows);
                let eval = &report.windows[pretrain..];
                let mean_accuracy =
                    eval.iter().map(|w| w.mean_accuracy()).sum::<f64>() / eval.len() as f64;
                CellResult {
                    scenario: sc.clone(),
                    policy: report.policy.clone(),
                    mean_accuracy,
                    retrain_rate: report.retrain_rate(),
                    report: Some(report),
                    error: None,
                }
            }
        }
    })
}

/// Runs the Figure 9 cell (a plain scenario grid of size one — the
/// default evaluator applies).
pub fn run_fig09_bin(knobs: &Knobs) -> GridRun {
    run_grid_bin("fig09_allocation", &fig09_grid_for(knobs), knobs)
}

/// Runs the Figure 11b noise sweep: each cell executes the windows
/// mechanistically with its spec's ε injected into the micro-profiler's
/// estimates. (Figure 11a — the estimation-error distribution — is
/// derived presentation in the `fig11_profiler` binary.)
pub fn run_fig11_bin(knobs: &Knobs) -> GridRun {
    let grid = fig11_grid_for(knobs);
    let streams = OnceLock::new();
    run_grid_bin_with("fig11_profiler", &grid, knobs, |sc| {
        let set = streams
            .get_or_init(|| StreamSet::generate(sc.dataset, sc.streams, sc.windows, sc.seed));
        let mut cfg =
            RunnerConfig { total_gpus: sc.gpus, seed: sc.seed, ..RunnerConfig::default() };
        if let PolicySpec::EkyaNoise { noise_std } = &sc.policy {
            cfg.profiler.noise_std = *noise_std;
        }
        let ctx = PolicyBuildCtx::new(sc.dataset, sc.gpus, grid.holdout_seed(sc.dataset));
        let mut policy = sc.policy.build(&ctx);
        cell_from_report(sc, run_windows(policy.as_mut(), set, &cfg, sc.windows))
    })
}

/// Runs the design-ablation sweep: each cell executes full Ekya with
/// its spec's §5 mechanism toggled off on the runner
/// ([`DesignToggle::apply`]).
pub fn run_ablation_bin(knobs: &Knobs) -> GridRun {
    let grid = ablation_grid_for(knobs);
    let streams = OnceLock::new();
    run_grid_bin_with("ablation_design", &grid, knobs, |sc| {
        let set = streams
            .get_or_init(|| StreamSet::generate(sc.dataset, sc.streams, sc.windows, sc.seed));
        let mut cfg =
            RunnerConfig { total_gpus: sc.gpus, seed: sc.seed, ..RunnerConfig::default() };
        if let PolicySpec::DesignAblation { toggle } = &sc.policy {
            cfg = toggle.apply(cfg);
        }
        let ctx = PolicyBuildCtx::new(sc.dataset, sc.gpus, grid.holdout_seed(sc.dataset));
        let mut policy = sc.policy.build(&ctx);
        cell_from_report(sc, run_windows(policy.as_mut(), set, &cfg, sc.windows))
    })
}

/// Every bin [`bin_workload`]/[`run_bin`] know — i.e. every bin
/// `ekya_grid` can orchestrate: the fig/table suite of the evaluation
/// minus the bins that do not shard (the motivation/example binaries and
/// the sub-second fig03 configuration sweep).
pub fn shardable_bins() -> [&'static str; 10] {
    [
        "fig06_streams",
        "table3_capacity",
        "fig10_delta",
        "fig08_factors",
        "fig07_provisioning",
        "table4_cloud",
        "table5_cache",
        "fig09_allocation",
        "fig11_profiler",
        "ablation_design",
    ]
}

/// The scenario grid of `bin` under `knobs`, or `None` for a bin this
/// registry does not know (the bins that do not shard).
pub fn bin_workload(bin: &str, knobs: &Knobs) -> Option<Grid> {
    match bin {
        "fig06_streams" => Some(fig06_grid(knobs.quick, knobs.windows(4), knobs.seed)),
        "table3_capacity" => Some(table3_grid(knobs.windows(4), knobs.seed)),
        "fig10_delta" => Some(fig10_grid(knobs.windows(4), knobs.streams(10), knobs.seed)),
        "fig08_factors" => Some(fig08_grid_for(knobs)),
        "fig07_provisioning" => Some(fig07_grid_for(knobs)),
        "table4_cloud" => Some(table4_grid_for(knobs)),
        "table5_cache" => Some(table5_grid_for(knobs)),
        "fig09_allocation" => Some(fig09_grid_for(knobs)),
        "fig11_profiler" => Some(fig11_grid_for(knobs)),
        "ablation_design" => Some(ablation_grid_for(knobs)),
        _ => None,
    }
}

/// Executes `bin`'s sweep under `knobs`, writing exactly the report
/// files (and checkpoints) the bin binary writes — the in-process worker
/// entry point `ekya_grid worker` calls for each spawned shard.
/// Presentation (tables, headlines) stays in the binaries; report bytes
/// are identical because both paths run this same code.
pub fn run_bin(bin: &str, knobs: &Knobs) -> Result<(), String> {
    // The grid comes from bin_workload — the same call the planner
    // makes — so a plan and its workers cannot disagree on the grid even
    // if a bin's defaults change. Only the *evaluator* is dispatched
    // here (trace replay, the §6.5 run functions, runner-side toggles;
    // plain scenario grids take the default simulator path).
    let grid = bin_workload(bin, knobs).ok_or_else(|| {
        format!(
            "unknown or non-shardable bin `{bin}` — shardable bins: {}",
            shardable_bins().join(", ")
        )
    })?;
    match bin {
        "fig07_provisioning" => run_fig07_bin(knobs),
        "fig08_factors" => run_fig08_bin(knobs),
        "table4_cloud" => run_table4_bin(knobs),
        "table5_cache" => run_table5_bin(knobs),
        "fig09_allocation" => run_fig09_bin(knobs),
        "fig11_profiler" => run_fig11_bin(knobs),
        "ablation_design" => run_ablation_bin(knobs),
        _ => run_grid_bin(bin, &grid, knobs),
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_shardable_bin() {
        let knobs = Knobs::default();
        for bin in shardable_bins() {
            let grid = bin_workload(bin, &knobs).expect("registered bin has a workload");
            assert!(!grid.cells().is_empty(), "{bin} plans zero cells");
        }
        for bin in ["fig02_motivation", "fig03_configs", "fig04_example", "scheduler_runtime"] {
            assert!(bin_workload(bin, &knobs).is_none(), "{bin} does not shard");
        }
        assert!(run_bin("nope", &knobs).is_err());
    }

    #[test]
    fn workloads_respond_to_knobs() {
        for bin in ["fig08_factors", "fig07_provisioning", "table4_cloud", "fig11_profiler"] {
            let full = bin_workload(bin, &Knobs::default()).unwrap().cells().len();
            let quick = bin_workload(bin, &Knobs { quick: true, ..Knobs::default() })
                .unwrap()
                .cells()
                .len();
            assert!(quick < full, "quick {bin} grid should shrink ({quick} vs {full})");
        }

        // The seed flows into the planned grid, so a plan and its
        // workers can never silently disagree on cell identity.
        let a = bin_workload("fig06_streams", &Knobs::default()).unwrap();
        let b = bin_workload("fig06_streams", &Knobs { seed: 7, ..Knobs::default() }).unwrap();
        assert_ne!(a.cells()[0].seed, b.cells()[0].seed);
    }

    #[test]
    fn quick_replay_and_table_grids_are_subsets_of_full() {
        // Quick cells must exist in the full enumeration so quick-mode
        // results (and the CI smokes built on them) are genuine subsets.
        for (quick, full) in [
            (fig07_grid(true, 6, 10, 42), fig07_grid(false, 6, 10, 42)),
            (
                table4_grid_for(&Knobs { quick: true, ..Knobs::default() }),
                table4_grid_for(&Knobs::default()),
            ),
        ] {
            let full_cells = full.cells();
            for cell in quick.cells() {
                assert!(full_cells.contains(&cell), "quick cell {cell:?} missing from full grid");
            }
        }
    }

    #[test]
    fn table5_grid_always_has_an_eval_window() {
        // EKYA_WINDOWS=1 would starve the cache design of an evaluation
        // window; the grid floors the axis so planner and workers agree
        // on the clamped value.
        let w = table5_grid_for(&Knobs { windows: Some(1), ..Knobs::default() });
        assert_eq!(w.windows, 2);
        assert_eq!(table5_pretrain_windows(w.windows), 1);
        assert!(table5_pretrain_windows(w.windows) < w.windows);
    }

    #[test]
    fn single_cell_and_two_cell_bins_plan_correctly() {
        let knobs = Knobs::default();
        let cells = |bin| bin_workload(bin, &knobs).unwrap().cells().len();
        assert_eq!(cells("fig09_allocation"), 1);
        assert_eq!(cells("table5_cache"), 2);
        let ablation = cells("ablation_design");
        assert_eq!(ablation, 1 + DesignToggle::ALL.len());
    }
}
