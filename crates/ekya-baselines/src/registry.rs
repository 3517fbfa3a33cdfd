//! Declarative, thread-safe policy registry.
//!
//! The experiment harness (`ekya-bench`) describes grid cells as plain
//! data; [`PolicySpec`] is the data form of "which scheduler runs this
//! cell". A spec is `Serialize`/`Deserialize` (so it travels inside cell
//! results) and builds a boxed `Policy + Send` on demand — the build
//! happens *inside* the worker thread that owns the cell, so nothing
//! non-thread-safe ever crosses threads.
//!
//! Uniform-baseline specs need the hold-out Config 1 / Config 2 pair
//! (§6.1), which costs a warm-up training plus an exhaustive profile per
//! (dataset, seed). That derivation is a pure function of its key, so it
//! is memoised process-wide behind a mutex: concurrent cells of one grid
//! pay for it once.

use crate::ablations::{EkyaFixedConfig, EkyaFixedRes};
use crate::uniform::{holdout_configs, UniformPolicy};
use crate::OraclePolicy;
use ekya_core::net::LinkModel;
use ekya_core::{
    best_feasible_infer, default_retrain_grid, fnv1a, EkyaPolicy, InferenceConfig, Policy,
    PolicyCtx, RetrainConfig, SchedulerParams, StreamPlan, WindowPlan,
};
use ekya_nn::cost::CostModel;
use ekya_sim::RunnerConfig;
use ekya_video::DatasetKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Which hold-out Pareto point a uniform-family spec pins (§6.1:
/// Config 1 = high-resource, Config 2 = low-resource).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HoldoutPick {
    /// The most accurate Pareto point.
    Config1,
    /// The cheapest Pareto point within 0.05 accuracy of the knee.
    Config2,
}

impl HoldoutPick {
    fn short(self) -> &'static str {
        match self {
            HoldoutPick::Config1 => "Config 1",
            HoldoutPick::Config2 => "Config 2",
        }
    }
}

/// The Table 4 network presets as plain serializable data — the
/// [`LinkModel`] itself embeds a `&'static str` name, so this enum is
/// what travels inside a [`PolicySpec`] (and therefore inside cell
/// results on disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CloudNetwork {
    /// 4G cellular (5.1 / 17.5 Mbps).
    Cellular,
    /// Satellite broadband (8.5 / 15 Mbps).
    Satellite,
    /// Two bonded cellular subscriptions (10.2 / 35 Mbps).
    Cellular2x,
}

impl CloudNetwork {
    /// All presets, in Table 4's row order.
    pub const ALL: [CloudNetwork; 3] =
        [CloudNetwork::Cellular, CloudNetwork::Satellite, CloudNetwork::Cellular2x];

    /// The concrete link model this preset names.
    pub fn link(self) -> LinkModel {
        match self {
            CloudNetwork::Cellular => LinkModel::cellular(),
            CloudNetwork::Satellite => LinkModel::satellite(),
            CloudNetwork::Cellular2x => LinkModel::cellular_2x(),
        }
    }

    /// The link's human-readable name (matches the paper's table rows).
    pub fn name(self) -> &'static str {
        self.link().name
    }
}

/// One §5 implementation mechanism the `ablation_design` sweep can
/// switch off independently (see [`PolicySpec::DesignAblation`]). The
/// toggle itself acts on the *runner* configuration — the scheduling
/// policy stays full Ekya — so [`DesignToggle::apply`] is what the bin's
/// cell evaluator calls before executing the windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignToggle {
    /// Disable checkpoint hot-swaps (§5 "model checkpointing and
    /// reloading").
    NoCheckpointSwaps,
    /// Disable mid-window estimate correction + rescheduling (§5).
    NoAdaptEstimates,
    /// Disable the iCaRL exemplar memory (§2.2).
    NoExemplarMemory,
    /// Quantise allocations to inverse powers of two before placement
    /// (§5 "placement onto GPUs").
    QuantizedPlacement,
    /// Do not charge micro-profiling GPU time (idealised profiler, §4.3).
    FreeProfiling,
}

impl DesignToggle {
    /// Every toggle, in the ablation table's row order.
    pub const ALL: [DesignToggle; 5] = [
        DesignToggle::NoCheckpointSwaps,
        DesignToggle::NoAdaptEstimates,
        DesignToggle::NoExemplarMemory,
        DesignToggle::QuantizedPlacement,
        DesignToggle::FreeProfiling,
    ];

    /// Human-readable row label (matches the original ablation table).
    pub fn label(self) -> &'static str {
        match self {
            DesignToggle::NoCheckpointSwaps => "no checkpoint hot-swaps",
            DesignToggle::NoAdaptEstimates => "no mid-window estimate correction",
            DesignToggle::NoExemplarMemory => "no exemplar memory (iCaRL off)",
            DesignToggle::QuantizedPlacement => "quantised MPS placement (inverse powers of two)",
            DesignToggle::FreeProfiling => "profiling not charged (idealised)",
        }
    }

    /// Returns `cfg` with this mechanism toggled.
    pub fn apply(self, cfg: RunnerConfig) -> RunnerConfig {
        match self {
            DesignToggle::NoCheckpointSwaps => {
                RunnerConfig { checkpoint_every_epochs: None, ..cfg }
            }
            DesignToggle::NoAdaptEstimates => RunnerConfig { adapt_estimates: false, ..cfg },
            DesignToggle::NoExemplarMemory => RunnerConfig { exemplar_per_class: 0, ..cfg },
            DesignToggle::QuantizedPlacement => RunnerConfig { quantize_placement: true, ..cfg },
            DesignToggle::FreeProfiling => RunnerConfig { charge_profiling: false, ..cfg },
        }
    }
}

/// A declarative policy constructor: plain data naming one scheduler
/// variant. Build it into a live policy with [`PolicySpec::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Full Ekya: micro-profiles + thief scheduler.
    Ekya,
    /// Ekya with an overridden allocation quantum Δ (Fig 10).
    EkyaDelta {
        /// The allocation quantum.
        delta: f64,
    },
    /// The uniform baseline: fixed hold-out configuration + static
    /// inference/training split.
    Uniform {
        /// Which hold-out Pareto point to pin.
        pick: HoldoutPick,
        /// Fraction of GPUs reserved for inference.
        inference_share: f64,
    },
    /// Ekya without the thief allocator (Fig 8 ablation).
    FixedRes {
        /// Fraction of GPUs reserved for inference.
        inference_share: f64,
    },
    /// Ekya without configuration adaptation (Fig 8 ablation).
    FixedConfig {
        /// Which hold-out Pareto point to pin.
        pick: HoldoutPick,
    },
    /// The exact accuracy-optimal scheduler (knapsack DP).
    Oracle,
    /// Cloud-offload retraining over a constrained link (Table 4): the
    /// edge keeps every GPU on inference while the cloud retrains and
    /// ships models back over `network`. Builds an
    /// [`InferenceOnlyPolicy`] for the edge side; the network-arrival
    /// accuracy simulation lives in
    /// [`run_cloud_retraining`](crate::run_cloud_retraining), which the
    /// `table4_cloud` bin's cell evaluator drives keyed on this spec.
    CloudDelay {
        /// Which network connects the edge to the cloud.
        network: CloudNetwork,
        /// Bandwidth multiplier on both directions of the link (Table 4's
        /// "how much fatter must the link get" axis); `1.0` is the preset
        /// as measured.
        bandwidth_scale: f64,
    },
    /// Cached-model reuse by nearest class distribution (§6.5): no
    /// retraining, every GPU on inference. Builds an
    /// [`InferenceOnlyPolicy`]; the cache simulation lives in
    /// [`run_model_cache`](crate::run_model_cache), driven by the
    /// `table5_cache` bin's evaluator keyed on this spec.
    ModelCache,
    /// Full Ekya under controlled Gaussian noise ε injected into the
    /// micro-profiler's accuracy estimates (Fig 11b). The noise is a
    /// *runner* property (`RunnerConfig::profiler.noise_std`), applied by
    /// the `fig11_profiler` evaluator; `build` returns plain
    /// [`EkyaPolicy`], so — like [`PolicySpec::EkyaDelta`] — the label
    /// disambiguates and lookups must use spec equality.
    EkyaNoise {
        /// Standard deviation of the injected estimate noise.
        noise_std: f64,
    },
    /// Full Ekya with one §5 implementation mechanism switched off
    /// (the `ablation_design` sweep). The toggle acts on the runner
    /// configuration ([`DesignToggle::apply`], called by the bin's
    /// evaluator); `build` returns plain [`EkyaPolicy`] — label
    /// disambiguates, lookups use spec equality.
    DesignAblation {
        /// Which mechanism is off.
        toggle: DesignToggle,
    },
}

/// Everything a [`PolicySpec`] needs to turn into a live policy.
#[derive(Debug, Clone)]
pub struct PolicyBuildCtx {
    /// Workload dataset (drives hold-out config derivation).
    pub dataset: DatasetKind,
    /// Total GPUs on the edge server.
    pub gpus: f64,
    /// Seed for the hold-out derivation. Keep it constant across the
    /// cells of one grid so every policy variant is selected on the same
    /// hold-out stream.
    pub holdout_seed: u64,
    /// Candidate retraining configurations Γ.
    pub retrain_grid: Vec<RetrainConfig>,
    /// GPU cost model.
    pub cost: CostModel,
}

impl PolicyBuildCtx {
    /// Paper-default context.
    pub fn new(dataset: DatasetKind, gpus: f64, holdout_seed: u64) -> Self {
        Self {
            dataset,
            gpus,
            holdout_seed,
            retrain_grid: default_retrain_grid(),
            cost: CostModel::default(),
        }
    }
}

/// Process-wide memo of the hold-out (Config 1, Config 2) derivation.
/// The key covers *every* input the derivation depends on — dataset,
/// seed, and a fingerprint of the candidate grid and cost model — so a
/// context with a customised `retrain_grid` or `cost` can never be
/// served configs derived from a different one. The value is a pure
/// function of the key, so caching cannot change results — only skip
/// recomputation.
fn cached_holdout(
    kind: DatasetKind,
    grid: &[RetrainConfig],
    cost: &CostModel,
    seed: u64,
) -> (RetrainConfig, RetrainConfig) {
    type ConfigPair = (RetrainConfig, RetrainConfig);
    type Key = (DatasetKind, u64, u64);
    // Keyed get/insert only — nothing ever iterates this memo, so hash
    // order cannot reach any serialized byte (and DatasetKind has no Ord
    // for a BTreeMap to use).
    // ekya-lint: allow(unordered-iter)
    static CACHE: OnceLock<Mutex<HashMap<Key, ConfigPair>>> = OnceLock::new();
    // Debug output is a complete rendering of both inputs (all fields
    // are plain data), giving a stable within-process fingerprint.
    let fingerprint = fnv1a(format!("{grid:?}|{cost:?}").as_bytes());
    let key = (kind, seed, fingerprint);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new())); // ekya-lint: allow(unordered-iter)
    if let Some(hit) = cache.lock().expect("holdout cache lock").get(&key) {
        return *hit;
    }
    // Derive outside the lock: the derivation trains a model, and other
    // cells should not serialise behind it. A racing duplicate computes
    // the identical value.
    let pair = holdout_configs(kind, grid, cost, seed);
    cache.lock().expect("holdout cache lock").insert(key, pair);
    pair
}

impl PolicySpec {
    /// Stable display label, also used in reports (matches the paper's
    /// figure legends). For most variants this equals the built policy's
    /// `name()`, so bins may key result lookups by either. The documented
    /// exceptions — [`PolicySpec::EkyaDelta`], [`PolicySpec::EkyaNoise`],
    /// and [`PolicySpec::DesignAblation`], whose built policy is plain
    /// Ekya, and [`PolicySpec::CloudDelay`] with a non-unit
    /// `bandwidth_scale` — disambiguate the variant parameter in the
    /// label, so lookups for them must use spec equality, not the label.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Ekya => "Ekya".into(),
            PolicySpec::EkyaDelta { delta } => format!("Ekya (Δ={delta})"),
            PolicySpec::Uniform { pick, inference_share } => {
                format!("Uniform ({}, {:.0}%)", pick.short(), inference_share * 100.0)
            }
            PolicySpec::FixedRes { .. } => "Ekya-FixedRes".into(),
            PolicySpec::FixedConfig { .. } => "Ekya-FixedConfig".into(),
            PolicySpec::Oracle => "Accuracy-optimal (oracle)".into(),
            // The ×1.0 label matches run_cloud_retraining's report name.
            PolicySpec::CloudDelay { network, bandwidth_scale } if *bandwidth_scale == 1.0 => {
                format!("Cloud ({})", network.name())
            }
            PolicySpec::CloudDelay { network, bandwidth_scale } => {
                format!("Cloud ({} ×{bandwidth_scale})", network.name())
            }
            PolicySpec::ModelCache => "Model cache".into(),
            PolicySpec::EkyaNoise { noise_std } => format!("Ekya (ε={noise_std})"),
            PolicySpec::DesignAblation { toggle } => format!("Ekya ({})", toggle.label()),
        }
    }

    /// Builds the live policy. Thread-safe: call it from any worker.
    pub fn build(&self, ctx: &PolicyBuildCtx) -> Box<dyn Policy + Send> {
        let params = SchedulerParams::new(ctx.gpus);
        let holdout = |pick: HoldoutPick| -> RetrainConfig {
            let (c1, c2) =
                cached_holdout(ctx.dataset, &ctx.retrain_grid, &ctx.cost, ctx.holdout_seed);
            match pick {
                HoldoutPick::Config1 => c1,
                HoldoutPick::Config2 => c2,
            }
        };
        match self {
            PolicySpec::Ekya => Box::new(EkyaPolicy::new(params)),
            PolicySpec::EkyaDelta { delta } => {
                Box::new(EkyaPolicy::new(SchedulerParams { delta: *delta, ..params }))
            }
            PolicySpec::Uniform { pick, inference_share } => {
                Box::new(UniformPolicy::new(holdout(*pick), *inference_share, self.label()))
            }
            PolicySpec::FixedRes { inference_share } => {
                Box::new(EkyaFixedRes::new(params, *inference_share))
            }
            PolicySpec::FixedConfig { pick } => {
                Box::new(EkyaFixedConfig::new(params, holdout(*pick)))
            }
            PolicySpec::Oracle => Box::new(OraclePolicy::new(params)),
            PolicySpec::CloudDelay { .. } | PolicySpec::ModelCache => {
                Box::new(InferenceOnlyPolicy::new(self.label()))
            }
            // Noise and design toggles are runner-side (see the variant
            // docs); the edge scheduling policy is full Ekya.
            PolicySpec::EkyaNoise { .. } | PolicySpec::DesignAblation { .. } => {
                Box::new(EkyaPolicy::new(params))
            }
        }
    }
}

/// The edge-side schedule of the §6.5 alternative designs (cloud
/// offload, cached models): never retrain, split every GPU evenly across
/// the streams, serve each with its best feasible inference
/// configuration. [`PolicySpec::CloudDelay`] and
/// [`PolicySpec::ModelCache`] build this, so their cells carry a live
/// `Policy` like every other spec; the designs' *accuracy* simulations
/// (network arrival delays, cache lookups) stay in
/// [`run_cloud_retraining`](crate::run_cloud_retraining) and
/// [`run_model_cache`](crate::run_model_cache), which the table bins'
/// evaluators drive keyed on the spec.
#[derive(Debug, Clone)]
pub struct InferenceOnlyPolicy {
    name: String,
}

impl InferenceOnlyPolicy {
    /// A policy reporting under `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Policy for InferenceOnlyPolicy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn needs_profiles(&self) -> bool {
        false
    }

    fn plan_window(&mut self, ctx: &PolicyCtx<'_>) -> WindowPlan {
        let share = ctx.total_gpus / ctx.streams.len().max(1) as f64;
        let streams = ctx
            .streams
            .iter()
            .map(|s| {
                let infer_config = best_feasible_infer(s.infer_profiles, share)
                    .map_or(InferenceConfig::FALLBACK, |p| p.config);
                StreamPlan { retrain: None, infer_config, infer_gpus: share }
            })
            .collect();
        WindowPlan { streams }
    }
}

/// The paper's standard comparison set: Ekya plus the four uniform
/// variants of Figs 6 and 7.
pub fn standard_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Ekya,
        PolicySpec::Uniform { pick: HoldoutPick::Config1, inference_share: 0.5 },
        PolicySpec::Uniform { pick: HoldoutPick::Config2, inference_share: 0.3 },
        PolicySpec::Uniform { pick: HoldoutPick::Config2, inference_share: 0.5 },
        PolicySpec::Uniform { pick: HoldoutPick::Config2, inference_share: 0.9 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicySpec::Ekya.label(), "Ekya");
        assert_eq!(
            PolicySpec::Uniform { pick: HoldoutPick::Config2, inference_share: 0.9 }.label(),
            "Uniform (Config 2, 90%)"
        );
        assert_eq!(PolicySpec::EkyaDelta { delta: 0.25 }.label(), "Ekya (Δ=0.25)");
        // ×1.0 cloud labels match run_cloud_retraining's report names.
        assert_eq!(
            PolicySpec::CloudDelay { network: CloudNetwork::Cellular, bandwidth_scale: 1.0 }
                .label(),
            "Cloud (Cellular)"
        );
        assert_eq!(
            PolicySpec::CloudDelay { network: CloudNetwork::Satellite, bandwidth_scale: 2.0 }
                .label(),
            "Cloud (Satellite ×2)"
        );
        assert_eq!(PolicySpec::ModelCache.label(), "Model cache");
        assert_eq!(PolicySpec::EkyaNoise { noise_std: 0.2 }.label(), "Ekya (ε=0.2)");
        assert_eq!(
            PolicySpec::DesignAblation { toggle: DesignToggle::NoExemplarMemory }.label(),
            "Ekya (no exemplar memory (iCaRL off))"
        );
    }

    #[test]
    fn specs_roundtrip_through_json() {
        let mut specs = standard_policies();
        specs.push(PolicySpec::CloudDelay {
            network: CloudNetwork::Cellular2x,
            bandwidth_scale: 1.5,
        });
        specs.push(PolicySpec::ModelCache);
        specs.push(PolicySpec::EkyaNoise { noise_std: 0.05 });
        specs.push(PolicySpec::DesignAblation { toggle: DesignToggle::FreeProfiling });
        for spec in specs {
            let json = serde_json::to_string(&spec).expect("serialises");
            let back: PolicySpec = serde_json::from_str(&json).expect("parses");
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn inference_only_policy_never_retrains_and_splits_evenly() {
        use ekya_core::{build_inference_profiles, PolicyStream};
        use ekya_nn::cost::CostModel;
        use ekya_video::StreamId;
        let infer = build_inference_profiles(
            &CostModel::default(),
            1.0,
            30.0,
            &ekya_core::default_inference_grid(),
        );
        let class_dist = vec![1.0 / 6.0; 6];
        let ctx = PolicyCtx {
            window_idx: 0,
            window_secs: 200.0,
            total_gpus: 4.0,
            streams: (0..2)
                .map(|i| PolicyStream {
                    id: StreamId(i),
                    fps: 30.0,
                    serving_accuracy: 0.5,
                    class_dist: &class_dist,
                    drift_magnitude: 0.1,
                    retrain_profiles: &[],
                    infer_profiles: &infer,
                })
                .collect(),
        };
        let spec = PolicySpec::CloudDelay { network: CloudNetwork::Cellular, bandwidth_scale: 1.0 };
        let build_ctx = PolicyBuildCtx::new(DatasetKind::Cityscapes, 4.0, 7);
        let mut policy = spec.build(&build_ctx);
        assert_eq!(policy.name(), spec.label());
        assert!(!policy.needs_profiles());
        let plan = policy.plan_window(&ctx);
        assert!(plan.streams.iter().all(|s| s.retrain.is_none()));
        assert!(plan.streams.iter().all(|s| (s.infer_gpus - 2.0).abs() < 1e-9));
    }

    #[test]
    fn design_toggles_act_on_the_runner_config() {
        let base = RunnerConfig::default();
        assert!(DesignToggle::NoCheckpointSwaps
            .apply(base.clone())
            .checkpoint_every_epochs
            .is_none());
        assert!(!DesignToggle::NoAdaptEstimates.apply(base.clone()).adapt_estimates);
        assert_eq!(DesignToggle::NoExemplarMemory.apply(base.clone()).exemplar_per_class, 0);
        assert!(DesignToggle::QuantizedPlacement.apply(base.clone()).quantize_placement);
        assert!(!DesignToggle::FreeProfiling.apply(base).charge_profiling);
    }

    #[test]
    fn build_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let ctx = PolicyBuildCtx::new(DatasetKind::Waymo, 2.0, 7);
        let policy = PolicySpec::Ekya.build(&ctx);
        assert_send(&policy);
        assert_eq!(policy.name(), "Ekya");
    }

    #[test]
    fn labels_match_built_policy_names() {
        // The fig/table bins key result-table lookups by label(), while
        // reports carry the built policy's name() — these must agree for
        // every variant the bins look up that way (EkyaDelta is the
        // documented exception: its label disambiguates the Δ).
        let ctx = PolicyBuildCtx::new(DatasetKind::Waymo, 2.0, 5);
        let mut specs = standard_policies();
        specs.push(PolicySpec::FixedRes { inference_share: 0.5 });
        specs.push(PolicySpec::FixedConfig { pick: HoldoutPick::Config2 });
        specs.push(PolicySpec::Oracle);
        for spec in specs {
            assert_eq!(spec.label(), spec.build(&ctx).name(), "label/name mismatch: {spec:?}");
        }
    }

    #[test]
    fn holdout_cache_keyed_by_grid() {
        // A customised retrain grid must not be served configs derived
        // from the default grid (the cache key fingerprints the grid).
        let cost = CostModel::default();
        let full = default_retrain_grid();
        let trimmed: Vec<_> = full.iter().copied().take(4).collect();
        let (a1, a2) = cached_holdout(DatasetKind::Waymo, &full, &cost, 123);
        let (b1, b2) = cached_holdout(DatasetKind::Waymo, &trimmed, &cost, 123);
        assert!(trimmed.contains(&b1) && trimmed.contains(&b2));
        // The full-grid pair stays cached and unchanged.
        assert_eq!(cached_holdout(DatasetKind::Waymo, &full, &cost, 123), (a1, a2));
    }

    #[test]
    fn holdout_cache_consistent_with_direct_derivation() {
        let grid = default_retrain_grid();
        let cost = CostModel::default();
        let a = cached_holdout(DatasetKind::UrbanTraffic, &grid, &cost, 99);
        let b = cached_holdout(DatasetKind::UrbanTraffic, &grid, &cost, 99);
        assert_eq!(a, b);
        let direct = holdout_configs(DatasetKind::UrbanTraffic, &grid, &cost, 99);
        assert_eq!(a, direct);
    }
}
