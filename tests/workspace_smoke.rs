//! Workspace wiring smoke tests: every prelude symbol is importable and
//! every integration suite in `tests/` is registered with cargo (i.e.
//! compiled into this very test run, not silently skipped).

#![allow(unused_imports)]

use ekya::prelude::*;

/// Every symbol `ekya::prelude` promises, referenced by name so a broken
/// re-export fails compilation of this suite (not just the docs).
#[test]
fn prelude_symbols_importable() {
    // ekya-baselines
    let _: fn(
        ekya::video::DatasetKind,
        &[RetrainConfig],
        &ekya::nn::CostModel,
        u64,
    ) -> (RetrainConfig, RetrainConfig) = holdout_configs;
    let _ = std::any::type_name::<CloudRunConfig>();
    let _ = std::any::type_name::<EkyaFixedConfig>();
    let _ = std::any::type_name::<EkyaFixedRes>();
    let _ = std::any::type_name::<OraclePolicy>();
    let _ = std::any::type_name::<UniformPolicy>();
    let _ = run_cloud_retraining as *const ();
    let _ = run_fig2b as *const ();
    let _ = run_model_cache as *const ();

    // ekya-core
    let _ = default_inference_grid as fn() -> Vec<InferenceConfig>;
    let _ = default_retrain_grid as fn() -> Vec<RetrainConfig>;
    let _ = std::any::type_name::<EkyaPolicy>();
    let _ = std::any::type_name::<MicroProfiler>();
    let _ = std::any::type_name::<MicroProfilerParams>();
    let _ = std::any::type_name::<SchedulerParams>();
    fn _policy_is_object_safe(_: &dyn Policy) {}

    // ekya-core::net / ekya-nn
    let _ = std::any::type_name::<LinkModel>();
    let _ = std::any::type_name::<CostModel>();
    let _ = std::any::type_name::<LearningCurve>();
    let _ = std::any::type_name::<Mlp>();
    let _ = std::any::type_name::<MlpArch>();

    // ekya-server
    let _ = std::any::type_name::<EdgeDaemon>();
    let _ = std::any::type_name::<ServeConfig>();

    // ekya-sim
    let _ = record_trace as *const ();
    let _ = run_windows::<EkyaPolicy> as *const ();
    let _ = std::any::type_name::<ReplayPolicyHarness>();
    let _ = std::any::type_name::<RunReport>();
    let _ = std::any::type_name::<RunnerConfig>();
    let _ = std::any::type_name::<Trace>();

    // ekya-video
    let _ = std::any::type_name::<DatasetKind>();
    let _ = std::any::type_name::<DatasetSpec>();
    let _ = std::any::type_name::<StreamSet>();
    let _ = std::any::type_name::<VideoDataset>();
}

/// The experiment harness surface of `ekya-bench` (scenario grids, the
/// worker pool, the policy registry) stays importable — these are
/// the entry points CI's quick tier and the fig/table bins ride on.
#[test]
fn harness_symbols_importable() {
    // ekya-baselines registry
    let _ = std::any::type_name::<ekya::baselines::PolicySpec>();
    let _ = std::any::type_name::<ekya::baselines::PolicyBuildCtx>();
    let _ = std::any::type_name::<ekya::baselines::HoldoutPick>();
    let _ = ekya::baselines::standard_policies as fn() -> Vec<ekya::baselines::PolicySpec>;

    // ekya-bench grid + harness (dev-dependency of the facade)
    let _ = std::any::type_name::<ekya_bench::Scenario>();
    let _ = std::any::type_name::<ekya_bench::Grid>();
    let _ = std::any::type_name::<ekya_bench::Knobs>();
    let _ = std::any::type_name::<ekya_bench::CellResult>();
    let _ = std::any::type_name::<ekya_bench::HarnessReport>();
    let _ = ekya_bench::run_grid as fn(&ekya_bench::Grid, usize) -> ekya_bench::GridRun;
    let _ = ekya_bench::fig06_grid as fn(bool, usize, u64) -> ekya_bench::Grid;
    let _ = ekya_bench::cell_seed as *const ();

    // Sharded + resumable execution surface (EKYA_SHARD / EKYA_RESUME +
    // `ekya_grid merge` ride on these).
    let _ = std::any::type_name::<ekya_bench::ShardSpec>();
    let _ = std::any::type_name::<ekya_bench::GridExec>();
    let _ = std::any::type_name::<ekya_bench::GridRun>();
    let _ = std::any::type_name::<ekya_bench::RunStats>();
    let _ = std::any::type_name::<ekya_bench::ConfigPoint>();
    let _ = ekya_bench::merge_reports
        as fn(&[ekya_bench::HarnessReport]) -> Result<ekya_bench::HarnessReport, String>;
    let _ = ekya_bench::run_grid_bin as *const ();
    let _ = ekya_bench::load_report as *const ();
    let _ = ekya_bench::report_path as *const ();
    let _ = ekya_bench::coverage_order as *const ();

    // Policies are thread-safe by construction: `Policy: Send` holds for
    // boxed registry output.
    fn assert_send<T: Send + ?Sized>() {}
    assert_send::<dyn Policy>();
}

/// The orchestration surface: the shardable-bin registry + custom-eval
/// grid execution in `ekya-bench`, and the plan/spawn/monitor/retry/merge
/// layers of `ekya_bench::orchestrate` that the `ekya_grid` launcher (and
/// its tests) ride on.
#[test]
fn orchestrator_symbols_importable() {
    // ekya-bench: bin registry + programmatic knob surface.
    let _ = std::any::type_name::<ekya_bench::ConfigSweep>();
    let _ = ekya_bench::bin_workload as *const ();
    let _ = ekya_bench::run_bin as *const ();
    let _ = ekya_bench::run_config_bin as *const ();
    let _ = ekya_bench::run_fig08_bin as *const ();
    let _ = ekya_bench::run_fig07_bin as *const ();
    let _ = ekya_bench::run_table4_bin as *const ();
    let _ = ekya_bench::run_table5_bin as *const ();
    let _ = ekya_bench::run_fig09_bin as *const ();
    let _ = ekya_bench::run_fig11_bin as *const ();
    let _ = ekya_bench::run_ablation_bin as *const ();
    let _ = ekya_bench::shardable_bins as fn() -> [&'static str; 10];
    let _ = ekya_bench::config_grid as *const ();
    let _ = ekya_bench::table3_grid as *const ();
    let _ = ekya_bench::fig08_grid as *const ();
    let _ = ekya_bench::fig07_grid as *const ();
    let _ = ekya_bench::fig10_grid as *const ();
    let _ = ekya_bench::table4_grid_for as *const ();
    let _ = ekya_bench::table5_grid_for as *const ();
    let _ = ekya_bench::fig09_grid_for as *const ();
    let _ = ekya_bench::fig11_grid_for as *const ();
    let _ = ekya_bench::ablation_grid_for as *const ();
    let _ = std::any::type_name::<ekya_bench::ReplayTraces>();
    // The registry-buildable §6.5 / ablation policy surface.
    let _ = std::any::type_name::<ekya::baselines::CloudNetwork>();
    let _ = std::any::type_name::<ekya::baselines::DesignToggle>();
    let _ = std::any::type_name::<ekya::baselines::InferenceOnlyPolicy>();
    let _ = ekya_bench::run_grid_bin_with::<fn(&ekya_bench::Scenario) -> ekya_bench::CellResult>
        as *const ();

    // ekya_bench::orchestrate: plan / spawn / monitor / retry / merge.
    use ekya_bench::orchestrate as orch;
    let _ = std::any::type_name::<orch::Plan>();
    let _ = std::any::type_name::<orch::ShardPlan>();
    let _ = std::any::type_name::<orch::Spawner>();
    let _ = std::any::type_name::<orch::Status>();
    let _ = std::any::type_name::<orch::ShardStatus>();
    let _ = std::any::type_name::<orch::ShardState>();
    let _ = std::any::type_name::<orch::ShardFailure>();
    let _ = std::any::type_name::<orch::RunState>();
    let _ = std::any::type_name::<orch::SuperviseOpts>();
    let _ = std::any::type_name::<orch::MergedInfo>();
    let _ = orch::supervise as *const ();
    let _ = orch::merge_run as *const ();
    let _ = orch::read_status as *const ();
}

/// The facade re-exports all seven sub-crates as modules, plus the
/// server's actor runtime as `ekya::actors` — the same types, not copies.
#[test]
fn facade_modules_present() {
    let _: fn(
        ekya::actors::ActorHandle<DummyActor>,
    ) -> ekya::server::actors::ActorHandle<DummyActor> = |handle| handle;
    let _ = std::any::type_name::<ekya::baselines::uniform::UniformPolicy>();
    let _ = std::any::type_name::<ekya::core::Schedule>();
    let _ = std::any::type_name::<ekya::core::net::LinkQueue>();
    let _ = std::any::type_name::<ekya::nn::Matrix>();
    let _ = std::any::type_name::<ekya::server::TrainOutcome>();
    let _ = std::any::type_name::<ekya::sim::SimTime>();
    let _ = std::any::type_name::<ekya::telemetry::TraceRecord>();
    let _ = std::any::type_name::<ekya::video::ObjectClass>();
}

struct DummyActor;

impl ekya::actors::Actor for DummyActor {
    type Msg = ();
    type Reply = ();

    fn handle(&mut self, _msg: ()) {}
}

/// The determinism lint (`ekya-lint`): its API surface stays importable,
/// its rule set stays at five, and both of its integration suites — the
/// per-rule fixture tests and the workspace-is-lint-clean self-test —
/// exist where cargo auto-discovers them.
#[test]
fn ekya_lint_registered() {
    let _ = std::any::type_name::<ekya_lint::Violation>();
    let _ = std::any::type_name::<ekya_lint::Config>();
    let _ =
        ekya_lint::lint_source as fn(&str, &str, &ekya_lint::Config) -> Vec<ekya_lint::Violation>;
    let _ = ekya_lint::lint_workspace as *const ();
    assert_eq!(ekya_lint::RULES.len(), 5);

    let suites_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/ekya-lint/tests");
    for suite in ["fixtures.rs", "workspace_clean.rs"] {
        let path = suites_dir.join(suite);
        assert!(path.is_file(), "ekya-lint suite {suite} missing from crates/ekya-lint/tests/");
        let src = std::fs::read_to_string(&path).expect("suite readable");
        assert!(src.contains("#[test]"), "ekya-lint suite {suite} contains no #[test] functions");
    }
}

/// The serving path: the multi-tenant daemon surface in `ekya-server`,
/// the loadgen surface in `ekya-bench`, both serving suites registered
/// where cargo discovers them, and the headline determinism contract —
/// two fleet runs with one seed serialize byte-identically.
#[test]
fn serving_path_registered() {
    // ekya-server daemon surface.
    let _ = std::any::type_name::<ekya::server::EdgeDaemon>();
    let _ = std::any::type_name::<ekya::server::ServeConfig>();
    let _ = std::any::type_name::<ekya::server::DaemonClient>();
    let _ = std::any::type_name::<ekya::server::AdmissionError>();
    let _ = std::any::type_name::<ekya::server::ServeError>();
    let _ = std::any::type_name::<ekya::server::ArrivalPattern>();
    let _ = std::any::type_name::<ekya::server::LiveStats>();
    let _ = std::any::type_name::<ekya::server::SwapTarget>();
    let _ = std::any::type_name::<ekya::server::StatusSnapshot>();
    let _ = std::any::type_name::<ekya::server::StreamStatus>();
    // Backpressure substrate the daemon's trainers ride on (exercised, not
    // just named: `impl Into<String>` params cannot be turbofished).
    let bounded = ekya::actors::spawn_bounded("smoke-bounded", DummyActor, 1);
    bounded.ask(()).expect("bounded mailbox delivers");
    bounded.stop();
    let supervised = ekya::actors::spawn_supervised_bounded("smoke-sup", || DummyActor, 1);
    supervised.ask(()).expect("bounded supervised mailbox delivers");
    supervised.stop();

    // ekya-bench loadgen surface.
    let _ = std::any::type_name::<ekya_bench::FleetConfig>();
    let _ = std::any::type_name::<ekya_bench::LoadgenReport>();
    let _ = ekya_bench::run_fleet as *const ();
    let _ = ekya_bench::build_daemon as *const ();
    let _ = ekya_bench::quick_fleet as *const ();
    let _ = ekya_bench::knob::streams_live as fn() -> Option<usize>;
    let _ = ekya_bench::knob::serve_crash_after as fn() -> Option<usize>;
    let _ = ekya_bench::knob::arrival as fn() -> ekya::server::ArrivalPattern;

    // Both serving suites exist where cargo auto-discovers them.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (dir, suite) in
        [("crates/ekya-server/tests", "serve.rs"), ("crates/ekya-bench/tests", "serve_path.rs")]
    {
        let path = root.join(dir).join(suite);
        assert!(path.is_file(), "serving suite {suite} missing from {dir}/");
        let src = std::fs::read_to_string(&path).expect("suite readable");
        assert!(src.contains("#[test]"), "serving suite {suite} contains no #[test] functions");
    }

    // Determinism: one seed, two runs, byte-identical snapshots.
    let a = ekya_bench::run_fleet(&ekya_bench::FleetConfig::serial(2, 1, 7)).0;
    let b = ekya_bench::run_fleet(&ekya_bench::FleetConfig::serial(2, 1, 7)).0;
    assert_eq!(
        serde_json::to_string_pretty(&a.snapshot).unwrap(),
        serde_json::to_string_pretty(&b.snapshot).unwrap(),
        "serving snapshots must be byte-identical for one seed"
    );
}

/// The telemetry surface (`ekya-telemetry`): both planes' entry points
/// stay importable through the facade, the logical-plane toolkit
/// (parse / merge / validate / summarize / chrome export) stays intact,
/// the `EKYA_TRACE` knob stays on the knob surface, and the trace
/// integration suite exists where cargo auto-discovers it.
#[test]
fn telemetry_registered() {
    // Session control + the disabled-fast-path check.
    let _ = ekya::telemetry::start as fn(Option<std::path::PathBuf>);
    let _ = ekya::telemetry::stop as fn();
    let _ = ekya::telemetry::enabled as fn() -> bool;
    let _ = ekya::telemetry::flush as fn() -> std::io::Result<()>;
    let _ = ekya::telemetry::render as fn() -> String;

    // Logical-plane emission + context keying.
    let _ = std::any::type_name::<ekya::telemetry::Ctx>();
    let _ = std::any::type_name::<ekya::telemetry::CtxGuard>();
    let _ = std::any::type_name::<ekya::telemetry::TraceRecord>();
    let _ = ekya::telemetry::span as fn(&str, &str, f64, &str);
    let _ = ekya::telemetry::event as fn(&str, &str, &str);
    let _ = ekya::telemetry::counter_add as fn(&str, &str, u64);
    let _ = ekya::telemetry::hist_observe as fn(&str, &str, f64);

    // Trace toolkit the ekya_trace bin rides on.
    let _ = ekya::telemetry::parse_trace as *const ();
    let _ = ekya::telemetry::merge_traces as *const ();
    let _ = ekya::telemetry::validate_trace as fn(&str) -> Vec<String>;
    let _ = ekya::telemetry::chrome_trace as *const ();
    let _ = ekya::telemetry::summarize as *const ();
    let _ = ekya::telemetry::timeline as *const ();
    let _ = std::any::type_name::<ekya::telemetry::SummaryRow>();
    let _ = ekya::telemetry::HIST_BUCKETS;

    // Wall-clock plane: quarantined in the timing module, sidecar-only.
    let _ =
        ekya::telemetry::wall_span as fn(&'static str, &'static str) -> ekya::telemetry::WallSpan;
    let _ = ekya::telemetry::wall_gauge_max as fn(&'static str, &'static str, u64);

    // The EKYA_TRACE knob + the trace-path policy live on ekya-bench.
    let _ = ekya_bench::knob::trace as fn() -> Option<String>;
    let _ = ekya_bench::trace_path as *const ();

    // The trace integration suite exists where cargo discovers it.
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/ekya-bench/tests/trace.rs");
    assert!(path.is_file(), "trace suite missing from crates/ekya-bench/tests/");
    let src = std::fs::read_to_string(&path).expect("suite readable");
    assert!(src.contains("#[test]"), "trace suite contains no #[test] functions");
}

/// All integration suites exist where cargo auto-discovers them. Each
/// `tests/*.rs` file is its own test target, so presence in this
/// directory == registration; a deleted or moved suite fails here
/// instead of silently dropping out of CI.
#[test]
fn integration_suites_registered() {
    let tests_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    for suite in ["end_to_end.rs", "extensions.rs", "properties.rs"] {
        let path = tests_dir.join(suite);
        assert!(path.is_file(), "integration suite {suite} missing from tests/");
        let src = std::fs::read_to_string(&path).expect("suite readable");
        assert!(src.contains("#[test]"), "integration suite {suite} contains no #[test] functions");
    }
}

/// The quickstart pipeline from the crate docs runs end to end (the same
/// flow as the `src/lib.rs` doctest, kept here as a plain test so it is
/// exercised even under `--tests`-only runs).
#[test]
fn quickstart_pipeline_runs() {
    let streams = StreamSet::generate(DatasetKind::UrbanTraffic, 2, 3, 42);
    let mut policy = EkyaPolicy::new(SchedulerParams::new(1.0));
    let cfg = RunnerConfig { total_gpus: 1.0, ..RunnerConfig::default() };
    let report = run_windows(&mut policy, &streams, &cfg, 3);
    assert!(report.mean_accuracy() > 0.0);
}
