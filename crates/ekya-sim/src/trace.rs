//! Trace recording and trace-driven replay.
//!
//! The paper scales its evaluation beyond the testbed with a simulator
//! that "takes as input the accuracy and resource usage (in GPU time) of
//! training/inference configurations logged from our testbed … For each
//! training job in a window, we log the training-accuracy progression
//! over GPU-time. We also log the inference accuracy on the real videos"
//! (§6.1). This module reproduces that methodology:
//!
//! * [`record_trace`] runs a reference pipeline once per stream —
//!   retraining fully every window — and logs (a) *true* learning curves
//!   per model variant (observed epoch-by-epoch on ground truth),
//!   (b) micro-profiled *estimates* (what a policy's scheduler would
//!   see), and (c) a staleness ladder: the accuracy on each window of
//!   models that last retrained 1, 2, … windows ago.
//! * [`ReplayPolicyHarness`] then evaluates any [`Policy`] against the
//!   trace in closed form: decisions are made on the logged estimates,
//!   outcomes are computed from the logged truth. Replays are orders of
//!   magnitude faster than mechanistic runs, enabling the Fig 7-style
//!   provisioning sweeps.
//!
//! Fidelity caveats (shared with the paper's simulator): replay does not
//! model checkpoint hot-swaps or mid-window rescheduling, and retraining
//! curves are those of the reference model chain, so a policy that skips
//! many windows sees slightly optimistic retraining outcomes.

use crate::metrics::{RunReport, StreamWindowReport, WindowReport};
use crate::runner::RunnerConfig;
use ekya_core::{
    build_inference_profiles, CurveKey, InferenceProfile, MicroProfiler, Policy, PolicyCtx,
    PolicyStream, RetrainExecution, RetrainProfile,
};
use ekya_nn::data::DataView;
use ekya_nn::fit::LearningCurve;
use ekya_nn::golden::{distill_labels, OracleTeacher};
use ekya_nn::mlp::{Mlp, MlpArch};
use ekya_video::{StreamId, StreamSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Logged data for one stream in one window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamWindowTrace {
    /// Stream identity.
    pub stream: StreamId,
    /// Class distribution of the window.
    pub class_dist: Vec<f64>,
    /// Appearance-drift magnitude since the previous window.
    pub drift: f64,
    /// Stream frame rate.
    pub fps: f64,
    /// `stale_accuracy[j]`: measured accuracy on this window of the
    /// reference model that last completed retraining `j+1` windows ago
    /// (`j = 0` ⇒ retrained on the previous window's data). The last
    /// entry doubles as the floor for older models.
    pub stale_accuracy: Vec<f64>,
    /// Micro-profiled estimates (what a scheduler sees).
    pub est_profiles: Vec<RetrainProfile>,
    /// Ground-truth learning curves per model variant, observed by
    /// actually retraining the reference model through the full run.
    pub true_curves: Vec<(CurveKey, LearningCurve)>,
    /// GPU-seconds the micro-profiling itself cost.
    pub profiling_gpu_seconds: f64,
}

impl StreamWindowTrace {
    /// The true curve for a configuration's model variant, if logged.
    pub fn true_curve(&self, key: CurveKey) -> Option<&LearningCurve> {
        self.true_curves.iter().find(|(k, _)| *k == key).map(|(_, c)| c)
    }

    /// Serving accuracy for a model `staleness` windows old.
    pub fn serving_accuracy(&self, staleness: usize) -> f64 {
        if self.stale_accuracy.is_empty() {
            return 0.0;
        }
        let idx = staleness.min(self.stale_accuracy.len() - 1);
        self.stale_accuracy[idx]
    }
}

/// One window across all streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowTrace {
    /// Window index.
    pub window_idx: usize,
    /// Per-stream logs.
    pub streams: Vec<StreamWindowTrace>,
}

/// A complete logged trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Window duration in seconds.
    pub window_secs: f64,
    /// Number of object classes.
    pub num_classes: usize,
    /// Windows in order.
    pub windows: Vec<WindowTrace>,
}

impl Trace {
    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialises")
    }

    /// Stable content fingerprint (FNV-1a over the canonical JSON
    /// serialisation) — the recording's identity.
    ///
    /// A recording is a pure function of (stream set, runner config,
    /// windows, staleness), so two processes that record the same
    /// workload must land on the same fingerprint. That is what lets
    /// recorded-then-replayed grids (fig 7/8) shard across processes:
    /// each shard re-records its traces independently, and the
    /// fingerprint — logged at recording time — is the cross-machine
    /// witness that every shard replayed against identical data. Two
    /// runs that disagree here cannot produce byte-identical replay
    /// cells and must not be merged.
    pub fn fingerprint(&self) -> u64 {
        ekya_core::fnv1a(self.to_json().as_bytes())
    }
}

/// Records a trace by running the reference pipeline (full retraining
/// every window) over `num_windows` windows. `max_staleness` bounds the
/// staleness ladder length.
pub fn record_trace(
    streams: &StreamSet,
    cfg: &RunnerConfig,
    num_windows: usize,
    max_staleness: usize,
) -> Trace {
    assert!(!streams.is_empty(), "need at least one stream");
    assert!(max_staleness >= 1, "need at least one staleness level");
    let datasets: Vec<_> = streams.iter().collect();
    let _n = datasets.len();
    let window_secs = datasets[0].1.spec.window_secs;
    let num_classes = datasets[0].1.num_classes;

    // The richest configuration per curve key drives the true-curve runs.
    // A BTreeMap, because this ordering is load-bearing: replay looks
    // curves up by key, so ordering never changes results — but it IS
    // the recorded `true_curves` ordering, and the trace fingerprint
    // (the cross-process recording identity) hashes the content. Hash
    // order would make byte-identical workloads fingerprint differently.
    // `CurveKey: Ord` iterates (batch, width, depth) — the same order
    // the explicit sort here historically produced, so fingerprints of
    // previously recorded traces are unchanged (pinned by a test below).
    let mut richest: BTreeMap<CurveKey, ekya_core::RetrainConfig> = BTreeMap::new();
    for c in &cfg.retrain_grid {
        let key = c.curve_key();
        let e = richest.entry(key).or_insert(*c);
        if c.k_total() > e.k_total() {
            *e = *c;
        }
    }
    let richest: Vec<(CurveKey, ekya_core::RetrainConfig)> = richest.into_iter().collect();
    // The reference chain adopts the deepest (most layers, widest k)
    // variant each window.
    let reference_cfg = *cfg
        .retrain_grid
        .iter()
        .max_by(|a, b| {
            (a.layers_trained, a.k_total())
                .partial_cmp(&(b.layers_trained, b.k_total()))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty grid");

    let mut windows: Vec<WindowTrace> =
        (0..num_windows).map(|w| WindowTrace { window_idx: w, streams: Vec::new() }).collect();

    for (s, (id, ds)) in datasets.iter().enumerate() {
        let seed = cfg.seed.wrapping_add(7919 * s as u64);
        let mut teacher = OracleTeacher::new(cfg.teacher_error_rate, num_classes, seed ^ 0xC0);
        let mut profiler = MicroProfiler::new(cfg.profiler, cfg.cost.clone(), seed ^ 0xB00);
        let mut model =
            Mlp::new(MlpArch::edge(ds.feature_dim, num_classes, cfg.initial_head_width), seed);
        // Snapshots of the reference model after each window's retraining;
        // snapshots[0] is the untrained bootstrap model.
        let mut snapshots: Vec<Mlp> = vec![model.clone()];

        for (w_idx, window) in windows.iter_mut().enumerate() {
            let w = ds.window(w_idx);
            let fresh = distill_labels(&mut teacher, &w.train_pool);
            let sys_val = distill_labels(&mut teacher, &w.val);
            let true_view = DataView::new(&w.val, num_classes);

            // Staleness ladder: snapshots[end] is freshest (retrained on
            // the previous window).
            let stale_accuracy: Vec<f64> = (0..max_staleness)
                .map(|j| {
                    let idx = snapshots.len().saturating_sub(1 + j);
                    snapshots[idx].accuracy(true_view)
                })
                .collect();

            // Estimates: what a policy's micro-profiler would see.
            let out = profiler.profile(
                &model,
                &fresh,
                &sys_val,
                &cfg.retrain_grid,
                num_classes,
                seed.wrapping_add((w_idx as u64) << 16),
            );

            // Truth: run each model variant to completion, observing the
            // real accuracy-vs-k points on ground truth.
            let mut true_curves = Vec::with_capacity(richest.len());
            let mut reference_next: Option<Mlp> = None;
            for (key, config) in &richest {
                let key = *key;
                let mut exec = RetrainExecution::new(
                    &model,
                    &fresh,
                    *config,
                    num_classes,
                    cfg.hyper,
                    seed.wrapping_add((w_idx as u64) << 20),
                );
                let val = exec.freeze(&w.val);
                let mut pts = vec![(0.0, exec.accuracy_frozen(&val))];
                while !exec.is_complete() {
                    exec.step_epoch();
                    pts.push((exec.k_done(), exec.accuracy_frozen(&val)));
                }
                let best = pts.iter().map(|p| p.1).fold(0.0, f64::max);
                true_curves.push((key, LearningCurve::fit_capped(&pts, best + 0.02)));
                if *config == reference_cfg {
                    reference_next = Some(exec.model().clone());
                }
            }

            window.streams.push(StreamWindowTrace {
                stream: *id,
                class_dist: w.class_dist.clone(),
                drift: w.drift_from_prev,
                fps: ds.spec.fps,
                stale_accuracy,
                est_profiles: out.profiles,
                true_curves,
                profiling_gpu_seconds: out.gpu_seconds_spent,
            });

            // Advance the reference chain.
            if let Some(mut next) = reference_next {
                next.set_layers_trained(usize::MAX);
                model = next;
            }
            snapshots.push(model.clone());
            if snapshots.len() > max_staleness + 1 {
                snapshots.remove(0);
            }
        }
    }
    Trace { window_secs, num_classes, windows }
}

/// Evaluates a policy against a recorded trace.
pub struct ReplayPolicyHarness {
    /// Total GPUs on the simulated server.
    pub total_gpus: f64,
    /// GPU cost model (for inference profiles; must match the recording).
    pub cost: ekya_nn::cost::CostModel,
    /// Inference configuration grid.
    pub inference_grid: Vec<ekya_core::InferenceConfig>,
    /// Charge micro-profiling GPU time by shortening the usable window.
    pub charge_profiling: bool,
}

impl ReplayPolicyHarness {
    /// Paper-default harness.
    pub fn new(total_gpus: f64) -> Self {
        Self {
            total_gpus,
            cost: ekya_nn::cost::CostModel::default(),
            inference_grid: ekya_core::default_inference_grid(),
            charge_profiling: true,
        }
    }

    /// Runs `policy` over the trace and returns measured-equivalent
    /// reports.
    pub fn run<P: Policy + ?Sized>(&self, policy: &mut P, trace: &Trace) -> RunReport {
        let num_streams = trace.windows.first().map(|w| w.streams.len()).unwrap_or(0);
        // Staleness per stream: windows since last completed retraining
        // (starts at the ladder's floor).
        let floor = trace
            .windows
            .first()
            .and_then(|w| w.streams.first())
            .map(|s| s.stale_accuracy.len().saturating_sub(1))
            .unwrap_or(0);
        let mut staleness = vec![floor; num_streams];

        let mut report = RunReport { policy: policy.name(), windows: Vec::new() };
        for wt in &trace.windows {
            let serving: Vec<f64> =
                (0..num_streams).map(|s| wt.streams[s].serving_accuracy(staleness[s])).collect();
            let infer_profiles: Vec<Vec<InferenceProfile>> = wt
                .streams
                .iter()
                .map(|st| build_inference_profiles(&self.cost, 1.0, st.fps, &self.inference_grid))
                .collect();

            let ctx = PolicyCtx {
                window_idx: wt.window_idx,
                window_secs: trace.window_secs,
                total_gpus: self.total_gpus,
                streams: (0..num_streams)
                    .map(|s| PolicyStream {
                        id: wt.streams[s].stream,
                        fps: wt.streams[s].fps,
                        serving_accuracy: serving[s],
                        class_dist: &wt.streams[s].class_dist,
                        drift_magnitude: wt.streams[s].drift,
                        retrain_profiles: if policy.needs_profiles() {
                            &wt.streams[s].est_profiles
                        } else {
                            &[]
                        },
                        infer_profiles: &infer_profiles[s],
                    })
                    .collect(),
            };
            let plan = policy.plan_window(&ctx);

            let profile_delay = if self.charge_profiling && policy.needs_profiles() {
                wt.streams.iter().map(|s| s.profiling_gpu_seconds).sum::<f64>()
                    / self.total_gpus.max(1e-9)
            } else {
                0.0
            };

            let mut stream_reports = Vec::with_capacity(num_streams);
            for s in 0..num_streams {
                let st = &wt.streams[s];
                let sp = &plan.streams[s];
                // Effective inference factor (downgrade to feasible).
                let af = infer_profiles[s]
                    .iter()
                    .filter(|p| p.gpu_demand <= sp.infer_gpus + 1e-9)
                    .map(|p| p.accuracy_factor)
                    .fold(0.0, f64::max)
                    .min(
                        infer_profiles[s]
                            .iter()
                            .find(|p| {
                                (p.config.frame_sampling - sp.infer_config.frame_sampling).abs()
                                    < 1e-9
                                    && (p.config.resolution - sp.infer_config.resolution).abs()
                                        < 1e-9
                                    && p.gpu_demand <= sp.infer_gpus + 1e-9
                            })
                            .map(|p| p.accuracy_factor)
                            .unwrap_or(f64::INFINITY),
                    );

                let mut avg;
                let mut end_model = serving[s];
                let mut completed = false;
                let mut wasted = 0.0;
                match sp.retrain {
                    Some(planned) if planned.gpus > 0.0 => {
                        let est =
                            wt.streams[s].est_profiles.iter().find(|p| p.config == planned.config);
                        let gpu_seconds =
                            est.map(RetrainProfile::total_gpu_seconds).unwrap_or(f64::INFINITY);
                        let duration = profile_delay + gpu_seconds / planned.gpus;
                        let truth = st
                            .true_curve(planned.config.curve_key())
                            .copied()
                            .unwrap_or_else(|| LearningCurve::flat(serving[s]));
                        let post = truth.predict(planned.config.k_total()).max(serving[s]);
                        if duration <= trace.window_secs {
                            completed = true;
                            end_model = post;
                            avg = (duration * serving[s] + (trace.window_secs - duration) * post)
                                / trace.window_secs;
                        } else {
                            wasted = trace.window_secs * planned.gpus;
                            avg = serving[s];
                        }
                    }
                    _ => {
                        avg = serving[s];
                    }
                }
                avg *= af;

                stream_reports.push(StreamWindowReport {
                    id: st.stream,
                    avg_accuracy: avg,
                    min_accuracy: serving[s] * af,
                    start_model_accuracy: serving[s],
                    end_model_accuracy: end_model,
                    retrained: sp.retrain.is_some(),
                    retrain_config: sp.retrain.map(|r| r.config),
                    retrain_completed: completed,
                    train_gpus: sp.retrain.map(|r| r.gpus).unwrap_or(0.0),
                    infer_gpus: sp.infer_gpus,
                    infer_config: sp.infer_config,
                    profiling_gpu_seconds: st.profiling_gpu_seconds,
                    wasted_gpu_seconds: wasted,
                    timeline: vec![(0.0, serving[s] * af)],
                });
                staleness[s] = if completed { 0 } else { (staleness[s] + 1).min(floor) };
            }
            report
                .windows
                .push(WindowReport { window_idx: wt.window_idx, streams: stream_reports });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekya_core::{EkyaPolicy, SchedulerParams};
    use ekya_video::DatasetKind;

    fn small_trace() -> Trace {
        let streams = StreamSet::generate(DatasetKind::Cityscapes, 2, 4, 31);
        let cfg = RunnerConfig { seed: 3, ..RunnerConfig::default() };
        record_trace(&streams, &cfg, 4, 4)
    }

    #[test]
    fn trace_records_all_windows_and_streams() {
        let trace = small_trace();
        assert_eq!(trace.windows.len(), 4);
        for w in &trace.windows {
            assert_eq!(w.streams.len(), 2);
            for s in &w.streams {
                assert_eq!(s.stale_accuracy.len(), 4);
                assert!(!s.est_profiles.is_empty());
                assert!(!s.true_curves.is_empty());
            }
        }
    }

    #[test]
    fn staleness_ladder_is_monotone_on_average() {
        // Fresher models should on average be more accurate on the
        // current window.
        let trace = small_trace();
        let (mut fresh_sum, mut stale_sum, mut count) = (0.0, 0.0, 0);
        for w in &trace.windows[1..] {
            for s in &w.streams {
                fresh_sum += s.stale_accuracy[0];
                stale_sum += *s.stale_accuracy.last().unwrap();
                count += 1;
            }
        }
        assert!(count > 0);
        assert!(
            fresh_sum / count as f64 >= stale_sum / count as f64 - 0.02,
            "fresh {fresh_sum} vs stale {stale_sum}"
        );
    }

    #[test]
    fn replay_produces_full_report() {
        let trace = small_trace();
        let harness = ReplayPolicyHarness::new(2.0);
        let mut policy = EkyaPolicy::new(SchedulerParams::new(2.0));
        let report = harness.run(&mut policy, &trace);
        assert_eq!(report.windows.len(), 4);
        assert!(report.mean_accuracy() > 0.0);
    }

    #[test]
    fn replay_more_gpus_is_no_worse() {
        let trace = small_trace();
        let run = |gpus: f64| {
            let harness = ReplayPolicyHarness::new(gpus);
            let mut policy = EkyaPolicy::new(SchedulerParams::new(gpus));
            harness.run(&mut policy, &trace).mean_accuracy()
        };
        let small = run(0.5);
        let large = run(4.0);
        assert!(large >= small - 0.02, "more GPUs should not hurt: {small:.3} -> {large:.3}");
    }

    #[test]
    fn trace_roundtrips_through_json() {
        let trace = small_trace();
        let json = trace.to_json();
        let parsed: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.windows.len(), trace.windows.len());
        assert_eq!(
            parsed.windows[1].streams[0].stale_accuracy,
            trace.windows[1].streams[0].stale_accuracy
        );
    }

    #[test]
    fn fingerprint_identifies_the_recorded_workload() {
        // Same workload → same fingerprint (including through a JSON
        // round-trip — the cross-process identity the fig 7/8 shards
        // rely on); a different seed → a different recording.
        let trace = small_trace();
        assert_eq!(trace.fingerprint(), small_trace().fingerprint());
        let parsed: Trace = serde_json::from_str(&trace.to_json()).unwrap();
        assert_eq!(parsed.fingerprint(), trace.fingerprint());
        let streams = StreamSet::generate(DatasetKind::Cityscapes, 2, 4, 31);
        let cfg = RunnerConfig { seed: 4, ..RunnerConfig::default() };
        let reseeded = record_trace(&streams, &cfg, 4, 4);
        assert_ne!(reseeded.fingerprint(), trace.fingerprint());
    }

    #[test]
    fn fingerprint_is_pinned_across_refactors() {
        // The exact fingerprint of the reference workload, captured when
        // `record_trace` sorted curve variants explicitly. The richest-map
        // now relies on `CurveKey: Ord` via a BTreeMap producing the same
        // order; if this value ever changes, every previously recorded
        // trace on disk silently stops matching its own recording — treat
        // a failure here as a broken recording identity, not a test to
        // update casually.
        assert_eq!(small_trace().fingerprint(), 0x6995842317978cc4);
    }
}
