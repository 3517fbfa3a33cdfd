//! The layer replay: each layer's public entry point called directly,
//! timed from outside, on inputs rebuilt from the run's seed and shaped
//! like the workload the layer dominates (`predict_into` on the
//! `serve-steady` fleet, the micro-profiler and trainer on
//! `retrain-window` streams, `thief_schedule` on `fleet-plan` profiles,
//! `run_scenario` on `grid-fig06` cells).
//!
//! Every trace run performs the whole replay whatever its workload, so a
//! layer metric means the same thing in every row of a result set and a
//! unit cost can be multiplied into any workload's budget.

use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workloads::{paper_stream, pump_config, to_json, Sizes, GRID_WORKERS, INFER_SHARDS};
use ekya::actors::{spawn_bounded, Actor};
use ekya::baselines::{PolicyBuildCtx, PolicySpec};
use ekya::core::{
    build_inference_profiles, default_retrain_grid, thief_schedule, MicroProfiler, RetrainProfile,
    StreamInput, TrainHyper,
};
use ekya::nn::{DataView, Matrix, Mlp, MlpArch, PredictScratch, Sample, Sgd};
use ekya::server::{EdgeDaemon, ServeConfig, TrainJobSpec, TrainerActor, TrainerMsg};
use ekya::video::{StreamId, StreamSet, VideoDataset};
use ekya_bench::{
    fig06_grid, merge_reports, quick_fleet, run_scenario, CellResult, GridExec, ShardSpec,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// How much each probe repeats. Counts, not durations, so the work is
/// the same on every commit.
pub struct ReplaySizes {
    fleet: usize,
    predict_sweeps: usize,
    train_epochs: usize,
    asks: usize,
    pump_rounds: usize,
    client_requests: usize,
    view_reps: usize,
    trainer_jobs: usize,
    paper_streams: usize,
    thief_sizes: [usize; 3],
    thief_reps: [usize; 3],
    harness_windows: usize,
}

impl ReplaySizes {
    pub fn full() -> Self {
        Self {
            fleet: 1000,
            predict_sweeps: 20,
            train_epochs: 10,
            asks: 2000,
            pump_rounds: 100,
            client_requests: 10_000,
            view_reps: 20,
            trainer_jobs: 5,
            paper_streams: 16,
            thief_sizes: [10, 100, 200],
            thief_reps: [5, 3, 2],
            harness_windows: 2,
        }
    }

    pub fn smoke() -> Self {
        Self {
            fleet: 100,
            predict_sweeps: 3,
            train_epochs: 2,
            asks: 200,
            pump_rounds: 10,
            client_requests: 200,
            view_reps: 3,
            trainer_jobs: 1,
            paper_streams: 2,
            thief_sizes: [4, 12, 24],
            thief_reps: [1, 1, 1],
            harness_windows: 1,
        }
    }
}

pub struct Replay<'a> {
    spans: &'a mut Spans,
    seed: u64,
    metrics: BTreeMap<&'static str, f64>,
    violations: Vec<String>,
}

/// The serving model the daemon installs for stream `i` at admission.
fn admission_model(ds: &VideoDataset, seed: u64, i: usize) -> Mlp {
    let arch = MlpArch::edge(ds.feature_dim, ds.num_classes, 16);
    Mlp::new(arch, seed.wrapping_add(7919 * i as u64))
}

struct Echo;

impl Actor for Echo {
    type Msg = u64;
    type Reply = u64;

    fn handle(&mut self, msg: u64) -> u64 {
        msg
    }
}

/// One stream's scheduler inputs, as the daemon's Phase A derives them
/// (minus teacher distillation: the replay profiles on ground truth).
struct Profiled {
    serving_accuracy: f64,
    retrain: Vec<RetrainProfile>,
    infer: Vec<ekya::core::InferenceProfile>,
}

impl<'a> Replay<'a> {
    pub fn run(
        spans: &'a mut Spans,
        seed: u64,
        sz: &ReplaySizes,
        wl: &Sizes,
    ) -> (BTreeMap<&'static str, f64>, Vec<String>) {
        let mut r = Replay { spans, seed, metrics: BTreeMap::new(), violations: Vec::new() };
        let replay = r.spans.open("replay");
        let fleet = r.video(sz);
        r.nn(sz, &fleet);
        r.actors(sz);
        r.server(sz, &fleet);
        r.core(sz, &fleet);
        r.sim_and_harness(sz, wl);
        r.spans.close(replay);
        (r.metrics, r.violations)
    }

    /// Times `f` under a span; returns its value and milliseconds.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.spans.open(name);
        let value = f();
        (value, self.spans.close(span) * 1e3)
    }

    fn video(&mut self, sz: &ReplaySizes) -> Vec<VideoDataset> {
        let seed = self.seed;
        let (fleet, ms) = self.timed("video.generate", || quick_fleet(sz.fleet, 1, seed));
        self.metrics.insert("video.generate.ms_per_stream", ms / sz.fleet as f64);
        fleet
    }

    fn nn(&mut self, sz: &ReplaySizes, fleet: &[VideoDataset]) {
        let models: Vec<Mlp> =
            fleet.iter().enumerate().map(|(i, ds)| admission_model(ds, self.seed, i)).collect();
        let mut scratch: Vec<PredictScratch> =
            models.iter().map(|_| PredictScratch::new()).collect();
        let frames = |n: usize| -> Vec<Vec<Sample>> {
            fleet
                .iter()
                .map(|ds| ds.window(0).val.iter().cycle().take(n).cloned().collect())
                .collect()
        };

        // The forward pass's GEMM chain alone, on per-model operands so
        // the cache footprint matches the fleet's.
        let arch = models[0].arch().clone();
        let mut dims = vec![arch.input_dim];
        dims.extend(&arch.hidden);
        dims.push(arch.num_classes);
        let mut chains: Vec<Vec<(Matrix, Matrix, Matrix)>> = (0..fleet.len())
            .map(|m| {
                dims.windows(2)
                    .map(|d| {
                        let fill =
                            |r: usize, c: usize| ((m + 3 * r + 7 * c) % 13) as f32 * 0.1 - 0.6;
                        (
                            Matrix::from_fn(8, d[0], fill),
                            Matrix::from_fn(d[0], d[1], fill),
                            Matrix::zeros(8, d[1]),
                        )
                    })
                    .collect()
            })
            .collect();
        let sweeps: Vec<f64> = (0..sz.predict_sweeps)
            .map(|_| {
                self.timed("nn.matmul_into", || {
                    for chain in &mut chains {
                        for (x, w, out) in chain.iter_mut() {
                            x.matmul_into(w, out);
                        }
                    }
                    std::hint::black_box(&chains);
                })
                .1
            })
            .collect();
        let frames_per_sweep = (fleet.len() * 8) as f64;
        self.metrics
            .insert("nn.matmul_into.ns_per_frame", median(&sweeps) * 1e6 / frames_per_sweep);

        let mut predict = |this: &mut Self, batch: usize, sweeps: usize| {
            let inputs = frames(batch);
            let times: Vec<f64> = (0..sweeps)
                .map(|_| {
                    this.timed("nn.predict_into", || {
                        for ((model, scratch), x) in models.iter().zip(&mut scratch).zip(&inputs) {
                            std::hint::black_box(model.predict_into(x, scratch));
                        }
                    })
                    .1
                })
                .collect();
            median(&times) * 1e6 / (fleet.len() * batch) as f64
        };
        let b8 = predict(self, 8, sz.predict_sweeps);
        self.metrics.insert("nn.predict_into.ns_per_frame", b8);
        let b64 = predict(self, 64, sz.predict_sweeps.div_ceil(4));
        self.metrics.insert("nn.predict_into.b64_ns_per_frame", b64);

        // One SGD epoch over a paper-default window pool (600 samples).
        let ds = paper_stream(self.seed, 0, 1);
        let pool = &ds.window(0).train_pool;
        let mut model = admission_model(&ds, self.seed, 0);
        let hyper = TrainHyper::default();
        let mut opt = Sgd::new(&model, hyper.lr, hyper.momentum);
        let epochs: Vec<f64> = (0..sz.train_epochs)
            .map(|e| {
                let data = DataView::new(pool, ds.num_classes);
                self.timed("nn.train_epoch", || model.train_epoch(data, &mut opt, 32, e as u64)).1
            })
            .collect();
        self.metrics
            .insert("nn.train_epoch.us_per_sample", median(&epochs) * 1e3 / pool.len() as f64);
    }

    fn actors(&mut self, sz: &ReplaySizes) {
        let echo = spawn_bounded("echo", Echo, 128);
        let ask: Vec<f64> = (0..sz.asks as u64)
            .map(|i| self.timed("actors.ask", || echo.ask(i).expect("echo actor alive")).1)
            .collect();
        let deferred: Vec<f64> = (0..sz.asks as u64)
            .map(|i| {
                self.timed("actors.ask_deferred", || {
                    echo.ask_deferred(i).and_then(|p| p.wait()).expect("echo actor alive")
                })
                .1
            })
            .collect();
        echo.stop();
        self.metrics.insert("actors.ask.rtt_p50_us", median(&ask) * 1e3);
        self.metrics.insert("actors.ask_deferred.rtt_p50_us", median(&deferred) * 1e3);
    }

    fn daemon(&mut self, fleet: &[VideoDataset], infer_shards: usize) -> (EdgeDaemon, f64) {
        let mut daemon = EdgeDaemon::new(pump_config(fleet.len(), infer_shards, self.seed));
        let mut admit_ms = 0.0;
        for ds in fleet {
            let ds = ds.clone();
            let (admitted, ms) = self.timed("server.admit", || daemon.admit(ds));
            admit_ms += ms;
            if let Err(e) = admitted {
                self.violations.push(format!("replay: in-capacity stream rejected: {e}"));
            }
        }
        (daemon, admit_ms)
    }

    fn pump(&mut self, daemon: &mut EdgeDaemon, rounds: usize) -> Vec<f64> {
        daemon.pump_rounds(5);
        (0..rounds).map(|_| self.timed("server.pump_round", || daemon.pump_rounds(1)).1).collect()
    }

    fn server(&mut self, sz: &ReplaySizes, fleet: &[VideoDataset]) {
        let batch = ServeConfig::quick(2.0).batch_size;
        let frames_per_round = (fleet.len() * batch) as f64;

        let (mut daemon, admit_ms) = self.daemon(fleet, INFER_SHARDS);
        self.metrics.insert("server.admit.us_per_stream", admit_ms * 1e3 / fleet.len() as f64);

        let rounds = self.pump(&mut daemon, sz.pump_rounds);
        let round_ns_per_frame = median(&rounds) * 1e6 / frames_per_round;
        let mailbox_ns_per_frame =
            self.metrics["actors.ask_deferred.rtt_p50_us"] * 1e3 * INFER_SHARDS as f64
                / frames_per_round;
        self.metrics.insert("server.pump.round_p99_ms", percentile(&rounds, 99.0));
        self.metrics.insert(
            "server.pump.frames_per_s_1shard",
            frames_per_round * rounds.len() as f64 / (rounds.iter().sum::<f64>() / 1e3),
        );
        self.metrics.insert(
            "server.pump.residual_ns_per_frame",
            round_ns_per_frame
                - self.metrics["nn.predict_into.ns_per_frame"]
                - mailbox_ns_per_frame,
        );

        // The same shard and mailbox used for latency instead of bulk
        // throughput: one request at a time, closed loop, one client.
        let client = daemon.client();
        let streams = fleet.len().min(64);
        let requests: Vec<f64> = (0..sz.client_requests)
            .map(|i| {
                let s = i % streams;
                let frames: Vec<Sample> =
                    fleet[s].window(0).val.iter().cycle().skip(i).take(4).cloned().collect();
                let (reply, ms) = self.timed("server.client.classify", || {
                    client.classify(StreamId(s as u32), frames)
                });
                if reply.map_or(true, |(preds, _)| preds.len() != 4) {
                    self.violations.push(format!("replay: classify request {i} failed"));
                }
                ms
            })
            .collect();
        self.metrics.insert("server.client.classify_p50_us", median(&requests) * 1e3);
        self.metrics.insert("server.client.classify_p99_us", percentile(&requests, 99.0) * 1e3);

        let mut bytes = 0;
        let views: Vec<f64> = (0..sz.view_reps)
            .map(|_| {
                let (json, ms) =
                    self.timed("server.status_view", || to_json(&daemon.status_view()));
                bytes = json.len();
                ms
            })
            .collect();
        self.metrics.insert("server.status_view.serialize_us", median(&views) * 1e3);
        self.metrics.insert("server.status_view.bytes", bytes as f64);
        daemon.shutdown();

        // ROADMAP's 1-vs-2-shard inversion, watched but ungated.
        let (mut daemon, _) = self.daemon(fleet, 2);
        let rounds = self.pump(&mut daemon, sz.pump_rounds);
        daemon.shutdown();
        self.metrics.insert(
            "server.pump.frames_per_s_2shard",
            frames_per_round * rounds.len() as f64 / (rounds.iter().sum::<f64>() / 1e3),
        );

        // One retraining job of the `retrain-window` shape (600-sample
        // pool, 10 epochs over half of it, all layers) on a trainer actor.
        let ds = paper_stream(self.seed, 0, 1);
        let base_model = Arc::new(admission_model(&ds, self.seed, 0));
        let pool = Arc::new(ds.window(0).train_pool.clone());
        let val = Arc::new(ds.window(0).val.clone());
        let config = default_retrain_grid()
            .into_iter()
            .find(|c| c.epochs == 10 && c.data_fraction == 0.5 && c.layers_trained == 3)
            .expect("the default retrain grid holds the mid configuration");
        let trainer = spawn_bounded("probe-trainer", TrainerActor, 2);
        let jobs: Vec<f64> = (0..sz.trainer_jobs)
            .map(|j| {
                let spec = TrainJobSpec {
                    base_model: Arc::clone(&base_model),
                    pool: Arc::clone(&pool),
                    config,
                    num_classes: ds.num_classes,
                    hyper: TrainHyper::default(),
                    seed: self.seed.wrapping_add(j as u64),
                    checkpoint_every: None,
                    swap_target: None,
                    swap_reload: Duration::ZERO,
                    val: Arc::clone(&val),
                    fail_after_epochs: None,
                };
                let (reply, ms) = self
                    .timed("server.trainer.job", || trainer.ask(TrainerMsg::Run(Box::new(spec))));
                if reply.is_err() {
                    self.violations.push(format!("replay: trainer job {j} failed"));
                }
                ms
            })
            .collect();
        trainer.stop();
        self.metrics.insert("server.trainer.job_ms", median(&jobs));
    }

    /// Replays Phase A for `streams` under `cfg`: micro-profile each
    /// stream's first window. Returns the scheduler inputs and the
    /// per-stream profiling milliseconds.
    fn phase_a(
        &mut self,
        streams: &[VideoDataset],
        cfg: &ServeConfig,
    ) -> (Vec<Profiled>, Vec<f64>) {
        let seed = self.seed;
        let mut ms = Vec::with_capacity(streams.len());
        let profiled = streams
            .iter()
            .enumerate()
            .map(|(i, ds)| {
                let model = admission_model(ds, seed, i);
                let w = ds.window(0);
                let mut profiler =
                    MicroProfiler::new(cfg.profiler, cfg.cost.clone(), seed ^ 0xB00 ^ i as u64);
                let (out, took) = self.timed("core.microprofile", || {
                    profiler.profile(
                        &model,
                        &w.train_pool,
                        &w.val,
                        &cfg.retrain_grid,
                        ds.num_classes,
                        seed.wrapping_add(i as u64),
                    )
                });
                ms.push(took);
                Profiled {
                    serving_accuracy: model.accuracy(DataView::new(&w.val, ds.num_classes)),
                    retrain: out.profiles,
                    infer: build_inference_profiles(
                        &cfg.cost,
                        cfg.cost.size_factor(&model),
                        ds.spec.fps,
                        &cfg.inference_grid,
                    ),
                }
            })
            .collect();
        (profiled, ms)
    }

    /// Median milliseconds and the evaluation count of `thief_schedule`
    /// over the first `n` profiled streams.
    fn thief(
        &mut self,
        profiled: &[Profiled],
        n: usize,
        reps: usize,
        cfg: &ServeConfig,
        window_secs: f64,
    ) -> (f64, f64) {
        let inputs: Vec<StreamInput<'_>> = profiled[..n.min(profiled.len())]
            .iter()
            .enumerate()
            .map(|(i, p)| StreamInput {
                id: StreamId(i as u32),
                serving_accuracy: p.serving_accuracy,
                retrain_profiles: &p.retrain,
                infer_profiles: &p.infer,
                in_progress: None,
            })
            .collect();
        let mut evaluations = 0;
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let (schedule, ms) = self.timed("core.thief_schedule", || {
                    thief_schedule(&inputs, window_secs, &cfg.scheduler)
                });
                evaluations = schedule.evaluations;
                ms
            })
            .collect();
        (median(&times), evaluations as f64)
    }

    fn core(&mut self, sz: &ReplaySizes, fleet: &[VideoDataset]) {
        // `retrain-window` shape: paper-default streams, the full grid.
        let paper: Vec<VideoDataset> =
            (0..sz.paper_streams).map(|i| paper_stream(self.seed, i, 1)).collect();
        let cfg = ServeConfig::new(8.0);
        let (profiled, ms) = self.phase_a(&paper, &cfg);
        self.metrics.insert("core.microprofile.ms_per_stream", median(&ms));
        let (thief_ms, _) = self.thief(&profiled, paper.len(), 5, &cfg, paper[0].spec.window_secs);
        self.metrics.insert("core.thief_schedule.paper_ms_n16", thief_ms);

        // `fleet-plan` shape: quick streams, the pruned grid.
        let [small, mid, large] = sz.thief_sizes;
        let cfg = ServeConfig::quick(16.0);
        let (profiled, ms) = self.phase_a(&fleet[..large.min(fleet.len())], &cfg);
        self.metrics.insert("core.microprofile.quick_ms_per_stream", median(&ms));
        let window_secs = fleet[0].spec.window_secs;
        let names = [
            "core.thief_schedule.ms_n10",
            "core.thief_schedule.ms_n100",
            "core.thief_schedule.ms_n200",
        ];
        for ((n, reps), name) in [small, mid, large].into_iter().zip(sz.thief_reps).zip(names) {
            let (thief_ms, evaluations) = self.thief(&profiled, n, reps, &cfg, window_secs);
            self.metrics.insert(name, thief_ms);
            if n == large {
                self.metrics.insert("core.thief_schedule.evaluations_n200", evaluations);
            }
        }
    }

    fn sim_and_harness(&mut self, sz: &ReplaySizes, wl: &Sizes) {
        // `run_scenario` on the `grid-fig06` grid's own cells: every stream
        // count and policy at the first dataset and GPU count. Stream and
        // hold-out caches are warmed first so that a cell costs here what it
        // costs in a warm pass.
        let grid = fig06_grid(wl.grid_quick, wl.grid_windows, self.seed);
        let (dataset, gpus) = (grid.datasets[0], grid.gpu_counts[0]);
        let uniform = grid
            .policies
            .iter()
            .find(|p| matches!(p, PolicySpec::Uniform { .. }))
            .expect("the fig06 grid compares against uniform variants")
            .clone();
        // The hold-out derivation a grid pays once per dataset, timed cold
        // under a seed no grid uses.
        let holdout_seed = grid.holdout_seed(dataset);
        let cold = PolicyBuildCtx::new(dataset, gpus, holdout_seed ^ 0x5EED);
        let (_, holdout_ms) = self.timed("baselines.holdout", || uniform.build(&cold));
        self.metrics.insert("baselines.holdout.ms", holdout_ms);
        drop(uniform.build(&PolicyBuildCtx::new(dataset, gpus, holdout_seed)));

        let (mut ekya_ms, mut uniform_ms) = (Vec::new(), Vec::new());
        for cell in grid.cells().iter().filter(|c| c.dataset == dataset && c.gpus == gpus) {
            StreamSet::cached(cell.dataset, cell.streams, cell.windows, cell.seed);
            let (result, ms) = self.timed("sim.run_scenario", || run_scenario(cell, holdout_seed));
            if result.error.is_some() {
                self.violations.push(format!("replay: cell {} failed", cell.label()));
            }
            if cell.policy == PolicySpec::Ekya { &mut ekya_ms } else { &mut uniform_ms }.push(ms);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        self.metrics.insert("sim.run_scenario.ekya_ms_per_cell", mean(&ekya_ms));
        self.metrics.insert("sim.run_scenario.uniform_ms_per_cell", mean(&uniform_ms));

        // Harness overhead with the simulation taken out: a constant
        // evaluator over the same cells.
        let cells = grid.cells().len() as f64;
        let (_, dispatch_ms) = self.timed("harness.dispatch", || {
            GridExec::new("grid", GRID_WORKERS).run_with(&grid, |sc| CellResult {
                scenario: sc.clone(),
                policy: sc.policy.label(),
                mean_accuracy: 0.5,
                retrain_rate: 0.0,
                report: None,
                error: None,
            })
        });
        self.metrics.insert("harness.dispatch_us_per_cell", dispatch_ms * 1e3 / cells);

        // Speed-up, serialisation and merge on the quick grid (a fifth of
        // the cells), warmed by one untimed pass.
        let quick = fig06_grid(true, sz.harness_windows, self.seed);
        let exec = |workers: usize| GridExec::new("grid", workers);
        exec(GRID_WORKERS).run(&quick);
        let (_, one_ms) = self.timed("harness.run_grid.1worker", || exec(1).run(&quick));
        let (whole, two_ms) =
            self.timed("harness.run_grid.2workers", || exec(GRID_WORKERS).run(&quick));
        self.metrics.insert("harness.parallel_speedup", one_ms / two_ms);
        let (bytes, serialize_ms) =
            self.timed("harness.report_serialize", || to_json(&whole.report));
        self.metrics.insert("harness.report_serialize_ms", serialize_ms);
        let halves: Vec<_> = (0..2)
            .map(|index| {
                exec(GRID_WORKERS).shard(Some(ShardSpec { index, count: 2 })).run(&quick).report
            })
            .collect();
        let (merged, merge_ms) = self.timed("harness.merge_reports", || merge_reports(&halves));
        self.metrics.insert("harness.merge_ms", merge_ms);
        if !merged.is_ok_and(|m| to_json(&m) == bytes) {
            self.violations
                .push("replay: merged shard halves differ from the unsharded report".to_string());
        }
    }
}
