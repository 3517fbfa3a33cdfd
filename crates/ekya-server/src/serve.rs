//! The live multi-tenant serving daemon.
//!
//! Two OS threads per camera does not admit the "hundreds of streams" a
//! production edge box serves, so [`EdgeDaemon`] — the workspace's one
//! serving shape — is a small fixed pool of **inference shards** (each
//! a bounded-mailbox actor multiplexing many stream slots and batching
//! classification requests), a supervised **trainer pool** that absorbs
//! panics without dropping any stream's serving, **admission control**
//! with typed rejections, and checkpoint hot-swaps whose model pulls are
//! accounted against an `ekya_core::net` link model. Every mailbox has a
//! capacity: a producer that outruns a shard blocks, it never grows a
//! queue.
//!
//! A window runs in phases. Phase A prepares every stream through its
//! [`StreamLearner`] — label the train pool then val with the golden
//! model, mix in the exemplars, measure the serving model, micro-profile,
//! fold the fresh labels into memory — the same preparation the
//! simulator's runner makes. Phase B plans with the thief scheduler, C
//! dispatches retraining, D pumps live frames while trainers run, E
//! measures the final serving models and F advances the ledger.
//!
//! Two metric planes, deliberately separated:
//! * the **logical plane** — a deterministic arrival/queue ledger
//!   (offered, served, backlogged, peak depth) driven by
//!   [`ArrivalPattern`] over fixed ticks — is what
//!   [`EdgeDaemon::status_snapshot`] serialises; two runs with the same
//!   seed produce byte-identical snapshots regardless of shard count or
//!   thread timing;
//! * the **live plane** — frames actually classified by the shards while
//!   trainers ran — proves liveness under real concurrency and is
//!   reported per window, never serialised.

use crate::actors::{
    spawn_bounded, spawn_supervised_bounded, Actor, ActorHandle, Address, Pending,
};
use crate::metrics::{StatusSnapshot, StatusView, StreamStatus};
use crate::trainer::{
    SwapTarget, TrainJobSpec, TrainOutcome, TrainerActor, TrainerMsg, TrainerReply,
};
use ekya_core::net::{LinkModel, LinkQueue};
use ekya_core::{
    build_inference_profiles, default_inference_grid, default_retrain_grid, stream_seed,
    EkyaPolicy, InferenceConfig, MicroProfilerParams, Policy, PolicyCtx, PolicyStream,
    RetrainConfig, RetrainProfile, SchedulerParams, StreamLearner, TrainHyper,
};
use ekya_nn::cost::CostModel;
use ekya_nn::data::{DataView, Sample};
use ekya_nn::mlp::{Mlp, MlpArch, PredictScratch};
use ekya_video::{StreamId, VideoDataset};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// Why the daemon refused to admit a stream. Rejection is immediate and
/// typed — a stream beyond capacity is *not* queued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionError {
    /// The daemon already serves its maximum number of streams.
    CapacityExceeded {
        /// The configured stream capacity.
        capacity: usize,
    },
    /// Admitting the stream would push aggregate offered load past the
    /// daemon's serving-rate budget.
    RateExceeded {
        /// Aggregate fps including the rejected stream.
        offered_fps: f64,
        /// The configured fps budget.
        capacity_fps: f64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::CapacityExceeded { capacity } => {
                write!(f, "stream capacity {capacity} exhausted")
            }
            AdmissionError::RateExceeded { offered_fps, capacity_fps } => {
                write!(
                    f,
                    "aggregate load {offered_fps:.1} fps exceeds budget {capacity_fps:.1} fps"
                )
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A serving-path request failure, as seen by [`DaemonClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The daemon (or its shard) has shut down.
    Unavailable,
    /// No admitted stream has this id.
    UnknownStream,
    /// A frame's feature vector does not fit the stream's serving model.
    /// The whole request is refused; nothing was classified.
    MalformedFrame {
        /// Feature dimension the serving model takes.
        expected: usize,
        /// Length of the first offending frame.
        got: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Unavailable => write!(f, "serving daemon unavailable"),
            ServeError::UnknownStream => write!(f, "unknown stream"),
            ServeError::MalformedFrame { expected, got } => {
                write!(f, "malformed frame: {got} features, serving model takes {expected}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Deterministic frame-arrival shapes for the logical serving ledger.
/// Pure integer arithmetic on (stream, window, tick) — no RNG, no clock —
/// so every run with the same fleet produces the same ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ArrivalPattern {
    /// Frames spread evenly across the window's ticks.
    Uniform,
    /// The whole window's frames arrive in the first quarter of its
    /// ticks — the rush that exercises queue depth and backlog.
    Bursty,
    /// Uniform, but each stream's arrivals are phase-shifted by its id,
    /// so shards never see all streams peak on the same tick.
    Staggered,
}

impl ArrivalPattern {
    /// Parses the operator spelling (`EKYA_ARRIVAL`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(Self::Uniform),
            "bursty" => Some(Self::Bursty),
            "staggered" => Some(Self::Staggered),
            _ => None,
        }
    }

    /// Frames stream `stream` offers at tick `tick` of a window with
    /// `frames` total frames over `ticks` ticks. Summed over all ticks
    /// this is exactly `frames`, whatever the pattern.
    pub fn arrivals(self, stream: u32, tick: usize, ticks: usize, frames: u64) -> u64 {
        let ticks = ticks.max(1);
        let spread = |active: usize, pos: usize| -> u64 {
            // `frames` split evenly over `active` slots, remainder to the
            // earliest slots.
            let base = frames / active as u64;
            let extra = frames % active as u64;
            base + u64::from((pos as u64) < extra)
        };
        match self {
            Self::Uniform => spread(ticks, tick),
            Self::Bursty => {
                let rush = ticks.div_ceil(4);
                if tick < rush {
                    spread(rush, tick)
                } else {
                    0
                }
            }
            Self::Staggered => {
                let pos = (tick + ticks - (stream as usize % ticks)) % ticks;
                spread(ticks, pos)
            }
        }
    }
}

/// Configuration of the serving daemon.
#[derive(Clone)]
pub struct ServeConfig {
    /// Total GPUs assumed by the thief scheduler.
    pub total_gpus: f64,
    /// Maximum concurrent streams the daemon admits.
    pub capacity: usize,
    /// Aggregate fps budget across admitted streams
    /// (`f64::INFINITY` disables the rate check).
    pub serve_fps_capacity: f64,
    /// Inference shards (each one bounded-mailbox actor thread).
    pub infer_shards: usize,
    /// Supervised trainer actors in the pool.
    pub trainer_shards: usize,
    /// Threads fanning out the per-stream label/profile/evaluate work at
    /// each window boundary.
    pub planner_workers: usize,
    /// Bounded mailbox capacity per inference shard (backpressure: a
    /// producer pumping faster than a shard drains blocks instead of
    /// growing an unbounded queue).
    pub shard_mailbox: usize,
    /// Frames per logical serving batch (the per-tick service capacity
    /// of the ledger and the chunk size of live pumping).
    pub batch_size: usize,
    /// Logical ticks per retraining window.
    pub ticks_per_window: usize,
    /// Frame-arrival shape for the logical ledger.
    pub arrival: ArrivalPattern,
    /// Thief-scheduler parameters.
    pub scheduler: SchedulerParams,
    /// Micro-profiler parameters.
    pub profiler: MicroProfilerParams,
    /// GPU cost model (duration estimates + model size for swap pulls).
    pub cost: CostModel,
    /// Candidate retraining configurations.
    pub retrain_grid: Vec<RetrainConfig>,
    /// Candidate inference configurations.
    pub inference_grid: Vec<InferenceConfig>,
    /// SGD hyperparameters.
    pub hyper: TrainHyper,
    /// Golden-model label error rate.
    pub teacher_error_rate: f64,
    /// iCaRL exemplar capacity per class.
    pub exemplar_per_class: usize,
    /// Checkpoint cadence for trainer hot-swaps.
    pub checkpoint_every: Option<u32>,
    /// Simulated weight-reload time per swap.
    pub swap_reload: Duration,
    /// Link model the checkpoint pulls are accounted against.
    pub link: LinkModel,
    /// Base seed.
    pub seed: u64,
    /// Fault injection: kill the process (exit 17) in the middle of this
    /// window, after retraining has been dispatched and at least one
    /// live batch served. `None` — the production state — never crashes.
    pub crash_mid_window: Option<usize>,
}

impl ServeConfig {
    /// Paper-default serving configuration for a given GPU count.
    pub fn new(total_gpus: f64) -> Self {
        Self {
            total_gpus,
            capacity: 16,
            serve_fps_capacity: f64::INFINITY,
            infer_shards: 2,
            trainer_shards: 2,
            planner_workers: 2,
            shard_mailbox: 128,
            batch_size: 16,
            ticks_per_window: 20,
            arrival: ArrivalPattern::Uniform,
            scheduler: SchedulerParams::new(total_gpus),
            profiler: MicroProfilerParams::default(),
            cost: CostModel::default(),
            retrain_grid: default_retrain_grid(),
            inference_grid: default_inference_grid(),
            hyper: TrainHyper::default(),
            teacher_error_rate: 0.02,
            exemplar_per_class: 20,
            checkpoint_every: Some(5),
            swap_reload: Duration::from_millis(5),
            link: LinkModel::cellular(),
            seed: 0,
            crash_mid_window: None,
        }
    }

    /// Quick preset: pruned grids and light profiling so hundreds of
    /// streams fit a smoke run (pair with a small fleet spec, e.g.
    /// `ekya-bench`'s quick fleets).
    pub fn quick(total_gpus: f64) -> Self {
        Self {
            retrain_grid: vec![
                RetrainConfig {
                    epochs: 3,
                    batch_size: 8,
                    last_layer_neurons: 16,
                    layers_trained: 2,
                    data_fraction: 1.0,
                },
                RetrainConfig {
                    epochs: 6,
                    batch_size: 8,
                    last_layer_neurons: 16,
                    layers_trained: 2,
                    data_fraction: 1.0,
                },
            ],
            inference_grid: vec![
                InferenceConfig { frame_sampling: 1.0, resolution: 1.0 },
                InferenceConfig { frame_sampling: 0.5, resolution: 1.0 },
                InferenceConfig { frame_sampling: 0.25, resolution: 0.5 },
            ],
            profiler: MicroProfilerParams {
                profile_epochs: 2,
                profile_data_fraction: 0.5,
                ..MicroProfilerParams::default()
            },
            checkpoint_every: Some(2),
            swap_reload: Duration::ZERO,
            batch_size: 8,
            ticks_per_window: 8,
            ..Self::new(total_gpus)
        }
    }
}

struct Slot {
    /// Shared handle to the serving model: `GetModel` hands out clones
    /// of the `Arc`, and a hot-swap installs a new `Arc` (copy-on-write
    /// at the swap boundary — readers keep the version they fetched).
    model: Arc<Mlp>,
    /// Per-slot forward-pass workspace; classification and evaluation
    /// reuse its buffers, so steady-state serving allocates nothing.
    scratch: PredictScratch,
    version: u64,
    num_classes: usize,
}

/// Live counters of one shard (wall plane, never serialised).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardLive {
    /// Frames classified since spawn.
    pub served: u64,
    /// Checkpoint swaps applied.
    pub swaps: u64,
}

/// One stream's slice of a coalesced classification round
/// ([`ShardMsg::ClassifyMany`]). Carriers are recycled through a free
/// list by the daemon's pump: both `frames` and `preds` keep their
/// allocations across rounds, so steady-state pumping allocates nothing.
#[derive(Debug, Default)]
pub struct ClassifyJob {
    /// Stream id (input).
    pub stream: u32,
    /// Frames to classify (input).
    pub frames: Vec<Sample>,
    /// Predicted classes, filled in place by the shard (output).
    pub preds: Vec<usize>,
    /// Serving-model version that produced `preds` (output).
    pub version: u64,
    /// Whether the stream had a slot on this shard (output; `preds` is
    /// empty when it did not).
    pub known: bool,
}

/// Messages understood by an inference shard.
pub enum ShardMsg {
    /// Install a new stream slot.
    Admit {
        /// Stream id.
        stream: u32,
        /// Initial serving model.
        model: Arc<Mlp>,
        /// Number of classes.
        num_classes: usize,
    },
    /// Classify a batch of frames for one stream. This is the outside
    /// boundary ([`DaemonClient::classify`]), so frame shapes are checked
    /// here: one frame of the wrong length refuses the whole batch with
    /// [`ShardReply::MalformedFrame`].
    ClassifyBatch {
        /// Stream id.
        stream: u32,
        /// The frames.
        frames: Vec<Sample>,
    },
    /// Classify batches for many streams under **one** mailbox dequeue —
    /// the daemon's pump coalesces a whole round into one of these per
    /// shard, so mailbox traffic scales with shard count, not stream
    /// count. Carriers come back in the same order via
    /// [`ShardReply::ClassifiedMany`].
    ClassifyMany(Vec<ClassifyJob>),
    /// Hot-swap a stream's serving model; bumps its version.
    Swap {
        /// Stream id.
        stream: u32,
        /// The new model.
        model: Arc<Mlp>,
        /// Simulated weight-reload duration.
        reload: Duration,
    },
    /// Measure a stream's serving accuracy on a labelled batch.
    Evaluate {
        /// Stream id.
        stream: u32,
        /// The labelled batch (shared, not copied).
        batch: Arc<Vec<Sample>>,
    },
    /// A copy of a stream's serving model and version.
    GetModel {
        /// Stream id.
        stream: u32,
    },
    /// Current live counters.
    LiveStats,
}

/// Replies from an inference shard.
pub enum ShardReply {
    /// Slot installed.
    Admitted,
    /// Predictions plus the model version that produced them.
    Predictions {
        /// Predicted classes, one per frame.
        preds: Vec<usize>,
        /// Serving-model version used.
        version: u64,
    },
    /// Swap applied; the slot's new version.
    Swapped {
        /// Version after the swap.
        version: u64,
    },
    /// Carriers from a coalesced round, in request order, with `preds`,
    /// `version` and `known` filled in.
    ClassifiedMany(Vec<ClassifyJob>),
    /// Accuracy for `Evaluate`.
    Accuracy(f64),
    /// Shared model handle and version for `GetModel`.
    Model {
        /// The serving model (an `Arc` clone, not a deep copy).
        model: Arc<Mlp>,
        /// Its version.
        version: u64,
    },
    /// Live counters.
    Live(ShardLive),
    /// The stream id has no slot on this shard.
    NoSuchStream,
    /// A `ClassifyBatch` frame does not fit the slot's serving model;
    /// nothing was classified.
    MalformedFrame {
        /// Feature dimension the serving model takes.
        expected: usize,
        /// Length of the first offending frame.
        got: usize,
    },
}

/// One inference shard: a single actor thread multiplexing many stream
/// slots. Batching is intrinsic — every classify request carries a batch
/// and the whole batch runs under one mailbox dequeue.
#[derive(Default)]
pub struct InferenceShard {
    slots: BTreeMap<u32, Slot>,
    live: ShardLive,
}

impl Actor for InferenceShard {
    type Msg = ShardMsg;
    type Reply = ShardReply;

    fn handle(&mut self, msg: ShardMsg) -> ShardReply {
        match msg {
            ShardMsg::Admit { stream, model, num_classes } => {
                self.slots.insert(
                    stream,
                    Slot { model, scratch: PredictScratch::new(), version: 0, num_classes },
                );
                ShardReply::Admitted
            }
            ShardMsg::ClassifyBatch { stream, frames } => match self.slots.get_mut(&stream) {
                Some(slot) => {
                    let expected = slot.model.arch().input_dim;
                    if let Some(bad) = frames.iter().find(|s| s.x.len() != expected) {
                        return ShardReply::MalformedFrame { expected, got: bad.x.len() };
                    }
                    self.live.served += frames.len() as u64;
                    ShardReply::Predictions {
                        preds: slot.model.predict_into(&frames, &mut slot.scratch).to_vec(),
                        version: slot.version,
                    }
                }
                None => ShardReply::NoSuchStream,
            },
            ShardMsg::ClassifyMany(mut jobs) => {
                for job in &mut jobs {
                    job.preds.clear();
                    match self.slots.get_mut(&job.stream) {
                        Some(slot) => {
                            self.live.served += job.frames.len() as u64;
                            job.preds.extend_from_slice(
                                slot.model.predict_into(&job.frames, &mut slot.scratch),
                            );
                            job.version = slot.version;
                            job.known = true;
                        }
                        None => job.known = false,
                    }
                }
                ShardReply::ClassifiedMany(jobs)
            }
            ShardMsg::Swap { stream, model, reload } => match self.slots.get_mut(&stream) {
                Some(slot) => {
                    if !reload.is_zero() {
                        std::thread::sleep(reload);
                    }
                    slot.model = model;
                    slot.version += 1;
                    self.live.swaps += 1;
                    ShardReply::Swapped { version: slot.version }
                }
                None => ShardReply::NoSuchStream,
            },
            ShardMsg::Evaluate { stream, batch } => match self.slots.get_mut(&stream) {
                Some(slot) => ShardReply::Accuracy(
                    slot.model
                        .accuracy_with(DataView::new(&batch, slot.num_classes), &mut slot.scratch),
                ),
                None => ShardReply::NoSuchStream,
            },
            ShardMsg::GetModel { stream } => match self.slots.get(&stream) {
                Some(slot) => {
                    ShardReply::Model { model: Arc::clone(&slot.model), version: slot.version }
                }
                None => ShardReply::NoSuchStream,
            },
            ShardMsg::LiveStats => ShardReply::Live(self.live),
        }
    }
}

/// A cloneable client for sending live inference traffic to the daemon
/// from any thread, concurrent with retraining windows.
#[derive(Clone)]
pub struct DaemonClient {
    shards: Vec<Address<InferenceShard>>,
}

impl DaemonClient {
    /// Classifies a batch of frames for `stream`; returns the predictions
    /// and the serving-model version that produced them. A frame whose
    /// feature vector does not fit the serving model refuses the whole
    /// batch with [`ServeError::MalformedFrame`] — the shard stays up.
    pub fn classify(
        &self,
        stream: StreamId,
        frames: Vec<Sample>,
    ) -> Result<(Vec<usize>, u64), ServeError> {
        let shard = &self.shards[stream.0 as usize % self.shards.len()];
        match shard.ask(ShardMsg::ClassifyBatch { stream: stream.0, frames }) {
            Ok(ShardReply::Predictions { preds, version }) => Ok((preds, version)),
            Ok(ShardReply::NoSuchStream) => Err(ServeError::UnknownStream),
            Ok(ShardReply::MalformedFrame { expected, got }) => {
                Err(ServeError::MalformedFrame { expected, got })
            }
            _ => Err(ServeError::Unavailable),
        }
    }
}

/// What one window did to one stream (wall + logical planes combined;
/// only the logical parts also appear in the status snapshot).
#[derive(Debug, Clone)]
pub struct ServeWindowReport {
    /// Stream identity.
    pub id: StreamId,
    /// Whether the scheduler planned a retraining job.
    pub retrained: bool,
    /// Whether that job died (and was absorbed by supervision).
    pub retrain_failed: bool,
    /// Checkpoints hot-swapped into serving this window.
    pub checkpoints_swapped: u64,
    /// Ground-truth accuracy of the serving model at window end.
    pub accuracy: f64,
    /// Live-plane frames classified by the daemon's own pump while the
    /// trainer pool was busy (the liveness signal; wall-clock dependent).
    pub live_served_during_training: u64,
}

struct StreamState {
    id: StreamId,
    ds: VideoDataset,
    learner: StreamLearner,
    status: StreamStatus,
}

struct PhaseAOut {
    pool: Arc<Vec<Sample>>,
    sys_val: Arc<Vec<Sample>>,
    model: Arc<Mlp>,
    serving_sys: f64,
    profiles: Vec<RetrainProfile>,
}

/// One waiter thread per trainer: feeds its job queue sequentially and
/// returns `(stream index, outcome)` pairs (`None` = trainer panicked).
type TrainWaiter = std::thread::JoinHandle<Vec<(usize, Option<TrainOutcome>)>>;

/// Refills a recycled frame carrier with `want` frames cycled from `val`
/// starting at `cursor`, reusing the carrier's `Vec` and each `Sample`'s
/// feature buffer instead of cloning fresh ones.
fn refill_frames(frames: &mut Vec<Sample>, val: &[Sample], cursor: usize, want: usize) {
    if val.is_empty() {
        frames.clear();
        return;
    }
    frames.truncate(want);
    let mut src = val.iter().cycle().skip(cursor % val.len());
    for i in 0..want {
        let s = src.next().expect("cycled non-empty slice is infinite");
        if let Some(dst) = frames.get_mut(i) {
            dst.x.clear();
            dst.x.extend_from_slice(&s.x);
            dst.y = s.y;
        } else {
            frames.push(s.clone());
        }
    }
}

/// Runs `work(stream index, stream, its shard)` for every stream, fanned
/// over `workers` scoped threads in fixed index chunks (Phases A and E).
/// Results land by stream index, so the worker count cannot change a byte
/// of the outcome. `chunk_span`, when given, names the `server.daemon`
/// wall span each chunk records.
fn fan_out<T: Send>(
    streams: &mut [StreamState],
    shards: &[ActorHandle<InferenceShard>],
    workers: usize,
    chunk_span: Option<&'static str>,
    work: impl Fn(usize, &mut StreamState, &Address<InferenceShard>) -> T + Sync,
) -> Vec<T> {
    let n = streams.len();
    let workers = workers.max(1).min(n.max(1));
    let chunk = n.div_ceil(workers).max(1);
    let mut outs: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let shards: Vec<Address<InferenceShard>> = shards.iter().map(|h| h.address()).collect();
    let work = &work;
    std::thread::scope(|scope| {
        for (c, (states, slots)) in
            streams.chunks_mut(chunk).zip(outs.chunks_mut(chunk)).enumerate()
        {
            let shards = shards.clone();
            scope.spawn(move || {
                let _chunk_wall =
                    chunk_span.map(|name| ekya_telemetry::timing::wall_span("server.daemon", name));
                for (i, (st, slot)) in states.iter_mut().zip(slots.iter_mut()).enumerate() {
                    let shard = &shards[st.id.0 as usize % shards.len()];
                    *slot = Some(work(c * chunk + i, st, shard));
                }
            });
        }
    });
    outs.into_iter().map(|o| o.expect("every stream's slot filled")).collect()
}

/// A per-window snapshot consumer (see [`EdgeDaemon::set_snapshot_sink`]).
type SnapshotSink = Box<dyn FnMut(&StatusView<'_>) + Send>;

/// The long-running multi-tenant serving daemon.
pub struct EdgeDaemon {
    cfg: ServeConfig,
    shards: Vec<ActorHandle<InferenceShard>>,
    trainers: Vec<ActorHandle<TrainerActor>>,
    streams: Vec<StreamState>,
    rejected: u64,
    window_idx: usize,
    faults: BTreeSet<u32>,
    /// Free list of recycled pump carriers (wall plane only).
    carrier_pool: Vec<ClassifyJob>,
    /// Per-shard staging for one coalesced pump round (kept here so the
    /// staging `Vec`s themselves are reused across rounds).
    shard_jobs: Vec<Vec<ClassifyJob>>,
    snapshot_sink: Option<SnapshotSink>,
}

impl EdgeDaemon {
    /// Boots the daemon with no streams admitted: `infer_shards` bounded
    /// inference shards and `trainer_shards` supervised trainers.
    pub fn new(cfg: ServeConfig) -> Self {
        let shards = (0..cfg.infer_shards.max(1))
            .map(|i| {
                spawn_bounded(
                    format!("infer-shard-{i}"),
                    InferenceShard::default(),
                    cfg.shard_mailbox,
                )
            })
            .collect();
        let trainers = (0..cfg.trainer_shards.max(1))
            .map(|i| spawn_supervised_bounded(format!("trainer-{i}"), || TrainerActor, 2))
            .collect();
        let shard_jobs = (0..cfg.infer_shards.max(1)).map(|_| Vec::new()).collect();
        Self {
            cfg,
            shards,
            trainers,
            streams: Vec::new(),
            rejected: 0,
            window_idx: 0,
            faults: BTreeSet::new(),
            carrier_pool: Vec::new(),
            shard_jobs,
            snapshot_sink: None,
        }
    }

    fn shard_for(&self, stream: u32) -> &ActorHandle<InferenceShard> {
        &self.shards[stream as usize % self.shards.len()]
    }

    /// Admits a camera stream, or rejects it with a typed error (counted
    /// in the snapshot's `rejected`). Admission happens before serving
    /// starts: all streams share the daemon's window cursor.
    ///
    /// # Panics
    /// Panics when called after [`EdgeDaemon::run_window`] — mid-run
    /// admission would desynchronise the per-stream window ledgers.
    pub fn admit(&mut self, ds: VideoDataset) -> Result<StreamId, AdmissionError> {
        assert_eq!(self.window_idx, 0, "admission after serving starts is not supported");
        if self.streams.len() >= self.cfg.capacity {
            self.rejected += 1;
            if ekya_telemetry::enabled() {
                ekya_telemetry::event(
                    "server.daemon",
                    "admission_reject",
                    &format!("capacity_exceeded capacity={}", self.cfg.capacity),
                );
                ekya_telemetry::counter_add("server.daemon", "admission_rejected", 1);
            }
            return Err(AdmissionError::CapacityExceeded { capacity: self.cfg.capacity });
        }
        let offered_fps: f64 =
            self.streams.iter().map(|s| s.ds.spec.fps).sum::<f64>() + ds.spec.fps;
        if offered_fps > self.cfg.serve_fps_capacity {
            self.rejected += 1;
            if ekya_telemetry::enabled() {
                ekya_telemetry::event(
                    "server.daemon",
                    "admission_reject",
                    &format!(
                        "rate_exceeded offered_fps={offered_fps:.3} capacity_fps={:.3}",
                        self.cfg.serve_fps_capacity
                    ),
                );
                ekya_telemetry::counter_add("server.daemon", "admission_rejected", 1);
            }
            return Err(AdmissionError::RateExceeded {
                offered_fps,
                capacity_fps: self.cfg.serve_fps_capacity,
            });
        }
        let id = StreamId(self.streams.len() as u32);
        let seed = stream_seed(self.cfg.seed, id.0 as usize);
        let model = Mlp::new(MlpArch::edge(ds.feature_dim, ds.num_classes, 16), seed);
        let reply = self
            .shard_for(id.0)
            .ask(ShardMsg::Admit {
                stream: id.0,
                model: Arc::new(model),
                num_classes: ds.num_classes,
            })
            .expect("shard alive at admission");
        assert!(matches!(reply, ShardReply::Admitted));
        let status = StreamStatus {
            stream: id.0,
            dataset: ds.spec.kind.name().to_string(),
            fps: ds.spec.fps,
            windows_completed: 0,
            model_version: 0,
            frames_offered: 0,
            frames_served: 0,
            frames_backlogged: 0,
            peak_queue_depth: 0,
            peak_latency_ticks: 0,
            accuracy: 0.0,
            retrains_planned: 0,
            retrains_failed: 0,
            checkpoints_swapped: 0,
            swap_mbits: 0.0,
            swap_transfer_secs: 0.0,
        };
        self.streams.push(StreamState {
            id,
            learner: StreamLearner::new(
                seed,
                ds.num_classes,
                self.cfg.teacher_error_rate,
                self.cfg.exemplar_per_class,
                self.cfg.profiler,
                self.cfg.cost.clone(),
            ),
            status,
            ds,
        });
        if ekya_telemetry::enabled() {
            ekya_telemetry::counter_add("server.daemon", "streams_admitted", 1);
        }
        Ok(id)
    }

    /// Number of admitted streams.
    pub fn admitted(&self) -> usize {
        self.streams.len()
    }

    /// Index of the next window to run.
    pub fn window_idx(&self) -> usize {
        self.window_idx
    }

    /// A client handle for live inference traffic, usable from any
    /// thread concurrently with [`EdgeDaemon::run_window`].
    pub fn client(&self) -> DaemonClient {
        DaemonClient { shards: self.shards.iter().map(|h| h.address()).collect() }
    }

    /// Marks `stream` so its *next* planned retraining job panics after
    /// one epoch (before any checkpoint lands) — the supervised-recovery
    /// test path. One-shot: the mark clears when consumed.
    pub fn inject_trainer_fault(&mut self, stream: StreamId) {
        self.faults.insert(stream.0);
    }

    /// Total trainer restarts absorbed by supervision.
    pub fn trainer_restarts(&self) -> u64 {
        self.trainers.iter().map(ActorHandle::restarts).sum()
    }

    /// Aggregate live-plane counters across all shards.
    pub fn live_stats(&self) -> ShardLive {
        let mut total = ShardLive::default();
        for shard in &self.shards {
            if let Ok(ShardReply::Live(l)) = shard.ask(ShardMsg::LiveStats) {
                total.served += l.served;
                total.swaps += l.swaps;
            }
        }
        total
    }

    /// Runs one retraining window online: micro-profile + thief-schedule
    /// across all admitted streams, dispatch retraining to the supervised
    /// pool, keep pumping live inference batches while trainers run,
    /// credit hot-swaps (with link accounting), and advance every
    /// stream's logical serving ledger.
    ///
    /// # Panics
    /// Panics when any admitted stream's dataset has no more windows.
    pub fn run_window(&mut self) -> Vec<ServeWindowReport> {
        let w_idx = self.window_idx;
        let n = self.streams.len();
        // Everything this window emits on the daemon thread is keyed to
        // the window index; worker threads (Phases A/E) re-enter their
        // own (window, stream) contexts, since contexts are thread-local.
        let _w_ctx = ekya_telemetry::enabled()
            .then(|| ekya_telemetry::Ctx::current().window(w_idx as i64).enter());
        let _w_wall = ekya_telemetry::timing::wall_span("server.daemon", "window");
        for st in &self.streams {
            assert!(
                w_idx < st.ds.num_windows(),
                "no window {w_idx} for {}: dataset holds {}",
                st.id,
                st.ds.num_windows()
            );
        }

        // ---- Phase A: each stream's learner labels, measures and
        // profiles — fanned across planner workers. Results land by stream
        // index, so worker count cannot change a byte of the outcome.
        let prep = self.phase_a(w_idx);

        // ---- Phase B: plan (pure).
        let plan_wall = ekya_telemetry::timing::wall_span("server.daemon", "plan");
        let infer_profiles: Vec<_> = (0..n)
            .map(|s| {
                build_inference_profiles(
                    &self.cfg.cost,
                    self.cfg.cost.size_factor(&prep[s].model),
                    self.streams[s].ds.spec.fps,
                    &self.cfg.inference_grid,
                )
            })
            .collect();
        let window_secs = self.streams.first().map(|st| st.ds.spec.window_secs).unwrap_or(200.0);
        let ctx = PolicyCtx {
            window_idx: w_idx,
            window_secs,
            total_gpus: self.cfg.total_gpus,
            streams: (0..n)
                .map(|s| {
                    let w = self.streams[s].ds.window(w_idx);
                    PolicyStream {
                        id: self.streams[s].id,
                        fps: self.streams[s].ds.spec.fps,
                        serving_accuracy: prep[s].serving_sys,
                        class_dist: &w.class_dist,
                        drift_magnitude: w.drift_from_prev,
                        retrain_profiles: &prep[s].profiles,
                        infer_profiles: &infer_profiles[s],
                    }
                })
                .collect(),
        };
        let mut policy = EkyaPolicy::new(self.cfg.scheduler);
        let plan = policy.plan_window(&ctx);
        drop(plan_wall);
        if ekya_telemetry::enabled() {
            let retrains = plan.streams.iter().filter(|s| s.retrain.is_some()).count();
            ekya_telemetry::span(
                "server.daemon",
                "plan",
                retrains as f64,
                &format!("streams={n} retrains={retrains}"),
            );
        }

        // ---- Phase C: dispatch retraining round-robin over the
        // supervised pool; one waiter thread per trainer drains its jobs
        // in order.
        let mut queues: Vec<Vec<(usize, TrainJobSpec)>> =
            (0..self.trainers.len()).map(|_| Vec::new()).collect();
        let mut planned = vec![false; n];
        for (k, s) in (0..n).filter(|&s| plan.streams[s].retrain.is_some()).enumerate() {
            let st = &mut self.streams[s];
            planned[s] = true;
            st.status.retrains_planned += 1;
            // Logical event: *that* a retrain was dispatched is planner
            // output; *which* trainer got it is physical placement
            // (pool size tracks worker count) and stays out of the
            // fingerprinted plane.
            if ekya_telemetry::enabled() {
                let _s_ctx = ekya_telemetry::Ctx::current().stream(st.id.0 as i64).enter();
                ekya_telemetry::event("server.daemon", "retrain_dispatch", "");
            }
            let spec = TrainJobSpec {
                base_model: Arc::clone(&prep[s].model),
                pool: Arc::clone(&prep[s].pool),
                config: plan.streams[s].retrain.expect("filtered on is_some").config,
                num_classes: st.ds.num_classes,
                hyper: self.cfg.hyper,
                seed: self.cfg.seed.wrapping_add((w_idx as u64) << 20).wrapping_add(s as u64),
                checkpoint_every: self.cfg.checkpoint_every,
                swap_target: Some(SwapTarget {
                    addr: self.shards[st.id.0 as usize % self.shards.len()].address(),
                    stream: st.id.0,
                }),
                swap_reload: self.cfg.swap_reload,
                val: Arc::clone(&prep[s].sys_val),
                fail_after_epochs: self.faults.remove(&st.id.0).then_some(1),
            };
            queues[k % self.trainers.len()].push((s, spec));
        }
        let waiters: Vec<TrainWaiter> = queues
            .into_iter()
            .zip(self.trainers.iter())
            .map(|(jobs, trainer)| {
                let addr = trainer.address();
                std::thread::spawn(move || {
                    jobs.into_iter()
                        .map(|(s, spec)| {
                            let out = match addr.ask(TrainerMsg::Run(Box::new(spec))) {
                                Ok(TrainerReply::Done(out)) => Some(*out),
                                Err(_) => None, // panicked; supervisor restarted it
                            };
                            (s, out)
                        })
                        .collect()
                })
            })
            .collect();

        // ---- Phase D: pump live inference batches while trainers run
        // (the wall plane: real concurrency, counted but never
        // serialised).
        let mut live_served = vec![0u64; n];
        let mut cursor = 0usize;
        if self.cfg.crash_mid_window == Some(w_idx) {
            // Fault injection: die mid-window, after dispatch and one
            // live pump round — the snapshot on disk must still be the
            // previous window's consistent ledger.
            self.pump_once(w_idx, cursor, &mut live_served);
            std::process::exit(17);
        }
        let mut pump_rounds = 0u64;
        {
            let _train_wall = ekya_telemetry::timing::wall_span("server.daemon", "train_wait");
            while waiters.iter().any(|j| !j.is_finished()) {
                self.pump_once(w_idx, cursor, &mut live_served);
                cursor += self.cfg.batch_size;
                pump_rounds += 1;
            }
        }
        ekya_telemetry::timing::wall_gauge_max("server.daemon", "live_pump_rounds", pump_rounds);
        let mut outcomes: Vec<Option<Option<TrainOutcome>>> = (0..n).map(|_| None).collect();
        for waiter in waiters {
            for (s, out) in waiter.join().expect("trainer waiter thread") {
                outcomes[s] = Some(out);
            }
        }

        // ---- Phase E: end-of-window measurement (fanned like Phase A):
        // final serving model + ground-truth accuracy per stream.
        let finals = {
            let _e_wall = ekya_telemetry::timing::wall_span("server.daemon", "phase_e");
            self.phase_e(w_idx)
        };

        // ---- Phase F: credit swaps, account link transfers, advance the
        // logical ledger — sequential in stream order, fully
        // deterministic.
        let _f_wall = ekya_telemetry::timing::wall_span("server.daemon", "phase_f");
        let mut link = LinkQueue::default();
        let mut reports = Vec::with_capacity(n);
        for (s, (version, accuracy, model_mbits)) in finals.into_iter().enumerate() {
            let st = &mut self.streams[s];
            // Per-stream logical records for this window, emitted from
            // the daemon thread in stream order — keyed by (window,
            // stream, model_version), never by anything wall-clock.
            let _s_ctx = ekya_telemetry::enabled().then(|| {
                ekya_telemetry::Ctx::current()
                    .stream(st.id.0 as i64)
                    .model_version(version as i64)
                    .enter()
            });
            let swapped = version - st.status.model_version;
            st.status.model_version = version;
            st.status.checkpoints_swapped += swapped;
            st.status.accuracy = accuracy;
            for _ in 0..swapped {
                let (started_at, finished_at) =
                    link.schedule(0.0, self.cfg.link.download_secs(model_mbits));
                // Credit the span the queue reports, not the bare transfer
                // time: once the start is past 0, the two differ in the
                // last bit.
                let transfer_secs = finished_at - started_at;
                st.status.swap_mbits += model_mbits;
                st.status.swap_transfer_secs += transfer_secs;
                if ekya_telemetry::enabled() {
                    ekya_telemetry::event(
                        "server.daemon",
                        "hot_swap",
                        &format!("mbits={model_mbits:.3} transfer_secs={transfer_secs:.6}"),
                    );
                    ekya_telemetry::hist_observe(
                        "server.daemon",
                        "swap_transfer_secs",
                        transfer_secs,
                    );
                }
            }
            let failed = planned[s] && matches!(outcomes[s], Some(None));
            if failed {
                st.status.retrains_failed += 1;
                if ekya_telemetry::enabled() {
                    ekya_telemetry::event("server.daemon", "retrain_failed", "");
                }
            }

            // Logical serving ledger for this window.
            let frames = st.ds.window(w_idx).frames_total as u64;
            let mut backlog = st.status.frames_backlogged;
            for tick in 0..self.cfg.ticks_per_window {
                backlog +=
                    self.cfg.arrival.arrivals(st.id.0, tick, self.cfg.ticks_per_window, frames);
                st.status.peak_queue_depth = st.status.peak_queue_depth.max(backlog);
                let served_now = backlog.min(self.cfg.batch_size as u64);
                backlog -= served_now;
                st.status.frames_served += served_now;
            }
            st.status.frames_offered += frames;
            st.status.frames_backlogged = backlog;
            st.status.peak_latency_ticks =
                st.status.peak_queue_depth.div_ceil(self.cfg.batch_size.max(1) as u64);
            st.status.windows_completed += 1;
            if ekya_telemetry::enabled() {
                ekya_telemetry::span(
                    "server.daemon",
                    "stream_window",
                    accuracy,
                    &format!("retrained={} failed={failed} swapped={swapped}", planned[s]),
                );
                ekya_telemetry::hist_observe(
                    "server.daemon",
                    "peak_queue_depth",
                    st.status.peak_queue_depth as f64,
                );
            }

            reports.push(ServeWindowReport {
                id: st.id,
                retrained: planned[s],
                retrain_failed: failed,
                checkpoints_swapped: swapped,
                accuracy,
                live_served_during_training: live_served[s],
            });
        }
        if ekya_telemetry::enabled() {
            ekya_telemetry::counter_add("server.daemon", "windows_completed", 1);
            ekya_telemetry::counter_add(
                "server.daemon",
                "swaps_credited",
                reports.iter().map(|r| r.checkpoints_swapped).sum(),
            );
            ekya_telemetry::counter_add(
                "server.daemon",
                "retrains_failed",
                reports.iter().filter(|r| r.retrain_failed).count() as u64,
            );
        }
        self.window_idx += 1;
        if let Some(mut sink) = self.snapshot_sink.take() {
            sink(&self.status_view());
            self.snapshot_sink = Some(sink);
        }
        reports
    }

    /// One round of live pumping: every stream's batch of this window's
    /// frames, coalesced into at most one [`ShardMsg::ClassifyMany`] per
    /// shard, dispatched concurrently via deferred asks (the replies are
    /// the proof of liveness). Mailbox traffic scales with shard count,
    /// not stream count, and the batch carriers — frame `Vec`s and
    /// their feature buffers included — are recycled through a free
    /// list, so a steady-state round allocates nothing.
    fn pump_once(&mut self, w_idx: usize, cursor: usize, live_served: &mut [u64]) {
        let nshards = self.shards.len();
        for st in &self.streams {
            let val = &st.ds.window(w_idx).val;
            let mut job = self.carrier_pool.pop().unwrap_or_default();
            job.stream = st.id.0;
            refill_frames(&mut job.frames, val, cursor, self.cfg.batch_size);
            self.shard_jobs[st.id.0 as usize % nshards].push(job);
        }
        let pending: Vec<Option<Pending<ShardReply>>> = self
            .shards
            .iter()
            .zip(self.shard_jobs.iter_mut())
            .map(|(shard, jobs)| {
                if jobs.is_empty() {
                    return None;
                }
                shard.ask_deferred(ShardMsg::ClassifyMany(std::mem::take(jobs))).ok()
            })
            .collect();
        for p in pending.into_iter().flatten() {
            if let Ok(ShardReply::ClassifiedMany(jobs)) = p.wait() {
                for job in jobs {
                    if job.known {
                        live_served[job.stream as usize] += job.preds.len() as u64;
                    }
                    self.carrier_pool.push(job);
                }
            }
        }
    }

    /// Drives `rounds` rounds of the live pump against the *current*
    /// window's frames without running a window: pure wall plane — the
    /// logical ledger, status snapshots and traces are untouched.
    /// Returns the number of frames classified. This is the serving hot
    /// path in isolation, what the repo benchmark's `serve-steady`
    /// workload times.
    ///
    /// # Panics
    /// Panics when any admitted stream's dataset has no window at the
    /// current cursor.
    pub fn pump_rounds(&mut self, rounds: usize) -> u64 {
        let w_idx = self.window_idx;
        for st in &self.streams {
            assert!(
                w_idx < st.ds.num_windows(),
                "no window {w_idx} for {}: dataset holds {}",
                st.id,
                st.ds.num_windows()
            );
        }
        let mut live_served = vec![0u64; self.streams.len()];
        let mut cursor = 0usize;
        for _ in 0..rounds {
            self.pump_once(w_idx, cursor, &mut live_served);
            cursor += self.cfg.batch_size;
        }
        live_served.iter().sum()
    }

    /// Phase A body: each stream's learner prepares the window — label,
    /// mix exemplars, evaluate the serving model, micro-profile — and then
    /// folds the fresh labels into its memory. Fanned out by [`fan_out`],
    /// one `phase_a_chunk` wall span per chunk.
    fn phase_a(&mut self, w_idx: usize) -> Vec<PhaseAOut> {
        let retrain_grid = &self.cfg.retrain_grid;
        let base_seed = self.cfg.seed;
        let workers = self.cfg.planner_workers;
        fan_out(&mut self.streams, &self.shards, workers, Some("phase_a_chunk"), |s, st, shard| {
            // Contexts are thread-local: re-key this worker's deep
            // emissions (micro-profiler spans) to the (window, stream)
            // they belong to, so planner worker count never reorders the
            // sorted trace.
            let _s_ctx = ekya_telemetry::enabled().then(|| {
                ekya_telemetry::Ctx::current().window(w_idx as i64).stream(st.id.0 as i64).enter()
            });
            let Ok(ShardReply::Model { model, .. }) =
                shard.ask(ShardMsg::GetModel { stream: st.id.0 })
            else {
                unreachable!("admitted stream has a slot")
            };
            let profile_seed = base_seed.wrapping_add((w_idx as u64) << 16).wrapping_add(s as u64);
            let prep =
                st.learner.prepare(&model, st.ds.window(w_idx), retrain_grid, Some(profile_seed));
            st.learner.fold(prep.fresh());
            PhaseAOut {
                pool: Arc::new(prep.pool),
                sys_val: Arc::new(prep.sys_val),
                model,
                serving_sys: prep.serving_sys,
                profiles: prep.profile.map(|out| out.profiles).unwrap_or_default(),
            }
        })
    }

    /// Phase E body: fetch each stream's post-swap serving model and
    /// measure ground-truth accuracy, fanned like Phase A. Returns
    /// `(version, accuracy, model_mbits)` per stream.
    fn phase_e(&mut self, w_idx: usize) -> Vec<(u64, f64, f64)> {
        let cost = &self.cfg.cost;
        let workers = self.cfg.planner_workers;
        fan_out(&mut self.streams, &self.shards, workers, None, |_, st, shard| {
            let Ok(ShardReply::Model { model, version }) =
                shard.ask(ShardMsg::GetModel { stream: st.id.0 })
            else {
                unreachable!("admitted stream has a slot")
            };
            let accuracy =
                model.accuracy(DataView::new(&st.ds.window(w_idx).val, st.ds.num_classes));
            (version, accuracy, cost.model_size_mbits * cost.size_factor(&model))
        })
    }

    /// Installs a per-window snapshot sink. After each completed window
    /// the daemon builds a borrowed [`StatusView`] — no per-stream
    /// ledger clones — and hands it to `sink`. Without a sink, no
    /// per-window snapshot is constructed at all: snapshot work is gated
    /// entirely on someone wanting it.
    pub fn set_snapshot_sink(&mut self, sink: impl FnMut(&StatusView<'_>) + Send + 'static) {
        self.snapshot_sink = Some(Box::new(sink));
    }

    /// A borrowed view of the deterministic status plane. Serialises
    /// byte-identically to [`EdgeDaemon::status_snapshot`] without
    /// cloning any per-stream state.
    pub fn status_view(&self) -> StatusView<'_> {
        StatusView {
            seed: self.cfg.seed,
            capacity: self.cfg.capacity,
            windows_completed: self.window_idx as u64,
            admitted: self.streams.len(),
            rejected: self.rejected,
            streams: self.streams.iter().map(|st| &st.status).collect(),
        }
    }

    /// The deterministic status snapshot (logical plane only), as an
    /// owned document (reports, tests, offline validation). The serving
    /// path writes through [`EdgeDaemon::status_view`] instead.
    pub fn status_snapshot(&self) -> StatusSnapshot {
        StatusSnapshot {
            seed: self.cfg.seed,
            capacity: self.cfg.capacity,
            windows_completed: self.window_idx as u64,
            admitted: self.streams.len(),
            rejected: self.rejected,
            streams: self.streams.iter().map(|st| st.status.clone()).collect(),
        }
    }

    /// Graceful shutdown: stops every shard and trainer.
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.stop();
        }
        for trainer in self.trainers {
            trainer.stop();
        }
    }
}
