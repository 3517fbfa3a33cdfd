//! The four workloads and the meter that times them.
//!
//! A run is a sequence of **cycles**. Every cycle of a workload does the
//! same fixed work on inputs rebuilt from the seed — set-up (untimed
//! region, reported as `setup_s`), then a fixed number of timed **ops**
//! (one pump round / one `run_window` / one grid pass) — and cycles repeat
//! until the timed regions add up to `--seconds`. Fixed work per cycle is
//! what keeps the outputs a pure function of the seed however fast the
//! host is: every cycle must reproduce the first one byte for byte, and
//! that is checked.
//!
//! The daemon/harness shape is pinned here (never read from the
//! environment) so that at most two threads are busy at once: one
//! inference shard fed by the benchmark thread, one trainer, two planner
//! workers, two grid workers.

use crate::manifest::number;
use crate::spans::{Open, Spans};
use ekya::nn::Sample;
use ekya::server::{ArrivalPattern, EdgeDaemon, ServeConfig, StatusSnapshot};
use ekya::video::{DatasetKind, DatasetSpec, StreamId, VideoDataset};
use ekya_bench::{
    fig06_grid, merge_reports, quick_fleet, run_grid, GridExec, HarnessReport, ShardSpec,
};
use serde::Value;

pub const INFER_SHARDS: usize = 1;
pub const TRAINER_SHARDS: usize = 1;
pub const PLANNER_WORKERS: usize = 2;
pub const GRID_WORKERS: usize = 2;

/// The shape above, as stamped into every result record.
pub fn shape() -> String {
    format!(
        "infer_shards={INFER_SHARDS} trainers={TRAINER_SHARDS} \
         planner_workers={PLANNER_WORKERS} grid_workers={GRID_WORKERS}"
    )
}

/// The four workloads, by their `BENCHMARK.json` names.
#[derive(Clone, Copy, PartialEq)]
pub enum Workload {
    ServeSteady,
    RetrainWindow,
    FleetPlan,
    GridFig06,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-steady" => Some(Self::ServeSteady),
            "retrain-window" => Some(Self::RetrainWindow),
            "fleet-plan" => Some(Self::FleetPlan),
            "grid-fig06" => Some(Self::GridFig06),
            _ => None,
        }
    }

    pub fn run(self, m: &mut Meter, seed: u64, sz: &Sizes) -> Outcome {
        match self {
            Self::ServeSteady => serve_steady(m, seed, sz),
            Self::RetrainWindow => retrain_window(m, seed, sz),
            Self::FleetPlan => fleet_plan(m, seed, sz),
            Self::GridFig06 => grid_fig06(m, seed, sz),
        }
    }
}

/// Fixed work counts of one cycle of each workload. `full` is the frozen
/// benchmark scale; `smoke` runs the same code paths and checks in about
/// a second per workload and its results are marked non-comparable.
pub struct Sizes {
    pub serve_streams: usize,
    pub serve_warmup_rounds: usize,
    pub serve_rounds: usize,
    pub retrain_streams: usize,
    pub retrain_windows: usize,
    pub fleet_streams: usize,
    pub fleet_windows: usize,
    pub grid_quick: bool,
    pub grid_windows: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            serve_streams: 1000,
            serve_warmup_rounds: 5,
            serve_rounds: 150,
            retrain_streams: 16,
            retrain_windows: 8,
            fleet_streams: 200,
            fleet_windows: 2,
            grid_quick: false,
            grid_windows: 3,
        }
    }

    pub fn smoke() -> Self {
        Self {
            serve_streams: 100,
            serve_warmup_rounds: 2,
            serve_rounds: 40,
            retrain_streams: 4,
            retrain_windows: 2,
            fleet_streams: 24,
            fleet_windows: 2,
            grid_quick: true,
            grid_windows: 2,
        }
    }
}

/// One completed cycle: the wall time of each of its ops, in order, and
/// the work items those ops completed.
#[derive(Default)]
pub struct Cycle {
    /// Whether the program's own telemetry session was on (trace only).
    pub telemetry: bool,
    pub ops_ms: Vec<f64>,
    pub items: u64,
}

impl Cycle {
    /// The cycle's timed seconds: the sum of its ops.
    pub fn secs(&self) -> f64 {
        self.ops_ms.iter().sum::<f64>() / 1e3
    }
}

/// What the program's telemetry reported over the telemetry-on cycles.
#[derive(Default)]
pub struct TelemetryTotals {
    pub render_ms: Vec<f64>,
    /// Logical-plane records of one cycle (identical in every cycle).
    pub records: Option<u64>,
    pub window_ns: u64,
    pub phase_a_chunk_ns: u64,
    pub train_wait_ns: u64,
    /// Live-plane frames the daemon pumped while trainers ran.
    pub live_frames: u64,
}

pub struct Meter {
    pub spans: Spans,
    trace: bool,
    budget_s: f64,
    pub setups_s: Vec<f64>,
    pub cycles: Vec<Cycle>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub telemetry: TelemetryTotals,
    cur: Cycle,
}

impl Meter {
    /// `trace` records spans and runs cycles in pairs — program telemetry
    /// off, then on — so the pair's difference is the tracing overhead.
    pub fn new(trace: bool, budget_s: f64) -> Self {
        Self {
            spans: Spans::new(trace),
            trace,
            budget_s,
            setups_s: Vec::new(),
            cycles: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            telemetry: TelemetryTotals::default(),
            cur: Cycle::default(),
        }
    }

    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// Starts the next cycle, or returns false once the timed regions so
    /// far cover the budget (and, when tracing, the last pair is whole).
    pub fn begin_cycle(&mut self) -> bool {
        let timed: f64 = self.cycles.iter().map(Cycle::secs).sum();
        let pair_open = self.trace && self.cycles.len() % 2 == 1;
        if !self.cycles.is_empty() && timed >= self.budget_s && !pair_open {
            return false;
        }
        self.cur = Cycle { telemetry: pair_open, ..Cycle::default() };
        if pair_open {
            ekya::telemetry::start(None);
        }
        true
    }

    pub fn telemetry_on(&self) -> bool {
        self.cur.telemetry
    }

    pub fn end_setup(&mut self, setup: Open) {
        let secs = self.spans.close(setup);
        self.setups_s.push(secs);
    }

    pub fn op_open(&mut self, name: &'static str) -> Open {
        self.spans.open(name)
    }

    /// Closes a timed op that attempted `attempted` work items of which
    /// `done` succeeded.
    pub fn op_close(&mut self, op: Open, attempted: u64, done: u64) {
        let secs = self.spans.close(op);
        self.cur.ops_ms.push(secs * 1e3);
        self.cur.items += done;
        self.attempted += attempted;
        self.failed += attempted.saturating_sub(done);
    }

    pub fn end_cycle(&mut self) {
        if self.cur.telemetry {
            let render = self.spans.open("telemetry.render");
            let text = ekya::telemetry::render();
            let secs = self.spans.close(render);
            self.telemetry.render_ms.push(secs * 1e3);
            let records = text.lines().count() as u64;
            if *self.telemetry.records.get_or_insert(records) != records {
                self.violation(format!("telemetry rendered {records} records, not as before"));
            }
            let sidecar: Option<Value> =
                serde_json::from_str(&ekya::telemetry::timing::sidecar_json()).ok();
            ekya::telemetry::stop();
            let total_ns = |key: &str| {
                sidecar
                    .as_ref()
                    .and_then(|doc| number(doc.get("wall_spans")?.get(key)?.get("total_ns")?))
                    .unwrap_or(0.0) as u64
            };
            self.telemetry.window_ns += total_ns("server.daemon/window");
            self.telemetry.phase_a_chunk_ns += total_ns("server.daemon/phase_a_chunk");
            self.telemetry.train_wait_ns += total_ns("server.daemon/train_wait");
        }
        self.cycles.push(std::mem::take(&mut self.cur));
    }

    /// The cycles measured with the program's telemetry off (in a run,
    /// all of them).
    pub fn plain_cycles(&self) -> impl Iterator<Item = &Cycle> {
        self.cycles.iter().filter(|c| !c.telemetry)
    }

    /// The **quiet cycle**: each op's fastest time over the plain cycles.
    /// Every cycle does identical work, so op `j` of one cycle and op `j`
    /// of another differ only by what the host did to them; on a shared
    /// box that disturbance comes in bursts, only ever adds time, and its
    /// density drifts over minutes — which moves a median from run to run
    /// but not the minimum, as long as each op meets one quiet moment.
    pub fn quiet_cycle_ms(&self) -> Vec<f64> {
        let mut quiet: Vec<f64> = Vec::new();
        for cycle in self.plain_cycles() {
            if quiet.is_empty() {
                quiet = cycle.ops_ms.clone();
            }
            for (q, &ms) in quiet.iter_mut().zip(&cycle.ops_ms) {
                *q = q.min(ms);
            }
        }
        quiet
    }

    /// Every cycle must reproduce the first cycle's serialised output.
    fn same_as_first(&mut self, first: &mut Option<String>, bytes: String, what: &str) {
        match first {
            None => *first = Some(bytes),
            Some(reference) if *reference != bytes => {
                let n = self.cycles.len();
                self.violation(format!("{what} of cycle {n} differs from cycle 0"));
            }
            Some(_) => {}
        }
    }
}

/// The deterministic outputs of a workload (taken from its first cycle;
/// every later cycle is checked equal).
#[derive(Default)]
pub struct Outcome {
    pub mean_accuracy: f64,
    /// Ekya's accuracy minus the best uniform variant's, averaged over
    /// the grid's (dataset, streams, GPUs) groups; 0 off the grid.
    pub gain_vs_uniform: f64,
    pub retrains: u64,
    pub swaps: u64,
    pub retrains_failed: u64,
}

pub fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("program output serialises")
}

/// Stream `i` of a paper-default fleet: 200 s windows at 30 fps, 600-frame
/// training pools, the four workload families in turn.
pub fn paper_stream(seed: u64, i: usize, windows: usize) -> VideoDataset {
    let kind = DatasetKind::ALL[i % DatasetKind::ALL.len()];
    VideoDataset::generate(DatasetSpec::new(kind, windows, seed.wrapping_add(1000 * i as u64)))
}

/// The daemon the quick fleet is pumped through (`serve-steady` and the
/// replay's pump probes): quick preset, one planner thread.
pub fn pump_config(streams: usize, infer_shards: usize, seed: u64) -> ServeConfig {
    ServeConfig {
        capacity: streams,
        infer_shards,
        trainer_shards: TRAINER_SHARDS,
        planner_workers: 1,
        seed,
        ..ServeConfig::quick(2.0)
    }
}

/// `StatusSnapshot::validate` covers `offered = served + backlogged`,
/// version/swap agreement and ledger completeness per stream.
fn check_snapshot(m: &mut Meter, snap: &StatusSnapshot) -> u64 {
    let errs = snap.validate();
    for e in &errs {
        m.violation(format!("status snapshot: {e}"));
    }
    errs.len() as u64
}

fn admit_all(m: &mut Meter, daemon: &mut EdgeDaemon, fleet: Vec<VideoDataset>) {
    for ds in fleet {
        let admit = m.spans.open("server.admit");
        let admitted = daemon.admit(ds);
        m.spans.close(admit);
        if let Err(e) = admitted {
            m.violation(format!("in-capacity stream rejected: {e}"));
        }
    }
}

/// `serve-steady`: the frame path alone. Op = one pump round (one batch
/// per stream offered, every prediction back); item = one frame.
fn serve_steady(m: &mut Meter, seed: u64, sz: &Sizes) -> Outcome {
    let mut first = None;
    let mut out = Outcome::default();
    while m.begin_cycle() {
        let setup = m.spans.open("setup");
        let generate = m.spans.open("video.generate");
        let fleet = quick_fleet(sz.serve_streams, 1, seed);
        m.spans.close(generate);
        let labelled: Vec<Vec<Sample>> = fleet.iter().map(|ds| ds.window(0).val.clone()).collect();
        let cfg = pump_config(sz.serve_streams, INFER_SHARDS, seed);
        let frames_per_round = (sz.serve_streams * cfg.batch_size) as u64;
        let mut daemon = EdgeDaemon::new(cfg);
        admit_all(m, &mut daemon, fleet);
        daemon.pump_rounds(sz.serve_warmup_rounds);
        m.end_setup(setup);

        let before = to_json(&daemon.status_view());
        for _ in 0..sz.serve_rounds {
            let round = m.op_open("server.pump_round");
            let classified = daemon.pump_rounds(1);
            m.op_close(round, frames_per_round, classified);
            if classified != frames_per_round {
                m.violation(format!("pump round classified {classified}/{frames_per_round}"));
            }
        }
        let view = m.spans.open("server.status_view");
        let after = to_json(&daemon.status_view());
        m.spans.close(view);
        if before != after {
            m.violation("status_view bytes changed across the pumped region".to_string());
        }
        check_snapshot(m, &daemon.status_snapshot());

        // What the served predictions are worth: every stream's labelled
        // frames through the request path. No window has run, so this is
        // the admission-time models' accuracy — near chance, but a pure
        // function of the seed that any change to the predict path moves.
        let client = daemon.client();
        let (mut hits, mut total) = (0usize, 0usize);
        for (i, frames) in labelled.into_iter().enumerate() {
            let truth: Vec<usize> = frames.iter().map(|s| s.y).collect();
            match client.classify(StreamId(i as u32), frames) {
                Ok((preds, _)) => {
                    hits += preds.iter().zip(&truth).filter(|(p, y)| p == y).count();
                    total += truth.len();
                }
                Err(e) => m.violation(format!("classify on stream {i}: {e}")),
            }
        }
        daemon.shutdown();
        let accuracy = hits as f64 / total.max(1) as f64;
        m.same_as_first(&mut first, format!("{after} {accuracy}"), "status and predictions");
        out.mean_accuracy = accuracy;
        m.end_cycle();
    }
    out
}

/// Shared body of the two window workloads. Op = one `run_window`;
/// item = one stream-window.
fn serve_windows(
    m: &mut Meter,
    windows: usize,
    fleet: impl Fn() -> Vec<VideoDataset>,
    cfg: impl Fn() -> ServeConfig,
) -> Outcome {
    let mut first = None;
    let mut out = Outcome::default();
    while m.begin_cycle() {
        let setup = m.spans.open("setup");
        let generate = m.spans.open("video.generate");
        let fleet = fleet();
        m.spans.close(generate);
        let n = fleet.len() as u64;
        let mut daemon = EdgeDaemon::new(cfg());
        admit_all(m, &mut daemon, fleet);
        m.end_setup(setup);

        let mut cycle = Outcome::default();
        let mut versions = vec![0u64; n as usize];
        for w in 0..windows {
            let window = m.op_open("server.run_window");
            let reports = daemon.run_window();
            let failed = reports.iter().filter(|r| r.retrain_failed).count() as u64;
            m.op_close(window, n, n - failed);
            // Eq. 1's quantity: accuracy averaged over streams and windows.
            let window_accuracy = reports.iter().map(|r| r.accuracy).sum::<f64>() / n as f64;
            cycle.mean_accuracy += window_accuracy / windows as f64;
            cycle.retrains += reports.iter().filter(|r| r.retrained).count() as u64;
            cycle.swaps += reports.iter().map(|r| r.checkpoints_swapped).sum::<u64>();
            cycle.retrains_failed += failed;
            if m.telemetry_on() {
                m.telemetry.live_frames +=
                    reports.iter().map(|r| r.live_served_during_training).sum::<u64>();
            }
            let snap = daemon.status_snapshot();
            let ledger_errors = check_snapshot(m, &snap);
            m.failed += ledger_errors;
            for (seen, s) in versions.iter_mut().zip(&snap.streams) {
                if s.model_version < *seen {
                    m.violation(format!("stream {} model version fell in window {w}", s.stream));
                }
                *seen = s.model_version;
            }
        }
        let view = m.spans.open("server.status_view");
        let bytes = to_json(&daemon.status_view());
        m.spans.close(view);
        daemon.shutdown();
        m.same_as_first(&mut first, bytes, "status snapshot");
        if m.cycles.is_empty() {
            out = cycle;
        }
        m.end_cycle();
    }
    out
}

/// `retrain-window`: the paper's loop with retraining actually happening
/// — paper-default streams, the full 18-configuration retrain grid.
fn retrain_window(m: &mut Meter, seed: u64, sz: &Sizes) -> Outcome {
    let (streams, windows) = (sz.retrain_streams, sz.retrain_windows);
    serve_windows(
        m,
        windows,
        || (0..streams).map(|i| paper_stream(seed, i, windows)).collect(),
        || ServeConfig {
            capacity: streams,
            infer_shards: INFER_SHARDS,
            trainer_shards: TRAINER_SHARDS,
            planner_workers: PLANNER_WORKERS,
            seed,
            ..ServeConfig::new(8.0)
        },
    )
}

/// `fleet-plan`: the same window loop at fleet scale, where a window is
/// about one `thief_schedule` call and training is a sliver.
fn fleet_plan(m: &mut Meter, seed: u64, sz: &Sizes) -> Outcome {
    let (streams, windows) = (sz.fleet_streams, sz.fleet_windows);
    serve_windows(
        m,
        windows,
        || quick_fleet(streams, windows, seed),
        || ServeConfig {
            capacity: streams,
            infer_shards: INFER_SHARDS,
            trainer_shards: TRAINER_SHARDS,
            planner_workers: PLANNER_WORKERS,
            arrival: ArrivalPattern::Bursty,
            seed,
            ..ServeConfig::quick(16.0)
        },
    )
}

/// Mean Ekya accuracy over the grid, and Ekya's lead over the best
/// uniform variant averaged over the (dataset, streams, GPUs) groups.
fn grid_outcome(report: &HarnessReport) -> Outcome {
    use ekya::baselines::PolicySpec;
    let (mut acc_sum, mut gain_sum, mut groups) = (0.0, 0.0, 0usize);
    for ekya_cell in report.cells.iter().filter(|c| c.scenario.policy == PolicySpec::Ekya) {
        let sc = &ekya_cell.scenario;
        let best_uniform = report
            .cells
            .iter()
            .filter(|c| {
                c.scenario.policy != PolicySpec::Ekya
                    && c.scenario.dataset == sc.dataset
                    && c.scenario.streams == sc.streams
                    && c.scenario.gpus == sc.gpus
            })
            .map(|c| c.mean_accuracy)
            .fold(0.0, f64::max);
        acc_sum += ekya_cell.mean_accuracy;
        gain_sum += ekya_cell.mean_accuracy - best_uniform;
        groups += 1;
    }
    let groups = groups.max(1) as f64;
    Outcome {
        mean_accuracy: acc_sum / groups,
        gain_vs_uniform: gain_sum / groups,
        ..Outcome::default()
    }
}

/// `grid-fig06`: the experiment path. Op = one warm pass over the grid;
/// item = one cell. Set-up happens once per process (the stream and
/// hold-out caches it fills are process-wide): grid construction plus the
/// cold pass, which runs as two shard halves so that their merge can be
/// the reference every warm pass is compared with.
fn grid_fig06(m: &mut Meter, seed: u64, sz: &Sizes) -> Outcome {
    let grid = fig06_grid(sz.grid_quick, sz.grid_windows, seed);
    let cells = grid.cells().len() as u64;
    let mut merged = None;
    let mut out = Outcome::default();
    while m.begin_cycle() {
        if merged.is_none() {
            let setup = m.spans.open("setup");
            let halves: Vec<HarnessReport> = (0..2)
                .map(|index| {
                    let half = m.spans.open("harness.run_shard");
                    let exec = GridExec::new("grid", GRID_WORKERS)
                        .shard(Some(ShardSpec { index, count: 2 }));
                    let report = exec.run(&grid).report;
                    m.spans.close(half);
                    report
                })
                .collect();
            let merge = m.spans.open("harness.merge_reports");
            let report = merge_reports(&halves);
            m.spans.close(merge);
            m.end_setup(setup);
            match report {
                Ok(report) => merged = Some(to_json(&report)),
                Err(e) => {
                    m.violation(format!("shard halves do not merge: {e}"));
                    merged = Some(String::new());
                }
            }
        }
        let pass = m.op_open("harness.run_grid");
        let run = run_grid(&grid, GRID_WORKERS);
        m.op_close(pass, cells, cells - run.report.failed as u64);
        if merged.as_deref() != Some(to_json(&run.report).as_str()) {
            let n = m.cycles.len();
            m.violation(format!("pass {n} does not serialise as the merged shard halves do"));
        }
        if m.cycles.is_empty() {
            out = grid_outcome(&run.report);
        }
        m.end_cycle();
    }
    out
}
