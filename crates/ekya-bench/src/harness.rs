//! Parallel experiment harness: env knobs, a shared-queue worker pool
//! with panic isolation, and structured grid results — sharded across
//! processes and resumable after a kill.
//!
//! Grid cells are independent simulations, so the harness fans them out
//! across threads, one cell per task, and still produces
//! **byte-identical** output to a serial run: every cell's RNG seed is a
//! pure function of the cell itself (see [`crate::grid`]), results are
//! written back by cell index, and wall-clock timing lives outside the
//! serialized report (in [`RunStats`]). A cell that panics is isolated —
//! its slot carries the panic message and every other cell completes
//! normally.
//!
//! The same purity is what makes a grid bigger than one machine or one
//! uninterrupted process tractable:
//!
//! * **Sharding** — [`GridExec`] runs one [`ShardSpec`] slice of the
//!   flattened cell range; [`merge_reports`] recombines per-shard [`HarnessReport`]s
//!   into a file byte-identical to an unsharded run, rejecting
//!   overlapping or missing slices.
//! * **Resume** — every completed cell is checkpointed to a
//!   `*.partial.json` next to the report as it lands; a rerun loads
//!   prior [`CellResult`]s (keyed by the scenario
//!   [`fingerprint`](Scenario::fingerprint)), skips them, and executes
//!   only the remainder, writing the same merged report the
//!   uninterrupted run would have written.
//!
//! [`run_grid_bin`] wires both behaviours to the `EKYA_SHARD` and
//! `EKYA_RESUME` environment knobs for the fig/table binaries.

use crate::grid::{coverage_order, Grid, Scenario, ShardSpec};
use crate::results_dir;
use ekya_baselines::PolicyBuildCtx;
use ekya_sim::{run_windows, RunReport, RunnerConfig};
use ekya_video::StreamSet;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------

/// The environment knobs shared by every `ekya-bench` binary, parsed in
/// exactly one place ([`Knobs::from_env`]) and pinned whole into a
/// supervised run's `plan.json`. See `crates/ekya-bench/README.md` for
/// the full operator guide.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Knobs {
    /// `EKYA_WINDOWS` — retraining windows, `None` for the bin's default.
    pub windows: Option<usize>,
    /// `EKYA_STREAMS` — concurrent streams, `None` for the bin's default.
    pub streams: Option<usize>,
    /// `EKYA_SEED` — base RNG seed (default 42).
    pub seed: u64,
    /// `EKYA_QUICK=1` — shrink sweeps for a fast smoke run.
    pub quick: bool,
    /// `EKYA_WORKERS` — harness worker threads (default: available
    /// hardware parallelism).
    pub workers: usize,
    /// `EKYA_SHARD=i/N` — run only shard `i` of `N` of the grid's cell
    /// range (grid bins; see [`crate::grid::ShardSpec`]).
    pub shard: Option<ShardSpec>,
    /// `EKYA_RESUME=1` — resume from this run's own previous report or
    /// checkpoint.
    pub resume: bool,
}

impl Default for Knobs {
    /// The knob values an empty environment resolves to: seed 42, no
    /// window/stream overrides, full-size sweeps, hardware-parallelism
    /// workers, unsharded, no resume.
    fn default() -> Self {
        Self {
            windows: None,
            streams: None,
            seed: 42,
            quick: false,
            workers: default_workers(),
            shard: None,
            resume: false,
        }
    }
}

impl Knobs {
    /// Reads every knob from the environment. Unset or empty means the
    /// default; a flag (`EKYA_QUICK`, `EKYA_RESUME`) is `0` or `1`.
    ///
    /// # Panics
    /// On a malformed value, naming the variable — a typo silently
    /// running the default (and a supervisor pinning it into every
    /// shard's plan, or a malformed `EKYA_SHARD` later merging as an
    /// overlap) would be far worse than failing fast.
    pub fn from_env() -> Self {
        use crate::knob::{parse, var};
        fn flag(name: &str) -> bool {
            match var(name).as_deref() {
                None | Some("0") => false,
                Some("1") => true,
                Some(v) => panic!("{name}: expected 0 or 1, got `{v}`"),
            }
        }
        let defaults = Self::default();
        Self {
            windows: parse("EKYA_WINDOWS"),
            streams: parse("EKYA_STREAMS"),
            seed: parse("EKYA_SEED").unwrap_or(defaults.seed),
            quick: flag("EKYA_QUICK"),
            workers: parse("EKYA_WORKERS").unwrap_or(defaults.workers),
            shard: var("EKYA_SHARD")
                .map(|v| ShardSpec::parse(&v).unwrap_or_else(|e| panic!("EKYA_SHARD: {e}"))),
            resume: flag("EKYA_RESUME"),
        }
    }

    /// Number of retraining windows (`EKYA_WINDOWS`, else the bin's
    /// default).
    pub fn windows(&self, default: usize) -> usize {
        self.windows.unwrap_or(default)
    }

    /// Number of concurrent streams (`EKYA_STREAMS`, else the bin's
    /// default).
    pub fn streams(&self, default: usize) -> usize {
        self.streams.unwrap_or(default)
    }

    /// Worker threads for the harness pool (`EKYA_WORKERS`, default:
    /// hardware parallelism).
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Warns (once, to stderr) when `EKYA_SHARD` is set but the calling
    /// bin computes a bespoke workload that does not partition — so an
    /// operator fanning a sweep across machines is told the knob is a
    /// no-op here instead of silently duplicating the whole run N times.
    pub fn warn_if_sharded(&self, bin: &str) {
        if let Some(shard) = self.shard {
            eprintln!(
                "[{bin}: EKYA_SHARD={shard} ignored — this bin does not shard; \
                 running the full workload]"
            );
        }
    }

    /// Warns (once, to stderr) when `EKYA_RESUME` is set but the calling
    /// bin does not checkpoint/resume — the operator expecting a cheap
    /// rerun is told everything recomputes instead of a silent no-op.
    pub fn warn_if_resume(&self, bin: &str) {
        if self.resume {
            eprintln!(
                "[{bin}: EKYA_RESUME ignored — this bin does not resume; \
                 recomputing from scratch]"
            );
        }
    }
}

/// Hardware parallelism, floored at one.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

// ---------------------------------------------------------------------
// Shared-queue fan-out
// ---------------------------------------------------------------------

/// Runs `f` over every item on a pool of `workers` threads and returns
/// the results **in item order**.
///
/// Every item is its own task. The items wait in one shared FIFO queue
/// and an idle worker takes the next one, so stragglers (cells vary
/// wildly in cost — more streams, more windows, Ekya vs uniform) do not
/// idle the rest of the pool. With `workers == 1` everything runs inline
/// on the calling thread.
///
/// Each item is evaluated under [`catch_unwind`]: a panicking item
/// yields `Err(panic message)` in its slot and no other item is
/// affected. `done(index, &result)` then runs on the same worker, outside
/// that guard, for every item — poisoned ones included — which is where
/// the grid harness checkpoints each completion. Results depend only on
/// `(index, item)`, never on execution order, so serial and parallel
/// runs agree exactly.
pub(crate) fn run_parallel<T, R, F, D>(
    items: Vec<T>,
    workers: usize,
    f: F,
    done: D,
) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    D: Fn(usize, &Result<R, String>) + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let run = |i: usize, item: T| {
        let result = guard(&f, i, item);
        done(i, &result);
        result
    };
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return items.into_iter().enumerate().map(|(i, item)| run(i, item)).collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Mutex<Vec<Option<Result<R, String>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Bound first, so the queue's lock is released before
                // the cell runs rather than held through it.
                let next = queue.lock().expect("cell queue").next();
                let Some((i, item)) = next else { break };
                let result = run(i, item);
                slots.lock().expect("result slots").get_mut(i).expect("slot index").replace(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots")
        .into_iter()
        .map(|slot| slot.expect("every cell ran to completion"))
        .collect()
}

/// Evaluates one item under panic isolation.
fn guard<T, R, F: Fn(usize, T) -> R>(f: &F, i: usize, item: T) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(panic_message)
}

/// Renders a `catch_unwind` payload as the panic message string carried
/// in a poisoned cell's `error` field.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "cell panicked (non-string payload)".to_string())
}

// ---------------------------------------------------------------------
// Grid execution
// ---------------------------------------------------------------------

/// The structured outcome of one grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell that produced this result.
    pub scenario: Scenario,
    /// Policy report name (matches figure legends).
    pub policy: String,
    /// Headline metric: accuracy averaged over windows and streams.
    pub mean_accuracy: f64,
    /// Fraction of stream-windows in which retraining ran.
    pub retrain_rate: f64,
    /// Full per-window report (`None` when the cell failed).
    pub report: Option<RunReport>,
    /// Panic message when the cell was poisoned.
    pub error: Option<String>,
}

/// The outcome of a grid run (or one shard of it), serialized to
/// `results/*.json`.
///
/// Every field is a **deterministic** function of the grid and the shard
/// — wall-clock timing, worker counts, and resume bookkeeping live in
/// [`RunStats`], which is printed but never serialized here. That split
/// is what makes the sharding/resume guarantees byte-exact: the merged
/// union of `N` shard reports, and the report of a resumed run, are
/// *identical files* to the one an uninterrupted single-process run
/// writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarnessReport {
    /// Grid identity — the bin name for reports written by
    /// [`run_grid_bin`]. Merging rejects mismatched names.
    pub name: String,
    /// Cells in the **full** (unsharded) grid enumeration.
    pub total_cells: usize,
    /// The shard this report covers (`None` = the whole grid).
    pub shard: Option<ShardSpec>,
    /// Number of poisoned cells in this report.
    pub failed: usize,
    /// Per-cell results, in grid enumeration order (a shard report holds
    /// the contiguous `shard.range(total_cells)` slice).
    pub cells: Vec<CellResult>,
}

impl HarnessReport {
    /// The mean accuracy of the first cell matching `pred`, or `None`.
    pub fn accuracy_where<F: Fn(&CellResult) -> bool>(&self, pred: F) -> Option<f64> {
        self.cells.iter().find(|c| c.error.is_none() && pred(c)).map(|c| c.mean_accuracy)
    }

    /// True when this report covers the whole grid (not a shard, no
    /// missing cells) — the precondition for the bins' whole-grid tables
    /// and headline comparisons.
    pub fn is_complete(&self) -> bool {
        self.shard.is_none() && self.cells.len() == self.total_cells
    }

    /// The error-free cells of this report keyed by their scenario
    /// fingerprint — the prior map the resume layer feeds to
    /// [`GridExec::prior`]. Poisoned cells are excluded so a resumed run
    /// retries them.
    pub fn prior_cells(&self) -> BTreeMap<u64, CellResult> {
        self.cells
            .iter()
            .filter(|c| c.error.is_none())
            .map(|c| (c.scenario.fingerprint(), c.clone()))
            .collect()
    }

    /// Prints the standard sharded-run notice a bin shows instead of its
    /// whole-grid presentation; `what` names what was skipped, as a
    /// plural-aware phrase ending in "is"/"are" (e.g. `"the factor
    /// table is"`, `"tables and headlines are"`).
    pub fn print_shard_notice(&self, what: &str) {
        println!(
            "[shard report: {} of {} cells — {what} whole-grid; \
             merge the shards with `ekya_grid merge` first]",
            self.cells.len(),
            self.total_cells
        );
    }
}

/// Timing and resume bookkeeping for one [`GridExec::run`] — printed by
/// the bins, deliberately **not** part of the serialized
/// [`HarnessReport`] (see there).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds spent executing cells (excludes resumed ones).
    pub wall_secs: f64,
    /// Throughput: executed cells per wall-clock second.
    pub cells_per_sec: f64,
    /// Cells actually executed by this run.
    pub executed: usize,
    /// Cells skipped because a prior result was resumed.
    pub resumed: usize,
}

/// A [`HarnessReport`] together with the [`RunStats`] of the run that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRun {
    /// The deterministic report.
    pub report: HarnessReport,
    /// How the run went (timing, resume counts).
    pub stats: RunStats,
}

impl GridRun {
    /// Prints the standard end-of-bin stats footer (executed/resumed
    /// counts, wall clock, throughput, failures) every grid bin ends
    /// with.
    pub fn print_footer(&self) {
        println!(
            "\n[{} cells executed (+{} resumed) in {:.1} s — {:.2} cells/s on {} workers, \
             {} failed]",
            self.stats.executed,
            self.stats.resumed,
            self.stats.wall_secs,
            self.stats.cells_per_sec,
            self.stats.workers,
            self.report.failed
        );
    }
}

/// Runs one scenario end to end: generate its streams, build its policy
/// (inside the calling thread), execute the windows. This is the default
/// cell evaluator; bins with bespoke cells pass their own to
/// [`GridExec::run_with`].
pub fn run_scenario(sc: &Scenario, holdout_seed: u64) -> CellResult {
    // Cells that differ only in policy share a workload; the memoised
    // constructor derives each distinct (dataset, streams, windows, seed)
    // stream set once per process instead of once per cell.
    let streams = StreamSet::cached(sc.dataset, sc.streams, sc.windows, sc.seed);
    let cfg = RunnerConfig { total_gpus: sc.gpus, seed: sc.seed, ..RunnerConfig::default() };
    let ctx = PolicyBuildCtx::new(sc.dataset, sc.gpus, holdout_seed);
    let mut policy = sc.policy.build(&ctx);
    let report = run_windows(policy.as_mut(), &streams, &cfg, sc.windows);
    CellResult {
        scenario: sc.clone(),
        policy: report.policy.clone(),
        mean_accuracy: report.mean_accuracy(),
        retrain_rate: report.retrain_rate(),
        report: Some(report),
        error: None,
    }
}

/// Configured grid execution: which slice of the grid to run, what prior
/// results to reuse, and where to checkpoint progress.
///
/// The plain [`run_grid`] wrapper covers the common whole-grid case;
/// bins go through [`run_grid_bin`], which builds a `GridExec` from the
/// environment knobs.
#[derive(Debug, Clone, Default)]
pub struct GridExec {
    /// Grid identity stamped into the report (the bin name).
    pub name: String,
    /// Worker threads for the cell fan-out.
    pub workers: usize,
    /// Run only this slice of the flattened cell range.
    pub shard: Option<ShardSpec>,
    /// Prior results keyed by scenario fingerprint
    /// ([`HarnessReport::prior_cells`]); matching cells are not re-run.
    pub prior: BTreeMap<u64, CellResult>,
    /// When set, the partial report is rewritten here after every
    /// completed cell (atomically, via a `.tmp` sibling), so a killed
    /// run loses at most the cells in flight.
    pub checkpoint: Option<PathBuf>,
    /// Fault injection: exit the whole process (code 17) once this many
    /// cells have completed in this run. Wired to the
    /// `EKYA_ORCH_CRASH_AFTER` env knob by [`run_grid_bin`] so the
    /// orchestrator's tests and CI can kill a shard mid-grid and prove
    /// retry-with-resume converges. Never set in normal operation.
    pub crash_after: Option<usize>,
}

impl GridExec {
    /// A whole-grid execution with no resume and no checkpointing.
    pub fn new(name: impl Into<String>, workers: usize) -> Self {
        Self { name: name.into(), workers, ..Self::default() }
    }

    /// Restricts the run to one shard of the cell range.
    pub fn shard(mut self, shard: Option<ShardSpec>) -> Self {
        self.shard = shard;
        self
    }

    /// Supplies prior results to resume from.
    pub fn prior(mut self, prior: BTreeMap<u64, CellResult>) -> Self {
        self.prior = prior;
        self
    }

    /// Enables per-cell checkpointing to `path`.
    pub fn checkpoint(mut self, path: Option<PathBuf>) -> Self {
        self.checkpoint = path;
        self
    }

    /// Enables fault injection: the process exits after `n` completed
    /// cells (see the field docs).
    pub fn crash_after(mut self, n: Option<usize>) -> Self {
        self.crash_after = n;
        self
    }

    /// Executes the configured slice of `grid` with the default cell
    /// evaluator ([`run_scenario`] under the grid's hold-out seed) and
    /// assembles the report.
    ///
    /// Cells whose fingerprint hits `prior` are reused verbatim (and
    /// count as `resumed` in the stats); the remainder fan out across
    /// the worker pool, checkpointing each completion when configured.
    /// The returned report is identical to what an unresumed run of the
    /// same slice produces — resume can only skip work, never change it.
    pub fn run(&self, grid: &Grid) -> GridRun {
        self.run_with(grid, |sc| run_scenario(sc, grid.holdout_seed(sc.dataset)))
    }

    /// [`GridExec::run`] with a custom cell evaluator.
    ///
    /// `eval` must be a pure function of the scenario (plus state fixed
    /// for the whole run, e.g. a pre-recorded trace) — that purity is
    /// what keeps sharding, resume, and parallel ≡ serial byte-exact.
    /// This is how bins whose cells are not plain simulations
    /// (fig08's trace replay) ride the same shard/resume machinery.
    pub fn run_with<F>(&self, grid: &Grid, eval: F) -> GridRun
    where
        F: Fn(&Scenario) -> CellResult + Sync,
    {
        let all = grid.cells();
        let total = all.len();
        let range = self.shard.map_or(0..total, |s| s.range(total));

        // Split the slice into resumed hits and cells still to execute,
        // remembering each cell's global grid index.
        let mut done: BTreeMap<usize, CellResult> = BTreeMap::new();
        let mut pending: Vec<(usize, Scenario)> = Vec::new();
        for (idx, sc) in all.into_iter().enumerate().take(range.end).skip(range.start) {
            match self.prior.get(&sc.fingerprint()) {
                Some(hit) => {
                    done.insert(idx, hit.clone());
                }
                None => pending.push((idx, sc)),
            }
        }
        let resumed_idx: Vec<usize> = done.keys().copied().collect();
        let resumed = done.len();
        let executed = pending.len();

        // Checkpoint state starts from the resumed cells, so a partial
        // file always holds *everything* completed so far.
        let ckpt = self
            .checkpoint
            .as_ref()
            .map(|path| (path.as_path(), Mutex::new(done.clone()), Mutex::new(0usize)));
        let envelope = (self.name.as_str(), total, self.shard);
        let completed = std::sync::atomic::AtomicUsize::new(0);

        // One cell, one task: an idle worker takes the next cell from the
        // shared queue, which rebalances however lopsided cell costs are,
        // and every completion is checkpointed as it lands.
        let started = Instant::now();
        let results = run_parallel(
            pending.iter().map(|(_, sc)| sc).collect(),
            self.workers,
            |_, sc: &Scenario| {
                let _cell_wall = ekya_telemetry::timing::wall_span("bench.grid", "cell_exec");
                // Scope deep instrumentation (profiler, scheduler) fired
                // during eval to this cell's fingerprint, so its logical
                // records sort identically no matter which worker — or
                // which shard — ran the cell.
                let _cell_ctx = ekya_telemetry::enabled().then(|| {
                    ekya_telemetry::Ctx::current()
                        .cell(format!("{:016x}", sc.fingerprint()))
                        .enter()
                });
                eval(sc)
            },
            |i, result| {
                if let (Ok(cell), Some((_, state, _))) = (result, &ckpt) {
                    state.lock().expect("checkpoint state").insert(pending[i].0, cell.clone());
                }
                // A poisoned cell counts as a completion too. The flush
                // precedes the injected exit, so the kill the orchestrator's
                // tests simulate is the realistic one — progress survives,
                // the run does not.
                let n = completed.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                flush_checkpoint(&ckpt, envelope);
                if self.crash_after.is_some_and(|k| n >= k) {
                    eprintln!(
                        "[{}: injected crash after {n} cells (EKYA_ORCH_CRASH_AFTER)]",
                        self.name
                    );
                    std::process::exit(17);
                }
            },
        );
        let wall_secs = started.elapsed().as_secs_f64();

        // Merge fresh results (poisoned slots backfilled from the
        // scenario) with the resumed cells, in global grid order.
        for ((idx, sc), result) in pending.into_iter().zip(results) {
            let cell = match result {
                Ok(cell) => cell,
                Err(message) => CellResult {
                    policy: sc.policy.label(),
                    scenario: sc,
                    mean_accuracy: 0.0,
                    retrain_rate: 0.0,
                    report: None,
                    error: Some(message),
                },
            };
            done.insert(idx, cell);
        }

        // Logical-plane cell records, emitted from this one thread in
        // global grid order. Every record here is scoped to its cell's
        // fingerprint — a run-level span would duplicate under a shard
        // merge, while per-cell records union back to exactly the serial
        // trace. Counters are safe at run level because merges sum them.
        if ekya_telemetry::enabled() {
            let poisoned = done.values().filter(|c| c.error.is_some()).count();
            for (idx, cell) in &done {
                let _ctx = ekya_telemetry::Ctx::current()
                    .cell(format!("{:016x}", cell.scenario.fingerprint()))
                    .enter();
                ekya_telemetry::span(
                    "bench.grid",
                    "cell",
                    cell.mean_accuracy,
                    &format!("{} retrain_rate={:.6}", cell.scenario.label(), cell.retrain_rate),
                );
                if resumed_idx.binary_search(idx).is_ok() {
                    ekya_telemetry::event("bench.grid", "resumed", "");
                }
                if let Some(err) = &cell.error {
                    ekya_telemetry::event("bench.grid", "poisoned", err);
                }
            }
            ekya_telemetry::counter_add("bench.grid", "cells_ok", (done.len() - poisoned) as u64);
            ekya_telemetry::counter_add("bench.grid", "cells_poisoned", poisoned as u64);
            ekya_telemetry::counter_add("bench.grid", "cells_resumed", resumed as u64);
        }
        let cells: Vec<CellResult> = done.into_values().collect();
        let failed = cells.iter().filter(|c| c.error.is_some()).count();

        GridRun {
            report: HarnessReport {
                name: self.name.clone(),
                total_cells: total,
                shard: self.shard,
                failed,
                cells,
            },
            stats: RunStats {
                workers: self.workers,
                wall_secs,
                cells_per_sec: if wall_secs > 0.0 && executed > 0 {
                    executed as f64 / wall_secs
                } else {
                    0.0
                },
                executed,
                resumed,
            },
        }
    }
}

/// Fans a whole grid out across `workers` threads and collects every
/// cell — the no-shard, no-resume convenience wrapper over [`GridExec`].
pub fn run_grid(grid: &Grid, workers: usize) -> GridRun {
    GridExec::new("grid", workers).run(grid)
}

/// Writes the checkpoint if it is stale: records the current completion
/// count under the state lock, then serializes under the separate IO
/// lock so other cells keep completing while the snapshot hits the
/// disk. The count is monotonic (inserts only), so a writer that waited
/// behind a later completion finds its sequence already covered and
/// skips — queued writers collapse into the newest one, and only the
/// winner pays for the snapshot clone, taken *after* winning so it
/// includes every completion to date.
#[allow(clippy::type_complexity)] // mirrors the ckpt tuple built in run_with
fn flush_checkpoint(
    ckpt: &Option<(&Path, Mutex<BTreeMap<usize, CellResult>>, Mutex<usize>)>,
    envelope: (&str, usize, Option<ShardSpec>),
) {
    let Some((path, state, written)) = ckpt else { return };
    let _ckpt_wall = ekya_telemetry::timing::wall_span("bench.grid", "checkpoint_flush");
    let seq = state.lock().expect("checkpoint state").len();
    let mut written = written.lock().expect("checkpoint io");
    if *written < seq {
        let snapshot = state.lock().expect("checkpoint state").clone();
        *written = snapshot.len();
        write_checkpoint(path, envelope, snapshot);
    }
}

/// Atomically rewrites the checkpoint file with every completed cell so
/// far (in grid order). Failures are swallowed: checkpointing is a
/// best-effort safety net and must never poison the run itself.
fn write_checkpoint(
    path: &Path,
    (name, total_cells, shard): (&str, usize, Option<ShardSpec>),
    done: BTreeMap<usize, CellResult>,
) {
    // The snapshot is owned — move the cells into the report instead of
    // paying a second deep clone per checkpoint.
    let cells: Vec<CellResult> = done.into_values().collect();
    let failed = cells.iter().filter(|c| c.error.is_some()).count();
    let partial = HarnessReport { name: name.to_string(), total_cells, shard, failed, cells };
    let Ok(json) = serde_json::to_string_pretty(&partial) else { return };
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, json).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

// ---------------------------------------------------------------------
// Shard merging + report files
// ---------------------------------------------------------------------

/// Combines per-shard [`HarnessReport`]s into the single report an
/// unsharded run would have written — byte-identical once serialized.
///
/// Rejects, with a descriptive error: an empty input; mismatched grid
/// names or `total_cells` (shards of different grids); an unsharded
/// report mixed into a multi-report merge; overlapping or missing cell
/// ranges; truncated shard reports (see [`coverage_order`]); and shards
/// run under inconsistent knobs (mismatched `EKYA_SEED`/`EKYA_WINDOWS`
/// on one of the machines — detected from the scenarios the cells
/// embed). A single already complete report passes through unchanged.
pub fn merge_reports(reports: &[HarnessReport]) -> Result<HarnessReport, String> {
    let first = reports.first().ok_or("no reports to merge")?;
    if let [only] = reports {
        if only.is_complete() {
            return Ok(only.clone());
        }
        if only.shard.is_none() {
            // e.g. a lone .partial.json checkpoint: never promote a
            // truncated report to the canonical output.
            return Err(format!(
                "report `{}` is unsharded but holds {} of {} cells — \
                 partial or truncated, nothing to merge it with",
                only.name,
                only.cells.len(),
                only.total_cells
            ));
        }
    }
    for r in reports {
        if r.name != first.name || r.total_cells != first.total_cells {
            return Err(format!(
                "cannot merge reports of different grids: `{}` ({} cells) vs `{}` ({} cells)",
                first.name, first.total_cells, r.name, r.total_cells
            ));
        }
    }
    let parts: Vec<(ShardSpec, usize)> = reports
        .iter()
        .map(|r| {
            r.shard
                .map(|s| (s, r.cells.len()))
                .ok_or_else(|| format!("report `{}` is not a shard (already complete)", r.name))
        })
        .collect::<Result<_, _>>()?;
    let order = coverage_order(&parts, first.total_cells)?;

    let mut cells = Vec::with_capacity(first.total_cells);
    for &i in &order {
        cells.extend(reports[i].cells.iter().cloned());
    }

    // Cross-shard knob consistency. Names and ranges tiling is not
    // enough: a machine that ran its shard with a different EKYA_SEED or
    // EKYA_WINDOWS produces a structurally valid but scientifically
    // mixed report. Within one grid every cell shares the windows axis,
    // and the seed is a pure function of (dataset, streams, windows) —
    // so any divergence inside those groups exposes the mix.
    let mut windows_axis: Option<usize> = None;
    let mut seeds: BTreeMap<(&str, usize), u64> = BTreeMap::new();
    for c in &cells {
        let w = windows_axis.get_or_insert(c.scenario.windows);
        if *w != c.scenario.windows {
            return Err(format!(
                "inconsistent shards: cell `{}` ran {} windows while others ran {} — \
                 was EKYA_WINDOWS set differently on one machine?",
                c.scenario.label(),
                c.scenario.windows,
                w
            ));
        }
        let key = (c.scenario.dataset.name(), c.scenario.streams);
        let seed = seeds.entry(key).or_insert(c.scenario.seed);
        if *seed != c.scenario.seed {
            return Err(format!(
                "inconsistent shards: cell `{}` carries seed {} while an identical workload \
                 carries {} — was EKYA_SEED set differently on one machine?",
                c.scenario.label(),
                c.scenario.seed,
                seed
            ));
        }
    }

    Ok(HarnessReport {
        name: first.name.clone(),
        total_cells: first.total_cells,
        shard: None,
        failed: reports.iter().map(|r| r.failed).sum(),
        cells,
    })
}

/// The canonical path of a (possibly sharded) grid bin's report:
/// `results/<name>.json`, with the shard suffix (`_shard0of2`) when
/// sharded — so concurrent shard runs of one bin never clobber each
/// other's output.
pub fn report_path(name: &str, shard: Option<ShardSpec>) -> PathBuf {
    let suffix = shard.map(|s| s.suffix()).unwrap_or_default();
    results_dir().join(format!("{name}{suffix}.json"))
}

/// Resolves the `EKYA_TRACE` knob for the bin named `bin`: `None` when
/// tracing is off; `Some(results/TRACE_<bin><shard_suffix>.jsonl)` for
/// `EKYA_TRACE=1` (suffixed like [`report_path`] so concurrent shard
/// runs never clobber each other's trace); any other value is the trace
/// path verbatim.
pub fn trace_path(bin: &str, shard: Option<ShardSpec>) -> Option<PathBuf> {
    let v = crate::knob::trace()?;
    if v == "1" {
        let suffix = shard.map(|s| s.suffix()).unwrap_or_default();
        Some(results_dir().join(format!("TRACE_{bin}{suffix}.jsonl")))
    } else {
        Some(PathBuf::from(v))
    }
}

/// Reads and parses a [`HarnessReport`] from `path`.
pub fn load_report(path: &Path) -> Result<HarnessReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Loads the prior-cell map for a resume request: the report at `path`
/// if it parses, else the `.partial.json` checkpoint a killed run left
/// behind. A missing or unparseable prior is not an error — the run
/// simply starts fresh (a kill can interrupt the checkpoint write
/// itself, and refusing to run then would defeat resume's purpose).
fn load_prior(final_path: &Path, partial_path: &Path) -> (BTreeMap<u64, CellResult>, String) {
    for path in [final_path, partial_path] {
        match load_report(path) {
            Ok(report) => {
                let prior = report.prior_cells();
                let source = format!("{} ({} usable cells)", path.display(), prior.len());
                return (prior, source);
            }
            Err(_) if !path.exists() => continue,
            Err(e) => eprintln!("[resume: ignoring unusable prior — {e}]"),
        }
    }
    (BTreeMap::new(), "nothing usable — starting fresh".to_string())
}

/// The environment-driven front door for grid bins: applies the
/// `EKYA_SHARD` slice, resumes from a prior report when `EKYA_RESUME` is
/// set, checkpoints every completed cell, saves the final report to
/// [`report_path`], and removes the checkpoint on success.
///
/// Returns the run so the bin can print tables (gated on
/// [`HarnessReport::is_complete`]) and stats.
pub fn run_grid_bin(name: &str, grid: &Grid, knobs: &Knobs) -> GridRun {
    run_grid_bin_with(name, grid, knobs, |sc| run_scenario(sc, grid.holdout_seed(sc.dataset)))
}

/// [`run_grid_bin`] with a custom cell evaluator (see
/// [`GridExec::run_with`]) — the front door for grid bins whose cells
/// are not plain simulations, e.g. fig08's trace replay.
///
/// Also honors `EKYA_ORCH_CRASH_AFTER=n` (fault injection: exit after
/// `n` completed cells), which the `ekya_grid` supervisor sets on
/// a shard's first attempt to prove retry-with-resume converges.
pub fn run_grid_bin_with<F>(name: &str, grid: &Grid, knobs: &Knobs, eval: F) -> GridRun
where
    F: Fn(&Scenario) -> CellResult + Sync,
{
    let shard = knobs.shard;
    let out = report_path(name, shard);
    let partial = out.with_extension("partial.json");

    // Telemetry session for the whole bin run. Grid bins flush once at
    // the end: an injected crash loses the trace but never the cell
    // checkpoint (the serving daemon, by contrast, flushes per window).
    let traced = trace_path(name, shard);
    if let Some(path) = &traced {
        ekya_telemetry::start(Some(path.clone()));
        eprintln!("[{name}: EKYA_TRACE → {}]", path.display());
    }

    let prior = if knobs.resume {
        let (prior, source) = load_prior(&out, &partial);
        eprintln!("[{name}: EKYA_RESUME=1 — prior from {source}]");
        prior
    } else {
        BTreeMap::new()
    };

    let total = grid.cells().len();
    let slice = shard.map_or(0..total, |s| s.range(total));
    eprintln!(
        "[{name}: {total} cells total{}; {} to run across {} workers]",
        shard
            .map(|s| format!("; shard {s} → cells {}..{}", slice.start, slice.end))
            .unwrap_or_default(),
        slice.len(),
        knobs.workers(),
    );

    // The checkpoint lives under results/ — create it *before* the run,
    // or every per-cell checkpoint write on a fresh checkout fails
    // silently and a killed first run has nothing to resume from.
    let _ = std::fs::create_dir_all(results_dir());
    let crash_after = crate::knob::orch_crash_after();
    let run = GridExec::new(name, knobs.workers())
        .shard(shard)
        .prior(prior)
        .checkpoint(Some(partial.clone()))
        .crash_after(crash_after)
        .run_with(grid, eval);

    if run.stats.resumed > 0 {
        eprintln!("[{name}: resumed {} cells, executed {}]", run.stats.resumed, run.stats.executed);
    }
    // Write to the same `out` the resume/checkpoint paths were derived
    // from; remove the checkpoint only once the final report has landed.
    match crate::write_json(&out, &run.report) {
        Ok(()) => {
            println!("\n[results written to {}]", out.display());
            let _ = std::fs::remove_file(&partial);
        }
        Err(e) => eprintln!("failed to save {name}: {e}"),
    }
    if let Some(path) = &traced {
        match ekya_telemetry::flush() {
            Ok(()) => eprintln!("[{name}: trace written to {}]", path.display()),
            Err(e) => eprintln!("[{name}: trace flush failed: {e}]"),
        }
        ekya_telemetry::stop();
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_fall_back_to_defaults() {
        // Not set in the test environment → per-bin defaults apply.
        let knobs = Knobs { workers: 3, ..Knobs::default() };
        assert_eq!(knobs.windows(6), 6);
        assert_eq!(knobs.streams(10), 10);
        assert_eq!(knobs.seed, 42);
        assert!(!knobs.quick);
        assert_eq!(knobs.workers(), 3);
        assert_eq!(knobs.shard, None);
        assert!(!knobs.resume);
    }

    /// A fabricated cell (no simulation) for merge/prior unit tests.
    fn fake_cell(streams: usize, error: Option<&str>) -> CellResult {
        use ekya_baselines::PolicySpec;
        use ekya_video::DatasetKind;
        let scenario = Scenario {
            dataset: DatasetKind::Waymo,
            streams,
            gpus: 1.0,
            windows: 2,
            policy: PolicySpec::Ekya,
            seed: 7,
        };
        CellResult {
            policy: "Ekya".into(),
            scenario,
            mean_accuracy: 0.5,
            retrain_rate: 0.5,
            report: None,
            error: error.map(str::to_string),
        }
    }

    #[test]
    fn prior_cells_skips_poisoned_cells() {
        let report = HarnessReport {
            name: "t".into(),
            total_cells: 2,
            shard: None,
            failed: 1,
            cells: vec![fake_cell(1, None), fake_cell(2, Some("boom"))],
        };
        let prior = report.prior_cells();
        // Only the healthy cell is resumable; the poisoned one re-runs.
        assert_eq!(prior.len(), 1);
        let key = fake_cell(1, None).scenario.fingerprint();
        assert!(prior.contains_key(&key));
    }

    #[test]
    fn merge_rejects_mismatched_grids_and_unsharded_inputs() {
        let shard0 = HarnessReport {
            name: "a".into(),
            total_cells: 2,
            shard: Some(ShardSpec { index: 0, count: 2 }),
            failed: 0,
            cells: vec![fake_cell(1, None)],
        };
        let other_name = HarnessReport { name: "b".into(), ..shard0.clone() };
        let err = merge_reports(&[shard0.clone(), other_name]).unwrap_err();
        assert!(err.contains("different grids"), "{err}");

        let unsharded = HarnessReport { shard: None, ..shard0.clone() };
        let err = merge_reports(&[shard0.clone(), unsharded.clone()]).unwrap_err();
        assert!(err.contains("not a shard"), "{err}");

        // A lone unsharded report must be complete to pass through — a
        // truncated checkpoint is never promoted to canonical output.
        let err = merge_reports(std::slice::from_ref(&unsharded)).unwrap_err();
        assert!(err.contains("partial or truncated"), "{err}");
        let complete = HarnessReport {
            shard: None,
            cells: vec![fake_cell(1, None), fake_cell(2, None)],
            ..shard0.clone()
        };
        assert_eq!(merge_reports(std::slice::from_ref(&complete)).unwrap(), complete);
        assert!(merge_reports(&[]).is_err());
    }

    #[test]
    fn merge_rejects_shards_run_under_different_knobs() {
        let shard = |index, cell: CellResult| HarnessReport {
            name: "t".into(),
            total_cells: 2,
            shard: Some(ShardSpec { index, count: 2 }),
            failed: 0,
            cells: vec![cell],
        };
        // Same workload coordinates, different seed: one machine forgot
        // the EKYA_SEED override.
        let mut reseeded = fake_cell(1, None);
        reseeded.scenario.seed = 99;
        let err = merge_reports(&[shard(0, fake_cell(1, None)), shard(1, reseeded)]).unwrap_err();
        assert!(err.contains("EKYA_SEED"), "{err}");
        // Different windows axis: one machine forgot EKYA_WINDOWS.
        let mut rewindowed = fake_cell(2, None);
        rewindowed.scenario.windows = 9;
        let err = merge_reports(&[shard(0, fake_cell(1, None)), shard(1, rewindowed)]).unwrap_err();
        assert!(err.contains("EKYA_WINDOWS"), "{err}");
        // Consistent shards still merge.
        assert!(
            merge_reports(&[shard(0, fake_cell(1, None)), shard(1, fake_cell(2, None))]).is_ok()
        );
    }

    #[test]
    fn run_parallel_preserves_item_order() {
        let items: Vec<u64> = (0..64).collect();
        for workers in [1, 4] {
            let out = run_parallel(items.clone(), workers, |i, x| x * 2 + i as u64, |_, _| {});
            let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            let expected: Vec<u64> = (0..64).map(|x| x * 3).collect();
            assert_eq!(values, expected, "workers={workers}");
        }
    }

    #[test]
    fn run_parallel_isolates_panics() {
        // `done` sees every item once, the poisoned one included.
        let settled = Mutex::new(Vec::new());
        let out = run_parallel(
            (0..8).collect::<Vec<i32>>(),
            4,
            |_, x| {
                assert!(x != 5, "poisoned cell {x}");
                x + 1
            },
            |i, r| settled.lock().expect("settled").push((i, r.is_ok())),
        );
        let mut settled = settled.into_inner().expect("settled");
        settled.sort_unstable();
        assert_eq!(settled, (0..8).map(|i| (i, i != 5)).collect::<Vec<_>>());
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("poisoned cell 5"), "unexpected message: {msg}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as i32 + 1);
            }
        }
    }

    /// Two items on two workers must run at the same time: each tells
    /// the other it started and waits for the other's word. A pool that
    /// held its queue lock through a cell would run them one after the
    /// other, and the first wait would time out instead of hanging.
    #[test]
    fn run_parallel_runs_items_concurrently() {
        let (to_b, from_a) = std::sync::mpsc::channel::<()>();
        let (to_a, from_b) = std::sync::mpsc::channel::<()>();
        let out = run_parallel(
            vec![(to_b, from_b), (to_a, from_a)],
            2,
            |_, (tx, rx)| {
                let _ = tx.send(());
                rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok()
            },
            |_, _| {},
        );
        assert_eq!(out, vec![Ok(true), Ok(true)], "each item must see the other running");
    }

    #[test]
    fn run_parallel_empty_and_oversubscribed() {
        assert!(run_parallel(Vec::<u8>::new(), 8, |_, x| x, |_, _| {}).is_empty());
        // More workers than items clamps to the item count.
        let out = run_parallel(vec![1, 2], 16, |_, x| x, |_, _| {});
        assert_eq!(out.len(), 2);
    }
}
