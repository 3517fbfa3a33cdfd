//! `ekya_e2e` — the repo benchmark. See README.md beside this package.
//!
//! ```text
//! ekya_e2e --workload W --seed S [--seconds N] [--trace 0|1] [--smoke] [--set NAME]
//! ekya_e2e compare A.jsonl B.jsonl
//! ```
//!
//! `--trace 0` (a "run") measures the end-to-end metrics with every kind
//! of tracing off; `--trace 1` (a "trace") re-runs the workload under the
//! benchmark's span recorder and the program's telemetry, replays every
//! layer from outside, and reports the per-layer metrics and the budget.
//! The last line of standard output is the result object the driver reads.

mod compare;
mod layers;
mod manifest;
mod spans;
mod stats;
mod workloads;

use layers::{Replay, ReplaySizes};
use manifest::{Manifest, MetricDef};
use serde::{Serialize, Value};
use stats::{median, percentile};
use std::collections::BTreeMap;
use workloads::{Meter, Outcome, Sizes, Workload};

const RESULTS_DIR: &str = "results/e2e";
/// Share of `--seconds` the traced pass covers (it also has to pay for
/// the layer replay inside the same time cap).
const TRACE_FRACTION: f64 = 0.5;

struct Options {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    set: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: ekya_e2e --workload W --seed S [--seconds N] [--trace 0|1] [--smoke] \
         [--set NAME]\n       ekya_e2e compare A.jsonl B.jsonl"
    );
    std::process::exit(2)
}

fn parse(args: &[String]) -> Options {
    let mut o = Options {
        workload: String::new(),
        seed: 0,
        seconds: None,
        trace: false,
        smoke: false,
        set: "runs".to_string(),
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => o.workload = value(),
            "--seed" => seed = value().parse().ok(),
            "--seconds" => o.seconds = value().parse().ok().filter(|s: &f64| *s > 0.0),
            "--trace" => {
                o.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => o.smoke = true,
            "--set" => o.set = value(),
            _ => usage(),
        }
    }
    // Results are written only under results/e2e/: the set is a file stem.
    let stem_ok = !o.set.is_empty()
        && o.set.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    match seed {
        Some(seed) if !o.workload.is_empty() && stem_ok => o.seed = seed,
        _ => usage(),
    }
    o
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The three timing metrics are quiet-host figures — the fastest of the
/// identical set-ups, and the quiet cycle (see `Meter::quiet_cycle_ms`).
fn end_to_end(m: &mut Meter, out: &Outcome) -> BTreeMap<&'static str, f64> {
    let quiet = m.quiet_cycle_ms();
    let items_per_cycle = m.cycles.first().map_or(0, |c| c.items) as f64;
    let peak_rss = stats::peak_rss_mb().unwrap_or_else(|| {
        m.violation("VmHWM not reported by /proc/self/status".to_string());
        0.0
    });
    BTreeMap::from([
        ("setup_s", m.setups_s.iter().copied().fold(f64::INFINITY, f64::min)),
        ("items_per_s", ratio(items_per_cycle, quiet.iter().sum::<f64>() / 1e3)),
        ("op_p50_ms", median(&quiet)),
        ("mean_accuracy", out.mean_accuracy),
        ("peak_rss_mb", peak_rss),
    ])
}

/// The layers a budget can attribute op time to, as their metric names.
const BUDGET: [&str; 8] = [
    "budget.nn_pct",
    "budget.actors_pct",
    "budget.microprofile_pct",
    "budget.thief_schedule_pct",
    "budget.trainer_pct",
    "budget.sim_pct",
    "budget.harness_pct",
    "budget.residual_pct",
];

/// Attributes the mean op time of the telemetry-off cycles to layers:
/// unit costs from the replay times the work one op holds, the trainer's
/// share from the program's own wall sidecar. Returns (budget metric, ms)
/// rows that sum to `op_ms`, the residual last.
fn budget(
    workload: Workload,
    op_ms: f64,
    m: &Meter,
    sz: &Sizes,
    layer: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64)> {
    use workloads::{GRID_WORKERS, INFER_SHARDS, PLANNER_WORKERS};
    let train_wait_share = ratio(m.telemetry.train_wait_ns as f64, m.telemetry.window_ns as f64);
    let window = |streams: usize, profile: &str, thief: &str| {
        vec![
            ("budget.microprofile_pct", streams as f64 * layer[profile] / PLANNER_WORKERS as f64),
            ("budget.thief_schedule_pct", layer[thief]),
            ("budget.trainer_pct", train_wait_share * op_ms),
        ]
    };
    let mut rows = match workload {
        Workload::ServeSteady => {
            let batch = ekya::server::ServeConfig::quick(2.0).batch_size;
            let frames = (sz.serve_streams * batch) as f64;
            let mailbox_us = INFER_SHARDS as f64 * layer["actors.ask_deferred.rtt_p50_us"];
            vec![
                ("budget.nn_pct", frames * layer["nn.predict_into.ns_per_frame"] / 1e6),
                ("budget.actors_pct", mailbox_us / 1e3),
            ]
        }
        Workload::RetrainWindow => window(
            sz.retrain_streams,
            "core.microprofile.ms_per_stream",
            "core.thief_schedule.paper_ms_n16",
        ),
        Workload::FleetPlan => window(
            sz.fleet_streams,
            "core.microprofile.quick_ms_per_stream",
            "core.thief_schedule.ms_n200",
        ),
        Workload::GridFig06 => {
            let grid = ekya_bench::fig06_grid(sz.grid_quick, sz.grid_windows, 0);
            let cells = grid.cells().len() as f64;
            let ekya_cells = cells / grid.policies.len() as f64;
            let sim_ms = ekya_cells * layer["sim.run_scenario.ekya_ms_per_cell"]
                + (cells - ekya_cells) * layer["sim.run_scenario.uniform_ms_per_cell"];
            vec![
                ("budget.sim_pct", sim_ms / GRID_WORKERS as f64),
                ("budget.harness_pct", cells * layer["harness.dispatch_us_per_cell"] / 1e3),
            ]
        }
    };
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("budget.residual_pct", op_ms - attributed));
    rows
}

fn per_layer(
    workload: Workload,
    m: &Meter,
    out: &Outcome,
    sz: &Sizes,
    mut layer: BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let secs = |telemetry: bool| -> f64 {
        m.cycles.iter().filter(|c| c.telemetry == telemetry).map(|c| c.secs()).sum()
    };
    let plain_ops: Vec<f64> = m.plain_cycles().flat_map(|c| c.ops_ms.iter().copied()).collect();
    let t = &m.telemetry;
    // Phase A fans out over the planner workers, so its wall share is the
    // chunks' summed time over the worker count.
    let phase_a_ns = t.phase_a_chunk_ns as f64 / workloads::PLANNER_WORKERS as f64;
    layer.extend([
        ("op.p99_ms", percentile(&plain_ops, 99.0)),
        ("telemetry.overhead_pct", 100.0 * ratio(secs(true) - secs(false), secs(false))),
        ("telemetry.render_ms", median(&t.render_ms)),
        ("telemetry.records", t.records.unwrap_or(0) as f64),
        ("server.window.phase_a_share", ratio(phase_a_ns, t.window_ns as f64)),
        ("server.window.train_wait_share", ratio(t.train_wait_ns as f64, t.window_ns as f64)),
        (
            "server.window.live_frames_per_train_s",
            ratio(t.live_frames as f64, t.train_wait_ns as f64 / 1e9),
        ),
        ("server.window.retrains", out.retrains as f64),
        ("server.window.swaps", out.swaps as f64),
        ("server.window.retrains_failed", out.retrains_failed as f64),
        ("sim.accuracy_gain_vs_uniform", out.gain_vs_uniform),
    ]);

    let op_ms = ratio(plain_ops.iter().sum(), plain_ops.len() as f64);
    let rows = budget(workload, op_ms, m, sz, &layer);
    println!("\nbudget of one op ({op_ms:.3} ms, mean over the telemetry-off cycles):");
    layer.extend(BUDGET.map(|key| (key, 0.0)));
    for (key, ms) in rows {
        let name = key.trim_start_matches("budget.").trim_end_matches("_pct");
        println!("  {name:<16} {ms:>12.3} ms {:>7.1} %", 100.0 * ratio(ms, op_ms));
        layer.insert(key, 100.0 * ratio(ms, op_ms));
    }
    layer
}

/// Pairs every metric the manifest lists with the measured value; a
/// metric on one side only means code and BENCHMARK.json have drifted.
fn resolve<'a>(
    defs: &'a [MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'a MetricDef, f64)>, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("metric `{extra}` is measured but not listed in BENCHMARK.json"));
    }
    defs.iter()
        .map(|d| match values.get(d.name.as_str()) {
            Some(v) if v.is_finite() => Ok((d, *v)),
            Some(v) => Err(format!("metric `{}` is {v}", d.name)),
            None => {
                Err(format!("metric `{}` is listed in BENCHMARK.json but not measured", d.name))
            }
        })
        .collect()
}

/// Appends the run's record to `results/e2e/<set>.jsonl` and, for a
/// trace, writes its spans beside it — the only files a run writes.
fn save(o: &Options, record: &Value, spans: Option<String>) -> Result<(), String> {
    use std::io::Write;
    std::fs::create_dir_all(RESULTS_DIR)
        .map_err(|e| format!("cannot create {RESULTS_DIR}: {e}"))?;
    if let Some(spans) = spans {
        let path = format!("{RESULTS_DIR}/{}.spans.json", o.workload);
        std::fs::write(&path, spans).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let line = serde_json::to_string(record).map_err(|e| e.to_string())? + "\n";
    let path = format!("{RESULTS_DIR}/{}.jsonl", o.set);
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| file.write_all(line.as_bytes()))
        .map_err(|e| format!("cannot append to {path}: {e}"))
}

fn run(o: &Options, manifest: &Manifest) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a build with debug assertions; build with --release".into()
        );
    }
    // The benchmark configures the program only through values it passes;
    // no EKYA_* knob of the caller's environment may leak into a run.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EKYA_") {
            std::env::remove_var(key);
        }
    }
    let workload = Workload::parse(&o.workload)
        .filter(|_| manifest.workloads.contains(&o.workload))
        .ok_or_else(|| {
            format!("unknown workload `{}` (known: {})", o.workload, manifest.workloads.join(", "))
        })?;
    let seconds = o.seconds.unwrap_or(if o.smoke { 0.5 } else { 10.0 });
    let (sizes, replay_sizes) = if o.smoke {
        (Sizes::smoke(), ReplaySizes::smoke())
    } else {
        (Sizes::full(), ReplaySizes::full())
    };

    let spin_before = stats::spin_ms();
    let mut m = Meter::new(o.trace, if o.trace { seconds * TRACE_FRACTION } else { seconds });
    let out = workload.run(&mut m, o.seed, &sizes);
    let spin_after = stats::spin_ms();

    let (defs, values) = if o.trace {
        let (mut layer, violations) = Replay::run(&mut m.spans, o.seed, &replay_sizes, &sizes);
        m.violations.extend(violations);
        layer.extend([("host.spin_before_ms", spin_before), ("host.spin_after_ms", spin_after)]);
        println!("\nspans by name (self = total minus child spans):");
        for t in m.spans.totals() {
            println!(
                "  {:<28} {:>7} calls {:>12.3} ms total {:>12.3} ms self",
                t.name, t.calls, t.total_ms, t.self_ms
            );
        }
        (&manifest.per_layer, per_layer(workload, &m, &out, &sizes, layer))
    } else {
        (&manifest.end_to_end, end_to_end(&mut m, &out))
    };
    let resolved = resolve(defs, &values)?;

    for v in &m.violations {
        eprintln!("output check failed: {v}");
    }
    let correct = m.violations.is_empty();
    println!(
        "\n{} seed {} ({}{}): {} cycles, {} ops, {} of {} items failed, outputs {}",
        o.workload,
        o.seed,
        if o.trace { "trace" } else { "run" },
        if o.smoke { ", smoke scale: not comparable" } else { "" },
        m.cycles.len(),
        m.cycles.iter().map(|c| c.ops_ms.len()).sum::<usize>(),
        m.failed,
        m.attempted,
        if correct { "correct" } else { "WRONG" },
    );
    for (d, v) in &resolved {
        println!("  {:<40} {v:>16.6} {}", d.name, d.unit);
    }

    let per_cycle: Vec<f64> = m.cycles.iter().map(|c| ratio(c.items as f64, c.secs())).collect();
    let all_ops: Vec<f64> = m.cycles.iter().flat_map(|c| c.ops_ms.iter().copied()).collect();
    let record = map(vec![
        ("workload", o.workload.to_value()),
        ("seed", o.seed.to_value()),
        ("trace", o.trace.to_value()),
        ("comparable", (!o.smoke).to_value()),
        ("seconds", seconds.to_value()),
        ("hw_threads", stats::hw_threads().to_value()),
        ("shape", workloads::shape().to_value()),
        ("git", git_describe().to_value()),
        ("correct", correct.to_value()),
        ("attempted", m.attempted.to_value()),
        ("failed", m.failed.to_value()),
        ("cycle_secs", m.cycles.iter().map(|c| c.secs()).collect::<Vec<_>>().to_value()),
        // What the quiet-cycle estimator filtered out: the three timing
        // metrics as plain medians over every cycle and op.
        ("median_setup_s", median(&m.setups_s).to_value()),
        ("median_items_per_s", median(&per_cycle).to_value()),
        ("median_op_ms", median(&all_ops).to_value()),
        ("spin_before_ms", spin_before.to_value()),
        ("spin_after_ms", spin_after.to_value()),
        (
            "metrics",
            Value::Map(resolved.iter().map(|(d, v)| (d.name.clone(), v.to_value())).collect()),
        ),
    ]);
    save(o, &record, o.trace.then(|| m.spans.to_json()))?;

    let metrics = resolved
        .iter()
        .map(|(d, v)| {
            (d.name.clone(), map(vec![("value", v.to_value()), ("unit", d.unit.to_value())]))
        })
        .collect();
    let result = map(vec![
        ("correct", correct.to_value()),
        ("attempted", m.attempted.to_value()),
        ("failed", m.failed.to_value()),
        ("metrics", Value::Map(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare::run(&args[1..])
    } else {
        let o = parse(&args);
        manifest::load().and_then(|manifest| run(&o, &manifest))
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ekya_e2e: {e}");
            std::process::exit(2);
        }
    }
}
