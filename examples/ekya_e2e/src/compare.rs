//! `compare A.jsonl B.jsonl`: one row per (end-to-end metric, workload)
//! with the bounds `BENCHMARK.json` fixes. A is the parent (or the first
//! set of runs), B the change (or the second set). Exit status is
//! non-zero when any row reads `worse`.

use crate::manifest::{self, number, MetricDef};
use crate::stats::{median, spread};
use serde::Value;
use std::collections::BTreeMap;

/// One run of a result set: its seed, sentinel reading and metrics.
struct Run {
    seed: u64,
    /// The worse of the spin readings before and after the timed region.
    spin_ms: f64,
    metrics: BTreeMap<String, f64>,
}

/// The comparable `--trace 0` runs of a set, by workload.
fn load(path: &str) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut set: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    let mut skipped = 0;
    for (n, line) in raw.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = || format!("{path}:{}: not a result record", n + 1);
        let doc: Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let flag = |key: &str| matches!(doc.get(key), Some(Value::Bool(true)));
        if flag("trace") || !flag("comparable") {
            skipped += 1;
            continue;
        }
        let Some(Value::Str(workload)) = doc.get("workload") else { return Err(bad()) };
        let Some(Value::Map(metrics)) = doc.get("metrics") else { return Err(bad()) };
        let field = |key: &str| doc.get(key).and_then(number).ok_or_else(bad);
        set.entry(workload.clone()).or_default().push(Run {
            seed: field("seed")? as u64,
            spin_ms: field("spin_before_ms")?.max(field("spin_after_ms")?),
            metrics: metrics.iter().filter_map(|(k, v)| Some((k.clone(), number(v)?))).collect(),
        });
    }
    if skipped > 0 {
        eprintln!("{path}: skipped {skipped} trace or smoke-scale records");
    }
    Ok(set)
}

fn host_sensitive(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns" | "1/s")
}

/// How much worse B's median is than A's, as a share of A's (negative
/// when better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

fn verdict(def: &MetricDef, a: &[Run], b: &[Run]) -> (String, &'static str) {
    let values = |runs: &[Run]| -> Vec<f64> {
        runs.iter().filter_map(|r| r.metrics.get(&def.name).copied()).collect()
    };
    let (va, vb) = (values(a), values(b));
    if va.is_empty() || vb.is_empty() {
        return (format!("{:>14} {:>14}", va.len(), vb.len()), "missing");
    }
    let bound = def.bound.unwrap_or(0.0);
    let (ma, mb) = (median(&va), median(&vb));
    let (sa, sb) = (spread(&va), spread(&vb));
    let worse_by = worsening(def, ma, mb);
    let cells = format!(
        "{ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.2}% {:>6.2}%",
        100.0 * if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() },
        100.0 * sa,
        100.0 * sb
    );

    // A metric that is a pure function of the seed must repeat exactly on
    // every seed both sets ran.
    let by_seed = |runs: &[Run]| -> BTreeMap<u64, f64> {
        runs.iter().filter_map(|r| Some((r.seed, *r.metrics.get(&def.name)?))).collect()
    };
    let (seeds_a, seeds_b) = (by_seed(a), by_seed(b));
    let shared: Vec<_> = seeds_a.iter().filter_map(|(s, v)| Some((v, seeds_b.get(s)?))).collect();
    if !host_sensitive(&def.unit) && !shared.is_empty() && shared.iter().all(|(x, y)| x == y) {
        return (cells, "same (bit-equal per seed)");
    }

    let spin = |runs: &[Run]| median(&runs.iter().map(|r| r.spin_ms).collect::<Vec<_>>());
    let (spin_a, spin_b) = (spin(a), spin(b));
    let host_differs =
        host_sensitive(&def.unit) && (spin_a - spin_b).abs() > bound * spin_a.min(spin_b);
    let every_b_better = vb.iter().all(|&y| va.iter().all(|&x| worsening(def, x, y) < 0.0));
    let word = if sa.max(sb) > bound {
        if every_b_better {
            "better"
        } else {
            "unresolved (spread wider than bound)"
        }
    } else if worse_by > bound {
        if host_differs {
            "unresolved (host sentinels differ)"
        } else {
            "worse"
        }
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    };
    (cells, word)
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result sets: compare A.jsonl B.jsonl".to_string());
    };
    let manifest = manifest::load()?;
    let (set_a, set_b) = (load(a)?, load(b)?);

    println!(
        "{:<15} {:<14} {:<5} {:>5} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "unit", "bound", "A median", "B median", "change", "A iqr", "B iqr"
    );
    let mut any_worse = false;
    let none = Vec::new();
    for workload in &manifest.workloads {
        let (runs_a, runs_b) =
            (set_a.get(workload).unwrap_or(&none), set_b.get(workload).unwrap_or(&none));
        for def in &manifest.end_to_end {
            let (cells, word) = verdict(def, runs_a, runs_b);
            any_worse |= word == "worse";
            println!(
                "{workload:<15} {:<14} {:<5} {:>4.0}% {cells}  {word}",
                def.name,
                def.unit,
                100.0 * def.bound.unwrap_or(0.0)
            );
        }
    }
    Ok(!any_worse)
}
