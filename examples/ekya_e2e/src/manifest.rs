//! `BENCHMARK.json` as the one place metric names, units, directions and
//! bounds are written down: `run`/`trace` look every emitted metric up in
//! it (an unlisted or missing metric is an error, so code and manifest
//! cannot drift apart) and `compare` takes its bounds from it.

use serde::Value;

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn text(entry: &Value, key: &str) -> Result<String, String> {
    match entry.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: entry without a string `{key}`")),
    }
}

pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        _ => None,
    }
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    let Some(Value::Seq(entries)) = doc.get(key) else {
        return Err(format!("BENCHMARK.json: no `{key}` list"));
    };
    entries
        .iter()
        .map(|e| {
            Ok(MetricDef {
                name: text(e, "name")?,
                unit: text(e, "unit")?,
                higher_is_better: match text(e, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                },
                bound: e.get("bound").and_then(number),
            })
        })
        .collect()
}

/// Reads `BENCHMARK.json` from the working directory — the repo root,
/// which is where the benchmark is run from.
pub fn load() -> Result<Manifest, String> {
    const PATH: &str = "BENCHMARK.json";
    let raw = std::fs::read_to_string(PATH)
        .map_err(|e| format!("cannot read {PATH} (run from the repo root): {e}"))?;
    let doc: Value = serde_json::from_str(&raw).map_err(|e| format!("cannot parse {PATH}: {e}"))?;
    let Some(Value::Seq(workloads)) = doc.get("workloads") else {
        return Err("BENCHMARK.json: no `workloads` list".to_string());
    };
    Ok(Manifest {
        workloads: workloads.iter().map(|w| text(w, "name")).collect::<Result<_, _>>()?,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}
