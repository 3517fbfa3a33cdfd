//! Renders `ekya-telemetry` logical-plane traces (the JSONL files
//! written when `EKYA_TRACE` is set — see the operator guide's
//! "Observability" section).
//!
//! Usage:
//!   ekya_trace summary  [trace.jsonl...]     per-span aggregate table
//!                                            (p50/p95 from hist buckets)
//!   ekya_trace timeline [trace.jsonl...]     ASCII lanes per window
//!   ekya_trace export --chrome <trace.jsonl> [out.json]
//!                                            Chrome trace-event JSON
//!                                            (chrome://tracing, Perfetto)
//!   ekya_trace merge <out.jsonl> <in.jsonl>...
//!                                            shard-merge traces (the
//!                                            trace analogue of
//!                                            `ekya_grid merge`)
//!   ekya_trace validate <trace.jsonl...>     schema + canonical-order check
//!
//! With no file arguments, `summary`/`timeline`/`validate` operate on
//! every `results/TRACE_*.jsonl` present. Multiple inputs to `summary`
//! or `timeline` are shard-merged first, so a sharded run can be viewed
//! as the single trace its serial run would have produced.
//!
//! Run: `cargo run --release -p ekya-bench --bin ekya_trace -- summary`

use ekya_bench::{results_dir, Table};
use ekya_telemetry::{
    chrome_trace, merge_traces, parse_trace, summarize, timeline, validate_trace,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: ekya_trace <summary|timeline|validate> [trace.jsonl...]\n       \
                     ekya_trace export --chrome <trace.jsonl> [out.json]\n       \
                     ekya_trace merge <out.jsonl> <in.jsonl>...";

/// The file arguments, or every `results/TRACE_*.jsonl` when none given.
fn inputs(args: &[String]) -> Result<Vec<PathBuf>, String> {
    if !args.is_empty() {
        return Ok(args.iter().map(PathBuf::from).collect());
    }
    let dir = results_dir();
    let mut found: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot scan {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("TRACE_") && n.ends_with(".jsonl"))
        })
        .collect();
    found.sort();
    if found.is_empty() {
        return Err(format!(
            "no trace files given and no {}/TRACE_*.jsonl found — \
             run a bin with EKYA_TRACE=1 first",
            dir.display()
        ));
    }
    Ok(found)
}

/// Reads the given traces and shard-merges them into one canonical text.
fn load_merged(paths: &[PathBuf]) -> Result<String, String> {
    let texts: Vec<String> = paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        })
        .collect::<Result<_, _>>()?;
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    merge_traces(&refs)
}

fn run_summary(paths: &[PathBuf]) -> Result<(), String> {
    let records = parse_trace(&load_merged(paths)?)?;
    let mut table = Table::new(
        format!("trace summary ({} records)", records.len()),
        &["layer", "name", "kind", "count", "total", "p50", "p95"],
    );
    for row in summarize(&records) {
        table.row(vec![
            row.layer,
            row.name,
            row.kind.clone(),
            row.count.to_string(),
            if row.kind == "span" { format!("{:.4}", row.total_value) } else { "-".into() },
            if row.kind == "hist" { format!("{:.6}", row.p50) } else { "-".into() },
            if row.kind == "hist" { format!("{:.6}", row.p95) } else { "-".into() },
        ]);
    }
    table.print();
    Ok(())
}

fn run_timeline(paths: &[PathBuf]) -> Result<(), String> {
    let records = parse_trace(&load_merged(paths)?)?;
    print!("{}", timeline(&records));
    Ok(())
}

fn run_validate(paths: &[PathBuf]) -> Result<(), String> {
    let mut bad = 0usize;
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let problems = validate_trace(&text);
        if problems.is_empty() {
            let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
            println!("{}: ok ({lines} records, canonical order)", path.display());
        } else {
            bad += 1;
            println!("{}: INVALID", path.display());
            for p in &problems {
                println!("  - {p}");
            }
        }
    }
    if bad > 0 {
        return Err(format!("{bad} trace file(s) failed validation"));
    }
    Ok(())
}

fn run_export(args: &[String]) -> Result<(), String> {
    let (flag, rest) = args.split_first().ok_or(USAGE.to_string())?;
    if flag != "--chrome" {
        return Err(format!("unknown export format `{flag}` (only --chrome is supported)"));
    }
    let (input, rest) = rest.split_first().ok_or(USAGE.to_string())?;
    let input = PathBuf::from(input);
    let out = match rest {
        [] => input.with_extension("chrome.json"),
        [path] => PathBuf::from(path),
        _ => return Err(USAGE.to_string()),
    };
    let text = std::fs::read_to_string(&input)
        .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    let records = parse_trace(&text)?;
    std::fs::write(&out, chrome_trace(&records))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "exported {} records → {} (open in chrome://tracing or ui.perfetto.dev)",
        records.len(),
        out.display()
    );
    Ok(())
}

fn run_merge(args: &[String]) -> Result<(), String> {
    let (out, ins) = args.split_first().ok_or(USAGE.to_string())?;
    if ins.is_empty() {
        return Err(USAGE.to_string());
    }
    let paths: Vec<PathBuf> = ins.iter().map(PathBuf::from).collect();
    let merged = load_merged(&paths)?;
    let out = Path::new(out);
    std::fs::write(out, &merged).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "merged {} trace(s) → {} ({} records)",
        paths.len(),
        out.display(),
        merged.lines().count()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "summary" => inputs(rest).and_then(|paths| run_summary(&paths)),
        "timeline" => inputs(rest).and_then(|paths| run_timeline(&paths)),
        "validate" => inputs(rest).and_then(|paths| run_validate(&paths)),
        "export" => run_export(rest),
        "merge" => run_merge(rest),
        _ => Err(format!("unknown subcommand `{cmd}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ekya_trace: {e}");
            ExitCode::FAILURE
        }
    }
}
