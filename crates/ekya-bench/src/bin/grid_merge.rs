//! Merges per-shard experiment reports into the single file an unsharded
//! run writes — byte-identical — and verifies shard coverage.
//!
//! Every input is a harness report (`ekya_bench::HarnessReport`) written
//! by a shardable bin (see `ekya_bench::shardable_bins`) under
//! `EKYA_SHARD=i/N`.
//!
//! Merging rejects shards of different grids, overlapping slices (e.g.
//! the same shard passed twice), missing slices, and truncated shard
//! files, each with a message naming the offending cell range.
//!
//! Usage:
//!   grid_merge SHARD.json... [-o OUT.json]     merge shards into OUT
//!                                              (default `results/<name>.json`)
//!   grid_merge --check A.json B.json           byte-compare two reports
//!
//! `--check` is the determinism gate CI uses: after merging the shards of
//! a quick grid it asserts the merged file equals the unsharded run's
//! output byte for byte.
//!
//! Run: `cargo run --release -p ekya-bench --bin grid_merge -- <args>`

use ekya_bench::{load_report, merge_reports, results_dir, write_json};
use std::path::PathBuf;
use std::process::ExitCode;

fn check(a: &PathBuf, b: &PathBuf) -> Result<(), String> {
    let read =
        |p: &PathBuf| std::fs::read(p).map_err(|e| format!("cannot read {}: {e}", p.display()));
    let (bytes_a, bytes_b) = (read(a)?, read(b)?);
    if bytes_a == bytes_b {
        println!("grid_merge: OK — {} ≡ {} ({} bytes)", a.display(), b.display(), bytes_a.len());
        return Ok(());
    }
    // Structural detail when both parse as harness reports: name the
    // first diverging cell instead of just "files differ".
    if let (Ok(ra), Ok(rb)) = (load_report(a), load_report(b)) {
        if ra.cells.len() != rb.cells.len() {
            return Err(format!("cell counts differ: {} vs {}", ra.cells.len(), rb.cells.len()));
        }
        for (i, (ca, cb)) in ra.cells.iter().zip(&rb.cells).enumerate() {
            if ca != cb {
                return Err(format!(
                    "reports diverge at cell {i} ({}): {} vs {}",
                    ca.scenario.label(),
                    ca.mean_accuracy,
                    cb.mean_accuracy
                ));
            }
        }
        return Err("cells agree but report envelopes differ".to_string());
    }
    Err(format!("{} and {} differ", a.display(), b.display()))
}

fn merge(paths: &[PathBuf], out: Option<PathBuf>) -> Result<(), String> {
    let reports = paths.iter().map(|p| load_report(p)).collect::<Result<Vec<_>, _>>()?;
    let merged = merge_reports(&reports)?;
    let path = out.unwrap_or_else(|| results_dir().join(format!("{}.json", merged.name)));
    write_json(&path, &merged)?;
    println!(
        "grid_merge: {} shards → {} cells ({} failed) → {}",
        reports.len(),
        merged.cells.len(),
        merged.failed,
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((flag, rest)) if flag == "--check" => match rest {
            [a, b] => check(&PathBuf::from(a), &PathBuf::from(b)),
            _ => Err("usage: grid_merge --check A.json B.json".into()),
        },
        Some(_) => {
            let mut paths = Vec::new();
            let mut out = None;
            let mut it = args.iter();
            loop {
                match it.next() {
                    None => break,
                    Some(a) if a == "-o" || a == "--out" => match it.next() {
                        Some(p) => out = Some(PathBuf::from(p)),
                        None => {
                            eprintln!("grid_merge: {a} needs a path");
                            return ExitCode::FAILURE;
                        }
                    },
                    Some(p) => paths.push(PathBuf::from(p)),
                }
            }
            merge(&paths, out)
        }
        None => Err("usage: grid_merge SHARD.json... [-o OUT.json] | --check A.json B.json".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("grid_merge: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}
