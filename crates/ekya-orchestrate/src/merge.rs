//! The merge driver: once every shard reports complete, recombine the
//! shard reports in-process into the file an unsharded run writes,
//! fingerprint it, optionally verify it against a reference, and promote
//! it into the canonical `results/` directory.

use crate::plan::Plan;
use ekya_bench::{fnv1a, load_report, merge_reports, results_dir, write_json, HarnessReport};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The outcome of a successful merge, recorded in `status.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergedInfo {
    /// The merged whole-grid report inside the run directory.
    pub path: String,
    /// FNV-1a fingerprint (hex) of the merged file's bytes — two runs of
    /// the same grid under the same knobs must produce the same value,
    /// so fingerprints are comparable across machines without shipping
    /// the reports themselves.
    pub fingerprint: String,
    /// The reference report the merge was verified byte-identical
    /// against, when one was supplied.
    pub verified_against: Option<String>,
    /// Where the merged report was promoted to (`results/<bin>.json`),
    /// when promotion ran.
    pub promoted_to: Option<String>,
}

/// Merges the run's shard reports into `<run_dir>/<bin>.json` with
/// [`merge_reports`] and verifies the result byte-for-byte against
/// `verify_against` when given.
///
/// All the structural safety nets of the merger apply:
/// overlapping/missing/truncated slices and knob-inconsistent shards are
/// rejected with the offending range named.
pub fn merge_run(
    plan: &Plan,
    run_dir: &Path,
    verify_against: Option<&Path>,
) -> Result<MergedInfo, String> {
    let out = plan.merged_path(run_dir);
    let reports: Vec<HarnessReport> = (0..plan.shards.len())
        .map(|i| load_report(&plan.shard_report_path(run_dir, i)))
        .collect::<Result<_, _>>()?;
    write_json(&out, &merge_reports(&reports)?)?;

    let bytes =
        std::fs::read(&out).map_err(|e| format!("cannot re-read {}: {e}", out.display()))?;
    let fingerprint = format!("{:016x}", fnv1a(&bytes));
    let verified_against = match verify_against {
        Some(reference) => {
            let expect = std::fs::read(reference)
                .map_err(|e| format!("cannot read reference {}: {e}", reference.display()))?;
            if expect != bytes {
                return Err(format!(
                    "merged report {} is NOT byte-identical to the reference {} \
                     (merged fingerprint {fingerprint}, reference {:016x}) — \
                     mismatched knobs or a determinism regression",
                    out.display(),
                    reference.display(),
                    fnv1a(&expect)
                ));
            }
            Some(reference.display().to_string())
        }
        None => None,
    };

    Ok(MergedInfo {
        path: out.display().to_string(),
        fingerprint,
        verified_against,
        promoted_to: None,
    })
}

/// Copies the merged report to the canonical `results/<bin>.json` — the
/// file an unsharded foreground run writes — and returns that path.
pub fn promote(plan: &Plan, run_dir: &Path) -> Result<PathBuf, String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let dst = dir.join(format!("{}.json", plan.bin));
    std::fs::copy(plan.merged_path(run_dir), &dst)
        .map_err(|e| format!("cannot promote merged report to {}: {e}", dst.display()))?;
    Ok(dst)
}
