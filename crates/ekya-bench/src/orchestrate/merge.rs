//! The merge driver: recombine shard reports in-process into the file an
//! unsharded run writes, fingerprint it, and optionally verify it against
//! a reference — run by the supervisor once every shard reports complete,
//! and by `ekya_grid merge` over shard files collected by hand. A
//! supervised run then promotes the result into the canonical `results/`
//! directory.

use super::plan::Plan;
use crate::{fnv1a, load_report, merge_reports, results_dir, write_json, HarnessReport};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The outcome of a successful merge, recorded in `status.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergedInfo {
    /// The merged whole-grid report.
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

/// Merges the shard reports at `shards` with [`merge_reports`] into `out`
/// (default `results/<name>.json`) and verifies the result byte-for-byte
/// against `verify_against` when given.
///
/// All the structural safety nets of the merger apply:
/// overlapping/missing/truncated slices and knob-inconsistent shards are
/// rejected with the offending range named. A failed verification names
/// the first diverging cell.
pub fn merge_run(
    shards: &[PathBuf],
    out: Option<&Path>,
    verify_against: Option<&Path>,
) -> Result<MergedInfo, String> {
    let reports = shards.iter().map(|p| load_report(p)).collect::<Result<Vec<_>, _>>()?;
    let merged = merge_reports(&reports)?;
    let out =
        out.map_or_else(|| results_dir().join(format!("{}.json", merged.name)), Path::to_path_buf);
    write_json(&out, &merged)?;

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
                     (merged fingerprint {fingerprint}, reference {:016x}) — {}; \
                     mismatched knobs or a determinism regression",
                    out.display(),
                    reference.display(),
                    fnv1a(&expect),
                    divergence(&merged, reference)
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

/// Where `merged` departs from the reference report at `reference`: the
/// first diverging cell when the reference parses as a harness report.
fn divergence(merged: &HarnessReport, reference: &Path) -> String {
    let expect = match load_report(reference) {
        Ok(expect) => expect,
        Err(e) => return format!("the reference is not a harness report ({e})"),
    };
    if merged.cells.len() != expect.cells.len() {
        return format!("cell counts differ: {} vs {}", merged.cells.len(), expect.cells.len());
    }
    match merged.cells.iter().zip(&expect.cells).enumerate().find(|(_, (a, b))| a != b) {
        Some((i, (a, b))) => format!(
            "reports diverge at cell {i} ({}): {} vs {}",
            a.scenario.label(),
            a.mean_accuracy,
            b.mean_accuracy
        ),
        None => "cells agree but report envelopes differ".to_string(),
    }
}

/// Copies the merged report to the canonical `results/<bin>.json` — the
/// file an unsharded foreground run writes — and returns that path.
pub(crate) fn promote(plan: &Plan, run_dir: &Path) -> Result<PathBuf, String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let dst = dir.join(format!("{}.json", plan.bin));
    std::fs::copy(plan.merged_path(run_dir), &dst)
        .map_err(|e| format!("cannot promote merged report to {}: {e}", dst.display()))?;
    Ok(dst)
}
