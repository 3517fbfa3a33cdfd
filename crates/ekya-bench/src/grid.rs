//! Declarative scenario grids and their partitioning into shards.
//!
//! The paper's headline results are grids of independent simulation
//! cells — (dataset × streams × GPUs × policy × seed). [`Grid`] is the
//! declarative form of such a sweep; [`Grid::cells`] enumerates it into
//! [`Scenario`] cells that the harness fans out across a worker pool,
//! one cell per task.
//!
//! Seeding is deterministic and order-free: each cell's RNG seed is
//! `base_seed ^ fnv1a(workload identity)`, a pure function of the cell
//! itself, so a cell computes identical numbers whether it runs first on
//! one thread or last on sixteen. The hash covers the *workload*
//! coordinates (dataset, stream count, window count) and deliberately
//! excludes the policy and the GPU budget: every scheduler variant at
//! every provisioning level is evaluated on byte-identical video streams,
//! which is what makes the grid's columns comparable (§6.1 evaluates all
//! schedulers on the same traces).
//!
//! Because every cell is a pure function of itself, a grid also splits
//! across *processes and machines*: [`ShardSpec`] (env `EKYA_SHARD=i/N`)
//! names one contiguous slice of the flattened cell range, shard outputs
//! are disjoint, and their merged union is byte-identical to a
//! single-process run (see `ekya_bench::harness::merge_reports`).

use ekya_baselines::{standard_policies, PolicySpec};
use ekya_video::DatasetKind;
use serde::{Deserialize, Serialize};

/// One cell of an experiment grid: a fully-specified simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Workload dataset.
    pub dataset: DatasetKind,
    /// Number of concurrent video streams.
    pub streams: usize,
    /// Provisioned GPUs.
    pub gpus: f64,
    /// Retraining windows to simulate.
    pub windows: usize,
    /// Which scheduler runs the cell.
    pub policy: PolicySpec,
    /// Effective RNG seed (already mixed: `base_seed ^ hash(workload)`).
    pub seed: u64,
}

impl Scenario {
    /// Human-readable cell label for logs and progress lines.
    pub fn label(&self) -> String {
        format!(
            "{} ×{} @{}gpu · {}",
            self.dataset.name(),
            self.streams,
            self.gpus,
            self.policy.label()
        )
    }

    /// Stable identity hash of the complete cell — every workload
    /// coordinate, the policy, and the (already mixed) seed.
    ///
    /// This is the key of the resume layer: a `CellResult` saved by a
    /// previous run is reused if and only if its scenario's fingerprint
    /// matches a cell of the current grid, so editing any axis of the
    /// grid (or the base seed) automatically invalidates exactly the
    /// cells it changes. Computed over the `Debug` rendering, which is a
    /// complete, stable dump of this plain-data struct.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }
}

/// One shard of a partitioned grid run: shard `index` of `count`, parsed
/// from the `EKYA_SHARD=i/N` environment knob.
///
/// A shard owns one contiguous, balanced slice of the flattened cell
/// range ([`ShardSpec::range`]). Slices of the `N` shards of a grid are
/// disjoint and their union is the whole range, so `N` shard runs on `N`
/// machines produce together exactly the cells of one unsharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: usize,
    /// Total number of shards the grid is split into.
    pub count: usize,
}

impl ShardSpec {
    /// Parses the `EKYA_SHARD` syntax `"i/N"` (e.g. `"0/4"`), rejecting
    /// `N == 0` and `i >= N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let err = || format!("invalid shard spec `{s}` (expected `i/N` with 0 <= i < N)");
        let (index, count) = s.split_once('/').ok_or_else(err)?;
        let index: usize = index.trim().parse().map_err(|_| err())?;
        let count: usize = count.trim().parse().map_err(|_| err())?;
        if count == 0 || index >= count {
            return Err(err());
        }
        Ok(Self { index, count })
    }

    /// This shard's contiguous slice of a flattened range of `total`
    /// cells: `[index*total/count, (index+1)*total/count)`. Balanced to
    /// within one cell; the slices of all `count` shards partition
    /// `0..total` exactly.
    pub fn range(&self, total: usize) -> std::ops::Range<usize> {
        (self.index * total / self.count)..((self.index + 1) * total / self.count)
    }

    /// File-name suffix distinguishing this shard's report
    /// (e.g. `"_shard0of4"`); empty-suffix (unsharded) reports use the
    /// bare bin name.
    pub fn suffix(&self) -> String {
        format!("_shard{}of{}", self.index, self.count)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Validates that `parts` — `(shard, cells_in_report)` pairs — cover the
/// flattened range `0..total` exactly once, and returns the indices of
/// `parts` in range order (the order in which their cells concatenate
/// into the unsharded enumeration).
///
/// Rejects, with a descriptive message: a report whose cell count does
/// not match its declared slice, overlapping slices (e.g. the same shard
/// merged twice), and gaps (a missing shard). Mixed shard *counts* are
/// fine as long as the slices tile the range.
pub fn coverage_order(parts: &[(ShardSpec, usize)], total: usize) -> Result<Vec<usize>, String> {
    for (shard, len) in parts {
        let range = shard.range(total);
        if range.len() != *len {
            return Err(format!(
                "shard {shard} should hold cells {}..{} ({} cells) but its report has {len} — \
                 partial or truncated shard report",
                range.start,
                range.end,
                range.len()
            ));
        }
    }
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by_key(|&i| {
        let r = parts[i].0.range(total);
        (r.start, r.end)
    });
    let mut covered = 0;
    for &i in &order {
        let (shard, _) = parts[i];
        let range = shard.range(total);
        // Empty slices (more shards than cells) contribute nothing and
        // can never overlap or leave a gap — skip them entirely instead
        // of letting their degenerate start position trip the checks.
        if range.is_empty() {
            continue;
        }
        if range.start < covered {
            return Err(format!(
                "overlapping shards: shard {shard} (cells {}..{}) overlaps cells already \
                 covered up to {covered}",
                range.start, range.end
            ));
        }
        if range.start > covered {
            return Err(format!(
                "missing cells {covered}..{} — no shard report covers them",
                range.start
            ));
        }
        covered = range.end;
    }
    if covered != total {
        return Err(format!("missing cells {covered}..{total} — no shard report covers them"));
    }
    Ok(order)
}

// Stable, dependency-free cell hashing: the workspace-wide FNV-1a from
// `ekya_core::hash`, re-exported here so cell seeding, registry memo
// keys, and merge fingerprints share one implementation (and one set of
// reference test vectors).
pub use ekya_core::fnv1a;

/// Deterministic per-cell seed: `base ^ fnv1a(dataset, streams, windows)`.
pub fn cell_seed(base: u64, dataset: DatasetKind, streams: usize, windows: usize) -> u64 {
    let key = format!("{}|{streams}|{windows}", dataset.name());
    base ^ fnv1a(key.as_bytes())
}

/// Seed for hold-out Config 1/2 derivation: constant per (grid, dataset)
/// so every cell of a dataset compares uniform variants pinned to the
/// same hold-out configurations.
pub fn holdout_seed(base: u64, dataset: DatasetKind) -> u64 {
    base ^ fnv1a(dataset.name().as_bytes()) ^ 0xF00D
}

/// A declarative experiment grid: the cross product of its axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    /// Dataset axis.
    pub datasets: Vec<DatasetKind>,
    /// Concurrent-stream axis.
    pub stream_counts: Vec<usize>,
    /// Provisioned-GPU axis.
    pub gpu_counts: Vec<f64>,
    /// Scheduler axis.
    pub policies: Vec<PolicySpec>,
    /// Retraining windows per cell.
    pub windows: usize,
    /// Base RNG seed, mixed per cell by [`cell_seed`].
    pub base_seed: u64,
}

impl Grid {
    /// Creates an empty grid skeleton. Populate the axes with the
    /// builder methods, then call [`Grid::cells`].
    pub fn new(windows: usize, base_seed: u64) -> Self {
        Self {
            datasets: Vec::new(),
            stream_counts: Vec::new(),
            gpu_counts: Vec::new(),
            policies: Vec::new(),
            windows,
            base_seed,
        }
    }

    /// Sets the dataset axis.
    pub fn datasets(mut self, kinds: &[DatasetKind]) -> Self {
        self.datasets = kinds.to_vec();
        self
    }

    /// Sets the concurrent-stream axis.
    pub fn stream_counts(mut self, counts: &[usize]) -> Self {
        self.stream_counts = counts.to_vec();
        self
    }

    /// Sets the provisioned-GPU axis.
    pub fn gpu_counts(mut self, gpus: &[f64]) -> Self {
        self.gpu_counts = gpus.to_vec();
        self
    }

    /// Sets the scheduler axis.
    pub fn policies(mut self, policies: Vec<PolicySpec>) -> Self {
        self.policies = policies;
        self
    }

    /// Enumerates every cell of the cross product, in axis order
    /// (dataset-major, policy-minor). The order is presentation only —
    /// results are independent of execution order by construction.
    pub fn cells(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(
            self.datasets.len()
                * self.stream_counts.len()
                * self.gpu_counts.len()
                * self.policies.len(),
        );
        for &dataset in &self.datasets {
            for &gpus in &self.gpu_counts {
                for &streams in &self.stream_counts {
                    for policy in &self.policies {
                        out.push(Scenario {
                            dataset,
                            streams,
                            gpus,
                            windows: self.windows,
                            policy: policy.clone(),
                            seed: cell_seed(self.base_seed, dataset, streams, self.windows),
                        });
                    }
                }
            }
        }
        out
    }

    /// Hold-out derivation seed for one dataset of this grid.
    pub fn holdout_seed(&self, dataset: DatasetKind) -> u64 {
        holdout_seed(self.base_seed, dataset)
    }
}

/// The Figure 6 grid (accuracy vs concurrent streams): Cityscapes and
/// Waymo, Ekya vs the four uniform variants. `quick` shrinks the sweep
/// for smoke runs; the same function feeds `fig06_streams`, the harness
/// throughput benchmark, and CI, so all three ride one definition.
pub fn fig06_grid(quick: bool, windows: usize, base_seed: u64) -> Grid {
    let grid = Grid::new(windows, base_seed).policies(standard_policies());
    if quick {
        grid.datasets(&[DatasetKind::Cityscapes, DatasetKind::Waymo])
            .stream_counts(&[2, 4])
            .gpu_counts(&[1.0])
    } else {
        grid.datasets(&[DatasetKind::Cityscapes, DatasetKind::Waymo])
            .stream_counts(&[2, 4, 6, 8])
            .gpu_counts(&[1.0, 2.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cover_the_cross_product() {
        let grid = Grid::new(3, 42)
            .datasets(&[DatasetKind::Cityscapes, DatasetKind::Waymo])
            .stream_counts(&[2, 4])
            .gpu_counts(&[1.0, 2.0])
            .policies(vec![PolicySpec::Ekya]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 8);
        assert!(cells.iter().all(|c| c.windows == 3));
    }

    #[test]
    fn cell_seed_is_policy_and_gpu_invariant() {
        let grid = fig06_grid(true, 4, 42);
        let cells = grid.cells();
        // All policies at one (dataset, streams) share a seed...
        let seeds: Vec<u64> = cells
            .iter()
            .filter(|c| c.dataset == DatasetKind::Cityscapes && c.streams == 2)
            .map(|c| c.seed)
            .collect();
        assert!(seeds.windows(2).all(|w| w[0] == w[1]));
        // ...and different workloads get different seeds.
        let other = cells.iter().find(|c| c.streams == 4).unwrap();
        assert_ne!(seeds[0], other.seed);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors: a change here silently
        // reshuffles every cell seed and invalidates recorded results.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(ShardSpec::parse("0/4").unwrap(), ShardSpec { index: 0, count: 4 });
        assert_eq!(ShardSpec::parse("3/4").unwrap(), ShardSpec { index: 3, count: 4 });
        for bad in ["", "4", "4/4", "5/4", "0/0", "-1/2", "a/b", "1/2/3"] {
            assert!(ShardSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
        assert_eq!(ShardSpec { index: 1, count: 3 }.to_string(), "1/3");
        assert_eq!(ShardSpec { index: 1, count: 3 }.suffix(), "_shard1of3");
    }

    #[test]
    fn shard_ranges_partition_every_total() {
        for total in 0..24usize {
            for count in 1..6usize {
                let ranges: Vec<_> =
                    (0..count).map(|index| ShardSpec { index, count }.range(total)).collect();
                // Contiguous tiling: each slice starts where the previous ended.
                assert_eq!(ranges[0].start, 0);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "total={total} count={count}");
                }
                assert_eq!(ranges.last().unwrap().end, total);
                // Balanced to within one cell.
                let (min, max) = ranges
                    .iter()
                    .map(std::ops::Range::len)
                    .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                assert!(max - min <= 1, "unbalanced shards: total={total} count={count}");
            }
        }
    }

    #[test]
    fn coverage_order_accepts_exact_tilings_only() {
        let s = |index, count| ShardSpec { index, count };
        // A clean 3-way split, given out of order.
        let order = coverage_order(&[(s(2, 3), 4), (s(0, 3), 3), (s(1, 3), 3)], 10).unwrap();
        assert_eq!(order, vec![1, 2, 0]);
        // Mixed shard counts that still tile the range are fine.
        assert!(coverage_order(&[(s(0, 2), 5), (s(2, 4), 2), (s(3, 4), 3)], 10).is_ok());
        // Duplicated shard → overlap.
        let err = coverage_order(&[(s(0, 2), 5), (s(0, 2), 5)], 10).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
        // Missing shard → gap.
        let err = coverage_order(&[(s(0, 2), 5)], 10).unwrap_err();
        assert!(err.contains("missing cells 5..10"), "{err}");
        // Truncated report (cell count disagrees with the slice).
        let err = coverage_order(&[(s(0, 2), 4), (s(1, 2), 5)], 10).unwrap_err();
        assert!(err.contains("partial or truncated"), "{err}");
    }

    #[test]
    fn coverage_order_tolerates_empty_slices_in_any_order() {
        // More shards than cells: total=2 split 4 ways gives two empty
        // slices (0/4 → 0..0, 2/4 → 1..1) that share their start with a
        // real slice. Every argument order must accept the tiling.
        let s =
            |index| (ShardSpec { index, count: 4 }, ShardSpec { index, count: 4 }.range(2).len());
        let perms: [[usize; 4]; 4] = [[0, 1, 2, 3], [1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1]];
        for perm in perms {
            let parts: Vec<_> = perm.iter().map(|&i| s(i)).collect();
            assert!(coverage_order(&parts, 2).is_ok(), "rejected valid tiling {perm:?}");
        }
        // Dropping a non-empty slice still fails.
        assert!(coverage_order(&[s(0), s(2), s(3)], 2).is_err());
    }

    #[test]
    fn fingerprint_distinguishes_cells_and_survives_roundtrip() {
        let cells = fig06_grid(false, 4, 42).cells();
        let prints: std::collections::HashSet<u64> =
            cells.iter().map(Scenario::fingerprint).collect();
        assert_eq!(prints.len(), cells.len(), "fingerprint collision inside one grid");
        // JSON round-trip preserves the fingerprint (the resume key).
        for cell in cells.iter().take(5) {
            let json = serde_json::to_string(cell).unwrap();
            let back: Scenario = serde_json::from_str(&json).unwrap();
            assert_eq!(back.fingerprint(), cell.fingerprint());
        }
        // Changing the base seed changes every fingerprint.
        let reseeded = fig06_grid(false, 4, 43).cells();
        assert!(prints.is_disjoint(&reseeded.iter().map(Scenario::fingerprint).collect()));
    }

    #[test]
    fn quick_grid_is_a_subset() {
        let quick = fig06_grid(true, 4, 42).cells();
        let full = fig06_grid(false, 4, 42).cells();
        assert!(quick.len() < full.len());
        for c in &quick {
            assert!(full.contains(c), "quick cell {c:?} missing from full grid");
        }
    }
}
