//! The run plan: a bin's shard partition plus the pinned [`Knobs`],
//! serialized to `<run_dir>/plan.json`.
//!
//! The plan is computed **once**, at launch, from the bin's declarative
//! workload ([`bin_workload`]) — every spawn, retry, and
//! `ekya_grid resume` afterwards reads the knobs back from the plan
//! instead of the (possibly drifted) environment, so all attempts of
//! all shards of a run are guaranteed to agree on cell identity. That
//! is the precondition for the merge's byte-identity guarantee.

use crate::{bin_workload, shardable_bins, Knobs, ShardSpec};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One shard of the plan: its `ShardSpec` and the contiguous cell slice
/// it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Shard coordinates (`i/N`), the `EKYA_SHARD` value its workers
    /// receive.
    pub shard: ShardSpec,
    /// First cell of the slice (inclusive).
    pub start: usize,
    /// One past the last cell of the slice.
    pub end: usize,
}

impl ShardPlan {
    /// Cells this shard owns.
    pub fn cells(&self) -> usize {
        self.end - self.start
    }
}

/// A complete supervised-run plan, serialized to `<run_dir>/plan.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// The shardable bin this run executes (`ekya_bench::shardable_bins`).
    pub bin: String,
    /// Cells in the full (unsharded) enumeration.
    pub total_cells: usize,
    /// The shard partition, in index order; slices tile `0..total_cells`.
    pub shards: Vec<ShardPlan>,
    /// Pinned knobs every attempt of every shard runs under. `shard` and
    /// `resume` are always unset here: they vary per attempt, and the
    /// spawner sets them.
    pub knobs: Knobs,
    /// Retries allowed per shard beyond its first attempt.
    pub max_retries: usize,
    /// Kill-and-retry a shard after this long without checkpoint
    /// progress.
    pub stall_timeout_secs: u64,
    /// Base of the exponential retry backoff (doubles per retry).
    pub backoff_ms: u64,
    /// Worker executable override (`ekya_grid run --worker-program`,
    /// e.g. the ssh fan-out wrapper), pinned at launch like every other
    /// knob — so `ekya_grid resume` respawns shards through the same
    /// program instead of silently falling back to local workers.
    /// `None` = the supervisor binary itself in `worker` mode.
    pub worker_program: Option<String>,
}

impl Plan {
    /// Plans `bin` across `shards` processes under `knobs`, whose worker
    /// threads are split evenly across the shards (at least one each), so
    /// the shard processes together use what one foreground run would.
    ///
    /// Fails on an unknown/non-shardable bin or a zero shard count. More
    /// shards than cells is allowed (the surplus shards own empty slices
    /// and complete immediately), same as hand-set `EKYA_SHARD`.
    pub fn new(
        bin: &str,
        shards: usize,
        knobs: Knobs,
        max_retries: usize,
        stall_timeout_secs: u64,
        backoff_ms: u64,
    ) -> Result<Self, String> {
        if shards == 0 {
            return Err("cannot plan a run with 0 shards".into());
        }
        let knobs = Knobs {
            workers: (knobs.workers() / shards).max(1),
            shard: None,
            resume: false,
            ..knobs
        };
        let grid = bin_workload(bin, &knobs).ok_or_else(|| {
            format!(
                "unknown or non-shardable bin `{bin}` — shardable bins: {}",
                shardable_bins().join(", ")
            )
        })?;
        let total_cells = grid.cells().len();
        let shards = (0..shards)
            .map(|index| {
                let shard = ShardSpec { index, count: shards };
                let range = shard.range(total_cells);
                ShardPlan { shard, start: range.start, end: range.end }
            })
            .collect();
        Ok(Self {
            bin: bin.to_string(),
            total_cells,
            shards,
            knobs,
            max_retries,
            stall_timeout_secs,
            backoff_ms,
            worker_program: None,
        })
    }

    /// `<run_dir>/plan.json`.
    pub fn path(run_dir: &Path) -> PathBuf {
        run_dir.join("plan.json")
    }

    /// Serializes the plan into the run directory (creating it).
    pub fn save(&self, run_dir: &Path) -> Result<(), String> {
        crate::write_json(&Self::path(run_dir), self)
    }

    /// Loads the plan of an existing run directory.
    pub fn load(run_dir: &Path) -> Result<Self, String> {
        let path = Self::path(run_dir);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!("cannot read {}: {e} — is this a run directory?", path.display())
        })?;
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }

    /// Shard `i`'s final report: `<run_dir>/<bin>_shardIofN.json` — the
    /// same naming `report_path` gives a worker whose
    /// `EKYA_RESULTS_DIR` points at the run directory.
    pub fn shard_report_path(&self, run_dir: &Path, i: usize) -> PathBuf {
        run_dir.join(format!("{}{}.json", self.bin, self.shards[i].shard.suffix()))
    }

    /// Shard `i`'s live checkpoint: the `.partial.json` sibling of its
    /// report.
    pub fn shard_partial_path(&self, run_dir: &Path, i: usize) -> PathBuf {
        self.shard_report_path(run_dir, i).with_extension("partial.json")
    }

    /// Shard `i`'s log file (stdout+stderr of every attempt, appended):
    /// `<run_dir>/logs/shardI.log`.
    pub fn shard_log_path(&self, run_dir: &Path, i: usize) -> PathBuf {
        run_dir.join("logs").join(format!("shard{i}.log"))
    }

    /// The merged whole-grid report: `<run_dir>/<bin>.json`.
    pub fn merged_path(&self, run_dir: &Path) -> PathBuf {
        run_dir.join(format!("{}.json", self.bin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_env() -> Knobs {
        Knobs { windows: Some(1), quick: true, workers: 1, ..Knobs::default() }
    }

    #[test]
    fn plan_partitions_the_grid_exactly() {
        // The launch env's per-attempt knobs never reach the plan, and its
        // worker threads are shared out across the shards.
        let launch = Knobs {
            workers: 9,
            shard: Some(ShardSpec { index: 1, count: 2 }),
            resume: true,
            ..quick_env()
        };
        let plan = Plan::new("fig06_streams", 4, launch, 2, 600, 500).unwrap();
        assert_eq!(plan.knobs, Knobs { workers: 2, ..quick_env() });
        assert_eq!(plan.shards.len(), 4);
        // The slices tile 0..total_cells contiguously.
        assert_eq!(plan.shards[0].start, 0);
        for w in plan.shards.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(plan.shards.last().unwrap().end, plan.total_cells);
        assert_eq!(plan.shards.iter().map(ShardPlan::cells).sum::<usize>(), plan.total_cells);
    }

    #[test]
    fn plan_rejects_unknown_bins_and_zero_shards() {
        for bin in ["fig02_motivation", "fig03_configs"] {
            let err = Plan::new(bin, 2, quick_env(), 2, 600, 500).unwrap_err();
            assert!(err.contains("non-shardable"), "{err}");
        }
        assert!(Plan::new("fig06_streams", 0, quick_env(), 2, 600, 500).is_err());
    }

    #[test]
    fn plan_roundtrips_through_the_run_directory() {
        let mut plan = Plan::new("fig08_factors", 3, quick_env(), 1, 120, 250).unwrap();
        // The pinned worker program must survive the round-trip — it is
        // what `ekya_grid resume` reads back so an ssh-fanned run does
        // not silently respawn local workers.
        plan.worker_program = Some("examples/ssh_worker.sh".into());
        let dir = std::env::temp_dir().join(format!("ekya_orch_plan_{}", std::process::id()));
        plan.save(&dir).unwrap();
        let back = Plan::load(&dir).unwrap();
        assert_eq!(back, plan);
        // Paths use the shard suffix convention the workers write under.
        let report = plan.shard_report_path(&dir, 1);
        assert!(report.ends_with("fig08_factors_shard1of3.json"), "{report:?}");
        assert!(plan.shard_partial_path(&dir, 1).ends_with("fig08_factors_shard1of3.partial.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
