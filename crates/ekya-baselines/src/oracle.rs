//! Accuracy-optimal oracle policy.
//!
//! Solves each window's joint problem (Eq. 1) exactly with the knapsack
//! DP of `ekya-core` — feasible only on small instances (few streams,
//! coarse granularity). This is the "accuracy-optimized scheduler" of the
//! illustrative example (§3.2, Fig 4) and the upper bound the thief
//! heuristic is judged against in tests.

use ekya_core::{optimal_schedule, Policy, PolicyCtx, SchedulerParams, WindowPlan};

/// The oracle policy.
#[derive(Debug, Clone)]
pub struct OraclePolicy {
    params: SchedulerParams,
}

impl OraclePolicy {
    /// Creates the oracle with the given scheduler parameters. Keep
    /// `granularity` coarse (e.g. 0.25) — the DP is quadratic in
    /// `G/granularity`.
    pub fn new(params: SchedulerParams) -> Self {
        Self { params }
    }
}

impl Policy for OraclePolicy {
    fn name(&self) -> String {
        "Accuracy-optimal (oracle)".to_string()
    }

    fn plan_window(&mut self, ctx: &PolicyCtx<'_>) -> WindowPlan {
        let inputs = ctx.stream_inputs(None);
        WindowPlan::from_schedule(
            &optimal_schedule(&inputs, ctx.window_secs, &self.params),
            &inputs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekya_core::EkyaPolicy;
    use ekya_sim::{run_windows, RunnerConfig};
    use ekya_video::{DatasetKind, StreamSet};

    #[test]
    fn oracle_runs_and_is_competitive_with_thief() {
        let streams = StreamSet::generate(DatasetKind::Cityscapes, 2, 3, 91);
        let params =
            SchedulerParams { granularity: 0.25, delta: 0.25, ..SchedulerParams::new(2.0) };
        let cfg = RunnerConfig { total_gpus: 2.0, seed: 6, ..RunnerConfig::default() };

        let mut oracle = OraclePolicy::new(params);
        let oracle_report = run_windows(&mut oracle, &streams, &cfg, 3);

        let mut thief = EkyaPolicy::new(params);
        let thief_report = run_windows(&mut thief, &streams, &cfg, 3);

        // Measured accuracies include execution noise, so allow a small
        // band; the heuristic should be close to the oracle.
        assert!(
            thief_report.mean_accuracy() >= oracle_report.mean_accuracy() - 0.1,
            "thief {:.3} vs oracle {:.3}",
            thief_report.mean_accuracy(),
            oracle_report.mean_accuracy()
        );
    }
}
