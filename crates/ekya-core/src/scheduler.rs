//! The thief scheduler (§4.2, Algorithms 1 and 2).
//!
//! Ekya's scheduling heuristic makes the joint retraining/inference
//! problem tractable by decoupling resource allocation from configuration
//! selection. Starting from a fair allocation, every job plays "thief" and
//! iteratively steals a quantum Δ of GPU from every other job; after each
//! steal, `PickConfigs` (Algorithm 2) re-selects the best configurations
//! under the tentative allocation and the steal is kept only when the
//! estimated window-averaged accuracy improves.
//!
//! Allocations are exact integer milli-GPU units: the search starts from
//! the exact fair share and moves units between jobs in quanta of Δ
//! ([`SchedulerParams::delta`]; a victim holding less than Δ gives up what
//! it has). [`SchedulerParams::granularity`] δ sets the grid of the
//! knapsack oracle (`knapsack.rs`) only; the thief checks that it is
//! positive and otherwise ignores it. Configurations
//! come pre-pruned from the micro-profiler, and the schedule is recomputed
//! at window boundaries and on retraining-job completion (with in-flight
//! jobs' configurations pinned, §5) — which is why one invocation has to
//! stay cheap at fleet scale (see [`thief_schedule`]'s cost model).

use crate::config::RetrainConfig;
use crate::estimator::{estimate_window, AccuracyEstimate, EstimateParams, RetrainWork};
use crate::profile::{InferenceProfile, RetrainProfile};
use ekya_nn::fit::LearningCurve;
use ekya_video::StreamId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The aggregate the thief scheduler optimises across streams.
///
/// The paper optimises the **mean** window accuracy and notes (§3.2,
/// footnote 3) that "the techniques in our scheduler apply to other
/// optimization metrics too, like max-min of accuracy" — implemented here
/// as the future-work extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedulerObjective {
    /// Maximise the mean accuracy across streams (Eq. 1).
    #[default]
    Mean,
    /// Maximise the minimum accuracy across streams (fairness), with mean
    /// accuracy as the tie-breaker.
    MaxMin,
}

impl SchedulerObjective {
    /// Scores a vector of per-stream accuracies. Scores are only compared
    /// against scores from the same objective.
    pub fn score(&self, per_stream: &[f64]) -> f64 {
        if per_stream.is_empty() {
            return 0.0;
        }
        let mean = per_stream.iter().sum::<f64>() / per_stream.len() as f64;
        match self {
            SchedulerObjective::Mean => mean,
            SchedulerObjective::MaxMin => {
                let min = per_stream.iter().cloned().fold(f64::INFINITY, f64::min);
                // Lexicographic (min, mean) folded into one scalar: mean is
                // bounded by 1, so a 1e-3 weight cannot override a min
                // difference at the scheduler's decision granularity.
                min + 1e-3 * mean
            }
        }
    }
}

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerParams {
    /// Total GPUs `G` on the edge server.
    pub total_gpus: f64,
    /// Smallest allocatable GPU fraction δ.
    pub granularity: f64,
    /// Stealing quantum Δ (a multiple of δ; Fig 10 sweeps this).
    pub delta: f64,
    /// Estimation parameters (`a_MIN`, checkpointing).
    pub estimate: EstimateParams,
    /// Cross-stream aggregate to optimise.
    pub objective: SchedulerObjective,
    /// Extra windows of serving credited to the post-retraining model
    /// when comparing configurations (an extension beyond Eq. 1, which
    /// scores the current window only). A retrained model keeps serving
    /// *after* its window ends, so a configuration that spends most of
    /// the window training to a strong model is worth more than Eq. 1's
    /// within-window average admits; pure per-window greedy reliably
    /// picks throwaway cheap configurations and loses to a static
    /// baseline over multi-window runs. Retraining must still *complete*
    /// within the real window (Eq. 1 constraint 1) — only the averaging
    /// horizon is extended. 0 restores the paper's myopic objective.
    pub lookahead_windows: f64,
}

impl SchedulerParams {
    /// Paper-default parameters for a given GPU count: δ = Δ = 0.1 GPU,
    /// `a_MIN` = 0.4, mean objective, one window of lookahead.
    pub fn new(total_gpus: f64) -> Self {
        Self {
            total_gpus,
            granularity: 0.1,
            delta: 0.1,
            estimate: EstimateParams::default(),
            objective: SchedulerObjective::Mean,
            lookahead_windows: 1.0,
        }
    }
}

/// A retraining job already running when the scheduler is re-invoked
/// mid-window; its configuration is pinned (§5) but its allocation may
/// change.
#[derive(Debug, Clone)]
pub struct InProgressRetrain {
    /// The pinned configuration.
    pub config: RetrainConfig,
    /// Its learning curve (possibly corrected mid-window, §5).
    pub curve: LearningCurve,
    /// Progress already made, in full-pool epoch equivalents.
    pub k_done: f64,
    /// GPU-seconds still required at 100% allocation.
    pub gpu_seconds_remaining: f64,
}

/// Per-stream scheduler inputs.
#[derive(Debug, Clone)]
pub struct StreamInput<'a> {
    /// Stream identity (for reporting).
    pub id: StreamId,
    /// Accuracy of the currently deployed model on current data.
    pub serving_accuracy: f64,
    /// Micro-profiled retraining candidates (empty ⇒ retraining cannot be
    /// chosen for this stream).
    pub retrain_profiles: &'a [RetrainProfile],
    /// Inference configuration profiles.
    pub infer_profiles: &'a [InferenceProfile],
    /// Retraining already in flight (mid-window rescheduling).
    pub in_progress: Option<InProgressRetrain>,
}

/// The retraining decision for one stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RetrainChoice {
    /// Do not retrain in this window.
    Skip,
    /// Start retraining with `retrain_profiles[profile_idx]`.
    Start {
        /// Index into the stream's `retrain_profiles`.
        profile_idx: usize,
    },
    /// Continue the pinned in-progress retraining.
    Continue,
}

/// Scheduler output for one stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamDecision {
    /// Stream identity.
    pub id: StreamId,
    /// Retraining decision.
    pub retrain: RetrainChoice,
    /// GPUs allocated to retraining.
    pub train_gpus: f64,
    /// Index into the stream's `infer_profiles` of the chosen inference
    /// configuration (`None` when no configuration can keep up — the
    /// stream is starved and contributes zero accuracy).
    pub infer_profile_idx: Option<usize>,
    /// GPUs allocated to inference.
    pub infer_gpus: f64,
    /// The accuracy estimate backing this decision.
    pub estimate: AccuracyEstimate,
}

/// A complete schedule for one (remaining) window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Per-stream decisions, in input order.
    pub decisions: Vec<StreamDecision>,
    /// Estimated inference accuracy averaged over streams and the window
    /// (the objective of Eq. 1).
    pub avg_accuracy: f64,
    /// Number of `PickConfigs` evaluations performed (for the Fig 10
    /// runtime analysis).
    pub evaluations: usize,
}

impl Schedule {
    /// Total GPUs allocated across all jobs.
    pub fn total_allocated(&self) -> f64 {
        self.decisions.iter().map(|d| d.train_gpus + d.infer_gpus).sum()
    }
}

/// Per-stream outcome of one `PickConfigs` evaluation.
#[derive(Debug, Clone)]
struct StreamEval {
    retrain: RetrainChoice,
    infer_profile_idx: Option<usize>,
    estimate: AccuracyEstimate,
}

/// The accuracy-averaging horizon for one evaluation: the (remaining)
/// window stretched by the lookahead credit. Shared by the thief and the
/// knapsack oracle so both optimise the *same* objective — the tests
/// bound one against the other.
pub(crate) fn eval_horizon_secs(horizon_secs: f64, lookahead_windows: f64) -> f64 {
    horizon_secs * (1.0 + lookahead_windows.max(0.0))
}

/// Eq. 1 constraint 1: retraining must finish within the *real*
/// (remaining) window — the lookahead extends the averaging horizon only.
pub(crate) fn completes_within(estimate: &AccuracyEstimate, horizon_secs: f64) -> bool {
    estimate.retrain_duration_secs <= horizon_secs + 1e-9
}

/// Runs Algorithm 2 for a single stream under the given allocations.
///
/// Estimates average over [`eval_horizon_secs`] (the post-retraining
/// model keeps serving beyond the window), while retraining must still
/// complete within the real `horizon_secs` ([`completes_within`]).
fn pick_configs_for_stream(
    stream: &StreamInput<'_>,
    train_alloc: f64,
    infer_alloc: f64,
    horizon_secs: f64,
    lookahead_windows: f64,
    params: &EstimateParams,
) -> StreamEval {
    const EPS: f64 = 1e-9;
    let eval_horizon = eval_horizon_secs(horizon_secs, lookahead_windows);
    let zero_estimate = AccuracyEstimate {
        avg_accuracy: 0.0,
        min_accuracy: 0.0,
        retrain_duration_secs: 0.0,
        end_model_accuracy: stream.serving_accuracy,
        completes: true,
    };

    // ---- Inference configuration (Algorithm 2, lines 3-4). ----
    // Among configurations that keep up under `infer_alloc`, prefer those
    // meeting a_MIN on the *current* model; fall back to the most accurate
    // feasible one when the floor is unreachable.
    let Some(infer_idx) = crate::estimator::pick_best_infer(
        stream.infer_profiles,
        infer_alloc,
        stream.serving_accuracy,
        params.a_min,
    ) else {
        return StreamEval {
            retrain: RetrainChoice::Skip,
            infer_profile_idx: None,
            estimate: zero_estimate,
        };
    };
    let infer = &stream.infer_profiles[infer_idx];
    // After a retraining completes, the scheduler re-runs and inference
    // reclaims the training GPUs (§4.2) — the estimate's post-completion
    // phase uses the best configuration feasible at the combined share.
    let infer_after = crate::estimator::pick_best_infer(
        stream.infer_profiles,
        infer_alloc + train_alloc,
        stream.serving_accuracy,
        params.a_min,
    )
    .map(|i| &stream.infer_profiles[i]);

    // ---- Retraining configuration (Algorithm 2, lines 6-12). ----
    let mut best: Option<(RetrainChoice, AccuracyEstimate)> = None;
    let mut consider = |choice: RetrainChoice, est: Option<AccuracyEstimate>| {
        let Some(est) = est else { return };
        let better = match &best {
            None => true,
            Some((_, cur)) => est.avg_accuracy > cur.avg_accuracy + EPS,
        };
        if better {
            best = Some((choice, est));
        }
    };

    if let Some(ip) = &stream.in_progress {
        // Mid-window: the configuration is pinned; only Continue applies.
        let work = RetrainWork {
            curve: &ip.curve,
            k_total: ip.config.k_total(),
            k_done: ip.k_done,
            gpu_seconds_remaining: ip.gpu_seconds_remaining,
        };
        consider(
            RetrainChoice::Continue,
            estimate_window(
                Some(&work),
                stream.serving_accuracy,
                infer,
                infer_after,
                train_alloc,
                infer_alloc,
                eval_horizon,
                params,
            ),
        );
    } else {
        // Option γ = ∅: skip retraining this window.
        consider(
            RetrainChoice::Skip,
            estimate_window(
                None,
                stream.serving_accuracy,
                infer,
                None,
                0.0,
                infer_alloc,
                eval_horizon,
                params,
            ),
        );
        for (idx, profile) in stream.retrain_profiles.iter().enumerate() {
            let work = RetrainWork {
                curve: &profile.curve,
                k_total: profile.config.k_total(),
                k_done: 0.0,
                gpu_seconds_remaining: profile.total_gpu_seconds(),
            };
            let est = estimate_window(
                Some(&work),
                stream.serving_accuracy,
                infer,
                infer_after,
                train_alloc,
                infer_alloc,
                eval_horizon,
                params,
            );
            // Reject configurations whose retraining cannot finish within
            // the *real* window at this allocation (Eq. 1 constraint 1).
            let est = est.filter(|e| completes_within(e, horizon_secs));
            consider(RetrainChoice::Start { profile_idx: idx }, est);
        }
    }

    match best {
        Some((choice, est)) => {
            StreamEval { retrain: choice, infer_profile_idx: Some(infer_idx), estimate: est }
        }
        None => StreamEval {
            retrain: RetrainChoice::Skip,
            infer_profile_idx: Some(infer_idx),
            estimate: zero_estimate,
        },
    }
}

/// The net two-stream gain below which a steal cannot win under
/// [`SchedulerObjective::Mean`], so the thief rejects it without
/// re-summing the n-element accuracy vector.
///
/// Premise: every per-stream accuracy lies in [0, 1] (the estimator's
/// window averages do; the thief `debug_assert`s it). Let `u = ε/2` be the
/// unit roundoff, `v` the best schedule's accuracies and `v'` an attempt's,
/// which differ in the two touched streams by an exact net gain `D`. The
/// thief accepts when `fl(Ŝ(v')/n) > fl(best + 1e-12)`, with `Ŝ` the
/// in-order sum and `best = fl(Ŝ(v)/n)`. Then:
///
/// * in-order summation of n values of magnitude ≤ 1 is off by at most
///   `γ(n−1)·n ≤ 1.01·n²u` (`γ(k) = ku/(1−ku)`), so
///   `Ŝ(v') − Ŝ(v) ≤ D + 2.02·n²u`;
/// * the divisions and the `+ 1e-12` each round a value of magnitude
///   ≤ 1.01 by at most `1.01u`, so acceptance needs
///   `Ŝ(v') − Ŝ(v) > n·1e-12 − 3.03·n·u`;
/// * the computed gain `d = fl(fl(new_lo − old_lo) + fl(new_hi − old_hi))`
///   is within `4.01u` of `D`.
///
/// Together, an accepted attempt has `d > n·1e-12 − 2.02·n²u − 3.03·n·u −
/// 4.01u`. The threshold returned, `n·1e-12 − 4·n²·ε − 1e-15`
/// (`4n²ε = 8n²u` covers both n-dependent terms from n = 1, `1e-15` the
/// last; computing it rounds by ~1e-25), lies below that, so `d` under it
/// means the full re-score would reject too. The attempts that survive
/// re-sum in order, so the best score keeps its bits. A NaN gain compares
/// false and falls through to the full re-score. Past about 1100 streams
/// the threshold is negative and the shortcut rejects only net losses.
fn mean_gain_hopeless_below(n: usize) -> f64 {
    let n = n as f64;
    n * 1e-12 - 4.0 * n * n * f64::EPSILON - 1e-15
}

/// Steal sizes one job's thief-side cache holds. A schedule mostly steals
/// either Δ or a victim's whole sub-Δ share, so two sizes dominate; the
/// spare slots absorb the odd partial steal.
const GAIN_SLOTS: usize = 4;

/// The lookups a steal attempt makes for one job's stream, remembered
/// under the best schedule: the stream's accuracy after the job, as a
/// victim, loses `min(Δ, its units)`, and after it, as a thief, gains `s`
/// units (for the last [`GAIN_SLOTS`] values of `s`, replaced oldest
/// first). Both depend only on the units of the job and its sibling, so
/// they hold until an accepted steal moves either job of the stream.
#[derive(Debug, Clone, Copy, Default)]
struct StealCache {
    loses: Option<f64>,
    gains: [Option<(i64, f64)>; GAIN_SLOTS],
    /// The slot the next new steal size overwrites.
    oldest: usize,
}

impl StealCache {
    fn gains(&self, steal: i64) -> Option<f64> {
        self.gains.iter().flatten().find(|&&(s, _)| s == steal).map(|&(_, accuracy)| accuracy)
    }

    fn gains_or(&mut self, steal: i64, look_up: impl FnOnce() -> f64) -> f64 {
        self.gains(steal).unwrap_or_else(|| {
            let accuracy = look_up();
            self.gains[self.oldest] = Some((steal, accuracy));
            self.oldest = (self.oldest + 1) % GAIN_SLOTS;
            accuracy
        })
    }
}

/// The thief scheduler (Algorithm 1).
///
/// `horizon_secs` is the (remaining) window duration ‖T‖. Returns the
/// per-stream allocations, configuration choices, and the estimated
/// accuracy averaged over the lookahead-extended horizon (exactly the
/// window average when `lookahead_windows` is 0 — see
/// [`SchedulerParams::lookahead_windows`]).
///
/// # Cost
///
/// With n streams there are 2n jobs and 2n(2n − 1) (thief, victim) pairs,
/// each making at most one steal attempt more than it has accepted. An
/// attempt differs from the current best schedule in two jobs, so it needs
/// the accuracy of at most two streams (one when both jobs belong to the
/// same stream). Per job, the thief keeps what attempts looked up under the
/// best schedule (`StealCache`): the job's stream after it loses its steal
/// as a victim, and after it gains `s` units as a thief. Between two
/// accepted steals each of those is looked up once. A pair whose victim
/// and thief are both cached as not rising is skipped before it touches
/// the allocation, since the rose-at-all test would reject it. A lookup
/// the caches miss consults the `PickConfigs` memo, which runs Algorithm 2
/// only for an `(infer, train)` unit pair that stream has not held before.
/// If neither touched stream's accuracy rose, the attempt is rejected on
/// the spot. Under the mean objective it is also rejected when the two
/// streams' net gain is below `mean_gain_hopeless_below` (typically one
/// stream rose and the other fell further). Only the attempts left
/// (typically a training thief whose retraining now completes or improves)
/// re-score the n-element accuracy vector, which is the one O(n) step left.
///
/// On the `fleet-plan` benchmark (n = 200, seed 1) the daemon's
/// first-window schedule visits 159 600 pairs and skips 58 617 of them. Its
/// 28 302 attempts make 5676 memo lookups (173 849 without the caches) and
/// 4353 `PickConfigs` calls; 25 824 pass the rose-at-all test, and 1192 of
/// those survive the net-gain test to be re-summed (and accepted). The
/// second-window schedule accepts no steal: of the same 159 600 pairs it
/// skips 158 402, and its 1198 attempts make 1400 memo lookups (319 000
/// without the caches), 1400 `PickConfigs` calls and no re-sum.
///
/// The caches and the skip change no decision and no count. Each entry is
/// filled by the lookup its attempt would make without the caches, and an
/// accepted steal clears the entries of all four jobs of the two streams
/// it moved, the only entries whose inputs it changes. A skipped pair is
/// one whose lookups would all have hit the memo.
///
/// The two re-score shortcuts (rose-at-all and net gain) pick exactly the
/// steals the full re-score would. IEEE
/// round-to-nearest addition, the division by n, `min` and the `MaxMin`
/// fold `min + 1e-3·mean` are all monotone, so a vector that is
/// element-wise ≤ the current best cannot score above it in the same
/// summation order, let alone above `best + 1e-12`. The net-gain test
/// bounds the rounding of both in-order sums instead (derived on
/// `mean_gain_hopeless_below`); `MaxMin`, whose `min` a net gain says
/// nothing about, always re-scores.
pub fn thief_schedule(
    streams: &[StreamInput<'_>],
    horizon_secs: f64,
    params: &SchedulerParams,
) -> Schedule {
    let n = streams.len();
    if n == 0 {
        return Schedule { decisions: Vec::new(), avg_accuracy: 0.0, evaluations: 0 };
    }
    assert!(params.total_gpus > 0.0, "need at least some GPU");
    assert!(params.granularity > 0.0, "granularity must be positive");

    // Allocations are tracked in exact milli-GPU units: Algorithm 1 starts
    // from the *exact* fair share (line 2) and only the stealing moves in
    // Δ quanta. Flooring the fair share to Δ multiples would start some
    // jobs at zero whenever jobs outnumber G/Δ — a regime the paper's
    // evaluation exercises routinely (10 streams on 1 GPU).
    const MILLI: f64 = 1e-3;
    // Floor, not round: rounding up would let the integer representation
    // exceed a fractional GPU budget by up to half a milli-GPU.
    let units_total = (params.total_gpus / MILLI).floor().max(1.0) as i64;
    let delta_units = ((params.delta / MILLI).round() as i64).max(1);
    let num_jobs = 2 * n; // job 2i = inference, job 2i+1 = training

    // Fair initial allocation (Algorithm 1, line 2): equal units per job,
    // remainder spread round-robin. From here on `alloc` is always the
    // best schedule found so far; a steal is applied in place and undone
    // when rejected.
    let mut alloc: Vec<i64> = vec![units_total / num_jobs as i64; num_jobs];
    for extra in alloc.iter_mut().take((units_total % num_jobs as i64) as usize) {
        *extra += 1;
    }

    // Memo of `PickConfigs` outcomes, one small map per stream keyed by
    // that stream's (infer, train) units.
    let mut memo: Vec<BTreeMap<(i64, i64), StreamEval>> = vec![BTreeMap::new(); n];
    let mut evaluations = 0usize;
    // Stream `s`'s estimated accuracy under `alloc`, running Algorithm 2
    // the first time the stream holds this unit pair.
    let accuracy_at = |s: usize,
                       alloc: &[i64],
                       memo: &mut [BTreeMap<(i64, i64), StreamEval>],
                       evals: &mut usize|
     -> f64 {
        let (iu, tu) = (alloc[2 * s], alloc[2 * s + 1]);
        let eval = memo[s].entry((iu, tu)).or_insert_with(|| {
            *evals += 1;
            pick_configs_for_stream(
                &streams[s],
                tu as f64 * MILLI,
                iu as f64 * MILLI,
                horizon_secs,
                params.lookahead_windows,
                &params.estimate,
            )
        });
        let accuracy = eval.estimate.avg_accuracy;
        // The premise of the mean shortcut's error bound.
        debug_assert!(
            accuracy.is_nan() || (0.0..=1.0).contains(&accuracy),
            "stream {s} accuracy {accuracy} outside [0, 1]"
        );
        accuracy
    };

    // Per-stream accuracies of the best schedule, in stream order — the
    // vector the objective scores.
    let mut acc: Vec<f64> =
        (0..n).map(|s| accuracy_at(s, &alloc, &mut memo, &mut evaluations)).collect();
    let mut best_score = params.objective.score(&acc);
    let hopeless_below = match params.objective {
        SchedulerObjective::Mean => Some(mean_gain_hopeless_below(n)),
        SchedulerObjective::MaxMin => None,
    };

    // What attempts have already looked up under the best schedule, per
    // job (see `StealCache`).
    let mut known = vec![StealCache::default(); num_jobs];

    // Thief resource stealing (Algorithm 1, lines 4-20).
    for thief in 0..num_jobs {
        for victim in 0..num_jobs {
            if thief == victim {
                continue;
            }
            // The thief's and the victim's streams (the same stream twice
            // when a job robs its sibling), and the two in ascending order.
            let (ts, vs) = (thief / 2, victim / 2);
            let (lo, hi) = (ts.min(vs), ts.max(vs));
            loop {
                // Steal a partial quantum when the victim holds less than
                // Δ: under contention the fair share starts *below* Δ
                // (e.g. 10 streams on 1 GPU ⇒ 0.05/job), and refusing
                // sub-Δ steals would freeze Algorithm 1 at the fair
                // allocation — unable to ever pause one stream's
                // retraining to let another's complete, which is the
                // scheduler's entire job in that regime.
                let steal = delta_units.min(alloc[victim]);
                if steal <= 0 {
                    break;
                }
                // A known loser: both streams' accuracies under this steal
                // are cached and neither rose, so the rose-at-all test
                // below would reject the attempt.
                if ts != vs
                    && known[victim]
                        .loses
                        .zip(known[thief].gains(steal))
                        .is_some_and(|(new_v, new_t)| !(new_v > acc[vs] || new_t > acc[ts]))
                {
                    #[cfg(test)]
                    tests::probe::skipped();
                    break;
                }
                alloc[victim] -= steal;
                alloc[thief] += steal;
                let (old_lo, old_hi) = (acc[lo], acc[hi]);
                let (new_lo, new_hi) = if ts == vs {
                    let new = accuracy_at(ts, &alloc, &mut memo, &mut evaluations);
                    (new, new)
                } else {
                    let mut look_up = |job: usize, _gain: Option<i64>| {
                        #[cfg(test)]
                        tests::probe::filled(job, _gain);
                        accuracy_at(job / 2, &alloc, &mut memo, &mut evaluations)
                    };
                    let new_v = *known[victim].loses.get_or_insert_with(|| look_up(victim, None));
                    let new_t = known[thief].gains_or(steal, || look_up(thief, Some(steal)));
                    if ts < vs {
                        (new_t, new_v)
                    } else {
                        (new_v, new_t)
                    }
                };
                // Re-score only if a touched stream improved and, under the
                // mean, the two streams' net gain can still clear the
                // acceptance margin (see the function docs); `acc` is
                // restored when the steal loses.
                let mut accepted = false;
                if new_lo > old_lo || new_hi > old_hi {
                    let gain = (new_lo - old_lo) + if hi == lo { 0.0 } else { new_hi - old_hi };
                    let hopeless = hopeless_below.is_some_and(|below| gain < below);
                    acc[lo] = new_lo;
                    acc[hi] = new_hi;
                    #[cfg(test)]
                    tests::probe::rescore(
                        hopeless,
                        params.objective.score(&acc) > best_score + 1e-12,
                    );
                    if !hopeless {
                        let score = params.objective.score(&acc);
                        if score > best_score + 1e-12 {
                            accepted = true;
                            best_score = score;
                        }
                    }
                    if !accepted {
                        acc[lo] = old_lo;
                        acc[hi] = old_hi;
                    }
                }
                if !accepted {
                    alloc[victim] += steal;
                    alloc[thief] -= steal;
                    break;
                }
                // The steal moved both streams it touched, so what was
                // known about all four of their jobs is stale.
                for job in [2 * lo, 2 * lo + 1, 2 * hi, 2 * hi + 1] {
                    #[cfg(test)]
                    tests::probe::cleared(job, &known[job], job != thief && job != victim);
                    known[job] = StealCache::default();
                }
                // Logical-plane telemetry: an *accepted* steal with its
                // before/after quanta. Allocations are exact integer
                // units and the search is sequential, so the event
                // stream is a pure function of the inputs.
                if ekya_telemetry::enabled() {
                    ekya_telemetry::event(
                        "core.scheduler",
                        "steal",
                        &format!(
                            "thief={thief} victim={victim} units={steal} \
                             thief_units={}->{} victim_units={}->{}",
                            alloc[thief] - steal,
                            alloc[thief],
                            alloc[victim] + steal,
                            alloc[victim]
                        ),
                    );
                }
            }
        }
    }

    let decisions = streams
        .iter()
        .enumerate()
        .map(|(s, stream)| {
            let (iu, tu) = (alloc[2 * s], alloc[2 * s + 1]);
            let eval = memo[s].remove(&(iu, tu)).expect("the best schedule was evaluated");
            StreamDecision {
                id: stream.id,
                retrain: eval.retrain,
                train_gpus: tu as f64 * MILLI,
                infer_profile_idx: eval.infer_profile_idx,
                infer_gpus: iu as f64 * MILLI,
                estimate: eval.estimate,
            }
        })
        .collect();
    // The thief compares objective scores; the schedule reports the mean.
    let avg_accuracy = SchedulerObjective::Mean.score(&acc);

    if ekya_telemetry::enabled() {
        ekya_telemetry::counter_add("core.scheduler", "evaluations", evaluations as u64);
        ekya_telemetry::span(
            "core.scheduler",
            "thief_schedule",
            evaluations as f64,
            &format!("streams={n} avg_accuracy={avg_accuracy:.6}"),
        );
    }

    Schedule { decisions, avg_accuracy, evaluations }
}

/// Convenience: evaluates a *fixed* allocation (no stealing), used by the
/// `Ekya-FixedRes` ablation (Fig 8) and the uniform baseline's accuracy
/// accounting. `alloc` lists `(infer_gpus, train_gpus)` per stream.
pub fn pick_configs_fixed(
    streams: &[StreamInput<'_>],
    alloc: &[(f64, f64)],
    horizon_secs: f64,
    params: &SchedulerParams,
) -> Schedule {
    assert_eq!(streams.len(), alloc.len(), "one allocation pair per stream");
    let mut decisions = Vec::with_capacity(streams.len());
    let mut total = 0.0;
    for (stream, &(infer_gpus, train_gpus)) in streams.iter().zip(alloc) {
        let eval = pick_configs_for_stream(
            stream,
            train_gpus,
            infer_gpus,
            horizon_secs,
            params.lookahead_windows,
            &params.estimate,
        );
        total += eval.estimate.avg_accuracy;
        decisions.push(StreamDecision {
            id: stream.id,
            retrain: eval.retrain,
            train_gpus,
            infer_profile_idx: eval.infer_profile_idx,
            infer_gpus,
            estimate: eval.estimate,
        });
    }
    let n = streams.len().max(1);
    Schedule { decisions, avg_accuracy: total / n as f64, evaluations: streams.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{default_inference_grid, InferenceConfig};
    use crate::profile::build_inference_profiles;
    use ekya_nn::cost::CostModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What the thief did on the calling thread between `start` and
    /// `take`: its re-score decisions and how its steal caches were used.
    pub(super) mod probe {
        use crate::scheduler::StealCache;
        use std::cell::RefCell;
        use std::collections::BTreeMap;

        #[derive(Debug, Default)]
        pub(in crate::scheduler) struct Log {
            /// Per re-score: whether the mean shortcut rejected it and
            /// whether the full re-score would have accepted it.
            pub rescores: Vec<(bool, bool)>,
            /// Pairs skipped as known losers.
            pub skipped: usize,
            /// Cache fills that looked up again what an acceptance had
            /// cleared from a *sibling* job's cache (neither the thief nor
            /// the victim), i.e. lookups a stale entry would have answered.
            pub sibling_refills: usize,
            /// What acceptances cleared from sibling jobs, not yet refilled.
            stale: BTreeMap<usize, StealCache>,
        }

        thread_local! {
            static LOG: RefCell<Option<Log>> = const { RefCell::new(None) };
        }

        fn with(f: impl FnOnce(&mut Log)) {
            LOG.with(|log| {
                if let Some(log) = log.borrow_mut().as_mut() {
                    f(log);
                }
            });
        }

        pub(in crate::scheduler) fn start() {
            LOG.with(|log| *log.borrow_mut() = Some(Log::default()));
        }

        pub(in crate::scheduler) fn take() -> Log {
            LOG.with(|log| log.borrow_mut().take().unwrap_or_default())
        }

        pub(in crate::scheduler) fn rescore(hopeless: bool, full_accepts: bool) {
            with(|log| log.rescores.push((hopeless, full_accepts)));
        }

        pub(in crate::scheduler) fn skipped() {
            with(|log| log.skipped += 1);
        }

        pub(in crate::scheduler) fn cleared(job: usize, entry: &StealCache, sibling: bool) {
            with(|log| {
                if !sibling {
                    log.stale.remove(&job);
                } else if entry.loses.is_some() || entry.gains.iter().any(Option::is_some) {
                    log.stale.insert(job, *entry);
                }
            });
        }

        pub(in crate::scheduler) fn filled(job: usize, gain: Option<i64>) {
            with(|log| {
                let Some(stale) = log.stale.get_mut(&job) else { return };
                let was_known = match gain {
                    None => stale.loses.take().is_some(),
                    Some(steal) => stale
                        .gains
                        .iter_mut()
                        .find(|slot| slot.is_some_and(|(s, _)| s == steal))
                        .and_then(Option::take)
                        .is_some(),
                };
                log.sibling_refills += usize::from(was_known);
            });
        }
    }

    fn infer_profiles() -> Vec<InferenceProfile> {
        build_inference_profiles(&CostModel::default(), 1.0, 30.0, &default_inference_grid())
    }

    fn retrain_profile(
        epochs: u32,
        data_fraction: f64,
        gpu_s_per_epoch: f64,
        start: f64,
        asymptote: f64,
    ) -> RetrainProfile {
        // Curve anchored near `start` at k = 0 rising to `asymptote`.
        let b = 1.0 / (asymptote - start).max(1e-3);
        RetrainProfile {
            config: RetrainConfig {
                epochs,
                batch_size: 32,
                last_layer_neurons: 16,
                layers_trained: 3,
                data_fraction,
            },
            curve: LearningCurve { a: 1.0, b, c: asymptote },
            gpu_seconds_per_epoch: gpu_s_per_epoch,
        }
    }

    fn stream<'a>(
        id: u32,
        serving: f64,
        retrain: &'a [RetrainProfile],
        infer: &'a [InferenceProfile],
    ) -> StreamInput<'a> {
        StreamInput {
            id: StreamId(id),
            serving_accuracy: serving,
            retrain_profiles: retrain,
            infer_profiles: infer,
            in_progress: None,
        }
    }

    #[test]
    fn empty_input_yields_empty_schedule() {
        let s = thief_schedule(&[], 200.0, &SchedulerParams::new(1.0));
        assert!(s.decisions.is_empty());
        assert_eq!(s.avg_accuracy, 0.0);
    }

    #[test]
    fn allocation_never_exceeds_total() {
        let infer = infer_profiles();
        let retrain = vec![retrain_profile(10, 1.0, 5.0, 0.5, 0.9)];
        let streams: Vec<StreamInput> = (0..4).map(|i| stream(i, 0.5, &retrain, &infer)).collect();
        let params = SchedulerParams::new(2.0);
        let s = thief_schedule(&streams, 200.0, &params);
        assert!(s.total_allocated() <= params.total_gpus + 1e-9);
    }

    #[test]
    fn beneficial_retraining_is_chosen() {
        let infer = infer_profiles();
        // Large accuracy gain, cheap retraining: must be picked.
        let retrain = vec![retrain_profile(10, 1.0, 2.0, 0.4, 0.95)];
        let streams = vec![stream(0, 0.4, &retrain, &infer)];
        let s = thief_schedule(&streams, 200.0, &SchedulerParams::new(2.0));
        assert!(
            matches!(s.decisions[0].retrain, RetrainChoice::Start { .. }),
            "expected retraining, got {:?}",
            s.decisions[0].retrain
        );
        assert!(s.decisions[0].train_gpus > 0.0);
    }

    #[test]
    fn useless_retraining_is_skipped() {
        let infer = infer_profiles();
        // Retrained accuracy no better than serving: skip and give all
        // resources to inference.
        let retrain = vec![retrain_profile(30, 1.0, 10.0, 0.85, 0.86)];
        let streams = vec![stream(0, 0.85, &retrain, &infer)];
        let s = thief_schedule(&streams, 200.0, &SchedulerParams::new(1.0));
        assert!(
            matches!(s.decisions[0].retrain, RetrainChoice::Skip),
            "expected skip, got {:?}",
            s.decisions[0].retrain
        );
    }

    #[test]
    fn prioritises_stream_with_larger_gain() {
        // Stream 0 gains little from retraining; stream 1 gains a lot
        // (§3.2's second improvement: prioritise higher-benefit retraining).
        let infer = infer_profiles();
        let small_gain = vec![retrain_profile(10, 1.0, 8.0, 0.70, 0.75)];
        let large_gain = vec![retrain_profile(10, 1.0, 8.0, 0.45, 0.90)];
        let streams =
            vec![stream(0, 0.70, &small_gain, &infer), stream(1, 0.45, &large_gain, &infer)];
        let s = thief_schedule(&streams, 200.0, &SchedulerParams::new(2.0));
        let d0 = &s.decisions[0];
        let d1 = &s.decisions[1];
        assert!(matches!(d1.retrain, RetrainChoice::Start { .. }), "high-gain stream must retrain");
        if matches!(d0.retrain, RetrainChoice::Start { .. }) {
            assert!(
                d1.train_gpus >= d0.train_gpus,
                "high-gain stream should get at least as much training GPU: {} vs {}",
                d1.train_gpus,
                d0.train_gpus
            );
        }
    }

    #[test]
    fn cheaper_config_preferred_when_resources_scarce() {
        // Two configs: expensive/high-accuracy and cheap/medium-accuracy.
        // With one GPU shared by 4 streams, the cheap one should win for
        // at least some stream (§3.2's first improvement).
        let infer = infer_profiles();
        let retrain = vec![
            retrain_profile(30, 1.0, 12.0, 0.5, 0.95), // 360 GPU-s: too slow
            retrain_profile(5, 0.3, 2.0, 0.5, 0.85),   // 10 GPU-s: quick win
        ];
        let streams: Vec<StreamInput> = (0..4).map(|i| stream(i, 0.5, &retrain, &infer)).collect();
        let s = thief_schedule(&streams, 200.0, &SchedulerParams::new(1.0));
        let picked_cheap = s
            .decisions
            .iter()
            .any(|d| matches!(d.retrain, RetrainChoice::Start { profile_idx: 1 }));
        assert!(picked_cheap, "cheap config should be selected under scarcity: {s:?}");
    }

    #[test]
    fn thief_beats_or_matches_fair_allocation() {
        let infer = infer_profiles();
        let retrain_a = vec![retrain_profile(10, 1.0, 6.0, 0.65, 0.75)];
        let retrain_b = vec![retrain_profile(10, 1.0, 6.0, 0.40, 0.90)];
        let streams =
            vec![stream(0, 0.65, &retrain_a, &infer), stream(1, 0.40, &retrain_b, &infer)];
        let params = SchedulerParams::new(3.0);
        let thief = thief_schedule(&streams, 120.0, &params);
        let fair = pick_configs_fixed(&streams, &[(0.75, 0.75), (0.75, 0.75)], 120.0, &params);
        assert!(
            thief.avg_accuracy >= fair.avg_accuracy - 1e-9,
            "thief {:.4} must be >= fair {:.4}",
            thief.avg_accuracy,
            fair.avg_accuracy
        );
    }

    #[test]
    fn in_progress_jobs_keep_config() {
        let infer = infer_profiles();
        let retrain = vec![retrain_profile(10, 1.0, 5.0, 0.5, 0.9)];
        let ip = InProgressRetrain {
            config: retrain[0].config,
            curve: retrain[0].curve,
            k_done: 5.0,
            gpu_seconds_remaining: 25.0,
        };
        let mut s = stream(0, 0.5, &retrain, &infer);
        s.in_progress = Some(ip);
        let sched = thief_schedule(&[s], 100.0, &SchedulerParams::new(1.0));
        assert!(
            matches!(sched.decisions[0].retrain, RetrainChoice::Continue),
            "in-flight retraining must continue: {:?}",
            sched.decisions[0].retrain
        );
    }

    #[test]
    fn starved_inference_contributes_zero() {
        // One stream, almost no GPU: even the cheapest inference config
        // cannot keep up, so the stream is starved.
        let infer = vec![InferenceProfile {
            config: InferenceConfig { frame_sampling: 1.0, resolution: 1.0 },
            accuracy_factor: 1.0,
            gpu_demand: 5.0, // needs five GPUs
        }];
        let retrain: Vec<RetrainProfile> = vec![];
        let streams = vec![stream(0, 0.8, &retrain, &infer)];
        let s = thief_schedule(&streams, 200.0, &SchedulerParams::new(1.0));
        assert_eq!(s.decisions[0].infer_profile_idx, None);
        assert_eq!(s.avg_accuracy, 0.0);
    }

    #[test]
    fn smaller_delta_never_hurts_much() {
        // Finer stealing quanta explore a superset of coarse allocations
        // reachable from the same start, so accuracy should not degrade
        // meaningfully (Fig 10's premise).
        let infer = infer_profiles();
        let retrain =
            vec![retrain_profile(10, 1.0, 6.0, 0.5, 0.9), retrain_profile(5, 0.3, 2.0, 0.5, 0.8)];
        let streams: Vec<StreamInput> = (0..3).map(|i| stream(i, 0.5, &retrain, &infer)).collect();
        let coarse = thief_schedule(
            &streams,
            200.0,
            &SchedulerParams { delta: 1.0, ..SchedulerParams::new(2.0) },
        );
        let fine = thief_schedule(
            &streams,
            200.0,
            &SchedulerParams { delta: 0.1, ..SchedulerParams::new(2.0) },
        );
        assert!(fine.avg_accuracy >= coarse.avg_accuracy - 0.02);
        assert!(fine.evaluations >= coarse.evaluations);
    }

    #[test]
    fn schedule_is_deterministic() {
        let infer = infer_profiles();
        let retrain = vec![retrain_profile(10, 1.0, 5.0, 0.5, 0.9)];
        let streams: Vec<StreamInput> = (0..3).map(|i| stream(i, 0.5, &retrain, &infer)).collect();
        let params = SchedulerParams::new(2.0);
        let a = thief_schedule(&streams, 200.0, &params);
        let b = thief_schedule(&streams, 200.0, &params);
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn a_min_floor_prefers_compliant_config() {
        // With serving accuracy 0.5 and a_min 0.4, full-quality inference
        // (af = 1.0) meets the floor while heavy subsampling (af ~ 0.6)
        // would not; the picked config must meet the floor when feasible.
        let infer = infer_profiles();
        let retrain: Vec<RetrainProfile> = vec![];
        let streams = vec![stream(0, 0.5, &retrain, &infer)];
        let s = thief_schedule(&streams, 200.0, &SchedulerParams::new(2.0));
        let idx = s.decisions[0].infer_profile_idx.unwrap();
        let af = infer[idx].accuracy_factor;
        assert!(0.5 * af >= 0.4 - 1e-9, "picked config violates a_min: af = {af}");
    }

    #[test]
    fn objective_score_mean_vs_maxmin() {
        let accs = [0.9, 0.3, 0.6];
        let mean = SchedulerObjective::Mean.score(&accs);
        assert!((mean - 0.6).abs() < 1e-12);
        let mm = SchedulerObjective::MaxMin.score(&accs);
        assert!((mm - (0.3 + 1e-3 * 0.6)).abs() < 1e-12);
        assert_eq!(SchedulerObjective::Mean.score(&[]), 0.0);
    }

    #[test]
    fn maxmin_objective_lifts_the_worst_stream() {
        // One stream with a huge retraining gain, one with a moderate one.
        // The mean objective concentrates on the big win; max-min must not
        // leave the weaker stream starved.
        let infer = infer_profiles();
        let big_gain = vec![retrain_profile(10, 1.0, 6.0, 0.30, 0.95)];
        let small_gain = vec![retrain_profile(10, 1.0, 6.0, 0.55, 0.70)];
        let streams =
            vec![stream(0, 0.30, &big_gain, &infer), stream(1, 0.55, &small_gain, &infer)];
        let mean_params = SchedulerParams::new(2.0);
        let mm_params =
            SchedulerParams { objective: SchedulerObjective::MaxMin, ..SchedulerParams::new(2.0) };
        let mean_sched = thief_schedule(&streams, 200.0, &mean_params);
        let mm_sched = thief_schedule(&streams, 200.0, &mm_params);
        let min_of = |s: &Schedule| {
            s.decisions.iter().map(|d| d.estimate.avg_accuracy).fold(f64::INFINITY, f64::min)
        };
        assert!(
            min_of(&mm_sched) >= min_of(&mean_sched) - 1e-9,
            "max-min should not have a worse minimum: {:.3} vs {:.3}",
            min_of(&mm_sched),
            min_of(&mean_sched)
        );
    }

    #[test]
    fn maxmin_never_exceeds_mean_on_mean_metric() {
        let infer = infer_profiles();
        let retrain = vec![retrain_profile(10, 1.0, 5.0, 0.5, 0.9)];
        let streams: Vec<StreamInput> =
            (0..3).map(|i| stream(i, 0.4 + 0.1 * i as f64, &retrain, &infer)).collect();
        let mean_sched = thief_schedule(&streams, 200.0, &SchedulerParams::new(2.0));
        let mm_sched = thief_schedule(
            &streams,
            200.0,
            &SchedulerParams { objective: SchedulerObjective::MaxMin, ..SchedulerParams::new(2.0) },
        );
        // The mean objective is by definition at least as good on mean
        // accuracy (both searched from the same start).
        assert!(mean_sched.avg_accuracy >= mm_sched.avg_accuracy - 0.02);
    }

    /// The search as it stood before it went incremental: every steal attempt
    /// clones the allocation and re-walks all n streams through one memo.
    /// Kept verbatim as the oracle of [`thief_matches_reference`].
    fn thief_schedule_reference(
        streams: &[StreamInput<'_>],
        horizon_secs: f64,
        params: &SchedulerParams,
    ) -> Schedule {
        let n = streams.len();
        if n == 0 {
            return Schedule { decisions: Vec::new(), avg_accuracy: 0.0, evaluations: 0 };
        }
        assert!(params.total_gpus > 0.0, "need at least some GPU");
        assert!(params.granularity > 0.0, "granularity must be positive");

        // Allocations are tracked in exact milli-GPU units: Algorithm 1 starts
        // from the *exact* fair share (line 2) and only the stealing moves in
        // Δ quanta. Flooring the fair share to Δ multiples would start some
        // jobs at zero whenever jobs outnumber G/Δ — a regime the paper's
        // evaluation exercises routinely (10 streams on 1 GPU).
        const MILLI: f64 = 1e-3;
        // Floor, not round: rounding up would let the integer representation
        // exceed a fractional GPU budget by up to half a milli-GPU.
        let units_total = (params.total_gpus / MILLI).floor().max(1.0) as i64;
        let delta_units = ((params.delta / MILLI).round() as i64).max(1);
        let num_jobs = 2 * n; // job 2i = inference, job 2i+1 = training

        // Fair initial allocation (Algorithm 1, line 2): equal units per job,
        // remainder spread round-robin.
        let mut alloc: Vec<i64> = vec![units_total / num_jobs as i64; num_jobs];
        for extra in alloc.iter_mut().take((units_total % num_jobs as i64) as usize) {
            *extra += 1;
        }

        // Cache of per-stream evaluations keyed by (stream, infer, train units)
        // — each steal touches two jobs, so most streams are unchanged.
        let mut cache: BTreeMap<(usize, i64, i64), StreamEval> = BTreeMap::new();
        let mut evaluations = 0usize;

        let gran = MILLI;
        // `evaluate` returns (per-stream evals, objective score, mean
        // accuracy); the thief compares scores, the schedule reports the mean.
        let evaluate = |alloc: &[i64],
                        cache: &mut BTreeMap<(usize, i64, i64), StreamEval>,
                        evals: &mut usize|
         -> (Vec<StreamEval>, f64, f64) {
            let mut evals_out = Vec::with_capacity(n);
            let mut per_stream = Vec::with_capacity(n);
            for (s, stream) in streams.iter().enumerate() {
                let iu = alloc[2 * s];
                let tu = alloc[2 * s + 1];
                let eval = cache
                    .entry((s, iu, tu))
                    .or_insert_with(|| {
                        *evals += 1;
                        pick_configs_for_stream(
                            stream,
                            tu as f64 * gran,
                            iu as f64 * gran,
                            horizon_secs,
                            params.lookahead_windows,
                            &params.estimate,
                        )
                    })
                    .clone();
                per_stream.push(eval.estimate.avg_accuracy);
                evals_out.push(eval);
            }
            let mean = per_stream.iter().sum::<f64>() / n as f64;
            (evals_out, params.objective.score(&per_stream), mean)
        };

        let (mut best_evals, mut best_score, mut best_mean) =
            evaluate(&alloc, &mut cache, &mut evaluations);
        let mut best_alloc = alloc;

        // Thief resource stealing (Algorithm 1, lines 4-20).
        for thief in 0..num_jobs {
            for victim in 0..num_jobs {
                if thief == victim {
                    continue;
                }
                let mut temp = best_alloc.clone();
                loop {
                    // Steal a partial quantum when the victim holds less than
                    // Δ: under contention the fair share starts *below* Δ
                    // (e.g. 10 streams on 1 GPU ⇒ 0.05/job), and refusing
                    // sub-Δ steals would freeze Algorithm 1 at the fair
                    // allocation — unable to ever pause one stream's
                    // retraining to let another's complete, which is the
                    // scheduler's entire job in that regime.
                    let steal = delta_units.min(temp[victim]);
                    if steal <= 0 {
                        break;
                    }
                    temp[victim] -= steal;
                    temp[thief] += steal;
                    let (evals, score, mean) = evaluate(&temp, &mut cache, &mut evaluations);
                    if score > best_score + 1e-12 {
                        // Logical-plane telemetry: an *accepted* steal with its
                        // before/after quanta. Allocations are exact integer
                        // units and the search is sequential, so the event
                        // stream is a pure function of the inputs.
                        if ekya_telemetry::enabled() {
                            ekya_telemetry::event(
                                "core.scheduler",
                                "steal",
                                &format!(
                                    "thief={thief} victim={victim} units={steal} \
                                     thief_units={}->{} victim_units={}->{}",
                                    temp[thief] - steal,
                                    temp[thief],
                                    temp[victim] + steal,
                                    temp[victim]
                                ),
                            );
                        }
                        best_alloc = temp.clone();
                        best_score = score;
                        best_mean = mean;
                        best_evals = evals;
                    } else {
                        break;
                    }
                }
            }
        }

        let decisions = streams
            .iter()
            .zip(best_evals)
            .enumerate()
            .map(|(s, (stream, eval))| StreamDecision {
                id: stream.id,
                retrain: eval.retrain,
                train_gpus: best_alloc[2 * s + 1] as f64 * gran,
                infer_profile_idx: eval.infer_profile_idx,
                infer_gpus: best_alloc[2 * s] as f64 * gran,
                estimate: eval.estimate,
            })
            .collect();

        if ekya_telemetry::enabled() {
            ekya_telemetry::counter_add("core.scheduler", "evaluations", evaluations as u64);
            ekya_telemetry::span(
                "core.scheduler",
                "thief_schedule",
                evaluations as f64,
                &format!("streams={n} avg_accuracy={best_mean:.6}"),
            );
        }

        Schedule { decisions, avg_accuracy: best_mean, evaluations }
    }

    /// One randomised scheduling instance; `streams` borrows from it.
    struct Instance {
        infer: Vec<InferenceProfile>,
        retrain: Vec<Vec<RetrainProfile>>,
        serving: Vec<f64>,
        in_progress: Vec<Option<InProgressRetrain>>,
        params: SchedulerParams,
    }

    impl Instance {
        fn streams(&self) -> Vec<StreamInput<'_>> {
            (0..self.serving.len())
                .map(|s| StreamInput {
                    in_progress: self.in_progress[s].clone(),
                    ..stream(s as u32, self.serving[s], &self.retrain[s], &self.infer)
                })
                .collect()
        }
    }

    /// Draws an instance whose inference demand and retraining cost are
    /// scaled to the per-stream GPU share, so that steals are accepted at
    /// every budget from a few milli-GPUs to ample.
    fn arb_instance(rng: &mut StdRng) -> Instance {
        let log_uniform =
            |rng: &mut StdRng, lo: f64, hi: f64| (rng.gen_range(lo.ln()..hi.ln())).exp();
        let n = rng.gen_range(1usize..=24);
        // Half the budgets are scarce, reaching below 0.05 GPU so that
        // `units_total < 2n` occurs at n <= 24.
        let total_gpus =
            if rng.gen_bool(0.5) { rng.gen_range(0.05..8.0) } else { log_uniform(rng, 0.004, 0.5) };
        let share = total_gpus / n as f64;
        let fps = 30.0 * share / 0.25 * log_uniform(rng, 0.05, 4.0);
        let infer =
            build_inference_profiles(&CostModel::default(), 1.0, fps, &default_inference_grid());
        let mut retrain = Vec::new();
        let mut serving = Vec::new();
        let mut in_progress = Vec::new();
        for _ in 0..n {
            let start = rng.gen_range(0.2..0.9);
            let profiles: Vec<RetrainProfile> = (0..rng.gen_range(0usize..=4))
                .map(|_| {
                    let epochs = [3u32, 10, 30][rng.gen_range(0usize..3)];
                    let data_fraction = [0.2f64, 0.5, 1.0][rng.gen_range(0usize..3)];
                    let gpu_seconds = share * 200.0 * log_uniform(rng, 0.02, 3.0);
                    let mut p = retrain_profile(
                        epochs,
                        data_fraction,
                        gpu_seconds / epochs as f64,
                        start,
                        rng.gen_range(0.5..0.98),
                    );
                    p.curve.a = rng.gen_range(0.5..1.5);
                    p
                })
                .collect();
            in_progress.push(profiles.first().filter(|_| rng.gen_bool(0.2)).map(|p| {
                let done = rng.gen_range(0.1..0.9);
                InProgressRetrain {
                    config: p.config,
                    curve: p.curve,
                    k_done: done * p.config.k_total(),
                    gpu_seconds_remaining: (1.0 - done) * p.total_gpu_seconds(),
                }
            }));
            retrain.push(profiles);
            serving.push(start);
        }
        let params = SchedulerParams {
            delta: [0.05, 0.1, 0.25, 1.0][rng.gen_range(0usize..4)],
            lookahead_windows: [0.0, 1.0, 3.7][rng.gen_range(0usize..3)],
            objective: if rng.gen_bool(0.5) {
                SchedulerObjective::Mean
            } else {
                SchedulerObjective::MaxMin
            },
            ..SchedulerParams::new(total_gpus)
        };
        Instance { infer, retrain, serving, in_progress, params }
    }

    #[test]
    fn thief_matches_reference() {
        // Regimes that must all occur: sub-Δ fair shares (partial steals),
        // jobs starting at zero units, ample GPUs — and the search must
        // actually move off the fair start, on the `replan` path too. The
        // steal caches must be exercised where they can go wrong: pairs
        // skipped as known losers, and entries an acceptance cleared from a
        // job it did not move (a sibling of the thief or the victim) that
        // were looked up again.
        let (mut sub_delta, mut zero_start, mut ample) = (0, 0, 0);
        let (mut moved, mut replans) = (0, 0);
        let (mut skips, mut sibling_refills) = (0, 0);
        for case in 0..600u64 {
            let mut rng = StdRng::seed_from_u64(0x7e1e ^ case.wrapping_mul(0x9E3779B97F4A7C15));
            let inst = arb_instance(&mut rng);
            let streams = inst.streams();
            let jobs = 2.0 * streams.len() as f64;
            let horizon = [200.0, 73.0][(case % 2) as usize];

            probe::start();
            let got = thief_schedule(&streams, horizon, &inst.params);
            let caches = probe::take();
            let want = thief_schedule_reference(&streams, horizon, &inst.params);
            assert_eq!(got, want, "case {case}: {:?}", inst.params);
            assert_eq!(got.avg_accuracy.to_bits(), want.avg_accuracy.to_bits(), "case {case}");

            let fair = inst.params.total_gpus / jobs;
            sub_delta += usize::from(fair < inst.params.delta);
            zero_start += usize::from(inst.params.total_gpus / 1e-3 < jobs);
            ample += usize::from(fair >= inst.params.delta);
            moved += usize::from(got.decisions.iter().any(|d| {
                (d.train_gpus - fair).abs() > 1.5e-3 || (d.infer_gpus - fair).abs() > 1.5e-3
            }));
            replans += usize::from(inst.in_progress.iter().any(Option::is_some));
            skips += usize::from(caches.skipped > 0);
            sibling_refills += usize::from(caches.sibling_refills > 0);
        }
        for (what, count) in [
            ("sub-delta fair share", sub_delta),
            ("zero-unit start", zero_start),
            ("ample GPUs", ample),
            ("moved off the fair start", moved),
            ("in-progress retrain", replans),
            ("known losers skipped", skips),
            ("sibling entries looked up again", sibling_refills),
        ] {
            assert!(count >= 60, "only {count} of 600 cases hit: {what}");
        }
    }

    #[test]
    fn thief_shortcut_decides_as_the_full_rescore() {
        // On `thief_matches_reference`'s 600 instances, every attempt the
        // mean net-gain shortcut rejects is one the full re-score rejects
        // too (attempts it lets through are re-scored in full), and a
        // `MaxMin` schedule never takes it.
        let (mut mean_rescores, mut mean_hopeless, mut maxmin_rescores) = (0, 0, 0);
        for case in 0..600u64 {
            let mut rng = StdRng::seed_from_u64(0x7e1e ^ case.wrapping_mul(0x9E3779B97F4A7C15));
            let inst = arb_instance(&mut rng);
            let streams = inst.streams();
            let horizon = [200.0, 73.0][(case % 2) as usize];
            probe::start();
            thief_schedule(&streams, horizon, &inst.params);
            let decisions = probe::take().rescores;
            for (attempt, &(hopeless, full_accepts)) in decisions.iter().enumerate() {
                assert!(
                    !(hopeless && full_accepts),
                    "case {case}, re-score {attempt}: the shortcut rejected a winning steal"
                );
            }
            let hopeless = decisions.iter().filter(|d| d.0).count();
            match inst.params.objective {
                SchedulerObjective::Mean => {
                    mean_rescores += decisions.len();
                    mean_hopeless += hopeless;
                }
                SchedulerObjective::MaxMin => {
                    assert_eq!(hopeless, 0, "case {case}: MaxMin took the mean shortcut");
                    maxmin_rescores += decisions.len();
                }
            }
        }
        // The checks above ran on both objectives, and the shortcut fired.
        assert!(maxmin_rescores >= 1000, "only {maxmin_rescores} MaxMin re-score decisions");
        assert!(
            mean_hopeless >= 1000 && mean_hopeless < mean_rescores,
            "shortcut took {mean_hopeless} of {mean_rescores} mean re-score decisions"
        );
    }

    #[test]
    fn mean_shortcut_is_safe_at_its_threshold() {
        // Gains a few ulps either side of the threshold, on random accuracy
        // vectors up to past the size where the threshold turns negative:
        // whenever the shortcut would reject, the in-order mean re-score
        // (exactly as the thief computes it) rejects too.
        let mut rng = StdRng::seed_from_u64(0x5c0e);
        let mut rejected = 0;
        for case in 0..20_000 {
            let n = if case % 4 == 0 { rng.gen_range(1..=1500) } else { rng.gen_range(1..=300) };
            let old: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(0.2) { 1.0 } else { rng.gen_range(0.0..=1.0) })
                .collect();
            let best = SchedulerObjective::Mean.score(&old);
            let below = mean_gain_hopeless_below(n);
            let (lo, hi) = {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                (a.min(b), a.max(b))
            };
            // Aim the net gain at the threshold, off by a few ulps.
            let ulps = rng.gen_range(-8i64..=8);
            let target = f64::from_bits((below.to_bits() as i64 + ulps) as u64);
            let mut new = old.clone();
            if lo == hi {
                new[lo] = (old[lo] + target).clamp(0.0, 1.0);
            } else {
                let split = rng.gen_range(0.0..=1.0);
                new[lo] = (old[lo] + target * split + 0.3).clamp(0.0, 1.0);
                new[hi] = (old[hi] + (target - (new[lo] - old[lo]))).clamp(0.0, 1.0);
            }
            let gain = (new[lo] - old[lo]) + if hi == lo { 0.0 } else { new[hi] - old[hi] };
            if gain < below {
                rejected += 1;
                let score = SchedulerObjective::Mean.score(&new);
                assert!(
                    score <= best + 1e-12,
                    "case {case}: n {n}, gain {gain:e} < {below:e} but {score} beats {best}"
                );
            }
        }
        assert!(rejected >= 5_000, "only {rejected} of 20000 cases reached the shortcut");
    }
}
