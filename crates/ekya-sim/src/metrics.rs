//! Accuracy timelines and run reports.
//!
//! The paper's objective is *inference accuracy averaged over the
//! retraining window* (§4.1). During execution the per-stream inference
//! accuracy is a step function of time — it changes when the serving
//! model is hot-swapped, when the inference configuration changes, and at
//! window boundaries — so the measurement side is a step-function
//! [`Timeline`] integrated per window.

use ekya_core::{InferenceConfig, RetrainConfig};
use ekya_video::StreamId;
use serde::{Deserialize, Serialize};

/// A right-continuous step function of time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// `(t, value)` change points, strictly increasing in `t`.
    points: Vec<(f64, f64)>,
}

impl Timeline {
    /// Creates a timeline with value `v0` from time `t0`.
    pub fn new(t0: f64, v0: f64) -> Self {
        Self { points: vec![(t0, v0)] }
    }

    /// Sets the value from time `t` until the next (later) change point.
    /// Appending in time order is O(1); setting at an existing time
    /// overwrites; an earlier-than-last time inserts in order (this
    /// happens when a clamped-to-window-end event is followed by an
    /// earlier-timestamped update).
    pub fn set(&mut self, t: f64, v: f64) {
        match self
            .points
            .binary_search_by(|p| p.0.partial_cmp(&t).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) => self.points[i].1 = v,
            Err(i) => {
                // Overwrite near-identical timestamps instead of stacking.
                if i > 0 && (self.points[i - 1].0 - t).abs() < 1e-12 {
                    self.points[i - 1].1 = v;
                } else {
                    self.points.insert(i, (t, v));
                }
            }
        }
    }

    /// The value at time `t` (the value of the last change point ≤ `t`;
    /// the initial value for earlier times).
    pub fn value_at(&self, t: f64) -> f64 {
        let mut v = self.points.first().map(|p| p.1).unwrap_or(0.0);
        for &(pt, pv) in &self.points {
            if pt <= t + 1e-12 {
                v = pv;
            } else {
                break;
            }
        }
        v
    }

    /// Time-average over `[t0, t1]`.
    pub fn average(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return self.value_at(t0);
        }
        let mut integral = 0.0;
        let mut cur_t = t0;
        let mut cur_v = self.value_at(t0);
        for &(pt, pv) in &self.points {
            if pt <= t0 {
                continue;
            }
            if pt >= t1 {
                break;
            }
            integral += (pt - cur_t) * cur_v;
            cur_t = pt;
            cur_v = pv;
        }
        integral += (t1 - cur_t) * cur_v;
        integral / (t1 - t0)
    }

    /// Minimum value attained in `[t0, t1]`.
    pub fn min_over(&self, t0: f64, t1: f64) -> f64 {
        let mut min = self.value_at(t0);
        for &(pt, pv) in &self.points {
            if pt > t0 && pt < t1 {
                min = min.min(pv);
            }
        }
        min
    }

    /// The raw change points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

/// Measured outcome for one stream in one window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamWindowReport {
    /// Stream identity.
    pub id: StreamId,
    /// Measured inference accuracy averaged over the window (ground
    /// truth) — the paper's metric.
    pub avg_accuracy: f64,
    /// Minimum instantaneous inference accuracy in the window.
    pub min_accuracy: f64,
    /// Serving-model accuracy on this window's data at window start
    /// (after drift, before any retraining).
    pub start_model_accuracy: f64,
    /// Serving-model accuracy at window end.
    pub end_model_accuracy: f64,
    /// Whether a retraining ran this window.
    pub retrained: bool,
    /// The retraining configuration, when one ran.
    pub retrain_config: Option<RetrainConfig>,
    /// Whether the retraining completed within the window.
    pub retrain_completed: bool,
    /// GPUs allocated to retraining (at window start).
    pub train_gpus: f64,
    /// GPUs allocated to inference (at window start).
    pub infer_gpus: f64,
    /// Inference configuration in effect at window start.
    pub infer_config: InferenceConfig,
    /// GPU-seconds spent micro-profiling for this stream.
    pub profiling_gpu_seconds: f64,
    /// GPU-seconds of retraining work discarded at the window boundary
    /// (incomplete retraining — a pathology of fixed-config baselines).
    pub wasted_gpu_seconds: f64,
    /// The full inference-accuracy timeline (window-relative seconds).
    pub timeline: Vec<(f64, f64)>,
}

/// Outcome of one retraining window across all streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window index.
    pub window_idx: usize,
    /// Per-stream outcomes.
    pub streams: Vec<StreamWindowReport>,
}

impl WindowReport {
    /// Mean measured accuracy across streams.
    pub fn mean_accuracy(&self) -> f64 {
        if self.streams.is_empty() {
            return 0.0;
        }
        self.streams.iter().map(|s| s.avg_accuracy).sum::<f64>() / self.streams.len() as f64
    }
}

/// Outcome of a full multi-window run under one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Per-window reports.
    pub windows: Vec<WindowReport>,
}

impl RunReport {
    /// The headline metric: accuracy averaged over windows and streams.
    pub fn mean_accuracy(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        self.windows.iter().map(WindowReport::mean_accuracy).sum::<f64>()
            / self.windows.len() as f64
    }

    /// Fraction of stream-windows in which retraining ran.
    pub fn retrain_rate(&self) -> f64 {
        let total: usize = self.windows.iter().map(|w| w.streams.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let retrained: usize =
            self.windows.iter().flat_map(|w| &w.streams).filter(|s| s.retrained).count();
        retrained as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_average_of_constant() {
        let t = Timeline::new(0.0, 0.5);
        assert!((t.average(0.0, 10.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn timeline_average_of_step() {
        let mut t = Timeline::new(0.0, 0.4);
        t.set(50.0, 0.8);
        // 50 s at 0.4, 150 s at 0.8 over [0, 200].
        let expected = (50.0 * 0.4 + 150.0 * 0.8) / 200.0;
        assert!((t.average(0.0, 200.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn timeline_value_at() {
        let mut t = Timeline::new(0.0, 0.1);
        t.set(5.0, 0.2);
        t.set(10.0, 0.3);
        assert_eq!(t.value_at(0.0), 0.1);
        assert_eq!(t.value_at(4.9), 0.1);
        assert_eq!(t.value_at(5.0), 0.2);
        assert_eq!(t.value_at(100.0), 0.3);
    }

    #[test]
    fn timeline_out_of_order_insert() {
        let mut t = Timeline::new(0.0, 0.1);
        t.set(10.0, 0.5);
        t.set(5.0, 0.3); // earlier than the last point: ordered insert
        assert_eq!(t.value_at(4.0), 0.1);
        assert_eq!(t.value_at(6.0), 0.3);
        assert_eq!(t.value_at(11.0), 0.5);
        let expected = (5.0 * 0.1 + 5.0 * 0.3 + 10.0 * 0.5) / 20.0;
        assert!((t.average(0.0, 20.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn timeline_overwrite_at_same_time() {
        let mut t = Timeline::new(0.0, 0.1);
        t.set(5.0, 0.2);
        t.set(5.0, 0.9);
        assert_eq!(t.value_at(6.0), 0.9);
        assert_eq!(t.points().len(), 2);
    }

    #[test]
    fn timeline_min_over() {
        let mut t = Timeline::new(0.0, 0.6);
        t.set(10.0, 0.3);
        t.set(20.0, 0.9);
        assert!((t.min_over(0.0, 30.0) - 0.3).abs() < 1e-12);
        assert!((t.min_over(20.0, 30.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn timeline_partial_range_average() {
        let mut t = Timeline::new(0.0, 1.0);
        t.set(10.0, 0.0);
        assert!((t.average(5.0, 15.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_average_range() {
        let t = Timeline::new(0.0, 0.7);
        assert_eq!(t.average(5.0, 5.0), 0.7);
    }

    fn mk_report_for(id: u32, acc: f64) -> StreamWindowReport {
        StreamWindowReport {
            id: StreamId(id),
            avg_accuracy: acc,
            min_accuracy: acc,
            start_model_accuracy: acc,
            end_model_accuracy: acc,
            retrained: false,
            retrain_config: None,
            retrain_completed: false,
            train_gpus: 0.0,
            infer_gpus: 1.0,
            infer_config: InferenceConfig { frame_sampling: 1.0, resolution: 1.0 },
            profiling_gpu_seconds: 0.0,
            wasted_gpu_seconds: 0.0,
            timeline: vec![(0.0, acc)],
        }
    }

    #[test]
    fn run_report_aggregates() {
        let report = RunReport {
            policy: "test".into(),
            windows: vec![
                WindowReport {
                    window_idx: 0,
                    streams: vec![mk_report_for(0, 0.6), mk_report_for(1, 0.8)],
                },
                WindowReport {
                    window_idx: 1,
                    streams: vec![mk_report_for(0, 0.7), mk_report_for(1, 0.9)],
                },
            ],
        };
        assert!((report.mean_accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(report.retrain_rate(), 0.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let report = RunReport { policy: "x".into(), windows: vec![] };
        assert_eq!(report.mean_accuracy(), 0.0);
        assert_eq!(report.retrain_rate(), 0.0);
    }
}
