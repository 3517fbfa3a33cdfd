//! The wall-clock plane — the *only* sanctioned clock-reading module in
//! the telemetry layer.
//!
//! Everything here is quarantined by construction: wall readings
//! aggregate into process-global maps and serialize to a `.wall.json`
//! sidecar that no byte-identity check ever reads. Nothing in this
//! module can write into the logical JSONL. `ekya-lint`'s
//! `wallclock-in-cell` rule allowlists exactly this file; an
//! `Instant::now()` anywhere else in an instrumented hot path still
//! fails the lint.
//!
//! Aggregates (not raw samples) are kept on purpose: durations and
//! queue depths are noisy per-observation, and the sidecar is for
//! "where did the wall time go" questions, not for replay.
//!
//! One reading here steers behaviour rather than measuring it: a
//! [`Deadline`], the due time of a staged checkpoint reload. It decides
//! only *when* a model lands in serving, never *which* model a later
//! logical step reads, so it too stays on the wall plane.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A wall-clock instant by which something is due. Taken with
/// [`Deadline::now`] and moved with [`Deadline::after`]; ordering two
/// deadlines compares the instants, so `due <= now` means "due".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline(Instant);

impl Deadline {
    /// The current instant.
    pub fn now() -> Self {
        Self(Instant::now())
    }

    /// The deadline `by` later than this one.
    #[must_use]
    pub fn after(self, by: Duration) -> Self {
        Self(self.0 + by)
    }

    /// How far this instant is past `due`; zero when it is not past.
    pub fn past(self, due: Deadline) -> Duration {
        self.0.saturating_duration_since(due.0)
    }
}

/// Wall-duration aggregate for one (layer, name) span family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WallAgg {
    /// Completed spans.
    pub count: u64,
    /// Total duration, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

static SPANS: Mutex<BTreeMap<(&'static str, &'static str), WallAgg>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<(&'static str, &'static str), u64>> = Mutex::new(BTreeMap::new());

/// Clears all wall aggregates (called by [`crate::recorder::start`]).
pub fn reset() {
    crate::lock(&SPANS).clear();
    crate::lock(&GAUGES).clear();
}

/// A wall-clock span: measures from construction to drop and folds the
/// duration into the (layer, name) aggregate. When tracing is disabled
/// the constructor takes no clock reading and drop is a no-op.
pub struct WallSpan {
    start: Option<(Instant, &'static str, &'static str)>,
}

impl Drop for WallSpan {
    fn drop(&mut self) {
        if let Some((start, layer, name)) = self.start.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let mut spans = crate::lock(&SPANS);
            let agg = spans.entry((layer, name)).or_default();
            agg.count += 1;
            agg.total_ns += ns;
            agg.max_ns = agg.max_ns.max(ns);
        }
    }
}

/// Opens a wall-clock span. `layer`/`name` must be string literals —
/// the aggregate key is static so the hot path never allocates.
pub fn wall_span(layer: &'static str, name: &'static str) -> WallSpan {
    if !crate::recorder::enabled() {
        return WallSpan { start: None };
    }
    WallSpan { start: Some((Instant::now(), layer, name)) }
}

/// Records a high-water-mark gauge (e.g. queue depth): keeps the
/// maximum value observed for (layer, name) this session.
pub fn wall_gauge_max(layer: &'static str, name: &'static str, value: u64) {
    if !crate::recorder::enabled() {
        return;
    }
    let mut gauges = crate::lock(&GAUGES);
    let g = gauges.entry((layer, name)).or_insert(0);
    *g = (*g).max(value);
}

/// The wall-plane sidecar document: span aggregates and gauges as one
/// JSON object. Deliberately *not* deterministic — it reports this
/// run's wall time — which is exactly why it lives beside, never
/// inside, the fingerprinted trace.
pub fn sidecar_json() -> String {
    let spans = crate::lock(&SPANS);
    let gauges = crate::lock(&GAUGES);
    let mut out = String::from("{\n  \"wall_spans\": {");
    for (i, ((layer, name), agg)) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mean_ns = agg.total_ns.checked_div(agg.count).unwrap_or(0);
        out.push_str(&format!(
            "\n    \"{layer}/{name}\": {{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}}}",
            agg.count, agg.total_ns, mean_ns, agg.max_ns
        ));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, ((layer, name), v)) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{layer}/{name}\": {v}"));
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_take_no_reading() {
        let _l = crate::lock(&crate::recorder::SESSION_TEST_LOCK);
        crate::recorder::stop();
        reset();
        drop(wall_span("t", "noop"));
        wall_gauge_max("t", "depth", 9);
        assert!(crate::lock(&SPANS).is_empty());
        assert!(crate::lock(&GAUGES).is_empty());
    }

    #[test]
    fn deadlines_chain_order_and_measure_lateness() {
        let t0 = Deadline::now();
        let ms = Duration::from_millis;
        let due = t0.after(ms(5));
        assert!(t0 < due && due.after(ms(5)) == t0.after(ms(10)));
        assert_eq!(t0.after(Duration::ZERO), t0);
        assert_eq!(due.max(t0.after(ms(7))), t0.after(ms(7)));
        assert_eq!(t0.after(ms(8)).past(due), ms(3));
        assert_eq!(t0.past(due), Duration::ZERO, "an instant before its due time is not late");
    }

    #[test]
    fn enabled_spans_aggregate_and_render() {
        let _l = crate::lock(&crate::recorder::SESSION_TEST_LOCK);
        crate::recorder::start(None);
        drop(wall_span("t", "work"));
        drop(wall_span("t", "work"));
        wall_gauge_max("t", "depth", 3);
        wall_gauge_max("t", "depth", 11);
        wall_gauge_max("t", "depth", 5);
        let side = sidecar_json();
        crate::recorder::stop();
        assert!(side.contains("\"t/work\": {\"count\": 2"), "got: {side}");
        assert!(side.contains("\"t/depth\": 11"), "got: {side}");
        assert!(serde_json::from_str::<serde::Value>(&side).is_ok(), "sidecar is JSON");
    }
}
