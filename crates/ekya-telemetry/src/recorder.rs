//! The logical-plane recorder: context, emission, flush, merge,
//! validate.
//!
//! One global session per process (bins run one workload per process;
//! in-process tests serialize sessions themselves). Records buffer in
//! memory; [`flush`] sorts them globally and rewrites the whole file
//! atomically (tmp sibling + rename), so a process killed mid-window
//! leaves the *previous* flush — a valid, window-boundary-truncated
//! trace — on disk, exactly like the daemon's status snapshots.
//!
//! Determinism rules enforced here:
//! * counters are `u64` and histograms are `u64` bucket arrays, so
//!   aggregation is commutative and worker count cannot change a byte;
//! * span/event order is recovered by a global sort over logical
//!   coordinates plus a per-context sequence number (reset on every
//!   context push — a logical scope runs on one thread, so its sequence
//!   is schedule-independent);
//! * nothing in this module reads the clock; wall-clock sampling lives
//!   in [`crate::timing`] and writes to a sidecar, never to the JSONL.

use crate::hist::{bucket_of, HIST_BUCKETS};
use crate::record::TraceRecord;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Whether a session is active. Relaxed is sufficient: the flag only
/// gates emission, and session start/stop happen-before any traced work
/// through the state mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Aggregation key for counters and histograms: (layer, name, window,
/// stream, cell, shard, model_version).
type AggKey = (String, String, i64, i64, String, i64, i64);

struct State {
    path: Option<PathBuf>,
    records: Vec<TraceRecord>,
    counters: BTreeMap<AggKey, u64>,
    hists: BTreeMap<AggKey, (u64, Vec<u64>)>,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

thread_local! {
    static CTX: RefCell<(Ctx, u64)> = RefCell::new((Ctx::default(), 0));
}

/// The logical coordinates every emission is stamped with. Thread-local
/// and scoped: [`Ctx::enter`] installs a context (resetting the
/// sequence counter) and returns a guard that restores the previous one
/// on drop.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctx {
    /// Logical window index (`-1` outside a window).
    pub window: i64,
    /// Stream id (`-1` when not stream-scoped).
    pub stream: i64,
    /// Cell fingerprint (empty when not cell-scoped).
    pub cell: String,
    /// Logical shard id (`-1` when not shard-scoped).
    pub shard: i64,
    /// Serving-model version (`-1` when not model-scoped).
    pub model_version: i64,
}

impl Default for Ctx {
    fn default() -> Self {
        Self { window: -1, stream: -1, cell: String::new(), shard: -1, model_version: -1 }
    }
}

impl Ctx {
    /// Snapshot of the calling thread's current context — the base to
    /// refine with the builder methods below.
    pub fn current() -> Self {
        CTX.with(|c| c.borrow().0.clone())
    }

    /// Sets the window index.
    pub fn window(mut self, w: i64) -> Self {
        self.window = w;
        self
    }

    /// Sets the stream id.
    pub fn stream(mut self, s: i64) -> Self {
        self.stream = s;
        self
    }

    /// Sets the cell fingerprint.
    pub fn cell(mut self, c: impl Into<String>) -> Self {
        self.cell = c.into();
        self
    }

    /// Sets the logical shard id.
    pub fn shard(mut self, s: i64) -> Self {
        self.shard = s;
        self
    }

    /// Sets the model version.
    pub fn model_version(mut self, v: i64) -> Self {
        self.model_version = v;
        self
    }

    /// Installs this context on the calling thread and resets its
    /// sequence counter; the previous context (and its counter) are
    /// restored when the guard drops.
    pub fn enter(self) -> CtxGuard {
        CTX.with(|c| {
            let mut cur = c.borrow_mut();
            let prev = std::mem::replace(&mut *cur, (self, 0));
            CtxGuard { prev: Some(prev) }
        })
    }
}

/// Restores the previously installed [`Ctx`] (and its sequence counter)
/// on drop.
pub struct CtxGuard {
    prev: Option<(Ctx, u64)>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CTX.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Whether a trace session is active. Instrumentation hooks branch on
/// this first; when it is false (the default) an instrumented call
/// costs one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a session: clears all buffered state (both planes) and
/// enables emission. `path` is where [`flush`] writes the logical JSONL
/// (`None` buffers in memory only — the in-process test mode; use
/// [`render`] to read it back).
pub fn start(path: Option<PathBuf>) {
    let mut st = crate::lock(&STATE);
    *st = Some(State {
        path,
        records: Vec::new(),
        counters: BTreeMap::new(),
        hists: BTreeMap::new(),
    });
    crate::timing::reset();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Ends the session and discards all buffered state. Does *not* flush —
/// crash-consistency semantics are "what the last [`flush`] wrote".
pub fn stop() {
    ENABLED.store(false, Ordering::Relaxed);
    *crate::lock(&STATE) = None;
}

fn emit(record: TraceRecord) {
    let mut st = crate::lock(&STATE);
    if let Some(state) = st.as_mut() {
        state.records.push(record);
    }
}

fn stamp(kind: &str, layer: &str, name: &str, value: f64, detail: &str) -> TraceRecord {
    let (ctx, seq) = CTX.with(|c| {
        let mut cur = c.borrow_mut();
        let seq = cur.1;
        cur.1 += 1;
        (cur.0.clone(), seq)
    });
    TraceRecord {
        kind: kind.to_string(),
        layer: layer.to_string(),
        name: name.to_string(),
        window: ctx.window,
        stream: ctx.stream,
        cell: ctx.cell,
        shard: ctx.shard,
        model_version: ctx.model_version,
        seq,
        value,
        count: 0,
        detail: detail.to_string(),
        buckets: Vec::new(),
    }
}

/// Records a completed logical span. `value` must be deterministic
/// (derived from the workload/seed, never the clock) and finite.
pub fn span(layer: &str, name: &str, value: f64, detail: &str) {
    if !enabled() {
        return;
    }
    emit(stamp("span", layer, name, value, detail));
}

/// Records a point event with a deterministic `detail` payload.
pub fn event(layer: &str, name: &str, detail: &str) {
    if !enabled() {
        return;
    }
    emit(stamp("event", layer, name, 0.0, detail));
}

fn agg_key(layer: &str, name: &str) -> AggKey {
    let ctx = Ctx::current();
    (
        layer.to_string(),
        name.to_string(),
        ctx.window,
        ctx.stream,
        ctx.cell,
        ctx.shard,
        ctx.model_version,
    )
}

/// Adds to a `u64` counter under the current context. Addition is
/// commutative, so worker count cannot change the flushed total.
pub fn counter_add(layer: &str, name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let key = agg_key(layer, name);
    let mut st = crate::lock(&STATE);
    if let Some(state) = st.as_mut() {
        *state.counters.entry(key).or_insert(0) += n;
    }
}

/// Observes a value into a fixed-bucket histogram under the current
/// context (see [`crate::hist`] for the bucket ladder).
pub fn hist_observe(layer: &str, name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let key = agg_key(layer, name);
    let bucket = bucket_of(value);
    let mut st = crate::lock(&STATE);
    if let Some(state) = st.as_mut() {
        let (count, buckets) =
            state.hists.entry(key).or_insert_with(|| (0, vec![0u64; HIST_BUCKETS]));
        *count += 1;
        buckets[bucket] += 1;
    }
}

fn aggregate_records(state: &State) -> Vec<TraceRecord> {
    let mut out = state.records.clone();
    for ((layer, name, window, stream, cell, shard, model_version), total) in &state.counters {
        out.push(TraceRecord {
            kind: "counter".to_string(),
            layer: layer.clone(),
            name: name.clone(),
            window: *window,
            stream: *stream,
            cell: cell.clone(),
            shard: *shard,
            model_version: *model_version,
            seq: 0,
            value: 0.0,
            count: *total,
            detail: String::new(),
            buckets: Vec::new(),
        });
    }
    for ((layer, name, window, stream, cell, shard, model_version), (count, buckets)) in
        &state.hists
    {
        out.push(TraceRecord {
            kind: "hist".to_string(),
            layer: layer.clone(),
            name: name.clone(),
            window: *window,
            stream: *stream,
            cell: cell.clone(),
            shard: *shard,
            model_version: *model_version,
            seq: 0,
            value: 0.0,
            count: *count,
            detail: String::new(),
            buckets: buckets.clone(),
        });
    }
    out
}

/// [`TraceRecord::sort_key`]'s shape, named for clippy's sake.
type SortKey = (i64, i64, String, i64, String, String, String, u64);
/// [`TraceRecord::merge_key`]'s shape.
type MergeKey = (String, String, String, i64, i64, String, i64, i64);

fn render_records(records: Vec<TraceRecord>) -> String {
    let mut lines: Vec<(SortKey, String)> = records
        .into_iter()
        .map(|r| {
            let line = serde_json::to_string(&r).expect("trace record serializes (finite floats)");
            (r.sort_key(), line)
        })
        .collect();
    // Primary: logical coordinates. Final tiebreak: the serialized line
    // itself, making the order total even for duplicate records.
    lines.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut out = String::new();
    for (_, line) in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The session's logical plane as sorted JSONL bytes — exactly what
/// [`flush`] writes. Empty string when no session is active.
pub fn render() -> String {
    let st = crate::lock(&STATE);
    match st.as_ref() {
        Some(state) => render_records(aggregate_records(state)),
        None => String::new(),
    }
}

/// Atomic write: tmp sibling + rename, the same pattern as the
/// harness's checkpoints and the daemon's status snapshots, so a kill
/// between flushes never leaves a torn file.
fn write_atomic(path: &Path, bytes: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Flushes the session: sorts and rewrites the complete logical JSONL
/// at the session path (no-op on in-memory sessions), plus the
/// wall-plane sidecar (`<path>.wall.json` — never part of any
/// byte-identity check). Call at every consistency boundary (end of
/// run; end of every daemon window): the file on disk is then always a
/// valid trace truncated at the last boundary, whatever kills the
/// process afterwards.
pub fn flush() -> std::io::Result<()> {
    let (bytes, path) = {
        let st = crate::lock(&STATE);
        match st.as_ref() {
            Some(state) => (render_records(aggregate_records(state)), state.path.clone()),
            None => return Ok(()),
        }
    };
    if let Some(path) = path {
        write_atomic(&path, &bytes)?;
        let wall = crate::timing::sidecar_json();
        let wall_path = path.with_extension("wall.json");
        std::fs::write(wall_path, wall)?;
    }
    Ok(())
}

/// Parses a logical-plane JSONL string back into records. Errors name
/// the offending line.
pub fn parse_trace(jsonl: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let rec: TraceRecord =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

/// Merges shard traces into the trace the unsharded run would have
/// written: `counter`/`hist` records with the same [`TraceRecord::merge_key`]
/// sum (totals and bucket arrays), `span`/`event` records concatenate,
/// and the union re-sorts. Because cell records carry the cell's
/// identity and never its executing shard, merging the shard traces of
/// a split grid reproduces the serial trace byte for byte.
pub fn merge_traces(parts: &[&str]) -> Result<String, String> {
    let mut spans = Vec::new();
    let mut aggs: BTreeMap<MergeKey, TraceRecord> = BTreeMap::new();
    for part in parts {
        for rec in parse_trace(part)? {
            match rec.kind.as_str() {
                "counter" | "hist" => {
                    let key = rec.merge_key();
                    match aggs.get_mut(&key) {
                        Some(acc) => {
                            acc.count += rec.count;
                            if acc.buckets.len() != rec.buckets.len() {
                                return Err(format!(
                                    "histogram {}/{} bucket arity mismatch",
                                    rec.layer, rec.name
                                ));
                            }
                            for (a, b) in acc.buckets.iter_mut().zip(rec.buckets.iter()) {
                                *a += b;
                            }
                        }
                        None => {
                            aggs.insert(key, rec);
                        }
                    }
                }
                _ => spans.push(rec),
            }
        }
    }
    spans.extend(aggs.into_values());
    Ok(render_records(spans))
}

/// Checks a logical-plane trace's internal consistency; returns every
/// violated invariant (empty means valid). This is the contract the
/// killed-daemon test holds a recovered trace to: whatever window the
/// process died in, the last flushed trace must be a well-formed,
/// window-contiguous prefix of the run.
pub fn validate_trace(jsonl: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let records = match parse_trace(jsonl) {
        Ok(r) => r,
        Err(e) => return vec![format!("unparseable trace: {e}")],
    };
    let rerendered = render_records(records.clone());
    if rerendered != jsonl {
        errs.push("trace is not in canonical sorted form".to_string());
    }
    let mut windows = std::collections::BTreeSet::new();
    for (i, r) in records.iter().enumerate() {
        let tag = format!("record {}", i + 1);
        match r.kind.as_str() {
            "span" | "event" | "counter" | "hist" => {}
            other => errs.push(format!("{tag}: unknown kind `{other}`")),
        }
        if r.kind == "hist" && r.buckets.len() != HIST_BUCKETS {
            errs.push(format!(
                "{tag}: hist has {} buckets, expected {HIST_BUCKETS}",
                r.buckets.len()
            ));
        }
        if r.kind != "hist" && !r.buckets.is_empty() {
            errs.push(format!("{tag}: non-hist record carries buckets"));
        }
        if r.kind == "hist" && r.count != r.buckets.iter().sum::<u64>() {
            errs.push(format!("{tag}: hist count does not equal bucket sum"));
        }
        if r.window < -1 {
            errs.push(format!("{tag}: window {} below -1", r.window));
        }
        if !r.value.is_finite() {
            errs.push(format!("{tag}: non-finite value"));
        }
        if r.window >= 0 {
            windows.insert(r.window);
        }
    }
    // Window-contiguity: a trace truncated at a flush boundary covers
    // windows 0..=max with no holes.
    if let (Some(&min), Some(&max)) = (windows.iter().next(), windows.iter().last()) {
        if min != 0 {
            errs.push(format!("first window is {min}, expected 0"));
        }
        if windows.len() as i64 != max - min + 1 {
            errs.push("window indices are not contiguous".to_string());
        }
    }
    errs
}

/// Sessions are process-global; tests that open one serialize here.
#[cfg(test)]
pub(crate) static SESSION_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_workload(tag: &str) {
        let _w = Ctx::current().window(0).enter();
        {
            let _s = Ctx::current().stream(3).enter();
            span("test.layer", "work", 2.5, tag);
            event("test.layer", "tick", "first");
            event("test.layer", "tick", "second");
        }
        counter_add("test.layer", "items", 4);
        counter_add("test.layer", "items", 3);
        hist_observe("test.layer", "cost", 0.5);
        hist_observe("test.layer", "cost", 700.0);
    }

    #[test]
    fn disabled_emission_is_a_noop() {
        let _l = crate::lock(&SESSION_TEST_LOCK);
        stop();
        assert!(!enabled());
        span("x", "y", 1.0, "");
        counter_add("x", "y", 1);
        assert_eq!(render(), "");
    }

    #[test]
    fn render_is_sorted_valid_and_repeatable() {
        let _l = crate::lock(&SESSION_TEST_LOCK);
        start(None);
        emit_workload("a");
        let first = render();
        stop();
        start(None);
        emit_workload("a");
        let second = render();
        stop();
        assert_eq!(first, second, "same workload, same bytes");
        assert!(!first.is_empty());
        assert_eq!(validate_trace(&first), Vec::<String>::new());
        // Round-trip: parse + re-render is the identity on canonical form.
        let parsed = parse_trace(&first).unwrap();
        assert_eq!(parsed.len(), first.lines().count());
    }

    #[test]
    fn context_guard_restores_and_resets_seq() {
        let _l = crate::lock(&SESSION_TEST_LOCK);
        start(None);
        {
            let _a = Ctx::current().window(1).enter();
            span("t", "outer", 0.0, "");
            {
                let _b = Ctx::current().stream(7).enter();
                span("t", "inner", 0.0, "");
            }
            span("t", "outer2", 0.0, "");
        }
        let records = parse_trace(&render()).unwrap();
        stop();
        let outer: Vec<_> = records.iter().filter(|r| r.stream == -1).collect();
        let inner: Vec<_> = records.iter().filter(|r| r.stream == 7).collect();
        assert_eq!(outer.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(inner[0].seq, 0, "nested scope restarts its sequence");
        assert!(records.iter().all(|r| r.window == 1));
    }

    #[test]
    fn counters_merge_commutatively_across_shard_traces() {
        let _l = crate::lock(&SESSION_TEST_LOCK);
        // Serial reference: the whole workload in one session.
        start(None);
        emit_workload("a");
        emit_workload("b");
        let serial = render();
        stop();
        // Two "shards", each half the workload.
        start(None);
        emit_workload("a");
        let shard0 = render();
        stop();
        start(None);
        emit_workload("b");
        let shard1 = render();
        stop();
        let merged = merge_traces(&[&shard0, &shard1]).unwrap();
        assert_eq!(merged, serial, "shard union ≡ serial, byte for byte");
    }

    #[test]
    fn validate_catches_malformed_traces() {
        assert!(!validate_trace("not json\n").is_empty());
        // A hand-built record with a window hole.
        let r0 = r#"{"kind":"event","layer":"l","name":"n","window":0,"stream":-1,"cell":"","shard":-1,"model_version":-1,"seq":0,"value":0.0,"count":0,"detail":"","buckets":[]}"#;
        let r2 = r#"{"kind":"event","layer":"l","name":"n","window":2,"stream":-1,"cell":"","shard":-1,"model_version":-1,"seq":0,"value":0.0,"count":0,"detail":"","buckets":[]}"#;
        let trace = format!("{r0}\n{r2}\n");
        assert!(
            validate_trace(&trace).iter().any(|e| e.contains("contiguous")),
            "window hole must be reported"
        );
    }

    #[test]
    fn flush_writes_atomically_and_survives_reload() {
        let _l = crate::lock(&SESSION_TEST_LOCK);
        let dir = std::env::temp_dir().join("ekya_telemetry_test");
        let path = dir.join("trace.jsonl");
        start(Some(path.clone()));
        emit_workload("a");
        flush().unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, render());
        assert_eq!(validate_trace(&on_disk), Vec::<String>::new());
        assert!(path.with_extension("wall.json").exists(), "wall sidecar written");
        stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
