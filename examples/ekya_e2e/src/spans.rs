//! The benchmark's own span recorder: one `{id, parent, name, start_ns,
//! end_ns}` record around every call into a layer of the program, kept in
//! memory and written out when the run ends. It lives on the benchmark
//! side on purpose — spans inside the program are a later change.
//!
//! The clock is read the same way whether recording is on or off, so a
//! timed call costs the same in `run` and `trace`; only the `Vec` push is
//! skipped when off.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has been opened and not yet closed.
pub struct Open {
    start: Instant,
    id: Option<usize>,
}

/// Per-name totals over all recorded spans.
pub struct LayerTotal {
    pub name: &'static str,
    pub calls: usize,
    pub total_ms: f64,
    /// Total minus the time covered by child spans.
    pub self_ms: f64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let id = self.on.then(|| {
            self.spans.push(Span {
                parent: self.stack.last().copied(),
                name,
                start_ns: 0,
                end_ns: 0,
            });
            let id = self.spans.len() - 1;
            self.stack.push(id);
            id
        });
        let start = Instant::now();
        if let Some(id) = id {
            self.spans[id].start_ns = (start - self.epoch).as_nanos() as u64;
        }
        Open { start, id }
    }

    /// Closes `open` (the innermost open span) and returns its seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(id) = open.id {
            assert_eq!(self.stack.pop(), Some(id), "spans must close innermost-first");
            self.spans[id].end_ns = self.spans[id].start_ns + elapsed.as_nanos() as u64;
        }
        elapsed.as_secs_f64()
    }

    /// Per-name call counts, total and self time, ordered by name.
    pub fn totals(&self) -> Vec<LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = by_name.entry(s.name).or_default();
            t.0 += 1;
            t.1 += dur;
            t.2 += dur.saturating_sub(children);
        }
        by_name
            .into_iter()
            .map(|(name, (calls, total, own))| LayerTotal {
                name,
                calls,
                total_ms: total as f64 / 1e6,
                self_ms: own as f64 / 1e6,
            })
            .collect()
    }

    /// All spans as a JSON array, in opening order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                if id + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        out
    }
}
