//! The sanctioned home of every environment read but `results_dir`'s:
//! the bin-specific knobs below, one accessor each, and the `var` and
//! `parse` readers [`crate::Knobs::from_env`] parses the shared grid
//! knobs with.
//!
//! Determinism contract: `plan.json` pins the environment a supervised
//! run executes under, and `ekya-lint`'s `ambient-env` rule forbids
//! `std::env::var` anywhere outside `results_dir` and this module — an
//! env read that lives here is documented, listed
//! in the operator guide's env-knob table (`crates/ekya-bench/README.md`;
//! the `knob_tables_match_the_env_reads` test fails when a knob and its
//! row drift apart), and therefore coverable by a plan. One accessor per
//! knob; callers never spell the variable name themselves.
//!
//! Unset or empty means unset, and a numeric knob that does not parse
//! stops the process naming the variable: a typo silently running the
//! default (or a fault-injection test passing vacuously) would be far
//! worse than failing fast.

use ekya_server::ArrivalPattern;

/// Reads knob `name`; unset or empty means `None`.
pub(crate) fn var(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

/// Parses knob `name`; unset or empty means `None`.
///
/// # Panics
/// On a value that does not parse, naming the variable and the value.
pub(crate) fn parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    var(name).map(|v| v.parse().unwrap_or_else(|_| panic!("{name}: cannot parse `{v}`")))
}

/// Reads a float environment knob (used by bin-specific knobs like
/// `EKYA_THRESHOLD`; the shared grid knobs all live in [`crate::Knobs`]),
/// `default` when unset or empty.
///
/// # Panics
/// On a malformed value, naming the variable.
pub fn env_f64(name: &str, default: f64) -> f64 {
    parse(name).unwrap_or(default)
}

/// `EKYA_ORCH_CRASH_AFTER` — fault injection for the orchestrator
/// tests: a grid bin aborts after executing this many cells, so
/// supervise/retry/resume paths can be exercised deterministically.
/// Unset (the production state) means never crash.
pub fn orch_crash_after() -> Option<usize> {
    parse("EKYA_ORCH_CRASH_AFTER")
}

/// `EKYA_STREAMS_LIVE` — fleet size for the serving-path bins
/// (`ekya_serve`, `ekya_loadgen`): how many concurrent camera streams
/// the daemon admits. Unset means each bin's documented default.
pub fn streams_live() -> Option<usize> {
    parse("EKYA_STREAMS_LIVE")
}

/// `EKYA_ARRIVAL` — frame-arrival pattern for the serving-path bins:
/// `uniform` (the default, also when unset or empty), `bursty`, or
/// `staggered`.
///
/// # Panics
/// On any other value, naming the variable and the value.
pub fn arrival() -> ArrivalPattern {
    var("EKYA_ARRIVAL").map_or(ArrivalPattern::Uniform, |v| {
        ArrivalPattern::parse(&v).unwrap_or_else(|| {
            panic!("EKYA_ARRIVAL: cannot parse `{v}` (expected uniform | bursty | staggered)")
        })
    })
}

/// `EKYA_TRACE` — two-plane telemetry (`ekya-telemetry`). Unset, empty,
/// or `0` (the production state) disables tracing entirely: every
/// instrumented hot path costs one relaxed atomic load. `1` writes the
/// logical-plane trace to `results/TRACE_<bin>.jsonl` (plus a
/// `.wall.json` sidecar); any other value is used as the trace file
/// path verbatim (an `ekya_grid` supervisor hands its shard workers `1`
/// instead, so each shard writes its own trace). The logical trace is byte-identical across runs,
/// worker counts, and shard merges — see the operator guide's
/// "Observability" section.
pub fn trace() -> Option<String> {
    var("EKYA_TRACE").filter(|v| v != "0")
}

/// `EKYA_SERVE_CRASH_AFTER` — fault injection for the serving daemon:
/// `ekya_serve` kills its own process (exit 17) in the middle of this
/// window index, after retraining has been dispatched, so the
/// crash-injection test can assert the last on-disk status snapshot is
/// still a consistent prefix of the run. Unset (the production state)
/// means never crash.
pub fn serve_crash_after() -> Option<usize> {
    parse("EKYA_SERVE_CRASH_AFTER")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_f64_falls_back_when_absent_and_panics_on_garbage() {
        assert_eq!(env_f64("EKYA_TEST_KNOB_ABSENT", 1.5), 1.5);
        std::env::set_var("EKYA_TEST_KNOB_EMPTY", "");
        assert_eq!(env_f64("EKYA_TEST_KNOB_EMPTY", 2.5), 2.5);
        std::env::set_var("EKYA_TEST_KNOB_GARBAGE", "0,7");
        let err = std::panic::catch_unwind(|| env_f64("EKYA_TEST_KNOB_GARBAGE", 0.65))
            .expect_err("a malformed value must not run at the default");
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("EKYA_TEST_KNOB_GARBAGE") && msg.contains("0,7"), "{msg}");
        std::env::remove_var("EKYA_TEST_KNOB_EMPTY");
        std::env::remove_var("EKYA_TEST_KNOB_GARBAGE");
    }

    #[test]
    fn unset_knobs_mean_no_gate_and_no_crash() {
        // The test runner environment must not carry these; if it does,
        // every assertion about "production state" below is void.
        assert_eq!(std::env::var_os("EKYA_ORCH_CRASH_AFTER"), None);
        assert_eq!(std::env::var_os("EKYA_SERVE_CRASH_AFTER"), None);
        assert_eq!(std::env::var_os("EKYA_STREAMS_LIVE"), None);
        assert_eq!(std::env::var_os("EKYA_ARRIVAL"), None);
        assert_eq!(std::env::var_os("EKYA_TRACE"), None);
        assert_eq!(trace(), None);
        assert_eq!(orch_crash_after(), None);
        assert_eq!(serve_crash_after(), None);
        assert_eq!(streams_live(), None);
        assert_eq!(arrival(), ArrivalPattern::Uniform);
    }

    /// The leading `[A-Z0-9_]` run of `s` — a knob name without `EKYA_`.
    fn knob_suffix(s: &str) -> &str {
        let end = s
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(s.len());
        &s[..end]
    }

    /// The operator guide cannot drift from the code: every `"EKYA_*"`
    /// literal in this crate's non-test sources has exactly one row in
    /// the guide's knob tables, and every row names a literal that exists.
    #[test]
    fn knob_tables_match_the_env_reads() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut read = std::collections::BTreeSet::new();
        let mut dirs = vec![root.join("src")];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("source dir lists") {
                let path = entry.expect("source dir entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let src = std::fs::read_to_string(&path).expect("source reads");
                    // Only the trailing test module follows the marker.
                    let code = src.split("#[cfg(test)]").next().unwrap_or_default();
                    for rest in code.split("\"EKYA_").skip(1) {
                        let name = knob_suffix(rest);
                        if rest[name.len()..].starts_with('"') {
                            read.insert(format!("EKYA_{name}"));
                        }
                    }
                }
            }
        }
        assert!(read.contains("EKYA_TRACE"), "scan found no knobs: {read:?}");

        let guide = std::fs::read_to_string(root.join("README.md")).expect("guide reads");
        let section = guide.split("\n## Environment knobs").nth(1).expect("knob section");
        let rows: Vec<String> = section
            .split("\n## ")
            .next()
            .unwrap_or_default()
            .lines()
            .filter_map(|line| line.strip_prefix("| `EKYA_"))
            .map(|rest| format!("EKYA_{}", knob_suffix(rest)))
            .collect();
        for name in &read {
            let n = rows.iter().filter(|r| *r == name).count();
            assert_eq!(n, 1, "{name} is read in src/ but has {n} knob-table rows in README.md");
        }
        for row in &rows {
            assert!(read.contains(row), "README.md documents {row}, which no code reads");
        }
    }
}
