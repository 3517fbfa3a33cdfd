//! Two-plane structured tracing + metrics for the Ekya workspace.
//!
//! The workspace's determinism contract (parallel ≡ serial ≡ sharded,
//! byte for byte) extends to its observability: a trace that changes
//! with thread timing cannot diff two runs, and a trace that feeds
//! wall-clock readings into fingerprinted bytes breaks the contract it
//! is meant to watch. So telemetry is split into two planes with
//! different rules:
//!
//! * the **logical plane** ([`recorder`]) — spans and events keyed by
//!   logical time (window index, cell fingerprint, shard id, model
//!   version), plus `u64` counters and fixed-bucket histograms. It
//!   serializes as JSONL that is a pure function of `(workload, seed)`:
//!   records are buffered in memory, stamped with a per-context
//!   sequence number, and globally sorted at flush, so the file is
//!   byte-identical across runs, worker counts, and shard merges.
//! * the **wall-clock plane** ([`timing`]) — span durations, queue
//!   depths, steal latencies. It is the *only* module in the workspace
//!   outside the existing sanctioned paths that reads
//!   `std::time::Instant` (enforced by `ekya-lint`'s `wallclock-in-cell`
//!   rule), and it never writes into the fingerprinted JSONL: wall
//!   aggregates go to a `.wall.json` sidecar that no byte-identity
//!   check ever reads.
//!
//! Telemetry is off by default. Every hook begins with a branch on a
//! relaxed atomic ([`enabled`]), so instrumented hot paths cost one
//! predictable-untaken branch when tracing is off — the repo benchmark
//! reports the enabled-vs-disabled cost as `telemetry.overhead_pct`.
//!
//! The crate is dependency-light on purpose (vendored `serde` and
//! `serde_json` only) so every layer — `ekya-core`'s
//! microprofiler and thief scheduler, `ekya-bench`'s grid executor, the
//! `ekya-server` daemon, the `ekya_grid` supervisor — can emit
//! into the same session. The `ekya_trace` bin (in `ekya-bench`)
//! renders sessions: `summary`, `timeline`, `export --chrome`.

#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod record;
pub mod recorder;
pub mod timing;
pub mod view;

pub use chrome::chrome_trace;
pub use hist::{bucket_bound, bucket_of, quantile, HIST_BUCKETS};
pub use record::TraceRecord;
pub use recorder::{
    counter_add, enabled, event, flush, hist_observe, merge_traces, parse_trace, render, span,
    start, stop, validate_trace, Ctx, CtxGuard,
};
pub use timing::{wall_gauge_max, wall_span, WallSpan};
pub use view::{summarize, timeline, SummaryRow};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks one of the crate's process-global mutexes. A poisoned lock is
/// recovered: a panic while a lock was held must never disable tracing
/// for the rest of the process. The recovered data is still well-formed:
/// updates under these locks are plain inserts, pushes and counter
/// bumps, so an interrupted one can at worst lose or skew a count.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1);
        *super::lock(&m) += 41;
        assert_eq!(*super::lock(&m), 42);
    }

    #[test]
    fn lock_recovers_from_poison() {
        static M: Mutex<u32> = Mutex::new(0);
        let _ = std::thread::spawn(|| {
            let _g = super::lock(&M);
            panic!("poison it");
        })
        .join();
        assert!(M.is_poisoned());
        *super::lock(&M) += 1; // must not panic
        assert_eq!(*super::lock(&M), 1);
    }
}
