//! Serving-path integration: loadgen determinism (in-process and through
//! the `ekya_loadgen` bin) and crash injection against the `ekya_serve`
//! daemon — a killed daemon must leave a valid, internally consistent
//! status snapshot on disk.

use ekya_bench::{build_daemon, run_fleet, FleetConfig};
use ekya_server::StatusSnapshot;
use std::path::{Path, PathBuf};

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ekya_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a serving-path bin hermetically: stray knobs scrubbed, results
/// redirected to `dir`.
fn run_bin(bin: &str, dir: &Path, extra: &[(&str, &str)]) -> std::process::ExitStatus {
    let mut cmd = std::process::Command::new(bin);
    for var in [
        "EKYA_SHARD",
        "EKYA_RESUME",
        "EKYA_ORCH_CRASH_AFTER",
        "EKYA_SERVE_CRASH_AFTER",
        "EKYA_STREAMS_LIVE",
        "EKYA_ARRIVAL",
        "EKYA_QUICK",
        "EKYA_WINDOWS",
        "EKYA_STREAMS",
        "EKYA_SEED",
        "EKYA_TRACE",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("EKYA_RESULTS_DIR", dir)
        .env("EKYA_WORKERS", "2")
        .envs(extra.iter().copied())
        .status()
        .expect("serving bin spawns")
}

/// The daemon's serialized plane is deterministic: the same seed
/// produces byte-identical reports run over run, and the concurrency
/// shape (shards, trainers, planner threads) changes nothing.
#[test]
fn fleet_reports_are_deterministic_across_runs_and_shapes() {
    let first = run_fleet(&FleetConfig::parallel(8, 2, 42, 3)).0;
    let second = run_fleet(&FleetConfig::parallel(8, 2, 42, 3)).0;
    let serial = run_fleet(&FleetConfig::serial(8, 2, 42)).0;
    let bytes = |r| serde_json::to_string_pretty(r).expect("serialise");
    assert_eq!(bytes(&first), bytes(&second), "same seed, same shape must be byte-identical");
    assert_eq!(bytes(&first), bytes(&serial), "concurrency shape must not change a byte");
    assert_eq!(first.snapshot.windows_completed, 2);
    assert_eq!(first.snapshot.rejected, 2, "overload attempts rejected and counted");
    // A different seed must actually change the outcome — otherwise the
    // byte-identity assertions above are vacuous.
    let other = run_fleet(&FleetConfig::serial(8, 2, 43)).0;
    assert_ne!(bytes(&first), bytes(&other), "seed must matter");

    // The live pump is wall plane only on every shape: after a warm-up,
    // steady-state rounds classify the same frames on a 1-shard and a
    // multi-shard daemon and move no byte of either status view.
    let pump = |cfg: &FleetConfig| {
        let mut daemon = build_daemon(cfg);
        assert!(daemon.pump_rounds(2) > 0, "warm-up pump must classify frames");
        let before = serde_json::to_string_pretty(&daemon.status_view()).expect("serialise");
        let frames = daemon.pump_rounds(3);
        let after = serde_json::to_string_pretty(&daemon.status_view()).expect("serialise");
        daemon.shutdown();
        assert_eq!(before, after, "pumping must not move the logical plane");
        (frames, after)
    };
    let (serial_frames, serial_view) = pump(&FleetConfig::serial(32, 1, 42));
    let (parallel_frames, parallel_view) = pump(&FleetConfig::parallel(32, 1, 42, 4));
    assert_eq!(serial_frames, parallel_frames, "shapes classified different frame counts");
    assert_eq!(serial_view, parallel_view, "daemon shapes disagree on the status view");
}

/// Two `ekya_loadgen` processes with the same `EKYA_SEED` write
/// byte-identical status snapshots, even at different worker counts.
#[test]
fn loadgen_snapshots_are_byte_identical_across_processes() {
    let bin = env!("CARGO_BIN_EXE_ekya_loadgen");
    let base: &[(&str, &str)] =
        &[("EKYA_STREAMS_LIVE", "6"), ("EKYA_WINDOWS", "2"), ("EKYA_SEED", "42")];
    let dir_a = temp("lg_a");
    let dir_b = temp("lg_b");
    assert!(run_bin(bin, &dir_a, base).success(), "first loadgen run failed");
    let mut with_workers = base.to_vec();
    with_workers.push(("EKYA_WORKERS", "4"));
    assert!(run_bin(bin, &dir_b, &with_workers).success(), "second loadgen run failed");

    let snap_a = std::fs::read(dir_a.join("serve_status.json")).expect("first snapshot");
    let snap_b = std::fs::read(dir_b.join("serve_status.json")).expect("second snapshot");
    assert_eq!(snap_a, snap_b, "loadgen snapshots must be byte-identical for one seed");

    // The wall-clock metrics file exists and parses, but is *not* under
    // the byte-identity contract.
    let metrics: serde::Value = serde_json::from_str(
        &std::fs::read_to_string(dir_a.join("loadgen_metrics.json")).expect("metrics file"),
    )
    .expect("metrics parse");
    assert_eq!(metrics.get("streams"), Some(&serde::Value::I64(6)));

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The `ekya_serve` daemon's serialized plane is independent of the
/// concurrency shape end-to-end through the bin: a single-worker and a
/// 4-worker daemon write byte-identical status snapshots for one seed —
/// on the clean path *and* on the killed-daemon path (crash injection
/// mid-window leaves the same frozen bytes regardless of workers).
#[test]
fn serve_snapshots_are_byte_identical_across_worker_counts_and_crash() {
    let bin = env!("CARGO_BIN_EXE_ekya_serve");
    let base: &[(&str, &str)] =
        &[("EKYA_STREAMS_LIVE", "6"), ("EKYA_WINDOWS", "2"), ("EKYA_SEED", "42")];
    let snapshot = |tag: &str, extra: &[(&str, &str)], want_code: Option<i32>| -> Vec<u8> {
        let dir = temp(tag);
        let mut env = base.to_vec();
        env.extend_from_slice(extra);
        let status = run_bin(bin, &dir, &env);
        match want_code {
            Some(code) => assert_eq!(status.code(), Some(code), "{tag}: wrong exit code"),
            None => assert!(status.success(), "{tag}: run failed"),
        }
        let bytes = std::fs::read(dir.join("serve_status.json")).expect("snapshot written");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };

    let w1 = snapshot("sv_w1", &[("EKYA_WORKERS", "1")], None);
    let w4 = snapshot("sv_w4", &[("EKYA_WORKERS", "4")], None);
    assert_eq!(w1, w4, "worker count must not change a snapshot byte");

    let crash1 =
        snapshot("sv_c1", &[("EKYA_WORKERS", "1"), ("EKYA_SERVE_CRASH_AFTER", "1")], Some(17));
    let crash4 =
        snapshot("sv_c4", &[("EKYA_WORKERS", "4"), ("EKYA_SERVE_CRASH_AFTER", "1")], Some(17));
    assert_eq!(crash1, crash4, "killed-daemon snapshot must not depend on workers");
    assert_ne!(w1, crash1, "crashed daemon froze at an earlier window than the clean run");
}

/// A fleet size that does not parse stops the daemon before it admits a
/// stream, instead of silently serving the default fleet.
#[test]
fn malformed_streams_live_fails_fast() {
    let dir = temp("bad_streams_live");
    let env = [("EKYA_STREAMS_LIVE", "eight"), ("EKYA_WINDOWS", "1")];
    let status = run_bin(env!("CARGO_BIN_EXE_ekya_serve"), &dir, &env);
    assert!(!status.success(), "EKYA_STREAMS_LIVE=eight must not serve the default fleet");
    assert!(!dir.join("serve_status.json").exists(), "no stream may have been served");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash injection: `ekya_serve` killed in the middle of window 1 (exit
/// 17, mid-retraining) must leave the *window-0* snapshot on disk —
/// valid JSON, internally consistent, counters frozen at the last
/// completed window. `ekya_serve --validate` agrees.
#[test]
fn killed_daemon_leaves_consistent_snapshot() {
    let bin = env!("CARGO_BIN_EXE_ekya_serve");
    let base: &[(&str, &str)] =
        &[("EKYA_STREAMS_LIVE", "6"), ("EKYA_WINDOWS", "3"), ("EKYA_SEED", "42")];
    let dir = temp("crash");

    let mut crash = base.to_vec();
    crash.push(("EKYA_SERVE_CRASH_AFTER", "1"));
    let status = run_bin(bin, &dir, &crash);
    assert_eq!(status.code(), Some(17), "crash injection must exit 17");

    let raw = std::fs::read_to_string(dir.join("serve_status.json"))
        .expect("killed daemon must leave a snapshot");
    let snap: StatusSnapshot = serde_json::from_str(&raw).expect("snapshot must be valid JSON");
    assert_eq!(snap.validate(), Vec::<String>::new(), "snapshot must be internally consistent");
    assert_eq!(snap.windows_completed, 1, "snapshot describes the last *completed* window");
    assert_eq!(snap.admitted, 6);
    assert!(
        snap.streams.iter().all(|s| s.windows_completed == 1),
        "no stream's ledger may run ahead of the daemon's"
    );
    // No torn tmp file left behind by the atomic write.
    assert!(!dir.join("serve_status.json.tmp").exists(), "tmp snapshot must never survive");

    // The daemon's own validator agrees with the library's.
    let mut cmd = std::process::Command::new(bin);
    let status = cmd
        .arg("--validate")
        .env("EKYA_RESULTS_DIR", &dir)
        .status()
        .expect("ekya_serve --validate spawns");
    assert!(status.success(), "ekya_serve --validate must accept the recovered snapshot");

    let _ = std::fs::remove_dir_all(&dir);
}
