//! Serving-path suite for [`ekya_server::EdgeDaemon`]: liveness under
//! concurrent retraining, hot-swap visibility, typed admission control,
//! refusal of malformed client frames, and supervised recovery from
//! trainer faults.

use ekya_nn::data::Sample;
use ekya_server::{AdmissionError, EdgeDaemon, ServeConfig, ServeError};
use ekya_video::{DatasetKind, DatasetSpec, VideoDataset};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tiny_spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        kind: DatasetKind::Waymo,
        num_windows: 3,
        window_secs: 10.0,
        fps: 4.0,
        label_fraction: 0.5,
        val_samples: 24,
        seed,
    }
}

fn tiny_fleet(n: usize, seed: u64) -> Vec<VideoDataset> {
    (0..n)
        .map(|i| {
            VideoDataset::generate(DatasetSpec {
                seed: seed.wrapping_add(1000 * i as u64),
                ..tiny_spec(seed)
            })
        })
        .collect()
}

/// Replies keep flowing to an outside client for the whole duration of
/// every retraining window: full SGD on the trainer pool never starves
/// the serving path.
#[test]
fn serving_replies_flow_while_trainers_run() {
    let mut daemon = EdgeDaemon::new(ServeConfig::quick(2.0));
    let fleet = tiny_fleet(3, 11);
    let probe: Vec<_> = fleet[0].window(0).val.iter().take(4).cloned().collect();
    let ids: Vec<_> = fleet.into_iter().map(|ds| daemon.admit(ds).unwrap()).collect();

    let client = daemon.client();
    let stop = Arc::new(AtomicBool::new(false));
    let replies = Arc::new(AtomicU64::new(0));
    let hammer = {
        let (stop, replies, id) = (stop.clone(), replies.clone(), ids[0]);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                client.classify(id, probe.clone()).expect("serving never drops a client");
                replies.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    for _ in 0..2 {
        let before = replies.load(Ordering::SeqCst);
        let reports = daemon.run_window();
        assert_eq!(reports.len(), 3);
        let during = replies.load(Ordering::SeqCst) - before;
        assert!(during > 0, "client replies starved for a full retraining window");
    }
    stop.store(true, Ordering::SeqCst);
    hammer.join().unwrap();
    assert!(replies.load(Ordering::SeqCst) > 0);
    // The daemon's own pump also classified frames on the live plane.
    assert!(daemon.live_stats().served > 0);
    daemon.shutdown();
}

/// Checkpoint hot-swaps become visible to clients as a monotone model
/// version, and the version a client sees matches the status snapshot.
#[test]
fn hot_swapped_checkpoints_are_visible_and_monotone() {
    let mut daemon = EdgeDaemon::new(ServeConfig::quick(2.0));
    let fleet = tiny_fleet(1, 23);
    let probe: Vec<_> = fleet[0].window(0).val.iter().take(4).cloned().collect();
    let id = daemon.admit(fleet.into_iter().next().unwrap()).unwrap();
    let client = daemon.client();

    let (_, v0) = client.classify(id, probe.clone()).unwrap();
    assert_eq!(v0, 0, "admission serves version 0");

    let mut last = v0;
    for _ in 0..2 {
        daemon.run_window();
        let (preds, v) = client.classify(id, probe.clone()).unwrap();
        assert_eq!(preds.len(), probe.len());
        assert!(v >= last, "model version went backwards: {last} -> {v}");
        last = v;
    }
    let snap = daemon.status_snapshot();
    assert_eq!(snap.streams[0].model_version, last);
    assert!(
        snap.streams[0].checkpoints_swapped >= 1,
        "an untrained base model must lose to its retrained successor"
    );
    assert_eq!(snap.validate(), Vec::<String>::new());
    daemon.shutdown();
}

/// A client is a handle on the daemon, not a copy of its streams: one
/// made before an admission still reaches the stream admitted after it,
/// and once the daemon shuts down — or is dropped — every request it
/// makes, for a stream that was admitted or one that never was, is
/// refused as unavailable instead of being served from a daemon that no
/// longer exists.
#[test]
fn client_reaches_later_admissions_and_is_unavailable_after_shutdown() {
    let mut daemon = EdgeDaemon::new(ServeConfig::quick(2.0));
    let early = daemon.client();
    let fleet = tiny_fleet(2, 61);
    let probe: Vec<_> = fleet[0].window(0).val.iter().take(3).cloned().collect();
    let ids: Vec<_> = fleet.into_iter().map(|ds| daemon.admit(ds).unwrap()).collect();
    for &id in &ids {
        let (preds, version) = early.classify(id, probe.clone()).unwrap();
        assert_eq!((preds.len(), version), (probe.len(), 0));
    }
    let late = daemon.client();
    daemon.shutdown();
    let mut dropped = EdgeDaemon::new(ServeConfig::quick(2.0));
    let id = dropped.admit(tiny_fleet(1, 67).pop().unwrap()).unwrap();
    let orphan = dropped.client();
    assert!(orphan.classify(id, probe.clone()).is_ok());
    drop(dropped);
    for client in [&early, &late, &orphan] {
        for id in [ids[0], ids[1], ekya_video::StreamId(9)] {
            assert_eq!(client.classify(id, probe.clone()).err(), Some(ServeError::Unavailable));
        }
    }
}

/// Stream N+1 is rejected immediately with a typed error — not queued —
/// both on the stream-count and the aggregate-rate axis, and rejections
/// are counted in the snapshot.
#[test]
fn admission_control_rejects_typed_not_queued() {
    let cfg = ServeConfig { capacity: 3, ..ServeConfig::quick(2.0) };
    let mut daemon = EdgeDaemon::new(cfg);
    for ds in tiny_fleet(3, 31) {
        daemon.admit(ds).unwrap();
    }
    let overflow = tiny_fleet(1, 47).pop().unwrap();
    assert_eq!(daemon.admit(overflow), Err(AdmissionError::CapacityExceeded { capacity: 3 }));
    assert_eq!(daemon.admitted(), 3);
    let snap = daemon.status_snapshot();
    assert_eq!(snap.rejected, 1);
    assert_eq!(snap.validate(), Vec::<String>::new());
    daemon.shutdown();

    // Rate axis: two 4-fps cameras against a 7-fps budget.
    let cfg = ServeConfig { serve_fps_capacity: 7.0, ..ServeConfig::quick(2.0) };
    let mut daemon = EdgeDaemon::new(cfg);
    let mut fleet = tiny_fleet(2, 59).into_iter();
    let id = daemon.admit(fleet.next().unwrap()).unwrap();
    assert_eq!(
        daemon.admit(fleet.next().unwrap()),
        Err(AdmissionError::RateExceeded { offered_fps: 8.0, capacity_fps: 7.0 })
    );
    // The rejected stream got no slot: clients asking for it get a typed
    // serving error, while the admitted stream keeps serving.
    let client = daemon.client();
    let probe: Vec<_> = tiny_fleet(1, 59)[0].window(0).val.iter().take(2).cloned().collect();
    assert_eq!(
        client.classify(ekya_video::StreamId(1), probe.clone()).err(),
        Some(ServeError::UnknownStream)
    );
    assert!(client.classify(id, probe).is_ok());
    daemon.shutdown();
}

/// A client frame of the wrong length is refused at the slot's outside
/// boundary with a typed error — whole request, nothing classified —
/// instead of tripping the forward pass's shape assert under the slot's
/// lock, which would poison the stream's serving.
#[test]
fn malformed_client_frame_is_refused_and_shard_survives() {
    let mut daemon = EdgeDaemon::new(ServeConfig { infer_shards: 1, ..ServeConfig::quick(2.0) });
    let fleet = tiny_fleet(2, 97);
    let dim = fleet[0].feature_dim;
    let probe: Vec<_> = fleet[1].window(0).val.iter().take(4).cloned().collect();
    let ids: Vec<_> = fleet.into_iter().map(|ds| daemon.admit(ds).unwrap()).collect();
    let (a, b) = (ids[0], ids[1]);
    let client = daemon.client();

    for got in [0, dim + 1] {
        // A well-formed frame ahead of the bad one must not be served.
        let frames = vec![probe[0].clone(), Sample::new(vec![0.0; got], 0)];
        assert_eq!(
            client.classify(a, frames).err(),
            Some(ServeError::MalformedFrame { expected: dim, got })
        );
    }
    assert_eq!(daemon.live_stats().served, 0, "a refused request classifies nothing");

    // Serving is alive: the refused stream and the other one still
    // classify, a window runs to completion and the ledger validates.
    assert!(client.classify(a, probe.clone()).is_ok());
    assert_eq!(client.classify(b, probe.clone()).unwrap().0.len(), probe.len());
    assert_eq!(daemon.run_window().len(), 2);
    assert_eq!(daemon.status_snapshot().validate(), Vec::<String>::new());
    daemon.shutdown();
}

/// `pump_rounds` is pure wall plane: it classifies frames but leaves
/// the logical ledger untouched, the borrowed status view serialises
/// byte-identically to the owned snapshot, and the per-window snapshot
/// sink fires exactly once per window with those same bytes.
#[test]
fn pump_rounds_is_wall_plane_only_and_sink_gets_snapshot_bytes() {
    let mut daemon = EdgeDaemon::new(ServeConfig::quick(2.0));
    for ds in tiny_fleet(3, 83) {
        daemon.admit(ds).unwrap();
    }
    let before = serde_json::to_string_pretty(&daemon.status_snapshot()).unwrap();
    let served = daemon.pump_rounds(4);
    assert!(served > 0, "the pump must classify frames");
    assert!(daemon.live_stats().served >= served);
    let view = serde_json::to_string_pretty(&daemon.status_view()).unwrap();
    assert_eq!(view, before, "pumping must not move the logical plane");

    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let seen = seen.clone();
        daemon.set_snapshot_sink(move |v| {
            seen.lock().unwrap().push(serde_json::to_string_pretty(v).unwrap());
        });
    }
    daemon.run_window();
    let owned = serde_json::to_string_pretty(&daemon.status_snapshot()).unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 1, "one sink call per completed window");
    assert_eq!(seen[0], owned, "borrowed view bytes == owned snapshot bytes");
    drop(seen);
    daemon.shutdown();
}

/// The paper preset, which every other daemon test here swaps for the
/// quick one: the full retraining grid (head-only configurations
/// included, so trainers run from frozen-layer blocks) and a real 5 ms
/// reload per swap, which trainers pay before installing. Four paper
/// streams over two windows give the same status bytes on one trainer and
/// one pump group as on two of each, run after run — every swap is
/// installed before its job replies, so before Phase E reads the serving
/// models.
#[test]
fn paper_preset_with_real_reloads_is_shard_count_invariant() {
    let run = |trainer_shards: usize, infer_shards: usize| -> (String, u64) {
        let cfg = ServeConfig {
            capacity: 4,
            trainer_shards,
            infer_shards,
            seed: 5,
            ..ServeConfig::new(4.0)
        };
        assert_eq!(cfg.swap_reload, Duration::from_millis(5), "the paper preset's reload");
        let mut daemon = EdgeDaemon::new(cfg);
        for i in 0..4u64 {
            let kind = DatasetKind::ALL[i as usize % DatasetKind::ALL.len()];
            daemon.admit(VideoDataset::generate(DatasetSpec::new(kind, 2, 40 + 1000 * i))).unwrap();
        }
        let mut most_swaps = 0;
        for _ in 0..2 {
            for report in daemon.run_window() {
                most_swaps = most_swaps.max(report.checkpoints_swapped);
            }
        }
        assert_eq!(daemon.status_snapshot().validate(), Vec::<String>::new());
        let bytes = serde_json::to_string_pretty(&daemon.status_view()).unwrap();
        daemon.shutdown();
        (bytes, most_swaps)
    };
    let runs: Vec<(String, u64)> =
        [(1, 1), (1, 1), (2, 2), (2, 2)].into_iter().map(|(t, i)| run(t, i)).collect();
    for (k, (bytes, _)) in runs.iter().enumerate().skip(1) {
        assert_eq!(bytes, &runs[0].0, "run {k}: status bytes moved with the shape or timing");
    }
    assert!(runs[0].1 >= 2, "some stream must swap two checkpoints in one window");
}

/// The exact status bytes after two windows of a small quick fleet. Phase
/// A's teacher draws (train pool, then val), exemplar mixing and memory
/// fold, micro-profiling and planning all feed these bytes, and so does
/// the swap ledger's link arithmetic once a window credits two swaps; a
/// failure means a refactor moved the daemon's logical plane — treat it
/// as a broken fingerprint, not a value to update.
#[test]
fn status_view_is_pinned_across_refactors() {
    let mut daemon = EdgeDaemon::new(ServeConfig { seed: 13, ..ServeConfig::quick(2.0) });
    for ds in tiny_fleet(2, 89) {
        daemon.admit(ds).unwrap();
    }
    let most_swaps =
        (0..2).flat_map(|_| daemon.run_window()).map(|r| r.checkpoints_swapped).max().unwrap_or(0);
    assert!(most_swaps >= 2, "some stream must swap two checkpoints in one window");
    let bytes = serde_json::to_string_pretty(&daemon.status_view()).unwrap();
    daemon.shutdown();
    assert_eq!(ekya_core::fnv1a(bytes.as_bytes()), 0x2f9e1cf579a15109);
}

/// A panicking trainer is absorbed by supervision: the failed window is
/// recorded, serving never stops, and the next window retrains cleanly
/// on a restarted trainer.
#[test]
fn trainer_panic_recovers_without_killing_serving() {
    let mut daemon = EdgeDaemon::new(ServeConfig::quick(2.0));
    let fleet = tiny_fleet(2, 71);
    let probe: Vec<_> = fleet[0].window(0).val.iter().take(4).cloned().collect();
    let ids: Vec<_> = fleet.into_iter().map(|ds| daemon.admit(ds).unwrap()).collect();

    daemon.inject_trainer_fault(ids[0]);
    let reports = daemon.run_window();
    assert!(reports[0].retrained, "scheduler must plan a retrain for the faulted stream");
    assert!(reports[0].retrain_failed, "injected fault must surface as a failed retrain");
    assert!(daemon.trainer_restarts() >= 1, "supervision must have rebuilt the trainer");

    // Serving survived the panic.
    let client = daemon.client();
    assert!(client.classify(ids[0], probe.clone()).is_ok());
    assert!(client.classify(ids[1], probe.clone()).is_ok());

    // The next window retrains the same stream cleanly.
    let reports = daemon.run_window();
    assert!(!reports[0].retrain_failed, "restarted trainer must run clean jobs");

    let snap = daemon.status_snapshot();
    assert_eq!(snap.streams[0].retrains_failed, 1);
    assert_eq!(snap.validate(), Vec::<String>::new());
    daemon.shutdown();
}
