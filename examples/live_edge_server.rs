//! Live edge server: the serving daemon (`ekya-server`) end to end.
//!
//! Admits three cameras into an `EdgeDaemon`, then runs three retraining
//! windows in wall-clock time: the micro-profiler and thief scheduler
//! plan each window, supervised trainer actors run real SGD on their own
//! threads, checkpoints hot-swap into the streams' serving slots — and a
//! client on its own thread keeps classifying frames through all of it,
//! watching the model version rise. One camera's first retraining job is
//! made to panic, to show the trainer pool restarting underneath a
//! serving plane that never notices.
//!
//! Run with: `cargo run --release --example live_edge_server`

use ekya::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    let cameras = 3;
    let windows = 3;
    let streams = StreamSet::generate(DatasetKind::UrbanBuilding, cameras, windows, 99);
    let mut daemon = EdgeDaemon::new(ServeConfig { seed: 5, ..ServeConfig::new(2.0) });
    let ids: Vec<_> = streams
        .iter()
        .map(|(_, ds)| daemon.admit(ds.clone()).expect("three cameras fit the default capacity"))
        .collect();
    println!("edge daemon up: {cameras} cameras, 2 GPUs\n");

    // Live traffic from outside the daemon: camera 0's frames, classified
    // in a loop for the whole run. A hot-swap holds camera 0's slot only
    // to replace the model pointer; the trainer pays the weight reload on
    // its own thread, so requests never wait behind it.
    let (_, cam0) = streams.iter().next().expect("at least one camera");
    let probe: Vec<_> = cam0.window(0).val.iter().take(16).cloned().collect();
    let client = daemon.client();
    let stop = Arc::new(AtomicBool::new(false));
    let replies = Arc::new(AtomicU64::new(0));
    let viewer = {
        let (stop, replies, id) = (Arc::clone(&stop), Arc::clone(&replies), ids[0]);
        std::thread::spawn(move || {
            let mut newest = 0;
            while !stop.load(Ordering::SeqCst) {
                let (_, version) = client.classify(id, probe.clone()).expect("serving stays up");
                newest = version;
                replies.fetch_add(1, Ordering::SeqCst);
            }
            newest
        })
    };

    // The last camera's bootstrap retrain panics after one epoch (the
    // panic message on stderr is that injected fault).
    daemon.inject_trainer_fault(ids[cameras - 1]);
    for w in 0..windows {
        let before = replies.load(Ordering::SeqCst);
        let reports = daemon.run_window();
        println!(
            "window {w}: the client got {} replies while it ran",
            replies.load(Ordering::SeqCst) - before
        );
        let snapshot = daemon.status_snapshot();
        for (r, st) in reports.iter().zip(&snapshot.streams) {
            println!(
                "  {}: accuracy {:.3}  {}  model v{} (+{} swaps)  {} frames pumped during retraining",
                r.id,
                r.accuracy,
                match (r.retrained, r.retrain_failed) {
                    (true, true) => "retrain FAILED",
                    (true, false) => "retrained",
                    (false, _) => "no retraining",
                },
                st.model_version,
                r.checkpoints_swapped,
                r.live_served_during_training,
            );
        }
    }
    stop.store(true, Ordering::SeqCst);
    let newest = viewer.join().expect("client thread");
    println!(
        "\nclient: {} replies, last served by {} model v{newest}",
        replies.load(Ordering::SeqCst),
        ids[0]
    );
    println!("trainer restarts absorbed by supervision: {}", daemon.trainer_restarts());
    daemon.shutdown();
    println!("daemon shut down cleanly");
}
