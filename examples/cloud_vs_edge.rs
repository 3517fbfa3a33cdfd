//! Cloud-offload vs on-edge continuous learning (the §6.5 comparison).
//!
//! Uploading training data to the cloud and downloading retrained models
//! competes with Ekya's edge-local retraining — but only if the network
//! cooperates. This example reproduces the paper's setting (8 cameras,
//! 400-second retraining windows, a shared half-duplex link): per window
//! each camera ships ~160 Mb of sampled video up and pulls a 398 Mb model
//! back, which saturates cellular/satellite links so retrained models
//! arrive late or miss the window entirely.
//!
//! Run with: `cargo run --release --example cloud_vs_edge`

use ekya::baselines::CloudNetwork;
use ekya::prelude::*;
use ekya::video::DatasetSpec;

fn main() {
    let gpus = 4.0;
    let windows = 4;
    // The paper's §6.5 setting: 8 videos, 400 s windows.
    let base = DatasetSpec {
        window_secs: 400.0,
        ..DatasetSpec::new(DatasetKind::Cityscapes, windows, 2024)
    };
    let streams = StreamSet::generate_from_spec(base, 8);
    let cfg = RunnerConfig { total_gpus: gpus, seed: 17, ..RunnerConfig::default() };

    let mut ekya = EkyaPolicy::new(SchedulerParams::new(gpus));
    let ekya_report = run_windows(&mut ekya, &streams, &cfg, windows);

    println!("{} cameras, {} GPUs, {} windows of 400 s\n", streams.len(), gpus, windows);
    println!("{:<22} | accuracy | models arriving in-window", "design");
    println!("{:-<22}-+----------+---------------------------", "");
    println!("{:<22} | {:>8.3} | (retrains locally)", "Ekya (edge)", ekya_report.mean_accuracy());

    for link in CloudNetwork::ALL.map(CloudNetwork::link) {
        let mut cloud_cfg = CloudRunConfig::new(link, cfg.clone());
        cloud_cfg.upload_sampling = 0.1;
        let report = run_cloud_retraining(&streams, &cloud_cfg, windows);
        let total: usize = report.windows.iter().map(|w| w.streams.len()).sum();
        let on_time: usize =
            report.windows.iter().flat_map(|w| &w.streams).filter(|s| s.retrain_completed).count();
        println!(
            "{:<22} | {:>8.3} | {}/{}",
            format!("Cloud ({})", link.name),
            report.mean_accuracy(),
            on_time,
            total
        );
    }

    println!(
        "\nThe edge keeps all video on-premise (privacy) and uses no uplink;\n\
         the cloud designs ship {:.0} Mb of video per camera per window and\n\
         pull {:.0} Mb models back over the shared link.",
        4.0 * 0.1 * 400.0,
        cfg.cost.model_size_mbits
    );
}
