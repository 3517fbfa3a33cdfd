//! Table 4 — retraining in the cloud under different networks vs Ekya at
//! the edge.
//!
//! The paper's setting: 8 video streams, 4 GPUs, 400-second retraining
//! windows, 10% video sampled for upload (160 Mb/camera/window), 398 Mb
//! model downloads. Cloud training itself is assumed instantaneous (a
//! conservative assumption in the cloud's favour). The cloud designs lose
//! accuracy because model deliveries land late on constrained links; the
//! "more bandwidth needed" column reports how much fatter the links must
//! get to match Ekya.
//!
//! Every (network × bandwidth-scale) point is one grid cell
//! (`PolicySpec::CloudDelay`), and Ekya at the edge is the reference
//! cell — so the whole table, including the bandwidth-scaling question,
//! shards, resumes, and orchestrates like any grid bin
//! ([`run_table4_bin`]). The harness report
//! lands in `results/table4_cloud.json` (`_shardIofN` when sharded); the
//! derived table rows move to `results/table4_cloud_rows.json`.
//!
//! Run: `cargo run --release -p ekya-bench --bin table4_cloud`
//! Knobs: EKYA_WINDOWS (default 4), EKYA_STREAMS (default 8),
//!        EKYA_QUICK=1 (fewer bandwidth scales), EKYA_WORKERS,
//!        EKYA_SHARD, EKYA_RESUME (see crates/ekya-bench/README.md).

use ekya_baselines::{CloudNetwork, PolicySpec};
use ekya_bench::{f3, run_table4_bin, save_json, table4_scales, Knobs, Table, TABLE4_GPUS};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    network: String,
    uplink_mbps: f64,
    downlink_mbps: f64,
    accuracy: f64,
    bandwidth_factor_to_match_ekya: Option<f64>,
}

fn main() {
    let knobs = Knobs::from_env();
    let run = run_table4_bin(&knobs);
    let report = &run.report;

    if report.is_complete() {
        if report.failed > 0 {
            // A poisoned cell (worst: the Ekya reference) would read as
            // accuracy 0.0 and corrupt every "bandwidth needed" factor;
            // fail loudly instead (the pre-port behaviour).
            eprintln!(
                "[table4: {} poisoned cell(s) — derived rows not computed; \
                 see the errors in the JSON report]",
                report.failed
            );
            run.print_footer();
            std::process::exit(1);
        }
        // Lookups are by spec equality (scaled cloud cells share their
        // report label with the ×1 cell).
        let acc_of = |spec: &PolicySpec| {
            report
                .cells
                .iter()
                .find(|c| c.error.is_none() && c.scenario.policy == *spec)
                .map(|c| c.mean_accuracy)
        };
        // The failed-cell gate above already exited on any poisoned cell,
        // so a missing lookup here is a grid-construction bug — fail
        // loudly rather than fabricate a 0.0 row.
        let ekya_acc = acc_of(&PolicySpec::Ekya).expect("table4 grid includes the Ekya cell");
        let scales = table4_scales(knobs.quick);

        let mut rows = Vec::new();
        for network in CloudNetwork::ALL {
            let link = network.link();
            let accuracy = acc_of(&PolicySpec::CloudDelay { network, bandwidth_scale: 1.0 })
                .expect("table4 grid includes every unscaled cloud-delay cell");
            // How much fatter must this link get to match Ekya? The
            // scaled runs are cells of the same grid, so this is a pure
            // lookup — no extra simulation at presentation time.
            let factor_needed = scales
                .iter()
                .find(|&&bandwidth_scale| {
                    acc_of(&PolicySpec::CloudDelay { network, bandwidth_scale })
                        .is_some_and(|acc| acc >= ekya_acc)
                })
                .copied();
            rows.push(Row {
                network: link.name.to_string(),
                uplink_mbps: link.uplink_mbps,
                downlink_mbps: link.downlink_mbps,
                accuracy,
                bandwidth_factor_to_match_ekya: factor_needed,
            });
        }

        let streams = report.cells.first().map(|c| c.scenario.streams).unwrap_or(8);
        let windows = report.cells.first().map(|c| c.scenario.windows).unwrap_or(4);
        let mut t = Table::new(
            format!(
                "Table 4 — cloud retraining vs Ekya ({streams} streams, {TABLE4_GPUS} GPUs, \
                 {windows} windows of 400 s)"
            ),
            &["network", "uplink", "downlink", "accuracy", "bandwidth needed to match Ekya"],
        );
        for r in &rows {
            t.row(vec![
                r.network.clone(),
                format!("{} Mbps", r.uplink_mbps),
                format!("{} Mbps", r.downlink_mbps),
                f3(r.accuracy),
                r.bandwidth_factor_to_match_ekya
                    .map(|f| format!("{f:.1}x"))
                    .unwrap_or_else(|| format!("> {:.0}x", scales.last().unwrap_or(&12.0))),
            ]);
        }
        t.row(vec!["Ekya (edge)".into(), "-".into(), "-".into(), f3(ekya_acc), "-".into()]);
        t.print();
        println!(
            "\nPaper: cellular 68.5%, satellite 69.2%, cellular-2x 71.2%, Ekya 77.8%; \
             matching Ekya needs 5-10x more uplink / 2-4x more downlink."
        );

        save_json("table4_cloud_rows", &rows);
    } else {
        report.print_shard_notice("the table and bandwidth factors are");
    }
    run.print_footer();
}
