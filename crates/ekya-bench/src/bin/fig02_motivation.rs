//! Figure 2 — the motivation experiment.
//!
//! (a) Class-frequency distribution across retraining windows of one
//!     Cityscapes-like stream (the paper's Fig 2a shows bicycles vanishing
//!     in windows 6-7 and the person share swinging).
//! (b) Inference accuracy over the last five windows under three training
//!     options: continuous retraining, trained once on the first five
//!     windows, and trained once on other cities. The paper reports
//!     continuous retraining winning by up to 22%.
//!
//! Run: `cargo run --release -p ekya-bench --bin fig02_motivation`

use ekya_baselines::run_fig2b;
use ekya_bench::{f3, save_json, Knobs, Table};
use ekya_nn::cost::CostModel;
use ekya_video::{DatasetKind, DatasetSpec, ObjectClass, VideoDataset};
use serde::Serialize;

#[derive(Serialize)]
struct Fig02Output {
    class_distributions: Vec<Vec<f64>>,
    windows: Vec<usize>,
    continuous: Vec<f64>,
    once_first_half: Vec<f64>,
    other_streams: Vec<f64>,
    max_advantage: f64,
    mean_advantage: f64,
}

fn main() {
    let knobs = Knobs::from_env();
    knobs.warn_if_sharded("fig02_motivation");
    knobs.warn_if_resume("fig02_motivation");
    let num_windows = knobs.windows(10);
    let seed = knobs.seed;

    // ---- (a) class distribution over windows ----
    let ds = VideoDataset::generate(DatasetSpec::new(DatasetKind::Cityscapes, num_windows, seed));
    let mut ta = Table::new(
        "Fig 2a — class distribution per retraining window (Cityscapes-like stream)",
        &["window", "bicycle", "bus", "car", "motorcycle", "person", "truck"],
    );
    for w in &ds.windows {
        let mut row = vec![w.index.to_string()];
        row.extend(w.class_dist.iter().map(|p| f3(*p)));
        ta.row(row);
    }
    ta.print();
    let _ = ObjectClass::ALL; // label order documented by the type

    // ---- (b) training options ----
    let r = run_fig2b(DatasetKind::Cityscapes, num_windows, seed, &CostModel::default());
    let mut tb = Table::new(
        "Fig 2b — inference accuracy of training options (last half of the stream)",
        &["window", "continuous", "trained once (first half)", "trained on other cities"],
    );
    for (i, w) in r.windows.iter().enumerate() {
        tb.row(vec![
            w.to_string(),
            f3(r.continuous[i]),
            f3(r.once_first_half[i]),
            f3(r.other_streams[i]),
        ]);
    }
    tb.print();
    println!(
        "\ncontinuous-retraining advantage: up to {:+.1}% (mean {:+.1}%) — paper reports up to 22%",
        r.max_advantage() * 100.0,
        r.mean_advantage() * 100.0
    );

    save_json(
        "fig02_motivation",
        &Fig02Output {
            class_distributions: ds.windows.iter().map(|w| w.class_dist.clone()).collect(),
            windows: r.windows.clone(),
            continuous: r.continuous.clone(),
            once_first_half: r.once_first_half.clone(),
            other_streams: r.other_streams.clone(),
            max_advantage: r.max_advantage(),
            mean_advantage: r.mean_advantage(),
        },
    );
}
