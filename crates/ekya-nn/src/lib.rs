#![warn(missing_docs)]

//! # ekya-nn — learning substrate for the Ekya reproduction
//!
//! The paper trains compressed edge DNNs (ResNet18) supervised by an
//! expensive golden model (ResNeXt101) on PyTorch. This crate provides the
//! Rust stand-in that preserves every learning *behaviour* Ekya's
//! scheduler and micro-profiler rely on, while being small enough to run
//! thousands of retraining jobs inside a simulation:
//!
//! * [`mlp`] — genuinely trained MLP classifiers with per-layer freezing
//!   and head resizing (the paper's retraining hyperparameters, §3.1);
//! * [`fit`] — the micro-profiler's learning-curve model and the
//!   Lawson–Hanson NNLS solver it is fitted with (§4.3);
//! * [`cost`] — the calibrated GPU-time cost model (GPU-seconds per epoch
//!   at 100% allocation; inference fps per GPU);
//! * [`golden`] — teachers for knowledge-distillation labelling (§2.2);
//! * [`continual`] — iCaRL-style class-balanced exemplar memory (§2.2);
//! * [`data`] / [`tensor`] — the sample and matrix primitives.
//!
//! Everything is deterministic for a fixed seed; no global RNG state.

pub mod continual;
pub mod cost;
pub mod data;
pub mod eval;
pub mod fit;
pub mod gauss;
pub mod golden;
pub mod labeling;
pub mod mlp;
pub mod tensor;

pub use continual::ExemplarMemory;
pub use cost::CostModel;
pub use data::{subsample, DataView, Sample};
pub use eval::ConfusionMatrix;
pub use fit::{lstsq, nnls, solve_linear, LearningCurve};
pub use gauss::{sample_gaussian, sample_normal};
pub use golden::{distill_labels, ModelTeacher, OracleTeacher, Teacher};
pub use labeling::{label_with_budget, LabelStrategy, LabeledBatch};
pub use mlp::{Dense, FrozenInputs, Mlp, MlpArch, PredictScratch, Sgd};
pub use tensor::Matrix;
