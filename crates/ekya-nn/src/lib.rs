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
//!   and head resizing (the paper's retraining hyperparameters, §3.1).
//!   Every layer is a GEMM and one fused bias + ReLU sweep, with no ReLU
//!   masks: backprop reads the derivative off the stored activations, and
//!   SGD updates each weight in one pass. Serving and every accuracy
//!   evaluation stop at the logits and read the class off them, with a
//!   softmax only for rows whose top two logits sit within 2^-10 or that
//!   hold a non-finite logit (bit-exact against training's
//!   `argmax(softmax)`; the argument is on [`tensor::softmax_row`]);
//! * [`fit`] — the micro-profiler's learning-curve model and the
//!   Lawson–Hanson NNLS solver it is fitted with (§4.3);
//! * [`cost`] — the calibrated GPU-time cost model (GPU-seconds per epoch
//!   at 100% allocation; inference fps per GPU);
//! * [`golden`] — teachers for knowledge-distillation labelling (§2.2);
//! * [`continual`] — iCaRL-style class-balanced exemplar memory (§2.2);
//! * [`data`] / [`tensor`] — the sample and matrix primitives; all three
//!   matrix products run one register-tiled GEMM kernel, bit-identical
//!   to the plain ascending-k loops (the argument is on [`tensor`]).
//!
//! Everything is deterministic for a fixed seed; no global RNG state.

pub mod continual;
pub mod cost;
pub mod data;
pub mod fit;
pub mod gauss;
pub mod golden;
pub mod mlp;
pub mod tensor;

pub use continual::ExemplarMemory;
pub use cost::CostModel;
pub use data::{subsample, DataView, Sample};
pub use fit::{lstsq, nnls, solve_linear, LearningCurve};
pub use gauss::sample_gaussian;
pub use golden::{distill_labels, OracleTeacher, Teacher};
pub use mlp::{Dense, FrozenInputs, Mlp, MlpArch, PredictScratch, Sgd};
pub use tensor::Matrix;
