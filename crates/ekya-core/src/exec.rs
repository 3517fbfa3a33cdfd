//! Retraining execution: stepping a real model through a configuration's
//! training run, epoch by epoch.
//!
//! Both the micro-profiler (which runs a few epochs on sampled data) and
//! the simulator's window runner (which runs the chosen configuration for
//! real, interleaved with discrete-event time) drive training through
//! [`RetrainExecution`], so profiling and execution share identical
//! semantics — the property that makes micro-profiled estimates
//! meaningful.
//!
//! A run pays for its frozen layers once: [`RetrainExecution::new`] runs
//! the training subsample through them into a [`FrozenInputs`] block, and
//! every epoch trains from that block. A caller that evaluates on the
//! same validation split after many epochs does the same with
//! [`RetrainExecution::freeze`] + [`RetrainExecution::accuracy_frozen`].
//! Both are bit-identical to recomputing the frozen layers each time,
//! because frozen weights never change during a run.

use crate::config::RetrainConfig;
use ekya_nn::data::{subsample, DataView, Sample};
use ekya_nn::mlp::{FrozenInputs, Mlp, Sgd};
use serde::{Deserialize, Serialize};

/// SGD hyperparameters shared by profiling and execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainHyper {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
}

impl Default for TrainHyper {
    fn default() -> Self {
        Self { lr: 0.05, momentum: 0.9 }
    }
}

/// Builds the model variant a configuration trains: clones the serving
/// model, resizes the last hidden layer if the configuration asks for a
/// different width, and freezes all but the configured trailing layers.
pub fn build_variant(base: &Mlp, config: &RetrainConfig, seed: u64) -> Mlp {
    let mut model = base.clone();
    if resizes_head(base, config) {
        model.resize_last_hidden(config.last_layer_neurons as usize, seed);
    }
    model.set_layers_trained(config.layers_trained as usize);
    model
}

/// Whether [`build_variant`] re-initialises `base`'s head for `config`.
/// When it does not, the untrained variant computes exactly what `base`
/// computes (freezing changes no forward pass).
pub(crate) fn resizes_head(base: &Mlp, config: &RetrainConfig) -> bool {
    base.arch().hidden.last().copied().unwrap_or(0) != config.last_layer_neurons as usize
}

/// An in-flight retraining run for one configuration.
#[derive(Debug, Clone)]
pub struct RetrainExecution {
    model: Mlp,
    opt: Sgd,
    /// The training subsample, already run through the frozen layers.
    data: FrozenInputs,
    config: RetrainConfig,
    num_classes: usize,
    epochs_done: u32,
    seed: u64,
}

impl RetrainExecution {
    /// Prepares a retraining run: selects `config.data_fraction` of the
    /// window pool (uniformly at random, seeded), builds the model
    /// variant, and runs the selection through its frozen layers once.
    pub fn new(
        base_model: &Mlp,
        pool: &[Sample],
        config: RetrainConfig,
        num_classes: usize,
        hyper: TrainHyper,
        seed: u64,
    ) -> Self {
        let model = build_variant(base_model, &config, seed.wrapping_add(17));
        let selected = subsample(pool, config.data_fraction, seed.wrapping_add(29));
        let data = model.frozen_inputs(DataView::new(&selected, num_classes));
        let opt = Sgd::new(&model, hyper.lr, hyper.momentum);
        Self { model, opt, data, config, num_classes, epochs_done: 0, seed }
    }

    /// Runs one epoch; returns the mean training loss. No-op once all
    /// configured epochs are done (returns 0).
    pub fn step_epoch(&mut self) -> f64 {
        if self.is_complete() {
            return 0.0;
        }
        let loss = self.model.train_epoch_frozen(
            &self.data,
            &mut self.opt,
            self.config.batch_size as usize,
            self.seed.wrapping_add(1000 + self.epochs_done as u64),
        );
        self.epochs_done += 1;
        loss
    }

    /// Runs all remaining epochs.
    pub fn run_to_completion(&mut self) {
        while !self.is_complete() {
            self.step_epoch();
        }
    }

    /// Epochs completed so far.
    pub fn epochs_done(&self) -> u32 {
        self.epochs_done
    }

    /// Epochs remaining.
    pub fn epochs_remaining(&self) -> u32 {
        self.config.epochs.saturating_sub(self.epochs_done)
    }

    /// Whether all configured epochs have run.
    pub fn is_complete(&self) -> bool {
        self.epochs_done >= self.config.epochs
    }

    /// Progress in full-pool epoch equivalents (the learning-curve `k`
    /// axis).
    pub fn k_done(&self) -> f64 {
        self.epochs_done as f64 * self.config.data_fraction
    }

    /// The configuration being executed.
    pub fn config(&self) -> &RetrainConfig {
        &self.config
    }

    /// Number of training samples selected for this run.
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// The model in its current (possibly partially trained) state — used
    /// for checkpoint hot-swaps (§5) and for deployment on completion.
    pub fn model(&self) -> &Mlp {
        &self.model
    }

    /// Validation accuracy of the current model state.
    pub fn accuracy(&self, val: &[Sample]) -> f64 {
        self.model.accuracy(DataView::new(val, self.num_classes))
    }

    /// `val` run through this run's frozen layers, for repeated
    /// [`RetrainExecution::accuracy_frozen`] calls over the whole run.
    pub fn freeze(&self, val: &[Sample]) -> FrozenInputs {
        self.model.frozen_inputs(DataView::new(val, self.num_classes))
    }

    /// [`RetrainExecution::accuracy`] on a split from
    /// [`RetrainExecution::freeze`] — the same value, bit for bit.
    pub fn accuracy_frozen(&self, val: &FrozenInputs) -> f64 {
        self.model.accuracy_frozen(val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekya_nn::mlp::MlpArch;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn cfg(epochs: u32, frac: f64, layers: u32, neurons: u32) -> RetrainConfig {
        RetrainConfig {
            epochs,
            batch_size: 16,
            last_layer_neurons: neurons,
            layers_trained: layers,
            data_fraction: frac,
        }
    }

    fn toy_pool(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let y = rng.gen_range(0..3usize);
                let base = y as f32 * 2.0 - 2.0;
                Sample::new(
                    vec![base + rng.gen_range(-0.4..0.4), -base + rng.gen_range(-0.4..0.4)],
                    y,
                )
            })
            .collect()
    }

    fn base_model() -> Mlp {
        Mlp::new(MlpArch { input_dim: 2, hidden: vec![8, 8], num_classes: 3 }, 3)
    }

    #[test]
    fn variant_respects_config() {
        let base = base_model();
        let v = build_variant(&base, &cfg(5, 1.0, 1, 16), 7);
        assert_eq!(*v.arch().hidden.last().unwrap(), 16);
        assert_eq!(v.layers_trained(), 1);
        // Same width requested: no resize.
        let v2 = build_variant(&base, &cfg(5, 1.0, 3, 8), 7);
        assert_eq!(*v2.arch().hidden.last().unwrap(), 8);
        assert_eq!(v2.layers_trained(), 3);
    }

    #[test]
    fn execution_steps_and_completes() {
        let pool = toy_pool(100, 1);
        let mut exec = RetrainExecution::new(
            &base_model(),
            &pool,
            cfg(4, 0.5, 3, 8),
            3,
            TrainHyper::default(),
            11,
        );
        assert_eq!(exec.num_samples(), 50);
        assert!(!exec.is_complete());
        for i in 1..=4 {
            exec.step_epoch();
            assert_eq!(exec.epochs_done(), i);
        }
        assert!(exec.is_complete());
        assert_eq!(exec.epochs_remaining(), 0);
        assert!((exec.k_done() - 2.0).abs() < 1e-12);
        // Extra steps are no-ops.
        assert_eq!(exec.step_epoch(), 0.0);
        assert_eq!(exec.epochs_done(), 4);
    }

    #[test]
    fn training_improves_accuracy() {
        let pool = toy_pool(200, 2);
        let val = toy_pool(100, 3);
        let mut exec = RetrainExecution::new(
            &base_model(),
            &pool,
            cfg(20, 1.0, 3, 8),
            3,
            TrainHyper::default(),
            13,
        );
        let before = exec.accuracy(&val);
        exec.run_to_completion();
        let after = exec.accuracy(&val);
        assert!(after > before, "training should improve: {before:.3} -> {after:.3}");
        assert!(after > 0.8, "toy problem should be learnable: {after:.3}");
    }

    #[test]
    fn execution_is_deterministic() {
        let pool = toy_pool(80, 4);
        let val = toy_pool(40, 5);
        let run = || {
            let mut e = RetrainExecution::new(
                &base_model(),
                &pool,
                cfg(5, 0.8, 3, 8),
                3,
                TrainHyper::default(),
                99,
            );
            e.run_to_completion();
            e.accuracy(&val)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn head_resize_resets_then_recovers() {
        let pool = toy_pool(200, 6);
        let val = toy_pool(100, 7);
        // Pre-train the base model.
        let mut pre = RetrainExecution::new(
            &base_model(),
            &pool,
            cfg(20, 1.0, 3, 8),
            3,
            TrainHyper::default(),
            15,
        );
        pre.run_to_completion();
        let trained = pre.model().clone();
        let trained_acc = pre.accuracy(&val);
        // Resize the head: accuracy drops initially, then retraining
        // recovers it.
        let mut resized = RetrainExecution::new(
            &trained,
            &pool,
            cfg(20, 1.0, 3, 16),
            3,
            TrainHyper::default(),
            16,
        );
        let fresh_head_acc = resized.accuracy(&val);
        assert!(fresh_head_acc < trained_acc, "fresh head should start worse");
        resized.run_to_completion();
        assert!(resized.accuracy(&val) > trained_acc - 0.1, "resized head should recover");
    }
}
