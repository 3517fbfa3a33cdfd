//! Per-stream trainer actor.
//!
//! Runs a retraining configuration to completion with real SGD, and —
//! when given the stream's serving slot — hot-swaps improved checkpoints
//! into serving mid-run (§5 "Ekya can improve inference accuracy by
//! checkpointing the model during retraining and dynamically loading it
//! as the inference model").
//!
//! The swap bar is the accuracy of the model serving when the job
//! starts, on the job's validation batch: the trainer clones the slot's
//! model and evaluates it outside the lock. Only this job swaps this
//! stream in this window, so the bar cannot move under it except by its
//! own swaps. Each better checkpoint is **installed before the job
//! continues**, and so before it replies: Phase E, the next window and
//! every client see every swap without any ordering argument.
//!
//! A swap first pays the modelled weight reload (`swap_reload`, timed as
//! the wall span `server.trainer/reload`) on the trainer's own thread,
//! outside the slot's lock, so no stream's serving pauses for it.
//!
//! The job runs `val` through its frozen layers once
//! ([`RetrainExecution::freeze`]); the accuracy of the last checkpoint is
//! the job's final accuracy.

use crate::actors::Actor;
use crate::serve::StreamSlot;
use ekya_core::{RetrainConfig, RetrainExecution, TrainHyper};
use ekya_nn::data::{DataView, Sample};
use ekya_nn::mlp::Mlp;
use std::sync::Arc;
use std::time::Duration;

/// Where a trainer hot-swaps improved checkpoints: one stream's serving
/// slot.
pub struct SwapTarget {
    slot: Arc<StreamSlot>,
}

impl SwapTarget {
    pub(crate) fn new(slot: Arc<StreamSlot>) -> Self {
        Self { slot }
    }

    /// The serving model's accuracy on `val`: the bar a checkpoint must
    /// clear before it is worth swapping in.
    fn serving_accuracy(&self, val: &[Sample], num_classes: usize) -> f64 {
        self.slot.model().0.accuracy(DataView::new(val, num_classes))
    }

    /// Pays the modelled reload, then installs `model` into serving. The
    /// `Arc::new` here is the copy-on-write boundary: a freshly
    /// materialised checkpoint enters shared ownership exactly once.
    fn swap(&self, model: Mlp, reload: Duration) {
        if !reload.is_zero() {
            let _wall = ekya_telemetry::timing::wall_span("server.trainer", "reload");
            std::thread::sleep(reload);
        }
        self.slot.install(Arc::new(model));
    }
}

/// One retraining job. Model and data inputs are `Arc`-shared: the
/// planner keeps its copies and the trainer only reads through them, so
/// dispatching a job deep-copies nothing.
pub struct TrainJobSpec {
    /// Model state to start from.
    pub base_model: Arc<Mlp>,
    /// Teacher-labelled training pool.
    pub pool: Arc<Vec<Sample>>,
    /// The retraining configuration to run.
    pub config: RetrainConfig,
    /// Number of classes.
    pub num_classes: usize,
    /// SGD hyperparameters.
    pub hyper: TrainHyper,
    /// RNG seed.
    pub seed: u64,
    /// Checkpoint cadence in epochs (`None` disables mid-run swaps).
    pub checkpoint_every: Option<u32>,
    /// Serving-side target to hot-swap checkpoints into.
    pub swap_target: Option<SwapTarget>,
    /// Simulated weight-reload cost per swap.
    pub swap_reload: Duration,
    /// Validation batch for swap decisions (teacher-labelled).
    pub val: Arc<Vec<Sample>>,
    /// Fault injection: panic after this many completed epochs (the
    /// supervised-recovery test path). `None` — the production state —
    /// means never fail.
    pub fail_after_epochs: Option<u32>,
}

/// Result of a completed retraining job.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The fully retrained model.
    pub model: Mlp,
    /// Epochs executed.
    pub epochs: u32,
    /// Final accuracy on the job's validation batch.
    pub final_accuracy: f64,
}

/// Messages a trainer actor understands.
pub enum TrainerMsg {
    /// Run a retraining job to completion.
    Run(Box<TrainJobSpec>),
}

/// Replies from a trainer actor.
pub enum TrainerReply {
    /// The job finished.
    Done(Box<TrainOutcome>),
}

/// The trainer actor (stateless between jobs: one job per message).
#[derive(Default)]
pub struct TrainerActor;

impl Actor for TrainerActor {
    type Msg = TrainerMsg;
    type Reply = TrainerReply;

    fn handle(&mut self, msg: TrainerMsg) -> TrainerReply {
        let TrainerMsg::Run(spec) = msg;
        let _job_wall = ekya_telemetry::timing::wall_span("server.trainer", "job");
        let mut exec = RetrainExecution::new(
            &spec.base_model,
            &spec.pool,
            spec.config,
            spec.num_classes,
            spec.hyper,
            spec.seed,
        );
        let val = exec.freeze(&spec.val);
        let mut serving_accuracy = spec
            .swap_target
            .as_ref()
            .map_or(0.0, |t| t.serving_accuracy(&spec.val, spec.num_classes));
        let mut last_accuracy = None;
        while !exec.is_complete() {
            exec.step_epoch();
            if spec.fail_after_epochs.is_some_and(|n| exec.epochs_done() >= n) {
                panic!("injected trainer fault after {} epochs", exec.epochs_done());
            }
            let at_checkpoint = spec
                .checkpoint_every
                .map(|ck| ck > 0 && exec.epochs_done().is_multiple_of(ck))
                .unwrap_or(false);
            if !(at_checkpoint || exec.is_complete()) {
                continue;
            }
            let acc = exec.accuracy_frozen(&val);
            last_accuracy = Some(acc);
            let Some(target) = &spec.swap_target else { continue };
            if acc > serving_accuracy {
                let mut model = exec.model().clone();
                model.set_layers_trained(usize::MAX);
                target.swap(model, spec.swap_reload);
                serving_accuracy = acc;
            }
        }
        let final_accuracy = last_accuracy.unwrap_or_else(|| exec.accuracy_frozen(&val));
        let mut model = exec.model().clone();
        model.set_layers_trained(usize::MAX);
        TrainerReply::Done(Box::new(TrainOutcome {
            model,
            epochs: exec.epochs_done(),
            final_accuracy,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::{spawn_bounded, spawn_supervised_bounded, ActorError};
    use ekya_nn::mlp::MlpArch;
    use rand::Rng;
    use rand::SeedableRng;

    fn toy_data(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let y = rng.gen_range(0..2usize);
                let c = y as f32 * 2.0 - 1.0;
                Sample::new(vec![c + rng.gen_range(-0.3..0.3), -c], y)
            })
            .collect()
    }

    fn spec(swap_target: Option<SwapTarget>) -> TrainJobSpec {
        TrainJobSpec {
            base_model: Arc::new(Mlp::new(
                MlpArch { input_dim: 2, hidden: vec![8], num_classes: 2 },
                1,
            )),
            pool: Arc::new(toy_data(150, 2)),
            config: RetrainConfig {
                epochs: 20,
                batch_size: 16,
                last_layer_neurons: 8,
                layers_trained: 2,
                data_fraction: 1.0,
            },
            num_classes: 2,
            hyper: TrainHyper::default(),
            seed: 3,
            checkpoint_every: Some(5),
            swap_target,
            swap_reload: Duration::ZERO,
            val: Arc::new(toy_data(80, 4)),
            fail_after_epochs: None,
        }
    }

    #[test]
    fn trainer_learns_and_reports() {
        let trainer = spawn_bounded("trainer", TrainerActor, 2);
        let job = spec(None);
        let val = Arc::clone(&job.val);
        let TrainerReply::Done(out) = trainer.ask(TrainerMsg::Run(Box::new(job))).unwrap();
        assert_eq!(out.epochs, 20);
        assert!(out.final_accuracy > 0.9, "toy problem learnable: {}", out.final_accuracy);
        // The reused last-checkpoint evaluation is the returned model's.
        let direct = out.model.accuracy(DataView::new(&val, 2));
        assert_eq!(out.final_accuracy.to_bits(), direct.to_bits());
        trainer.stop();
    }

    #[test]
    fn trainer_hot_swaps_into_slot() {
        let trainer = spawn_bounded("trainer", TrainerActor, 2);
        let job = spec(None);
        // Serve the *same untrained base model* the trainer starts from,
        // so the retrained model is better by construction and at least
        // the final swap must land.
        let slot = Arc::new(StreamSlot::new(Arc::clone(&job.base_model)));
        let job = TrainJobSpec { swap_target: Some(SwapTarget::new(Arc::clone(&slot))), ..job };
        let val = Arc::clone(&job.val);
        let TrainerReply::Done(_) = trainer.ask(TrainerMsg::Run(Box::new(job))).unwrap();
        let (model, version) = slot.model();
        assert!(version >= 1, "at least one checkpoint should land");
        // The slot now serves a model at least as good as the trainer's
        // last-swapped checkpoint bar.
        let acc = model.accuracy(DataView::new(&val, 2));
        assert!(acc > 0.85, "serving accuracy after swaps: {acc}");
        trainer.stop();
    }

    /// The final swap — here the only one, behind a real reload — is in
    /// the slot by the time the trainer replies.
    #[test]
    fn final_swap_is_installed_before_the_job_replies() {
        let trainer = spawn_bounded("trainer", TrainerActor, 2);
        let job = spec(None);
        let slot = Arc::new(StreamSlot::new(Arc::clone(&job.base_model)));
        // No mid-run checkpoints: the only swap is the final one.
        let job = TrainJobSpec {
            checkpoint_every: None,
            swap_target: Some(SwapTarget::new(Arc::clone(&slot))),
            swap_reload: Duration::from_millis(5),
            ..job
        };
        let TrainerReply::Done(out) = trainer.ask(TrainerMsg::Run(Box::new(job))).unwrap();
        let (model, version) = slot.model();
        assert_eq!(version, 1, "the final swap was installed before the reply");
        assert_eq!(format!("{:?}", *model), format!("{:?}", out.model));
        trainer.stop();
    }

    #[test]
    fn injected_fault_panics_through_supervision() {
        let trainer = spawn_supervised_bounded("trainer", || TrainerActor, 2);
        let job = TrainJobSpec { fail_after_epochs: Some(2), ..spec(None) };
        assert_eq!(trainer.ask(TrainerMsg::Run(Box::new(job))).err(), Some(ActorError::Panicked));
        // The supervisor rebuilt the trainer: the next job runs clean.
        let TrainerReply::Done(out) = trainer.ask(TrainerMsg::Run(Box::new(spec(None)))).unwrap();
        assert_eq!(out.epochs, 20);
        assert_eq!(trainer.restarts(), 1);
        trainer.stop();
    }
}
