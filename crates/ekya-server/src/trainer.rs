//! Per-stream trainer actor.
//!
//! Runs a retraining configuration to completion with real SGD, and —
//! when given the stream's inference address — hot-swaps improved
//! checkpoints into serving mid-run (§5 "Ekya can improve inference
//! accuracy by checkpointing the model during retraining and dynamically
//! loading it as the inference model").
//!
//! The trainer never blocks on the shard for an answer it does not need
//! yet. The serving bar's `Evaluate` and every checkpoint `Swap` go out
//! as deferred asks:
//!
//! * the bar is queued before the first epoch and read at the first
//!   checkpoint;
//! * swap *k* is settled at checkpoint *k + 1*, before that checkpoint's
//!   `acc > serving_accuracy` comparison, so every decision sees exactly
//!   the bar a blocking trainer would have seen;
//! * a job's **final** swap is never awaited. The shard's mailbox is one
//!   FIFO queue and the swap is enqueued before the trainer replies, so
//!   the swap is applied before anything sent after that reply — Phase
//!   E's `GetModel`, the next window's `Evaluate`, any client request.
//!   Waiting for it would only idle the trainer through the shard's
//!   modelled reload.
//!
//! The shard still sleeps its `reload` per swap, and requests still
//! queue behind it (§5's serving pause); only the trainer stops waiting.
//! Because the last swap is not awaited, a [`TrainOutcome`] does not say
//! how many swaps landed — the daemon credits swaps from the shard's
//! model versions.
//!
//! The job runs `val` through its frozen layers once
//! ([`RetrainExecution::freeze`]); the accuracy of the last checkpoint is
//! the job's final accuracy.

use crate::actors::{Actor, ActorError, Address, Pending};
use crate::serve::{InferenceShard, ShardMsg, ShardReply};
use ekya_core::{RetrainConfig, RetrainExecution, TrainHyper};
use ekya_nn::data::Sample;
use ekya_nn::mlp::Mlp;
use std::sync::Arc;
use std::time::Duration;

/// Where a trainer hot-swaps improved checkpoints: one stream's slot
/// inside a multiplexed inference shard.
pub struct SwapTarget {
    /// The shard serving this stream.
    pub addr: Address<InferenceShard>,
    /// Stream id within the shard.
    pub stream: u32,
}

/// A shard reply the trainer has asked for but not yet read.
type Deferred = Result<Pending<ShardReply>, ActorError>;

impl SwapTarget {
    /// Queues an evaluation of the serving model on `val`: the bar a
    /// checkpoint must clear before it is worth swapping in.
    fn ask_serving_accuracy(&self, val: &Arc<Vec<Sample>>) -> Deferred {
        self.addr.ask_deferred(ShardMsg::Evaluate { stream: self.stream, batch: Arc::clone(val) })
    }

    /// Queues a swap of `model` into serving. The `Arc::new` here is the
    /// copy-on-write boundary: a freshly materialised checkpoint enters
    /// shared ownership exactly once.
    fn ask_swap(&self, model: Mlp, reload: Duration) -> Deferred {
        self.addr.ask_deferred(ShardMsg::Swap {
            stream: self.stream,
            model: Arc::new(model),
            reload,
        })
    }
}

/// Blocks on a deferred shard reply, timed as the wall span
/// `server.trainer/shard_wait`.
fn shard_wait(reply: Deferred) -> Result<ShardReply, ActorError> {
    let _wall = ekya_telemetry::timing::wall_span("server.trainer", "shard_wait");
    reply?.wait()
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
        // The swap bar: the serving side's current accuracy, asked for
        // now and read at the first checkpoint.
        let mut bar = spec.swap_target.as_ref().map(|t| t.ask_serving_accuracy(&spec.val));
        let mut serving_accuracy = 0.0;
        // The newest swap sent, with the accuracy that becomes the bar
        // once the shard confirms it.
        let mut in_flight: Option<(Deferred, f64)> = None;
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
            if let Some(reply) = bar.take() {
                if let Ok(ShardReply::Accuracy(a)) = shard_wait(reply) {
                    serving_accuracy = a;
                }
            }
            if let Some((reply, swapped_acc)) = in_flight.take() {
                if let Ok(ShardReply::Swapped { .. }) = shard_wait(reply) {
                    serving_accuracy = swapped_acc;
                }
            }
            if acc > serving_accuracy {
                let mut model = exec.model().clone();
                model.set_layers_trained(usize::MAX);
                in_flight = Some((target.ask_swap(model, spec.swap_reload), acc));
            }
        }
        // `in_flight` — the final swap — drops here unread; see the
        // module doc for why it is still applied before anything later.
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
    use crate::actors::{spawn_bounded, spawn_supervised_bounded};
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
        let direct = out.model.accuracy(ekya_nn::data::DataView::new(&val, 2));
        assert_eq!(out.final_accuracy.to_bits(), direct.to_bits());
        trainer.stop();
    }

    #[test]
    fn trainer_hot_swaps_into_shard() {
        let trainer = spawn_bounded("trainer", TrainerActor, 2);
        let job = spec(None);
        // Serve the *same untrained base model* the trainer starts from,
        // so the retrained model is better by construction and at least
        // the final swap must land.
        let shard = spawn_bounded("shard", InferenceShard::default(), 8);
        assert!(matches!(
            shard.ask(ShardMsg::Admit {
                stream: 0,
                model: Arc::clone(&job.base_model),
                num_classes: 2
            }),
            Ok(ShardReply::Admitted)
        ));
        let job = TrainJobSpec {
            swap_target: Some(SwapTarget { addr: shard.address(), stream: 0 }),
            ..job
        };
        let val = Arc::clone(&job.val);
        let TrainerReply::Done(_) = trainer.ask(TrainerMsg::Run(Box::new(job))).unwrap();
        let Ok(ShardReply::Model { version, .. }) = shard.ask(ShardMsg::GetModel { stream: 0 })
        else {
            panic!("wrong reply")
        };
        assert!(version >= 1, "at least one checkpoint should land");
        // The shard now serves a model at least as good as the trainer's
        // last-swapped checkpoint bar.
        let Ok(ShardReply::Accuracy(acc)) = shard.ask(ShardMsg::Evaluate { stream: 0, batch: val })
        else {
            panic!("wrong reply")
        };
        assert!(acc > 0.85, "serving accuracy after swaps: {acc}");
        trainer.stop();
        shard.stop();
    }

    /// The trainer replies without waiting for its final swap, which the
    /// shard is still reloading — yet the shard's FIFO mailbox applies
    /// it before any message sent after the reply.
    #[test]
    fn unawaited_final_swap_lands_before_later_messages() {
        let trainer = spawn_bounded("trainer", TrainerActor, 2);
        let shard = spawn_bounded("shard", InferenceShard::default(), 8);
        let job = spec(None);
        assert!(matches!(
            shard.ask(ShardMsg::Admit {
                stream: 0,
                model: Arc::clone(&job.base_model),
                num_classes: 2
            }),
            Ok(ShardReply::Admitted)
        ));
        // No mid-run checkpoints: the only swap is the final one.
        let job = TrainJobSpec {
            checkpoint_every: None,
            swap_target: Some(SwapTarget { addr: shard.address(), stream: 0 }),
            swap_reload: Duration::from_millis(50),
            ..job
        };
        let TrainerReply::Done(out) = trainer.ask(TrainerMsg::Run(Box::new(job))).unwrap();
        let Ok(ShardReply::Model { model, version }) = shard.ask(ShardMsg::GetModel { stream: 0 })
        else {
            panic!("wrong reply")
        };
        assert_eq!(version, 1, "the final swap was applied first");
        assert_eq!(format!("{:?}", *model), format!("{:?}", out.model));
        trainer.stop();
        shard.stop();
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
