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
//! own swaps.
//!
//! A swap is a **staged reload**: the trainer pushes the checkpoint onto
//! the window's `SwapStage` with a due time one `swap_reload` after
//! the later of now and its previous checkpoint's due time, and goes
//! straight on to its next epoch. The reload is the modelled time the
//! stream's serving side takes to load the checkpoint: one stream's
//! reloads run one after another, different streams' overlap, and all
//! of them overlap training. The daemon installs each checkpoint once
//! it is due, in staging order, and ends the window's training phase
//! only when every job has replied and nothing is left staged — so Phase
//! E, the next window and every client still see every swap.
//!
//! The job runs `val` through its frozen layers once
//! ([`RetrainExecution::freeze`]); the accuracy of the last checkpoint is
//! the job's final accuracy.

use crate::actors::Actor;
use crate::serve::StreamSlot;
use ekya_core::{RetrainConfig, RetrainExecution, TrainHyper};
use ekya_nn::data::{DataView, Sample};
use ekya_nn::mlp::Mlp;
use ekya_telemetry::timing::Deadline;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One staged checkpoint: the model a slot serves once `due` has passed.
struct Staged {
    due: Deadline,
    slot: Arc<StreamSlot>,
    model: Arc<Mlp>,
}

/// The checkpoints a window's trainers have staged and the daemon has
/// not installed yet, in staging order.
#[derive(Default)]
pub(crate) struct SwapStage {
    staged: Mutex<Vec<Staged>>,
}

impl SwapStage {
    /// Installs every checkpoint due at `now`, in staging order, and
    /// returns how many stay staged. When tracing is on, the largest gap
    /// between a due time and `now` is the wall gauge
    /// `server.daemon/reload_lag_us`.
    pub(crate) fn install_due(&self, now: Deadline) -> usize {
        let mut staged = self.staged.lock().unwrap_or_else(PoisonError::into_inner);
        let mut lag = None;
        for ck in staged.extract_if(.., |ck| ck.due <= now) {
            ck.slot.install(ck.model);
            lag = lag.max(Some(now.past(ck.due)));
        }
        if let Some(lag) = lag {
            let lag_us = lag.as_micros().min(u64::MAX as u128) as u64;
            ekya_telemetry::timing::wall_gauge_max("server.daemon", "reload_lag_us", lag_us);
        }
        staged.len()
    }
}

/// Where a trainer hot-swaps improved checkpoints: one stream's serving
/// slot, through the window's `SwapStage`.
pub struct SwapTarget {
    slot: Arc<StreamSlot>,
    stage: Arc<SwapStage>,
    /// Due time of this job's last staged checkpoint.
    last_due: Option<Deadline>,
}

impl SwapTarget {
    pub(crate) fn new(slot: Arc<StreamSlot>, stage: Arc<SwapStage>) -> Self {
        Self { slot, stage, last_due: None }
    }

    /// The serving model's accuracy on `val`: the bar a checkpoint must
    /// clear before it is worth swapping in.
    fn serving_accuracy(&self, val: &[Sample], num_classes: usize) -> f64 {
        self.slot.model().0.accuracy(DataView::new(val, num_classes))
    }

    /// Stages `model` to serve once its `reload` has elapsed, starting at
    /// `now` or when this job's previous reload ends, whichever is later,
    /// and returns that due time. The `Arc::new` here is the
    /// copy-on-write boundary: a freshly materialised checkpoint enters
    /// shared ownership exactly once.
    fn swap(&mut self, now: Deadline, model: Mlp, reload: Duration) -> Deadline {
        let due = self.last_due.map_or(now, |last| last.max(now)).after(reload);
        self.last_due = Some(due);
        let ck = Staged { due, slot: Arc::clone(&self.slot), model: Arc::new(model) };
        self.stage.staged.lock().unwrap_or_else(PoisonError::into_inner).push(ck);
        due
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
    /// Modelled serving-side load latency per swap: how long after it is
    /// staged a checkpoint starts serving.
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
        let TrainerMsg::Run(mut spec) = msg;
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
            let Some(target) = &mut spec.swap_target else { continue };
            if acc > serving_accuracy {
                let mut model = exec.model().clone();
                model.set_layers_trained(usize::MAX);
                target.swap(Deadline::now(), model, spec.swap_reload);
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

    /// A slot serving `base`, and a stage its swaps go through.
    fn staged_slot(base: &Arc<Mlp>) -> (Arc<StreamSlot>, Arc<SwapStage>) {
        (Arc::new(StreamSlot::new(Arc::clone(base))), Arc::new(SwapStage::default()))
    }

    fn toy_model(seed: u64) -> Mlp {
        Mlp::new(MlpArch { input_dim: 2, hidden: vec![4], num_classes: 2 }, seed)
    }

    fn serves(slot: &StreamSlot, model: &Mlp) -> bool {
        format!("{:?}", *slot.model().0) == format!("{model:?}")
    }

    #[test]
    fn trainer_hot_swaps_into_slot() {
        let trainer = spawn_bounded("trainer", TrainerActor, 2);
        let job = spec(None);
        // Serve the *same untrained base model* the trainer starts from,
        // so the retrained model is better by construction and at least
        // the final swap must land.
        let (slot, stage) = staged_slot(&job.base_model);
        let target = SwapTarget::new(Arc::clone(&slot), Arc::clone(&stage));
        let job = TrainJobSpec { swap_target: Some(target), ..job };
        let val = Arc::clone(&job.val);
        let TrainerReply::Done(_) = trainer.ask(TrainerMsg::Run(Box::new(job))).unwrap();
        // No reload: every checkpoint was due when it was staged.
        assert_eq!(stage.install_due(Deadline::now()), 0);
        let (model, version) = slot.model();
        assert!(version >= 1, "at least one checkpoint should land");
        // The slot now serves a model at least as good as the trainer's
        // last-swapped checkpoint bar.
        let acc = model.accuracy(DataView::new(&val, 2));
        assert!(acc > 0.85, "serving accuracy after swaps: {acc}");
        trainer.stop();
    }

    /// The final swap — here the only one, behind a real reload — is
    /// staged by the time the trainer replies, and serves once the
    /// daemon's drain reaches its due time.
    #[test]
    fn final_swap_is_staged_before_the_reply_and_lands_at_the_drain() {
        let trainer = spawn_bounded("trainer", TrainerActor, 2);
        let job = spec(None);
        let (slot, stage) = staged_slot(&job.base_model);
        let reload = Duration::from_millis(5);
        // No mid-run checkpoints: the only swap is the final one.
        let job = TrainJobSpec {
            checkpoint_every: None,
            swap_target: Some(SwapTarget::new(Arc::clone(&slot), Arc::clone(&stage))),
            swap_reload: reload,
            ..job
        };
        let dispatched = Deadline::now();
        let TrainerReply::Done(out) = trainer.ask(TrainerMsg::Run(Box::new(job))).unwrap();
        assert_eq!(stage.install_due(dispatched), 1, "staged, and not due before its reload");
        assert_eq!(slot.model().1, 0, "nothing serves before its reload has elapsed");
        assert_eq!(stage.install_due(Deadline::now().after(reload)), 0);
        assert_eq!(slot.model().1, 1);
        assert!(serves(&slot, &out.model), "the drain installed the job's final model");
        trainer.stop();
    }

    #[test]
    fn a_checkpoint_installs_at_its_due_time_not_a_tick_before() {
        let (slot, stage) = staged_slot(&Arc::new(toy_model(1)));
        let mut target = SwapTarget::new(Arc::clone(&slot), Arc::clone(&stage));
        let (t0, reload) = (Deadline::now(), Duration::from_millis(5));
        let due = target.swap(t0, toy_model(2), reload);
        assert_eq!(due, t0.after(reload));
        assert_eq!(stage.install_due(t0.after(reload - Duration::from_nanos(1))), 1);
        assert_eq!(slot.model().1, 0);
        assert_eq!(stage.install_due(due), 0);
        assert_eq!(slot.model().1, 1);
        assert!(serves(&slot, &toy_model(2)));
    }

    #[test]
    fn one_streams_back_to_back_checkpoints_chain_and_install_in_order() {
        let (slot, stage) = staged_slot(&Arc::new(toy_model(1)));
        let mut target = SwapTarget::new(Arc::clone(&slot), Arc::clone(&stage));
        let (t0, reload) = (Deadline::now(), Duration::from_millis(5));
        let first = target.swap(t0, toy_model(2), reload);
        // Staged 1 ms later, the second reload still waits for the first.
        let second = target.swap(t0.after(Duration::from_millis(1)), toy_model(3), reload);
        assert_eq!(second, first.after(reload));
        assert_eq!(stage.install_due(first), 1);
        assert_eq!(slot.model().1, 1);
        assert!(serves(&slot, &toy_model(2)));
        assert_eq!(stage.install_due(second), 0);
        assert_eq!(slot.model().1, 2);
        assert!(serves(&slot, &toy_model(3)), "the later checkpoint serves");
        // A checkpoint staged after the chain has drained reloads from then.
        let later = second.after(Duration::from_millis(20));
        assert_eq!(target.swap(later, toy_model(4), reload), later.after(reload));
    }

    #[test]
    fn two_streams_staged_at_one_instant_share_a_due_time() {
        let base = Arc::new(toy_model(1));
        let stage = Arc::new(SwapStage::default());
        let slots: Vec<_> = (0..2).map(|_| Arc::new(StreamSlot::new(Arc::clone(&base)))).collect();
        let (t0, reload) = (Deadline::now(), Duration::from_millis(5));
        let dues: Vec<_> = slots
            .iter()
            .zip([2, 3])
            .map(|(slot, seed)| {
                let mut target = SwapTarget::new(Arc::clone(slot), Arc::clone(&stage));
                target.swap(t0, toy_model(seed), reload)
            })
            .collect();
        assert_eq!(dues, vec![t0.after(reload); 2], "reloads of different streams overlap");
        assert_eq!(stage.install_due(dues[0]), 0);
        assert!(slots.iter().all(|slot| slot.model().1 == 1));
    }

    /// A drain past every due time installs everything in staging order,
    /// not due order: here two jobs staged into one slot with different
    /// reloads, the earlier-staged one due later, and the later-staged
    /// one is what serves.
    #[test]
    fn a_drain_installs_everything_in_staging_order() {
        let (slot, stage) = staged_slot(&Arc::new(toy_model(1)));
        let other = Arc::new(StreamSlot::new(Arc::new(toy_model(1))));
        let t0 = Deadline::now();
        let mut slow = SwapTarget::new(Arc::clone(&slot), Arc::clone(&stage));
        let mut fast = SwapTarget::new(Arc::clone(&slot), Arc::clone(&stage));
        let mut beside = SwapTarget::new(Arc::clone(&other), Arc::clone(&stage));
        slow.swap(t0, toy_model(2), Duration::from_millis(9));
        beside.swap(t0, toy_model(3), Duration::from_millis(1));
        fast.swap(t0, toy_model(4), Duration::ZERO);
        assert_eq!(stage.install_due(t0.after(Duration::from_secs(1))), 0);
        assert_eq!((slot.model().1, other.model().1), (2, 1));
        assert!(serves(&slot, &toy_model(4)), "staged last, installed last");
        assert!(serves(&other, &toy_model(3)));
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
