//! The per-stream learner (§4–§5).
//!
//! Every retraining window starts the same way for each stream: the golden
//! model labels the window's training pool and validation split, the iCaRL
//! exemplars are mixed into the pool, the serving model is measured on the
//! labelled split, and the micro-profiler estimates the retraining grid.
//! [`StreamLearner`] owns the per-stream state that sequence runs on — the
//! teacher, the exemplar memory and the profiler — and
//! [`StreamLearner::prepare`] runs it, once, for every caller: the
//! simulator's window runner, the serving daemon's Phase A, the trace
//! recorder and the Fig. 10 runtime probe. Where those callers differ, the
//! difference is an argument (the profile seed, or `None` to skip
//! profiling), never a branch on who is asking.

use crate::config::RetrainConfig;
use crate::microprofiler::{MicroProfiler, MicroProfilerParams, ProfileOutput};
use ekya_nn::continual::ExemplarMemory;
use ekya_nn::cost::CostModel;
use ekya_nn::data::{DataView, Sample};
use ekya_nn::golden::{distill_labels, OracleTeacher};
use ekya_nn::mlp::Mlp;
use ekya_video::WindowData;

/// The seed of stream `stream` under the base seed `base` — the
/// workspace's one per-stream seeding rule. It seeds the stream's initial
/// model, and [`StreamLearner::new`] derives the teacher and profiler
/// seeds from it.
pub fn stream_seed(base: u64, stream: usize) -> u64 {
    base.wrapping_add(7919 * stream as u64)
}

/// One stream's learning state across windows: golden-model teacher,
/// exemplar memory and micro-profiler.
#[derive(Debug, Clone)]
pub struct StreamLearner {
    num_classes: usize,
    teacher: OracleTeacher,
    memory: ExemplarMemory,
    profiler: MicroProfiler,
}

/// What [`StreamLearner::prepare`] hands back for one window.
#[derive(Debug, Clone)]
pub struct PreparedWindow {
    /// The retraining set: the window's teacher-labelled training pool
    /// ([`PreparedWindow::fresh`]), then every stored exemplar.
    pub pool: Vec<Sample>,
    fresh_len: usize,
    /// The validation split, teacher-labelled (what the system observes).
    pub sys_val: Vec<Sample>,
    /// The serving model's accuracy on `sys_val`.
    pub serving_sys: f64,
    /// Micro-profiles of the retraining grid, when a profile seed was given.
    pub profile: Option<ProfileOutput>,
}

impl PreparedWindow {
    /// The window's training pool, teacher-labelled: the head of `pool`.
    pub fn fresh(&self) -> &[Sample] {
        &self.pool[..self.fresh_len]
    }
}

impl StreamLearner {
    /// A learner for a stream with per-stream seed `seed` (see
    /// [`stream_seed`]): a teacher with `teacher_error_rate` seeded
    /// `seed ^ 0xC0`, an empty memory of `exemplar_per_class` exemplars per
    /// class, and a profiler seeded `seed ^ 0xB00`.
    pub fn new(
        seed: u64,
        num_classes: usize,
        teacher_error_rate: f64,
        exemplar_per_class: usize,
        profiler: MicroProfilerParams,
        cost: CostModel,
    ) -> Self {
        Self {
            num_classes,
            teacher: OracleTeacher::new(teacher_error_rate, num_classes, seed ^ 0xC0),
            memory: ExemplarMemory::new(num_classes, exemplar_per_class),
            profiler: MicroProfiler::new(profiler, cost, seed ^ 0xB00),
        }
    }

    /// Prepares `window` for a stream serving `model`: labels the training
    /// pool and then the validation split (this draw order is what the
    /// fingerprints pin), mixes the exemplars into the pool, measures
    /// `model` on the labelled split and, given `profile_seed`,
    /// micro-profiles `retrain_grid`. The memory is left as it was; fold
    /// labels into it with [`StreamLearner::fold`].
    pub fn prepare(
        &mut self,
        model: &Mlp,
        window: &WindowData,
        retrain_grid: &[RetrainConfig],
        profile_seed: Option<u64>,
    ) -> PreparedWindow {
        let fresh = self.label(&window.train_pool);
        let fresh_len = fresh.len();
        let pool = self.memory.training_mix(fresh);
        let sys_val = self.label(&window.val);
        let serving_sys = model.accuracy(DataView::new(&sys_val, self.num_classes));
        let profile = profile_seed.map(|seed| {
            self.profiler.profile(model, &pool, &sys_val, retrain_grid, self.num_classes, seed)
        });
        PreparedWindow { pool, fresh_len, sys_val, serving_sys, profile }
    }

    /// Labels `frames` with the teacher (one draw per frame).
    pub fn label(&mut self, frames: &[Sample]) -> Vec<Sample> {
        distill_labels(&mut self.teacher, frames)
    }

    /// Folds teacher-labelled samples into the exemplar memory.
    pub fn fold(&mut self, labelled: &[Sample]) {
        self.memory.update(labelled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::default_retrain_grid;
    use ekya_nn::mlp::MlpArch;
    use ekya_video::{DatasetKind, DatasetSpec, VideoDataset};

    fn setup() -> (Mlp, VideoDataset, StreamLearner) {
        let ds = VideoDataset::generate(DatasetSpec::new(DatasetKind::Waymo, 2, 3));
        let model = Mlp::new(MlpArch::edge(ds.feature_dim, ds.num_classes, 16), 5);
        let learner = StreamLearner::new(
            stream_seed(5, 1),
            ds.num_classes,
            0.02,
            4,
            MicroProfilerParams::default(),
            CostModel::default(),
        );
        (model, ds, learner)
    }

    #[test]
    fn prepare_labels_train_pool_before_val() {
        let (model, ds, mut learner) = setup();
        let mut by_hand = learner.clone();
        let w = ds.window(0);
        let prep = learner.prepare(&model, w, &default_retrain_grid(), None);
        assert_eq!(prep.fresh(), by_hand.label(&w.train_pool));
        assert_eq!(prep.sys_val, by_hand.label(&w.val));
        assert_eq!(prep.pool, prep.fresh(), "an empty memory mixes in nothing");
        assert!(prep.profile.is_none(), "no seed, no profiling");
    }

    #[test]
    fn folded_exemplars_join_the_next_pool() {
        let (model, ds, mut learner) = setup();
        let grid = &default_retrain_grid()[..2];
        let first = learner.prepare(&model, ds.window(0), grid, Some(1));
        assert!(first.profile.as_ref().is_some_and(|p| !p.profiles.is_empty()));
        learner.fold(first.fresh());
        let second = learner.prepare(&model, ds.window(1), grid, None);
        let exemplars = &second.pool[second.fresh().len()..];
        assert!(!exemplars.is_empty());
        assert!(exemplars.iter().all(|s| first.fresh().contains(s)), "exemplars follow fresh data");
    }
}
