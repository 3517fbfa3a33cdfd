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
            self.profiler.profile_measured(
                model,
                &pool,
                &sys_val,
                retrain_grid,
                self.num_classes,
                seed,
                Some(serving_sys),
            )
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
    use crate::exec::resizes_head;
    use ekya_nn::fit::LearningCurve;
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

    /// Every number of a profiling pass, as bits.
    fn profile_bits(out: &ProfileOutput) -> (Vec<(RetrainConfig, [u64; 4])>, u64, usize) {
        let profiles = out
            .profiles
            .iter()
            .map(|p| {
                let LearningCurve { a, b, c } = p.curve;
                (p.config, [a, b, c, p.gpu_seconds_per_epoch].map(f64::to_bits))
            })
            .collect();
        (profiles, out.gpu_seconds_spent.to_bits(), out.pruned)
    }

    /// `prepare` hands the profiler the serving accuracy it measured on
    /// `sys_val` instead of letting it measure the same model on the same
    /// split again: its profiles must be the bits that `MicroProfiler::profile`
    /// returns when called directly on a clone of the same learner.
    #[test]
    fn prepare_profiles_as_the_profiler_does_alone() {
        let (_, ds, _) = setup();
        // `ServeConfig::quick`'s grid and profiler settings (ekya-server).
        let quick_grid: Vec<RetrainConfig> = [3, 6]
            .map(|epochs| RetrainConfig {
                epochs,
                batch_size: 8,
                last_layer_neurons: 16,
                layers_trained: 2,
                data_fraction: 1.0,
            })
            .to_vec();
        let quick = MicroProfilerParams {
            profile_epochs: 2,
            profile_data_fraction: 0.5,
            ..MicroProfilerParams::default()
        };
        let (mut kept, mut resized) = (0, 0);
        for (grid, params) in
            [(default_retrain_grid(), MicroProfilerParams::default()), (quick_grid, quick)]
        {
            // Both grids train 16-wide heads: a 16-wide serving head is
            // kept by every variant, an 8-wide one resized by every variant.
            for head in [16, 8] {
                let model = Mlp::new(MlpArch::edge(ds.feature_dim, ds.num_classes, head), 5);
                let mut learner = StreamLearner::new(
                    stream_seed(5, 1),
                    ds.num_classes,
                    0.02,
                    4,
                    params,
                    CostModel::default(),
                );
                // The second window profiles with exemplars in the pool
                // and, on the default grid, a pruning history.
                for w in 0..2 {
                    let mut direct = learner.clone();
                    let seed = 11 + w as u64;
                    let prep = learner.prepare(&model, ds.window(w), &grid, Some(seed));
                    let want = direct.profiler.profile(
                        &model,
                        &prep.pool,
                        &prep.sys_val,
                        &grid,
                        ds.num_classes,
                        seed,
                    );
                    let got = prep.profile.as_ref().expect("a profile seed was given");
                    assert_eq!(profile_bits(got), profile_bits(&want), "head {head}, window {w}");
                    learner.fold(prep.fresh());
                }
                kept += grid.iter().filter(|c| !resizes_head(&model, c)).count();
                resized += grid.iter().filter(|c| resizes_head(&model, c)).count();
            }
        }
        assert!(kept > 0 && resized > 0, "kept {kept}, resized {resized}");
    }
}
