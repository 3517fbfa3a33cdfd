//! Multi-layer perceptron classifier — the stand-in for the paper's
//! compressed edge DNN (ResNet18) and the high-capacity golden model
//! (ResNeXt101).
//!
//! The scheduler and micro-profiler only ever interact with the model
//! through its learning behaviour (accuracy as a function of epochs, data
//! size, frozen layers, batch size), so a small but *genuinely trained*
//! classifier preserves the phenomena Ekya exploits:
//!
//! * diminishing-returns learning curves (fit by the micro-profiler);
//! * a capacity ceiling — narrow models cannot memorise many appearance
//!   modes (§2.2 "fewer weights and shallower architectures");
//! * layer freezing trading accuracy for cheaper epochs (Fig 3a);
//! * accuracy collapse under data drift and recovery after retraining.
//!
//! Implemented: dense layers, ReLU, softmax cross-entropy, minibatch SGD
//! with momentum, per-layer freezing, last-hidden-layer resizing ("number
//! of neurons in the last layer" hyperparameter), seeded determinism.
//! Omitted (not needed by any experiment): convolutions, dropout,
//! batch-norm, weight decay, GPU execution.
//!
//! Frozen layers are paid for once per training job, not once per epoch:
//! [`Mlp::frozen_inputs`] runs a dataset through the frozen prefix into a
//! [`FrozenInputs`] block, and [`Mlp::train_epoch_frozen`] /
//! [`Mlp::accuracy_frozen`] start their forward pass at the lowest
//! trainable layer. This is exact, not an approximation: frozen weights
//! never move (the optimiser skips them and backprop stops at the lowest
//! trainable layer), and every forward step — GEMM row, bias, ReLU —
//! computes a row from that row alone, so a row frozen inside the whole
//! dataset has the bits it would have inside any minibatch.
//! [`Mlp::train_epoch`] is exactly `frozen_inputs` + `train_epoch_frozen`.

use crate::data::{DataView, Sample};
use crate::tensor::{relu_inplace_into, softmax_rows, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One dense (fully connected) layer: `y = x W + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, `in_dim x out_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
}

impl Dense {
    /// He-initialised layer (suits ReLU activations).
    pub fn he_init(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let std = (2.0 / in_dim as f32).sqrt();
        let w = Matrix::from_fn(in_dim, out_dim, |_, _| {
            crate::gauss::sample_gaussian(rng, 1.0) as f32 * std
        });
        Self { w, b: vec![0.0; out_dim] }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

/// Architecture description for [`Mlp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpArch {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Hidden layer widths, in order. The last entry is the "last layer
    /// neurons" hyperparameter from the paper's retraining configurations.
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub num_classes: usize,
}

impl MlpArch {
    /// A compact edge-model architecture (the "compressed ResNet18" stand-in).
    pub fn edge(input_dim: usize, num_classes: usize, last_layer_neurons: usize) -> Self {
        Self { input_dim, hidden: vec![24, last_layer_neurons], num_classes }
    }

    /// A heavyweight golden-model architecture (the "ResNeXt101" stand-in).
    pub fn golden(input_dim: usize, num_classes: usize) -> Self {
        Self { input_dim, hidden: vec![128, 128, 64], num_classes }
    }

    /// Total number of trainable layers (hidden layers + output layer).
    pub fn num_layers(&self) -> usize {
        self.hidden.len() + 1
    }
}

/// Multi-layer perceptron with per-layer freezing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    arch: MlpArch,
    layers: Vec<Dense>,
    /// `trainable[i]` is false when layer `i` is frozen (its parameters are
    /// not updated and no gradient flows below the lowest trainable layer).
    trainable: Vec<bool>,
}

/// A dataset as the lowest trainable layer of one model sees it: each
/// sample's activations after the frozen layers below that layer (the raw
/// features when nothing is frozen), as one row-major `samples x width`
/// block, plus the labels and the layer index the block enters at. Built
/// by [`Mlp::frozen_inputs`]; valid for as long as the model's frozen
/// layers and freeze depth are unchanged, which holds for a whole
/// training job. Its size is `samples x width` floats: 16 per sample for
/// both freeze depths of the paper grid on the 16 → 24 → 16 → k edge
/// network.
#[derive(Debug, Clone)]
pub struct FrozenInputs {
    layer: usize,
    x: Matrix,
    labels: Vec<usize>,
}

impl FrozenInputs {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the block holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Reusable buffers for one training run: batch labels, per-layer
/// activations/masks (the minibatch itself is gathered straight into the
/// activation slot of the lowest trainable layer), softmax probabilities,
/// the two backprop delta buffers, and the per-layer gradients. One
/// workspace serves every minibatch of an epoch (buffers are reshaped in
/// place as batch sizes change), which removes the per-batch allocation
/// churn the original loop paid — the dominant cost of many small
/// training runs like the micro-profiler's.
struct Workspace {
    labels: Vec<usize>,
    acts: Vec<Matrix>,
    masks: Vec<Vec<bool>>,
    probs: Matrix,
    delta: Matrix,
    delta_next: Matrix,
    gw: Vec<Matrix>,
    gb: Vec<Vec<f32>>,
}

impl Workspace {
    fn new(model: &Mlp) -> Self {
        Self {
            labels: Vec::new(),
            acts: (0..=model.layers.len()).map(|_| Matrix::zeros(0, 0)).collect(),
            masks: (1..model.layers.len()).map(|_| Vec::new()).collect(),
            probs: Matrix::zeros(0, 0),
            delta: Matrix::zeros(0, 0),
            delta_next: Matrix::zeros(0, 0),
            gw: model.layers.iter().map(|l| Matrix::zeros(l.w.rows(), l.w.cols())).collect(),
            gb: model.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }
}

/// Reusable forward-pass buffers for batched prediction — the public,
/// serving-path analogue of the private training `Workspace`. One
/// scratch serves any sequence of [`Mlp::predict_into`] /
/// [`Mlp::accuracy_with`] calls: batch features, per-layer activations
/// and ReLU masks, softmax probabilities, and the prediction vector all
/// reuse one allocation each, reshaped in place as batch sizes — and
/// even *models* (a hot-swap to a deeper, shallower, wider, or narrower
/// network) — change underneath it. Every `_into` kernel fully rewrites
/// its output for the current shape, so a dirty oversized buffer can
/// never leak stale tail bytes into a result; the scratch path is
/// bit-identical to the allocating [`Mlp::predict`].
#[derive(Debug)]
pub struct PredictScratch {
    x: Matrix,
    acts: Vec<Matrix>,
    masks: Vec<Vec<bool>>,
    probs: Matrix,
    preds: Vec<usize>,
}

impl PredictScratch {
    /// An empty scratch: buffers grow on first use, then are reused.
    pub fn new() -> Self {
        Self {
            x: Matrix::zeros(0, 0),
            acts: Vec::new(),
            masks: Vec::new(),
            probs: Matrix::zeros(0, 0),
            preds: Vec::new(),
        }
    }

    /// Fits the per-layer buffer *counts* to `model`'s depth (`acts`
    /// needs `layers + 1` slots, `masks` `layers - 1`). The matrices
    /// inside reshape themselves inside the forward kernels, so layer
    /// count is the scratch's only model-shape dependence.
    fn fit(&mut self, model: &Mlp) {
        self.acts.resize_with(model.layers.len() + 1, || Matrix::zeros(0, 0));
        self.masks.resize_with(model.layers.len().saturating_sub(1), Vec::new);
    }
}

impl Default for PredictScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl Mlp {
    /// Builds a freshly initialised MLP. Deterministic for a fixed seed.
    pub fn new(arch: MlpArch, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![arch.input_dim];
        dims.extend_from_slice(&arch.hidden);
        dims.push(arch.num_classes);
        let layers: Vec<Dense> =
            dims.windows(2).map(|d| Dense::he_init(d[0], d[1], &mut rng)).collect();
        let trainable = vec![true; layers.len()];
        Self { arch, layers, trainable }
    }

    /// The architecture this model was built with.
    pub fn arch(&self) -> &MlpArch {
        &self.arch
    }

    /// Total number of layers (hidden + output).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Freezes all but the last `layers_trained` layers.
    ///
    /// `layers_trained = 1` trains only the output layer; values greater
    /// than the layer count unfreeze everything. This is the paper's
    /// "number of layers to retrain" hyperparameter (§3.1).
    pub fn set_layers_trained(&mut self, layers_trained: usize) {
        let n = self.layers.len();
        let trained = layers_trained.clamp(1, n);
        for (i, t) in self.trainable.iter_mut().enumerate() {
            *t = i >= n - trained;
        }
    }

    /// Number of currently trainable layers.
    pub fn layers_trained(&self) -> usize {
        self.trainable.iter().filter(|t| **t).count()
    }

    /// Index of the lowest trainable layer: every layer below it is
    /// frozen, and it is where [`FrozenInputs`] enter the network.
    fn lowest_trainable(&self) -> usize {
        self.trainable.iter().position(|t| *t).unwrap_or(self.layers.len())
    }

    /// Fraction of parameters that are currently trainable, in `[0, 1]`.
    pub fn trainable_param_fraction(&self) -> f64 {
        let total: usize = self.layers.iter().map(Dense::num_params).sum();
        let trainable: usize = self
            .layers
            .iter()
            .zip(&self.trainable)
            .filter(|(_, t)| **t)
            .map(|(l, _)| l.num_params())
            .sum();
        if total == 0 {
            0.0
        } else {
            trainable as f64 / total as f64
        }
    }

    /// Replaces the last hidden layer (and the output layer it feeds) with
    /// freshly initialised layers of width `neurons`.
    ///
    /// This models the "number of neurons in the last layer" retraining
    /// hyperparameter: earlier layers keep their learned weights, so the
    /// model retains its representation while the head is re-learned.
    pub fn resize_last_hidden(&mut self, neurons: usize, seed: u64) {
        assert!(!self.arch.hidden.is_empty(), "cannot resize a linear model head");
        let mut rng = StdRng::seed_from_u64(seed);
        let h = self.arch.hidden.len();
        let in_dim = if h >= 2 { self.arch.hidden[h - 2] } else { self.arch.input_dim };
        self.arch.hidden[h - 1] = neurons;
        // Layer index h-1 is the last hidden layer; layer h is the output.
        self.layers[h - 1] = Dense::he_init(in_dim, neurons, &mut rng);
        self.layers[h] = Dense::he_init(neurons, self.arch.num_classes, &mut rng);
    }

    /// Forward pass on a batch. Returns per-layer pre-activation inputs
    /// (needed for backprop) plus the softmax probabilities.
    fn forward_full(&self, x: &Matrix) -> (Vec<Matrix>, Vec<Vec<bool>>, Matrix) {
        let mut acts: Vec<Matrix> = (0..=self.layers.len()).map(|_| Matrix::zeros(0, 0)).collect();
        let mut masks: Vec<Vec<bool>> = (1..self.layers.len()).map(|_| Vec::new()).collect();
        let mut probs = Matrix::zeros(0, 0);
        self.forward_into(x, &mut acts, &mut masks, &mut probs);
        (acts, masks, probs)
    }

    /// [`Mlp::forward_full`] writing into caller-owned buffers (a
    /// [`Workspace`]'s), so the per-batch activations, masks, and
    /// probabilities reuse one allocation each across an epoch.
    /// `acts` must hold `layers + 1` slots and `masks` `layers - 1`.
    fn forward_into(
        &self,
        x: &Matrix,
        acts: &mut [Matrix],
        masks: &mut [Vec<bool>],
        probs: &mut Matrix,
    ) {
        acts[0].copy_from(x);
        self.forward_from(0, acts, masks, probs);
    }

    /// The forward pass from layer `start` up, reading its input from
    /// `acts[start]`; the slots and masks below `start` are left as they
    /// are.
    fn forward_from(
        &self,
        start: usize,
        acts: &mut [Matrix],
        masks: &mut [Vec<bool>],
        probs: &mut Matrix,
    ) {
        for i in start..self.layers.len() {
            let (prev, rest) = acts.split_at_mut(i + 1);
            let mask = masks.get_mut(i);
            self.layer_into(i, &prev[i], &mut rest[0], mask);
        }
        probs.copy_from(&acts[self.layers.len()]);
        softmax_rows(probs);
    }

    /// Layer `i` on a batch: `z = x W + b`, then ReLU recording `mask`
    /// (hidden layers only; the output layer keeps its logits).
    fn layer_into(&self, i: usize, x: &Matrix, z: &mut Matrix, mask: Option<&mut Vec<bool>>) {
        let layer = &self.layers[i];
        x.matmul_into(&layer.w, z);
        for r in 0..z.rows() {
            let row = z.row_mut(r);
            for (v, &b) in row.iter_mut().zip(layer.b.iter()) {
                *v += b;
            }
        }
        if i + 1 < self.layers.len() {
            relu_inplace_into(z, mask.expect("a hidden layer has a mask slot"));
        }
    }

    /// Runs `data` through the frozen layers once: the block the lowest
    /// trainable layer reads, for [`Mlp::train_epoch_frozen`] and
    /// [`Mlp::accuracy_frozen`]. Rows are bit-identical to the
    /// activations a per-minibatch forward pass would compute.
    pub fn frozen_inputs(&self, data: DataView<'_>) -> FrozenInputs {
        let layer = self.lowest_trainable();
        let mut x = batch_features(data.samples, self.arch.input_dim);
        let mut z = Matrix::zeros(0, 0);
        let mut mask = Vec::new();
        for i in 0..layer {
            self.layer_into(i, &x, &mut z, Some(&mut mask));
            std::mem::swap(&mut x, &mut z);
        }
        FrozenInputs { layer, x, labels: data.samples.iter().map(|s| s.y).collect() }
    }

    /// Panics unless `data` was cut at this model's lowest trainable
    /// layer.
    fn check_frozen(&self, data: &FrozenInputs) {
        assert_eq!(
            data.layer,
            self.lowest_trainable(),
            "frozen inputs enter at a layer other than the lowest trainable one"
        );
    }

    /// [`Mlp::accuracy`] on a dataset already run through the frozen
    /// layers — the same value, bit for bit, without recomputing them.
    ///
    /// # Panics
    /// Panics when `data` was frozen at a different layer than this
    /// model's lowest trainable one.
    pub fn accuracy_frozen(&self, data: &FrozenInputs) -> f64 {
        self.check_frozen(data);
        if data.is_empty() {
            return 0.0;
        }
        let n = self.layers.len();
        let mut acts: Vec<Matrix> = (0..=n).map(|_| Matrix::zeros(0, 0)).collect();
        let mut masks: Vec<Vec<bool>> = (1..n).map(|_| Vec::new()).collect();
        let mut probs = Matrix::zeros(0, 0);
        acts[data.layer].copy_from(&data.x);
        self.forward_from(data.layer, &mut acts, &mut masks, &mut probs);
        let correct =
            data.labels.iter().enumerate().filter(|&(r, &y)| argmax(probs.row(r)) == y).count();
        correct as f64 / data.len() as f64
    }

    /// Predicted class indices for a batch of samples.
    pub fn predict(&self, samples: &[Sample]) -> Vec<usize> {
        if samples.is_empty() {
            return Vec::new();
        }
        let x = batch_features(samples, self.arch.input_dim);
        let (_, _, probs) = self.forward_full(&x);
        (0..probs.rows()).map(|r| argmax(probs.row(r))).collect()
    }

    /// [`Mlp::predict`] through caller-owned scratch buffers: the
    /// steady-state serving path, allocation-free once the scratch has
    /// warmed up. Returns the predictions as a slice borrowed from
    /// `scratch`; results are bit-identical to [`Mlp::predict`].
    pub fn predict_into<'a>(
        &self,
        samples: &[Sample],
        scratch: &'a mut PredictScratch,
    ) -> &'a [usize] {
        scratch.preds.clear();
        if samples.is_empty() {
            return &scratch.preds;
        }
        scratch.fit(self);
        let PredictScratch { x, acts, masks, probs, preds } = scratch;
        let input_dim = self.arch.input_dim;
        x.resize_zeroed(samples.len(), input_dim);
        for (r, s) in samples.iter().enumerate() {
            assert_eq!(s.x.len(), input_dim, "sample dimensionality mismatch");
            x.row_mut(r).copy_from_slice(&s.x);
        }
        self.forward_into(x, acts, masks, probs);
        preds.extend((0..probs.rows()).map(|r| argmax(probs.row(r))));
        &scratch.preds
    }

    /// [`Mlp::accuracy`] through a [`PredictScratch`] — the same value,
    /// computed without per-call allocation.
    pub fn accuracy_with(&self, data: DataView<'_>, scratch: &mut PredictScratch) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let preds = self.predict_into(data.samples, scratch);
        let correct = preds.iter().zip(data.samples).filter(|(p, s)| **p == s.y).count();
        correct as f64 / data.len() as f64
    }

    /// Classification accuracy on a dataset view, in `[0, 1]`.
    /// Returns 0 for an empty view.
    pub fn accuracy(&self, data: DataView<'_>) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let preds = self.predict(data.samples);
        let correct = preds.iter().zip(data.samples).filter(|(p, s)| **p == s.y).count();
        correct as f64 / data.len() as f64
    }

    /// Mean cross-entropy loss on a dataset view.
    pub fn loss(&self, data: DataView<'_>) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let x = batch_features(data.samples, self.arch.input_dim);
        let (_, _, probs) = self.forward_full(&x);
        let mut total = 0.0f64;
        for (r, s) in data.samples.iter().enumerate() {
            let p = probs.get(r, s.y).max(1e-12);
            total -= (p as f64).ln();
        }
        total / data.len() as f64
    }

    /// Backward pass for a batch, writing gradients for trainable layers
    /// into `gw`/`gb` (frozen layers keep whatever the buffers held; the
    /// optimiser skips them via the trainable mask). `delta`/`delta_next`
    /// are scratch buffers for the backpropagated error.
    #[allow(clippy::too_many_arguments)]
    fn backward_into(
        &self,
        activations: &[Matrix],
        masks: &[Vec<bool>],
        probs: &Matrix,
        labels: &[usize],
        delta: &mut Matrix,
        delta_next: &mut Matrix,
        gw: &mut [Matrix],
        gb: &mut [Vec<f32>],
    ) {
        let batch = labels.len();
        let n_layers = self.layers.len();
        let lowest_trainable = self.lowest_trainable();

        // dL/dz for the output layer of softmax cross-entropy: (p - y)/batch.
        delta.copy_from(probs);
        for (r, &y) in labels.iter().enumerate() {
            let v = delta.get(r, y);
            delta.set(r, y, v - 1.0);
        }
        delta.scale(1.0 / batch as f32);

        for i in (0..n_layers).rev() {
            if i < lowest_trainable {
                // No trainable layer below: gradient flow can stop here.
                break;
            }
            if self.trainable[i] {
                // grad_W = a_{i}^T * delta ; grad_b = column sums of delta.
                activations[i].t_matmul_into(delta, &mut gw[i]);
                gb[i].clear();
                gb[i].resize(self.layers[i].b.len(), 0.0);
                for r in 0..delta.rows() {
                    for (bi, &d) in gb[i].iter_mut().zip(delta.row(r).iter()) {
                        *bi += d;
                    }
                }
            }
            if i > lowest_trainable {
                // delta_{i-1} = (delta * W_i^T) ⊙ relu'(z_{i-1})
                delta.matmul_t_into(&self.layers[i].w, delta_next);
                let mask = &masks[i - 1];
                for (v, &m) in delta_next.data_mut().iter_mut().zip(mask.iter()) {
                    if !m {
                        *v = 0.0;
                    }
                }
                std::mem::swap(delta, delta_next);
            }
        }
    }

    /// Runs one epoch of minibatch SGD over `data`, with the given optimiser
    /// state. Sample order is shuffled deterministically from `epoch_seed`.
    ///
    /// Returns the mean training loss over the epoch. A multi-epoch job
    /// should freeze its data once and call [`Mlp::train_epoch_frozen`]
    /// per epoch instead: the same bits, without re-running the frozen
    /// layers every epoch.
    pub fn train_epoch(
        &mut self,
        data: DataView<'_>,
        opt: &mut Sgd,
        batch_size: usize,
        epoch_seed: u64,
    ) -> f64 {
        let frozen = self.frozen_inputs(data);
        self.train_epoch_frozen(&frozen, opt, batch_size, epoch_seed)
    }

    /// [`Mlp::train_epoch`] on a dataset already run through the frozen
    /// layers: each minibatch is gathered from `data`'s rows straight
    /// into the lowest trainable layer's input.
    ///
    /// # Panics
    /// Panics when `data` was frozen at a different layer than this
    /// model's lowest trainable one.
    pub fn train_epoch_frozen(
        &mut self,
        data: &FrozenInputs,
        opt: &mut Sgd,
        batch_size: usize,
        epoch_seed: u64,
    ) -> f64 {
        use rand::seq::SliceRandom;
        self.check_frozen(data);
        if data.is_empty() {
            return 0.0;
        }
        let batch_size = batch_size.max(1);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(epoch_seed);
        order.shuffle(&mut rng);

        let mut ws = Workspace::new(self);
        let (start, width) = (data.layer, data.x.cols());
        let mut total_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(batch_size) {
            ws.labels.clear();
            let x = &mut ws.acts[start];
            x.resize_zeroed(chunk.len(), width);
            for (r, &i) in chunk.iter().enumerate() {
                x.row_mut(r).copy_from_slice(data.x.row(i));
                ws.labels.push(data.labels[i]);
            }
            self.forward_from(start, &mut ws.acts, &mut ws.masks, &mut ws.probs);

            // Batch loss (before the update), for curve fitting.
            let mut loss = 0.0f64;
            for (r, &y) in ws.labels.iter().enumerate() {
                loss -= (ws.probs.get(r, y).max(1e-12) as f64).ln();
            }
            total_loss += loss / ws.labels.len() as f64;
            batches += 1;

            self.backward_into(
                &ws.acts,
                &ws.masks,
                &ws.probs,
                &ws.labels,
                &mut ws.delta,
                &mut ws.delta_next,
                &mut ws.gw,
                &mut ws.gb,
            );
            opt.apply(self, &ws.gw, &ws.gb);
        }
        if batches == 0 {
            0.0
        } else {
            total_loss / batches as f64
        }
    }
}

/// Index of a row's largest probability, the predicted class (ties, and
/// NaNs, which compare equal, resolve as [`Iterator::max_by`] does).
fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Stacks sample features into a batch matrix.
fn batch_features(samples: &[Sample], input_dim: usize) -> Matrix {
    let mut m = Matrix::zeros(samples.len(), input_dim);
    for (r, s) in samples.iter().enumerate() {
        assert_eq!(s.x.len(), input_dim, "sample dimensionality mismatch");
        m.row_mut(r).copy_from_slice(&s.x);
    }
    m
}

/// Minibatch SGD with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    vel_w: Vec<Matrix>,
    vel_b: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimiser for `model` with the given hyperparameters.
    pub fn new(model: &Mlp, lr: f32, momentum: f32) -> Self {
        let vel_w = model.layers.iter().map(|l| Matrix::zeros(l.w.rows(), l.w.cols())).collect();
        let vel_b = model.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        Self { lr, momentum, vel_w, vel_b }
    }

    fn apply(&mut self, model: &mut Mlp, gw: &[Matrix], gb: &[Vec<f32>]) {
        for i in 0..model.layers.len() {
            if !model.trainable[i] {
                continue;
            }
            // Velocity shapes can go stale after a head resize; re-zero them.
            if self.vel_w[i].rows() != gw[i].rows() || self.vel_w[i].cols() != gw[i].cols() {
                self.vel_w[i] = Matrix::zeros(gw[i].rows(), gw[i].cols());
                self.vel_b[i] = vec![0.0; gb[i].len()];
            }
            self.vel_w[i].scale(self.momentum);
            self.vel_w[i].add_scaled(&gw[i], 1.0);
            model.layers[i].w.add_scaled(&self.vel_w[i], -self.lr);
            for ((v, &g), b) in
                self.vel_b[i].iter_mut().zip(gb[i].iter()).zip(model.layers[i].b.iter_mut())
            {
                *v = *v * self.momentum + g;
                *b -= self.lr * *v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Sample;
    use rand::Rng;

    /// A linearly separable 2-class toy problem.
    fn toy_data(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let y = rng.gen_range(0..2usize);
                let cx = if y == 0 { -1.0 } else { 1.0 };
                let x = vec![cx + rng.gen_range(-0.3..0.3), -cx + rng.gen_range(-0.3..0.3)];
                Sample::new(x, y)
            })
            .collect()
    }

    #[test]
    fn construction_is_deterministic() {
        let arch = MlpArch::edge(4, 3, 8);
        let a = Mlp::new(arch.clone(), 99);
        let b = Mlp::new(arch, 99);
        assert_eq!(a.layers[0].w, b.layers[0].w);
    }

    #[test]
    fn training_learns_separable_data() {
        let data = toy_data(200, 1);
        let view = DataView::new(&data, 2);
        let mut model = Mlp::new(MlpArch { input_dim: 2, hidden: vec![8], num_classes: 2 }, 7);
        let before = model.accuracy(view);
        let mut opt = Sgd::new(&model, 0.1, 0.9);
        for e in 0..20 {
            model.train_epoch(view, &mut opt, 16, e);
        }
        let after = model.accuracy(view);
        assert!(after > 0.95, "expected >0.95 accuracy, got {after} (before: {before})");
    }

    #[test]
    fn loss_decreases_with_training() {
        let data = toy_data(100, 2);
        let view = DataView::new(&data, 2);
        let mut model = Mlp::new(MlpArch { input_dim: 2, hidden: vec![8], num_classes: 2 }, 3);
        let initial = model.loss(view);
        let mut opt = Sgd::new(&model, 0.05, 0.9);
        for e in 0..10 {
            model.train_epoch(view, &mut opt, 16, e);
        }
        assert!(model.loss(view) < initial);
    }

    #[test]
    fn frozen_layers_do_not_change() {
        let data = toy_data(50, 3);
        let view = DataView::new(&data, 2);
        let mut model = Mlp::new(MlpArch { input_dim: 2, hidden: vec![8, 8], num_classes: 2 }, 11);
        model.set_layers_trained(1); // only the output layer trains
        let frozen_before = model.layers[0].w.clone();
        let head_before = model.layers[2].w.clone();
        let mut opt = Sgd::new(&model, 0.1, 0.0);
        model.train_epoch(view, &mut opt, 8, 0);
        assert_eq!(model.layers[0].w, frozen_before, "frozen layer moved");
        assert_ne!(model.layers[2].w, head_before, "trainable head did not move");
    }

    #[test]
    fn layers_trained_clamps() {
        let mut model = Mlp::new(MlpArch { input_dim: 2, hidden: vec![4, 4], num_classes: 2 }, 0);
        model.set_layers_trained(100);
        assert_eq!(model.layers_trained(), 3);
        model.set_layers_trained(0);
        assert_eq!(model.layers_trained(), 1);
    }

    #[test]
    fn trainable_param_fraction_reflects_freezing() {
        let mut model = Mlp::new(MlpArch { input_dim: 8, hidden: vec![16, 8], num_classes: 4 }, 0);
        assert!((model.trainable_param_fraction() - 1.0).abs() < 1e-9);
        model.set_layers_trained(1);
        let frac = model.trainable_param_fraction();
        assert!(frac > 0.0 && frac < 0.5, "head-only fraction should be small, got {frac}");
    }

    #[test]
    fn resize_last_hidden_changes_width_and_keeps_trunk() {
        let mut model = Mlp::new(MlpArch { input_dim: 4, hidden: vec![8, 8], num_classes: 3 }, 5);
        let trunk = model.layers[0].w.clone();
        model.resize_last_hidden(16, 42);
        assert_eq!(model.arch().hidden, vec![8, 16]);
        assert_eq!(model.layers[1].out_dim(), 16);
        assert_eq!(model.layers[2].in_dim(), 16);
        assert_eq!(model.layers[0].w, trunk, "trunk must be preserved");
        // Model still functions end to end.
        let s = Sample::new(vec![0.1, 0.2, 0.3, 0.4], 0);
        let _ = model.predict(&[s]);
    }

    #[test]
    fn training_works_after_resize() {
        let data = toy_data(150, 4);
        let view = DataView::new(&data, 2);
        let mut model = Mlp::new(MlpArch { input_dim: 2, hidden: vec![8, 4], num_classes: 2 }, 5);
        model.resize_last_hidden(12, 6);
        let mut opt = Sgd::new(&model, 0.1, 0.9);
        for e in 0..20 {
            model.train_epoch(view, &mut opt, 16, e);
        }
        assert!(model.accuracy(view) > 0.9);
    }

    /// Forward passes through a reused [`Workspace`] — including a
    /// *shrinking* batch, which leaves the buffers dirty and oversized —
    /// must be bit-identical to fresh-buffer passes. This pins the
    /// scratch-buffer optimisation to the pre-optimisation numerics.
    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_buffers() {
        let model = Mlp::new(MlpArch::edge(6, 4, 10), 7);
        let x_big = Matrix::from_fn(5, 6, |r, c| ((r * 13 + c * 7) % 11) as f32 / 11.0 - 0.3);
        let x_small = Matrix::from_fn(3, 6, |r, c| ((r * 17 + c * 5) % 13) as f32 / 13.0 - 0.4);

        let mut ws = Workspace::new(&model);
        for (pass, x) in [&x_big, &x_small].into_iter().enumerate() {
            model.forward_into(x, &mut ws.acts, &mut ws.masks, &mut ws.probs);
            let (acts, masks, probs) = model.forward_full(x);
            assert_eq!(masks, ws.masks, "pass {pass}: masks diverged");
            for (i, (fresh, reused)) in acts.iter().zip(&ws.acts).enumerate() {
                assert_eq!((fresh.rows(), fresh.cols()), (reused.rows(), reused.cols()));
                for (f, r) in fresh.data().iter().zip(reused.data().iter()) {
                    assert_eq!(f.to_bits(), r.to_bits(), "pass {pass}: activation {i} diverged");
                }
            }
            for (f, r) in probs.data().iter().zip(ws.probs.data().iter()) {
                assert_eq!(f.to_bits(), r.to_bits(), "pass {pass}: probabilities diverged");
            }
        }
    }

    /// Two identical training runs — same seeds, same data — must
    /// produce bit-identical weights: buffer reuse across an epoch's
    /// minibatches (of uneven sizes) must not leak state between
    /// batches or runs.
    #[test]
    fn train_epoch_is_deterministic_with_reused_workspace() {
        let data = toy_data(50, 9);
        let view = DataView::new(&data, 2);
        let run = || {
            let mut model = Mlp::new(MlpArch { input_dim: 2, hidden: vec![8], num_classes: 2 }, 7);
            let mut opt = Sgd::new(&model, 0.1, 0.9);
            let mut losses = Vec::new();
            for e in 0..3 {
                // batch 16 over 50 samples → a ragged final minibatch.
                losses.push(model.train_epoch(view, &mut opt, 16, e));
            }
            // Debug rendering of f32 is shortest-round-trip, so equal
            // strings mean equal bits (and -0.0 still shows its sign).
            (format!("{:?}", model.layers), losses)
        };
        let (w1, l1) = run();
        let (w2, l2) = run();
        assert_eq!(w1, w2, "weights diverged between identical runs");
        assert_eq!(l1, l2, "losses diverged between identical runs");
    }

    /// The public serving-path scratch must match [`Mlp::predict`]
    /// bit-for-bit across growing *and* shrinking batches — a shrinking
    /// batch leaves every buffer dirty and oversized, the exact state a
    /// long-lived serving slot operates in.
    #[test]
    fn predict_scratch_reuse_matches_predict_exactly() {
        let model = Mlp::new(MlpArch::edge(6, 4, 10), 7);
        let big: Vec<Sample> = (0..5)
            .map(|i| {
                Sample::new((0..6).map(|c| ((i * 13 + c * 7) % 11) as f32 / 11.0).collect(), 0)
            })
            .collect();
        let small: Vec<Sample> = (0..2)
            .map(|i| {
                Sample::new((0..6).map(|c| ((i * 17 + c * 5) % 13) as f32 / 13.0).collect(), 1)
            })
            .collect();
        let mut scratch = PredictScratch::new();
        for (pass, batch) in [&big, &small, &big].into_iter().enumerate() {
            let reused = model.predict_into(batch, &mut scratch).to_vec();
            assert_eq!(reused, model.predict(batch), "pass {pass} diverged");
        }
        let labelled: Vec<Sample> = big.to_vec();
        let view = DataView::new(&labelled, 4);
        assert_eq!(model.accuracy_with(view, &mut scratch), model.accuracy(view));
    }

    /// One scratch shared across *different models* — deeper, then
    /// shallower and narrower (the serving hot-swap case) — must never
    /// read stale tail bytes left by the larger model's pass.
    #[test]
    fn predict_scratch_survives_hot_swap_to_smaller_model() {
        let deep = Mlp::new(MlpArch { input_dim: 6, hidden: vec![24, 16, 12], num_classes: 5 }, 3);
        let shallow = Mlp::new(MlpArch { input_dim: 6, hidden: vec![4], num_classes: 3 }, 4);
        let batch: Vec<Sample> = (0..7)
            .map(|i| {
                Sample::new((0..6).map(|c| ((i * 31 + c * 3) % 17) as f32 / 17.0).collect(), 0)
            })
            .collect();
        let mut scratch = PredictScratch::new();
        // Dirty the scratch with the deep model's large buffers…
        assert_eq!(deep.predict_into(&batch, &mut scratch).to_vec(), deep.predict(&batch));
        // …then swap to the smaller model: same scratch, same answers.
        assert_eq!(shallow.predict_into(&batch, &mut scratch).to_vec(), shallow.predict(&batch));
        // And back up to the deep model again.
        assert_eq!(deep.predict_into(&batch, &mut scratch).to_vec(), deep.predict(&batch));
    }

    /// The per-epoch training loop before frozen inputs: every minibatch
    /// gathered from `Sample` rows and run through all layers. The oracle
    /// for [`Mlp::train_epoch`]'s freeze-once path.
    fn train_epoch_reference(
        model: &mut Mlp,
        data: DataView<'_>,
        opt: &mut Sgd,
        batch_size: usize,
        epoch_seed: u64,
    ) -> f64 {
        use rand::seq::SliceRandom;
        if data.is_empty() {
            return 0.0;
        }
        let batch_size = batch_size.max(1);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(epoch_seed);
        order.shuffle(&mut rng);

        let mut ws = Workspace::new(model);
        let mut x = Matrix::zeros(0, 0);
        let input_dim = model.arch.input_dim;
        let mut total_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(batch_size) {
            ws.labels.clear();
            x.resize_zeroed(chunk.len(), input_dim);
            for (r, &i) in chunk.iter().enumerate() {
                let s = &data.samples[i];
                assert_eq!(s.x.len(), input_dim, "sample dimensionality mismatch");
                x.row_mut(r).copy_from_slice(&s.x);
                ws.labels.push(s.y);
            }
            model.forward_into(&x, &mut ws.acts, &mut ws.masks, &mut ws.probs);

            let mut loss = 0.0f64;
            for (r, &y) in ws.labels.iter().enumerate() {
                loss -= (ws.probs.get(r, y).max(1e-12) as f64).ln();
            }
            total_loss += loss / ws.labels.len() as f64;
            batches += 1;

            model.backward_into(
                &ws.acts,
                &ws.masks,
                &ws.probs,
                &ws.labels,
                &mut ws.delta,
                &mut ws.delta_next,
                &mut ws.gw,
                &mut ws.gb,
            );
            opt.apply(model, &ws.gw, &ws.gb);
        }
        if batches == 0 {
            0.0
        } else {
            total_loss / batches as f64
        }
    }

    fn weight_bits(model: &Mlp) -> Vec<u32> {
        model
            .layers
            .iter()
            .flat_map(|l| l.w.data().iter().chain(l.b.iter()))
            .map(|v| v.to_bits())
            .collect()
    }

    /// Freeze-once training against the per-epoch reference, bit for bit,
    /// over 240 seeded instances: 1–3 hidden layers of width 1–32,
    /// `layers_trained` from 1 to depth + 1 (the clamp), batch sizes from
    /// 1 to n + 3 (ragged and oversized final minibatches), a third with
    /// a resized head, 1–4 epochs. The training set is frozen once per
    /// instance, the validation set once too, and `accuracy_frozen` must
    /// equal `accuracy` after every epoch.
    #[test]
    fn train_epoch_frozen_matches_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xF0_2E);
        for case in 0..240u64 {
            let input_dim = rng.gen_range(1..=8usize);
            let num_classes = rng.gen_range(2..=5usize);
            let hidden: Vec<usize> =
                (0..rng.gen_range(1..=3usize)).map(|_| rng.gen_range(1..=32usize)).collect();
            let mut base = Mlp::new(MlpArch { input_dim, hidden, num_classes }, case);
            if rng.gen_range(0..3) == 0 {
                base.resize_last_hidden(rng.gen_range(1..=32), case ^ 0x5EED);
            }
            let depth = base.num_layers();
            base.set_layers_trained(rng.gen_range(1..=depth + 1));
            let n = rng.gen_range(1..=40usize);
            let mut samples = |n: usize| -> Vec<Sample> {
                (0..n)
                    .map(|_| {
                        let x = (0..input_dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                        Sample::new(x, rng.gen_range(0..num_classes))
                    })
                    .collect()
            };
            let (train, val) = (samples(n), samples(17));
            let batch_size = rng.gen_range(1..=n + 3);
            let epochs = rng.gen_range(1..=4u64);
            let (lr, momentum) = (rng.gen_range(0.01f32..0.3), rng.gen_range(0.0f32..0.95));

            let (train_view, val_view) =
                (DataView::new(&train, num_classes), DataView::new(&val, num_classes));
            let (mut reference, mut model) = (base.clone(), base);
            let mut ref_opt = Sgd::new(&reference, lr, momentum);
            let mut opt = Sgd::new(&model, lr, momentum);
            let frozen_train = model.frozen_inputs(train_view);
            let frozen_val = model.frozen_inputs(val_view);
            for e in 0..epochs {
                let want =
                    train_epoch_reference(&mut reference, train_view, &mut ref_opt, batch_size, e);
                let got = model.train_epoch_frozen(&frozen_train, &mut opt, batch_size, e);
                assert_eq!(got.to_bits(), want.to_bits(), "case {case} epoch {e}: loss");
                assert_eq!(weight_bits(&model), weight_bits(&reference), "case {case} epoch {e}");
                assert_eq!(
                    model.accuracy_frozen(&frozen_val).to_bits(),
                    reference.accuracy(val_view).to_bits(),
                    "case {case} epoch {e}: accuracy"
                );
            }
            // The one-shot `train_epoch` is the same path.
            let mut one_shot = reference.clone();
            let mut opt = ref_opt.clone();
            let want =
                train_epoch_reference(&mut reference, train_view, &mut ref_opt, batch_size, 9);
            let got = one_shot.train_epoch(train_view, &mut opt, batch_size, 9);
            assert_eq!(got.to_bits(), want.to_bits(), "case {case}: train_epoch loss");
            assert_eq!(weight_bits(&one_shot), weight_bits(&reference), "case {case}: train_epoch");
        }
    }

    #[test]
    #[should_panic(expected = "lowest trainable")]
    fn frozen_inputs_cut_at_another_layer_are_refused() {
        let data = toy_data(10, 5);
        let mut model = Mlp::new(MlpArch { input_dim: 2, hidden: vec![4, 4], num_classes: 2 }, 1);
        let frozen = model.frozen_inputs(DataView::new(&data, 2));
        model.set_layers_trained(1);
        let _ = model.accuracy_frozen(&frozen);
    }

    #[test]
    fn empty_data_is_harmless() {
        let model = Mlp::new(MlpArch { input_dim: 2, hidden: vec![4], num_classes: 2 }, 0);
        let empty: Vec<Sample> = vec![];
        let view = DataView::new(&empty, 2);
        assert_eq!(model.accuracy(view), 0.0);
        assert_eq!(model.loss(view), 0.0);
    }

    #[test]
    fn predict_is_deterministic() {
        let data = toy_data(30, 9);
        let model = Mlp::new(MlpArch { input_dim: 2, hidden: vec![6], num_classes: 2 }, 1);
        assert_eq!(model.predict(&data), model.predict(&data));
    }
}
