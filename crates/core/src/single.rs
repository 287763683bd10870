//! Single-socket (shared-memory) full-batch trainer — §4 / Fig. 2.

use crate::model::{
    apply_flat_grads, next_aggregator_key, Aggregator, GraphSage, SageConfig, SageWorkspace,
};
use distgnn_graph::{Csr, Dataset};
use distgnn_kernels::gcn::{gcn_aggregate_backward_prepared_into, gcn_aggregate_prepared_into};
use distgnn_kernels::{AggregationConfig, PreparedAggregation};
use distgnn_nn::{masked_cross_entropy_into, Adam, AdamConfig};
use distgnn_telemetry::{Phase, Recorder};
use distgnn_tensor::{reduce, Matrix};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared-memory GCN aggregator over one graph; the forward and
/// transposed (backward) graphs are pre-blocked once. Accumulates the
/// time spent inside the aggregation primitive so the harness can
/// split "Total" vs "AP" time as in Fig. 2.
pub struct SingleSocketAggregator {
    prep: PreparedAggregation,
    prep_t: PreparedAggregation,
    degrees: Vec<f32>,
    agg_time: Duration,
    /// Per-layer scaled-gradient scratch for the backward `_into` path,
    /// sized lazily on first use and reused afterwards (layer 0's stays
    /// 0×0: training never runs its backward).
    bwd_scratch: Vec<Matrix>,
    recorder: Arc<Recorder>,
    /// This aggregator's [`Aggregator::layer0_reuse_key`].
    key: u64,
}

impl SingleSocketAggregator {
    pub fn new(graph: &Csr, config: AggregationConfig) -> Self {
        SingleSocketAggregator {
            prep: PreparedAggregation::new(graph, config),
            prep_t: PreparedAggregation::new(&graph.transpose(), config),
            degrees: graph.degrees_f32(),
            agg_time: Duration::ZERO,
            bwd_scratch: Vec::new(),
            recorder: Arc::new(Recorder::disabled()),
            key: next_aggregator_key(),
        }
    }

    /// Time spent in aggregation since the last [`Self::take_agg_time`].
    pub fn take_agg_time(&mut self) -> Duration {
        std::mem::take(&mut self.agg_time)
    }

    /// Routes phase spans to `rec` (disabled by default).
    pub fn set_recorder(&mut self, rec: Arc<Recorder>) {
        self.recorder = rec;
    }
}

impl Aggregator for SingleSocketAggregator {
    fn num_vertices(&self) -> usize {
        self.prep.num_vertices()
    }

    fn forward(&mut self, layer: usize, h: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(h.rows(), h.cols());
        self.forward_into(layer, h, &mut out);
        out
    }

    fn backward(&mut self, layer: usize, grad_out: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(grad_out.rows(), grad_out.cols());
        self.backward_into(layer, grad_out, &mut out);
        out
    }

    fn forward_into(&mut self, _layer: usize, h: &Matrix, out: &mut Matrix) {
        let _span = self.recorder.scope(Phase::Aggregate);
        let t0 = Instant::now();
        gcn_aggregate_prepared_into(&self.prep, h, &self.degrees, out);
        self.agg_time += t0.elapsed();
    }

    fn backward_into(&mut self, layer: usize, grad_out: &Matrix, out: &mut Matrix) {
        let _span = self.recorder.scope(Phase::Aggregate);
        let t0 = Instant::now();
        if self.bwd_scratch.len() <= layer {
            self.bwd_scratch.resize_with(layer + 1, || Matrix::zeros(0, 0));
        }
        let scaled = &mut self.bwd_scratch[layer];
        if scaled.shape() != grad_out.shape() {
            // First call for this layer only; steady state reuses it.
            *scaled = Matrix::zeros(grad_out.rows(), grad_out.cols());
        }
        gcn_aggregate_backward_prepared_into(&self.prep_t, grad_out, &self.degrees, scaled, out);
        self.agg_time += t0.elapsed();
    }

    /// The graph is fixed, so layer 0's aggregate of a given feature
    /// matrix never changes.
    fn layer0_reuse_key(&self) -> Option<u64> {
        Some(self.key)
    }
}

/// Training hyperparameters.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    pub model: SageConfig,
    pub kernel: AggregationConfig,
    pub lr: f32,
    pub weight_decay: f32,
    pub epochs: usize,
}

impl TrainerConfig {
    /// Defaults mirroring the paper's single-socket setup, scaled-down
    /// hidden width for the synthetic datasets.
    pub fn for_dataset(ds: &Dataset, kernel: AggregationConfig, epochs: usize) -> Self {
        let model = if ds.name.starts_with("reddit") {
            SageConfig::reddit_shape(ds.feat_dim(), ds.num_classes, 0xD15)
        } else {
            SageConfig::standard_shape(ds.feat_dim(), ds.num_classes, 64, 0xD15)
        };
        TrainerConfig { model, kernel, lr: 0.01, weight_decay: 5e-4, epochs }
    }
}

/// Per-epoch measurements.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    pub loss: f32,
    pub train_accuracy: f32,
    pub epoch_time: Duration,
    /// Time inside the aggregation primitive (forward + backward).
    pub agg_time: Duration,
}

/// Result of a full training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    pub epochs: Vec<EpochStats>,
    pub test_accuracy: f32,
}

impl TrainReport {
    /// Mean epoch time, skipping the first (warm-up) epoch when there
    /// are several — matching the paper's 1–10 epoch averaging.
    pub fn mean_epoch_time(&self) -> Duration {
        let skip = usize::from(self.epochs.len() > 2);
        let slice = &self.epochs[skip..];
        slice.iter().map(|e| e.epoch_time).sum::<Duration>() / slice.len().max(1) as u32
    }

    /// Mean aggregation-primitive time per epoch.
    pub fn mean_agg_time(&self) -> Duration {
        let skip = usize::from(self.epochs.len() > 2);
        let slice = &self.epochs[skip..];
        slice.iter().map(|e| e.agg_time).sum::<Duration>() / slice.len().max(1) as u32
    }
}

/// Single-socket full-batch trainer.
///
/// All per-epoch buffers ([`SageWorkspace`], softmax probabilities,
/// flattened gradient) live on the trainer and are reused: after the
/// first (warm-up) epoch, [`Trainer::train_epoch`] performs no heap
/// allocation (proven by the repo's counting-allocator test).
pub struct Trainer {
    pub model: GraphSage,
    agg: SingleSocketAggregator,
    adam: Adam,
    features: Matrix,
    labels: Vec<usize>,
    train_mask: Vec<usize>,
    test_mask: Vec<usize>,
    ws: SageWorkspace,
    probs: Matrix,
    flat: Vec<f32>,
    recorder: Arc<Recorder>,
    epoch: u64,
}

impl Trainer {
    pub fn new(dataset: &Dataset, config: &TrainerConfig) -> Self {
        let model = GraphSage::new(&config.model);
        let n = dataset.graph.num_vertices();
        let ws = SageWorkspace::new(&model, n);
        let probs = Matrix::zeros(n, config.model.num_classes);
        Trainer {
            model,
            agg: SingleSocketAggregator::new(&dataset.graph, config.kernel),
            adam: Adam::new(AdamConfig {
                weight_decay: config.weight_decay,
                ..AdamConfig::with_lr(config.lr)
            }),
            features: dataset.features.clone(),
            labels: dataset.labels.clone(),
            train_mask: dataset.train_mask.clone(),
            test_mask: dataset.test_mask.clone(),
            ws,
            probs,
            flat: Vec::new(),
            recorder: Arc::new(Recorder::disabled()),
            epoch: 0,
        }
    }

    /// Routes phase spans (Forward/Backward/Aggregate/Optimizer, plus a
    /// per-epoch breakdown) to `rec`. Disabled by default; recording
    /// uses the recorder's preallocated ring buffer, so the steady-state
    /// epoch stays allocation-free either way.
    pub fn set_recorder(&mut self, rec: Arc<Recorder>) {
        self.agg.set_recorder(rec.clone());
        self.recorder = rec;
    }

    /// One full-batch epoch: forward, loss, backward, Adam step.
    pub fn train_epoch(&mut self) -> EpochStats {
        let t0 = Instant::now();
        self.agg.take_agg_time();
        let fwd = self.recorder.scope(Phase::Forward);
        self.model.forward_into(&mut self.agg, &self.features, &mut self.ws);
        drop(fwd);
        let bwd = self.recorder.scope(Phase::Backward);
        let last = self.ws.layers.last_mut().expect("model has at least one layer");
        let loss = masked_cross_entropy_into(
            &last.z,
            &self.labels,
            &self.train_mask,
            &mut self.probs,
            &mut last.grad_z,
        );
        self.model.backward_into(&mut self.agg, &mut self.ws);
        drop(bwd);
        let opt = self.recorder.scope(Phase::Optimizer);
        self.ws.flatten_grads_into(&mut self.flat);
        apply_flat_grads(&mut self.model, &mut self.adam, &self.flat);
        drop(opt);
        self.recorder.end_epoch(self.epoch);
        self.epoch += 1;
        EpochStats {
            loss,
            train_accuracy: reduce::masked_accuracy(self.ws.logits(), &self.labels, &self.train_mask),
            epoch_time: t0.elapsed(),
            agg_time: self.agg.take_agg_time(),
        }
    }

    /// Test-mask accuracy of the current model.
    pub fn evaluate(&mut self) -> f32 {
        self.model.forward_into(&mut self.agg, &self.features, &mut self.ws);
        reduce::masked_accuracy(self.ws.logits(), &self.labels, &self.test_mask)
    }

    /// Trains for `config.epochs` epochs and evaluates.
    pub fn run(dataset: &Dataset, config: &TrainerConfig) -> TrainReport {
        let mut t = Trainer::new(dataset, config);
        let epochs = (0..config.epochs).map(|_| t.train_epoch()).collect();
        TrainReport { epochs, test_accuracy: t.evaluate() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgnn_graph::ScaledConfig;

    fn tiny_dataset() -> Dataset {
        Dataset::generate(&ScaledConfig::am_s().scaled_by(0.25))
    }

    #[test]
    fn loss_decreases_over_training() {
        let ds = tiny_dataset();
        let cfg = TrainerConfig::for_dataset(&ds, AggregationConfig::baseline(), 30);
        let report = Trainer::run(&ds, &cfg);
        let first = report.epochs.first().unwrap().loss;
        let last = report.epochs.last().unwrap().loss;
        assert!(last < first * 0.7, "loss {first} -> {last}");
    }

    #[test]
    fn planted_labels_are_learnable() {
        let ds = tiny_dataset();
        let cfg = TrainerConfig::for_dataset(&ds, AggregationConfig::optimized(2), 60);
        let report = Trainer::run(&ds, &cfg);
        assert!(
            report.test_accuracy > 0.8,
            "test accuracy {}",
            report.test_accuracy
        );
    }

    #[test]
    fn baseline_and_optimized_kernels_train_identically_at_start() {
        // Every kernel configuration returns the same bits (DESIGN.md
        // invariant 1), so the whole loss trajectory agrees exactly.
        let ds = tiny_dataset();
        let c1 = TrainerConfig::for_dataset(&ds, AggregationConfig::baseline(), 3);
        let c2 = TrainerConfig::for_dataset(&ds, AggregationConfig::optimized(4), 3);
        let r1 = Trainer::run(&ds, &c1);
        let r2 = Trainer::run(&ds, &c2);
        assert_eq!(r1.epochs.len(), r2.epochs.len());
        for (e, (a, b)) in r1.epochs.iter().zip(&r2.epochs).enumerate() {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {e}: {} vs {}", a.loss, b.loss);
        }
    }

    #[test]
    fn agg_time_is_within_epoch_time() {
        let ds = tiny_dataset();
        let cfg = TrainerConfig::for_dataset(&ds, AggregationConfig::baseline(), 2);
        let report = Trainer::run(&ds, &cfg);
        for e in &report.epochs {
            assert!(e.agg_time <= e.epoch_time);
        }
    }

    #[test]
    fn report_averages_skip_warmup() {
        let ds = tiny_dataset();
        let cfg = TrainerConfig::for_dataset(&ds, AggregationConfig::baseline(), 3);
        let report = Trainer::run(&ds, &cfg);
        assert!(report.mean_epoch_time() > Duration::ZERO);
        assert!(report.mean_agg_time() <= report.mean_epoch_time());
    }
}
