//! Layer 0 aggregates the input features, which nothing trains, over a
//! fixed graph (DESIGN.md invariant 12). So the workspace passes keep
//! its aggregate across forward passes wherever that is exact, and the
//! backward pass computes layer 0's parameter gradients only. These
//! tests pin that the reuse changes no bit of the trajectory, and that
//! the aggregate is recomputed whenever its (aggregator, features) pair
//! changes.

use distgnn_suite::comm::{Cluster, FaultPlan, RetryPolicy};
use distgnn_suite::core::drpa::RankAggregator;
use distgnn_suite::core::model::{apply_flat_grads, flatten_grads, Aggregator};
use distgnn_suite::core::{
    DistConfig, DistMode, DistTrainer, GraphSage, SageConfig, SageWorkspace,
    SingleSocketAggregator, Trainer, TrainerConfig,
};
use distgnn_suite::graph::{Dataset, ScaledConfig};
use distgnn_suite::kernels::AggregationConfig;
use distgnn_suite::nn::{masked_cross_entropy, masked_cross_entropy_into, Adam, AdamConfig};
use distgnn_suite::partition::{libra_partition, PartitionedGraph};
use distgnn_suite::telemetry::TelemetryHub;
use distgnn_suite::tensor::{init, reduce, Matrix};

fn dataset() -> Dataset {
    Dataset::generate(&ScaledConfig::am_s().scaled_by(0.25))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Delegates to `inner`, counting layer-0 calls; with `offer_key` off
/// it hides the inner reuse key, so every forward pass recomputes
/// layer 0.
struct Probe<A> {
    inner: A,
    offer_key: bool,
    layer0_forwards: usize,
    layer0_backwards: usize,
}

impl<A> Probe<A> {
    fn new(inner: A, offer_key: bool) -> Self {
        Probe { inner, offer_key, layer0_forwards: 0, layer0_backwards: 0 }
    }
}

impl<A: Aggregator> Aggregator for Probe<A> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn forward(&mut self, layer: usize, h: &Matrix) -> Matrix {
        self.layer0_forwards += usize::from(layer == 0);
        self.inner.forward(layer, h)
    }

    fn backward(&mut self, layer: usize, grad_out: &Matrix) -> Matrix {
        self.layer0_backwards += usize::from(layer == 0);
        self.inner.backward(layer, grad_out)
    }

    fn forward_into(&mut self, layer: usize, h: &Matrix, out: &mut Matrix) {
        self.layer0_forwards += usize::from(layer == 0);
        self.inner.forward_into(layer, h, out);
    }

    fn backward_into(&mut self, layer: usize, grad_out: &Matrix, out: &mut Matrix) {
        self.layer0_backwards += usize::from(layer == 0);
        self.inner.backward_into(layer, grad_out, out);
    }

    fn layer0_reuse_key(&self) -> Option<u64> {
        self.inner.layer0_reuse_key().filter(|_| self.offer_key)
    }
}

/// The single-socket trainer, which reuses layer 0's aggregate,
/// matches a loop over the allocating passes, which re-aggregate every
/// layer every epoch and back-propagate into layer 0's input: the same
/// loss bits each epoch, the same final parameter bits, and the same
/// test accuracy from the evaluation pass.
#[test]
fn trainer_matches_recompute_everything_loop() {
    let ds = dataset();
    let epochs = 5;
    let cfg = TrainerConfig::for_dataset(&ds, AggregationConfig::optimized(2), epochs);
    let mut trainer = Trainer::new(&ds, &cfg);
    let trained: Vec<u32> = (0..epochs).map(|_| trainer.train_epoch().loss.to_bits()).collect();
    let test_accuracy = trainer.evaluate();

    let mut model = GraphSage::new(&cfg.model);
    let mut adam = Adam::new(AdamConfig {
        weight_decay: cfg.weight_decay,
        ..AdamConfig::with_lr(cfg.lr)
    });
    let mut agg = SingleSocketAggregator::new(&ds.graph, cfg.kernel);
    let mut oracle = Vec::new();
    for _ in 0..epochs {
        let (logits, cache) = model.forward(&mut agg, &ds.features);
        let ce = masked_cross_entropy(&logits, &ds.labels, &ds.train_mask);
        let grads = model.backward(&mut agg, &cache, &ce.grad_logits);
        apply_flat_grads(&mut model, &mut adam, &flatten_grads(&grads));
        oracle.push(ce.loss.to_bits());
    }
    assert_eq!(trained, oracle, "per-epoch loss bits");
    assert_eq!(bits(&trainer.model.write_params()), bits(&model.write_params()));
    let (logits, _) = model.forward(&mut agg, &ds.features);
    let oracle_accuracy = reduce::masked_accuracy(&logits, &ds.labels, &ds.test_mask);
    assert_eq!(test_accuracy.to_bits(), oracle_accuracy.to_bits());
}

/// The distributed trainer under 0c and cd-0 at 2 ranks trains the
/// same parameter bits with the telemetry hub on and off.
#[test]
fn distributed_trainer_is_bit_identical_with_and_without_hub() {
    let ds = dataset();
    for mode in [DistMode::Oc, DistMode::Cd0] {
        let c = DistConfig::new(&ds, mode, 2, 5);
        let plain = DistTrainer::launch(&ds, None, &c, None).expect("plain run");
        let hub = TelemetryHub::new(2, Default::default());
        let recorded = DistTrainer::launch(&ds, None, &c, Some(&hub)).expect("recorded run");
        assert_eq!(plain.final_params, recorded.final_params, "{mode:?}");
        for (a, b) in plain.epochs.iter().zip(&recorded.epochs) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{mode:?}");
        }
        assert_eq!(plain.test_accuracy.to_bits(), recorded.test_accuracy.to_bits());
    }
}

/// Trains `epochs` full-batch epochs on 2 ranks through the workspace
/// passes over a [`Probe`]d [`RankAggregator`]; returns each rank's
/// final parameters and layer-0 forward count.
fn rank_training(
    ds: &Dataset,
    pg: &PartitionedGraph,
    model_cfg: &SageConfig,
    mode: DistMode,
    offer_key: bool,
    epochs: u64,
) -> Vec<(Vec<f32>, usize)> {
    Cluster::run(pg.num_parts(), |ctx| {
        let part = &pg.parts[ctx.rank()];
        let idx: Vec<usize> = part.global_ids.iter().map(|&g| g as usize).collect();
        let features = ds.features.gather_rows(&idx);
        let labels: Vec<usize> = idx.iter().map(|&g| ds.labels[g]).collect();
        let mut model = GraphSage::new(model_cfg);
        let mut adam = Adam::new(AdamConfig::with_lr(0.01));
        let inner = RankAggregator::new(ctx, pg, mode, AggregationConfig::optimized(1));
        let mut agg = Probe::new(inner, offer_key);
        let mut ws = SageWorkspace::new(&model, features.rows());
        let mut probs = Matrix::zeros(features.rows(), model_cfg.num_classes);
        let mut flat = Vec::new();
        for e in 0..epochs {
            agg.inner.set_epoch(e);
            model.forward_into(&mut agg, &features, &mut ws);
            let last = ws.layers.last_mut().unwrap();
            masked_cross_entropy_into(&last.z, &labels, &[], &mut probs, &mut last.grad_z);
            model.backward_into(&mut agg, &mut ws);
            assert!(agg.inner.take_error().is_none(), "fault-free run");
            ws.flatten_grads_into(&mut flat);
            ctx.all_reduce_sum(&mut flat);
            apply_flat_grads(&mut model, &mut adam, &flat);
        }
        assert_eq!(agg.layer0_backwards, 0, "layer 0 has no input gradient");
        (model.write_params(), agg.layer0_forwards)
    })
}

/// Under 0c and cd-0 a rank aggregates and syncs layer 0 once, and
/// trains the same bits as when every epoch recomputes it.
#[test]
fn rank_reuse_of_layer0_matches_recomputing_it() {
    let ds = dataset();
    let edges = ds.graph.to_edge_list();
    let pg = PartitionedGraph::build(&edges, &libra_partition(&edges, 2), 99);
    let model_cfg = SageConfig::standard_shape(ds.feat_dim(), ds.num_classes, 16, 0xC0DE);
    let epochs = 4;
    for mode in [DistMode::Oc, DistMode::Cd0, DistMode::CdR { delay: 0 }] {
        let reused = rank_training(&ds, &pg, &model_cfg, mode, true, epochs);
        let recomputed = rank_training(&ds, &pg, &model_cfg, mode, false, epochs);
        for ((p_reused, n_reused), (p_recomputed, n_recomputed)) in reused.iter().zip(&recomputed) {
            assert_eq!(bits(p_reused), bits(p_recomputed), "{mode:?}");
            assert_eq!(*n_reused, 1, "{mode:?}: layer 0 aggregated once");
            assert_eq!(*n_recomputed, epochs as usize, "{mode:?}");
        }
    }
    // cd-r with r > 0 delays layer 0's remote partials: never reused.
    let delayed = rank_training(&ds, &pg, &model_cfg, DistMode::CdR { delay: 2 }, true, epochs);
    assert!(delayed.iter().all(|(_, n)| *n == epochs as usize));
}

/// A workspace recomputes layer 0 when it is fed a different
/// feature matrix, or driven by a different aggregator, and reuses it
/// otherwise; each result equals a fresh workspace's, bit for bit.
#[test]
fn workspace_recomputes_layer0_for_new_features_or_aggregator() {
    let ds = dataset();
    let n = ds.num_vertices();
    let cfg = SageConfig::standard_shape(ds.feat_dim(), ds.num_classes, 16, 7);
    let model = GraphSage::new(&cfg);
    let kernel = AggregationConfig::optimized(2);
    let f1 = ds.features.clone();
    let f2 = init::random_features(n, ds.feat_dim(), 99);
    let fresh_logits = |features: &Matrix| {
        let mut agg = SingleSocketAggregator::new(&ds.graph, kernel);
        let mut ws = SageWorkspace::new(&model, n);
        model.forward_into(&mut agg, features, &mut ws);
        ws.logits().clone()
    };
    let (logits1, logits2) = (fresh_logits(&f1), fresh_logits(&f2));
    assert_ne!(logits1, logits2, "the feature matrices must differ in effect");

    let mut agg = Probe::new(SingleSocketAggregator::new(&ds.graph, kernel), true);
    let mut ws = SageWorkspace::new(&model, n);
    let mut forward = |agg: &mut Probe<SingleSocketAggregator>, features: &Matrix| {
        model.forward_into(agg, features, &mut ws);
        ws.logits().clone()
    };
    assert_eq!(forward(&mut agg, &f1), logits1);
    assert_eq!(forward(&mut agg, &f1), logits1);
    assert_eq!(agg.layer0_forwards, 1, "same features: layer 0 reused");
    assert_eq!(forward(&mut agg, &f2), logits2);
    assert_eq!(agg.layer0_forwards, 2, "new features: layer 0 recomputed");
    assert_eq!(forward(&mut agg, &f1), logits1);
    assert_eq!(agg.layer0_forwards, 3);

    let mut other = Probe::new(SingleSocketAggregator::new(&ds.graph, kernel), true);
    assert_eq!(forward(&mut other, &f1), logits1);
    assert_eq!(other.layer0_forwards, 1, "new aggregator: layer 0 recomputed");
    let mut keyless = Probe::new(SingleSocketAggregator::new(&ds.graph, kernel), false);
    forward(&mut keyless, &f1);
    forward(&mut keyless, &f1);
    assert_eq!(keyless.layer0_forwards, 2, "no key: layer 0 recomputed every time");
}

/// A layer-0 sync that fails leaves an incomplete aggregate, which the
/// workspace must not keep: after the error is taken, the next forward
/// pass re-aggregates layer 0 and matches a fault-free rank bit for bit.
#[test]
fn failed_layer0_sync_is_not_reused() {
    let ds = dataset();
    let edges = ds.graph.to_edge_list();
    let pg = PartitionedGraph::build(&edges, &libra_partition(&edges, 2), 99);
    let model = GraphSage::new(&SageConfig::standard_shape(ds.feat_dim(), ds.num_classes, 16, 3));
    let logits = |faults: &FaultPlan| {
        Cluster::run_with(2, faults, None, 0, |ctx| {
            let part = &pg.parts[ctx.rank()];
            let idx: Vec<usize> = part.global_ids.iter().map(|&g| g as usize).collect();
            let features = ds.features.gather_rows(&idx);
            let inner = RankAggregator::new(ctx, &pg, DistMode::Cd0, AggregationConfig::optimized(1))
                .with_retry_policy(RetryPolicy::none());
            let mut agg = Probe::new(inner, true);
            let mut ws = SageWorkspace::new(&model, features.rows());
            agg.inner.set_epoch(0);
            model.forward_into(&mut agg, &features, &mut ws);
            let failed = agg.inner.take_error().is_some();
            agg.inner.set_epoch(1);
            model.forward_into(&mut agg, &features, &mut ws);
            assert!(agg.inner.take_error().is_none(), "epoch 1 is fault-free");
            (failed, agg.layer0_forwards, ws.logits().clone())
        })
        .0
    };
    let clean = logits(&FaultPlan::none());
    let stalled = logits(&FaultPlan::none().with_stall(1, 0, 1));
    for ((c_failed, c_forwards, c_logits), (s_failed, s_forwards, s_logits)) in
        clean.iter().zip(&stalled)
    {
        assert!(!c_failed && *s_failed, "the stall must abort epoch 0's sync");
        assert_eq!((*c_forwards, *s_forwards), (1, 2));
        assert_eq!(c_logits, s_logits);
    }
}
