//! Criterion bench: end-to-end training epochs — single-socket
//! baseline vs optimized (Fig. 2) and distributed modes (Fig. 5's
//! measured substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distgnn_core::model::{apply_flat_grads, flatten_grads, GraphSage};
use distgnn_core::single::{SingleSocketAggregator, Trainer, TrainerConfig};
use distgnn_core::{DistConfig, DistMode, DistTrainer};
use distgnn_graph::{Dataset, ScaledConfig};
use distgnn_kernels::AggregationConfig;
use distgnn_nn::{masked_cross_entropy, Adam, AdamConfig};
use std::hint::black_box;

fn bench_epochs(c: &mut Criterion) {
    let ds = Dataset::generate(&ScaledConfig::am_s());
    let mut group = c.benchmark_group("epoch/am-s");
    group.sample_size(10);
    for (name, kernel) in [
        ("single_baseline", AggregationConfig::baseline()),
        ("single_optimized", AggregationConfig::optimized(2)),
    ] {
        let cfg = TrainerConfig::for_dataset(&ds, kernel, 1);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut t = Trainer::new(&ds, &cfg);
                black_box(t.train_epoch())
            })
        });
    }
    for mode in [DistMode::Oc, DistMode::Cd0, DistMode::CdR { delay: 2 }] {
        let cfg = DistConfig::new(&ds, mode, 4, 2);
        group.bench_function(BenchmarkId::new("dist4", mode.name()), |b| {
            b.iter(|| {
                black_box(DistTrainer::launch(&ds, None, &cfg, None).expect("distributed run"))
            })
        });
    }
    group.finish();
}

/// Steady-state epoch cost: the allocating forward/backward path (the
/// seed's epoch loop, fresh matrices every pass) vs the workspace
/// `_into` path `Trainer::train_epoch` now uses. Both iterate a single
/// warm trainer, so the difference is allocation + dispatch only.
fn bench_epoch_paths(c: &mut Criterion) {
    let ds = Dataset::generate(&ScaledConfig::am_s());
    let cfg = TrainerConfig::for_dataset(&ds, AggregationConfig::optimized(2), 1);
    let mut group = c.benchmark_group("epoch_path/am-s");
    group.sample_size(10);

    // Allocating path, assembled from the still-public allocating APIs.
    let model = GraphSage::new(&cfg.model);
    let mut agg = SingleSocketAggregator::new(&ds.graph, cfg.kernel);
    let mut adam = Adam::new(AdamConfig {
        weight_decay: cfg.weight_decay,
        ..AdamConfig::with_lr(cfg.lr)
    });
    let mut model_a = model.clone();
    group.bench_function(BenchmarkId::from_parameter("allocating"), |b| {
        b.iter(|| {
            let (logits, cache) = model_a.forward(&mut agg, &ds.features);
            let ce = masked_cross_entropy(&logits, &ds.labels, &ds.train_mask);
            let grads = model_a.backward(&mut agg, &cache, &ce.grad_logits);
            let flat = flatten_grads(&grads);
            apply_flat_grads(&mut model_a, &mut adam, &flat);
            black_box(ce.loss)
        })
    });

    // Workspace path: one trainer reused, steady state after warm-up.
    let mut t = Trainer::new(&ds, &cfg);
    t.train_epoch();
    group.bench_function(BenchmarkId::from_parameter("workspace"), |b| {
        b.iter(|| black_box(t.train_epoch()))
    });
    group.finish();
}

criterion_group!(benches, bench_epochs, bench_epoch_paths);
criterion_main!(benches);
