//! Edge scoring with the SDDMM / edge-softmax / weighted-AP pipeline —
//! the kernel composition behind attention models and link prediction
//! (DGL's second primitive family, §2.2 of the paper).
//!
//! Trains GraphSAGE normally, then uses the learned embeddings to
//! (a) score every edge with a dot-product SDDMM, (b) normalize scores
//! per destination with edge softmax, and (c) produce attention-
//! weighted neighbourhood summaries with the aggregation primitive —
//! checking that planted intra-community edges outscore the
//! cross-community ones.
//!
//! Run with: `cargo run --release --example attention_scoring`

use distgnn_suite::core::single::{Trainer, TrainerConfig};
use distgnn_suite::graph::generators::community_of;
use distgnn_suite::graph::{Dataset, ScaledConfig};
use distgnn_suite::kernels::{
    edge_softmax, sddmm, AggregationConfig, BinaryOp, PreparedAggregation, ReduceOp, SddmmOp,
};
use distgnn_suite::tensor::{ops, Matrix};

fn main() {
    let cfg = ScaledConfig::products_s().scaled_by(0.3);
    let dataset = Dataset::generate(&cfg);
    println!(
        "dataset {}: {} vertices, {} edges",
        dataset.name,
        dataset.num_vertices(),
        dataset.graph.num_edges()
    );

    // 1. Learn embeddings with the standard trainer.
    let tcfg = TrainerConfig::for_dataset(&dataset, AggregationConfig::optimized(2), 40);
    let mut trainer = Trainer::new(&dataset, &tcfg);
    for _ in 0..40 {
        trainer.train_epoch();
    }
    println!("trained: test accuracy {:.1}%", trainer.evaluate() * 100.0);

    // 2. Penultimate-layer embeddings as the scoring space: rerun the
    //    forward pass and keep the hidden activations.
    let mut agg = distgnn_suite::core::SingleSocketAggregator::new(
        &dataset.graph,
        AggregationConfig::optimized(2),
    );
    let (_, cache) = trainer.model.forward(&mut agg, &dataset.features);
    let hidden = ops::relu(&cache.pre_activations[cache.pre_activations.len() - 2]);

    // 3. Dot-product edge scores.
    let logits = sddmm(&dataset.graph, &hidden, &hidden, SddmmOp::Dot);

    // Intra- vs inter-community separation of the raw scores.
    let el = dataset.graph.to_edge_list();
    let n = dataset.num_vertices();
    let classes = dataset.num_classes;
    let (mut intra, mut inter, mut n_intra, mut n_inter) = (0.0f64, 0.0f64, 0u64, 0u64);
    for (e, u, v) in el.iter() {
        let same = community_of(u, n, classes) == community_of(v, n, classes);
        if same {
            intra += logits[(e, 0)] as f64;
            n_intra += 1;
        } else {
            inter += logits[(e, 0)] as f64;
            n_inter += 1;
        }
    }
    let (mi, mx) = (intra / n_intra as f64, inter / n_inter.max(1) as f64);
    println!("mean edge score: intra-community {mi:.3} vs cross-community {mx:.3}");
    assert!(mi > mx, "learned embeddings must separate planted communities");

    // 4. Edge softmax + attention-weighted aggregation.
    let att = edge_softmax(&dataset.graph, &logits);
    let mut att_wide = Matrix::zeros(dataset.graph.num_edges(), hidden.cols());
    for e in 0..dataset.graph.num_edges() {
        let a = att[(e, 0)];
        att_wide.row_mut(e).iter_mut().for_each(|x| *x = a);
    }
    let summary = PreparedAggregation::new(&dataset.graph, AggregationConfig::optimized(2)).aggregate(
        &hidden,
        Some(&att_wide),
        BinaryOp::Mul,
        ReduceOp::Sum,
    );
    println!(
        "attention-weighted summaries: {} x {} (finite: {})",
        summary.rows(),
        summary.cols(),
        summary.as_slice().iter().all(|x| x.is_finite())
    );
}
