//! Dist-DGL-style mini-batch training with neighbourhood sampling —
//! the paper's comparator in Tables 7 and 9.
//!
//! Dist-DGL trains GraphSAGE on sampled mini-batches: for a batch of
//! training vertices, each layer samples a bounded fan-out of
//! in-neighbours, building a stack of bipartite *blocks* (DGL's term);
//! the forward pass aggregates over those blocks only. The paper
//! contrasts the aggregation work of this sampled scheme with
//! DistGNN's complete-neighbourhood full-batch pass.
//!
//! Block convention (as in DGL): a block's source list begins with its
//! destination vertices, so destination `i` is also source `i` and the
//! GCN self-term needs no extra lookup.

use crate::model::SageConfig;
use distgnn_graph::{Csr, Dataset};
use distgnn_nn::linear::Linear;
use distgnn_nn::{masked_cross_entropy, Adam, AdamConfig};
use distgnn_tensor::{init, ops, reduce, Matrix};
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::{Duration, Instant};

/// Sampling configuration. `fanouts[l]` is the fan-out of layer `l`
/// (layer 0 consumes raw features). The paper's Dist-DGL setup uses
/// fan-outs 5/10/15 from the input hop to the output hop.
#[derive(Clone, Debug)]
pub struct SamplerConfig {
    pub fanouts: Vec<usize>,
    pub batch_size: usize,
    pub seed: u64,
}

impl SamplerConfig {
    /// The paper's 3-layer setup: hop-2 fan-out 5, hop-1 10, hop-0 15.
    pub fn paper_default(batch_size: usize, seed: u64) -> Self {
        SamplerConfig { fanouts: vec![5, 10, 15], batch_size, seed }
    }
}

/// One bipartite sampled block.
#[derive(Clone, Debug)]
pub struct Block {
    /// Global ids of source vertices; the first `num_dst` are the
    /// destinations themselves.
    pub src_globals: Vec<u32>,
    pub num_dst: usize,
    /// `indptr`/`indices` over local ids: row `v < num_dst` lists the
    /// sampled source indices (into `src_globals`).
    pub indptr: Vec<usize>,
    pub indices: Vec<u32>,
}

impl Block {
    pub fn num_src(&self) -> usize {
        self.src_globals.len()
    }

    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        &self.indices[self.indptr[v]..self.indptr[v + 1]]
    }
}

/// Samples the block stack for one batch. Returned index 0 is the
/// input-most block, matching layer order.
pub fn sample_blocks(
    graph: &Csr,
    batch: &[u32],
    fanouts: &[usize],
    rng: &mut init::InitRng,
) -> Vec<Block> {
    let mut blocks_rev = Vec::with_capacity(fanouts.len());
    let mut frontier: Vec<u32> = batch.to_vec();
    // Walk from the output layer inwards: the *last* fan-out applies to
    // the batch itself.
    for &fanout in fanouts.iter().rev() {
        let num_dst = frontier.len();
        let mut src_globals = frontier.clone();
        let mut index_of = std::collections::HashMap::with_capacity(num_dst * 2);
        for (i, &g) in src_globals.iter().enumerate() {
            index_of.insert(g, i as u32);
        }
        let mut indptr = Vec::with_capacity(num_dst + 1);
        let mut indices = Vec::new();
        indptr.push(0);
        let mut scratch: Vec<u32> = Vec::new();
        for &dst in &frontier {
            let nbrs = graph.neighbors(dst);
            scratch.clear();
            if nbrs.len() <= fanout {
                scratch.extend_from_slice(nbrs);
            } else {
                // Sample `fanout` distinct neighbours (partial shuffle).
                let mut pool: Vec<u32> = nbrs.to_vec();
                for i in 0..fanout {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                scratch.extend_from_slice(&pool[..fanout]);
            }
            for &u in scratch.iter() {
                let idx = *index_of.entry(u).or_insert_with(|| {
                    src_globals.push(u);
                    (src_globals.len() - 1) as u32
                });
                indices.push(idx);
            }
            indptr.push(indices.len());
        }
        blocks_rev.push(Block { src_globals: src_globals.clone(), num_dst, indptr, indices });
        frontier = src_globals;
    }
    blocks_rev.reverse();
    blocks_rev
}

/// GCN aggregation over a block: `out[v] = (Σ sampled + h[v]) / (k+1)`.
fn block_aggregate(block: &Block, h: &Matrix) -> Matrix {
    let d = h.cols();
    let mut out = Matrix::zeros(block.num_dst, d);
    for v in 0..block.num_dst {
        let nbrs = block.neighbors(v);
        let inv = 1.0 / (nbrs.len() as f32 + 1.0);
        // Two passes keep the borrow checker happy: sum then normalize.
        for &u in nbrs {
            let src = h.row(u as usize).to_vec();
            for (o, x) in out.row_mut(v).iter_mut().zip(src) {
                *o += x;
            }
        }
        let self_row = h.row(v).to_vec();
        for (o, x) in out.row_mut(v).iter_mut().zip(self_row) {
            *o = (*o + x) * inv;
        }
    }
    out
}

/// Backward of [`block_aggregate`] w.r.t. `h`.
fn block_aggregate_backward(block: &Block, grad_out: &Matrix, num_src: usize) -> Matrix {
    let d = grad_out.cols();
    let mut grad_h = Matrix::zeros(num_src, d);
    for v in 0..block.num_dst {
        let nbrs = block.neighbors(v);
        let inv = 1.0 / (nbrs.len() as f32 + 1.0);
        let g_row: Vec<f32> = grad_out.row(v).iter().map(|g| g * inv).collect();
        for &u in nbrs {
            for (o, &g) in grad_h.row_mut(u as usize).iter_mut().zip(&g_row) {
                *o += g;
            }
        }
        for (o, &g) in grad_h.row_mut(v).iter_mut().zip(&g_row) {
            *o += g;
        }
    }
    let _ = d;
    grad_h
}

/// Per-epoch mini-batch measurements.
#[derive(Clone, Copy, Debug)]
pub struct MiniBatchEpoch {
    pub loss: f32,
    pub epoch_time: Duration,
    /// Aggregation work actually performed this epoch, in raw ops
    /// (edge × feature multiply-adds) — the Table 7 quantity.
    pub aggregation_ops: u64,
    pub batches: usize,
}

/// Mini-batch GraphSAGE trainer.
pub struct MiniBatchTrainer {
    pub model_layers: Vec<Linear>,
    adam: Adam,
    sampler: SamplerConfig,
    rng: init::InitRng,
}

impl MiniBatchTrainer {
    pub fn new(model: &SageConfig, sampler: SamplerConfig, lr: f32) -> Self {
        assert_eq!(
            sampler.fanouts.len(),
            model.hidden.len() + 1,
            "one fan-out per layer"
        );
        let mut rng = init::rng(model.seed);
        let model_layers = model
            .layer_dims()
            .into_iter()
            .map(|(i, o)| Linear::new(i, o, &mut rng))
            .collect();
        MiniBatchTrainer {
            model_layers,
            adam: Adam::new(AdamConfig::with_lr(lr)),
            rng: init::rng(sampler.seed),
            sampler,
        }
    }

    /// One epoch over all training vertices in shuffled mini-batches.
    pub fn train_epoch(&mut self, dataset: &Dataset) -> MiniBatchEpoch {
        let t0 = Instant::now();
        let mut order: Vec<u32> = dataset.train_mask.iter().map(|&v| v as u32).collect();
        order.shuffle(&mut self.rng);
        let mut total_loss = 0.0;
        let mut total_ops = 0u64;
        let mut batches = 0usize;
        let chunks: Vec<Vec<u32>> =
            order.chunks(self.sampler.batch_size).map(|c| c.to_vec()).collect();
        for batch in &chunks {
            let (loss, batch_ops) = self.train_batch(dataset, batch);
            total_loss += loss;
            total_ops += batch_ops;
            batches += 1;
        }
        MiniBatchEpoch {
            loss: total_loss / batches.max(1) as f32,
            epoch_time: t0.elapsed(),
            aggregation_ops: total_ops,
            batches,
        }
    }

    fn train_batch(&mut self, dataset: &Dataset, batch: &[u32]) -> (f32, u64) {
        let blocks = sample_blocks(&dataset.graph, batch, &self.sampler.fanouts, &mut self.rng);
        let num_layers = self.model_layers.len();

        // Forward.
        let base_idx: Vec<usize> = blocks[0].src_globals.iter().map(|&g| g as usize).collect();
        let mut h = dataset.features.gather_rows(&base_idx);
        let mut agg_inputs = Vec::with_capacity(num_layers);
        let mut pre_acts = Vec::with_capacity(num_layers);
        let mut ops_count = 0u64;
        for (l, block) in blocks.iter().enumerate() {
            ops_count += block.num_edges() as u64 * h.cols() as u64;
            let a = block_aggregate(block, &h);
            let z = self.model_layers[l].forward(&a);
            agg_inputs.push((a, h.rows()));
            h = if l + 1 == num_layers { z.clone() } else { ops::relu(&z) };
            pre_acts.push(z);
        }

        // Loss over the batch (the final block's destinations).
        let labels: Vec<usize> = batch.iter().map(|&v| dataset.labels[v as usize]).collect();
        let ce = masked_cross_entropy(&h, &labels, &[]);

        // Backward.
        let mut grad_z = ce.grad_logits;
        let mut layer_grads = Vec::with_capacity(num_layers);
        for l in (1..num_layers).rev() {
            let (a, num_src) = &agg_inputs[l];
            let lg = self.model_layers[l].backward(a, &grad_z);
            let grad_h = block_aggregate_backward(&blocks[l], &lg.grad_input, *num_src);
            ops_count += blocks[l].num_edges() as u64 * grad_h.cols() as u64;
            layer_grads.push(lg);
            grad_z = ops::relu_backward(&grad_h, &pre_acts[l - 1]);
        }
        // Layer 0's input is the sampled features, which nothing trains.
        layer_grads.push(self.model_layers[0].backward_params(&agg_inputs[0].0, &grad_z));
        layer_grads.reverse();

        self.adam.begin_step();
        for (l, lg) in layer_grads.iter().enumerate() {
            self.adam.step(
                2 * l,
                self.model_layers[l].weight.as_mut_slice(),
                lg.grad_weight.as_slice(),
            );
            self.adam.step(2 * l + 1, &mut self.model_layers[l].bias, &lg.grad_bias);
        }
        (ce.loss, ops_count)
    }

    /// Full-graph evaluation with complete neighbourhoods (standard
    /// practice: sample at train time, exact inference at test time).
    pub fn evaluate(&self, dataset: &Dataset) -> f32 {
        let graph = &dataset.graph;
        let mut h = dataset.features.clone();
        let degrees = graph.degrees_f32();
        let prep = distgnn_kernels::PreparedAggregation::new(
            graph,
            distgnn_kernels::AggregationConfig::optimized(1),
        );
        let num_layers = self.model_layers.len();
        for (l, layer) in self.model_layers.iter().enumerate() {
            let mut a = prep.aggregate(
                &h,
                None,
                distgnn_kernels::BinaryOp::CopyLhs,
                distgnn_kernels::ReduceOp::Sum,
            );
            distgnn_kernels::gcn::gcn_normalize(&mut a, &h, &degrees);
            let z = layer.forward(&a);
            h = if l + 1 == num_layers { z } else { ops::relu(&z) };
        }
        reduce::masked_accuracy(&h, &dataset.labels, &dataset.test_mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgnn_graph::ScaledConfig;

    fn tiny() -> Dataset {
        Dataset::generate(&ScaledConfig::am_s().scaled_by(0.25))
    }

    fn tiny_model(ds: &Dataset) -> SageConfig {
        SageConfig { in_dim: ds.feat_dim(), hidden: vec![8, 8], num_classes: ds.num_classes, seed: 5 }
    }

    #[test]
    fn blocks_respect_fanout_caps() {
        let ds = tiny();
        let mut rng = init::rng(1);
        let batch: Vec<u32> = ds.train_mask.iter().take(16).map(|&v| v as u32).collect();
        let blocks = sample_blocks(&ds.graph, &batch, &[5, 10, 15], &mut rng);
        assert_eq!(blocks.len(), 3);
        // Output block destinations are the batch.
        assert_eq!(blocks[2].num_dst, batch.len());
        assert_eq!(&blocks[2].src_globals[..batch.len()], batch.as_slice());
        for (block, &fanout) in blocks.iter().zip(&[5usize, 10, 15]) {
            for v in 0..block.num_dst {
                let deg = block.neighbors(v).len();
                assert!(deg <= fanout, "sampled degree {deg} > fanout {fanout}");
                let full = ds.graph.degree(block.src_globals[v]);
                assert!(deg <= full);
            }
        }
        // Frontier chaining: layer l's src set == layer l+1's full frontier.
        assert_eq!(blocks[0].num_dst, blocks[1].num_src());
        assert_eq!(blocks[1].num_dst, blocks[2].num_src());
    }

    #[test]
    fn sampled_sources_are_real_neighbours() {
        let ds = tiny();
        let mut rng = init::rng(2);
        let batch: Vec<u32> = ds.train_mask.iter().take(8).map(|&v| v as u32).collect();
        let blocks = sample_blocks(&ds.graph, &batch, &[5, 10, 15], &mut rng);
        for block in &blocks {
            for v in 0..block.num_dst {
                let dst_global = block.src_globals[v];
                for &u in block.neighbors(v) {
                    let src_global = block.src_globals[u as usize];
                    assert!(
                        ds.graph.neighbors(dst_global).contains(&src_global),
                        "{src_global} is not an in-neighbour of {dst_global}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_aggregate_matches_hand_value() {
        let block = Block {
            src_globals: vec![10, 20, 30],
            num_dst: 1,
            indptr: vec![0, 2],
            indices: vec![1, 2],
        };
        let h = Matrix::from_vec(3, 1, vec![1.0, 4.0, 7.0]);
        let out = block_aggregate(&block, &h);
        // (4 + 7 + self 1) / 3
        assert!((out[(0, 0)] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn block_backward_matches_finite_difference() {
        let block = Block {
            src_globals: vec![0, 1, 2, 3],
            num_dst: 2,
            indptr: vec![0, 2, 3],
            indices: vec![2, 3, 0],
        };
        let h = Matrix::from_fn(4, 2, |r, c| (r as f32) - (c as f32) * 0.3);
        let grad = block_aggregate_backward(&block, &Matrix::full(2, 2, 1.0), 4);
        let eps = 1e-2f32;
        for r in 0..4 {
            for c in 0..2 {
                let mut hp = h.clone();
                hp[(r, c)] += eps;
                let mut hm = h.clone();
                hm[(r, c)] -= eps;
                let fd = (block_aggregate(&block, &hp).as_slice().iter().sum::<f32>()
                    - block_aggregate(&block, &hm).as_slice().iter().sum::<f32>())
                    / (2.0 * eps);
                assert!((grad[(r, c)] - fd).abs() < 1e-2, "({r},{c}): {} vs {fd}", grad[(r, c)]);
            }
        }
    }

    #[test]
    fn minibatch_training_learns() {
        let ds = tiny();
        let mut t =
            MiniBatchTrainer::new(&tiny_model(&ds), SamplerConfig::paper_default(64, 9), 0.01);
        let first = t.train_epoch(&ds);
        for _ in 0..20 {
            t.train_epoch(&ds);
        }
        let last = t.train_epoch(&ds);
        assert!(last.loss < first.loss * 0.8, "loss {} -> {}", first.loss, last.loss);
        assert!(t.evaluate(&ds) > 0.6);
    }

    #[test]
    fn sampled_work_is_less_than_full_neighbourhood_work() {
        let ds = Dataset::generate(&ScaledConfig::products_s().scaled_by(0.2));
        let mut t =
            MiniBatchTrainer::new(&tiny_model(&ds), SamplerConfig::paper_default(256, 4), 0.01);
        let e = t.train_epoch(&ds);
        // Full-batch forward+backward touches every edge twice per layer.
        let full_ops: u64 = (0..3u64)
            .map(|_| 2 * ds.graph.num_edges() as u64 * ds.feat_dim() as u64)
            .sum();
        assert!(
            e.aggregation_ops < full_ops,
            "sampled {} vs full {}",
            e.aggregation_ops,
            full_ops
        );
        assert!(e.batches > 1);
    }
}
