//! The GraphSAGE model: a stack of (aggregate → linear → ReLU) blocks.
//!
//! §6.1: two graph-convolution layers with 16 hidden neurons for
//! Reddit, three layers with 256 hidden neurons for the other datasets;
//! the aggregation operator is GCN-style (sum, then add self features
//! and normalize by in-degree).
//!
//! The aggregation step is abstracted behind [`Aggregator`] so the same
//! model code trains single-socket (plain kernel calls) and distributed
//! (local aggregation + DRPA clone synchronization).

use distgnn_nn::linear::{Linear, LinearGrads};
use distgnn_tensor::{init, ops, Matrix};
use std::sync::atomic::{AtomicU64, Ordering};

/// Provides the GCN aggregate-and-normalize step and its gradient.
///
/// `layer` identifies which model layer is aggregating — the
/// distributed implementation keeps per-layer communication state.
pub trait Aggregator {
    /// Number of vertices (rows) this aggregator operates over.
    fn num_vertices(&self) -> usize;
    /// `out[v] = (Σ_{u -> v} h[u] + h[v]) / (deg(v) + 1)`.
    fn forward(&mut self, layer: usize, h: &Matrix) -> Matrix;
    /// Gradient of [`Aggregator::forward`] with respect to `h`.
    fn backward(&mut self, layer: usize, grad_out: &Matrix) -> Matrix;

    /// [`Aggregator::forward`] into a caller-owned buffer. The default
    /// falls back to the allocating form; implementations on the hot
    /// path override it to be allocation-free.
    fn forward_into(&mut self, layer: usize, h: &Matrix, out: &mut Matrix) {
        *out = self.forward(layer, h);
    }

    /// [`Aggregator::backward`] into a caller-owned buffer; same
    /// contract as [`Aggregator::forward_into`].
    fn backward_into(&mut self, layer: usize, grad_out: &Matrix, out: &mut Matrix) {
        *out = self.backward(layer, grad_out);
    }

    /// `Some(key)` while this aggregator's layer-0 output is a function
    /// of (its graph, the input features) alone, so a [`SageWorkspace`]
    /// may keep it across forward passes; `key` is unique to this
    /// aggregator (see [`next_aggregator_key`]). The default, `None`,
    /// has [`GraphSage::forward_into`] aggregate layer 0 every time.
    fn layer0_reuse_key(&self) -> Option<u64> {
        None
    }
}

/// A process-unique key for [`Aggregator::layer0_reuse_key`], drawn
/// once per aggregator at construction.
pub fn next_aggregator_key() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Model shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SageConfig {
    pub in_dim: usize,
    /// Hidden widths; the number of layers is `hidden.len() + 1`.
    pub hidden: Vec<usize>,
    pub num_classes: usize,
    pub seed: u64,
}

impl SageConfig {
    /// Paper's Reddit model: 2 layers, 16 hidden neurons.
    pub fn reddit_shape(in_dim: usize, num_classes: usize, seed: u64) -> Self {
        SageConfig { in_dim, hidden: vec![16], num_classes, seed }
    }

    /// Paper's model for the other datasets: 3 layers, 256 hidden.
    /// The scaled datasets shrink this to keep epochs fast.
    pub fn standard_shape(in_dim: usize, num_classes: usize, hidden: usize, seed: u64) -> Self {
        SageConfig { in_dim, hidden: vec![hidden, hidden], num_classes, seed }
    }

    /// Per-layer (in, out) dimensions.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 1);
        let mut prev = self.in_dim;
        for &h in &self.hidden {
            dims.push((prev, h));
            prev = h;
        }
        dims.push((prev, self.num_classes));
        dims
    }
}

/// Activations cached by the forward pass for backprop.
#[derive(Clone, Debug)]
pub struct SageCache {
    /// Aggregation outputs (= linear inputs), one per layer.
    pub agg_outputs: Vec<Matrix>,
    /// Pre-activations `z`, one per layer.
    pub pre_activations: Vec<Matrix>,
}

/// Every buffer one layer's forward + backward passes touch. Shapes
/// are fixed by the model config and vertex count, so one workspace
/// built up front serves every epoch: [`GraphSage::forward_into`] /
/// [`GraphSage::backward_into`] write into these matrices instead of
/// allocating.
#[derive(Clone, Debug)]
pub struct LayerWorkspace {
    /// Aggregation output = linear input, `n x in_dim` (the cache the
    /// backward pass reads).
    pub agg: Matrix,
    /// Pre-activation `z`, `n x out_dim` (for the final layer these are
    /// the logits).
    pub z: Matrix,
    /// Post-ReLU activation, `n x out_dim` (unused by the final layer).
    pub act: Matrix,
    /// Gradient w.r.t. `z`, `n x out_dim`. For the final layer the loss
    /// writes the logits gradient here before `backward_into` runs.
    pub grad_z: Matrix,
    /// Gradient w.r.t. the layer's input activations (after the
    /// aggregation backward), `n x in_dim`; 0×0 for layer 0, whose
    /// input (the features) is not trained.
    pub grad_h: Matrix,
    /// Reusable parameter/input gradients (`grad_input` is 0×0 for
    /// layer 0, like `grad_h`).
    pub grads: LinearGrads,
    /// Scratch for the `Aᵀ·B` weight-gradient partials.
    pub at_b_scratch: Vec<f32>,
}

/// Per-layer workspaces for one model replica over `n` vertices.
#[derive(Clone, Debug)]
pub struct SageWorkspace {
    pub layers: Vec<LayerWorkspace>,
    /// What `layers[0].agg` was aggregated from, while it may be reused.
    layer0: Option<Layer0Source>,
}

/// The (aggregator, features) pair a layer-0 aggregate belongs to: the
/// aggregator's [`Aggregator::layer0_reuse_key`] and the feature
/// matrix's address and shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Layer0Source {
    aggregator: u64,
    features: usize,
    shape: (usize, usize),
}

impl SageWorkspace {
    /// Builds all buffers for `model` applied to `num_vertices` rows.
    /// This is the only place the epoch loop's matrices are allocated.
    pub fn new(model: &GraphSage, num_vertices: usize) -> Self {
        let layers = model
            .layers
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                // Layer 0 never back-propagates into its input.
                let (gr, gc) = if l == 0 { (0, 0) } else { (num_vertices, layer.in_dim()) };
                LayerWorkspace {
                    agg: Matrix::zeros(num_vertices, layer.in_dim()),
                    z: Matrix::zeros(num_vertices, layer.out_dim()),
                    act: Matrix::zeros(num_vertices, layer.out_dim()),
                    grad_z: Matrix::zeros(num_vertices, layer.out_dim()),
                    grad_h: Matrix::zeros(gr, gc),
                    grads: LinearGrads {
                        grad_input: Matrix::zeros(gr, gc),
                        ..LinearGrads::zeros_for(layer, 0)
                    },
                    at_b_scratch: Vec::new(),
                }
            })
            .collect();
        SageWorkspace { layers, layer0: None }
    }

    /// The last forward pass's logits (the final layer's `z`).
    pub fn logits(&self) -> &Matrix {
        &self.layers.last().expect("workspace has no layers").z
    }

    /// The final layer's `grad_z` — where the loss writes the logits
    /// gradient before [`GraphSage::backward_into`].
    pub fn grad_logits_mut(&mut self) -> &mut Matrix {
        &mut self.layers.last_mut().expect("workspace has no layers").grad_z
    }

    /// Serializes the per-layer gradients into `flat` (weights then
    /// bias per layer, same order as [`flatten_grads`]). Reuses the
    /// buffer's capacity, so steady-state calls do not allocate.
    pub fn flatten_grads_into(&self, flat: &mut Vec<f32>) {
        flat.clear();
        for lw in &self.layers {
            flat.extend_from_slice(lw.grads.grad_weight.as_slice());
            flat.extend_from_slice(&lw.grads.grad_bias);
        }
    }
}

/// The GraphSAGE model: one [`Linear`] per layer.
#[derive(Clone, Debug)]
pub struct GraphSage {
    pub layers: Vec<Linear>,
}

impl GraphSage {
    /// Deterministically-initialized model; equal seeds give equal
    /// replicas, which distributed training requires at startup.
    pub fn new(config: &SageConfig) -> Self {
        let mut rng = init::rng(config.seed);
        let layers = config
            .layer_dims()
            .into_iter()
            .map(|(i, o)| Linear::new(i, o, &mut rng))
            .collect();
        GraphSage { layers }
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Full forward pass; returns the logits and the cache the backward
    /// pass needs.
    pub fn forward(&self, agg: &mut dyn Aggregator, features: &Matrix) -> (Matrix, SageCache) {
        assert_eq!(features.rows(), agg.num_vertices(), "feature row count");
        let num_layers = self.layers.len();
        let mut cache = SageCache {
            agg_outputs: Vec::with_capacity(num_layers),
            pre_activations: Vec::with_capacity(num_layers),
        };
        let mut h = features.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            let a = agg.forward(l, &h);
            let z = layer.forward(&a);
            cache.agg_outputs.push(a);
            h = if l + 1 == num_layers { z.clone() } else { ops::relu(&z) };
            cache.pre_activations.push(z);
        }
        (h, cache)
    }

    /// Full forward pass into `ws`'s buffers; the logits land in
    /// [`SageWorkspace::logits`]. Steady-state allocation-free when the
    /// aggregator's `_into` methods are (the workspace is reused as the
    /// backward cache, replacing [`SageCache`]).
    ///
    /// Layer 0 aggregates `features`, which nothing trains. While `agg`
    /// offers a [`Aggregator::layer0_reuse_key`] and `ws` holds the
    /// aggregate of the same `features` matrix under that key, the
    /// layer-0 aggregation (and its clone sync) is skipped. The matrix
    /// is known by address and shape, so a caller that rewrites
    /// `features` in place needs a new workspace.
    pub fn forward_into(
        &self,
        agg: &mut dyn Aggregator,
        features: &Matrix,
        ws: &mut SageWorkspace,
    ) {
        assert_eq!(features.rows(), agg.num_vertices(), "feature row count");
        let num_layers = self.layers.len();
        assert_eq!(ws.layers.len(), num_layers, "workspace layer count");
        let source = |agg: &dyn Aggregator| {
            agg.layer0_reuse_key().map(|aggregator| Layer0Source {
                aggregator,
                features: features.as_slice().as_ptr() as usize,
                shape: features.shape(),
            })
        };
        let wanted = source(agg);
        if wanted.is_none() || wanted != ws.layer0 {
            agg.forward_into(0, features, &mut ws.layers[0].agg);
            // Asked again: a sync that failed inside the call withdraws
            // the key, and its incomplete aggregate must not be kept.
            ws.layer0 = wanted.filter(|_| source(agg) == wanted);
        }
        for l in 0..num_layers {
            let (prev, rest) = ws.layers.split_at_mut(l);
            let lw = &mut rest[0];
            if l > 0 {
                agg.forward_into(l, &prev[l - 1].act, &mut lw.agg);
            }
            self.layers[l].forward_into(&lw.agg, &mut lw.z);
            if l + 1 < num_layers {
                ops::relu_into(&lw.z, &mut lw.act);
            }
        }
    }

    /// Full backward pass into `ws`'s gradient buffers. Expects the
    /// logits gradient in [`SageWorkspace::grad_logits_mut`] (written
    /// there by the loss); leaves each layer's parameter gradients in
    /// `ws.layers[l].grads`. Layer 0 computes its parameter gradients
    /// only: no input gradient and no aggregation backward, since the
    /// features it would flow into are not trained.
    pub fn backward_into(&self, agg: &mut dyn Aggregator, ws: &mut SageWorkspace) {
        let num_layers = self.layers.len();
        assert_eq!(ws.layers.len(), num_layers, "workspace layer count");
        for l in (1..num_layers).rev() {
            let (prev, rest) = ws.layers.split_at_mut(l);
            let LayerWorkspace { agg: agg_out, grad_z, grad_h, grads, at_b_scratch, .. } =
                &mut rest[0];
            self.layers[l].backward_into(agg_out, grad_z, grads, at_b_scratch);
            agg.backward_into(l, &grads.grad_input, grad_h);
            let pw = &mut prev[l - 1];
            ops::relu_backward_into(grad_h, &pw.z, &mut pw.grad_z);
        }
        let LayerWorkspace { agg: agg_out, grad_z, grads, at_b_scratch, .. } = &mut ws.layers[0];
        self.layers[0].backward_params_into(agg_out, grad_z, grads, at_b_scratch);
    }

    /// Full backward pass; returns per-layer gradients (same order as
    /// `self.layers`).
    pub fn backward(
        &self,
        agg: &mut dyn Aggregator,
        cache: &SageCache,
        grad_logits: &Matrix,
    ) -> Vec<LinearGrads> {
        let num_layers = self.layers.len();
        assert_eq!(cache.agg_outputs.len(), num_layers, "cache layer count");
        let mut grads_rev = Vec::with_capacity(num_layers);
        let mut grad_z = grad_logits.clone();
        for l in (0..num_layers).rev() {
            let lg = self.layers[l].backward(&cache.agg_outputs[l], &grad_z);
            let grad_h = agg.backward(l, &lg.grad_input);
            grads_rev.push(lg);
            if l > 0 {
                grad_z = ops::relu_backward(&grad_h, &cache.pre_activations[l - 1]);
            }
        }
        grads_rev.reverse();
        grads_rev
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Serializes all parameters into one flat buffer.
    pub fn write_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            l.write_params(&mut out);
        }
        out
    }

    /// Loads all parameters from a flat buffer.
    pub fn read_params(&mut self, src: &[f32]) {
        let mut off = 0;
        for l in &mut self.layers {
            off += l.read_params(&src[off..]);
        }
        assert_eq!(off, src.len(), "parameter buffer size mismatch");
    }
}

/// Flattens per-layer gradients into one buffer (weights then bias per
/// layer) — the AllReduce payload for gradient sync.
pub fn flatten_grads(grads: &[LinearGrads]) -> Vec<f32> {
    let mut out = Vec::new();
    for g in grads {
        out.extend_from_slice(g.grad_weight.as_slice());
        out.extend_from_slice(&g.grad_bias);
    }
    out
}

/// Applies a flat gradient buffer with Adam, slot-per-tensor.
pub fn apply_flat_grads(model: &mut GraphSage, adam: &mut distgnn_nn::Adam, flat: &[f32]) {
    adam.begin_step();
    let mut off = 0;
    for (l, layer) in model.layers.iter_mut().enumerate() {
        let nw = layer.weight.rows() * layer.weight.cols();
        adam.step(2 * l, layer.weight.as_mut_slice(), &flat[off..off + nw]);
        off += nw;
        let nb = layer.bias.len();
        adam.step(2 * l + 1, &mut layer.bias, &flat[off..off + nb]);
        off += nb;
    }
    assert_eq!(off, flat.len(), "gradient buffer size mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleSocketAggregator;
    use distgnn_graph::generators::community_power_law;
    use distgnn_graph::Csr;
    use distgnn_kernels::AggregationConfig;
    use distgnn_nn::gradcheck::finite_diff;
    use distgnn_nn::masked_cross_entropy;
    use distgnn_tensor::init::random_features;

    fn small_setup() -> (Csr, Matrix, Vec<usize>, SageConfig) {
        let edges = community_power_law(24, 120, 3, 0.8, 0.7, 1).symmetrize();
        let g = Csr::from_edges(&edges);
        let f = random_features(24, 5, 2);
        let labels: Vec<usize> = (0..24).map(|v| v % 3).collect();
        let cfg = SageConfig { in_dim: 5, hidden: vec![6], num_classes: 3, seed: 3 };
        (g, f, labels, cfg)
    }

    #[test]
    fn layer_dims_chain_correctly() {
        let cfg = SageConfig::standard_shape(100, 47, 256, 0);
        assert_eq!(cfg.layer_dims(), vec![(100, 256), (256, 256), (256, 47)]);
        let cfg = SageConfig::reddit_shape(602, 41, 0);
        assert_eq!(cfg.layer_dims(), vec![(602, 16), (16, 41)]);
    }

    #[test]
    fn forward_shapes_are_consistent() {
        let (g, f, _, cfg) = small_setup();
        let model = GraphSage::new(&cfg);
        let mut agg = SingleSocketAggregator::new(&g, AggregationConfig::baseline());
        let (logits, cache) = model.forward(&mut agg, &f);
        assert_eq!(logits.shape(), (24, 3));
        assert_eq!(cache.agg_outputs.len(), 2);
        assert_eq!(cache.agg_outputs[0].shape(), (24, 5));
        assert_eq!(cache.pre_activations[1].shape(), (24, 3));
    }

    #[test]
    fn same_seed_gives_identical_replicas() {
        let cfg = SageConfig::standard_shape(8, 4, 6, 42);
        let a = GraphSage::new(&cfg);
        let b = GraphSage::new(&cfg);
        assert_eq!(a.write_params(), b.write_params());
        let c = GraphSage::new(&SageConfig { seed: 43, ..cfg });
        assert_ne!(a.write_params(), c.write_params());
    }

    #[test]
    fn params_round_trip_through_flat_buffer() {
        let cfg = SageConfig::standard_shape(8, 4, 6, 7);
        let a = GraphSage::new(&cfg);
        let mut b = GraphSage::new(&SageConfig { seed: 9, ..cfg });
        b.read_params(&a.write_params());
        assert_eq!(a.write_params(), b.write_params());
    }

    #[test]
    fn end_to_end_gradient_matches_finite_difference() {
        let (g, f, labels, cfg) = small_setup();
        let model = GraphSage::new(&cfg);
        let mask: Vec<usize> = (0..24).collect();
        let loss_of = |m: &GraphSage, feats: &Matrix| {
            let mut agg = SingleSocketAggregator::new(&g, AggregationConfig::baseline());
            let (logits, _) = m.forward(&mut agg, feats);
            masked_cross_entropy(&logits, &labels, &mask).loss
        };
        // Analytic gradients.
        let mut agg = SingleSocketAggregator::new(&g, AggregationConfig::baseline());
        let (logits, cache) = model.forward(&mut agg, &f);
        let ce = masked_cross_entropy(&logits, &labels, &mask);
        let grads = model.backward(&mut agg, &cache, &ce.grad_logits);

        // Check layer-0 weight gradient against finite differences.
        let fd_w0 = finite_diff(&model.layers[0].weight, 5e-2, |w| {
            let mut m2 = model.clone();
            m2.layers[0].weight = w.clone();
            loss_of(&m2, &f)
        });
        assert!(
            grads[0].grad_weight.approx_eq(&fd_w0, 5e-2),
            "layer-0 weight grads disagree"
        );
        // And the last layer's bias gradient.
        let l_last = model.layers.len() - 1;
        let fd_b: Vec<f32> = (0..model.layers[l_last].bias.len())
            .map(|i| {
                let eps = 5e-2;
                let mut mp = model.clone();
                mp.layers[l_last].bias[i] += eps;
                let mut mm = model.clone();
                mm.layers[l_last].bias[i] -= eps;
                (loss_of(&mp, &f) - loss_of(&mm, &f)) / (2.0 * eps)
            })
            .collect();
        for (a, b) in grads[l_last].grad_bias.iter().zip(&fd_b) {
            assert!((a - b).abs() < 5e-2, "bias grad {a} vs fd {b}");
        }
    }

    #[test]
    fn workspace_passes_match_allocating_passes() {
        let (g, f, labels, cfg) = small_setup();
        let model = GraphSage::new(&cfg);
        let mask: Vec<usize> = (0..24).collect();

        // Allocating reference path.
        let mut agg_a = SingleSocketAggregator::new(&g, AggregationConfig::optimized(2));
        let (logits, cache) = model.forward(&mut agg_a, &f);
        let ce = masked_cross_entropy(&logits, &labels, &mask);
        let grads = model.backward(&mut agg_a, &cache, &ce.grad_logits);

        // Workspace path, run twice to catch stale-buffer bugs.
        let mut agg_b = SingleSocketAggregator::new(&g, AggregationConfig::optimized(2));
        let mut ws = SageWorkspace::new(&model, 24);
        let mut probs = Matrix::zeros(24, 3);
        let mut flat = Vec::new();
        for _ in 0..2 {
            model.forward_into(&mut agg_b, &f, &mut ws);
            assert_eq!(ws.logits(), &logits);
            let last = ws.layers.last_mut().unwrap();
            let loss = distgnn_nn::masked_cross_entropy_into(
                &last.z,
                &labels,
                &mask,
                &mut probs,
                &mut last.grad_z,
            );
            assert!((loss - ce.loss).abs() < 1e-6);
            model.backward_into(&mut agg_b, &mut ws);
            for (lw, reference) in ws.layers.iter().zip(&grads) {
                assert_eq!(lw.grads.grad_weight, reference.grad_weight);
                assert_eq!(lw.grads.grad_bias, reference.grad_bias);
            }
            ws.flatten_grads_into(&mut flat);
            assert_eq!(flat, flatten_grads(&grads));
        }
    }

    #[test]
    fn flatten_and_apply_round_trip_sizes() {
        let (g, f, labels, cfg) = small_setup();
        let mut model = GraphSage::new(&cfg);
        let mut agg = SingleSocketAggregator::new(&g, AggregationConfig::baseline());
        let (logits, cache) = model.forward(&mut agg, &f);
        let ce = masked_cross_entropy(&logits, &labels, &[]);
        let grads = model.backward(&mut agg, &cache, &ce.grad_logits);
        let flat = flatten_grads(&grads);
        assert_eq!(flat.len(), model.num_params());
        let before = model.write_params();
        let mut adam = distgnn_nn::Adam::new(distgnn_nn::AdamConfig::with_lr(0.01));
        apply_flat_grads(&mut model, &mut adam, &flat);
        assert_ne!(before, model.write_params());
    }
}
