//! Layer replay: each layer's public entry points called directly on
//! the workload's exact shapes (vertex count, `layer_dims()`, the graph,
//! the kernel configuration the trainer uses), median of `REPS` calls
//! after one warm-up call. Layers are the crate names.
//!
//! The replay is the same for every workload — a layer a workload does
//! not exercise in its run (collectives under the single-socket
//! trainer, say) is still replayed at that workload's shapes, so every
//! per-layer metric has a value everywhere and a later change can read
//! what it would cost there.

use crate::host::Calibration;
use crate::spans::Tracer;
use crate::stats;
use crate::workload::RANKS;
use distgnn_comm::Cluster;
use distgnn_core::model::{apply_flat_grads, Aggregator};
use distgnn_core::{GraphSage, SageConfig, SageWorkspace, SingleSocketAggregator};
use distgnn_graph::Dataset;
use distgnn_io::{encode_train_state, load_train_state, save_train_state, TrainState};
use distgnn_kernels::gcn::{gcn_aggregate_backward_prepared_into, gcn_aggregate_prepared_into};
use distgnn_kernels::{cost, AggregationConfig, PreparedAggregation};
use distgnn_nn::linear::{Linear, LinearGrads};
use distgnn_nn::{masked_cross_entropy_into, Adam, AdamConfig};
use distgnn_partition::metrics::{edge_balance, replication_factor};
use distgnn_partition::{libra_partition, PartitionedGraph};
use distgnn_tensor::{init, matmul_a_bt_into, matmul_at_b_into, matmul_into, Matrix};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed calls per measurement.
pub const REPS: usize = 9;
/// Timed calls for the slow, allocation-heavy entry points (graph
/// preparation, partitioning, checkpoint files).
const SLOW_REPS: usize = 5;
/// Collective calls in one micro-loop.
const COLLECTIVE_CALLS: usize = 200;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Median wall-clock in ms of `reps` calls of `f` (one untimed call
/// first); each timed call is one span named `name`.
fn median_ms(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(&mut Tracer),
) -> f64 {
    f(tracer);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            tracer.enter(name);
            let t = Instant::now();
            f(tracer);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.exit();
            ms
        })
        .collect();
    stats::median(&samples)
}

/// `SingleSocketAggregator` with a span around every kernel call, so
/// the model passes show their aggregation as child spans.
struct SpanAggregator<'a> {
    inner: &'a mut SingleSocketAggregator,
    tracer: &'a mut Tracer,
}

impl Aggregator for SpanAggregator<'_> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn forward(&mut self, layer: usize, h: &Matrix) -> Matrix {
        self.tracer.enter("kernels.ap_fwd");
        let out = self.inner.forward(layer, h);
        self.tracer.exit();
        out
    }

    fn backward(&mut self, layer: usize, grad_out: &Matrix) -> Matrix {
        self.tracer.enter("kernels.ap_bwd");
        let out = self.inner.backward(layer, grad_out);
        self.tracer.exit();
        out
    }

    fn forward_into(&mut self, layer: usize, h: &Matrix, out: &mut Matrix) {
        self.tracer.enter("kernels.ap_fwd");
        self.inner.forward_into(layer, h, out);
        self.tracer.exit();
    }

    fn backward_into(&mut self, layer: usize, grad_out: &Matrix, out: &mut Matrix) {
        self.tracer.enter("kernels.ap_bwd");
        self.inner.backward_into(layer, grad_out, out);
        self.tracer.exit();
    }
}

pub struct ReplayInput<'a> {
    pub ds: &'a Dataset,
    pub model: &'a SageConfig,
    /// Trained parameters (rank 0's).
    pub params: &'a [f32],
    pub kernel: AggregationConfig,
    pub calibration: &'a Calibration,
    /// Floats per AlltoAllv message: the run's mean message size, or the
    /// parameter count when the run exchanged nothing.
    pub message_floats: usize,
    /// Rank 0's state from the run's newest checkpoint, when it wrote
    /// one; otherwise a state is made from the parameters.
    pub checkpoint_state: Option<TrainState>,
    /// Empty directory for the checkpoint file round trip.
    pub scratch: &'a Path,
}

/// tensor: the dense products behind every `Linear`, at the model's
/// layer shapes, summed over layers.
fn replay_tensor(input: &ReplayInput, tracer: &mut Tracer, out: &mut Metrics) {
    let n = input.ds.num_vertices();
    let mut rng = init::rng(0x7E45);
    struct Shape {
        a: Matrix,
        w: Matrix,
        c: Matrix,
        g: Matrix,
        grad_in: Matrix,
        grad_w: Matrix,
        scratch: Vec<f32>,
    }
    let mut shapes: Vec<Shape> = input
        .model
        .layer_dims()
        .into_iter()
        .map(|(i, o)| Shape {
            a: init::uniform(n, i, -1.0, 1.0, &mut rng),
            w: init::xavier_uniform(i, o, &mut rng),
            c: Matrix::zeros(n, o),
            g: init::uniform(n, o, -1.0, 1.0, &mut rng),
            grad_in: Matrix::zeros(n, i),
            grad_w: Matrix::zeros(i, o),
            scratch: Vec::new(),
        })
        .collect();
    let fwd = median_ms(tracer, "tensor.matmul_fwd", REPS, |_| {
        for s in shapes.iter_mut() {
            matmul_into(&s.a, &s.w, &mut s.c);
        }
    });
    let bwd = median_ms(tracer, "tensor.matmul_bwd", REPS, |_| {
        for s in shapes.iter_mut() {
            matmul_a_bt_into(&s.g, &s.w, &mut s.grad_in);
            matmul_at_b_into(&s.a, &s.g, &mut s.grad_w, &mut s.scratch);
        }
    });
    let flops: u64 = input
        .model
        .layer_dims()
        .iter()
        .map(|&(i, o)| cost::dense_flops(n, i, o))
        .sum();
    out.insert("tensor.matmul_fwd_ms", fwd);
    out.insert("tensor.matmul_bwd_ms", bwd);
    out.insert("tensor.matmul_gflops", flops as f64 / (fwd / 1e3) / 1e9);
}

/// nn: linear layers (matmul + bias / column sums), loss, optimizer.
fn replay_nn(input: &ReplayInput, tracer: &mut Tracer, out: &mut Metrics) {
    let ds = input.ds;
    let n = ds.num_vertices();
    let mut rng = init::rng(0x22);
    struct Layer {
        linear: Linear,
        x: Matrix,
        z: Matrix,
        g: Matrix,
        grads: LinearGrads,
        scratch: Vec<f32>,
    }
    let mut layers: Vec<Layer> = input
        .model
        .layer_dims()
        .into_iter()
        .map(|(i, o)| {
            let linear = Linear::new(i, o, &mut rng);
            Layer {
                grads: LinearGrads::zeros_for(&linear, n),
                linear,
                x: init::uniform(n, i, -1.0, 1.0, &mut rng),
                z: Matrix::zeros(n, o),
                g: init::uniform(n, o, -1.0, 1.0, &mut rng),
                scratch: Vec::new(),
            }
        })
        .collect();
    let fwd = median_ms(tracer, "nn.linear_fwd", REPS, |_| {
        for l in layers.iter_mut() {
            l.linear.forward_into(&l.x, &mut l.z);
        }
    });
    let bwd = median_ms(tracer, "nn.linear_bwd", REPS, |_| {
        for l in layers.iter_mut() {
            l.linear
                .backward_into(&l.x, &l.g, &mut l.grads, &mut l.scratch);
        }
    });
    let logits = init::uniform(n, ds.num_classes, -2.0, 2.0, &mut rng);
    let mut probs = Matrix::zeros(n, ds.num_classes);
    let mut grad = Matrix::zeros(n, ds.num_classes);
    let loss = median_ms(tracer, "nn.loss", REPS, |_| {
        black_box(masked_cross_entropy_into(
            &logits,
            &ds.labels,
            &ds.train_mask,
            &mut probs,
            &mut grad,
        ));
    });
    let mut model = GraphSage::new(input.model);
    model.read_params(input.params);
    // The trainers' optimizer settings (lr 0.01, weight decay 5e-4).
    let mut adam = Adam::new(AdamConfig {
        weight_decay: 5e-4,
        ..AdamConfig::with_lr(0.01)
    });
    let flat = vec![1.0e-3f32; model.num_params()];
    let adam_ms = median_ms(tracer, "nn.adam", REPS, |_| {
        apply_flat_grads(&mut model, &mut adam, &flat)
    });
    out.insert("nn.linear_fwd_ms", fwd);
    out.insert("nn.linear_bwd_ms", bwd);
    out.insert("nn.loss_ms", loss);
    out.insert("nn.adam_ms", adam_ms);
}

/// kernels: graph preparation and the GCN aggregation, forward and
/// backward, once per model layer width.
fn replay_kernels(input: &ReplayInput, tracer: &mut Tracer, out: &mut Metrics) {
    let ds = input.ds;
    let (n, edges) = (ds.num_vertices(), ds.graph.num_edges());
    let prepare = median_ms(tracer, "kernels.prepare", SLOW_REPS, |_| {
        black_box(PreparedAggregation::new(&ds.graph, input.kernel));
    });
    let prep = PreparedAggregation::new(&ds.graph, input.kernel);
    let prep_t = PreparedAggregation::new(&ds.graph.transpose(), input.kernel);
    let degrees = ds.graph.degrees_f32();
    let mut rng = init::rng(0xA9);
    struct Width {
        h: Matrix,
        out: Matrix,
        scaled: Matrix,
    }
    let mut widths: Vec<Width> = input
        .model
        .layer_dims()
        .into_iter()
        .map(|(d, _)| Width {
            h: init::uniform(n, d, -1.0, 1.0, &mut rng),
            out: Matrix::zeros(n, d),
            scaled: Matrix::zeros(n, d),
        })
        .collect();
    let fwd = median_ms(tracer, "kernels.ap_fwd", REPS, |_| {
        for w in widths.iter_mut() {
            gcn_aggregate_prepared_into(&prep, &w.h, &degrees, &mut w.out);
        }
    });
    let bwd = median_ms(tracer, "kernels.ap_bwd", REPS, |_| {
        for w in widths.iter_mut() {
            gcn_aggregate_backward_prepared_into(
                &prep_t,
                &w.h,
                &degrees,
                &mut w.scaled,
                &mut w.out,
            );
        }
    });
    let dims = input.model.layer_dims();
    let flops: u64 = dims
        .iter()
        .map(|&(d, _)| cost::aggregate_flops(edges, d))
        .sum();
    // Computed from the cost model (one source-row read and one
    // destination read-modify-write per edge), not measured traffic.
    let bytes: u64 = dims
        .iter()
        .map(|&(d, _)| cost::aggregate_bytes(edges, d))
        .sum();
    let secs = fwd / 1e3;
    let gflops = flops as f64 / secs / 1e9;
    // Roofline bound at this arithmetic intensity on the calibrated host.
    let intensity = flops as f64 / bytes as f64;
    let bound = input
        .calibration
        .fma_gflops
        .min(intensity * input.calibration.triad_gbps);
    out.insert("kernels.prepare_ms", prepare);
    out.insert("kernels.ap_fwd_ms", fwd);
    out.insert("kernels.ap_bwd_ms", bwd);
    out.insert("kernels.ap_gflops", gflops);
    out.insert("kernels.ap_gbps", bytes as f64 / secs / 1e9);
    out.insert("kernels.ap_roofline_frac", gflops / bound);
}

/// core: the model's forward and backward passes over the
/// single-socket aggregator and a reused workspace, with the trained
/// parameters.
fn replay_core(input: &ReplayInput, tracer: &mut Tracer, out: &mut Metrics) {
    let ds = input.ds;
    let mut model = GraphSage::new(input.model);
    model.read_params(input.params);
    let mut agg = SingleSocketAggregator::new(&ds.graph, input.kernel);
    let mut ws = SageWorkspace::new(&model, ds.num_vertices());
    let mut probs = Matrix::zeros(ds.num_vertices(), ds.num_classes);
    let forward = median_ms(tracer, "core.forward", REPS, |tracer| {
        model.forward_into(
            &mut SpanAggregator {
                inner: &mut agg,
                tracer,
            },
            &ds.features,
            &mut ws,
        );
    });
    // The loss writes the logits gradient the backward pass starts from.
    let last = ws.layers.last_mut().expect("model has layers");
    masked_cross_entropy_into(
        &last.z,
        &ds.labels,
        &ds.train_mask,
        &mut probs,
        &mut last.grad_z,
    );
    let backward = median_ms(tracer, "core.backward", REPS, |tracer| {
        model.backward_into(
            &mut SpanAggregator {
                inner: &mut agg,
                tracer,
            },
            &mut ws,
        );
    });
    out.insert("core.forward_ms", forward);
    out.insert("core.backward_ms", backward);
}

/// comm: the two collectives the distributed trainer is built on, in a
/// `RANKS`-rank micro-loop: AllReduce at the parameter count, AlltoAllv
/// at `message_floats` per peer. The slowest rank's mean call time.
fn replay_comm(input: &ReplayInput, tracer: &mut Tracer, out: &mut Metrics) {
    let params = input.params.len();
    let message = input.message_floats;
    let per_rank = tracer.span("comm.collectives", |_| {
        Cluster::run(RANKS, |ctx| {
            let mut buf = vec![1.0f32; params];
            let outgoing = |rank: usize| -> Vec<Vec<f32>> {
                (0..RANKS)
                    .map(|d| {
                        if d == rank {
                            Vec::new()
                        } else {
                            vec![1.0f32; message]
                        }
                    })
                    .collect()
            };
            for _ in 0..10 {
                ctx.all_reduce_sum(&mut buf);
                ctx.all_to_all_v(outgoing(ctx.rank()))
                    .expect("fault-free alltoallv");
                buf.fill(1.0);
            }
            let t = Instant::now();
            for _ in 0..COLLECTIVE_CALLS {
                ctx.all_reduce_sum(&mut buf);
                buf.fill(1.0);
            }
            let allreduce_us = t.elapsed().as_secs_f64() * 1e6 / COLLECTIVE_CALLS as f64;
            let t = Instant::now();
            for _ in 0..COLLECTIVE_CALLS {
                black_box(
                    ctx.all_to_all_v(outgoing(ctx.rank()))
                        .expect("fault-free alltoallv"),
                );
            }
            (
                allreduce_us,
                t.elapsed().as_secs_f64() * 1e6 / COLLECTIVE_CALLS as f64,
            )
        })
    });
    out.insert(
        "comm.allreduce_us",
        per_rank.iter().map(|r| r.0).fold(0.0, f64::max),
    );
    out.insert(
        "comm.alltoallv_us",
        per_rank.iter().map(|r| r.1).fold(0.0, f64::max),
    );
}

/// partition: the Libra vertex cut and the per-rank graph build.
fn replay_partition(input: &ReplayInput, tracer: &mut Tracer, out: &mut Metrics) {
    let edges = input.ds.graph.to_edge_list();
    let libra = median_ms(tracer, "partition.libra", SLOW_REPS, |_| {
        black_box(libra_partition(&edges, RANKS));
    });
    let cut = libra_partition(&edges, RANKS);
    let build = median_ms(tracer, "partition.build", SLOW_REPS, |_| {
        black_box(PartitionedGraph::build(&edges, &cut, 0xD157));
    });
    out.insert("partition.libra_ms", libra);
    out.insert("partition.build_ms", build);
    out.insert("partition.replication_factor", replication_factor(&cut));
    out.insert("partition.edge_balance", edge_balance(&cut));
}

/// A rank state with real Adam moments for workloads that wrote no
/// checkpoint of their own.
fn state_from_params(input: &ReplayInput) -> TrainState {
    let mut model = GraphSage::new(input.model);
    model.read_params(input.params);
    let mut adam = Adam::new(AdamConfig::with_lr(0.01));
    let zero_grads = vec![0.0f32; model.num_params()];
    apply_flat_grads(&mut model, &mut adam, &zero_grads);
    TrainState {
        epoch: 1,
        rank: 0,
        ranks: 1,
        params: model.write_params(),
        adam: adam.write_state(),
        ..TrainState::default()
    }
}

/// io: one rank's checkpoint, encoded, written and read back.
fn replay_io(input: &ReplayInput, tracer: &mut Tracer, out: &mut Metrics) {
    let state = input
        .checkpoint_state
        .clone()
        .unwrap_or_else(|| state_from_params(input));
    let path = input.scratch.join("replay-rank-0.state");
    let encode = median_ms(tracer, "io.ckpt_encode", REPS, |_| {
        black_box(encode_train_state(&state));
    });
    let save = median_ms(tracer, "io.ckpt_save", SLOW_REPS, |_| {
        save_train_state(&path, &state).expect("write checkpoint file");
    });
    let load = median_ms(tracer, "io.ckpt_load", SLOW_REPS, |_| {
        black_box(load_train_state(&path).expect("read checkpoint file back"));
    });
    out.insert("io.ckpt_bytes", encode_train_state(&state).len() as f64);
    out.insert("io.ckpt_encode_ms", encode);
    out.insert("io.ckpt_save_ms", save);
    out.insert("io.ckpt_load_ms", load);
}

pub fn replay(input: &ReplayInput, tracer: &mut Tracer) -> Metrics {
    let mut out = Metrics::new();
    tracer.span("replay", |tracer| {
        replay_tensor(input, tracer, &mut out);
        replay_nn(input, tracer, &mut out);
        replay_kernels(input, tracer, &mut out);
        replay_core(input, tracer, &mut out);
        replay_comm(input, tracer, &mut out);
        replay_partition(input, tracer, &mut out);
        replay_io(input, tracer, &mut out);
    });
    out
}
