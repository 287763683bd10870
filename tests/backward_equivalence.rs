//! Backward-pass equivalence: the distributed `cd-0` gradient — each
//! rank's clone-weighted loss gradient, backward through the DRPA
//! adjoint sync, summed over the cluster — matches the single-socket
//! gradient for the same model, with and without an injected delay
//! fault (delays on collectives add latency, never change payloads).
//! The single-socket analytic gradient is itself anchored against
//! finite differences via `nn::gradcheck`.

use distgnn_suite::comm::{Cluster, CommSnapshot, FaultPlan};
use distgnn_suite::core::drpa::RankAggregator;
use distgnn_suite::core::{
    DistMode, GraphSage, SageConfig, SageWorkspace, SingleSocketAggregator,
};
use distgnn_suite::graph::{Dataset, ScaledConfig};
use distgnn_suite::kernels::AggregationConfig;
use distgnn_suite::nn::gradcheck::max_grad_error;
use distgnn_suite::nn::masked_cross_entropy_into;
use distgnn_suite::partition::{libra_partition, PartitionedGraph};
use distgnn_suite::tensor::Matrix;

struct Setup {
    dataset: Dataset,
    pg: PartitionedGraph,
    model: SageConfig,
}

fn setup(k: usize) -> Setup {
    let dataset = Dataset::generate(&ScaledConfig::am_s().scaled_by(0.3));
    let edges = dataset.graph.to_edge_list();
    let partitioning = libra_partition(&edges, k);
    let pg = PartitionedGraph::build(&edges, &partitioning, 99);
    let model = SageConfig::standard_shape(dataset.feat_dim(), dataset.num_classes, 32, 0xBEEF);
    Setup { dataset, pg, model }
}

/// Single-socket flat gradient of the masked training loss at the
/// model's initial parameters.
fn single_socket_grads(ds: &Dataset, model_cfg: &SageConfig) -> Vec<f32> {
    let model = GraphSage::new(model_cfg);
    let mut agg = SingleSocketAggregator::new(&ds.graph, AggregationConfig::optimized(1));
    let n = ds.num_vertices();
    let mut ws = SageWorkspace::new(&model, n);
    model.forward_into(&mut agg, &ds.features, &mut ws);
    let mut probs = Matrix::zeros(n, model_cfg.num_classes);
    let last = ws.layers.last_mut().unwrap();
    masked_cross_entropy_into(&last.z, &ds.labels, &ds.train_mask, &mut probs, &mut last.grad_z);
    model.backward_into(&mut agg, &mut ws);
    let mut flat = Vec::new();
    ws.flatten_grads_into(&mut flat);
    flat
}

/// One distributed `cd-0` forward/backward at the initial parameters;
/// returns each rank's allreduced flat gradient plus the comm
/// snapshots. Mirrors the trainer's loss: every clone of a training
/// vertex contributes, weighted by `1 / clone_count` and normalized by
/// the global training count, so the cross-rank sum reproduces the
/// single-socket gradient.
fn dist_grads(s: &Setup, faults: &FaultPlan) -> (Vec<Vec<f32>>, Vec<CommSnapshot>) {
    let ds = &s.dataset;
    let pg = &s.pg;
    let k = pg.num_parts();
    let mut clone_counts = vec![0usize; ds.num_vertices()];
    for part in &pg.parts {
        for &g in &part.global_ids {
            clone_counts[g as usize] += 1;
        }
    }
    let in_train: std::collections::HashSet<usize> = ds.train_mask.iter().copied().collect();
    let global_train = ds.train_mask.len() as f32;

    Cluster::run_with(k, faults, None, 0, |ctx| {
        let part = &pg.parts[ctx.rank()];
        let idx: Vec<usize> = part.global_ids.iter().map(|&g| g as usize).collect();
        let features = ds.features.gather_rows(&idx);
        let model = GraphSage::new(&s.model);
        let mut agg = RankAggregator::new(ctx, pg, DistMode::Cd0, AggregationConfig::optimized(1));
        let mut ws = SageWorkspace::new(&model, features.rows());
        agg.set_epoch(0);
        model.forward_into(&mut agg, &features, &mut ws);

        // Clone-weighted logits gradient, globally normalized (the
        // same loss the distributed trainer optimizes).
        let last = ws.layers.last_mut().unwrap();
        let mut probs = Matrix::zeros(features.rows(), s.model.num_classes);
        distgnn_suite::tensor::softmax::softmax_rows_into(&last.z, &mut probs);
        last.grad_z.fill_zero();
        for (local, &g) in idx.iter().enumerate() {
            if !in_train.contains(&g) {
                continue;
            }
            let scale = 1.0 / (clone_counts[g] as f32 * global_train);
            let label = ds.labels[g];
            let p = probs.row(local);
            let row = last.grad_z.row_mut(local);
            for (j, (&pj, out)) in p.iter().zip(row.iter_mut()).enumerate() {
                *out = (pj - f32::from(j == label)) * scale;
            }
        }

        model.backward_into(&mut agg, &mut ws);
        assert!(agg.take_error().is_none(), "no abort expected in these plans");
        let mut flat = Vec::new();
        ws.flatten_grads_into(&mut flat);
        ctx.all_reduce_sum(&mut flat);
        flat
    })
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "gradient lengths differ");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// cd-0's synchronized partial aggregates make the distributed backward
/// pass exact: the allreduced gradient matches single-socket within
/// float-summation noise, and every rank holds the identical copy.
#[test]
fn cd0_gradients_match_single_socket() {
    let s = setup(4);
    let reference = single_socket_grads(&s.dataset, &s.model);
    let (grads, _) = dist_grads(&s, &FaultPlan::none());
    for g in &grads[1..] {
        assert_eq!(grads[0], *g, "allreduce must leave all ranks bit-identical");
    }
    let diff = max_abs_diff(&reference, &grads[0]);
    assert!(diff < 1e-4, "distributed gradient diverges: max abs diff {diff}");
}

/// Delay faults on collectives are pure latency: the delayed run's
/// gradients are bit-identical to the fault-free run's (and therefore
/// still match single-socket), even though delays demonstrably fired.
#[test]
fn cd0_gradients_survive_delay_fault_bit_for_bit() {
    let s = setup(4);
    let (clean, _) = dist_grads(&s, &FaultPlan::none());
    let plan = FaultPlan::none().with_seed(21).with_delay(1.0, 3);
    let (delayed, snaps) = dist_grads(&s, &plan);
    assert!(
        snaps.iter().any(|c| c.messages_delayed > 0),
        "the delay plan never fired — the test is vacuous"
    );
    assert_eq!(clean, delayed, "a latency-only fault must not change any gradient");
    let reference = single_socket_grads(&s.dataset, &s.model);
    let diff = max_abs_diff(&reference, &delayed[0]);
    assert!(diff < 1e-4, "delayed-run gradient diverges: max abs diff {diff}");
}

/// Anchors the equivalence chain: the single-socket analytic gradient
/// (the reference the distributed tests compare against) agrees with a
/// finite-difference probe of the same loss on a tiny model.
#[test]
fn single_socket_analytic_gradient_passes_finite_difference() {
    let cfg = ScaledConfig {
        num_vertices: 40,
        num_edges: 150,
        feat_dim: 4,
        num_classes: 3,
        ..ScaledConfig::am_s()
    };
    let ds = Dataset::generate(&cfg);
    let model_cfg = SageConfig { in_dim: 4, hidden: vec![5], num_classes: 3, seed: 0xFD };
    let analytic_flat = single_socket_grads(&ds, &model_cfg);
    let p = analytic_flat.len();
    let analytic = Matrix::from_vec(1, p, analytic_flat);

    let mut model = GraphSage::new(&model_cfg);
    let theta = Matrix::from_vec(1, p, model.write_params());
    let mut agg = SingleSocketAggregator::new(&ds.graph, AggregationConfig::optimized(1));
    let n = ds.num_vertices();
    let mut ws = SageWorkspace::new(&model, n);
    let mut probs = Matrix::zeros(n, 3);
    let err = max_grad_error(&analytic, &theta, 1e-2, |m: &Matrix| {
        model.read_params(m.as_slice());
        model.forward_into(&mut agg, &ds.features, &mut ws);
        let last = ws.layers.last_mut().unwrap();
        masked_cross_entropy_into(&last.z, &ds.labels, &ds.train_mask, &mut probs, &mut last.grad_z)
    });
    assert!(err < 5e-3, "analytic vs finite-difference gradient error {err}");
}
