//! GCN aggregation epilogue.
//!
//! §6.1: "we employed the GCN aggregation operator where (i) ⊕ is
//! element-wise sum and (ii) as a post-processing step, it adds the
//! aggregated and original features of each vertex and normalizes that
//! sum with respect to the in-degree of the vertex."
//!
//! With the self-contribution included, the normalizer is
//! `in_degree + 1`, which also keeps isolated vertices well-defined.

use crate::{BinaryOp, ReduceOp};
use distgnn_tensor::Matrix;
use rayon::prelude::*;

/// Applies the epilogue in place: `agg[v] = (agg[v] + f[v]) / (deg[v] + 1)`.
pub fn gcn_normalize(agg: &mut Matrix, features: &Matrix, degrees: &[f32]) {
    assert_eq!(agg.shape(), features.shape(), "shape mismatch");
    assert_eq!(degrees.len(), agg.rows(), "degree count mismatch");
    let d = agg.cols();
    agg.as_mut_slice()
        .par_chunks_mut(d)
        .zip(features.as_slice().par_chunks(d))
        .zip(degrees.par_iter())
        .for_each(|((out_row, f_row), &deg)| {
            let inv = 1.0 / (deg + 1.0);
            for (o, &f) in out_row.iter_mut().zip(f_row) {
                *o = (*o + f) * inv;
            }
        });
}

/// Full GCN aggregation step into a caller-owned output buffer
/// (contents overwritten): sum-aggregate in-neighbours with the
/// prepared kernel, then apply the epilogue. Allocation-free.
pub fn gcn_aggregate_prepared_into(
    prep: &crate::PreparedAggregation,
    features: &Matrix,
    degrees: &[f32],
    out: &mut Matrix,
) {
    prep.aggregate_into(features, None, BinaryOp::CopyLhs, ReduceOp::Sum, out);
    gcn_normalize(out, features, degrees);
}

/// Scales each row by `1 / (deg + 1)` — the prologue of the backward
/// pass.
fn scale_rows_by_inv_degree(m: &mut Matrix, degrees: &[f32]) {
    let d = m.cols();
    m.as_mut_slice()
        .par_chunks_mut(d)
        .zip(degrees.par_iter())
        .for_each(|(row, &deg)| {
            let inv = 1.0 / (deg + 1.0);
            row.iter_mut().for_each(|x| *x *= inv);
        });
}

/// Backward of [`gcn_aggregate_prepared_into`] with respect to the
/// input features, against a prepared *transposed* graph.
///
/// Forward is `out = D^{-1} (A + I) f` with `D = diag(deg + 1)`, so the
/// gradient is `df = (A + I)^T D^{-1} g = A^T (g / (deg+1)) + g / (deg+1)`;
/// the `A^T` product is an aggregation over the transposed graph.
/// `scaled` is scratch for the degree-normalized gradient and `grad_in`
/// receives the result; both must match `grad_out`'s shape.
/// Allocation-free.
pub fn gcn_aggregate_backward_prepared_into(
    prep_t: &crate::PreparedAggregation,
    grad_out: &Matrix,
    degrees: &[f32],
    scaled: &mut Matrix,
    grad_in: &mut Matrix,
) {
    assert_eq!(degrees.len(), grad_out.rows());
    scaled.copy_from(grad_out);
    scale_rows_by_inv_degree(scaled, degrees);
    prep_t.aggregate_into(scaled, None, BinaryOp::CopyLhs, ReduceOp::Sum, grad_in);
    distgnn_tensor::ops::add_assign(grad_in, scaled);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::assert_bits_eq;
    use crate::{AggregationConfig, PreparedAggregation};
    use distgnn_graph::{Csr, EdgeList};
    use distgnn_tensor::init::random_features;

    fn tri() -> Csr {
        // 0 -> 2, 1 -> 2, 2 -> 0
        Csr::from_edges(&EdgeList::from_pairs(3, &[(0, 2), (1, 2), (2, 0)]))
    }

    /// GCN forward of `f` over `g` with the kernel `cfg`.
    fn gcn(g: &Csr, f: &Matrix, cfg: AggregationConfig) -> Matrix {
        let mut out = Matrix::zeros(f.rows(), f.cols());
        gcn_aggregate_prepared_into(&PreparedAggregation::new(g, cfg), f, &g.degrees_f32(), &mut out);
        out
    }

    #[test]
    fn epilogue_matches_hand_computation() {
        let g = tri();
        let f = Matrix::from_vec(3, 1, vec![1.0, 2.0, 4.0]);
        let out = gcn(&g, &f, AggregationConfig::baseline());
        // v0: agg 4 (from v2), deg 1 -> (4 + 1) / 2 = 2.5
        assert!((out[(0, 0)] - 2.5).abs() < 1e-6);
        // v1: agg 0, deg 0 -> (0 + 2) / 1 = 2
        assert!((out[(1, 0)] - 2.0).abs() < 1e-6);
        // v2: agg 1 + 2, deg 2 -> (3 + 4) / 3
        assert!((out[(2, 0)] - 7.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn optimized_kernel_gives_same_epilogue_result() {
        let g = Csr::from_edges(&distgnn_graph::generators::rmat(64, 300, (0.5, 0.2, 0.2), 3));
        let f = random_features(64, 18, 4);
        let base = gcn(&g, &f, AggregationConfig::baseline());
        let opt = gcn(&g, &f, AggregationConfig::optimized(4));
        assert_bits_eq(&opt, &base, "optimized(4) vs baseline");
    }

    #[test]
    fn backward_matches_finite_difference() {
        let g = Csr::from_edges(&distgnn_graph::generators::rmat(12, 40, (0.5, 0.2, 0.2), 5));
        let prep_t = PreparedAggregation::new(&g.transpose(), AggregationConfig::baseline());
        let f = random_features(12, 3, 6);
        let cfg = AggregationConfig::baseline();
        let degrees = g.degrees_f32();
        // Loss = sum(out); grad_out = ones. Finite differences on f.
        let grad_out = Matrix::full(12, 3, 1.0);
        let mut scaled = Matrix::zeros(12, 3);
        let mut grad = Matrix::zeros(12, 3);
        gcn_aggregate_backward_prepared_into(&prep_t, &grad_out, &degrees, &mut scaled, &mut grad);
        let eps = 1e-2f32;
        for probe in [(0usize, 0usize), (5, 1), (11, 2)] {
            let mut fp = f.clone();
            fp[(probe.0, probe.1)] += eps;
            let mut fm = f.clone();
            fm[(probe.0, probe.1)] -= eps;
            let lp: f32 = gcn(&g, &fp, cfg).as_slice().iter().sum();
            let lm: f32 = gcn(&g, &fm, cfg).as_slice().iter().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grad[probe] - fd).abs() < 1e-2,
                "grad {} vs fd {} at {probe:?}",
                grad[probe],
                fd
            );
        }
    }
}
