//! Naive, sequential reference implementation of the aggregation
//! primitive — the oracle [`crate::PreparedAggregation`] is tested
//! against, bit for bit.

use crate::{BinaryOp, ReduceOp};
use distgnn_graph::Csr;
use distgnn_tensor::Matrix;

/// Sequential Alg. 1, one edge at a time, no parallelism, no blocking.
///
/// # Panics
/// Panics if `op.uses_rhs()` but `edge_features` is `None`, or on any
/// dimension mismatch.
pub fn aggregate_reference(
    graph: &Csr,
    features: &Matrix,
    edge_features: Option<&Matrix>,
    op: BinaryOp,
    reduce: ReduceOp,
) -> Matrix {
    validate_inputs(graph.num_vertices(), graph.num_edges(), features, edge_features, op);
    let d = feature_dim(features, edge_features, op);
    let n = graph.num_vertices();
    let mut out = Matrix::full(n, d, reduce.identity());
    for v in 0..n as u32 {
        let nbrs = graph.neighbors(v);
        let eids = graph.edge_ids(v);
        for (k, &u) in nbrs.iter().enumerate() {
            for j in 0..d {
                let lhs = if op.uses_lhs() { features[(u as usize, j)] } else { 0.0 };
                let rhs = match edge_features {
                    Some(fe) if op.uses_rhs() => fe[(eids[k] as usize, j)],
                    _ => 0.0,
                };
                let combined = op.apply(lhs, rhs);
                let cell = &mut out[(v as usize, j)];
                *cell = reduce.apply(*cell, combined);
            }
        }
    }
    out
}

/// Operand checks shared by the reference and the prepared kernel, for
/// a graph of `num_vertices` vertices and `num_edges` edges.
pub fn validate_inputs(
    num_vertices: usize,
    num_edges: usize,
    features: &Matrix,
    edge_features: Option<&Matrix>,
    op: BinaryOp,
) {
    assert_eq!(
        features.rows(),
        num_vertices,
        "feature rows must match vertex count"
    );
    if op.uses_rhs() {
        let fe = edge_features.expect("operator reads edge features but none were provided");
        assert_eq!(
            fe.rows(),
            num_edges,
            "edge-feature rows must match edge count"
        );
        if op != BinaryOp::CopyRhs {
            assert_eq!(
                fe.cols(),
                features.cols(),
                "vertex and edge feature dims must match for binary ops"
            );
        }
    }
}

/// Output feature dimension implied by the operands.
pub fn feature_dim(features: &Matrix, edge_features: Option<&Matrix>, op: BinaryOp) -> usize {
    if op == BinaryOp::CopyRhs {
        edge_features.map(|fe| fe.cols()).unwrap_or(0)
    } else {
        features.cols()
    }
}

/// Asserts `got` and `want` hold the same bits: `0.0` and `-0.0`
/// differ here, where `==` on `f32` would call them equal.
#[cfg(test)]
pub(crate) fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {idx}: {g} vs {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgnn_graph::EdgeList;

    fn path3() -> Csr {
        // 0 -> 1 -> 2
        Csr::from_edges(&EdgeList::from_pairs(3, &[(0, 1), (1, 2)]))
    }

    #[test]
    fn copy_sum_pulls_source_rows() {
        let g = path3();
        let f = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = aggregate_reference(&g, &f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
        assert_eq!(out.row(0), &[0.0, 0.0]); // no in-edges
        assert_eq!(out.row(1), &[1.0, 2.0]); // from vertex 0
        assert_eq!(out.row(2), &[3.0, 4.0]); // from vertex 1
    }

    #[test]
    fn sum_accumulates_multiple_neighbours() {
        let g = Csr::from_edges(&EdgeList::from_pairs(3, &[(0, 2), (1, 2)]));
        let f = Matrix::from_vec(3, 1, vec![10.0, 20.0, 0.0]);
        let out = aggregate_reference(&g, &f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
        assert_eq!(out[(2, 0)], 30.0);
    }

    #[test]
    fn max_identity_for_isolated_vertices() {
        let g = path3();
        let f = Matrix::full(3, 1, -5.0);
        let out = aggregate_reference(&g, &f, None, BinaryOp::CopyLhs, ReduceOp::Max);
        assert_eq!(out[(0, 0)], f32::NEG_INFINITY);
        assert_eq!(out[(1, 0)], -5.0);
    }

    #[test]
    fn binary_op_combines_vertex_and_edge_features() {
        let g = path3();
        let f = Matrix::from_vec(3, 1, vec![2.0, 3.0, 0.0]);
        let fe = Matrix::from_vec(2, 1, vec![10.0, 100.0]); // edge ids 0: 0->1, 1: 1->2
        let out = aggregate_reference(&g, &f, Some(&fe), BinaryOp::Mul, ReduceOp::Sum);
        assert_eq!(out[(1, 0)], 20.0); // 2 * 10
        assert_eq!(out[(2, 0)], 300.0); // 3 * 100
    }

    #[test]
    fn copy_rhs_reads_edge_features_only() {
        let g = path3();
        let f = Matrix::zeros(3, 1);
        let fe = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = aggregate_reference(&g, &f, Some(&fe), BinaryOp::CopyRhs, ReduceOp::Sum);
        assert_eq!(out.cols(), 3);
        assert_eq!(out.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "edge features")]
    fn missing_edge_features_panics() {
        let g = path3();
        let f = Matrix::zeros(3, 1);
        let _ = aggregate_reference(&g, &f, None, BinaryOp::Add, ReduceOp::Sum);
    }
}
