//! SDDMM — sampled dense-dense matrix multiplication.
//!
//! §2.2: "For computations on edges, the message-passing functionality
//! is formulated as sampled dense-dense matrix multiplication
//! (SDDMM)." Where the AP (SpMM) reduces messages *into vertices*,
//! SDDMM produces one value (or vector) *per edge* from its endpoint
//! features — the primitive behind edge scores, attention logits and
//! link prediction. This module completes the DGL kernel pair.
//!
//! For every edge `e: u -> v`, `out[e] = op(f_src[u], f_dst[v])` where
//! `op` is either a vector op (element-wise, `out` is `|E| x d`) or the
//! dot product (`out` is `|E| x 1`).

use crate::BinaryOp;
use distgnn_graph::Csr;
use distgnn_tensor::Matrix;
use rayon::prelude::*;

/// Edge-wise operator for SDDMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SddmmOp {
    /// `out[e] = <f_src[u], f_dst[v]>` — one scalar per edge
    /// (attention-logit shape).
    Dot,
    /// Element-wise combine of the endpoint vectors.
    Elementwise(BinaryOp),
}

impl SddmmOp {
    /// Output width for feature dimension `d`.
    pub fn out_dim(&self, d: usize) -> usize {
        match self {
            SddmmOp::Dot => 1,
            SddmmOp::Elementwise(_) => d,
        }
    }
}

/// Computes SDDMM over `graph` (destination-major CSR; edge ids index
/// the output rows). `src_features` and `dst_features` may alias.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn sddmm(
    graph: &Csr,
    src_features: &Matrix,
    dst_features: &Matrix,
    op: SddmmOp,
) -> Matrix {
    let n = graph.num_vertices();
    assert_eq!(src_features.rows(), n, "src feature rows");
    assert_eq!(dst_features.rows(), n, "dst feature rows");
    assert_eq!(src_features.cols(), dst_features.cols(), "feature dims differ");
    let d = src_features.cols();
    let out_d = op.out_dim(d);
    let mut out = Matrix::zeros(graph.num_edges(), out_d);

    // Build an edge-id -> (u, v) table once, then fill rows in
    // parallel: each output row is owned by exactly one edge.
    let mut endpoints = vec![(0u32, 0u32); graph.num_edges()];
    for v in 0..n as u32 {
        let nbrs = graph.neighbors(v);
        let eids = graph.edge_ids(v);
        for (&u, &e) in nbrs.iter().zip(eids) {
            endpoints[e as usize] = (u, v);
        }
    }
    out.as_mut_slice()
        .par_chunks_mut(out_d.max(1))
        .zip(endpoints.par_iter())
        .for_each(|(row, &(u, v))| {
            let fu = src_features.row(u as usize);
            let fv = dst_features.row(v as usize);
            match op {
                SddmmOp::Dot => {
                    let mut acc = 0.0f32;
                    for (a, b) in fu.iter().zip(fv) {
                        acc += a * b;
                    }
                    row[0] = acc;
                }
                SddmmOp::Elementwise(bop) => {
                    for ((o, &a), &b) in row.iter_mut().zip(fu).zip(fv) {
                        *o = bop.apply(a, b);
                    }
                }
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgnn_graph::generators::rmat;
    use distgnn_graph::EdgeList;
    use distgnn_tensor::init::random_features;

    fn path() -> (Csr, EdgeList) {
        let el = EdgeList::from_pairs(3, &[(0, 1), (1, 2)]);
        (Csr::from_edges(&el), el)
    }

    #[test]
    fn dot_matches_hand_computation() {
        let (g, _) = path();
        let f = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = sddmm(&g, &f, &f, SddmmOp::Dot);
        assert_eq!(out.shape(), (2, 1));
        // Edge 0: 0 -> 1: <(1,2),(3,4)> = 11; edge 1: 1 -> 2: <(3,4),(5,6)> = 39.
        assert_eq!(out[(0, 0)], 11.0);
        assert_eq!(out[(1, 0)], 39.0);
    }

    #[test]
    fn elementwise_ops_match_reference() {
        let g = Csr::from_edges(&rmat(30, 150, (0.5, 0.2, 0.2), 17));
        let fs = random_features(30, 5, 18);
        let ft = random_features(30, 5, 19);
        let el = g.to_edge_list();
        for bop in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul] {
            let out = sddmm(&g, &fs, &ft, SddmmOp::Elementwise(bop));
            assert_eq!(out.shape(), (g.num_edges(), 5));
            for (e, u, v) in el.iter() {
                for j in 0..5 {
                    let want = bop.apply(fs[(u as usize, j)], ft[(v as usize, j)]);
                    assert_eq!(out[(e, j)], want, "edge {e} dim {j} {bop:?}");
                }
            }
        }
    }

    #[test]
    fn sddmm_output_feeds_the_ap_as_edge_features() {
        // The composition DGL uses for attention-style models:
        // edge scores from SDDMM become f_E operands of the AP.
        use crate::{AggregationConfig, PreparedAggregation, ReduceOp};
        let g = Csr::from_edges(&rmat(25, 120, (0.5, 0.2, 0.2), 20));
        let f = random_features(25, 4, 21);
        let scores = sddmm(&g, &f, &f, SddmmOp::Elementwise(BinaryOp::Mul));
        let out = PreparedAggregation::new(&g, AggregationConfig::optimized(2)).aggregate(
            &f,
            Some(&scores),
            BinaryOp::Mul,
            ReduceOp::Sum,
        );
        assert_eq!(out.shape(), (25, 4));
        assert!(out.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn distinct_src_dst_features_are_respected() {
        let (g, _) = path();
        let fs = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let ft = Matrix::from_vec(3, 1, vec![10.0, 20.0, 30.0]);
        let out = sddmm(&g, &fs, &ft, SddmmOp::Elementwise(BinaryOp::Add));
        // Edge 0: src 0 (1.0) + dst 1 (20.0).
        assert_eq!(out[(0, 0)], 21.0);
        assert_eq!(out[(1, 0)], 32.0);
    }

    #[test]
    fn empty_graph_yields_empty_output() {
        let g = Csr::from_edges(&EdgeList::new(4));
        let f = random_features(4, 3, 22);
        let out = sddmm(&g, &f, &f, SddmmOp::Dot);
        assert_eq!(out.shape(), (0, 1));
    }
}
