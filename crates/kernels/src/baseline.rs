//! Alg. 1/2 — the destination-major pass of the aggregation primitive.
//!
//! [`crate::PreparedAggregation`] runs [`rows_pass`] once per source
//! block: one block is the DGL baseline (Alg. 1), `n_B` blocks the
//! cache-blocked kernel (Alg. 2). The inner loop is monomorphized over
//! `(Combine, Reduce)` via [`crate::mono::with_ops!`], resolved once per
//! call, so the per-edge loop is branch-free.

use crate::mono::{Combine, Reduce};
use crate::schedule::for_each_destination;
use crate::Schedule;
use distgnn_graph::Csr;
use distgnn_tensor::Matrix;

/// The monomorphized destination-major pass: for each destination row,
/// reduce every in-neighbour's (combined) feature vector in place.
/// `C`/`R` are zero-sized, so the innermost loop carries no operator
/// dispatch at all.
pub(crate) fn rows_pass<C: Combine, R: Reduce>(
    graph: &Csr,
    features: &Matrix,
    edge_features: Option<&Matrix>,
    schedule: Schedule,
    chunk_rows: usize,
    out: &mut Matrix,
) {
    let d = out.cols();
    // Hoist the Option: when the combine never reads edge features the
    // placeholder is never touched (the branch below is const-folded).
    let fe = if C::USES_RHS {
        edge_features.expect("validated: binary op requires edge features")
    } else {
        features
    };
    for_each_destination(out.as_mut_slice(), d, schedule, chunk_rows, |v, out_row| {
        let nbrs = graph.neighbors(v as u32);
        let eids = graph.edge_ids(v as u32);
        for (k, &u) in nbrs.iter().enumerate() {
            if !C::USES_RHS {
                let src = features.row(u as usize);
                for (o, &s) in out_row.iter_mut().zip(src) {
                    *o = R::apply(*o, s);
                }
            } else if !C::USES_LHS {
                let e_row = fe.row(eids[k] as usize);
                for (o, &e) in out_row.iter_mut().zip(e_row) {
                    *o = R::apply(*o, e);
                }
            } else {
                let src = features.row(u as usize);
                let e_row = fe.row(eids[k] as usize);
                for ((o, &s), &e) in out_row.iter_mut().zip(src).zip(e_row) {
                    *o = R::apply(*o, C::apply(s, e));
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::reference::{aggregate_reference, assert_bits_eq};
    use crate::{AggregationConfig, BinaryOp, PreparedAggregation, ReduceOp, Schedule};
    use distgnn_graph::generators::rmat;
    use distgnn_graph::{Csr, EdgeList};
    use distgnn_tensor::init::random_features;

    #[test]
    fn matches_reference_on_random_graph_all_ops() {
        let edges = rmat(60, 300, (0.5, 0.2, 0.2), 3);
        let g = Csr::from_edges(&edges);
        let f = random_features(60, 7, 1);
        let mut fe = random_features(g.num_edges(), 7, 2);
        // Keep Div well-conditioned.
        fe.as_mut_slice().iter_mut().for_each(|x| *x = x.abs() + 0.5);
        for sched in [Schedule::Static, Schedule::Dynamic] {
            let prep = PreparedAggregation::new(&g, AggregationConfig::baseline().with_schedule(sched));
            for op in BinaryOp::ALL {
                for red in ReduceOp::ALL {
                    let got = prep.aggregate(&f, Some(&fe), op, red);
                    let want = aggregate_reference(&g, &f, Some(&fe), op, red);
                    assert_bits_eq(&got, &want, &format!("{op:?}/{red:?}/{sched:?}"));
                }
            }
        }
    }

    #[test]
    fn no_edge_features_needed_for_copylhs() {
        let edges = rmat(30, 100, (0.45, 0.25, 0.2), 9);
        let g = Csr::from_edges(&edges);
        let f = random_features(30, 5, 3);
        let prep = PreparedAggregation::new(&g, AggregationConfig::baseline().with_blocks(3));
        let got = prep.aggregate(&f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
        let want = aggregate_reference(&g, &f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
        assert_bits_eq(&got, &want, "copy_lhs/sum");
    }

    #[test]
    fn empty_graph_returns_identity_matrix() {
        let g = Csr::from_edges(&EdgeList::new(5));
        let f = random_features(5, 3, 1);
        for cfg in [AggregationConfig::baseline(), AggregationConfig::optimized(2)] {
            let out = PreparedAggregation::new(&g, cfg).aggregate(&f, None, BinaryOp::CopyLhs, ReduceOp::Max);
            assert!(out.as_slice().iter().all(|&x| x == f32::NEG_INFINITY), "{cfg:?}");
        }
    }
}
