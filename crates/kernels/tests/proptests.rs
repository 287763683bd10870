//! Property tests: every configuration of the prepared kernel returns
//! the naive reference's bits over random graphs, operators and shapes.

use distgnn_kernels::reference::aggregate_reference;
use distgnn_kernels::{AggregationConfig, BinaryOp, LoopOrder, PreparedAggregation, ReduceOp, Schedule};
use distgnn_graph::{Csr, EdgeList};
use distgnn_tensor::init::random_features;
use distgnn_tensor::Matrix;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..30).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32).prop_filter("no loops", |(u, v)| u != v);
        proptest::collection::vec(edge, 0..150).prop_map(move |mut es| {
            es.sort_unstable();
            es.dedup();
            (n, es)
        })
    })
}

/// Overwrites every fifth entry with `0.0` and the next with `-0.0`,
/// so sums, max and min meet both signed zeros.
fn with_signed_zeros(m: &mut Matrix, seed: u64) {
    for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
        match (i as u64 + seed) % 5 {
            0 => *x = 0.0,
            1 => *x = -0.0,
            _ => {}
        }
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn arb_op() -> impl Strategy<Value = BinaryOp> {
    proptest::sample::select(BinaryOp::ALL.to_vec())
}

fn arb_reduce() -> impl Strategy<Value = ReduceOp> {
    proptest::sample::select(ReduceOp::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_variants_match_reference(
        (n, es) in arb_graph(),
        op in arb_op(),
        red in arb_reduce(),
        d in 1usize..41,
        n_blocks in 1usize..40,
        seed in 0u64..500,
    ) {
        // DESIGN.md invariant 1: every (n_B, schedule, loop order) sums
        // each element in the reference's order, so the bits agree.
        let g = Csr::from_edges(&EdgeList::from_pairs(n, &es));
        let mut f = random_features(n, d, seed);
        with_signed_zeros(&mut f, seed);
        let mut fe = random_features(g.num_edges().max(1), d, seed ^ 1);
        fe.as_mut_slice().iter_mut().for_each(|x| *x = x.abs() + 0.25);
        let mut fe = Matrix::from_vec(
            g.num_edges(), d,
            fe.into_vec()[..g.num_edges() * d].to_vec(),
        );
        if op != BinaryOp::Div {
            with_signed_zeros(&mut fe, seed + 2);
        }
        let fe = op.uses_rhs().then_some(&fe);
        let want = aggregate_reference(&g, &f, fe, op, red);
        for schedule in [Schedule::Static, Schedule::Dynamic] {
            for loop_order in [LoopOrder::DestinationMajor, LoopOrder::FeatureStrips] {
                let cfg = AggregationConfig {
                    n_blocks,
                    schedule,
                    loop_order,
                    chunk_size: 8,
                };
                let got = PreparedAggregation::new(&g, cfg).aggregate(&f, fe, op, red);
                prop_assert!(
                    bits(&got) == bits(&want),
                    "mismatch {op:?}/{red:?}/{schedule:?}/{loop_order:?} n_B={n_blocks}"
                );
            }
        }
    }

    #[test]
    fn aggregate_into_bit_identical_to_allocating(
        (n, es) in arb_graph(),
        op in arb_op(),
        red in arb_reduce(),
        d in 1usize..24,
        n_blocks in 1usize..6,
        seed in 0u64..500,
    ) {
        // The `_into` form must be *bit*-identical to the allocating
        // form — same accumulation order, including Max/Min ties — even
        // when the output buffer holds stale values from a prior call.
        let g = Csr::from_edges(&EdgeList::from_pairs(n, &es));
        let f = random_features(n, d, seed);
        let mut fe = random_features(g.num_edges().max(1), d, seed ^ 1);
        fe.as_mut_slice().iter_mut().for_each(|x| *x = x.abs() + 0.25);
        let fe = Matrix::from_vec(
            g.num_edges(), d,
            fe.into_vec()[..g.num_edges() * d].to_vec(),
        );
        let mut out = Matrix::full(n, d, f32::NAN);
        for schedule in [Schedule::Static, Schedule::Dynamic] {
            for loop_order in [LoopOrder::DestinationMajor, LoopOrder::FeatureStrips] {
                let cfg = AggregationConfig {
                    n_blocks,
                    schedule,
                    loop_order,
                    chunk_size: 8,
                };
                let prep = PreparedAggregation::new(&g, cfg);
                let want = prep.aggregate(&f, Some(&fe), op, red);
                prep.aggregate_into(&f, Some(&fe), op, red, &mut out);
                prop_assert!(
                    bits(&out) == bits(&want),
                    "into/alloc mismatch {op:?}/{red:?}/{schedule:?}/{loop_order:?} n_B={n_blocks}"
                );
            }
        }
    }

    #[test]
    fn sum_aggregation_is_linear(
        (n, es) in arb_graph(),
        d in 1usize..12,
        seed in 0u64..500,
    ) {
        // AP(a*f) == a * AP(f) for the copy/sum kernel (it is SpMM).
        let g = Csr::from_edges(&EdgeList::from_pairs(n, &es));
        let f = random_features(n, d, seed);
        let prep = PreparedAggregation::new(&g, AggregationConfig::optimized(2));
        let base = prep.aggregate(&f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
        let mut f2 = f.clone();
        distgnn_tensor::ops::scale(&mut f2, 3.0);
        let scaled = prep.aggregate(&f2, None, BinaryOp::CopyLhs, ReduceOp::Sum);
        let mut expect = base.clone();
        distgnn_tensor::ops::scale(&mut expect, 3.0);
        prop_assert!(scaled.approx_eq(&expect, 1e-2));
    }

    #[test]
    fn max_bounds_sum_mean(
        (n, es) in arb_graph(),
        seed in 0u64..500,
    ) {
        // For non-negative features: per-element max <= sum.
        let g = Csr::from_edges(&EdgeList::from_pairs(n, &es));
        let mut f = random_features(n, 4, seed);
        f.as_mut_slice().iter_mut().for_each(|x| *x = x.abs());
        let prep = PreparedAggregation::new(&g, AggregationConfig::optimized(3));
        let s = prep.aggregate(&f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
        let m = prep.aggregate(&f, None, BinaryOp::CopyLhs, ReduceOp::Max);
        for v in 0..n {
            if g.degree(v as u32) == 0 { continue; }
            for j in 0..4 {
                prop_assert!(m[(v, j)] <= s[(v, j)] + 1e-4);
            }
        }
    }
}
