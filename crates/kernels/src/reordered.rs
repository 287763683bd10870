//! Alg. 3 — the loop-reordered (LIBXSMM-style) pass of the aggregation
//! primitive.
//!
//! For each destination row, the feature dimension is walked in fixed
//! SIMD-width strips; within one strip the neighbour loop accumulates
//! into a stack array, so `f_O[v]` is loaded and stored once per strip
//! per block instead of once per edge. The strip loop is shaped so
//! LLVM auto-vectorizes it — the Rust stand-in for LIBXSMM's JITed
//! SIMD kernels. [`crate::PreparedAggregation`] runs [`strips_pass`]
//! once per source block.

use crate::mono::{Combine, Reduce};
use crate::schedule::for_each_destination;
use crate::AggregationConfig;
use distgnn_graph::Csr;
use distgnn_tensor::Matrix;

/// Strip width in f32 lanes (one AVX-512 register).
pub const SIMD_WIDTH: usize = 16;

/// The monomorphized strip pass. `C`/`R` are zero-sized; the lane loop
/// below is branch-free and auto-vectorizes.
pub(crate) fn strips_pass<C: Combine, R: Reduce>(
    block: &Csr,
    features: &Matrix,
    edge_features: Option<&Matrix>,
    config: &AggregationConfig,
    out: &mut Matrix,
) {
    let d = out.cols();
    let fe = if C::USES_RHS {
        edge_features.expect("validated: binary op requires edge features")
    } else {
        features
    };
    for_each_destination(
        out.as_mut_slice(),
        d,
        config.schedule,
        config.chunk_size,
        |v, out_row| {
            let nbrs = block.neighbors(v as u32);
            if nbrs.is_empty() {
                return;
            }
            let eids = block.edge_ids(v as u32);
            let mut j = 0;
            // Full-width strips, accumulated in a stack register tile.
            while j + SIMD_WIDTH <= d {
                let mut t = [0.0f32; SIMD_WIDTH];
                t.copy_from_slice(&out_row[j..j + SIMD_WIDTH]);
                accumulate_strip::<C, R>(&mut t, j, nbrs, eids, features, fe);
                out_row[j..j + SIMD_WIDTH].copy_from_slice(&t);
                j += SIMD_WIDTH;
            }
            // Remainder strip.
            if j < d {
                let w = d - j;
                let mut t = [0.0f32; SIMD_WIDTH];
                t[..w].copy_from_slice(&out_row[j..j + w]);
                accumulate_strip_partial::<C, R>(&mut t[..w], j, nbrs, eids, features, fe);
                out_row[j..j + w].copy_from_slice(&t[..w]);
            }
        },
    );
}

#[inline(always)]
fn accumulate_strip<C: Combine, R: Reduce>(
    t: &mut [f32; SIMD_WIDTH],
    j: usize,
    nbrs: &[u32],
    eids: &[u32],
    features: &Matrix,
    fe: &Matrix,
) {
    for (k, &u) in nbrs.iter().enumerate() {
        if !C::USES_RHS {
            let src = &features.row(u as usize)[j..j + SIMD_WIDTH];
            for (lane, acc) in t.iter_mut().enumerate() {
                *acc = R::apply(*acc, src[lane]);
            }
        } else if !C::USES_LHS {
            let e_row = &fe.row(eids[k] as usize)[j..j + SIMD_WIDTH];
            for (lane, acc) in t.iter_mut().enumerate() {
                *acc = R::apply(*acc, e_row[lane]);
            }
        } else {
            let src = &features.row(u as usize)[j..j + SIMD_WIDTH];
            let e_row = &fe.row(eids[k] as usize)[j..j + SIMD_WIDTH];
            for (lane, acc) in t.iter_mut().enumerate() {
                *acc = R::apply(*acc, C::apply(src[lane], e_row[lane]));
            }
        }
    }
}

fn accumulate_strip_partial<C: Combine, R: Reduce>(
    t: &mut [f32],
    j: usize,
    nbrs: &[u32],
    eids: &[u32],
    features: &Matrix,
    fe: &Matrix,
) {
    let w = t.len();
    for (k, &u) in nbrs.iter().enumerate() {
        if !C::USES_RHS {
            let src = &features.row(u as usize)[j..j + w];
            for (acc, &s) in t.iter_mut().zip(src) {
                *acc = R::apply(*acc, s);
            }
        } else if !C::USES_LHS {
            let e_row = &fe.row(eids[k] as usize)[j..j + w];
            for (acc, &e) in t.iter_mut().zip(e_row) {
                *acc = R::apply(*acc, e);
            }
        } else {
            let src = &features.row(u as usize)[j..j + w];
            let e_row = &fe.row(eids[k] as usize)[j..j + w];
            for ((acc, &s), &e) in t.iter_mut().zip(src).zip(e_row) {
                *acc = R::apply(*acc, C::apply(s, e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::reference::{aggregate_reference, assert_bits_eq};
    use crate::{AggregationConfig, BinaryOp, PreparedAggregation, ReduceOp, Schedule};
    use distgnn_graph::generators::rmat;
    use distgnn_graph::Csr;
    use distgnn_tensor::init::random_features;

    #[test]
    fn reordered_matches_reference_various_dims() {
        let g = Csr::from_edges(&rmat(70, 400, (0.5, 0.2, 0.2), 12));
        // Dims straddling strip boundaries: < W, == W, > W, multiple of W.
        for d in [3, 15, 16, 17, 32, 37] {
            let f = random_features(70, d, d as u64);
            let want = aggregate_reference(&g, &f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
            for n_b in [1, 4] {
                let prep = PreparedAggregation::new(&g, AggregationConfig::optimized(n_b));
                let got = prep.aggregate(&f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
                assert_bits_eq(&got, &want, &format!("d = {d}, n_B = {n_b}"));
            }
        }
    }

    #[test]
    fn reordered_all_op_combinations() {
        let g = Csr::from_edges(&rmat(40, 250, (0.55, 0.2, 0.15), 13));
        let f = random_features(40, 20, 21);
        let mut fe = random_features(g.num_edges(), 20, 22);
        fe.as_mut_slice().iter_mut().for_each(|x| *x = x.abs() + 0.5);
        let cfg = AggregationConfig::optimized(3).with_schedule(Schedule::Static);
        let prep = PreparedAggregation::new(&g, cfg);
        for op in BinaryOp::ALL {
            for red in ReduceOp::ALL {
                let want = aggregate_reference(&g, &f, Some(&fe), op, red);
                let got = prep.aggregate(&f, Some(&fe), op, red);
                assert_bits_eq(&got, &want, &format!("{op:?}/{red:?}"));
            }
        }
    }

    #[test]
    fn max_reduction_is_exact_under_reordering() {
        let g = Csr::from_edges(&rmat(50, 300, (0.5, 0.2, 0.2), 14));
        let f = random_features(50, 33, 15);
        let want = aggregate_reference(&g, &f, None, BinaryOp::CopyLhs, ReduceOp::Max);
        let prep = PreparedAggregation::new(&g, AggregationConfig::optimized(8));
        let got = prep.aggregate(&f, None, BinaryOp::CopyLhs, ReduceOp::Max);
        assert_bits_eq(&got, &want, "copy_lhs/max");
    }
}
