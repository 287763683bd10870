//! Edge softmax: normalize per-edge scores over each destination's
//! incoming edges — DGL's `edge_softmax`, the step between SDDMM
//! attention logits and the weighted aggregation of GAT-style models.

use distgnn_graph::Csr;
use distgnn_tensor::Matrix;
use rayon::prelude::*;

/// For every destination `v` and feature lane `j`,
/// `out[e][j] = exp(scores[e][j] - max) / Σ_{e' into v} exp(scores[e'][j] - max)`.
///
/// Rows of `scores` are indexed by edge id; lanes are normalized
/// independently (multi-head attention keeps one lane per head).
///
/// # Panics
/// Panics if `scores.rows() != graph.num_edges()`.
pub fn edge_softmax(graph: &Csr, scores: &Matrix) -> Matrix {
    assert_eq!(scores.rows(), graph.num_edges(), "one score row per edge");
    let d = scores.cols();
    let mut out = Matrix::zeros(scores.rows(), d);
    // Parallelize over destinations: each owns a disjoint edge-id set.
    let rows: Vec<(u32, Vec<u32>)> = (0..graph.num_vertices() as u32)
        .map(|v| (v, graph.edge_ids(v).to_vec()))
        .collect();
    // Collect per-destination results, then write (edge ids are
    // disjoint across destinations, but slice-level parallel writes
    // need unsafe; the gather-then-write keeps it safe).
    let parts: Vec<(Vec<u32>, Vec<f32>)> = rows
        .par_iter()
        .map(|(_, eids)| {
            // Destinations with no incoming edges yield empty buffers
            // and are skipped by the write-back loop below.
            let mut local = vec![0.0f32; eids.len() * d];
            for j in 0..d {
                if eids.is_empty() {
                    break;
                }
                let mut max = f32::NEG_INFINITY;
                for &e in eids {
                    max = max.max(scores[(e as usize, j)]);
                }
                let mut sum = 0.0f32;
                for (i, &e) in eids.iter().enumerate() {
                    let x = (scores[(e as usize, j)] - max).exp();
                    local[i * d + j] = x;
                    sum += x;
                }
                let inv = 1.0 / sum;
                for i in 0..eids.len() {
                    local[i * d + j] *= inv;
                }
            }
            (eids.clone(), local)
        })
        .collect();
    for (eids, local) in parts {
        for (i, &e) in eids.iter().enumerate() {
            out.row_mut(e as usize).copy_from_slice(&local[i * d..(i + 1) * d]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgnn_graph::generators::rmat;
    use distgnn_graph::EdgeList;
    use distgnn_tensor::init::random_features;

    #[test]
    fn normalizes_per_destination() {
        // Two edges into 2, one into 1.
        let g = Csr::from_edges(&EdgeList::from_pairs(3, &[(0, 2), (1, 2), (0, 1)]));
        let scores = Matrix::from_vec(3, 1, vec![1.0, 1.0, 5.0]);
        let out = edge_softmax(&g, &scores);
        // The two edges into 2 split evenly; the lone edge into 1 gets 1.
        let into2: Vec<f32> = g.edge_ids(2).iter().map(|&e| out[(e as usize, 0)]).collect();
        assert!((into2[0] - 0.5).abs() < 1e-6);
        assert!((into2[1] - 0.5).abs() < 1e-6);
        let into1 = g.edge_ids(1)[0] as usize;
        assert!((out[(into1, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn per_destination_sums_are_one() {
        let g = Csr::from_edges(&rmat(40, 250, (0.5, 0.2, 0.2), 23));
        let scores = random_features(g.num_edges(), 3, 24);
        let out = edge_softmax(&g, &scores);
        for v in 0..40u32 {
            let eids = g.edge_ids(v);
            if eids.is_empty() {
                continue;
            }
            for j in 0..3 {
                let s: f32 = eids.iter().map(|&e| out[(e as usize, j)]).sum();
                assert!((s - 1.0).abs() < 1e-5, "v={v} j={j} sum={s}");
            }
        }
    }

    #[test]
    fn stable_for_large_scores() {
        let g = Csr::from_edges(&EdgeList::from_pairs(2, &[(0, 1), (1, 1)]));
        let scores = Matrix::from_vec(2, 1, vec![1000.0, 1001.0]);
        let out = edge_softmax(&g, &scores);
        assert!(out.as_slice().iter().all(|x| x.is_finite()));
        assert!(out[(1, 0)] > out[(0, 0)]);
    }

    #[test]
    fn attention_pipeline_composes() {
        // SDDMM logits -> edge_softmax -> weighted AP: the GAT-shaped
        // forward pass, end to end through the kernel layer.
        use crate::{sddmm, AggregationConfig, BinaryOp, PreparedAggregation, ReduceOp, SddmmOp};
        let g = Csr::from_edges(&rmat(30, 150, (0.5, 0.2, 0.2), 25));
        let h = random_features(30, 6, 26);
        let logits = sddmm(&g, &h, &h, SddmmOp::Dot);
        let att = edge_softmax(&g, &logits);
        // Broadcast the single attention lane across the feature width.
        let mut att_wide = Matrix::zeros(g.num_edges(), 6);
        for e in 0..g.num_edges() {
            let a = att[(e, 0)];
            att_wide.row_mut(e).iter_mut().for_each(|x| *x = a);
        }
        let out = PreparedAggregation::new(&g, AggregationConfig::optimized(2)).aggregate(
            &h,
            Some(&att_wide),
            BinaryOp::Mul,
            ReduceOp::Sum,
        );
        // Attention-weighted means stay within the neighbourhood hull:
        // bounded by per-column min/max of h.
        for j in 0..6 {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for v in 0..30 {
                lo = lo.min(h[(v, j)]);
                hi = hi.max(h[(v, j)]);
            }
            for v in 0..30u32 {
                if g.degree(v) == 0 {
                    continue;
                }
                let x = out[(v as usize, j)];
                assert!(x >= lo - 1e-4 && x <= hi + 1e-4, "v={v} j={j} x={x}");
            }
        }
    }
}
