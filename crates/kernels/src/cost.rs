//! Static work estimates for the kernels, used by the telemetry
//! metrics registry to report flop/byte totals alongside measured
//! phase times.
//!
//! These are analytic counts of the arithmetic each kernel *must*
//! perform, not measurements: the AP touches every edge once per
//! feature element, and a dense layer is one GEMM plus a bias add.
//! Cache effects and SIMD width do not change the counts, so the
//! estimates are exact for flops and a lower bound for bytes (they
//! assume each operand is moved once).

/// Flops for one aggregation pass over `num_edges` edges with
/// `feat_dim`-wide features: one combine (`⊗`) and one reduce (`⊕`)
/// per edge per feature element.
pub fn aggregate_flops(num_edges: usize, feat_dim: usize) -> u64 {
    2 * num_edges as u64 * feat_dim as u64
}

/// Minimum bytes moved by one aggregation pass: read one source row
/// and read-modify-write one destination row per edge, f32 elements.
pub fn aggregate_bytes(num_edges: usize, feat_dim: usize) -> u64 {
    3 * num_edges as u64 * feat_dim as u64 * 4
}

/// Flops for one dense layer forward: `rows x in_dim` by
/// `in_dim x out_dim` GEMM (2 flops per MAC) plus the bias add.
pub fn dense_flops(rows: usize, in_dim: usize, out_dim: usize) -> u64 {
    let r = rows as u64;
    let o = out_dim as u64;
    2 * r * in_dim as u64 * o + r * o
}

/// Minimum bytes moved by one dense layer forward: inputs, weights,
/// bias and outputs each touched once, f32 elements.
pub fn dense_bytes(rows: usize, in_dim: usize, out_dim: usize) -> u64 {
    let r = rows as u64;
    let i = in_dim as u64;
    let o = out_dim as u64;
    (r * i + i * o + o + r * o) * 4
}

/// `(aggregation passes, dense products)` layer `l` of a GraphSAGE
/// model runs per training epoch. A layer above the first aggregates
/// forward and, on the transpose, backward, and runs its GEMM shape
/// three times (forward, grad-weight, grad-input). Layer 0 computes no
/// input gradient, so no backward aggregation and no grad-input GEMM,
/// and aggregates forward only where it is re-aggregated every epoch
/// (`reaggregate_layer0`); elsewhere its aggregate is computed once.
fn sage_layer_passes(l: usize, reaggregate_layer0: bool) -> (u64, u64) {
    if l > 0 {
        (2, 3)
    } else {
        (u64::from(reaggregate_layer0), 2)
    }
}

/// Flops for one full GraphSAGE training epoch on one rank, counting
/// the passes [`sage_layer_passes`] lists (the dense backward GEMMs
/// share the forward's shape, so each costs one dense forward).
pub fn sage_epoch_flops(
    num_vertices: usize,
    num_edges: usize,
    layer_dims: &[(usize, usize)],
    reaggregate_layer0: bool,
) -> u64 {
    let mut total = 0u64;
    for (l, &(ind, outd)) in layer_dims.iter().enumerate() {
        let (aps, dense) = sage_layer_passes(l, reaggregate_layer0);
        total += aps * aggregate_flops(num_edges, ind);
        total += dense * dense_flops(num_vertices, ind, outd);
    }
    total
}

/// Byte-movement lower bound for one full GraphSAGE training epoch on
/// one rank, mirroring [`sage_epoch_flops`].
pub fn sage_epoch_bytes(
    num_vertices: usize,
    num_edges: usize,
    layer_dims: &[(usize, usize)],
    reaggregate_layer0: bool,
) -> u64 {
    let mut total = 0u64;
    for (l, &(ind, outd)) in layer_dims.iter().enumerate() {
        let (aps, dense) = sage_layer_passes(l, reaggregate_layer0);
        total += aps * aggregate_bytes(num_edges, ind);
        total += dense * dense_bytes(num_vertices, ind, outd);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_counts_scale_linearly() {
        assert_eq!(aggregate_flops(10, 4), 80);
        assert_eq!(aggregate_flops(20, 4), 2 * aggregate_flops(10, 4));
        assert_eq!(aggregate_bytes(10, 4), 480);
    }

    #[test]
    fn dense_counts_match_gemm_shape() {
        // 8x3 @ 3x5: 2*8*3*5 MAC flops + 8*5 bias adds.
        assert_eq!(dense_flops(8, 3, 5), 240 + 40);
        assert_eq!(dense_bytes(8, 3, 5), (24 + 15 + 5 + 40) * 4);
    }

    #[test]
    fn epoch_totals_sum_layers() {
        let dims = [(4, 2), (2, 3), (3, 5)];
        // Layers above the first: 2 APs and 3 dense products each.
        let upper: u64 = dims[1..]
            .iter()
            .map(|&(i, o)| 2 * aggregate_flops(6, i) + 3 * dense_flops(5, i, o))
            .sum();
        // Layer 0: forward and grad-weight products, no backward AP.
        let first = 2 * dense_flops(5, 4, 2);
        assert_eq!(sage_epoch_flops(5, 6, &dims, false), upper + first);
        assert_eq!(sage_epoch_flops(5, 6, &dims, true), upper + first + aggregate_flops(6, 4));

        let upper: u64 = dims[1..]
            .iter()
            .map(|&(i, o)| 2 * aggregate_bytes(6, i) + 3 * dense_bytes(5, i, o))
            .sum();
        let first = 2 * dense_bytes(5, 4, 2);
        assert_eq!(sage_epoch_bytes(5, 6, &dims, false), upper + first);
        assert_eq!(sage_epoch_bytes(5, 6, &dims, true), upper + first + aggregate_bytes(6, 4));
    }
}
