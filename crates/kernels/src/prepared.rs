//! Prepared aggregation: block CSRs built once, reused every epoch.
//!
//! Training calls the aggregation primitive hundreds of times on the
//! same graph (once per layer per direction per epoch). The paper
//! builds the per-block CSR matrices once (Alg. 2, line 2) and
//! amortizes the cost; [`PreparedAggregation`] is that object, and the
//! only way to run the AP. Every configuration it accepts returns the
//! bits of [`crate::reference::aggregate_reference`] (DESIGN.md
//! invariant 1).

use crate::baseline::rows_pass;
use crate::mono::{with_ops, Combine, Reduce};
use crate::reference::{feature_dim, validate_inputs};
use crate::reordered::strips_pass;
use crate::{AggregationConfig, BinaryOp, LoopOrder, ReduceOp};
use distgnn_graph::blocks::SourceBlocks;
use distgnn_graph::Csr;
use distgnn_tensor::Matrix;

/// A graph pre-split for the configured kernel.
#[derive(Clone, Debug)]
pub struct PreparedAggregation {
    config: AggregationConfig,
    blocks: SourceBlocks,
    num_vertices: usize,
    num_edges: usize,
}

impl PreparedAggregation {
    /// Splits `graph` once according to `config`.
    pub fn new(graph: &Csr, config: AggregationConfig) -> Self {
        PreparedAggregation {
            blocks: SourceBlocks::split(graph, config.n_blocks),
            config,
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Runs the configured kernel against the prepared blocks.
    pub fn aggregate(
        &self,
        features: &Matrix,
        edge_features: Option<&Matrix>,
        op: BinaryOp,
        reduce: ReduceOp,
    ) -> Matrix {
        let d = feature_dim(features, edge_features, op);
        let mut out = Matrix::zeros(self.num_vertices, d);
        self.aggregate_into(features, edge_features, op, reduce, &mut out);
        out
    }

    /// Allocation-free variant of [`Self::aggregate`]: writes into a
    /// caller-owned output matrix of shape `(num_vertices, d)`. The
    /// previous contents of `out` are overwritten (it is reset to the
    /// reduction identity first), so the same buffer can be reused
    /// every epoch. The operator pair is resolved **once** here; all
    /// block passes below run monomorphized.
    pub fn aggregate_into(
        &self,
        features: &Matrix,
        edge_features: Option<&Matrix>,
        op: BinaryOp,
        reduce: ReduceOp,
        out: &mut Matrix,
    ) {
        validate_inputs(self.num_vertices, self.num_edges, features, edge_features, op);
        let d = feature_dim(features, edge_features, op);
        assert_eq!(
            (out.rows(), out.cols()),
            (self.num_vertices, d),
            "output buffer shape must be (num_vertices, feature_dim)"
        );
        out.fill(reduce.identity());
        with_ops!(
            op,
            reduce,
            run_blocks(&self.blocks, features, edge_features, &self.config, out)
        );
    }
}

/// Monomorphized block loop shared by both loop orders: every pass over
/// every block uses the same compile-time `(C, R)` pair.
fn run_blocks<C: Combine, R: Reduce>(
    blocks: &SourceBlocks,
    features: &Matrix,
    edge_features: Option<&Matrix>,
    config: &AggregationConfig,
    out: &mut Matrix,
) {
    for block in &blocks.blocks {
        match config.loop_order {
            LoopOrder::DestinationMajor => rows_pass::<C, R>(
                block,
                features,
                edge_features,
                config.schedule,
                config.chunk_size,
                out,
            ),
            LoopOrder::FeatureStrips => {
                strips_pass::<C, R>(block, features, edge_features, config, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{aggregate_reference, assert_bits_eq};
    use distgnn_graph::generators::rmat;
    use distgnn_tensor::init::random_features;

    /// The paper's named configurations, plus more blocks than vertices.
    #[test]
    fn prepared_matches_one_shot_for_all_configs() {
        let g = Csr::from_edges(&rmat(60, 350, (0.5, 0.2, 0.2), 21));
        let f = random_features(60, 19, 22);
        let want = aggregate_reference(&g, &f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
        for cfg in [
            AggregationConfig::baseline(),
            AggregationConfig::baseline().with_blocks(4),
            AggregationConfig::optimized(1),
            AggregationConfig::optimized(6),
            AggregationConfig::optimized(61),
        ] {
            let prep = PreparedAggregation::new(&g, cfg);
            let got = prep.aggregate(&f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
            assert_bits_eq(&got, &want, &format!("{cfg:?}"));
        }
    }

    #[test]
    fn prepared_is_reusable_across_inputs() {
        let g = Csr::from_edges(&rmat(40, 200, (0.5, 0.2, 0.2), 23));
        let prep = PreparedAggregation::new(&g, AggregationConfig::optimized(3));
        for seed in 0..3 {
            let f = random_features(40, 8, seed);
            let want = aggregate_reference(&g, &f, None, BinaryOp::CopyLhs, ReduceOp::Max);
            let got = prep.aggregate(&f, None, BinaryOp::CopyLhs, ReduceOp::Max);
            assert_bits_eq(&got, &want, &format!("seed {seed}"));
        }
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn prepared_validates_input_shape() {
        let g = Csr::from_edges(&rmat(10, 30, (0.5, 0.2, 0.2), 24));
        let prep = PreparedAggregation::new(&g, AggregationConfig::baseline());
        let f = random_features(11, 4, 1);
        let _ = prep.aggregate(&f, None, BinaryOp::CopyLhs, ReduceOp::Sum);
    }

    /// A binary `⊗` with 8-wide vertex and 5-wide edge features.
    fn add_with_narrow_edge_features(loop_order: LoopOrder) {
        let g = Csr::from_edges(&rmat(10, 30, (0.5, 0.2, 0.2), 25));
        let cfg = AggregationConfig { loop_order, ..AggregationConfig::baseline() };
        let prep = PreparedAggregation::new(&g, cfg);
        let f = random_features(10, 8, 2);
        let fe = random_features(g.num_edges(), 5, 3);
        let _ = prep.aggregate(&f, Some(&fe), BinaryOp::Add, ReduceOp::Sum);
    }

    #[test]
    #[should_panic(expected = "dims must match")]
    fn destination_major_rejects_edge_feature_width_mismatch() {
        add_with_narrow_edge_features(LoopOrder::DestinationMajor);
    }

    #[test]
    #[should_panic(expected = "dims must match")]
    fn feature_strips_rejects_edge_feature_width_mismatch() {
        add_with_narrow_edge_features(LoopOrder::FeatureStrips);
    }
}
