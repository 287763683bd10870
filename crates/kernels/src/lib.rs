//! The DistGNN aggregation primitive (AP) and its optimized variants.
//!
//! The AP is the tuple `(f_V, f_E, ⊗, ⊕, f_O)` of §2.1: for every edge
//! `u -> v`, combine the source's feature vector (and optionally the
//! edge's) with `⊗` and reduce into the destination row of `f_O` with
//! `⊕`. The paper's §4 accelerates this SpMM-like kernel with three
//! transformations, each implemented here as a separate, testable
//! variant:
//!
//! 1. **Cache blocking** (Alg. 2, [`blocked`]): split sources into
//!    `n_B` blocks so each pass's slice of `f_V` fits in cache.
//! 2. **Dynamic scheduling** ([`schedule`]): fine-grained work-stealing
//!    chunks of destination vertices instead of one static range per
//!    thread, to absorb power-law degree imbalance.
//! 3. **Loop reordering** (Alg. 3, [`reordered`]): iterate the feature
//!    dimension outermost in SIMD-width strips, accumulating in
//!    registers so each `f_O[v]` strip is written once per block. The
//!    paper JITs this with LIBXSMM; here the strip loop is written so
//!    rustc/LLVM auto-vectorizes it.
//!
//! All variants compute results interchangeable with the naive
//! reference (exact for max/min, within fp-reassociation tolerance for
//! sum), which the test suite enforces across every `⊗ x ⊕` pair.

pub mod baseline;
pub mod blocked;
pub mod config;
pub mod cost;
pub mod edge_softmax;
pub mod gcn;
pub mod instrumented;
pub mod mono;
pub mod ops;
pub mod prepared;
pub mod reference;
pub mod sddmm;
pub mod reordered;
pub mod schedule;

pub use baseline::aggregate_baseline;
pub use blocked::aggregate_blocked;
pub use config::{AggregationConfig, LoopOrder, Schedule};
pub use ops::{BinaryOp, ReduceOp};
pub use prepared::PreparedAggregation;
pub use edge_softmax::edge_softmax;
pub use sddmm::{sddmm, SddmmOp};
pub use reordered::aggregate_reordered;

use distgnn_graph::Csr;
use distgnn_tensor::Matrix;

/// Dispatches to the kernel variant selected by `config`.
///
/// `edge_features` must be `Some` when `op` reads the right-hand
/// operand (`CopyRhs` or any true binary op).
pub fn aggregate(
    graph: &Csr,
    features: &Matrix,
    edge_features: Option<&Matrix>,
    op: BinaryOp,
    reduce: ReduceOp,
    config: &AggregationConfig,
) -> Matrix {
    match (config.n_blocks, config.loop_order) {
        (1, LoopOrder::DestinationMajor) => {
            baseline::aggregate_baseline(graph, features, edge_features, op, reduce, config.schedule)
        }
        (_, LoopOrder::DestinationMajor) => {
            blocked::aggregate_blocked(graph, features, edge_features, op, reduce, config)
        }
        (_, LoopOrder::FeatureStrips) => {
            reordered::aggregate_reordered(graph, features, edge_features, op, reduce, config)
        }
    }
}
