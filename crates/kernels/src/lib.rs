//! The DistGNN aggregation primitive (AP) and its optimizations.
//!
//! The AP is the tuple `(f_V, f_E, ⊗, ⊕, f_O)` of §2.1: for every edge
//! `u -> v`, combine the source's feature vector (and optionally the
//! edge's) with `⊗` and reduce into the destination row of `f_O` with
//! `⊕`. The paper's §4 accelerates this SpMM-like kernel with three
//! transformations of one loop nest, each a field of
//! [`AggregationConfig`]:
//!
//! 1. **Cache blocking** (Alg. 2, [`prepared`]): split sources into
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
//! Every configuration of those three transformations sums each output
//! element's terms in the same order as the naive reference, so all of
//! them are bit-identical to [`reference::aggregate_reference`] for
//! every `⊗ x ⊕` pair: rows of a [`distgnn_graph::Csr`] are sorted by
//! source, source blocks keep that order, and each strip lane is an
//! independent sum (DESIGN.md invariant 1).
//!
//! [`PreparedAggregation`] is the one entry point: it splits the graph
//! once and runs the configured loop order over the blocks.

pub mod baseline;
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

pub use config::{AggregationConfig, LoopOrder, Schedule};
pub use ops::{BinaryOp, ReduceOp};
pub use prepared::PreparedAggregation;
pub use edge_softmax::edge_softmax;
pub use sddmm::{sddmm, SddmmOp};

