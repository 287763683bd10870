//! DistGNN core: GraphSAGE full-batch training, single-socket and
//! distributed.
//!
//! This crate assembles the substrates into the paper's system:
//!
//! - [`model`] — the GraphSAGE model (GCN aggregator + MLP stack) with
//!   explicit forward/backward over a pluggable [`model::Aggregator`];
//! - [`single`] — the shared-memory trainer of §4, switchable between
//!   the baseline and optimized aggregation kernels (Fig. 2);
//! - [`drpa`] — the Delayed Remote Partial Aggregates algorithm
//!   (Alg. 4) in its three modes `0c`, `cd-0`, `cd-r`;
//! - [`dist`] — the thread-per-socket distributed trainer of §5
//!   (Fig. 5/6, Table 5);
//! - [`minibatch`] — a Dist-DGL-style neighbour-sampling trainer, the
//!   paper's comparator (Tables 7–9);
//! - [`workmodel`] / [`memmodel`] — the analytic aggregation-work and
//!   memory models behind Tables 6–8;
//! - [`scaling`] — combines measured per-rank compute with the α–β
//!   network model to project multi-socket scaling (Fig. 5/6).

pub mod dist;
pub mod dist_minibatch;
pub mod drpa;
pub mod elastic;
pub mod memmodel;
pub mod minibatch;
pub mod model;
pub mod scaling;
pub mod single;
pub mod variants;
pub mod workmodel;

pub use dist::{
    build_metrics, DistConfig, DistEpochReport, DistError, DistMode, DistRunReport, DistTrainer,
};
pub use elastic::{merge_cluster_state, reshard_states, GlobalState};
pub use model::{Aggregator, GraphSage, LayerWorkspace, SageConfig, SageWorkspace};
pub use single::{SingleSocketAggregator, Trainer, TrainerConfig};
