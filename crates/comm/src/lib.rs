//! Simulated multi-socket communication substrate.
//!
//! The paper runs one MPI rank per CPU socket with OneCCL collectives
//! (AlltoAll for partial aggregates, AllReduce for gradient sync).
//! Here a "socket" is an OS thread: [`cluster::Cluster::run`] spawns
//! `k` ranks, each executing the same SPMD closure against a
//! [`cluster::RankCtx`] that provides:
//!
//! - [`cluster::RankCtx::barrier`] — epoch/step synchronization;
//! - [`cluster::RankCtx::all_reduce_sum`] — gradient averaging;
//! - [`cluster::RankCtx::all_to_all_v`] — the leaf↔root partial
//!   aggregate exchange of Alg. 4;
//! - [`cluster::RankCtx::send_tagged`] / `try_recv_tagged` — the
//!   *asynchronous, delayed* mailboxes `cd-r` uses: a message posted in
//!   epoch `e` is picked up whenever the receiver asks for its tag
//!   (epoch `e + r`), without blocking the sender.
//!
//! Wall-clock on one machine cannot exhibit 128-socket network
//! behaviour, so [`netmodel::NetworkModel`] supplies an α–β
//! (latency–bandwidth) cost model that converts measured per-rank
//! communication volumes into projected communication time; the
//! scaling figures combine both.

//! A deterministic fault-injection layer ([`faults::FaultPlan`],
//! [`cluster::Cluster::run_with`]) can drop, delay, or reorder
//! messages and stall ranks; failures surface as typed
//! [`cluster::CommError`]s instead of panics, and every fault decision
//! is a pure function of the plan's seed, so chaos runs replay
//! bit-identically.

pub mod cluster;
pub mod codec;
pub mod faults;
pub mod netmodel;
pub mod progress;
pub mod retry;
pub mod stats;

pub use cluster::{AllToAllHandle, Cluster, CommError, PendingMsg, RankCtx};
pub use codec::{ErrorFeedback, WireCodec};
pub use faults::FaultPlan;
pub use netmodel::NetworkModel;
pub use retry::RetryPolicy;
pub use stats::{CommSnapshot, CommStats};
