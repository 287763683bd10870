//! Observability for the DistGNN stack.
//!
//! Three layers, each usable on its own:
//!
//! * [`Recorder`] — a per-rank, preallocated, all-atomic event recorder.
//!   Span begin/end and counter events go into a fixed-capacity buffer
//!   (overflow drops events and bumps a counter; the buffer never grows),
//!   while per-phase running totals and per-epoch snapshots live in
//!   preallocated atomic slots. Zero heap allocation in steady state, and
//!   [`Recorder::disabled()`] compiles every call down to a branch.
//! * [`MetricsRegistry`] — a typed sink that absorbs the scattered counters
//!   of the stack (comm volumes/retries/staleness, kernel flop/byte
//!   estimates, replay accounting) plus the recorders' phase totals.
//! * Exporters ([`export`]) — Chrome `trace_event` JSON for Perfetto, a
//!   machine-readable per-epoch metrics JSON, and the human per-rank
//!   phase-breakdown table (the paper's Fig. 10/11 shape).
//!
//! The crate is a leaf: it depends only on `std`, so every other crate in
//! the workspace can depend on it.

pub mod export;
pub mod json;
pub mod recorder;
pub mod registry;

pub use export::{chrome_trace, metrics_json, phase_table, validate_trace, TraceError};
pub use recorder::{EpochPhases, RecordedEvent, Recorder, RecorderConfig, SpanGuard, TraceCounter};
pub use registry::{Metric, MetricsRegistry, RankMetrics};

use std::sync::Arc;
use std::time::Instant;

/// The phase taxonomy of one training step. Every instrumented interval in
/// the stack is attributed to exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Model forward pass (aggregation excluded — that is [`Phase::Aggregate`]).
    Forward = 0,
    /// Loss + model backward pass.
    Backward = 1,
    /// Neighbourhood aggregation kernels (local LAT/RAT work).
    Aggregate = 2,
    /// Depositing outgoing partials / posting sends.
    CommSend = 3,
    /// Waiting on remote data: receive loops, reduce exchanges, retries,
    /// backoff rounds.
    CommWait = 4,
    /// Optimizer step (gradient flatten + Adam apply).
    Optimizer = 5,
    /// Checkpoint serialization + commit protocol.
    Checkpoint = 6,
    /// Pure synchronization waits (barrier rendezvous).
    Barrier = 7,
    /// Inference-side query execution: cache lookups, lazy final-layer
    /// re-aggregation on a stale row, and the batched dense layer.
    ServeQuery = 8,
    /// Inference-side graph-delta application: structural updates plus
    /// eager hidden-layer re-aggregation of the dirty set.
    ServeDelta = 9,
}

/// Number of [`Phase`] variants; sizes the per-phase atomic arrays.
pub const PHASE_COUNT: usize = 10;

/// All phases, in discriminant order (indexable by `phase as usize`).
pub const PHASES: [Phase; PHASE_COUNT] = [
    Phase::Forward,
    Phase::Backward,
    Phase::Aggregate,
    Phase::CommSend,
    Phase::CommWait,
    Phase::Optimizer,
    Phase::Checkpoint,
    Phase::Barrier,
    Phase::ServeQuery,
    Phase::ServeDelta,
];

/// Coarse grouping used by the end-of-run breakdown table and the paper's
/// compute/comm/idle figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    Compute,
    Comm,
    Idle,
    Io,
}

impl Phase {
    /// Stable display name (also the Chrome-trace event name).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Forward => "forward",
            Phase::Backward => "backward",
            Phase::Aggregate => "aggregate",
            Phase::CommSend => "comm_send",
            Phase::CommWait => "comm_wait",
            Phase::Optimizer => "optimizer",
            Phase::Checkpoint => "checkpoint",
            Phase::Barrier => "barrier",
            Phase::ServeQuery => "serve_query",
            Phase::ServeDelta => "serve_delta",
        }
    }

    pub const fn kind(self) -> PhaseKind {
        match self {
            Phase::Forward
            | Phase::Backward
            | Phase::Aggregate
            | Phase::Optimizer
            | Phase::ServeQuery
            | Phase::ServeDelta => PhaseKind::Compute,
            Phase::CommSend | Phase::CommWait => PhaseKind::Comm,
            Phase::Barrier => PhaseKind::Idle,
            Phase::Checkpoint => PhaseKind::Io,
        }
    }

    pub const fn from_index(i: usize) -> Option<Phase> {
        if i < PHASE_COUNT {
            Some(PHASES[i])
        } else {
            None
        }
    }
}

/// One recorder per rank, shared with the cluster threads via `Arc`.
///
/// The hub is created before `Cluster::run_with` and read after
/// the run returns; the recorders themselves are `&self`-only (all-atomic),
/// so the same `Arc` is cloned into each rank closure.
pub struct TelemetryHub {
    ranks: Vec<Arc<Recorder>>,
}

impl TelemetryHub {
    /// A hub with `num_ranks` enabled recorders, all sharing `cfg` and a
    /// single monotonic origin (so cross-rank timestamps line up in the
    /// exported trace).
    pub fn new(num_ranks: usize, cfg: RecorderConfig) -> Self {
        let origin = Instant::now();
        TelemetryHub {
            ranks: (0..num_ranks)
                .map(|_| Arc::new(Recorder::with_origin(origin, cfg)))
                .collect(),
        }
    }

    /// A hub whose recorders are all disabled: every instrumentation call
    /// reduces to a single branch, and exporters see no data.
    pub fn disabled(num_ranks: usize) -> Self {
        TelemetryHub {
            ranks: (0..num_ranks).map(|_| Arc::new(Recorder::disabled())).collect(),
        }
    }

    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    pub fn rank(&self, r: usize) -> &Arc<Recorder> {
        &self.ranks[r]
    }

    pub fn recorders(&self) -> &[Arc<Recorder>] {
        &self.ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_roundtrip() {
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert_eq!(Phase::from_index(i), Some(*p));
        }
        assert_eq!(Phase::from_index(PHASE_COUNT), None);
    }

    #[test]
    fn phase_kinds_cover_paper_breakdown() {
        assert_eq!(Phase::Forward.kind(), PhaseKind::Compute);
        assert_eq!(Phase::CommWait.kind(), PhaseKind::Comm);
        assert_eq!(Phase::Barrier.kind(), PhaseKind::Idle);
        assert_eq!(Phase::Checkpoint.kind(), PhaseKind::Io);
    }
}
