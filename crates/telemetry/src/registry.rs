//! Typed end-of-run metrics registry.
//!
//! The stack accumulates counters in several places while training runs —
//! `CommStats` inside the cluster, kernel flop/byte estimates, replay
//! accounting in the recovery supervisor, drop counters inside each
//! [`Recorder`](crate::Recorder). The registry is where they all land
//! after the run, behind one typed API, so exporters and benchmarks have
//! a single source of truth. It is plain (non-atomic) data: it is built
//! once the cluster threads have joined, never on the hot path.

use crate::recorder::EpochPhases;
use crate::{Recorder, PHASE_COUNT};

/// Every scalar the stack knows how to report, per rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Metric {
    // Comm volume (from `CommStats`).
    BytesSent = 0,
    BytesReceived = 1,
    MessagesSent = 2,
    // Fault-injection accounting.
    MessagesDropped = 3,
    MessagesDelayed = 4,
    MessagesReordered = 5,
    SendsStalled = 6,
    // Retry policy.
    RetriesAttempted = 7,
    BackoffBarriers = 8,
    // cd-r staleness.
    MaxStaleness = 9,
    StalenessViolations = 10,
    // Recorder health.
    EventsDropped = 11,
    // Kernel cost model (estimates; see `distgnn-kernels::cost`).
    KernelFlops = 12,
    KernelBytes = 13,
    // Recovery supervisor.
    Restarts = 14,
    EpochsReplayed = 15,
    // Handle-based collectives: the cd-0 clone-sync exchanges posted
    // to the progress engine (zero for `0c` and `cd-r`).
    HandleOpsPosted = 16,
    HandleOpsCompleted = 17,
    // Compressed communication: pre-codec (logical) byte volumes; the
    // plain BytesSent/BytesReceived report what crossed the wire.
    LogicalBytesSent = 18,
    LogicalBytesReceived = 19,
    // Elastic membership: crashed-rank shards adopted by survivors and
    // checkpointed in-flight messages dropped at restore for carrying a
    // dead generation's stamp.
    Adoptions = 20,
    StaleGenerationDropped = 21,
    // Serving (the `distgnn-serve` query engine).
    QueriesServed = 22,
    QueryBatches = 23,
    /// Final-layer aggregation-cache hits: queries answered from a row
    /// whose cached aggregate was still current.
    ServeCacheHits = 24,
    /// Queries that found a delta-invalidated row and re-aggregated it
    /// lazily before answering.
    ServeCacheMisses = 25,
    DeltasApplied = 26,
    /// Cached rows recomputed by the incremental re-aggregation engine
    /// (eager hidden-layer rows plus lazy final-layer rows).
    RowsReaggregated = 27,
}

/// Number of [`Metric`] variants.
pub const METRIC_COUNT: usize = 28;

/// All metrics, in discriminant order.
pub const METRICS: [Metric; METRIC_COUNT] = [
    Metric::BytesSent,
    Metric::BytesReceived,
    Metric::MessagesSent,
    Metric::MessagesDropped,
    Metric::MessagesDelayed,
    Metric::MessagesReordered,
    Metric::SendsStalled,
    Metric::RetriesAttempted,
    Metric::BackoffBarriers,
    Metric::MaxStaleness,
    Metric::StalenessViolations,
    Metric::EventsDropped,
    Metric::KernelFlops,
    Metric::KernelBytes,
    Metric::Restarts,
    Metric::EpochsReplayed,
    Metric::HandleOpsPosted,
    Metric::HandleOpsCompleted,
    Metric::LogicalBytesSent,
    Metric::LogicalBytesReceived,
    Metric::Adoptions,
    Metric::StaleGenerationDropped,
    Metric::QueriesServed,
    Metric::QueryBatches,
    Metric::ServeCacheHits,
    Metric::ServeCacheMisses,
    Metric::DeltasApplied,
    Metric::RowsReaggregated,
];

impl Metric {
    /// Stable snake_case key used in the metrics JSON.
    pub const fn name(self) -> &'static str {
        match self {
            Metric::BytesSent => "bytes_sent",
            Metric::BytesReceived => "bytes_received",
            Metric::MessagesSent => "messages_sent",
            Metric::MessagesDropped => "messages_dropped",
            Metric::MessagesDelayed => "messages_delayed",
            Metric::MessagesReordered => "messages_reordered",
            Metric::SendsStalled => "sends_stalled",
            Metric::RetriesAttempted => "retries_attempted",
            Metric::BackoffBarriers => "backoff_barriers",
            Metric::MaxStaleness => "max_staleness",
            Metric::StalenessViolations => "staleness_violations",
            Metric::EventsDropped => "events_dropped",
            Metric::KernelFlops => "kernel_flops",
            Metric::KernelBytes => "kernel_bytes",
            Metric::Restarts => "restarts",
            Metric::EpochsReplayed => "epochs_replayed",
            Metric::HandleOpsPosted => "handle_ops_posted",
            Metric::HandleOpsCompleted => "handle_ops_completed",
            Metric::LogicalBytesSent => "logical_bytes_sent",
            Metric::LogicalBytesReceived => "logical_bytes_received",
            Metric::Adoptions => "adoptions",
            Metric::StaleGenerationDropped => "stale_generation_dropped",
            Metric::QueriesServed => "queries_served",
            Metric::QueryBatches => "query_batches",
            Metric::ServeCacheHits => "serve_cache_hits",
            Metric::ServeCacheMisses => "serve_cache_misses",
            Metric::DeltasApplied => "deltas_applied",
            Metric::RowsReaggregated => "rows_reaggregated",
        }
    }

    /// Whether cross-rank aggregation should take the max instead of the
    /// sum (true for high-water marks).
    pub const fn aggregate_by_max(self) -> bool {
        matches!(self, Metric::MaxStaleness)
    }
}

/// All metrics for one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankMetrics {
    values: [u64; METRIC_COUNT],
    /// Staleness-age histogram (bucket = age in epochs, last saturates).
    pub stale_hist: Vec<u64>,
    /// Exclusive per-phase totals, ns (from the rank's recorder).
    pub phase_ns: [u64; PHASE_COUNT],
    /// Completed span count per phase.
    pub phase_counts: [u64; PHASE_COUNT],
    /// Per-epoch phase snapshots.
    pub epochs: Vec<EpochPhases>,
}

impl RankMetrics {
    pub fn get(&self, m: Metric) -> u64 {
        self.values[m as usize]
    }

    pub fn set(&mut self, m: Metric, v: u64) {
        self.values[m as usize] = v;
    }

    pub fn add(&mut self, m: Metric, v: u64) {
        self.values[m as usize] += v;
    }

    /// Wall time across recorded epochs, ns.
    pub fn wall_ns(&self) -> u64 {
        self.epochs.iter().map(|e| e.wall_ns).sum()
    }
}

/// Per-rank metrics for one training run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    ranks: Vec<RankMetrics>,
}

impl MetricsRegistry {
    pub fn new(num_ranks: usize) -> Self {
        MetricsRegistry { ranks: vec![RankMetrics::default(); num_ranks] }
    }

    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    pub fn rank(&self, r: usize) -> &RankMetrics {
        &self.ranks[r]
    }

    pub fn rank_mut(&mut self, r: usize) -> &mut RankMetrics {
        &mut self.ranks[r]
    }

    pub fn ranks(&self) -> &[RankMetrics] {
        &self.ranks
    }

    /// Cross-rank aggregate: sum, or max for high-water metrics.
    pub fn total(&self, m: Metric) -> u64 {
        if m.aggregate_by_max() {
            self.ranks.iter().map(|r| r.get(m)).max().unwrap_or(0)
        } else {
            self.ranks.iter().map(|r| r.get(m)).sum()
        }
    }

    /// Element-wise sum of the per-rank staleness histograms.
    pub fn total_stale_hist(&self) -> Vec<u64> {
        let len = self.ranks.iter().map(|r| r.stale_hist.len()).max().unwrap_or(0);
        let mut out = vec![0u64; len];
        for r in &self.ranks {
            for (dst, src) in out.iter_mut().zip(&r.stale_hist) {
                *dst += src;
            }
        }
        out
    }

    /// Pull phase totals, counts, per-epoch snapshots, and the drop
    /// counter out of rank `r`'s recorder.
    pub fn absorb_recorder(&mut self, r: usize, rec: &Recorder) {
        let rank = &mut self.ranks[r];
        rank.phase_ns = rec.phase_ns();
        rank.phase_counts = rec.phase_counts();
        rank.epochs = rec.epochs();
        rank.set(Metric::EventsDropped, rec.events_dropped() + rec.epochs_dropped());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderConfig;
    use crate::Phase;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<_> = METRICS.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRIC_COUNT);
        for (i, m) in METRICS.iter().enumerate() {
            assert_eq!(*m as usize, i);
        }
    }

    #[test]
    fn totals_sum_except_high_water() {
        let mut reg = MetricsRegistry::new(3);
        for (r, v) in [(0usize, 10u64), (1, 20), (2, 5)] {
            reg.rank_mut(r).set(Metric::BytesSent, v);
            reg.rank_mut(r).set(Metric::MaxStaleness, v);
        }
        assert_eq!(reg.total(Metric::BytesSent), 35);
        assert_eq!(reg.total(Metric::MaxStaleness), 20);
    }

    #[test]
    fn histograms_sum_elementwise() {
        let mut reg = MetricsRegistry::new(2);
        reg.rank_mut(0).stale_hist = vec![1, 2, 3];
        reg.rank_mut(1).stale_hist = vec![4, 0, 1, 9];
        assert_eq!(reg.total_stale_hist(), vec![5, 2, 4, 9]);
    }

    #[test]
    fn absorbs_recorder_state() {
        let rec = Recorder::new(RecorderConfig { event_capacity: 2, epoch_capacity: 8 });
        for e in 0..2 {
            let _s = rec.scope(Phase::Forward);
            drop(_s);
            rec.end_epoch(e);
        }
        let mut reg = MetricsRegistry::new(1);
        reg.absorb_recorder(0, &rec);
        let r = reg.rank(0);
        assert_eq!(r.phase_counts[Phase::Forward as usize], 2);
        assert_eq!(r.epochs.len(), 2);
        assert!(r.get(Metric::EventsDropped) > 0, "tiny buffer must have dropped");
    }
}
