//! Per-rank communication accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets in the staleness histogram: exact counts for ages
/// `0..STALE_BUCKETS-1`, the last bucket saturates.
pub const STALE_BUCKETS: usize = 32;

/// Byte and message counters for one rank. All methods are thread-safe;
/// the cluster shares one `CommStats` per rank across collectives.
#[derive(Debug, Default)]
pub struct CommStats {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    messages_sent: AtomicU64,
    // Pre-codec payload sizes: equal to the wire counters above when
    // no `WireCodec` is active, larger under a lossy codec. The
    // logical/wire ratio is the achieved compression factor.
    logical_bytes_sent: AtomicU64,
    logical_bytes_received: AtomicU64,
    // Fault-injection accounting (all zero without a FaultPlan).
    messages_dropped: AtomicU64,
    messages_delayed: AtomicU64,
    messages_reordered: AtomicU64,
    sends_stalled: AtomicU64,
    // Checkpointed in-flight messages dropped at restore because they
    // were stamped with a different membership generation (elastic
    // resize / rank adoption).
    stale_generation_dropped: AtomicU64,
    // Retry-policy accounting (zero unless a RetryPolicy fires).
    retries_attempted: AtomicU64,
    backoff_barriers: AtomicU64,
    // cd-r staleness accounting (epochs of age of consumed remote
    // partials, recorded by the DRPA layer).
    max_staleness: AtomicU64,
    staleness_violations: AtomicU64,
    stale_hist: [AtomicU64; STALE_BUCKETS],
    // Handle-based collectives (the cd-0 clone-sync exchanges).
    handle_ops_posted: AtomicU64,
    handle_ops_completed: AtomicU64,
}

impl CommStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_send(&self, bytes: u64) {
        self.record_send_coded(bytes, bytes);
    }

    pub fn record_recv(&self, bytes: u64) {
        self.record_recv_coded(bytes, bytes);
    }

    /// A send whose payload was codec-compressed: `wire` bytes moved,
    /// `logical` bytes of pre-codec payload represented.
    pub fn record_send_coded(&self, wire: u64, logical: u64) {
        self.bytes_sent.fetch_add(wire, Ordering::Relaxed);
        self.logical_bytes_sent.fetch_add(logical, Ordering::Relaxed);
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// A receive of a codec-compressed payload (see
    /// [`CommStats::record_send_coded`]).
    pub fn record_recv_coded(&self, wire: u64, logical: u64) {
        self.bytes_received.fetch_add(wire, Ordering::Relaxed);
        self.logical_bytes_received.fetch_add(logical, Ordering::Relaxed);
    }

    /// Corrects the logical-sent counter for a payload compressed
    /// *before* entering a generic collective (which recorded
    /// `logical = wire` because it only sees the encoded words):
    /// replaces the `wire` contribution with `logical`. Wrapping
    /// arithmetic keeps this exact even when a pathological tiny
    /// payload encodes *larger* than its logical size.
    pub fn adjust_logical_sent(&self, wire: u64, logical: u64) {
        self.logical_bytes_sent.fetch_add(logical.wrapping_sub(wire), Ordering::Relaxed);
    }

    /// Receive-side counterpart of [`CommStats::adjust_logical_sent`].
    pub fn adjust_logical_received(&self, wire: u64, logical: u64) {
        self.logical_bytes_received.fetch_add(logical.wrapping_sub(wire), Ordering::Relaxed);
    }

    /// A message of this rank's vanished in flight (drop fault).
    pub fn record_dropped(&self) {
        self.messages_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// A message of this rank's was delivered late (delay fault).
    pub fn record_delayed(&self) {
        self.messages_delayed.fetch_add(1, Ordering::Relaxed);
    }

    /// A message of this rank's was overtaken by its successor
    /// (reorder fault).
    pub fn record_reordered(&self) {
        self.messages_reordered.fetch_add(1, Ordering::Relaxed);
    }

    /// A send was suppressed because this rank is stalled.
    pub fn record_stalled_send(&self) {
        self.sends_stalled.fetch_add(1, Ordering::Relaxed);
    }

    /// A restored in-flight message carried another membership
    /// generation's stamp and was dropped instead of re-posted.
    pub fn record_stale_generation_dropped(&self) {
        self.stale_generation_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// A retry round fired, waiting `backoff` barriers before the
    /// re-check (see `retry::RetryPolicy`).
    pub fn record_retry(&self, backoff: u64) {
        self.retries_attempted.fetch_add(1, Ordering::Relaxed);
        self.backoff_barriers.fetch_add(backoff, Ordering::Relaxed);
    }

    /// Records the age (in epochs) of a consumed remote partial; ages
    /// above `bound` count as staleness violations. The DRPA layer
    /// calls this with `bound = 2r` (Alg. 4's worst-case freshness).
    pub fn record_staleness(&self, age: u64, bound: u64) {
        self.max_staleness.fetch_max(age, Ordering::Relaxed);
        let bucket = (age as usize).min(STALE_BUCKETS - 1);
        self.stale_hist[bucket].fetch_add(1, Ordering::Relaxed);
        if age > bound {
            self.staleness_violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A handle-based collective was posted.
    pub fn record_handle_posted(&self) {
        self.handle_ops_posted.fetch_add(1, Ordering::Relaxed);
    }

    /// A handle-based collective completed at its wait point.
    pub fn record_handle_completed(&self) {
        self.handle_ops_completed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Plain-data snapshot for reporting.
    pub fn snapshot(&self) -> CommSnapshot {
        let mut stale_hist = [0u64; STALE_BUCKETS];
        for (dst, src) in stale_hist.iter_mut().zip(&self.stale_hist) {
            *dst = src.load(Ordering::Relaxed);
        }
        CommSnapshot {
            bytes_sent: self.bytes_sent(),
            bytes_received: self.bytes_received(),
            messages_sent: self.messages_sent(),
            logical_bytes_sent: self.logical_bytes_sent.load(Ordering::Relaxed),
            logical_bytes_received: self.logical_bytes_received.load(Ordering::Relaxed),
            messages_dropped: self.messages_dropped.load(Ordering::Relaxed),
            messages_delayed: self.messages_delayed.load(Ordering::Relaxed),
            messages_reordered: self.messages_reordered.load(Ordering::Relaxed),
            sends_stalled: self.sends_stalled.load(Ordering::Relaxed),
            stale_generation_dropped: self.stale_generation_dropped.load(Ordering::Relaxed),
            retries_attempted: self.retries_attempted.load(Ordering::Relaxed),
            backoff_barriers: self.backoff_barriers.load(Ordering::Relaxed),
            max_staleness: self.max_staleness.load(Ordering::Relaxed),
            staleness_violations: self.staleness_violations.load(Ordering::Relaxed),
            stale_hist,
            handle_ops_posted: self.handle_ops_posted.load(Ordering::Relaxed),
            handle_ops_completed: self.handle_ops_completed.load(Ordering::Relaxed),
        }
    }
}

/// Copyable snapshot of [`CommStats`]. `Eq` is deliberate: the chaos
/// test suite asserts that two runs under the same seeded `FaultPlan`
/// produce bit-identical snapshots (determinism proof).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommSnapshot {
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub messages_sent: u64,
    /// Pre-codec payload bytes this rank's sends represented; equals
    /// `bytes_sent` when no codec is active.
    pub logical_bytes_sent: u64,
    /// Pre-codec payload bytes this rank's receives represented.
    pub logical_bytes_received: u64,
    pub messages_dropped: u64,
    pub messages_delayed: u64,
    pub messages_reordered: u64,
    pub sends_stalled: u64,
    /// Restored in-flight messages dropped for carrying a different
    /// membership generation's stamp.
    pub stale_generation_dropped: u64,
    /// Retry rounds fired by a `RetryPolicy` before giving up or
    /// succeeding.
    pub retries_attempted: u64,
    /// Barriers spent backing off across all retry rounds.
    pub backoff_barriers: u64,
    /// Maximum age (epochs) of any consumed remote partial aggregate.
    pub max_staleness: u64,
    /// Consumed partials older than the schedule's freshness bound.
    pub staleness_violations: u64,
    /// Histogram of consumed-partial ages; last bucket saturates.
    pub stale_hist: [u64; STALE_BUCKETS],
    /// Handle-based collectives posted: the cd-0 clone-sync exchanges.
    /// Counts only, no wall-clock fields, so seeded runs still produce
    /// equal snapshots.
    pub handle_ops_posted: u64,
    /// Handles retired at their wait point.
    pub handle_ops_completed: u64,
}

impl CommSnapshot {
    /// Total consumed remote partials (histogram mass).
    pub fn staleness_samples(&self) -> u64 {
        self.stale_hist.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = CommStats::new();
        s.record_send(100);
        s.record_send(50);
        s.record_recv(70);
        assert_eq!(s.bytes_sent(), 150);
        assert_eq!(s.bytes_received(), 70);
        assert_eq!(s.messages_sent(), 2);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_sent, 150);
        // Uncompressed traffic: logical == wire.
        assert_eq!(snap.logical_bytes_sent, 150);
        assert_eq!(snap.logical_bytes_received, 70);
    }

    #[test]
    fn coded_counters_separate_wire_from_logical() {
        let s = CommStats::new();
        s.record_send_coded(25, 100);
        s.record_recv_coded(25, 100);
        s.record_send(10);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_sent, 35);
        assert_eq!(snap.logical_bytes_sent, 110);
        assert_eq!(snap.bytes_received, 25);
        assert_eq!(snap.logical_bytes_received, 100);
        assert_eq!(snap.messages_sent, 2);
    }

    #[test]
    fn logical_adjustment_replaces_wire_contribution() {
        let s = CommStats::new();
        // A generic collective recorded the encoded payload as-is...
        s.record_send(40);
        s.record_recv(40);
        // ...then the codec layer reports the pre-codec size.
        s.adjust_logical_sent(40, 160);
        s.adjust_logical_received(40, 160);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_sent, 40);
        assert_eq!(snap.logical_bytes_sent, 160);
        assert_eq!(snap.logical_bytes_received, 160);
        // Wrapping math stays exact when the encoding expanded.
        s.record_send(8);
        s.adjust_logical_sent(8, 4);
        assert_eq!(s.snapshot().logical_bytes_sent, 164);
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let s = CommStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.record_send(1);
                    }
                });
            }
        });
        assert_eq!(s.bytes_sent(), 8000);
        assert_eq!(s.messages_sent(), 8000);
    }

    #[test]
    fn fault_counters_flow_into_snapshot() {
        let s = CommStats::new();
        s.record_dropped();
        s.record_delayed();
        s.record_delayed();
        s.record_reordered();
        s.record_stalled_send();
        s.record_retry(1);
        s.record_retry(2);
        let snap = s.snapshot();
        assert_eq!(snap.messages_dropped, 1);
        assert_eq!(snap.messages_delayed, 2);
        assert_eq!(snap.messages_reordered, 1);
        assert_eq!(snap.sends_stalled, 1);
        assert_eq!(snap.retries_attempted, 2);
        assert_eq!(snap.backoff_barriers, 3);
    }

    #[test]
    fn staleness_tracks_max_hist_and_violations() {
        let s = CommStats::new();
        s.record_staleness(2, 4);
        s.record_staleness(4, 4);
        s.record_staleness(7, 4);
        s.record_staleness(500, 4);
        let snap = s.snapshot();
        assert_eq!(snap.max_staleness, 500);
        assert_eq!(snap.staleness_violations, 2);
        assert_eq!(snap.stale_hist[2], 1);
        assert_eq!(snap.stale_hist[4], 1);
        assert_eq!(snap.stale_hist[7], 1);
        assert_eq!(snap.stale_hist[STALE_BUCKETS - 1], 1);
        assert_eq!(snap.staleness_samples(), 4);
    }

    #[test]
    fn handle_counters_flow_into_snapshot() {
        let s = CommStats::new();
        s.record_handle_posted();
        s.record_handle_posted();
        s.record_handle_completed();
        let snap = s.snapshot();
        assert_eq!(snap.handle_ops_posted, 2);
        assert_eq!(snap.handle_ops_completed, 1);
    }

    #[test]
    fn snapshots_compare_bit_identical() {
        let a = CommStats::new();
        let b = CommStats::new();
        for s in [&a, &b] {
            s.record_send(8);
            s.record_staleness(3, 4);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        b.record_dropped();
        assert_ne!(a.snapshot(), b.snapshot());
    }
}
