//! Thread-per-rank SPMD cluster with collectives, tagged mailboxes and
//! deterministic fault injection.
//!
//! Every send/recv consults the run's [`FaultPlan`] (a no-op branch
//! when the plan is empty). Faults surface as typed [`CommError`]s
//! rather than panics, so the training layers can abort cleanly: a
//! missing AlltoAllv payload triggers a *collective* abort — all ranks
//! return `Err` from the same call, keeping their barrier sequences
//! aligned (an asymmetric early return would deadlock the next
//! barrier).

use crate::codec::{ErrorFeedback, WireCodec};
use crate::faults::FaultPlan;
use crate::progress::{ProgressEngine, ProgressMode};
use crate::retry::RetryPolicy;
use crate::stats::{CommSnapshot, CommStats};
use distgnn_telemetry::{Phase, Recorder, TraceCounter};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Typed communication failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A payload that must be present (collective slot or demanded
    /// tagged message) never arrived at `dst`.
    MissingPayload { src: usize, dst: usize },
    /// A peer observed a failure and the collective aborted; this rank
    /// itself saw nothing missing.
    PeerAborted,
    /// A rank fail-stopped (crash fault); every rank observes the same
    /// error at its epoch-start poll.
    RankCrashed { rank: usize },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::MissingPayload { src, dst } => {
                write!(f, "payload from rank {src} never arrived at rank {dst}")
            }
            CommError::PeerAborted => write!(f, "a peer aborted the collective"),
            CommError::RankCrashed { rank } => {
                write!(f, "rank {rank} crashed (fail-stop)")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// One in-flight AlltoAll payload slot. Like the tagged mailboxes, a
/// deposited payload carries the barrier count from which the receiver
/// may see it, so a delay fault withholds the payload until the clock
/// passes — the window a `RetryPolicy` can bridge.
type XchgSlot = Mutex<Option<Msg>>;

/// A tagged message in flight; `available_at` is the receiver-side
/// barrier count from which it is visible (0 = immediately, the
/// fault-free fast path).
struct Msg {
    payload: Vec<f32>,
    available_at: u64,
}

/// One rank's tagged mailbox: tag -> message.
type Mailbox = Mutex<HashMap<u64, Msg>>;

/// A link's reorder hold slot: the (tag, message) pair a reorder fault
/// parked until the next send on the same link overtakes it.
type HeldSlot = Mutex<Option<(u64, Msg)>>;

/// Mutable fault-injection state for one run.
struct FaultRuntime {
    plan: FaultPlan,
    /// Per-link monotone message counters `[src][dst]`; only the src
    /// rank's thread bumps a counter, so the sequence each decision
    /// hashes over is deterministic under any scheduling.
    counters: Vec<Vec<AtomicU64>>,
    /// Per-link hold slot for reorder faults: a held message is
    /// released when the next send on the link overtakes it.
    held: Vec<Vec<HeldSlot>>,
    /// Collective-abort flags, one per rank.
    abort: Vec<AtomicBool>,
}

impl FaultRuntime {
    fn new(plan: FaultPlan, size: usize) -> Self {
        FaultRuntime {
            plan,
            counters: (0..size)
                .map(|_| (0..size).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            held: (0..size)
                .map(|_| (0..size).map(|_| Mutex::new(None)).collect())
                .collect(),
            abort: (0..size).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

/// Shared state of one cluster run.
struct Shared {
    size: usize,
    barrier: Barrier,
    /// AlltoAll staging: `xchg[src][dst]` holds the in-flight payload.
    xchg: Vec<Vec<XchgSlot>>,
    /// AllReduce staging: one contribution slot per rank.
    reduce: Vec<Mutex<Vec<f32>>>,
    /// Tagged async mailboxes, `tagged[src][dst]`.
    tagged: Vec<Vec<Mailbox>>,
    stats: Vec<CommStats>,
    /// Handle-based async collectives (see [`crate::progress`]).
    progress: ProgressEngine,
    /// `None` unless the run injects faults (zero-overhead fast path).
    faults: Option<FaultRuntime>,
    /// One phase recorder per rank. Disabled recorders (the default)
    /// reduce every instrumentation call to a branch, mirroring the
    /// fault fast path.
    telemetry: Vec<Arc<Recorder>>,
    /// Membership generation of this world. Stamped on exported outbox
    /// messages; restoring a message from another generation drops it,
    /// so a shrunk or resized world never mixes traffic with the old
    /// one.
    generation: u64,
}

impl Shared {
    fn new(
        size: usize,
        plan: &FaultPlan,
        telemetry: Option<&[Arc<Recorder>]>,
        generation: u64,
    ) -> Self {
        let telemetry = match telemetry {
            Some(recs) => {
                assert_eq!(recs.len(), size, "need one recorder per rank");
                recs.to_vec()
            }
            None => (0..size).map(|_| Arc::new(Recorder::disabled())).collect(),
        };
        Shared {
            size,
            barrier: Barrier::new(size),
            xchg: (0..size)
                .map(|_| (0..size).map(|_| Mutex::new(None)).collect())
                .collect(),
            reduce: (0..size).map(|_| Mutex::new(Vec::new())).collect(),
            tagged: (0..size)
                .map(|_| (0..size).map(|_| Mutex::new(HashMap::new())).collect())
                .collect(),
            stats: (0..size).map(|_| CommStats::new()).collect(),
            progress: ProgressEngine::new(size),
            faults: if plan.is_none() {
                None
            } else {
                Some(FaultRuntime::new(plan.clone(), size))
            },
            telemetry,
            generation,
        }
    }
}

/// The SPMD entry point.
pub struct Cluster;

impl Cluster {
    /// Runs `f` on `num_ranks` concurrent ranks and returns their
    /// results in rank order. Panics in any rank propagate.
    pub fn run<F, R>(num_ranks: usize, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Sync,
        R: Send,
    {
        Self::run_with(num_ranks, &FaultPlan::none(), None, 0, f).0
    }

    /// The general form of [`Cluster::run`]: also returns the per-rank
    /// communication snapshots, and takes
    ///
    /// - `plan`, a fault-injection scenario. With the same `plan` (same
    ///   seed) and the same SPMD program, two runs produce bit-identical
    ///   fault patterns and [`CommSnapshot`]s;
    /// - `recorders`, one phase [`Recorder`] per rank (`None` disables
    ///   recording). The collectives attribute their time to
    ///   `CommSend`/`CommWait`/`Barrier` spans and tick retry counters.
    ///   Recording is pure observation — payloads, barrier sequences and
    ///   [`CommSnapshot`]s are bit-identical to an uninstrumented run;
    /// - `generation`, the membership generation (0 for a fresh world).
    ///   Elastic resumes and post-adoption worlds run under a new one so
    ///   exported comm state is stamped with it and restores drop any
    ///   older generation's traffic.
    pub fn run_with<F, R>(
        num_ranks: usize,
        plan: &FaultPlan,
        recorders: Option<&[Arc<Recorder>]>,
        generation: u64,
        f: F,
    ) -> (Vec<R>, Vec<CommSnapshot>)
    where
        F: Fn(&mut RankCtx) -> R + Sync,
        R: Send,
    {
        assert!(num_ranks >= 1, "need at least one rank");
        let shared = Shared::new(num_ranks, plan, recorders, generation);
        let mut results: Vec<Option<R>> = (0..num_ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(num_ranks);
            for (rank, slot) in results.iter_mut().enumerate() {
                let shared = &shared;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        shared,
                        barriers: Cell::new(0),
                        epoch: Cell::new(0),
                        ar_seq: Cell::new(0),
                        progress_mode: Cell::new(ProgressMode::Polled),
                    };
                    *slot = Some(f(&mut ctx));
                }));
            }
            for h in handles {
                h.join().expect("rank panicked");
            }
        });
        let snaps = shared.stats.iter().map(CommStats::snapshot).collect();
        (
            results.into_iter().map(|r| r.expect("rank produced no result")).collect(),
            snaps,
        )
    }
}

/// Per-rank handle into the cluster.
pub struct RankCtx<'a> {
    rank: usize,
    shared: &'a Shared,
    /// Barriers this rank has crossed; ranks are lockstep, so matching
    /// program points see matching counts — the clock that delay
    /// faults are expressed in.
    barriers: Cell<u64>,
    /// Current training epoch (set by the trainer); the clock that
    /// stall faults are expressed in.
    epoch: Cell<u64>,
    /// Sequence counter for async AllReduce ops. Ranks run the same
    /// SPMD program, so sequence n names the same logical collective on
    /// every rank — the key the progress engine matches contributions
    /// under.
    ar_seq: Cell<u64>,
    /// How this rank progresses its async ops (see [`ProgressMode`]).
    progress_mode: Cell<ProgressMode>,
}

impl RankCtx<'_> {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Marks the current training epoch; [`FaultPlan`] stall rules are
    /// expressed in epochs.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.set(epoch);
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Barriers crossed by this rank so far.
    pub fn barriers_crossed(&self) -> u64 {
        self.barriers.get()
    }

    /// True when this rank is currently asleep under a stall fault.
    pub fn is_stalled(&self) -> bool {
        self.shared
            .faults
            .as_ref()
            .is_some_and(|f| f.plan.stalled(self.rank, self.epoch.get()))
    }

    /// This rank's phase recorder (disabled unless the run was started
    /// via [`Cluster::run_with`] with recorders). The training layers use
    /// this to scope their own compute phases onto the same timeline.
    pub fn telemetry(&self) -> &Recorder {
        &self.shared.telemetry[self.rank]
    }

    /// Blocks until every rank reaches the barrier. Rendezvous time is
    /// recorded as [`Phase::Barrier`] (the "idle" bucket of the paper's
    /// compute/comm/idle breakdown).
    pub fn barrier(&self) {
        let _s = self.telemetry().scope(Phase::Barrier);
        self.shared.barrier.wait();
        self.barriers.set(self.barriers.get() + 1);
    }

    /// Records the age of a consumed remote partial into this rank's
    /// stats (see [`CommStats::record_staleness`]).
    pub fn record_staleness(&self, age: u64, bound: u64) {
        self.shared.stats[self.rank].record_staleness(age, bound);
    }

    /// Element-wise sum-AllReduce: after the call, `buf` on every rank
    /// holds the sum of all ranks' inputs. Assumed reliable — fault
    /// rules do not apply (see the fault model in `faults.rs`).
    ///
    /// # Panics
    /// Panics if buffers disagree in length across ranks.
    pub fn all_reduce_sum(&self, buf: &mut [f32]) {
        let k = self.size();
        if k == 1 {
            return;
        }
        let wire = (buf.len() * 4) as u64;
        {
            let _s = self.telemetry().scope(Phase::CommSend);
            *self.shared.reduce[self.rank].lock() = buf.to_vec();
            // Ring-equivalent volume: each rank ships its buffer once.
            self.shared.stats[self.rank].record_send(wire);
        }
        let _w = self.telemetry().scope(Phase::CommWait);
        self.barrier();
        // Accumulate in ascending rank order on every rank, so all
        // replicas see bit-identical sums (fp addition is order
        // sensitive; divergent orders would desynchronize the models).
        buf.iter_mut().for_each(|b| *b = 0.0);
        for (r, slot) in self.shared.reduce.iter().enumerate() {
            let other = slot.lock();
            assert_eq!(other.len(), buf.len(), "all_reduce_sum length mismatch");
            for (b, o) in buf.iter_mut().zip(other.iter()) {
                *b += o;
            }
            if r != self.rank {
                self.shared.stats[self.rank].record_recv(wire);
            }
        }
        self.barrier();
    }

    /// [`RankCtx::all_reduce_sum`] through a [`WireCodec`] with
    /// per-rank error feedback: each rank contributes
    /// `x̂ = dec(enc(buf + residual))` and carries `residual' = x − x̂`
    /// into its next round, so lossy rounds delay gradient mass instead
    /// of destroying it.
    ///
    /// The simulated cluster deposits the *decoded* contribution
    /// directly: decoding is deterministic, so receiver-side decode of
    /// the encoded words would produce bit-identical values, and the
    /// wire length is a pure function of the logical length — byte
    /// accounting uses the encoded size ([`CommStats::record_send_coded`])
    /// while the reduce slots stay plain f32, leaving the reduction
    /// order (and thus bit-determinism across ranks) untouched.
    ///
    /// `WireCodec::None` delegates to the uncompressed path verbatim,
    /// so `--compress none` is bit-identical in trajectory *and*
    /// accounting.
    pub fn all_reduce_sum_compressed(
        &self,
        buf: &mut [f32],
        codec: &WireCodec,
        ef: &mut ErrorFeedback,
    ) {
        if codec.is_identity() {
            return self.all_reduce_sum(buf);
        }
        let k = self.size();
        if k == 1 {
            // Nothing crosses a wire: stay exact, like the
            // uncompressed single-rank short circuit.
            return;
        }
        let logical = (buf.len() * 4) as u64;
        let (xhat, wire_words) = ef.compress(codec, buf);
        let wire = (wire_words * 4) as u64;
        {
            let _s = self.telemetry().scope(Phase::CommSend);
            *self.shared.reduce[self.rank].lock() = xhat.to_vec();
            self.shared.stats[self.rank].record_send_coded(wire, logical);
        }
        let _w = self.telemetry().scope(Phase::CommWait);
        self.barrier();
        // Ascending rank order, exactly like the uncompressed path.
        buf.iter_mut().for_each(|b| *b = 0.0);
        for (r, slot) in self.shared.reduce.iter().enumerate() {
            let other = slot.lock();
            assert_eq!(other.len(), buf.len(), "all_reduce_sum length mismatch");
            for (b, o) in buf.iter_mut().zip(other.iter()) {
                *b += o;
            }
            if r != self.rank {
                self.shared.stats[self.rank].record_recv_coded(wire, logical);
            }
        }
        self.barrier();
    }

    /// Replaces the logical-sent accounting of one already-recorded
    /// send whose payload was codec-encoded *before* entering a generic
    /// collective (which saw only the encoded words). See
    /// [`CommStats::adjust_logical_sent`].
    pub fn note_coded_sent(&self, wire_bytes: u64, logical_bytes: u64) {
        self.shared.stats[self.rank].adjust_logical_sent(wire_bytes, logical_bytes);
    }

    /// Receive-side counterpart of [`RankCtx::note_coded_sent`].
    pub fn note_coded_received(&self, wire_bytes: u64, logical_bytes: u64) {
        self.shared.stats[self.rank].adjust_logical_received(wire_bytes, logical_bytes);
    }

    /// True when the run's fault plan can silently affect *message*
    /// delivery (drops, delays, reorders, stalls). Crash-only plans
    /// report `false`: a crash aborts the epoch collectively and the
    /// run resumes from a checkpoint, so stateful codecs (delta
    /// mirrors) stay consistent. The DRPA layer uses this to fall back
    /// to stateless encoding where a silently lost delta would
    /// permanently desynchronize sender and receiver mirrors —
    /// mirroring the async-AlltoAllv fault fallback precedent.
    pub fn message_faults_armed(&self) -> bool {
        self.shared.faults.as_ref().is_some_and(|f| {
            !(f.plan.drops.is_empty()
                && f.plan.delays.is_empty()
                && f.plan.reorders.is_empty()
                && f.plan.stalls.is_empty())
        })
    }

    /// Variable AlltoAll: sends `outgoing[p]` to rank `p` and returns
    /// the payloads received from every rank (index = source rank; own
    /// slot is `outgoing[self]` passed through).
    ///
    /// Under fault injection, a dropped payload or a stalled sender
    /// surfaces as [`CommError::MissingPayload`] on the receivers and
    /// [`CommError::PeerAborted`] on everyone else: the abort is
    /// collective, every rank returns `Err` from the same call.
    /// Without a fault plan a missing payload (a protocol bug) still
    /// returns `Err` instead of panicking.
    ///
    /// # Panics
    /// Panics if `outgoing.len() != size`.
    pub fn all_to_all_v(&self, outgoing: Vec<Vec<f32>>) -> Result<Vec<Vec<f32>>, CommError> {
        self.all_to_all_v_retry(outgoing, &RetryPolicy::none())
    }

    /// [`RankCtx::all_to_all_v`] with a bounded-retry escalation ladder:
    /// when a payload is missing after the rendezvous, all ranks agree
    /// to step `policy.backoff(round)` extra barriers together and
    /// re-check — a delay-faulted payload becomes visible once the
    /// barrier clock passes its release point, absorbing the fault with
    /// latency instead of an abort. Only after `policy.max_retries`
    /// fruitless rounds does the call escalate to the collective abort.
    /// The retry rounds are themselves collective (flag vote + shared
    /// backoff barriers), so barrier sequences stay aligned and the
    /// retried run's payloads are bit-identical to a fault-free run's.
    pub fn all_to_all_v_retry(
        &self,
        outgoing: Vec<Vec<f32>>,
        policy: &RetryPolicy,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        let k = self.size();
        assert_eq!(outgoing.len(), k, "need one payload per rank");
        let faults = self.shared.faults.as_ref();
        let stalled = self.is_stalled();
        let stats = &self.shared.stats[self.rank];
        let now = self.barriers.get();
        let send_span = self.telemetry().scope(Phase::CommSend);
        let mut own = None;
        for (dst, payload) in outgoing.into_iter().enumerate() {
            if dst == self.rank {
                own = Some(payload);
                continue;
            }
            let wire = (payload.len() * 4) as u64;
            let mut available_at = 0;
            if let Some(f) = faults {
                if stalled {
                    stats.record_stalled_send();
                    continue;
                }
                let n = f.counters[self.rank][dst].fetch_add(1, Ordering::Relaxed);
                if f.plan.drop_decision(self.rank, dst, n) {
                    stats.record_send(wire);
                    stats.record_dropped();
                    continue;
                }
                let delay = f.plan.delay_decision(self.rank, dst, n);
                if delay > 0 {
                    stats.record_delayed();
                    // Visible `delay` barriers after the rendezvous:
                    // the receiver crosses one barrier to get there.
                    available_at = now + 1 + delay;
                }
            }
            stats.record_send(wire);
            *self.shared.xchg[self.rank][dst].lock() = Some(Msg { payload, available_at });
        }
        drop(send_span);
        let _wait_span = self.telemetry().scope(Phase::CommWait);
        self.barrier();

        let mut incoming: Vec<Option<Vec<f32>>> = (0..k).map(|_| None).collect();
        incoming[self.rank] = Some(own.take().unwrap_or_default());
        let Some(f) = faults else {
            // Fault-free fast path: every payload is visible now; a
            // missing slot is a protocol bug surfaced as a typed error.
            let mut missing = None;
            for (src, slot) in incoming.iter_mut().enumerate() {
                if src == self.rank {
                    continue;
                }
                match self.shared.xchg[src][self.rank].lock().take() {
                    Some(msg) => {
                        stats.record_recv((msg.payload.len() * 4) as u64);
                        *slot = Some(msg.payload);
                    }
                    None => {
                        missing.get_or_insert(CommError::MissingPayload { src, dst: self.rank });
                    }
                }
            }
            self.barrier();
            return match missing {
                None => Ok(incoming.into_iter().map(|p| p.unwrap_or_default()).collect()),
                Some(e) => Err(e),
            };
        };

        let mut round = 0u32;
        loop {
            for (src, dest) in incoming.iter_mut().enumerate() {
                if src == self.rank || dest.is_some() {
                    continue;
                }
                let mut slot = self.shared.xchg[src][self.rank].lock();
                if slot.as_ref().is_some_and(|m| m.available_at <= self.barriers.get()) {
                    let msg = slot.take().expect("visibility checked under the lock");
                    drop(slot);
                    stats.record_recv((msg.payload.len() * 4) as u64);
                    *dest = Some(msg.payload);
                }
            }
            let missing = (0..k).find(|&src| incoming[src].is_none());
            // Collective agreement: every rank learns whether anyone is
            // still missing a payload and takes the same branch, keeping
            // barrier sequences aligned across ranks.
            if missing.is_some() {
                f.abort[self.rank].store(true, Ordering::SeqCst);
            }
            self.barrier();
            let any = f.abort.iter().any(|a| a.load(Ordering::SeqCst));
            let exhausted = any && round >= policy.max_retries;
            if exhausted {
                // Clear undelivered (still-delayed) slots so the next
                // collective on these links starts clean. This must
                // happen *between* the vote barriers: every rank is
                // still inside the vote, so no rank can be depositing
                // for a subsequent collective into the slots we drain.
                for src in 0..k {
                    if src != self.rank {
                        self.shared.xchg[src][self.rank].lock().take();
                    }
                }
            }
            self.barrier();
            f.abort[self.rank].store(false, Ordering::SeqCst);
            if !any {
                return Ok(incoming.into_iter().map(|p| p.unwrap_or_default()).collect());
            }
            if exhausted {
                return Err(missing
                    .map(|src| CommError::MissingPayload { src, dst: self.rank })
                    .unwrap_or(CommError::PeerAborted));
            }
            let backoff = policy.backoff(round);
            stats.record_retry(backoff);
            self.telemetry().counter(TraceCounter::Retry, 1);
            self.telemetry().counter(TraceCounter::Backoff, backoff);
            for _ in 0..backoff {
                self.barrier();
            }
            round += 1;
        }
    }

    /// Posts `payload` for `dst` under `tag` without blocking. The
    /// `cd-r` algorithm tags with the sending epoch; the receiver asks
    /// for the tag `r` epochs later. Fault rules (stall, drop, delay,
    /// reorder) apply here.
    pub fn send_tagged(&self, dst: usize, tag: u64, payload: Vec<f32>) {
        assert!(dst < self.size(), "destination out of range");
        let _s = self.telemetry().scope(Phase::CommSend);
        let stats = &self.shared.stats[self.rank];
        let wire = (payload.len() * 4) as u64;
        let Some(f) = self.shared.faults.as_ref() else {
            stats.record_send(wire);
            self.shared.tagged[self.rank][dst]
                .lock()
                .insert(tag, Msg { payload, available_at: 0 });
            return;
        };
        // Release any message held for reordering on this link: this
        // send has now overtaken it.
        let now = self.barriers.get();
        if let Some((held_tag, mut held)) = f.held[self.rank][dst].lock().take() {
            held.available_at = held.available_at.max(now);
            self.shared.tagged[self.rank][dst].lock().insert(held_tag, held);
        }
        if f.plan.stalled(self.rank, self.epoch.get()) {
            stats.record_stalled_send();
            return;
        }
        let n = f.counters[self.rank][dst].fetch_add(1, Ordering::Relaxed);
        stats.record_send(wire);
        if f.plan.drop_decision(self.rank, dst, n) {
            stats.record_dropped();
            return;
        }
        let delay = f.plan.delay_decision(self.rank, dst, n);
        if delay > 0 {
            stats.record_delayed();
        }
        let msg = Msg { payload, available_at: now + delay };
        if f.plan.reorder_decision(self.rank, dst, n) {
            stats.record_reordered();
            *f.held[self.rank][dst].lock() = Some((tag, msg));
        } else {
            self.shared.tagged[self.rank][dst].lock().insert(tag, msg);
        }
    }

    /// Retrieves (and removes) the payload `src` posted under `tag`, if
    /// it has arrived *and is visible*: a delay-faulted message stays
    /// invisible until enough barriers have passed, and a stalled rank
    /// picks nothing up.
    pub fn try_recv_tagged(&self, src: usize, tag: u64) -> Option<Vec<f32>> {
        assert!(src < self.size(), "source out of range");
        let _s = self.telemetry().scope(Phase::CommWait);
        if self.is_stalled() {
            return None;
        }
        let mut mailbox = self.shared.tagged[src][self.rank].lock();
        let visible = mailbox
            .get(&tag)
            .is_some_and(|m| m.available_at <= self.barriers.get());
        if !visible {
            return None;
        }
        let msg = mailbox.remove(&tag).expect("visibility checked under the lock");
        drop(mailbox);
        self.shared.stats[self.rank].record_recv((msg.payload.len() * 4) as u64);
        Some(msg.payload)
    }

    /// Like [`RankCtx::try_recv_tagged`] but for protocol points where
    /// the message *must* have arrived: absence is a typed error, not a
    /// panic.
    pub fn recv_tagged(&self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        self.try_recv_tagged(src, tag)
            .ok_or(CommError::MissingPayload { src, dst: self.rank })
    }

    /// [`RankCtx::recv_tagged`] with bounded retry: on a miss, this
    /// rank advances its *local* barrier clock by the policy's backoff
    /// (as if it had idled through that many barrier intervals polling)
    /// and re-checks — a delay-faulted message becomes visible once the
    /// clock passes its release point. Point-to-point receives cannot
    /// step global barriers (no other rank is at a matching program
    /// point), so the wait is receiver-local and introduces a bounded
    /// clock skew between ranks; the skew only ever makes messages
    /// visible *earlier* elsewhere, never later.
    pub fn recv_tagged_retry(
        &self,
        src: usize,
        tag: u64,
        policy: &RetryPolicy,
    ) -> Result<Vec<f32>, CommError> {
        let mut round = 0u32;
        loop {
            if let Some(payload) = self.try_recv_tagged(src, tag) {
                return Ok(payload);
            }
            if round >= policy.max_retries {
                return Err(CommError::MissingPayload { src, dst: self.rank });
            }
            let backoff = policy.backoff(round);
            self.shared.stats[self.rank].record_retry(backoff);
            self.telemetry().counter(TraceCounter::Retry, 1);
            self.telemetry().counter(TraceCounter::Backoff, backoff);
            self.barriers.set(self.barriers.get() + backoff);
            round += 1;
        }
    }

    /// The plan's fail-stop view: if any rank is scheduled to have
    /// crashed by the current epoch, every rank's epoch-start poll
    /// observes the same [`CommError::RankCrashed`] — the simulated
    /// supervisor detecting a dead peer and tearing the job down
    /// collectively, the failure a checkpoint/restart loop recovers
    /// from.
    pub fn check_crashed(&self) -> Option<CommError> {
        let f = self.shared.faults.as_ref()?;
        f.plan
            .crash_at(self.epoch.get())
            .map(|rank| CommError::RankCrashed { rank })
    }

    /// Snapshot of this rank's posted-but-unconsumed tagged messages
    /// (including any message parked by a reorder fault), sorted by
    /// `(dst, tag)` so the result is deterministic. `remaining_delay`
    /// is relative to this rank's current barrier clock: restoring into
    /// a fresh cluster (clock 0) reproduces the same visibility
    /// schedule. Checkpointing must capture these — the `cd-r` pipeline
    /// keeps up to `r` epochs of partial aggregates in flight, and a
    /// resumed run would silently diverge without them.
    pub fn export_outbox(&self) -> Vec<PendingMsg> {
        let now = self.barriers.get();
        let mut out = Vec::new();
        for dst in 0..self.size() {
            if dst == self.rank {
                continue;
            }
            for (&tag, msg) in self.shared.tagged[self.rank][dst].lock().iter() {
                out.push(PendingMsg {
                    dst,
                    tag,
                    remaining_delay: msg.available_at.saturating_sub(now),
                    generation: self.shared.generation,
                    payload: msg.payload.clone(),
                });
            }
            if let Some(f) = self.shared.faults.as_ref() {
                if let Some((tag, msg)) = f.held[self.rank][dst].lock().as_ref() {
                    out.push(PendingMsg {
                        dst,
                        tag: *tag,
                        remaining_delay: msg.available_at.saturating_sub(now),
                        generation: self.shared.generation,
                        payload: msg.payload.clone(),
                    });
                }
            }
        }
        out.sort_by_key(|m| (m.dst, m.tag));
        out
    }

    /// Re-posts checkpointed in-flight messages into this (fresh)
    /// cluster's mailboxes, shifting each `remaining_delay` onto the
    /// current barrier clock. Counts toward no send/recv statistics:
    /// the wire traffic was already accounted for when the messages
    /// were first sent. Messages stamped with a different membership
    /// generation are dropped (counted in
    /// [`CommSnapshot::stale_generation_dropped`]): after an elastic
    /// resize or a rank adoption the old world's in-flight traffic is
    /// addressed to ranks that no longer exist under the same numbers,
    /// so delivering it would corrupt the new world.
    pub fn restore_outbox(&self, pending: &[PendingMsg]) {
        let now = self.barriers.get();
        for m in pending {
            if m.generation != self.shared.generation {
                self.shared.stats[self.rank].record_stale_generation_dropped();
                continue;
            }
            assert!(m.dst < self.size(), "restored message addressed out of range");
            self.shared.tagged[self.rank][m.dst].lock().insert(
                m.tag,
                Msg { payload: m.payload.clone(), available_at: now + m.remaining_delay },
            );
        }
    }

    /// The membership generation this world was started under (0 for a
    /// fresh, never-resized cluster).
    pub fn membership_generation(&self) -> u64 {
        self.shared.generation
    }

    /// This rank's communication counters.
    pub fn stats(&self) -> CommSnapshot {
        self.shared.stats[self.rank].snapshot()
    }
}

/// An in-flight asynchronous AllReduce (see
/// [`RankCtx::all_reduce_sum_async`]). Poll with
/// [`RankCtx::all_reduce_poll`], retire with
/// [`RankCtx::all_reduce_wait`].
#[must_use = "an unwaited handle leaks its slot in the progress engine"]
pub struct AllReduceHandle {
    seq: u64,
    len: usize,
    /// Encoded words on the wire (== `len` unless a codec compressed
    /// the contribution); receive accounting at the wait point uses
    /// this.
    wire_len: usize,
    posted: Instant,
    /// Single-rank short circuit: the input is already the sum.
    local: Option<Vec<f32>>,
}

/// An in-flight asynchronous variable AlltoAll (see
/// [`RankCtx::all_to_all_v_async`]).
#[must_use = "an unwaited handle leaks its payloads in the progress engine"]
pub struct AllToAllHandle {
    posted: Instant,
    /// This rank's own slot, passed through at wait.
    own: Option<Vec<f32>>,
    /// Under an active fault plan the exchange completes through the
    /// blocking retry/abort ladder at wait time: the payloads and the
    /// policy are captured here and nothing is posted to the engine.
    fallback: Option<(Vec<Vec<f32>>, RetryPolicy)>,
}

impl RankCtx<'_> {
    /// Selects how this rank progresses its asynchronous collectives.
    /// Defaults to [`ProgressMode::Polled`].
    pub fn set_progress_mode(&self, mode: ProgressMode) {
        self.progress_mode.set(mode);
    }

    pub fn progress_mode(&self) -> ProgressMode {
        self.progress_mode.get()
    }

    /// Advances this rank's *local* barrier clock without a rendezvous,
    /// as if it had crossed `n` barriers. The overlapped epoch loop
    /// calls this at the program points where the blocking schedule
    /// crosses real barriers (AllReduce, checkpoint votes): every rank
    /// advances identically at the same point, so the clock arithmetic
    /// that delay-fault visibility is expressed in stays bit-identical
    /// to the blocking run — without paying for the rendezvous.
    pub fn advance_local_clock(&self, n: u64) {
        self.barriers.set(self.barriers.get() + n);
    }

    /// Nonblocking sum-AllReduce: posts this rank's contribution to the
    /// progress engine and returns immediately. The matching
    /// [`RankCtx::all_reduce_wait`] blocks until every rank's
    /// contribution arrived and returns the sum, accumulated in
    /// ascending rank order — bit-identical to
    /// [`RankCtx::all_reduce_sum`]. Reliable like the blocking variant:
    /// fault rules do not apply, and no barrier is crossed.
    pub fn all_reduce_sum_async(&self, buf: Vec<f32>) -> AllReduceHandle {
        let k = self.size();
        let stats = &self.shared.stats[self.rank];
        stats.record_handle_posted();
        if k == 1 {
            let len = buf.len();
            return AllReduceHandle { seq: 0, len, wire_len: len, posted: Instant::now(), local: Some(buf) };
        }
        let _s = self.telemetry().scope(Phase::CommSend);
        let seq = self.ar_seq.get();
        self.ar_seq.set(seq + 1);
        stats.record_send((buf.len() * 4) as u64);
        let len = buf.len();
        let handle =
            AllReduceHandle { seq, len, wire_len: len, posted: Instant::now(), local: None };
        self.shared.progress.post_reduce(self.rank, self.progress_mode.get(), seq, buf);
        handle
    }

    /// [`RankCtx::all_reduce_sum_async`] through a [`WireCodec`] with
    /// error feedback — the nonblocking counterpart of
    /// [`RankCtx::all_reduce_sum_compressed`], carrying the per-layer
    /// residual of the overlapped epoch loop. The decoded contribution
    /// is posted to the unchanged progress engine (decode is
    /// deterministic; see the blocking variant for why this is
    /// observationally identical to shipping encoded words), and the
    /// handle remembers the encoded length for receive accounting at
    /// the wait point. `WireCodec::None` delegates verbatim.
    pub fn all_reduce_sum_compressed_async(
        &self,
        buf: Vec<f32>,
        codec: &WireCodec,
        ef: &mut ErrorFeedback,
    ) -> AllReduceHandle {
        if codec.is_identity() {
            return self.all_reduce_sum_async(buf);
        }
        let k = self.size();
        let stats = &self.shared.stats[self.rank];
        stats.record_handle_posted();
        if k == 1 {
            let len = buf.len();
            return AllReduceHandle { seq: 0, len, wire_len: len, posted: Instant::now(), local: Some(buf) };
        }
        let _s = self.telemetry().scope(Phase::CommSend);
        let len = buf.len();
        let (xhat, wire_words) = ef.compress(codec, &buf);
        let seq = self.ar_seq.get();
        self.ar_seq.set(seq + 1);
        stats.record_send_coded((wire_words * 4) as u64, (len * 4) as u64);
        let handle =
            AllReduceHandle { seq, len, wire_len: wire_words, posted: Instant::now(), local: None };
        self.shared.progress.post_reduce(self.rank, self.progress_mode.get(), seq, xhat.to_vec());
        handle
    }

    /// True when [`RankCtx::all_reduce_wait`] would return without
    /// blocking.
    pub fn all_reduce_poll(&self, handle: &AllReduceHandle) -> bool {
        handle.local.is_some() || self.shared.progress.reduce_ready(handle.seq)
    }

    /// Blocks until the AllReduce behind `handle` completed on every
    /// rank and returns the element-wise sum.
    pub fn all_reduce_wait(&self, handle: AllReduceHandle) -> Vec<f32> {
        let stats = &self.shared.stats[self.rank];
        if let Some(buf) = handle.local {
            stats.record_handle_completed(0, handle.posted.elapsed().as_nanos() as u64);
            return buf;
        }
        let wait_start = Instant::now();
        let overlap_ns = wait_start.duration_since(handle.posted).as_nanos() as u64;
        let _w = self.telemetry().scope(Phase::CommWait);
        let out = self.shared.progress.wait_reduce(handle.seq, handle.len);
        let wire = (handle.wire_len * 4) as u64;
        let logical = (handle.len * 4) as u64;
        for _ in 1..self.size() {
            stats.record_recv_coded(wire, logical);
        }
        stats.record_handle_completed(wait_start.elapsed().as_nanos() as u64, overlap_ns);
        out
    }

    /// Nonblocking variable AlltoAll: posts `outgoing[p]` toward rank
    /// `p` and returns immediately; the matching
    /// [`RankCtx::all_to_all_v_wait`] blocks until one payload from
    /// every peer is available. Fault-free, payload routing is
    /// barrier-free and bit-identical to [`RankCtx::all_to_all_v`].
    /// Under an active fault plan the handle captures the payloads and
    /// the wait completes through [`RankCtx::all_to_all_v_retry`] —
    /// same fault decisions, same retry ladder, same collective abort.
    ///
    /// # Panics
    /// Panics if `outgoing.len() != size`.
    pub fn all_to_all_v_async(
        &self,
        outgoing: Vec<Vec<f32>>,
        policy: &RetryPolicy,
    ) -> AllToAllHandle {
        let k = self.size();
        assert_eq!(outgoing.len(), k, "need one payload per rank");
        let stats = &self.shared.stats[self.rank];
        stats.record_handle_posted();
        if self.shared.faults.is_some() {
            return AllToAllHandle {
                posted: Instant::now(),
                own: None,
                fallback: Some((outgoing, *policy)),
            };
        }
        let _s = self.telemetry().scope(Phase::CommSend);
        let mut own = None;
        let mut items = Vec::with_capacity(k.saturating_sub(1));
        for (dst, payload) in outgoing.into_iter().enumerate() {
            if dst == self.rank {
                own = Some(payload);
                continue;
            }
            stats.record_send((payload.len() * 4) as u64);
            items.push((dst, payload));
        }
        let handle = AllToAllHandle { posted: Instant::now(), own, fallback: None };
        self.shared.progress.post_exchange(self.rank, self.progress_mode.get(), items);
        handle
    }

    /// True when [`RankCtx::all_to_all_v_wait`] would return without
    /// blocking. A fault-mode handle reports `false`: its completion
    /// needs the collective retry rendezvous.
    pub fn all_to_all_v_poll(&self, handle: &AllToAllHandle) -> bool {
        handle.fallback.is_none() && self.shared.progress.exchange_ready(self.rank)
    }

    /// Blocks until a payload from every peer is available and returns
    /// them in source-rank order (own slot passed through), exactly
    /// like the blocking AlltoAllv.
    pub fn all_to_all_v_wait(
        &self,
        handle: AllToAllHandle,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        let stats = &self.shared.stats[self.rank];
        if let Some((outgoing, policy)) = handle.fallback {
            let wait_start = Instant::now();
            let overlap_ns = wait_start.duration_since(handle.posted).as_nanos() as u64;
            let out = self.all_to_all_v_retry(outgoing, &policy);
            stats.record_handle_completed(wait_start.elapsed().as_nanos() as u64, overlap_ns);
            return out;
        }
        let wait_start = Instant::now();
        let overlap_ns = wait_start.duration_since(handle.posted).as_nanos() as u64;
        let _w = self.telemetry().scope(Phase::CommWait);
        let incoming = self
            .shared
            .progress
            .wait_exchange(self.rank, handle.own.unwrap_or_default());
        for (src, payload) in incoming.iter().enumerate() {
            if src != self.rank {
                stats.record_recv((payload.len() * 4) as u64);
            }
        }
        stats.record_handle_completed(wait_start.elapsed().as_nanos() as u64, overlap_ns);
        Ok(incoming)
    }
}

/// One posted-but-unconsumed tagged message, as captured by
/// [`RankCtx::export_outbox`] for checkpointing.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingMsg {
    pub dst: usize,
    pub tag: u64,
    /// Barriers (relative to the exporting rank's clock) until the
    /// message becomes visible; 0 = immediately.
    pub remaining_delay: u64,
    /// Membership generation the message was posted under; restores
    /// into a different generation drop it (see
    /// [`RankCtx::restore_outbox`]).
    pub generation: u64,
    pub payload: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_in_rank_order() {
        let out = Cluster::run(4, |ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn single_rank_cluster_works() {
        let out = Cluster::run(1, |ctx| {
            let mut buf = [1.0f32, 2.0];
            ctx.all_reduce_sum(&mut buf);
            buf
        });
        assert_eq!(out[0], [1.0, 2.0]);
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let out = Cluster::run(4, |ctx| {
            let mut buf = vec![ctx.rank() as f32 + 1.0; 3];
            ctx.all_reduce_sum(&mut buf);
            buf
        });
        // 1 + 2 + 3 + 4 = 10 on every rank.
        for r in out {
            assert_eq!(r, vec![10.0, 10.0, 10.0]);
        }
    }

    #[test]
    fn all_reduce_is_reusable_across_rounds() {
        let out = Cluster::run(3, |ctx| {
            let mut total = 0.0;
            for round in 0..5 {
                let mut buf = vec![(ctx.rank() + round) as f32];
                ctx.all_reduce_sum(&mut buf);
                total += buf[0];
            }
            total
        });
        // Round r sums to 3r + 3; total over r = 0..5 is 45.
        assert!(out.iter().all(|&t| (t - 45.0).abs() < 1e-6));
    }

    #[test]
    fn all_to_all_routes_payloads() {
        let out = Cluster::run(3, |ctx| {
            let outgoing: Vec<Vec<f32>> = (0..3)
                .map(|dst| vec![(ctx.rank() * 10 + dst) as f32])
                .collect();
            ctx.all_to_all_v(outgoing).expect("no faults")
        });
        // Rank d receives from src s the value s*10 + d.
        for (d, incoming) in out.iter().enumerate() {
            for (s, payload) in incoming.iter().enumerate() {
                assert_eq!(payload, &vec![(s * 10 + d) as f32]);
            }
        }
    }

    #[test]
    fn all_to_all_with_empty_payloads() {
        let out = Cluster::run(2, |ctx| {
            let outgoing = vec![Vec::new(), Vec::new()];
            ctx.all_to_all_v(outgoing).expect("no faults")
        });
        assert!(out.iter().all(|inc| inc.iter().all(Vec::is_empty)));
    }

    #[test]
    fn tagged_messages_arrive_across_epochs() {
        let out = Cluster::run(2, |ctx| {
            let peer = 1 - ctx.rank();
            // Epoch 0: send tagged with epoch 0; nothing to receive yet.
            ctx.send_tagged(peer, 0, vec![ctx.rank() as f32]);
            assert!(ctx.try_recv_tagged(peer, 99).is_none());
            ctx.barrier();
            // Epoch 2 (delay r = 2): pick up tag 0.
            let got = ctx.recv_tagged(peer, 0).expect("delayed payload");
            // Message is consumed.
            assert!(ctx.try_recv_tagged(peer, 0).is_none());
            got[0]
        });
        assert_eq!(out, vec![1.0, 0.0]);
    }

    #[test]
    fn stats_count_collective_traffic() {
        let (_, snaps) = Cluster::run_with(2, &FaultPlan::none(), None, 0, |ctx| {
            let mut buf = vec![0.0f32; 8];
            ctx.all_reduce_sum(&mut buf);
            let out = vec![vec![1.0; 4], vec![2.0; 4]];
            ctx.all_to_all_v(out).expect("no faults");
        });
        for s in snaps {
            assert_eq!(s.bytes_sent, 8 * 4 + 4 * 4);
            assert_eq!(s.bytes_received, 8 * 4 + 4 * 4);
        }
    }

    #[test]
    fn async_all_reduce_matches_blocking_bit_for_bit() {
        let blocking = Cluster::run(4, |ctx| {
            let mut buf: Vec<f32> =
                (0..16).map(|i| (ctx.rank() * 16 + i) as f32 * 0.37).collect();
            ctx.all_reduce_sum(&mut buf);
            buf
        });
        for mode in [ProgressMode::Polled, ProgressMode::Thread] {
            let (overlapped, snaps) = Cluster::run_with(4, &FaultPlan::none(), None, 0, move |ctx| {
                ctx.set_progress_mode(mode);
                let buf: Vec<f32> =
                    (0..16).map(|i| (ctx.rank() * 16 + i) as f32 * 0.37).collect();
                let h = ctx.all_reduce_sum_async(buf);
                ctx.all_reduce_wait(h)
            });
            assert_eq!(blocking, overlapped, "mode {mode:?}");
            for s in snaps {
                assert_eq!(s.handle_ops_posted, 1);
                assert_eq!(s.handle_ops_completed, 1);
                // Same wire accounting as the blocking AllReduce.
                assert_eq!(s.bytes_sent, 16 * 4);
                assert_eq!(s.bytes_received, 3 * 16 * 4);
            }
        }
    }

    #[test]
    fn async_all_to_all_matches_blocking_bit_for_bit() {
        let blocking = Cluster::run(3, |ctx| {
            let outgoing: Vec<Vec<f32>> =
                (0..3).map(|dst| vec![(ctx.rank() * 10 + dst) as f32]).collect();
            ctx.all_to_all_v(outgoing).expect("no faults")
        });
        for mode in [ProgressMode::Polled, ProgressMode::Thread] {
            let overlapped = Cluster::run(3, move |ctx| {
                ctx.set_progress_mode(mode);
                let outgoing: Vec<Vec<f32>> =
                    (0..3).map(|dst| vec![(ctx.rank() * 10 + dst) as f32]).collect();
                let h = ctx.all_to_all_v_async(outgoing, &RetryPolicy::none());
                ctx.all_to_all_v_wait(h).expect("no faults")
            });
            assert_eq!(blocking, overlapped, "mode {mode:?}");
        }
    }

    /// Several AllReduces may be in flight at once; waits retire them
    /// by sequence, in any order the caller chooses.
    #[test]
    fn multiple_async_reduces_overlap_in_flight() {
        let out = Cluster::run(3, |ctx| {
            let handles: Vec<_> = (0..4)
                .map(|i| ctx.all_reduce_sum_async(vec![(ctx.rank() + i) as f32]))
                .collect();
            // Waited in reverse posting order on purpose.
            let mut sums: Vec<f32> =
                handles.into_iter().rev().map(|h| ctx.all_reduce_wait(h)[0]).collect();
            sums.reverse();
            sums
        });
        // Op i sums (0+i) + (1+i) + (2+i) = 3 + 3i.
        for per_rank in out {
            assert_eq!(per_rank, vec![3.0, 6.0, 9.0, 12.0]);
        }
    }

    #[test]
    fn async_poll_reports_readiness() {
        let out = Cluster::run(2, |ctx| {
            let h = ctx.all_reduce_sum_async(vec![1.0]);
            // Rendezvous so both contributions are deposited (polled
            // mode deposits inline at post).
            ctx.barrier();
            let ready = ctx.all_reduce_poll(&h);
            (ready, ctx.all_reduce_wait(h))
        });
        for (ready, sum) in out {
            assert!(ready, "both contributions were in before the poll");
            assert_eq!(sum, vec![2.0]);
        }
    }

    /// Async ops must never advance the barrier clock: the overlapped
    /// trainer accounts for skipped rendezvous explicitly via
    /// `advance_local_clock`.
    #[test]
    fn async_ops_leave_the_barrier_clock_alone() {
        let out = Cluster::run(2, |ctx| {
            let h = ctx.all_reduce_sum_async(vec![1.0]);
            let _ = ctx.all_reduce_wait(h);
            let before = ctx.barriers_crossed();
            ctx.advance_local_clock(4);
            (before, ctx.barriers_crossed())
        });
        for (before, after) in out {
            assert_eq!(before, 0);
            assert_eq!(after, 4);
        }
    }

    #[test]
    fn many_ranks_stress() {
        let out = Cluster::run(16, |ctx| {
            let mut buf = vec![1.0f32];
            for _ in 0..10 {
                ctx.all_reduce_sum(&mut buf);
                ctx.barrier();
                buf[0] /= ctx.size() as f32;
            }
            buf[0]
        });
        assert!(out.iter().all(|&x| (x - 1.0).abs() < 1e-4));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    /// Satellite: a late peer surfaces a typed error instead of
    /// aborting the process. The delay fault makes the message
    /// invisible at its pickup point; `recv_tagged` reports it.
    #[test]
    fn late_tagged_peer_surfaces_error_not_panic() {
        let plan = FaultPlan::none().with_seed(11).with_delay(1.0, 1000);
        let (out, snaps) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let peer = 1 - ctx.rank();
            ctx.send_tagged(peer, 7, vec![1.0]);
            ctx.barrier();
            ctx.recv_tagged(peer, 7)
        });
        for (dst, r) in out.iter().enumerate() {
            assert_eq!(*r, Err(CommError::MissingPayload { src: 1 - dst, dst }));
        }
        assert!(snaps.iter().all(|s| s.messages_delayed == 1));
    }

    #[test]
    fn delayed_message_becomes_visible_after_enough_barriers() {
        let plan = FaultPlan::none().with_seed(5).with_delay(1.0, 3);
        let (out, _) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let peer = 1 - ctx.rank();
            ctx.send_tagged(peer, 1, vec![2.5]);
            ctx.barrier();
            let early = ctx.try_recv_tagged(peer, 1);
            ctx.barrier();
            ctx.barrier();
            ctx.barrier();
            let late = ctx.try_recv_tagged(peer, 1);
            (early, late)
        });
        for (early, late) in out {
            assert!(early.is_none(), "message visible too early");
            assert_eq!(late, Some(vec![2.5]));
        }
    }

    #[test]
    fn dropped_tagged_message_never_arrives_and_is_counted() {
        let plan = FaultPlan::none().with_seed(2).with_drop(1.0);
        let (out, snaps) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let peer = 1 - ctx.rank();
            ctx.send_tagged(peer, 3, vec![1.0, 2.0]);
            ctx.barrier();
            ctx.try_recv_tagged(peer, 3)
        });
        assert!(out.iter().all(Option::is_none));
        for s in snaps {
            assert_eq!(s.messages_dropped, 1);
            assert_eq!(s.bytes_received, 0);
        }
    }

    #[test]
    fn reorder_swaps_adjacent_availability() {
        let plan = FaultPlan::none().with_seed(4).with_reorder(1.0);
        let (out, snaps) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let peer = 1 - ctx.rank();
            ctx.send_tagged(peer, 1, vec![1.0]); // held
            let before = ctx.try_recv_tagged(peer, 1);
            ctx.barrier();
            ctx.send_tagged(peer, 2, vec![2.0]); // releases 1, held itself
            ctx.barrier();
            let first = ctx.try_recv_tagged(peer, 1);
            let second = ctx.try_recv_tagged(peer, 2);
            (before, first, second)
        });
        for (before, first, second) in out {
            assert!(before.is_none(), "held message leaked early");
            assert_eq!(first, Some(vec![1.0]));
            assert!(second.is_none(), "overtaking message should itself be held");
        }
        assert!(snaps.iter().all(|s| s.messages_reordered == 2));
    }

    /// Satellite: a missing AlltoAllv payload is a typed error on every
    /// rank — the collective aborts together instead of deadlocking.
    #[test]
    fn dropped_collective_payload_aborts_all_ranks() {
        let plan = FaultPlan::none().with_seed(9).with_drop(1.0);
        let (out, _) = Cluster::run_with(3, &plan, None, 0, |ctx| {
            let outgoing = (0..3).map(|d| vec![d as f32]).collect();
            ctx.all_to_all_v(outgoing)
        });
        for r in &out {
            assert!(r.is_err(), "every rank must see the collective abort");
        }
        assert!(out
            .iter()
            .any(|r| matches!(r, Err(CommError::MissingPayload { .. }))));
    }

    #[test]
    fn stalled_rank_suppresses_sends_and_peers_get_typed_error() {
        let plan = FaultPlan::none().with_seed(1).with_stall(1, 0, 1);
        let (out, snaps) = Cluster::run_with(3, &plan, None, 0, |ctx| {
            ctx.set_epoch(0);
            let outgoing = (0..3).map(|d| vec![d as f32]).collect();
            ctx.all_to_all_v(outgoing)
        });
        assert_eq!(
            out[0],
            Err(CommError::MissingPayload { src: 1, dst: 0 }),
            "rank 0 misses the stalled rank's payload"
        );
        assert_eq!(out[2], Err(CommError::MissingPayload { src: 1, dst: 2 }));
        assert_eq!(out[1], Err(CommError::PeerAborted), "the stalled rank aborts with its peers");
        assert_eq!(snaps[1].sends_stalled, 2);
    }

    #[test]
    fn stall_window_passes_and_collectives_recover() {
        let plan = FaultPlan::none().with_seed(1).with_stall(0, 0, 2);
        let (out, _) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let mut results = Vec::new();
            for e in 0..3u64 {
                ctx.set_epoch(e);
                let outgoing = (0..2).map(|d| vec![d as f32]).collect();
                results.push(ctx.all_to_all_v(outgoing).is_ok());
            }
            results
        });
        for r in out {
            assert_eq!(r, vec![false, false, true], "epoch 2 is past the stall window");
        }
    }

    /// A delayed collective payload is now withheld until the barrier
    /// clock passes its release point: without a retry policy the
    /// rendezvous aborts — the window `RetryPolicy` exists to bridge.
    #[test]
    fn delayed_collective_payload_aborts_without_retry() {
        let plan = FaultPlan::none().with_seed(13).with_delay(1.0, 3);
        let (out, snaps) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let outgoing = (0..2).map(|d| vec![d as f32]).collect();
            ctx.all_to_all_v(outgoing)
        });
        assert!(out.iter().all(Result::is_err), "no retry: the delay must abort");
        assert!(snaps.iter().all(|s| s.messages_delayed == 1));
    }

    /// The same transient delay is absorbed by the standard retry
    /// ladder: the collective completes with the exact payloads a
    /// fault-free run delivers, and the retry counters record the
    /// rounds spent waiting.
    #[test]
    fn retry_absorbs_transient_collective_delay() {
        let plan = FaultPlan::none().with_seed(13).with_delay(1.0, 3);
        let (out, snaps) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let outgoing: Vec<Vec<f32>> =
                (0..2).map(|d| vec![(ctx.rank() * 10 + d) as f32]).collect();
            ctx.all_to_all_v_retry(outgoing, &RetryPolicy::standard())
                .expect("a 3-barrier delay fits inside the standard ladder")
        });
        for (d, incoming) in out.iter().enumerate() {
            for (s, payload) in incoming.iter().enumerate() {
                assert_eq!(payload, &vec![(s * 10 + d) as f32]);
            }
        }
        for s in &snaps {
            assert!(s.retries_attempted > 0, "retries must have fired");
            assert!(s.backoff_barriers > 0);
        }
    }

    /// A permanent fault (drop) exhausts the ladder and escalates to
    /// the same collective abort as before — retries bound the extra
    /// latency a lost payload can cost.
    #[test]
    fn retry_exhaustion_escalates_to_collective_abort() {
        let plan = FaultPlan::none().with_seed(9).with_drop(1.0);
        let (out, snaps) = Cluster::run_with(3, &plan, None, 0, |ctx| {
            let outgoing = (0..3).map(|d| vec![d as f32]).collect();
            ctx.all_to_all_v_retry(outgoing, &RetryPolicy::standard())
        });
        assert!(out.iter().all(Result::is_err), "a drop is permanent: abort after retries");
        assert!(out
            .iter()
            .any(|r| matches!(r, Err(CommError::MissingPayload { .. }))));
        assert!(snaps.iter().all(|s| s.retries_attempted == RetryPolicy::standard().max_retries as u64));
    }

    /// Point-to-point retry bridges a delay by advancing the receiver's
    /// local clock; the no-retry `recv_tagged` on the same plan still
    /// surfaces the typed error (covered above).
    #[test]
    fn recv_tagged_retry_absorbs_delay() {
        let plan = FaultPlan::none().with_seed(5).with_delay(1.0, 3);
        let (out, snaps) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let peer = 1 - ctx.rank();
            ctx.send_tagged(peer, 7, vec![4.5]);
            ctx.barrier();
            ctx.recv_tagged_retry(peer, 7, &RetryPolicy::standard())
        });
        for r in out {
            assert_eq!(r, Ok(vec![4.5]));
        }
        assert!(snaps.iter().all(|s| s.retries_attempted > 0));
    }

    /// Under an active fault plan an async AlltoAllv completes through
    /// the blocking retry ladder at wait time: same fault decisions,
    /// same retry counters, same payloads as the blocking call.
    #[test]
    fn async_all_to_all_falls_back_to_blocking_under_faults() {
        let plan = FaultPlan::none().with_seed(13).with_delay(1.0, 3);
        let (blocking, bsnaps) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let outgoing = (0..2).map(|d| vec![(ctx.rank() * 10 + d) as f32]).collect();
            ctx.all_to_all_v_retry(outgoing, &RetryPolicy::standard()).expect("absorbed")
        });
        let (asynced, asnaps) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let outgoing = (0..2).map(|d| vec![(ctx.rank() * 10 + d) as f32]).collect();
            let h = ctx.all_to_all_v_async(outgoing, &RetryPolicy::standard());
            assert!(!ctx.all_to_all_v_poll(&h), "fault-mode completion needs the collective wait");
            ctx.all_to_all_v_wait(h).expect("absorbed")
        });
        assert_eq!(blocking, asynced, "fallback must deliver the blocking payloads");
        for (b, a) in bsnaps.iter().zip(&asnaps) {
            assert_eq!(a.retries_attempted, b.retries_attempted);
            assert_eq!(a.bytes_received, b.bytes_received);
            assert_eq!(a.messages_delayed, b.messages_delayed);
            assert_eq!(a.handle_ops_posted, 1);
            assert_eq!(a.handle_ops_completed, 1);
        }
    }

    #[test]
    fn check_crashed_fires_from_the_crash_epoch() {
        let plan = FaultPlan::none().with_crash(1, 2);
        let (out, _) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let mut seen = Vec::new();
            for e in 0..4u64 {
                ctx.set_epoch(e);
                seen.push(ctx.check_crashed());
            }
            seen
        });
        for per_rank in out {
            assert_eq!(per_rank[0], None);
            assert_eq!(per_rank[1], None);
            assert_eq!(per_rank[2], Some(CommError::RankCrashed { rank: 1 }));
            assert_eq!(per_rank[3], Some(CommError::RankCrashed { rank: 1 }));
        }
    }

    /// The outbox snapshot captures exactly the posted-but-unconsumed
    /// messages in deterministic order, and restoring re-creates their
    /// visibility schedule on a fresh clock.
    #[test]
    fn outbox_export_restore_round_trip() {
        let plan = FaultPlan::none().with_seed(5).with_delay(1.0, 3);
        let (out, _) = Cluster::run_with(2, &plan, None, 0, |ctx| {
            let peer = 1 - ctx.rank();
            ctx.send_tagged(peer, 2, vec![2.0]);
            ctx.send_tagged(peer, 1, vec![1.0]);
            ctx.barrier();
            ctx.export_outbox()
        });
        for (rank, pending) in out.iter().enumerate() {
            assert_eq!(pending.len(), 2, "both messages are unconsumed");
            assert_eq!(pending[0].tag, 1, "sorted by (dst, tag)");
            assert_eq!(pending[1].tag, 2);
            assert_eq!(pending[0].dst, 1 - rank);
            // Sent at clock 0 with delay 3, exported at clock 1.
            assert!(pending.iter().all(|m| m.remaining_delay == 2));
        }
        // Restore into a fresh fault-free cluster: visibility resumes
        // relative to the new clock.
        let exported = out[0].clone();
        let got = Cluster::run(2, move |ctx| {
            if ctx.rank() == 0 {
                ctx.restore_outbox(&exported);
            }
            ctx.barrier();
            ctx.barrier();
            if ctx.rank() == 1 {
                (ctx.try_recv_tagged(0, 1), ctx.try_recv_tagged(0, 2))
            } else {
                (None, None)
            }
        });
        assert_eq!(got[1], (Some(vec![1.0]), Some(vec![2.0])));
    }

    /// Exports stamp the world's membership generation; a restore into
    /// a different generation drops the message (counted) instead of
    /// delivering cross-world traffic.
    #[test]
    fn restore_drops_other_generations_traffic() {
        let recs: Vec<_> = (0..2).map(|_| Arc::new(Recorder::disabled())).collect();
        let (out, _) = Cluster::run_with(2, &FaultPlan::none(), Some(&recs[..]), 7, |ctx| {
            assert_eq!(ctx.membership_generation(), 7);
            ctx.send_tagged(1 - ctx.rank(), 9, vec![3.5]);
            ctx.barrier();
            ctx.export_outbox()
        });
        assert!(out[0].iter().all(|m| m.generation == 7));
        let exported = out[0].clone();
        // Same generation: the message survives the restore.
        let (got, _) =
            Cluster::run_with(2, &FaultPlan::none(), Some(&recs[..]), 7, move |ctx| {
                if ctx.rank() == 0 {
                    ctx.restore_outbox(&exported);
                }
                ctx.barrier();
                if ctx.rank() == 1 { ctx.try_recv_tagged(0, 9) } else { None }
            });
        assert_eq!(got[1], Some(vec![3.5]));
        // New generation: dropped and counted, never delivered.
        let exported = out[0].clone();
        let (got, snaps) =
            Cluster::run_with(2, &FaultPlan::none(), Some(&recs[..]), 8, move |ctx| {
                if ctx.rank() == 0 {
                    ctx.restore_outbox(&exported);
                }
                ctx.barrier();
                if ctx.rank() == 1 { ctx.try_recv_tagged(0, 9) } else { None }
            });
        assert_eq!(got[1], None);
        assert_eq!(snaps[0].stale_generation_dropped, 1);
        assert_eq!(snaps[1].stale_generation_dropped, 0);
    }

    #[test]
    fn same_plan_gives_bit_identical_snapshots() {
        let plan = FaultPlan::none().with_seed(77).with_drop(0.4).with_delay(0.3, 2);
        let program = |ctx: &mut RankCtx| {
            let peer = (ctx.rank() + 1) % ctx.size();
            for t in 0..50u64 {
                ctx.send_tagged(peer, t, vec![t as f32; 8]);
                ctx.barrier();
                let from = (ctx.rank() + ctx.size() - 1) % ctx.size();
                let _ = ctx.try_recv_tagged(from, t);
            }
        };
        let (_, a) = Cluster::run_with(4, &plan, None, 0, program);
        let (_, b) = Cluster::run_with(4, &plan, None, 0, program);
        assert_eq!(a, b, "same seed must reproduce the same snapshots");
        let (_, c) =
            Cluster::run_with(4, &plan.clone().with_seed(78), None, 0, program);
        assert_ne!(a, c, "a different seed should perturb the fault pattern");
    }

    #[test]
    fn empty_plan_behaves_like_no_faults() {
        let (a, sa) = Cluster::run_with(2, &FaultPlan::none(), None, 0, |ctx| {
            let out = vec![vec![1.0; 4], vec![2.0; 4]];
            ctx.all_to_all_v(out).expect("no faults").len()
        });
        let (b, sb) = Cluster::run_with(2, &FaultPlan::none(), None, 0, |ctx| {
            let out = vec![vec![1.0; 4], vec![2.0; 4]];
            ctx.all_to_all_v(out).expect("no faults").len()
        });
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }
}

impl RankCtx<'_> {
    /// Broadcast from `root`: after the call every rank's `buf` equals
    /// the root's input. Assumed reliable (see `faults.rs`).
    ///
    /// # Panics
    /// Panics if buffer lengths disagree or `root` is out of range.
    pub fn broadcast(&self, buf: &mut [f32], root: usize) {
        assert!(root < self.size(), "root out of range");
        if self.size() == 1 {
            return;
        }
        let _s = self.telemetry().scope(Phase::CommWait);
        if self.rank == root {
            *self.shared.reduce[root].lock() = buf.to_vec();
            self.shared.stats[self.rank].record_send((buf.len() * 4) as u64);
        }
        self.barrier();
        if self.rank != root {
            let src = self.shared.reduce[root].lock();
            assert_eq!(src.len(), buf.len(), "broadcast length mismatch");
            buf.copy_from_slice(&src);
            self.shared.stats[self.rank].record_recv((buf.len() * 4) as u64);
        }
        self.barrier();
    }

    /// Gathers every rank's `buf` to `root`, which receives them in
    /// rank order; other ranks receive an empty vec. Assumed reliable
    /// (see `faults.rs`).
    pub fn gather(&self, buf: &[f32], root: usize) -> Vec<Vec<f32>> {
        assert!(root < self.size(), "root out of range");
        let _s = self.telemetry().scope(Phase::CommWait);
        *self.shared.reduce[self.rank].lock() = buf.to_vec();
        if self.rank != root {
            self.shared.stats[self.rank].record_send((buf.len() * 4) as u64);
        }
        self.barrier();
        let out = if self.rank == root {
            (0..self.size())
                .map(|r| {
                    let v = self.shared.reduce[r].lock().clone();
                    if r != root {
                        self.shared.stats[self.rank].record_recv((v.len() * 4) as u64);
                    }
                    v
                })
                .collect()
        } else {
            Vec::new()
        };
        self.barrier();
        out
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;

    #[test]
    fn broadcast_copies_root_buffer() {
        let out = Cluster::run(4, |ctx| {
            let mut buf = vec![ctx.rank() as f32; 3];
            ctx.broadcast(&mut buf, 2);
            buf
        });
        for r in out {
            assert_eq!(r, vec![2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn broadcast_single_rank_is_noop() {
        let out = Cluster::run(1, |ctx| {
            let mut buf = vec![7.0f32];
            ctx.broadcast(&mut buf, 0);
            buf[0]
        });
        assert_eq!(out, vec![7.0]);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Cluster::run(3, |ctx| {
            let buf = vec![ctx.rank() as f32 * 10.0];
            ctx.gather(&buf, 1)
        });
        assert!(out[0].is_empty());
        assert_eq!(out[1], vec![vec![0.0], vec![10.0], vec![20.0]]);
        assert!(out[2].is_empty());
    }

    #[test]
    fn telemetry_records_comm_phases_without_perturbing_payloads() {
        use distgnn_telemetry::TelemetryHub;
        let hub = TelemetryHub::new(2, Default::default());
        let (out, snaps) = Cluster::run_with(
            2,
            &FaultPlan::none(),
            Some(hub.recorders()),
            0,
            |ctx| {
                let mut buf = vec![ctx.rank() as f32 + 1.0; 4];
                ctx.all_reduce_sum(&mut buf);
                let outgoing = (0..2).map(|d| vec![d as f32; 2]).collect();
                ctx.all_to_all_v(outgoing).expect("no faults");
                ctx.barrier();
                buf
            },
        );
        assert!(out.iter().all(|b| b == &vec![3.0; 4]));
        for r in 0..2 {
            let ns = hub.rank(r).phase_ns();
            assert!(ns[Phase::CommSend as usize] > 0, "rank {r}: no send time");
            assert!(ns[Phase::CommWait as usize] > 0, "rank {r}: no wait time");
            assert!(ns[Phase::Barrier as usize] > 0, "rank {r}: no barrier time");
            assert_eq!(hub.rank(r).events_dropped(), 0);
        }
        // Recording is pure observation: stats match an uninstrumented run.
        let (_, plain) = Cluster::run_with(2, &FaultPlan::none(), None, 0, |ctx| {
            let mut buf = vec![ctx.rank() as f32 + 1.0; 4];
            ctx.all_reduce_sum(&mut buf);
            let outgoing = (0..2).map(|d| vec![d as f32; 2]).collect();
            ctx.all_to_all_v(outgoing).expect("no faults");
            ctx.barrier();
        });
        assert_eq!(snaps, plain);
    }

    #[test]
    fn telemetry_ticks_retry_counters_under_delay_faults() {
        use distgnn_telemetry::TelemetryHub;
        let plan = FaultPlan::none().with_seed(13).with_delay(1.0, 3);
        let hub = TelemetryHub::new(2, Default::default());
        let (out, snaps) =
            Cluster::run_with(2, &plan, Some(hub.recorders()), 0, |ctx| {
                let outgoing = (0..2).map(|d| vec![d as f32]).collect();
                ctx.all_to_all_v_retry(outgoing, &RetryPolicy::standard()).is_ok()
            });
        assert!(out.iter().all(|ok| *ok));
        for (r, snap) in snaps.iter().enumerate() {
            assert_eq!(
                hub.rank(r).counter_total(TraceCounter::Retry),
                snap.retries_attempted,
                "trace counter must mirror CommStats"
            );
            assert_eq!(
                hub.rank(r).counter_total(TraceCounter::Backoff),
                snap.backoff_barriers
            );
        }
    }

    #[test]
    fn collectives_compose_across_rounds() {
        let out = Cluster::run(3, |ctx| {
            let mut buf = vec![(ctx.rank() + 1) as f32];
            ctx.all_reduce_sum(&mut buf); // 6
            ctx.broadcast(&mut buf, 0);
            let gathered = ctx.gather(&buf, 0);
            if ctx.rank() == 0 {
                gathered.iter().map(|v| v[0]).sum::<f32>()
            } else {
                buf[0]
            }
        });
        assert_eq!(out, vec![18.0, 6.0, 6.0]);
    }
}
