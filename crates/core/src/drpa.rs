//! Delayed Remote Partial Aggregates (Alg. 4) — the `0c` / `cd-0` /
//! `cd-r` family.
//!
//! Per layer, every partition first aggregates its *local* partial
//! neighbourhoods (LAT in Fig. 6), then synchronizes split-vertex
//! partial aggregates over the 1-level clone trees (RAT):
//!
//! - **`0c`** skips synchronization entirely — clones keep partial
//!   aggregates (fastest; accuracy roofline is optimistic).
//! - **`cd-0`** synchronizes every epoch with two blocking AlltoAllv
//!   phases: leaves→root partial sums, root reduces, root→leaves final
//!   aggregates. Every clone sees its complete neighbourhood, so the
//!   forward pass equals the single-socket one (modulo fp reduction
//!   order) — DESIGN.md invariant 2.
//! - **`cd-r`** bins the split vertices into `r` groups; epoch `e`
//!   *asynchronously* sends bin `e mod r` and consumes the messages
//!   posted `r` epochs earlier (same bin). Received remote partials are
//!   *cached* per layer, so every epoch applies the latest (stale, up
//!   to `2r` epochs old) contribution of every bin — communication
//!   overlaps computation at the price of freshness, à la Hogwild.
//!
//! The clone-sync operator is linear, and its adjoint has exactly the
//! same tree shape: the gradient of a synchronized aggregate is the
//! *sum of the clones' gradients, broadcast back to every clone*. The
//! backward pass therefore reuses the same engine on the gradient
//! matrices — synchronous under `cd-0`, delayed/cached under `cd-r`,
//! absent under `0c` — which is what lets `cd-0` training match
//! single-socket training closely (Table 5).

use crate::dist::DistMode;
use crate::model::{next_aggregator_key, Aggregator};
use distgnn_comm::{CommError, RankCtx, RetryPolicy, WireCodec};
use distgnn_io::{DrpaState, RouteCacheState};
use distgnn_kernels::gcn::gcn_normalize;
use distgnn_kernels::{AggregationConfig, BinaryOp, PreparedAggregation, ReduceOp};
use distgnn_partition::setup::Route;
use distgnn_partition::PartitionedGraph;
use distgnn_telemetry::Phase;
use distgnn_tensor::Matrix;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Phase ids inside the tag space; forward and backward directions use
/// disjoint pairs.
const FWD_PHASES: (u64, u64) = (0, 1);
const BWD_PHASES: (u64, u64) = (2, 3);

/// Tag for a (phase, layer, epoch) triple, packed as
/// `epoch << 10 | layer << 2 | phase`: 2 bits of phase, 8 bits of
/// layer, 54 bits of epoch. The layer field bounds supported model
/// depth at **256 layers** — deeper models would bleed into the epoch
/// bits and collide across epochs.
fn tag(phase: u64, layer: usize, epoch: u64) -> u64 {
    debug_assert!(phase < 4, "phase field is 2 bits");
    debug_assert!(layer < 256, "layer field is 8 bits: depth bound is 256 layers");
    (epoch << 10) | ((layer as u64) << 2) | phase
}

/// Per-peer, per-bin route slices for `cd-r` binning, precomputed so
/// each epoch touches only its bin's indices.
#[derive(Clone, Debug, Default)]
struct BinnedRoute {
    /// `bins[b]` — indices into the route arrays whose global id falls
    /// into bin `b`.
    bins: Vec<Vec<u32>>,
}

fn bin_route(route: &Route, r: usize) -> BinnedRoute {
    let mut bins = vec![Vec::new(); r];
    for (i, &g) in route.globals.iter().enumerate() {
        bins[(g as usize) % r].push(i as u32);
    }
    BinnedRoute { bins }
}

/// Cached remote rows for one route (one peer, one layer), plus
/// per-bin refresh epochs so staleness is observable.
#[derive(Clone, Debug)]
struct RouteCache {
    data: Vec<f32>,
    valid: Vec<bool>,
    /// Epoch at which each bin's rows were last refreshed (the consume
    /// epoch; the content itself was generated `r` epochs earlier).
    bin_refresh: Vec<Option<u64>>,
}

impl RouteCache {
    fn new(rows: usize, d: usize, bins: usize) -> Self {
        RouteCache {
            data: vec![0.0; rows * d],
            valid: vec![false; rows],
            bin_refresh: vec![None; bins],
        }
    }

    /// Stores `payload` (bin-ordered rows) at route indices `idx`.
    fn store_rows(&mut self, idx: &[u32], payload: &[f32], d: usize) {
        assert_eq!(payload.len(), idx.len() * d, "cache payload size mismatch");
        for (j, &i) in idx.iter().enumerate() {
            let i = i as usize;
            self.data[i * d..(i + 1) * d].copy_from_slice(&payload[j * d..(j + 1) * d]);
            self.valid[i] = true;
        }
    }

    /// Stores one bin's rows and stamps its refresh epoch.
    fn store_bin(&mut self, idx: &[u32], payload: &[f32], d: usize, bin: usize, epoch: u64) {
        self.store_rows(idx, payload, d);
        self.bin_refresh[bin] = Some(epoch);
    }

    /// Accumulates one bin's *delta* rows (delta-codec path: the cache
    /// holds the running sum of decoded deltas, which is the
    /// reconstructed absolute value) and stamps its refresh epoch.
    fn add_bin(&mut self, idx: &[u32], delta: &[f32], d: usize, bin: usize, epoch: u64) {
        assert_eq!(delta.len(), idx.len() * d, "cache payload size mismatch");
        for (j, &i) in idx.iter().enumerate() {
            let i = i as usize;
            let row = &mut self.data[i * d..(i + 1) * d];
            for (x, dv) in row.iter_mut().zip(&delta[j * d..(j + 1) * d]) {
                *x += dv;
            }
            self.valid[i] = true;
        }
        self.bin_refresh[bin] = Some(epoch);
    }

    /// Calls `f(age)` for every bin that has ever refreshed, where
    /// `age` is how old (in epochs) its cached content is at `epoch`:
    /// content consumed at epoch `c` was generated at `c - r`.
    fn for_each_bin_age(&self, epoch: u64, r: u64, mut f: impl FnMut(u64)) {
        for last in self.bin_refresh.iter().flatten() {
            f(epoch - last + r);
        }
    }

    /// Calls `f(route_index, row)` for every row received so far.
    fn for_each_valid(&self, d: usize, mut f: impl FnMut(usize, &[f32])) {
        for (i, &ok) in self.valid.iter().enumerate() {
            if ok {
                f(i, &self.data[i * d..(i + 1) * d]);
            }
        }
    }
}

/// Per-direction delayed-sync state (one per forward/backward).
#[derive(Clone, Debug, Default)]
struct CdrState {
    /// `[layer][peer]` cached leaf partials held at roots.
    root: Vec<Vec<RouteCache>>,
    /// `[layer][peer]` cached final values held at leaves.
    leaf: Vec<Vec<RouteCache>>,
}

/// Delta-compression state for the clone-sync payloads: the
/// ISSUE-7 "delta encoded against the receiver's cached partials"
/// scheme. Per `(phase, layer, peer)` route the sender keeps an exact
/// mirror of what the receiver has accumulated from its decoded deltas
/// so far; each epoch ships `enc(current − mirror)` and advances the
/// mirror by the *decoded* delta, so sender and receiver stay in exact
/// f32 sync and the un-shipped part of a lossy delta automatically
/// reappears in the next epoch's delta (the halo analogue of error
/// feedback — self-correcting, no drift).
///
/// `recv` holds the receiver-side accumulators for the cd-0 phases,
/// which have no persistent cache of their own; cd-r receives
/// accumulate directly into the existing [`RouteCache`] data.
#[derive(Clone, Debug, Default)]
struct CodecState {
    /// `[phase][layer][peer]` sender-side mirrors of receiver state.
    sent: Vec<Vec<Vec<Vec<f32>>>>,
    /// `[phase][layer][peer]` receiver-side accumulated payloads.
    recv: Vec<Vec<Vec<Vec<f32>>>>,
}

impl CodecState {
    fn slot(
        store: &mut Vec<Vec<Vec<Vec<f32>>>>,
        phase: usize,
        layer: usize,
        peer: usize,
        len: usize,
    ) -> &mut Vec<f32> {
        while store.len() <= phase {
            store.push(Vec::new());
        }
        let layers = &mut store[phase];
        while layers.len() <= layer {
            layers.push(Vec::new());
        }
        let peers = &mut layers[layer];
        while peers.len() <= peer {
            peers.push(Vec::new());
        }
        let v = &mut peers[peer];
        if v.len() != len {
            // First use at this shape: both ends start from zero.
            v.clear();
            v.resize(len, 0.0);
        }
        v
    }

    fn sent_slot(&mut self, phase: u64, layer: usize, peer: usize, len: usize) -> &mut Vec<f32> {
        Self::slot(&mut self.sent, phase as usize, layer, peer, len)
    }

    fn recv_slot(&mut self, phase: u64, layer: usize, peer: usize, len: usize) -> &mut Vec<f32> {
        Self::slot(&mut self.recv, phase as usize, layer, peer, len)
    }
}

/// Immutable routing context shared by both sync directions.
struct SyncTopo<'t> {
    routes_out: &'t [Route],
    routes_in: &'t [Route],
    binned_out: &'t [BinnedRoute],
    binned_in: &'t [BinnedRoute],
}

/// The per-rank distributed aggregator.
pub struct RankAggregator<'a, 'b> {
    ctx: &'a RankCtx<'b>,
    mode: DistMode,
    prep: PreparedAggregation,
    prep_t: PreparedAggregation,
    local_deg: Vec<f32>,
    global_deg: Vec<f32>,
    /// `routes_out[p]` — my leaves whose root is on rank `p`.
    routes_out: Vec<Route>,
    /// `routes_in[q]` — roots on me whose leaves are on rank `q`.
    routes_in: Vec<Route>,
    binned_out: Vec<BinnedRoute>,
    binned_in: Vec<BinnedRoute>,
    fwd_state: CdrState,
    codec: WireCodec,
    codec_state: CodecState,
    retry: RetryPolicy,
    epoch: u64,
    /// First communication failure observed by a sync; forward/backward
    /// cannot return errors through the `Aggregator` trait, so the
    /// trainer polls [`RankAggregator::take_error`] once per epoch.
    error: Option<CommError>,
    lat: Duration,
    rat: Duration,
    backward_time: Duration,
    /// This aggregator's [`Aggregator::layer0_reuse_key`], offered only
    /// where [`layer0_is_constant`] holds.
    key: u64,
}

/// Whether a rank's layer-0 aggregate under `mode` and `codec` is a
/// function of (partition, features) alone, and so the same every
/// epoch: `0c` syncs nothing, and an exact blocking sync (`cd-0`,
/// `cd-r` with `r = 0`) over the identity codec delivers the same
/// complete sums each time. A lossy codec's delta mirrors refine the
/// aggregate epoch by epoch, and `cd-r` (`r > 0`) delays its remote
/// partials, so both re-aggregate layer 0 every epoch.
pub fn layer0_is_constant(mode: DistMode, codec: &WireCodec) -> bool {
    match mode {
        DistMode::Oc => true,
        DistMode::Cd0 | DistMode::CdR { delay: 0 } => codec.is_identity(),
        DistMode::CdR { .. } => false,
    }
}

impl<'a, 'b> RankAggregator<'a, 'b> {
    /// Builds the aggregator for `ctx.rank()` from the shared setup.
    pub fn new(
        ctx: &'a RankCtx<'b>,
        pg: &PartitionedGraph,
        mode: DistMode,
        kernel: AggregationConfig,
    ) -> Self {
        let me = ctx.rank();
        assert_eq!(pg.num_parts(), ctx.size(), "partition/rank count mismatch");
        let part = &pg.parts[me];
        let routes_out: Vec<Route> = pg.routes[me].clone();
        let routes_in: Vec<Route> =
            (0..pg.num_parts()).map(|q| pg.routes[q][me].clone()).collect();
        let (binned_out, binned_in) = match mode {
            DistMode::CdR { delay } if delay > 0 => (
                routes_out.iter().map(|r| bin_route(r, delay)).collect(),
                routes_in.iter().map(|r| bin_route(r, delay)).collect(),
            ),
            _ => (Vec::new(), Vec::new()),
        };
        RankAggregator {
            ctx,
            mode,
            prep: PreparedAggregation::new(&part.graph, kernel),
            prep_t: PreparedAggregation::new(&part.graph.transpose(), kernel),
            local_deg: part.local_degrees(),
            global_deg: part.global_degrees.clone(),
            routes_out,
            routes_in,
            binned_out,
            binned_in,
            fwd_state: CdrState::default(),
            codec: WireCodec::None,
            codec_state: CodecState::default(),
            retry: RetryPolicy::standard(),
            epoch: 0,
            error: None,
            lat: Duration::ZERO,
            rat: Duration::ZERO,
            backward_time: Duration::ZERO,
            key: next_aggregator_key(),
        }
    }

    /// Selects a [`WireCodec`] for the clone-sync payloads. A non-
    /// identity codec switches the exchanges to *delta encoding*
    /// against mirrored receiver state (see [`CodecState`]). Under a
    /// fault plan with message-level faults, cd-r bin refreshes fall
    /// back to the uncompressed wire: a silently dropped delta would
    /// permanently desynchronize the mirrors (the cd-0 collectives
    /// deliver-or-abort, so they keep the codec even under faults).
    pub fn with_codec(mut self, codec: WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Selects the retry policy for blocking collectives; the default
    /// is [`RetryPolicy::standard`], so transient delay faults cost
    /// bounded extra barriers instead of a collective abort.
    /// [`RetryPolicy::none`] restores fail-fast semantics.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Serializes the `cd-r` cross-epoch caches for a checkpoint.
    /// Empty for `0c` / `cd-0` (those modes keep no comm state).
    pub fn export_state(&self) -> DrpaState {
        let convert = |caches: &Vec<Vec<RouteCache>>| {
            caches
                .iter()
                .map(|layer| {
                    layer
                        .iter()
                        .map(|c| RouteCacheState {
                            data: c.data.clone(),
                            valid: c.valid.clone(),
                            bin_refresh: c.bin_refresh.clone(),
                        })
                        .collect()
                })
                .collect()
        };
        DrpaState {
            root: convert(&self.fwd_state.root),
            leaf: convert(&self.fwd_state.leaf),
            codec_sent: self.codec_state.sent.clone(),
            codec_recv: self.codec_state.recv.clone(),
        }
    }

    /// Restores caches exported by [`RankAggregator::export_state`].
    /// Replaying from the checkpoint epoch then reproduces the same
    /// staleness trajectory a never-interrupted run would have seen.
    pub fn import_state(&mut self, state: &DrpaState) {
        let convert = |caches: &Vec<Vec<RouteCacheState>>| {
            caches
                .iter()
                .map(|layer| {
                    layer
                        .iter()
                        .map(|c| RouteCache {
                            data: c.data.clone(),
                            valid: c.valid.clone(),
                            bin_refresh: c.bin_refresh.clone(),
                        })
                        .collect()
                })
                .collect()
        };
        self.fwd_state = CdrState {
            root: convert(&state.root),
            leaf: convert(&state.leaf),
        };
        self.codec_state = CodecState {
            sent: state.codec_sent.clone(),
            recv: state.codec_recv.clone(),
        };
    }

    /// Sets the current epoch; `cd-r` tags its messages with it, and
    /// the cluster's fault plan expresses stall windows in it.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.ctx.set_epoch(epoch);
    }

    /// Takes the first communication error a sync observed since the
    /// last call. Errors from `all_to_all_v` are collective — every
    /// rank records one at the same program point — so a per-epoch poll
    /// lets all ranks abort together without desynchronizing barriers.
    pub fn take_error(&mut self) -> Option<CommError> {
        self.error.take()
    }

    /// Normalization degrees for the current mode.
    fn degrees(&self) -> &[f32] {
        match self.mode {
            DistMode::Oc => &self.local_deg,
            _ => &self.global_deg,
        }
    }

    /// Local + remote aggregation time accumulated in forward passes
    /// since the last take; (LAT, RAT, backward-agg) of Fig. 6.
    pub fn take_times(&mut self) -> (Duration, Duration, Duration) {
        (
            std::mem::take(&mut self.lat),
            std::mem::take(&mut self.rat),
            std::mem::take(&mut self.backward_time),
        )
    }

    /// Mode dispatch for one sync of `m` (aggregates or gradients).
    ///
    /// Gradients (`BWD_PHASES`) are only synchronized under `cd-0`:
    /// Alg. 4 communicates feature aggregates, and gradients are far
    /// too high-variance to tolerate `r`-epoch staleness — delayed
    /// gradient sync measurably *hurts* convergence, so `cd-r` keeps
    /// its backward pass clone-local like `0c`.
    fn sync(&mut self, m: &mut Matrix, layer: usize, phases: (u64, u64)) {
        // After a collective abort, stay comm-silent: every rank saw
        // the same error at the same sync, so every rank skips the same
        // collectives until the trainer polls `take_error`.
        if self.error.is_some() {
            return;
        }
        let backward = phases == BWD_PHASES;
        let topo = SyncTopo {
            routes_out: &self.routes_out,
            routes_in: &self.routes_in,
            binned_out: &self.binned_out,
            binned_in: &self.binned_in,
        };
        match self.mode {
            DistMode::Oc => {}
            DistMode::Cd0 | DistMode::CdR { delay: 0 } => {
                self.error = sync_blocking(
                    self.ctx,
                    &topo,
                    &mut self.codec_state,
                    m,
                    layer,
                    phases,
                    &self.codec,
                    &self.retry,
                )
                .err();
            }
            DistMode::CdR { delay } => {
                if !backward {
                    // A silently dropped/held tagged delta would
                    // permanently desynchronize the mirrors, so
                    // message-level fault plans disable the codec for
                    // the bin refreshes (crash-only plans keep it:
                    // crashes abort collectively and resume from a
                    // checkpoint that carries the mirrors).
                    let codec = if self.ctx.message_faults_armed() {
                        WireCodec::None
                    } else {
                        self.codec
                    };
                    sync_delayed(
                        self.ctx,
                        &topo,
                        &mut self.fwd_state,
                        &mut self.codec_state,
                        m,
                        layer,
                        self.epoch,
                        delay,
                        phases,
                        &codec,
                    );
                }
            }
        }
    }
}

impl Aggregator for RankAggregator<'_, '_> {
    fn num_vertices(&self) -> usize {
        self.prep.num_vertices()
    }

    fn forward(&mut self, layer: usize, h: &Matrix) -> Matrix {
        // Nested comm spans (CommSend/CommWait/Barrier) opened inside
        // `sync` split out of this scope automatically, leaving the
        // exclusive Aggregate time = LAT + RAT pre/post-processing.
        let _agg_span = self.ctx.telemetry().scope(Phase::Aggregate);
        // Local aggregation (LAT).
        let t0 = Instant::now();
        let mut agg = self.prep.aggregate(h, None, BinaryOp::CopyLhs, ReduceOp::Sum);
        self.lat += t0.elapsed();

        // Remote aggregation incl. pre/post-processing (RAT).
        let t1 = Instant::now();
        self.sync(&mut agg, layer, FWD_PHASES);
        self.rat += t1.elapsed();

        // Epilogue counts as local work.
        let t2 = Instant::now();
        gcn_normalize(&mut agg, h, self.degrees());
        self.lat += t2.elapsed();
        agg
    }

    fn backward(&mut self, layer: usize, grad_out: &Matrix) -> Matrix {
        let _agg_span = self.ctx.telemetry().scope(Phase::Aggregate);
        let t0 = Instant::now();
        // out = (a_sync + h) / (D + 1): scale incoming gradient once.
        let mut scaled = grad_out.clone();
        let d = scaled.cols();
        scaled
            .as_mut_slice()
            .par_chunks_mut(d)
            .zip(self.degrees().par_iter())
            .for_each(|(row, &deg)| {
                let inv = 1.0 / (deg + 1.0);
                row.iter_mut().for_each(|x| *x *= inv);
            });
        // Adjoint of the clone sync: sum gradients across clones and
        // broadcast the total back (same tree, same delay policy).
        let mut synced = scaled.clone();
        self.sync(&mut synced, layer, BWD_PHASES);
        // Local A^T term on the synchronized gradient, plus the
        // (clone-local) self term.
        let mut grad_in = self.prep_t.aggregate(&synced, None, BinaryOp::CopyLhs, ReduceOp::Sum);
        distgnn_tensor::ops::add_assign(&mut grad_in, &scaled);
        self.backward_time += t0.elapsed();
        grad_in
    }

    /// Withdrawn after a failed sync: its aggregate is incomplete.
    fn layer0_reuse_key(&self) -> Option<u64> {
        (layer0_is_constant(self.mode, &self.codec) && self.error.is_none()).then_some(self.key)
    }
}

/// Synchronous reduce-broadcast over the clone trees (cd-0), for
/// aggregates and gradients alike: leaves send partial sums to roots,
/// roots reduce and send the totals back. Each route's payload goes
/// through [`send_rows`] / [`recv_rows`], so the identity codec ships
/// raw rows and any other codec ships deltas against the route
/// mirrors.
///
/// Each phase posts its AlltoAllv to the progress engine and waits on
/// the handle: fault-free, the per-link FIFOs deliver what the blocking
/// collective would, with no rendezvous barriers; under an armed fault
/// plan the handle *is* the blocking [`RankCtx::all_to_all_v_retry`].
///
/// Transient delivery faults are absorbed by `retry` (bounded
/// barrier-stepped backoff); once the policy is exhausted, a missing
/// peer payload aborts the sync on *every* rank (the AlltoAllv error is
/// collective), leaving `m` partially updated — callers must treat
/// `Err` as fatal for the epoch. Because the collectives
/// deliver-or-abort, no silent delta loss can desynchronize the
/// mirrors; an aborted epoch is abandoned wholesale and resumes from a
/// checkpoint that carries them.
#[allow(clippy::too_many_arguments)]
fn sync_blocking(
    ctx: &RankCtx<'_>,
    topo: &SyncTopo<'_>,
    state: &mut CodecState,
    m: &mut Matrix,
    layer: usize,
    phases: (u64, u64),
    codec: &WireCodec,
    retry: &RetryPolicy,
) -> Result<(), CommError> {
    let k = ctx.size();
    let d = m.cols();
    // Phase 1: leaves -> roots (partial sums).
    let outgoing: Vec<Vec<f32>> = (0..k)
        .map(|p| {
            let rows = gather_rows(m, &topo.routes_out[p].leaf_locals, d);
            send_rows(ctx, codec, state, (phases.0, layer, p), rows)
        })
        .collect();
    let incoming = ctx.all_to_all_v_wait(ctx.all_to_all_v_async(outgoing, retry))?;
    for (q, payload) in incoming.iter().enumerate() {
        let locals = &topo.routes_in[q].root_locals;
        let rows = recv_rows(ctx, codec, state, (phases.0, layer, q), payload, locals.len() * d);
        scatter_reduce(m, locals, rows, d);
    }
    // Phase 2: roots -> leaves (totals).
    let outgoing: Vec<Vec<f32>> = (0..k)
        .map(|q| {
            let rows = gather_rows(m, &topo.routes_in[q].root_locals, d);
            send_rows(ctx, codec, state, (phases.1, layer, q), rows)
        })
        .collect();
    let incoming = ctx.all_to_all_v_wait(ctx.all_to_all_v_async(outgoing, retry))?;
    for (p, payload) in incoming.iter().enumerate() {
        let locals = &topo.routes_out[p].leaf_locals;
        let rows = recv_rows(ctx, codec, state, (phases.1, layer, p), payload, locals.len() * d);
        scatter_overwrite(m, locals, rows, d);
    }
    Ok(())
}

/// A cd-0 route's `(phase, layer, peer)` key into [`CodecState`].
type RouteKey = (u64, usize, usize);

/// Wire payload for one route's gathered `rows`: the rows themselves
/// under the identity codec, else `enc(rows − mirror)` with the
/// route's sender mirror advanced (see [`delta_encode`]).
fn send_rows(
    ctx: &RankCtx<'_>,
    codec: &WireCodec,
    state: &mut CodecState,
    (phase, layer, peer): RouteKey,
    rows: Vec<f32>,
) -> Vec<f32> {
    if codec.is_identity() {
        return rows;
    }
    let mirror = state.sent_slot(phase, layer, peer, rows.len());
    let wire = delta_encode(codec, &rows, mirror);
    if peer != ctx.rank() {
        ctx.note_coded_sent((wire.len() * 4) as u64, (rows.len() * 4) as u64);
    }
    wire
}

/// The `len` absolute rows one route's received `payload` stands for:
/// the payload itself under the identity codec, else the route's
/// receiver accumulator advanced by the decoded delta.
fn recv_rows<'s>(
    ctx: &RankCtx<'_>,
    codec: &WireCodec,
    state: &'s mut CodecState,
    (phase, layer, peer): RouteKey,
    payload: &'s [f32],
    len: usize,
) -> &'s [f32] {
    if codec.is_identity() {
        return payload;
    }
    let acc = state.recv_slot(phase, layer, peer, len);
    delta_apply(codec, payload, acc);
    if peer != ctx.rank() {
        ctx.note_coded_received((payload.len() * 4) as u64, (len * 4) as u64);
    }
    acc
}

/// Sender half of the delta scheme: returns `enc(current − mirror)`
/// and advances the mirror by the *decoded* delta — exactly what the
/// receiver will accumulate, so both ends stay in bit-exact f32 sync.
fn delta_encode(codec: &WireCodec, current: &[f32], mirror: &mut [f32]) -> Vec<f32> {
    debug_assert_eq!(current.len(), mirror.len());
    let mut delta: Vec<f32> =
        current.iter().zip(mirror.iter()).map(|(c, m)| c - m).collect();
    let wire = codec.encode(&delta);
    // Reuse the delta buffer for the decoded delta.
    codec.decode_into(&wire, &mut delta);
    for (m, d) in mirror.iter_mut().zip(&delta) {
        *m += d;
    }
    wire
}

/// Receiver half: decodes a delta payload and accumulates it into
/// `acc`, which then holds the absolute (reconstructed) rows.
fn delta_apply(codec: &WireCodec, wire: &[f32], acc: &mut [f32]) {
    let decoded = codec.decode(wire, acc.len());
    for (a, d) in acc.iter_mut().zip(&decoded) {
        *a += d;
    }
}

/// [`delta_encode`] restricted to the bin rows `idx` of a full-route
/// mirror: `current` holds the bin rows in bin order, `mirror` the
/// whole route.
fn delta_encode_rows(
    codec: &WireCodec,
    current: &[f32],
    idx: &[u32],
    mirror: &mut [f32],
    d: usize,
) -> Vec<f32> {
    debug_assert_eq!(current.len(), idx.len() * d);
    let mut delta = vec![0.0f32; current.len()];
    for (j, &i) in idx.iter().enumerate() {
        let m = &mirror[i as usize * d..(i as usize + 1) * d];
        for (c, (x, mi)) in current[j * d..(j + 1) * d].iter().zip(m).enumerate() {
            delta[j * d + c] = x - mi;
        }
    }
    let wire = codec.encode(&delta);
    codec.decode_into(&wire, &mut delta);
    for (j, &i) in idx.iter().enumerate() {
        let m = &mut mirror[i as usize * d..(i as usize + 1) * d];
        for (mi, dv) in m.iter_mut().zip(&delta[j * d..(j + 1) * d]) {
            *mi += dv;
        }
    }
    wire
}

/// Asynchronous, binned, delayed sync (cd-r), Alg. 4 lines 9–21, with
/// per-layer caches so every epoch applies all bins' latest (stale)
/// remote contributions.
#[allow(clippy::too_many_arguments)]
fn sync_delayed(
    ctx: &RankCtx<'_>,
    topo: &SyncTopo<'_>,
    state: &mut CdrState,
    cstate: &mut CodecState,
    m: &mut Matrix,
    layer: usize,
    epoch: u64,
    delay: usize,
    phases: (u64, u64),
    codec: &WireCodec,
) {
    let k = ctx.size();
    let me = ctx.rank();
    let d = m.cols();
    let b = (epoch % delay as u64) as usize;
    ensure_caches(state, topo, layer, d, k, delay);

    // Lines 10–11: gather + async-send this bin's leaf partials
    // (local values, before any cache is applied). With a codec the
    // payload is the bin's delta against the mirrored receiver cache.
    for p in 0..k {
        if p == me {
            continue;
        }
        let idx = &topo.binned_out[p].bins[b];
        if idx.is_empty() {
            continue;
        }
        let locals = select(&topo.routes_out[p].leaf_locals, idx);
        let rows = gather_rows(m, &locals, d);
        let payload = if codec.is_identity() {
            rows
        } else {
            let logical = rows.len();
            let mirror =
                cstate.sent_slot(phases.0, layer, p, topo.routes_out[p].len() * d);
            let wire = delta_encode_rows(codec, &rows, idx, mirror, d);
            ctx.note_coded_sent((wire.len() * 4) as u64, (logical * 4) as u64);
            wire
        };
        ctx.send_tagged(p, tag(phases.0, layer, epoch), payload);
    }

    // Lines 12–14: roots pick up leaf partials from epoch e − r (same
    // bin), refresh the cache, then reduce every bin's cached partials
    // into the fresh local values.
    if epoch >= delay as u64 {
        let e_src = epoch - delay as u64;
        for q in 0..k {
            if q == me {
                continue;
            }
            let idx = &topo.binned_in[q].bins[b];
            if idx.is_empty() {
                continue;
            }
            // A dropped or still-delayed bin message simply leaves the
            // cached partial in place — the staleness counter below is
            // what makes the miss observable.
            if let Some(payload) = ctx.try_recv_tagged(q, tag(phases.0, layer, e_src)) {
                if codec.is_identity() {
                    state.root[layer][q].store_bin(idx, &payload, d, b, epoch);
                } else {
                    let delta = codec.decode(&payload, idx.len() * d);
                    ctx.note_coded_received(
                        (payload.len() * 4) as u64,
                        (delta.len() * 4) as u64,
                    );
                    state.root[layer][q].add_bin(idx, &delta, d, b, epoch);
                }
            }
        }
    }
    for q in 0..k {
        state.root[layer][q].for_each_valid(d, |i, row| {
            let local = topo.routes_in[q].root_locals[i] as usize;
            for (x, &p) in m.row_mut(local).iter_mut().zip(row) {
                *x += p;
            }
        });
    }

    // Lines 15–16: roots send this bin's (now reduced) totals back.
    if epoch >= delay as u64 {
        for q in 0..k {
            if q == me {
                continue;
            }
            let idx = &topo.binned_in[q].bins[b];
            if idx.is_empty() {
                continue;
            }
            let locals = select(&topo.routes_in[q].root_locals, idx);
            let rows = gather_rows(m, &locals, d);
            let back = if codec.is_identity() {
                rows
            } else {
                let logical = rows.len();
                let mirror =
                    cstate.sent_slot(phases.1, layer, q, topo.routes_in[q].len() * d);
                let wire = delta_encode_rows(codec, &rows, idx, mirror, d);
                ctx.note_coded_sent((wire.len() * 4) as u64, (logical * 4) as u64);
                wire
            };
            ctx.send_tagged(q, tag(phases.1, layer, epoch), back);
        }
    }

    // Lines 18–21: leaves pick up totals from epoch e − r, refresh the
    // cache, and overwrite with every bin's cached totals.
    if epoch >= 2 * delay as u64 {
        let e_src = epoch - delay as u64;
        for p in 0..k {
            if p == me {
                continue;
            }
            let idx = &topo.binned_out[p].bins[b];
            if idx.is_empty() {
                continue;
            }
            if let Some(payload) = ctx.try_recv_tagged(p, tag(phases.1, layer, e_src)) {
                if codec.is_identity() {
                    state.leaf[layer][p].store_bin(idx, &payload, d, b, epoch);
                } else {
                    let delta = codec.decode(&payload, idx.len() * d);
                    ctx.note_coded_received(
                        (payload.len() * 4) as u64,
                        (delta.len() * 4) as u64,
                    );
                    state.leaf[layer][p].add_bin(idx, &delta, d, b, epoch);
                }
            }
        }
    }
    for p in 0..k {
        state.leaf[layer][p].for_each_valid(d, |i, row| {
            let local = topo.routes_out[p].leaf_locals[i] as usize;
            m.row_mut(local).copy_from_slice(row);
        });
    }

    // Staleness accounting: every bin consumed this epoch carries
    // content generated `r` epochs before its refresh. Fault-free, each
    // bin refreshes every `r` epochs, so ages stay within Alg. 4's `2r`
    // bound; a dropped bin message pushes its bin past the bound, which
    // `record_staleness` flags as a violation.
    let r = delay as u64;
    for q in 0..k {
        state.root[layer][q].for_each_bin_age(epoch, r, |age| ctx.record_staleness(age, 2 * r));
        state.leaf[layer][q].for_each_bin_age(epoch, r, |age| ctx.record_staleness(age, 2 * r));
    }
}

fn ensure_caches(
    state: &mut CdrState,
    topo: &SyncTopo<'_>,
    layer: usize,
    d: usize,
    k: usize,
    bins: usize,
) {
    while state.root.len() <= layer {
        state.root.push(Vec::new());
        state.leaf.push(Vec::new());
    }
    if state.root[layer].is_empty() {
        state.root[layer] =
            (0..k).map(|q| RouteCache::new(topo.routes_in[q].len(), d, bins)).collect();
        state.leaf[layer] =
            (0..k).map(|p| RouteCache::new(topo.routes_out[p].len(), d, bins)).collect();
    }
}

fn select(locals: &[u32], idx: &[u32]) -> Vec<u32> {
    idx.iter().map(|&i| locals[i as usize]).collect()
}

/// Gathers `rows` of `m` into a flat payload (Alg. 4 "gather").
pub fn gather_rows(m: &Matrix, rows: &[u32], d: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(rows.len() * d);
    for &r in rows {
        out.extend_from_slice(m.row(r as usize));
    }
    out
}

/// Adds payload rows into `m` (Alg. 4 "scatter_reduce").
pub fn scatter_reduce(m: &mut Matrix, rows: &[u32], payload: &[f32], d: usize) {
    assert_eq!(payload.len(), rows.len() * d, "payload size mismatch");
    for (i, &r) in rows.iter().enumerate() {
        let dst = m.row_mut(r as usize);
        for (x, &p) in dst.iter_mut().zip(&payload[i * d..(i + 1) * d]) {
            *x += p;
        }
    }
}

/// Overwrites payload rows into `m` (Alg. 4 "scatter").
pub fn scatter_overwrite(m: &mut Matrix, rows: &[u32], payload: &[f32], d: usize) {
    assert_eq!(payload.len(), rows.len() * d, "payload size mismatch");
    for (i, &r) in rows.iter().enumerate() {
        m.row_mut(r as usize).copy_from_slice(&payload[i * d..(i + 1) * d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_per_triple_and_direction() {
        let mut seen = std::collections::HashSet::new();
        for e in 0..10u64 {
            for l in 0..4usize {
                for ph in [FWD_PHASES.0, FWD_PHASES.1, BWD_PHASES.0, BWD_PHASES.1] {
                    assert!(seen.insert(tag(ph, l, e)));
                }
            }
        }
    }

    /// Satellite: the bit fields must not collide at their documented
    /// bounds — layer 255 with any phase must stay distinct from every
    /// neighbouring epoch's tags.
    #[test]
    fn tag_fields_do_not_collide_at_bounds() {
        let mut seen = std::collections::HashSet::new();
        for &e in &[0u64, 1, 2, 1_000, u32::MAX as u64] {
            for &l in &[0usize, 1, 127, 254, 255] {
                for ph in 0..4u64 {
                    assert!(seen.insert(tag(ph, l, e)), "collision at ({ph}, {l}, {e})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "depth bound")]
    #[cfg(debug_assertions)]
    fn tag_rejects_layers_beyond_the_depth_bound() {
        tag(0, 256, 0);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let mut m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let rows = [1u32, 3];
        let payload = gather_rows(&m, &rows, 2);
        assert_eq!(payload, vec![2.0, 3.0, 6.0, 7.0]);
        scatter_reduce(&mut m, &rows, &payload, 2);
        assert_eq!(m.row(1), &[4.0, 6.0]);
        scatter_overwrite(&mut m, &rows, &payload, 2);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        assert_eq!(m.row(3), &[6.0, 7.0]);
        // Row 0 untouched throughout.
        assert_eq!(m.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn bin_route_partitions_indices() {
        let route = Route {
            globals: vec![3, 5, 8, 10, 14],
            leaf_locals: vec![0, 1, 2, 3, 4],
            root_locals: vec![9, 9, 9, 9, 9],
        };
        let b = bin_route(&route, 5);
        let total: usize = b.bins.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        assert_eq!(b.bins[3], vec![0, 2]); // globals 3 and 8
        assert_eq!(b.bins[0], vec![1, 3]); // globals 5 and 10
        assert_eq!(b.bins[4], vec![4]); // global 14
    }

    #[test]
    fn route_cache_tracks_bin_ages() {
        let mut c = RouteCache::new(4, 1, 2);
        let mut ages = Vec::new();
        c.for_each_bin_age(5, 2, |a| ages.push(a));
        assert!(ages.is_empty(), "unrefreshed bins have no age");
        c.store_bin(&[0], &[1.0], 1, 0, 4);
        c.store_bin(&[1], &[2.0], 1, 1, 5);
        let mut ages = Vec::new();
        c.for_each_bin_age(7, 2, |a| ages.push(a));
        // Bin 0 refreshed at 4 (content from epoch 2): age 5 at epoch 7.
        // Bin 1 refreshed at 5 (content from epoch 3): age 4.
        assert_eq!(ages, vec![5, 4]);
        // A re-refresh resets the clock.
        c.store_bin(&[0], &[9.0], 1, 0, 6);
        let mut ages = Vec::new();
        c.for_each_bin_age(7, 2, |a| ages.push(a));
        assert_eq!(ages, vec![3, 4]);
    }

    #[test]
    fn route_cache_stores_and_replays() {
        let mut c = RouteCache::new(3, 2, 1);
        c.store_rows(&[2, 0], &[1.0, 2.0, 3.0, 4.0], 2);
        let mut seen = Vec::new();
        c.for_each_valid(2, |i, row| seen.push((i, row.to_vec())));
        assert_eq!(seen, vec![(0, vec![3.0, 4.0]), (2, vec![1.0, 2.0])]);
        // Overwrite refreshes in place.
        c.store_rows(&[0], &[9.0, 9.0], 2);
        let mut seen = Vec::new();
        c.for_each_valid(2, |i, row| seen.push((i, row.to_vec())));
        assert_eq!(seen[0], (0, vec![9.0, 9.0]));
    }
}
