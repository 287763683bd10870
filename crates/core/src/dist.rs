//! Distributed full-batch trainer (§5, Figures 5–6, Table 5).
//!
//! One thread per "socket". Every rank owns one Libra partition, holds
//! a full model replica (identical seed ⇒ identical init), trains on
//! its local vertices and AllReduces the parameter gradients each
//! epoch, exactly as the paper does with `torch.distributed` + OneCCL.
//!
//! Loss ownership: a global vertex is *owned* by exactly one rank (its
//! tree root if split, its only partition otherwise, round-robin if
//! isolated), so the distributed loss/accuracy sums count every vertex
//! once and — for `cd-0` — match the single-socket quantities.

use crate::drpa::{layer0_is_constant, RankAggregator};
use crate::model::{apply_flat_grads, GraphSage, SageConfig, SageWorkspace};
use distgnn_comm::stats::CommSnapshot;
use distgnn_comm::{
    Cluster, CommError, ErrorFeedback, FaultPlan, PendingMsg, RankCtx, RetryPolicy, WireCodec,
};
use crate::elastic::{merge_cluster_state, reshard_states};
use distgnn_graph::{Dataset, EdgeList};
use distgnn_io::{
    list_checkpoints, load_cluster_state, save_cluster_manifest, save_train_state_mode,
    CheckpointMode, PendingWire, TrainState,
};
use distgnn_kernels::{cost, AggregationConfig};
use distgnn_nn::{Adam, AdamConfig};
use distgnn_partition::{
    libra_partition, reshard_partitioning, reshard_remove_part, PartId, PartitionedGraph,
    Partitioning,
};
use distgnn_telemetry::{Metric, MetricsRegistry, Phase, Recorder, TelemetryHub, TraceCounter};
use distgnn_tensor::{reduce, Matrix};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The three distributed algorithms of §5.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistMode {
    /// Communication-avoiding: clones never synchronize.
    Oc,
    /// Synchronous delayed-0: full clone sync every epoch.
    Cd0,
    /// Delayed by `delay` epochs with split-vertex binning; `delay = 0`
    /// degenerates to [`DistMode::Cd0`].
    CdR { delay: usize },
}

impl DistMode {
    /// Paper-style display name (`0c`, `cd-0`, `cd-5`).
    pub fn name(&self) -> String {
        match self {
            DistMode::Oc => "0c".into(),
            DistMode::Cd0 => "cd-0".into(),
            DistMode::CdR { delay } => format!("cd-{delay}"),
        }
    }
}

/// Distributed training configuration.
#[derive(Clone, Debug)]
pub struct DistConfig {
    pub model: SageConfig,
    pub kernel: AggregationConfig,
    pub mode: DistMode,
    pub num_parts: usize,
    pub lr: f32,
    pub weight_decay: f32,
    pub epochs: usize,
    /// Seed for clone-tree root selection.
    pub seed: u64,
    /// Fault-injection scenario for chaos runs ([`FaultPlan::none`]
    /// outside of them).
    pub faults: FaultPlan,
    /// Retry policy for blocking collectives: transient delivery
    /// faults are absorbed with bounded barrier-stepped backoff before
    /// escalating to a collective abort.
    pub retry: RetryPolicy,
    /// Write a consistent cluster checkpoint every N epochs (0 = off;
    /// requires [`DistConfig::checkpoint_dir`]).
    pub checkpoint_every: usize,
    /// Root directory for `ckpt-<epoch>/` checkpoint directories.
    pub checkpoint_dir: Option<PathBuf>,
    /// Wire codec for compressed communication: gradient AllReduces
    /// run through error-feedback compression and DRPA exchanges ship
    /// delta-encoded payloads. [`WireCodec::None`] (the default) takes
    /// the exact uncompressed code paths bit-for-bit.
    ///
    /// Stream policy: the codec applies verbatim to the DRPA halo /
    /// partial-aggregate streams. The *gradient* stream normally uses
    /// the same codec, except under top-k, where it switches to int8
    /// quantization (see [`DistConfig::gradient_codec`]): sparsifying a
    /// sum-reduced gradient feeds Adam's second-moment estimate sparse
    /// spikes and measurably slows full-batch convergence, while the
    /// DRPA delta mirrors self-correct. Override with
    /// [`DistConfig::grad_codec`].
    pub codec: WireCodec,
    /// Explicit codec for the gradient AllReduce stream; `None` derives
    /// it from `codec` via the policy above.
    pub grad_codec: Option<WireCodec>,
    /// Carry each rank's compression error into the next epoch's
    /// gradient (error feedback). `false` is the naive-truncation
    /// baseline: every epoch's compression error is simply dropped.
    /// Ignored when `codec` is [`WireCodec::None`].
    pub error_feedback: bool,
    /// Store checkpoint params/Adam moments as bf16
    /// ([`CheckpointMode::LossyBf16`]): halves the weight-bearing
    /// sections, but resume is no longer bit-exact.
    pub lossy_checkpoints: bool,
    /// Restart budget: after a failed attempt, [`DistTrainer::launch`]
    /// reloads the newest valid checkpoint and relaunches, up to this
    /// many times. 0 (the default) returns the first error unchanged.
    pub max_restarts: usize,
    /// Start the first attempt from the newest valid checkpoint under
    /// [`DistConfig::checkpoint_dir`] instead of from scratch.
    pub resume: bool,
    /// Selects the elastic supervisor (as does
    /// [`DistConfig::adopt_on_crash`]) and lets it resume a checkpoint
    /// written by a different world size: it merges the global
    /// param/Adam state, re-shards the vertex-cut online and restarts
    /// at [`DistConfig::num_parts`] ranks under a fresh membership
    /// generation. The elastic supervisor cuts its own graph. With
    /// neither flag the world size is fixed and a world-size mismatch
    /// is a hard error.
    pub elastic_resume: bool,
    /// Selects the elastic supervisor (as does
    /// [`DistConfig::elastic_resume`]) and, on a fail-stop crash, lets
    /// the survivors vote on the newest valid checkpoint and adopt the
    /// dead rank's shard — training continues at world size N−1 with no
    /// world restart — instead of restarting the whole world.
    pub adopt_on_crash: bool,
    /// Membership generation this world runs under (0 for a fresh
    /// cluster; bumped by the supervisor on every elastic resize or
    /// adoption). Stamped on checkpoints and in-flight comm state.
    pub generation: u64,
}

impl DistConfig {
    pub fn new(dataset: &Dataset, mode: DistMode, num_parts: usize, epochs: usize) -> Self {
        let model = if dataset.name.starts_with("reddit") {
            SageConfig::reddit_shape(dataset.feat_dim(), dataset.num_classes, 0xD15)
        } else {
            SageConfig::standard_shape(dataset.feat_dim(), dataset.num_classes, 64, 0xD15)
        };
        DistConfig {
            model,
            kernel: AggregationConfig::optimized(1),
            mode,
            num_parts,
            lr: 0.01,
            weight_decay: 5e-4,
            epochs,
            seed: 0xD157,
            faults: FaultPlan::none(),
            retry: RetryPolicy::standard(),
            checkpoint_every: 0,
            checkpoint_dir: None,
            codec: WireCodec::None,
            grad_codec: None,
            error_feedback: true,
            lossy_checkpoints: false,
            max_restarts: 0,
            resume: false,
            elastic_resume: false,
            adopt_on_crash: false,
            generation: 0,
        }
    }

    /// The codec actually applied to the gradient AllReduce stream.
    ///
    /// Defaults to [`DistConfig::codec`], except that top-k downgrades
    /// to int8 quantization: gradients are *sum-reduced* — sparsified
    /// contributions arrive as per-rank spikes that inflate Adam's
    /// second-moment estimate and slow full-batch convergence — whereas
    /// the DRPA streams carry self-correcting delta mirrors that absorb
    /// sparsification for free. Gradients are ~2% of cd-0 traffic, so
    /// the gentler gradient codec barely moves the overall ratio.
    /// Set [`DistConfig::grad_codec`] to force a specific codec (the
    /// compression test suite uses this to isolate the gradient stream).
    pub fn gradient_codec(&self) -> WireCodec {
        if let Some(c) = self.grad_codec {
            return c;
        }
        match self.codec {
            WireCodec::TopK { .. } => WireCodec::Int8,
            c => c,
        }
    }
}

/// A distributed run aborted on a communication failure. The abort is
/// collective — every rank stopped at the same epoch — and `rank` is
/// the (lowest-numbered) rank that observed the root cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistError {
    pub rank: usize,
    pub epoch: usize,
    pub source: CommError,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "training aborted at epoch {} on rank {}: {}", self.epoch, self.rank, self.source)
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Cluster-wide per-epoch measurements (max over ranks for times, sum
/// for volumes).
#[derive(Clone, Copy, Debug)]
pub struct DistEpochReport {
    pub loss: f32,
    /// Local aggregation time, forward pass (max over ranks).
    pub lat: Duration,
    /// Remote aggregation time incl. pre/post-processing (max).
    pub rat: Duration,
    /// Backward aggregation time (max).
    pub backward_agg: Duration,
    /// Wall-clock epoch time (max).
    pub epoch_time: Duration,
}

/// Result of a distributed run.
#[derive(Clone, Debug)]
pub struct DistRunReport {
    pub epochs: Vec<DistEpochReport>,
    pub test_accuracy: f32,
    pub per_rank_comm: Vec<CommSnapshot>,
    /// Final parameters per rank (for replica-consistency checks).
    pub final_params: Vec<Vec<f32>>,
    /// Vertices per partition (split clones included).
    pub partition_vertices: Vec<usize>,
    /// Edges per partition.
    pub partition_edges: Vec<usize>,
    /// Restarts taken after failed attempts. Adoptions are membership
    /// changes, not restarts, and do not count here.
    pub restarts: usize,
    /// Epochs re-executed because they post-dated the last checkpoint.
    pub epochs_replayed: usize,
    /// Collective retries absorbed by the final attempt's
    /// [`RetryPolicy`] (summed over ranks).
    pub retries_absorbed: u64,
    /// Barriers spent backing off during those retries.
    pub backoff_barriers: u64,
    /// The error each failed attempt died with, in order.
    pub failures: Vec<DistError>,
    /// Crashed-rank shards adopted by the survivors (each one shrinks
    /// the world by a rank instead of restarting it).
    pub adoptions: usize,
    /// World size the run finished at (`num_parts` minus adoptions).
    pub final_world: usize,
}

impl DistRunReport {
    /// Mean epoch time over the measurement window. For delayed
    /// algorithms the paper averages epochs 10–20 (after the pipeline
    /// fills); we skip the first `2·r + 1` epochs when possible.
    pub fn mean_epoch_time(&self, mode: DistMode) -> Duration {
        let skip = match mode {
            DistMode::CdR { delay } => (2 * delay + 1).min(self.epochs.len().saturating_sub(1)),
            _ => usize::from(self.epochs.len() > 2),
        };
        let slice = &self.epochs[skip..];
        if slice.is_empty() {
            return Duration::ZERO;
        }
        slice.iter().map(|e| e.epoch_time).sum::<Duration>() / slice.len() as u32
    }

    pub fn mean_lat(&self) -> Duration {
        let n = self.epochs.len().max(1) as u32;
        self.epochs.iter().map(|e| e.lat).sum::<Duration>() / n
    }

    pub fn mean_rat(&self) -> Duration {
        let n = self.epochs.len().max(1) as u32;
        self.epochs.iter().map(|e| e.rat).sum::<Duration>() / n
    }
}

/// Per-rank data prepared before the SPMD section.
struct RankData {
    features: Matrix,
    labels: Vec<usize>,
    /// Local ids of *all* clones of training vertices in this
    /// partition. Every clone contributes loss, weighted by
    /// `1 / clone_count`, so a split training vertex receives gradient
    /// signal through each of its partial neighbourhoods (as in the
    /// paper, where features and labels travel with the clones). In
    /// `cd-0` the clones' logits are identical, so the global loss
    /// still equals the single-socket loss.
    train_ids: Vec<usize>,
    /// `1 / clone_count` per entry of `train_ids`.
    train_weights: Vec<f32>,
    /// Owned test vertices only (each global vertex counted once).
    test_ids: Vec<usize>,
}

struct RankEpoch {
    loss: f32,
    lat: Duration,
    rat: Duration,
    backward_agg: Duration,
    epoch_time: Duration,
}

struct RankResult {
    epochs: Vec<RankEpoch>,
    correct: f32,
    total: f32,
    params: Vec<f32>,
    /// Set when this rank aborted: (epoch, root cause).
    failure: Option<(usize, CommError)>,
}

/// What the elastic supervisor needs to re-cut the graph when the world
/// size changes: the global edge list and the current vertex-cut.
struct ElasticCtx {
    edges: EdgeList,
    partitioning: Partitioning,
}

/// The distributed trainer.
pub struct DistTrainer;

impl DistTrainer {
    /// Trains `dataset` for `config.epochs` full-batch epochs, one rank
    /// per partition. This is the one way to run; what runs is read off
    /// the arguments and the config:
    ///
    /// - `graph: None` cuts the graph with Libra for `config.num_parts`;
    ///   `Some` trains on the caller's cut (lets a harness reuse one
    ///   partitioning across modes).
    /// - [`DistConfig::elastic_resume`] or [`DistConfig::adopt_on_crash`]
    ///   selects the elastic supervisor, which treats the world size as
    ///   dynamic. A checkpoint written by another world size is merged
    ///   into one [`GlobalState`](crate::GlobalState), the cut is
    ///   re-sharded for `config.num_parts` ranks and training resumes
    ///   under a fresh membership generation. With `adopt_on_crash`, a
    ///   fail-stop crash makes the survivors vote on the newest valid
    ///   checkpoint, adopt the dead rank's shard and continue at world
    ///   size N−1 without a restart. This supervisor owns (and re-cuts)
    ///   its graph, so either flag with `Some(graph)` panics. Without
    ///   either flag the world size is fixed and a mismatched
    ///   checkpoint is a hard error.
    /// - On a [`DistError`] the newest *valid* checkpoint under
    ///   `config.checkpoint_dir` is reloaded (a corrupt one falls back to
    ///   the one before it) and the run relaunched, up to
    ///   `config.max_restarts` times; with `config.resume` the first
    ///   attempt also starts from it. Restarted attempts run with
    ///   [`FaultPlan::none`]: the injected fault killed the previous
    ///   incarnation of the cluster and does not survive into the new
    ///   one. Combined with checkpoints that capture params, optimizer
    ///   moments, DRPA caches and in-flight messages, a
    ///   killed-and-recovered run finishes with parameters bit-identical
    ///   to an uninterrupted same-seed run. With the defaults (no
    ///   restarts, no resume, neither elastic flag) the run is a single
    ///   attempt whose error is returned unchanged.
    /// - `hub` records phase timelines and counters into one
    ///   [`Recorder`] per rank; it needs at least `config.num_parts`, and
    ///   after a shrink the surviving ranks keep theirs. Every attempt
    ///   records into it, and each restart or adoption ticks the
    ///   `Replay`/`Adoption` trace counters. Recording only reads the
    ///   clock and writes preallocated atomics, so the trained
    ///   parameters are bit-identical to an unrecorded run.
    pub fn launch(
        dataset: &Dataset,
        graph: Option<&PartitionedGraph>,
        config: &DistConfig,
        hub: Option<&TelemetryHub>,
    ) -> Result<DistRunReport, DistError> {
        let elastic_flag = match (config.elastic_resume, config.adopt_on_crash) {
            (true, _) => Some("elastic_resume"),
            (_, true) => Some("adopt_on_crash"),
            _ => None,
        };
        if let (Some(flag), Some(_)) = (elastic_flag, graph) {
            panic!(
                "DistConfig::{flag} selects the elastic supervisor, which cuts its own graph: \
                 launch with `graph: None`"
            );
        }
        // The elastic supervisor keeps the edge list and cut to re-shard
        // on every membership change; otherwise the cut is built once.
        let mut owned_pg = None;
        let mut elastic = None;
        if graph.is_none() {
            let edges = dataset.graph.to_edge_list();
            let partitioning = libra_partition(&edges, config.num_parts);
            owned_pg = Some(PartitionedGraph::build(&edges, &partitioning, config.seed));
            if elastic_flag.is_some() {
                elastic = Some(ElasticCtx { edges, partitioning });
            }
        }
        // Cloned only once an attempt must differ from the caller's
        // config (resume, restart, adoption): a plain run allocates
        // nothing beyond the attempt itself.
        let mut cfg = Cow::Borrowed(config);
        let mut restarts = 0usize;
        let mut adoptions = 0usize;
        let mut epochs_replayed = 0usize;
        let mut failures = Vec::new();
        let mut states = if config.resume {
            load_newest_valid_checkpoint(config.checkpoint_dir.as_deref())
        } else {
            None
        };
        Self::reconcile_world(&mut cfg, &mut states, &mut elastic, &mut owned_pg);
        loop {
            let pg = owned_pg.as_ref().or(graph).expect("borrowed or built above");
            let err = match Self::attempt(dataset, pg, &cfg, states.as_deref(), hub) {
                Ok(mut run) => {
                    run.restarts = restarts;
                    run.epochs_replayed = epochs_replayed;
                    run.failures = failures;
                    run.adoptions = adoptions;
                    return Ok(run);
                }
                Err(err) => err,
            };
            // A fail-stop crash with adoption enabled shrinks the world
            // instead of restarting it: survivors vote on a checkpoint,
            // adopt the dead rank's shard, and keep training at N−1. Not
            // a restart — the budget is untouched.
            let adopted = match err.source {
                CommError::RankCrashed { rank }
                    if elastic.is_some() && cfg.adopt_on_crash && cfg.num_parts > 1 =>
                {
                    Self::adoption_vote(cfg.num_parts - 1, cfg.checkpoint_dir.as_deref())
                        .map(|states| (rank, states))
                }
                _ => None,
            };
            let adopting = adopted.is_some();
            let resume_epoch = if let Some((rank, adopted)) = adopted {
                let e = elastic.as_mut().expect("adoption runs on the elastic path");
                let survivors = cfg.num_parts - 1;
                // Survivors keep their shards; only the dead rank's
                // edges move.
                e.partitioning = reshard_remove_part(&e.edges, &e.partitioning, rank as PartId);
                let global = merge_cluster_state(&adopted)
                    .unwrap_or_else(|m| panic!("adopted checkpoint is inconsistent: {m}"));
                // Every membership change opens a new generation so no
                // old-world traffic (restored outboxes) leaks in.
                let generation = global.generation + 1;
                states = Some(reshard_states(&global, survivors, generation));
                owned_pg = Some(PartitionedGraph::build(&e.edges, &e.partitioning, cfg.seed));
                let c = cfg.to_mut();
                c.num_parts = survivors;
                c.generation = generation;
                c.faults = FaultPlan::none();
                adoptions += 1;
                global.epoch as usize
            } else {
                if restarts >= cfg.max_restarts {
                    return Err(err);
                }
                restarts += 1;
                // The fault plan modelled the failure of the *old*
                // cluster incarnation; the relaunched one starts with a
                // clean bill of health (epoch-keyed rules would
                // otherwise re-fire on every replay).
                cfg.to_mut().faults = FaultPlan::none();
                states = load_newest_valid_checkpoint(cfg.checkpoint_dir.as_deref());
                // A restart right after an adoption can reload a
                // checkpoint the *pre*-shrink world wrote; the elastic
                // path re-shards it for the current size.
                Self::reconcile_world(&mut cfg, &mut states, &mut elastic, &mut owned_pg);
                states.as_ref().map_or(0, |s| s[0].epoch as usize)
            };
            let replayed = err.epoch.saturating_sub(resume_epoch);
            epochs_replayed += replayed;
            if let Some(h) = hub {
                for r in &h.recorders()[..cfg.num_parts.min(h.num_ranks())] {
                    if adopting {
                        r.counter(TraceCounter::Adoption, 1);
                    }
                    r.counter(TraceCounter::Replay, replayed as u64);
                }
            }
            failures.push(err);
        }
    }

    /// [`DistTrainer::launch`] on a pre-built cut, without telemetry.
    pub fn try_run_on(
        dataset: &Dataset,
        pg: &PartitionedGraph,
        config: &DistConfig,
    ) -> Result<DistRunReport, DistError> {
        Self::launch(dataset, Some(pg), config, None)
    }

    /// [`DistTrainer::launch`] on a pre-built cut, recording into `hub`.
    pub fn try_run_on_with_telemetry(
        dataset: &Dataset,
        pg: &PartitionedGraph,
        config: &DistConfig,
        hub: &TelemetryHub,
    ) -> Result<DistRunReport, DistError> {
        Self::launch(dataset, Some(pg), config, Some(hub))
    }

    /// One training attempt on `pg`, optionally starting from a
    /// consistent cluster checkpoint (one [`TrainState`] per rank, all
    /// from the same epoch barrier). Restoring params, Adam moments,
    /// DRPA caches and the in-flight outbox makes the resumed run
    /// reproduce the uninterrupted one bit-for-bit.
    fn attempt(
        dataset: &Dataset,
        pg: &PartitionedGraph,
        config: &DistConfig,
        resume: Option<&[TrainState]>,
        hub: Option<&TelemetryHub>,
    ) -> Result<DistRunReport, DistError> {
        let k = pg.num_parts();
        assert_eq!(k, config.num_parts, "partition count mismatch");
        let start_epoch = resume.map_or(0, |s| s[0].epoch as usize);
        assert!(
            start_epoch <= config.epochs,
            "checkpoint epoch {start_epoch} is beyond the configured {} epochs",
            config.epochs
        );
        if let Some(states) = resume {
            check_residual_layout(config, states);
        }
        let rank_data = prepare_rank_data(dataset, pg);
        let global_train = dataset.train_mask.len().max(1) as f32;

        // Without a hub every rank gets a disabled recorder: the span
        // calls below compile down to a load-and-branch.
        let disabled_hub;
        let recorders: &[Arc<Recorder>] = match hub {
            Some(h) => {
                // A shrunk world keeps the original hub: ranks 0..k keep
                // their recorders (and attribution), the dead ranks'
                // recorders simply stop receiving events.
                assert!(
                    h.num_ranks() >= k,
                    "telemetry hub has {} ranks, world needs {k}",
                    h.num_ranks()
                );
                &h.recorders()[..k]
            }
            None => {
                disabled_hub = TelemetryHub::disabled(k);
                disabled_hub.recorders()
            }
        };

        let (results, comm) =
            Cluster::run_with(k, &config.faults, Some(recorders), config.generation, |ctx| {
            let me = ctx.rank();
            let data = &rank_data[me];
            let mut model = GraphSage::new(&config.model);
            let mut adam = Adam::new(AdamConfig {
                weight_decay: config.weight_decay,
                ..AdamConfig::with_lr(config.lr)
            });
            let mut agg = RankAggregator::new(ctx, pg, config.mode, config.kernel)
                .with_retry_policy(config.retry)
                .with_codec(config.codec);
            // Error-feedback stream for the compressed gradient
            // AllReduce: one flat buffer, one residual. The loss/accuracy
            // scalars always travel uncompressed.
            let grad_codec = config.gradient_codec();
            let mut ef =
                (!grad_codec.is_identity()).then(|| ErrorFeedback::new(config.error_feedback));
            if let Some(states) = resume {
                let st = &states[me];
                model.read_params(&st.params);
                adam.read_state(&st.adam);
                agg.import_state(&st.drpa);
                // Residuals are part of the trajectory: a resumed run
                // that zeroed them would ship different compressed
                // gradients than the uninterrupted run from the same
                // epoch. Their layout was checked before launch.
                if let (Some(ef), Some(r)) = (ef.as_mut(), st.residuals.first()) {
                    ef.restore_residual(r);
                }
                ctx.restore_outbox(&wires_to_msgs(&st.outbox));
                // Publish the restored mailboxes before anyone receives:
                // without this barrier a fast rank reaches its first
                // tagged receive while a slow peer is still re-posting,
                // silently misses the in-flight partial, and the run
                // drifts off the uninterrupted trajectory.
                ctx.barrier();
            }
            let mut epochs = Vec::with_capacity(config.epochs - start_epoch);

            // Per-rank epoch buffers, reused across epochs.
            let n_local = data.features.rows();
            let mut ws = SageWorkspace::new(&model, n_local);
            let mut probs = Matrix::zeros(n_local, config.model.num_classes);
            let mut flat = Vec::new();

            let mut failure = None;
            let rec = ctx.telemetry();
            for e in start_epoch..config.epochs {
                let t0 = Instant::now();
                agg.set_epoch(e as u64);
                // Fail-stop poll: a crash rule is a pure function of
                // the epoch, so every rank reaches the same verdict at
                // the same program point and tears down collectively.
                if let Some(err) = ctx.check_crashed() {
                    failure = Some((e, err));
                    break;
                }
                agg.take_times();
                let fwd = rec.scope(Phase::Forward);
                model.forward_into(&mut agg, &data.features, &mut ws);
                drop(fwd);

                // Clone-weighted loss over local train vertices; the
                // logits gradient lands in the final layer's `grad_z`.
                let bwd = rec.scope(Phase::Backward);
                let last = ws.layers.last_mut().expect("model has at least one layer");
                let loss_contrib = weighted_cross_entropy_into(
                    &last.z,
                    &data.labels,
                    &data.train_ids,
                    &data.train_weights,
                    global_train,
                    &mut probs,
                    &mut last.grad_z,
                );

                let mut loss_buf = [loss_contrib];
                model.backward_into(&mut agg, &mut ws);
                drop(bwd);
                // The gradient AllReduce's comm spans nest inside
                // Optimizer and split out via leaf attribution.
                let opt = rec.scope(Phase::Optimizer);
                ws.flatten_grads_into(&mut flat);
                match ef.as_mut() {
                    Some(ef) => ctx.all_reduce_sum_compressed(&mut flat, &grad_codec, ef),
                    None => ctx.all_reduce_sum(&mut flat),
                }
                ctx.all_reduce_sum(&mut loss_buf);
                apply_flat_grads(&mut model, &mut adam, &flat);
                drop(opt);

                let (lat, rat, backward_agg) = agg.take_times();
                epochs.push(RankEpoch {
                    loss: loss_buf[0],
                    lat,
                    rat,
                    backward_agg,
                    epoch_time: t0.elapsed(),
                });

                // Sync errors are collective (every rank records one at
                // the same sync call), so polling once per epoch makes
                // all ranks break out together — no rank is left behind
                // at a barrier.
                if let Some(err) = agg.take_error() {
                    failure = Some((e, err));
                    break;
                }

                // Consistent snapshot at the epoch barrier: every rank
                // passed the same error poll, so all ranks enter the
                // checkpoint protocol together or not at all.
                if config.checkpoint_every > 0 && (e + 1) % config.checkpoint_every == 0 {
                    if let Some(dir) = &config.checkpoint_dir {
                        let ck = rec.scope(Phase::Checkpoint);
                        write_cluster_checkpoint(
                            ctx,
                            dir,
                            (e + 1) as u64,
                            &model,
                            &adam,
                            &agg,
                            ef.as_ref(),
                            ckpt_mode(config),
                        );
                        drop(ck);
                    }
                }
                rec.end_epoch(e as u64);
            }

            if failure.is_none() {
                // Evaluation over owned test vertices. The codec stays
                // on: the delta mirrors keep receiver caches in near-
                // exact sync, so compressed evaluation measures the
                // same accuracy (and switching mid-stream would corrupt
                // cd-r payloads already in flight under the old codec).
                agg.set_epoch(config.epochs as u64);
                model.forward_into(&mut agg, &data.features, &mut ws);
                if let Some(err) = agg.take_error() {
                    failure = Some((config.epochs, err));
                }
            }
            let (correct, total) = match failure {
                Some(_) => (0.0, 0.0),
                None => {
                    let logits = ws.logits();
                    let correct = data
                        .test_ids
                        .iter()
                        .filter(|&&v| {
                            reduce::row_argmax(&logits.gather_rows(&[v]))[0] == data.labels[v]
                        })
                        .count() as f32;
                    let mut acc_buf = [correct, data.test_ids.len() as f32];
                    ctx.all_reduce_sum(&mut acc_buf);
                    (acc_buf[0], acc_buf[1])
                }
            };

            RankResult {
                epochs,
                correct,
                total,
                params: model.write_params(),
                failure,
            }
        });

        // A collective abort leaves every rank with a failure at the
        // same epoch; surface the root cause (a concrete missing
        // payload) over the sympathetic `PeerAborted`s.
        if results.iter().any(|r| r.failure.is_some()) {
            let (rank, (epoch, source)) = results
                .iter()
                .enumerate()
                .filter_map(|(p, r)| r.failure.map(|f| (p, f)))
                .min_by_key(|(p, (_, s))| (matches!(s, CommError::PeerAborted), *p))
                .expect("checked above");
            return Err(DistError { rank, epoch, source });
        }

        let epochs = (0..results[0].epochs.len())
            .map(|e| DistEpochReport {
                loss: results[0].epochs[e].loss,
                lat: results.iter().map(|r| r.epochs[e].lat).max().unwrap(),
                rat: results.iter().map(|r| r.epochs[e].rat).max().unwrap(),
                backward_agg: results.iter().map(|r| r.epochs[e].backward_agg).max().unwrap(),
                epoch_time: results.iter().map(|r| r.epochs[e].epoch_time).max().unwrap(),
            })
            .collect();
        let test_accuracy = if results[0].total > 0.0 {
            results[0].correct / results[0].total
        } else {
            0.0
        };
        Ok(DistRunReport {
            epochs,
            test_accuracy,
            retries_absorbed: comm.iter().map(|s| s.retries_attempted).sum(),
            backoff_barriers: comm.iter().map(|s| s.backoff_barriers).sum(),
            per_rank_comm: comm,
            final_params: results.into_iter().map(|r| r.params).collect(),
            partition_vertices: pg.parts.iter().map(|p| p.num_local_vertices()).collect(),
            partition_edges: pg.parts.iter().map(|p| p.graph.num_edges()).collect(),
            restarts: 0,
            epochs_replayed: 0,
            failures: Vec::new(),
            adoptions: 0,
            final_world: k,
        })
    }


    /// Brings loaded checkpoint states and the world size into
    /// agreement before an attempt launches.
    ///
    /// - Same size: adopt the checkpoint's membership generation so
    ///   restored outbox traffic passes the generation filter.
    /// - Different size, elastic: merge the checkpoint into a
    ///   [`GlobalState`](crate::GlobalState), reconstruct the source
    ///   world's deterministic Libra cut, online-re-shard it for
    ///   `cfg.num_parts`, rebuild the graph, and re-expand the merged
    ///   state under a fresh generation.
    /// - Different size, fixed world: panic with the actionable
    ///   message (`--elastic-resume` is the way out).
    fn reconcile_world(
        cfg: &mut Cow<'_, DistConfig>,
        states: &mut Option<Vec<TrainState>>,
        elastic: &mut Option<ElasticCtx>,
        owned_pg: &mut Option<PartitionedGraph>,
    ) {
        let Some(sts) = states.as_ref() else { return };
        let cfg = cfg.to_mut();
        if sts.len() == cfg.num_parts {
            cfg.generation = sts[0].generation;
            return;
        }
        let Some(e) = elastic.as_mut() else {
            panic!(
                "checkpoint holds a {}-rank world but this run wants {} ranks: resume \
                 through the elastic path (--elastic-resume) to merge and re-shard it",
                sts.len(),
                cfg.num_parts
            );
        };
        // Libra is deterministic, so the source world's cut can be
        // reconstructed from its rank count alone; re-sharding from it
        // (rather than cutting from scratch) keeps surviving shards in
        // place when the sizes are close.
        let old = libra_partition(&e.edges, sts.len());
        e.partitioning = reshard_partitioning(&e.edges, &old, cfg.num_parts);
        *owned_pg = Some(PartitionedGraph::build(&e.edges, &e.partitioning, cfg.seed));
        let global = merge_cluster_state(sts)
            .unwrap_or_else(|m| panic!("cannot merge checkpoint for elastic resume: {m}"));
        let generation = global.generation + 1;
        cfg.generation = generation;
        *states = Some(reshard_states(&global, cfg.num_parts, generation));
    }

    /// The adoption vote: each survivor independently scans the
    /// checkpoint directory for the newest epoch whose cluster
    /// checkpoint loads and validates completely, then the survivors
    /// agree by AllReduce. Returns the agreed checkpoint's states, or
    /// `None` when there is no directory, no loadable checkpoint, or no
    /// unanimity (e.g. a concurrently-committing snapshot visible to
    /// some survivors only) — the caller then falls back to a restart.
    fn adoption_vote(survivors: usize, dir: Option<&Path>) -> Option<Vec<TrainState>> {
        let dir = dir?;
        let votes = Cluster::run(survivors, |ctx| {
            // Newest epoch that loads, −1 sentinel for "none".
            let mine = list_checkpoints(dir)
                .into_iter()
                .rev()
                .find(|(_, path)| load_cluster_state(path).is_ok())
                .map_or(-1.0f32, |(epoch, _)| epoch as f32);
            let mut sum = [mine];
            ctx.all_reduce_sum(&mut sum);
            // Unanimity in two rounds: first check that everyone saw
            // my epoch (the sum is then exactly size × mine), then
            // AllReduce the agreement flags so a single dissenter —
            // say, one that raced a snapshot commit — vetoes for all.
            let agree = mine >= 0.0 && (sum[0] - mine * ctx.size() as f32).abs() < 0.5;
            let mut flags = [if agree { 1.0f32 } else { 0.0 }];
            ctx.all_reduce_sum(&mut flags);
            if flags[0] as usize == ctx.size() {
                Some(mine as u64)
            } else {
                None
            }
        });
        let epoch = votes[0]?;
        let (_, path) = list_checkpoints(dir).into_iter().find(|(e, _)| *e == epoch)?;
        load_cluster_state(&path).ok()
    }
}

/// Assembles the end-of-run [`MetricsRegistry`] for a distributed run:
/// comm volumes / fault / retry / staleness counters from the per-rank
/// [`CommSnapshot`]s, phase timelines and drop counters from the hub's
/// recorders, analytic kernel flop/byte totals from the partition shape
/// (see `distgnn_kernels::cost`), and replay accounting from the
/// recovery trace counter.
pub fn build_metrics(
    config: &DistConfig,
    report: &DistRunReport,
    hub: &TelemetryHub,
) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new(report.per_rank_comm.len());
    let dims = config.model.layer_dims();
    let epochs_run = report.epochs.len() as u64;
    // A constant layer-0 aggregate is computed once, in the run's first
    // epoch, instead of every epoch.
    let reaggregate = !layer0_is_constant(config.mode, &config.codec);
    let once = u64::from(!reaggregate && epochs_run > 0);
    for (r, snap) in report.per_rank_comm.iter().enumerate() {
        let rank = reg.rank_mut(r);
        rank.set(Metric::BytesSent, snap.bytes_sent);
        rank.set(Metric::BytesReceived, snap.bytes_received);
        rank.set(Metric::MessagesSent, snap.messages_sent);
        rank.set(Metric::MessagesDropped, snap.messages_dropped);
        rank.set(Metric::MessagesDelayed, snap.messages_delayed);
        rank.set(Metric::MessagesReordered, snap.messages_reordered);
        rank.set(Metric::SendsStalled, snap.sends_stalled);
        rank.set(Metric::RetriesAttempted, snap.retries_attempted);
        rank.set(Metric::BackoffBarriers, snap.backoff_barriers);
        rank.set(Metric::MaxStaleness, snap.max_staleness);
        rank.set(Metric::StalenessViolations, snap.staleness_violations);
        rank.set(Metric::HandleOpsPosted, snap.handle_ops_posted);
        rank.set(Metric::HandleOpsCompleted, snap.handle_ops_completed);
        rank.set(Metric::LogicalBytesSent, snap.logical_bytes_sent);
        rank.set(Metric::LogicalBytesReceived, snap.logical_bytes_received);
        rank.set(Metric::StaleGenerationDropped, snap.stale_generation_dropped);
        rank.stale_hist = snap.stale_hist.to_vec();
        if r < report.partition_vertices.len() {
            let (n, m) = (report.partition_vertices[r], report.partition_edges[r]);
            rank.set(
                Metric::KernelFlops,
                epochs_run * cost::sage_epoch_flops(n, m, &dims, reaggregate)
                    + once * cost::aggregate_flops(m, dims[0].0),
            );
            rank.set(
                Metric::KernelBytes,
                epochs_run * cost::sage_epoch_bytes(n, m, &dims, reaggregate)
                    + once * cost::aggregate_bytes(m, dims[0].0),
            );
        }
        if r < hub.num_ranks() {
            reg.absorb_recorder(r, hub.rank(r));
            reg.rank_mut(r)
                .set(Metric::EpochsReplayed, hub.rank(r).counter_total(TraceCounter::Replay));
            reg.rank_mut(r)
                .set(Metric::Adoptions, hub.rank(r).counter_total(TraceCounter::Adoption));
        }
    }
    reg
}

/// Newest checkpoint under `dir` that loads and validates completely; a
/// corrupt or torn checkpoint is skipped in favour of the previous one.
fn load_newest_valid_checkpoint(dir: Option<&Path>) -> Option<Vec<TrainState>> {
    let dir = dir?;
    list_checkpoints(dir)
        .into_iter()
        .rev()
        .find_map(|(_, path)| load_cluster_state(&path).ok())
}

fn wires_to_msgs(wires: &[PendingWire]) -> Vec<PendingMsg> {
    wires
        .iter()
        .map(|w| PendingMsg {
            dst: w.dst as usize,
            tag: w.tag,
            remaining_delay: w.remaining_delay,
            generation: w.generation,
            payload: w.payload.clone(),
        })
        .collect()
}

fn msgs_to_wires(msgs: Vec<PendingMsg>) -> Vec<PendingWire> {
    msgs.into_iter()
        .map(|m| PendingWire {
            dst: m.dst as u64,
            tag: m.tag,
            remaining_delay: m.remaining_delay,
            generation: m.generation,
            payload: m.payload,
        })
        .collect()
}

/// Refuses to resume `states` into a run whose compressed gradient
/// stream does not match their error-feedback residuals: the run keeps
/// one residual, as long as the flat gradient, when it compresses and
/// none otherwise. Restoring any other layout would reset or drop the
/// residual and fork the trajectory without a word.
fn check_residual_layout(config: &DistConfig, states: &[TrainState]) {
    let streams = usize::from(!config.gradient_codec().is_identity());
    let flat_len: usize = config.model.layer_dims().iter().map(|&(i, o)| i * o + o).sum();
    for st in states {
        let lens: Vec<usize> = st.residuals.iter().map(Vec::len).collect();
        assert!(
            lens.len() == streams && lens.iter().all(|&n| n == flat_len),
            "checkpoint rank {} holds error-feedback residuals of lengths {lens:?}, but this run \
             compresses its gradient in {streams} flat stream(s) of {flat_len} values",
            st.rank
        );
    }
}

fn ckpt_mode(config: &DistConfig) -> CheckpointMode {
    if config.lossy_checkpoints {
        CheckpointMode::LossyBf16
    } else {
        CheckpointMode::Lossless
    }
}

/// The consistent-checkpoint protocol, entered by all ranks at the same
/// epoch barrier:
///
/// 1. rank 0 checks whether `ckpt-<epoch>` is already committed (a
///    replayed epoch after recovery) and broadcasts the verdict — a
///    commit is immutable, and renaming over a non-empty directory
///    would fail anyway;
/// 2. rank 0 (re)creates `ckpt-<epoch>.tmp/`; a barrier publishes it;
/// 3. every rank serializes its [`TrainState`] into the staging
///    directory and *votes* on success — a rank that panicked on an
///    I/O error instead would strand its peers at the next barrier;
/// 4. on a unanimous vote, rank 0 writes the manifest and commits with
///    an atomic directory rename; any failure aborts the checkpoint
///    (training continues — a missed snapshot only costs replay time).
#[allow(clippy::too_many_arguments)]
fn write_cluster_checkpoint(
    ctx: &RankCtx<'_>,
    dir: &Path,
    epoch: u64,
    model: &GraphSage,
    adam: &Adam,
    agg: &RankAggregator<'_, '_>,
    ef: Option<&ErrorFeedback>,
    mode: CheckpointMode,
) {
    let k = ctx.size();
    let me = ctx.rank();
    let committed = dir.join(format!("ckpt-{epoch}"));
    let staging = dir.join(format!("ckpt-{epoch}.tmp"));

    let mut skip = [0.0f32];
    if me == 0 && committed.exists() {
        skip[0] = 1.0;
    }
    ctx.all_reduce_sum(&mut skip);
    if skip[0] > 0.5 {
        return;
    }

    let mut ok = true;
    if me == 0 {
        let _ = std::fs::remove_dir_all(&staging);
        ok = std::fs::create_dir_all(&staging).is_ok();
    }
    ctx.barrier();

    let state = TrainState {
        epoch,
        rank: me as u32,
        ranks: k as u32,
        generation: ctx.membership_generation(),
        params: model.write_params(),
        adam: adam.write_state(),
        drpa: agg.export_state(),
        outbox: msgs_to_wires(ctx.export_outbox()),
        residuals: ef.iter().map(|ef| ef.residual().to_vec()).collect(),
    };
    ok = ok
        && save_train_state_mode(&staging.join(format!("rank-{me}.state")), &state, mode).is_ok();

    let mut vote = [f32::from(ok)];
    ctx.all_reduce_sum(&mut vote);
    if vote[0] < k as f32 - 0.5 {
        if me == 0 {
            let _ = std::fs::remove_dir_all(&staging);
        }
    } else if me == 0 {
        let committed_ok = save_cluster_manifest(&staging, epoch, k).is_ok()
            && std::fs::rename(&staging, &committed).is_ok();
        if !committed_ok {
            let _ = std::fs::remove_dir_all(&staging);
        }
    }
    // No rank resumes training (where the next fault may kill it)
    // until the commit decision is on disk.
    ctx.barrier();
}

/// Softmax cross-entropy over `ids` with per-row weights, normalized by
/// the *global* training-vertex count so that summing the per-rank
/// losses/gradients over the cluster reproduces the single-socket
/// quantities (each global vertex's clone weights sum to 1).
///
/// Writes into caller-owned `probs`/`grad` buffers (shape of `logits`);
/// allocation-free so the epoch loop can reuse them.
fn weighted_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    ids: &[usize],
    weights: &[f32],
    global_norm: f32,
    probs: &mut Matrix,
    grad: &mut Matrix,
) -> f32 {
    distgnn_tensor::softmax::softmax_rows_into(logits, probs);
    grad.fill_zero();
    let mut loss = 0.0f32;
    for (&v, &w) in ids.iter().zip(weights) {
        let label = labels[v];
        let p = probs.row(v);
        loss -= p[label].max(1e-12).ln() * w;
        let scale = w / global_norm;
        let g_row = grad.row_mut(v);
        for (j, (&pj, g)) in p.iter().zip(g_row.iter_mut()).enumerate() {
            *g = (pj - f32::from(j == label)) * scale;
        }
    }
    loss / global_norm
}

fn prepare_rank_data(dataset: &Dataset, pg: &PartitionedGraph) -> Vec<RankData> {
    let k = pg.num_parts();
    let n = dataset.num_vertices();
    // Owner of each global vertex: tree root if split, else its only
    // partition (isolated vertices were attached in setup).
    let mut owner = vec![u16::MAX; n];
    let mut clone_counts = vec![0usize; n];
    for (p, part) in pg.parts.iter().enumerate() {
        for &g in &part.global_ids {
            let root = pg.root_of[g as usize];
            owner[g as usize] = if root == u16::MAX { p as u16 } else { root };
            clone_counts[g as usize] += 1;
        }
    }
    debug_assert!(owner.iter().all(|&o| o != u16::MAX));

    let in_train: std::collections::HashSet<usize> = dataset.train_mask.iter().copied().collect();
    let in_test: std::collections::HashSet<usize> = dataset.test_mask.iter().copied().collect();

    (0..k)
        .map(|p| {
            let part = &pg.parts[p];
            let idx: Vec<usize> = part.global_ids.iter().map(|&g| g as usize).collect();
            let features = dataset.features.gather_rows(&idx);
            let labels: Vec<usize> = idx.iter().map(|&g| dataset.labels[g]).collect();
            let mut train_ids = Vec::new();
            let mut train_weights = Vec::new();
            let mut test_ids = Vec::new();
            for (local, &g) in idx.iter().enumerate() {
                if in_train.contains(&g) {
                    train_ids.push(local);
                    train_weights.push(1.0 / clone_counts[g] as f32);
                } else if owner[g] as usize == p && in_test.contains(&g) {
                    test_ids.push(local);
                }
            }
            RankData { features, labels, train_ids, train_weights, test_ids }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{Trainer, TrainerConfig};
    use distgnn_graph::ScaledConfig;

    fn tiny() -> Dataset {
        Dataset::generate(&ScaledConfig::am_s().scaled_by(0.25))
    }

    fn cfg(ds: &Dataset, mode: DistMode, k: usize, epochs: usize) -> DistConfig {
        DistConfig::new(ds, mode, k, epochs)
    }

    #[test]
    fn replicas_stay_identical_across_ranks_all_modes() {
        let ds = tiny();
        for mode in [DistMode::Oc, DistMode::Cd0, DistMode::CdR { delay: 2 }] {
            let r = DistTrainer::launch(&ds, None, &cfg(&ds, mode, 3, 4), None)
                .expect("distributed training failed");
            for p in 1..3 {
                assert_eq!(
                    r.final_params[0], r.final_params[p],
                    "replica divergence in {mode:?}"
                );
            }
        }
    }

    #[test]
    fn cd0_first_epoch_loss_matches_single_socket() {
        // With complete forward neighbourhoods and identical init, the
        // first forward pass (before any update) must produce the same
        // global loss as the single-socket trainer.
        let ds = tiny();
        let dist = DistTrainer::launch(&ds, None, &cfg(&ds, DistMode::Cd0, 4, 1), None)
            .expect("distributed training failed");
        let single_cfg = TrainerConfig {
            model: cfg(&ds, DistMode::Cd0, 4, 1).model,
            kernel: distgnn_kernels::AggregationConfig::baseline(),
            lr: 0.01,
            weight_decay: 5e-4,
            epochs: 1,
        };
        let single = Trainer::run(&ds, &single_cfg);
        assert!(
            (dist.epochs[0].loss - single.epochs[0].loss).abs() < 1e-3,
            "dist {} vs single {}",
            dist.epochs[0].loss,
            single.epochs[0].loss
        );
    }

    #[test]
    fn oc_avoids_all_clone_communication() {
        let ds = tiny();
        let r = DistTrainer::launch(&ds, None, &cfg(&ds, DistMode::Oc, 3, 2), None)
            .expect("distributed training failed");
        // Gradient AllReduce still communicates; clone sync must not.
        // cd-0 on the same setup sends strictly more.
        let r_cd0 = DistTrainer::launch(&ds, None, &cfg(&ds, DistMode::Cd0, 3, 2), None)
            .expect("distributed training failed");
        let sent_oc: u64 = r.per_rank_comm.iter().map(|s| s.bytes_sent).sum();
        let sent_cd0: u64 = r_cd0.per_rank_comm.iter().map(|s| s.bytes_sent).sum();
        assert!(sent_cd0 > sent_oc, "cd-0 {sent_cd0} vs 0c {sent_oc}");
    }

    #[test]
    fn cdr_zero_delay_equals_cd0() {
        let ds = tiny();
        let a = DistTrainer::launch(&ds, None, &cfg(&ds, DistMode::CdR { delay: 0 }, 3, 3), None)
            .expect("distributed training failed");
        let b = DistTrainer::launch(&ds, None, &cfg(&ds, DistMode::Cd0, 3, 3), None)
            .expect("distributed training failed");
        assert_eq!(a.final_params[0], b.final_params[0]);
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert!((ea.loss - eb.loss).abs() < 1e-6);
        }
    }

    #[test]
    fn all_modes_learn_the_planted_labels() {
        let ds = tiny();
        for mode in [DistMode::Oc, DistMode::Cd0, DistMode::CdR { delay: 2 }] {
            let r = DistTrainer::launch(&ds, None, &cfg(&ds, mode, 2, 50), None)
                .expect("distributed training failed");
            assert!(
                r.test_accuracy > 0.75,
                "{} accuracy {}",
                mode.name(),
                r.test_accuracy
            );
        }
    }

    #[test]
    fn single_partition_distributed_equals_single_socket_exactly() {
        let ds = tiny();
        let dist = DistTrainer::launch(&ds, None, &cfg(&ds, DistMode::Cd0, 1, 3), None)
            .expect("distributed training failed");
        let single_cfg = TrainerConfig {
            model: cfg(&ds, DistMode::Cd0, 1, 3).model,
            kernel: distgnn_kernels::AggregationConfig::optimized(1),
            lr: 0.01,
            weight_decay: 5e-4,
            epochs: 3,
        };
        let single = Trainer::run(&ds, &single_cfg);
        for (d, s) in dist.epochs.iter().zip(&single.epochs) {
            assert!((d.loss - s.loss).abs() < 2e-3, "losses {} vs {}", d.loss, s.loss);
        }
    }

    #[test]
    fn telemetry_records_phases_without_perturbing_training() {
        let ds = tiny();
        let c = cfg(&ds, DistMode::CdR { delay: 1 }, 3, 4);
        let plain = DistTrainer::launch(&ds, None, &c, None).unwrap();
        let hub = distgnn_telemetry::TelemetryHub::new(3, Default::default());
        let recorded = DistTrainer::launch(&ds, None, &c, Some(&hub)).unwrap();
        // Bit-identical parameters: recording only reads the clock.
        assert_eq!(plain.final_params, recorded.final_params);
        let reg = build_metrics(&c, &recorded, &hub);
        for r in 0..3 {
            let rank = reg.rank(r);
            assert_eq!(rank.epochs.len(), 4, "one snapshot per epoch");
            assert!(rank.phase_ns[Phase::Forward as usize] > 0);
            assert!(rank.phase_ns[Phase::Backward as usize] > 0);
            assert!(rank.phase_ns[Phase::Aggregate as usize] > 0);
            assert!(rank.phase_ns[Phase::Optimizer as usize] > 0);
            assert!(rank.get(Metric::KernelFlops) > 0);
            assert_eq!(rank.get(Metric::BytesSent), recorded.per_rank_comm[r].bytes_sent);
            assert_eq!(rank.get(Metric::EventsDropped), 0);
        }
        // cd-1 syncs clones: comm phases must show up somewhere.
        let comm_ns: u64 = (0..3)
            .map(|r| {
                reg.rank(r).phase_ns[Phase::CommSend as usize]
                    + reg.rank(r).phase_ns[Phase::CommWait as usize]
            })
            .sum();
        assert!(comm_ns > 0, "clone sync must record comm time");
    }

    /// Every cd-0 clone sync posts its two exchanges through the
    /// progress engine; the gradient and loss AllReduces post no
    /// handles. Over E epochs of an L-layer model, with the identity
    /// codec the syncs that run are: forward, all L layers in the first
    /// epoch and layers ≥ 1 after (layer 0's aggregate is constant);
    /// the evaluation pass, layers ≥ 1; backward, layers ≥ 1 (layer 0
    /// has no input gradient). A lossy codec re-syncs layer 0 forward
    /// every epoch, since its delta mirrors refine the aggregate.
    #[test]
    fn cd0_clone_syncs_record_handle_metrics() {
        let ds = tiny();
        let epochs = 3u64;
        for codec in [WireCodec::None, WireCodec::Bf16] {
            let c = DistConfig { codec, ..cfg(&ds, DistMode::Cd0, 3, epochs as usize) };
            let hub = distgnn_telemetry::TelemetryHub::new(3, Default::default());
            let r = DistTrainer::launch(&ds, None, &c, Some(&hub)).unwrap();
            let reg = build_metrics(&c, &r, &hub);
            let layers = c.model.layer_dims().len() as u64;
            let forward = if codec.is_identity() {
                layers + (epochs - 1) * (layers - 1)
            } else {
                epochs * layers
            };
            let eval = if codec.is_identity() { layers - 1 } else { layers };
            let backward = epochs * (layers - 1);
            for rank in 0..3 {
                let m = reg.rank(rank);
                assert_eq!(
                    m.get(Metric::HandleOpsPosted),
                    2 * (forward + eval + backward),
                    "{codec:?}"
                );
                assert_eq!(
                    m.get(Metric::HandleOpsPosted),
                    m.get(Metric::HandleOpsCompleted),
                    "every posted handle must be waited"
                );
            }
        }
    }

    #[test]
    fn mode_names_match_paper() {
        assert_eq!(DistMode::Oc.name(), "0c");
        assert_eq!(DistMode::Cd0.name(), "cd-0");
        assert_eq!(DistMode::CdR { delay: 5 }.name(), "cd-5");
    }
}
