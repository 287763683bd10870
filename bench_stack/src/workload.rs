//! The five workloads and the one pipeline they all run through.
//!
//! Every workload is the user's whole path — generate inputs, set up,
//! train, restore the trained model, serve a mixed query/delta stream —
//! so every end-to-end metric exists on every workload. What differs is
//! the dataset, the model shape, the trainer and where the weight lies
//! (see `SPECS` and the README). Work is fixed, not time-boxed: the
//! sizes below take about `RUN_SECONDS` of measured time on the
//! reference host and `--seconds` scales epochs and request batches in
//! proportion, so every count repeats exactly for a given seed.

use crate::alloc::{self, AllocCount};
use crate::catalog::RUN_SECONDS;
use crate::inputs::{self, DeltaStream, Seeds, DELTA_EVERY, REQUEST_VERTICES};
use crate::json::{Obj, Value};
use crate::spans::Tracer;
use crate::stats;
use distgnn_comm::stats::CommSnapshot;
use distgnn_core::single::{Trainer, TrainerConfig};
use distgnn_core::{DistConfig, DistMode, DistTrainer, GraphSage, SageConfig};
use distgnn_graph::{Dataset, ScaledConfig};
use distgnn_kernels::AggregationConfig;
use distgnn_partition::{libra_partition, PartitionedGraph};
use distgnn_serve::{load_newest_model, ServeConfig, ServeEngine, ServeStats};
use distgnn_telemetry::{Recorder, RecorderConfig, TelemetryHub, PHASE_COUNT};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Rank threads of the distributed trainers. Two, because the reference
/// host has two cores: rank threads plus the kernel pool's one worker
/// never exceed the cores by more than one. Fixed (not `nproc`) so the
/// work is the same everywhere; `nproc` is recorded beside every result.
pub const RANKS: usize = 2;

/// Fewest cold set-ups per run; `setup_s` is built from their medians.
pub const SETUP_REPS: usize = 5;

/// Vertices compared against the cold-rebuild oracle after the stream.
const ORACLE_SAMPLES: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainerKind {
    /// `core::single::Trainer` with the CLI's kernel choice.
    Single,
    /// `DistTrainer::try_run_on` at `RANKS` ranks, `DistConfig::new`
    /// defaults.
    Dist {
        mode: DistMode,
        checkpoints: Checkpoints,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Checkpoints {
    /// None written; serving takes rank 0's final parameters.
    None,
    /// One every N epochs while training; serving restores the newest.
    Every(usize),
    /// One, after the last epoch; serving restores it.
    AtEnd,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    base: fn() -> ScaledConfig,
    scale: f64,
    pub trainer: TrainerKind,
    /// Training epochs at `RUN_SECONDS`.
    epochs: usize,
    /// Never fewer epochs than this: the loss target must stay reachable
    /// when `--seconds` shrinks the run.
    min_epochs: usize,
    /// `time_to_loss_s` runs to the first epoch with training loss at or
    /// below this.
    loss_target: f32,
    min_test_acc: f32,
    /// Leading epochs of a plain single-socket `Trainer` whose losses the
    /// cd-0 run must match within 1e-3 (0 = no such check).
    baseline_epochs: usize,
    /// Requests of `REQUEST_VERTICES` vertices at `RUN_SECONDS`.
    serve_requests: usize,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "single_reddit",
        why: "Densest graph (16k v, 1.46M edges), thinnest model (2 layers, hidden 16): aggregation is ~45% of the epoch and matmul is smallest, so the kernels layer shows here.",
        base: ScaledConfig::reddit_s,
        scale: 4.0,
        trainer: TrainerKind::Single,
        epochs: 110,
        min_epochs: 90,
        loss_target: 0.25,
        min_test_acc: 0.9,
        baseline_epochs: 0,
        serve_requests: 60_000,
    },
    Spec {
        name: "single_products",
        why: "Sparse graph (20k v, 230k edges), widest model (3 layers, hidden 64): dense matmul is ~80% of the epoch, so tensor/nn show and a kernels-only change barely moves it.",
        base: ScaledConfig::products_s,
        scale: 2.0,
        trainer: TrainerKind::Single,
        epochs: 40,
        min_epochs: 34,
        loss_target: 0.25,
        min_test_acc: 0.9,
        baseline_epochs: 0,
        serve_requests: 20_000,
    },
    Spec {
        name: "dist_cd0",
        why: "2-rank cd-0 on 10k v: every split vertex syncs every epoch (~14 MB on the wire per epoch), so comm and core::drpa are heaviest; single_* bypass them entirely.",
        base: ScaledConfig::products_s,
        scale: 1.0,
        trainer: TrainerKind::Dist { mode: DistMode::Cd0, checkpoints: Checkpoints::None },
        epochs: 50,
        min_epochs: 32,
        loss_target: 0.25,
        min_test_acc: 0.9,
        baseline_epochs: 10,
        serve_requests: 20_000,
    },
    Spec {
        name: "dist_cd5_ckpt",
        why: "Same graph and cut under cd-5 (delayed, a tenth of the bytes) with a checkpoint every 10 epochs, restored for serving: a cd-0-only gain, a staleness cost or an io stall shows here.",
        base: ScaledConfig::products_s,
        scale: 1.0,
        trainer: TrainerKind::Dist { mode: DistMode::CdR { delay: 5 }, checkpoints: Checkpoints::Every(10) },
        epochs: 50,
        min_epochs: 40,
        loss_target: 0.25,
        min_test_acc: 0.9,
        baseline_epochs: 0,
        serve_requests: 20_000,
    },
    Spec {
        name: "serve_mixed",
        why: "Largest graph (40k v, 463k edges): short 2-rank cd-0 run to a checkpoint, then a long stream of queries beside deltas, so warm hits, lazy re-aggregation and eager repair all carry weight.",
        base: ScaledConfig::products_s,
        scale: 4.0,
        trainer: TrainerKind::Dist { mode: DistMode::Cd0, checkpoints: Checkpoints::AtEnd },
        epochs: 12,
        min_epochs: 10,
        loss_target: 3.0,
        min_test_acc: 0.5,
        baseline_epochs: 2,
        serve_requests: 24_000,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    /// Graphs at 1/20 size, request batches at 1/20; same schema, same
    /// checks.
    pub smoke: bool,
    pub trace: bool,
}

/// Work after `--seconds` / `--smoke` scaling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizes {
    pub graph_scale: f64,
    pub epochs: usize,
    /// Epochs of the instrumented passes of a traced run.
    pub traced_epochs: usize,
    pub checkpoints: Checkpoints,
    pub serve_requests: usize,
    pub warmup: usize,
    /// The spec's loss target and accuracy floor; loosened under
    /// `--smoke`, whose 1/20-size graphs have too few training vertices
    /// per class to learn to the full-size thresholds.
    pub loss_target: f32,
    pub min_test_acc: f32,
}

impl Sizes {
    /// `DistConfig::checkpoint_every` for a pass of `epochs` epochs.
    pub fn checkpoint_every(&self, epochs: usize) -> usize {
        match self.checkpoints {
            Checkpoints::None => 0,
            Checkpoints::Every(n) => n,
            Checkpoints::AtEnd => epochs,
        }
    }
}

impl Spec {
    pub fn sizes(&self, opts: &RunOpts) -> Sizes {
        let work = opts.seconds / RUN_SECONDS as f64;
        let checkpoints = match self.trainer {
            TrainerKind::Dist { checkpoints, .. } => checkpoints,
            TrainerKind::Single => Checkpoints::None,
        };
        // With periodic checkpoints the newest one must hold the final
        // parameters, so epoch counts are whole periods.
        let whole_periods = |epochs: usize| match checkpoints {
            Checkpoints::Every(n) => epochs.div_ceil(n) * n,
            _ => epochs,
        };
        let epochs =
            whole_periods(((self.epochs as f64 * work).round() as usize).max(self.min_epochs));
        let warmup = match self.trainer {
            // The delayed pipeline is full after 2r + 1 epochs.
            TrainerKind::Dist {
                mode: DistMode::CdR { delay },
                ..
            } => 2 * delay + 1,
            _ => 3,
        };
        let mut serve_requests = (self.serve_requests as f64 * work).round() as usize;
        if opts.smoke {
            serve_requests /= 20;
        }
        if opts.trace {
            serve_requests /= 4;
        }
        Sizes {
            graph_scale: self.scale * if opts.smoke { 0.05 } else { 1.0 },
            epochs,
            traced_epochs: whole_periods(epochs.div_ceil(4).max(warmup + 4)).min(epochs),
            checkpoints,
            serve_requests: serve_requests.max(4 * DELTA_EVERY),
            warmup,
            loss_target: if opts.smoke {
                self.loss_target.max(1.5)
            } else {
                self.loss_target
            },
            min_test_acc: if opts.smoke {
                self.min_test_acc.min(0.5)
            } else {
                self.min_test_acc
            },
        }
    }

    pub fn base_config(&self) -> ScaledConfig {
        (self.base)()
    }

    pub fn ranks(&self) -> usize {
        match self.trainer {
            TrainerKind::Single => 1,
            TrainerKind::Dist { .. } => RANKS,
        }
    }

    /// Kernel configuration of the training phase: the CLI's automatic
    /// blocking for the single-socket trainer, `DistConfig::new`'s own
    /// default for the distributed one.
    pub fn kernel(&self, ds: &Dataset) -> AggregationConfig {
        match self.trainer {
            TrainerKind::Single => AggregationConfig::optimized(AggregationConfig::auto_blocks(
                ds.num_vertices(),
                ds.feat_dim(),
                1 << 20,
            )),
            TrainerKind::Dist { mode, .. } => DistConfig::new(ds, mode, RANKS, 1).kernel,
        }
    }

    pub fn trainer_config(&self, ds: &Dataset, seeds: &Seeds, epochs: usize) -> TrainerConfig {
        let mut cfg = TrainerConfig::for_dataset(ds, self.kernel(ds), epochs);
        cfg.model.seed = seeds.model;
        cfg
    }

    fn dist_config(
        &self,
        ds: &Dataset,
        seeds: &Seeds,
        mode: DistMode,
        epochs: usize,
        checkpoints: Option<(usize, &Path)>,
    ) -> DistConfig {
        let mut cfg = DistConfig::new(ds, mode, RANKS, epochs);
        cfg.model.seed = seeds.model;
        cfg.seed = seeds.partition;
        if let Some((every, dir)) = checkpoints {
            cfg.checkpoint_every = every;
            cfg.checkpoint_dir = Some(dir.to_path_buf());
        }
        cfg
    }

    /// The model shape the workload's own trainer derives from the
    /// dataset (what `distgnn serve` rebuilds before restoring).
    pub fn model_config(&self, ds: &Dataset, seeds: &Seeds) -> SageConfig {
        match self.trainer {
            TrainerKind::Single => self.trainer_config(ds, seeds, 1).model,
            TrainerKind::Dist { mode, .. } => self.dist_config(ds, seeds, mode, 1, None).model,
        }
    }
}

/// Pass/fail record of the output checks, kept in the run document.
#[derive(Default)]
pub struct Checks(Vec<(String, bool, String)>);

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!("check FAILED: {name}: {detail}");
        }
        self.0.push((name.to_string(), ok, detail));
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|(_, ok, _)| *ok)
    }

    pub fn to_json(&self) -> Vec<Value> {
        self.0
            .iter()
            .map(|(name, ok, detail)| {
                Obj::new()
                    .put("name", name.as_str())
                    .put("ok", *ok)
                    .put("detail", detail.as_str())
                    .build()
            })
            .collect()
    }
}

/// How much of the repo's and the benchmark's instrumentation a
/// training pass carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Nothing: what the timed run measures.
    Plain,
    /// The repo's own `Recorder` / `TelemetryHub` only.
    Recorder,
    /// Recorder, benchmark spans and the counting allocator.
    Traced,
}

/// One training pass.
pub struct TrainOutcome {
    pub epoch_ms: Vec<f64>,
    pub losses: Vec<f32>,
    /// Per-epoch time inside aggregation: `EpochStats::agg_time`, or
    /// LAT + RAT + backward aggregation of the slowest rank.
    pub agg_ms: Vec<f64>,
    /// Wall-clock of the training, checkpoints included (for the
    /// distributed trainer: the whole `try_run_on` call, its fixed
    /// per-call cost still in it).
    pub train_wall_s: f64,
    pub test_accuracy: f32,
    /// Final parameters, one vector per rank.
    pub final_params: Vec<Vec<f32>>,
    pub dist: Option<DistDetail>,
    /// Mean per-epoch, per-rank exclusive phase time in ms, indexed by
    /// `Phase as usize` (instrumented passes only).
    pub phase_ms: Option<[f64; PHASE_COUNT]>,
    /// Heap traffic per steady-state epoch, all threads (traced only).
    pub allocs_per_epoch: Option<(f64, f64)>,
}

pub struct DistDetail {
    pub lat_ms: Vec<f64>,
    pub rat_ms: Vec<f64>,
    pub bwd_agg_ms: Vec<f64>,
    pub comm: Vec<CommSnapshot>,
}

/// The product of one cold training set-up.
pub enum TrainSetup {
    Single(Box<Trainer>),
    Dist {
        pg: PartitionedGraph,
        /// Wall-clock of the 0-epoch `try_run_on` call of this set-up.
        call_overhead_s: f64,
    },
}

impl TrainSetup {
    /// Fixed cost of one training call that is set-up, not training
    /// (0 for the single-socket trainer, which is built once and stepped).
    pub fn call_overhead_s(&self) -> f64 {
        match self {
            TrainSetup::Single(_) => 0.0,
            TrainSetup::Dist {
                call_overhead_s, ..
            } => *call_overhead_s,
        }
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What every step of one run works on: the workload, its options, the
/// derived seeds, the scaled sizes, the generated dataset and the model
/// shape the workload's trainer derives from it.
pub struct Job<'a> {
    pub spec: &'static Spec,
    pub opts: RunOpts,
    pub seeds: Seeds,
    pub sizes: Sizes,
    pub ds: &'a Dataset,
    pub shape: SageConfig,
}

impl<'a> Job<'a> {
    pub fn new(
        spec: &'static Spec,
        opts: &RunOpts,
        seeds: Seeds,
        sizes: Sizes,
        ds: &'a Dataset,
    ) -> Self {
        Job {
            spec,
            opts: *opts,
            seeds,
            sizes,
            ds,
            shape: spec.model_config(ds, &seeds),
        }
    }
}

/// One cold set-up of the training side, from generated inputs to ready
/// to train; returns it with its duration in seconds.
///
/// Distributed: edge list + Libra cut + `PartitionedGraph::build` + the
/// fixed cost of one `try_run_on` call (rank threads, per-rank data,
/// the closing evaluation), measured as a 0-epoch call.
pub fn setup_train(job: &Job, epochs: usize, tracer: &mut Tracer) -> (TrainSetup, f64) {
    let Job {
        spec, ds, seeds, ..
    } = job;
    let t = Instant::now();
    let setup = match spec.trainer {
        TrainerKind::Single => {
            let cfg = spec.trainer_config(ds, seeds, epochs);
            TrainSetup::Single(Box::new(
                tracer.span("core.trainer_new", |_| Trainer::new(ds, &cfg)),
            ))
        }
        TrainerKind::Dist { mode, .. } => {
            let cfg = spec.dist_config(ds, seeds, mode, 0, None);
            let edges = tracer.span("graph.to_edge_list", |_| ds.graph.to_edge_list());
            let cut = tracer.span("partition.libra", |_| libra_partition(&edges, RANKS));
            let pg = tracer.span("partition.build", |_| {
                PartitionedGraph::build(&edges, &cut, cfg.seed)
            });
            let t0 = Instant::now();
            tracer
                .span("core.dist_call_overhead", |_| {
                    DistTrainer::try_run_on(ds, &pg, &cfg)
                })
                .expect("0-epoch distributed run");
            TrainSetup::Dist {
                pg,
                call_overhead_s: t0.elapsed().as_secs_f64(),
            }
        }
    };
    (setup, t.elapsed().as_secs_f64())
}

fn mean_phase_ms(recorders: &[Arc<Recorder>], epochs: usize) -> [f64; PHASE_COUNT] {
    let mut out = [0.0; PHASE_COUNT];
    for rec in recorders {
        for (dst, ns) in out.iter_mut().zip(rec.phase_ns()) {
            *dst += ns as f64 / 1e6;
        }
    }
    let div = (recorders.len() * epochs).max(1) as f64;
    out.iter_mut().for_each(|x| *x /= div);
    out
}

fn train_single(
    trainer: &mut Trainer,
    sizes: &Sizes,
    epochs: usize,
    instr: Instr,
    tracer: &mut Tracer,
) -> TrainOutcome {
    let recorder = (instr != Instr::Plain).then(|| {
        let rec = Arc::new(Recorder::new(RecorderConfig {
            event_capacity: 64 * epochs + 64,
            epoch_capacity: epochs + 1,
        }));
        trainer.set_recorder(rec.clone());
        rec
    });
    let mut out = TrainOutcome {
        epoch_ms: Vec::with_capacity(epochs),
        losses: Vec::with_capacity(epochs),
        agg_ms: Vec::with_capacity(epochs),
        train_wall_s: 0.0,
        test_accuracy: 0.0,
        final_params: Vec::new(),
        dist: None,
        phase_ms: None,
        allocs_per_epoch: None,
    };
    let mut counted = AllocCount::default();
    let mut counted_epochs = 0usize;
    let t = Instant::now();
    for e in 0..epochs {
        tracer.enter("core.train_epoch");
        let s = if instr == Instr::Traced && e >= sizes.warmup {
            let (a, s) = alloc::count(|| trainer.train_epoch());
            counted.allocs += a.allocs;
            counted.bytes += a.bytes;
            counted_epochs += 1;
            s
        } else {
            trainer.train_epoch()
        };
        tracer.exit();
        out.epoch_ms.push(ms(s.epoch_time));
        out.losses.push(s.loss);
        out.agg_ms.push(ms(s.agg_time));
    }
    out.train_wall_s = t.elapsed().as_secs_f64();
    out.test_accuracy = tracer.span("core.evaluate", |_| trainer.evaluate());
    out.final_params = vec![trainer.model.write_params()];
    if let Some(rec) = recorder {
        out.phase_ms = Some(mean_phase_ms(std::slice::from_ref(&rec), epochs));
        trainer.set_recorder(Arc::new(Recorder::disabled()));
    }
    if counted_epochs > 0 {
        let n = counted_epochs as f64;
        out.allocs_per_epoch = Some((counted.allocs as f64 / n, counted.bytes as f64 / 1024.0 / n));
    }
    out
}

fn train_dist(
    ds: &Dataset,
    pg: &PartitionedGraph,
    cfg: &DistConfig,
    instr: Instr,
    tracer: &mut Tracer,
) -> Result<TrainOutcome, distgnn_core::DistError> {
    let epochs = cfg.epochs;
    let hub = (instr != Instr::Plain).then(|| {
        TelemetryHub::new(
            RANKS,
            RecorderConfig {
                event_capacity: 512 * epochs + 1024,
                epoch_capacity: epochs + 1,
            },
        )
    });
    // Steady-state heap traffic of a call = this call minus what a
    // 0-epoch call (threads, per-rank data, evaluation) allocates.
    let baseline_allocs = (instr == Instr::Traced).then(|| {
        let mut zero = cfg.clone();
        zero.epochs = 0;
        zero.checkpoint_every = 0;
        zero.checkpoint_dir = None;
        alloc::count(|| DistTrainer::try_run_on(ds, pg, &zero)).0
    });
    let t = Instant::now();
    tracer.enter("core.dist_train");
    let (call_allocs, report) = match (&hub, instr) {
        (Some(hub), Instr::Traced) => {
            alloc::count(|| DistTrainer::try_run_on_with_telemetry(ds, pg, cfg, hub))
        }
        (Some(hub), _) => (
            AllocCount::default(),
            DistTrainer::try_run_on_with_telemetry(ds, pg, cfg, hub),
        ),
        (None, _) => (AllocCount::default(), DistTrainer::try_run_on(ds, pg, cfg)),
    };
    tracer.exit();
    let call_wall_s = t.elapsed().as_secs_f64();
    let report = report?;
    let col = |f: fn(&distgnn_core::DistEpochReport) -> std::time::Duration| -> Vec<f64> {
        report.epochs.iter().map(|e| ms(f(e))).collect()
    };
    let (lat_ms, rat_ms, bwd_agg_ms) = (col(|e| e.lat), col(|e| e.rat), col(|e| e.backward_agg));
    Ok(TrainOutcome {
        epoch_ms: col(|e| e.epoch_time),
        losses: report.epochs.iter().map(|e| e.loss).collect(),
        agg_ms: (0..report.epochs.len())
            .map(|i| lat_ms[i] + rat_ms[i] + bwd_agg_ms[i])
            .collect(),
        train_wall_s: call_wall_s,
        test_accuracy: report.test_accuracy,
        final_params: report.final_params,
        dist: Some(DistDetail {
            lat_ms,
            rat_ms,
            bwd_agg_ms,
            comm: report.per_rank_comm,
        }),
        phase_ms: hub.as_ref().map(|h| mean_phase_ms(h.recorders(), epochs)),
        allocs_per_epoch: baseline_allocs.map(|base| {
            let n = epochs.max(1) as f64;
            (
                call_allocs.allocs.saturating_sub(base.allocs) as f64 / n,
                call_allocs.bytes.saturating_sub(base.bytes) as f64 / 1024.0 / n,
            )
        }),
    })
}

/// Trains `epochs` epochs on a finished set-up. `ckpt_dir` is where a
/// checkpointing workload writes (it must be empty).
pub fn train(
    job: &Job,
    setup: &mut TrainSetup,
    epochs: usize,
    ckpt_dir: &Path,
    instr: Instr,
    tracer: &mut Tracer,
) -> Result<TrainOutcome, distgnn_core::DistError> {
    let Job {
        spec,
        ds,
        seeds,
        sizes,
        ..
    } = job;
    match (setup, spec.trainer) {
        (TrainSetup::Single(trainer), _) => Ok(train_single(trainer, sizes, epochs, instr, tracer)),
        (TrainSetup::Dist { pg, .. }, TrainerKind::Dist { mode, .. }) => {
            let every = sizes.checkpoint_every(epochs);
            let ckpt = (every > 0).then_some((every, ckpt_dir));
            let cfg = spec.dist_config(ds, seeds, mode, epochs, ckpt);
            train_dist(ds, pg, &cfg, instr, tracer)
        }
        (TrainSetup::Dist { .. }, TrainerKind::Single) => unreachable!("set-up follows the spec"),
    }
}

/// Where the serving side gets the trained model from.
pub enum ModelSource {
    /// In-memory parameters (single-socket trainer, or a distributed run
    /// that wrote no checkpoint): rank 0's final parameters.
    Params(Vec<f32>),
    /// `load_newest_model` over the run's checkpoint directory.
    Checkpoint(PathBuf),
}

pub struct ServeSetup {
    pub engine: ServeEngine,
    pub restore_ms: f64,
    pub build_ms: f64,
}

/// One cold set-up of the serving side: restore the model, build the
/// engine's caches over the dataset graph.
pub fn setup_serve(
    job: &Job,
    source: &ModelSource,
    tracer: &mut Tracer,
) -> (ServeSetup, GraphSage) {
    let Job { ds, shape, .. } = job;
    let t = Instant::now();
    let model = tracer.span("serve.restore", |_| match source {
        ModelSource::Params(params) => {
            let mut model = GraphSage::new(shape);
            model.read_params(params);
            model
        }
        ModelSource::Checkpoint(dir) => {
            load_newest_model(dir, shape)
                .expect("restore the run's newest checkpoint")
                .model
        }
    });
    let restore_ms = ms(t.elapsed());
    let cfg = ServeConfig {
        max_batch: REQUEST_VERTICES,
        ..Default::default()
    };
    let t = Instant::now();
    let engine = tracer.span("serve.build", |_| {
        ServeEngine::new(model.clone(), &ds.graph, ds.features.clone(), &cfg)
    });
    (
        ServeSetup {
            engine,
            restore_ms,
            build_ms: ms(t.elapsed()),
        },
        model,
    )
}

/// The mixed stream, as measured.
pub struct ServeOutcome {
    /// Latency of each request, in issue order.
    pub request_us: Vec<f64>,
    /// Latency of each `apply_deltas` call; `delta_us[i]` went in before
    /// `request_us[i * DELTA_EVERY]`.
    pub delta_us: Vec<f64>,
    pub queries: u64,
    pub out_of_range: u64,
    /// Counter movement over the stream (warm-up request excluded).
    pub stats: ServeStats,
    /// Heap traffic inside the `query_batch` calls (traced only).
    pub query_allocs: Option<AllocCount>,
}

/// Requests per stream segment. Latency percentiles and throughput are
/// taken per segment and the median segment is reported: on a shared
/// host a scheduling or cache-contention episode spoils the segments it
/// covers, not the whole run. A segment leaves fifty samples beyond its
/// p95 and ten beyond its p99; every workload's stream is at least
/// twenty segments long.
pub const SEGMENT_REQUESTS: usize = 1000;

/// The stream's end-to-end numbers, each the median over segments.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamSummary {
    /// Queries per second of engine-busy time (every request and every
    /// `apply_deltas` call; request generation, the client thinking, is
    /// not charged).
    pub qps: f64,
    pub request_us_p50: f64,
    pub request_us_p95: f64,
    pub request_us_p99: f64,
    pub delta_us_p50: f64,
    pub segments: usize,
    /// Per-segment throughput, in stream order (kept in the run document
    /// so a noisy run can be told from a slow program).
    pub segment_qps: Vec<f64>,
}

/// Summarizes per-call latencies, in call order. `delta_us[i]` is the
/// delta batch applied before `request_us[i * DELTA_EVERY]`. A trailing
/// partial segment is folded into the last whole one.
pub fn summarize_stream(request_us: &[f64], delta_us: &[f64]) -> StreamSummary {
    let segments = (request_us.len() / SEGMENT_REQUESTS).max(1);
    let (mut qps, mut p50, mut p95, mut p99, mut delta_p50) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in 0..segments {
        let last = s + 1 == segments;
        let lo = s * SEGMENT_REQUESTS;
        let hi = if last {
            request_us.len()
        } else {
            lo + SEGMENT_REQUESTS
        };
        let (dlo, dhi) = (
            lo.div_ceil(DELTA_EVERY),
            if last {
                delta_us.len()
            } else {
                hi.div_ceil(DELTA_EVERY)
            },
        );
        let (requests, deltas) = (&request_us[lo..hi], &delta_us[dlo..dhi]);
        let busy_us: f64 = requests.iter().sum::<f64>() + deltas.iter().sum::<f64>();
        qps.push((requests.len() * REQUEST_VERTICES) as f64 / (busy_us / 1e6));
        let sorted = stats::sorted(requests);
        p50.push(stats::percentile_sorted(&sorted, 50.0));
        p95.push(stats::percentile_sorted(&sorted, 95.0));
        p99.push(stats::percentile_sorted(&sorted, 99.0));
        delta_p50.push(stats::median(deltas));
    }
    StreamSummary {
        qps: stats::median(&qps),
        request_us_p50: stats::median(&p50),
        request_us_p95: stats::median(&p95),
        request_us_p99: stats::median(&p99),
        delta_us_p50: stats::median(&delta_p50),
        segments,
        segment_qps: qps,
    }
}

fn stats_delta(after: ServeStats, before: ServeStats) -> ServeStats {
    ServeStats {
        queries: after.queries - before.queries,
        batches: after.batches - before.batches,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        deltas_applied: after.deltas_applied - before.deltas_applied,
        rows_reaggregated: after.rows_reaggregated - before.rows_reaggregated,
    }
}

/// Closed loop, one client: the next call is issued when the previous
/// one returns. A request asks for `REQUEST_VERTICES` power-law vertices
/// and is answered by one `ServeEngine::query_batch` call, the entry
/// `distgnn serve` uses: hits are looked up, the stale rows are gathered
/// and repaired through one prefix matmul on the thread pool. One
/// `apply_deltas` of `DELTA_BATCH` goes in before every `DELTA_EVERY`-th
/// request.
pub fn serve_stream(
    engine: &mut ServeEngine,
    seeds: &Seeds,
    requests: usize,
    traced: bool,
    tracer: &mut Tracer,
) -> ServeOutcome {
    let n = engine.num_vertices();
    let num_classes = engine.num_classes() as u32;
    let mut stream = inputs::request_stream(n, seeds.requests);
    let mut deltas = DeltaStream::new(n, seeds.deltas);
    let mut reqs = vec![0u32; REQUEST_VERTICES];
    let mut classes = vec![0u32; REQUEST_VERTICES];
    let mut delta_buf = Vec::with_capacity(inputs::DELTA_BATCH);

    // One untimed request so lazy first-touch work is not in the sample.
    stream.fill(&mut reqs);
    engine.query_batch(&reqs, &mut classes);
    let before = engine.stats();

    let mut out = ServeOutcome {
        request_us: Vec::with_capacity(requests),
        delta_us: Vec::with_capacity(requests / DELTA_EVERY + 1),
        queries: 0,
        out_of_range: 0,
        stats: ServeStats::default(),
        query_allocs: traced.then(AllocCount::default),
    };
    for r in 0..requests {
        if r % DELTA_EVERY == 0 {
            deltas.fill(&mut delta_buf);
            tracer.enter("serve.apply_deltas");
            let t = Instant::now();
            engine.apply_deltas(&delta_buf);
            out.delta_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            tracer.exit();
        }
        stream.fill(&mut reqs);
        tracer.enter("serve.request");
        let t = Instant::now();
        if let Some(total) = out.query_allocs.as_mut() {
            let (a, ()) = alloc::count(|| engine.query_batch(&reqs, &mut classes));
            total.allocs += a.allocs;
            total.bytes += a.bytes;
        } else {
            engine.query_batch(&reqs, &mut classes);
        }
        out.request_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        tracer.exit();
        out.queries += REQUEST_VERTICES as u64;
        out.out_of_range += classes.iter().filter(|&&c| c >= num_classes).count() as u64;
    }
    out.stats = stats_delta(engine.stats(), before);
    out
}

/// The batched executor and the warm point path, by direct calls on a
/// served engine (traced run only).
pub struct DirectServe {
    /// One warm `query` (current row: an O(1) class lookup).
    pub point_warm_ns: f64,
    /// One `query_batch` of `REQUEST_VERTICES` whose rows are all current.
    pub batch_warm_us: f64,
    /// One `query_batch` right after a delta batch, at least one row
    /// stale: gather, one prefix matmul through the thread pool, scatter.
    pub batch_stale_us: f64,
    /// A warm call re-aggregated a row (it must not).
    pub warm_call_missed: bool,
}

pub fn serve_direct_calls(
    engine: &mut ServeEngine,
    seeds: &Seeds,
    tracer: &mut Tracer,
) -> DirectServe {
    const CALLS: usize = 200;
    let n = engine.num_vertices();
    let mut stream = inputs::request_stream(n, inputs::mix(seeds.requests, 8));
    let mut deltas = DeltaStream::new(n, inputs::mix(seeds.deltas, 8));
    let mut reqs = vec![0u32; REQUEST_VERTICES];
    let mut classes = vec![0u32; REQUEST_VERTICES];
    let mut delta_buf = Vec::with_capacity(inputs::DELTA_BATCH);

    let mut stale_us = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        deltas.fill(&mut delta_buf);
        engine.apply_deltas(&delta_buf);
        stream.fill(&mut reqs);
        let misses = engine.stats().cache_misses;
        tracer.enter("serve.query_batch_stale");
        let t = Instant::now();
        engine.query_batch(&reqs, &mut classes);
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        tracer.exit();
        if engine.stats().cache_misses > misses {
            stale_us.push(us);
        }
    }

    // The last request again and again: no delta in between, so every
    // row is current.
    let misses = engine.stats().cache_misses;
    let warm_us: Vec<f64> = (0..CALLS)
        .map(|_| {
            tracer.enter("serve.query_batch_warm");
            let t = Instant::now();
            engine.query_batch(&reqs, &mut classes);
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            tracer.exit();
            us
        })
        .collect();
    let hot = stream.hot_set(1)[0];
    std::hint::black_box(engine.query(hot));
    let point_ns: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..1000 {
                std::hint::black_box(engine.query(std::hint::black_box(hot)));
            }
            t.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    DirectServe {
        point_warm_ns: stats::median(&point_ns),
        batch_warm_us: stats::median(&warm_us),
        batch_stale_us: if stale_us.is_empty() {
            0.0
        } else {
            stats::median(&stale_us)
        },
        warm_call_missed: engine.stats().cache_misses != misses,
    }
}

/// Classes of `ORACLE_SAMPLES` requested vertices against a cold engine
/// built from `export_graph()`. A disagreement counts unless the cold
/// engine itself sees the two classes within 1e-3 of each other (the
/// engine documents removals as ε-, not bit-, identical to a rebuild).
/// Returns (compared, disagreeing).
pub fn serve_oracle(
    engine: &mut ServeEngine,
    model: &GraphSage,
    seeds: &Seeds,
    tracer: &mut Tracer,
) -> (u64, u64) {
    let n = engine.num_vertices();
    let mut sample = vec![0u32; ORACLE_SAMPLES];
    inputs::request_stream(n, inputs::mix(seeds.requests, 7)).fill(&mut sample);
    let mut served = vec![0u32; ORACLE_SAMPLES];
    engine.query_batch(&sample, &mut served);
    let (graph, features) = engine.export_graph();
    let cfg = ServeConfig {
        max_batch: REQUEST_VERTICES,
        ..Default::default()
    };
    let mut cold = tracer.span("serve.cold_rebuild", |_| {
        ServeEngine::new(model.clone(), &graph, features, &cfg)
    });
    let mut expected = vec![0u32; ORACLE_SAMPLES];
    cold.query_batch(&sample, &mut expected);
    let mut logits = vec![0.0f32; cold.num_classes()];
    let mut wrong = 0u64;
    for ((&v, &got), &want) in sample.iter().zip(&served).zip(&expected) {
        if got != want {
            cold.logits_into(v, &mut logits);
            let near_tie = (got as usize) < logits.len()
                && (logits[got as usize] - logits[want as usize]).abs() < 1e-3;
            if !near_tie {
                wrong += 1;
            }
        }
    }
    (ORACLE_SAMPLES as u64, wrong)
}

/// Epoch index of the first loss at or below `target`, and the epochs
/// it took as a fraction: the whole epochs before the crossing plus the
/// share of the crossing epoch up to the linearly interpolated point
/// where the loss meets the target, so the count does not jump by a
/// whole epoch when a seed moves the curve by a hair.
pub fn epochs_to_loss(losses: &[f32], target: f32) -> Option<(usize, f64)> {
    let e = losses.iter().position(|&l| l <= target)?;
    let frac = if e == 0 {
        1.0
    } else {
        // `e` is the first epoch at or below the target, so the epoch
        // before it was above: prev > target >= cur.
        let (prev, cur) = (losses[e - 1] as f64, losses[e] as f64);
        (prev - target as f64) / (prev - cur)
    };
    Some((e, e as f64 + frac))
}

/// First epoch whose loss is not finite (it and every later epoch
/// count as failed operations).
pub fn first_bad_epoch(losses: &[f32]) -> Option<usize> {
    losses.iter().position(|l| !l.is_finite())
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Training-side output checks shared by the timed and the traced run.
pub fn check_training(
    job: &Job,
    outcome: &TrainOutcome,
    ckpt_dir: &Path,
    checks: &mut Checks,
    tracer: &mut Tracer,
) {
    let Job {
        spec,
        ds,
        seeds,
        sizes,
        ..
    } = job;
    checks.check(
        "losses_finite",
        first_bad_epoch(&outcome.losses).is_none(),
        format!("{} epochs", outcome.losses.len()),
    );
    let crossing = epochs_to_loss(&outcome.losses, sizes.loss_target);
    checks.check(
        "loss_target_reached",
        crossing.is_some(),
        format!(
            "target {} in {} epochs, final loss {}",
            sizes.loss_target,
            outcome.losses.len(),
            outcome.losses.last().copied().unwrap_or(f32::NAN)
        ),
    );
    checks.check(
        "test_accuracy",
        outcome.test_accuracy >= sizes.min_test_acc,
        format!("{} (need >= {})", outcome.test_accuracy, sizes.min_test_acc),
    );
    if outcome.final_params.len() > 1 {
        let same = outcome.final_params[1..]
            .iter()
            .all(|p| bits_equal(p, &outcome.final_params[0]));
        checks.check(
            "replicas_bit_identical",
            same,
            format!("{} ranks", outcome.final_params.len()),
        );
    }
    if spec.baseline_epochs > 0 {
        let k = spec.baseline_epochs.min(outcome.losses.len());
        let cfg = spec.trainer_config(ds, seeds, k);
        let baseline = tracer.span("core.single_baseline", |_| Trainer::run(ds, &cfg));
        let worst = baseline
            .epochs
            .iter()
            .zip(&outcome.losses)
            .map(|(b, &l)| (b.loss - l).abs())
            .fold(0.0f32, f32::max);
        checks.check(
            "cd0_matches_single_socket",
            worst <= 1e-3,
            format!("max |loss difference| over {k} epochs = {worst}"),
        );
    }
    if sizes.checkpoints != Checkpoints::None {
        let newest = distgnn_io::list_checkpoints(ckpt_dir).pop();
        let ok = match &newest {
            Some((epoch, path)) => match distgnn_io::load_cluster_state(path) {
                Ok(states) => {
                    *epoch as usize == outcome.losses.len()
                        && states.len() == outcome.final_params.len()
                        && states
                            .iter()
                            .zip(&outcome.final_params)
                            .all(|(s, p)| bits_equal(&s.params, p))
                }
                Err(_) => false,
            },
            None => false,
        };
        checks.check(
            "newest_checkpoint_holds_final_params",
            ok,
            format!("newest = {:?}", newest.map(|(e, _)| e)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seconds: f64, smoke: bool, trace: bool) -> RunOpts {
        RunOpts {
            seed: 1,
            seconds,
            smoke,
            trace,
        }
    }

    #[test]
    fn epochs_to_loss_interpolates_inside_the_crossing_epoch() {
        // Loss meets 0.25 three quarters of the way through epoch 2.
        assert_eq!(epochs_to_loss(&[2.0, 1.0, 0.0, 0.0], 0.25), Some((2, 2.75)));
        // Already below at epoch 0: the whole first epoch is charged.
        assert_eq!(epochs_to_loss(&[0.1, 0.1], 0.25), Some((0, 1.0)));
        assert_eq!(epochs_to_loss(&[2.0, 1.0, 0.5], 0.25), None);
        // Exactly on target at the end of an epoch charges all of it.
        assert_eq!(epochs_to_loss(&[1.0, 0.25], 0.25), Some((1, 2.0)));
        // A non-finite loss never counts as reaching the target.
        assert_eq!(epochs_to_loss(&[f32::NAN, 1.0], 0.25), None);
    }

    #[test]
    fn stream_summary_is_the_median_segment() {
        // Three segments of 1000 requests at 100 us; the middle one hit
        // by a burst (every request 10x slower). Deltas: 250 per segment
        // at 400 us.
        let mut request_us = vec![100.0; 3 * SEGMENT_REQUESTS];
        request_us[SEGMENT_REQUESTS..2 * SEGMENT_REQUESTS].fill(1000.0);
        let per = SEGMENT_REQUESTS / DELTA_EVERY;
        let delta_us = vec![400.0; 3 * per];
        let s = summarize_stream(&request_us, &delta_us);
        assert_eq!(s.segments, 3);
        assert_eq!(
            (s.request_us_p50, s.request_us_p99, s.delta_us_p50),
            (100.0, 100.0, 400.0)
        );
        // Quiet segment: 64 000 queries in 1000*100us + 250*400us = 0.2 s.
        assert!((s.qps - 320_000.0).abs() < 1e-6, "{}", s.qps);
        assert!(s.segment_qps[1] < s.segment_qps[0] && s.segment_qps[0] == s.segment_qps[2]);
        // A short stream is one segment; a ragged tail joins the last.
        assert_eq!(
            summarize_stream(&request_us[..40], &delta_us[..10]).segments,
            1
        );
        let ragged = summarize_stream(
            &request_us[..2 * SEGMENT_REQUESTS + 8],
            &delta_us[..2 * per + 2],
        );
        assert_eq!(ragged.segments, 2);
    }

    #[test]
    fn non_finite_losses_are_found() {
        assert_eq!(first_bad_epoch(&[1.0, 0.5]), None);
        assert_eq!(first_bad_epoch(&[1.0, f32::NAN, 0.5]), Some(1));
        assert_eq!(first_bad_epoch(&[f32::INFINITY]), Some(0));
    }

    #[test]
    fn sizes_scale_with_seconds_and_keep_the_target_reachable() {
        for spec in SPECS {
            let full = spec.sizes(&opts(RUN_SECONDS as f64, false, false));
            assert!(full.epochs >= spec.epochs, "{}", spec.name);
            let short = spec.sizes(&opts(1.0, false, false));
            assert!(short.epochs >= spec.min_epochs, "{}", spec.name);
            assert!(short.serve_requests < full.serve_requests);
            let double = spec.sizes(&opts(2.0 * RUN_SECONDS as f64, false, false));
            assert!(
                double.epochs >= 2 * spec.epochs - 10
                    && double.serve_requests == 2 * full.serve_requests
            );
            if let Checkpoints::Every(n) = full.checkpoints {
                assert_eq!(full.epochs % n, 0, "{}", spec.name);
                assert_eq!(full.traced_epochs % n, 0, "{}", spec.name);
            }
            assert!(full.traced_epochs <= full.epochs && full.traced_epochs > full.warmup);
            let smoke = spec.sizes(&opts(RUN_SECONDS as f64, true, false));
            assert_eq!(
                smoke.epochs, full.epochs,
                "smoke shrinks graphs, not epochs"
            );
            assert!((smoke.graph_scale - full.graph_scale / 20.0).abs() < 1e-12);
            let traced = spec.sizes(&opts(RUN_SECONDS as f64, false, true));
            assert_eq!(traced.serve_requests, full.serve_requests / 4);
        }
    }

    #[test]
    fn delayed_workload_warms_up_for_the_pipeline_depth() {
        let s = spec("dist_cd5_ckpt")
            .unwrap()
            .sizes(&opts(RUN_SECONDS as f64, false, false));
        assert_eq!(s.warmup, 11);
        assert_eq!(s.checkpoint_every(s.epochs), 10);
        let s = spec("serve_mixed")
            .unwrap()
            .sizes(&opts(RUN_SECONDS as f64, false, false));
        assert_eq!(
            s.checkpoint_every(s.epochs),
            s.epochs,
            "one checkpoint, after the last epoch"
        );
        assert_eq!(s.checkpoint_every(s.traced_epochs), s.traced_epochs);
    }
}
