//! One run of one workload: the timed run (end-to-end metrics, no
//! instrumentation) or the traced run (per-layer metrics from spans,
//! the repo's recorders, the counting allocator and the layer replay).

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::host;
use crate::inputs::{self, Seeds, DELTA_EVERY, REQUEST_VERTICES};
use crate::json::{Obj, Value};
use crate::layers::{self, Metrics, ReplayInput};
use crate::spans::Tracer;
use crate::stats;
use crate::workload::{
    self, check_training, epochs_to_loss, serve_direct_calls, serve_oracle, serve_stream,
    setup_serve, setup_train, summarize_stream, train, Checkpoints, Checks, Instr, Job,
    ModelSource, RunOpts, ServeOutcome, ServeSetup, Sizes, Spec, TrainOutcome, TrainerKind,
    SETUP_REPS,
};
use distgnn_comm::NetworkModel;
use distgnn_core::single::Trainer;
use distgnn_core::GraphSage;
use distgnn_telemetry::Phase;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What `main` prints and the suite collects.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The full run document (provenance, shape, details, checks).
    pub document: Value,
}

/// Per-run scratch directory inside the output directory; removed when
/// the run ends, whatever way it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path, workload: &str) -> Scratch {
        let dir = out_dir.join(format!("tmp-{}-{workload}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under the output directory");
        Scratch(dir)
    }

    fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn model_source(sizes: &Sizes, outcome: &TrainOutcome, ckpt_dir: &Path) -> ModelSource {
    match sizes.checkpoints {
        Checkpoints::None => ModelSource::Params(outcome.final_params[0].clone()),
        _ => ModelSource::Checkpoint(ckpt_dir.to_path_buf()),
    }
}

fn shape_json(job: &Job) -> Obj {
    let Job {
        spec,
        ds,
        sizes,
        shape,
        ..
    } = job;
    let dims: Vec<Value> = shape
        .layer_dims()
        .iter()
        .map(|&(i, o)| Value::Arr(vec![Value::Num(i as f64), Value::Num(o as f64)]))
        .collect();
    Obj::new()
        .put("dataset", ds.name.as_str())
        .put("vertices", ds.num_vertices())
        .put("edges", ds.graph.num_edges())
        .put("feat_dim", ds.feat_dim())
        .put("classes", ds.num_classes)
        .put("layer_dims", dims)
        .put("ranks", spec.ranks())
        .put("kernel_blocks", spec.kernel(ds).n_blocks)
        .put("epochs", sizes.epochs)
        .put("traced_epochs", sizes.traced_epochs)
        .put("warmup_epochs", sizes.warmup)
        .put("serve_requests", sizes.serve_requests)
        .put("query_batch", REQUEST_VERTICES)
        .put("delta_batch", inputs::DELTA_BATCH)
        .put("delta_every", DELTA_EVERY)
}

fn loss_bits(losses: &[f32]) -> Vec<Value> {
    losses
        .iter()
        .map(|l| Value::Num(l.to_bits() as f64))
        .collect()
}

/// Failed operations: every epoch from the first non-finite loss on,
/// every query whose class is out of range or disagrees with the
/// oracle. (A `DistError` aborts the run before this point.)
fn ops(outcome: &TrainOutcome, serve: &ServeOutcome, oracle: (u64, u64)) -> (u64, u64) {
    let epochs = outcome.losses.len() as u64;
    let bad_epochs = workload::first_bad_epoch(&outcome.losses).map_or(0, |e| epochs - e as u64);
    let attempted = epochs + serve.request_us.len() as u64 + serve.delta_us.len() as u64 + oracle.0;
    let bad_requests = serve.out_of_range.div_ceil(REQUEST_VERTICES as u64);
    (attempted, bad_epochs + bad_requests + oracle.1)
}

/// Runs the cold-rebuild oracle and records the serving-side checks;
/// returns the oracle's (compared, disagreeing).
fn check_serving(
    job: &Job,
    serving: &mut ServeSetup,
    model: &GraphSage,
    stream: &ServeOutcome,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> (u64, u64) {
    let oracle = serve_oracle(&mut serving.engine, model, &job.seeds, tracer);
    checks.check(
        "served_classes_in_range",
        stream.out_of_range == 0,
        format!("{} out of range", stream.out_of_range),
    );
    checks.check(
        "served_classes_match_cold_rebuild",
        oracle.1 == 0,
        format!("{} of {} differ", oracle.1, oracle.0),
    );
    oracle
}

fn post_warmup<'a>(values: &'a [f64], sizes: &Sizes) -> &'a [f64] {
    &values[sizes.warmup.min(values.len().saturating_sub(1))..]
}

/// Repeats a cold set-up — at least `SETUP_REPS` times, and on until a
/// second has gone into it or `3 * SETUP_REPS` are done, so a set-up of
/// a few milliseconds gets a steadier median — dropping each product
/// before the next is built. Returns every duration and the last product.
fn repeat_setup<T>(mut once: impl FnMut() -> (T, f64)) -> (Vec<f64>, T) {
    let mut secs = Vec::new();
    loop {
        let (product, s) = once();
        secs.push(s);
        let enough = secs.len() >= SETUP_REPS
            && (secs.iter().sum::<f64>() >= 1.0 || secs.len() >= 3 * SETUP_REPS);
        if enough {
            return (secs, product);
        }
    }
}

/// The timed run: no spans, no recorders, no allocation counting.
fn run_timed(spec: &'static Spec, opts: &RunOpts, out_dir: &Path) -> RunReport {
    let t_run = Instant::now();
    let _awake = host::KeepAwake::start();
    let seeds = Seeds::derive(opts.seed);
    let sizes = spec.sizes(opts);
    let scratch = Scratch::new(out_dir, spec.name);
    let ckpt_dir = scratch.sub("ckpt");
    let mut tracer = Tracer::disabled();
    let mut checks = Checks::default();

    let (ds, generate_ms) = inputs::dataset(spec.base_config(), sizes.graph_scale, &seeds);
    let job = Job::new(spec, opts, seeds, sizes, &ds);

    // Cold training set-ups; the last one trains.
    let t_phase = Instant::now();
    let mut call_overhead_s = Vec::new();
    let (train_setup_s, mut setup) = repeat_setup(|| {
        let (setup, secs) = setup_train(&job, sizes.epochs, &mut tracer);
        call_overhead_s.push(setup.call_overhead_s());
        (setup, secs)
    });
    let train_setup_wall = t_phase.elapsed().as_secs_f64();

    let t_phase = Instant::now();
    let outcome = train(
        &job,
        &mut setup,
        sizes.epochs,
        &ckpt_dir,
        Instr::Plain,
        &mut tracer,
    )
    .unwrap_or_else(|e| fatal(&format!("{}: {e}", spec.name)));
    drop(setup);
    let train_wall = t_phase.elapsed().as_secs_f64();

    // Cold serving set-ups; the last engine serves.
    let t_phase = Instant::now();
    let source = model_source(&sizes, &outcome, &ckpt_dir);
    let (serve_setup_s, (mut serving, model)) = repeat_setup(|| {
        let (s, model) = setup_serve(&job, &source, &mut tracer);
        let secs = (s.restore_ms + s.build_ms) / 1e3;
        ((s, model), secs)
    });
    let serve_setup_wall = t_phase.elapsed().as_secs_f64();

    let t_phase = Instant::now();
    let stream = serve_stream(
        &mut serving.engine,
        &seeds,
        sizes.serve_requests,
        false,
        &mut tracer,
    );
    let serve_wall = t_phase.elapsed().as_secs_f64();
    // Before the checks: their oracle engine, exported graph and
    // single-socket baseline are the benchmark's memory, not the
    // pipeline's.
    let peak_rss_mb = host::peak_rss_mb();

    let t_phase = Instant::now();
    check_training(&job, &outcome, &ckpt_dir, &mut checks, &mut tracer);
    let oracle = check_serving(
        &job,
        &mut serving,
        &model,
        &stream,
        &mut checks,
        &mut tracer,
    );
    let checks_wall = t_phase.elapsed().as_secs_f64();

    // The training call minus the median fixed per-call cost seen over
    // the set-ups (0 under the single-socket trainer).
    let training_s = outcome.train_wall_s - stats::median(&call_overhead_s);
    let steady = post_warmup(&outcome.epoch_ms, &sizes);
    let (q1, p50, q3) = stats::quartiles(steady);
    let crossing = epochs_to_loss(&outcome.losses, sizes.loss_target);
    let served = summarize_stream(&stream.request_us, &stream.delta_us);
    let (attempted, failed) = ops(&outcome, &stream, oracle);

    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => stats::median(&train_setup_s) + stats::median(&serve_setup_s),
            "epoch_ms_p50" => p50,
            "epochs_per_s" => outcome.losses.len() as f64 / training_s,
            // Epochs to the target at the run's median epoch time. A run
            // that never reaches it has failed its check; the metric then
            // reads as all of its epochs.
            "time_to_loss_s" => crossing.map_or(outcome.losses.len() as f64, |c| c.1) * p50 / 1e3,
            "serve_qps" => served.qps,
            "serve_batch_us_p50" => served.request_us_p50,
            "serve_batch_us_p95" => served.request_us_p95,
            "serve_delta_us_p50" => served.delta_us_p50,
            "peak_rss_mb" => peak_rss_mb,
            other => unreachable!("end-to-end metric {other} has no measurement"),
        }
    };
    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();

    let details = Obj::new()
        .put("train_setup_s_samples", train_setup_s.as_slice())
        .put("serve_setup_s_samples", serve_setup_s.as_slice())
        .put("epoch_ms_q1", q1)
        .put("epoch_ms_q3", q3)
        .put("epoch_ms_samples", steady.len())
        .put("epoch_ms_first", outcome.epoch_ms[0])
        .put("epoch_ms", outcome.epoch_ms.as_slice())
        .put("train_wall_s", outcome.train_wall_s)
        .put("train_call_overhead_s", stats::median(&call_overhead_s))
        .put(
            "epochs_to_loss",
            crossing.map_or(Value::Null, |c| Value::Num(c.0 as f64)),
        )
        .put("loss_target", sizes.loss_target as f64)
        .put(
            "final_loss",
            *outcome.losses.last().expect("at least one epoch") as f64,
        )
        .put("test_accuracy", outcome.test_accuracy as f64)
        .put("loss_bits", loss_bits(&outcome.losses))
        .put("serve_queries", stream.queries)
        .put("serve_request_samples", stream.request_us.len())
        .put("serve_delta_samples", stream.delta_us.len())
        .put("serve_segments", served.segments)
        .put("serve_segment_qps", served.segment_qps.as_slice())
        .put("serve_cache_hits", stream.stats.cache_hits)
        .put("serve_cache_misses", stream.stats.cache_misses)
        .put("serve_rows_reaggregated", stream.stats.rows_reaggregated)
        .put("serve_deltas_applied", stream.stats.deltas_applied);
    let walls = Obj::new()
        .put("generate_inputs", generate_ms / 1e3)
        .put("train_setups", train_setup_wall)
        .put("train", train_wall)
        .put("serve_setups", serve_setup_wall)
        .put("serve", serve_wall)
        .put("checks", checks_wall)
        .put("total", t_run.elapsed().as_secs_f64());
    let document = document(
        &job,
        "timed",
        &metrics,
        details,
        &checks,
        (attempted, failed),
        walls,
    );
    RunReport {
        correct: checks.all_ok() && failed == 0,
        attempted,
        failed,
        metrics,
        document,
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("bench_stack: {msg}");
    std::process::exit(1);
}

fn document(
    job: &Job,
    mode: &str,
    metrics: &[(&'static str, f64, &'static str)],
    details: Obj,
    checks: &Checks,
    ops: (u64, u64),
    walls: Obj,
) -> Value {
    let Job { spec, opts, .. } = job;
    let mut m = Obj::new();
    for &(name, value, unit) in metrics {
        m = m.put(name, Obj::new().put("value", value).put("unit", unit));
    }
    Obj::new()
        .put("schema", "bench_stack-run-v1")
        .put("workload", spec.name)
        .put("why", spec.why)
        .put("mode", mode)
        .put("smoke", opts.smoke)
        .put("seconds", opts.seconds)
        .put("provenance", host::provenance(opts.seed, spec.ranks()))
        .put("shape", shape_json(job))
        .put("correct", checks.all_ok() && ops.1 == 0)
        .put("ops_attempted", ops.0)
        .put("ops_failed", ops.1)
        .put("metrics", m)
        .put("details", details)
        .put("checks", checks.to_json())
        .put("wall_s", walls)
        .build()
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// Median epoch of a plain single-socket `Trainer` on the same dataset:
/// the single-worker baseline the distributed epoch is divided by.
fn single_socket_epoch_ms(job: &Job, tracer: &mut Tracer) -> f64 {
    let Job {
        spec,
        ds,
        seeds,
        sizes,
        ..
    } = job;
    let epochs = sizes.warmup + 5;
    let cfg = spec.trainer_config(ds, seeds, epochs);
    let mut trainer = Trainer::new(ds, &cfg);
    let times: Vec<f64> = (0..epochs)
        .map(|_| {
            tracer.span("core.single_baseline_epoch", |_| {
                trainer.train_epoch().epoch_time.as_secs_f64() * 1e3
            })
        })
        .collect();
    stats::median(&times[sizes.warmup..])
}

/// The traced run. Pass A trains the full run uninstrumented (exact
/// convergence counts, the reference epoch time); pass B repeats the
/// first `traced_epochs` with the repo's recorders on; pass C with
/// recorders, benchmark spans and allocation counting. B and C must
/// reproduce A's losses bit for bit. The serving stream runs once,
/// traced, at a quarter of the batches; then the layer replay.
fn run_traced(spec: &'static Spec, opts: &RunOpts, out_dir: &Path) -> RunReport {
    let t_run = Instant::now();
    let seeds = Seeds::derive(opts.seed);
    let sizes = spec.sizes(opts);
    let scratch = Scratch::new(out_dir, spec.name);
    let mut checks = Checks::default();
    let calibration = host::calibrate();
    let _awake = host::KeepAwake::start();
    let mut tracer = Tracer::new(1 << 18);
    let mut layer: Metrics = Metrics::new();

    let (ds, generate_ms) = tracer.span("graph.generate", |_| {
        inputs::dataset(spec.base_config(), sizes.graph_scale, &seeds)
    });
    let job = Job::new(spec, opts, seeds, sizes, &ds);

    let pass =
        |name: &str, epochs: usize, instr: Instr, tracer: &mut Tracer| -> (TrainOutcome, PathBuf) {
            let dir = scratch.sub(name);
            let (mut setup, _) = setup_train(&job, epochs, tracer);
            let outcome = train(&job, &mut setup, epochs, &dir, instr, tracer)
                .unwrap_or_else(|e| fatal(&format!("{}: {e}", spec.name)));
            (outcome, dir)
        };
    let (a, ckpt_dir) = tracer.span("pass.plain", |t| {
        pass("ckpt-plain", sizes.epochs, Instr::Plain, t)
    });
    let (b, _) = tracer.span("pass.recorder", |t| {
        pass("ckpt-recorder", sizes.traced_epochs, Instr::Recorder, t)
    });
    let (c, _) = tracer.span("pass.traced", |t| {
        pass("ckpt-traced", sizes.traced_epochs, Instr::Traced, t)
    });

    check_training(&job, &a, &ckpt_dir, &mut checks, &mut tracer);
    for (name, other) in [
        ("recorder_on_is_bit_identical", &b),
        ("traced_is_bit_identical", &c),
    ] {
        let k = other.losses.len();
        checks.check(
            name,
            workload::bits_equal(&a.losses[..k], &other.losses),
            format!("{k} epochs against the uninstrumented pass"),
        );
    }

    // Serving: three cold set-ups (restore / build medians), one traced
    // stream on the last engine.
    let source = model_source(&sizes, &a, &ckpt_dir);
    let (mut restore_ms, mut build_ms) = (Vec::new(), Vec::new());
    let mut serving = None;
    for _ in 0..3 {
        drop(serving.take());
        let (s, model) = setup_serve(&job, &source, &mut tracer);
        restore_ms.push(s.restore_ms);
        build_ms.push(s.build_ms);
        serving = Some((s, model));
    }
    let (mut serving, model) = serving.expect("three set-ups");
    let stream = tracer.span("serve.stream", |t| {
        serve_stream(&mut serving.engine, &seeds, sizes.serve_requests, true, t)
    });
    let direct = serve_direct_calls(&mut serving.engine, &seeds, &mut tracer);
    checks.check(
        "warm_replay_never_missed",
        !direct.warm_call_missed,
        "direct warm calls must not re-aggregate a row".into(),
    );
    let oracle = check_serving(
        &job,
        &mut serving,
        &model,
        &stream,
        &mut checks,
        &mut tracer,
    );

    // Layer replay at this workload's shapes.
    let comm_totals = a.dist.as_ref().map(|d| {
        let sum = |f: fn(&distgnn_comm::CommSnapshot) -> u64| d.comm.iter().map(f).sum::<u64>();
        (
            sum(|s| s.bytes_sent),
            sum(|s| s.logical_bytes_sent),
            sum(|s| s.messages_sent),
            sum(|s| s.retries_attempted),
        )
    });
    let message_floats = match comm_totals {
        Some((bytes, _, msgs, _)) if msgs > 0 => (bytes / msgs / 4).max(1) as usize,
        _ => a.final_params[0].len(),
    };
    let checkpoint_state = distgnn_io::list_checkpoints(&ckpt_dir)
        .pop()
        .and_then(|(_, path)| distgnn_io::load_cluster_state(&path).ok())
        .and_then(|states| states.into_iter().next());
    let replay_dir = scratch.sub("replay");
    layer.extend(layers::replay(
        &ReplayInput {
            ds: &ds,
            model: &job.shape,
            params: &a.final_params[0],
            kernel: spec.kernel(&ds),
            calibration: &calibration,
            message_floats,
            checkpoint_state,
            scratch: &replay_dir,
        },
        &mut tracer,
    ));

    // ---- Assemble the per-layer metrics ---------------------------
    let epochs = a.losses.len() as f64;
    // Like for like: the same epoch indices in all three passes.
    let window = |o: &TrainOutcome| stats::median(&o.epoch_ms[sizes.warmup..sizes.traced_epochs]);
    let (p50_a, p50_b, p50_c) = (window(&a), window(&b), window(&c));
    let epoch_p50 = stats::median(post_warmup(&a.epoch_ms, &sizes));
    let crossing = epochs_to_loss(&a.losses, sizes.loss_target);
    let layer_sum = layer["core.forward_ms"]
        + layer["nn.loss_ms"]
        + layer["core.backward_ms"]
        + layer["nn.adam_ms"];
    layer.insert("core.backward_share", layer["core.backward_ms"] / layer_sum);
    let agg_shares: Vec<f64> = post_warmup(&a.agg_ms, &sizes)
        .iter()
        .zip(post_warmup(&a.epoch_ms, &sizes))
        .map(|(agg, epoch)| agg / epoch)
        .collect();
    layer.insert("core.agg_share", stats::median(&agg_shares));
    layer.insert(
        "core.layer_sum_gap_pct",
        (epoch_p50 - layer_sum) / epoch_p50 * 100.0,
    );
    layer.insert(
        "core.epochs_to_loss",
        crossing.map_or(f64::NAN, |c| c.0 as f64),
    );
    layer.insert("core.final_loss", *a.losses.last().expect("epochs") as f64);
    layer.insert("core.test_acc", a.test_accuracy as f64);
    let (allocs, kib) = c.allocs_per_epoch.expect("traced pass counts allocations");
    layer.insert("core.allocs_per_epoch", allocs);
    layer.insert("core.alloc_kib_per_epoch", kib);
    let dist_median = |f: fn(&workload::DistDetail) -> &Vec<f64>| {
        a.dist
            .as_ref()
            .map_or(0.0, |d| median_or_zero(post_warmup(f(d), &sizes)))
    };
    layer.insert("core.drpa_lat_ms", dist_median(|d| &d.lat_ms));
    layer.insert("core.drpa_rat_ms", dist_median(|d| &d.rat_ms));
    layer.insert("core.drpa_bwd_agg_ms", dist_median(|d| &d.bwd_agg_ms));
    let phase = b.phase_ms.expect("recorder pass has phase totals");
    let ph = |p: Phase| phase[p as usize];
    layer.insert("core.phase_forward_ms", ph(Phase::Forward));
    layer.insert("core.phase_backward_ms", ph(Phase::Backward));
    layer.insert("core.phase_aggregate_ms", ph(Phase::Aggregate));
    layer.insert("core.phase_optimizer_ms", ph(Phase::Optimizer));
    layer.insert("comm.send_ms", ph(Phase::CommSend));
    layer.insert("comm.wait_ms", ph(Phase::CommWait));
    layer.insert("comm.barrier_ms", ph(Phase::Barrier));
    let mean_epoch_b = b.epoch_ms.iter().sum::<f64>() / b.epoch_ms.len() as f64;
    layer.insert(
        "comm.unhidden_share",
        (ph(Phase::CommSend) + ph(Phase::CommWait) + ph(Phase::Barrier)) / mean_epoch_b,
    );
    let checkpoints_b = match sizes.checkpoint_every(sizes.traced_epochs) {
        0 => 0,
        every => sizes.traced_epochs / every,
    };
    layer.insert(
        "io.ckpt_stall_ms",
        if checkpoints_b == 0 {
            0.0
        } else {
            ph(Phase::Checkpoint) * sizes.traced_epochs as f64 / checkpoints_b as f64
        },
    );
    let (bytes, logical, msgs, retries) = comm_totals.unwrap_or((0, 0, 0, 0));
    layer.insert("comm.bytes_per_epoch", bytes as f64 / epochs);
    layer.insert("comm.logical_bytes_per_epoch", logical as f64 / epochs);
    layer.insert("comm.msgs_per_epoch", msgs as f64 / epochs);
    layer.insert("comm.retries", retries as f64);
    // Alpha-beta time of one rank's share of the measured traffic on
    // the paper's fabric: computed, not measured.
    let net = NetworkModel::hdr_default();
    let per_rank = spec.ranks() as f64 * epochs;
    layer.insert(
        "comm.model_wire_ms",
        (msgs as f64 / per_rank * net.latency_s + bytes as f64 / per_rank / net.bandwidth_bps)
            * 1e3,
    );
    layer.insert(
        "core.dist_vs_single_ratio",
        match spec.trainer {
            TrainerKind::Single => 1.0,
            TrainerKind::Dist { .. } => epoch_p50 / single_socket_epoch_ms(&job, &mut tracer),
        },
    );
    layer.insert("serve.restore_ms", stats::median(&restore_ms));
    layer.insert("serve.build_ms", stats::median(&build_ms));
    layer.insert("serve.point_warm_ns", direct.point_warm_ns);
    layer.insert("serve.batch_warm_us", direct.batch_warm_us);
    layer.insert("serve.batch_stale_us", direct.batch_stale_us);
    layer.insert(
        "serve.batch_us_p99",
        summarize_stream(&stream.request_us, &stream.delta_us).request_us_p99,
    );
    let (hits, misses) = (
        stream.stats.cache_hits as f64,
        stream.stats.cache_misses as f64,
    );
    layer.insert("serve.cache_hit_rate", hits / (hits + misses).max(1.0));
    layer.insert(
        "serve.rows_reagg_per_delta",
        stream.stats.rows_reaggregated as f64 / stream.delta_us.len().max(1) as f64,
    );
    let query_allocs = stream
        .query_allocs
        .expect("traced stream counts allocations");
    layer.insert(
        "serve.allocs_per_batch",
        query_allocs.allocs as f64 / stream.request_us.len() as f64,
    );
    layer.insert("graph.generate_ms", generate_ms);
    layer.insert("graph.vertices", ds.num_vertices() as f64);
    layer.insert("graph.edges", ds.graph.num_edges() as f64);
    layer.insert("host.nproc", host::nproc() as f64);
    layer.insert("host.triad_gbps", calibration.triad_gbps);
    layer.insert("host.fma_gflops", calibration.fma_gflops);
    layer.insert("host.idle_wake_us", calibration.idle_wake_us);
    layer.insert(
        "telemetry.recorder_overhead_pct",
        (p50_b / p50_a - 1.0) * 100.0,
    );
    layer.insert("bench.trace_overhead_pct", (p50_c / p50_a - 1.0) * 100.0);

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            let v = *layer
                .get(m.name)
                .unwrap_or_else(|| fatal(&format!("per-layer metric {} was not measured", m.name)));
            (m.name, v, m.unit)
        })
        .collect();

    let (attempted, failed) = ops(&a, &stream, oracle);
    let self_times: Vec<Value> = tracer
        .totals()
        .iter()
        .map(|(name, t)| {
            Obj::new()
                .put("span", *name)
                .put("count", t.count)
                .put("total_ms", t.total_ns as f64 / 1e6)
                .put("self_ms", t.self_ns as f64 / 1e6)
                .build()
        })
        .collect();
    let details = Obj::new()
        .put("calibration", calibration.to_json())
        .put("epoch_ms_p50_plain_full", epoch_p50)
        .put("epoch_ms_p50_window_plain", p50_a)
        .put("epoch_ms_p50_window_recorder", p50_b)
        .put("epoch_ms_p50_window_traced", p50_c)
        .put("loss_bits", loss_bits(&a.losses))
        .put("message_floats", message_floats)
        .put("span_self_times", self_times);
    let walls = Obj::new().put("total", t_run.elapsed().as_secs_f64());
    let document = document(
        &job,
        "traced",
        &metrics,
        details,
        &checks,
        (attempted, failed),
        walls,
    );

    // One Chrome trace per workload: the benchmark's spans, provenance
    // as metadata.
    let metadata = crate::json::to_string(
        &host::provenance(opts.seed, spec.ranks())
            .put("workload", spec.name)
            .put("shape", shape_json(&job))
            .build(),
    );
    let trace_path = out_dir.join(format!("{}.trace.json", spec.name));
    std::fs::write(&trace_path, tracer.chrome_trace(spec.name, &metadata))
        .unwrap_or_else(|e| fatal(&format!("cannot write {}: {e}", trace_path.display())));

    RunReport {
        correct: checks.all_ok() && failed == 0,
        attempted,
        failed,
        metrics,
        document,
    }
}

/// Runs one workload and writes its run document under `out_dir`.
pub fn run(spec: &'static Spec, opts: &RunOpts, out_dir: &Path) -> RunReport {
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| fatal(&format!("cannot create {}: {e}", out_dir.display())));
    let report = if opts.trace {
        run_traced(spec, opts, out_dir)
    } else {
        run_timed(spec, opts, out_dir)
    };
    let mode = if opts.trace { "traced" } else { "timed" };
    let path = out_dir.join(format!("{}.{mode}.seed{}.json", spec.name, opts.seed));
    std::fs::write(&path, crate::json::to_string(&report.document))
        .unwrap_or_else(|e| fatal(&format!("cannot write {}: {e}", path.display())));
    report
}
