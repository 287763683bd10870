//! `distgnn` — command-line trainer for the DistGNN reproduction.

use std::sync::Arc;
use std::time::Instant;

use distgnn_cachesim::{RequestConfig, RequestStream};
use distgnn_cli::{dataset_config, parse, Cli, Command, USAGE};
use distgnn_core::single::{Trainer, TrainerConfig};
use distgnn_core::{build_metrics, DistConfig, DistMode, DistTrainer};
use distgnn_graph::{stats, Dataset};
use distgnn_kernels::AggregationConfig;
use distgnn_partition::metrics::{edge_balance, replication_factor};
use distgnn_partition::libra_partition;
use distgnn_serve::{load_newest_model, GraphDelta, ServeConfig, ServeEngine};
use distgnn_telemetry::{
    chrome_trace, metrics_json, phase_table, MetricsRegistry, Recorder, RecorderConfig,
    TelemetryHub,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    match cli.command {
        Command::Help => print!("{USAGE}"),
        Command::Train => train(&cli),
        Command::DistTrain => dist_train(&cli),
        Command::Inspect => inspect(&cli),
        Command::Serve => serve(&cli),
    }
}

fn load(cli: &Cli) -> Dataset {
    let cfg = dataset_config(&cli.dataset, cli.scale).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let ds = Dataset::generate(&cfg);
    let s = stats::graph_stats(&ds.graph);
    println!(
        "{}: {} vertices, {} edges, avg degree {:.1}, d={}, {} classes",
        ds.name, s.num_vertices, s.num_edges, s.avg_degree, ds.feat_dim(), ds.num_classes
    );
    ds
}

fn kernel(cli: &Cli, ds: &Dataset) -> AggregationConfig {
    let n_b = cli.blocks.unwrap_or_else(|| {
        AggregationConfig::auto_blocks(ds.num_vertices(), ds.feat_dim(), 1 << 20)
    });
    AggregationConfig::optimized(n_b)
}

fn train(cli: &Cli) {
    let ds = load(cli);
    let mut cfg = TrainerConfig::for_dataset(&ds, kernel(cli, &ds), cli.epochs);
    cfg.lr = cli.lr;
    let report = Trainer::run(&ds, &cfg);
    for (i, e) in report.epochs.iter().enumerate() {
        if i % 10 == 0 || i + 1 == report.epochs.len() {
            println!(
                "epoch {i:>4}  loss {:>8.4}  train-acc {:>5.1}%  {:>7.1} ms (AP {:>6.1} ms)",
                e.loss,
                e.train_accuracy * 100.0,
                e.epoch_time.as_secs_f64() * 1e3,
                e.agg_time.as_secs_f64() * 1e3
            );
        }
    }
    println!("test accuracy: {:.2}%", report.test_accuracy * 100.0);
}

fn dist_train(cli: &Cli) {
    let ds = load(cli);
    let mut cfg = DistConfig::new(&ds, cli.mode, cli.sockets, cli.epochs);
    cfg.lr = cli.lr;
    cfg.kernel = kernel(cli, &ds);
    cfg.seed = cli.seed;
    cfg.faults = cli.faults.clone();
    cfg.retry = cli.retry_policy();
    cfg.checkpoint_every = cli.checkpoint_every;
    cfg.checkpoint_dir = cli.checkpoint_dir.as_ref().map(std::path::PathBuf::from);
    cfg.overlap = cli.progress;
    cfg.codec = cli.compress;
    cfg.grad_codec = cli.compress_grads;
    cfg.error_feedback = !cli.no_error_feedback;
    cfg.lossy_checkpoints = cli.lossy_checkpoints;
    cfg.max_restarts = cli.max_restarts;
    cfg.resume = cli.resume;
    cfg.elastic_resume = cli.elastic_resume;
    cfg.adopt_on_crash = cli.adopt_on_crash;
    println!(
        "mode {}, {} sockets, compress {}{}",
        cli.mode.name(),
        cli.sockets,
        cli.compress.name(),
        if cli.faults.is_none() { "" } else { ", fault injection ON" }
    );
    let hub = if cli.wants_telemetry() {
        TelemetryHub::new(cli.sockets, Default::default())
    } else {
        TelemetryHub::disabled(cli.sockets)
    };
    let report = DistTrainer::launch(&ds, None, &cfg, Some(&hub)).unwrap_or_else(|e| {
        let budget = if cli.wants_recovery() { " (restart budget exhausted)" } else { "" };
        eprintln!("error: {e}{budget}");
        std::process::exit(1);
    });
    if cli.wants_recovery() {
        for f in &report.failures {
            eprintln!("attempt failed: {f}");
        }
        println!(
            "recovery: {} restart(s), {} epoch(s) replayed, {} retries absorbed \
             ({} backoff barriers)",
            report.restarts,
            report.epochs_replayed,
            report.retries_absorbed,
            report.backoff_barriers
        );
        if report.adoptions > 0 {
            println!(
                "elastic: {} rank(s) adopted, finished at world size {}",
                report.adoptions, report.final_world
            );
        }
    }
    for (i, e) in report.epochs.iter().enumerate() {
        if i % 10 == 0 || i + 1 == report.epochs.len() {
            println!(
                "epoch {i:>4}  loss {:>8.4}  {:>7.1} ms  (LAT {:>6.1} / RAT {:>6.1} ms)",
                e.loss,
                e.epoch_time.as_secs_f64() * 1e3,
                e.lat.as_secs_f64() * 1e3,
                e.rat.as_secs_f64() * 1e3
            );
        }
    }
    let sent: u64 = report.per_rank_comm.iter().map(|s| s.bytes_sent).sum();
    let logical: u64 = report.per_rank_comm.iter().map(|s| s.logical_bytes_sent).sum();
    println!(
        "test accuracy: {:.2}%   total sent: {:.1} MiB",
        report.test_accuracy * 100.0,
        sent as f64 / (1 << 20) as f64
    );
    if logical != sent {
        println!(
            "compression: {:.1} MiB logical -> {:.1} MiB wire ({:.2}x)",
            logical as f64 / (1 << 20) as f64,
            sent as f64 / (1 << 20) as f64,
            logical as f64 / sent.max(1) as f64
        );
    }
    print_fault_summary(&report.per_rank_comm);
    if cli.wants_telemetry() {
        let reg = build_metrics(&cfg, &report, &hub);
        println!("\n{}", phase_table(&reg));
        if let Some(path) = &cli.trace_out {
            export(path, &chrome_trace(&hub), "trace");
        }
        if let Some(path) = &cli.metrics_out {
            export(path, &metrics_json(&reg), "metrics");
        }
    }
}

/// Atomically writes an exporter document (tmp + rename, like
/// checkpoints: a crashed run never leaves a torn JSON behind).
fn export(path: &str, doc: &str, what: &str) {
    match distgnn_io::atomic::atomic_write(std::path::Path::new(path), doc.as_bytes()) {
        Ok(()) => println!("{what} written to {path}"),
        Err(e) => {
            eprintln!("error: cannot write {what} to {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Summarizes fault and staleness accounting over all ranks: dropped /
/// delayed / reordered / stalled message counts and the histogram of
/// consumed remote-partial ages (cd-r only — empty otherwise).
fn print_fault_summary(snaps: &[distgnn_comm::CommSnapshot]) {
    let dropped: u64 = snaps.iter().map(|s| s.messages_dropped).sum();
    let delayed: u64 = snaps.iter().map(|s| s.messages_delayed).sum();
    let reordered: u64 = snaps.iter().map(|s| s.messages_reordered).sum();
    let stalled: u64 = snaps.iter().map(|s| s.sends_stalled).sum();
    if dropped + delayed + reordered + stalled > 0 {
        println!(
            "faults: {dropped} dropped, {delayed} delayed, {reordered} reordered, \
             {stalled} stalled sends"
        );
    }
    let samples: u64 = snaps.iter().map(|s| s.staleness_samples()).sum();
    if samples == 0 {
        return;
    }
    let max = snaps.iter().map(|s| s.max_staleness).max().unwrap_or(0);
    let violations: u64 = snaps.iter().map(|s| s.staleness_violations).sum();
    println!("staleness: {samples} consumed partials, max age {max}, {violations} over bound");
    let top = snaps
        .iter()
        .flat_map(|s| s.stale_hist.iter().enumerate())
        .filter(|&(_, &c)| c > 0)
        .map(|(i, _)| i)
        .max()
        .unwrap_or(0);
    for age in 0..=top {
        let count: u64 = snaps.iter().map(|s| s.stale_hist[age]).sum();
        if count > 0 {
            let bar = "#".repeat(((count * 40).div_ceil(samples)) as usize);
            println!("  age {age:>2}{} {count:>8} {bar}",
                if age == distgnn_comm::stats::STALE_BUCKETS - 1 { "+" } else { " " });
        }
    }
}

/// `distgnn serve`: restore the newest checkpoint, build the serving
/// engine over the regenerated dataset, and replay a power-law query
/// stream (optionally interleaved with graph-delta batches).
fn serve(cli: &Cli) {
    let Some(ckpt_dir) = cli.checkpoint_dir.as_deref() else {
        eprintln!("error: `serve` needs --checkpoint-dir (where dist-train wrote checkpoints)");
        std::process::exit(2);
    };
    let ds = load(cli);
    // The checkpoint stores flat parameters; the model shape comes from
    // the dataset, exactly as dist-train derived it.
    let shape = DistConfig::new(&ds, DistMode::Cd0, 1, 1).model;
    let loaded = match load_newest_model(std::path::Path::new(ckpt_dir), &shape) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "checkpoint: epoch {} gen {} from {} ranks ({} skipped)",
        loaded.epoch, loaded.generation, loaded.from_ranks, loaded.skipped
    );

    let rec = if cli.wants_telemetry() {
        Arc::new(Recorder::new(RecorderConfig { event_capacity: 4096, epoch_capacity: 4 }))
    } else {
        Arc::new(Recorder::disabled())
    };
    let batch = cli.batch.max(1);
    let serve_cfg = ServeConfig { max_batch: batch, ..Default::default() };
    let build_start = Instant::now();
    let mut eng = ServeEngine::with_recorder(
        loaded.model,
        &ds.graph,
        ds.features.clone(),
        &serve_cfg,
        Arc::clone(&rec),
    );
    println!("engine built in {:.1} ms", build_start.elapsed().as_secs_f64() * 1e3);

    let n = ds.graph.num_vertices();
    let mut stream =
        RequestStream::new(RequestConfig { num_vertices: n, alpha: 0.99, seed: cli.seed });
    let mut reqs = vec![0u32; batch];
    let mut classes = vec![0u32; batch];
    let num_batches = cli.queries.div_ceil(batch);
    // Spread the requested delta batches evenly through the stream.
    let delta_every = if cli.deltas > 0 { num_batches.div_ceil(cli.deltas).max(1) } else { 0 };
    let mut rng = cli.seed ^ 0xDE17A;
    let mut applied = 0usize;
    let start = Instant::now();
    for b in 0..num_batches {
        if delta_every > 0 && b % delta_every == 0 && applied < cli.deltas {
            let deltas = delta_batch(&mut rng, n);
            let report = eng.apply_deltas(&deltas);
            applied += 1;
            let _ = report;
        }
        stream.fill(&mut reqs);
        eng.query_batch(&reqs, &mut classes);
    }
    let elapsed = start.elapsed();

    let s = eng.stats();
    let qps = s.queries as f64 / elapsed.as_secs_f64();
    println!(
        "served {} queries in {} batches of {batch}: {:.0} qps ({:.2} us/query)",
        s.queries,
        s.batches,
        qps,
        elapsed.as_secs_f64() * 1e6 / s.queries.max(1) as f64
    );
    println!(
        "cache: {} hits / {} misses ({:.1}% hit rate); {} delta batches, {} deltas applied, \
         {} rows re-aggregated",
        s.cache_hits,
        s.cache_misses,
        100.0 * s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64,
        applied,
        s.deltas_applied,
        s.rows_reaggregated
    );
    if let Some(path) = &cli.metrics_out {
        let mut reg = MetricsRegistry::new(1);
        eng.export_metrics(&mut reg, 0);
        reg.absorb_recorder(0, &rec);
        export(path, &metrics_json(&reg), "metrics");
    }
}

/// Deterministic SplitMix64 delta batches (3:1 adds to removes) for the
/// `--deltas` stream; duplicates and missing edges are no-op-ignored by
/// the engine, as in real update feeds.
fn delta_batch(state: &mut u64, n: usize) -> Vec<GraphDelta> {
    let mut next = || {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    (0..8)
        .map(|i| {
            let src = (next() % n as u64) as u32;
            let dst = (next() % n as u64) as u32;
            if i % 4 == 3 {
                GraphDelta::RemoveEdge { src, dst }
            } else {
                GraphDelta::AddEdge { src, dst }
            }
        })
        .collect()
}

fn inspect(cli: &Cli) {
    let ds = load(cli);
    let s = stats::graph_stats(&ds.graph);
    println!(
        "density {:.6}, max degree {}, isolated {}",
        s.density, s.max_degree, s.isolated
    );
    let edges = ds.graph.to_edge_list();
    println!("\nLibra partition quality:");
    println!("{:>8} {:>8} {:>8}", "k", "repl", "balance");
    for k in [2usize, 4, 8, 16, 32] {
        let p = libra_partition(&edges, k);
        println!(
            "{:>8} {:>8.2} {:>8.3}",
            k,
            replication_factor(&p),
            edge_balance(&p)
        );
    }
}
