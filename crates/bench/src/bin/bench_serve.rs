//! Serving-path benchmark: trains a small model to a checkpoint, brings
//! the checkpoint up in a [`ServeEngine`], and drives three request
//! streams against it:
//!
//! * `point`  — one vertex per call (the latency floor),
//! * `batch`  — the same requests through the batched executor,
//! * `mixed`  — batched queries interleaved with graph-delta batches
//!   (the incremental re-aggregation path under load).
//!
//! Requests come from `distgnn-cachesim`'s power-law traffic generator,
//! so a small hot set absorbs most queries — the regime the final-layer
//! aggregation cache is designed for.
//!
//! Emits `BENCH_serve.json`, re-parses it to validate the schema, and
//! gates: batch and point streams must classify identically, the warm
//! query loops must perform zero heap allocations (counted by this
//! binary's global allocator), and the batched executor must beat the
//! point path by >= 5x throughput (>= 1.5x under `--smoke`, where tiny
//! runs make the ratio noisy).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use distgnn_cachesim::{RequestConfig, RequestStream};
use distgnn_core::{DistConfig, DistMode, DistTrainer};
use distgnn_graph::{Dataset, ScaledConfig};
use distgnn_serve::{load_newest_model, GraphDelta, ServeConfig, ServeEngine};
use distgnn_telemetry::{json, Metric, MetricsRegistry, Phase, Recorder, RecorderConfig};

/// Counts heap allocations while enabled — the zero-alloc gate for the
/// steady-state query loops.
struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), out)
}

struct BenchArgs {
    smoke: bool,
    scale: f64,
    epochs: usize,
    queries: usize,
    batch: usize,
    out: Option<String>,
}

fn parse_args() -> BenchArgs {
    let mut args = BenchArgs {
        smoke: false,
        scale: 0.25,
        epochs: 10,
        queries: 100_000,
        batch: 64,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.scale = 0.05;
                args.epochs = 4;
                args.queries = 5_000;
            }
            "--scale" => args.scale = it.next().and_then(|v| v.parse().ok()).expect("--scale f64"),
            "--epochs" => {
                args.epochs = it.next().and_then(|v| v.parse().ok()).expect("--epochs usize")
            }
            "--queries" => {
                args.queries = it.next().and_then(|v| v.parse().ok()).expect("--queries usize")
            }
            "--batch" => {
                args.batch = it.next().and_then(|v| v.parse().ok()).expect("--batch usize")
            }
            "--out" => args.out = Some(it.next().expect("--out path")),
            other => {
                panic!("unknown flag `{other}` (want --smoke/--scale/--epochs/--queries/--batch/--out)")
            }
        }
    }
    args
}

/// Percentile (0..=100) of a sorted ns sample, in microseconds.
fn pct_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

struct StreamRow {
    name: &'static str,
    throughput_qps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Heap allocations inside the warm query loop (must be 0).
    allocations: u64,
}

/// Deterministic delta batches for the mixed stream: alternating edge
/// additions and removals drawn from SplitMix64 (duplicates and missing
/// edges are no-op-ignored by the engine, which is part of the point —
/// real update feeds contain them too).
fn delta_batch(state: &mut u64, n: usize, len: usize) -> Vec<GraphDelta> {
    let mut next = || {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    (0..len)
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

fn validate_schema(raw: &str) -> Result<(), String> {
    let v = json::parse(raw)?;
    for key in ["benchmark", "command"] {
        v.get(key).and_then(|x| x.as_str()).ok_or(format!("missing string `{key}`"))?;
    }
    let ds = v.get("dataset").ok_or("missing `dataset`")?;
    ds.get("name").and_then(|x| x.as_str()).ok_or("missing dataset.name")?;
    for key in ["vertices", "edges"] {
        ds.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing dataset.{key}"))?;
    }
    let ck = v.get("checkpoint").ok_or("missing `checkpoint`")?;
    for key in ["epoch", "generation", "from_ranks", "skipped"] {
        ck.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing checkpoint.{key}"))?;
    }
    match ck.get("params_bit_identical") {
        Some(json::Value::Bool(_)) => {}
        _ => return Err("missing bool `checkpoint.params_bit_identical`".into()),
    }
    for key in ["queries", "batch_size", "alpha", "batched_speedup", "steady_state_allocs"] {
        v.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing number `{key}`"))?;
    }
    match v.get("equal_results") {
        Some(json::Value::Bool(_)) => {}
        _ => return Err("missing bool `equal_results`".into()),
    }
    let streams = v.get("streams").and_then(|a| a.as_arr()).ok_or("missing `streams`")?;
    if streams.len() != 3 {
        return Err(format!("expected 3 streams, got {}", streams.len()));
    }
    for s in streams {
        s.get("stream").and_then(|x| x.as_str()).ok_or("missing stream name")?;
        for key in ["throughput_qps", "p50_us", "p99_us", "allocations"] {
            s.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing stream.{key}"))?;
        }
    }
    let phases = v.get("phase_ns").ok_or("missing `phase_ns`")?;
    for key in ["serve_query", "serve_delta"] {
        phases.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing phase_ns.{key}"))?;
    }
    let metrics = v.get("metrics").ok_or("missing `metrics`")?;
    for key in [
        "queries_served",
        "query_batches",
        "serve_cache_hits",
        "serve_cache_misses",
        "deltas_applied",
        "rows_reaggregated",
    ] {
        metrics.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing metrics.{key}"))?;
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    let q = args.queries;
    let batch = args.batch.max(1);

    // ---- Train to a checkpoint ------------------------------------
    let ds = Dataset::generate(&ScaledConfig::reddit_s().scaled_by(args.scale));
    let n = ds.graph.num_vertices();
    println!(
        "dataset: {} ({} vertices, {} edges); training {} epochs to a checkpoint...",
        ds.name,
        n,
        ds.graph.num_edges(),
        args.epochs
    );
    let ckpt_dir = distgnn_io::temp_path("bench-serve-ckpt");
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 3, args.epochs);
    cfg.checkpoint_every = args.epochs;
    cfg.checkpoint_dir = Some(ckpt_dir.clone());
    let run = DistTrainer::launch(&ds, None, &cfg, None).expect("training run");

    // ---- Restore through the serving loader -----------------------
    let loaded = load_newest_model(&ckpt_dir, &cfg.model).expect("restore checkpoint");
    let params_identical = {
        let got = loaded.model.write_params();
        let want = &run.final_params[0];
        got.len() == want.len()
            && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
    };
    println!(
        "checkpoint: epoch {} gen {} from {} ranks ({} skipped); params bit-identical: {}",
        loaded.epoch, loaded.generation, loaded.from_ranks, loaded.skipped, params_identical
    );

    let rec = Arc::new(Recorder::new(RecorderConfig { event_capacity: 4096, epoch_capacity: 4 }));
    let serve_cfg = ServeConfig { max_batch: batch, ..Default::default() };
    let build_start = Instant::now();
    let mut eng = ServeEngine::with_recorder(
        loaded.model,
        &ds.graph,
        ds.features.clone(),
        &serve_cfg,
        rec.clone(),
    );
    println!("engine built in {:.1} ms", build_start.elapsed().as_secs_f64() * 1e3);

    // ---- Request streams ------------------------------------------
    let alpha = 0.99;
    let mut stream = RequestStream::new(RequestConfig { num_vertices: n, alpha, seed: 0xBE7C });
    let mut reqs = vec![0u32; q];
    stream.fill(&mut reqs);

    // Warmup touches the whole hot path once.
    let mut warm = vec![0u32; batch.min(q)];
    eng.query_batch(&reqs[..warm.len()], &mut warm);

    // Point stream: one vertex per call.
    let mut point_classes = vec![0u32; q];
    let mut point_lat = vec![0u64; q];
    let point_start = Instant::now();
    let (point_allocs, ()) = count_allocs(|| {
        for (i, &v) in reqs.iter().enumerate() {
            let t = Instant::now();
            point_classes[i] = eng.query(v);
            point_lat[i] = t.elapsed().as_nanos() as u64;
        }
    });
    let point_secs = point_start.elapsed().as_secs_f64();
    point_lat.sort_unstable();

    // Batch stream: identical requests through the batched executor.
    let mut batch_classes = vec![0u32; q];
    let n_batches = q.div_ceil(batch);
    let mut batch_lat = vec![0u64; n_batches];
    let batch_start = Instant::now();
    let (batch_allocs, ()) = count_allocs(|| {
        for (bi, (vs, cs)) in
            reqs.chunks(batch).zip(batch_classes.chunks_mut(batch)).enumerate()
        {
            let t = Instant::now();
            eng.query_batch(vs, cs);
            batch_lat[bi] = t.elapsed().as_nanos() as u64;
        }
    });
    let batch_secs = batch_start.elapsed().as_secs_f64();
    batch_lat.sort_unstable();

    let equal_results = point_classes == batch_classes;
    let point_qps = q as f64 / point_secs;
    let batch_qps = q as f64 / batch_secs;
    let speedup = batch_qps / point_qps;

    // Mixed stream: a delta batch every 16 query batches. Deltas may
    // allocate by design (adjacency growth); the query side still runs
    // inside the counting window.
    let mut rng = 0x5EEDu64;
    let mut mixed_lat = vec![0u64; n_batches];
    let mut mixed_classes = vec![0u32; q];
    let mixed_stats_before = eng.stats();
    let mixed_start = Instant::now();
    let mut mixed_query_allocs = 0u64;
    for (bi, (vs, cs)) in reqs.chunks(batch).zip(mixed_classes.chunks_mut(batch)).enumerate() {
        if bi % 16 == 0 {
            let deltas = delta_batch(&mut rng, n, 8);
            eng.apply_deltas(&deltas);
        }
        let t = Instant::now();
        let (a, ()) = count_allocs(|| eng.query_batch(vs, cs));
        mixed_lat[bi] = t.elapsed().as_nanos() as u64;
        mixed_query_allocs += a;
    }
    let mixed_secs = mixed_start.elapsed().as_secs_f64();
    let mixed_qps = q as f64 / mixed_secs;
    mixed_lat.sort_unstable();
    let mixed_stats = eng.stats();
    let mixed_misses = mixed_stats.cache_misses - mixed_stats_before.cache_misses;
    let mixed_reagg = mixed_stats.rows_reaggregated - mixed_stats_before.rows_reaggregated;

    let rows = [
        StreamRow {
            name: "point",
            throughput_qps: point_qps,
            p50_us: pct_us(&point_lat, 50.0),
            p99_us: pct_us(&point_lat, 99.0),
            allocations: point_allocs,
        },
        StreamRow {
            name: "batch",
            throughput_qps: batch_qps,
            p50_us: pct_us(&batch_lat, 50.0),
            p99_us: pct_us(&batch_lat, 99.0),
            allocations: batch_allocs,
        },
        StreamRow {
            name: "mixed",
            throughput_qps: mixed_qps,
            p50_us: pct_us(&mixed_lat, 50.0),
            p99_us: pct_us(&mixed_lat, 99.0),
            allocations: mixed_query_allocs,
        },
    ];

    println!("\n{:<8} {:>14} {:>10} {:>10} {:>8}", "stream", "qps", "p50 us", "p99 us", "allocs");
    for r in &rows {
        println!(
            "{:<8} {:>14.0} {:>10.2} {:>10.2} {:>8}",
            r.name, r.throughput_qps, r.p50_us, r.p99_us, r.allocations
        );
    }
    println!(
        "batched speedup {speedup:.2}x; mixed stream: {mixed_misses} lazy re-aggregations, \
         {mixed_reagg} rows repaired"
    );

    // ---- Telemetry ------------------------------------------------
    let mut reg = MetricsRegistry::new(1);
    eng.export_metrics(&mut reg, 0);
    reg.absorb_recorder(0, &rec);
    let m = |metric: Metric| reg.rank(0).get(metric);
    let phase_ns = rec.phase_ns();

    let stream_json = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"stream\": \"{name}\", \"throughput_qps\": {qps:.1}, ",
                    "\"p50_us\": {p50:.3}, \"p99_us\": {p99:.3}, \"allocations\": {allocs}}}"
                ),
                name = r.name,
                qps = r.throughput_qps,
                p50 = r.p50_us,
                p99 = r.p99_us,
                allocs = r.allocations,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let steady_state_allocs = point_allocs + batch_allocs + mixed_query_allocs;
    let json_text = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"serving throughput + latency over a trained checkpoint\",\n",
            "  \"command\": \"cargo run --release -p distgnn-bench --bin bench_serve\",\n",
            "  \"dataset\": {{\"name\": \"{name}\", \"vertices\": {v}, \"edges\": {e}}},\n",
            "  \"checkpoint\": {{\"epoch\": {ck_epoch}, \"generation\": {ck_gen}, ",
            "\"from_ranks\": {ck_ranks}, \"skipped\": {ck_skipped}, ",
            "\"params_bit_identical\": {ident}}},\n",
            "  \"queries\": {q},\n",
            "  \"batch_size\": {batch},\n",
            "  \"alpha\": {alpha},\n",
            "  \"streams\": [\n{streams}\n  ],\n",
            "  \"batched_speedup\": {speedup:.3},\n",
            "  \"equal_results\": {equal},\n",
            "  \"steady_state_allocs\": {allocs},\n",
            "  \"phase_ns\": {{\"serve_query\": {q_ns}, \"serve_delta\": {d_ns}}},\n",
            "  \"metrics\": {{\"queries_served\": {served}, \"query_batches\": {batches}, ",
            "\"serve_cache_hits\": {hits}, \"serve_cache_misses\": {misses}, ",
            "\"deltas_applied\": {deltas}, \"rows_reaggregated\": {reagg}}}\n",
            "}}\n"
        ),
        name = ds.name,
        v = n,
        e = ds.graph.num_edges(),
        ck_epoch = loaded.epoch,
        ck_gen = loaded.generation,
        ck_ranks = loaded.from_ranks,
        ck_skipped = loaded.skipped,
        ident = params_identical,
        q = q,
        batch = batch,
        alpha = alpha,
        streams = stream_json,
        speedup = speedup,
        equal = equal_results,
        allocs = steady_state_allocs,
        q_ns = phase_ns[Phase::ServeQuery as usize],
        d_ns = phase_ns[Phase::ServeDelta as usize],
        served = m(Metric::QueriesServed),
        batches = m(Metric::QueryBatches),
        hits = m(Metric::ServeCacheHits),
        misses = m(Metric::ServeCacheMisses),
        deltas = m(Metric::DeltasApplied),
        reagg = m(Metric::RowsReaggregated),
    );

    let default_path = if args.smoke {
        std::env::temp_dir().join("BENCH_serve_smoke.json").to_string_lossy().into_owned()
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
    };
    let path = args.out.unwrap_or(default_path);
    std::fs::write(&path, &json_text).expect("write BENCH_serve.json");
    println!("wrote {path}");

    let reread = std::fs::read_to_string(&path).expect("re-read emitted JSON");
    validate_schema(&reread).expect("BENCH_serve.json schema");
    println!("schema: ok");

    std::fs::remove_dir_all(&ckpt_dir).ok();

    // ---- Gates ----------------------------------------------------
    assert!(params_identical, "served parameters drifted from the trainer's final params");
    assert!(equal_results, "batched and point streams disagree on classes");
    assert_eq!(
        steady_state_allocs, 0,
        "steady-state query loops performed {steady_state_allocs} heap allocations"
    );
    let bound = if args.smoke { 1.5 } else { 5.0 };
    println!("gate: batched speedup {speedup:.2}x (bound >= {bound}x)");
    assert!(
        speedup >= bound,
        "batched executor only {speedup:.2}x over point queries (< {bound}x)"
    );
    assert!(m(Metric::DeltasApplied) > 0, "mixed stream applied no deltas");
    assert!(mixed_misses > 0, "mixed stream never exercised lazy re-aggregation");
}
