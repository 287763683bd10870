//! Proves the steady-state single-socket training epoch performs no
//! heap allocation: after the warm-up epochs have sized every lazily
//! allocated buffer (aggregator backward scratch, Adam moments, the
//! flat-gradient vector), `Trainer::train_epoch` must run entirely out
//! of the reused [`SageWorkspace`] and trainer-owned buffers — and the
//! guarantee must survive telemetry recording, whose ring buffers are
//! preallocated at startup (overflow drops events behind a counter,
//! never grows).
//!
//! The counting global allocator counts every thread (pool workers
//! included), so the checks never run side by side: the first test
//! thread to start runs all of them in sequence (see [`outcome`]) and
//! each `#[test]` reports the outcome of its own check.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Wraps the system allocator, counting (de)allocations while enabled.
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

/// The checks, in the order they run.
const CHECKS: [fn(); 4] =
    [train_epoch_check, codec_check, recording_epoch_check, serve_queries_check];

/// Returns the outcome of `CHECKS[i]`: `Err` holds a failed check's
/// panic message.
///
/// The first test thread to get here runs every check once, in order;
/// the others block until that run is done and then read its results.
/// So while a counting window is open, no other test thread is running
/// code, and the harness's main thread is waiting for a result (every
/// test thread it starts up front is started before the first check
/// finishes its warm-up, and no test can finish before the run does).
/// Each check is caught on its own, so one failure cannot fail the rest.
fn outcome(i: usize) -> Result<(), String> {
    static OUTCOMES: OnceLock<[Result<(), String>; 4]> = OnceLock::new();
    let outcomes = OUTCOMES.get_or_init(|| {
        CHECKS.map(|check| {
            let result = panic::catch_unwind(check);
            // A check that panicked inside its window left counting on.
            ENABLED.store(false, Ordering::SeqCst);
            result.map_err(|payload| match payload.downcast::<String>() {
                Ok(msg) => *msg,
                Err(payload) => {
                    payload.downcast_ref::<&str>().copied().unwrap_or("check panicked").into()
                }
            })
        })
    });
    outcomes[i].clone()
}

#[test]
fn steady_state_train_epoch_allocates_nothing() {
    outcome(0).unwrap();
}

#[test]
fn codec_hot_path_allocates_nothing() {
    outcome(1).unwrap();
}

#[test]
fn steady_state_epoch_with_recording_allocates_nothing() {
    outcome(2).unwrap();
}

#[test]
fn steady_state_serve_queries_allocate_nothing() {
    outcome(3).unwrap();
}

/// Runs `f` inside the counting window and returns the allocation count.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), out)
}

fn train_epoch_check() {
    use distgnn_core::{Trainer, TrainerConfig};
    use distgnn_graph::{Dataset, ScaledConfig};
    use distgnn_kernels::AggregationConfig;

    let ds = Dataset::generate(&ScaledConfig::am_s().scaled_by(0.25));
    let cfg = TrainerConfig::for_dataset(&ds, AggregationConfig::optimized(2), 1);
    let mut trainer = Trainer::new(&ds, &cfg);

    // Warm-up: epoch 1 sizes the lazy scratch buffers, epoch 2 confirms
    // the shapes are stable before counting starts.
    trainer.train_epoch();
    trainer.train_epoch();

    let (n, stats) = count_allocs(|| trainer.train_epoch());
    assert!(stats.loss.is_finite());
    assert_eq!(n, 0, "steady-state train_epoch performed {n} heap allocations");
}

/// The codec hot path is allocation-free after warm-up: `encode_into`
/// reuses the warmed output buffer, `decode_into` never allocates, and
/// `ErrorFeedback::compress` runs entirely out of its four reused
/// buffers — for every codec. The compressed collectives and the DRPA
/// delta paths call these once per payload per epoch, so a per-call
/// allocation would silently dominate small-message traffic.
fn codec_check() {
    use distgnn_comm::{ErrorFeedback, WireCodec};

    let src: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.37).sin() * 1e3).collect();
    for codec in [
        WireCodec::None,
        WireCodec::Bf16,
        WireCodec::TopK { percent: 10 },
        WireCodec::Int8,
    ] {
        let mut wire = Vec::new();
        let mut decoded = vec![0.0f32; src.len()];
        let mut ef = ErrorFeedback::new(true);
        // Warm-up sizes `wire` and the error-feedback buffers.
        codec.encode_into(&src, &mut wire);
        codec.decode_into(&wire, &mut decoded);
        ef.compress(&codec, &src);

        let (n, _) = count_allocs(|| {
            for _ in 0..4 {
                codec.encode_into(&src, &mut wire);
                codec.decode_into(&wire, &mut decoded);
                let (shipped, words) = ef.compress(&codec, &src);
                assert_eq!(words, wire.len());
                assert!(shipped[0].is_finite());
            }
        });
        assert_eq!(n, 0, "warm codec hot path allocated {n} times under {}", codec.name());
    }
}

/// The same guarantee with telemetry recording enabled: span and epoch
/// events land in the recorder's preallocated ring buffer, so the
/// steady-state epoch still allocates nothing — even once the buffer
/// overflows and starts dropping events.
fn recording_epoch_check() {
    use distgnn_core::{Trainer, TrainerConfig};
    use distgnn_graph::{Dataset, ScaledConfig};
    use distgnn_kernels::AggregationConfig;
    use distgnn_telemetry::{Phase, Recorder, RecorderConfig};
    use std::sync::Arc;

    let ds = Dataset::generate(&ScaledConfig::am_s().scaled_by(0.25));
    let cfg = TrainerConfig::for_dataset(&ds, AggregationConfig::optimized(2), 1);
    let mut trainer = Trainer::new(&ds, &cfg);
    // Small buffers so the overflow path is exercised inside the
    // counting window as well: a full ring must drop, never grow.
    let rec = Arc::new(Recorder::new(RecorderConfig { event_capacity: 32, epoch_capacity: 4 }));
    trainer.set_recorder(rec.clone());

    trainer.train_epoch();
    trainer.train_epoch();

    let (n, stats) = count_allocs(|| {
        // Several epochs: guarantees the event ring wraps past capacity
        // and the epoch ring saturates while counting.
        (0..6).map(|_| trainer.train_epoch()).last().unwrap()
    });
    assert!(stats.loss.is_finite());
    assert_eq!(n, 0, "recording epoch performed {n} heap allocations");
    assert!(rec.events_dropped() > 0, "overflow path was not exercised");
    assert!(rec.phase_ns()[Phase::Forward as usize] > 0, "recording captured nothing");
}

/// The serving query path gives the same guarantee: after the engine is
/// built (which sizes every cache and workspace), point queries, batch
/// queries, and logits reads allocate nothing — including the lazy
/// repairs that follow a graph delta, which run out of the preallocated
/// gather/repair workspace. Only `apply_deltas` itself may allocate
/// (adjacency lists and matrices can grow).
fn serve_queries_check() {
    use distgnn_graph::{generators::community_power_law, Csr};
    use distgnn_serve::{GraphDelta, ServeConfig, ServeEngine};
    use distgnn_suite::core::{GraphSage, SageConfig};
    use distgnn_tensor::init::random_features;

    let n = 64;
    let edges = community_power_law(n, n * 6, 3, 0.8, 0.7, 21).symmetrize();
    let g = Csr::from_edges(&edges);
    let f = random_features(n, 7, 22);
    let model = GraphSage::new(&SageConfig {
        in_dim: 7,
        hidden: vec![9, 5],
        num_classes: 4,
        seed: 23,
    });
    let mut eng =
        ServeEngine::new(model, &g, f, &ServeConfig { max_batch: 16, ..Default::default() });

    // Deltas invalidate rows so the counted window exercises the lazy
    // re-aggregation path, not just warm cache hits.
    eng.apply_deltas(&[
        GraphDelta::AddEdge { src: 0, dst: 33 },
        GraphDelta::RemoveEdge { src: g.neighbors(5)[0], dst: 5 },
    ]);

    let vs: Vec<u32> = (0..48u32).map(|i| (i * 13) % n as u32).collect();
    let mut classes = vec![0u32; vs.len()];
    let mut logits = vec![0.0f32; 4];
    let mut emb = vec![0.0f32; 5];
    let (allocs, _) = count_allocs(|| {
        for &v in &vs {
            eng.query(v);
        }
        eng.query_batch(&vs, &mut classes);
        eng.logits_into(7, &mut logits);
        eng.embedding_into(9, &mut emb);
    });
    assert_eq!(allocs, 0, "steady-state serve queries performed {allocs} heap allocations");
    assert!(eng.stats().cache_misses > 0, "the lazy repair path was not exercised");
}
