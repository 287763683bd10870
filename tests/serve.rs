//! Serving suite: train-to-inference over checkpoints, end to end.
//!
//! Proves the PR's acceptance criteria: a model restored through the
//! serving loader answers queries with logits **bit-identical** to the
//! trainer's own final forward pass; incremental delta re-aggregation
//! is equivalent to a cold rebuild (bit-identical for pure additions);
//! a bf16 lossy checkpoint serves within a small epsilon of its
//! lossless twin; a corrupt newest checkpoint is skipped exactly like
//! the recovery path; and the committed `BENCH_serve.json` carries the
//! batched-speedup and zero-allocation gates. CI runs this suite as
//! the `serve` job.

use std::path::PathBuf;

use distgnn_kernels::AggregationConfig;
use distgnn_serve::{load_newest_model, GraphDelta, ServeConfig, ServeEngine};
use distgnn_suite::core::dist::{DistConfig, DistMode, DistTrainer};
use distgnn_suite::core::SingleSocketAggregator;
use distgnn_suite::graph::{Dataset, ScaledConfig};
use distgnn_suite::io::list_checkpoints;
use distgnn_suite::tensor::Matrix;

fn reddit(scale: f64) -> Dataset {
    Dataset::generate(&ScaledConfig::reddit_s().scaled_by(scale))
}

/// A unique, empty scratch directory per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("distgnn-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains `epochs` of cd-0 on 3 ranks with one final-epoch checkpoint
/// into `dir`, returning the config (for the model shape) and the
/// trainer's bit-exact final parameters.
fn train_to_checkpoint(
    ds: &Dataset,
    dir: &std::path::Path,
    epochs: usize,
    every: usize,
) -> (DistConfig, Vec<f32>) {
    let mut cfg = DistConfig::new(ds, DistMode::Cd0, 3, epochs);
    cfg.checkpoint_every = every;
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    let run = DistTrainer::launch(ds, None, &cfg, None).expect("checkpointing training run");
    (cfg, run.final_params[0].clone())
}

/// The full-graph forward the trainer itself would run over the final
/// parameters — the bit-identity oracle for served logits.
fn reference_logits(model: &distgnn_suite::core::GraphSage, ds: &Dataset) -> Matrix {
    let mut agg = SingleSocketAggregator::new(&ds.graph, AggregationConfig::optimized(1));
    model.forward(&mut agg, &ds.features).0
}

/// Headline: restore the newest checkpoint through the serving loader
/// and compare every vertex's served logits against the trainer's
/// final forward — bit for bit, not within epsilon.
#[test]
fn served_logits_bit_identical_to_trainer_forward() {
    let ds = reddit(0.1);
    let dir = scratch("bitident");
    let (cfg, final_params) = train_to_checkpoint(&ds, &dir, 4, 4);

    let loaded = load_newest_model(&dir, &cfg.model).expect("restore newest checkpoint");
    assert_eq!(loaded.skipped, 0);
    assert_eq!(loaded.epoch, 4);
    let got = loaded.model.write_params();
    assert_eq!(got.len(), final_params.len());
    assert!(
        got.iter().zip(&final_params).all(|(a, b)| a.to_bits() == b.to_bits()),
        "restored parameters must be bit-identical to the trainer's"
    );

    let want = reference_logits(&loaded.model, &ds);
    let mut eng =
        ServeEngine::new(loaded.model, &ds.graph, ds.features.clone(), &ServeConfig::default());
    let mut out = vec![0.0f32; eng.num_classes()];
    for v in 0..ds.graph.num_vertices() as u32 {
        eng.logits_into(v, &mut out);
        assert_eq!(out.as_slice(), want.row(v as usize), "vertex {v} logits diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Incremental delta maintenance over a checkpointed model matches a
/// cold engine rebuilt from the mutated graph: bit-identical for a
/// pure-addition batch, within epsilon once removals mix in.
#[test]
fn delta_reaggregation_matches_cold_rebuild() {
    let ds = reddit(0.1);
    let dir = scratch("deltas");
    let (cfg, _) = train_to_checkpoint(&ds, &dir, 3, 3);
    let loaded = load_newest_model(&dir, &cfg.model).expect("restore checkpoint");
    let n = ds.graph.num_vertices() as u32;

    // Phase 1: pure additions (plus a fresh vertex) — exact equality.
    let mut eng = ServeEngine::new(
        loaded.model.clone(),
        &ds.graph,
        ds.features.clone(),
        &ServeConfig::default(),
    );
    let adds = vec![
        GraphDelta::AddVertex { features: vec![0.5; ds.feat_dim()] },
        GraphDelta::AddEdge { src: 0, dst: n },
        GraphDelta::AddEdge { src: n, dst: 1 },
        GraphDelta::AddEdge { src: 2, dst: 0 },
    ];
    let report = eng.apply_deltas(&adds);
    assert_eq!(report.new_vertices, 1);
    assert!(report.applied >= 3, "additions into a sparse pair must mostly apply");

    let (g2, f2) = eng.export_graph();
    let mut cold =
        ServeEngine::new(loaded.model.clone(), &g2, f2, &ServeConfig::default());
    let (mut a, mut b) = (vec![0.0f32; eng.num_classes()], vec![0.0f32; eng.num_classes()]);
    for v in 0..eng.num_vertices() as u32 {
        eng.logits_into(v, &mut a);
        cold.logits_into(v, &mut b);
        assert_eq!(a, b, "vertex {v}: pure additions must repair bit-identically");
    }

    // Phase 2: mix in removals — equivalent within epsilon (removal
    // changes the accumulation set, so exact f32 ordering may differ).
    let victims: Vec<GraphDelta> = (3..5u32)
        .filter_map(|v| {
            ds.graph.neighbors(v).first().map(|&u| GraphDelta::RemoveEdge { src: u, dst: v })
        })
        .collect();
    assert!(!victims.is_empty());
    eng.apply_deltas(&victims);
    let (g3, f3) = eng.export_graph();
    let mut cold3 = ServeEngine::new(loaded.model, &g3, f3, &ServeConfig::default());
    for v in 0..eng.num_vertices() as u32 {
        eng.logits_into(v, &mut a);
        cold3.logits_into(v, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 1e-4, "vertex {v}: {x} vs {y} after removals");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A bf16 lossy checkpoint restores to slightly different parameters
/// (the quantization must actually bite) but serves logits within a
/// small epsilon of the lossless twin of the same run.
#[test]
fn lossy_bf16_checkpoint_serves_within_epsilon() {
    let ds = reddit(0.1);
    let (lossless_dir, lossy_dir) = (scratch("lossless"), scratch("lossy"));

    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 3, 3);
    cfg.checkpoint_every = 3;
    cfg.checkpoint_dir = Some(lossless_dir.clone());
    DistTrainer::launch(&ds, None, &cfg, None).expect("lossless run");

    let mut lossy_cfg = cfg.clone();
    lossy_cfg.checkpoint_dir = Some(lossy_dir.clone());
    lossy_cfg.lossy_checkpoints = true;
    DistTrainer::launch(&ds, None, &lossy_cfg, None).expect("lossy run");

    let exact = load_newest_model(&lossless_dir, &cfg.model).expect("lossless restore");
    let packed = load_newest_model(&lossy_dir, &cfg.model).expect("lossy restore");
    let (pe, pp) = (exact.model.write_params(), packed.model.write_params());
    assert!(
        pe.iter().zip(&pp).any(|(a, b)| a.to_bits() != b.to_bits()),
        "bf16 packing should perturb at least one parameter"
    );
    // bf16 keeps 8 mantissa bits: each weight is within ~0.4% relative.
    for (a, b) in pe.iter().zip(&pp) {
        assert!((a - b).abs() <= 4e-3 * a.abs().max(1.0), "param {a} vs {b}");
    }

    let mut eng_e =
        ServeEngine::new(exact.model, &ds.graph, ds.features.clone(), &ServeConfig::default());
    let mut eng_p =
        ServeEngine::new(packed.model, &ds.graph, ds.features.clone(), &ServeConfig::default());
    let (mut a, mut b) = (vec![0.0f32; eng_e.num_classes()], vec![0.0f32; eng_e.num_classes()]);
    for v in 0..ds.graph.num_vertices() as u32 {
        eng_e.logits_into(v, &mut a);
        eng_p.logits_into(v, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 5e-2 * x.abs().max(1.0), "vertex {v}: {x} vs {y}");
        }
    }
    std::fs::remove_dir_all(&lossless_dir).ok();
    std::fs::remove_dir_all(&lossy_dir).ok();
}

/// A corrupt newest checkpoint is skipped — the loader falls back to
/// the previous valid snapshot and reports the skip, exactly like the
/// training-side recovery path.
#[test]
fn corrupt_newest_checkpoint_falls_back_to_previous() {
    let ds = reddit(0.1);
    let dir = scratch("corrupt");
    let (cfg, _) = train_to_checkpoint(&ds, &dir, 4, 2);

    let ckpts = list_checkpoints(&dir);
    assert_eq!(ckpts.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![2, 4]);
    // Flip one byte in the newest checkpoint's rank-0 state; the
    // manifest CRC must reject the whole snapshot.
    let victim = ckpts.last().unwrap().1.join("rank-0.state");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, bytes).unwrap();

    let loaded = load_newest_model(&dir, &cfg.model).expect("fall back to ckpt-2");
    assert_eq!(loaded.epoch, 2, "the valid epoch-2 snapshot must be served");
    assert_eq!(loaded.skipped, 1, "the corrupt epoch-4 snapshot must be counted");
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed benchmark document carries the serving gates: batched
/// throughput at least 5x point throughput with equal results, zero
/// steady-state allocations, and a bit-identical restore.
#[test]
fn committed_bench_serve_json_passes_the_gates() {
    use distgnn_suite::telemetry::json;

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_serve.json");
    let raw = std::fs::read_to_string(path).expect("committed BENCH_serve.json");
    let v = json::parse(&raw).expect("valid JSON");

    let speedup = v.get("batched_speedup").and_then(|x| x.as_f64()).expect("batched_speedup");
    assert!(speedup >= 5.0, "batched speedup gate: {speedup} < 5");
    let allocs =
        v.get("steady_state_allocs").and_then(|x| x.as_f64()).expect("steady_state_allocs");
    assert_eq!(allocs, 0.0, "steady-state serving must not allocate");
    assert!(
        matches!(v.get("equal_results"), Some(json::Value::Bool(true))),
        "batched and point queries must agree"
    );
    assert!(
        matches!(v.get("checkpoint").and_then(|c| c.get("params_bit_identical")),
            Some(json::Value::Bool(true))),
        "restored params must be bit-identical to the trainer's"
    );
    let streams = v.get("streams").and_then(|a| a.as_arr()).expect("streams");
    assert_eq!(streams.len(), 3);
    for s in streams {
        let a = s.get("allocations").and_then(|x| x.as_f64()).expect("allocations");
        assert_eq!(a, 0.0, "every stream must be allocation-free");
    }
}
