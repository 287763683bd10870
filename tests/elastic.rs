//! Elastic membership suite: resume on a different world size, shrink
//! on crash, rank adoption.
//!
//! Proves the PR's acceptance criteria end to end:
//!
//! - an 8-socket checkpoint resumes on 4 and on 16 sockets and lands
//!   within ε of the uninterrupted 8-socket run's accuracy;
//! - under `cd-0` the resize-resume is **bit-identical** to a fresh
//!   M-rank run started from the merged global state on the same
//!   re-sharded cut;
//! - a fail-stop crash with `--adopt-on-crash` completes at N−1 with
//!   zero world restarts (the survivors adopt the dead rank's shard);
//! - the corner cases: an empty checkpoint directory starts fresh, a
//!   partial rank-file set falls back to the previous snapshot, and an
//!   adoption racing a concurrent snapshot commit ignores the staging
//!   leftovers.
//!
//! CI runs this suite as the `elastic` job.

use distgnn_suite::comm::{CommError, FaultPlan};
use distgnn_suite::core::dist::{DistConfig, DistMode, DistTrainer};
use distgnn_suite::core::{merge_cluster_state, reshard_states};
use distgnn_suite::graph::{Dataset, ScaledConfig};
use distgnn_suite::io::{
    list_checkpoints, load_cluster_state, save_cluster_manifest, save_train_state,
};
use distgnn_suite::partition::{libra_partition, reshard_partitioning, PartitionedGraph};
use std::path::PathBuf;

fn am(scale: f64) -> Dataset {
    Dataset::generate(&ScaledConfig::am_s().scaled_by(scale))
}

/// A unique, empty scratch directory per test (the suite runs tests in
/// parallel threads of one process, so the test name disambiguates).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("distgnn-elastic-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs 8 sockets for `stop` epochs (checkpointing at the stop), then
/// elastically resumes on `new_world` sockets up to `epochs` total, and
/// returns (resumed accuracy, uninterrupted 8-socket accuracy).
fn resize_resume_accuracy(
    ds: &Dataset,
    mode: DistMode,
    new_world: usize,
    name: &str,
) -> (f32, f32) {
    let dir = scratch(name);
    let (stop, epochs) = (6, 12);
    let mut cfg = DistConfig::new(ds, mode, 8, stop);
    cfg.checkpoint_every = stop;
    cfg.checkpoint_dir = Some(dir.clone());
    DistTrainer::launch(ds, None, &cfg, None).expect("8-socket prefix run");

    let mut cont = cfg.clone();
    cont.num_parts = new_world;
    cont.epochs = epochs;
    cont.checkpoint_every = 0;
    cont.elastic_resume = true;
    cont.resume = true;
    let rec = DistTrainer::launch(ds, None, &cont, None)
        .expect("elastic resume on the new world size");
    assert_eq!(rec.restarts, 0);
    assert_eq!(rec.adoptions, 0);
    assert_eq!(rec.final_world, new_world);
    assert_eq!(rec.final_params.len(), new_world, "one replica per new rank");
    assert_eq!(rec.epochs.len(), epochs - stop, "resume must pick up at the checkpoint");

    let mut clean = DistConfig::new(ds, mode, 8, epochs);
    clean.seed = cfg.seed;
    let reference = DistTrainer::launch(ds, None, &clean, None)
        .expect("uninterrupted 8-socket run");
    std::fs::remove_dir_all(&dir).ok();
    (rec.test_accuracy, reference.test_accuracy)
}

/// Headline: an 8-socket cd-0 checkpoint resumed on 4 sockets finishes
/// within ε of the uninterrupted 8-socket accuracy.
#[test]
fn checkpoint_from_8_resumes_on_4_within_epsilon() {
    let ds = am(0.25);
    let (resumed, reference) = resize_resume_accuracy(&ds, DistMode::Cd0, 4, "shrink-8-4");
    assert!(
        (resumed - reference).abs() <= 0.05,
        "8→4 resume accuracy {resumed} strayed from the 8-socket reference {reference}"
    );
}

/// Headline: the same checkpoint resumed on 16 sockets — a grow, every
/// new rank seeded from the merged replica, the cut re-sharded online.
#[test]
fn checkpoint_from_8_resumes_on_16_within_epsilon() {
    let ds = am(0.25);
    let (resumed, reference) = resize_resume_accuracy(&ds, DistMode::Cd0, 16, "grow-8-16");
    assert!(
        (resumed - reference).abs() <= 0.05,
        "8→16 resume accuracy {resumed} strayed from the 8-socket reference {reference}"
    );
}

/// The asynchronous mode rides the same path: cd-r tolerates the
/// dropped DRPA caches (they refill within the staleness bound) and
/// stays within ε after an 8→4 resume.
#[test]
fn cdr_checkpoint_resumes_on_different_world_within_epsilon() {
    let ds = am(0.25);
    let (resumed, reference) =
        resize_resume_accuracy(&ds, DistMode::CdR { delay: 2 }, 4, "cdr-8-4");
    assert!(
        (resumed - reference).abs() <= 0.1,
        "cd-r 8→4 resume accuracy {resumed} strayed from the reference {reference}"
    );
}

/// Determinism: under cd-0 the elastic resume at M ranks is
/// bit-identical to a *fresh* M-rank run started from the merged global
/// state on the same re-sharded cut. The supervisor's merge → re-shard
/// → relaunch adds nothing beyond those three steps.
#[test]
fn cd0_resize_resume_is_bit_identical_to_fresh_run_from_merged_state() {
    let ds = am(0.25);
    let dir = scratch("bitident");
    let (stop, epochs, new_world) = (5usize, 10usize, 4usize);
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 8, stop);
    cfg.checkpoint_every = stop;
    cfg.checkpoint_dir = Some(dir.clone());
    DistTrainer::launch(&ds, None, &cfg, None).expect("8-socket prefix run");

    // The supervised elastic resume.
    let mut cont = cfg.clone();
    cont.num_parts = new_world;
    cont.epochs = epochs;
    cont.checkpoint_every = 0;
    cont.elastic_resume = true;
    cont.resume = true;
    let rec = DistTrainer::launch(&ds, None, &cont, None).expect("elastic resume");
    assert_eq!(rec.epochs.len(), epochs - stop);

    // The hand-built twin: merge the checkpoint, re-shard the cut the
    // way the supervisor does, and run the remaining epochs as a fresh
    // fixed-size M-rank world resumed from the merged state, seeded as
    // a lossless `ckpt-0` (epoch numbering is irrelevant to cd-0's
    // per-epoch computation).
    let states = load_cluster_state(&dir.join(format!("ckpt-{stop}"))).unwrap();
    let global = merge_cluster_state(&states).unwrap();
    assert_eq!(global.from_ranks, 8);
    let edges = ds.graph.to_edge_list();
    let old = libra_partition(&edges, 8);
    let new_cut = reshard_partitioning(&edges, &old, new_world);
    let pg = PartitionedGraph::build(&edges, &new_cut, cfg.seed);
    let mut seeds = reshard_states(&global, new_world, global.generation + 1);
    for s in &mut seeds {
        s.epoch = 0;
    }
    let seed_dir = scratch("bitident-seed");
    let ckpt0 = seed_dir.join("ckpt-0");
    std::fs::create_dir_all(&ckpt0).unwrap();
    for s in &seeds {
        save_train_state(&ckpt0.join(format!("rank-{}.state", s.rank)), s).unwrap();
    }
    save_cluster_manifest(&ckpt0, 0, new_world).unwrap();
    let mut fresh = cont.clone();
    fresh.epochs = epochs - stop;
    fresh.checkpoint_dir = Some(seed_dir.clone());
    fresh.elastic_resume = false;
    let twin = DistTrainer::launch(&ds, Some(&pg), &fresh, None).expect("twin run");

    assert_eq!(
        rec.final_params, twin.final_params,
        "cd-0 resize-resume must equal the fresh merged-state run bit for bit"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&seed_dir).ok();
}

/// Headline shrink-on-crash: rank 2 of 4 fail-stops at epoch 3. With
/// `adopt_on_crash` (and a zero restart budget, to prove no world
/// restart happens) the survivors vote, adopt the dead rank's shard
/// from `ckpt-2`, and finish the run at world size 3.
#[test]
fn adoption_completes_at_n_minus_1_with_zero_restarts() {
    let ds = am(0.25);
    let dir = scratch("adopt");
    let mut cfg = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 4, 8);
    cfg.checkpoint_every = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.faults = FaultPlan::none().with_crash(2, 3);
    cfg.adopt_on_crash = true;

    let rec = DistTrainer::launch(&ds, None, &cfg, None)
        .expect("adoption must absorb the crash without spending a restart");
    assert_eq!(rec.restarts, 0, "adoption is a membership change, not a restart");
    assert_eq!(rec.adoptions, 1);
    assert_eq!(rec.final_world, 3);
    assert_eq!(rec.final_params.len(), 3, "the dead rank must be gone");
    assert_eq!(rec.failures.len(), 1);
    assert!(
        matches!(rec.failures[0].source, CommError::RankCrashed { rank: 2 }),
        "the recorded failure should name the crashed rank: {:?}",
        rec.failures[0].source
    );
    // Crash at 3, adopted from ckpt-2: exactly epoch 2 is re-executed.
    assert_eq!(rec.epochs_replayed, 1);
    assert_eq!(rec.epochs.len(), 6, "the shrunk world runs epochs 2..8");
    std::fs::remove_dir_all(&dir).ok();
}

/// Elastic resume against an *empty* checkpoint directory is a fresh
/// start, bit-identical to a plain run of the same config.
#[test]
fn elastic_resume_on_empty_checkpoint_dir_starts_fresh() {
    let ds = am(0.2);
    let dir = scratch("empty");
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 3, 6);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.elastic_resume = true;
    cfg.resume = true;
    let rec = DistTrainer::launch(&ds, None, &cfg, None)
        .expect("an empty directory must mean a fresh start, not an error");
    assert_eq!(rec.epochs.len(), 6, "nothing to resume: every epoch runs");
    assert_eq!(rec.final_world, 3);

    let plain = DistTrainer::launch(&ds, None, &DistConfig::new(&ds, DistMode::Cd0, 3, 6), None)
        .unwrap();
    assert_eq!(rec.final_params, plain.final_params);
    std::fs::remove_dir_all(&dir).ok();
}

/// A partial rank-file set (one per-rank state deleted from the newest
/// snapshot) invalidates that snapshot only: the elastic resume falls
/// back to the previous complete one and re-shards it.
#[test]
fn partial_rank_file_set_falls_back_to_previous_checkpoint() {
    let ds = am(0.25);
    let dir = scratch("partial");
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 4, 8);
    cfg.checkpoint_every = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    DistTrainer::launch(&ds, None, &cfg, None).expect("4-socket prefix run");

    let ckpts = list_checkpoints(&dir);
    assert_eq!(ckpts.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![2, 4, 6, 8]);
    std::fs::remove_file(ckpts.last().unwrap().1.join("rank-1.state")).unwrap();

    let mut cont = cfg.clone();
    cont.num_parts = 2;
    cont.epochs = 12;
    cont.checkpoint_every = 0;
    cont.elastic_resume = true;
    cont.resume = true;
    let rec = DistTrainer::launch(&ds, None, &cont, None)
        .expect("the incomplete ckpt-8 must not poison the resume");
    assert_eq!(rec.final_world, 2);
    assert_eq!(
        rec.epochs.len(),
        6,
        "resume should replay from ckpt-6 — neither trusting the torn ckpt-8 nor starting over"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Adoption racing a concurrent snapshot commit: the checkpoint root
/// holds a stale `.tmp` staging directory (a commit that never renamed)
/// and a newest snapshot whose manifest is garbage. The survivors'
/// vote must skip both and unanimously adopt from the newest *valid*
/// snapshot.
#[test]
fn adoption_skips_staging_leftovers_and_torn_snapshots() {
    let ds = am(0.25);
    let dir = scratch("race");
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 4, 8);
    cfg.checkpoint_every = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.faults = FaultPlan::none().with_crash(1, 5);
    cfg.adopt_on_crash = true;

    // A commit that crashed before its atomic rename: invisible to the
    // vote (never listed as a checkpoint).
    let staging = dir.join("ckpt-999.tmp");
    std::fs::create_dir_all(&staging).unwrap();
    std::fs::write(staging.join("rank-0.state"), b"half-written").unwrap();
    // A committed-looking snapshot that is torn inside: listed, but it
    // must fail validation on every voter and lose to ckpt-4.
    let torn = dir.join("ckpt-900");
    std::fs::create_dir_all(&torn).unwrap();
    std::fs::write(torn.join("MANIFEST"), b"not a manifest").unwrap();

    let rec = DistTrainer::launch(&ds, None, &cfg, None)
        .expect("the staging junk must not block adoption");
    assert_eq!(rec.restarts, 0);
    assert_eq!(rec.adoptions, 1);
    assert_eq!(rec.final_world, 3);
    // Crash at 5, adopted from ckpt-4 (not the torn ckpt-900): one
    // epoch replays.
    assert_eq!(rec.epochs_replayed, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The fixed-world recovery path refuses a mismatched checkpoint with
/// an actionable message naming both sizes and the way out.
#[test]
fn fixed_world_resume_names_the_mismatch_and_the_flag() {
    let ds = am(0.2);
    let dir = scratch("mismatch");
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 4, 4);
    cfg.checkpoint_every = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    DistTrainer::launch(&ds, None, &cfg, None).expect("4-socket prefix run");

    let mut cont = cfg.clone();
    cont.num_parts = 2;
    cont.resume = true;
    let msg = std::panic::catch_unwind(|| {
        let _ = DistTrainer::launch(&ds, None, &cont, None);
    })
    .expect_err("the fixed-world path must refuse a 4-rank checkpoint at 2 ranks");
    let msg = msg
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| msg.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("4-rank"), "should name the found world size: {msg}");
    assert!(msg.contains("2 ranks"), "should name the requested world size: {msg}");
    assert!(msg.contains("--elastic-resume"), "should point at the flag: {msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The elastic supervisor cuts (and on every membership change re-cuts)
/// its own graph, so `launch` refuses a caller-built cut together with
/// either elastic flag, naming the flag.
#[test]
fn elastic_flags_refuse_a_caller_built_cut() {
    let ds = am(0.1);
    let edges = ds.graph.to_edge_list();
    let pg = PartitionedGraph::build(&edges, &libra_partition(&edges, 2), 0);
    for flag in ["elastic_resume", "adopt_on_crash"] {
        let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 2, 1);
        cfg.elastic_resume = flag == "elastic_resume";
        cfg.adopt_on_crash = flag == "adopt_on_crash";
        let msg = std::panic::catch_unwind(|| {
            let _ = DistTrainer::launch(&ds, Some(&pg), &cfg, None);
        })
        .expect_err("a caller-built cut must be refused under an elastic flag");
        let msg = msg.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(flag), "should name `{flag}`: {msg}");
    }
}
