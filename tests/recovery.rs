//! Recovery suite: elastic crash recovery end to end.
//!
//! Proves the PR's acceptance criteria: a distributed run killed
//! mid-training by a fail-stop crash and restarted from its last
//! consistent checkpoint finishes with parameters **bit-identical** to
//! an uninterrupted same-seed run — for blocking `cd-0` and for `cd-r`,
//! whose checkpoint must also capture DRPA route caches and in-flight
//! tagged messages. A transient delay fault is absorbed by the
//! [`RetryPolicy`] alone (zero restarts, retry counters > 0), a corrupt
//! newest checkpoint falls back to the previous valid one, and an
//! exhausted restart budget surfaces the underlying error. CI runs this
//! suite as the `recovery` job.

use distgnn_suite::comm::{CommError, FaultPlan, RetryPolicy};
use distgnn_suite::core::dist::{DistConfig, DistMode, DistTrainer};
use distgnn_suite::graph::{Dataset, ScaledConfig};
use distgnn_suite::io::list_checkpoints;
use std::path::PathBuf;

fn am(scale: f64) -> Dataset {
    Dataset::generate(&ScaledConfig::am_s().scaled_by(scale))
}

/// A unique, empty scratch directory per test (the suite runs tests in
/// parallel threads of one process, so the test name disambiguates).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("distgnn-recovery-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fault-free reference twin of a chaos config: same seed, same
/// mode, same epochs — no faults, no checkpointing.
fn reference_of(chaos: &DistConfig) -> DistConfig {
    let mut clean = chaos.clone();
    clean.faults = FaultPlan::none();
    clean.checkpoint_every = 0;
    clean.checkpoint_dir = None;
    clean
}

/// Headline, cd-0: crash rank 1 at epoch 7 of 12 with checkpoints every
/// 3 epochs. The supervisor restarts once from `ckpt-6`, replays epoch
/// 6, and the recovered parameters match the uninterrupted run bit for
/// bit.
#[test]
fn cd0_kill_and_resume_is_bit_identical() {
    let ds = am(0.2);
    let dir = scratch("cd0");
    let mut chaos = DistConfig::new(&ds, DistMode::Cd0, 3, 12);
    chaos.checkpoint_every = 3;
    chaos.checkpoint_dir = Some(dir.clone());
    chaos.faults = FaultPlan::none().with_crash(1, 7);
    chaos.max_restarts = 1;

    let rec = DistTrainer::launch(&ds, None, &chaos, None)
        .expect("one restart must absorb a single fail-stop crash");
    assert_eq!(rec.restarts, 1, "the crash must cost exactly one restart");
    assert_eq!(rec.failures.len(), 1);
    assert!(
        matches!(rec.failures[0].source, CommError::RankCrashed { rank: 1 }),
        "the recorded failure should name the crashed rank: {:?}",
        rec.failures[0].source
    );
    // Crash at 7, checkpoint at 6: exactly epoch 6 is re-executed.
    assert_eq!(rec.epochs_replayed, 1);

    let reference = DistTrainer::launch(&ds, None, &reference_of(&chaos), None)
        .expect("fault-free reference");
    assert_eq!(
        rec.final_params, reference.final_params,
        "kill-and-resume must be bit-identical to the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Headline, cd-r: same drill in the asynchronous mode, where a
/// consistent snapshot must also carry the DRPA route caches and any
/// posted-but-unconsumed tagged messages.
#[test]
fn cdr_kill_and_resume_is_bit_identical() {
    let ds = am(0.2);
    let dir = scratch("cdr");
    let mut chaos = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 3, 12);
    chaos.checkpoint_every = 3;
    chaos.checkpoint_dir = Some(dir.clone());
    chaos.faults = FaultPlan::none().with_crash(2, 8);
    chaos.max_restarts = 1;

    let rec = DistTrainer::launch(&ds, None, &chaos, None)
        .expect("one restart must absorb a single fail-stop crash");
    assert_eq!(rec.restarts, 1);
    // Crash at 8, checkpoint at 6: epochs 6 and 7 are re-executed.
    assert_eq!(rec.epochs_replayed, 2);

    let reference = DistTrainer::launch(&ds, None, &reference_of(&chaos), None)
        .expect("fault-free reference");
    assert_eq!(
        rec.final_params, reference.final_params,
        "cd-r resume must restore route caches + outbox bit-exactly"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A transient fault — every payload delayed past the collective's
/// deadline — aborts cd-0 when retries are disabled, and is absorbed
/// entirely by the retry ladder when they are on: zero restarts, no
/// checkpoint needed, retry counters visible in the report.
#[test]
fn transient_delay_absorbed_by_retry() {
    let ds = am(0.2);
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 3, 4);
    cfg.faults = FaultPlan::none().with_seed(17).with_delay(1.0, 3);

    let mut bare = cfg.clone();
    bare.retry = RetryPolicy::none();
    DistTrainer::launch(&ds, None, &bare, None)
        .expect_err("with retries off, the delayed payloads must abort cd-0");

    cfg.retry = RetryPolicy::standard();
    let rec = DistTrainer::launch(&ds, None, &cfg, None)
        .expect("the standard retry ladder must bridge a 3-barrier delay");
    assert_eq!(rec.restarts, 0, "a transient fault must not cost a restart");
    assert!(rec.retries_absorbed > 0, "the ladder should have fired");
    assert!(rec.backoff_barriers > 0, "backoff barriers should be accounted");
}

/// A torn/corrupt newest checkpoint is skipped: resume falls back to
/// the previous valid snapshot, replays from there, and still converges
/// to the original run's exact parameters.
#[test]
fn corrupt_checkpoint_falls_back_to_previous() {
    let ds = am(0.2);
    let dir = scratch("fallback");
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 3, 8);
    cfg.checkpoint_every = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    let first = DistTrainer::launch(&ds, None, &cfg, None).expect("fault-free checkpointing run");

    let ckpts = list_checkpoints(&dir);
    assert_eq!(
        ckpts.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
        vec![2, 4, 6, 8],
        "every second epoch boundary should have committed a checkpoint"
    );
    // Flip one byte inside the newest checkpoint's rank-0 state; the
    // manifest CRC must now reject the whole snapshot.
    let victim = ckpts.last().unwrap().1.join("rank-0.state");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, bytes).unwrap();
    cfg.resume = true;

    let rec = DistTrainer::launch(&ds, None, &cfg, None)
        .expect("resume must fall back to ckpt-6");
    assert_eq!(rec.restarts, 0);
    assert_eq!(
        rec.epochs.len(),
        2,
        "resume should replay exactly epochs 6 and 7 from ckpt-6 — \
         neither 0 (trusting the corrupt ckpt-8) nor 8 (starting over)"
    );
    assert_eq!(
        rec.final_params, first.final_params,
        "replay from the fallback checkpoint must reproduce the run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// With no restart budget the crash surfaces as the typed error,
/// carrying the epoch it struck at.
#[test]
fn restart_budget_exhaustion_surfaces_the_error() {
    let ds = am(0.15);
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 2, 6);
    cfg.faults = FaultPlan::none().with_crash(0, 3);
    let err = DistTrainer::launch(&ds, None, &cfg, None)
        .expect_err("zero restart budget: the crash must surface");
    assert_eq!(err.epoch, 3, "the error should carry the crash epoch");
    assert!(matches!(err.source, CommError::RankCrashed { rank: 0 }));
}

/// Without a checkpoint directory a restart falls back to from-scratch
/// relaunch — slower (every epoch replays) but still deterministic and
/// bit-identical to the clean run.
#[test]
fn restart_without_checkpoints_replays_from_scratch() {
    let ds = am(0.15);
    let mut chaos = DistConfig::new(&ds, DistMode::Cd0, 2, 6);
    chaos.faults = FaultPlan::none().with_crash(1, 4);
    chaos.max_restarts = 1;

    let rec = DistTrainer::launch(&ds, None, &chaos, None)
        .expect("a from-scratch relaunch needs no checkpoint");
    assert_eq!(rec.restarts, 1);
    assert_eq!(rec.epochs_replayed, 4, "all pre-crash epochs replay without a snapshot");

    let reference = DistTrainer::launch(&ds, None, &reference_of(&chaos), None).expect("reference");
    assert_eq!(rec.final_params, reference.final_params);
}

/// The checkpoint protocol itself (its votes and barriers) must not
/// perturb training: a cd-r run that snapshots every 3 epochs lands on
/// the same parameters as one that never snapshots.
#[test]
fn cdr_checkpointing_is_transparent() {
    let ds = am(0.2);
    let dir = scratch("transparent");
    let mut cfg = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 3, 12);
    cfg.checkpoint_every = 3;
    cfg.checkpoint_dir = Some(dir.clone());
    let a = DistTrainer::launch(&ds, None, &cfg, None).unwrap();
    let b = DistTrainer::launch(&ds, None, &reference_of(&cfg), None).unwrap();
    assert_eq!(a.final_params, b.final_params, "checkpointing must not perturb cd-r training");
    std::fs::remove_dir_all(&dir).ok();
}

/// Planned elasticity, no crash involved: stop a cd-r run cleanly after
/// 6 epochs, come back later with `--resume` and a larger epoch budget,
/// and the continued run matches a single uninterrupted 12-epoch run.
#[test]
fn cdr_planned_stop_and_resume_is_bit_identical() {
    let ds = am(0.2);
    let dir = scratch("resume");
    let mut cfg = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 3, 6);
    cfg.checkpoint_every = 3;
    cfg.checkpoint_dir = Some(dir.clone());
    DistTrainer::launch(&ds, None, &cfg, None).unwrap();

    let mut cont = cfg.clone();
    cont.epochs = 12;
    cont.resume = true;
    let rec = DistTrainer::launch(&ds, None, &cont, None).unwrap();
    assert_eq!(rec.restarts, 0);
    assert_eq!(rec.epochs.len(), 6, "resume should pick up at epoch 6");

    let mut clean = reference_of(&cfg);
    clean.epochs = 12;
    let b = DistTrainer::launch(&ds, None, &clean, None).unwrap();
    assert_eq!(
        rec.final_params, b.final_params,
        "a planned stop/resume must be bit-identical to running straight through"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Epoch-by-epoch trajectory check, and a regression guard for the
/// restore-publication barrier: snapshot *every* epoch in a continuous
/// cd-r run, resume a truncated copy from ckpt-6, and require every
/// later checkpoint — params, Adam moments, DRPA caches and in-flight
/// outbox — to match the continuous run's exactly. Without the barrier
/// after `restore_outbox` a fast rank misses its peers' re-posted
/// in-flight partials at the first resumed epoch, and the stale
/// messages it never consumed stay visible in the outbox sections here.
#[test]
fn cdr_resumed_trajectory_matches_checkpoint_by_checkpoint() {
    use distgnn_suite::io::load_cluster_state;
    let ds = am(0.2);
    let dir_a = scratch("bisect-a");
    let mut cfg = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 3, 12);
    cfg.checkpoint_every = 1;
    cfg.checkpoint_dir = Some(dir_a.clone());
    DistTrainer::launch(&ds, None, &cfg, None).unwrap();

    // Clone the checkpoint store truncated to ckpt-6, resume from it.
    let dir_b = scratch("bisect-b");
    for (e, p) in list_checkpoints(&dir_a) {
        if e <= 6 {
            let dst = dir_b.join(p.file_name().unwrap());
            std::fs::create_dir_all(&dst).unwrap();
            for f in std::fs::read_dir(&p).unwrap() {
                let f = f.unwrap();
                std::fs::copy(f.path(), dst.join(f.file_name())).unwrap();
            }
        }
    }
    let mut cfg_b = cfg.clone();
    cfg_b.checkpoint_dir = Some(dir_b.clone());
    cfg_b.resume = true;
    DistTrainer::launch(&ds, None, &cfg_b, None).unwrap();

    for e in 7..=12u64 {
        let a = load_cluster_state(&dir_a.join(format!("ckpt-{e}"))).unwrap();
        let b = load_cluster_state(&dir_b.join(format!("ckpt-{e}"))).unwrap();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra, rb, "epoch {e} rank {}: resumed state drifted", ra.rank);
        }
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Compressed comm is part of the trajectory: a cd-0 run under the
/// top-k codec (error-feedback residuals on the gradient stream, delta
/// mirrors on the DRPA streams) crashed mid-training and resumed must
/// still be bit-identical to the uninterrupted compressed run. This
/// holds only because the checkpoint carries the per-rank residuals
/// and the per-route codec mirrors — zeroing either ships different
/// payloads after resume.
#[test]
fn compressed_cd0_kill_and_resume_is_bit_identical() {
    use distgnn_suite::comm::WireCodec;
    let ds = am(0.2);
    let dir = scratch("compressed-cd0");
    let mut chaos = DistConfig::new(&ds, DistMode::Cd0, 3, 12);
    chaos.codec = WireCodec::TopK { percent: 10 };
    chaos.checkpoint_every = 3;
    chaos.checkpoint_dir = Some(dir.clone());
    chaos.faults = FaultPlan::none().with_crash(1, 7);
    chaos.max_restarts = 1;

    let rec = DistTrainer::launch(&ds, None, &chaos, None)
        .expect("one restart must absorb the crash under compression");
    assert_eq!(rec.restarts, 1);
    assert_eq!(rec.epochs_replayed, 1);

    let reference = DistTrainer::launch(&ds, None, &reference_of(&chaos), None).expect("reference");
    assert_eq!(
        rec.final_params, reference.final_params,
        "compressed kill-and-resume must restore residuals + codec mirrors bit-exactly"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Same drill in cd-r with the int8 codec: the snapshot must carry the
/// codec mirrors for the *delta-encoded* bin refreshes alongside the
/// route caches and outbox.
#[test]
fn compressed_cdr_kill_and_resume_is_bit_identical() {
    use distgnn_suite::comm::WireCodec;
    let ds = am(0.2);
    let dir = scratch("compressed-cdr");
    let mut chaos = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 3, 12);
    chaos.codec = WireCodec::Int8;
    chaos.checkpoint_every = 3;
    chaos.checkpoint_dir = Some(dir.clone());
    chaos.faults = FaultPlan::none().with_crash(2, 8);
    chaos.max_restarts = 1;

    let rec = DistTrainer::launch(&ds, None, &chaos, None)
        .expect("one restart must absorb the crash under compression");
    assert_eq!(rec.restarts, 1);
    assert_eq!(rec.epochs_replayed, 2);

    let reference = DistTrainer::launch(&ds, None, &reference_of(&chaos), None).expect("reference");
    assert_eq!(
        rec.final_params, reference.final_params,
        "compressed cd-r resume must restore mirrors + route caches + outbox bit-exactly"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Strengthened for the overlap-first loop: the same cd-0 drill with
/// the overlapped epoch loop and the *async* checkpoint writer. The
/// background writer must have committed `ckpt-6` (and drained before
/// the supervisor lists the store), and recovery must land on the
/// uninterrupted same-seed run's exact parameters.
#[test]
fn overlapped_async_checkpoints_survive_kill_and_resume() {
    use distgnn_suite::comm::ProgressMode;
    let ds = am(0.2);
    let dir = scratch("overlap-cd0");
    let mut chaos = DistConfig::new(&ds, DistMode::Cd0, 3, 12);
    chaos.overlap = Some(ProgressMode::Polled);
    chaos.checkpoint_every = 3;
    chaos.checkpoint_dir = Some(dir.clone());
    chaos.faults = FaultPlan::none().with_crash(1, 7);
    chaos.max_restarts = 1;

    let rec = DistTrainer::launch(&ds, None, &chaos, None)
        .expect("one restart must absorb the crash with async checkpoints");
    assert_eq!(rec.restarts, 1);
    assert_eq!(rec.epochs_replayed, 1, "the async writer must have committed ckpt-6");

    let reference = DistTrainer::launch(&ds, None, &reference_of(&chaos), None).expect("reference");
    assert_eq!(
        rec.final_params, reference.final_params,
        "async-checkpoint kill-and-resume must stay bit-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}
