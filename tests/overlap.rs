//! Overlap suite: the overlap-first epoch loop against the blocking one.
//!
//! Proves the PR's acceptance criteria: with async collectives posted
//! during backward, clone-sync exchanges drained through the comm
//! progress engine, and checkpoints written by a background thread, the
//! trained parameters stay **bit-identical** to the blocking loop — for
//! `0c`, `cd-0` and `cd-r`, in both progress modes, under seeded
//! drop/delay fault plans, and across a kill-and-resume cycle whose
//! snapshots came from the async checkpoint writer. CI runs this suite
//! as the `overlap` job.

use distgnn_suite::comm::{FaultPlan, ProgressMode, RetryPolicy};
use distgnn_suite::core::dist::{DistConfig, DistMode, DistTrainer};
use distgnn_suite::graph::{Dataset, ScaledConfig};
use distgnn_suite::io::{list_checkpoints, load_cluster_state};
use std::path::PathBuf;

fn am(scale: f64) -> Dataset {
    Dataset::generate(&ScaledConfig::am_s().scaled_by(scale))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("distgnn-overlap-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn overlapped(cfg: &DistConfig, mode: ProgressMode) -> DistConfig {
    let mut c = cfg.clone();
    c.overlap = Some(mode);
    c
}

/// Headline: every algorithm, both progress modes, bit-identical
/// parameters and per-epoch losses against the blocking loop.
#[test]
fn overlapped_loop_is_bit_identical_for_all_algorithms() {
    let ds = am(0.2);
    for mode in [DistMode::Oc, DistMode::Cd0, DistMode::CdR { delay: 2 }] {
        let cfg = DistConfig::new(&ds, mode, 3, 8);
        let blocking = DistTrainer::launch(&ds, None, &cfg, None).expect("blocking run");
        for pm in [ProgressMode::Polled, ProgressMode::Thread] {
            let run = DistTrainer::launch(&ds, None, &overlapped(&cfg, pm), None)
                .expect("overlapped run");
            assert_eq!(
                blocking.final_params, run.final_params,
                "{} diverged under {pm:?} overlap",
                mode.name()
            );
            for (e, (b, o)) in blocking.epochs.iter().zip(&run.epochs).enumerate() {
                assert_eq!(
                    b.loss.to_bits(),
                    o.loss.to_bits(),
                    "{} epoch {e}: loss drift under {pm:?}",
                    mode.name()
                );
            }
        }
    }
}

/// The overlapped loop posts handle-based ops; the blocking loop never
/// does. Both account the same wire traffic.
#[test]
fn overlap_accounts_handles_without_changing_wire_volume() {
    let ds = am(0.2);
    let cfg = DistConfig::new(&ds, DistMode::Cd0, 3, 6);
    let blocking = DistTrainer::launch(&ds, None, &cfg, None).unwrap();
    let run = DistTrainer::launch(&ds, None, &overlapped(&cfg, ProgressMode::Polled), None)
        .unwrap();
    for (b, o) in blocking.per_rank_comm.iter().zip(&run.per_rank_comm) {
        assert_eq!(b.handle_ops_posted, 0, "blocking loop must not post handles");
        assert!(o.handle_ops_posted > 0, "overlapped loop must post handles");
        assert_eq!(o.handle_ops_posted, o.handle_ops_completed, "every handle waited");
        assert_eq!(b.bytes_sent, o.bytes_sent, "overlap must not change payload volume");
        assert_eq!(b.bytes_received, o.bytes_received);
    }
}

/// Under a seeded drop plan, cd-r's overlapped run must weather the
/// same lost payloads and land on the same parameters (the async
/// AlltoAllv falls back to the retrying collective when faults are
/// armed, so fault decisions replay identically).
#[test]
fn overlap_under_drop_faults_matches_blocking_chaos() {
    let ds = am(0.2);
    let mut cfg = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 3, 10);
    cfg.faults = FaultPlan::none().with_seed(23).with_drop(0.2);
    let blocking = DistTrainer::launch(&ds, None, &cfg, None).expect("cd-r survives drops");
    assert!(blocking.per_rank_comm.iter().any(|s| s.messages_dropped > 0));
    for pm in [ProgressMode::Polled, ProgressMode::Thread] {
        let run = DistTrainer::launch(&ds, None, &overlapped(&cfg, pm), None)
            .expect("overlapped chaos run");
        assert_eq!(
            blocking.final_params, run.final_params,
            "drop-fault trajectory diverged under {pm:?} overlap"
        );
        for (b, o) in blocking.per_rank_comm.iter().zip(&run.per_rank_comm) {
            assert_eq!(b.messages_dropped, o.messages_dropped, "fault decisions must replay");
            assert_eq!(b.max_staleness, o.max_staleness);
        }
    }
}

/// Under a full-delay plan, cd-0's retry ladder must fire identically in
/// both loops: same retries, same backoff barriers, same parameters.
#[test]
fn overlap_under_delay_faults_matches_blocking_retries() {
    let ds = am(0.2);
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 3, 4);
    cfg.faults = FaultPlan::none().with_seed(17).with_delay(1.0, 3);
    cfg.retry = RetryPolicy::standard();
    let blocking = DistTrainer::launch(&ds, None, &cfg, None).expect("retries absorb the delay");
    assert!(blocking.per_rank_comm.iter().any(|s| s.retries_attempted > 0));
    let run = DistTrainer::launch(&ds, None, &overlapped(&cfg, ProgressMode::Polled), None)
        .expect("overlapped run absorbs the same delay");
    assert_eq!(blocking.final_params, run.final_params);
    for (b, o) in blocking.per_rank_comm.iter().zip(&run.per_rank_comm) {
        assert_eq!(b.retries_attempted, o.retries_attempted, "retry ladders must match");
        assert_eq!(b.backoff_barriers, o.backoff_barriers);
        assert_eq!(b.messages_delayed, o.messages_delayed);
    }
}

/// The async checkpoint writer must commit snapshots whose every
/// section — params, Adam moments, DRPA caches, in-flight outbox —
/// is bit-identical to the blocking vote-then-commit protocol's.
#[test]
fn async_checkpoints_match_blocking_checkpoints_bit_for_bit() {
    let ds = am(0.2);
    let dir_a = scratch("blocking-ckpt");
    let dir_b = scratch("async-ckpt");
    let mut cfg = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 3, 9);
    cfg.checkpoint_every = 3;
    cfg.checkpoint_dir = Some(dir_a.clone());
    DistTrainer::launch(&ds, None, &cfg, None).unwrap();

    let mut over = overlapped(&cfg, ProgressMode::Polled);
    over.checkpoint_dir = Some(dir_b.clone());
    DistTrainer::launch(&ds, None, &over, None).unwrap();

    let epochs_a: Vec<u64> = list_checkpoints(&dir_a).iter().map(|(e, _)| *e).collect();
    let epochs_b: Vec<u64> = list_checkpoints(&dir_b).iter().map(|(e, _)| *e).collect();
    assert_eq!(epochs_a, vec![3, 6, 9], "blocking protocol should commit every 3 epochs");
    assert_eq!(epochs_b, epochs_a, "async writer must commit the same epochs");
    for e in epochs_a {
        let a = load_cluster_state(&dir_a.join(format!("ckpt-{e}"))).unwrap();
        let b = load_cluster_state(&dir_b.join(format!("ckpt-{e}"))).unwrap();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra, rb, "epoch {e} rank {}: async snapshot drifted", ra.rank);
        }
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Kill-and-resume with the overlapped loop end to end: crash rank 1 at
/// epoch 7 of 12 with async checkpoints every 3 epochs; the supervisor
/// restarts from `ckpt-6` (committed by the background writer and
/// drained before the restart), and the recovered parameters match an
/// uninterrupted *blocking* run bit for bit.
#[test]
fn overlapped_kill_and_resume_is_bit_identical() {
    let ds = am(0.2);
    for pm in [ProgressMode::Polled, ProgressMode::Thread] {
        let dir = scratch(&format!("kill-resume-{}", pm.name()));
        let mut chaos = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 3, 12);
        chaos.overlap = Some(pm);
        chaos.checkpoint_every = 3;
        chaos.checkpoint_dir = Some(dir.clone());
        chaos.faults = FaultPlan::none().with_crash(1, 7);
        chaos.max_restarts = 1;

        let rec = DistTrainer::launch(&ds, None, &chaos, None)
            .expect("one restart must absorb the crash");
        assert_eq!(rec.restarts, 1);
        assert_eq!(rec.epochs_replayed, 1, "ckpt-6 must exist: only epoch 6 replays");

        let mut clean = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 3, 12);
        clean.faults = FaultPlan::none();
        let reference = DistTrainer::launch(&ds, None, &clean, None).expect("blocking reference");
        assert_eq!(
            rec.final_params, reference.final_params,
            "overlapped kill-and-resume under {pm:?} must match the blocking run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
