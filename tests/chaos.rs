//! Chaos suite: end-to-end fault injection on the distributed trainer.
//!
//! Proves the PR's acceptance criteria: under a seeded `FaultPlan` with
//! drops and delays, `cd-r` training completes without panics or
//! deadlocks and its staleness stays observable; `cd-0` with a missing
//! payload returns a typed error; and two runs with the same seed
//! produce bit-identical `CommSnapshot`s. CI runs this suite as the
//! `chaos` job.

use distgnn_suite::comm::{CommError, FaultPlan};
use distgnn_suite::comm::stats::STALE_BUCKETS;
use distgnn_suite::core::dist::{DistConfig, DistMode, DistTrainer};
use distgnn_suite::graph::{Dataset, ScaledConfig};
use proptest::prelude::*;

fn am(scale: f64) -> Dataset {
    Dataset::generate(&ScaledConfig::am_s().scaled_by(scale))
}

fn chaos_cfg(
    ds: &Dataset,
    mode: DistMode,
    k: usize,
    epochs: usize,
    faults: FaultPlan,
) -> DistConfig {
    let mut cfg = DistConfig::new(ds, mode, k, epochs);
    cfg.faults = faults;
    cfg
}

/// Determinism across 4 fixed seeds: the same seeded plan reproduces
/// bit-identical communication snapshots AND bit-identical trained
/// parameters, while different seeds perturb the fault pattern.
#[test]
fn same_seed_chaos_runs_are_bit_identical() {
    let ds = am(0.3);
    let mut per_seed = Vec::new();
    for seed in [11u64, 23, 37, 41] {
        let plan = FaultPlan::none().with_seed(seed).with_drop(0.15).with_delay(0.2, 2);
        let cfg = chaos_cfg(&ds, DistMode::CdR { delay: 2 }, 3, 6, plan);
        let a = DistTrainer::launch(&ds, None, &cfg, None)
            .expect("cd-r must survive drops + delays");
        let b = DistTrainer::launch(&ds, None, &cfg, None)
            .expect("cd-r must survive drops + delays");
        assert_eq!(a.per_rank_comm, b.per_rank_comm, "seed {seed}: snapshots not reproducible");
        assert_eq!(a.final_params, b.final_params, "seed {seed}: training not reproducible");
        assert!(
            a.per_rank_comm.iter().any(|s| s.messages_dropped > 0),
            "seed {seed}: the chaos plan injected nothing"
        );
        per_seed.push(a.per_rank_comm);
    }
    assert!(
        per_seed.windows(2).any(|w| w[0] != w[1]),
        "different seeds should produce different fault patterns"
    );
}

/// Fault-free cd-r: every consumed remote partial is at most `2r`
/// epochs old (Alg. 4's bound) and no violations are flagged.
#[test]
fn cdr_staleness_bound_holds_fault_free() {
    let ds = am(0.3);
    let r = 3usize;
    let cfg = chaos_cfg(&ds, DistMode::CdR { delay: r }, 3, 4 * r, FaultPlan::none());
    let report = DistTrainer::launch(&ds, None, &cfg, None).expect("fault-free run");
    let samples: u64 = report.per_rank_comm.iter().map(|s| s.staleness_samples()).sum();
    assert!(samples > 0, "no remote partials were consumed — the test is vacuous");
    for (p, s) in report.per_rank_comm.iter().enumerate() {
        assert!(
            s.max_staleness <= 2 * r as u64,
            "rank {p}: max staleness {} exceeds 2r = {}",
            s.max_staleness,
            2 * r
        );
        assert_eq!(s.staleness_violations, 0, "rank {p}: flagged fault-free violations");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded chaos property: delay faults small enough to land within
    /// the pickup window (a cd-r epoch spans 4+ barriers) leave the
    /// ≤ 2r bound intact for every consumed remote partial.
    #[test]
    fn staleness_bound_survives_small_delays(seed in 0u64..1_000) {
        let ds = am(0.15);
        let r = 2usize;
        let plan = FaultPlan::none().with_seed(seed).with_delay(0.5, 2);
        let cfg = chaos_cfg(&ds, DistMode::CdR { delay: r }, 2, 10, plan);
        let report = DistTrainer::launch(&ds, None, &cfg, None)
            .expect("delays alone cannot abort cd-r");
        for s in &report.per_rank_comm {
            prop_assert!(s.max_staleness <= 2 * r as u64,
                "max staleness {} exceeds 2r = {}", s.max_staleness, 2 * r);
            prop_assert_eq!(s.staleness_violations, 0);
        }
    }
}

/// Drops leave a bin's cached partial in place past the bound: training
/// survives, and every flagged violation is accounted for by the
/// histogram mass above `2r`.
#[test]
fn cdr_drop_violations_match_histogram() {
    let ds = am(0.3);
    let r = 2usize;
    let plan = FaultPlan::none().with_seed(7).with_drop(0.3);
    let cfg = chaos_cfg(&ds, DistMode::CdR { delay: r }, 3, 12, plan);
    let report = DistTrainer::launch(&ds, None, &cfg, None).expect("cd-r must survive drops");
    assert!(report.per_rank_comm.iter().any(|s| s.messages_dropped > 0));
    for (p, s) in report.per_rank_comm.iter().enumerate() {
        // 12 epochs bounds ages far below the saturating bucket, so the
        // histogram-tail count is exact.
        assert!(s.max_staleness < (STALE_BUCKETS - 1) as u64);
        let above_bound: u64 = s
            .stale_hist
            .iter()
            .enumerate()
            .filter(|&(age, _)| age as u64 > 2 * r as u64)
            .map(|(_, &c)| c)
            .sum();
        assert_eq!(
            s.staleness_violations, above_bound,
            "rank {p}: violation counter disagrees with histogram"
        );
    }
}

/// Satellite: cd-r on am-s ×0.3 still converges under drop faults —
/// the windowed mean loss decreases monotonically.
#[test]
fn cdr_converges_under_drop_faults() {
    let ds = am(0.3);
    let plan = FaultPlan::none().with_seed(13).with_drop(0.2);
    let cfg = chaos_cfg(&ds, DistMode::CdR { delay: 2 }, 2, 40, plan);
    let report = DistTrainer::launch(&ds, None, &cfg, None).expect("no deadlock, no panic");
    assert_eq!(report.epochs.len(), 40, "training must run to completion");
    let window_means: Vec<f32> = report
        .epochs
        .chunks(10)
        .map(|w| w.iter().map(|e| e.loss).sum::<f32>() / w.len() as f32)
        .collect();
    for pair in window_means.windows(2) {
        assert!(
            pair[1] < pair[0],
            "windowed loss did not decrease monotonically: {window_means:?}"
        );
    }
}

/// Tentpole acceptance: cd-0 with a missing peer payload (a stalled
/// rank) returns a structured error — no panic, no deadlock — and the
/// error names the epoch and the root cause.
#[test]
fn cd0_stall_returns_structured_error() {
    let ds = am(0.2);
    let plan = FaultPlan::none().with_seed(5).with_stall(1, 1, 1);
    let cfg = chaos_cfg(&ds, DistMode::Cd0, 3, 4, plan);
    let err = DistTrainer::launch(&ds, None, &cfg, None)
        .expect_err("missing payloads must abort cd-0");
    assert_eq!(err.epoch, 1, "the stall window starts at epoch 1");
    assert!(
        matches!(err.source, CommError::MissingPayload { src: 1, .. }),
        "root cause should name the stalled rank: {:?}",
        err.source
    );
    let msg = err.to_string();
    assert!(msg.contains("epoch 1"), "unhelpful error display: {msg}");
}

/// cd-r rides out the same stall that kills cd-0: its caches absorb the
/// missing refreshes and training completes every epoch.
#[test]
fn cdr_tolerates_rank_stall() {
    let ds = am(0.2);
    let plan = FaultPlan::none().with_seed(3).with_stall(1, 2, 2);
    let cfg = chaos_cfg(&ds, DistMode::CdR { delay: 2 }, 3, 10, plan);
    let report = DistTrainer::launch(&ds, None, &cfg, None).expect("cd-r tolerates a stalled rank");
    assert_eq!(report.epochs.len(), 10);
    assert!(report.epochs.iter().all(|e| e.loss.is_finite()));
    assert!(
        report.per_rank_comm[1].sends_stalled > 0,
        "the stalled rank should have suppressed sends"
    );
}
