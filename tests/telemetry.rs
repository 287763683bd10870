//! Telemetry suite: recording must observe training without perturbing
//! it. Proves the ISSUE 4 acceptance criteria end-to-end: telemetry-on
//! and telemetry-off runs train bit-identically; a chaos run records
//! retry/backoff activity while keeping seed-determinism; the Chrome
//! trace exporter emits a valid `trace_event` document with monotone,
//! non-overlapping spans per rank; and the metrics JSON carries phase
//! totals, comm volume, retries and the staleness histogram. CI runs
//! this suite as the `telemetry` job.

use distgnn_suite::comm::FaultPlan;
use distgnn_suite::core::dist::{DistConfig, DistMode, DistTrainer};
use distgnn_suite::core::build_metrics;
use distgnn_suite::graph::{Dataset, ScaledConfig};
use distgnn_suite::telemetry::{
    chrome_trace, json, metrics_json, phase_table, validate_trace, Metric, Phase, TelemetryHub,
    TraceCounter,
};

fn am(scale: f64) -> Dataset {
    Dataset::generate(&ScaledConfig::am_s().scaled_by(scale))
}

/// Recording must never change what is trained: telemetry-on and
/// telemetry-off runs of every algorithm produce bit-identical final
/// parameters.
#[test]
fn recording_on_and_off_train_bit_identically() {
    let ds = am(0.3);
    for mode in [DistMode::Oc, DistMode::Cd0, DistMode::CdR { delay: 2 }] {
        let cfg = DistConfig::new(&ds, mode, 3, 5);
        let off = DistTrainer::launch(&ds, None, &cfg, None).expect("recording-off run");
        let hub = TelemetryHub::new(3, Default::default());
        let on = DistTrainer::launch(&ds, None, &cfg, Some(&hub)).expect("recording-on run");
        assert_eq!(
            off.final_params,
            on.final_params,
            "{}: recording perturbed training",
            mode.name()
        );
        assert_eq!(off.per_rank_comm, on.per_rank_comm);
    }
}

/// A chaos run with delay faults records retry/backoff trace counters
/// that mirror the `CommStats` accounting, and stays seed-deterministic
/// (two recorded runs produce identical snapshots and params).
#[test]
fn chaos_run_records_retries_without_breaking_determinism() {
    // Delay faults on cd-0: the blocking clone sync must absorb every
    // late payload through its retry ladder (drops would exhaust it).
    let ds = am(0.25);
    let plan = FaultPlan::none().with_seed(23).with_delay(0.5, 2);
    let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 3, 6);
    cfg.faults = plan;

    let hub_a = TelemetryHub::new(3, Default::default());
    let a = DistTrainer::launch(&ds, None, &cfg, Some(&hub_a)).expect("chaos run A");
    let hub_b = TelemetryHub::new(3, Default::default());
    let b = DistTrainer::launch(&ds, None, &cfg, Some(&hub_b)).expect("chaos run B");

    assert_eq!(a.per_rank_comm, b.per_rank_comm, "seeded chaos must reproduce");
    assert_eq!(a.final_params, b.final_params);

    let mut retries_recorded = 0u64;
    for (r, snap) in a.per_rank_comm.iter().enumerate() {
        let rec = hub_a.rank(r);
        assert_eq!(
            rec.counter_total(TraceCounter::Retry),
            snap.retries_attempted,
            "rank {r}: trace counter disagrees with CommStats"
        );
        assert_eq!(rec.counter_total(TraceCounter::Backoff), snap.backoff_barriers);
        retries_recorded += rec.counter_total(TraceCounter::Retry);
    }
    assert!(retries_recorded > 0, "the chaos plan should have forced retries");
}

/// The exported Chrome trace is a structurally valid `trace_event`
/// document: every span names a known phase and spans on each rank
/// track are monotone and non-overlapping.
#[test]
fn exported_trace_validates_and_covers_training_phases() {
    let ds = am(0.3);
    let cfg = DistConfig::new(&ds, DistMode::CdR { delay: 1 }, 3, 4);
    let hub = TelemetryHub::new(3, Default::default());
    DistTrainer::launch(&ds, None, &cfg, Some(&hub)).expect("recorded run");

    let trace = chrome_trace(&hub);
    let summary = validate_trace(&trace).expect("trace must validate");
    assert_eq!(summary.ranks, 3);
    assert!(summary.spans > 0);

    // Spot-check the span names Perfetto will show.
    let doc = json::parse(&trace).unwrap();
    let events = doc.get("traceEvents").and_then(json::Value::as_arr).unwrap();
    for phase in [Phase::Forward, Phase::Backward, Phase::Aggregate, Phase::CommWait] {
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(json::Value::as_str) == Some(phase.name())
                    && e.get("ph").and_then(json::Value::as_str) == Some("X")
            }),
            "trace has no {} span",
            phase.name()
        );
    }
}

/// The metrics JSON carries everything the acceptance criteria name:
/// per-epoch phase totals, comm volume, retries, staleness histogram;
/// and the human table shows a per-rank compute/comm/idle breakdown.
#[test]
fn metrics_export_carries_phase_totals_comm_and_staleness() {
    let ds = am(0.3);
    let mut cfg = DistConfig::new(&ds, DistMode::CdR { delay: 2 }, 3, 6);
    cfg.faults = FaultPlan::none().with_seed(11).with_delay(0.3, 2);
    let hub = TelemetryHub::new(3, Default::default());
    let report = DistTrainer::launch(&ds, None, &cfg, Some(&hub)).expect("recorded run");
    let reg = build_metrics(&cfg, &report, &hub);

    let doc = json::parse(&metrics_json(&reg)).expect("metrics JSON must parse");
    assert_eq!(doc.get("schema").and_then(json::Value::as_str), Some("distgnn-metrics-v1"));
    let ranks = doc.get("ranks").and_then(json::Value::as_arr).unwrap();
    assert_eq!(ranks.len(), 3);
    for rank in ranks {
        let epochs = rank.get("epochs").and_then(json::Value::as_arr).unwrap();
        assert_eq!(epochs.len(), 6, "one phase snapshot per epoch");
        for e in epochs {
            let phases = e.get("phases_ns").unwrap();
            assert!(phases.get(Phase::Forward.name()).and_then(json::Value::as_f64).unwrap() > 0.0);
        }
        let metrics = rank.get("metrics").unwrap();
        assert!(metrics.get("bytes_sent").and_then(json::Value::as_f64).unwrap() > 0.0);
        let hist = rank.get("staleness_hist").and_then(json::Value::as_arr).unwrap();
        assert!(!hist.is_empty(), "cd-r must report a staleness histogram");
    }
    let totals = doc.get("totals").unwrap();
    assert_eq!(
        totals.get("bytes_sent").and_then(json::Value::as_f64).unwrap() as u64,
        reg.total(Metric::BytesSent)
    );
    assert!(totals.get("retries_attempted").and_then(json::Value::as_f64).is_some());

    let table = phase_table(&reg);
    for needle in ["rank", "forward", "comm_wait", "barrier", "compute%", "comm%", "idle%"] {
        assert!(table.contains(needle), "phase table missing `{needle}`:\n{table}");
    }
    // One row per rank plus the header.
    assert_eq!(table.lines().count(), 4, "unexpected table shape:\n{table}");
}

/// Ring-buffer overflow drops events (counted), never grows, and keeps
/// phase totals intact — the trace degrades, the accounting does not.
#[test]
fn overflow_degrades_gracefully_under_training_load() {
    use distgnn_suite::telemetry::RecorderConfig;
    let ds = am(0.25);
    let cfg = DistConfig::new(&ds, DistMode::Cd0, 2, 4);
    // 16 event slots cannot hold a 4-epoch run's spans.
    let hub = TelemetryHub::new(2, RecorderConfig { event_capacity: 16, epoch_capacity: 16 });
    let report = DistTrainer::launch(&ds, None, &cfg, Some(&hub)).expect("recorded run");
    assert_eq!(report.epochs.len(), 4);
    for r in 0..2 {
        let rec = hub.rank(r);
        assert!(rec.events_dropped() > 0, "rank {r}: tiny buffer must overflow");
        assert!(rec.num_events() <= 16, "rank {r}: ring buffer grew");
        assert!(rec.phase_ns()[Phase::Forward as usize] > 0, "totals must survive overflow");
    }
}
