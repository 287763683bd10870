//! Compression suite: convergence and exactness under compressed comm.
//!
//! Proves the PR's acceptance criteria end to end on the reddit-s
//! fixture (reproduction scale): every lossy wire codec trains `cd-0`
//! and `cd-r` to within ε of the uncompressed final accuracy, error
//! feedback strictly beats naive truncation at the same bitrate,
//! `--compress none` stays bit-identical to the uncompressed loop,
//! replicas remain consistent under compression, and the wire-byte
//! counters actually shrink relative to the logical volume. CI runs
//! this suite as the `compression` job.
//!
//! Codec policy under test (see `DistConfig::gradient_codec`): the
//! flag codec applies to the DRPA streams; top-k derives an int8
//! gradient codec because sparsified sum-reduced gradients feed Adam's
//! second moment per-rank spikes and measurably slow convergence,
//! while the self-correcting DRPA delta mirrors absorb sparsification
//! essentially for free (the gap below closes entirely at the
//! convergence plateau — see EXPERIMENTS.md).

use distgnn_suite::comm::WireCodec;
use distgnn_suite::core::dist::{DistConfig, DistMode, DistTrainer};
use distgnn_suite::graph::{Dataset, ScaledConfig};

fn reddit(scale: f64) -> Dataset {
    Dataset::generate(&ScaledConfig::reddit_s().scaled_by(scale))
}

fn cfg(ds: &Dataset, mode: DistMode, epochs: usize) -> DistConfig {
    DistConfig::new(ds, mode, 3, epochs)
}

fn lossy_codecs() -> [WireCodec; 3] {
    [WireCodec::Bf16, WireCodec::TopK { percent: 10 }, WireCodec::Int8]
}

fn total_sent(report: &distgnn_suite::core::dist::DistRunReport) -> (u64, u64) {
    let wire = report.per_rank_comm.iter().map(|s| s.bytes_sent).sum();
    let logical = report.per_rank_comm.iter().map(|s| s.logical_bytes_sent).sum();
    (wire, logical)
}

/// Headline, cd-0: each lossy codec reaches final accuracy within ε of
/// the uncompressed run, while sending strictly fewer wire bytes than
/// logical bytes (≥ 4× fewer for top-k 10%, the acceptance gate).
#[test]
fn cd0_lossy_codecs_converge_within_epsilon() {
    let ds = reddit(0.25);
    let base = DistTrainer::launch(&ds, None, &cfg(&ds, DistMode::Cd0, 60), None)
        .expect("distributed training failed");
    assert!(base.test_accuracy > 0.7, "baseline must learn: {}", base.test_accuracy);
    let (bw, bl) = total_sent(&base);
    assert_eq!(bw, bl, "uncompressed wire and logical volumes must agree");
    for codec in lossy_codecs() {
        let mut c = cfg(&ds, DistMode::Cd0, 60);
        c.codec = codec;
        let r = DistTrainer::launch(&ds, None, &c, None).expect("distributed training failed");
        assert!(
            (r.test_accuracy - base.test_accuracy).abs() < 0.05,
            "{}: accuracy {} vs uncompressed {}",
            codec.name(),
            r.test_accuracy,
            base.test_accuracy
        );
        let (wire, logical) = total_sent(&r);
        assert!(wire < logical, "{}: wire {wire} !< logical {logical}", codec.name());
        if codec == (WireCodec::TopK { percent: 10 }) {
            assert!(
                wire * 4 < logical,
                "top-k 10%: wire {wire} should be >= 4x below logical {logical}"
            );
        }
    }
}

/// Same drill for the asynchronous cd-r mode, where the forward
/// exchanges ship delta-encoded bin payloads against the receiver's
/// cached partials.
#[test]
fn cdr_lossy_codecs_converge_within_epsilon() {
    let ds = reddit(0.25);
    let base = DistTrainer::launch(&ds, None, &cfg(&ds, DistMode::CdR { delay: 2 }, 60), None)
        .expect("distributed training failed");
    assert!(base.test_accuracy > 0.7, "baseline must learn: {}", base.test_accuracy);
    for codec in lossy_codecs() {
        let mut c = cfg(&ds, DistMode::CdR { delay: 2 }, 60);
        c.codec = codec;
        let r = DistTrainer::launch(&ds, None, &c, None).expect("distributed training failed");
        assert!(
            (r.test_accuracy - base.test_accuracy).abs() < 0.05,
            "{}: accuracy {} vs uncompressed {}",
            codec.name(),
            r.test_accuracy,
            base.test_accuracy
        );
        let (wire, logical) = total_sent(&r);
        assert!(wire < logical, "{}: wire {wire} !< logical {logical}", codec.name());
    }
}

/// Error feedback vs naive truncation at *equal bitrate* (identical
/// codec, so identical wire volume), with the gradient stream isolated
/// via the `grad_codec` override so nothing else differs: carrying the
/// compression residual into the next gradient must end at a strictly
/// lower loss and higher accuracy than throwing it away.
#[test]
fn error_feedback_beats_naive_truncation_at_equal_bitrate() {
    let ds = reddit(0.25);
    let mut ef_cfg = cfg(&ds, DistMode::Cd0, 60);
    ef_cfg.grad_codec = Some(WireCodec::TopK { percent: 5 });
    ef_cfg.error_feedback = true;
    let mut naive_cfg = ef_cfg.clone();
    naive_cfg.error_feedback = false;

    let ef = DistTrainer::launch(&ds, None, &ef_cfg, None).expect("distributed training failed");
    let naive = DistTrainer::launch(&ds, None, &naive_cfg, None)
        .expect("distributed training failed");
    let (ef_wire, _) = total_sent(&ef);
    let (naive_wire, _) = total_sent(&naive);
    assert_eq!(ef_wire, naive_wire, "equal bitrate: same codec, same wire bytes");

    let ef_loss = ef.epochs.last().unwrap().loss;
    let naive_loss = naive.epochs.last().unwrap().loss;
    assert!(
        ef_loss < naive_loss,
        "error feedback (loss {ef_loss}) must beat naive truncation (loss {naive_loss})"
    );
    assert!(
        ef.test_accuracy > naive.test_accuracy,
        "error feedback (acc {}) must beat naive truncation (acc {})",
        ef.test_accuracy,
        naive.test_accuracy
    );
}

/// The top-k flag derives an int8 gradient codec (the documented
/// policy), and the override pins the gradient stream explicitly.
#[test]
fn topk_derives_a_quantized_gradient_codec() {
    let ds = reddit(0.15);
    let mut c = cfg(&ds, DistMode::Cd0, 3);
    c.codec = WireCodec::TopK { percent: 10 };
    assert_eq!(c.gradient_codec(), WireCodec::Int8);
    c.grad_codec = Some(WireCodec::TopK { percent: 10 });
    assert_eq!(c.gradient_codec(), WireCodec::TopK { percent: 10 });
    c.grad_codec = None;
    c.codec = WireCodec::Bf16;
    assert_eq!(c.gradient_codec(), WireCodec::Bf16);
    c.codec = WireCodec::None;
    assert_eq!(c.gradient_codec(), WireCodec::None);
}

/// `--compress none` takes the exact uncompressed code paths: final
/// parameters and every per-epoch loss are bit-identical to a config
/// that predates the codec entirely, in both epoch loops.
#[test]
fn compress_none_is_bit_identical_to_the_uncompressed_loop() {
    let ds = reddit(0.15);
    for overlap in [None, Some(distgnn_suite::comm::ProgressMode::Polled)] {
        let mut plain = cfg(&ds, DistMode::CdR { delay: 2 }, 6);
        plain.overlap = overlap;
        let mut none = plain.clone();
        none.codec = WireCodec::None;

        let a = DistTrainer::launch(&ds, None, &plain, None).expect("distributed training failed");
        let b = DistTrainer::launch(&ds, None, &none, None).expect("distributed training failed");
        assert_eq!(a.final_params, b.final_params, "overlap={overlap:?}");
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(ea.loss.to_bits(), eb.loss.to_bits(), "overlap={overlap:?}");
        }
        let (aw, al) = total_sent(&a);
        let (bw, bl) = total_sent(&b);
        assert_eq!((aw, al), (bw, bl), "identity codec must not change comm volume");
    }
}

/// Replica consistency: the compressed AllReduce deposits each rank's
/// *decoded* contribution and sums in ascending rank order, so every
/// rank applies the same update — replicas must never diverge, for any
/// codec, in either mode.
#[test]
fn compressed_replicas_stay_identical_across_ranks() {
    let ds = reddit(0.15);
    for mode in [DistMode::Cd0, DistMode::CdR { delay: 2 }] {
        for codec in lossy_codecs() {
            let mut c = cfg(&ds, mode, 5);
            c.codec = codec;
            let r = DistTrainer::launch(&ds, None, &c, None).expect("distributed training failed");
            for p in 1..3 {
                assert_eq!(
                    r.final_params[0],
                    r.final_params[p],
                    "replica divergence under {} in {}",
                    codec.name(),
                    mode.name()
                );
            }
            assert!(r.epochs.iter().all(|e| e.loss.is_finite()));
        }
    }
}

/// The overlapped epoch loop composes with compression: per-layer
/// error-feedback AllReduces through the progress engine converge the
/// same way, and replicas agree.
#[test]
fn overlapped_loop_composes_with_compression() {
    let ds = reddit(0.2);
    let mut base = cfg(&ds, DistMode::Cd0, 60);
    let mut c = base.clone();
    base.overlap = Some(distgnn_suite::comm::ProgressMode::Polled);
    c.overlap = Some(distgnn_suite::comm::ProgressMode::Polled);
    c.codec = WireCodec::TopK { percent: 10 };
    let b = DistTrainer::launch(&ds, None, &base, None).expect("distributed training failed");
    let r = DistTrainer::launch(&ds, None, &c, None).expect("distributed training failed");
    assert_eq!(r.final_params[0], r.final_params[1]);
    assert!(
        (r.test_accuracy - b.test_accuracy).abs() < 0.05,
        "overlapped top-k accuracy {} vs uncompressed {}",
        r.test_accuracy,
        b.test_accuracy
    );
    let (wire, logical) = total_sent(&r);
    assert!(wire < logical);
}
