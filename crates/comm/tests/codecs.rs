//! Property tests for the wire codecs: round-trip laws, error bounds,
//! special-value handling, and the error-feedback conservation law.
//!
//! Every law here is the contract the compressed collectives and the
//! DRPA delta paths rely on:
//!
//! - `wire_len` is a *pure function of the logical length* — the
//!   receiver sizes its buffers before a single payload byte arrives;
//! - the identity codec is bit-exact (the `--compress none` paths must
//!   be indistinguishable from the uncompressed code);
//! - each lossy codec's per-element error is bounded, and non-finite
//!   values (NaN, ±inf) survive encode→decode — a gradient that went
//!   non-finite must still be *visible* after compression, not silently
//!   laundered into a plausible number;
//! - error feedback telescopes: over any number of rounds, the sum of
//!   shipped gradients equals the sum of true gradients minus the final
//!   residual, exactly (up to f32 accumulation).

use distgnn_comm::{ErrorFeedback, WireCodec};
use proptest::prelude::*;

/// All codec shapes under test (percent values hit the keep=1 floor,
/// a mid value, and keep=all).
fn codecs() -> Vec<WireCodec> {
    vec![
        WireCodec::None,
        WireCodec::Bf16,
        WireCodec::TopK { percent: 1 },
        WireCodec::TopK { percent: 10 },
        WireCodec::TopK { percent: 100 },
        WireCodec::Int8,
    ]
}

/// A random tensor with NaN / ±inf / ±0 deterministically sprinkled in
/// (one special every 13 slots, cycling through the special kinds).
fn arb_tensor_with_specials() -> impl Strategy<Value = Vec<f32>> {
    (proptest::collection::vec(-1.0e4f32..1.0e4, 0..700), 0u64..1000).prop_map(|(mut v, seed)| {
        for (i, x) in v.iter_mut().enumerate() {
            if (i as u64 + seed).is_multiple_of(13) {
                *x = match (i as u64 + seed) / 13 % 5 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => -0.0,
                    _ => 0.0,
                };
            }
        }
        v
    })
}

/// Finite-only tensors for the numeric error-bound laws.
fn arb_finite_tensor() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0e4f32..1.0e4, 0..700)
}

fn round_trip(codec: &WireCodec, src: &[f32]) -> Vec<f32> {
    let wire = codec.encode(src);
    assert_eq!(
        wire.len(),
        codec.wire_len(src.len()),
        "{}: encode length must equal wire_len({})",
        codec.name(),
        src.len()
    );
    codec.decode(&wire, src.len())
}

/// Same bits, NaN-tolerant: NaN must decode to NaN (any payload).
fn same_value(a: f32, b: f32) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `wire_len` matches the actual encoded length for every codec,
    /// on every length including 0, even with specials present.
    #[test]
    fn wire_len_is_a_pure_function_of_length(src in arb_tensor_with_specials()) {
        for codec in codecs() {
            let wire = codec.encode(&src);
            prop_assert!(wire.len() == codec.wire_len(src.len()),
                "{}: {} != wire_len({}) = {}",
                codec.name(), wire.len(), src.len(), codec.wire_len(src.len()));
        }
    }

    /// The identity codec round-trips bit-exactly, specials included.
    #[test]
    fn identity_round_trip_is_bit_exact(src in arb_tensor_with_specials()) {
        let got = round_trip(&WireCodec::None, &src);
        prop_assert!(got.len() == src.len());
        for (a, b) in got.iter().zip(&src) {
            prop_assert!(a.to_bits() == b.to_bits(), "identity changed {b} -> {a}");
        }
    }

    /// bf16 keeps the top 8 mantissa bits: relative error ≤ 2⁻⁸, and
    /// every non-finite value survives as the same kind of non-finite.
    #[test]
    fn bf16_error_is_relatively_bounded_and_specials_survive(
        src in arb_tensor_with_specials(),
    ) {
        let got = round_trip(&WireCodec::Bf16, &src);
        for (a, b) in got.iter().zip(&src) {
            if b.is_nan() {
                prop_assert!(a.is_nan(), "NaN decoded to {a}");
            } else if b.is_infinite() {
                prop_assert!(a.to_bits() == b.to_bits(), "inf changed: {b} -> {a}");
            } else {
                prop_assert!((a - b).abs() <= b.abs() / 256.0 + f32::MIN_POSITIVE,
                    "bf16 error too large: {b} -> {a}");
            }
        }
    }

    /// top-k: every decoded element is either the original value
    /// bit-exactly (kept) or exactly zero (dropped), and within each
    /// block no dropped finite element exceeds a kept one in magnitude.
    #[test]
    fn topk_keeps_exact_values_and_drops_only_smaller_ones(
        src in arb_finite_tensor(),
        percent in 1u8..=100,
    ) {
        let codec = WireCodec::TopK { percent };
        let got = round_trip(&codec, &src);
        for (block, (g, s)) in got.chunks(256).zip(src.chunks(256)).enumerate() {
            let mut min_kept = f32::INFINITY;
            let mut max_dropped = 0.0f32;
            for (a, b) in g.iter().zip(s) {
                if a.to_bits() == b.to_bits() && *b != 0.0 {
                    min_kept = min_kept.min(b.abs());
                } else {
                    prop_assert!(*a == 0.0, "block {block}: {b} decoded to {a}");
                    max_dropped = max_dropped.max(b.abs());
                }
            }
            prop_assert!(max_dropped <= min_kept,
                "block {block}: dropped {max_dropped} but kept only {min_kept}");
        }
    }

    /// top-k treats NaN/±inf as infinite magnitude, so specials are
    /// always kept (bit-exactly for inf, NaN-as-NaN) as long as the
    /// block's keep budget covers the specials planted in it.
    #[test]
    fn topk_always_keeps_non_finite_values(
        src in arb_finite_tensor(),
        pos in 0usize..700,
        kind in 0u8..3,
    ) {
        if !src.is_empty() {
            let mut src = src;
            let pos = pos % src.len();
            src[pos] = match kind { 0 => f32::NAN, 1 => f32::INFINITY, _ => f32::NEG_INFINITY };
            let got = round_trip(&WireCodec::TopK { percent: 1 }, &src);
            prop_assert!(same_value(got[pos], src[pos]),
                "special {} at {pos} decoded to {}", src[pos], got[pos]);
        }
    }

    /// int8: per-128-block absolute error ≤ max|finite|/250, specials
    /// survive through the reserved codes.
    #[test]
    fn int8_error_is_bounded_by_block_scale(src in arb_tensor_with_specials()) {
        let got = round_trip(&WireCodec::Int8, &src);
        for (block, (g, s)) in got.chunks(128).zip(src.chunks(128)).enumerate() {
            let max_abs = s.iter().filter(|x| x.is_finite()).fold(0.0f32, |m, x| m.max(x.abs()));
            let bound = max_abs / 250.0 * 1.01 + 1e-30;
            for (a, b) in g.iter().zip(s) {
                if b.is_nan() {
                    prop_assert!(a.is_nan(), "block {block}: NaN -> {a}");
                } else if b.is_infinite() {
                    prop_assert!(a.to_bits() == b.to_bits(), "block {block}: {b} -> {a}");
                } else {
                    prop_assert!((a - b).abs() <= bound,
                        "block {block}: |{b} - {a}| > {bound}");
                }
            }
        }
    }

    /// Error feedback telescopes exactly: after R rounds,
    /// Σ shipped = Σ gradients − residual_final, element-wise.
    #[test]
    fn error_feedback_telescopes_over_rounds(
        grad in proptest::collection::vec(-10.0f32..10.0, 1..300),
        rounds in 1usize..6,
        which in 0usize..4,
    ) {
        let codec = [
            WireCodec::Bf16,
            WireCodec::TopK { percent: 5 },
            WireCodec::TopK { percent: 50 },
            WireCodec::Int8,
        ][which];
        let mut ef = ErrorFeedback::new(true);
        let mut shipped_total = vec![0.0f64; grad.len()];
        for _ in 0..rounds {
            let (shipped, _) = ef.compress(&codec, &grad);
            for (t, s) in shipped_total.iter_mut().zip(shipped) {
                *t += f64::from(*s);
            }
        }
        for ((t, g), r) in shipped_total.iter().zip(&grad).zip(ef.residual()) {
            let want = f64::from(*g) * rounds as f64 - f64::from(*r);
            prop_assert!((t - want).abs() <= want.abs() * 1e-5 + 1e-3,
                "{}: shipped {t}, want {want}", codec.name());
        }
    }

    /// Without error feedback the residual stays identically zero and
    /// each round ships the plain compressed gradient.
    #[test]
    fn naive_truncation_keeps_no_residual(
        grad in proptest::collection::vec(-10.0f32..10.0, 1..300),
    ) {
        let codec = WireCodec::TopK { percent: 5 };
        let mut ef = ErrorFeedback::new(false);
        let (shipped, _) = ef.compress(&codec, &grad);
        let direct = codec.decode(&codec.encode(&grad), grad.len());
        for (a, b) in shipped.iter().zip(&direct) {
            prop_assert!(a.to_bits() == b.to_bits());
        }
        prop_assert!(ef.residual().iter().all(|&r| r == 0.0));
    }
}

/// Zero-length tensors round-trip through every codec (the empty
/// AllReduce and an empty DRPA route are legal).
#[test]
fn zero_length_round_trips_everywhere() {
    for codec in codecs() {
        assert_eq!(codec.wire_len(0), 0, "{}", codec.name());
        let wire = codec.encode(&[]);
        assert!(wire.is_empty(), "{}", codec.name());
        assert!(codec.decode(&wire, 0).is_empty(), "{}", codec.name());
    }
}

/// The lossless predicate marks exactly the identity codec.
#[test]
fn only_the_identity_codec_is_lossless() {
    for codec in codecs() {
        assert_eq!(codec.is_lossless(), codec == WireCodec::None, "{}", codec.name());
    }
}

/// Compression actually compresses: each lossy codec's wire length is
/// below the logical length at representative sizes (topk=10 ≥ 4×).
#[test]
fn lossy_codecs_shrink_the_wire() {
    for n in [256usize, 1000, 4096] {
        assert!(WireCodec::Bf16.wire_len(n) * 2 <= n + 1);
        assert!(WireCodec::Int8.wire_len(n) * 3 < n);
        let topk = WireCodec::TopK { percent: 10 }.wire_len(n);
        assert!(topk * 4 <= n, "topk=10 must be >= 4x smaller: {topk} words for {n}");
    }
}
