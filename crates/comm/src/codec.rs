//! Wire codecs: lossy/lossless payload compression for every byte the
//! cluster moves.
//!
//! cd-0 moves ~14 MB per epoch on the `dist_cd0` benchmark workload,
//! where cd-5 moves a tenth of that — *volume* is the scaling wall. This
//! module provides the codec layer the trainer threads through all
//! three traffic classes:
//!
//! - gradient AllReduce (with an [`ErrorFeedback`] residual per rank,
//!   the `Fp32GradientAccumulator` shape: lossy rounds feed their
//!   quantization error back into the next round, so the *sum over
//!   time* of what was shipped converges to the sum of the true
//!   gradients);
//! - DRPA partial-aggregate / bin-refresh AlltoAllv payloads
//!   (delta-encoded in `distgnn-core::drpa` against mirrored receiver
//!   caches; this module only supplies the codec itself);
//! - checkpoint sections in `distgnn-io` (bf16 bounded-lossy mode).
//!
//! Payloads stay `Vec<f32>` so they travel over the existing
//! collectives: sub-32-bit encodings are bit-packed into f32 words via
//! `f32::from_bits` (the established `pack_half` precedent). The wire
//! length of every codec is a *pure function of the logical length*
//! ([`WireCodec::wire_len`]), which is what lets the simulated cluster
//! account wire bytes exactly without a second serialization pass.
//!
//! Codec laws (property-tested in `crates/comm/tests/codecs.rs`):
//!
//! - `None`: bit-exact round trip, wire = logical.
//! - `Bf16`: 2× smaller; finite values round-trip with relative error
//!   ≤ 2⁻⁸ (RNE on the top 16 bits); NaN/±Inf preserved; values above
//!   bf16 max overflow to ±Inf.
//! - `TopK{percent}`: per 256-element block, the `k` largest-magnitude
//!   elements round-trip *bit-exactly* (NaN counts as largest so
//!   specials are never silently dropped) and the rest decode to zero,
//!   so ‖x − dec(enc(x))‖₁ ≤ ‖x‖₁ and the dropped mass is bounded by
//!   the kept minimum.
//! - `Int8`: per 128-element block, one f32 scale word plus four
//!   quantized codes per word; finite values round-trip with absolute
//!   error ≤ max_abs/250 per block, NaN/±Inf preserved via reserved
//!   codes.

use distgnn_tensor::half::{bf16_decode_slice_into, bf16_encode_slice_into};

/// Elements per top-k selection block. Selection scratch lives on the
/// stack, so this also bounds the per-block sort working set.
pub const TOPK_BLOCK: usize = 256;

/// Elements per int8 quantization block (one shared scale per block).
pub const INT8_BLOCK: usize = 128;

/// Reserved int8 codes (quantized values clamp to ±[`INT8_QMAX`]).
const INT8_QMAX: i32 = 125;
const INT8_POS_INF: i8 = 126;
const INT8_NEG_INF: i8 = -126;
const INT8_NAN: i8 = 127;

/// A lossy or lossless encoding applied to one logical `f32` payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Identity: ship raw f32. The only codec whose use is guaranteed
    /// bit-identical (in trajectory *and* in comm accounting) to the
    /// uncompressed paths.
    #[default]
    None,
    /// Truncate to bfloat16, two values per wire word (2×).
    Bf16,
    /// Keep the `percent`% largest-magnitude elements per block as
    /// (index, value) pairs, drop the rest (100/(2·percent)×).
    TopK {
        /// Percentage of elements kept per block, `1..=100`.
        percent: u8,
    },
    /// Linear int8 quantization with one f32 scale per block (~3.9×).
    Int8,
}

impl WireCodec {
    /// True for the identity codec (compression disabled).
    pub fn is_identity(&self) -> bool {
        matches!(self, WireCodec::None)
    }

    /// True when `decode(encode(x))` reproduces `x` bit-for-bit.
    pub fn is_lossless(&self) -> bool {
        self.is_identity()
    }

    /// CLI grammar: `none | bf16 | topk=K | int8` (K in percent).
    pub fn parse(s: &str) -> Result<WireCodec, String> {
        match s {
            "none" => Ok(WireCodec::None),
            "bf16" => Ok(WireCodec::Bf16),
            "int8" => Ok(WireCodec::Int8),
            _ => match s.strip_prefix("topk=") {
                Some(k) => {
                    let percent: u8 = k
                        .parse()
                        .map_err(|_| format!("invalid top-k percentage '{k}'"))?;
                    if percent == 0 || percent > 100 {
                        return Err(format!("top-k percentage must be 1..=100, got {percent}"));
                    }
                    Ok(WireCodec::TopK { percent })
                }
                None => Err(format!(
                    "unknown codec '{s}' (expected none, bf16, topk=K, or int8)"
                )),
            },
        }
    }

    /// Human-readable codec name, inverse of [`WireCodec::parse`].
    pub fn name(&self) -> String {
        match self {
            WireCodec::None => "none".into(),
            WireCodec::Bf16 => "bf16".into(),
            WireCodec::TopK { percent } => format!("topk={percent}"),
            WireCodec::Int8 => "int8".into(),
        }
    }

    /// Wire words for a logical payload of `logical` f32 elements.
    /// A pure function of the length — never of the data — so byte
    /// accounting needs no second pass.
    pub fn wire_len(&self, logical: usize) -> usize {
        match self {
            WireCodec::None => logical,
            WireCodec::Bf16 => logical.div_ceil(2),
            WireCodec::TopK { percent } => {
                let full = logical / TOPK_BLOCK;
                let rem = logical % TOPK_BLOCK;
                let mut words = full * 2 * topk_keep(TOPK_BLOCK, *percent);
                if rem > 0 {
                    words += 2 * topk_keep(rem, *percent);
                }
                words
            }
            WireCodec::Int8 => {
                let full = logical / INT8_BLOCK;
                let rem = logical % INT8_BLOCK;
                let mut words = full * (1 + INT8_BLOCK / 4);
                if rem > 0 {
                    words += 1 + rem.div_ceil(4);
                }
                words
            }
        }
    }

    /// Encodes `src` into `out` (cleared first). Allocation-free once
    /// `out` has warmed to `wire_len(src.len())` capacity.
    pub fn encode_into(&self, src: &[f32], out: &mut Vec<f32>) {
        match self {
            WireCodec::None => {
                out.clear();
                out.extend_from_slice(src);
            }
            WireCodec::Bf16 => bf16_encode_slice_into(src, out),
            WireCodec::TopK { percent } => topk_encode_into(src, *percent, out),
            WireCodec::Int8 => int8_encode_into(src, out),
        }
        debug_assert_eq!(out.len(), self.wire_len(src.len()));
    }

    /// Decodes `wire` into `out`, whose length must be the logical
    /// element count. Never allocates.
    pub fn decode_into(&self, wire: &[f32], out: &mut [f32]) {
        assert_eq!(wire.len(), self.wire_len(out.len()), "wire length mismatch");
        match self {
            WireCodec::None => out.copy_from_slice(wire),
            WireCodec::Bf16 => bf16_decode_slice_into(wire, out),
            WireCodec::TopK { percent } => topk_decode_into(wire, *percent, out),
            WireCodec::Int8 => int8_decode_into(wire, out),
        }
    }

    /// Allocating convenience wrapper around [`WireCodec::encode_into`].
    pub fn encode(&self, src: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.wire_len(src.len()));
        self.encode_into(src, &mut out);
        out
    }

    /// Allocating convenience wrapper around [`WireCodec::decode_into`];
    /// `len` is the logical element count.
    pub fn decode(&self, wire: &[f32], len: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; len];
        self.decode_into(wire, &mut out);
        out
    }
}

/// Elements kept in a top-k block of `len` elements at `percent`%.
/// Always at least one, so no block is ever silently erased.
fn topk_keep(len: usize, percent: u8) -> usize {
    (len * percent as usize).div_ceil(100).max(1)
}

/// Magnitude key for top-k selection. NaN maps to +Inf so specials are
/// always kept (and therefore preserved bit-exactly), never dropped.
#[inline]
fn topk_key(v: f32) -> f32 {
    if v.is_nan() {
        f32::INFINITY
    } else {
        v.abs()
    }
}

fn topk_encode_into(src: &[f32], percent: u8, out: &mut Vec<f32>) {
    out.clear();
    out.reserve(WireCodec::TopK { percent }.wire_len(src.len()));
    // Selection scratch on the stack: sort_unstable_by is in-place, so
    // the encode path performs no heap allocation.
    let mut idx = [0u32; TOPK_BLOCK];
    for block in src.chunks(TOPK_BLOCK) {
        let k = topk_keep(block.len(), percent);
        let order = &mut idx[..block.len()];
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = i as u32;
        }
        // Deterministic: magnitude descending, index ascending on ties.
        order.sort_unstable_by(|&a, &b| {
            topk_key(block[b as usize])
                .total_cmp(&topk_key(block[a as usize]))
                .then(a.cmp(&b))
        });
        // Kept indices ascending, so the wire format (and the decode
        // access pattern) is canonical regardless of magnitudes.
        order[..k].sort_unstable();
        for &i in &order[..k] {
            out.push(f32::from_bits(i));
            out.push(block[i as usize]);
        }
    }
}

fn topk_decode_into(wire: &[f32], percent: u8, out: &mut [f32]) {
    let mut words = wire.iter();
    for block in out.chunks_mut(TOPK_BLOCK) {
        let k = topk_keep(block.len(), percent);
        block.fill(0.0);
        for _ in 0..k {
            let i = words.next().expect("wire length checked").to_bits() as usize;
            let v = *words.next().expect("wire length checked");
            block[i] = v;
        }
    }
}

/// Quantizes one value against a block scale, reserving codes for the
/// specials so they survive the wire exactly.
#[inline]
fn int8_quantize(v: f32, inv_scale: f32) -> i8 {
    if v.is_nan() {
        INT8_NAN
    } else if v == f32::INFINITY {
        INT8_POS_INF
    } else if v == f32::NEG_INFINITY {
        INT8_NEG_INF
    } else {
        let q = (v * inv_scale).round();
        q.clamp(-(INT8_QMAX as f32), INT8_QMAX as f32) as i32 as i8
    }
}

#[inline]
fn int8_dequantize(q: i8, scale: f32) -> f32 {
    match q {
        INT8_NAN => f32::NAN,
        INT8_POS_INF => f32::INFINITY,
        INT8_NEG_INF => f32::NEG_INFINITY,
        q => q as f32 * scale,
    }
}

fn int8_encode_into(src: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(WireCodec::Int8.wire_len(src.len()));
    for block in src.chunks(INT8_BLOCK) {
        let max_abs = block
            .iter()
            .filter(|v| v.is_finite())
            .fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = max_abs / INT8_QMAX as f32;
        // inv_scale of 0 maps every finite value to code 0, which
        // dequantizes to exactly 0.0 — correct when the block is all
        // zeros, and bounded by `scale` when the scale underflowed.
        let inv_scale = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        out.push(scale);
        for quad in block.chunks(4) {
            let mut bits = 0u32;
            for (j, &v) in quad.iter().enumerate() {
                bits |= (int8_quantize(v, inv_scale) as u8 as u32) << (8 * j);
            }
            out.push(f32::from_bits(bits));
        }
    }
}

fn int8_decode_into(wire: &[f32], out: &mut [f32]) {
    let mut words = wire.iter();
    for block in out.chunks_mut(INT8_BLOCK) {
        let scale = *words.next().expect("wire length checked");
        for quad in block.chunks_mut(4) {
            let bits = words.next().expect("wire length checked").to_bits();
            for (j, slot) in quad.iter_mut().enumerate() {
                *slot = int8_dequantize((bits >> (8 * j)) as u8 as i8, scale);
            }
        }
    }
}

/// Per-rank error-feedback state for lossy gradient compression — the
/// `Fp32GradientAccumulator` shape from the Psyche exemplars.
///
/// Invariant: with feedback enabled, each round compresses
/// `x = grad + residual` and carries `residual' = x − dec(enc(x))`
/// into the next round, so no gradient mass is ever lost — only
/// delayed. With feedback disabled ("naive truncation", the baseline
/// the convergence tests beat), the residual stays zero and dropped
/// mass is gone for good.
///
/// All buffers are reused across rounds: after the first call at a
/// given length the compress path performs no heap allocation.
#[derive(Debug)]
pub struct ErrorFeedback {
    enabled: bool,
    residual: Vec<f32>,
    compensated: Vec<f32>,
    wire: Vec<f32>,
    decoded: Vec<f32>,
}

impl ErrorFeedback {
    /// `enabled = false` gives naive truncation (no residual carry).
    pub fn new(enabled: bool) -> Self {
        ErrorFeedback {
            enabled,
            residual: Vec::new(),
            compensated: Vec::new(),
            wire: Vec::new(),
            decoded: Vec::new(),
        }
    }

    /// True when residual carry is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Compresses one gradient round. Returns the decoded contribution
    /// `x̂ = dec(enc(grad + residual))` (what actually enters the
    /// AllReduce) and the wire length in f32 words.
    pub fn compress(&mut self, codec: &WireCodec, grad: &[f32]) -> (&[f32], usize) {
        let n = grad.len();
        if self.residual.len() != n {
            // First round (or a shape change): reset state.
            self.residual.clear();
            self.residual.resize(n, 0.0);
            self.compensated.clear();
            self.compensated.resize(n, 0.0);
            self.decoded.clear();
            self.decoded.resize(n, 0.0);
        }
        if self.enabled {
            for ((c, &g), &r) in self.compensated.iter_mut().zip(grad).zip(&self.residual) {
                *c = g + r;
            }
        } else {
            self.compensated.copy_from_slice(grad);
        }
        codec.encode_into(&self.compensated, &mut self.wire);
        codec.decode_into(&self.wire, &mut self.decoded);
        if self.enabled {
            for ((r, &c), &d) in self.residual.iter_mut().zip(&self.compensated).zip(&self.decoded)
            {
                *r = c - d;
            }
        }
        (&self.decoded, self.wire.len())
    }

    /// The residual carried into the next round (empty before the
    /// first compress). Checkpointed so kill-and-resume under lossy
    /// compression stays trajectory-exact.
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// Restores a checkpointed residual (inverse of
    /// [`ErrorFeedback::residual`]).
    pub fn restore_residual(&mut self, residual: &[f32]) {
        self.residual.clear();
        self.residual.extend_from_slice(residual);
        self.compensated.clear();
        self.compensated.resize(residual.len(), 0.0);
        self.decoded.clear();
        self.decoded.resize(residual.len(), 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 - n as f32 / 2.0) * 0.37).collect()
    }

    #[test]
    fn parse_round_trips_names() {
        for s in ["none", "bf16", "topk=10", "topk=1", "topk=100", "int8"] {
            let c = WireCodec::parse(s).unwrap();
            assert_eq!(c.name(), s);
        }
        assert!(WireCodec::parse("topk=0").is_err());
        assert!(WireCodec::parse("topk=101").is_err());
        assert!(WireCodec::parse("fp8").is_err());
    }

    #[test]
    fn wire_len_matches_encode_for_all_codecs() {
        let codecs = [
            WireCodec::None,
            WireCodec::Bf16,
            WireCodec::TopK { percent: 10 },
            WireCodec::TopK { percent: 37 },
            WireCodec::Int8,
        ];
        for codec in codecs {
            for n in [0usize, 1, 3, 4, 127, 128, 129, 255, 256, 257, 1000] {
                let wire = codec.encode(&ramp(n));
                assert_eq!(wire.len(), codec.wire_len(n), "{} n={n}", codec.name());
            }
        }
    }

    #[test]
    fn identity_codec_is_bit_exact() {
        let src = ramp(513);
        let codec = WireCodec::None;
        let back = codec.decode(&codec.encode(&src), src.len());
        assert_eq!(src, back);
    }

    #[test]
    fn topk_keeps_largest_and_zeroes_rest() {
        let mut src = vec![0.01f32; 256];
        src[7] = -9.0;
        src[200] = 5.0;
        let codec = WireCodec::TopK { percent: 1 }; // keep ⌈2.56⌉ = 3
        let back = codec.decode(&codec.encode(&src), src.len());
        assert_eq!(back[7], -9.0);
        assert_eq!(back[200], 5.0);
        let nonzero = back.iter().filter(|v| **v != 0.0).count();
        assert_eq!(nonzero, 3);
    }

    #[test]
    fn int8_error_is_bounded() {
        let src = ramp(300);
        let codec = WireCodec::Int8;
        let back = codec.decode(&codec.encode(&src), src.len());
        for (block, dec) in src.chunks(INT8_BLOCK).zip(back.chunks(INT8_BLOCK)) {
            let max_abs = block.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let bound = max_abs / 250.0 * 1.01 + 1e-30;
            for (a, b) in block.iter().zip(dec) {
                assert!((a - b).abs() <= bound, "{a} -> {b} (bound {bound})");
            }
        }
    }

    #[test]
    fn error_feedback_conserves_gradient_mass() {
        let codec = WireCodec::TopK { percent: 10 };
        let mut ef = ErrorFeedback::new(true);
        let grad = ramp(512);
        let mut shipped = vec![0.0f64; 512];
        const ROUNDS: usize = 50;
        for _ in 0..ROUNDS {
            let (xhat, _) = ef.compress(&codec, &grad);
            for (s, &x) in shipped.iter_mut().zip(xhat) {
                *s += x as f64;
            }
        }
        // Exact telescoping identity of error feedback: each round
        // ships c_t − r_t with c_t = g + r_{t−1}, so the total shipped
        // is R·g − r_R. No mass is lost — only delayed into the final
        // residual.
        for (i, ((&s, &g), &r)) in shipped.iter().zip(&grad).zip(ef.residual()).enumerate() {
            let want = ROUNDS as f64 * g as f64 - r as f64;
            let tol = want.abs() * 1e-5 + 1e-3;
            assert!(
                (s - want).abs() <= tol,
                "elem {i}: shipped {s}, want {want} (residual {r})"
            );
        }
    }

    #[test]
    fn compress_is_allocation_free_after_warmup() {
        let codec = WireCodec::Int8;
        let mut ef = ErrorFeedback::new(true);
        let grad = ramp(1024);
        let (_, w1) = ef.compress(&codec, &grad);
        let cap = ef.wire.capacity();
        let (_, w2) = ef.compress(&codec, &grad);
        assert_eq!(w1, w2);
        assert_eq!(ef.wire.capacity(), cap);
    }
}
