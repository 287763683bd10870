//! bfloat16 conversions.
//!
//! DistGNN's conclusion names BFLOAT16 communication as future work
//! for cutting the partial-aggregate volume in half; the `bf16` wire
//! codec and lossy checkpoints build on these conversions. Arithmetic
//! stays in f32, only the stored/shipped format is 16-bit.

/// f32 → bfloat16 (round-to-nearest-even), as raw bits.
#[inline]
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    // Round to nearest even on the truncated 16 bits.
    let round_bit = (bits >> 16) & 1;
    let rounded = bits.wrapping_add(0x7FFF + round_bit);
    if x.is_nan() {
        // Preserve NaN (quiet).
        return ((bits >> 16) as u16) | 0x0040;
    }
    (rounded >> 16) as u16
}

/// bfloat16 bits → f32.
#[inline]
pub fn f32_from_bf16(x: u16) -> f32 {
    f32::from_bits((x as u32) << 16)
}

/// Packs a f32 slice into half as many f32s, two 16-bit values per
/// word, using `enc`. The payload stays `Vec<f32>` so it travels over
/// the existing collectives while genuinely halving the byte volume.
/// This scalar form is the reference the chunked slice codecs below
/// are tested against.
pub fn pack_half(src: &[f32], enc: impl Fn(f32) -> u16) -> Vec<f32> {
    let mut out = Vec::with_capacity(src.len().div_ceil(2));
    let mut iter = src.chunks_exact(2);
    for pair in &mut iter {
        let lo = enc(pair[0]) as u32;
        let hi = (enc(pair[1]) as u32) << 16;
        out.push(f32::from_bits(hi | lo));
    }
    if let [last] = iter.remainder() {
        out.push(f32::from_bits(enc(*last) as u32));
    }
    out
}

/// Inverse of [`pack_half`]; `len` is the original element count.
pub fn unpack_half(packed: &[f32], len: usize, dec: impl Fn(u16) -> f32) -> Vec<f32> {
    assert_eq!(packed.len(), len.div_ceil(2), "packed length mismatch");
    let mut out = Vec::with_capacity(len);
    for (i, word) in packed.iter().enumerate() {
        let bits = word.to_bits();
        out.push(dec((bits & 0xFFFF) as u16));
        if 2 * i + 1 < len {
            out.push(dec((bits >> 16) as u16));
        }
    }
    out
}

/// Elements processed per inner loop of the chunked slice codecs.
/// Chosen so one chunk of f32 input plus its packed output stays
/// inside L1; the value only affects throughput, never the bits.
pub const BF16_CHUNK: usize = 256;

/// Chunked slice variant of [`pack_half`] with `f32_to_bf16`, writing
/// into a caller-owned buffer so the codec hot path stays
/// allocation-free once `out` has warmed to capacity. Bit-identical to
/// the scalar `pack_half(src, f32_to_bf16)` path for every input.
pub fn bf16_encode_slice_into(src: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(src.len().div_ceil(2));
    for chunk in src.chunks(BF16_CHUNK) {
        let mut pairs = chunk.chunks_exact(2);
        for pair in &mut pairs {
            let lo = f32_to_bf16(pair[0]) as u32;
            let hi = (f32_to_bf16(pair[1]) as u32) << 16;
            out.push(f32::from_bits(hi | lo));
        }
        // Only the final chunk of the slice can have an odd remainder
        // because BF16_CHUNK is even.
        if let [last] = pairs.remainder() {
            out.push(f32::from_bits(f32_to_bf16(*last) as u32));
        }
    }
}

/// Chunked slice inverse of [`bf16_encode_slice_into`]; decodes into a
/// caller-owned slice whose length is the original element count.
/// Bit-identical to the scalar `unpack_half(packed, len, f32_from_bf16)`
/// path.
pub fn bf16_decode_slice_into(packed: &[f32], out: &mut [f32]) {
    assert_eq!(packed.len(), out.len().div_ceil(2), "packed length mismatch");
    let mut words = packed.iter();
    for chunk in out.chunks_mut(BF16_CHUNK) {
        let mut pairs = chunk.chunks_exact_mut(2);
        for pair in &mut pairs {
            let bits = words.next().expect("word count checked above").to_bits();
            pair[0] = f32_from_bf16((bits & 0xFFFF) as u16);
            pair[1] = f32_from_bf16((bits >> 16) as u16);
        }
        if let [last] = pairs.into_remainder() {
            let bits = words.next().expect("word count checked above").to_bits();
            *last = f32_from_bf16((bits & 0xFFFF) as u16);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_round_trip_small_error() {
        for &x in &[0.0f32, 1.0, -1.0, 3.25159, -127.5, 1e-3, 1e30, -1e-30] {
            let y = f32_from_bf16(f32_to_bf16(x));
            let rel = if x == 0.0 { y.abs() } else { ((y - x) / x).abs() };
            assert!(rel < 0.01, "{x} -> {y}");
        }
    }

    #[test]
    fn bf16_preserves_specials() {
        assert_eq!(f32_from_bf16(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(f32_from_bf16(f32_to_bf16(f32::NEG_INFINITY)), f32::NEG_INFINITY);
        assert!(f32_from_bf16(f32_to_bf16(f32::NAN)).is_nan());
        assert_eq!(f32_from_bf16(f32_to_bf16(0.0)), 0.0);
    }

    #[test]
    fn pack_unpack_round_trip_even_and_odd() {
        for len in [0usize, 1, 2, 5, 8, 33] {
            let src: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 3.0).collect();
            let packed = pack_half(&src, f32_to_bf16);
            assert_eq!(packed.len(), len.div_ceil(2));
            let back = unpack_half(&packed, len, f32_from_bf16);
            assert_eq!(back.len(), len);
            for (a, b) in src.iter().zip(&back) {
                assert!((a - b).abs() <= a.abs() * 0.01 + 1e-6);
            }
        }
    }

    #[test]
    fn packed_volume_is_half() {
        let src = vec![1.0f32; 1000];
        assert_eq!(pack_half(&src, f32_to_bf16).len(), 500);
    }

    /// Deterministic pseudo-random f32s (xorshift over raw bits mapped
    /// into a wide range), with specials sprinkled in.
    fn mixed_values(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed | 1;
        (0..len)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match i % 17 {
                    0 => f32::NAN,
                    5 => f32::INFINITY,
                    11 => f32::NEG_INFINITY,
                    13 => 0.0,
                    14 => -0.0,
                    _ => (s as i32 as f32) * 1e-3,
                }
            })
            .collect()
    }

    #[test]
    fn chunked_encode_is_bit_identical_to_scalar_path() {
        for len in [0usize, 1, 2, 3, 255, 256, 257, 511, 512, 513, 1000] {
            let src = mixed_values(len, 0x5EED + len as u64);
            let scalar = pack_half(&src, f32_to_bf16);
            let mut chunked = Vec::new();
            bf16_encode_slice_into(&src, &mut chunked);
            assert_eq!(scalar.len(), chunked.len(), "len {len}");
            for (a, b) in scalar.iter().zip(&chunked) {
                assert_eq!(a.to_bits(), b.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn chunked_decode_is_bit_identical_to_scalar_path() {
        for len in [0usize, 1, 2, 3, 255, 256, 257, 511, 512, 513, 1000] {
            let src = mixed_values(len, 0xBF16 + len as u64);
            let packed = pack_half(&src, f32_to_bf16);
            let scalar = unpack_half(&packed, len, f32_from_bf16);
            let mut chunked = vec![0.0f32; len];
            bf16_decode_slice_into(&packed, &mut chunked);
            for (a, b) in scalar.iter().zip(&chunked) {
                assert_eq!(a.to_bits(), b.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn chunked_encode_reuses_capacity() {
        let src = mixed_values(700, 7);
        let mut out = Vec::new();
        bf16_encode_slice_into(&src, &mut out);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        bf16_encode_slice_into(&src, &mut out);
        assert_eq!(out.capacity(), cap);
        assert_eq!(out.as_ptr(), ptr);
    }
}
