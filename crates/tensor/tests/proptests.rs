//! Property-based tests for the tensor substrate.

use distgnn_tensor::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_at_b, matmul_at_b_into, matmul_into,
    matmul_prefix_into, softmax, Matrix,
};
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0;
            for p in 0..a.cols() {
                s += a[(i, p)] * b[(p, j)];
            }
            c[(i, j)] = s;
        }
    }
    c
}

/// The `Aᵀ · B` reference: the naive sum over each 1024-row block of
/// the inputs, the block partials then added to `0.0` in block order.
fn naive_at_b_blocked(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    for lo in (0..a.rows()).step_by(1024) {
        let hi = (lo + 1024).min(a.rows());
        for p in 0..a.cols() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for i in lo..hi {
                    s += a[(i, p)] * b[(i, j)];
                }
                c[(p, j)] += s;
            }
        }
    }
    c
}

/// A test operand entry: inexact fractions, so a reordered sum rounds
/// differently, with exact zeros of both signs mixed in.
fn entry(i: usize, j: usize, seed: u64) -> f32 {
    match (i * 7 + j * 3 + seed as usize) % 13 {
        0 => 0.0,
        1 => -0.0,
        v => (v as f32 - 6.5) * 0.37,
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn transpose_is_involutive(m in small_matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_agrees_with_naive(
        // Crosses the 4-row tile, the 16-column tile, the 64-row task
        // block and the 256-long reduction block.
        dims in (1usize..70, 1usize..300, 1usize..40),
        seed in 0u64..1000,
    ) {
        let (m, k, n) = dims;
        let a = Matrix::from_fn(m, k, |i, j| entry(i, j, seed));
        let b = Matrix::from_fn(k, n, |i, j| entry(j, i, seed + 5));
        prop_assert_eq!(bits(&matmul(&a, &b)), bits(&naive_matmul(&a, &b)));
    }

    #[test]
    fn transposed_forms_agree_with_explicit_transpose(
        // `m` crosses the 1024-row `Aᵀ · B` block.
        dims in (1usize..2100, 1usize..300, 1usize..20),
        seed in 0u64..1000,
    ) {
        let (m, k, n) = dims;
        let a = Matrix::from_fn(m, k, |i, j| entry(i, j, seed));
        let b = Matrix::from_fn(m, n, |i, j| entry(i, j, seed + 3));
        prop_assert_eq!(bits(&matmul_at_b(&a, &b)), bits(&naive_at_b_blocked(&a, &b)));

        let c = Matrix::from_fn(n, k, |i, j| entry(i, j, seed + 7));
        let abt = matmul_a_bt(&a, &c);
        prop_assert_eq!(bits(&abt), bits(&naive_matmul(&a, &c.transpose())));
    }

    #[test]
    fn matmul_into_variants_bit_identical_to_allocating(
        dims in (1usize..70, 1usize..300, 1usize..40),
        seed in 0u64..1000,
    ) {
        // Each `_into` form must produce exactly the allocating form's
        // bits, even writing over a stale (NaN-poisoned) buffer.
        let (m, k, n) = dims;
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3 + seed as usize) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 2 + seed as usize) % 13) as f32 - 6.0);

        let mut c = Matrix::full(m, n, f32::NAN);
        matmul_into(&a, &b, &mut c);
        prop_assert_eq!(&c, &matmul(&a, &b));

        // A prefix row has the bits of the same row of the full product.
        let rows = 1 + seed as usize % m;
        let mut pre = Matrix::full(m, n, f32::NAN);
        matmul_prefix_into(&a, rows, &b, &mut pre);
        prop_assert_eq!(&pre.as_slice()[..rows * n], &c.as_slice()[..rows * n]);

        let bt = Matrix::from_fn(n, k, |i, j| ((i + 2 * j + seed as usize) % 5) as f32);
        let mut abt = Matrix::full(m, n, f32::NAN);
        matmul_a_bt_into(&a, &bt, &mut abt);
        prop_assert_eq!(&abt, &matmul_a_bt(&a, &bt));

        let b2 = Matrix::from_fn(m, n, |i, j| (j as f32) * 0.25 - (i as f32));
        let mut atb = Matrix::full(k, n, f32::NAN);
        let mut scratch = vec![f32::NAN; 3];
        matmul_at_b_into(&a, &b2, &mut atb, &mut scratch);
        prop_assert_eq!(&atb, &matmul_at_b(&a, &b2));
    }

    #[test]
    fn matmul_distributes_over_addition(m in small_matrix(8)) {
        // (A + A) * I == 2 * (A * I)
        let i = Matrix::identity(m.cols());
        let mut a2 = m.clone();
        distgnn_tensor::ops::add_assign(&mut a2, &m);
        let lhs = matmul(&a2, &i);
        let mut rhs = matmul(&m, &i);
        distgnn_tensor::ops::scale(&mut rhs, 2.0);
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn softmax_rows_are_distributions(m in small_matrix(10)) {
        let s = softmax::softmax_rows(&m);
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
        }
    }

    #[test]
    fn gather_rows_preserves_content(m in small_matrix(10), perm_seed in 0usize..100) {
        let idx: Vec<usize> = (0..m.rows()).map(|i| (i + perm_seed) % m.rows()).collect();
        let g = m.gather_rows(&idx);
        for (dst, &src) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(dst), m.row(src));
        }
    }
}

mod half_props {
    use distgnn_tensor::half::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn bf16_round_trip_relative_error_bounded(x in -1e30f32..1e30) {
            let y = f32_from_bf16(f32_to_bf16(x));
            let err = if x == 0.0 { y.abs() } else { ((y - x) / x).abs() };
            // bf16 keeps 8 mantissa bits: rel err < 2^-8.
            prop_assert!(err <= 1.0 / 256.0 + 1e-9, "{x} -> {y} err {err}");
        }

        #[test]
        fn bf16_preserves_ordering(a in -1e20f32..1e20, b in -1e20f32..1e20) {
            // Monotone conversion: a <= b implies decode(enc(a)) <= decode(enc(b)).
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(f32_from_bf16(f32_to_bf16(lo)) <= f32_from_bf16(f32_to_bf16(hi)));
        }

        #[test]
        fn pack_unpack_identity_for_representable_values(
            vals in proptest::collection::vec(-100i32..100, 0..40),
        ) {
            // Small integers are exactly representable in bf16.
            let src: Vec<f32> = vals.iter().map(|&v| v as f32).collect();
            let b = unpack_half(&pack_half(&src, f32_to_bf16), src.len(), f32_from_bf16);
            prop_assert_eq!(&b, &src);
        }
    }
}
