//! Element-wise operations on matrices and slices.
//!
//! These cover everything the explicit-backprop layers in `distgnn-nn`
//! need: saxpy-style updates, Hadamard products, scaling, ReLU and its
//! mask, and row-broadcast bias addition.

use crate::matmul::ROW_BLOCK;
use crate::Matrix;
use rayon::prelude::*;

/// `y += alpha * x` over raw slices.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `a += b`, element-wise.
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "add_assign shape mismatch");
    axpy(1.0, b.as_slice(), a.as_mut_slice());
}

/// `a -= b`, element-wise.
pub fn sub_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "sub_assign shape mismatch");
    axpy(-1.0, b.as_slice(), a.as_mut_slice());
}

/// `a *= s` for every element.
pub fn scale(a: &mut Matrix, s: f32) {
    a.as_mut_slice().iter_mut().for_each(|x| *x *= s);
}

/// Element-wise (Hadamard) product `a ⊙ b`.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "hadamard shape mismatch");
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x * y)
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// ReLU applied out of place.
pub fn relu(a: &Matrix) -> Matrix {
    let data = a.as_slice().iter().map(|&x| x.max(0.0)).collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// In-place ReLU, parallel over rows for large inputs.
pub fn relu_inplace(a: &mut Matrix) {
    a.as_mut_slice()
        .par_chunks_mut(4096)
        .for_each(|chunk| chunk.iter_mut().for_each(|x| *x = x.max(0.0)));
}

/// ReLU into a caller-owned buffer of the same shape; allocation-free.
pub fn relu_into(a: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), out.shape(), "relu_into shape mismatch");
    out.as_mut_slice()
        .par_chunks_mut(4096)
        .zip(a.as_slice().par_chunks(4096))
        .for_each(|(o, src)| {
            for (oi, &x) in o.iter_mut().zip(src) {
                *oi = x.max(0.0);
            }
        });
}

/// Backward of ReLU: `grad_in = grad_out ⊙ (pre_activation > 0)`.
pub fn relu_backward(grad_out: &Matrix, pre_activation: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(grad_out.rows(), grad_out.cols());
    relu_backward_into(grad_out, pre_activation, &mut out);
    out
}

/// [`relu_backward`] into a caller-owned buffer; allocation-free.
pub fn relu_backward_into(grad_out: &Matrix, pre_activation: &Matrix, out: &mut Matrix) {
    assert_eq!(grad_out.shape(), pre_activation.shape());
    assert_eq!(grad_out.shape(), out.shape(), "relu_backward_into shape mismatch");
    out.as_mut_slice()
        .par_chunks_mut(4096)
        .zip(grad_out.as_slice().par_chunks(4096))
        .zip(pre_activation.as_slice().par_chunks(4096))
        .for_each(|((o, g), z)| {
            for ((oi, &gi), &zi) in o.iter_mut().zip(g).zip(z) {
                *oi = if zi > 0.0 { gi } else { 0.0 };
            }
        });
}

/// Adds the bias row vector to every row of `a`, one pool task per
/// block of `ROW_BLOCK` (64) rows, the matmul kernel's grain.
///
/// # Panics
/// Panics if `bias.len() != a.cols()`.
pub fn add_bias(a: &mut Matrix, bias: &[f32]) {
    let rows = a.rows();
    add_bias_prefix(a, rows, bias);
}

/// [`add_bias`] over the first `rows` rows only — the prefix twin used
/// by the serving batch executor alongside
/// [`crate::matmul_prefix_into`]. Per-row arithmetic is identical to
/// [`add_bias`], so prefix rows stay bit-identical to the full form.
///
/// # Panics
/// Panics if `bias.len() != a.cols()` or `rows > a.rows()`.
pub fn add_bias_prefix(a: &mut Matrix, rows: usize, bias: &[f32]) {
    assert_eq!(bias.len(), a.cols(), "bias length mismatch");
    assert!(rows <= a.rows(), "add_bias_prefix: {rows} rows exceed buffer {}", a.rows());
    let cols = a.cols();
    a.as_mut_slice()[..rows * cols]
        .par_chunks_mut(ROW_BLOCK * cols.max(1))
        .for_each(|block| block.chunks_mut(cols.max(1)).for_each(|row| axpy(1.0, bias, row)));
}

/// Column sums of `a` — the bias gradient in a linear layer.
pub fn column_sums(a: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0; a.cols()];
    column_sums_into(a, &mut out);
    out
}

/// [`column_sums`] into a caller-owned buffer; allocation-free.
///
/// # Panics
/// Panics if `out.len() != a.cols()`.
pub fn column_sums_into(a: &Matrix, out: &mut [f32]) {
    assert_eq!(out.len(), a.cols(), "column_sums_into length mismatch");
    out.iter_mut().for_each(|x| *x = 0.0);
    for row in a.rows_iter() {
        axpy(1.0, row, out);
    }
}

/// Divides each row by the corresponding positive scalar in `denoms`;
/// rows with `denoms[i] == 0` are left untouched (isolated vertices in
/// GCN degree normalization).
pub fn div_rows_by(a: &mut Matrix, denoms: &[f32]) {
    assert_eq!(denoms.len(), a.rows(), "denominator count mismatch");
    let cols = a.cols();
    a.as_mut_slice()
        .par_chunks_mut(cols)
        .zip(denoms.par_iter())
        .for_each(|(row, &d)| {
            if d != 0.0 {
                let inv = 1.0 / d;
                row.iter_mut().for_each(|x| *x *= inv);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn add_sub_round_trip() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::full(2, 2, 0.5);
        add_assign(&mut a, &b);
        sub_assign(&mut a, &b);
        assert_eq!(a, Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn scale_multiplies_everything() {
        let mut a = Matrix::full(2, 3, 2.0);
        scale(&mut a, -1.5);
        assert!(a.as_slice().iter().all(|&x| x == -3.0));
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(hadamard(&a, &b).into_vec(), vec![4.0, 10.0, 18.0]);
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let a = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        assert_eq!(relu(&a).into_vec(), vec![0.0, 0.0, 2.0, 0.0]);
        let mut b = a.clone();
        relu_inplace(&mut b);
        assert_eq!(b, relu(&a));
    }

    #[test]
    fn relu_backward_masks_by_preactivation() {
        let z = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 5.0]);
        let g = Matrix::from_vec(1, 3, vec![10.0, 10.0, 10.0]);
        assert_eq!(relu_backward(&g, &z).into_vec(), vec![0.0, 0.0, 10.0]);
    }

    #[test]
    fn bias_broadcasts_across_rows() {
        let mut a = Matrix::zeros(3, 2);
        add_bias(&mut a, &[1.0, -2.0]);
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -2.0]);
        }
    }

    #[test]
    fn bias_covers_every_row_block_and_zero_width() {
        // 150 rows: two full row blocks and a tail.
        let mut a = Matrix::from_fn(150, 3, |i, j| (i * 3 + j) as f32);
        add_bias(&mut a, &[0.5, 1.0, -1.0]);
        for i in 0..150 {
            let want: Vec<f32> =
                [0.5, 1.0, -1.0].iter().enumerate().map(|(j, b)| (i * 3 + j) as f32 + b).collect();
            assert_eq!(a.row(i), want.as_slice(), "row {i}");
        }
        let mut empty = Matrix::zeros(4, 0);
        add_bias(&mut empty, &[]);
        add_bias_prefix(&mut empty, 2, &[]);
    }

    #[test]
    fn column_sums_match_hand_value() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(column_sums(&a), vec![4.0, 6.0]);
    }

    #[test]
    fn div_rows_skips_zero_denominators() {
        let mut a = Matrix::from_vec(2, 2, vec![2.0, 4.0, 3.0, 5.0]);
        div_rows_by(&mut a, &[2.0, 0.0]);
        assert_eq!(a.row(0), &[1.0, 2.0]);
        assert_eq!(a.row(1), &[3.0, 5.0]);
    }
}
