//! Dense matrix multiplication: one register-blocked kernel behind
//! every product form.
//!
//! GraphSAGE's MLP stage needs three product forms, one for the forward
//! pass and two for backprop, and serving adds a prefix form:
//!
//! - `C = A · B`          (forward: activations × weights)
//! - `C = Aᵀ · B`         (weight gradient: activationsᵀ × output-grad)
//! - `C = A · Bᵀ`         (input gradient: output-grad × weightsᵀ)
//! - `C[..r] = A[..r] · B` (serving: the occupied rows of a batch buffer)
//!
//! All of them run one sequential kernel over *strided* operands: an
//! operand element `(i, j)` lives at `data[i * rs + j * cs]`, so a
//! transpose swaps strides instead of copying. The forms differ only in
//! those strides:
//!
//! | form | A `(rs, cs)` | B `(rs, cs)` |
//! |---|---|---|
//! | `A · B`, prefix | `(k, 1)` | `(n, 1)`: rows read in place |
//! | `Aᵀ · B` | `(1, k)` | `(n, 1)`: rows read in place |
//! | `A · Bᵀ` | `(k, 1)` | `(1, k)`: packed into an `NR`-wide panel |
//!
//! # The kernel
//!
//! C is computed in `MR x NR` (4 x 16) tiles held in a `[[f32; NR]; MR]`
//! accumulator, eight 256-bit registers under AVX2. For each `p` a tile
//! reads one `NR`-wide row of B and `MR` scalars of A, then does
//! `MR * NR` multiplies and adds. The reduction is cut into `KC`-long
//! blocks so the B panel stays in L1; the running sums are carried
//! through C between blocks (stored and reloaded, which is exact). A
//! column tail narrower than `NR` is packed into a zero-padded panel.
//! A product with fewer than `MR` rows whose B rows are read in place
//! takes a plain row loop instead, which is cheaper than a partial tile
//! for the 1-row products of the serving path.
//!
//! Work is split across the pool in blocks of `ROW_BLOCK` (64) rows of C.
//! `Aᵀ · B` instead reduces 1024-row blocks of its inputs into one
//! partial each and merges the partials in block order.
//!
//! # Dispatch
//!
//! The kernel body is generic Rust compiled twice: for the build's
//! baseline target and under `#[target_feature(enable = "avx2")]`.
//! `is_x86_feature_detected!` picks the AVX2 copy at run time, so one
//! binary runs on any x86-64 and uses 256-bit vectors where they exist.
//!
//! # Bit-identity
//!
//! Every output element is the p-ascending naive sum: start at `0.0`,
//! then add `a(i, p) * b(p, j)` for `p = 0, 1, …, k - 1`, rounding each
//! product before adding it. The kernel never reorders that sum and
//! never fuses the multiply into the add: it enables `avx2` but not
//! `fma`, and uses no `mul_add`. Both compiled copies, every tile shape
//! and every prefix length therefore produce the bits of the naive
//! triple loop. `Aᵀ · B` is that sum within each 1024-row block, merged
//! as `((0 + part_0) + part_1) + …`.
//!
//! Each product has an `_into` twin writing into a caller-owned output
//! so steady-state training epochs allocate nothing; the allocating
//! forms are thin wrappers. The kernel itself never touches the heap.

use crate::Matrix;
use rayon::prelude::*;

/// Rows of a register tile.
const MR: usize = 4;
/// Columns of a register tile: two 256-bit vectors of `f32`.
const NR: usize = 16;
/// Reduction length per block: a `KC x NR` panel of B is 16 KiB.
const KC: usize = 256;
/// Rows of C per pool task. The bias pass in [`crate::ops`] uses the
/// same grain.
pub(crate) const ROW_BLOCK: usize = 64;
/// Input rows per `Aᵀ · B` partial.
const AT_B_BLOCK: usize = 1024;

/// A read-only operand addressed by strides: element `(i, j)` is
/// `data[i * rs + j * cs]`.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Strided<'a> {
    /// A row-major matrix as it is stored.
    fn rows(m: &'a Matrix) -> Self {
        Strided { data: m.as_slice(), rs: m.cols(), cs: 1 }
    }

    /// A row-major matrix read as its transpose.
    fn transposed(m: &'a Matrix) -> Self {
        Strided { data: m.as_slice(), rs: 1, cs: m.cols() }
    }

    /// The operand with its first `i0` rows dropped.
    fn skip_rows(self, i0: usize) -> Self {
        Strided { data: &self.data[i0 * self.rs..], ..self }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// `C = A · B`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut c);
    c
}

/// `C = A · B` into a caller-owned `m x n` output (contents
/// overwritten). Allocation-free.
///
/// # Panics
/// Panics if `a.cols() != b.rows()` or `c` has the wrong shape.
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions {} and {} differ",
        a.cols(),
        b.rows()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(c.shape(), (m, n), "matmul_into: output shape mismatch");
    gemm_par(Strided::rows(a), Strided::rows(b), c.as_mut_slice(), m, n, k);
}

/// `C = A · B` over the first `rows` rows only: `c[0..rows] = a[0..rows] · b`.
///
/// The serving batch executor keeps one `max_batch x k` input buffer and
/// one `max_batch x n` output buffer and runs every (variable-size) batch
/// through them; this entry point computes just the occupied prefix, so
/// steady-state batches of any size `<= max_batch` are allocation-free.
/// A prefix row is bit-identical to the same row of [`matmul_into`]:
/// every element is the p-ascending sum whatever the row count, tile
/// or row loop (see the module docs).
///
/// # Panics
/// Panics if `a.cols() != b.rows()`, `rows` exceeds either buffer, or
/// `c.cols() != b.cols()`.
pub fn matmul_prefix_into(a: &Matrix, rows: usize, b: &Matrix, c: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_prefix: inner dimensions {} and {} differ",
        a.cols(),
        b.rows()
    );
    let (k, n) = (a.cols(), b.cols());
    assert!(rows <= a.rows(), "matmul_prefix: {rows} rows exceed input buffer {}", a.rows());
    assert!(rows <= c.rows(), "matmul_prefix: {rows} rows exceed output buffer {}", c.rows());
    assert_eq!(c.cols(), n, "matmul_prefix: output width mismatch");
    gemm_par(Strided::rows(a), Strided::rows(b), c.as_mut_slice(), rows, n, k);
}

/// `C = Aᵀ · B` without materializing the transpose.
///
/// `A` is `m x k`, `B` is `m x n`, the result is `k x n`. This is the
/// weight-gradient product, where `m = |V|` is large and `k, n` are the
/// (small) layer widths, so we parallelize the reduction over row blocks
/// of `A`/`B` and sum per-block partials.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    let mut scratch = Vec::new();
    matmul_at_b_into(a, b, &mut out, &mut scratch);
    out
}

/// `C = Aᵀ · B` into a caller-owned `k x n` output. `scratch` holds the
/// per-block partial sums; it is grown on first use and reused
/// thereafter, so a retained scratch makes steady-state calls
/// allocation-free.
///
/// # Panics
/// Panics if `a.rows() != b.rows()` or `out` has the wrong shape.
pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, out: &mut Matrix, scratch: &mut Vec<f32>) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at_b: row counts {} and {} differ",
        a.rows(),
        b.rows()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(out.shape(), (k, n), "matmul_at_b_into: output shape mismatch");
    if k * n == 0 {
        return;
    }
    let n_blocks = m.div_ceil(AT_B_BLOCK).max(1);
    // Every partial is overwritten by the kernel, so stale contents are fine.
    scratch.resize(n_blocks * k * n, 0.0);
    scratch.par_chunks_mut(k * n).enumerate().for_each(|(blk, part)| {
        let lo = blk * AT_B_BLOCK;
        let hi = (lo + AT_B_BLOCK).min(m);
        let a_blk = Strided { data: &a.as_slice()[lo * k..hi * k], ..Strided::transposed(a) };
        let b_blk = Strided { data: &b.as_slice()[lo * n..hi * n], ..Strided::rows(b) };
        gemm(a_blk, b_blk, part, k, n, hi - lo);
    });
    out.fill_zero();
    let o = out.as_mut_slice();
    for part in scratch.chunks_exact(k * n) {
        for (c_el, &p_el) in o.iter_mut().zip(part) {
            *c_el += p_el;
        }
    }
}

/// `C = A · Bᵀ` without materializing the transpose.
///
/// `A` is `m x k`, `B` is `n x k`, the result is `m x n`.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    matmul_a_bt_into(a, b, &mut c);
    c
}

/// `C = A · Bᵀ` into a caller-owned `m x n` output (contents
/// overwritten). Allocation-free.
///
/// # Panics
/// Panics if `a.cols() != b.cols()` or `c` has the wrong shape.
pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_a_bt: inner dimensions {} and {} differ",
        a.cols(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    assert_eq!(c.shape(), (m, n), "matmul_a_bt_into: output shape mismatch");
    gemm_par(Strided::rows(a), Strided::transposed(b), c.as_mut_slice(), m, n, k);
}

/// `c[i * n + j] = Σ_p a(i, p) · b(p, j)` for `i < m`, `j < n`,
/// `p < k`, summed p-ascending from `0.0` (see the module docs). Every
/// element of `c[..m * n]` is overwritten. Runs on the calling thread,
/// with the AVX2 body when the CPU has it.
fn gemm(a: Strided, b: Strided, c: &mut [f32], m: usize, n: usize, k: usize) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked on the line above.
        unsafe { gemm_avx2(a, b, c, m, n, k) };
        return;
    }
    gemm_body(a, b, c, m, n, k);
}

/// [`gemm_body`] compiled with 256-bit vectors.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(a: Strided, b: Strided, c: &mut [f32], m: usize, n: usize, k: usize) {
    gemm_body(a, b, c, m, n, k);
}

/// The kernel body behind [`gemm`]; `#[inline(always)]` so each caller
/// compiles its own copy for its own target features.
#[inline(always)]
fn gemm_body(a: Strided, b: Strided, c: &mut [f32], m: usize, n: usize, k: usize) {
    let c = &mut c[..m * n];
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    if m < MR && b.cs == 1 {
        row_loop(a, b, c, m, n, k);
        return;
    }
    // Filled on first use: only strided B and column tails are packed.
    let mut panel: Option<[f32; KC * NR]> = None;
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            let (bp, b_rs): (&[f32], usize) = if b.cs == 1 && nr == NR {
                (&b.data[p0 * b.rs + j0..], b.rs)
            } else {
                let panel = panel.get_or_insert([0.0; KC * NR]);
                pack(b, p0, kc, j0, nr, panel);
                (&panel[..], NR)
            };
            let at = Tile { p0, kc, j0, nr, first: p0 == 0 };
            let mut i0 = 0;
            while i0 + MR <= m {
                tile::<MR>(a, i0, bp, b_rs, c, n, at);
                i0 += MR;
            }
            match m - i0 {
                1 => tile::<1>(a, i0, bp, b_rs, c, n, at),
                2 => tile::<2>(a, i0, bp, b_rs, c, n, at),
                3 => tile::<3>(a, i0, bp, b_rs, c, n, at),
                _ => {}
            }
        }
    }
}

/// The plain `ikj` row loop, for products with fewer than [`MR`] rows
/// and B rows read in place. Same sums as the tiles, no packing or
/// tile set-up.
#[inline(always)]
fn row_loop(a: Strided, b: Strided, c: &mut [f32], m: usize, n: usize, k: usize) {
    for (i, c_row) in c.chunks_exact_mut(n).take(m).enumerate() {
        c_row.fill(0.0);
        for p in 0..k {
            let aip = a.at(i, p);
            let b_row = &b.data[p * b.rs..p * b.rs + n];
            for (c_el, &b_el) in c_row.iter_mut().zip(b_row) {
                *c_el += aip * b_el;
            }
        }
    }
}

/// Copies `b(p0 .. p0 + kc, j0 .. j0 + nr)` into `panel` with row
/// stride [`NR`], zero-filling columns `nr..NR`.
#[inline(always)]
fn pack(b: Strided, p0: usize, kc: usize, j0: usize, nr: usize, panel: &mut [f32; KC * NR]) {
    // Column-outer: a transposed B is then read along its rows.
    for jj in 0..NR {
        for p in 0..kc {
            panel[p * NR + jj] = if jj < nr { b.at(p0 + p, j0 + jj) } else { 0.0 };
        }
    }
}

/// Where one `R x NR` tile sits in the reduction and in C's columns.
#[derive(Clone, Copy)]
struct Tile {
    p0: usize,
    kc: usize,
    j0: usize,
    /// Columns of C the tile owns (the rest of the `NR` are padding).
    nr: usize,
    /// First reduction block: the sums start at `0.0` instead of C.
    first: bool,
}

/// Rows `i0 .. i0 + R` of C, columns `t.j0 .. t.j0 + t.nr`, over the
/// reduction block `t.p0 .. t.p0 + t.kc`. `b` holds that block's B rows
/// at stride `b_rs`, each at least `NR` wide.
#[inline(always)]
fn tile<const R: usize>(
    a: Strided,
    i0: usize,
    b: &[f32],
    b_rs: usize,
    c: &mut [f32],
    ldc: usize,
    t: Tile,
) {
    // C moves in and out through whole `[f32; NR]` rows: a copy of
    // runtime length into `acc` itself would keep it out of registers.
    let mut acc = [[0.0f32; NR]; R];
    if !t.first {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let mut row = [0.0f32; NR];
            let at = (i0 + r) * ldc + t.j0;
            row[..t.nr].copy_from_slice(&c[at..at + t.nr]);
            *acc_row = row;
        }
    }
    for p in 0..t.kc {
        let b_row: &[f32; NR] = b[p * b_rs..p * b_rs + NR].try_into().expect("NR-wide row");
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let a_el = a.at(i0 + r, t.p0 + p);
            for (acc_el, &b_el) in acc_row.iter_mut().zip(b_row) {
                *acc_el += a_el * b_el;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let row = *acc_row;
        let at = (i0 + r) * ldc + t.j0;
        c[at..at + t.nr].copy_from_slice(&row[..t.nr]);
    }
}

/// Runs [`gemm`] over blocks of [`ROW_BLOCK`] rows of C on the pool.
fn gemm_par(a: Strided, b: Strided, c: &mut [f32], m: usize, n: usize, k: usize) {
    if n == 0 {
        return;
    }
    c[..m * n].par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(blk, c_blk)| {
        let i0 = blk * ROW_BLOCK;
        gemm(a.skip_rows(i0), b, c_blk, c_blk.len() / n, n, k);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_TOL;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
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

    fn arange(r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |i, j| ((i * c + j) % 7) as f32 - 3.0)
    }

    #[test]
    fn matmul_matches_naive() {
        let a = arange(13, 9);
        let b = arange(9, 11);
        assert!(matmul(&a, &b).approx_eq(&naive(&a, &b), DEFAULT_TOL));
    }

    #[test]
    fn identity_is_neutral() {
        let a = arange(5, 5);
        let i = Matrix::identity(5);
        assert!(matmul(&a, &i).approx_eq(&a, DEFAULT_TOL));
        assert!(matmul(&i, &a).approx_eq(&a, DEFAULT_TOL));
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = arange(17, 6);
        let b = arange(17, 4);
        let expect = naive(&a.transpose(), &b);
        assert!(matmul_at_b(&a, &b).approx_eq(&expect, DEFAULT_TOL));
    }

    #[test]
    fn at_b_crosses_block_boundary() {
        // 1500 rows > one 1024-row block: exercises partial merging.
        let a = Matrix::from_fn(1500, 3, |i, j| ((i + j) % 5) as f32);
        let b = Matrix::from_fn(1500, 2, |i, j| ((i * 2 + j) % 3) as f32);
        let expect = naive(&a.transpose(), &b);
        assert!(matmul_at_b(&a, &b).approx_eq(&expect, 1e-2));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = arange(8, 6);
        let b = arange(10, 6);
        let expect = naive(&a, &b.transpose());
        assert!(matmul_a_bt(&a, &b).approx_eq(&expect, DEFAULT_TOL));
    }

    #[test]
    fn empty_dims_are_fine() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(matmul(&a, &b).shape(), (0, 3));
        let c = Matrix::zeros(4, 0);
        assert_eq!(matmul(&b.transpose(), &c).shape(), (3, 0));
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        let a = arange(7, 5);
        let b = arange(5, 6);
        let mut c = Matrix::full(7, 6, f32::NAN);
        matmul_into(&a, &b, &mut c);
        assert!(c.approx_eq(&naive(&a, &b), DEFAULT_TOL));

        let bt = arange(9, 5);
        let mut d = Matrix::full(7, 9, f32::NAN);
        matmul_a_bt_into(&a, &bt, &mut d);
        assert!(d.approx_eq(&naive(&a, &bt.transpose()), DEFAULT_TOL));

        let b2 = arange(7, 4);
        let mut e = Matrix::full(5, 4, f32::NAN);
        let mut scratch = Vec::new();
        matmul_at_b_into(&a, &b2, &mut e, &mut scratch);
        let expect = naive(&a.transpose(), &b2);
        assert!(e.approx_eq(&expect, DEFAULT_TOL));
        // Second call reuses the grown scratch and stays correct.
        matmul_at_b_into(&a, &b2, &mut e, &mut scratch);
        assert!(e.approx_eq(&expect, DEFAULT_TOL));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    /// Entries from a small grid with exact zeros of both signs mixed in.
    fn mixed(r: usize, c: usize, salt: usize) -> Matrix {
        Matrix::from_fn(r, c, |i, j| match (i * 31 + j * 17 + salt) % 11 {
            0 => 0.0,
            1 => -0.0,
            v => (v as f32 - 5.5) * 0.37 + (j as f32) * 1e-3,
        })
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {idx}: {g} vs {w}");
        }
    }

    /// Shapes crossing MR (4), NR (16) and KC (256).
    const SHAPES: [(usize, usize, usize); 7] = [
        (1, 5, 3),
        (3, 17, 16),
        (4, 16, 1),
        (5, 15, 33),
        (9, 257, 17),
        (66, 300, 40),
        (7, 512, 64),
    ];

    #[test]
    fn portable_and_avx2_bodies_agree_bitwise() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let avx2 = false;
        if !avx2 {
            eprintln!("CPU lacks AVX2: checking the portable body only");
        }
        for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
            let a = mixed(m, k, s);
            let b = mixed(k, n, s + 5);
            let (at, bt) = (a.transpose(), b.transpose());
            let want = naive(&a, &b);
            let forms = [
                ("a_b", Strided::rows(&a), Strided::rows(&b)),
                ("a_bt", Strided::rows(&a), Strided::transposed(&bt)),
                ("at_b", Strided::transposed(&at), Strided::rows(&b)),
            ];
            for (form, av, bv) in forms {
                let mut portable = Matrix::full(m, n, f32::NAN);
                gemm_body(av, bv, portable.as_mut_slice(), m, n, k);
                assert_bits_eq(&portable, &want, form);
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                if avx2 {
                    let mut wide = Matrix::full(m, n, f32::NAN);
                    // SAFETY: AVX2 support was detected above.
                    unsafe { gemm_avx2(av, bv, wide.as_mut_slice(), m, n, k) };
                    assert_bits_eq(&wide, &portable, form);
                }
            }
        }
    }
}
