//! Dense GEMM kernels.
//!
//! [`matmul`]/[`matvec`] are the arithmetic the AdArray performs in NN
//! mode. The architecture tests cross-check the systolic microsimulator's
//! outputs against [`matmul`]; [`matvec`] runs the spectral codebook's
//! similarity scans. It takes its matrix column-major, so it advances a
//! tile of eight rows' dot products at once, one column per element of
//! `x`, with the eight sums held in registers, while each row still adds
//! its products in order from the first: the same sums, bit for bit, as
//! a row-by-row `Iterator::sum`, without one long serial chain of adds
//! per row.
//!
//! Both count into the `nn.gemm_reference_calls` and `nn.flops_reference`
//! counters, named for the NN mode they model; the benchmark reports and
//! the committed bench baselines key on those names.

use nsflow_telemetry as telemetry;

/// `C = A·B` for row-major `A (m×k)`, `B (k×n)`, producing row-major
/// `C (m×n)`.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
#[must_use]
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    telemetry::counter!("nn.gemm_reference_calls").incr();
    telemetry::counter!("nn.flops_reference").add(2 * (m as u64) * (k as u64) * (n as u64));
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += aip * bv;
            }
        }
    }
    c
}

/// `y = A·x` for `A (m×k)` stored column-major (`A[i][p]` at
/// `a[p * m + i]`) and vector `x (k)`.
///
/// `y[i]` is bit-identical to
/// `A[i].iter().zip(x).map(|(a, x)| a * x).sum::<f32>()`: the same
/// products, added left to right from the same starting value.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
#[must_use]
pub fn matvec(a: &[f32], x: &[f32], m: usize, k: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(x.len(), k, "x must have length k");
    telemetry::counter!("nn.gemm_reference_calls").incr();
    telemetry::counter!("nn.flops_reference").add(2 * (m as u64) * (k as u64));
    let seed = std::iter::empty::<f32>().sum::<f32>();
    let mut y = vec![seed; m];
    for (tile, first) in y.chunks_mut(ROW_TILE).zip((0..).step_by(ROW_TILE)) {
        if tile.len() == ROW_TILE {
            // A full tile's sums live in a fixed-size local the compiler
            // keeps in registers for the whole pass over the columns.
            let mut sums = [seed; ROW_TILE];
            accumulate(&mut sums, a, x, m, first);
            tile.copy_from_slice(&sums);
        } else {
            accumulate(tile, a, x, m, first);
        }
    }
    y
}

/// Rows [`matvec`] accumulates at once.
const ROW_TILE: usize = 8;

/// `sums[i] += A[first + i][p] · x[p]` for `p = 0, 1, …`, in that order,
/// over the column-major `a` of `rows` rows.
#[inline(always)]
fn accumulate(sums: &mut [f32], a: &[f32], x: &[f32], rows: usize, first: usize) {
    let width = sums.len();
    for (column, &xp) in a.chunks_exact(rows).zip(x) {
        for (sum, &ap) in sums.iter_mut().zip(&column[first..first + width]) {
            *sum += ap * xp;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_by_two() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        assert_eq!(matmul(&a, &b, 2, 2, 2), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_preserves() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [9.0, 8.0, 7.0, 6.0];
        assert_eq!(matmul(&a, &b, 2, 2, 2), b.to_vec());
    }

    #[test]
    fn rectangular_dims() {
        // (1×3)·(3×2)
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        assert_eq!(matmul(&a, &b, 1, 3, 2), vec![14.0, 32.0]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let a_columns = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        let x = [7.0, 8.0, 9.0];
        assert_eq!(matvec(&a_columns, &x, 2, 3), matmul(&a, &x, 2, 3, 1));
    }

    /// Every row, in full tiles and short last tiles alike, is bit for
    /// bit the left-to-right `Iterator::sum` of its products, signed
    /// zeros included.
    #[test]
    fn matvec_rows_are_bit_identical_to_row_sums() {
        let mut rng = nsflow_tensor::rng::StdRng::seed_from_u64(9);
        for m in [1usize, 3, 8, 9, 16, 21] {
            let k = 37;
            let mut rows: Vec<Vec<f32>> = (0..m)
                .map(|_| (0..k).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            rows[0] = vec![-0.0; k];
            let x: Vec<f32> = (0..k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let columns: Vec<f32> = (0..k)
                .flat_map(|p| rows.iter().map(move |r| r[p]))
                .collect();
            let expected: Vec<u32> = rows
                .iter()
                .map(|r| r.iter().zip(&x).map(|(a, b)| a * b).sum::<f32>().to_bits())
                .collect();
            let got: Vec<u32> = matvec(&columns, &x, m, k)
                .iter()
                .map(|y| y.to_bits())
                .collect();
            assert_eq!(got, expected, "m = {m}");
        }
    }

    #[test]
    fn degenerate_dimensions_are_exact() {
        // m = 0 and n = 0: empty output.
        assert_eq!(matmul(&[], &[1.0, 2.0], 0, 1, 2), Vec::<f32>::new());
        assert_eq!(matmul(&[1.0, 2.0], &[], 2, 1, 0), Vec::<f32>::new());
        // k = 0: all-zero m×n output (no accumulation happens).
        assert_eq!(matmul(&[], &[], 3, 0, 2), vec![0.0; 6]);
        // matvec with m = 0 and k = 0.
        assert_eq!(matvec(&[], &[1.0], 0, 1), Vec::<f32>::new());
        assert_eq!(matvec(&[], &[], 2, 0), vec![0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "A must be m×k")]
    fn dimension_checks() {
        let _ = matmul(&[1.0], &[1.0], 2, 2, 2);
    }
}
