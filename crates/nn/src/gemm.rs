//! Dense GEMM kernels: the reference oracles and the blocked engine.
//!
//! [`matmul`]/[`matvec`] are the reference kernels — the arithmetic the
//! AdArray performs in NN mode; the functional executor lowers
//! convolutions onto GEMM via im2col, and the architecture tests
//! cross-check the systolic microsimulator's outputs against them. They
//! are kept verbatim as the cross-check oracles for the fast path.
//!
//! [`matmul_fast`] is the engine kernel: cache-tiled over the reduction
//! dimension (one `K_TILE × n` panel of `B` stays hot across the rows of
//! `A`). Each output element is accumulated in the same `p = 0..k` order
//! as the reference, so it is **bit-identical** to the oracle — the
//! property the seeded tests in `crates/nn/tests/gemm_equivalence.rs` pin
//! down.

use nsflow_telemetry as telemetry;

/// Reduction-dimension tile of the blocked kernel: `K_TILE` rows of `B`
/// (a `K_TILE × n` panel) are streamed against every row of `A` before
/// moving on, which keeps the panel in cache across the rows.
/// Tiling the reduction loop does not change the per-element accumulation
/// order — tiles are visited in ascending `p` order and partial sums land
/// directly in `C` — so blocking preserves bit-exactness.
const K_TILE: usize = 256;

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

/// `y = A·x` for row-major `A (m×k)` and vector `x (k)`.
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
    (0..m)
        .map(|i| {
            a[i * k..(i + 1) * k]
                .iter()
                .zip(x)
                .map(|(av, xv)| av * xv)
                .sum()
        })
        .collect()
}

/// Blocked `C = A·B` — bit-identical to [`matmul`].
///
/// The reduction dimension is tiled by `K_TILE` so the active `B` panel
/// stays cached across the rows of `A`. Every `C[i][j]` receives its
/// `a[i][p]·b[p][j]` contributions in the same ascending-`p` order as the
/// reference (including the reference's skip of zero `a` entries).
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
#[must_use]
pub fn matmul_fast(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    telemetry::counter!("nn.gemm_fast_calls").incr();
    telemetry::counter!("nn.flops_fast").add(2 * (m as u64) * (k as u64) * (n as u64));
    let mut c = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return c;
    }
    for p0 in (0..k).step_by(K_TILE) {
        let p1 = (p0 + K_TILE).min(k);
        for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
            let ai = i * k;
            for p in p0..p1 {
                let aip = a[ai + p];
                if aip == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aip * bv;
                }
            }
        }
    }
    c
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
        let x = [7.0, 8.0, 9.0];
        assert_eq!(matvec(&a, &x, 2, 3), matmul(&a, &x, 2, 3, 1));
    }

    #[test]
    #[should_panic(expected = "A must be m×k")]
    fn dimension_checks() {
        let _ = matmul(&[1.0], &[1.0], 2, 2, 2);
    }
}
