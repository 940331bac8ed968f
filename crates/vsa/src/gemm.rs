//! Dense GEMM kernels.
//!
//! [`matmul`]/[`matvec`] are the arithmetic the AdArray performs in NN
//! mode. The architecture tests cross-check the systolic microsimulator's
//! outputs against [`matmul`]; [`matvec`] runs the spectral codebook's
//! similarity scans.
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
