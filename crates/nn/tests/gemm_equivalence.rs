//! Equivalence properties for the blocked GEMM engine: on random shapes
//! and data — including degenerate zero dimensions and entries the
//! reference's zero-skip branch sees — `matmul_fast` returns
//! **bit-identical** output to the reference oracle. Exactness (not
//! tolerance) is the contract: the fast kernel reorders nothing, it only
//! tiles. Each random property runs over seeds `0..CASES`; a failure
//! names its seed.

use nsflow_nn::gemm::{matmul, matmul_fast, matvec};
use nsflow_tensor::rng::StdRng;

/// Cases per property.
const CASES: u64 = 64;

/// Random matrix entries on a 1/8 grid with ~11% exact zeros, so the
/// reference's `aip == 0.0` skip branch is exercised and products stay
/// exactly representable.
fn matrix(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let v = rng.gen_range(-100i32..100);
            if v % 9 == 0 {
                0.0
            } else {
                v as f32 / 8.0
            }
        })
        .collect()
}

#[test]
fn matmul_fast_matches_reference() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (m, k, n) = (
            rng.gen_range(0usize..20),
            rng.gen_range(0usize..20),
            rng.gen_range(0usize..20),
        );
        let (a, b) = (matrix(rng, m * k), matrix(rng, k * n));
        let expected = matmul(&a, &b, m, k, n);
        assert_eq!(matmul_fast(&a, &b, m, k, n), expected, "seed {seed}");
    }
}

/// Deterministic pseudo-random data for the large-shape cases the random
/// ranges above do not reach: sizes that cross the `K_TILE` boundary.
fn lcg_data(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Grid-quantized values with ~10% exact zeros.
            let v = ((state >> 40) as i32 % 64) as f32 / 16.0;
            if (state >> 33).is_multiple_of(10) {
                0.0
            } else {
                v
            }
        })
        .collect()
}

#[test]
fn matmul_fast_exact_across_k_tile() {
    // 96×300×64 crosses the K_TILE = 256 boundary, so the tiled reduction
    // visits two panels per output row.
    let (m, k, n) = (96usize, 300usize, 64usize);
    let a = lcg_data(m * k, 7);
    let b = lcg_data(k * n, 8);
    assert_eq!(matmul_fast(&a, &b, m, k, n), matmul(&a, &b, m, k, n));
}

#[test]
fn degenerate_dimensions_are_exact() {
    // m = 0: empty output.
    assert_eq!(matmul_fast(&[], &[1.0, 2.0], 0, 1, 2), Vec::<f32>::new());
    // k = 0: all-zero m×n output (no accumulation happens).
    assert_eq!(matmul_fast(&[], &[], 3, 0, 2), vec![0.0; 6]);
    assert_eq!(matmul(&[], &[], 3, 0, 2), vec![0.0; 6]);
    // n = 0: empty output.
    assert_eq!(matmul_fast(&[1.0, 2.0], &[], 2, 1, 0), Vec::<f32>::new());
    // matvec with m = 0 and k = 0.
    assert_eq!(matvec(&[], &[1.0], 0, 1), Vec::<f32>::new());
    assert_eq!(matvec(&[], &[], 2, 0), vec![0.0; 2]);
}
