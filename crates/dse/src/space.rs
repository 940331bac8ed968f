//! Design-space accounting (paper Tab. II).
//!
//! With a PE budget of `2^m`, the *original* cross-coupled space is
//!
//! - hardware: all power-of-two `(H, W)` with `H·W ≤ 2^m` —
//!   `m·(m+1)/2` pairs,
//! - mapping: each of the `k` dataflow nodes independently picks how many
//!   of the `N − 1` possible sub-array assignments it uses — `(N−1)^k`
//!   for each `N`,
//!
//! which at `m = 10` and NVSA-scale node counts reaches ~10³⁰⁰. The DAG's
//! two-phase decoupling reduces it to Phase I's pruned
//! `(H, W) × N̄_l` sweep plus Phase II's `Iter × #layers` refinement —
//! ~10³. Sizes are reported as log₁₀ to keep the arithmetic exact far
//! beyond `u64`.

/// One row of the Tab. II comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceComparison {
    /// log₁₀ of the original (exhaustive) design-space size.
    pub original_log10: f64,
    /// log₁₀ of the two-phase DSE's evaluated-point count.
    pub dag_log10: f64,
}

impl SpaceComparison {
    /// Orders-of-magnitude reduction (difference of the logs).
    #[must_use]
    pub fn reduction_magnitudes(&self) -> f64 {
        self.original_log10 - self.dag_log10
    }
}

/// Number of power-of-two `(H, W)` pairs with `H·W ≤ 2^m`:
/// `Σ_{a=0..m} (m − a + 1) = (m+1)(m+2)/2`, or the paper's `m(m+1)/2`
/// when degenerate 1-sized axes are excluded. We follow the paper.
#[must_use]
pub fn hw_config_count(m: u32) -> u64 {
    (m as u64) * (m as u64 + 1) / 2
}

/// log₁₀ of the original mapping-space size for one `(H, W)` with `N`
/// sub-arrays and `k` mapped nodes: `(N − 1)^k`.
#[must_use]
pub(crate) fn mapping_space_log10(n_subarrays: usize, nodes: usize) -> f64 {
    if n_subarrays <= 2 {
        return 0.0; // (N−1)^k = 1 possibility at N ≤ 2
    }
    (nodes as f64) * ((n_subarrays - 1) as f64).log10()
}

/// log₁₀ of the full original space: hardware configs × the mapping space
/// summed over every reachable `N` (dominated by the largest term; we sum
/// exactly in log domain).
#[must_use]
pub(crate) fn original_space_log10(m: u32, nodes: usize) -> f64 {
    // For each (H, W) pair, N = 2^m / (H·W) ranges over 2^0..2^m as the
    // pair sweeps; enumerate power-of-two pairs directly.
    let mut log_sum = f64::NEG_INFINITY;
    for a in 0..=m {
        for b in 0..=(m - a) {
            let n = 1u64 << (m - a - b);
            let term = mapping_space_log10(n as usize, nodes);
            log_sum = log_add(log_sum, term);
        }
    }
    // Total = (#HW configs) × (Σ_N mapping spaces); in log domain the sum
    // over N was accumulated above.
    (hw_config_count(m).max(1) as f64).log10() + log_sum.max(0.0)
}

/// log₁₀ of the two-phase DSE's evaluated points: Phase I sweeps the
/// pruned `(H, W)` pairs times the `N̄_l` split (≤ `N`), Phase II adds
/// `iter_max × layers`.
#[must_use]
pub(crate) fn dag_space_log10(
    pruned_hw_pairs: usize,
    max_splits: usize,
    iter_max: usize,
    layers: usize,
) -> f64 {
    let points = pruned_hw_pairs * max_splits + iter_max * layers;
    (points.max(1) as f64).log10()
}

/// Builds the Tab. II row for a PE exponent `m`, `nodes` mapped nodes
/// (NN + VSA), and the DSE parameters.
#[must_use]
pub fn table2_row(
    m: u32,
    nodes: usize,
    pruned_hw_pairs: usize,
    max_splits: usize,
    iter_max: usize,
    layers: usize,
) -> SpaceComparison {
    SpaceComparison {
        original_log10: original_space_log10(m, nodes),
        dag_log10: dag_space_log10(pruned_hw_pairs, max_splits, iter_max, layers),
    }
}

/// `log₁₀(10^a + 10^b)` without overflow.
fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + 10f64.powf(lo - hi)).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hw_config_count_matches_paper_formula() {
        assert_eq!(hw_config_count(10), 55);
        assert_eq!(hw_config_count(1), 1);
    }

    #[test]
    fn mapping_space_grows_with_nodes() {
        assert!(mapping_space_log10(16, 100) > mapping_space_log10(16, 10));
        assert_eq!(mapping_space_log10(2, 50), 0.0);
    }

    #[test]
    fn original_space_reaches_paper_scale() {
        // The paper quotes ~10³⁰⁰ for m = 10 with NVSA-scale node counts
        // (hundreds of nodes in the dataflow loop).
        let log = original_space_log10(10, 100);
        assert!(log > 100.0, "log10 = {log}");
        let log_big = original_space_log10(10, 300);
        assert!(log_big > 250.0, "log10 = {log_big}");
    }

    #[test]
    fn dag_space_is_about_1e3() {
        // Phase I: ~30 pruned pairs × ≤16 splits, Phase II: 16 × 20 layers.
        let log = dag_space_log10(30, 16, 16, 20);
        assert!((2.0..4.0).contains(&log), "log10 = {log}");
    }

    #[test]
    fn reduction_is_hundreds_of_magnitudes() {
        let row = table2_row(10, 300, 30, 16, 16, 20);
        assert!(
            row.reduction_magnitudes() > 100.0,
            "reduction {}",
            row.reduction_magnitudes()
        );
    }

    #[test]
    fn log_add_is_accurate() {
        // 10^2 + 10^2 = 200 → log10 ≈ 2.301.
        assert!((log_add(2.0, 2.0) - 200f64.log10()).abs() < 1e-9);
        assert_eq!(log_add(f64::NEG_INFINITY, 3.0), 3.0);
    }
}
