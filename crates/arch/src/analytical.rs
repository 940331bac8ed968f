//! The paper's analytical runtime model, eqs. (1)–(5), plus trace-level
//! aggregation into per-loop timings.
//!
//! All results are **cycles** on the AdArray clock; the FPGA crate converts
//! them to wall-clock time at the deployment frequency (272 MHz on U250).

use nsflow_graph::DataflowGraph;
use nsflow_telemetry as telemetry;
use nsflow_trace::OpKind;

use crate::{simd, ArrayConfig, Mapping, VsaMapping};

/// Eq. (1): cycles for NN layer `(m, n, k)` on `n_l` sub-arrays of an
/// `H×W` geometry:
///
/// `t_l = (2H + W + m − 2) · ⌈⌈n/n_l⌉/H⌉ · ⌈k/W⌉`
///
/// # Panics
///
/// Panics in debug builds if `n_l == 0` or any dimension is zero.
#[must_use]
pub fn nn_layer_cycles(cfg: &ArrayConfig, n_l: usize, m: usize, n: usize, k: usize) -> u64 {
    debug_assert!(n_l > 0 && m > 0 && n > 0 && k > 0);
    let h = cfg.height() as u64;
    let w = cfg.width() as u64;
    let tile = 2 * h + w + m as u64 - 2;
    let n_tiles = div_ceil(div_ceil(n as u64, n_l as u64), h);
    let k_tiles = div_ceil(k as u64, w);
    tile * n_tiles * k_tiles
}

/// Eq. (3): spatial mapping of a VSA node — each of the `n_vec` vectors is
/// spread over all PEs of the `n_v` assigned sub-arrays:
///
/// `t = n_vec · ⌈d/(W·H·n_v)⌉ · T`, with `T = 3H + d − 1`.
#[must_use]
pub fn vsa_spatial_cycles(cfg: &ArrayConfig, n_v: usize, n_vec: usize, d: usize) -> u64 {
    debug_assert!(n_v > 0 && n_vec > 0 && d > 0);
    let h = cfg.height() as u64;
    let w = cfg.width() as u64;
    let t = 3 * h + d as u64 - 1;
    (n_vec as u64) * div_ceil(d as u64, w * h * n_v as u64) * t
}

/// Eq. (4): temporal mapping of a VSA node — vectors are distributed
/// across columns, each column streaming whole vectors:
///
/// `t = ⌈n_vec/W⌉ · ⌈d/(H·n_v)⌉ · T`, with `T = 3H + d − 1`.
#[must_use]
pub fn vsa_temporal_cycles(cfg: &ArrayConfig, n_v: usize, n_vec: usize, d: usize) -> u64 {
    debug_assert!(n_v > 0 && n_vec > 0 && d > 0);
    let h = cfg.height() as u64;
    let w = cfg.width() as u64;
    let t = 3 * h + d as u64 - 1;
    div_ceil(n_vec as u64, w) * div_ceil(d as u64, h * n_v as u64) * t
}

/// The faster of the two VSA mappings for one node, and which one it is.
#[must_use]
pub fn vsa_node_cycles(cfg: &ArrayConfig, n_v: usize, n_vec: usize, d: usize) -> (u64, VsaMapping) {
    let spatial = vsa_spatial_cycles(cfg, n_v, n_vec, d);
    let temporal = vsa_temporal_cycles(cfg, n_v, n_vec, d);
    if temporal <= spatial {
        (temporal, VsaMapping::Temporal)
    } else {
        (spatial, VsaMapping::Spatial)
    }
}

/// Eq. (1) for one trace node: cycles of an array-class NN op under
/// `n_assigned` sub-arrays, or `None` when the op is not a GEMM (it never
/// runs on the array). Only the sub-array geometry `(H, W)` of `cfg`
/// matters — the result is independent of `cfg.n_subarrays()`, which is
/// what lets the DSE tabulate node cycles once per `(H, W)` and reuse
/// them across every sub-array count.
#[must_use]
pub fn nn_op_cycles(cfg: &ArrayConfig, n_assigned: usize, kind: &OpKind) -> Option<u64> {
    match *kind {
        OpKind::Gemm { m, n, k } => Some(nn_layer_cycles(cfg, n_assigned, m, n, k)),
        _ => None,
    }
}

/// Eqs. (3)+(4) for one trace node: `(spatial, temporal)` cycles of an
/// array-class VSA op under `n_assigned` sub-arrays, or `None` when the
/// op is not a VSA convolution. Like [`nn_op_cycles`], independent of
/// `cfg.n_subarrays()`.
#[must_use]
pub fn vsa_op_cycle_pair(
    cfg: &ArrayConfig,
    n_assigned: usize,
    kind: &OpKind,
) -> Option<(u64, u64)> {
    match *kind {
        OpKind::VsaConv { n_vec, dim } => Some((
            vsa_spatial_cycles(cfg, n_assigned, n_vec, dim),
            vsa_temporal_cycles(cfg, n_assigned, n_vec, dim),
        )),
        _ => None,
    }
}

/// SIMD-unit cycles of one dataflow loop. This term depends only on the
/// trace and the lane count — not on the array configuration or the
/// mapping — so sweeps should compute it **once** and reuse it for every
/// design point (the DSE evaluation engine does).
#[must_use]
pub fn simd_loop_cycles(graph: &DataflowGraph, simd_lanes: usize) -> u64 {
    graph
        .trace()
        .ops()
        .iter()
        .filter(|op| op.kind().is_simd_op())
        .map(|op| simd::op_cycles(op.kind(), simd_lanes))
        .sum()
}

/// Timing of one dataflow loop under a given configuration and mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopTiming {
    /// Eq. (2): total NN cycles of the loop.
    pub t_nn: u64,
    /// Eq. (5): total VSA cycles of the loop (best consistent mapping).
    pub t_vsa: u64,
    /// SIMD-unit cycles of the loop.
    pub t_simd: u64,
    /// Cycles of one loop in the chosen mode (max of partitions when
    /// parallel; sum when sequential), with SIMD overlap applied.
    pub t_loop: u64,
    /// Whether the mapping ran partitions concurrently.
    pub parallel: bool,
}

/// Evaluates eqs. (2) and (5) plus the SIMD model over a dataflow graph.
///
/// In parallel mode the loop time is `max(t_nn, t_vsa, t_simd)` — NN and
/// VSA partitions run concurrently on disjoint sub-arrays and the SIMD
/// unit is sized so its latency hides behind them (Sec. V-C). In
/// sequential mode the whole array is time-shared: `t_nn + t_vsa` plus any
/// SIMD excess.
///
/// # Panics
///
/// Panics if `mapping` does not match the graph's NN/VSA node counts
/// (call [`Mapping::validate`] first).
#[must_use]
pub fn loop_timing(
    graph: &DataflowGraph,
    cfg: &ArrayConfig,
    mapping: &Mapping,
    simd_lanes: usize,
) -> LoopTiming {
    let trace = graph.trace();
    let nn_nodes = trace.nn_nodes();
    let vsa_nodes = trace.vsa_nodes();
    assert_eq!(mapping.n_l.len(), nn_nodes.len(), "NN mapping length");
    assert_eq!(mapping.n_v.len(), vsa_nodes.len(), "VSA mapping length");

    let mut t_nn = 0u64;
    for (idx, id) in nn_nodes.iter().enumerate() {
        t_nn += nn_op_cycles(cfg, mapping.n_l[idx], trace.op(*id).kind()).unwrap_or(0);
    }

    // Eq. (5): the whole loop commits to one mapping family (the min of
    // the two sums), matching the paper's formulation.
    let mut sum_spatial = 0u64;
    let mut sum_temporal = 0u64;
    for (idx, id) in vsa_nodes.iter().enumerate() {
        if let Some((s, t)) = vsa_op_cycle_pair(cfg, mapping.n_v[idx], trace.op(*id).kind()) {
            sum_spatial += s;
            sum_temporal += t;
        }
    }
    let t_vsa = sum_spatial.min(sum_temporal);

    let t_simd = simd_loop_cycles(graph, simd_lanes);

    let t_loop = if mapping.parallel {
        t_nn.max(t_vsa).max(t_simd)
    } else {
        (t_nn + t_vsa).max(t_simd)
    };
    telemetry::counter!("arch.timing_evals").incr();
    telemetry::counter!("arch.cycles.nn").add(t_nn);
    telemetry::counter!("arch.cycles.vsa").add(t_vsa);
    telemetry::counter!("arch.cycles.simd").add(t_simd);
    LoopTiming {
        t_nn,
        t_vsa,
        t_simd,
        t_loop,
        parallel: mapping.parallel,
    }
}

const fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, TraceBuilder};

    fn cfg(h: usize, w: usize, n: usize) -> ArrayConfig {
        ArrayConfig::new(h, w, n).unwrap()
    }

    #[test]
    fn eq1_single_tile() {
        // n ≤ H and k ≤ W on one sub-array: exactly one tile.
        let c = cfg(32, 16, 1);
        let cycles = nn_layer_cycles(&c, 1, 100, 32, 16);
        assert_eq!(cycles, 2 * 32 + 16 + 100 - 2);
    }

    #[test]
    fn eq1_tiling_multiplies() {
        let c = cfg(32, 16, 1);
        let one = nn_layer_cycles(&c, 1, 100, 32, 16);
        // Doubling n doubles the n-tile count; doubling k doubles k-tiles.
        assert_eq!(nn_layer_cycles(&c, 1, 100, 64, 16), 2 * one);
        assert_eq!(nn_layer_cycles(&c, 1, 100, 32, 32), 2 * one);
        assert_eq!(nn_layer_cycles(&c, 1, 100, 64, 32), 4 * one);
    }

    #[test]
    fn eq1_more_subarrays_reduce_cycles() {
        let c = cfg(16, 16, 8);
        let t1 = nn_layer_cycles(&c, 1, 500, 256, 64);
        let t4 = nn_layer_cycles(&c, 4, 500, 256, 64);
        assert!(t4 < t1, "more sub-arrays must not be slower: {t4} vs {t1}");
        // With n=256, H=16: 16 n-tiles at n_l=1, 4 at n_l=4 — exactly 4×.
        assert_eq!(t1, 4 * t4);
    }

    #[test]
    fn eq3_eq4_base_latency_is_t() {
        // One vector, d ≤ H, single sub-array: both mappings take exactly
        // T = 3H + d − 1.
        let c = cfg(32, 16, 1);
        let t = (3 * 32 + 24 - 1) as u64;
        assert_eq!(vsa_spatial_cycles(&c, 1, 1, 24), t);
        assert_eq!(vsa_temporal_cycles(&c, 1, 1, 24), t);
    }

    #[test]
    fn temporal_wins_for_many_vectors() {
        // Many short vectors: temporal spreads them over W columns.
        let c = cfg(32, 16, 1);
        let (cycles, mapping) = vsa_node_cycles(&c, 1, 64, 32);
        assert_eq!(mapping, VsaMapping::Temporal);
        assert_eq!(cycles, vsa_temporal_cycles(&c, 1, 64, 32));
    }

    #[test]
    fn spatial_wins_for_one_huge_vector() {
        // A single vector with d ≫ H: spatial uses all W·H·n_v PEs for it.
        let c = cfg(8, 16, 1);
        let spatial = vsa_spatial_cycles(&c, 1, 1, 4096);
        let temporal = vsa_temporal_cycles(&c, 1, 1, 4096);
        assert!(spatial < temporal, "{spatial} !< {temporal}");
        assert_eq!(vsa_node_cycles(&c, 1, 1, 4096).1, VsaMapping::Spatial);
    }

    fn small_graph() -> DataflowGraph {
        let mut b = TraceBuilder::new("t");
        let c1 = b.push(
            "conv",
            OpKind::Gemm {
                m: 256,
                n: 64,
                k: 64,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let _v = b.push(
            "bind",
            OpKind::VsaConv { n_vec: 8, dim: 128 },
            Domain::Symbolic,
            DType::Int4,
            &[c1],
        );
        DataflowGraph::from_trace(b.finish(4).unwrap())
    }

    #[test]
    fn loop_timing_parallel_takes_max() {
        let g = small_graph();
        let c = cfg(16, 16, 4);
        let m = Mapping::uniform(1, 1, 3, 1);
        let t = loop_timing(&g, &c, &m, 64);
        assert_eq!(t.t_loop, t.t_nn.max(t.t_vsa).max(t.t_simd));
        assert!(t.parallel);
    }

    #[test]
    fn loop_timing_sequential_sums() {
        let g = small_graph();
        let c = cfg(16, 16, 4);
        let m = Mapping::sequential(1, 1, 4);
        let t = loop_timing(&g, &c, &m, 64);
        assert_eq!(t.t_loop, (t.t_nn + t.t_vsa).max(t.t_simd));
        assert!(!t.parallel);
    }

    #[test]
    fn sequential_uses_whole_array_per_node() {
        let g = small_graph();
        let c = cfg(16, 16, 4);
        let seq = loop_timing(&g, &c, &Mapping::sequential(1, 1, 4), 64);
        let par = loop_timing(&g, &c, &Mapping::uniform(1, 1, 3, 1), 64);
        // Sequential t_nn is evaluated with all 4 sub-arrays, so it is no
        // slower than the parallel partition's 3-sub-array NN time.
        assert!(seq.t_nn <= par.t_nn);
    }

    #[test]
    fn parallel_loop_time_bounds_the_nn_phase() {
        // For any timing produced by `loop_timing`, parallel t_loop is the
        // max over phases, so t_nn ≤ t_loop.
        let g = small_graph();
        let c = cfg(16, 16, 4);
        for nl in 1..4 {
            let t = loop_timing(&g, &c, &Mapping::uniform(1, 1, nl, 4 - nl), 64);
            assert!(t.t_nn <= t.t_loop, "t_nn must be bounded by t_loop");
        }
    }

    #[test]
    fn per_node_helpers_match_direct_equations() {
        let c = cfg(16, 8, 4);
        let gemm = OpKind::Gemm {
            m: 300,
            n: 48,
            k: 96,
        };
        let conv = OpKind::VsaConv {
            n_vec: 24,
            dim: 768,
        };
        assert_eq!(
            nn_op_cycles(&c, 3, &gemm),
            Some(nn_layer_cycles(&c, 3, 300, 48, 96))
        );
        assert_eq!(nn_op_cycles(&c, 3, &conv), None);
        assert_eq!(
            vsa_op_cycle_pair(&c, 2, &conv),
            Some((
                vsa_spatial_cycles(&c, 2, 24, 768),
                vsa_temporal_cycles(&c, 2, 24, 768)
            ))
        );
        assert_eq!(vsa_op_cycle_pair(&c, 2, &gemm), None);
    }

    #[test]
    fn node_cycles_ignore_subarray_count_of_config() {
        // The tabulation contract: per-node cycles depend on (H, W) and
        // the assigned count only, never on cfg.n_subarrays().
        let gemm = OpKind::Gemm {
            m: 300,
            n: 48,
            k: 96,
        };
        let conv = OpKind::VsaConv {
            n_vec: 24,
            dim: 768,
        };
        for n_cfg in [1, 4, 16] {
            let c = cfg(16, 8, n_cfg);
            assert_eq!(
                nn_op_cycles(&c, 2, &gemm),
                nn_op_cycles(&cfg(16, 8, 1), 2, &gemm)
            );
            assert_eq!(
                vsa_op_cycle_pair(&c, 2, &conv),
                vsa_op_cycle_pair(&cfg(16, 8, 1), 2, &conv)
            );
        }
    }

    #[test]
    fn simd_loop_cycles_matches_loop_timing_term() {
        let g = small_graph();
        let c = cfg(16, 16, 4);
        let t = loop_timing(&g, &c, &Mapping::uniform(1, 1, 3, 1), 64);
        assert_eq!(simd_loop_cycles(&g, 64), t.t_simd);
        // And it is mapping-independent.
        let t2 = loop_timing(&g, &c, &Mapping::sequential(1, 1, 4), 64);
        assert_eq!(t.t_simd, t2.t_simd);
    }
}
