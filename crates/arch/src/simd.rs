//! Custom SIMD unit model (paper Sec. IV-E).
//!
//! The unit has `lanes` processing elements, each with compact logic for
//! sum, mult/div, exp/log/tanh, norm and softmax. Cycle costs are
//! structural: element-wise ops stream `⌈elems/lanes⌉` beats (scaled by
//! the function's issue cost), reductions add a `⌈log₂ lanes⌉` tree
//! latency, and similarity kernels are dot products plus a softmax pass.

use nsflow_trace::{EltFunc, OpKind, ReduceFunc};

/// Per-lane issue cost of an element-wise function, in cycles.
///
/// Cheap integer ops are single-cycle; transcendentals and softmax use the
/// multi-cycle exp/log path of the compact lane logic.
#[must_use]
pub(crate) fn elt_func_cost(func: EltFunc) -> u64 {
    match func {
        EltFunc::Relu | EltFunc::Add | EltFunc::Clamp | EltFunc::PoolMax => 1,
        EltFunc::Mul | EltFunc::Affine => 1,
        EltFunc::Div => 4,
        EltFunc::Transcendental => 8,
        EltFunc::Softmax => 10, // exp + running sum + divide
        // EltFunc is non_exhaustive; unknown future functions default to
        // the transcendental path.
        _ => 8,
    }
}

/// Reduction-tree depth for a given lane count.
#[must_use]
pub(crate) fn tree_depth(lanes: usize) -> u64 {
    debug_assert!(lanes > 0);
    (usize::BITS - (lanes.max(1) - 1).leading_zeros()) as u64
}

/// Cycles for one SIMD-class op on a `lanes`-wide unit.
///
/// Array-class ops (`Gemm`, `VsaConv`) return 0 — they never execute here.
#[must_use]
pub fn op_cycles(kind: &OpKind, lanes: usize) -> u64 {
    debug_assert!(lanes > 0);
    let lanes64 = lanes as u64;
    match *kind {
        OpKind::Elementwise { elems, func } => {
            (elems as u64).div_ceil(lanes64) * elt_func_cost(func)
        }
        OpKind::Reduce { elems, func } => {
            let beats = (elems as u64).div_ceil(lanes64);
            let per_beat = match func {
                ReduceFunc::Sum | ReduceFunc::Max | ReduceFunc::Mean => 1,
                ReduceFunc::Norm => 2, // square + accumulate
                _ => 2,
            };
            beats * per_beat + tree_depth(lanes)
        }
        OpKind::Similarity { n_vec, dim } => {
            // n_vec dot products of length dim, then a softmax over n_vec.
            let dot = (n_vec as u64) * ((dim as u64).div_ceil(lanes64) + tree_depth(lanes));
            let softmax = (n_vec as u64).div_ceil(lanes64) * elt_func_cost(EltFunc::Softmax);
            dot + softmax
        }
        OpKind::Gemm { .. } | OpKind::VsaConv { .. } => 0,
        // OpKind is non_exhaustive; unknown future kinds are assumed
        // SIMD-resident with unit per-element cost.
        _ => 1,
    }
}

/// Smallest lane count (power of two, within `[8, max_lanes]`) whose SIMD
/// total stays at or below `target_cycles` — the paper's sizing rule
/// ("SIMD size is minimized such that latency of concurrent
/// elem-wise/vector reduction operations can be hidden").
///
/// Returns `max_lanes` if even the widest unit cannot hide the latency.
#[must_use]
pub fn minimal_lanes(ops: &[OpKind], target_cycles: u64, max_lanes: usize) -> usize {
    let mut lanes = 8usize;
    while lanes < max_lanes {
        let total: u64 = ops.iter().map(|k| op_cycles(k, lanes)).sum();
        if total <= target_cycles {
            return lanes;
        }
        lanes *= 2;
    }
    max_lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_depth_values() {
        assert_eq!(tree_depth(1), 0);
        assert_eq!(tree_depth(2), 1);
        assert_eq!(tree_depth(64), 6);
        assert_eq!(tree_depth(100), 7);
    }

    #[test]
    fn elementwise_scales_with_width() {
        let k = OpKind::Elementwise {
            elems: 1024,
            func: EltFunc::Relu,
        };
        assert_eq!(op_cycles(&k, 64), 16);
        assert_eq!(op_cycles(&k, 128), 8);
    }

    #[test]
    fn expensive_functions_cost_more() {
        let relu = OpKind::Elementwise {
            elems: 256,
            func: EltFunc::Relu,
        };
        let smax = OpKind::Elementwise {
            elems: 256,
            func: EltFunc::Softmax,
        };
        assert!(op_cycles(&smax, 64) > op_cycles(&relu, 64));
    }

    #[test]
    fn reduction_adds_tree_latency() {
        let k = OpKind::Reduce {
            elems: 64,
            func: ReduceFunc::Sum,
        };
        assert_eq!(op_cycles(&k, 64), 1 + 6);
        let norm = OpKind::Reduce {
            elems: 64,
            func: ReduceFunc::Norm,
        };
        assert!(op_cycles(&norm, 64) > op_cycles(&k, 64));
    }

    #[test]
    fn similarity_costs_dot_plus_softmax() {
        let k = OpKind::Similarity {
            n_vec: 7,
            dim: 1024,
        };
        let c = op_cycles(&k, 64);
        assert_eq!(c, 7 * (16 + 6) + 10);
    }

    #[test]
    fn array_ops_cost_nothing_on_simd() {
        assert_eq!(op_cycles(&OpKind::Gemm { m: 1, n: 1, k: 1 }, 64), 0);
        assert_eq!(op_cycles(&OpKind::VsaConv { n_vec: 1, dim: 8 }, 64), 0);
    }

    #[test]
    fn minimal_lanes_finds_smallest_sufficient_width() {
        let ops = vec![OpKind::Elementwise {
            elems: 4096,
            func: EltFunc::Relu,
        }];
        // 4096/64 = 64 cycles at 64 lanes.
        assert_eq!(minimal_lanes(&ops, 64, 1024), 64);
        assert_eq!(minimal_lanes(&ops, 512, 1024), 8);
        // Impossible target falls back to max width.
        assert_eq!(minimal_lanes(&ops, 0, 256), 256);
    }
}
