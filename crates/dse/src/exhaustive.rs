//! Exhaustive reference search over small design spaces.
//!
//! The two-phase DSE exists because the full cross-coupled space is
//! intractable (Tab. II). On *small* spaces, however, it can be enumerated
//! outright — which gives a ground-truth optimum to validate the two-phase
//! heuristic against. `tests` in this module (and the optimality property
//! test in the workspace `tests/`) assert that the two-phase result stays
//! within a small factor of the exhaustive optimum.
//!
//! Like Phase I, the search comes in two bit-identical flavours:
//! [`exhaustive_uniform`] (memoized cycle tables) and
//! [`exhaustive_uniform_reference`] (the serial trace-walking
//! implementation, kept as the equivalence/speedup baseline).

use std::time::Instant;

use nsflow_arch::{analytical, ArrayConfig, Mapping};
use nsflow_graph::DataflowGraph;

use crate::eval::{record_sweep_stats, EvalEngine, SweepStats};
use crate::phase1::{reduce_outcomes, Candidate, PairOutcome};
use crate::DseOptions;
use nsflow_telemetry as telemetry;

/// Outcome of an exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveResult {
    /// The optimal configuration found.
    pub config: ArrayConfig,
    /// The optimal mapping found (uniform or sequential — see
    /// [`exhaustive_uniform`] for the searched family).
    pub mapping: Mapping,
    /// Loop time at the optimum.
    pub t_loop: u64,
    /// Number of design points evaluated.
    pub points: usize,
    /// Evaluation counters (memoization hits, tables built, wall time).
    pub stats: SweepStats,
}

/// Exhaustively enumerates every `(H, W, N, N̄_l)` point (uniform static
/// mappings plus sequential mode) **without** aspect-ratio pruning — the
/// full Phase-I-shaped space. This is the reference for validating the
/// pruned search: if pruning were hurting, the pruned result would fall
/// behind this optimum.
///
/// One cycle table per `(H, W)` geometry serves **every** sub-array count
/// `N ∈ [1, N_max]` of that pair (per-node cycles are independent of `N`),
/// so the sequential-mode point at each `N` and every `N̄_l` split are
/// plain table lookups; candidate mappings are only materialized for the
/// final winner, never per point. Results are bit-identical to
/// [`exhaustive_uniform_reference`].
///
/// # Panics
///
/// Panics if no candidate configuration fits the PE budget.
#[must_use]
pub fn exhaustive_uniform(graph: &DataflowGraph, options: &DseOptions) -> ExhaustiveResult {
    let _span = telemetry::span!("dse.exhaustive");
    let start = Instant::now();
    let trace = graph.trace();
    let nn = trace.nn_nodes().len();
    let vsa = trace.vsa_nodes().len();
    let engine = EvalEngine::new(graph, options.simd_lanes);
    let pairs = unpruned_pairs(options);

    let outcomes: Vec<PairOutcome> = pairs
        .iter()
        .map(|&(h, w, n_max)| {
            let table = engine.build_table(h, w, n_max);
            let mut best: Option<Candidate> = None;
            let mut points = 0usize;
            // Every sub-array count, not just the maximal one.
            for n in 1..=n_max {
                if nn > 0 && vsa > 0 && n >= 2 {
                    for nl in 1..n {
                        let t = table.uniform_timing(nl, n - nl).t_loop;
                        points += 1;
                        if best.is_none_or(|b| t < b.t_loop) {
                            best = Some(Candidate {
                                t_loop: t,
                                h,
                                w,
                                n,
                                split: Some(nl),
                            });
                        }
                    }
                }
                let t = table.sequential_timing(n).t_loop;
                points += 1;
                if best.is_none_or(|b| t < b.t_loop) {
                    best = Some(Candidate {
                        t_loop: t,
                        h,
                        w,
                        n,
                        split: None,
                    });
                }
            }
            PairOutcome { best, points }
        })
        .collect();

    let (best, points, mut stats) = reduce_outcomes(&outcomes);
    stats.wall = start.elapsed();
    record_sweep_stats(&stats);
    let c = best.expect("at least one configuration must fit");
    let config = ArrayConfig::new(c.h, c.w, c.n).expect("nonzero dims");
    let mapping = match c.split {
        Some(nl) => Mapping::uniform(nn, vsa, nl, c.n - nl),
        None => Mapping::sequential(nn, vsa, c.n),
    };
    debug_assert_eq!(
        analytical::loop_timing(graph, &config, &mapping, options.simd_lanes).t_loop,
        c.t_loop,
        "cycle table diverged from loop_timing"
    );
    ExhaustiveResult {
        config,
        mapping,
        t_loop: c.t_loop,
        points,
        stats,
    }
}

/// The serial reference implementation: identical candidate order and
/// tie-breaking, but every point builds a mapping and re-walks the trace
/// through [`analytical::loop_timing`]. This is the seed implementation,
/// kept verbatim as the equivalence-test ground truth and the `dse_throughput`
/// speedup baseline.
///
/// # Panics
///
/// Panics if no candidate configuration fits the PE budget.
#[must_use]
pub fn exhaustive_uniform_reference(
    graph: &DataflowGraph,
    options: &DseOptions,
) -> ExhaustiveResult {
    let _span = telemetry::span!("dse.exhaustive_reference");
    let start = Instant::now();
    let trace = graph.trace();
    let nn = trace.nn_nodes().len();
    let vsa = trace.vsa_nodes().len();

    let mut best: Option<ExhaustiveResult> = None;
    let mut points = 0usize;
    for (h, w, n_max) in unpruned_pairs(options) {
        for n in 1..=n_max {
            let cfg = ArrayConfig::new(h, w, n).expect("nonzero dims");
            let mut consider = |mapping: Mapping| {
                let t = analytical::loop_timing(graph, &cfg, &mapping, options.simd_lanes).t_loop;
                points += 1;
                if best.as_ref().is_none_or(|b| t < b.t_loop) {
                    best = Some(ExhaustiveResult {
                        config: cfg,
                        mapping,
                        t_loop: t,
                        points: 0,
                        stats: SweepStats::default(),
                    });
                }
            };
            if nn > 0 && vsa > 0 && n >= 2 {
                for nl in 1..n {
                    consider(Mapping::uniform(nn, vsa, nl, n - nl));
                }
            }
            consider(Mapping::sequential(nn, vsa, n));
        }
    }
    let mut result = best.expect("at least one configuration must fit");
    result.points = points;
    result.stats = SweepStats {
        points_evaluated: points,
        wall: start.elapsed(),
        ..SweepStats::default()
    };
    record_sweep_stats(&result.stats);
    result
}

/// Enumerates `(H, W, N_max)` without aspect pruning, in sweep order.
fn unpruned_pairs(options: &DseOptions) -> Vec<(usize, usize, usize)> {
    let (heights, widths) = options.normalized_dims();
    let mut pairs = Vec::with_capacity(heights.len() * widths.len());
    for &h in &heights {
        for &w in &widths {
            if h * w > options.max_pes {
                continue;
            }
            let n_max = (options.max_pes / (h * w)).min(options.max_subarrays);
            if n_max == 0 {
                continue;
            }
            pairs.push((h, w, n_max));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, phase1};
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, OpKind, TraceBuilder};

    fn graph(loops: usize) -> DataflowGraph {
        let mut b = TraceBuilder::new("g");
        let c1 = b.push(
            "conv1",
            OpKind::Gemm {
                m: 2048,
                n: 96,
                k: 288,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let c2 = b.push(
            "conv2",
            OpKind::Gemm {
                m: 512,
                n: 192,
                k: 864,
            },
            Domain::Neural,
            DType::Int8,
            &[c1],
        );
        let _v = b.push(
            "bind",
            OpKind::VsaConv {
                n_vec: 48,
                dim: 1024,
            },
            Domain::Symbolic,
            DType::Int4,
            &[c2],
        );
        DataflowGraph::from_trace(b.finish(loops).unwrap())
    }

    fn small_opts() -> DseOptions {
        DseOptions {
            max_pes: 2048,
            heights: vec![4, 8, 16, 32],
            widths: vec![4, 8, 16, 32],
            max_subarrays: 8,
            ..DseOptions::default()
        }
    }

    #[test]
    fn exhaustive_covers_more_points_than_phase1() {
        let g = graph(4);
        let opts = small_opts();
        let ex = exhaustive_uniform(&g, &opts);
        let p1 = phase1(&g, &opts);
        assert!(
            ex.points > p1.points_evaluated,
            "{} !> {}",
            ex.points,
            p1.points_evaluated
        );
    }

    #[test]
    fn phase1_matches_exhaustive_at_maximal_n() {
        // Phase I fixes N to the maximal count per (H, W); the exhaustive
        // search additionally sweeps smaller N. More sub-arrays never hurt
        // the analytical model, so both should land on the same optimum.
        let g = graph(4);
        let opts = small_opts();
        let ex = exhaustive_uniform(&g, &opts);
        let p1 = phase1(&g, &opts);
        assert_eq!(
            p1.timing.t_loop, ex.t_loop,
            "phase 1 missed the uniform optimum"
        );
    }

    #[test]
    fn two_phase_result_is_at_least_uniform_optimal() {
        let g = graph(4);
        let opts = small_opts();
        let ex = exhaustive_uniform(&g, &opts);
        let r = explore(&g, &opts);
        assert!(
            r.timing.t_loop <= ex.t_loop,
            "two-phase {} worse than exhaustive uniform {}",
            r.timing.t_loop,
            ex.t_loop
        );
    }

    #[test]
    fn aspect_pruning_does_not_lose_the_optimum_here() {
        // The pruned Phase-I search (1/4 ≤ H/W ≤ 16) finds the same
        // optimum as the unpruned exhaustive sweep on this workload —
        // evidence the pruning bound is safe where it matters.
        let g = graph(4);
        let opts = small_opts();
        let ex = exhaustive_uniform(&g, &opts);
        let pruned = phase1(
            &g,
            &DseOptions {
                aspect_bounds: (0.25, 16.0),
                ..opts
            },
        );
        assert_eq!(pruned.timing.t_loop, ex.t_loop);
    }

    #[test]
    fn engine_path_matches_reference_bit_for_bit() {
        let g = graph(4);
        let opts = small_opts();
        let fast = exhaustive_uniform(&g, &opts);
        let slow = exhaustive_uniform_reference(&g, &opts);
        assert_eq!(fast.config, slow.config);
        assert_eq!(fast.mapping, slow.mapping);
        assert_eq!(fast.t_loop, slow.t_loop);
        assert_eq!(fast.points, slow.points);
    }

    #[test]
    fn one_table_per_geometry() {
        let g = graph(4);
        let opts = small_opts();
        let ex = exhaustive_uniform(&g, &opts);
        // 4×4 candidate (H, W) pairs all fit max_pes = 2048 → 16 tables,
        // regardless of how many (N, N̄_l) points each pair expands to.
        assert_eq!(ex.stats.tables_built, 16);
        assert_eq!(ex.stats.cache_hits, ex.points - ex.stats.tables_built);
        assert!(ex.stats.points_evaluated == ex.points);
    }
}
