//! Phase I of Algorithm 1: hardware-configuration search under a static
//! partition.
//!
//! Two implementations share one search order:
//!
//! - [`phase1`] — the production path: per-`(H, W)` cycle tables from the
//!   [`crate::EvalEngine`] make each `(N̄_l)` split an O(1) lookup, and
//!   the `(H, W)` pairs are reduced with first-minimum-wins
//!   tie-breaking,
//! - [`phase1_reference`] — the serial reference that re-walks the trace
//!   via [`analytical::loop_timing`] for every point, kept as the
//!   ground truth the equivalence tests compare against.
//!
//! Both visit candidates in the same order (heights outer, widths inner,
//! splits ascending, sequential mode last per pair) and improve on
//! strict-`<` only, so their results are bit-identical.

use std::time::Instant;

use nsflow_arch::{analytical, ArrayConfig, Mapping};
use nsflow_graph::DataflowGraph;

use crate::eval::{record_sweep_stats, EvalEngine, SweepStats};
use crate::DseOptions;
use nsflow_telemetry as telemetry;

/// Phase-I outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1Result {
    /// Best `(H, W, N)` found.
    pub config: ArrayConfig,
    /// Static mapping at that point (uniform `N̄_l`/`N̄_v`, or sequential).
    pub mapping: Mapping,
    /// Timing under the chosen mapping.
    pub timing: analytical::LoopTiming,
    /// Number of `(H, W, N̄_l)` points evaluated.
    pub points_evaluated: usize,
    /// Evaluation counters (memoization hits, tables built, wall time).
    pub stats: SweepStats,
}

/// A design point compressed to what the sweep needs: the winner is
/// materialized into an [`ArrayConfig`] + [`Mapping`] only once, at the
/// end, instead of allocating mapping vectors for every candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub t_loop: u64,
    pub h: usize,
    pub w: usize,
    pub n: usize,
    /// `Some(nl)` = uniform parallel split, `None` = sequential mode.
    pub split: Option<usize>,
}

/// Per-`(H, W)` worker outcome: the pair's local best plus how many
/// points it evaluated.
pub(crate) struct PairOutcome {
    pub best: Option<Candidate>,
    pub points: usize,
}

/// Folds per-pair outcomes (in pair-enumeration order) into a global best
/// with the same strict-`<` rule a serial scan uses, plus merged stats.
pub(crate) fn reduce_outcomes(outcomes: &[PairOutcome]) -> (Option<Candidate>, usize, SweepStats) {
    let mut best: Option<Candidate> = None;
    let mut points = 0usize;
    let mut stats = SweepStats::default();
    for out in outcomes {
        points += out.points;
        if out.points > 0 {
            stats.tables_built += 1;
            stats.cache_hits += out.points - 1;
        }
        if let Some(c) = out.best {
            if best.is_none_or(|b| c.t_loop < b.t_loop) {
                best = Some(c);
            }
        }
    }
    stats.points_evaluated = points;
    (best, points, stats)
}

/// Enumerates the pruned `(H, W, N)` pairs in deterministic sweep order.
pub(crate) fn pruned_pairs(options: &DseOptions) -> Vec<(usize, usize, usize)> {
    let (heights, widths) = options.normalized_dims();
    let (ar_min, ar_max) = options.aspect_bounds;
    let mut pairs = Vec::with_capacity(heights.len() * widths.len());
    for &h in &heights {
        for &w in &widths {
            if h * w > options.max_pes {
                continue;
            }
            let aspect = h as f64 / w as f64;
            if !(ar_min..=ar_max).contains(&aspect) {
                continue;
            }
            let n = (options.max_pes / (h * w)).min(options.max_subarrays);
            if n == 0 {
                continue;
            }
            pairs.push((h, w, n));
        }
    }
    pairs
}

/// Materializes a winning candidate into the full Phase-I result, with a
/// final direct `loop_timing` evaluation (also a cross-check that the
/// table path agreed with the trace walk).
fn materialize(
    graph: &DataflowGraph,
    options: &DseOptions,
    c: Candidate,
    points: usize,
    stats: SweepStats,
) -> Phase1Result {
    let trace = graph.trace();
    let nn_count = trace.nn_nodes().len();
    let vsa_count = trace.vsa_nodes().len();
    let config = ArrayConfig::new(c.h, c.w, c.n).expect("nonzero dims by construction");
    let mapping = match c.split {
        Some(nl) => Mapping::uniform(nn_count, vsa_count, nl, c.n - nl),
        None => Mapping::sequential(nn_count, vsa_count, c.n),
    };
    let timing = analytical::loop_timing(graph, &config, &mapping, options.simd_lanes);
    debug_assert_eq!(
        timing.t_loop, c.t_loop,
        "cycle table diverged from loop_timing"
    );
    Phase1Result {
        config,
        mapping,
        timing,
        points_evaluated: points,
        stats,
    }
}

/// Runs Phase I: for every pruned `(H, W)` pair, derive `N = ⌊M/(H·W)⌋`
/// and sweep the static split `N̄_l ∈ [1, N)`; also evaluate the
/// sequential (whole-array, time-shared) mode and keep whichever wins.
///
/// Workloads with no NN nodes or no VSA nodes skip the split sweep and
/// use sequential mode directly (there is nothing to run concurrently).
///
/// Candidate timings come from memoized cycle tables (one per `(H, W)`);
/// results are bit-identical to [`phase1_reference`].
///
/// # Panics
///
/// Panics if no candidate `(H, W)` fits the PE budget.
#[must_use]
pub fn phase1(graph: &DataflowGraph, options: &DseOptions) -> Phase1Result {
    let _span = telemetry::span!("dse.phase1");
    let start = Instant::now();
    let trace = graph.trace();
    let nn_count = trace.nn_nodes().len();
    let vsa_count = trace.vsa_nodes().len();
    let engine = EvalEngine::new(graph, options.simd_lanes);
    let pairs = pruned_pairs(options);

    let outcomes: Vec<PairOutcome> = pairs
        .iter()
        .map(|&(h, w, n)| {
            let table = engine.build_table(h, w, n);
            let mut best: Option<Candidate> = None;
            let mut points = 0usize;
            if nn_count > 0 && vsa_count > 0 && n >= 2 {
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
            PairOutcome { best, points }
        })
        .collect();

    let (best, points, mut stats) = reduce_outcomes(&outcomes);
    stats.wall = start.elapsed();
    record_sweep_stats(&stats);
    let c = best.expect("at least one candidate configuration must fit the PE budget");
    materialize(graph, options, c, points, stats)
}

/// The serial reference implementation of Phase I: identical candidate
/// order and tie-breaking, but every point re-walks the trace through
/// [`analytical::loop_timing`] with no memoization. Kept
/// as the ground truth for the equivalence tests and the
/// `dse_throughput` speedup baseline.
///
/// # Panics
///
/// Panics if no candidate `(H, W)` fits the PE budget.
#[must_use]
pub fn phase1_reference(graph: &DataflowGraph, options: &DseOptions) -> Phase1Result {
    let _span = telemetry::span!("dse.phase1_reference");
    let start = Instant::now();
    let trace = graph.trace();
    let nn_count = trace.nn_nodes().len();
    let vsa_count = trace.vsa_nodes().len();

    let mut best: Option<Phase1Result> = None;
    let mut points = 0usize;

    for (h, w, n) in pruned_pairs(options) {
        let cfg = ArrayConfig::new(h, w, n).expect("nonzero dims by construction");

        // Parallel mode: sweep the static split when both kinds exist.
        if nn_count > 0 && vsa_count > 0 && n >= 2 {
            for nl in 1..n {
                let nv = n - nl;
                let mapping = Mapping::uniform(nn_count, vsa_count, nl, nv);
                let timing = analytical::loop_timing(graph, &cfg, &mapping, options.simd_lanes);
                points += 1;
                if best
                    .as_ref()
                    .is_none_or(|b| timing.t_loop < b.timing.t_loop)
                {
                    best = Some(Phase1Result {
                        config: cfg,
                        mapping,
                        timing,
                        points_evaluated: 0,
                        stats: SweepStats::default(),
                    });
                }
            }
        }

        // Sequential mode (line 12 of Algorithm 1): every node gets the
        // whole array in turn.
        let seq = Mapping::sequential(nn_count, vsa_count, n);
        let seq_timing = analytical::loop_timing(graph, &cfg, &seq, options.simd_lanes);
        points += 1;
        if best
            .as_ref()
            .is_none_or(|b| seq_timing.t_loop < b.timing.t_loop)
        {
            best = Some(Phase1Result {
                config: cfg,
                mapping: seq,
                timing: seq_timing,
                points_evaluated: 0,
                stats: SweepStats::default(),
            });
        }
    }

    let mut result = best.expect("at least one candidate configuration must fit the PE budget");
    result.points_evaluated = points;
    result.stats = SweepStats {
        points_evaluated: points,
        wall: start.elapsed(),
        ..SweepStats::default()
    };
    record_sweep_stats(&result.stats);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, OpKind, TraceBuilder};

    fn graph() -> DataflowGraph {
        let mut b = TraceBuilder::new("g");
        let c = b.push(
            "conv",
            OpKind::Gemm {
                m: 1024,
                n: 128,
                k: 256,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let _v = b.push(
            "bind",
            OpKind::VsaConv {
                n_vec: 32,
                dim: 1024,
            },
            Domain::Symbolic,
            DType::Int4,
            &[c],
        );
        DataflowGraph::from_trace(b.finish(4).unwrap())
    }

    #[test]
    fn finds_config_within_budget() {
        let r = phase1(&graph(), &DseOptions::default());
        assert!(r.config.total_pes() <= 8192);
        assert!(r.points_evaluated > 0);
        assert_eq!(r.stats.points_evaluated, r.points_evaluated);
        assert!(r.stats.tables_built > 0);
        assert!(r.stats.cache_hits > 0);
    }

    #[test]
    fn pruning_reduces_points() {
        let opts = DseOptions::default();
        let loose = DseOptions {
            aspect_bounds: (0.001, 1000.0),
            ..opts.clone()
        };
        let strict = DseOptions {
            aspect_bounds: (1.0, 1.0),
            ..opts
        };
        let g = graph();
        let p_loose = phase1(&g, &loose).points_evaluated;
        let p_strict = phase1(&g, &strict).points_evaluated;
        assert!(p_strict < p_loose);
    }

    #[test]
    fn pure_nn_workload_uses_sequential_mode() {
        let mut b = TraceBuilder::new("nn");
        b.push(
            "conv",
            OpKind::Gemm {
                m: 512,
                n: 64,
                k: 64,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let g = DataflowGraph::from_trace(b.finish(1).unwrap());
        let r = phase1(&g, &DseOptions::default());
        assert!(!r.mapping.parallel);
        assert!(r.mapping.n_v.is_empty());
    }

    #[test]
    fn pure_vsa_workload_uses_sequential_mode() {
        let mut b = TraceBuilder::new("vsa");
        b.push(
            "bind",
            OpKind::VsaConv { n_vec: 8, dim: 512 },
            Domain::Symbolic,
            DType::Int4,
            &[],
        );
        let g = DataflowGraph::from_trace(b.finish(1).unwrap());
        let r = phase1(&g, &DseOptions::default());
        assert!(!r.mapping.parallel);
        assert!(r.mapping.n_l.is_empty());
    }

    #[test]
    fn static_mapping_is_uniform() {
        let r = phase1(&graph(), &DseOptions::default());
        if r.mapping.parallel {
            assert!(r.mapping.n_l.windows(2).all(|w| w[0] == w[1]));
            assert!(r.mapping.n_v.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn result_beats_naive_single_subarray_square() {
        // The searched config should be at least as good as an arbitrary
        // fixed point like 64×64×2 with a 1:1 split.
        let g = graph();
        let opts = DseOptions::default();
        let r = phase1(&g, &opts);
        let naive_cfg = ArrayConfig::new(64, 64, 2).unwrap();
        let naive = analytical::loop_timing(
            &g,
            &naive_cfg,
            &Mapping::uniform(1, 1, 1, 1),
            opts.simd_lanes,
        );
        assert!(r.timing.t_loop <= naive.t_loop);
    }

    #[test]
    fn engine_path_matches_reference_bit_for_bit() {
        let g = graph();
        let opts = DseOptions::default();
        let fast = phase1(&g, &opts);
        let slow = phase1_reference(&g, &opts);
        assert_eq!(fast.config, slow.config);
        assert_eq!(fast.mapping, slow.mapping);
        assert_eq!(fast.timing, slow.timing);
        assert_eq!(fast.points_evaluated, slow.points_evaluated);
    }

    #[test]
    fn duplicate_dimension_entries_do_not_inflate_points() {
        let g = graph();
        let base = DseOptions::default();
        let duped = DseOptions {
            heights: vec![8, 4, 8, 16, 4, 32, 64, 128, 16],
            widths: vec![128, 4, 8, 8, 16, 32, 64, 4],
            ..base.clone()
        };
        let r_base = phase1(&g, &base);
        let r_duped = phase1(&g, &duped);
        assert_eq!(r_base.points_evaluated, r_duped.points_evaluated);
        assert_eq!(r_base.timing.t_loop, r_duped.timing.t_loop);
    }
}
