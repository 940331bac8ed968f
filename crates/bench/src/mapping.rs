//! Mapping-selection helpers shared by the experiment binaries.
//!
//! Extracted from `fig6_ablation` so that `simtrace` (and any future
//! harness) picks mappings the same way the ablation study does: a best
//! *static* Phase-I partition selected by pipelined scheduled cycles,
//! optionally refined per node Phase-II style against the pooled
//! scheduler. All helpers are parameterized on [`SimOptions`] so callers
//! control the SIMD width and transfer model.

use nsflow_arch::{ArrayConfig, Mapping};
use nsflow_dse::{phase2, DseOptions};
use nsflow_graph::DataflowGraph;
use nsflow_sim::schedule::{self, SimOptions};

/// Pooled scheduled cycles of a mapping — the objective every helper
/// here minimizes (the pipelined steady state is what folding buys).
#[must_use]
pub fn scheduled_cycles(
    graph: &DataflowGraph,
    cfg: &ArrayConfig,
    mapping: &Mapping,
    opts: &SimOptions,
) -> u64 {
    schedule::run_pooled(graph, cfg, mapping, opts).total_cycles()
}

/// Best static (Phase-I style) mapping of the fixed AdArray, selected by
/// *scheduled* cycles: sequential mode plus every uniform `n_l/(n−n_l)`
/// split.
#[must_use]
pub fn best_static_mapping(graph: &DataflowGraph, cfg: &ArrayConfig, opts: &SimOptions) -> Mapping {
    let nn = graph.trace().nn_nodes().len();
    let vsa = graph.trace().vsa_nodes().len();
    let n = cfg.n_subarrays();
    let mut best = Mapping::sequential(nn, vsa, n);
    let mut best_t = scheduled_cycles(graph, cfg, &best, opts);
    if nn > 0 && vsa > 0 {
        for nl in 1..n {
            let m = Mapping::uniform(nn, vsa, nl, n - nl);
            let t = scheduled_cycles(graph, cfg, &m, opts);
            if t < best_t {
                best_t = t;
                best = m;
            }
        }
    }
    best
}

/// Phase-II-style per-node refinement evaluated against the pooled
/// scheduler: greedily adjust each node's sub-array allocation by ±1 and
/// keep any move that shortens the schedule (at most 6 sweeps).
#[must_use]
pub fn refine_per_node(
    graph: &DataflowGraph,
    cfg: &ArrayConfig,
    start: &Mapping,
    opts: &SimOptions,
) -> Mapping {
    let n = cfg.n_subarrays();
    let mut best = start.clone();
    let mut best_t = scheduled_cycles(graph, cfg, &best, opts);
    for _sweep in 0..6 {
        let mut improved = false;
        for field in 0..2 {
            let len = if field == 0 {
                best.n_l.len()
            } else {
                best.n_v.len()
            };
            for i in 0..len {
                for delta in [1i64, -1] {
                    let mut cand = best.clone();
                    let slot = if field == 0 {
                        &mut cand.n_l[i]
                    } else {
                        &mut cand.n_v[i]
                    };
                    let new = *slot as i64 + delta;
                    if new < 1 || new > n as i64 {
                        continue;
                    }
                    *slot = new as usize;
                    let t = scheduled_cycles(graph, cfg, &cand, opts);
                    if t < best_t {
                        best_t = t;
                        best = cand;
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    best
}

/// The full two-phase pipeline: best static partition, Algorithm-1
/// analytical refinement (kept only if it does not lengthen the pooled
/// schedule), then the per-node greedy polish.
#[must_use]
pub fn two_phase_mapping(graph: &DataflowGraph, cfg: &ArrayConfig, opts: &SimOptions) -> Mapping {
    let static_mapping = best_static_mapping(graph, cfg, opts);
    let p1_cycles = scheduled_cycles(graph, cfg, &static_mapping, opts);
    let dse_opts = DseOptions {
        iter_max: 16,
        simd_lanes: opts.simd_lanes,
        ..DseOptions::default()
    };
    let alg1 = phase2(graph, cfg, &static_mapping, &dse_opts).mapping;
    let seed = if scheduled_cycles(graph, cfg, &alg1, opts) <= p1_cycles {
        alg1
    } else {
        static_mapping
    };
    refine_per_node(graph, cfg, &seed, opts)
}
