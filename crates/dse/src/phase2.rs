//! Phase II of Algorithm 1: per-node mapping refinement.
//!
//! Starting from the Phase-I static partition, each sweep proposes one
//! move per NN layer: for layer `i` it locates the VSA nodes `j′..j″`
//! that execute concurrently with it (the layer's *span* in the dataflow
//! graph), then shifts one sub-array between the layer and its span
//! toward whichever side is the sweep-start bottleneck. All of a sweep's
//! candidates are evaluated against the same snapshot (steepest-descent /
//! Jacobi form): the engine scores them through per-node cycle-table
//! lookups, and the best strictly improving candidate (lowest loop time,
//! ties to the lowest layer index) is applied before the next sweep.
//! Search granularity is one NN layer (VSA kernels being smaller and more
//! malleable, per the paper).

use std::time::Instant;

use nsflow_arch::{ArrayConfig, Mapping};
use nsflow_graph::DataflowGraph;

use crate::eval::{record_sweep_stats, EvalEngine, SweepStats};
use crate::DseOptions;
use nsflow_telemetry as telemetry;

/// The VSA nodes overlapping NN layer `layer_idx` in depth order: those
/// whose dependency depth lies in `[depth(layer i), depth(layer i+1))`
/// (until the end of the loop for the last layer). Returns indices into
/// the trace's `vsa_nodes()` list.
#[must_use]
pub(crate) fn vsa_span_of_layer(graph: &DataflowGraph, layer_idx: usize) -> Vec<usize> {
    let trace = graph.trace();
    let nn = trace.nn_nodes();
    let vsa = trace.vsa_nodes();
    if nn.is_empty() || vsa.is_empty() || layer_idx >= nn.len() {
        return Vec::new();
    }
    let start_depth = graph.depth(nn[layer_idx]);
    let end_depth = nn.get(layer_idx + 1).map(|id| graph.depth(*id));
    let in_span: Vec<usize> = vsa
        .iter()
        .enumerate()
        .filter(|(_, id)| {
            let d = graph.depth(**id);
            d >= start_depth && end_depth.is_none_or(|e| d < e)
        })
        .map(|(j, _)| j)
        .collect();
    if in_span.is_empty() {
        // No VSA node shares the layer's window; balance against the whole
        // VSA set instead (they still contend for sub-arrays across the
        // pipelined loop).
        (0..vsa.len()).collect()
    } else {
        in_span
    }
}

/// Phase-II outcome with evaluation counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase2Outcome {
    /// The refined mapping (the start mapping when nothing improved).
    pub mapping: Mapping,
    /// Sweeps actually executed.
    pub sweeps: usize,
    /// Evaluation counters for the refinement.
    pub stats: SweepStats,
}

/// Runs Phase II, returning the refined mapping, the number of sweeps
/// executed and the evaluation counters (what [`crate::explore`] threads
/// into [`crate::DseResult`]). Sequential Phase-I results are returned
/// unchanged — there is no partition to refine.
#[must_use]
pub fn phase2(
    graph: &DataflowGraph,
    config: &ArrayConfig,
    start: &Mapping,
    options: &DseOptions,
) -> Phase2Outcome {
    let _span = telemetry::span!("dse.phase2");
    if !start.parallel || start.n_l.is_empty() || start.n_v.is_empty() {
        return Phase2Outcome {
            mapping: start.clone(),
            sweeps: 0,
            stats: SweepStats::default(),
        };
    }
    let began = Instant::now();
    let trace = graph.trace();
    let vsa_count = trace.vsa_nodes().len();
    let nn_count = start.n_l.len();
    let n = config.n_subarrays();

    // One table serves the whole refinement; spans never change across
    // sweeps, so hoist them too.
    let engine = EvalEngine::new(graph, options.simd_lanes);
    let table = engine.build_table(config.height(), config.width(), n);
    let spans: Vec<Vec<usize>> = (0..nn_count)
        .map(|layer| vsa_span_of_layer(graph, layer))
        .collect();

    let mut stats = SweepStats {
        tables_built: 1,
        ..SweepStats::default()
    };
    let mut current = start.clone();
    let mut best_time = table.mapping_timing(&current).t_loop;
    stats.points_evaluated += 1;
    let mut sweeps = 0usize;

    for _ in 0..options.iter_max {
        sweeps += 1;
        let snapshot = table.mapping_timing(&current);
        stats.points_evaluated += 1;
        stats.cache_hits += 1;

        // Propose one move per layer against the sweep-start snapshot.
        let candidates: Vec<Mapping> = (0..nn_count)
            .filter_map(|layer| {
                let span = &spans[layer];
                if span.is_empty() {
                    return None;
                }
                let mut candidate = current.clone();
                if snapshot.t_nn >= snapshot.t_vsa {
                    // NN is the bottleneck: take one sub-array from each
                    // span node that can spare it and give it to this layer.
                    if !span.iter().all(|&j| candidate.n_v[j] > 1) {
                        return None;
                    }
                    candidate.n_l[layer] += 1;
                    for &j in span {
                        candidate.n_v[j] -= 1;
                    }
                } else {
                    // VSA is the bottleneck: donate one sub-array from the
                    // layer.
                    if candidate.n_l[layer] <= 1 {
                        return None;
                    }
                    candidate.n_l[layer] -= 1;
                    for &j in span {
                        candidate.n_v[j] += 1;
                    }
                }
                // A span node can be shared by several layers, so a move
                // must keep every concurrent pair within the array, not
                // only the moving layer's.
                if !pairs_fit(&candidate, &spans, n)
                    || candidate.validate(config, nn_count, vsa_count).is_err()
                {
                    return None;
                }
                Some(candidate)
            })
            .collect();
        if candidates.is_empty() {
            break;
        }

        // Score every candidate against the same snapshot.
        let times: Vec<u64> = candidates
            .iter()
            .map(|m| table.mapping_timing(m).t_loop)
            .collect();
        stats.points_evaluated += times.len();
        stats.cache_hits += times.len();

        // First strict minimum wins (lowest layer index on ties).
        let mut winner: Option<usize> = None;
        for (idx, &t) in times.iter().enumerate() {
            if t < best_time && winner.is_none_or(|w| t < times[w]) {
                winner = Some(idx);
            }
        }
        match winner {
            Some(idx) => {
                best_time = times[idx];
                current = candidates[idx].clone();
            }
            None => break,
        }
    }
    stats.wall = began.elapsed();
    record_sweep_stats(&stats);
    Phase2Outcome {
        mapping: current,
        sweeps,
        stats,
    }
}

/// Whether every NN layer and each VSA node of its span fit the array
/// together: `N_l[i] + N_v[j] <= n` for every concurrent pair.
fn pairs_fit(mapping: &Mapping, spans: &[Vec<usize>], n: usize) -> bool {
    spans
        .iter()
        .zip(&mapping.n_l)
        .all(|(span, &n_l)| span.iter().all(|&j| n_l + mapping.n_v[j] <= n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_arch::analytical;
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, OpKind, TraceBuilder};

    /// Two NN layers of very different weight and a VSA tail: the uniform
    /// split is suboptimal, so Phase II has something to gain.
    fn lopsided_graph() -> DataflowGraph {
        let mut b = TraceBuilder::new("lopsided");
        let c1 = b.push(
            "conv_heavy",
            OpKind::Gemm {
                m: 4096,
                n: 512,
                k: 512,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let v1 = b.push(
            "bind_light",
            OpKind::VsaConv { n_vec: 4, dim: 256 },
            Domain::Symbolic,
            DType::Int4,
            &[c1],
        );
        let c2 = b.push(
            "conv_light",
            OpKind::Gemm {
                m: 64,
                n: 32,
                k: 32,
            },
            Domain::Neural,
            DType::Int8,
            &[v1],
        );
        let _v2 = b.push(
            "bind_heavy",
            OpKind::VsaConv {
                n_vec: 128,
                dim: 2048,
            },
            Domain::Symbolic,
            DType::Int4,
            &[c2],
        );
        DataflowGraph::from_trace(b.finish(4).unwrap())
    }

    #[test]
    fn span_partitions_vsa_nodes_by_depth() {
        let g = lopsided_graph();
        // Layer 0 (conv_heavy, depth 0) spans bind_light (depth 1);
        // layer 1 (conv_light, depth 2) spans bind_heavy (depth 3).
        assert_eq!(vsa_span_of_layer(&g, 0), vec![0]);
        assert_eq!(vsa_span_of_layer(&g, 1), vec![1]);
        assert!(vsa_span_of_layer(&g, 9).is_empty());
    }

    #[test]
    fn phase2_improves_or_preserves_uniform_start() {
        let g = lopsided_graph();
        let cfg = ArrayConfig::new(16, 16, 8).unwrap();
        let opts = DseOptions::default();
        let start = Mapping::uniform(2, 2, 4, 4);
        let start_time = analytical::loop_timing(&g, &cfg, &start, opts.simd_lanes).t_loop;
        let Phase2Outcome {
            mapping: refined,
            sweeps,
            ..
        } = phase2(&g, &cfg, &start, &opts);
        let refined_time = analytical::loop_timing(&g, &cfg, &refined, opts.simd_lanes).t_loop;
        assert!(refined_time <= start_time, "{refined_time} > {start_time}");
        assert!(sweeps >= 1);
        refined.validate(&cfg, 2, 2).unwrap();
    }

    #[test]
    fn phase2_gains_on_lopsided_workload() {
        let g = lopsided_graph();
        let cfg = ArrayConfig::new(16, 16, 8).unwrap();
        let opts = DseOptions::default();
        let start = Mapping::uniform(2, 2, 4, 4);
        let start_time = analytical::loop_timing(&g, &cfg, &start, opts.simd_lanes).t_loop;
        let refined = phase2(&g, &cfg, &start, &opts).mapping;
        let refined_time = analytical::loop_timing(&g, &cfg, &refined, opts.simd_lanes).t_loop;
        assert!(
            refined_time < start_time,
            "expected strict improvement on a lopsided workload"
        );
    }

    #[test]
    fn sequential_start_is_returned_unchanged() {
        let g = lopsided_graph();
        let cfg = ArrayConfig::new(16, 16, 8).unwrap();
        let start = Mapping::sequential(2, 2, 8);
        let out = phase2(&g, &cfg, &start, &DseOptions::default());
        assert_eq!(out.mapping, start);
        assert_eq!(out.sweeps, 0);
    }

    #[test]
    fn refined_mapping_entries_stay_positive() {
        let g = lopsided_graph();
        let cfg = ArrayConfig::new(8, 8, 4).unwrap();
        let start = Mapping::uniform(2, 2, 2, 2);
        let out = phase2(&g, &cfg, &start, &DseOptions::default()).mapping;
        assert!(out.n_l.iter().all(|&x| x >= 1));
        assert!(out.n_v.iter().all(|&x| x >= 1));
    }

    #[test]
    fn refinement_never_regresses_under_table_scoring() {
        let g = lopsided_graph();
        let cfg = ArrayConfig::new(16, 16, 8).unwrap();
        let opts = DseOptions::default();
        let start = Mapping::uniform(2, 2, 4, 4);
        let out = phase2(&g, &cfg, &start, &opts);
        assert_eq!(out.stats.tables_built, 1);
        assert!(out.stats.points_evaluated > 0);
        let start_t = analytical::loop_timing(&g, &cfg, &start, opts.simd_lanes).t_loop;
        let out_t = analytical::loop_timing(&g, &cfg, &out.mapping, opts.simd_lanes).t_loop;
        assert!(out_t <= start_t);
    }
}
