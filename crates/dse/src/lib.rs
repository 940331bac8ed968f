//! # nsflow-dse
//!
//! The two-phase design-space exploration of the NSFlow frontend
//! (paper Sec. V-C, Algorithm 1).
//!
//! The cross-coupled space of hardware configuration `(H, W, N)` and
//! per-node mapping `(N_l, N_v)` reaches ~10³⁰⁰ points at `m = 10`
//! (Tab. II). The DSE decouples it:
//!
//! - **Phase I** ([`phase1`]): assume a *static* partition
//!   (`∀i N_l[i] = N̄_l`, `∀j N_v[j] = N̄_v`), sweep power-of-two `(H, W)`
//!   with the aspect-ratio pruning `1/4 ≤ H/W ≤ 16`, derive
//!   `N = ⌊M/(H·W)⌋`, and keep the `(H, W, N, N̄_l)` minimizing the
//!   parallel loop time — falling back to **sequential mode** when
//!   time-sharing the whole array wins,
//! - **Phase II** ([`phase2`]): fine-tune the per-node partition around
//!   the Phase-I point by shifting sub-arrays between each NN layer and
//!   the VSA nodes spanning it, for at most `iter_max` sweeps.
//!
//! [`explore`] runs both phases; [`space`] reproduces the Tab. II
//! design-space accounting.
//!
//! All search paths evaluate candidates through one shared evaluation
//! engine: per-`(H, W)` cycle tables turn the inner `N̄_l` sweep
//! into O(1) lookups, and the mapping-independent SIMD term is computed
//! once ([`SweepStats`] records points, cache hits and wall time).
//! Serial trace-walking references ([`phase1_reference`],
//! [`exhaustive::exhaustive_uniform_reference`]) are kept for equivalence
//! tests and speedup baselines.
//!
//! # Examples
//!
//! ```
//! use nsflow_dse::{explore, DseOptions};
//! use nsflow_graph::DataflowGraph;
//! use nsflow_trace::{TraceBuilder, OpKind, Domain};
//! use nsflow_tensor::DType;
//!
//! let mut b = TraceBuilder::new("w");
//! let c = b.push("conv", OpKind::Gemm { m: 4096, n: 64, k: 64 }, Domain::Neural, DType::Int8, &[]);
//! b.push("bind", OpKind::VsaConv { n_vec: 32, dim: 512 }, Domain::Symbolic, DType::Int4, &[c]);
//! let graph = DataflowGraph::from_trace(b.finish(8)?);
//! let result = explore(&graph, &DseOptions::default());
//! assert!(result.config.total_pes() <= DseOptions::default().max_pes);
//! # Ok::<(), nsflow_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
mod phase1;
mod phase2;

pub mod exhaustive;
pub mod space;

pub use eval::SweepStats;
pub use phase1::{phase1, phase1_reference, Phase1Result};
pub use phase2::{phase2, Phase2Outcome};

use nsflow_arch::{analytical, ArrayConfig, Mapping};
use nsflow_graph::DataflowGraph;

/// Options controlling the exploration.
///
/// # Invariants
///
/// `heights` and `widths` are treated as candidate **sets**: every sweep
/// first sorts them ascending and drops duplicates and zero entries, so
/// duplicated entries neither inflate `points_evaluated` nor change the
/// search outcome, and the enumeration order (heights outer, widths
/// inner, both ascending) is well defined regardless of how the lists
/// were written.
#[derive(Debug, Clone, PartialEq)]
pub struct DseOptions {
    /// Maximum PE budget `M` (FPGA resource bound); the paper uses
    /// 8192 PEs on the U250.
    pub max_pes: usize,
    /// Candidate sub-array heights (powers of two by default).
    pub heights: Vec<usize>,
    /// Candidate sub-array widths (powers of two by default).
    pub widths: Vec<usize>,
    /// Aspect-ratio pruning bounds `(min, max)` on `H/W`.
    pub aspect_bounds: (f64, f64),
    /// Upper bound on the sub-array count `N`: each independently
    /// foldable region needs its own control FSM, stream generators and
    /// memory banking, so physical designs keep `N` modest (the paper's
    /// deployments use 8–16).
    pub max_subarrays: usize,
    /// Phase-II sweep cap (`Iter_max`).
    pub iter_max: usize,
    /// SIMD lanes assumed while evaluating timings.
    pub simd_lanes: usize,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions {
            max_pes: 8192,
            heights: vec![4, 8, 16, 32, 64, 128],
            widths: vec![4, 8, 16, 32, 64, 128],
            aspect_bounds: (0.25, 16.0),
            max_subarrays: 16,
            iter_max: 16,
            simd_lanes: 64,
        }
    }
}

impl DseOptions {
    /// The candidate dimension lists as sweeps actually consume them:
    /// sorted ascending, deduplicated, zero entries dropped.
    #[must_use]
    pub(crate) fn normalized_dims(&self) -> (Vec<usize>, Vec<usize>) {
        let norm = |dims: &[usize]| {
            let mut v: Vec<usize> = dims.iter().copied().filter(|&d| d > 0).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        (norm(&self.heights), norm(&self.widths))
    }
}

/// The exploration outcome: a hardware configuration, a mapping and its
/// predicted loop timing.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// Selected `(H, W, N)`.
    pub config: ArrayConfig,
    /// Selected per-node mapping (Phase II refined, or Phase I static).
    pub mapping: Mapping,
    /// Predicted timing of one loop under the selection.
    pub timing: analytical::LoopTiming,
    /// Design points evaluated during Phase I (for Tab. II style
    /// reporting).
    pub phase1_points: usize,
    /// Phase-II sweeps actually executed.
    pub phase2_sweeps: usize,
    /// Loop-time improvement of Phase II over Phase I, as a fraction
    /// (0.0 when Phase II could not improve).
    pub phase2_gain: f64,
    /// Combined evaluation counters of both phases (points, cache hits,
    /// tables built, wall time) — how the sweep spent its work.
    pub stats: SweepStats,
}

/// Runs the full two-phase DSE over a dataflow graph.
///
/// # Panics
///
/// Panics if `options` contains no candidate heights/widths or a zero PE
/// budget.
#[must_use]
pub fn explore(graph: &DataflowGraph, options: &DseOptions) -> DseResult {
    let _span = nsflow_telemetry::span!("dse.explore");
    assert!(options.max_pes > 0, "PE budget must be positive");
    assert!(
        !options.heights.is_empty() && !options.widths.is_empty(),
        "candidate dimension lists must be non-empty"
    );
    let p1 = phase1(graph, options);
    let p1_loop = p1.timing.t_loop;
    let p2 = phase2(graph, &p1.config, &p1.mapping, options);
    let mut stats = p1.stats;
    stats.absorb(&p2.stats);
    let timing = analytical::loop_timing(graph, &p1.config, &p2.mapping, options.simd_lanes);
    // Keep whichever mapping is actually better (Phase II never regresses).
    let (mapping, timing, phase2_gain) = if timing.t_loop <= p1_loop {
        let gain = (p1_loop - timing.t_loop) as f64 / p1_loop.max(1) as f64;
        (p2.mapping, timing, gain)
    } else {
        (p1.mapping, p1.timing, 0.0)
    };
    DseResult {
        config: p1.config,
        mapping,
        timing,
        phase1_points: p1.points_evaluated,
        phase2_sweeps: p2.sweeps,
        phase2_gain,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, OpKind, TraceBuilder};

    fn nvsa_like(loops: usize) -> DataflowGraph {
        let mut b = TraceBuilder::new("nvsa-like");
        let mut prev = None;
        for i in 0..4 {
            let inputs: Vec<_> = prev.into_iter().collect();
            prev = Some(b.push(
                format!("conv{i}"),
                OpKind::Gemm {
                    m: 1600,
                    n: 64 << i.min(2),
                    k: 64 * 9,
                },
                Domain::Neural,
                DType::Int8,
                &inputs,
            ));
        }
        let mut v_prev = prev.unwrap();
        for j in 0..6 {
            v_prev = b.push(
                format!("bind{j}"),
                OpKind::VsaConv {
                    n_vec: 16,
                    dim: 1024,
                },
                Domain::Symbolic,
                DType::Int4,
                &[v_prev],
            );
        }
        DataflowGraph::from_trace(b.finish(loops).unwrap())
    }

    #[test]
    fn explore_respects_pe_budget() {
        let g = nvsa_like(8);
        let opts = DseOptions::default();
        let r = explore(&g, &opts);
        assert!(r.config.total_pes() <= opts.max_pes);
    }

    #[test]
    fn explore_respects_aspect_bounds() {
        let g = nvsa_like(8);
        let r = explore(&g, &DseOptions::default());
        let ar = r.config.height() as f64 / r.config.width() as f64;
        assert!((0.25..=16.0).contains(&ar), "aspect {ar}");
    }

    #[test]
    fn phase2_never_regresses_phase1() {
        let g = nvsa_like(8);
        let opts = DseOptions::default();
        let p1 = phase1(&g, &opts);
        let r = explore(&g, &opts);
        assert!(
            r.timing.t_loop <= p1.timing.t_loop,
            "phase 2 regressed: {} > {}",
            r.timing.t_loop,
            p1.timing.t_loop
        );
        assert!(r.phase2_gain >= 0.0);
    }

    #[test]
    fn mapping_is_valid_for_graph() {
        let g = nvsa_like(4);
        let r = explore(&g, &DseOptions::default());
        let nn = g.trace().nn_nodes().len();
        let vsa = g.trace().vsa_nodes().len();
        r.mapping
            .validate(&r.config, nn, vsa)
            .expect("returned mapping must be valid");
    }

    fn symbolic_heavy() -> DataflowGraph {
        let mut b = TraceBuilder::new("symbolic-heavy");
        let c = b.push(
            "conv",
            OpKind::Gemm {
                m: 64,
                n: 16,
                k: 16,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let mut prev = c;
        for j in 0..12 {
            prev = b.push(
                format!("bind{j}"),
                OpKind::VsaConv {
                    n_vec: 64,
                    dim: 2048,
                },
                Domain::Symbolic,
                DType::Int4,
                &[prev],
            );
        }
        DataflowGraph::from_trace(b.finish(8).unwrap())
    }

    #[test]
    fn symbolic_heavy_workload_gets_more_vsa_subarrays() {
        let g = symbolic_heavy();
        let r = explore(&g, &DseOptions::default());
        if r.mapping.parallel {
            let avg_v: f64 =
                r.mapping.n_v.iter().sum::<usize>() as f64 / r.mapping.n_v.len() as f64;
            let avg_l: f64 =
                r.mapping.n_l.iter().sum::<usize>() as f64 / r.mapping.n_l.len() as f64;
            assert!(avg_v >= avg_l, "VSA should dominate: {avg_v} vs {avg_l}");
        }
    }

    /// `Mapping::validate` checks each assignment alone; the DSE must keep
    /// `N_l[i] + N_v[j] ≤ N` for every layer `i` and each VSA node `j` in
    /// its span, since those run on the array at the same time.
    #[test]
    fn parallel_mappings_fit_every_concurrent_pair() {
        let mut parallel = 0;
        for g in [nvsa_like(4), nvsa_like(8), symbolic_heavy()] {
            for max_pes in [1024, 4096, 8192] {
                let opts = DseOptions {
                    max_pes,
                    ..DseOptions::default()
                };
                let r = explore(&g, &opts);
                if !r.mapping.parallel {
                    continue;
                }
                parallel += 1;
                let n = r.config.n_subarrays();
                for (layer, &nl) in r.mapping.n_l.iter().enumerate() {
                    for j in phase2::vsa_span_of_layer(&g, layer) {
                        let nv = r.mapping.n_v[j];
                        assert!(
                            nl + nv <= n,
                            "{}: layer {layer} ({nl}) + vsa {j} ({nv}) > {n}",
                            g.trace().name()
                        );
                    }
                }
            }
        }
        assert!(parallel > 0, "no fixture explored to a parallel mapping");
    }

    #[test]
    fn phase2_keeps_every_concurrent_pair_within_the_array() {
        // Every layer spans all six VSA nodes, so a VSA-side donation by
        // one layer also shrinks the room of the others.
        let g = nvsa_like(8);
        let cfg = ArrayConfig::new(16, 16, 16).unwrap();
        let n = cfg.n_subarrays();
        let start = Mapping::uniform(4, 6, 15, 1);
        let refined = phase2(&g, &cfg, &start, &DseOptions::default()).mapping;
        for (layer, &n_l) in refined.n_l.iter().enumerate() {
            for j in phase2::vsa_span_of_layer(&g, layer) {
                assert!(
                    n_l + refined.n_v[j] <= n,
                    "layer {layer} ({n_l}) + VSA node {j} ({}) > {n}",
                    refined.n_v[j]
                );
            }
        }
    }

    #[test]
    fn more_pe_budget_never_hurts() {
        let g = nvsa_like(8);
        let small = explore(
            &g,
            &DseOptions {
                max_pes: 1024,
                ..DseOptions::default()
            },
        );
        let large = explore(
            &g,
            &DseOptions {
                max_pes: 8192,
                ..DseOptions::default()
            },
        );
        assert!(
            large.timing.t_loop <= small.timing.t_loop,
            "more PEs slower: {} > {}",
            large.timing.t_loop,
            small.timing.t_loop
        );
    }
}
