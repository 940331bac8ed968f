//! Equivalence properties for the DSE evaluation engine: on random small
//! graphs and option sets, the memoized search paths return
//! exactly the same `(config, mapping, t_loop, points)` as the serial
//! trace-walking references, and the two-phase `explore` never falls
//! behind the exhaustive-uniform optimum. Each property runs over seeds
//! `0..CASES`; a failure names its seed.

use nsflow_dse::{
    exhaustive::{exhaustive_uniform, exhaustive_uniform_reference},
    explore, phase1, phase1_reference, DseOptions,
};
use nsflow_graph::DataflowGraph;
use nsflow_tensor::rng::StdRng;
use nsflow_tensor::DType;
use nsflow_trace::{Domain, OpKind, TraceBuilder};

/// Cases per property.
const CASES: u64 = 24;

/// Builds a linear mixed NN→VSA chain from generated dimensions. An empty
/// spec falls back to a single GEMM so the trace is never empty.
fn build_graph(
    nn: &[(usize, usize, usize)],
    vsa: &[(usize, usize)],
    loops: usize,
) -> DataflowGraph {
    let mut b = TraceBuilder::new("prop");
    let mut prev = None;
    for (i, &(m, n, k)) in nn.iter().enumerate() {
        let inputs: Vec<_> = prev.into_iter().collect();
        prev = Some(b.push(
            format!("conv{i}"),
            OpKind::Gemm { m, n, k },
            Domain::Neural,
            DType::Int8,
            &inputs,
        ));
    }
    for (j, &(n_vec, dim)) in vsa.iter().enumerate() {
        let inputs: Vec<_> = prev.into_iter().collect();
        prev = Some(b.push(
            format!("bind{j}"),
            OpKind::VsaConv { n_vec, dim },
            Domain::Symbolic,
            DType::Int4,
            &inputs,
        ));
    }
    if prev.is_none() {
        b.push(
            "fallback",
            OpKind::Gemm {
                m: 64,
                n: 16,
                k: 16,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
    }
    DataflowGraph::from_trace(b.finish(loops).unwrap())
}

fn nn_spec(rng: &mut StdRng) -> Vec<(usize, usize, usize)> {
    (0..rng.gen_range(0..4))
        .map(|_| {
            (
                rng.gen_range(16usize..600),
                rng.gen_range(8usize..160),
                rng.gen_range(8usize..320),
            )
        })
        .collect()
}

fn vsa_spec(rng: &mut StdRng) -> Vec<(usize, usize)> {
    (0..rng.gen_range(0..4))
        .map(|_| (rng.gen_range(1usize..48), rng.gen_range(32usize..1200)))
        .collect()
}

/// Candidate dimension lists with deliberate duplicates and arbitrary
/// order — the normalization invariant must absorb both.
fn dim_list(rng: &mut StdRng) -> Vec<usize> {
    (0..rng.gen_range(1..5))
        .map(|_| 1usize << rng.gen_range(1..=5))
        .collect()
}

fn options(rng: &mut StdRng) -> DseOptions {
    DseOptions {
        heights: dim_list(rng),
        widths: dim_list(rng),
        max_pes: 1 << rng.gen_range(8..=11),
        max_subarrays: rng.gen_range(2usize..=8),
        // Loose bounds: no aspect pruning, so Phase I covers every
        // (H, W) pair and stays comparable to the unpruned exhaustive
        // sweep.
        aspect_bounds: (1e-4, 1e4),
        ..DseOptions::default()
    }
}

/// One random case: the graph (at a drawn loop count) and the option set.
fn case(seed: u64) -> (DataflowGraph, DseOptions) {
    let rng = &mut StdRng::seed_from_u64(seed);
    let (nn, vsa) = (nn_spec(rng), vsa_spec(rng));
    let loops = rng.gen_range(1..=4);
    (build_graph(&nn, &vsa, loops), options(rng))
}

#[test]
fn phase1_engine_equals_serial_reference() {
    for seed in 0..CASES {
        let (g, opts) = case(seed);
        let fast = phase1(&g, &opts);
        let slow = phase1_reference(&g, &opts);
        assert_eq!(fast.config, slow.config, "seed {seed}");
        assert_eq!(fast.mapping, slow.mapping, "seed {seed}");
        assert_eq!(fast.timing.t_loop, slow.timing.t_loop, "seed {seed}");
        assert_eq!(fast.points_evaluated, slow.points_evaluated, "seed {seed}");
    }
}

#[test]
fn exhaustive_engine_equals_serial_reference() {
    for seed in 0..CASES {
        let (g, opts) = case(seed);
        let fast = exhaustive_uniform(&g, &opts);
        let slow = exhaustive_uniform_reference(&g, &opts);
        assert_eq!(fast.config, slow.config, "seed {seed}");
        assert_eq!(fast.mapping, slow.mapping, "seed {seed}");
        assert_eq!(fast.t_loop, slow.t_loop, "seed {seed}");
        assert_eq!(fast.points, slow.points, "seed {seed}");
    }
}

#[test]
fn explore_stays_at_or_below_exhaustive_uniform_optimum() {
    for seed in 0..CASES {
        let (g, opts) = case(seed);
        let ex = exhaustive_uniform(&g, &opts);
        let two_phase = explore(&g, &opts);
        assert!(
            two_phase.timing.t_loop <= ex.t_loop,
            "seed {seed}: two-phase {} worse than exhaustive uniform {}",
            two_phase.timing.t_loop,
            ex.t_loop
        );
    }
}
