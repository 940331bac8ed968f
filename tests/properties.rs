//! Seeded property tests on the core invariants: VSA algebra,
//! microsimulator-vs-analytical-model agreement, DSE feasibility and
//! schedule correctness on randomized workloads. Each property runs over
//! seeds `0..CASES`; a failure names its seed.

use nsflow::arch::adarray::microsim;
use nsflow::arch::{analytical, ArrayConfig};
use nsflow::core::NsFlow;
use nsflow::dse::{explore, DseOptions};
use nsflow::fpga::FpgaDevice;
use nsflow::graph::DataflowGraph;
use nsflow::sim::schedule::{self, SimOptions};
use nsflow::tensor::quant::QuantParams;
use nsflow::tensor::rng::StdRng;
use nsflow::tensor::DType;
use nsflow::trace::{Domain, OpKind, TraceBuilder};
use nsflow::vsa::gemm;
use nsflow::vsa::{ops, BlockCode};

/// Cases per property.
const CASES: u64 = 64;

fn small_f32(rng: &mut StdRng) -> f32 {
    rng.gen_range(-100i32..=100) as f32 / 25.0
}

fn small_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| small_f32(rng)).collect()
}

fn vec_pair(rng: &mut StdRng, len: std::ops::RangeInclusive<usize>) -> (Vec<f32>, Vec<f32>) {
    let n = rng.gen_range(len);
    (small_vec(rng, n), small_vec(rng, n))
}

// ── VSA algebra ─────────────────────────────────────────────────────────

#[test]
fn circular_convolution_commutes() {
    for seed in 0..CASES {
        let (a, b) = vec_pair(&mut StdRng::seed_from_u64(seed), 1..=24);
        let ab = ops::circular_convolve(&a, &b);
        let ba = ops::circular_convolve(&b, &a);
        for (x, y) in ab.iter().zip(&ba) {
            assert!((x - y).abs() < 1e-3, "seed {seed}: {x} vs {y}");
        }
    }
}

#[test]
fn circular_convolution_associates() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a, b) = vec_pair(rng, 1..=12);
        let c_seed = rng.gen_range(0usize..1000);
        let n = a.len();
        let c: Vec<f32> = (0..n)
            .map(|i| (((c_seed + i * 7) % 13) as f32 - 6.0) / 6.0)
            .collect();
        let left = ops::circular_convolve(&ops::circular_convolve(&a, &b), &c);
        let right = ops::circular_convolve(&a, &ops::circular_convolve(&b, &c));
        for (x, y) in left.iter().zip(&right) {
            assert!((x - y).abs() < 1e-2, "seed {seed}: {x} vs {y}");
        }
    }
}

#[test]
fn correlation_inverts_convolution_via_involution() {
    for seed in 0..CASES {
        let (a, b) = vec_pair(&mut StdRng::seed_from_u64(seed), 1..=24);
        // corr(x, b) == conv(x, involution(b)) for all x — the identity
        // that lets the AdArray reuse its streaming path for unbinding.
        let corr = ops::circular_correlate(&a, &b);
        let conv = ops::circular_convolve(&a, &ops::involution(&b));
        for (x, y) in corr.iter().zip(&conv) {
            assert!((x - y).abs() < 1e-3, "seed {seed}: {x} vs {y}");
        }
    }
}

#[test]
fn convolution_distributes_over_bundling() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a, b) = vec_pair(rng, 1..=16);
        let shift = rng.gen_range(0usize..16);
        let n = a.len();
        let c: Vec<f32> = (0..n).map(|i| b[(i + shift) % n]).collect();
        // a ⊛ (b + c) == a ⊛ b + a ⊛ c
        let sum: Vec<f32> = b.iter().zip(&c).map(|(x, y)| x + y).collect();
        let lhs = ops::circular_convolve(&a, &sum);
        let ab = ops::circular_convolve(&a, &b);
        let ac = ops::circular_convolve(&a, &c);
        for ((l, x), y) in lhs.iter().zip(&ab).zip(&ac) {
            assert!((l - (x + y)).abs() < 1e-2, "seed {seed}");
        }
    }
}

// ── Microsim ≡ analytical model ≡ functional kernels ────────────────────

#[test]
fn circular_conv_microsim_matches_kernel_and_timing() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a, b) = vec_pair(rng, 1..=20);
        let d = a.len();
        let h = d + rng.gen_range(0usize..12);
        let sim = microsim::circular_conv_column(h, &a, &b).unwrap();
        let reference = ops::circular_convolve(&a, &b);
        for (s, r) in sim.outputs.iter().zip(&reference) {
            assert!((s - r).abs() < 1e-2, "seed {seed}: {s} vs {r}");
        }
        assert_eq!(sim.cycles, (3 * h + d - 1) as u64, "seed {seed}");
    }
}

#[test]
fn gemm_microsim_matches_kernel_and_eq1() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (m, k, n) = (
            rng.gen_range(1usize..8),
            rng.gen_range(1usize..20),
            rng.gen_range(1usize..20),
        );
        let (h, w, n_l) = (
            rng.gen_range(4usize..12),
            rng.gen_range(4usize..12),
            rng.gen_range(1usize..4),
        );
        let a: Vec<f32> = (0..m * k).map(|i| ((i % 11) as f32 - 5.0) / 5.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i % 7) as f32 - 3.0) / 3.0).collect();
        let sim = microsim::nn_layer(h, w, n_l, &a, &b, m, k, n).unwrap();
        let reference = gemm::matmul(&a, &b, m, k, n);
        for (s, r) in sim.outputs.iter().zip(&reference) {
            assert!((s - r).abs() < 1e-2, "seed {seed}: {s} vs {r}");
        }
        let cfg = ArrayConfig::new(h, w, n_l).unwrap();
        assert_eq!(
            sim.cycles,
            analytical::nn_layer_cycles(&cfg, n_l, m, n, k),
            "seed {seed}"
        );
    }
}

// ── Quantization ────────────────────────────────────────────────────────

#[test]
fn fake_quantization_error_is_bounded() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let len = rng.gen_range(1usize..64);
        let values = small_vec(rng, len);
        for dtype in [DType::Int8, DType::Int4] {
            let q = QuantParams::fit(&values, dtype).unwrap();
            // Half a quantization step: the saturated code is `integer_max` steps.
            let qmax = dtype.integer_max().unwrap() as f32;
            let half_step = q.fake_quantize(f32::MAX) / qmax / 2.0;
            for &v in &values {
                let err = (q.fake_quantize(v) - v).abs();
                assert!(err <= half_step + 1e-6, "seed {seed}: {v} off by {err}");
            }
        }
    }
}

// ── FFT path ≡ direct kernels ───────────────────────────────────────────

#[test]
fn fft_convolution_matches_direct() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let n = 1usize << rng.gen_range(3u32..9);
        let offset = rng.gen_range(0usize..500);
        let a: Vec<f32> = (0..n)
            .map(|i| ((offset + i * 13) % 17) as f32 / 8.5 - 1.0)
            .collect();
        let b: Vec<f32> = (0..n)
            .map(|i| ((offset + i * 7) % 19) as f32 / 9.5 - 1.0)
            .collect();
        let code = |v: Vec<f32>| BlockCode::from_vec(1, n, v).unwrap();
        let direct = ops::circular_convolve(&a, &b);
        let fast = nsflow::vsa::fft::bind_fast(&code(a), &code(b)).unwrap();
        for (f, d) in fast.data().iter().zip(&direct) {
            assert!((f - d).abs() < 1e-2, "seed {seed}: {f} vs {d}");
        }
    }
}

// ── Sparse block codes ≡ dense one-hot circular convolution ─────────────

#[test]
fn sparse_binding_equals_dense_convolution() {
    use nsflow::vsa::sparse::SparseBlockCode;
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let blocks = rng.gen_range(1usize..5);
        let idx_a: Vec<usize> = (0..blocks).map(|_| rng.gen_range(0usize..16)).collect();
        let shift = rng.gen_range(0usize..16);
        let idx_b: Vec<usize> = idx_a.iter().map(|&i| (i + shift) % 16).collect();
        let a = SparseBlockCode::new(idx_a, 16).unwrap();
        let b = SparseBlockCode::new(idx_b, 16).unwrap();
        let dense_bound = ops::bind(&a.to_dense(), &b.to_dense()).unwrap();
        assert_eq!(dense_bound, a.bind(&b).unwrap().to_dense(), "seed {seed}");
        // Exact inversion, always.
        assert_eq!(a.bind(&b).unwrap().unbind(&b).unwrap(), a, "seed {seed}");
    }
}

// ── Trace emitter round trip ────────────────────────────────────────────

#[test]
fn emitted_traces_reparse_to_the_same_structure() {
    use nsflow::trace::emitter::{emit_trace, structural_signature};
    use nsflow::trace::parser::parse_trace;
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let nn_layers = rng.gen_range(1usize..4);
        let vsa_nodes = rng.gen_range(0usize..4);
        let m = rng.gen_range(1usize..512);
        let loops = rng.gen_range(1usize..5);
        let mut b = TraceBuilder::new("rt");
        let mut prev = None;
        for i in 0..nn_layers {
            let inputs: Vec<_> = prev.into_iter().collect();
            prev = Some(b.push(
                format!("conv{i}"),
                OpKind::Gemm { m, n: 16, k: 32 },
                Domain::Neural,
                DType::Int8,
                &inputs,
            ));
        }
        for j in 0..vsa_nodes {
            let inputs: Vec<_> = prev.into_iter().collect();
            prev = Some(b.push(
                format!("bind{j}"),
                OpKind::VsaConv { n_vec: 4, dim: 64 },
                Domain::Symbolic,
                DType::Int4,
                &inputs,
            ));
        }
        let original = b.finish(loops).unwrap();
        let (text, registry) = emit_trace(&original);
        let reparsed = parse_trace(&text, "rt", &registry, Default::default(), loops).unwrap();
        assert_eq!(
            structural_signature(&reparsed),
            structural_signature(&original),
            "seed {seed}"
        );
    }
}

/// Trace-text pieces the mutation draws from: the grammar's punctuation,
/// digits, huge numbers and a non-ASCII character.
const TRACE_PIECES: [&str; 16] = [
    "%",
    "[",
    "]",
    ",",
    ":",
    "(",
    ")",
    "=",
    " ",
    "x",
    "0",
    "-1",
    "call_module",
    "call_function",
    "99999999999999999999",
    "\u{e9}",
];

#[test]
fn mutated_trace_text_never_panics_the_parser() {
    use nsflow::trace::emitter::emit_trace;
    use nsflow::trace::parser::parse_trace;
    let emitted: Vec<_> = nsflow::workloads::traces::all()
        .into_iter()
        .map(|w| (w.name, emit_trace(&w.trace), w.trace.loop_count()))
        .collect();
    for seed in 0..256 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (name, (text, registry), loops) = &emitted[rng.gen_range(0..emitted.len())];
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for _ in 0..rng.gen_range(1..=4) {
            let at = rng.gen_range(0..lines.len());
            match rng.gen_range(0..4) {
                0 => {
                    lines.remove(at);
                }
                1 => {
                    let copy = lines[at].clone();
                    lines.insert(at, copy);
                }
                2 => {
                    let other = rng.gen_range(0..lines.len());
                    lines.swap(at, other);
                }
                _ => {
                    // Splice a piece into the line at a char boundary.
                    let line = &mut lines[at];
                    let cut = rng.gen_range(0..=line.chars().count());
                    let byte = line.char_indices().nth(cut).map_or(line.len(), |(i, _)| i);
                    line.insert_str(byte, TRACE_PIECES[rng.gen_range(0..TRACE_PIECES.len())]);
                    if rng.gen::<bool>() {
                        line.truncate(byte);
                    }
                }
            }
            if lines.is_empty() {
                break;
            }
        }
        // Ok or a TraceError — reaching the next line is the property.
        let Ok(trace) = parse_trace(
            &lines.join("\n"),
            name,
            registry,
            Default::default(),
            *loops,
        ) else {
            continue;
        };
        // A mutant that parses compiles to a design or a typed error on
        // both boards, and every design runs.
        for device in [FpgaDevice::u250(), FpgaDevice::zcu104()] {
            let flow = NsFlow::new().with_device(device);
            if let Ok(design) = flow.compile(trace.clone()) {
                let _ = design.deploy().run();
            }
        }
    }
}

// ── DSE + scheduling on randomized workloads ────────────────────────────

#[test]
fn dse_and_schedule_invariants_hold() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let nn_layers = rng.gen_range(1usize..4);
        let vsa_nodes = rng.gen_range(1usize..5);
        let m = rng.gen_range(16usize..512);
        let dim_exp = rng.gen_range(5u32..10);
        let loops = rng.gen_range(1usize..6);
        let mut b = TraceBuilder::new("random");
        let mut prev = None;
        for i in 0..nn_layers {
            let inputs: Vec<_> = prev.into_iter().collect();
            prev = Some(b.push(
                format!("conv{i}"),
                OpKind::Gemm {
                    m,
                    n: 32 << (i % 3),
                    k: 64,
                },
                Domain::Neural,
                DType::Int8,
                &inputs,
            ));
        }
        for j in 0..vsa_nodes {
            let inputs: Vec<_> = prev.into_iter().collect();
            prev = Some(b.push(
                format!("bind{j}"),
                OpKind::VsaConv {
                    n_vec: 4,
                    dim: 1 << dim_exp,
                },
                Domain::Symbolic,
                DType::Int4,
                &inputs,
            ));
        }
        let graph = DataflowGraph::from_trace(b.finish(loops).unwrap());
        let opts = DseOptions {
            max_pes: 2048,
            iter_max: 4,
            ..DseOptions::default()
        };
        let result = explore(&graph, &opts);

        // Budget and mapping feasibility.
        assert!(result.config.total_pes() <= opts.max_pes, "seed {seed}");
        result
            .mapping
            .validate(&result.config, nn_layers, vsa_nodes)
            .unwrap();

        // The schedule respects dependencies and resources.
        let sched = schedule::run_pooled(
            &graph,
            &result.config,
            &result.mapping,
            &SimOptions {
                simd_lanes: 64,
                transfer: None,
            },
        );
        let mut end_of = std::collections::HashMap::new();
        for so in sched.ops() {
            for dep in graph.trace().op(so.op).inputs() {
                let dep_end = end_of
                    .get(&(so.loop_idx, dep.index()))
                    .copied()
                    .unwrap_or(0);
                assert!(so.start >= dep_end, "seed {seed}");
            }
            end_of.insert((so.loop_idx, so.op.index()), so.end);
        }
        // The schedule is never faster than the analytical single-loop bound.
        assert!(sched.total_cycles() >= result.timing.t_loop, "seed {seed}");
    }
}
