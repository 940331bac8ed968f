//! Architectural workload models: `ExecutionTrace` builders for NVSA,
//! MIMONet, LVRF and PrAE.
//!
//! Each builder reproduces the workload's operator mix at the level the
//! NSFlow frontend consumes: CNN backbones expand into per-layer GEMM +
//! SIMD ops (shapes from the crate's `nn` layer algebra), symbolic stages
//! into blockwise circular-convolution, similarity and reduction kernels
//! with NVSA-style block-code geometry (`[4, 256]`-class codes,
//! Listing 1). One **loop** is one candidate evaluation; RPM-style
//! workloads run 8 loops.
//!
//! Proportions follow the paper's characterization: NVSA's symbolic ops
//! are ~19% of FLOPs (yet dominate runtime on GPU-class devices);
//! MIMONet is NN-heavier; LVRF/PrAE are symbolic-heavier.

use nsflow_tensor::DType;
use nsflow_trace::{Domain, EltFunc, ExecutionTrace, OpId, OpKind, ReduceFunc, TraceBuilder};

use crate::nn::{models, LayerKind, Model};

/// A workload: its trace plus the model-size facts the Tab. IV memory row
/// needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Display name.
    pub name: &'static str,
    /// The execution trace (one loop, plus loop count).
    pub trace: ExecutionTrace,
    /// NN parameter count (stored at the neural precision).
    pub nn_params: usize,
    /// Symbolic dictionary/codebook element count (stored at the symbolic
    /// precision).
    pub symbolic_elems: usize,
}

/// Pushes a CNN backbone's layers as trace ops (the GEMM `m` dimension
/// and element counts scaled by `batch`); returns the last op id.
fn push_model(
    b: &mut TraceBuilder,
    model: &Model,
    dtype: DType,
    batch: usize,
    prev: Option<OpId>,
) -> OpId {
    push_model_with_taps(b, model, dtype, batch, prev).0
}

/// Like [`push_model`] but also returns the ids of the GEMM-class layers,
/// so callers can attach symbolic branches at intermediate depths (the
/// paper's Fig. 4 dataflow interleaves symbolic ops with NN layers).
fn push_model_with_taps(
    b: &mut TraceBuilder,
    model: &Model,
    dtype: DType,
    batch: usize,
    prev: Option<OpId>,
) -> (OpId, Vec<OpId>) {
    let mut last = prev;
    let mut taps = Vec::new();
    let dims = model.gemm_dims();
    for (i, layer) in model.layers().iter().enumerate() {
        let inputs: Vec<OpId> = last.into_iter().collect();
        let out_elems = if i + 1 < model.layers().len() {
            model.layer_input_shape(i + 1).volume()
        } else {
            model.output_shape().volume()
        };
        let id = match (&dims[i], layer.kind()) {
            (Some(g), _) => b.push(
                format!("{}_{}", model.name(), layer.name()),
                OpKind::Gemm {
                    m: g.m * batch,
                    n: g.n,
                    k: g.k,
                },
                Domain::Neural,
                dtype,
                &inputs,
            ),
            (None, LayerKind::Relu) => b.push(
                format!("{}_{}", model.name(), layer.name()),
                OpKind::Elementwise {
                    elems: out_elems * batch,
                    func: EltFunc::Relu,
                },
                Domain::Neural,
                dtype,
                &inputs,
            ),
            (None, LayerKind::BatchNorm2d) => b.push(
                format!("{}_{}", model.name(), layer.name()),
                OpKind::Elementwise {
                    elems: out_elems * batch,
                    func: EltFunc::Affine,
                },
                Domain::Neural,
                dtype,
                &inputs,
            ),
            (None, LayerKind::GlobalAvgPool) => b.push(
                format!("{}_{}", model.name(), layer.name()),
                OpKind::Reduce {
                    elems: model.layer_input_shape(i).volume() * batch,
                    func: ReduceFunc::Mean,
                },
                Domain::Neural,
                dtype,
                &inputs,
            ),
            (None, _) => b.push(
                format!("{}_{}", model.name(), layer.name()),
                OpKind::Elementwise {
                    elems: out_elems * batch,
                    func: EltFunc::PoolMax,
                },
                Domain::Neural,
                dtype,
                &inputs,
            ),
        };
        if dims[i].is_some() {
            taps.push(id);
        }
        last = Some(id);
    }
    (last.expect("models have at least one layer"), taps)
}

/// Pushes a chain of symbolic kernels: `bind_count` blockwise circular
/// convolutions (geometry `n_vec × dim`), with a similarity + sum + clamp
/// + mul glue group every `sim_every` bindings — the Listing-1 pattern.
#[allow(clippy::too_many_arguments)]
fn push_symbolic_chain(
    b: &mut TraceBuilder,
    prev: OpId,
    bind_count: usize,
    n_vec: usize,
    dim: usize,
    dict: usize,
    sim_every: usize,
    dtype: DType,
) -> OpId {
    let mut last = prev;
    for j in 0..bind_count {
        last = b.push(
            format!("inv_binding_circular_{j}"),
            OpKind::VsaConv { n_vec, dim },
            Domain::Symbolic,
            dtype,
            &[last],
        );
        if sim_every > 0 && (j + 1) % sim_every == 0 {
            let sim = b.push(
                format!("match_prob_multi_batched_{j}"),
                OpKind::Similarity {
                    n_vec: dict,
                    dim: n_vec * dim,
                },
                Domain::Symbolic,
                dtype,
                &[last],
            );
            let sum = b.push(
                format!("sum_{j}"),
                OpKind::Reduce {
                    elems: dict,
                    func: ReduceFunc::Sum,
                },
                Domain::Symbolic,
                dtype,
                &[sim],
            );
            let clamp = b.push(
                format!("clamp_{j}"),
                OpKind::Elementwise {
                    elems: 1,
                    func: EltFunc::Clamp,
                },
                Domain::Symbolic,
                dtype,
                &[sum],
            );
            // The scalar product is a consumed leaf; the next binding
            // chains from the similarity output.
            let _mul = b.push(
                format!("mul_{j}"),
                OpKind::Elementwise {
                    elems: 1,
                    func: EltFunc::Mul,
                },
                Domain::Symbolic,
                dtype,
                &[sim, clamp],
            );
            last = sim;
        }
    }
    last
}

/// NVSA (Hersche et al.): ResNet-18 perception + blockwise-circular-code
/// rule inference over 8 answer candidates.
#[must_use]
pub fn nvsa() -> Workload {
    let mut b = TraceBuilder::new("NVSA");
    // Perception runs on a panel batch (the paper's trace shows batch-16
    // ResNet-18 activations); two panels per candidate loop here.
    let backbone = models::resnet18(96, 3);
    let last_nn = push_model(&mut b, &backbone, DType::Int8, 2, None);
    // Symbolic share tuned to ~19% of workload FLOPs: 20 batched binding
    // kernels per candidate loop, each processing 32 block-code vectors of
    // 512 elements (rule sets and dictionary probes are evaluated in
    // batches, as NVSA's `match_prob_multi_batched` does).
    let _ = push_symbolic_chain(&mut b, last_nn, 20, 32, 512, 8, 3, DType::Int4);
    Workload {
        name: "NVSA",
        trace: b.finish(8).expect("construction is valid"),
        nn_params: backbone.total_params() as usize,
        symbolic_elems: 20 * 1024 * 1024,
    }
}

/// MIMONet (Menet et al.): computation-in-superposition — binding wraps a
/// mid-size CNN processing 4 superposed inputs; NN-dominant.
#[must_use]
pub fn mimonet() -> Workload {
    let mut b = TraceBuilder::new("MIMONet");
    // Superposition encode: bind each of 4 inputs with its key.
    let enc = b.push(
        "superpose_bind",
        OpKind::VsaConv { n_vec: 8, dim: 512 },
        Domain::Symbolic,
        DType::Int8,
        &[],
    );
    let backbone = models::mimonet_backbone(64, 4);
    let last_nn = push_model(&mut b, &backbone, DType::Int8, 1, Some(enc));
    // Decode: unbind per input + similarity readout.
    let dec = b.push(
        "unbind_readout",
        OpKind::VsaConv { n_vec: 8, dim: 512 },
        Domain::Symbolic,
        DType::Int8,
        &[last_nn],
    );
    let _ = b.push(
        "readout_sim",
        OpKind::Similarity {
            n_vec: 16,
            dim: 512,
        },
        Domain::Symbolic,
        DType::Int8,
        &[dec],
    );
    Workload {
        name: "MIMONet",
        trace: b.finish(4).expect("construction is valid"),
        nn_params: backbone.total_params() as usize,
        symbolic_elems: 4 * 1024 * 1024,
    }
}

/// LVRF (Hersche et al.): probabilistic abduction — a small perception
/// CNN feeding a heavy vector-symbolic rule-probability engine.
#[must_use]
pub fn lvrf() -> Workload {
    let mut b = TraceBuilder::new("LVRF");
    let backbone = models::small_cnn(32, 1, 512);
    let last_nn = push_model(&mut b, &backbone, DType::Int8, 1, None);
    let last = push_symbolic_chain(&mut b, last_nn, 16, 32, 512, 16, 2, DType::Int4);
    // Probabilistic normalization tail (exp/log on rule probabilities).
    let t = b.push(
        "rule_prob_exp",
        OpKind::Elementwise {
            elems: 4096,
            func: EltFunc::Transcendental,
        },
        Domain::Symbolic,
        DType::Int4,
        &[last],
    );
    let _ = b.push(
        "rule_prob_norm",
        OpKind::Reduce {
            elems: 4096,
            func: ReduceFunc::Norm,
        },
        Domain::Symbolic,
        DType::Int4,
        &[t],
    );
    Workload {
        name: "LVRF",
        trace: b.finish(8).expect("construction is valid"),
        nn_params: backbone.total_params() as usize,
        symbolic_elems: 12 * 1024 * 1024,
    }
}

/// PrAE (Zhang et al.): abstract reasoning via probabilistic abduction
/// and execution — small perception, many small symbolic scene-algebra
/// kernels.
#[must_use]
pub fn prae() -> Workload {
    let mut b = TraceBuilder::new("PrAE");
    let backbone = models::small_cnn(32, 1, 256);
    let mut last = push_model(&mut b, &backbone, DType::Int8, 1, None);
    for j in 0..24 {
        let bind = b.push(
            format!("scene_bind_{j}"),
            OpKind::VsaConv { n_vec: 4, dim: 256 },
            Domain::Symbolic,
            DType::Int4,
            &[last],
        );
        let prob = b.push(
            format!("scene_prob_{j}"),
            OpKind::Elementwise {
                elems: 2048,
                func: EltFunc::Softmax,
            },
            Domain::Symbolic,
            DType::Int4,
            &[bind],
        );
        last = prob;
    }
    let _ = b.push(
        "abduce_sim",
        OpKind::Similarity {
            n_vec: 8,
            dim: 1024,
        },
        Domain::Symbolic,
        DType::Int4,
        &[last],
    );
    Workload {
        name: "PrAE",
        trace: b.finish(8).expect("construction is valid"),
        nn_params: backbone.total_params() as usize,
        symbolic_elems: 6 * 1024 * 1024,
    }
}

/// All four evaluated workloads (Fig. 1 order).
#[must_use]
pub fn all() -> Vec<Workload> {
    vec![nvsa(), mimonet(), lvrf(), prae()]
}

/// Looks up a suite workload by case-insensitive name (`"nvsa"`,
/// `"mimonet"`, `"lvrf"`, `"prae"`); `None` for anything else.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    match name.to_ascii_lowercase().as_str() {
        "nvsa" => Some(nvsa()),
        "mimonet" => Some(mimonet()),
        "lvrf" => Some(lvrf()),
        "prae" => Some(prae()),
        _ => None,
    }
}

/// Fig. 6 ablation workload: ResNet-18 plus a symbolic stage scaled so
/// that symbolic ops account for (approximately) `target_ratio` of the
/// loop's memory traffic. Returns the trace and the achieved ratio.
///
/// # Panics
///
/// Panics unless `0.0 <= target_ratio < 1.0`.
#[must_use]
pub fn nvsa_like_with_symbolic_ratio(target_ratio: f64) -> (ExecutionTrace, f64) {
    assert!(
        (0.0..1.0).contains(&target_ratio),
        "ratio must be in [0, 1)"
    );
    let mut b = TraceBuilder::new("nvsa-like-ablation");
    let backbone = models::resnet18(96, 3);
    let (last_nn, taps) = push_model_with_taps(&mut b, &backbone, DType::Int8, 2, None);
    let _ = last_nn;

    // Probe the NN-only bytes to size the symbolic stage.
    let probe = b.clone().finish(1).expect("NN chain is valid");
    let (nn_bytes, _) = probe.bytes_by_domain();

    // Heterogeneous symbolic stage (mixed vector quantities and
    // dimensions, as real rule sets have) — this heterogeneity is what
    // Phase II's per-node mapping refinement exploits.
    let shapes: [(usize, usize); 3] = [(64, 256), (128, 512), (64, 1024)];
    let avg_node_bytes = shapes
        .iter()
        .map(|&(n_vec, dim)| {
            let kind = OpKind::VsaConv { n_vec, dim };
            DType::Int4
                .storage_bytes(kind.input_elems() + kind.weight_elems() + kind.output_elems())
        })
        .sum::<usize>() as f64
        / shapes.len() as f64;
    let count = if target_ratio <= 0.0 {
        0
    } else {
        ((target_ratio * nn_bytes as f64) / ((1.0 - target_ratio) * avg_node_bytes)).round()
            as usize
    };
    // Interleave the symbolic branches across the NN depth: node j hangs
    // off tap j%taps (serial within a branch), mirroring how the paper's
    // dataflow graph groups symbolic ops with the layers they overlap.
    let mut branch_tail: Vec<OpId> = taps.clone();
    for j in 0..count {
        let (n_vec, dim) = shapes[j % shapes.len()];
        let t = j % branch_tail.len();
        let id = b.push(
            format!("inv_binding_circular_{j}"),
            OpKind::VsaConv { n_vec, dim },
            Domain::Symbolic,
            DType::Int4,
            &[branch_tail[t]],
        );
        branch_tail[t] = id;
    }
    let trace = b.finish(8).expect("construction is valid");
    let achieved = trace.symbolic_memory_fraction();
    (trace, achieved)
}

/// Scalability workload (the abstract's 150× claim): NVSA with its
/// symbolic vector count scaled by `scale` while the NN part is fixed.
#[must_use]
pub fn nvsa_scaled_symbolic(scale: usize) -> ExecutionTrace {
    assert!(scale > 0, "scale must be positive");
    let mut b = TraceBuilder::new("nvsa-scaled");
    let backbone = models::resnet18(96, 3);
    let last_nn = push_model(&mut b, &backbone, DType::Int8, 2, None);
    // Baseline symbolic stage is deliberately small relative to the NN so
    // the sweep exposes how the architecture absorbs symbolic growth; the
    // scale multiplies the *vector batch* of each kernel, which is how
    // symbolic working sets actually grow (bigger dictionaries/rule sets).
    let _ = push_symbolic_chain(&mut b, last_nn, 12, 8 * scale, 512, 8, 0, DType::Int4);
    b.finish(8).expect("construction is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvsa_symbolic_flop_share_matches_paper() {
        let w = nvsa();
        let share = w.trace.symbolic_flop_fraction();
        assert!(
            (0.12..0.30).contains(&share),
            "NVSA symbolic FLOP share {share} should be ~19%"
        );
    }

    #[test]
    fn nvsa_loops_eight_candidates() {
        assert_eq!(nvsa().trace.loop_count(), 8);
    }

    #[test]
    fn mimonet_is_nn_dominant() {
        let w = mimonet();
        assert!(w.trace.symbolic_flop_fraction() < 0.2);
    }

    #[test]
    fn lvrf_and_prae_are_symbolic_heavier_than_mimonet() {
        let m = mimonet().trace.symbolic_flop_fraction();
        assert!(lvrf().trace.symbolic_flop_fraction() > m);
        assert!(prae().trace.symbolic_flop_fraction() > m);
    }

    #[test]
    fn all_returns_four_distinct_workloads() {
        let ws = all();
        assert_eq!(ws.len(), 4);
        let names: std::collections::HashSet<_> = ws.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 4);
        for w in &ws {
            assert!(!w.trace.ops().is_empty());
            assert!(w.nn_params > 0);
        }
    }

    #[test]
    fn ablation_ratio_is_achieved() {
        for target in [0.01, 0.2, 0.5, 0.8] {
            let (_, achieved) = nvsa_like_with_symbolic_ratio(target);
            assert!(
                (achieved - target).abs() < 0.08,
                "target {target} achieved {achieved}"
            );
        }
    }

    #[test]
    fn ablation_zero_ratio_has_no_symbolic_ops() {
        let (trace, achieved) = nvsa_like_with_symbolic_ratio(0.0);
        assert_eq!(trace.vsa_nodes().len(), 0);
        assert_eq!(achieved, 0.0);
    }

    #[test]
    fn scaled_symbolic_grows_linearly() {
        let base = nvsa_scaled_symbolic(1);
        let big = nvsa_scaled_symbolic(150);
        let (_, s1) = base.macs_by_domain();
        let (_, s150) = big.macs_by_domain();
        let ratio = s150 as f64 / s1 as f64;
        assert!(
            (145.0..155.0).contains(&ratio),
            "symbolic scale ratio {ratio}"
        );
        // NN part unchanged.
        let (n1, _) = base.macs_by_domain();
        let (n150, _) = big.macs_by_domain();
        assert_eq!(n1, n150);
    }

    #[test]
    fn baseline_scaled_workload_is_nn_dominated() {
        let base = nvsa_scaled_symbolic(1);
        let (n, s) = base.macs_by_domain();
        assert!(n > 20 * s, "baseline symbolic should be tiny: {n} vs {s}");
    }
}
