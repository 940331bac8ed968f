//! Frontend integration tests: trace parsing → dataflow-graph generation
//! → memory planning, across the crates' boundaries.

use nsflow::graph::DataflowGraph;
use nsflow::tensor::DType;
use nsflow::trace::parser::{parse_trace, ModuleRegistry, ParsePrecision, LISTING1_NVSA};
use nsflow::trace::{Domain, OpKind, TraceBuilder};
use nsflow::workloads::traces;

fn registry() -> ModuleRegistry {
    let mut r = ModuleRegistry::new();
    r.insert("conv2", 64 * 9);
    r
}

#[test]
fn listing1_flows_through_graph_generation() {
    let trace = parse_trace(
        LISTING1_NVSA,
        "nvsa",
        &registry(),
        ParsePrecision::default(),
        8,
    )
    .unwrap();
    let graph = DataflowGraph::from_trace(trace);
    // Hand-derived from Listing 1: `%bn1`, `%maxpool_1` and the `%vec_*`
    // operands are not ops of the snapshot, so the first four ops are
    // sources; `mul_1` waits on `match_prob_1` (depth 1) and the
    // `match_prob_multi_batched_1 → sum_1 → clamp_1` chain (depth 3).
    let depths: Vec<(&str, usize)> = graph
        .trace()
        .ops()
        .iter()
        .map(|op| (op.name(), graph.depth(op.id())))
        .collect();
    assert_eq!(
        depths,
        [
            ("relu_1", 0),
            ("conv2_1", 0),
            ("inv_binding_circular_1", 0),
            ("inv_binding_circular_2", 0),
            ("match_prob_1", 1),
            ("match_prob_multi_batched_1", 1),
            ("sum_1", 2),
            ("clamp_1", 3),
            ("mul_1", 4),
        ]
    );
}

#[test]
fn listing1_memory_plan_is_consistent() {
    let trace = parse_trace(
        LISTING1_NVSA,
        "nvsa",
        &registry(),
        ParsePrecision::default(),
        8,
    )
    .unwrap();
    let graph = DataflowGraph::from_trace(trace);
    let req = graph.memory_requirements();
    assert!(req.max_nn_filter_bytes > 0);
    assert!(req.max_vsa_node_bytes > 0);
    assert_eq!(
        req.cache_bytes(),
        2 * (req.merged_mem_a_bytes() + req.max_nn_input_bytes + req.max_output_bytes)
    );
}

#[test]
fn workload_traces_have_consistent_domain_tagging() {
    for workload in traces::all() {
        for op in workload.trace.ops() {
            match op.kind() {
                OpKind::Gemm { .. } => assert_eq!(
                    op.domain(),
                    Domain::Neural,
                    "{}: GEMM op {} mis-tagged",
                    workload.name,
                    op.name()
                ),
                OpKind::VsaConv { .. } => assert_eq!(
                    op.domain(),
                    Domain::Symbolic,
                    "{}: VSA op {} mis-tagged",
                    workload.name,
                    op.name()
                ),
                _ => {}
            }
        }
    }
}

#[test]
fn workload_traces_are_schedulable_in_topological_order() {
    for workload in traces::all() {
        let mut done = std::collections::HashSet::new();
        for op in workload.trace.ops() {
            for dep in op.inputs() {
                assert!(
                    done.contains(dep),
                    "{}: op {} depends on later op",
                    workload.name,
                    op.name()
                );
            }
            done.insert(op.id());
        }
    }
}

#[test]
fn parser_and_builder_produce_equivalent_structures() {
    // Build the same tiny workload both ways and compare the derived
    // dataflow structure (op classes and dependency depths).
    let text = "\
%conv_1[1,8,16,16] : call_module[conv1](args = (%input[1,3,16,16]))
%relu_1[1,8,16,16] : call_module[relu](args = (%conv_1[1,8,16,16]))
%bind_1[1,4,64] : call_function[nvsa.binding_circular](args = (%relu_1[1,8,16,16], %key[1,4,64]))
";
    let mut registry = ModuleRegistry::new();
    registry.insert("conv1", 27);
    let parsed = parse_trace(text, "tiny", &registry, ParsePrecision::default(), 1).unwrap();

    let mut b = TraceBuilder::new("tiny");
    let c = b.push(
        "conv_1",
        OpKind::Gemm {
            m: 256,
            n: 8,
            k: 27,
        },
        Domain::Neural,
        DType::Int8,
        &[],
    );
    let r = b.push(
        "relu_1",
        OpKind::Elementwise {
            elems: 2048,
            func: nsflow::trace::EltFunc::Relu,
        },
        Domain::Neural,
        DType::Int8,
        &[c],
    );
    let _v = b.push(
        "bind_1",
        OpKind::VsaConv { n_vec: 4, dim: 64 },
        Domain::Symbolic,
        DType::Int4,
        &[r],
    );
    let built = b.finish(1).unwrap();

    assert_eq!(parsed.ops().len(), built.ops().len());
    for (p, q) in parsed.ops().iter().zip(built.ops()) {
        assert_eq!(p.kind(), q.kind(), "op {} differs", p.name());
        assert_eq!(p.domain(), q.domain());
        assert_eq!(p.inputs().len(), q.inputs().len());
    }
}
