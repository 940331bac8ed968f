//! Emits an [`ExecutionTrace`] back to the FX-style text format the
//! parser consumes, so traces round-trip: `parse(emit(t)) ≡ t` up to the
//! structural information the text format carries.
//!
//! Emission maps each op kind to a canonical target name that
//! [`crate::parser`] classifies back to the same kind:
//!
//! | op kind | emitted line |
//! |---|---|
//! | `Gemm` | `call_module[conv_<id>]` with a 4-D output shape |
//! | `VsaConv` | `call_function[nvsa.binding_circular]` |
//! | `Similarity` | `call_function[nvsa.match_prob_multi_batched]` |
//! | `Reduce(Sum)` | `call_function[torch.sum]` — others `torch.norm` |
//! | `Elementwise` | the matching module/function per function kind |
//!
//! GEMM reduction lengths are not expressible in the text format; the
//! emitter returns the [`ModuleRegistry`] needed to re-parse them.

use crate::parser::ModuleRegistry;
use crate::{EltFunc, ExecutionTrace, OpKind, ReduceFunc};

/// Emits the trace as Listing-1-style text plus the module registry the
/// parser needs to recover GEMM reduction lengths.
#[must_use]
pub fn emit_trace(trace: &ExecutionTrace) -> (String, ModuleRegistry) {
    let mut out = String::from("graph():\n");
    let mut registry = ModuleRegistry::new();

    for op in trace.ops() {
        let args: Vec<String> = if op.inputs().is_empty() {
            // External input placeholder with a matching element count.
            vec![format!(
                "%ext_{}[{}]",
                op.id().index(),
                op.kind().input_elems().max(1)
            )]
        } else {
            op.inputs()
                .iter()
                .map(|d| {
                    let dep = trace.op(*d);
                    format!("%{}{}", dep.name(), dims_text(dep.kind()))
                })
                .collect()
        };
        let args = args.join(", ");
        let name = op.name();
        let line = match *op.kind() {
            OpKind::Gemm { m, n, k } => {
                let target = format!("conv_{}", op.id().index());
                registry.insert(target.clone(), k);
                // Encode (m, n) as a [m, n, 1, 1] NCHW output so the parser
                // recovers them exactly.
                format!("%{name}[{m},{n},1,1] : call_module[{target}](args = ({args}))")
            }
            OpKind::VsaConv { n_vec, dim } => format!(
                "%{name}[1,{n_vec},{dim}] : call_function[nvsa.binding_circular](args = ({args}))"
            ),
            OpKind::Similarity { n_vec, dim } => format!(
                "%{name}[{n_vec}] : call_function[nvsa.match_prob_multi_batched](args = ({args}, %dict_{}[{n_vec},{dim}]))",
                op.id().index()
            ),
            OpKind::Reduce { elems, func } => {
                let target = match func {
                    ReduceFunc::Norm => "torch.norm",
                    _ => "torch.sum",
                };
                // The parser derives the reduced element count from the
                // widest argument; add a phantom external operand when the
                // real dependencies are narrower than `elems`.
                let widest = op
                    .inputs()
                    .iter()
                    .map(|d| trace.op(*d).kind().output_elems())
                    .max()
                    .unwrap_or(0);
                let args = if widest < elems {
                    format!("{args}, %red_{}[{elems}]", op.id().index())
                } else {
                    args
                };
                format!("%{name}[1] : call_function[{target}](args = ({args}))")
            }
            OpKind::Elementwise { elems, func } => match func {
                EltFunc::Relu => {
                    format!("%{name}[{elems}] : call_module[relu_{}](args = ({args}))", op.id().index())
                }
                EltFunc::Affine => {
                    format!("%{name}[{elems}] : call_module[bn_{}](args = ({args}))", op.id().index())
                }
                EltFunc::PoolMax => {
                    format!("%{name}[{elems}] : call_module[maxpool_{}](args = ({args}))", op.id().index())
                }
                EltFunc::Softmax => {
                    format!("%{name}[{elems}] : call_function[torch.softmax](args = ({args}))")
                }
                EltFunc::Clamp => {
                    format!("%{name}[{elems}] : call_function[torch.clamp](args = ({args}))")
                }
                EltFunc::Div => {
                    format!("%{name}[{elems}] : call_function[operator.div](args = ({args}))")
                }
                EltFunc::Add => {
                    format!("%{name}[{elems}] : call_function[operator.add](args = ({args}))")
                }
                _ => format!("%{name}[{elems}] : call_function[operator.mul](args = ({args}))"),
            },
        };
        out.push_str(&line);
        out.push('\n');
    }
    (out, registry)
}

fn dims_text(kind: &OpKind) -> String {
    match *kind {
        OpKind::Gemm { m, n, .. } => format!("[{m},{n},1,1]"),
        OpKind::VsaConv { n_vec, dim } => format!("[1,{n_vec},{dim}]"),
        OpKind::Similarity { n_vec, .. } => format!("[{n_vec}]"),
        OpKind::Reduce { .. } => "[1]".to_string(),
        OpKind::Elementwise { elems, .. } => format!("[{elems}]"),
    }
}

/// Structural fingerprint used by round-trip checks: op kinds, domains and
/// dependency in-degrees, ignoring names/dtypes the text format does not
/// carry losslessly.
#[must_use]
pub fn structural_signature(trace: &ExecutionTrace) -> Vec<(OpKind, usize)> {
    trace
        .ops()
        .iter()
        .map(|op| (*op.kind(), op.inputs().len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_trace, ParsePrecision};
    use crate::{Domain, TraceBuilder};
    use nsflow_tensor::DType;

    fn sample() -> ExecutionTrace {
        let mut b = TraceBuilder::new("sample");
        let c = b.push(
            "conv1",
            OpKind::Gemm {
                m: 64,
                n: 16,
                k: 27,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let r = b.push(
            "relu1",
            OpKind::Elementwise {
                elems: 1024,
                func: EltFunc::Relu,
            },
            Domain::Neural,
            DType::Int8,
            &[c],
        );
        let v = b.push(
            "bind1",
            OpKind::VsaConv { n_vec: 4, dim: 256 },
            Domain::Symbolic,
            DType::Int4,
            &[r],
        );
        let s = b.push(
            "match1",
            OpKind::Similarity {
                n_vec: 8,
                dim: 1024,
            },
            Domain::Symbolic,
            DType::Int4,
            &[v],
        );
        let _sum = b.push(
            "sum1",
            OpKind::Reduce {
                elems: 8,
                func: ReduceFunc::Sum,
            },
            Domain::Symbolic,
            DType::Int4,
            &[s],
        );
        b.finish(4).unwrap()
    }

    #[test]
    fn emit_then_parse_preserves_structure() {
        let original = sample();
        let (text, registry) = emit_trace(&original);
        let reparsed =
            parse_trace(&text, "sample", &registry, ParsePrecision::default(), 4).unwrap();
        assert_eq!(
            structural_signature(&reparsed),
            structural_signature(&original),
            "round trip changed the op structure\n--- emitted ---\n{text}"
        );
        assert_eq!(reparsed.loop_count(), original.loop_count());
    }

    #[test]
    fn emit_then_parse_preserves_dependencies() {
        let original = sample();
        let (text, registry) = emit_trace(&original);
        let reparsed =
            parse_trace(&text, "sample", &registry, ParsePrecision::default(), 4).unwrap();
        for (a, b) in original.ops().iter().zip(reparsed.ops()) {
            let da: Vec<usize> = a.inputs().iter().map(|d| d.index()).collect();
            let db: Vec<usize> = b.inputs().iter().map(|d| d.index()).collect();
            assert_eq!(da, db, "dependencies drifted at {}", a.name());
        }
    }

    #[test]
    fn emitted_text_is_human_shaped() {
        let (text, _) = emit_trace(&sample());
        assert!(text.starts_with("graph():"));
        assert!(text.contains("call_function[nvsa.binding_circular]"));
        assert!(text.contains("call_function[torch.sum]"));
        assert!(text.lines().count() >= 6);
    }
}
