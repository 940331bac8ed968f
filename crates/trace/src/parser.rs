//! Text parser for FX-style execution traces (the paper's Listing 1).
//!
//! The accepted grammar is one operator per line:
//!
//! ```text
//! %<name>[d0,d1,…] : call_module[<target>](args = (%ref[dims], …))
//! %<name>[d0,d1,…] : call_function[<target>](args = (%ref[dims], …))
//! ```
//!
//! Blank lines, a leading `graph():` header and `//`/`#` comments are
//! skipped. References to names never defined in the trace are treated as
//! external inputs (constants, parameters, dataset tensors) and produce no
//! dependency edge — exactly how FX free variables behave.
//!
//! ## Operator classification
//!
//! | target pattern | op kind | domain |
//! |---|---|---|
//! | `conv*` module (needs a [`ModuleRegistry`] entry for its reduction length) | `Gemm` | neural |
//! | `linear*`/`fc*` module (registry entry) | `Gemm` | neural |
//! | `relu*`, `bn*`, `batchnorm*`, `maxpool*`, `avgpool*`, `sigmoid*` | `Elementwise` | neural |
//! | function containing `binding_circular` (incl. `inv_binding…`) | `VsaConv` | symbolic |
//! | function containing `match_prob` | `Similarity` | symbolic |
//! | `torch.sum` | `Reduce(Sum)` | inherited |
//! | `*.clamp`/`clamp` | `Elementwise(Clamp)` | inherited |
//! | `operator.mul`/`add`/`div` | `Elementwise` | inherited |
//! | `*softmax*` | `Elementwise(Softmax)` | inherited |
//!
//! "Inherited" domain means symbolic if any producing op is symbolic,
//! neural otherwise — matching how the glue arithmetic after `match_prob`
//! in Listing 1 belongs to the symbolic phase.

use std::collections::HashMap;

use nsflow_tensor::DType;

use crate::{
    Domain, EltFunc, ExecutionTrace, OpId, OpKind, ReduceFunc, Result, TraceBuilder, TraceError,
};

/// Extra information the trace text does not carry: the reduction length
/// (`k`) of each GEMM-class module target.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleRegistry {
    k_by_target: HashMap<String, usize>,
}

impl ModuleRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        ModuleRegistry::default()
    }

    /// Registers the reduction length for a `call_module` target.
    pub fn insert(&mut self, target: impl Into<String>, k: usize) -> &mut Self {
        self.k_by_target.insert(target.into(), k);
        self
    }

    /// Looks up a target's reduction length.
    #[must_use]
    pub fn k_for(&self, target: &str) -> Option<usize> {
        self.k_by_target.get(target).copied()
    }
}

/// Precision assignment for parsed ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsePrecision {
    /// Precision given to neural ops.
    pub neural: DType,
    /// Precision given to symbolic ops.
    pub symbolic: DType,
}

impl Default for ParsePrecision {
    fn default() -> Self {
        // The paper's NVSA deployment: INT8 NN, INT4 symbolic (Tab. III).
        ParsePrecision {
            neural: DType::Int8,
            symbolic: DType::Int4,
        }
    }
}

/// Parses a Listing-1-style trace into an [`ExecutionTrace`].
///
/// # Errors
///
/// Returns [`TraceError::ParseLine`] for malformed lines,
/// [`TraceError::UnknownModule`] for GEMM-class modules missing from the
/// registry, and propagates trace-validation errors.
pub fn parse_trace(
    text: &str,
    name: &str,
    registry: &ModuleRegistry,
    precision: ParsePrecision,
    loop_count: usize,
) -> Result<ExecutionTrace> {
    let mut builder = TraceBuilder::new(name);
    let mut ids: HashMap<String, OpId> = HashMap::new();
    let mut domains: HashMap<OpId, Domain> = HashMap::new();

    for (lineno0, raw) in text.lines().enumerate() {
        let lineno = lineno0 + 1;
        let line = raw.trim();
        if line.is_empty()
            || line.starts_with("//")
            || line.starts_with('#')
            || line.starts_with("graph()")
            || line == "..."
        {
            continue;
        }
        let parsed = parse_line(line, lineno)?;
        let input_ids: Vec<OpId> = parsed
            .args
            .iter()
            .filter_map(|a| ids.get(&a.name).copied())
            .collect();

        let inherited = if input_ids
            .iter()
            .any(|id| domains.get(id) == Some(&Domain::Symbolic))
        {
            Domain::Symbolic
        } else {
            Domain::Neural
        };

        let (kind, domain) = kind_and_domain(&parsed, registry, inherited, lineno)?;
        let dtype = match domain {
            Domain::Neural => precision.neural,
            Domain::Symbolic => precision.symbolic,
        };
        let id = builder.push(parsed.name.clone(), kind, domain, dtype, &input_ids);
        domains.insert(id, domain);
        ids.insert(parsed.name, id);
    }
    builder.finish(loop_count)
}

#[derive(Debug)]
struct ParsedRef {
    name: String,
    dims: Vec<usize>,
}

#[derive(Debug)]
struct ParsedLine {
    name: String,
    dims: Vec<usize>,
    is_module: bool,
    target: String,
    args: Vec<ParsedRef>,
}

fn parse_line(line: &str, lineno: usize) -> Result<ParsedLine> {
    let err = |message: &str| TraceError::ParseLine {
        line: lineno,
        message: message.into(),
    };

    let (lhs, rhs) = line.split_once(':').ok_or_else(|| err("missing ':'"))?;
    let lhs_ref = parse_ref(lhs.trim(), lineno)?;

    let rhs = rhs.trim();
    let (call_kind, rest) = if let Some(r) = rhs.strip_prefix("call_module[") {
        (true, r)
    } else if let Some(r) = rhs.strip_prefix("call_function[") {
        (false, r)
    } else {
        return Err(err("expected call_module[…] or call_function[…]"));
    };
    let (target, rest) = rest
        .split_once(']')
        .ok_or_else(|| err("unclosed target bracket"))?;

    let args_start = rest.find('(').ok_or_else(|| err("missing args list"))?;
    let args_str = &rest[args_start + 1..];
    let args_str = args_str.strip_suffix(')').unwrap_or(args_str);
    let args_str = args_str
        .trim()
        .strip_prefix("args")
        .and_then(|s| s.trim_start().strip_prefix('='))
        .ok_or_else(|| err("expected args = (…)"))?
        .trim()
        .trim_start_matches('(')
        .trim_end_matches(')');

    let mut args = Vec::new();
    for piece in split_top_level_args(args_str) {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        if piece.starts_with('%') {
            args.push(parse_ref(piece, lineno)?);
        }
        // Non-tensor literals (scalars, dims) are ignored.
    }

    Ok(ParsedLine {
        name: lhs_ref.name,
        dims: lhs_ref.dims,
        is_module: call_kind,
        target: target.trim().to_string(),
        args,
    })
}

/// Splits `%a[1,2], %b[3], 0.5` on commas that are *outside* brackets.
fn split_top_level_args(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '[' | '(' => {
                depth += 1;
                cur.push(c);
            }
            ']' | ')' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

fn parse_ref(s: &str, lineno: usize) -> Result<ParsedRef> {
    let err = |message: &str| TraceError::ParseLine {
        line: lineno,
        message: message.into(),
    };
    let s = s.trim();
    let s = s
        .strip_prefix('%')
        .ok_or_else(|| err("reference must start with '%'"))?;
    let (name, rest) = match s.find('[') {
        Some(i) => (&s[..i], &s[i..]),
        None => (s, ""),
    };
    let mut dims = Vec::new();
    if let Some(inner) = rest.strip_prefix('[') {
        let inner = inner
            .split(']')
            .next()
            .ok_or_else(|| err("unclosed dims bracket"))?;
        for d in inner.split(',') {
            let d = d.trim();
            if d.is_empty() {
                continue;
            }
            dims.push(
                d.parse::<usize>()
                    .map_err(|_| err("non-numeric dimension"))?,
            );
        }
    }
    Ok(ParsedRef {
        name: name.trim().to_string(),
        dims,
    })
}

fn kind_and_domain(
    p: &ParsedLine,
    registry: &ModuleRegistry,
    inherited: Domain,
    lineno: usize,
) -> Result<(OpKind, Domain)> {
    let t = p.target.to_ascii_lowercase();
    let out_volume = p.dims.iter().product::<usize>().max(1);

    if p.is_module {
        if t.starts_with("conv") || t.starts_with("linear") || t.starts_with("fc") {
            let k = registry.k_for(&p.target).ok_or(TraceError::UnknownModule {
                line: lineno,
                target: p.target.clone(),
            })?;
            let (m, n) = gemm_mn_from_output(&p.dims);
            return Ok((OpKind::Gemm { m, n, k }, Domain::Neural));
        }
        if t.starts_with("relu") || t.starts_with("sigmoid") {
            return Ok((
                OpKind::Elementwise {
                    elems: out_volume,
                    func: EltFunc::Relu,
                },
                Domain::Neural,
            ));
        }
        if t.starts_with("bn") || t.starts_with("batchnorm") {
            return Ok((
                OpKind::Elementwise {
                    elems: out_volume,
                    func: EltFunc::Affine,
                },
                Domain::Neural,
            ));
        }
        if t.contains("pool") {
            return Ok((
                OpKind::Elementwise {
                    elems: out_volume,
                    func: EltFunc::PoolMax,
                },
                Domain::Neural,
            ));
        }
        return Err(TraceError::UnknownModule {
            line: lineno,
            target: p.target.clone(),
        });
    }

    // call_function targets.
    if t.contains("binding_circular") || t.contains("bind_circular") {
        let (n_vec, dim) = vsa_shape(&p.dims);
        return Ok((OpKind::VsaConv { n_vec, dim }, Domain::Symbolic));
    }
    if t.contains("match_prob") {
        // Dictionary size from the widest argument's leading dim.
        let n_vec = p
            .args
            .iter()
            .map(|a| a.dims.first().copied().unwrap_or(1))
            .max()
            .unwrap_or(1);
        let dim = p
            .args
            .iter()
            .map(|a| a.dims.iter().skip(1).product::<usize>())
            .max()
            .unwrap_or(1)
            .max(1);
        return Ok((OpKind::Similarity { n_vec, dim }, Domain::Symbolic));
    }
    if t.ends_with("sum") {
        let elems = p
            .args
            .iter()
            .map(|a| a.dims.iter().product::<usize>())
            .max()
            .unwrap_or(1);
        return Ok((
            OpKind::Reduce {
                elems: elems.max(1),
                func: ReduceFunc::Sum,
            },
            inherited,
        ));
    }
    if t.contains("norm") {
        let elems = p
            .args
            .iter()
            .map(|a| a.dims.iter().product::<usize>())
            .max()
            .unwrap_or(1);
        return Ok((
            OpKind::Reduce {
                elems: elems.max(1),
                func: ReduceFunc::Norm,
            },
            inherited,
        ));
    }
    if t.contains("softmax") {
        return Ok((
            OpKind::Elementwise {
                elems: out_volume,
                func: EltFunc::Softmax,
            },
            inherited,
        ));
    }
    if t.contains("clamp") {
        return Ok((
            OpKind::Elementwise {
                elems: out_volume,
                func: EltFunc::Clamp,
            },
            inherited,
        ));
    }
    if t.ends_with("mul") {
        return Ok((
            OpKind::Elementwise {
                elems: out_volume,
                func: EltFunc::Mul,
            },
            inherited,
        ));
    }
    if t.ends_with("add") {
        return Ok((
            OpKind::Elementwise {
                elems: out_volume,
                func: EltFunc::Add,
            },
            inherited,
        ));
    }
    if t.ends_with("div") {
        return Ok((
            OpKind::Elementwise {
                elems: out_volume,
                func: EltFunc::Div,
            },
            inherited,
        ));
    }
    Err(TraceError::ParseLine {
        line: lineno,
        message: format!("unrecognized call_function target {}", p.target),
    })
}

/// `[B, C, H, W]` → `(B·H·W, C)`; `[B, F]` → `(B, F)`; rank-1 → `(1, F)`.
fn gemm_mn_from_output(dims: &[usize]) -> (usize, usize) {
    match dims.len() {
        4 => (dims[0] * dims[2] * dims[3], dims[1]),
        2 => (dims[0], dims[1]),
        1 => (1, dims[0]),
        _ => (dims.iter().product::<usize>().max(1), 1),
    }
}

/// `[B, blocks, dim]` → `(B·blocks, dim)`; `[blocks, dim]` → `(blocks, dim)`;
/// rank-1 → `(1, dim)`.
fn vsa_shape(dims: &[usize]) -> (usize, usize) {
    match dims.len() {
        0 => (1, 1),
        1 => (1, dims[0]),
        _ => (
            dims[..dims.len() - 1].iter().product(),
            dims[dims.len() - 1],
        ),
    }
}

/// The NVSA trace snapshot from the paper's Listing 1 (cleaned up), used
/// by tests and the quickstart example.
pub const LISTING1_NVSA: &str = r#"
graph():
// Neuro Operation - CNN (ResNet18)
%relu_1[16,64,160,160] : call_module[relu](args = (%bn1[16,64,160,160]))
%conv2_1[16,64,80,80] : call_module[conv2](args = (%maxpool_1[16,64,160,160]))
// Symbolic Operations
// Inverse binding of two block codes vectors by blockwise circular correlation
%inv_binding_circular_1[1,4,256] : call_function[nvsa.inv_binding_circular](args = (%vec_1[1,4,256], %vec_2[1,4,256]))
%inv_binding_circular_2[1,4,256] : call_function[nvsa.inv_binding_circular](args = (%vec_3[1,4,256], %vec_4[1,4,256]))
// Compute similarity between two block codes vectors
%match_prob_1[1] : call_function[nvsa.match_prob](args = (%inv_binding_circular_1[1,4,256], %vec_5[1,4,256]))
// Compute similarity between a dictionary and a batch of query vectors
%match_prob_multi_batched_1[1] : call_function[nvsa.match_prob_multi_batched](args = (%inv_binding_circular_2[1,4,256], %vec_6[7,4,256]))
%sum_1[1] : call_function[torch.sum](args = (%match_prob_multi_batched_1[1]))
%clamp_1[1] : call_function[torch.clamp](args = (%sum_1[1]))
%mul_1[1] : call_function[operator.mul](args = (%match_prob_1[1], %clamp_1[1]))
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ModuleRegistry {
        let mut r = ModuleRegistry::new();
        r.insert("conv2", 64 * 9);
        r
    }

    #[test]
    fn parses_listing1() {
        let t = parse_trace(
            LISTING1_NVSA,
            "nvsa",
            &registry(),
            ParsePrecision::default(),
            1,
        )
        .unwrap();
        assert_eq!(t.ops().len(), 9);
        assert_eq!(t.nn_nodes().len(), 1);
        assert_eq!(t.vsa_nodes().len(), 2);
    }

    #[test]
    fn listing1_shapes_are_captured() {
        let t = parse_trace(
            LISTING1_NVSA,
            "nvsa",
            &registry(),
            ParsePrecision::default(),
            1,
        )
        .unwrap();
        let conv = &t.ops()[1];
        assert_eq!(conv.name(), "conv2_1");
        assert_eq!(
            *conv.kind(),
            OpKind::Gemm {
                m: 16 * 80 * 80,
                n: 64,
                k: 576
            }
        );
        let bind = &t.ops()[2];
        assert_eq!(*bind.kind(), OpKind::VsaConv { n_vec: 4, dim: 256 });
        let matchp = &t.ops()[5];
        assert_eq!(
            *matchp.kind(),
            OpKind::Similarity {
                n_vec: 7,
                dim: 4 * 256
            }
        );
    }

    #[test]
    fn listing1_dependency_edges() {
        let t = parse_trace(
            LISTING1_NVSA,
            "nvsa",
            &registry(),
            ParsePrecision::default(),
            1,
        )
        .unwrap();
        // mul_1 depends on match_prob_1 and clamp_1 (both defined in trace).
        let mul = t.ops().last().unwrap();
        assert_eq!(mul.inputs().len(), 2);
        // sum_1 depends on match_prob_multi_batched_1.
        let sum = &t.ops()[6];
        assert_eq!(sum.inputs().len(), 1);
        assert_eq!(t.op(sum.inputs()[0]).name(), "match_prob_multi_batched_1");
    }

    #[test]
    fn inherited_domain_follows_symbolic_producers() {
        let t = parse_trace(
            LISTING1_NVSA,
            "nvsa",
            &registry(),
            ParsePrecision::default(),
            1,
        )
        .unwrap();
        let sum = &t.ops()[6];
        assert_eq!(sum.domain(), Domain::Symbolic);
        let relu = &t.ops()[0];
        assert_eq!(relu.domain(), Domain::Neural);
    }

    #[test]
    fn precision_assignment() {
        let t = parse_trace(
            LISTING1_NVSA,
            "nvsa",
            &registry(),
            ParsePrecision::default(),
            1,
        )
        .unwrap();
        assert_eq!(t.ops()[0].dtype(), DType::Int8); // neural
        assert_eq!(t.ops()[2].dtype(), DType::Int4); // symbolic
    }

    #[test]
    fn unknown_module_is_reported_with_line() {
        let text = "%x[1,8,4,4] : call_module[conv_exotic](args = (%in[1,8,4,4]))";
        let err = parse_trace(
            text,
            "t",
            &ModuleRegistry::new(),
            ParsePrecision::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::UnknownModule { line: 1, .. }));
    }

    #[test]
    fn malformed_lines_are_reported() {
        for bad in [
            "%x[1] call_module[relu](args = (%y[1]))", // missing ':'
            "%x[1] : weird[relu](args = (%y[1]))",     // bad call kind
            "%x[1] : call_function[nvsa.binding_circular](nope)", // bad args
        ] {
            let err = parse_trace(
                bad,
                "t",
                &ModuleRegistry::new(),
                ParsePrecision::default(),
                1,
            )
            .unwrap_err();
            assert!(matches!(err, TraceError::ParseLine { .. }), "{bad}");
        }
    }

    #[test]
    fn comments_and_headers_are_skipped() {
        let text = "graph():\n// comment\n# another\n%r[4] : call_module[relu](args = (%x[4]))\n";
        let t = parse_trace(
            text,
            "t",
            &ModuleRegistry::new(),
            ParsePrecision::default(),
            1,
        )
        .unwrap();
        assert_eq!(t.ops().len(), 1);
    }

    #[test]
    fn undefined_references_are_external_inputs() {
        let text = "%r[4] : call_module[relu](args = (%external[4]))";
        let t = parse_trace(
            text,
            "t",
            &ModuleRegistry::new(),
            ParsePrecision::default(),
            1,
        )
        .unwrap();
        assert!(t.ops()[0].inputs().is_empty());
    }

    #[test]
    fn scalar_literal_args_are_ignored() {
        let text = "%c[1] : call_function[torch.clamp](args = (%x[1], 0.0, 1.0))";
        let t = parse_trace(
            text,
            "t",
            &ModuleRegistry::new(),
            ParsePrecision::default(),
            1,
        )
        .unwrap();
        assert_eq!(
            *t.ops()[0].kind(),
            OpKind::Elementwise {
                elems: 1,
                func: EltFunc::Clamp
            }
        );
    }
}
