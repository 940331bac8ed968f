use std::fmt;

use nsflow_tensor::DType;

/// Opaque, trace-local operator identifier (topological position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// The op's topological index within its trace.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Which side of the neuro-symbolic split an operator belongs to —
/// the attribute Fig. 1's latency breakdowns and Fig. 6's symbolic-ratio
/// sweep are computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Neural (perception) operator.
    Neural,
    /// Vector-symbolic (reasoning) operator.
    Symbolic,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Neural => f.write_str("neural"),
            Domain::Symbolic => f.write_str("symbolic"),
        }
    }
}

/// Element-wise function executed on the SIMD unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EltFunc {
    /// Rectified linear unit.
    Relu,
    /// Addition of two operands.
    Add,
    /// Multiplication of two operands.
    Mul,
    /// Division of two operands.
    Div,
    /// Clamp into a range.
    Clamp,
    /// Exponential / logarithm / tanh class (one transcendental per lane).
    Transcendental,
    /// Softmax normalization (exp + sum + divide).
    Softmax,
    /// Batch-norm style affine.
    Affine,
    /// Max-pool style windowed selection.
    PoolMax,
}

/// Reduction function executed on the SIMD unit's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ReduceFunc {
    /// Summation.
    Sum,
    /// Maximum.
    Max,
    /// Mean (sum + scale).
    Mean,
    /// L2 norm.
    Norm,
}

/// Compute class and size of an operator.
///
/// The two array-class kinds carry exactly the parameters the paper's
/// analytical models need: `Gemm` the `m, n, k` of eq. (1), `VsaConv` the
/// vector quantity `n_j` and dimension `d_j` of eqs. (3)/(4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// NN layer lowered to GEMM, executed on merged sub-arrays.
    Gemm {
        /// Output rows (spatial positions × batch).
        m: usize,
        /// Output columns (filters).
        n: usize,
        /// Reduction length.
        k: usize,
    },
    /// Blockwise circular convolution / correlation: `n_vec` independent
    /// vectors of length `dim` streamed through array columns.
    VsaConv {
        /// Number of vectors (the paper's `n_j`).
        n_vec: usize,
        /// Vector dimension (the paper's `d_j`).
        dim: usize,
    },
    /// Element-wise SIMD operator over `elems` lanes.
    Elementwise {
        /// Total element count.
        elems: usize,
        /// Function applied per lane.
        func: EltFunc,
    },
    /// Reduction over `elems` elements on the SIMD tree.
    Reduce {
        /// Total element count reduced.
        elems: usize,
        /// Reduction function.
        func: ReduceFunc,
    },
    /// Similarity of `n_vec` query/dictionary pairs of length `dim`
    /// (`match_prob` class): dot products + softmax on the SIMD unit.
    Similarity {
        /// Number of comparisons.
        n_vec: usize,
        /// Vector dimension.
        dim: usize,
    },
}

impl OpKind {
    /// Whether the op executes on the (systolic) array.
    #[must_use]
    pub(crate) fn is_array_op(&self) -> bool {
        matches!(self, OpKind::Gemm { .. } | OpKind::VsaConv { .. })
    }

    /// Whether the op executes on the SIMD unit.
    #[must_use]
    pub fn is_simd_op(&self) -> bool {
        !self.is_array_op()
    }

    /// Multiply-accumulate (or lane-op) count — the FLOP basis.
    #[must_use]
    pub fn macs(&self) -> u64 {
        match *self {
            OpKind::Gemm { m, n, k } => (m * n * k) as u64,
            // One circular convolution of length d costs d² MACs.
            OpKind::VsaConv { n_vec, dim } => (n_vec * dim * dim) as u64,
            OpKind::Elementwise { elems, .. } => elems as u64,
            OpKind::Reduce { elems, .. } => elems as u64,
            OpKind::Similarity { n_vec, dim } => (n_vec * dim) as u64,
        }
    }

    /// Output element count.
    #[must_use]
    pub fn output_elems(&self) -> usize {
        match *self {
            OpKind::Gemm { m, n, .. } => m * n,
            OpKind::VsaConv { n_vec, dim } => n_vec * dim,
            OpKind::Elementwise { elems, .. } => elems,
            OpKind::Reduce { .. } => 1,
            OpKind::Similarity { n_vec, .. } => n_vec,
        }
    }

    /// Input element count (operands streamed in, weights excluded).
    #[must_use]
    pub fn input_elems(&self) -> usize {
        match *self {
            OpKind::Gemm { m, k, .. } => m * k,
            OpKind::VsaConv { n_vec, dim } => 2 * n_vec * dim,
            OpKind::Elementwise { elems, .. } => elems,
            OpKind::Reduce { elems, .. } => elems,
            OpKind::Similarity { n_vec, dim } => (n_vec + 1) * dim,
        }
    }

    /// Stationary/weight element count (filter for GEMM, the held vector
    /// for circular convolution, nothing for SIMD ops).
    #[must_use]
    pub fn weight_elems(&self) -> usize {
        match *self {
            OpKind::Gemm { n, k, .. } => n * k,
            OpKind::VsaConv { n_vec, dim } => n_vec * dim,
            _ => 0,
        }
    }

    /// True when every size parameter is nonzero.
    #[must_use]
    pub(crate) fn is_well_formed(&self) -> bool {
        match *self {
            OpKind::Gemm { m, n, k } => m > 0 && n > 0 && k > 0,
            OpKind::VsaConv { n_vec, dim } => n_vec > 0 && dim > 0,
            OpKind::Elementwise { elems, .. } | OpKind::Reduce { elems, .. } => elems > 0,
            OpKind::Similarity { n_vec, dim } => n_vec > 0 && dim > 0,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OpKind::Gemm { m, n, k } => write!(f, "gemm(m={m}, n={n}, k={k})"),
            OpKind::VsaConv { n_vec, dim } => write!(f, "vsa_conv(n={n_vec}, d={dim})"),
            OpKind::Elementwise { elems, func } => write!(f, "eltwise({func:?}, {elems})"),
            OpKind::Reduce { elems, func } => write!(f, "reduce({func:?}, {elems})"),
            OpKind::Similarity { n_vec, dim } => write!(f, "similarity(n={n_vec}, d={dim})"),
        }
    }
}

/// One operator in an [`crate::ExecutionTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOp {
    pub(crate) id: OpId,
    pub(crate) name: String,
    pub(crate) kind: OpKind,
    pub(crate) domain: Domain,
    pub(crate) dtype: DType,
    pub(crate) inputs: Vec<OpId>,
}

impl TraceOp {
    /// The op's id (topological position).
    #[must_use]
    pub fn id(&self) -> OpId {
        self.id
    }

    /// The op's trace-level name (e.g. `%inv_binding_circular_2`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Compute class and sizes.
    #[must_use]
    pub fn kind(&self) -> &OpKind {
        &self.kind
    }

    /// Neural or symbolic domain.
    #[must_use]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Execution precision of this op.
    #[must_use]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Data dependencies (ids of producing ops).
    #[must_use]
    pub fn inputs(&self) -> &[OpId] {
        &self.inputs
    }

    /// Bytes of output at the op's precision.
    #[must_use]
    pub fn output_bytes(&self) -> usize {
        self.dtype.storage_bytes(self.kind.output_elems())
    }

    /// Bytes of streamed input at the op's precision.
    #[must_use]
    pub fn input_bytes(&self) -> usize {
        self.dtype.storage_bytes(self.kind.input_elems())
    }

    /// Bytes of stationary data (weights / held vectors).
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.dtype.storage_bytes(self.kind.weight_elems())
    }

    /// Total memory touched by the op (input + weights + output).
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.input_bytes() + self.weight_bytes() + self.output_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(OpKind::Gemm { m: 1, n: 1, k: 1 }.is_array_op());
        assert!(OpKind::VsaConv { n_vec: 1, dim: 8 }.is_array_op());
        assert!(OpKind::Elementwise {
            elems: 4,
            func: EltFunc::Relu
        }
        .is_simd_op());
        assert!(OpKind::Reduce {
            elems: 4,
            func: ReduceFunc::Sum
        }
        .is_simd_op());
        assert!(OpKind::Similarity {
            n_vec: 7,
            dim: 1024
        }
        .is_simd_op());
    }

    #[test]
    fn mac_counts() {
        assert_eq!(OpKind::Gemm { m: 2, n: 3, k: 4 }.macs(), 24);
        assert_eq!(OpKind::VsaConv { n_vec: 4, dim: 256 }.macs(), 4 * 256 * 256);
        assert_eq!(
            OpKind::Similarity {
                n_vec: 7,
                dim: 1024
            }
            .macs(),
            7 * 1024
        );
    }

    #[test]
    fn element_accounting() {
        let g = OpKind::Gemm { m: 2, n: 3, k: 4 };
        assert_eq!(g.output_elems(), 6);
        assert_eq!(g.input_elems(), 8);
        assert_eq!(g.weight_elems(), 12);
        let v = OpKind::VsaConv { n_vec: 4, dim: 256 };
        assert_eq!(v.output_elems(), 1024);
        assert_eq!(v.input_elems(), 2048);
        assert_eq!(v.weight_elems(), 1024);
        let r = OpKind::Reduce {
            elems: 100,
            func: ReduceFunc::Sum,
        };
        assert_eq!(r.output_elems(), 1);
    }

    #[test]
    fn well_formedness() {
        assert!(OpKind::Gemm { m: 1, n: 1, k: 1 }.is_well_formed());
        assert!(!OpKind::Gemm { m: 0, n: 1, k: 1 }.is_well_formed());
        assert!(!OpKind::VsaConv { n_vec: 1, dim: 0 }.is_well_formed());
        assert!(!OpKind::Elementwise {
            elems: 0,
            func: EltFunc::Add
        }
        .is_well_formed());
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            OpKind::Gemm { m: 1, n: 2, k: 3 }.to_string(),
            "gemm(m=1, n=2, k=3)"
        );
        assert_eq!(OpId(4).to_string(), "%4");
        assert_eq!(Domain::Symbolic.to_string(), "symbolic");
    }
}
