use nsflow_tensor::DType;

use crate::{Domain, ExecutionTrace, OpId, OpKind, Result, TraceOp};

/// Incremental builder for [`ExecutionTrace`]s.
///
/// Ops are appended in topological order; [`TraceBuilder::push`] returns
/// the new op's [`OpId`] so later ops can reference it.
///
/// # Examples
///
/// ```
/// use nsflow_trace::{TraceBuilder, OpKind, Domain};
/// use nsflow_tensor::DType;
///
/// let mut b = TraceBuilder::new("w");
/// let a = b.push("a", OpKind::Gemm { m: 4, n: 4, k: 4 }, Domain::Neural, DType::Int8, &[]);
/// let _bind = b.push("b", OpKind::VsaConv { n_vec: 1, dim: 64 }, Domain::Symbolic, DType::Int4, &[a]);
/// let trace = b.finish(2)?;
/// assert_eq!(trace.loop_count(), 2);
/// # Ok::<(), nsflow_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    name: String,
    ops: Vec<TraceOp>,
}

impl TraceBuilder {
    /// Starts an empty trace with the given workload name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TraceBuilder {
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// Appends an op and returns its id.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        domain: Domain,
        dtype: DType,
        inputs: &[OpId],
    ) -> OpId {
        let id = OpId(self.ops.len());
        self.ops.push(TraceOp {
            id,
            name: name.into(),
            kind,
            domain,
            dtype,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// Validates and finishes the trace.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation: [`crate::TraceError::EmptyTrace`],
    /// [`crate::TraceError::ZeroLoopCount`],
    /// [`crate::TraceError::TooManyInstances`],
    /// [`crate::TraceError::ZeroDimension`] or
    /// [`crate::TraceError::DanglingInput`].
    pub fn finish(self, loop_count: usize) -> Result<ExecutionTrace> {
        ExecutionTrace::new(self.name, self.ops, loop_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceError;

    #[test]
    fn empty_builder_fails_to_finish() {
        assert_eq!(
            TraceBuilder::new("e").finish(1).unwrap_err(),
            TraceError::EmptyTrace
        );
    }

    #[test]
    fn dangling_inputs_rejected() {
        let mut b = TraceBuilder::new("d");
        // Reference a forward op id (1) from op 0.
        let fake = OpId(1);
        b.push(
            "bad",
            OpKind::Gemm { m: 1, n: 1, k: 1 },
            Domain::Neural,
            DType::Fp32,
            &[fake],
        );
        assert!(matches!(b.finish(1), Err(TraceError::DanglingInput { .. })));
    }

    #[test]
    fn self_reference_rejected() {
        let mut b = TraceBuilder::new("s");
        let own = OpId(0);
        b.push(
            "selfish",
            OpKind::Gemm { m: 1, n: 1, k: 1 },
            Domain::Neural,
            DType::Fp32,
            &[own],
        );
        assert!(matches!(b.finish(1), Err(TraceError::DanglingInput { .. })));
    }

    #[test]
    fn zero_dimension_rejected() {
        let mut b = TraceBuilder::new("z");
        b.push(
            "zero",
            OpKind::Gemm { m: 0, n: 1, k: 1 },
            Domain::Neural,
            DType::Fp32,
            &[],
        );
        assert!(matches!(b.finish(1), Err(TraceError::ZeroDimension { .. })));
    }

    #[test]
    fn ids_are_sequential() {
        let mut b = TraceBuilder::new("seq");
        let a = b.push(
            "a",
            OpKind::Gemm { m: 1, n: 1, k: 1 },
            Domain::Neural,
            DType::Fp32,
            &[],
        );
        let c = b.push(
            "c",
            OpKind::Gemm { m: 1, n: 1, k: 1 },
            Domain::Neural,
            DType::Fp32,
            &[a],
        );
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 1);
    }
}
