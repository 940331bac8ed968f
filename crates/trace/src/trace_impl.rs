use crate::{Domain, OpId, OpKind, Result, TraceError, TraceOp};

/// A validated, topologically-ordered operator trace for **one loop
/// iteration** of a workload, plus the number of loop repetitions.
///
/// For NVSA-class reasoning a "loop" is one candidate-panel evaluation;
/// the workload repeats it per answer candidate (the paper exploits this
/// inter-loop parallelism in Sec. V-B step 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    name: String,
    ops: Vec<TraceOp>,
    loop_count: usize,
}

impl ExecutionTrace {
    pub(crate) fn new(name: String, ops: Vec<TraceOp>, loop_count: usize) -> Result<Self> {
        if ops.is_empty() {
            return Err(TraceError::EmptyTrace);
        }
        if loop_count == 0 {
            return Err(TraceError::ZeroLoopCount);
        }
        for (pos, op) in ops.iter().enumerate() {
            if !op.kind.is_well_formed() {
                return Err(TraceError::ZeroDimension {
                    op: op.name.clone(),
                });
            }
            for input in &op.inputs {
                if input.0 >= pos {
                    return Err(TraceError::DanglingInput {
                        op: op.name.clone(),
                        input: input.0,
                    });
                }
            }
        }
        Ok(ExecutionTrace {
            name,
            ops,
            loop_count,
        })
    }

    /// The workload name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All ops in topological order.
    #[must_use]
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// One op by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this trace.
    #[must_use]
    pub fn op(&self, id: OpId) -> &TraceOp {
        &self.ops[id.0]
    }

    /// Number of loop repetitions of this trace in the full workload.
    #[must_use]
    pub fn loop_count(&self) -> usize {
        self.loop_count
    }

    /// Returns a copy with a different loop count.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ZeroLoopCount`] if `loop_count == 0`.
    pub fn with_loop_count(&self, loop_count: usize) -> Result<Self> {
        if loop_count == 0 {
            return Err(TraceError::ZeroLoopCount);
        }
        Ok(ExecutionTrace {
            name: self.name.clone(),
            ops: self.ops.clone(),
            loop_count,
        })
    }

    /// Array-class NN ops (the paper's `R_l` set), in order.
    #[must_use]
    pub fn nn_nodes(&self) -> Vec<OpId> {
        self.ops
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Gemm { .. }))
            .map(|op| op.id)
            .collect()
    }

    /// Array-class VSA ops (the paper's `R_v` set), in order.
    #[must_use]
    pub fn vsa_nodes(&self) -> Vec<OpId> {
        self.ops
            .iter()
            .filter(|op| matches!(op.kind, OpKind::VsaConv { .. }))
            .map(|op| op.id)
            .collect()
    }

    /// SIMD-class ops, in order.
    #[must_use]
    pub fn simd_nodes(&self) -> Vec<OpId> {
        self.ops
            .iter()
            .filter(|op| op.kind.is_simd_op())
            .map(|op| op.id)
            .collect()
    }

    /// Total MACs of one loop iteration, split `(neural, symbolic)`.
    #[must_use]
    pub fn macs_by_domain(&self) -> (u64, u64) {
        let mut neural = 0u64;
        let mut symbolic = 0u64;
        for op in &self.ops {
            match op.domain {
                Domain::Neural => neural += op.kind.macs(),
                Domain::Symbolic => symbolic += op.kind.macs(),
            }
        }
        (neural, symbolic)
    }

    /// Total bytes touched in one loop iteration, split
    /// `(neural, symbolic)`.
    #[must_use]
    pub fn bytes_by_domain(&self) -> (usize, usize) {
        let mut neural = 0usize;
        let mut symbolic = 0usize;
        for op in &self.ops {
            match op.domain {
                Domain::Neural => neural += op.total_bytes(),
                Domain::Symbolic => symbolic += op.total_bytes(),
            }
        }
        (neural, symbolic)
    }

    /// Fraction of total memory traffic attributable to symbolic ops —
    /// the x-axis of the paper's Fig. 6 ablation.
    #[must_use]
    pub fn symbolic_memory_fraction(&self) -> f64 {
        let (n, s) = self.bytes_by_domain();
        if n + s == 0 {
            return 0.0;
        }
        s as f64 / (n + s) as f64
    }

    /// Fraction of total FLOPs attributable to symbolic ops (the paper
    /// reports 19% for NVSA while symbolic takes 87% of runtime).
    #[must_use]
    pub fn symbolic_flop_fraction(&self) -> f64 {
        let (n, s) = self.macs_by_domain();
        if n + s == 0 {
            return 0.0;
        }
        s as f64 / (n + s) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EltFunc, TraceBuilder};
    use nsflow_tensor::DType;

    fn sample() -> ExecutionTrace {
        let mut b = TraceBuilder::new("sample");
        let c1 = b.push(
            "conv1",
            OpKind::Gemm {
                m: 100,
                n: 8,
                k: 27,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let r1 = b.push(
            "relu1",
            OpKind::Elementwise {
                elems: 800,
                func: EltFunc::Relu,
            },
            Domain::Neural,
            DType::Int8,
            &[c1],
        );
        let v1 = b.push(
            "bind",
            OpKind::VsaConv { n_vec: 4, dim: 256 },
            Domain::Symbolic,
            DType::Int4,
            &[r1],
        );
        let _ = b.push(
            "sim",
            OpKind::Similarity {
                n_vec: 7,
                dim: 1024,
            },
            Domain::Symbolic,
            DType::Int4,
            &[v1],
        );
        b.finish(8).unwrap()
    }

    #[test]
    fn node_sets_partition_ops() {
        let t = sample();
        assert_eq!(t.nn_nodes().len(), 1);
        assert_eq!(t.vsa_nodes().len(), 1);
        assert_eq!(t.simd_nodes().len(), 2);
        assert_eq!(
            t.nn_nodes().len() + t.vsa_nodes().len() + t.simd_nodes().len(),
            t.ops().len()
        );
    }

    #[test]
    fn domain_splits_are_consistent() {
        let t = sample();
        let (n_mac, s_mac) = t.macs_by_domain();
        assert_eq!(n_mac, 100 * 8 * 27 + 800);
        assert_eq!(s_mac, 4 * 256 * 256 + 7 * 1024);
        let f = t.symbolic_flop_fraction();
        assert!((0.0..=1.0).contains(&f));
        assert!(t.symbolic_memory_fraction() > 0.0);
    }

    #[test]
    fn with_loop_count_validates() {
        let t = sample();
        assert_eq!(t.with_loop_count(16).unwrap().loop_count(), 16);
        assert_eq!(t.with_loop_count(0).unwrap_err(), TraceError::ZeroLoopCount);
    }
}
