use nsflow_trace::{ExecutionTrace, OpId};

use crate::MemoryRequirements;

/// The dataflow graph: the execution trace with each op's dependency
/// depth and the memory costs the planner reads.
///
/// This structure is what the two-phase DSE and the cycle-level scheduler
/// consume; it owns the underlying [`ExecutionTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowGraph {
    trace: ExecutionTrace,
    depth: Vec<usize>,
}

impl DataflowGraph {
    /// Builds the dataflow graph from a validated trace.
    #[must_use]
    pub fn from_trace(trace: ExecutionTrace) -> Self {
        // Longest hop count from any source (ops are already topological).
        let mut depth = vec![0usize; trace.ops().len()];
        for (i, op) in trace.ops().iter().enumerate() {
            depth[i] = op
                .inputs()
                .iter()
                .map(|p| depth[p.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        DataflowGraph { trace, depth }
    }

    /// The underlying trace.
    #[must_use]
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Dependency depth of an op (longest hop count from a source).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph's trace.
    #[must_use]
    pub fn depth(&self, id: OpId) -> usize {
        self.depth[id.index()]
    }

    /// The memory-planning aggregates (step ⑤).
    #[must_use]
    pub fn memory_requirements(&self) -> MemoryRequirements {
        MemoryRequirements::from_trace(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, OpKind, TraceBuilder};

    /// conv1 → conv2 → sim, with a side branch bind_side at conv2's depth.
    fn diamond() -> DataflowGraph {
        let mut b = TraceBuilder::new("diamond");
        let c1 = b.push(
            "conv1",
            OpKind::Gemm {
                m: 1000,
                n: 64,
                k: 27,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let c2 = b.push(
            "conv2",
            OpKind::Gemm {
                m: 1000,
                n: 64,
                k: 576,
            },
            Domain::Neural,
            DType::Int8,
            &[c1],
        );
        let side = b.push(
            "bind_side",
            OpKind::VsaConv { n_vec: 1, dim: 64 },
            Domain::Symbolic,
            DType::Int4,
            &[c1],
        );
        let _join = b.push(
            "sim",
            OpKind::Similarity {
                n_vec: 4,
                dim: 1024,
            },
            Domain::Symbolic,
            DType::Int4,
            &[c2, side],
        );
        DataflowGraph::from_trace(b.finish(2).unwrap())
    }

    #[test]
    fn depth_is_longest_hop_count() {
        let g = diamond();
        let ops = g.trace().ops();
        assert_eq!(g.depth(ops[0].id()), 0);
        assert_eq!(g.depth(ops[1].id()), 1);
        assert_eq!(g.depth(ops[2].id()), 1);
        assert_eq!(g.depth(ops[3].id()), 2);
    }
}
