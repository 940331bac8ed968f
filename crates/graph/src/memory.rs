//! Memory-cost aggregation (step ⑤ of the dataflow-graph generation).
//!
//! The paper sizes the on-chip memory blocks from the dataflow graph
//! (Sec. V-C, "Memory and SIMD unit"): `Mem_A1 = max(filter size in R_l)`,
//! `Mem_A2 = max(node size in R_v)`, `Mem_B` holds the largest NN input
//! tile, `Mem_C` the largest output, and the URAM cache is sized at
//! `2 × (Mem_A + Mem_B + Mem_C)`. This module computes those aggregates;
//! the FPGA crate then rounds them onto physical BRAM/URAM blocks.

use nsflow_trace::{ExecutionTrace, OpKind};

/// Raw (un-rounded) memory requirements of a workload, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryRequirements {
    /// Largest NN filter (stationary weights) across `R_l` → sizes `Mem_A1`.
    pub max_nn_filter_bytes: usize,
    /// Largest VSA node footprint (both operands + output) across `R_v`
    /// → sizes `Mem_A2`.
    pub max_vsa_node_bytes: usize,
    /// Largest NN streamed-input tile (IFMAP) → sizes `Mem_B`.
    pub max_nn_input_bytes: usize,
    /// Largest single-op output anywhere in the graph → sizes `Mem_C`.
    pub max_output_bytes: usize,
    /// Total bytes touched by one loop iteration (for off-chip traffic
    /// estimates).
    pub total_bytes_per_loop: usize,
}

impl MemoryRequirements {
    /// Aggregates the requirements from a trace.
    #[must_use]
    pub fn from_trace(trace: &ExecutionTrace) -> Self {
        let mut req = MemoryRequirements::default();
        for op in trace.ops() {
            match op.kind() {
                OpKind::Gemm { .. } => {
                    req.max_nn_filter_bytes = req.max_nn_filter_bytes.max(op.weight_bytes());
                    req.max_nn_input_bytes = req.max_nn_input_bytes.max(op.input_bytes());
                }
                OpKind::VsaConv { .. } => {
                    req.max_vsa_node_bytes = req.max_vsa_node_bytes.max(op.total_bytes());
                }
                _ => {}
            }
            req.max_output_bytes = req.max_output_bytes.max(op.output_bytes());
            req.total_bytes_per_loop += op.total_bytes();
        }
        req
    }

    /// `Mem_A` when the A1/A2 chunks are merged for non-parallel execution.
    #[must_use]
    pub fn merged_mem_a_bytes(&self) -> usize {
        self.max_nn_filter_bytes + self.max_vsa_node_bytes
    }

    /// The paper's cache-sizing rule: `2 × (Mem_A + Mem_B + Mem_C)`.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        2 * (self.merged_mem_a_bytes() + self.max_nn_input_bytes + self.max_output_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, OpKind, TraceBuilder};

    fn trace() -> ExecutionTrace {
        let mut b = TraceBuilder::new("m");
        let c1 = b.push(
            "conv_small",
            OpKind::Gemm {
                m: 100,
                n: 16,
                k: 27,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let c2 = b.push(
            "conv_big",
            OpKind::Gemm {
                m: 100,
                n: 64,
                k: 576,
            },
            Domain::Neural,
            DType::Int8,
            &[c1],
        );
        let _v = b.push(
            "bind",
            OpKind::VsaConv { n_vec: 4, dim: 256 },
            Domain::Symbolic,
            DType::Int4,
            &[c2],
        );
        b.finish(1).unwrap()
    }

    #[test]
    fn filter_max_is_biggest_gemm_weights() {
        let req = MemoryRequirements::from_trace(&trace());
        // conv_big weights: 64×576 INT8 = 36864 bytes.
        assert_eq!(req.max_nn_filter_bytes, 64 * 576);
    }

    #[test]
    fn vsa_node_bytes_cover_operands_and_output() {
        let req = MemoryRequirements::from_trace(&trace());
        // 4×256 INT4 vectors: input 2·1024, weight 1024, output 1024 elems
        // at 4 bits each = (4096 elems · 4 bits) / 8 = 2048 bytes.
        assert_eq!(req.max_vsa_node_bytes, 2048);
    }

    #[test]
    fn input_max_is_biggest_gemm_ifmap() {
        let req = MemoryRequirements::from_trace(&trace());
        assert_eq!(req.max_nn_input_bytes, 100 * 576);
    }

    #[test]
    fn cache_rule_matches_paper() {
        let req = MemoryRequirements::from_trace(&trace());
        assert_eq!(
            req.cache_bytes(),
            2 * (req.merged_mem_a_bytes() + req.max_nn_input_bytes + req.max_output_bytes)
        );
    }

    #[test]
    fn totals_accumulate() {
        let req = MemoryRequirements::from_trace(&trace());
        assert!(req.total_bytes_per_loop > req.max_nn_input_bytes);
    }
}
