//! Re-organizable on-chip memory model (paper Sec. IV-C).
//!
//! Three double-buffered blocks plus a cache:
//!
//! - `Mem_A` is partitioned into `Mem_A1` (NN filters) and `Mem_A2` (VSA
//!   vectors) so both sub-array partitions can load concurrently; the two
//!   chunks merge at runtime when only one kind of op executes,
//! - `Mem_B` is the IFMAP buffer feeding the horizontal inputs (NN only),
//! - `Mem_C` collects array and SIMD outputs,
//! - the cache buffers intermediate results for all three blocks.
//!
//! Sizes are planned from the dataflow graph's
//! [`MemoryRequirements`]; this module
//! also provides the double-buffered transfer/stall model the scheduler
//! uses.
//!
//! [`MemoryRequirements`]: nsflow_graph::MemoryRequirements

use nsflow_graph::MemoryRequirements;

/// Planned on-chip memory sizes, in bytes (single buffer; the hardware
/// instantiates each block twice for double buffering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryPlan {
    /// NN-filter chunk of `Mem_A`.
    pub mem_a1: usize,
    /// VSA-vector chunk of `Mem_A`.
    pub mem_a2: usize,
    /// IFMAP buffer.
    pub mem_b: usize,
    /// Output buffer.
    pub mem_c: usize,
    /// URAM intermediate cache.
    pub cache: usize,
}

impl MemoryPlan {
    /// Plans block sizes from graph-level requirements, following the
    /// paper's rules: `Mem_A1 = max(filter in R_l)`, `Mem_A2 = max(node in
    /// R_v)`, `Mem_B = max NN IFMAP tile`, `Mem_C = max output`, cache
    /// `= 2·(Mem_A + Mem_B + Mem_C)`.
    #[must_use]
    pub fn from_requirements(req: &MemoryRequirements) -> Self {
        MemoryPlan {
            mem_a1: req.max_nn_filter_bytes,
            mem_a2: req.max_vsa_node_bytes,
            mem_b: req.max_nn_input_bytes,
            mem_c: req.max_output_bytes,
            cache: req.cache_bytes(),
        }
    }
}

/// Off-chip transfer timing under double buffering.
///
/// A double-buffered block overlaps the next tile's load with the current
/// tile's compute: the visible stall is the amount by which the transfer
/// exceeds the compute window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Sustained off-chip bandwidth in bytes per cycle (e.g. a 512-bit AXI
    /// bus at array clock = 64 B/cycle).
    pub bytes_per_cycle: f64,
    /// Whether the memory blocks are double-buffered (the NSFlow design's
    /// ping-pong `Mem_A/B/C`). When false, every transfer serializes with
    /// compute — the ablation baseline without the re-organizable memory.
    pub double_buffered: bool,
}

impl TransferModel {
    /// Creates a double-buffered transfer model.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive.
    #[must_use]
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        TransferModel {
            bytes_per_cycle,
            double_buffered: true,
        }
    }

    /// Creates a single-buffered model (transfers serialize with compute).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive.
    #[must_use]
    pub fn single_buffered(bytes_per_cycle: f64) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        TransferModel {
            bytes_per_cycle,
            double_buffered: false,
        }
    }

    /// Raw cycles to move `bytes` off-chip ↔ on-chip.
    #[must_use]
    pub(crate) fn transfer_cycles(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.bytes_per_cycle).ceil() as u64
    }

    /// Visible stall when a transfer of `bytes` accompanies
    /// `compute_cycles` of work: hidden behind compute when
    /// double-buffered, fully serialized otherwise.
    #[must_use]
    pub fn stall_cycles(&self, bytes: usize, compute_cycles: u64) -> u64 {
        let t = self.transfer_cycles(bytes);
        if self.double_buffered {
            t.saturating_sub(compute_cycles)
        } else {
            t
        }
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        // 512-bit AXI @ array clock, double-buffered.
        TransferModel {
            bytes_per_cycle: 64.0,
            double_buffered: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> MemoryRequirements {
        MemoryRequirements {
            max_nn_filter_bytes: 1000,
            max_vsa_node_bytes: 500,
            max_nn_input_bytes: 2000,
            max_output_bytes: 300,
            total_bytes_per_loop: 10_000,
        }
    }

    #[test]
    fn plan_follows_paper_rules() {
        let p = MemoryPlan::from_requirements(&req());
        assert_eq!(p.mem_a1, 1000);
        assert_eq!(p.mem_a2, 500);
        assert_eq!(p.mem_b, 2000);
        assert_eq!(p.mem_c, 300);
        assert_eq!(p.cache, 2 * (1500 + 2000 + 300));
    }

    #[test]
    fn transfer_cycles_round_up() {
        let t = TransferModel::new(64.0);
        assert_eq!(t.transfer_cycles(0), 0);
        assert_eq!(t.transfer_cycles(1), 1);
        assert_eq!(t.transfer_cycles(64), 1);
        assert_eq!(t.transfer_cycles(65), 2);
    }

    #[test]
    fn double_buffering_hides_transfers_behind_compute() {
        let t = TransferModel::new(64.0);
        // 6400 bytes = 100 cycles of transfer.
        assert_eq!(t.stall_cycles(6400, 100), 0);
        assert_eq!(t.stall_cycles(6400, 60), 40);
        assert_eq!(t.stall_cycles(6400, 0), 100);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = TransferModel::new(0.0);
    }

    #[test]
    fn single_buffering_pays_the_full_transfer() {
        let db = TransferModel::new(64.0);
        let sb = TransferModel::single_buffered(64.0);
        // 6400 bytes = 100 cycles of transfer.
        assert_eq!(db.stall_cycles(6400, 100), 0);
        assert_eq!(sb.stall_cycles(6400, 100), 100);
        assert_eq!(sb.stall_cycles(6400, 0), db.stall_cycles(6400, 0));
    }
}
