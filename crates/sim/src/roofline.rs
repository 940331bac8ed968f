//! Roofline analysis (paper Fig. 1c).
//!
//! Places each domain of a workload on a device's roofline: operational
//! intensity (FLOPs per byte of memory traffic) against attained
//! performance, showing that symbolic kernels sit under the bandwidth
//! roof while neural kernels sit near the compute roof.

use nsflow_trace::{Domain, ExecutionTrace};

/// A device roof: peak compute and peak bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roof {
    /// Peak compute, FLOPs per second.
    pub peak_flops: f64,
    /// Peak memory bandwidth, bytes per second.
    pub peak_bw: f64,
}

impl Roof {
    /// Intensity at which the compute and bandwidth roofs meet
    /// (the ridge point), in FLOPs/byte.
    #[must_use]
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_flops / self.peak_bw
    }

    /// Attainable performance at a given operational intensity.
    #[must_use]
    pub fn attainable(&self, intensity: f64) -> f64 {
        (intensity * self.peak_bw).min(self.peak_flops)
    }
}

/// Whether a kernel class is limited by bandwidth or compute on a roof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Under the slanted bandwidth roof.
    Memory,
    /// Under the flat compute roof.
    Compute,
}

/// One point on the roofline plot.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Label, e.g. "NVSA neural".
    pub label: String,
    /// Operational intensity, FLOPs/byte.
    pub intensity: f64,
    /// Attainable performance on the roof, FLOPs/s.
    pub attainable_flops: f64,
    /// Which roof limits it.
    pub bound: Bound,
}

/// Computes the roofline points for a workload's neural and symbolic
/// halves on a given roof.
#[must_use]
pub fn workload_points(trace: &ExecutionTrace, roof: &Roof) -> Vec<RooflinePoint> {
    let mut points = Vec::new();
    for domain in [Domain::Neural, Domain::Symbolic] {
        let (flops, bytes) = domain_totals(trace, domain);
        if bytes == 0 || flops == 0 {
            continue;
        }
        let intensity = flops as f64 / bytes as f64;
        let attain = roof.attainable(intensity);
        points.push(RooflinePoint {
            label: format!("{} {domain}", trace.name()),
            intensity,
            attainable_flops: attain,
            bound: if intensity < roof.ridge_intensity() {
                Bound::Memory
            } else {
                Bound::Compute
            },
        });
    }
    points
}

fn domain_totals(trace: &ExecutionTrace, domain: Domain) -> (u64, usize) {
    // The roofline characterizes the workload on a *commodity* device
    // (the paper uses the RTX 2080 Ti at FP32), so memory traffic uses
    // the lowered operand footprint at 4 B/element — circular
    // convolutions materialize rotated copies there (see
    // [`crate::devices::lowered_elems`]).
    // Pointwise glue (element-wise/reduction ops) is fused into its
    // producer kernels on commodity stacks, so it contributes no separate
    // traffic to the roofline points.
    let mut flops = 0u64;
    let mut bytes = 0usize;
    for op in trace.ops() {
        if op.domain() != domain {
            continue;
        }
        match *op.kind() {
            nsflow_trace::OpKind::Elementwise { .. } | nsflow_trace::OpKind::Reduce { .. } => {
                continue;
            }
            // Implicit-GEMM convolution kernels tile the input through
            // shared memory, reusing each fetched activation ~8× — the
            // im2col expansion (m·k) never hits DRAM in full.
            nsflow_trace::OpKind::Gemm { m, n, k } => {
                flops += 2 * (m * n * k) as u64;
                bytes += 4 * (m * n + k * n + m * k / 8);
            }
            ref kind => {
                flops += 2 * kind.macs();
                bytes += 4 * crate::devices::lowered_elems(kind);
            }
        }
    }
    (flops, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::Device;
    use nsflow_tensor::DType;
    use nsflow_trace::{OpKind, TraceBuilder};

    fn trace() -> ExecutionTrace {
        let mut b = TraceBuilder::new("nvsa");
        // Dense conv: high reuse (weights amortized over 6400 pixels).
        let c = b.push(
            "conv",
            OpKind::Gemm {
                m: 6400,
                n: 256,
                k: 1152,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        // Symbolic similarity: touches every byte once.
        let _s = b.push(
            "sim",
            OpKind::Similarity {
                n_vec: 64,
                dim: 1024,
            },
            Domain::Symbolic,
            DType::Int4,
            &[c],
        );
        b.finish(1).unwrap()
    }

    #[test]
    fn ridge_point_is_ratio() {
        let r = Device::rtx_2080_ti().roof();
        assert!((r.ridge_intensity() - 13.4e12 / 616.0e9).abs() < 1e-6);
    }

    #[test]
    fn attainable_clamps_at_peak() {
        let r = Roof {
            peak_flops: 100.0,
            peak_bw: 10.0,
        };
        assert_eq!(r.attainable(5.0), 50.0);
        assert_eq!(r.attainable(100.0), 100.0);
    }

    #[test]
    fn symbolic_is_memory_bound_neural_is_compute_bound() {
        let points = workload_points(&trace(), &Device::rtx_2080_ti().roof());
        assert_eq!(points.len(), 2);
        let neural = &points[0];
        let symbolic = &points[1];
        assert!(neural.intensity > symbolic.intensity);
        assert_eq!(symbolic.bound, Bound::Memory);
        assert_eq!(neural.bound, Bound::Compute);
    }

    #[test]
    fn empty_domain_produces_no_point() {
        let mut b = TraceBuilder::new("nn_only");
        b.push(
            "conv",
            OpKind::Gemm {
                m: 64,
                n: 64,
                k: 64,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let t = b.finish(1).unwrap();
        let points = workload_points(&t, &Device::rtx_2080_ti().roof());
        assert_eq!(points.len(), 1);
    }
}
