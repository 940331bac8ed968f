//! Calibrated analytical models of the baseline devices the paper
//! evaluates against (Fig. 1 and Fig. 5).
//!
//! Each roofline device executes the trace op-by-op (no overlap — the
//! profiling in the paper shows symbolic work serializing on the critical
//! path): an op takes `max(compute time, memory time) + launch overhead`,
//! where the compute and memory terms are derated by per-domain efficiency
//! factors. The factors encode the paper's characterization: symbolic
//! kernels achieve a few percent of peak on GPU/TPU-class devices (low
//! reuse, irregular streaming access) while dense NN kernels reach
//! ~half of peak.
//!
//! The TPU-like 128×128 systolic array is modeled *structurally* instead:
//! NN ops use the same eq.-(1) cycle model as NSFlow, but VSA ops must be
//! lowered to GEMMs against materialized circulant matrices (the mapping
//! inefficiency NSFlow's streaming mode removes), paying both the array's
//! fill/drain overheads at tiny dimensions and the circulant's memory
//! traffic. The Xilinx DPU model runs NN on a fixed INT8 engine and falls
//! back to an embedded CPU for every symbolic kernel.

use nsflow_arch::{analytical, ArrayConfig};
use nsflow_trace::{Domain, ExecutionTrace, OpKind};

use crate::roofline::Roof;

/// Per-domain, per-device latency report, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device name.
    pub device: String,
    /// Seconds spent in neural ops (whole workload, all loops).
    pub neural_seconds: f64,
    /// Seconds spent in symbolic ops (whole workload, all loops).
    pub symbolic_seconds: f64,
}

impl DeviceReport {
    /// End-to-end seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.neural_seconds + self.symbolic_seconds
    }

    /// Fraction of runtime spent in symbolic ops.
    #[must_use]
    pub fn symbolic_fraction(&self) -> f64 {
        let t = self.total_seconds();
        if t == 0.0 {
            0.0
        } else {
            self.symbolic_seconds / t
        }
    }
}

/// A device that can execute an [`ExecutionTrace`].
pub trait DeviceModel {
    /// The device's display name.
    fn name(&self) -> &str;
    /// Executes the whole workload (all loop iterations) and reports the
    /// per-domain latency split.
    fn run(&self, trace: &ExecutionTrace) -> DeviceReport;
    /// Nominal board power in watts (the paper's Sec. II-B figures
    /// where it quotes one).
    fn board_watts(&self) -> f64;
}

/// Memory elements an op touches on a *commodity* device (GPU/CPU/TPU
/// class, without NSFlow's circular-convolution streaming path).
///
/// Circular convolutions have no native kernel there: they are lowered to
/// dense products against materialized circulant/rotated copies, touching
/// `n_vec·d²` operand elements with no reuse — which is precisely why the
/// paper finds symbolic kernels memory-bound (Fig. 1c). All other ops
/// touch their natural operand sizes.
#[must_use]
pub(crate) fn lowered_elems(kind: &OpKind) -> usize {
    match *kind {
        OpKind::VsaConv { n_vec, dim } => n_vec * dim * dim + 2 * n_vec * dim,
        ref k => k.input_elems() + k.weight_elems() + k.output_elems(),
    }
}

/// Roofline device with per-domain efficiency derating.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: String,
    /// Peak throughput in ops/s at the device's native precision.
    peak_ops: f64,
    /// Peak memory bandwidth in bytes/s.
    mem_bw: f64,
    /// Fraction of peak compute achievable on dense NN kernels.
    nn_eff: f64,
    /// Fraction of peak compute achievable on symbolic kernels.
    sym_compute_eff: f64,
    /// Fraction of peak bandwidth achievable on symbolic streaming.
    sym_bw_eff: f64,
    /// Per-kernel launch/dispatch overhead in seconds.
    op_overhead: f64,
    /// Bytes per element at the device's native execution precision.
    native_bytes: f64,
    /// Nominal board power in watts.
    watts: f64,
}

impl Device {
    /// Builds a custom roofline device.
    ///
    /// # Panics
    ///
    /// Panics if any throughput, bandwidth, efficiency or power parameter
    /// is not positive (overhead may be zero).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        peak_ops: f64,
        mem_bw: f64,
        nn_eff: f64,
        sym_compute_eff: f64,
        sym_bw_eff: f64,
        op_overhead: f64,
        native_bytes: f64,
        watts: f64,
    ) -> Self {
        assert!(
            peak_ops > 0.0 && mem_bw > 0.0,
            "throughput must be positive"
        );
        assert!(
            nn_eff > 0.0 && sym_compute_eff > 0.0 && sym_bw_eff > 0.0,
            "efficiencies must be positive"
        );
        assert!(op_overhead >= 0.0 && native_bytes > 0.0 && watts > 0.0);
        Device {
            name: name.into(),
            peak_ops,
            mem_bw,
            nn_eff,
            sym_compute_eff,
            sym_bw_eff,
            op_overhead,
            native_bytes,
            watts,
        }
    }

    /// NVIDIA Jetson TX2 (15 W edge SoC): 1.33 TFLOPS FP16, 59.7 GB/s.
    #[must_use]
    pub fn jetson_tx2() -> Self {
        Device::new(
            "Jetson TX2",
            1.33e12,
            59.7e9,
            0.40,
            0.04,
            0.19,
            6.0e-5,
            2.0,
            15.0,
        )
    }

    /// NVIDIA Xavier NX (20 W edge SoC): ~6 TFLOPS FP16, 51.2 GB/s.
    #[must_use]
    pub fn xavier_nx() -> Self {
        Device::new(
            "Xavier NX",
            6.0e12,
            51.2e9,
            0.45,
            0.04,
            0.40,
            5.0e-5,
            2.0,
            20.0,
        )
    }

    /// Intel Xeon server CPU (150 W package): ~2 TFLOPS AVX-512
    /// multicore, 100 GB/s.
    #[must_use]
    pub fn xeon_cpu() -> Self {
        Device::new(
            "Xeon CPU", 2.0e12, 100.0e9, 0.50, 0.10, 0.50, 5.0e-6, 4.0, 150.0,
        )
    }

    /// NVIDIA RTX 2080 Ti (250 W): 13.4 TFLOPS FP32, 616 GB/s.
    #[must_use]
    pub fn rtx_2080_ti() -> Self {
        Device::new(
            "RTX 2080 Ti",
            13.4e12,
            616.0e9,
            0.55,
            0.03,
            0.15,
            2.0e-5,
            4.0,
            250.0,
        )
    }

    /// Google Coral edge TPU (4 W): 4 TOPS INT8, host-fed.
    #[must_use]
    pub fn coral_tpu() -> Self {
        Device::new(
            "Coral TPU",
            4.0e12,
            4.0e9,
            0.50,
            0.015,
            0.08,
            1.0e-4,
            1.0,
            4.0,
        )
    }

    /// The device's roofline: its peak throughput and bandwidth.
    #[must_use]
    pub fn roof(&self) -> Roof {
        Roof {
            peak_flops: self.peak_ops,
            peak_bw: self.mem_bw,
        }
    }

    fn op_seconds(&self, kind: &OpKind, domain: Domain) -> f64 {
        let flops = 2.0 * kind.macs() as f64;
        let bytes = lowered_elems(kind) as f64 * self.native_bytes;
        let (ce, be) = match domain {
            Domain::Neural => (self.nn_eff, 1.0),
            Domain::Symbolic => (self.sym_compute_eff, self.sym_bw_eff),
        };
        let compute = flops / (self.peak_ops * ce);
        let memory = bytes / (self.mem_bw * be);
        compute.max(memory) + self.op_overhead
    }
}

impl DeviceModel for Device {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, trace: &ExecutionTrace) -> DeviceReport {
        let mut neural = 0.0;
        let mut symbolic = 0.0;
        for op in trace.ops() {
            let t = self.op_seconds(op.kind(), op.domain());
            match op.domain() {
                Domain::Neural => neural += t,
                Domain::Symbolic => symbolic += t,
            }
        }
        let loops = trace.loop_count() as f64;
        DeviceReport {
            device: self.name.clone(),
            neural_seconds: neural * loops,
            symbolic_seconds: symbolic * loops,
        }
    }

    fn board_watts(&self) -> f64 {
        self.watts
    }
}

/// TPU-like weight-stationary systolic array (128×128) without the
/// circular-convolution streaming path.
#[derive(Debug, Clone, PartialEq)]
pub struct TpuLikeArray {
    name: String,
    config: ArrayConfig,
    freq_hz: f64,
    /// Effective host-interface bandwidth for the materialized circulant
    /// operands, in bytes per array cycle. The array has no rotation
    /// hardware, so the host generates each circulant and pushes it over
    /// the accelerator interface — an order of magnitude below the
    /// streaming-weight path.
    circulant_bytes_per_cycle: f64,
    /// Host kernel-dispatch overhead per symbolic op, in seconds (VSA
    /// kernels are not natively supported and run as host-lowered calls).
    symbolic_dispatch_s: f64,
    /// SIMD-ish vector unit width for element-wise tails.
    vector_lanes: usize,
    /// Accelerator-card power in watts.
    watts: f64,
}

impl TpuLikeArray {
    /// The paper's baseline: a 128×128 array at 700 MHz on a 75 W card.
    #[must_use]
    pub fn new_128x128() -> Self {
        TpuLikeArray {
            name: "TPU-like 128×128 SA".into(),
            config: ArrayConfig::new(128, 128, 1).expect("static dims are valid"),
            freq_hz: 700.0e6,
            circulant_bytes_per_cycle: 30.0,
            symbolic_dispatch_s: 1.0e-5,
            vector_lanes: 128,
            watts: 75.0,
        }
    }

    fn op_cycles(&self, kind: &OpKind) -> u64 {
        match *kind {
            OpKind::Gemm { m, n, k } => analytical::nn_layer_cycles(&self.config, 1, m, n, k),
            OpKind::VsaConv { n_vec, dim } => {
                // Lowering: each circular convolution becomes a GEMM of the
                // streamed vector against a materialized d×d circulant.
                let gemm = analytical::nn_layer_cycles(&self.config, 1, n_vec, dim, dim);
                // The circulant (n_vec·d·d elements, 1 B each at INT8) is
                // generated host-side and fetched across the accelerator
                // interface — none of it reusable across outputs.
                let circulant_bytes = (n_vec * dim * dim) as f64;
                let transfer = (circulant_bytes / self.circulant_bytes_per_cycle).ceil() as u64;
                let dispatch = (self.symbolic_dispatch_s * self.freq_hz) as u64;
                gemm + transfer + dispatch
            }
            ref k => nsflow_arch::simd::op_cycles(k, self.vector_lanes).max(1),
        }
    }
}

impl DeviceModel for TpuLikeArray {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, trace: &ExecutionTrace) -> DeviceReport {
        let mut neural = 0u64;
        let mut symbolic = 0u64;
        for op in trace.ops() {
            let c = self.op_cycles(op.kind());
            match op.domain() {
                Domain::Neural => neural += c,
                Domain::Symbolic => symbolic += c,
            }
        }
        let loops = trace.loop_count() as f64;
        DeviceReport {
            device: self.name.clone(),
            neural_seconds: neural as f64 / self.freq_hz * loops,
            symbolic_seconds: symbolic as f64 / self.freq_hz * loops,
        }
    }

    fn board_watts(&self) -> f64 {
        self.watts
    }
}

/// Xilinx-DPU-like fixed-function INT8 CNN engine with host-CPU fallback
/// for non-CNN kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct DpuLike {
    name: String,
    /// MACs per cycle of the convolution engine.
    macs_per_cycle: f64,
    freq_hz: f64,
    nn_eff: f64,
    /// Host (embedded CPU) throughput for symbolic fallback, flops/s.
    host_flops: f64,
    /// Host memory bandwidth, bytes/s.
    host_bw: f64,
    /// Per-kernel dispatch overhead on the host path.
    host_overhead: f64,
    /// Power of the DPU on its host card, in watts.
    watts: f64,
}

impl DpuLike {
    /// DPUCZDX8G-class engine: 4096 MACs/cycle at 300 MHz, ARM host,
    /// 40 W.
    #[must_use]
    pub fn new_b4096() -> Self {
        DpuLike {
            name: "Xilinx DPU (B4096)".into(),
            macs_per_cycle: 4096.0,
            freq_hz: 300.0e6,
            nn_eff: 0.60,
            host_flops: 500.0e9,
            host_bw: 115.0e9,
            host_overhead: 2.0e-5,
            watts: 40.0,
        }
    }
}

impl DeviceModel for DpuLike {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, trace: &ExecutionTrace) -> DeviceReport {
        let mut neural = 0.0;
        let mut symbolic = 0.0;
        for op in trace.ops() {
            match (op.kind(), op.domain()) {
                (OpKind::Gemm { .. }, _) => {
                    neural += op.kind().macs() as f64
                        / (self.macs_per_cycle * self.nn_eff)
                        / self.freq_hz;
                }
                (kind, domain) => {
                    // Everything non-GEMM runs on the embedded host.
                    let flops = 2.0 * kind.macs() as f64;
                    let bytes = lowered_elems(kind) as f64 * 4.0;
                    let t =
                        (flops / self.host_flops).max(bytes / self.host_bw) + self.host_overhead;
                    match domain {
                        Domain::Neural => neural += t,
                        Domain::Symbolic => symbolic += t,
                    }
                }
            }
        }
        let loops = trace.loop_count() as f64;
        DeviceReport {
            device: self.name.clone(),
            neural_seconds: neural * loops,
            symbolic_seconds: symbolic * loops,
        }
    }

    fn board_watts(&self) -> f64 {
        self.watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::DType;
    use nsflow_trace::TraceBuilder;

    fn mixed_trace(loops: usize) -> ExecutionTrace {
        let mut b = TraceBuilder::new("mixed");
        let c = b.push(
            "conv",
            OpKind::Gemm {
                m: 6400,
                n: 64,
                k: 576,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let mut prev = c;
        for i in 0..16 {
            prev = b.push(
                format!("bind{i}"),
                OpKind::VsaConv {
                    n_vec: 4,
                    dim: 1024,
                },
                Domain::Symbolic,
                DType::Int4,
                &[prev],
            );
        }
        b.finish(loops).unwrap()
    }

    #[test]
    fn report_totals_and_fractions() {
        let r = DeviceReport {
            device: "d".into(),
            neural_seconds: 1.0,
            symbolic_seconds: 3.0,
        };
        assert_eq!(r.total_seconds(), 4.0);
        assert_eq!(r.symbolic_fraction(), 0.75);
    }

    #[test]
    fn gpu_runs_symbolic_inefficiently() {
        let t = mixed_trace(1);
        let gpu = Device::rtx_2080_ti();
        let r = gpu.run(&t);
        let (n_mac, s_mac) = t.macs_by_domain();
        // Symbolic has far fewer MACs than neural here…
        assert!(s_mac < n_mac);
        // …but takes the dominant share of GPU runtime (Fig. 1a shape).
        assert!(
            r.symbolic_fraction() > 0.5,
            "symbolic fraction {}",
            r.symbolic_fraction()
        );
    }

    #[test]
    fn edge_devices_are_slower_than_gpu() {
        let t = mixed_trace(4);
        let gpu = Device::rtx_2080_ti().run(&t).total_seconds();
        let tx2 = Device::jetson_tx2().run(&t).total_seconds();
        let nx = Device::xavier_nx().run(&t).total_seconds();
        assert!(tx2 > gpu, "TX2 {tx2} !> GPU {gpu}");
        assert!(nx > gpu);
        assert!(tx2 > nx, "TX2 should trail NX");
    }

    #[test]
    fn loop_count_scales_latency_linearly() {
        let d = Device::xeon_cpu();
        let t1 = d.run(&mixed_trace(1)).total_seconds();
        let t8 = d.run(&mixed_trace(8)).total_seconds();
        assert!((t8 / t1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn tpu_like_pays_circulant_lowering_on_vsa() {
        let tpu = TpuLikeArray::new_128x128();
        let gemm_only = {
            let mut b = TraceBuilder::new("nn");
            b.push(
                "conv",
                OpKind::Gemm {
                    m: 4096,
                    n: 1024,
                    k: 1024,
                },
                Domain::Neural,
                DType::Int8,
                &[],
            );
            b.finish(1).unwrap()
        };
        let vsa_only = {
            let mut b = TraceBuilder::new("vsa");
            b.push(
                "bind",
                OpKind::VsaConv {
                    n_vec: 4,
                    dim: 1024,
                },
                Domain::Symbolic,
                DType::Int4,
                &[],
            );
            b.finish(1).unwrap()
        };
        let nn_macs = 4096u64 * 1024 * 1024;
        let vsa_macs = 4u64 * 1024 * 1024;
        let nn_time = tpu.run(&gemm_only).total_seconds();
        let vsa_time = tpu.run(&vsa_only).total_seconds();
        // Per MAC, the lowered VSA op is dramatically more expensive.
        let nn_per_mac = nn_time / nn_macs as f64;
        let vsa_per_mac = vsa_time / vsa_macs as f64;
        assert!(
            vsa_per_mac > 10.0 * nn_per_mac,
            "lowering penalty missing: {vsa_per_mac} vs {nn_per_mac}"
        );
    }

    #[test]
    fn dpu_is_fast_on_nn_slow_on_symbolic() {
        let dpu = DpuLike::new_b4096();
        let t = mixed_trace(1);
        let r = dpu.run(&t);
        assert!(
            r.symbolic_fraction() > 0.8,
            "fraction {}",
            r.symbolic_fraction()
        );
    }

    #[test]
    fn device_names_are_stable() {
        assert_eq!(Device::coral_tpu().name(), "Coral TPU");
        assert_eq!(TpuLikeArray::new_128x128().name(), "TPU-like 128×128 SA");
        assert_eq!(DpuLike::new_b4096().name(), "Xilinx DPU (B4096)");
    }

    #[test]
    fn board_power_matches_paper_figures() {
        assert_eq!(Device::coral_tpu().board_watts(), 4.0);
        assert_eq!(Device::jetson_tx2().board_watts(), 15.0);
        assert_eq!(Device::xavier_nx().board_watts(), 20.0);
        assert_eq!(Device::rtx_2080_ti().board_watts(), 250.0);
    }
}
