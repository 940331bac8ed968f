//! FPGA resource estimation, calibrated against the paper's Tab. III.
//!
//! ## Calibration
//!
//! The per-PE constants below were fit so the three Tab. III deployment
//! points land on the paper's utilization numbers for the U250:
//!
//! | point | config | precision | DSP | LUT | FF | BRAM | URAM | LUTRAM |
//! |---|---|---|---|---|---|---|---|---|
//! | NVSA | 32×16×16 | INT8/INT4 | 89% | 56% | 60% | 34% | 8% | 24% |
//! | MIMONet | 32×32×8 | INT8/INT8 | 89% | 44% | 52% | 43% | 10% | 20% |
//! | LVRF | 32×16×16 | INT8/INT4 | 89% | 56% | 60% | 31% | 7% | 24% |
//!
//! Structure of the model:
//!
//! - **DSP** ∝ PEs (1.3 DSP/PE — an INT8 multiplier with partial
//!   dual-INT4 packing per [Langhammer et al., FCCM'20]) + 4 per SIMD
//!   lane (mult/div/exp path),
//! - **LUT/FF** per PE, higher when the design carries both INT8 and
//!   INT4 datapaths (mixed precision adds muxing and LUT-based
//!   low-precision adders, Sec. IV-D),
//! - **BRAM** = 4 × single-buffer plan (double buffering × dual-bank
//!   read/write), in 18 KB blocks,
//! - **URAM** = 2 × cache (double-buffered), in 288 KB blocks,
//! - **LUTRAM** per PE for the stationary/passing/streaming registers.

use nsflow_arch::memory::MemoryPlan;
use nsflow_arch::{ArrayConfig, PrecisionConfig};

use crate::{FpgaDevice, FpgaError, Result};

/// DSP slices per PE (INT8 MAC with partial dual-INT4 DSP packing).
pub(crate) const DSP_PER_PE: f64 = 1.3;
/// DSP slices per SIMD lane.
pub(crate) const DSP_PER_SIMD_LANE: f64 = 4.0;
/// Logic LUTs per PE with a single-precision datapath.
pub(crate) const LUT_PER_PE_UNIFORM: u64 = 75;
/// Logic LUTs per PE with mixed INT8+INT4 datapaths.
pub(crate) const LUT_PER_PE_MIXED: u64 = 102;
/// Logic LUTs per SIMD lane (transcendental + norm + softmax logic).
pub(crate) const LUT_PER_SIMD_LANE: u64 = 1_500;
/// Fixed control/AXI/scheduler LUT overhead.
pub(crate) const LUT_CONTROL: u64 = 50_000;
/// Flip-flops per PE, single precision.
pub(crate) const FF_PER_PE_UNIFORM: u64 = 200;
/// Flip-flops per PE, mixed precision.
pub(crate) const FF_PER_PE_MIXED: u64 = 235;
/// Flip-flops per SIMD lane.
pub(crate) const FF_PER_SIMD_LANE: u64 = 1_000;
/// Fixed control FF overhead.
pub(crate) const FF_CONTROL: u64 = 100_000;
/// LUTRAM LUTs per PE, single precision (stationary + streaming regs).
pub(crate) const LUTRAM_PER_PE_UNIFORM: u64 = 19;
/// LUTRAM LUTs per PE, mixed precision (adds the packed-INT4 register
/// file).
pub(crate) const LUTRAM_PER_PE_MIXED: u64 = 23;
/// BRAM block size in bytes (the paper's 18 KB unit).
pub(crate) const BRAM_BLOCK_BYTES: u64 = 18 * 1024;
/// URAM block size in bytes (the paper's 288 KB unit).
pub(crate) const URAM_BLOCK_BYTES: u64 = 288 * 1024;

/// Absolute resource demand of a design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignResources {
    /// DSP slices.
    pub dsps: u64,
    /// Logic LUTs.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// 18 KB BRAM blocks.
    pub bram_blocks: u64,
    /// 288 KB URAM blocks.
    pub uram_blocks: u64,
    /// LUTs used as LUTRAM.
    pub lutram_luts: u64,
}

/// Utilization percentages against a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// DSP utilization, percent.
    pub dsp_pct: f64,
    /// LUT utilization, percent.
    pub lut_pct: f64,
    /// FF utilization, percent.
    pub ff_pct: f64,
    /// BRAM utilization, percent.
    pub bram_pct: f64,
    /// URAM utilization, percent.
    pub uram_pct: f64,
    /// LUTRAM utilization, percent.
    pub lutram_pct: f64,
}

/// Whether the precision configuration needs both integer datapaths.
#[must_use]
pub(crate) fn is_mixed(precision: &PrecisionConfig) -> bool {
    precision.neural != precision.symbolic
}

/// Estimates the resources of a design point.
#[must_use]
pub fn estimate(
    config: &ArrayConfig,
    precision: &PrecisionConfig,
    simd_lanes: usize,
    plan: &MemoryPlan,
) -> DesignResources {
    let pes = config.total_pes() as u64;
    let lanes = simd_lanes as u64;
    let mixed = is_mixed(precision);
    let (lut_pe, ff_pe, lutram_pe) = if mixed {
        (LUT_PER_PE_MIXED, FF_PER_PE_MIXED, LUTRAM_PER_PE_MIXED)
    } else {
        (LUT_PER_PE_UNIFORM, FF_PER_PE_UNIFORM, LUTRAM_PER_PE_UNIFORM)
    };
    let single_buffer = (plan.mem_a1 + plan.mem_a2 + plan.mem_b + plan.mem_c) as u64;
    DesignResources {
        dsps: (pes as f64 * DSP_PER_PE + lanes as f64 * DSP_PER_SIMD_LANE).ceil() as u64,
        luts: pes * lut_pe + lanes * LUT_PER_SIMD_LANE + LUT_CONTROL,
        ffs: pes * ff_pe + lanes * FF_PER_SIMD_LANE + FF_CONTROL,
        bram_blocks: (4 * single_buffer).div_ceil(BRAM_BLOCK_BYTES),
        uram_blocks: (2 * plan.cache as u64).div_ceil(URAM_BLOCK_BYTES),
        lutram_luts: pes * lutram_pe,
    }
}

impl DesignResources {
    /// Utilization on a device.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::ResourceOverflow`] naming the first resource
    /// the design exceeds.
    pub fn utilization_on(&self, device: &FpgaDevice) -> Result<Utilization> {
        let checks: [(&str, u64, u64); 6] = [
            ("DSP", self.dsps, device.dsps),
            ("LUT", self.luts, device.luts),
            ("FF", self.ffs, device.ffs),
            ("BRAM", self.bram_blocks, device.bram_blocks),
            ("URAM", self.uram_blocks, device.uram_blocks),
            ("LUTRAM", self.lutram_luts, device.lutram_luts),
        ];
        for (name, required, available) in checks {
            if required > available {
                return Err(FpgaError::ResourceOverflow {
                    resource: name.to_string(),
                    required,
                    available,
                });
            }
        }
        let pct = |req: u64, avail: u64| 100.0 * req as f64 / avail as f64;
        Ok(Utilization {
            dsp_pct: pct(self.dsps, device.dsps),
            lut_pct: pct(self.luts, device.luts),
            ff_pct: pct(self.ffs, device.ffs),
            bram_pct: pct(self.bram_blocks, device.bram_blocks),
            uram_pct: pct(self.uram_blocks, device.uram_blocks),
            lutram_pct: pct(self.lutram_luts, device.lutram_luts),
        })
    }
}

/// Largest PE count a device can host at the given precision and SIMD
/// width (the DSE's `M` budget), limited by whichever of DSP/LUT/FF
/// binds first.
#[must_use]
pub fn max_pes_for(device: &FpgaDevice, precision: &PrecisionConfig, simd_lanes: usize) -> usize {
    let lanes = simd_lanes as u64;
    let mixed = is_mixed(precision);
    let (lut_pe, ff_pe) = if mixed {
        (LUT_PER_PE_MIXED, FF_PER_PE_MIXED)
    } else {
        (LUT_PER_PE_UNIFORM, FF_PER_PE_UNIFORM)
    };
    let by_dsp = ((device.dsps as f64 - lanes as f64 * DSP_PER_SIMD_LANE) / DSP_PER_PE) as u64;
    let by_lut = (device
        .luts
        .saturating_sub(lanes * LUT_PER_SIMD_LANE + LUT_CONTROL))
        / lut_pe;
    let by_ff = (device
        .ffs
        .saturating_sub(lanes * FF_PER_SIMD_LANE + FF_CONTROL))
        / ff_pe;
    by_dsp.min(by_lut).min(by_ff) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvsa_plan() -> MemoryPlan {
        // The paper's NVSA memory plan (Tab. III), in bytes.
        MemoryPlan {
            mem_a1: (2.7 * 1024.0 * 1024.0) as usize,
            mem_a2: (1.1 * 1024.0 * 1024.0) as usize,
            mem_b: (2.7 * 1024.0 * 1024.0) as usize,
            mem_c: (1.6 * 1024.0 * 1024.0) as usize,
            cache: (16.2 * 1024.0 * 1024.0) as usize,
        }
    }

    fn mimonet_plan() -> MemoryPlan {
        MemoryPlan {
            mem_a1: (3.4 * 1024.0 * 1024.0) as usize,
            mem_a2: (1.2 * 1024.0 * 1024.0) as usize,
            mem_b: (3.4 * 1024.0 * 1024.0) as usize,
            mem_c: (2.1 * 1024.0 * 1024.0) as usize,
            cache: (20.1 * 1024.0 * 1024.0) as usize,
        }
    }

    #[test]
    fn nvsa_point_matches_table3() {
        let cfg = ArrayConfig::new(32, 16, 16).unwrap();
        let res = estimate(&cfg, &PrecisionConfig::mixed(), 64, &nvsa_plan());
        let u = res.utilization_on(&FpgaDevice::u250()).unwrap();
        assert!((u.dsp_pct - 89.0).abs() < 2.0, "DSP {}", u.dsp_pct);
        assert!((u.lut_pct - 56.0).abs() < 3.0, "LUT {}", u.lut_pct);
        assert!((u.ff_pct - 60.0).abs() < 3.0, "FF {}", u.ff_pct);
        assert!((u.bram_pct - 34.0).abs() < 3.0, "BRAM {}", u.bram_pct);
        assert!((u.uram_pct - 8.0).abs() < 2.0, "URAM {}", u.uram_pct);
        assert!((u.lutram_pct - 24.0).abs() < 2.0, "LUTRAM {}", u.lutram_pct);
    }

    #[test]
    fn mimonet_point_matches_table3() {
        let cfg = ArrayConfig::new(32, 32, 8).unwrap();
        let res = estimate(
            &cfg,
            &PrecisionConfig::uniform(nsflow_tensor::DType::Int8),
            64,
            &mimonet_plan(),
        );
        let u = res.utilization_on(&FpgaDevice::u250()).unwrap();
        assert!((u.dsp_pct - 89.0).abs() < 2.0, "DSP {}", u.dsp_pct);
        assert!((u.lut_pct - 44.0).abs() < 3.0, "LUT {}", u.lut_pct);
        assert!((u.ff_pct - 52.0).abs() < 3.0, "FF {}", u.ff_pct);
        assert!((u.bram_pct - 43.0).abs() < 3.0, "BRAM {}", u.bram_pct);
        assert!((u.uram_pct - 10.0).abs() < 2.0, "URAM {}", u.uram_pct);
        assert!((u.lutram_pct - 20.0).abs() < 2.0, "LUTRAM {}", u.lutram_pct);
    }

    #[test]
    fn mixed_precision_costs_more_logic_than_uniform() {
        let cfg = ArrayConfig::new(32, 16, 16).unwrap();
        let plan = nvsa_plan();
        let mixed = estimate(&cfg, &PrecisionConfig::mixed(), 64, &plan);
        let uniform = estimate(
            &cfg,
            &PrecisionConfig::uniform(nsflow_tensor::DType::Int8),
            64,
            &plan,
        );
        assert!(mixed.luts > uniform.luts);
        assert!(mixed.ffs > uniform.ffs);
        assert!(mixed.lutram_luts > uniform.lutram_luts);
        assert_eq!(mixed.dsps, uniform.dsps);
    }

    #[test]
    fn overflow_is_reported_with_resource_name() {
        let cfg = ArrayConfig::new(128, 128, 4).unwrap(); // 65k PEs
        let res = estimate(&cfg, &PrecisionConfig::mixed(), 64, &MemoryPlan::default());
        let err = res.utilization_on(&FpgaDevice::u250()).unwrap_err();
        assert!(
            matches!(err, FpgaError::ResourceOverflow { ref resource, .. } if resource == "DSP")
        );
    }

    #[test]
    fn zcu104_cannot_host_the_u250_design() {
        let cfg = ArrayConfig::new(32, 16, 16).unwrap();
        let res = estimate(&cfg, &PrecisionConfig::mixed(), 64, &nvsa_plan());
        assert!(res.utilization_on(&FpgaDevice::zcu104()).is_err());
    }

    #[test]
    fn max_pes_u250_is_about_8k() {
        // The paper's deployments use 8192 PEs at 89% DSP — the budget
        // should be a bit above that.
        let m = max_pes_for(&FpgaDevice::u250(), &PrecisionConfig::mixed(), 64);
        assert!((8192..12000).contains(&m), "max PEs {m}");
    }

    #[test]
    fn max_pes_scales_down_for_small_device() {
        let big = max_pes_for(&FpgaDevice::u250(), &PrecisionConfig::mixed(), 64);
        let small = max_pes_for(&FpgaDevice::zcu104(), &PrecisionConfig::mixed(), 64);
        assert!(small < big / 4, "{small} vs {big}");
    }
}
