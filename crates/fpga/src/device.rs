/// An FPGA device's resource budget.
///
/// Block units follow the paper's convention (Sec. IV-C): BRAM blocks of
/// 18 KB and URAM blocks of 288 KB.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    name: String,
    /// Logic LUTs.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// DSP slices.
    pub dsps: u64,
    /// 18 KB BRAM blocks.
    pub bram_blocks: u64,
    /// 288 KB URAM blocks.
    pub uram_blocks: u64,
    /// LUTs usable as distributed LUTRAM.
    pub lutram_luts: u64,
    /// Achievable clock for the NSFlow template, Hz.
    pub default_freq_hz: f64,
}

impl FpgaDevice {
    /// AMD Alveo U250 — the paper's deployment target (272 MHz template
    /// clock, Tab. III).
    #[must_use]
    pub fn u250() -> Self {
        FpgaDevice {
            name: "AMD Alveo U250".into(),
            luts: 1_728_000,
            ffs: 3_456_000,
            dsps: 12_288,
            bram_blocks: 5_376,
            uram_blocks: 1_280,
            lutram_luts: 791_000,
            default_freq_hz: 272.0e6,
        }
    }

    /// Zynq UltraScale+ ZCU104 — the embedded board whose ~36 MB of
    /// on-chip memory the paper cites when motivating re-organizable
    /// memory.
    #[must_use]
    pub fn zcu104() -> Self {
        FpgaDevice {
            name: "AMD ZCU104".into(),
            luts: 230_400,
            ffs: 460_800,
            dsps: 1_728,
            bram_blocks: 624,
            uram_blocks: 96,
            lutram_luts: 101_000,
            default_freq_hz: 200.0e6,
        }
    }

    /// Device name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u250_capacities() {
        let d = FpgaDevice::u250();
        assert_eq!(d.dsps, 12_288);
        assert_eq!(d.bram_blocks, 5_376);
        assert_eq!(d.uram_blocks, 1_280);
        assert_eq!(d.default_freq_hz, 272.0e6);
    }

    #[test]
    fn zcu104_is_smaller_everywhere() {
        let big = FpgaDevice::u250();
        let small = FpgaDevice::zcu104();
        assert!(small.luts < big.luts);
        assert!(small.dsps < big.dsps);
        assert!(small.bram_blocks < big.bram_blocks);
        assert!(small.uram_blocks < big.uram_blocks);
    }
}
