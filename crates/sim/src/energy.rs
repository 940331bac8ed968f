//! Energy modeling — an extension beyond the paper's latency results.
//!
//! The paper characterizes its baselines by board power (Coral 4 W, TX2
//! 15 W, NX 20 W, RTX 2080 Ti 250 W) but reports only runtime. Each
//! baseline model carries its power
//! ([`DeviceModel::board_watts`](crate::devices::DeviceModel::board_watts));
//! this module adds the natural follow-up, energy per inference, with
//! the NSFlow design's power estimated from its FPGA resource usage (a
//! standard component-wise dynamic-power model at the 272 MHz template
//! clock).

use nsflow_fpga::resources::DesignResources;

/// Component-wise dynamic-power estimate of an NSFlow design at the given
/// clock, plus static power.
///
/// Per-component coefficients are standard UltraScale+ ballpark figures at
/// ~0.85 V: ~1.5 mW per active DSP at 272 MHz, ~10 µW per logic LUT,
/// ~2.5 mW per active BRAM block, ~5 mW per URAM block, 5 W static.
///
/// # Examples
///
/// ```
/// use nsflow_sim::energy::fpga_watts;
/// use nsflow_fpga::resources::DesignResources;
/// let res = DesignResources {
///     dsps: 10_000, luts: 900_000, ffs: 2_000_000,
///     bram_blocks: 1_500, uram_blocks: 100, lutram_luts: 190_000,
/// };
/// let w = fpga_watts(&res, 272.0e6);
/// assert!(w > 20.0 && w < 60.0);
/// ```
#[must_use]
pub fn fpga_watts(resources: &DesignResources, freq_hz: f64) -> f64 {
    let scale = freq_hz / 272.0e6;
    let dsp = resources.dsps as f64 * 1.5e-3;
    let lut = resources.luts as f64 * 10.0e-6;
    let ff = resources.ffs as f64 * 1.0e-6;
    let bram = resources.bram_blocks as f64 * 2.5e-3;
    let uram = resources.uram_blocks as f64 * 5.0e-3;
    let lutram = resources.lutram_luts as f64 * 12.0e-6;
    5.0 + scale * (dsp + lut + ff + bram + uram + lutram)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res() -> DesignResources {
        DesignResources {
            dsps: 10_700,
            luts: 950_000,
            ffs: 2_100_000,
            bram_blocks: 1_800,
            uram_blocks: 116,
            lutram_luts: 190_000,
        }
    }

    #[test]
    fn nsflow_design_power_is_tens_of_watts() {
        let w = fpga_watts(&res(), 272.0e6);
        assert!((20.0..60.0).contains(&w), "watts {w}");
    }

    #[test]
    fn power_scales_with_clock() {
        let full = fpga_watts(&res(), 272.0e6);
        let half = fpga_watts(&res(), 136.0e6);
        assert!(half < full);
        // Static floor keeps the ratio above the pure clock ratio.
        assert!(half > full / 2.0);
    }
}
