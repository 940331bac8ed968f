use std::fmt;

/// Numeric precision supported by the NSFlow compute units.
///
/// The paper's mixed-precision scheme (Sec. IV-D) quantizes neural kernels
/// to INT8 and symbolic kernels to INT4 ("MP" in Tab. IV), with FP32/FP16
/// as reference precisions. Bit widths here drive both the functional
/// fake-quantization in [`crate::quant`] and the byte-exact memory
/// accounting used by the FPGA memory planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 4-bit signed fixed point (symmetric, range −8..=7).
    Int4,
    /// 8-bit signed fixed point (symmetric, range −128..=127).
    Int8,
    /// IEEE-754 binary16, software emulated (round-through-bits).
    Fp16,
    /// IEEE-754 binary32 (native `f32`).
    Fp32,
}

impl DType {
    /// Width of one element in bits.
    ///
    /// # Examples
    ///
    /// ```
    /// use nsflow_tensor::DType;
    /// assert_eq!(DType::Int4.bits(), 4);
    /// assert_eq!(DType::Fp32.bits(), 32);
    /// ```
    #[must_use]
    pub const fn bits(self) -> u32 {
        match self {
            DType::Int4 => 4,
            DType::Int8 => 8,
            DType::Fp16 => 16,
            DType::Fp32 => 32,
        }
    }

    /// Bytes required to store `elems` elements at this precision,
    /// rounding the total *bit* count up to whole bytes (INT4 packs two
    /// elements per byte, as the FPGA BRAM packing does).
    ///
    /// # Examples
    ///
    /// ```
    /// use nsflow_tensor::DType;
    /// assert_eq!(DType::Int4.storage_bytes(3), 2); // 12 bits -> 2 bytes
    /// assert_eq!(DType::Int8.storage_bytes(3), 3);
    /// ```
    #[must_use]
    pub const fn storage_bytes(self, elems: usize) -> usize {
        (elems * self.bits() as usize).div_ceil(8)
    }

    /// Whether this precision is an integer fixed-point format.
    #[must_use]
    pub(crate) const fn is_integer(self) -> bool {
        matches!(self, DType::Int4 | DType::Int8)
    }

    /// Largest representable quantized magnitude for integer formats
    /// (`None` for floating formats).
    #[must_use]
    pub const fn integer_max(self) -> Option<i32> {
        match self {
            DType::Int4 => Some(7),
            DType::Int8 => Some(127),
            DType::Fp16 | DType::Fp32 => None,
        }
    }

    /// Smallest representable quantized value for integer formats.
    #[must_use]
    pub(crate) const fn integer_min(self) -> Option<i32> {
        match self {
            DType::Int4 => Some(-8),
            DType::Int8 => Some(-128),
            DType::Fp16 | DType::Fp32 => None,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Int4 => "INT4",
            DType::Int8 => "INT8",
            DType::Fp16 => "FP16",
            DType::Fp32 => "FP32",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_widths() {
        assert_eq!(DType::Int4.bits(), 4);
        assert_eq!(DType::Int8.bits(), 8);
        assert_eq!(DType::Fp16.bits(), 16);
        assert_eq!(DType::Fp32.bits(), 32);
    }

    #[test]
    fn int4_packs_two_per_byte() {
        assert_eq!(DType::Int4.storage_bytes(0), 0);
        assert_eq!(DType::Int4.storage_bytes(1), 1);
        assert_eq!(DType::Int4.storage_bytes(2), 1);
        assert_eq!(DType::Int4.storage_bytes(1024), 512);
    }

    #[test]
    fn storage_matches_paper_footprint_ratios() {
        // Tab. IV: a model taking 32 MB at FP32 takes 16/8/4 MB at
        // FP16/INT8/INT4.
        let elems = 8 * 1024 * 1024; // 8 Mi elements = 32 MB at FP32
        assert_eq!(DType::Fp32.storage_bytes(elems), 32 << 20);
        assert_eq!(DType::Fp16.storage_bytes(elems), 16 << 20);
        assert_eq!(DType::Int8.storage_bytes(elems), 8 << 20);
        assert_eq!(DType::Int4.storage_bytes(elems), 4 << 20);
    }

    #[test]
    fn integer_ranges() {
        assert_eq!(DType::Int4.integer_min(), Some(-8));
        assert_eq!(DType::Int4.integer_max(), Some(7));
        assert_eq!(DType::Int8.integer_min(), Some(-128));
        assert_eq!(DType::Int8.integer_max(), Some(127));
        assert_eq!(DType::Fp32.integer_max(), None);
        assert!(DType::Int8.is_integer());
        assert!(!DType::Fp16.is_integer());
    }

    #[test]
    fn ordering_is_by_width() {
        assert!(DType::Int4 < DType::Int8);
        assert!(DType::Int8 < DType::Fp16);
        assert!(DType::Fp16 < DType::Fp32);
    }

    #[test]
    fn display_names() {
        assert_eq!(DType::Int4.to_string(), "INT4");
        assert_eq!(DType::Fp32.to_string(), "FP32");
    }
}
