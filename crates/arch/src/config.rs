use std::fmt;

use nsflow_tensor::DType;

use crate::{ArchError, Result};

/// AdArray hardware configuration: `N` sub-arrays of `H×W` PEs each
/// (the `(H, W, N)` triple the two-phase DSE searches for).
///
/// # Examples
///
/// ```
/// use nsflow_arch::ArrayConfig;
/// // The paper's NVSA deployment: 32×16×16 (Tab. III).
/// let cfg = ArrayConfig::new(32, 16, 16)?;
/// assert_eq!(cfg.total_pes(), 8192);
/// # Ok::<(), nsflow_arch::ArchError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayConfig {
    height: usize,
    width: usize,
    n_subarrays: usize,
}

impl ArrayConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::ZeroDimension`] if any parameter is zero.
    pub fn new(height: usize, width: usize, n_subarrays: usize) -> Result<Self> {
        if height == 0 {
            return Err(ArchError::ZeroDimension("sub-array height".into()));
        }
        if width == 0 {
            return Err(ArchError::ZeroDimension("sub-array width".into()));
        }
        if n_subarrays == 0 {
            return Err(ArchError::ZeroDimension("sub-array count".into()));
        }
        Ok(ArrayConfig {
            height,
            width,
            n_subarrays,
        })
    }

    /// Sub-array height `H` (rows of PEs).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Sub-array width `W` (columns of PEs).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of sub-arrays `N`.
    #[must_use]
    pub fn n_subarrays(&self) -> usize {
        self.n_subarrays
    }

    /// Total PE count `H·W·N`.
    #[must_use]
    pub fn total_pes(&self) -> usize {
        self.height * self.width * self.n_subarrays
    }
}

impl fmt::Display for ArrayConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}×{}", self.height, self.width, self.n_subarrays)
    }
}

/// How a VSA node is mapped onto its sub-arrays (eqs. (3) vs (4)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VsaMapping {
    /// Spatial: each vector's dimension is spread across all PEs of the
    /// assigned sub-arrays; vectors processed one at a time.
    Spatial,
    /// Temporal: vectors are distributed across columns; each column
    /// processes whole vectors (folded over `H` when `d > H`).
    Temporal,
}

impl fmt::Display for VsaMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VsaMapping::Spatial => f.write_str("spatial"),
            VsaMapping::Temporal => f.write_str("temporal"),
        }
    }
}

/// A mapping scheme: sub-arrays assigned to each NN node (`N_l[i]`) and
/// each VSA node (`N_v[j]`) of one dataflow loop.
///
/// Invariants: every entry is at least 1 and at most `N`
/// ([`Mapping::validate`]); in parallel mode, for any node pair active
/// *concurrently*, `N_l[i] + N_v[j] ≤ N`. `validate` cannot check the
/// pair bound, because the pairs come from the dataflow graph's layer
/// spans (partitions are reconfigured between nodes at runtime). The DSE
/// enforces it: Phase I emits uniform splits with `N̄_l + N̄_v = N`, and
/// Phase II (`nsflow_dse::phase2`) checks each move it makes against the
/// moved layer and every VSA node in that layer's span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// Sub-arrays per NN node (length = `|R_l|`).
    pub n_l: Vec<usize>,
    /// Sub-arrays per VSA node (length = `|R_v|`).
    pub n_v: Vec<usize>,
    /// Whether the loop executes NN and VSA partitions concurrently
    /// (parallel mode) or the whole array is time-shared (sequential).
    pub parallel: bool,
}

impl Mapping {
    /// Uniform mapping: every NN node gets `nl`, every VSA node gets `nv`.
    #[must_use]
    pub fn uniform(nn_nodes: usize, vsa_nodes: usize, nl: usize, nv: usize) -> Self {
        Mapping {
            n_l: vec![nl; nn_nodes],
            n_v: vec![nv; vsa_nodes],
            parallel: true,
        }
    }

    /// Sequential mapping: every node gets the whole array in turn.
    #[must_use]
    pub fn sequential(nn_nodes: usize, vsa_nodes: usize, n: usize) -> Self {
        Mapping {
            n_l: vec![n; nn_nodes],
            n_v: vec![n; vsa_nodes],
            parallel: false,
        }
    }

    /// Checks the mapping against a configuration and node counts.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::MappingLengthMismatch`] on wrong vector
    /// lengths, [`ArchError::ZeroDimension`] if any assignment is zero,
    /// and [`ArchError::SubArrayOverflow`] if any single assignment
    /// exceeds `N`. Concurrent NN+VSA pairs are not checked here; see
    /// the [`Mapping`] invariants for where `N_l[i] + N_v[j] ≤ N` is
    /// enforced.
    pub fn validate(&self, config: &ArrayConfig, nn_nodes: usize, vsa_nodes: usize) -> Result<()> {
        if self.n_l.len() != nn_nodes {
            return Err(ArchError::MappingLengthMismatch {
                what: "NN".into(),
                expected: nn_nodes,
                actual: self.n_l.len(),
            });
        }
        if self.n_v.len() != vsa_nodes {
            return Err(ArchError::MappingLengthMismatch {
                what: "VSA".into(),
                expected: vsa_nodes,
                actual: self.n_v.len(),
            });
        }
        let n = config.n_subarrays();
        for &a in self.n_l.iter().chain(&self.n_v) {
            if a == 0 {
                return Err(ArchError::ZeroDimension("sub-array assignment".into()));
            }
            if a > n {
                return Err(ArchError::SubArrayOverflow {
                    requested: a,
                    available: n,
                });
            }
        }
        Ok(())
    }
}

/// Per-domain execution precision (Sec. IV-D): the paper's NVSA deployment
/// runs NN at INT8 and symbolic at INT4 ("MP" in Tab. IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrecisionConfig {
    /// NN-kernel precision.
    pub neural: DType,
    /// Symbolic-kernel precision.
    pub symbolic: DType,
}

impl PrecisionConfig {
    /// The paper's mixed-precision deployment (INT8 NN / INT4 symbolic).
    #[must_use]
    pub fn mixed() -> Self {
        PrecisionConfig {
            neural: DType::Int8,
            symbolic: DType::Int4,
        }
    }

    /// Uniform precision for both domains.
    #[must_use]
    pub fn uniform(dtype: DType) -> Self {
        PrecisionConfig {
            neural: dtype,
            symbolic: dtype,
        }
    }
}

impl Default for PrecisionConfig {
    fn default() -> Self {
        PrecisionConfig::mixed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates_dimensions() {
        assert!(ArrayConfig::new(0, 16, 16).is_err());
        assert!(ArrayConfig::new(32, 0, 16).is_err());
        assert!(ArrayConfig::new(32, 16, 0).is_err());
        let c = ArrayConfig::new(32, 16, 16).unwrap();
        assert_eq!(c.total_pes(), 8192);
        assert_eq!(c.to_string(), "32×16×16");
    }

    #[test]
    fn uniform_mapping_validates() {
        let cfg = ArrayConfig::new(8, 8, 4).unwrap();
        let m = Mapping::uniform(3, 2, 3, 1);
        assert!(m.validate(&cfg, 3, 2).is_ok());
    }

    #[test]
    fn mapping_length_checked() {
        let cfg = ArrayConfig::new(8, 8, 4).unwrap();
        let m = Mapping::uniform(3, 2, 2, 1);
        assert!(matches!(
            m.validate(&cfg, 4, 2),
            Err(ArchError::MappingLengthMismatch { .. })
        ));
    }

    #[test]
    fn sequential_mapping_may_use_whole_array_per_node() {
        let cfg = ArrayConfig::new(8, 8, 4).unwrap();
        let m = Mapping::sequential(2, 2, 4);
        assert!(m.validate(&cfg, 2, 2).is_ok());
        assert!(!m.parallel);
    }

    #[test]
    fn zero_assignment_rejected() {
        let cfg = ArrayConfig::new(8, 8, 4).unwrap();
        let m = Mapping {
            n_l: vec![0],
            n_v: vec![1],
            parallel: true,
        };
        assert!(matches!(
            m.validate(&cfg, 1, 1),
            Err(ArchError::ZeroDimension(_))
        ));
    }

    #[test]
    fn precision_presets() {
        let mp = PrecisionConfig::mixed();
        assert_eq!(mp.neural, DType::Int8);
        assert_eq!(mp.symbolic, DType::Int4);
        assert_eq!(PrecisionConfig::default(), mp);
        let u = PrecisionConfig::uniform(DType::Fp16);
        assert_eq!(u.neural, u.symbolic);
    }
}
