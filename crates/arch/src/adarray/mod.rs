//! The AdArray: NSFlow's adaptive systolic array (paper Sec. IV-B).
//!
//! An AdArray is `N` sub-arrays of `H×W` PEs. At runtime each sub-array is
//! **folded** into one of two roles:
//!
//! - merged with adjacent sub-arrays into an NN region running
//!   weight-stationary GEMM tiles,
//! - standing alone with each column running vector-symbolic circular
//!   convolutions via the passing-register streaming dataflow.
//!
//! [`AdArray`] tracks the current fold and utilization;
//! [`microsim`] is the register-level cycle simulator used to verify the
//! dataflow against the analytical model and the functional kernels.

pub mod microsim;

use crate::{ArchError, ArrayConfig, Result};

/// The role a sub-array currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SubArrayRole {
    /// Part of the merged NN region.
    Nn,
    /// Running vector-symbolic column streams.
    Vsa,
    /// Powered but unassigned.
    Idle,
}

/// A folded AdArray instance.
///
/// # Examples
///
/// ```
/// use nsflow_arch::{ArrayConfig, adarray::AdArray};
///
/// let cfg = ArrayConfig::new(32, 16, 16)?;
/// let mut array = AdArray::new(cfg);
/// array.fold(14, 2)?; // the paper's NVSA default partition 14:2
/// assert_eq!(array.utilization(), 1.0);
/// # Ok::<(), nsflow_arch::ArchError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdArray {
    config: ArrayConfig,
    roles: Vec<SubArrayRole>,
}

impl AdArray {
    /// Creates an AdArray with every sub-array idle.
    #[must_use]
    pub fn new(config: ArrayConfig) -> Self {
        let roles = vec![SubArrayRole::Idle; config.n_subarrays()];
        AdArray { config, roles }
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// Folds the array: the first `n_nn` sub-arrays merge into the NN
    /// region (adjacency is required for the merged horizontal
    /// connections), the next `n_vsa` run VSA columns, the rest idle.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::SubArrayOverflow`] if `n_nn + n_vsa` exceeds
    /// the sub-array count.
    pub fn fold(&mut self, n_nn: usize, n_vsa: usize) -> Result<()> {
        let n = self.config.n_subarrays();
        if n_nn + n_vsa > n {
            return Err(ArchError::SubArrayOverflow {
                requested: n_nn + n_vsa,
                available: n,
            });
        }
        for (i, role) in self.roles.iter_mut().enumerate() {
            *role = if i < n_nn {
                SubArrayRole::Nn
            } else if i < n_nn + n_vsa {
                SubArrayRole::Vsa
            } else {
                SubArrayRole::Idle
            };
        }
        Ok(())
    }

    /// Number of sub-arrays in the NN region.
    #[must_use]
    pub(crate) fn nn_subarrays(&self) -> usize {
        self.roles
            .iter()
            .filter(|r| **r == SubArrayRole::Nn)
            .count()
    }

    /// Number of sub-arrays running VSA streams.
    #[must_use]
    pub(crate) fn vsa_subarrays(&self) -> usize {
        self.roles
            .iter()
            .filter(|r| **r == SubArrayRole::Vsa)
            .count()
    }

    /// PEs in the NN region.
    #[must_use]
    pub(crate) fn nn_pes(&self) -> usize {
        self.nn_subarrays() * self.config.height() * self.config.width()
    }

    /// PEs running VSA streams.
    #[must_use]
    pub(crate) fn vsa_pes(&self) -> usize {
        self.vsa_subarrays() * self.config.height() * self.config.width()
    }

    /// Fraction of all PEs assigned to either role.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        (self.nn_pes() + self.vsa_pes()) as f64 / self.config.total_pes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> AdArray {
        AdArray::new(ArrayConfig::new(8, 4, 4).unwrap())
    }

    #[test]
    fn new_array_is_idle() {
        let a = array();
        assert_eq!(a.nn_subarrays(), 0);
        assert_eq!(a.vsa_subarrays(), 0);
        assert_eq!(a.utilization(), 0.0);
    }

    #[test]
    fn fold_assigns_roles_in_order() {
        let mut a = array();
        a.fold(2, 1).unwrap();
        assert_eq!(a.nn_pes(), 2 * 32);
        assert_eq!(a.vsa_pes(), 32);
        assert!((a.utilization() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn fold_rejects_oversubscription() {
        let mut a = array();
        assert!(matches!(
            a.fold(3, 2),
            Err(ArchError::SubArrayOverflow { .. })
        ));
        // Roles unchanged after failed fold.
        assert_eq!(a.nn_subarrays(), 0);
    }

    #[test]
    fn refold_replaces_roles() {
        let mut a = array();
        a.fold(4, 0).unwrap();
        assert_eq!(a.nn_subarrays(), 4);
        a.fold(1, 3).unwrap();
        assert_eq!(a.nn_subarrays(), 1);
        assert_eq!(a.vsa_subarrays(), 3);
    }
}
