use crate::{ops, Result, VsaError};

/// A block-code hypervector: `n_blocks` blocks of `block_dim` real elements.
///
/// NVSA represents composite symbols as block codes (the paper's Listing 1
/// shows vectors of shape `[1, 4, 256]`: four blocks of 256 elements).
/// Binding is *blockwise* circular convolution: each block of the result is
/// the circular convolution of the corresponding operand blocks.
///
/// # Examples
///
/// ```
/// use nsflow_vsa::BlockCode;
/// let a = BlockCode::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0])?;
/// // Binding with a one-hot block at index 0 is the identity.
/// let id = BlockCode::from_vec(2, 3, vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0])?;
/// let b = a.bind(&id)?;
/// assert!(a.similarity(&b)? > 0.999);
/// # Ok::<(), nsflow_vsa::VsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCode {
    n_blocks: usize,
    block_dim: usize,
    data: Vec<f32>,
}

impl BlockCode {
    /// Creates a block code from raw data (row-major: block 0 first).
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::EmptyGeometry`] if either geometry parameter is
    /// zero, or [`VsaError::DataLengthMismatch`] if `data.len()` differs
    /// from `n_blocks * block_dim`.
    pub fn from_vec(n_blocks: usize, block_dim: usize, data: Vec<f32>) -> Result<Self> {
        if n_blocks == 0 || block_dim == 0 {
            return Err(VsaError::EmptyGeometry);
        }
        let expected = n_blocks * block_dim;
        if data.len() != expected {
            return Err(VsaError::DataLengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(BlockCode {
            n_blocks,
            block_dim,
            data,
        })
    }

    /// All-zero block code.
    ///
    /// # Panics
    ///
    /// Panics if either geometry parameter is zero.
    #[must_use]
    pub fn zeros(n_blocks: usize, block_dim: usize) -> Self {
        assert!(n_blocks > 0 && block_dim > 0, "geometry must be nonzero");
        BlockCode {
            n_blocks,
            block_dim,
            data: vec![0.0; n_blocks * block_dim],
        }
    }

    /// Number of blocks.
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Elements per block.
    #[must_use]
    pub fn block_dim(&self) -> usize {
        self.block_dim
    }

    /// Read-only view of the backing data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One block as a slice.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::CodewordOutOfRange`] if `block >= n_blocks()`.
    pub fn block(&self, block: usize) -> Result<&[f32]> {
        if block >= self.n_blocks {
            return Err(VsaError::CodewordOutOfRange {
                index: block,
                len: self.n_blocks,
            });
        }
        let start = block * self.block_dim;
        Ok(&self.data[start..start + self.block_dim])
    }

    /// Geometry rendered as `blocks×dim` (used in error messages).
    #[must_use]
    pub(crate) fn geometry_string(&self) -> String {
        format!("{}×{}", self.n_blocks, self.block_dim)
    }

    /// Binds (blockwise circular convolution) with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::GeometryMismatch`] if geometries differ.
    pub fn bind(&self, other: &BlockCode) -> Result<BlockCode> {
        ops::bind(self, other)
    }

    /// Inverse-binds (blockwise circular correlation) with `other`,
    /// recovering `x` from `x.bind(other)` up to crosstalk noise.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::GeometryMismatch`] if geometries differ.
    pub fn unbind(&self, other: &BlockCode) -> Result<BlockCode> {
        ops::unbind(self, other)
    }

    /// Normalized similarity in `[-1, 1]` (cosine over all elements).
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::GeometryMismatch`] if geometries differ.
    pub fn similarity(&self, other: &BlockCode) -> Result<f32> {
        self.check_geometry(other)?;
        let dot: f32 = self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum();
        let n1: f32 = self.data.iter().map(|x| x * x).sum::<f32>().sqrt();
        let n2: f32 = other.data.iter().map(|x| x * x).sum::<f32>().sqrt();
        Ok(if n1 == 0.0 || n2 == 0.0 {
            0.0
        } else {
            dot / (n1 * n2)
        })
    }

    /// Scales every element in place so the whole code has unit L2 norm;
    /// an all-zero code is left unchanged.
    pub fn normalize(&mut self) {
        let n: f32 = self.data.iter().map(|x| x * x).sum::<f32>().sqrt();
        if n > 0.0 {
            for x in &mut self.data {
                *x /= n;
            }
        }
    }

    pub(crate) fn check_geometry(&self, other: &BlockCode) -> Result<()> {
        if self.n_blocks != other.n_blocks || self.block_dim != other.block_dim {
            return Err(VsaError::GeometryMismatch {
                lhs: self.geometry_string(),
                rhs: other.geometry_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates() {
        assert_eq!(
            BlockCode::from_vec(0, 4, vec![]),
            Err(VsaError::EmptyGeometry)
        );
        assert_eq!(
            BlockCode::from_vec(2, 0, vec![]),
            Err(VsaError::EmptyGeometry)
        );
        assert_eq!(
            BlockCode::from_vec(2, 2, vec![0.0; 3]),
            Err(VsaError::DataLengthMismatch {
                expected: 4,
                actual: 3
            })
        );
        assert!(BlockCode::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn block_accessor_bounds() {
        let c = BlockCode::zeros(2, 3);
        assert!(c.block(1).is_ok());
        assert!(c.block(2).is_err());
    }

    #[test]
    fn similarity_self_is_one() {
        let c = BlockCode::from_vec(1, 4, vec![0.5, -0.5, 0.5, -0.5]).unwrap();
        assert!((c.similarity(&c).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn similarity_zero_operand_is_zero() {
        let c = BlockCode::from_vec(1, 2, vec![1.0, 0.0]).unwrap();
        let z = BlockCode::zeros(1, 2);
        assert_eq!(c.similarity(&z).unwrap(), 0.0);
    }

    #[test]
    fn similarity_rejects_geometry_mismatch() {
        let a = BlockCode::zeros(1, 4);
        let b = BlockCode::zeros(2, 2);
        assert!(matches!(
            a.similarity(&b),
            Err(VsaError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut c = BlockCode::from_vec(1, 3, vec![3.0, 0.0, 4.0]).unwrap();
        c.normalize();
        let n: f32 = c.data().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-6);
        let mut z = BlockCode::zeros(1, 3);
        z.normalize();
        assert_eq!(z.data(), &[0.0, 0.0, 0.0]);
    }
}
