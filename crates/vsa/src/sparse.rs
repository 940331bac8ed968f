//! Sparse block codes — the code family NVSA itself uses.
//!
//! A sparse block code activates exactly **one** element per block. Under
//! blockwise circular convolution this family is closed: binding two
//! one-hot blocks yields the one-hot block at the *sum of their indices
//! modulo the block size*, so binding/unbinding reduce to modular index
//! arithmetic — the property that makes VSA reasoning hardware-friendly
//! and INT4-robust. The dense kernels in [`crate::ops`] compute the same
//! result through the full convolution; tests pin the equivalence.

use nsflow_tensor::rng::StdRng;

use crate::{BlockCode, Result, VsaError};

/// A sparse block code: one active index per block (activation value 1).
///
/// # Examples
///
/// ```
/// use nsflow_vsa::sparse::SparseBlockCode;
/// let a = SparseBlockCode::new(vec![1, 2], 4)?;
/// let b = SparseBlockCode::new(vec![3, 3], 4)?;
/// let bound = a.bind(&b)?;
/// assert_eq!(bound, SparseBlockCode::new(vec![0, 1], 4)?); // (1+3) mod 4, (2+3) mod 4
/// assert_eq!(bound.unbind(&b)?, a);
/// # Ok::<(), nsflow_vsa::VsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SparseBlockCode {
    indices: Vec<usize>,
    block_dim: usize,
}

impl SparseBlockCode {
    /// Creates a sparse code from its per-block active indices.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::EmptyGeometry`] for an empty index list or zero
    /// block size, and [`VsaError::CodewordOutOfRange`] if any index
    /// reaches beyond the block.
    pub fn new(indices: Vec<usize>, block_dim: usize) -> Result<Self> {
        if indices.is_empty() || block_dim == 0 {
            return Err(VsaError::EmptyGeometry);
        }
        for &i in &indices {
            if i >= block_dim {
                return Err(VsaError::CodewordOutOfRange {
                    index: i,
                    len: block_dim,
                });
            }
        }
        Ok(SparseBlockCode { indices, block_dim })
    }

    /// Draws a uniformly random sparse code.
    ///
    /// # Panics
    ///
    /// Panics if either size parameter is zero.
    #[must_use]
    pub fn random(n_blocks: usize, block_dim: usize, rng: &mut StdRng) -> Self {
        assert!(n_blocks > 0 && block_dim > 0, "geometry must be nonzero");
        SparseBlockCode {
            indices: (0..n_blocks).map(|_| rng.gen_range(0..block_dim)).collect(),
            block_dim,
        }
    }

    /// Binding: per-block index addition modulo the block size — exactly
    /// circular convolution of one-hot blocks.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::GeometryMismatch`] if geometries differ.
    pub fn bind(&self, other: &SparseBlockCode) -> Result<SparseBlockCode> {
        self.check_geometry(other)?;
        Ok(SparseBlockCode {
            indices: self
                .indices
                .iter()
                .zip(&other.indices)
                .map(|(&a, &b)| (a + b) % self.block_dim)
                .collect(),
            block_dim: self.block_dim,
        })
    }

    /// Inverse binding: per-block index subtraction — exact, with zero
    /// crosstalk (the sparse family's key advantage).
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::GeometryMismatch`] if geometries differ.
    pub fn unbind(&self, other: &SparseBlockCode) -> Result<SparseBlockCode> {
        self.check_geometry(other)?;
        Ok(SparseBlockCode {
            indices: self
                .indices
                .iter()
                .zip(&other.indices)
                .map(|(&a, &b)| (a + self.block_dim - b) % self.block_dim)
                .collect(),
            block_dim: self.block_dim,
        })
    }

    /// Normalized similarity: fraction of blocks whose active index
    /// matches (1.0 for identical codes; expectation `1/block_dim` for
    /// random pairs).
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::GeometryMismatch`] if geometries differ.
    pub fn similarity(&self, other: &SparseBlockCode) -> Result<f32> {
        self.check_geometry(other)?;
        let matches = self
            .indices
            .iter()
            .zip(&other.indices)
            .filter(|(a, b)| a == b)
            .count();
        Ok(matches as f32 / self.indices.len() as f32)
    }

    /// Expands to the equivalent dense one-hot [`BlockCode`].
    #[must_use]
    pub fn to_dense(&self) -> BlockCode {
        let mut dense = BlockCode::zeros(self.indices.len(), self.block_dim);
        for (blk, &idx) in self.indices.iter().enumerate() {
            dense.data_mut()[blk * self.block_dim + idx] = 1.0;
        }
        dense
    }

    /// Recovers a sparse code from a (possibly noisy) dense code by
    /// taking each block's argmax.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::EmptyGeometry`] for a degenerate dense code.
    pub fn from_dense(dense: &BlockCode) -> Result<SparseBlockCode> {
        if dense.n_blocks() == 0 || dense.block_dim() == 0 {
            return Err(VsaError::EmptyGeometry);
        }
        let indices = (0..dense.n_blocks())
            .map(|blk| {
                let block = dense.block(blk).expect("block index in range");
                block
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect();
        SparseBlockCode::new(indices, dense.block_dim())
    }

    fn check_geometry(&self, other: &SparseBlockCode) -> Result<()> {
        if self.indices.len() != other.indices.len() || self.block_dim != other.block_dim {
            return Err(VsaError::GeometryMismatch {
                lhs: format!("{}×{}", self.indices.len(), self.block_dim),
                rhs: format!("{}×{}", other.indices.len(), other.block_dim),
            });
        }
        Ok(())
    }
}

/// A sparse item memory with exact cleanup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseCodebook {
    codewords: Vec<SparseBlockCode>,
}

impl SparseCodebook {
    /// Draws `count` random sparse codewords.
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero.
    #[must_use]
    pub fn random(count: usize, n_blocks: usize, block_dim: usize, rng: &mut StdRng) -> Self {
        assert!(count > 0, "codebook must be non-empty");
        SparseCodebook {
            codewords: (0..count)
                .map(|_| SparseBlockCode::random(n_blocks, block_dim, rng))
                .collect(),
        }
    }

    /// Number of codewords.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codewords.len()
    }

    /// Whether the codebook is empty (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codewords.is_empty()
    }

    /// One codeword by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn codeword(&self, index: usize) -> &SparseBlockCode {
        &self.codewords[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn new_validates_geometry() {
        assert!(SparseBlockCode::new(vec![], 4).is_err());
        assert!(SparseBlockCode::new(vec![0], 0).is_err());
        assert!(matches!(
            SparseBlockCode::new(vec![4], 4),
            Err(VsaError::CodewordOutOfRange { .. })
        ));
    }

    #[test]
    fn bind_is_index_addition() {
        let a = SparseBlockCode::new(vec![1, 3], 4).unwrap();
        let b = SparseBlockCode::new(vec![2, 2], 4).unwrap();
        assert_eq!(
            a.bind(&b).unwrap(),
            SparseBlockCode::new(vec![3, 1], 4).unwrap()
        );
    }

    #[test]
    fn unbind_exactly_inverts_bind() {
        let mut r = rng();
        for _ in 0..50 {
            let a = SparseBlockCode::random(4, 256, &mut r);
            let k = SparseBlockCode::random(4, 256, &mut r);
            assert_eq!(a.bind(&k).unwrap().unbind(&k).unwrap(), a);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = SparseBlockCode::random(3, 16, &mut rng());
        // The binding identity: index 0 in every block.
        let id = SparseBlockCode::new(vec![0; 3], 16).unwrap();
        assert_eq!(a.bind(&id).unwrap(), a);
    }

    #[test]
    fn bind_commutes() {
        let mut r = rng();
        let a = SparseBlockCode::random(4, 64, &mut r);
        let b = SparseBlockCode::random(4, 64, &mut r);
        assert_eq!(a.bind(&b).unwrap(), b.bind(&a).unwrap());
    }

    #[test]
    fn sparse_binding_equals_dense_circular_convolution() {
        let mut r = rng();
        for _ in 0..10 {
            let a = SparseBlockCode::random(3, 32, &mut r);
            let b = SparseBlockCode::random(3, 32, &mut r);
            let dense_bound = ops::bind(&a.to_dense(), &b.to_dense()).unwrap();
            assert_eq!(dense_bound, a.bind(&b).unwrap().to_dense());
        }
    }

    #[test]
    fn dense_round_trip() {
        let a = SparseBlockCode::new(vec![5, 0, 31], 32).unwrap();
        assert_eq!(SparseBlockCode::from_dense(&a.to_dense()).unwrap(), a);
    }

    #[test]
    fn similarity_counts_matching_blocks() {
        let a = SparseBlockCode::new(vec![1, 2, 3, 4], 8).unwrap();
        let b = SparseBlockCode::new(vec![1, 2, 0, 0], 8).unwrap();
        assert_eq!(a.similarity(&b).unwrap(), 0.5);
        assert_eq!(a.similarity(&a).unwrap(), 1.0);
    }

    #[test]
    fn cleanup_recovers_noisy_dense_queries() {
        let mut r = rng();
        let book = SparseCodebook::random(16, 4, 64, &mut r);
        for i in [0usize, 7, 15] {
            // Perturb the dense expansion and recover through argmax.
            let mut dense = book.codeword(i).to_dense();
            for x in dense.data_mut() {
                *x += 0.3 * (r.gen::<f32>() - 0.5);
            }
            let recovered = SparseBlockCode::from_dense(&dense).unwrap();
            assert_eq!(&recovered, book.codeword(i));
        }
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let a = SparseBlockCode::random(2, 8, &mut rng());
        let b = SparseBlockCode::random(3, 8, &mut rng());
        assert!(a.bind(&b).is_err());
        assert!(a.similarity(&b).is_err());
    }
}
