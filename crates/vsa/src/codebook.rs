use nsflow_tensor::rng::StdRng;

use crate::{ops, BlockCode, Result, VsaError};

/// An item memory: a set of random codewords with cleanup (nearest-codeword
/// recall).
///
/// The generated codewords are **unitary**: every block has a flat Fourier
/// magnitude spectrum, so circular-convolution binding is exactly
/// invertible and norm-preserving — the family NVSA's block codes use, and
/// the reason the AdArray can treat inverse binding as just another
/// convolution. [`Codebook::from_codewords`] wraps any other family.
///
/// # Examples
///
/// ```
/// use nsflow_vsa::Codebook;
///
/// let mut rng = nsflow_tensor::rng::StdRng::seed_from_u64(1);
/// let book = Codebook::random_unitary(16, 4, 64, &mut rng);
/// assert_eq!(book.len(), 16);
/// assert_eq!(book.cleanup(book.codeword(3))?, 3);
/// # Ok::<(), nsflow_vsa::VsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    codewords: Vec<BlockCode>,
}

impl Codebook {
    /// Builds a codebook from existing codewords.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::EmptyCodebook`] for an empty input and
    /// [`VsaError::GeometryMismatch`] if codewords disagree in geometry.
    pub fn from_codewords(codewords: Vec<BlockCode>) -> Result<Self> {
        let first = codewords.first().ok_or(VsaError::EmptyCodebook)?;
        for cw in &codewords[1..] {
            first.check_geometry(cw)?;
        }
        Ok(Codebook { codewords })
    }

    /// Generates `count` random unitary codewords: each block is the
    /// inverse DFT of a flat-magnitude random-phase spectrum, so binding is
    /// exactly invertible and each block has unit L2 norm.
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero.
    #[must_use]
    pub fn random_unitary(
        count: usize,
        n_blocks: usize,
        block_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            count > 0 && n_blocks > 0 && block_dim > 0,
            "sizes must be nonzero"
        );
        let phases: Vec<Vec<f64>> = (0..count * n_blocks)
            .map(|_| random_phases(block_dim, rng))
            .collect();
        let data = unitary_blocks(&phases, block_dim);
        let codewords = data
            .chunks(n_blocks * block_dim)
            .map(|cw| {
                BlockCode::from_vec(n_blocks, block_dim, cw.to_vec())
                    .expect("generated data matches geometry")
            })
            .collect();
        Codebook { codewords }
    }

    /// Number of codewords.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codewords.len()
    }

    /// Whether the codebook is empty (never true for a constructed one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codewords.is_empty()
    }

    /// The codewords as a slice.
    #[must_use]
    pub fn codewords(&self) -> &[BlockCode] {
        &self.codewords
    }

    /// One codeword by index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn codeword(&self, index: usize) -> &BlockCode {
        &self.codewords[index]
    }

    /// Cleanup memory: index of the codeword most similar to `query`.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::GeometryMismatch`] if `query` disagrees with the
    /// codebook geometry.
    pub fn cleanup(&self, query: &BlockCode) -> Result<usize> {
        let mut best = 0usize;
        let mut best_sim = f32::NEG_INFINITY;
        for (i, cw) in self.codewords.iter().enumerate() {
            let s = query.similarity(cw)?;
            if s > best_sim {
                best_sim = s;
                best = i;
            }
        }
        Ok(best)
    }

    /// Similarities of `query` against every codeword.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::GeometryMismatch`] on geometry disagreement.
    pub fn similarities(&self, query: &BlockCode) -> Result<Vec<f32>> {
        self.codewords
            .iter()
            .map(|cw| query.similarity(cw))
            .collect()
    }

    /// Softmax match probabilities of `query` against the codebook
    /// (`match_prob_multi_batched` over the whole item memory).
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::GeometryMismatch`] on geometry disagreement.
    pub fn match_prob(&self, query: &BlockCode, temperature: f32) -> Result<Vec<f32>> {
        ops::match_prob(query, &self.codewords, temperature)
    }

    /// Weighted superposition of the codebook: `Σ weights[i] · codeword[i]`
    /// — the "bundled estimate" a resonator feeds back each iteration.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::DataLengthMismatch`] if `weights.len()` differs
    /// from `len()`.
    pub(crate) fn weighted_superposition(&self, weights: &[f32]) -> Result<BlockCode> {
        if weights.len() != self.codewords.len() {
            return Err(VsaError::DataLengthMismatch {
                expected: self.codewords.len(),
                actual: weights.len(),
            });
        }
        let first = &self.codewords[0];
        let mut out = BlockCode::zeros(first.n_blocks(), first.block_dim());
        for (w, cw) in weights.iter().zip(&self.codewords) {
            for (o, x) in out.data_mut().iter_mut().zip(cw.data()) {
                *o += w * x;
            }
        }
        Ok(out)
    }
}

/// Random phases of one unitary block, with conjugate symmetry so the
/// time signal is real: `theta[d-k] = -theta[k]`; `theta[0]` (and
/// `theta[d/2]` for even `d`) in `{0, π}`.
fn random_phases(dim: usize, rng: &mut StdRng) -> Vec<f64> {
    use std::f64::consts::{PI, TAU};
    let mut theta = vec![0.0f64; dim];
    theta[0] = if rng.gen::<bool>() { 0.0 } else { PI };
    if dim.is_multiple_of(2) {
        theta[dim / 2] = if rng.gen::<bool>() { 0.0 } else { PI };
    }
    for k in 1..dim.div_ceil(2) {
        let t: f64 = rng.gen_range(0.0..TAU);
        theta[k] = t;
        theta[dim - k] = -t;
    }
    theta
}

/// Unitary blocks, laid out one after another: each is the inverse DFT of
/// a flat-magnitude spectrum with the given phases (computed in `f64` for
/// accuracy), `x[n] = (1/d) Σ_k cos(θ_k + 2πkn/d)` (imaginary parts
/// cancel). Each row of angles `2πkn/d` is computed once and shared by
/// every block.
fn unitary_blocks(phases: &[Vec<f64>], dim: usize) -> Vec<f32> {
    use std::f64::consts::TAU;
    let mut data = vec![0.0f32; phases.len() * dim];
    let mut angles = vec![0.0f64; dim];
    for n in 0..dim {
        for (k, angle) in angles.iter_mut().enumerate() {
            *angle = TAU * (k as f64) * (n as f64) / (dim as f64);
        }
        for (block, theta) in phases.iter().enumerate() {
            let mut acc = 0.0f64;
            for (&th, &angle) in theta.iter().zip(&angles) {
                acc += (th + angle).cos();
            }
            data[block * dim + n] = (acc / dim as f64) as f32;
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn from_codewords_validates() {
        assert_eq!(
            Codebook::from_codewords(vec![]).unwrap_err(),
            VsaError::EmptyCodebook
        );
        let mixed = vec![BlockCode::zeros(1, 4), BlockCode::zeros(2, 2)];
        assert!(matches!(
            Codebook::from_codewords(mixed),
            Err(VsaError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn unitary_blocks_have_unit_norm() {
        let book = Codebook::random_unitary(3, 2, 64, &mut rng());
        for cw in book.codewords() {
            for b in 0..2 {
                let blk = cw.block(b).unwrap();
                let n: f32 = blk.iter().map(|x| x * x).sum::<f32>().sqrt();
                assert!((n - 1.0).abs() < 1e-4, "block norm {n}");
            }
        }
    }

    #[test]
    fn unitary_binding_is_exactly_invertible() {
        let mut r = rng();
        let book = Codebook::random_unitary(4, 4, 128, &mut r);
        let x = book.codeword(0);
        let k = book.codeword(1);
        let bound = x.bind(k).unwrap();
        let recovered = bound.unbind(k).unwrap();
        let s = recovered.similarity(x).unwrap();
        assert!(s > 0.999, "unitary unbind must be exact, sim = {s}");
    }

    #[test]
    fn unitary_binding_preserves_norm() {
        let mut r = rng();
        let book = Codebook::random_unitary(2, 1, 64, &mut r);
        let bound = book.codeword(0).bind(book.codeword(1)).unwrap();
        let n: f32 = bound.data().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-4, "bound norm {n}");
    }

    #[test]
    fn cleanup_recovers_exact_codewords() {
        let book = Codebook::random_unitary(32, 2, 64, &mut rng());
        for i in [0usize, 7, 31] {
            assert_eq!(book.cleanup(book.codeword(i)).unwrap(), i);
        }
    }

    #[test]
    fn cleanup_survives_additive_noise() {
        let mut r = rng();
        let book = Codebook::random_unitary(16, 4, 128, &mut r);
        let mut noisy = book.codeword(5).clone();
        for x in noisy.data_mut() {
            *x += 0.3 * (r.gen::<f32>() - 0.5) / (512.0f32).sqrt() * 10.0;
        }
        assert_eq!(book.cleanup(&noisy).unwrap(), 5);
    }

    #[test]
    fn match_prob_concentrates_on_true_item() {
        let book = Codebook::random_unitary(7, 4, 128, &mut rng());
        let probs = book.match_prob(book.codeword(3), 0.05).unwrap();
        assert_eq!(probs.len(), 7);
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(best.0, 3);
        assert!(*best.1 > 0.9);
    }

    #[test]
    fn weighted_superposition_shapes_and_errors() {
        let book = Codebook::random_unitary(3, 1, 16, &mut rng());
        assert!(book.weighted_superposition(&[1.0, 0.0]).is_err());
        let sup = book.weighted_superposition(&[1.0, 0.0, 0.0]).unwrap();
        assert!((sup.similarity(book.codeword(0)).unwrap() - 1.0).abs() < 1e-6);
    }

    /// Pins the unitary generator bit for bit: an FNV-1a digest of every
    /// codeword element at power-of-two and odd-factor block sizes.
    #[test]
    fn unitary_codewords_match_pinned_digests() {
        const PINNED: [(usize, u64); 4] = [
            (8, 0x9fc6_ec86_1076_45a4),
            (32, 0x0d0a_776d_419d_3b75),
            (64, 0x6eb3_9a32_dd21_45f9),
            (100, 0x14c6_3363_1741_a91b),
        ];
        let mut moved = Vec::new();
        for (dim, pinned) in PINNED {
            let book = Codebook::random_unitary(3, 2, dim, &mut StdRng::seed_from_u64(dim as u64));
            let digest = book
                .codewords()
                .iter()
                .flat_map(|cw| cw.data())
                .flat_map(|x| x.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                });
            if digest != pinned {
                moved.push(format!("dim {dim}: {digest:#018x}"));
            }
        }
        assert!(moved.is_empty(), "unitary codewords moved: {moved:?}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Codebook::random_unitary(2, 1, 32, &mut StdRng::seed_from_u64(9));
        let b = Codebook::random_unitary(2, 1, 32, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
