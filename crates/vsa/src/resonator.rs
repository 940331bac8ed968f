//! Resonator network for factorizing bound products.
//!
//! NVSA's rule abduction must recover the attribute factors (e.g. type,
//! size, color) from a single bound product vector. A resonator network
//! does this iteratively: each factor estimate is refined by unbinding the
//! other factors' current estimates from the target and projecting the
//! residual back onto that factor's codebook. This is the dominant
//! *symbolic* compute loop of the workload — many small circular
//! convolutions and codebook similarity searches — exactly the kernel mix
//! the AdArray's folded sub-arrays accelerate.

use crate::{BlockCode, Codebook, Result, VsaError};

/// Outcome of a resonator factorization run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Factorization {
    /// Selected codeword index per factor.
    pub indices: Vec<usize>,
    /// Iterations executed before convergence (or the cap).
    pub iterations: usize,
    /// Whether the estimates reached a fixed point before the cap.
    pub converged: bool,
}

/// Configuration for [`Resonator::factorize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResonatorConfig {
    /// Maximum refinement sweeps over all factors.
    pub max_iterations: usize,
    /// Softmax temperature for the codebook projection; lower is harder.
    pub temperature: f32,
}

impl Default for ResonatorConfig {
    fn default() -> Self {
        ResonatorConfig {
            max_iterations: 64,
            temperature: 0.08,
        }
    }
}

/// Resonator network over a fixed set of factor codebooks.
///
/// # Examples
///
/// ```
/// use nsflow_vsa::{Codebook, resonator::{Resonator, ResonatorConfig}};
///
/// let mut rng = nsflow_tensor::rng::StdRng::seed_from_u64(3);
/// let f1 = Codebook::random_unitary(5, 4, 128, &mut rng);
/// let f2 = Codebook::random_unitary(5, 4, 128, &mut rng);
/// let target = f1.codeword(2).bind(f2.codeword(4))?;
/// let res = Resonator::new(vec![f1, f2])?;
/// let out = res.factorize(&target, ResonatorConfig::default())?;
/// assert_eq!(out.indices, vec![2, 4]);
/// # Ok::<(), nsflow_vsa::VsaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Resonator {
    factors: Vec<Codebook>,
}

impl Resonator {
    /// Creates a resonator from one codebook per factor.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::FactorGeometryMismatch`] if fewer than two
    /// factors are given or their codeword geometries disagree.
    pub fn new(factors: Vec<Codebook>) -> Result<Self> {
        if factors.len() < 2 {
            return Err(VsaError::FactorGeometryMismatch(format!(
                "need at least 2 factors, got {}",
                factors.len()
            )));
        }
        let reference = factors[0].codeword(0);
        for (i, book) in factors.iter().enumerate() {
            let cw = book.codeword(0);
            if cw.n_blocks() != reference.n_blocks() || cw.block_dim() != reference.block_dim() {
                return Err(VsaError::FactorGeometryMismatch(format!(
                    "factor {i} geometry {} differs from factor 0 geometry {}",
                    cw.geometry_string(),
                    reference.geometry_string()
                )));
            }
        }
        Ok(Resonator { factors })
    }

    /// Iteratively factorizes `target` into one codeword per factor.
    ///
    /// Each sweep refines every factor in turn: the other factors' current
    /// *superposed* estimates are unbound from the target and the residual
    /// is projected onto the factor's codebook through a softmax; estimates
    /// harden as the temperature sharpens the projection. Convergence is a
    /// sweep in which no factor's argmax changes.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors if `target` disagrees with the codebooks.
    pub fn factorize(&self, target: &BlockCode, config: ResonatorConfig) -> Result<Factorization> {
        let nf = self.factors.len();
        // Initialize each estimate to the (normalized) superposition of its
        // whole codebook — the standard resonator initialization.
        let mut estimates: Vec<BlockCode> = self
            .factors
            .iter()
            .map(|book| {
                let uniform = vec![1.0; book.len()];
                let mut sup = book.weighted_superposition(&uniform)?;
                sup.normalize();
                Ok(sup)
            })
            .collect::<Result<_>>()?;
        let mut indices: Vec<usize> = vec![0; nf];
        let mut iterations = 0usize;

        for _sweep in 0..config.max_iterations {
            iterations += 1;
            let mut changed = false;
            for f in 0..nf {
                // Product of every *other* factor's estimate.
                let mut others: Option<BlockCode> = None;
                for (g, est) in estimates.iter().enumerate() {
                    if g == f {
                        continue;
                    }
                    others = Some(match others {
                        None => est.clone(),
                        Some(prev) => prev.bind(est)?,
                    });
                }
                let others = others.expect("at least two factors");
                let residual = target.unbind(&others)?;
                let probs = self.factors[f].match_prob(&residual, config.temperature)?;
                let mut sup = self.factors[f].weighted_superposition(&probs)?;
                sup.normalize();
                let best = argmax(&probs);
                if best != indices[f] {
                    indices[f] = best;
                    changed = true;
                }
                estimates[f] = sup;
            }
            if !changed && iterations > 1 {
                return Ok(Factorization {
                    indices,
                    iterations,
                    converged: true,
                });
            }
        }
        Ok(Factorization {
            indices,
            iterations,
            converged: false,
        })
    }
}

fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::rng::StdRng;

    fn unitary_books(counts: &[usize], seed: u64) -> Vec<Codebook> {
        let mut rng = StdRng::seed_from_u64(seed);
        counts
            .iter()
            .map(|&c| Codebook::random_unitary(c, 4, 128, &mut rng))
            .collect()
    }

    #[test]
    fn new_requires_two_factors() {
        let books = unitary_books(&[4], 1);
        assert!(matches!(
            Resonator::new(books),
            Err(VsaError::FactorGeometryMismatch(_))
        ));
    }

    #[test]
    fn new_rejects_mixed_geometry() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Codebook::random_unitary(4, 4, 128, &mut rng);
        let b = Codebook::random_unitary(4, 2, 128, &mut rng);
        assert!(Resonator::new(vec![a, b]).is_err());
    }

    #[test]
    fn two_factor_factorization_recovers_indices() {
        let books = unitary_books(&[6, 6], 3);
        let target = books[0].codeword(1).bind(books[1].codeword(4)).unwrap();
        let res = Resonator::new(books).unwrap();
        let out = res.factorize(&target, ResonatorConfig::default()).unwrap();
        assert_eq!(out.indices, vec![1, 4]);
        assert!(out.converged, "should converge well before the cap");
    }

    #[test]
    fn three_factor_factorization_recovers_indices() {
        let books = unitary_books(&[5, 5, 5], 4);
        let target = books[0]
            .codeword(2)
            .bind(books[1].codeword(0))
            .unwrap()
            .bind(books[2].codeword(3))
            .unwrap();
        let res = Resonator::new(books).unwrap();
        let out = res.factorize(&target, ResonatorConfig::default()).unwrap();
        assert_eq!(out.indices, vec![2, 0, 3]);
    }

    #[test]
    fn factorization_tolerates_noise() {
        let books = unitary_books(&[6, 6], 6);
        let mut target = books[0].codeword(5).bind(books[1].codeword(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for x in target.data_mut() {
            *x += 0.02 * (rng.gen::<f32>() - 0.5);
        }
        let res = Resonator::new(books).unwrap();
        let out = res.factorize(&target, ResonatorConfig::default()).unwrap();
        assert_eq!(out.indices, vec![5, 1]);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let books = unitary_books(&[8, 8], 8);
        let target = books[0].codeword(0).bind(books[1].codeword(0)).unwrap();
        let res = Resonator::new(books).unwrap();
        let cfg = ResonatorConfig {
            max_iterations: 1,
            temperature: 0.08,
        };
        let out = res.factorize(&target, cfg).unwrap();
        assert_eq!(out.iterations, 1);
        assert!(!out.converged);
    }
}
