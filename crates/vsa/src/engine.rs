//! Spectral-cached VSA kernel engine.
//!
//! The reference kernels in [`crate::ops`] and [`crate::resonator`]
//! recompute everything from scratch: every bind/unbind is an O(d²)
//! direct convolution and every codebook projection walks the codewords
//! one [`BlockCode::similarity`] call at a time. That is the right shape
//! for the hardware cross-check oracles, but the functional workload path
//! (the reasoning pipeline, the accuracy harness, the scalability
//! experiments) runs these kernels millions of times and only cares about
//! the values.
//!
//! This module is the fast path:
//!
//! - [`SpectralCodebook`] precomputes, **once**, the per-codeword block
//!   spectra (for spectral-domain superposition), a column-major
//!   codeword matrix, and the per-codeword norms. Cleanup, similarity
//!   scans, and softmax projections become one matvec over the matrix
//!   ([`crate::gemm::matvec`]) plus a scale — and are
//!   **bit-identical** to the reference `Codebook` methods, because the
//!   matvec folds each codeword's products in the same left-to-right
//!   order as [`BlockCode::similarity`]. Column-major storage lets it
//!   run all those folds side by side, one matrix column per query
//!   element.
//! - [`SpectralResonator`] runs the resonator's refinement loop entirely
//!   in the spectral domain. Factor estimates are kept as cached spectra;
//!   binding the "other" estimates is a pointwise spectral product, and
//!   unbinding from the target is a pointwise product with the conjugate
//!   — so each factor update costs **one inverse FFT** (for the residual
//!   that feeds the codebook projection) instead of the reference's chain
//!   of O(d²) convolutions. The probability-weighted superposition that
//!   feeds back into the next iteration is assembled directly from the
//!   cached codeword spectra, so no forward FFT ever runs inside the
//!   loop.
//! - [`SpectralResonator::reconstruct`] and
//!   [`SpectralResonator::unbind_others`] serve hard coordinate descent:
//!   they return **exactly** the [`fft::bind_fast`] fold of the chosen
//!   codewords, and [`fft::unbind_fast`] of a target by that fold, without
//!   re-transforming operands. Bound codeword pairs are memoized (time
//!   domain, filled on first use), every later bind reads a cached
//!   codeword spectrum, and a [`SpectralTarget`] carries its spectrum
//!   across the many unbinds of one panel. Each cached spectrum is the
//!   very transform `bind_fast` would compute, and the complex products
//!   multiply the same operands, so the outputs are bit-identical.
//!
//! Every transform here runs over a whole code at once through the
//! split-complex kernel of [`crate::fft`], into buffers the call owns
//! (the factorization loop reuses its residual buffers across sweeps).
//!
//! # Equivalence with the reference resonator
//!
//! The spectral loop mirrors [`Resonator::factorize`] decision for
//! decision: the same softmax temperature clamp, the same
//! last-of-equal-maxima argmax, and the same "no index changed and at
//! least two sweeps ran" convergence rule. Two deliberate numerical
//! differences are documented here and bounded by the equivalence tests:
//!
//! 1. Residuals are produced by the f64 FFT instead of the f32 direct
//!    kernel, so their entries differ from the reference by FFT rounding
//!    (~1e-6 relative — the f64 transform is *more* accurate than the f32
//!    O(d²) sum it replaces).
//! 2. Estimates are not re-normalized each iteration. Cosine similarity
//!    is invariant under positive scaling of the query, and the
//!    probability-weighted superposition of unit-norm codewords keeps
//!    every estimate's norm in `[~1/√N, 1]`, so skipping the reference's
//!    `normalize()` changes no similarity by more than rounding and never
//!    under/overflows.
//!
//! Both effects perturb softmax inputs by ≲1e-5, far below the
//! inter-codeword similarity gaps (~0.1 at the dimensions the workloads
//! use), so the *index trajectory* — and therefore the returned
//! factorization — matches the reference exactly on the tested
//! geometries.
//!
//! # Fallback contract
//!
//! The spectral path needs the block dimension to be a power of two and
//! at least 8, the same condition as the [`crate::fft`] kernels. For any
//! other geometry [`SpectralResonator::factorize`] transparently
//! delegates to the reference [`Resonator`], so the engine is total over
//! every geometry the reference accepts.

use std::borrow::Cow;
use std::sync::OnceLock;

use nsflow_telemetry as telemetry;

use crate::fft::{self, FftPlan, Spectrum};
use crate::gemm;
use crate::resonator::{Factorization, Resonator, ResonatorConfig};
use crate::{ops, BlockCode, Codebook, Result, VsaError};

/// A [`Codebook`] with precomputed spectral and matrix caches.
///
/// Construction cost is one FFT per codeword block plus one pass over the
/// data; every subsequent cleanup/similarity/projection call amortizes it.
///
/// # Examples
///
/// ```
/// use nsflow_vsa::{Codebook, engine::SpectralCodebook};
///
/// let mut rng = nsflow_tensor::rng::StdRng::seed_from_u64(1);
/// let book = Codebook::random_unitary(16, 4, 64, &mut rng);
/// let engine = SpectralCodebook::new(book.clone());
/// let query = book.codeword(9);
/// assert_eq!(engine.cleanup(query)?, 9);
/// # Ok::<(), nsflow_vsa::VsaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpectralCodebook {
    book: Codebook,
    n_blocks: usize,
    block_dim: usize,
    dim: usize,
    /// Column-major `dim × len` matrix of codeword data: element `k` of
    /// codeword `i` is at `k * len + i`.
    columns: Vec<f32>,
    /// Per-codeword L2 norms, computed with the same f32 fold as
    /// [`BlockCode::similarity`] so quotients are bit-identical.
    norms: Vec<f32>,
    /// Per-codeword blockwise spectra (block FFTs concatenated), present
    /// iff the block dimension admits the radix-2 fast path.
    spectra: Option<Vec<Spectrum>>,
}

impl SpectralCodebook {
    /// Builds the caches for `book`.
    #[must_use]
    pub fn new(book: Codebook) -> Self {
        let first = book.codeword(0);
        let (n_blocks, block_dim) = (first.n_blocks(), first.block_dim());
        let dim = n_blocks * block_dim;
        let len = book.len();
        let mut columns = vec![0.0; dim * len];
        let mut norms = Vec::with_capacity(len);
        for (i, cw) in book.codewords().iter().enumerate() {
            for (slot, &x) in columns[i..].iter_mut().step_by(len).zip(cw.data()) {
                *slot = x;
            }
            norms.push(cw.data().iter().map(|x| x * x).sum::<f32>().sqrt());
        }
        let spectra = fft::fast_path_applies(block_dim).then(|| {
            let plan = fft::plan(block_dim);
            book.codewords()
                .iter()
                .map(|cw| spectrum_of(cw.data(), &plan))
                .collect()
        });
        SpectralCodebook {
            book,
            n_blocks,
            block_dim,
            dim,
            columns,
            norms,
            spectra,
        }
    }

    /// The wrapped codebook.
    #[must_use]
    pub fn book(&self) -> &Codebook {
        &self.book
    }

    /// Number of codewords.
    #[must_use]
    pub fn len(&self) -> usize {
        self.book.len()
    }

    /// Whether the codebook is empty (never true for a constructed one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.book.is_empty()
    }

    /// Whether the spectral caches are live (block dimension admits the
    /// radix-2 fast path); when false the resonator delegates to the
    /// reference implementation.
    #[must_use]
    pub(crate) fn is_spectral(&self) -> bool {
        self.spectra.is_some()
    }

    /// Similarities of `query` against every codeword as one matvec — bit-identical to [`Codebook::similarities`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::VsaError::GeometryMismatch`] on geometry
    /// disagreement.
    pub fn similarities(&self, query: &BlockCode) -> Result<Vec<f32>> {
        self.book.codeword(0).check_geometry(query)?;
        Ok(self.similarities_flat(query.data()))
    }

    /// Cleanup memory: index of the most similar codeword (first of equal
    /// maxima, matching [`Codebook::cleanup`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::VsaError::GeometryMismatch`] on geometry
    /// disagreement.
    pub fn cleanup(&self, query: &BlockCode) -> Result<usize> {
        let sims = self.similarities(query)?;
        let mut best = 0usize;
        let mut best_sim = f32::NEG_INFINITY;
        for (i, &s) in sims.iter().enumerate() {
            if s > best_sim {
                best_sim = s;
                best = i;
            }
        }
        Ok(best)
    }

    /// Softmax match probabilities — bit-identical to
    /// [`Codebook::match_prob`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::VsaError::GeometryMismatch`] on geometry
    /// disagreement.
    pub fn match_prob(&self, query: &BlockCode, temperature: f32) -> Result<Vec<f32>> {
        let sims = self.similarities(query)?;
        let t = temperature.max(f32::MIN_POSITIVE);
        let logits: Vec<f32> = sims.into_iter().map(|s| s / t).collect();
        Ok(ops::softmax(&logits))
    }

    /// The cached blockwise spectrum of codeword `index`.
    ///
    /// # Panics
    ///
    /// Panics off the spectral path or if `index` is out of range.
    fn spectrum(&self, index: usize) -> &Spectrum {
        &self.spectra.as_ref().expect("spectral path")[index]
    }

    /// Similarity scan against a raw query slice (no geometry to check:
    /// the engine's internal residuals are plain vectors).
    fn similarities_flat(&self, query: &[f32]) -> Vec<f32> {
        debug_assert_eq!(query.len(), self.dim);
        let dots = gemm::matvec(&self.columns, query, self.book.len(), self.dim);
        let qn: f32 = query.iter().map(|x| x * x).sum::<f32>().sqrt();
        dots.into_iter()
            .zip(&self.norms)
            .map(|(dot, &cn)| {
                if qn == 0.0 || cn == 0.0 {
                    0.0
                } else {
                    dot / (qn * cn)
                }
            })
            .collect()
    }
}

/// Blockwise forward spectrum of a block-code data slice.
fn spectrum_of(data: &[f32], plan: &FftPlan) -> Spectrum {
    let mut spec = Spectrum::zeros(data.len());
    plan.forward(data, &mut spec);
    spec
}

/// The time-domain code of `spec`'s blockwise inverse transform; `spec`
/// is used up as scratch.
fn inverse_of(mut spec: Spectrum, plan: &FftPlan) -> Vec<f32> {
    let mut out = vec![0.0; spec.re.len()];
    plan.inverse(&mut spec, &mut out);
    out
}

/// `bind_fast(acc, cw)` with `cw`'s blockwise spectrum taken from the
/// cache: one forward and one inverse FFT per block.
fn bind_cached(acc: &[f32], spectrum: &Spectrum, plan: &FftPlan) -> Vec<f32> {
    let mut product = spectrum_of(acc, plan);
    product.mul(spectrum);
    inverse_of(product, plan)
}

/// A factorization target together with its blockwise spectrum, computed
/// once by [`SpectralResonator::prepare`] and reused by every
/// [`SpectralResonator::unbind_others`] call on it.
#[derive(Debug, Clone)]
pub struct SpectralTarget {
    code: BlockCode,
    /// Blockwise spectrum of `code`; present iff the engine that prepared
    /// it is spectral.
    spectrum: Option<Spectrum>,
}

impl SpectralTarget {
    /// The target code.
    #[must_use]
    pub fn code(&self) -> &BlockCode {
        &self.code
    }
}

/// Resonator network running on [`SpectralCodebook`] caches.
///
/// Matches [`Resonator::factorize`] semantics (see the module docs for
/// the equivalence argument) at O(d·log d) per factor update instead of
/// O(d²). Geometries outside the fast path delegate to the reference.
///
/// # Examples
///
/// ```
/// use nsflow_vsa::{Codebook, engine::SpectralResonator};
/// use nsflow_vsa::resonator::ResonatorConfig;
///
/// let mut rng = nsflow_tensor::rng::StdRng::seed_from_u64(3);
/// let f1 = Codebook::random_unitary(5, 4, 128, &mut rng);
/// let f2 = Codebook::random_unitary(5, 4, 128, &mut rng);
/// let target = f1.codeword(2).bind(f2.codeword(4))?;
/// let res = SpectralResonator::new(vec![f1, f2])?;
/// let out = res.factorize(&res.prepare(target)?, ResonatorConfig::default())?;
/// assert_eq!(out.indices, vec![2, 4]);
/// # Ok::<(), nsflow_vsa::VsaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpectralResonator {
    reference: Resonator,
    books: Vec<SpectralCodebook>,
    /// Bound codeword pairs, filled on first use:
    /// `pairs[g1 * nf + g2][i * len(g2) + j]` holds exactly
    /// `fft::bind_fast(cw[g1][i], cw[g2][j])` for factors `g1 < g2`. Empty
    /// for every other factor pair and off the spectral path.
    pairs: Vec<Vec<OnceLock<BlockCode>>>,
}

impl SpectralResonator {
    /// Creates the engine from one codebook per factor.
    ///
    /// # Errors
    ///
    /// Returns [`crate::VsaError::FactorGeometryMismatch`] under the same
    /// conditions as [`Resonator::new`].
    pub fn new(factors: Vec<Codebook>) -> Result<Self> {
        let books: Vec<SpectralCodebook> =
            factors.iter().cloned().map(SpectralCodebook::new).collect();
        let reference = Resonator::new(factors)?;
        let nf = books.len();
        let pairs = (0..nf * nf)
            .map(|p| {
                let (g1, g2) = (p / nf, p % nf);
                let slots = if g1 < g2 && books[g1].is_spectral() {
                    books[g1].len() * books[g2].len()
                } else {
                    0
                };
                (0..slots).map(|_| OnceLock::new()).collect()
            })
            .collect();
        Ok(SpectralResonator {
            reference,
            books,
            pairs,
        })
    }

    /// The spectral factor codebooks.
    #[must_use]
    pub fn books(&self) -> &[SpectralCodebook] {
        &self.books
    }

    /// The reference resonator over the same factors (the fallback path
    /// and the oracle the equivalence tests compare against).
    #[must_use]
    pub fn reference(&self) -> &Resonator {
        &self.reference
    }

    /// Whether factorization will run the spectral loop (vs. delegating
    /// to the reference resonator).
    #[must_use]
    pub(crate) fn is_spectral(&self) -> bool {
        self.books.iter().all(SpectralCodebook::is_spectral)
    }

    /// Block count and block dimension shared by every factor.
    fn geometry(&self) -> (usize, usize) {
        (self.books[0].n_blocks, self.books[0].block_dim)
    }

    /// Checks one codeword index per factor, each in range.
    fn check_indices(&self, indices: &[usize]) -> Result<()> {
        if indices.len() != self.books.len() {
            return Err(VsaError::FactorGeometryMismatch(format!(
                "expected {} indices, got {}",
                self.books.len(),
                indices.len()
            )));
        }
        for (book, &index) in self.books.iter().zip(indices) {
            if index >= book.len() {
                return Err(VsaError::CodewordOutOfRange {
                    index,
                    len: book.len(),
                });
            }
        }
        Ok(())
    }

    /// The memoized `bind_fast(cw[g1][i], cw[g2][j])` for `g1 < g2`,
    /// bound from the cached spectra on first use.
    fn pair(&self, (g1, i): (usize, usize), (g2, j): (usize, usize)) -> &BlockCode {
        let slot = &self.pairs[g1 * self.books.len() + g2][i * self.books[g2].len() + j];
        slot.get_or_init(|| {
            let (nb, bd) = self.geometry();
            let mut product = self.books[g1].spectrum(i).clone();
            product.mul(self.books[g2].spectrum(j));
            BlockCode::from_vec(nb, bd, inverse_of(product, &fft::plan(bd)))
                .expect("factors share geometry")
        })
    }

    /// The `bind_fast` fold of the picked `(factor, index)` codewords, in
    /// ascending factor order, on the spectral path: the first two come
    /// from the pair memo and every later one binds through its cached
    /// spectrum. `hits` counts the memo slots and spectra consumed.
    fn chain(&self, picks: &[(usize, usize)], plan: &FftPlan, hits: &mut u64) -> Cow<'_, [f32]> {
        match picks {
            [] => unreachable!("a resonator has at least two factors"),
            &[(g, i)] => Cow::Borrowed(self.books[g].book.codeword(i).data()),
            &[first, second, ref rest @ ..] => {
                let mut acc = Cow::Borrowed(self.pair(first, second).data());
                *hits += 1;
                for &(g, i) in rest {
                    acc = Cow::Owned(bind_cached(&acc, self.books[g].spectrum(i), plan));
                    *hits += 1;
                }
                acc
            }
        }
    }

    /// The same fold through [`fft::bind_fast`] itself, for geometries
    /// off the spectral path.
    fn bind_fold(&self, picks: &[(usize, usize)]) -> Result<BlockCode> {
        let mut acc: Option<BlockCode> = None;
        for &(g, i) in picks {
            let cw = self.books[g].book.codeword(i);
            acc = Some(match acc {
                None => cw.clone(),
                Some(prev) => fft::bind_fast(&prev, cw)?,
            });
        }
        Ok(acc.expect("a resonator has at least two factors"))
    }

    /// Binds the selected codewords back into a product: exactly the
    /// [`fft::bind_fast`] fold over the factors in order, served from the
    /// pair memo and the cached codeword spectra.
    ///
    /// # Errors
    ///
    /// Returns [`crate::VsaError::FactorGeometryMismatch`] unless there is
    /// one index per factor, and [`crate::VsaError::CodewordOutOfRange`]
    /// if an index exceeds its codebook.
    pub fn reconstruct(&self, indices: &[usize]) -> Result<BlockCode> {
        self.check_indices(indices)?;
        let picks: Vec<(usize, usize)> = indices.iter().copied().enumerate().collect();
        if !self.is_spectral() {
            return self.bind_fold(&picks);
        }
        let (nb, bd) = self.geometry();
        let mut hits = 0;
        let data = self.chain(&picks, &fft::plan(bd), &mut hits).into_owned();
        telemetry::counter!("vsa.spectral_cache_hits").add(hits);
        BlockCode::from_vec(nb, bd, data)
    }

    /// Computes `target`'s blockwise spectrum once for repeated
    /// [`SpectralResonator::unbind_others`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`crate::VsaError::GeometryMismatch`] if `target` disagrees
    /// with the codebooks.
    pub fn prepare(&self, target: BlockCode) -> Result<SpectralTarget> {
        self.books[0].book.codeword(0).check_geometry(&target)?;
        let bd = self.geometry().1;
        let spectrum = self
            .is_spectral()
            .then(|| spectrum_of(target.data(), &fft::plan(bd)));
        Ok(SpectralTarget {
            code: target,
            spectrum,
        })
    }

    /// The residual of `target` with every factor but `skip` unbound:
    /// exactly `fft::unbind_fast(target, fold)`, where `fold` is the
    /// [`fft::bind_fast`] fold of the other factors' codewords at
    /// `indices` — one hard coordinate-descent step before cleanup.
    ///
    /// # Errors
    ///
    /// Returns [`crate::VsaError::GeometryMismatch`] if `target` disagrees
    /// with the codebooks, and the [`SpectralResonator::reconstruct`]
    /// errors for `indices` or an out-of-range `skip`.
    pub fn unbind_others(
        &self,
        target: &SpectralTarget,
        indices: &[usize],
        skip: usize,
    ) -> Result<BlockCode> {
        self.books[0]
            .book
            .codeword(0)
            .check_geometry(&target.code)?;
        self.check_indices(indices)?;
        if skip >= indices.len() {
            return Err(VsaError::FactorGeometryMismatch(format!(
                "factor {skip} out of range for {} factors",
                indices.len()
            )));
        }
        let picks: Vec<(usize, usize)> = indices
            .iter()
            .copied()
            .enumerate()
            .filter(|&(g, _)| g != skip)
            .collect();
        let Some(t_spec) = &target.spectrum else {
            return fft::unbind_fast(&target.code, &self.bind_fold(&picks)?);
        };
        let (nb, bd) = self.geometry();
        let plan = fft::plan(bd);
        // The target's spectrum is one cached transform consumed.
        let mut hits = 1;
        let others = match picks[..] {
            [(g, i)] => {
                hits += 1;
                Cow::Borrowed(self.books[g].spectrum(i))
            }
            _ => Cow::Owned(spectrum_of(&self.chain(&picks, &plan, &mut hits), &plan)),
        };
        let mut product = t_spec.clone();
        product.mul_conj(&others);
        telemetry::counter!("vsa.spectral_cache_hits").add(hits);
        BlockCode::from_vec(nb, bd, inverse_of(product, &plan))
    }

    /// Iteratively factorizes `target` into one codeword per factor,
    /// reading its spectrum from the [`SpectralResonator::prepare`] cache.
    ///
    /// Semantics match [`Resonator::factorize`] on `target.code()`; see
    /// the module docs for the documented numerical differences on the
    /// spectral path and the fallback contract for unsupported
    /// geometries.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors if `target` disagrees with the
    /// codebooks.
    pub fn factorize(
        &self,
        target: &SpectralTarget,
        config: ResonatorConfig,
    ) -> Result<Factorization> {
        let _span = telemetry::span!("vsa.factorize");
        let Some(t_spec) = &target.spectrum else {
            telemetry::counter!("vsa.resonator_fallbacks").incr();
            return self.reference.factorize(&target.code, config);
        };
        // Geometry check against factor 0 (all factors agree by
        // construction).
        self.books[0]
            .book
            .codeword(0)
            .check_geometry(&target.code)?;

        // The target's spectrum is one cached transform consumed.
        telemetry::counter!("vsa.spectral_cache_hits").incr();

        let nf = self.books.len();
        let (nb, bd) = self.geometry();
        let dim = nb * bd;
        let plan = fft::plan(bd);

        // Estimates live as spectra. Initialization is the uniform
        // codebook superposition — a plain sum of the cached spectra
        // (normalization skipped; see module docs).
        let mut est_spec: Vec<Spectrum> = self
            .books
            .iter()
            .map(|book| {
                let spectra = book.spectra.as_ref().expect("spectral path checked above");
                // Every cached spectrum consumed here replaces a forward
                // FFT the reference path would have to run.
                telemetry::counter!("vsa.spectral_cache_hits").add(spectra.len() as u64);
                let mut acc = Spectrum::zeros(dim);
                for spec in spectra {
                    // Scaling by 1.0 is exact: this is the plain sum.
                    acc.add_scaled(spec, 1.0);
                }
                acc
            })
            .collect();

        let mut indices: Vec<usize> = vec![0; nf];
        let mut iterations = 0usize;
        let mut others = Spectrum::zeros(dim);
        let mut residual_spec = Spectrum::zeros(dim);
        let mut residual = vec![0.0f32; dim];

        for _sweep in 0..config.max_iterations {
            iterations += 1;
            let mut changed = false;
            for f in 0..nf {
                // residual = target ⊘ (⊛ other estimates): pointwise
                // product of the other spectra, starting from 1,
                // conjugated against the target spectrum.
                others.fill(1.0, 0.0);
                for (g, est) in est_spec.iter().enumerate() {
                    if g != f {
                        others.mul(est);
                    }
                }
                residual_spec.clone_from(t_spec);
                residual_spec.mul_conj(&others);
                // One inverse FFT per factor update: the residual must
                // come back to the time domain for the codebook scan.
                plan.inverse(&mut residual_spec, &mut residual);
                let book = &self.books[f];
                let sims = book.similarities_flat(&residual);
                let t = config.temperature.max(f32::MIN_POSITIVE);
                let logits: Vec<f32> = sims.iter().map(|s| s / t).collect();
                let probs = ops::softmax(&logits);
                // New estimate: probability-weighted superposition,
                // assembled directly in the spectral domain from the
                // cached codeword spectra — no forward FFT.
                let spectra = book.spectra.as_ref().expect("spectral path checked above");
                telemetry::counter!("vsa.spectral_cache_hits").add(spectra.len() as u64);
                let acc = &mut est_spec[f];
                acc.fill(0.0, 0.0);
                for (&p, spec) in probs.iter().zip(spectra) {
                    acc.add_scaled(spec, f64::from(p));
                }
                let best = argmax_last(&probs);
                if best != indices[f] {
                    indices[f] = best;
                    changed = true;
                }
            }
            if !changed && iterations > 1 {
                telemetry::counter!("vsa.resonator_iterations").add(iterations as u64);
                return Ok(Factorization {
                    indices,
                    iterations,
                    converged: true,
                });
            }
        }
        telemetry::counter!("vsa.resonator_iterations").add(iterations as u64);
        Ok(Factorization {
            indices,
            iterations,
            converged: false,
        })
    }
}

/// Argmax returning the **last** of equal maxima — the same tie-break as
/// the reference resonator's `max_by(total_cmp)`.
fn argmax_last(values: &[f32]) -> usize {
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
    use nsflow_tensor::quant::QuantParams;
    use nsflow_tensor::rng::StdRng;
    use nsflow_tensor::DType;

    fn unitary_books(counts: &[usize], nb: usize, bd: usize, seed: u64) -> Vec<Codebook> {
        let mut rng = StdRng::seed_from_u64(seed);
        counts
            .iter()
            .map(|&c| Codebook::random_unitary(c, nb, bd, &mut rng))
            .collect()
    }

    #[test]
    fn codebook_scans_are_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let book = Codebook::random_unitary(12, 4, 64, &mut rng);
        let engine = SpectralCodebook::new(book.clone());
        let noisy = {
            let mut q = book.codeword(7).clone();
            for x in q.data_mut() {
                *x += 0.05 * (rng.gen::<f32>() - 0.5);
            }
            q
        };
        assert_eq!(
            engine.similarities(&noisy).unwrap(),
            book.similarities(&noisy).unwrap(),
            "similarities must be bit-identical"
        );
        assert_eq!(
            engine.cleanup(&noisy).unwrap(),
            book.cleanup(&noisy).unwrap()
        );
        assert_eq!(
            engine.match_prob(&noisy, 0.08).unwrap(),
            book.match_prob(&noisy, 0.08).unwrap()
        );
    }

    #[test]
    fn spectral_factorization_matches_reference_two_factors() {
        let books = unitary_books(&[6, 6], 4, 128, 21);
        let target = books[0].codeword(1).bind(books[1].codeword(4)).unwrap();
        let engine = SpectralResonator::new(books.clone()).unwrap();
        assert!(engine.is_spectral());
        let reference = Resonator::new(books).unwrap();
        let cfg = ResonatorConfig::default();
        let prepared = engine.prepare(target.clone()).unwrap();
        let fast = engine.factorize(&prepared, cfg).unwrap();
        let slow = reference.factorize(&target, cfg).unwrap();
        assert_eq!(fast.indices, slow.indices);
        assert_eq!(fast.converged, slow.converged);
    }

    #[test]
    fn spectral_factorization_matches_reference_three_factors() {
        let books = unitary_books(&[5, 5, 5], 4, 128, 22);
        let target = books[0]
            .codeword(2)
            .bind(books[1].codeword(0))
            .unwrap()
            .bind(books[2].codeword(3))
            .unwrap();
        let engine = SpectralResonator::new(books.clone()).unwrap();
        let reference = Resonator::new(books).unwrap();
        let cfg = ResonatorConfig::default();
        let prepared = engine.prepare(target.clone()).unwrap();
        let fast = engine.factorize(&prepared, cfg).unwrap();
        let slow = reference.factorize(&target, cfg).unwrap();
        assert_eq!(fast.indices, slow.indices);
    }

    #[test]
    fn non_power_of_two_geometry_falls_back_to_reference() {
        let books = unitary_books(&[4, 4], 2, 24, 24); // bd = 24: not a power of two
        let target = books[0].codeword(1).bind(books[1].codeword(3)).unwrap();
        let engine = SpectralResonator::new(books.clone()).unwrap();
        assert!(!engine.is_spectral());
        let prepared = engine.prepare(target.clone()).unwrap();
        let out = engine
            .factorize(&prepared, ResonatorConfig::default())
            .unwrap();
        let slow = Resonator::new(books)
            .unwrap()
            .factorize(&target, ResonatorConfig::default())
            .unwrap();
        // Fallback IS the reference — identical outcome, bit for bit.
        assert_eq!(out, slow);
        assert_eq!(out.indices, vec![1, 3]);
    }

    #[test]
    fn factorization_tolerates_noise_like_reference() {
        let books = unitary_books(&[6, 6], 4, 128, 25);
        let mut target = books[0].codeword(5).bind(books[1].codeword(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(26);
        for x in target.data_mut() {
            *x += 0.02 * (rng.gen::<f32>() - 0.5);
        }
        let engine = SpectralResonator::new(books).unwrap();
        let out = engine
            .factorize(&engine.prepare(target).unwrap(), ResonatorConfig::default())
            .unwrap();
        assert_eq!(out.indices, vec![5, 1]);
    }

    #[test]
    fn iteration_cap_and_convergence_flags_match() {
        let books = unitary_books(&[8, 8], 4, 64, 27);
        let target = books[0].codeword(0).bind(books[1].codeword(0)).unwrap();
        let engine = SpectralResonator::new(books).unwrap();
        let cfg = ResonatorConfig {
            max_iterations: 1,
            temperature: 0.08,
        };
        let out = engine
            .factorize(&engine.prepare(target).unwrap(), cfg)
            .unwrap();
        assert_eq!(out.iterations, 1);
        assert!(!out.converged);
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let books = unitary_books(&[4, 4], 2, 32, 28);
        let engine = SpectralResonator::new(books).unwrap();
        let wrong = BlockCode::zeros(1, 64);
        assert!(engine.prepare(wrong.clone()).is_err());
        let book_engine = SpectralCodebook::new(Codebook::random_unitary(
            3,
            2,
            32,
            &mut StdRng::seed_from_u64(29),
        ));
        assert!(book_engine.similarities(&wrong).is_err());
    }

    /// Fake-quantizes every codeword block to INT4 with its own
    /// symmetric scale, as the reasoner's symbolic datapath does.
    fn int4(book: Codebook) -> Codebook {
        let quantized = book
            .codewords()
            .iter()
            .map(|cw| {
                let mut q = cw.clone();
                let bd = q.block_dim();
                for block in q.data_mut().chunks_mut(bd) {
                    let p = QuantParams::fit(block, DType::Int4).unwrap();
                    for x in block.iter_mut() {
                        *x = p.fake_quantize(*x);
                    }
                }
                q
            })
            .collect();
        Codebook::from_codewords(quantized).unwrap()
    }

    /// The `fft::bind_fast` fold of the picked `(factor, index)` codewords.
    fn bind_fast_fold(
        books: &[Codebook],
        picks: impl Iterator<Item = (usize, usize)>,
    ) -> BlockCode {
        picks
            .map(|(g, i)| books[g].codeword(i).clone())
            .reduce(|acc, cw| fft::bind_fast(&acc, &cw).unwrap())
            .unwrap()
    }

    fn bits(code: &BlockCode) -> Vec<u32> {
        code.data().iter().map(|x| x.to_bits()).collect()
    }

    /// The memoized chains reproduce the `bind_fast` fold and
    /// `unbind_fast` of it bit for bit: 2, 3 and 4 factors, plain and
    /// INT4-quantized codebooks, on spectral geometries and on the
    /// fallback block sizes 24 (not a power of two) and 4 (below 8).
    #[test]
    fn memoized_chains_are_bit_identical_to_bind_fast() {
        for (nb, bd) in [(4, 32), (2, 64), (2, 24), (3, 4)] {
            for nf in 2..=4 {
                for quantized in [false, true] {
                    let seed = (bd * 10 + nf) as u64;
                    let mut books = unitary_books(&vec![5; nf], nb, bd, seed);
                    if quantized {
                        books = books.into_iter().map(int4).collect();
                    }
                    let engine = SpectralResonator::new(books.clone()).unwrap();
                    assert_eq!(engine.is_spectral(), fft::fast_path_applies(bd));
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut target = bind_fast_fold(&books, (0..nf).map(|g| (g, g % 5)));
                    for x in target.data_mut() {
                        *x += 0.05 * (rng.gen::<f32>() - 0.5);
                    }
                    let prepared = engine.prepare(target.clone()).unwrap();
                    for _ in 0..6 {
                        let indices: Vec<usize> = (0..nf).map(|_| rng.gen_range(0..5)).collect();
                        let product = bind_fast_fold(&books, indices.iter().copied().enumerate());
                        // First call fills the pair memo, second reads it.
                        for _ in 0..2 {
                            let rebuilt = engine.reconstruct(&indices).unwrap();
                            assert_eq!(bits(&rebuilt), bits(&product), "{nb}x{bd}, {nf} factors");
                        }
                        for skip in 0..nf {
                            let others = bind_fast_fold(
                                &books,
                                indices
                                    .iter()
                                    .copied()
                                    .enumerate()
                                    .filter(|&(g, _)| g != skip),
                            );
                            let expected = fft::unbind_fast(&target, &others).unwrap();
                            let residual = engine.unbind_others(&prepared, &indices, skip).unwrap();
                            assert_eq!(
                                bits(&residual),
                                bits(&expected),
                                "{nb}x{bd}, {nf} factors, skip {skip}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The cached codeword spectra, bit for bit, at every radix-2 block
    /// length from 8 to 4096, on seeded uniform codewords and on their
    /// INT4 fake-quantized copies: one FNV-1a digest per case over each
    /// element's real and imaginary parts in order.
    #[test]
    fn codebook_spectra_are_pinned() {
        let mut got = Vec::new();
        for bd in (3..=12).map(|p| 1usize << p) {
            for quantized in [false, true] {
                let mut rng = StdRng::seed_from_u64(bd as u64);
                let codewords = (0..3)
                    .map(|_| {
                        let data = (0..2 * bd).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                        BlockCode::from_vec(2, bd, data).unwrap()
                    })
                    .collect();
                let mut book = Codebook::from_codewords(codewords).unwrap();
                if quantized {
                    book = int4(book);
                }
                let engine = SpectralCodebook::new(book);
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for i in 0..engine.len() {
                    let spec = engine.spectrum(i);
                    for (re, im) in spec.re.iter().zip(&spec.im) {
                        for bits in [re.to_bits(), im.to_bits()] {
                            for b in bits.to_le_bytes() {
                                h ^= u64::from(b);
                                h = h.wrapping_mul(0x0100_0000_01b3);
                            }
                        }
                    }
                }
                got.push(h);
            }
        }
        let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
        assert_eq!(got, SPECTRA_DIGESTS, "digests now: [{}]", hex.join(", "));
    }

    const SPECTRA_DIGESTS: [u64; 20] = [
        0xd4ff_01fe_49a0_f58f,
        0xf8ba_2cca_555a_44a8,
        0xb5de_83ba_208c_ece1,
        0x5399_7625_2be7_b274,
        0xc1ca_5f34_0e46_3426,
        0x4970_89d1_4056_dfee,
        0xc24d_ab20_f683_87bd,
        0x54a8_e636_3b33_ee25,
        0x9d48_b802_2c6e_91b8,
        0x4d07_f8f8_a75a_3d98,
        0x7115_df34_b60c_aad7,
        0xb9ea_7ea1_de7d_a59f,
        0x6f15_7c52_1291_3bc9,
        0xbc3c_a606_e03a_6380,
        0x1881_5e43_d68f_f179,
        0xf9db_5c1a_1f54_31a9,
        0xe790_2213_1428_e0b1,
        0x37f3_166b_69fd_1334,
        0x3498_52e2_eb95_2ee2,
        0x0817_1bdc_2a8e_984c,
    ];

    #[test]
    fn chains_reject_bad_indices_and_geometry() {
        let books = unitary_books(&[4, 4], 2, 64, 30);
        let engine = SpectralResonator::new(books).unwrap();
        assert!(engine.reconstruct(&[3]).is_err());
        assert!(matches!(
            engine.reconstruct(&[3, 9]),
            Err(VsaError::CodewordOutOfRange { index: 9, len: 4 })
        ));
        assert!(engine.prepare(BlockCode::zeros(1, 64)).is_err());
        let target = engine
            .prepare(engine.reconstruct(&[3, 2]).unwrap())
            .unwrap();
        assert!(engine.unbind_others(&target, &[3, 2], 2).is_err());
        assert!(engine.unbind_others(&target, &[3, 4], 0).is_err());
        let other = SpectralResonator::new(unitary_books(&[4, 4], 1, 64, 31)).unwrap();
        assert!(other.unbind_others(&target, &[3, 2], 0).is_err());
    }
}
