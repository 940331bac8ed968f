//! Executable VSA reasoning pipeline (NVSA-style) over synthetic RPM
//! tasks.
//!
//! The pipeline mirrors the neuro-vector-symbolic flow the paper profiles:
//!
//! 1. **Perception** (the neural stand-in): each panel's attribute values
//!    are encoded as the *bound product* of per-attribute codewords, plus
//!    Gaussian perception noise; the resulting vector is quantized at the
//!    **neural** precision (it is the CNN front-end's output),
//! 2. **Factorization**: a resonator network recovers each context
//!    panel's attribute values from its (noisy, quantized) product vector
//!    — all arithmetic on block codes quantized at the **symbolic**
//!    precision,
//! 3. **Rule inference**: per attribute, the row rule (constant /
//!    progression / distribute-three) is inferred from the two complete
//!    rows and applied to the partial third row,
//! 4. **Answer selection**: the predicted panel is re-encoded and every
//!    candidate scored by vector similarity (`match_prob` style); argmax
//!    wins.
//!
//! Accuracy therefore degrades through exactly the mechanism the paper's
//! Tab. IV measures: coarser symbolic precision erodes codebook
//! similarity margins until factorization or candidate scoring flips.

use nsflow_tensor::quant::{self, QuantParams};
use nsflow_tensor::rng::StdRng;
use nsflow_tensor::DType;
use nsflow_vsa::engine::{SpectralResonator, SpectralTarget};
use nsflow_vsa::fft;
use nsflow_vsa::resonator::ResonatorConfig;
use nsflow_vsa::{BlockCode, Codebook};

use crate::raven::{predict_attribute, RpmTask};

/// Precision and geometry configuration of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Blocks per code (NVSA uses 4).
    pub n_blocks: usize,
    /// Elements per block.
    pub block_dim: usize,
    /// Std-dev of additive perception noise (relative to the unit-norm
    /// codes).
    pub noise_std: f32,
    /// Precision of the perception output (panel encodings).
    pub neural_dtype: DType,
    /// Precision of the symbolic datapath (codebooks + intermediates).
    pub symbolic_dtype: DType,
    /// Scale of the *accumulated* quantization error a network running at
    /// the neural precision injects into its output, as a multiple of the
    /// output's quantization step (0 disables; the default models a
    /// handful of quantized layers' error accumulation).
    pub neural_quant_noise: f32,
    /// Std-dev of per-attribute perception **ambiguity**: with ambiguity
    /// `ε ~ |N(0, σ)|`, the perceived codeword is the soft mixture
    /// `(1−ε)·x_true + ε·x_other`. Ambiguity above 0.5 is an outright
    /// perception error; values just below 0.5 leave margins so thin that
    /// coarser precisions flip them — the mechanism behind the Tab. IV
    /// accuracy ladder.
    pub ambiguity_std: f32,
    /// Resonator settings for panel factorization.
    pub resonator: ResonatorConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            n_blocks: 4,
            block_dim: 64,
            noise_std: 0.02,
            neural_dtype: DType::Fp32,
            symbolic_dtype: DType::Fp32,
            neural_quant_noise: 0.45,
            ambiguity_std: 0.0,
            resonator: ResonatorConfig {
                max_iterations: 12,
                temperature: 0.08,
            },
        }
    }
}

/// Intermediate reasoning state returned by
/// [`VsaReasoner::solve_explained`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Chosen candidate index.
    pub choice: usize,
    /// Predicted attribute values of the hidden panel.
    pub predicted: Vec<usize>,
    /// Decoded attribute values of the context grid (entry `[2][2]` is
    /// empty).
    pub decoded_context: [[Vec<usize>; 3]; 3],
    /// Similarity of each candidate to the predicted panel.
    pub candidate_sims: Vec<f32>,
}

/// The reasoner: per-attribute codebooks plus the factorizer.
///
/// All VSA arithmetic runs on the spectral-cached kernel engine
/// ([`nsflow_vsa::engine`]): factorization through [`SpectralResonator`],
/// cleanup through the precomputed codeword matrices, and the
/// bind/unbind chains of hard descent, reconstruction and prediction
/// through the engine's pair memo and cached spectra, which reproduce the
/// FFT fast path bit for bit. The engine is numerically equivalent to the
/// reference kernels (see the engine module docs for the bounded
/// differences).
#[derive(Debug, Clone)]
pub struct VsaReasoner {
    codebooks: Vec<Codebook>,
    engine: SpectralResonator,
    values: usize,
    config: PipelineConfig,
}

impl VsaReasoner {
    /// Builds a reasoner for `attributes` attributes of `values` values.
    ///
    /// Codebooks are random *unitary* block codes (exactly invertible
    /// binding), immediately quantized to the symbolic precision.
    ///
    /// # Panics
    ///
    /// Panics if `attributes < 2` (the resonator needs two factors) or
    /// `values == 0`.
    pub fn new(attributes: usize, values: usize, config: PipelineConfig, rng: &mut StdRng) -> Self {
        assert!(
            attributes >= 2,
            "resonator factorization needs >= 2 attributes"
        );
        assert!(values > 0, "need at least one value");
        let codebooks: Vec<Codebook> = (0..attributes)
            .map(|_| {
                let book = Codebook::random_unitary(values, config.n_blocks, config.block_dim, rng);
                quantize_codebook(&book, config.symbolic_dtype)
            })
            .collect();
        let engine = SpectralResonator::new(codebooks.clone())
            .expect("codebooks share geometry by construction");
        VsaReasoner {
            codebooks,
            engine,
            values,
            config,
        }
    }

    /// Encodes a panel as the bound product of its attribute codewords,
    /// with perception noise and neural-precision quantization.
    ///
    /// # Panics
    ///
    /// Panics if `attrs` length differs from the attribute count or any
    /// value index is out of range.
    pub(crate) fn encode_panel(&self, attrs: &[usize], rng: &mut StdRng) -> BlockCode {
        assert_eq!(
            attrs.len(),
            self.codebooks.len(),
            "attribute count mismatch"
        );
        let mut acc: Option<BlockCode> = None;
        for (book, &val) in self.codebooks.iter().zip(attrs) {
            let cw = self.perceived_codeword(book, val, rng);
            acc = Some(match acc {
                None => cw.clone(),
                Some(prev) => fft::bind_fast(&prev, &cw).expect("geometry fixed at construction"),
            });
        }
        let mut code = acc.expect("at least two attributes");
        if self.config.noise_std > 0.0 {
            for x in code.data_mut() {
                *x += gaussianish(rng) * self.config.noise_std;
            }
        }
        quantize_code(&mut code, self.config.neural_dtype);
        // Accumulated quantization error of the (quantized) perception
        // network: proportional to the output lattice's step size.
        let extra = self.config.neural_quant_noise * quant_step(&code, self.config.neural_dtype);
        if extra > 0.0 {
            for x in code.data_mut() {
                *x += gaussianish(rng) * extra;
            }
        }
        code
    }

    /// Clean (noise-free, symbolic-precision) encoding used for candidate
    /// prediction.
    ///
    /// # Panics
    ///
    /// Panics if `attrs` length differs from the attribute count or any
    /// value index is out of range.
    #[must_use]
    pub(crate) fn encode_exact(&self, attrs: &[usize]) -> BlockCode {
        let mut code = self
            .engine
            .reconstruct(attrs)
            .expect("one in-range value per attribute");
        quantize_code(&mut code, self.config.symbolic_dtype);
        code
    }

    /// Factorizes a panel encoding back into attribute value indices:
    /// a soft resonator pass followed by hard coordinate descent (unbind
    /// the other factors' current codewords, clean up, repeat) — the
    /// "cleanup memory" refinement NVSA applies after resonance.
    #[must_use]
    pub(crate) fn decode_panel(&self, panel: &BlockCode) -> Vec<usize> {
        let mut code = panel.clone();
        quantize_code(&mut code, self.config.symbolic_dtype);
        // Every unbind below reuses this one transform of the target.
        let target = self
            .engine
            .prepare(code)
            .expect("geometry fixed at construction");
        let mut indices = self
            .engine
            .factorize(&target, self.config.resonator)
            .expect("geometry fixed at construction")
            .indices;
        self.hard_descent(&target, &mut indices);
        let mut best_sim = self.reconstruction_similarity(&target, &indices);

        // The resonator often settles on a spurious fixed point: on the
        // serving executor's NVSA and PrAE requests (block_dim 32, 2 000
        // requests each), 11.8% and 12.3% of panels enter this
        // first-factor enumeration, and 7.8% and 7.1% go on to the pair
        // enumeration below. A correct assignment reconstructs the
        // target almost exactly, so a low similarity is a reliable
        // failure detector; recover by enumerating the first factor and
        // running coordinate descent on the rest.
        if best_sim < 0.5 {
            let v = self.codebooks[0].len();
            'outer: for first in 0..v {
                let mut cand = indices.clone();
                cand[0] = first;
                // Re-derive the remaining factors from scratch given the
                // fixed first factor.
                for idx in cand.iter_mut().skip(1) {
                    *idx = 0;
                }
                self.hard_descent_fixed_first(&target, &mut cand);
                let sim = self.reconstruction_similarity(&target, &cand);
                if sim > best_sim {
                    best_sim = sim;
                    indices = cand;
                }
                if best_sim > 0.8 {
                    break 'outer;
                }
            }
        }

        // Last resort: enumerate the first *two* factors (exact for
        // three-factor codes, the RPM case) and descend the rest. The
        // tighter threshold keeps this off the path for merely-ambiguous
        // panels, which legitimately reconstruct below 0.5.
        if best_sim < 0.35 && self.codebooks.len() >= 2 {
            let v0 = self.codebooks[0].len();
            let v1 = self.codebooks[1].len();
            'pairs: for first in 0..v0 {
                for second in 0..v1 {
                    let mut cand = indices.clone();
                    cand[0] = first;
                    cand[1] = second;
                    for idx in cand.iter_mut().skip(2) {
                        *idx = 0;
                    }
                    for _ in 0..2 {
                        let mut changed = false;
                        for a in 2..self.codebooks.len() {
                            if self.descend_one(&target, &mut cand, a) {
                                changed = true;
                            }
                        }
                        if !changed {
                            break;
                        }
                    }
                    let sim = self.reconstruction_similarity(&target, &cand);
                    if sim > best_sim {
                        best_sim = sim;
                        indices = cand;
                    }
                    if best_sim > 0.8 {
                        break 'pairs;
                    }
                }
            }
        }
        indices
    }

    /// The perception front-end's view of one attribute codeword: a soft
    /// mixture with a confusable alternative, weighted by a random
    /// ambiguity draw (see [`PipelineConfig::ambiguity_std`]).
    fn perceived_codeword(&self, book: &Codebook, val: usize, rng: &mut StdRng) -> BlockCode {
        let cw = book.codeword(val);
        if self.config.ambiguity_std <= 0.0 || book.len() < 2 {
            return cw.clone();
        }
        // Quantized perception networks drift further on ambiguous inputs:
        // the decision margin absorbs noise proportional to the relative
        // quantization step (zero for floating formats).
        let margin_noise = match self.config.neural_dtype.integer_max() {
            Some(qmax) => self.config.neural_quant_noise / qmax as f32,
            None => 0.0,
        };
        let eps = (gaussianish(rng) * self.config.ambiguity_std + gaussianish(rng) * margin_noise)
            .abs()
            .min(0.95);
        if eps == 0.0 {
            return cw.clone();
        }
        let alt_offset = 1 + rng.gen_range(0..book.len() - 1);
        let alt = book.codeword((val + alt_offset) % book.len());
        let mut mixed = cw.clone();
        for (m, a) in mixed.data_mut().iter_mut().zip(alt.data()) {
            *m = (1.0 - eps) * *m + eps * a;
        }
        mixed
    }

    /// Coordinate descent over discrete assignments (all factors).
    fn hard_descent(&self, target: &SpectralTarget, indices: &mut [usize]) {
        for _ in 0..3 {
            let mut changed = false;
            for a in 0..self.codebooks.len() {
                if self.descend_one(target, indices, a) {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Coordinate descent holding factor 0 fixed.
    fn hard_descent_fixed_first(&self, target: &SpectralTarget, indices: &mut [usize]) {
        for _ in 0..3 {
            let mut changed = false;
            for a in 1..self.codebooks.len() {
                if self.descend_one(target, indices, a) {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// One coordinate update: re-derive factor `a` by unbinding the
    /// others and cleaning up. Returns whether the assignment changed.
    fn descend_one(&self, target: &SpectralTarget, indices: &mut [usize], a: usize) -> bool {
        let residual = self
            .engine
            .unbind_others(target, indices, a)
            .expect("geometry fixed");
        let best = self.engine.books()[a]
            .cleanup(&residual)
            .expect("geometry fixed");
        let changed = best != indices[a];
        indices[a] = best;
        changed
    }

    /// Similarity between the target and the bound product of an
    /// assignment — ≈1 for the true factorization of a clean product.
    fn reconstruction_similarity(&self, target: &SpectralTarget, indices: &[usize]) -> f32 {
        let product = self.engine.reconstruct(indices).expect("geometry fixed");
        target.code().similarity(&product).expect("geometry fixed")
    }

    /// Solves a task end to end, returning the chosen candidate index.
    ///
    /// # Panics
    ///
    /// Panics if the task's attribute/value counts disagree with the
    /// reasoner's.
    pub fn solve(&self, task: &RpmTask, rng: &mut StdRng) -> usize {
        self.solve_explained(task, rng).choice
    }

    /// Solves a task and exposes the intermediate reasoning state (useful
    /// for error analysis and the examples).
    ///
    /// # Panics
    ///
    /// Panics if the task's attribute/value counts disagree with the
    /// reasoner's.
    pub fn solve_explained(&self, task: &RpmTask, rng: &mut StdRng) -> Solution {
        assert_eq!(
            task.attributes,
            self.codebooks.len(),
            "attribute count mismatch"
        );
        assert_eq!(task.values, self.values, "value count mismatch");

        // ① Perceive and ② factorize the eight context panels.
        let mut decoded: [[Vec<usize>; 3]; 3] = Default::default();
        for (r, row) in task.grid.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if r == 2 && c == 2 {
                    continue;
                }
                let enc = self.encode_panel(cell, rng);
                decoded[r][c] = self.decode_panel(&enc);
            }
        }

        // ③ Infer the rule per attribute and predict the hidden panel.
        let predicted: Vec<usize> = (0..task.attributes)
            .map(|a| predict_attribute(&decoded, a, self.values))
            .collect();

        // ④ Score candidates against the predicted panel's encoding.
        let target = self.encode_exact(&predicted);
        let mut best = 0usize;
        let mut best_sim = f32::NEG_INFINITY;
        let mut sims = Vec::with_capacity(task.candidates.len());
        for (i, cand) in task.candidates.iter().enumerate() {
            let cand_enc = self.encode_panel(cand, rng);
            let sim = target.similarity(&cand_enc).expect("geometry fixed");
            sims.push(sim);
            if sim > best_sim {
                best_sim = sim;
                best = i;
            }
        }
        Solution {
            choice: best,
            predicted,
            decoded_context: decoded,
            candidate_sims: sims,
        }
    }
}

fn quantize_codebook(book: &Codebook, dtype: DType) -> Codebook {
    let codewords = book
        .codewords()
        .iter()
        .map(|cw| {
            let mut q = cw.clone();
            quantize_code(&mut q, dtype);
            q
        })
        .collect();
    Codebook::from_codewords(codewords).expect("quantization preserves geometry")
}

/// Fake-quantizes a block code **per block**: each block gets its own
/// symmetric scale, matching the per-block scale registers of the NSFlow
/// datapath (block boundaries are hardware tile boundaries, so per-block
/// scaling is free).
pub(crate) fn quantize_code(code: &mut BlockCode, dtype: DType) {
    match dtype {
        DType::Fp32 => {}
        DType::Fp16 => {
            for x in code.data_mut() {
                *x = quant::round_to_f16(*x);
            }
        }
        DType::Int8 | DType::Int4 => {
            let bd = code.block_dim();
            let nb = code.n_blocks();
            for blk in 0..nb {
                let start = blk * bd;
                let slice = &code.data()[start..start + bd];
                if let Ok(p) = QuantParams::fit(slice, dtype) {
                    for x in &mut code.data_mut()[start..start + bd] {
                        *x = p.fake_quantize(*x);
                    }
                }
            }
        }
    }
}

/// Half quantization step of one value lattice over a block code's range —
/// the scale of the error a quantized *network* accumulates per layer.
fn quant_step(code: &BlockCode, dtype: DType) -> f32 {
    match dtype {
        DType::Fp32 | DType::Fp16 => 0.0,
        DType::Int8 | DType::Int4 => {
            let max_abs = code.data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let qmax = dtype.integer_max().unwrap_or(1) as f32;
            max_abs / qmax
        }
    }
}

/// Cheap approximately-normal draw (sum of uniforms).
pub(crate) fn gaussianish(rng: &mut StdRng) -> f32 {
    (0..6).map(|_| rng.gen::<f32>()).sum::<f32>() * 2.0 - 6.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raven::{generate, TaskParams};

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            block_dim: 32,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn encode_decode_round_trip_clean() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = VsaReasoner::new(
            3,
            6,
            PipelineConfig {
                noise_std: 0.0,
                ..small_config()
            },
            &mut rng,
        );
        for attrs in [[0usize, 0, 0], [5, 3, 1], [2, 2, 4]] {
            let enc = r.encode_panel(&attrs, &mut rng);
            assert_eq!(r.decode_panel(&enc), attrs.to_vec());
        }
    }

    #[test]
    fn decode_survives_moderate_noise() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = VsaReasoner::new(
            3,
            6,
            PipelineConfig {
                noise_std: 0.02,
                ..small_config()
            },
            &mut rng,
        );
        let mut correct = 0;
        for trial in 0..20 {
            let attrs = [trial % 6, (trial * 2) % 6, (trial * 3) % 6];
            let enc = r.encode_panel(&attrs, &mut rng);
            if r.decode_panel(&enc) == attrs.to_vec() {
                correct += 1;
            }
        }
        assert!(correct >= 18, "decode accuracy {correct}/20 too low");
    }

    #[test]
    fn solve_is_near_perfect_at_fp32_low_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let reasoner = VsaReasoner::new(
            3,
            8,
            PipelineConfig {
                noise_std: 0.01,
                ..small_config()
            },
            &mut rng,
        );
        let mut correct = 0;
        for _ in 0..15 {
            let task = generate(&TaskParams::default(), &mut rng);
            if reasoner.solve(&task, &mut rng) == task.answer {
                correct += 1;
            }
        }
        assert!(correct >= 13, "fp32 accuracy {correct}/15 too low");
    }

    #[test]
    fn int4_symbolic_is_worse_or_equal_to_fp32() {
        let mut rng = StdRng::seed_from_u64(4);
        let noisy = PipelineConfig {
            noise_std: 0.06,
            ..small_config()
        };
        let fp32 = VsaReasoner::new(3, 8, noisy, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(4);
        let int4 = VsaReasoner::new(
            3,
            8,
            PipelineConfig {
                symbolic_dtype: DType::Int4,
                neural_dtype: DType::Int4,
                ..noisy
            },
            &mut rng2,
        );
        let eval = |r: &VsaReasoner, seed: u64| {
            let mut trng = StdRng::seed_from_u64(seed);
            let mut c = 0;
            for _ in 0..12 {
                let task = generate(&TaskParams::default(), &mut trng);
                if r.solve(&task, &mut trng) == task.answer {
                    c += 1;
                }
            }
            c
        };
        let acc_fp32 = eval(&fp32, 77);
        let acc_int4 = eval(&int4, 77);
        assert!(
            acc_int4 <= acc_fp32 + 1,
            "INT4 {acc_int4} vs FP32 {acc_fp32}"
        );
    }

    #[test]
    #[should_panic(expected = "attribute count mismatch")]
    fn encode_checks_attribute_count() {
        let mut rng = StdRng::seed_from_u64(6);
        let r = VsaReasoner::new(3, 6, small_config(), &mut rng);
        let _ = r.encode_panel(&[1, 2], &mut rng);
    }
}
