//! Computation-in-superposition capacity — the mechanism behind MIMONet.
//!
//! MIMONet binds several inputs to distinct keys, *bundles* them into one
//! vector, pushes the superposition through a single network pass, and
//! unbinds per-key outputs. The fidelity of that scheme is bounded by VSA
//! superposition capacity: crosstalk between the bundled items grows with
//! their count and with quantization noise. This module measures exactly
//! that — per-item retrieval accuracy as a function of superposition width
//! and precision — the MIMONet-side counterpart of the Tab. IV study
//! ("similar results are observed in MIMONet/LVRF on CVR/SVRT datasets").
//!
//! The item and key codebooks are a [`SuperpositionMemory`], built once;
//! [`SuperpositionMemory::measure`] streams only the per-query work
//! (bind, bundle, quantize, unbind, cleanup), binding and unbinding
//! through the FFT fast path, the way the accelerator keeps codebooks
//! resident on chip. The serving executor holds one memory for every
//! MIMONet request; the `superposition_capacity` experiment draws a fresh
//! one per cell through [`measure_capacity`]. Both run the same loop.

use nsflow_tensor::rng::StdRng;
use nsflow_tensor::DType;
use nsflow_vsa::engine::SpectralCodebook;
use nsflow_vsa::{fft, ops, BlockCode, Codebook};

use crate::reasoning::quantize_code;

/// Configuration of a capacity measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityConfig {
    /// Blocks per code.
    pub n_blocks: usize,
    /// Elements per block.
    pub block_dim: usize,
    /// Item-codebook size (distinct retrievable symbols).
    pub items: usize,
    /// Precision the superposed vector (the "network activation") is
    /// quantized to.
    pub dtype: DType,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            n_blocks: 4,
            block_dim: 64,
            items: 16,
            dtype: DType::Fp32,
        }
    }
}

/// Result of one capacity measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityReport {
    /// Superposition width measured.
    pub superposition: usize,
    /// Fraction of items retrieved correctly.
    pub retrieval_accuracy: f64,
    /// Trials performed (each trial retrieves every superposed item).
    pub trials: usize,
}

/// MIMONet's item and key memories at one superposition width, built
/// once and shared by every retrieval run that follows.
///
/// Building the memory pays the O(d²) unitary-codeword synthesis once;
/// [`Self::measure`] runs only the per-query work. Binds and unbinds go
/// through [`fft::bind_fast`]/[`fft::unbind_fast`], and cleanup is the
/// item codebook's matvec against precomputed norms
/// ([`SpectralCodebook::cleanup`], bit-identical to [`Codebook::cleanup`]
/// and cheaper: `Codebook::cleanup` recomputes both norms per codeword).
/// Shared by reference, one memory serves any number of threads.
#[derive(Debug, Clone)]
pub struct SuperpositionMemory {
    /// Precision the superposed vector is quantized to.
    dtype: DType,
    /// Items bundled per trial, one per key.
    width: usize,
    items: SpectralCodebook,
    keys: Codebook,
}

impl SuperpositionMemory {
    /// Draws the item codebook (`config.items` unitary codewords), then
    /// the key codebook (`width.max(2)` unitary codewords, one per
    /// superposition slot), from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, `width > config.items`, or any size in
    /// `config` is zero.
    #[must_use]
    pub fn new(config: CapacityConfig, width: usize, rng: &mut StdRng) -> Self {
        assert!(width > 0, "superposition width must be positive");
        assert!(
            width <= config.items,
            "cannot superpose more distinct items than the codebook holds"
        );
        let items = Codebook::random_unitary(config.items, config.n_blocks, config.block_dim, rng);
        let keys = Codebook::random_unitary(width.max(2), config.n_blocks, config.block_dim, rng);
        SuperpositionMemory {
            dtype: config.dtype,
            width,
            items: SpectralCodebook::new(items),
            keys,
        }
    }

    /// Measures per-item retrieval accuracy over `trials` random bundles
    /// drawn from `rng`.
    ///
    /// Each trial draws `width` distinct items, binds each to the key of
    /// its slot, bundles the bound pairs, quantizes the bundle at
    /// `config.dtype`, then unbinds with each key and recalls through the
    /// item codebook. A retrieval counts as correct when cleanup returns
    /// the original item.
    #[must_use]
    pub fn measure(&self, trials: usize, rng: &mut StdRng) -> CapacityReport {
        let n_items = self.items.len();
        let items = self.items.book();
        let mut correct = 0usize;
        let mut total = 0usize;
        for _ in 0..trials {
            // Draw distinct item indices.
            let mut chosen: Vec<usize> = Vec::with_capacity(self.width);
            while chosen.len() < self.width {
                let c = rng.gen_range(0..n_items);
                if !chosen.contains(&c) {
                    chosen.push(c);
                }
            }
            // Superpose bind(item_i, key_i).
            let bound: Vec<BlockCode> = chosen
                .iter()
                .enumerate()
                .map(|(slot, &item)| {
                    fft::bind_fast(items.codeword(item), self.keys.codeword(slot))
                        .expect("geometry fixed")
                })
                .collect();
            let mut bundle = ops::bundle(bound.iter()).expect("non-empty");
            bundle.normalize();
            quantize_code(&mut bundle, self.dtype);

            // Retrieve each slot.
            for (slot, &item) in chosen.iter().enumerate() {
                let recovered =
                    fft::unbind_fast(&bundle, self.keys.codeword(slot)).expect("geometry fixed");
                total += 1;
                if self.items.cleanup(&recovered).expect("geometry fixed") == item {
                    correct += 1;
                }
            }
        }
        CapacityReport {
            superposition: self.width,
            retrieval_accuracy: correct as f64 / total.max(1) as f64,
            trials,
        }
    }
}

/// Measures per-item retrieval accuracy at superposition width
/// `superposition` over `trials` random bundles, on item and key memories
/// freshly drawn from `rng`: [`SuperpositionMemory::new`] then
/// [`SuperpositionMemory::measure`] on the same stream.
///
/// # Panics
///
/// Panics if `superposition == 0` or `superposition > config.items`.
pub fn measure_capacity(
    config: &CapacityConfig,
    superposition: usize,
    trials: usize,
    rng: &mut StdRng,
) -> CapacityReport {
    SuperpositionMemory::new(*config, superposition, rng).measure(trials, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn capacity_table_is_pinned() {
        // The `superposition_capacity` experiment's cells (seed 1000 +
        // width, 40 trials, 64 items, 4 × 32), as correct retrievals out
        // of 40 · width, for FP32 and INT4. Serving runs the same loop.
        let pinned: [(usize, usize, usize); 7] = [
            (1, 40, 40),
            (4, 160, 160),
            (8, 307, 306),
            (16, 449, 446),
            (24, 460, 461),
            (32, 487, 472),
            (48, 490, 501),
        ];
        for (width, fp32, int4) in pinned {
            for (dtype, correct) in [(DType::Fp32, fp32), (DType::Int4, int4)] {
                let cfg = CapacityConfig {
                    dtype,
                    block_dim: 32,
                    items: 64,
                    ..CapacityConfig::default()
                };
                let mut rng = StdRng::seed_from_u64(1000 + width as u64);
                let r = measure_capacity(&cfg, width, 40, &mut rng);
                assert_eq!(
                    r.retrieval_accuracy,
                    correct as f64 / (40 * width) as f64,
                    "{dtype} width {width}"
                );
            }
        }
    }

    #[test]
    fn single_item_retrieval_is_perfect() {
        let r = measure_capacity(&CapacityConfig::default(), 1, 20, &mut rng());
        assert_eq!(r.retrieval_accuracy, 1.0);
    }

    #[test]
    fn small_superpositions_retrieve_reliably() {
        let r = measure_capacity(&CapacityConfig::default(), 4, 15, &mut rng());
        assert!(
            r.retrieval_accuracy > 0.95,
            "accuracy {}",
            r.retrieval_accuracy
        );
    }

    #[test]
    fn accuracy_degrades_with_width() {
        let mut g = rng();
        let cfg = CapacityConfig::default();
        let narrow = measure_capacity(&cfg, 2, 15, &mut g).retrieval_accuracy;
        let wide = measure_capacity(&cfg, 14, 15, &mut g).retrieval_accuracy;
        assert!(
            wide <= narrow,
            "capacity must not improve with width: {wide} vs {narrow}"
        );
    }

    #[test]
    fn int4_is_no_better_than_fp32() {
        let mut g1 = StdRng::seed_from_u64(5);
        let mut g2 = StdRng::seed_from_u64(5);
        let fp = measure_capacity(&CapacityConfig::default(), 8, 15, &mut g1);
        let q = measure_capacity(
            &CapacityConfig {
                dtype: DType::Int4,
                ..CapacityConfig::default()
            },
            8,
            15,
            &mut g2,
        );
        assert!(q.retrieval_accuracy <= fp.retrieval_accuracy + 0.05);
    }

    #[test]
    #[should_panic(expected = "cannot superpose more distinct items")]
    fn width_beyond_codebook_rejected() {
        let _ = measure_capacity(&CapacityConfig::default(), 17, 1, &mut rng());
    }
}
