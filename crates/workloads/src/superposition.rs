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

use nsflow_tensor::rng::StdRng;
use nsflow_tensor::DType;
use nsflow_vsa::{ops, BlockCode, Codebook};

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

/// Measures per-item retrieval accuracy at superposition width
/// `superposition` over `trials` random bundles.
///
/// Each trial draws `superposition` distinct items, binds each to its own
/// random unitary key, bundles the bound pairs, quantizes the bundle at
/// `config.dtype`, then unbinds with each key and recalls through the item
/// codebook. A retrieval counts as correct when cleanup returns the
/// original item.
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
    assert!(superposition > 0, "superposition width must be positive");
    assert!(
        superposition <= config.items,
        "cannot superpose more distinct items than the codebook holds"
    );
    let items = Codebook::random_unitary(config.items, config.n_blocks, config.block_dim, rng);
    let keys =
        Codebook::random_unitary(superposition.max(2), config.n_blocks, config.block_dim, rng);

    let mut correct = 0usize;
    let mut total = 0usize;
    for _ in 0..trials {
        // Draw distinct item indices.
        let mut chosen: Vec<usize> = Vec::with_capacity(superposition);
        while chosen.len() < superposition {
            let c = rng.gen_range(0..config.items);
            if !chosen.contains(&c) {
                chosen.push(c);
            }
        }
        // Superpose bind(item_i, key_i).
        let bound: Vec<BlockCode> = chosen
            .iter()
            .enumerate()
            .map(|(slot, &item)| {
                items
                    .codeword(item)
                    .bind(keys.codeword(slot))
                    .expect("geometry fixed")
            })
            .collect();
        let mut bundle = ops::bundle(bound.iter()).expect("non-empty");
        bundle.normalize();
        quantize_code(&mut bundle, config.dtype);

        // Retrieve each slot.
        for (slot, &item) in chosen.iter().enumerate() {
            let recovered = bundle.unbind(keys.codeword(slot)).expect("geometry fixed");
            total += 1;
            if items.cleanup(&recovered).expect("geometry fixed") == item {
                correct += 1;
            }
        }
    }
    CapacityReport {
        superposition,
        retrieval_accuracy: correct as f64 / total.max(1) as f64,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
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
