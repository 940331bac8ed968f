//! Scalability: how NSFlow absorbs growing symbolic workloads (the
//! abstract's "only 4× runtime increase when symbolic workloads scale by
//! 150×") and how it compares with a TPU-like systolic array across
//! symbolic intensities.
//!
//! ```sh
//! cargo run --release --example scalability
//! ```

use std::time::Instant;

use nsflow::core::NsFlow;
use nsflow::sim::devices::{DeviceModel, TpuLikeArray};
use nsflow::vsa::engine::SpectralResonator;
use nsflow::vsa::resonator::{Resonator, ResonatorConfig};
use nsflow::vsa::Codebook;
use nsflow::workloads::traces;
use nsflow_tensor::rng::StdRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("symbolic-scale sweep (NVSA-like, NN part fixed):\n");
    println!(
        "{:>6} {:>14} {:>12} {:>10}",
        "scale", "NSFlow cycles", "vs ×1", "TPU-like"
    );
    let mut base_cycles = None;
    for scale in [1usize, 5, 20, 50, 100, 150] {
        let trace = traces::nvsa_scaled_symbolic(scale);
        let design = NsFlow::new().compile(trace.clone())?;
        let report = design.deploy().run();
        let base = *base_cycles.get_or_insert(report.cycles);
        let tpu = TpuLikeArray::new_128x128().run(&trace);
        println!(
            "{:>5}× {:>14} {:>11.2}× {:>9.1}ms",
            scale,
            report.cycles,
            report.cycles as f64 / base as f64,
            tpu.total_seconds() * 1e3
        );
    }
    println!(
        "\nThe symbolic part rides the AdArray's folded sub-arrays and\n\
         overlaps the fixed NN pipeline, so a 150× symbolic scale-up costs\n\
         only a few × in end-to-end latency (the paper reports ~4×)."
    );

    // ── Functional kernels scale the same way ───────────────────────────
    // The software engine mirrors the hardware story: the reference
    // resonator's O(d²) factorization blows up with dimension while the
    // spectral-cached engine grows O(d·log d).
    println!("\nkernel engine scaling (3-factor resonator factorization):\n");
    println!(
        "{:>6} {:>14} {:>14} {:>9}",
        "dim", "reference", "spectral", "speedup"
    );
    for block_dim in [256usize, 512, 1024] {
        let mut rng = StdRng::seed_from_u64(7);
        let books: Vec<Codebook> = (0..3)
            .map(|_| Codebook::random_unitary(8, 1, block_dim, &mut rng))
            .collect();
        let target = books[0]
            .codeword(1)
            .bind(books[1].codeword(3))?
            .bind(books[2].codeword(5))?;
        let cfg = ResonatorConfig::default();

        let reference = Resonator::new(books.clone())?;
        let start = Instant::now();
        let slow = reference.factorize(&target, cfg)?;
        let ref_s = start.elapsed().as_secs_f64();

        let engine = SpectralResonator::new(books)?;
        let start = Instant::now();
        let fast = engine.factorize(&engine.prepare(target)?, cfg)?;
        let eng_s = start.elapsed().as_secs_f64();

        assert_eq!(
            fast.indices, slow.indices,
            "engine must match the reference"
        );
        println!(
            "{:>6} {:>12.2}ms {:>12.2}ms {:>8.1}×",
            block_dim,
            ref_s * 1e3,
            eng_s * 1e3,
            ref_s / eng_s
        );
    }
    Ok(())
}
