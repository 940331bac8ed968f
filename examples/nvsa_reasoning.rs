//! End-to-end neuro-vector-symbolic *reasoning*: solve synthetic Raven's
//! Progressive Matrices with the executable VSA pipeline, at full and at
//! mixed precision.
//!
//! ```sh
//! cargo run --release --example nvsa_reasoning
//! ```

use nsflow::workloads::accuracy::{evaluate, EvalConfig, Precision};
use nsflow::workloads::raven::{generate, TaskParams};
use nsflow::workloads::reasoning::{PipelineConfig, VsaReasoner};
use nsflow::workloads::suites::Suite;
use nsflow_tensor::rng::StdRng;

fn main() {
    // ── Solve one task step by step ─────────────────────────────────────
    let mut rng = StdRng::seed_from_u64(2025);
    let params = TaskParams::default();
    // The pipeline runs on the spectral kernel engine.
    let pipeline = PipelineConfig {
        ambiguity_std: 0.08,
        ..PipelineConfig::default()
    };
    println!("kernel engine: spectral resonator\n");
    let reasoner = VsaReasoner::new(params.attributes, params.values, pipeline, &mut rng);

    let task = generate(&params, &mut rng);
    println!("rules per attribute: {:?}", task.rules);
    for (r, row) in task.grid.iter().enumerate() {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(c, cell)| {
                if r == 2 && c == 2 {
                    "  ?  ".to_string()
                } else {
                    format!("{cell:?}")
                }
            })
            .collect();
        println!("  {}", cells.join("  "));
    }

    let solution = reasoner.solve_explained(&task, &mut rng);
    println!("predicted hidden panel: {:?}", solution.predicted);
    println!("true hidden panel:      {:?}", task.answer_panel());
    println!(
        "chose candidate {} (answer {}): {}",
        solution.choice,
        task.answer,
        if solution.choice == task.answer {
            "correct"
        } else {
            "wrong"
        }
    );
    let sims: Vec<String> = solution
        .candidate_sims
        .iter()
        .map(|s| format!("{s:.2}"))
        .collect();
    println!("candidate similarities: [{}]", sims.join(", "));

    // ── Accuracy across precisions (a mini Tab. IV) ─────────────────────
    println!("\nreasoning accuracy, 60 tasks per point:");
    let cfg = EvalConfig { tasks: 60 };
    for suite in [Suite::RavenLike, Suite::PgmLike] {
        print!("  {:<12}", suite.name());
        for precision in [Precision::fp32(), Precision::mixed(), Precision::int4()] {
            let report = evaluate(suite, precision, &cfg, 42);
            print!("  {} {:>5.1}%", precision.label, 100.0 * report.accuracy);
        }
        println!();
    }
}
