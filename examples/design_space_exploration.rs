//! Inspect the two-phase DSE: how Phase I picks `(H, W, N)` under the PE
//! budget, what Phase II's per-node refinement adds, and how the chosen
//! design compares with naive fixed configurations.
//!
//! ```sh
//! cargo run --release --example design_space_exploration
//! ```

use nsflow::arch::{analytical, ArrayConfig, Mapping};
use nsflow::dse::{explore, phase1, space, DseOptions};
use nsflow::graph::DataflowGraph;
use nsflow::workloads::traces;

fn main() {
    let workload = traces::nvsa();
    let graph = DataflowGraph::from_trace(workload.trace);
    let nn = graph.trace().nn_nodes().len();
    let vsa = graph.trace().vsa_nodes().len();
    println!("NVSA dataflow graph: {nn} NN nodes, {vsa} VSA nodes per loop");
    let (nn_macs, vsa_macs) = graph.trace().macs_by_domain();
    println!(
        "work per loop: {:.3} GMACs neural, {:.3} GMACs symbolic",
        nn_macs as f64 / 1e9,
        vsa_macs as f64 / 1e9
    );

    // ── Design-space accounting (Tab. II) ───────────────────────────────
    let row = space::table2_row(10, nn + vsa, 30, 16, 16, nn);
    println!(
        "\ndesign space: original 10^{:.0} points → DAG 10^{:.1} ({}+ orders of magnitude pruned)",
        row.original_log10,
        row.dag_log10,
        row.reduction_magnitudes() as u64
    );

    // ── Phase I vs Phase II ─────────────────────────────────────────────
    let opts = DseOptions::default();
    let p1 = phase1(&graph, &opts);
    println!(
        "\nPhase I:  {} with static split {}:{} → {} cycles/loop ({} points evaluated)",
        p1.config,
        p1.mapping.n_l.first().unwrap_or(&0),
        p1.mapping.n_v.first().unwrap_or(&0),
        p1.timing.t_loop,
        p1.points_evaluated
    );
    let result = explore(&graph, &opts);
    println!(
        "Phase II: refined mapping → {} cycles/loop ({:.1}% gain, {} sweeps)",
        result.timing.t_loop,
        100.0 * result.phase2_gain,
        result.phase2_sweeps
    );

    // ── Compare against naive fixed designs ─────────────────────────────
    println!("\nnaive fixed configurations at the same PE budget:");
    for (h, w, n) in [(128, 64, 1), (64, 64, 2), (16, 16, 32)] {
        let cfg = ArrayConfig::new(h, w, n).expect("static dims");
        let mapping = if n >= 2 {
            Mapping::uniform(nn, vsa, (n - 1).max(1), 1)
        } else {
            Mapping::sequential(nn, vsa, n)
        };
        let t = analytical::loop_timing(&graph, &cfg, &mapping, 64);
        println!(
            "  {:>3}×{:<3}×{:<2} → {:>12} cycles/loop ({:+.1}% vs DSE)",
            h,
            w,
            n,
            t.t_loop,
            100.0 * (t.t_loop as f64 - result.timing.t_loop as f64) / result.timing.t_loop as f64
        );
    }
}
