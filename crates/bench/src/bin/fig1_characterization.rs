//! Fig. 1 — end-to-end neuro-symbolic runtime and roofline
//! characterization.
//!
//! (a) latency breakdown on a CPU+GPU system, (b) end-to-end latency on
//! Coral TPU / TX2 / NX / 2080 Ti against a real-time bound, (c) roofline
//! placement of the neural and symbolic halves on the 2080 Ti.
//!
//! ```sh
//! cargo run --release -p nsflow-bench --bin fig1_characterization
//! ```

use nsflow_bench::{fmt_seconds, write_csv};
use nsflow_sim::devices::{Device, DeviceModel};
use nsflow_sim::roofline::workload_points;
use nsflow_workloads::traces;

fn main() {
    let workloads = traces::all();

    // ── Fig. 1a: CPU+GPU system breakdown ──────────────────────────────
    println!("Fig. 1a — latency breakdown on the CPU+GPU system (RTX 2080 Ti):");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>16}",
        "workload", "neural", "symbolic", "symbolic %", "symbolic FLOP %"
    );
    let gpu = Device::rtx_2080_ti();
    let mut rows_a = Vec::new();
    for w in &workloads {
        let r = gpu.run(&w.trace);
        let flop_share = 100.0 * w.trace.symbolic_flop_fraction();
        println!(
            "{:<10} {:>12} {:>12} {:>13.1}% {:>15.1}%",
            w.name,
            fmt_seconds(r.neural_seconds),
            fmt_seconds(r.symbolic_seconds),
            100.0 * r.symbolic_fraction(),
            flop_share
        );
        rows_a.push(format!(
            "{},{},{},{:.4},{:.4}",
            w.name,
            r.neural_seconds,
            r.symbolic_seconds,
            r.symbolic_fraction(),
            flop_share / 100.0
        ));
    }
    println!(
        "(paper: symbolic dominates runtime — 87% for NVSA — while contributing ~19% of FLOPs)"
    );
    write_csv(
        "fig1a_breakdown.csv",
        "workload,neural_s,symbolic_s,symbolic_runtime_frac,symbolic_flop_frac",
        &rows_a,
    );

    // ── Fig. 1b: end-to-end latency per device ─────────────────────────
    const REAL_TIME_S: f64 = 0.1; // 10 inferences/s target
    println!(
        "\nFig. 1b — end-to-end latency per device (real-time bound {}):",
        fmt_seconds(REAL_TIME_S)
    );
    let devices: Vec<Device> = vec![
        Device::coral_tpu(),
        Device::jetson_tx2(),
        Device::xavier_nx(),
        Device::rtx_2080_ti(),
    ];
    print!("{:<10}", "workload");
    for d in &devices {
        print!(" {:>14}", d.name());
    }
    println!();
    let mut rows_b = Vec::new();
    for w in &workloads {
        print!("{:<10}", w.name);
        let mut cells = vec![w.name.to_string()];
        let mut meets_real_time = false;
        for d in &devices {
            let t = d.run(&w.trace).total_seconds();
            print!(" {:>14}", fmt_seconds(t));
            cells.push(format!("{t}"));
            meets_real_time |= t <= REAL_TIME_S;
        }
        println!(
            "{}",
            if meets_real_time {
                ""
            } else {
                "   [misses real-time]"
            }
        );
        rows_b.push(cells.join(","));
    }
    write_csv(
        "fig1b_devices.csv",
        "workload,coral_tpu_s,jetson_tx2_s,xavier_nx_s,rtx2080ti_s",
        &rows_b,
    );

    // ── Fig. 1c: roofline of the RTX 2080 Ti ───────────────────────────
    println!(
        "\nFig. 1c — RTX 2080 Ti roofline (ridge at {:.1} FLOP/B):",
        Device::rtx_2080_ti().roof().ridge_intensity()
    );
    println!(
        "{:<22} {:>16} {:>18} {:>10}",
        "kernel class", "intensity", "attainable", "bound"
    );
    let roof = Device::rtx_2080_ti().roof();
    let mut rows_c = Vec::new();
    for w in &workloads {
        for p in workload_points(&w.trace, &roof) {
            println!(
                "{:<22} {:>12.1} F/B {:>13.2} TF/s {:>10}",
                p.label,
                p.intensity,
                p.attainable_flops / 1e12,
                format!("{:?}", p.bound)
            );
            rows_c.push(format!(
                "{},{},{},{:?}",
                p.label, p.intensity, p.attainable_flops, p.bound
            ));
        }
    }
    println!("(paper: symbolic modules are memory-bounded, neural modules compute-bounded)");
    write_csv(
        "fig1c_roofline.csv",
        "label,intensity_flop_per_byte,attainable_flops,bound",
        &rows_c,
    );
}
