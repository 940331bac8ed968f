//! Extension experiment — energy per inference.
//!
//! The paper reports latency only; its Sec. II-B quotes each baseline's
//! board power (Coral 4 W, TX2 15 W, NX 20 W, 2080 Ti 250 W). This harness
//! combines those with the measured latencies, and estimates the NSFlow
//! design's power from its FPGA resource usage, to produce the natural
//! follow-up metric: joules per reasoning task.
//!
//! ```sh
//! cargo run --release -p nsflow-bench --bin energy_efficiency
//! ```

use nsflow_bench::write_csv;
use nsflow_core::NsFlow;
use nsflow_sim::devices::{Device, DeviceModel, DpuLike, TpuLikeArray};
use nsflow_sim::energy::fpga_watts;
use nsflow_workloads::traces;

fn main() {
    println!("Energy per inference (extension — not in the paper):\n");
    println!(
        "{:<10} {:>14} {:>12} {:>14} {:>14}",
        "workload", "device", "power", "latency", "energy"
    );

    let mut rows = Vec::new();
    for workload in traces::all() {
        let design = NsFlow::new()
            .compile(workload.trace.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        let report = design.deploy().run();
        let ns_watts = fpga_watts(&design.resources, design.config.freq_hz);
        let ns_energy = ns_watts * report.seconds;
        println!(
            "{:<10} {:>14} {:>10.1} W {:>12.2} ms {:>12.3} J",
            workload.name,
            "NSFlow (U250)",
            ns_watts,
            report.seconds * 1e3,
            ns_energy
        );
        rows.push(format!(
            "{},NSFlow,{ns_watts:.2},{},{ns_energy:.5}",
            workload.name, report.seconds
        ));

        let baselines: Vec<Box<dyn DeviceModel>> = vec![
            Box::new(Device::jetson_tx2()),
            Box::new(Device::xavier_nx()),
            Box::new(Device::rtx_2080_ti()),
            Box::new(Device::coral_tpu()),
            Box::new(TpuLikeArray::new_128x128()),
            Box::new(DpuLike::new_b4096()),
        ];
        let mut best_ratio = f64::INFINITY;
        for device in &baselines {
            let seconds = device.run(&workload.trace).total_seconds();
            let watts = device.board_watts();
            let energy = watts * seconds;
            println!(
                "{:<10} {:>14} {:>10.1} W {:>12.2} ms {:>12.3} J   ({:.0}× NSFlow)",
                "",
                device.name().chars().take(14).collect::<String>(),
                watts,
                seconds * 1e3,
                energy,
                energy / ns_energy
            );
            best_ratio = best_ratio.min(energy / ns_energy);
            rows.push(format!(
                "{},{},{:.2},{seconds},{energy:.5}",
                workload.name,
                device.name(),
                watts
            ));
        }
        println!(
            "{:<10} → NSFlow is ≥{best_ratio:.0}× more energy-efficient than every baseline\n",
            ""
        );
    }
    write_csv(
        "energy_efficiency.csv",
        "workload,device,watts,seconds,joules",
        &rows,
    );
}
