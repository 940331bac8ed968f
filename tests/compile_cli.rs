//! `nsflow compile --out`, run as a process: an emitted workload trace
//! goes in, and the five design artifacts come out.

use std::fs;
use std::process::Command;

use nsflow::arch::memory::TransferModel;
use nsflow::arch::PrecisionConfig;
use nsflow::core::NsFlow;
use nsflow::sim::schedule::{run_pooled, SimOptions};
use nsflow::telemetry::JsonValue;
use nsflow::trace::emitter::emit_trace;
use nsflow::trace::parser::{parse_trace, ParsePrecision};
use nsflow::trace::OpKind;
use nsflow::workloads::traces;

#[test]
fn compile_out_writes_every_artifact_and_the_design_timeline() {
    let workload = traces::mimonet();
    let trace = &workload.trace;
    let (text, registry) = emit_trace(trace);
    // The text carries no GEMM reduction lengths; pass them as the CLI's
    // `--registry`, under the emitter's `conv_<id>` targets.
    let registry_arg: Vec<String> = trace
        .ops()
        .iter()
        .filter_map(|op| match *op.kind() {
            OpKind::Gemm { k, .. } => Some(format!("conv_{}={k}", op.id().index())),
            _ => None,
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("nsflow-compile-out-{}", std::process::id()));
    let out = dir.join("out");
    fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join(format!("{}.txt", workload.name));
    fs::write(&trace_path, &text).unwrap();
    let loops = trace.loop_count().to_string();
    let status = Command::new(env!("CARGO_BIN_EXE_nsflow"))
        .arg("compile")
        .arg("--trace")
        .arg(&trace_path)
        .args(["--registry", &registry_arg.join(","), "--loops", &loops])
        .arg("--out")
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        status.status.success(),
        "nsflow compile failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );

    for file in [
        "design.cfg",
        "host_schedule.txt",
        "nsflow_top.sv",
        "timeline.gantt.txt",
        "timeline.trace.json",
    ] {
        let written = fs::metadata(out.join(file)).map(|m| m.len());
        assert!(matches!(written, Ok(len) if len > 0), "{file}: {written:?}");
    }
    let timeline = fs::read_to_string(out.join("timeline.trace.json")).unwrap();
    JsonValue::parse(&timeline).expect("timeline.trace.json strict-parses");

    // The same design, compiled and scheduled in process.
    let mixed = PrecisionConfig::mixed();
    let precision = ParsePrecision {
        neural: mixed.neural,
        symbolic: mixed.symbolic,
    };
    let parsed = parse_trace(
        &text,
        workload.name,
        &registry,
        precision,
        trace.loop_count(),
    )
    .unwrap();
    let design = NsFlow::new().compile(parsed).unwrap();
    let schedule = run_pooled(
        &design.graph,
        design.array(),
        design.mapping(),
        &SimOptions {
            simd_lanes: design.config.simd_lanes,
            transfer: Some(TransferModel::default()),
        },
    );
    assert!(timeline == schedule.to_chrome_trace(&design.graph).render_pretty());
    fs::remove_dir_all(&dir).unwrap();
}
