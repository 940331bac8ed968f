//! Acceptance test for the `simtrace` pipeline (ISSUE 4): every suite
//! workload must emit a Chrome Trace Event JSON that passes the strict
//! parser, and the critical-path report must attribute exactly the
//! schedule's makespan.

use nsflow_bench::simreport::{analyze, parse_config};
use nsflow_sim::schedule::SimOptions;
use nsflow_telemetry::JsonValue;
use nsflow_tensor::rng::StdRng;
use nsflow_workloads::traces;

#[test]
fn every_workload_emits_a_valid_trace_with_exact_attribution() {
    let cfg = parse_config("32x32x8").unwrap();
    for workload in traces::all() {
        let name = workload.name;
        let t = analyze(workload, &cfg, &SimOptions::default());

        let rendered = t.chrome_trace().render_pretty();
        t.validate_trace(&rendered)
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        // Spot-check the event structure beyond the strict parse: every
        // duration event has the stall-breakdown args the schema
        // promises.
        let doc = JsonValue::parse(&rendered).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        for e in events {
            if e.get("ph").and_then(JsonValue::as_str) != Some("X") {
                continue;
            }
            let args = e.get("args").expect("X event args");
            for key in [
                "kind",
                "loop",
                "cycles",
                "dep_wait",
                "resource_wait",
                "transfer_stall",
            ] {
                assert!(args.get(key).is_some(), "{name}: missing args.{key}");
            }
        }

        // Attribution is exact, not just "± pipelining overlap".
        let path = t.schedule.critical_path(&t.graph);
        assert_eq!(
            path.attributed_cycles(),
            t.schedule.total_cycles(),
            "{name}: critical path must tile the makespan"
        );
        // And the report renders with the roofline section.
        let report = t.report(5);
        assert!(report.contains("roofline"), "{name}: {report}");
    }
}

#[test]
fn config_parsing_accepts_hxwxn_and_rejects_garbage() {
    assert!(parse_config("32x32x8").is_ok());
    assert!(parse_config("8X8X2").is_ok());
    assert!(parse_config("32x32").is_err());
    assert!(parse_config("0x8x2").is_err());
    assert!(parse_config("axbxc").is_err());
}

#[test]
fn arbitrary_config_strings_parse_or_return_errors() {
    const PIECES: [&str; 10] = [
        "x",
        "X",
        "0",
        "8",
        "32",
        "-1",
        " ",
        "18446744073709551616",
        "\u{e9}",
        "xx",
    ];
    for seed in 0..256 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let text: String = (0..rng.gen_range(0..8))
            .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
            .collect();
        if let Ok(cfg) = parse_config(&text) {
            let round = format!("{}x{}x{}", cfg.height(), cfg.width(), cfg.n_subarrays());
            assert_eq!(parse_config(&round), Ok(cfg), "seed {seed}: {text:?}");
        }
    }
}
