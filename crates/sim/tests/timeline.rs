//! Integration tests for the timeline observability layer: Chrome-trace
//! export round-trips through the native parser, critical-path exactness,
//! utilization accounting over the sub-array pool, gantt rendering,
//! and the `sim.stall_*` telemetry counters — all over both hand-built
//! and property-generated graphs.

use nsflow_arch::memory::TransferModel;
use nsflow_arch::{ArrayConfig, Mapping};
use nsflow_graph::DataflowGraph;
use nsflow_sim::schedule::{self, Resource, Schedule, SimOptions};
use nsflow_sim::timeline::bottleneck_report;
use nsflow_telemetry::JsonValue;
use nsflow_tensor::rng::StdRng;
use nsflow_tensor::DType;
use nsflow_trace::{Domain, EltFunc, OpId, OpKind, ReduceFunc, TraceBuilder};

/// conv → bind → sum chain: one op per resource class, so lane
/// assignment and ordering are fully determined.
fn chain_graph(loops: usize) -> DataflowGraph {
    let mut b = TraceBuilder::new("chain");
    let c = b.push(
        "conv",
        OpKind::Gemm {
            m: 256,
            n: 64,
            k: 64,
        },
        Domain::Neural,
        DType::Int8,
        &[],
    );
    let v = b.push(
        "bind",
        OpKind::VsaConv {
            n_vec: 16,
            dim: 128,
        },
        Domain::Symbolic,
        DType::Int4,
        &[c],
    );
    let _s = b.push(
        "sum",
        OpKind::Reduce {
            elems: 16 * 128,
            func: ReduceFunc::Sum,
        },
        Domain::Symbolic,
        DType::Int4,
        &[v],
    );
    DataflowGraph::from_trace(b.finish(loops).unwrap())
}

fn cfg() -> ArrayConfig {
    ArrayConfig::new(16, 16, 4).unwrap()
}

/// Every invariant the observability layer promises, checked on one
/// schedule.
fn assert_timeline_invariants(g: &DataflowGraph, s: &Schedule) {
    let total = s.total_cycles();

    // Chrome trace: strict-parses, is in canonical pretty form, and
    // round-trips through the compact renderer.
    let text = s.to_chrome_trace(g).render_pretty();
    let doc = JsonValue::parse(&text).unwrap();
    assert_eq!(doc.render_pretty(), text);
    assert_eq!(JsonValue::parse(&doc.render_compact()).unwrap(), doc);
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X")),
        "trace has no duration events"
    );

    // Critical path tiles [0, total_cycles) exactly.
    let path = s.critical_path(g);
    assert_eq!(
        path.attributed_cycles(),
        total,
        "critical path must attribute the whole makespan"
    );
    let (nn, vsa, simd) = path.cycles_by_resource();
    assert_eq!(nn + vsa + simd, total);

    // Utilization is a fraction of real capacity.
    let u = s.array_utilization();
    assert!(
        (0.0..=1.0 + 1e-9).contains(&u),
        "utilization {u} out of range"
    );

    // Overlap can never exceed the makespan.
    assert!(s.classes_overlap_cycles() <= total);

    // Ops are in strict (start, loop, op) order.
    let key = |i: usize| (s.ops()[i].start, s.ops()[i].loop_idx, s.ops()[i].op.index());
    assert!((1..s.ops().len()).all(|i| key(i - 1) < key(i)));

    // Per-op stall attribution: transfer stalls sit inside the
    // occupancy; pre-start waits fit before the start.
    for so in s.ops() {
        assert!(so.transfer_stall <= so.end - so.start);
        assert!(so.dep_wait + so.resource_wait <= so.start);
    }

    // Windowed occupancy tiles the makespan with in-range values.
    let windows = s.utilization_timeline(8);
    if total > 0 {
        assert_eq!(windows.first().unwrap().start, 0);
        assert_eq!(windows.last().unwrap().end, total);
        for pair in windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        for w in &windows {
            for v in [w.nn, w.vsa, w.simd] {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&v),
                    "occupancy {v} out of range"
                );
            }
        }
    }
}

#[test]
fn gantt_golden_chain_graph() {
    let g = chain_graph(1);
    let s = schedule::run_pooled(
        &g,
        &cfg(),
        &Mapping::uniform(1, 1, 3, 1),
        &SimOptions {
            simd_lanes: 64,
            transfer: None,
        },
    );
    let text = s.to_gantt_text(&g);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);

    // Lane assignment and op ordering: the dependency chain forces
    // conv (NN) → bind (VSA) → sum (SIMD), in start order.
    assert!(lines[0].starts_with("NN  "), "line 0: {}", lines[0]);
    assert!(lines[0].ends_with("conv"));
    assert!(lines[1].starts_with("VSA "), "line 1: {}", lines[1]);
    assert!(lines[1].ends_with("bind"));
    assert!(lines[2].starts_with("SIMD"), "line 2: {}", lines[2]);
    assert!(lines[2].ends_with("sum"));

    // The head op computes from cycle 0: bar opens with '#', no gap.
    let bar = |l: &str| l.split('|').nth(1).unwrap().to_string();
    assert!(bar(lines[0]).starts_with('#'));
    for line in &lines[1..] {
        assert!(bar(line).contains('#'), "no compute segment: {line}");
    }
    // The SIMD op renders its dependency-wait gap (the SIMD unit idled
    // since cycle 0) as leading dots before the compute bar. `bind` has
    // no gap: first-fit hands it the sub-array `conv` just freed.
    let b = bar(lines[2]);
    assert!(
        b.trim_start().starts_with('.'),
        "expected stall-gap dots before compute: {}",
        lines[2]
    );
    assert!(b.find('.').unwrap() < b.find('#').unwrap());

    // Start cycles are non-decreasing and abut the chain.
    let starts: Vec<u64> = lines
        .iter()
        .map(|l| {
            l.split('|')
                .nth(2)
                .unwrap()
                .trim()
                .split("..")
                .next()
                .unwrap()
                .parse()
                .unwrap()
        })
        .collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(starts[0], 0);
}

#[test]
fn gantt_renders_transfer_stall_head() {
    // Starve the transfer bus so double buffering cannot hide weight
    // loads: ops carry a transfer-stall head, drawn as '~'.
    let g = chain_graph(2);
    let s = schedule::run_pooled(
        &g,
        &cfg(),
        &Mapping::uniform(1, 1, 3, 1),
        &SimOptions {
            simd_lanes: 64,
            transfer: Some(TransferModel::new(0.05)),
        },
    );
    assert!(
        s.ops().iter().any(|so| so.transfer_stall > 0),
        "bandwidth starvation must produce transfer stalls"
    );
    let text = s.to_gantt_text(&g);
    assert!(
        text.contains('~'),
        "transfer stall head not rendered:\n{text}"
    );
    // Stalled-but-occupied cycles still belong to the op, so the
    // critical path stays exact.
    assert_timeline_invariants(&g, &s);
}

#[test]
fn utilization_is_claimed_sub_array_cycles_over_the_pool() {
    let g = chain_graph(4);
    let opts = SimOptions::default();

    // Sub-array-cycle accounting over the pool, with per-op weights
    // equal to the units each op actually claimed.
    let pooled = schedule::run_pooled(&g, &cfg(), &Mapping::uniform(1, 1, 3, 1), &opts);
    let weighted: u64 = pooled
        .ops()
        .iter()
        .enumerate()
        .filter(|(_, so)| so.resource != Resource::Simd)
        .map(|(i, so)| pooled.claimed_units(i).len() as u64 * (so.end - so.start))
        .sum();
    let expect = weighted as f64 / (pooled.pool_units() as u64 * pooled.total_cycles()) as f64;
    assert!((pooled.array_utilization() - expect).abs() < 1e-12);
    assert!(pooled.array_utilization() <= 1.0);
}

#[test]
fn pooled_unit_assignment_is_consistent() {
    let g = chain_graph(4);
    let s = schedule::run_pooled(
        &g,
        &cfg(),
        &Mapping::uniform(1, 1, 3, 1),
        &SimOptions::default(),
    );
    let pool = s.pool_units();
    assert!(pool > 0);
    // No unit hosts two overlapping ops, and every array op claims at
    // least one unit.
    let mut per_unit: Vec<Vec<(u64, u64)>> = vec![Vec::new(); pool];
    for (i, so) in s.ops().iter().enumerate() {
        if so.resource == Resource::Simd {
            assert!(s.claimed_units(i).is_empty());
            continue;
        }
        assert!(!s.claimed_units(i).is_empty());
        for &u in s.claimed_units(i) {
            per_unit[usize::from(u)].push((so.start, so.end));
        }
    }
    for intervals in &mut per_unit {
        intervals.sort_unstable();
        for w in intervals.windows(2) {
            assert!(w[0].1 <= w[1].0, "unit double-booked: {w:?}");
        }
    }
}

#[test]
fn stall_counters_are_recorded() {
    nsflow_telemetry::reset();
    let g = chain_graph(2);
    let _s = schedule::run_pooled(
        &g,
        &cfg(),
        &Mapping::uniform(1, 1, 3, 1),
        &SimOptions::default(),
    );
    let snap = nsflow_telemetry::TelemetrySnapshot::capture();
    // The chain serializes, so dependency waits must be visible; the
    // other two categories exist (possibly zero-valued) as well.
    assert!(snap.counter("sim.stall_dep_wait") > 0);
    assert!(snap.counters.contains_key("sim.stall_resource_wait"));
    assert!(snap.counters.contains_key("sim.stall_transfer"));
}

#[test]
fn bottleneck_report_names_the_dominant_op() {
    let g = chain_graph(2);
    let s = schedule::run_pooled(
        &g,
        &cfg(),
        &Mapping::uniform(1, 1, 3, 1),
        &SimOptions::default(),
    );
    let report = bottleneck_report(&s, &g, 3);
    for needle in [
        "critical path:",
        "stalls:",
        "overlap:",
        "occupancy NN",
        "top ops by critical-path contribution:",
    ] {
        assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
    }
    // The heavy GEMM dominates this chain.
    assert!(report.contains("conv"));
}

/// Builds a trace from `(kind_pick, size, dep_pick)` specs; dependencies
/// always point at earlier ops, so the graph is a DAG by construction.
fn build_graph(specs: &[(usize, usize, usize)], loops: usize) -> DataflowGraph {
    let mut b = TraceBuilder::new("prop");
    let mut ids: Vec<OpId> = Vec::new();
    for (i, &(kind_pick, size, dep_pick)) in specs.iter().enumerate() {
        let deps: Vec<OpId> = if ids.is_empty() {
            Vec::new()
        } else {
            vec![ids[dep_pick % ids.len()]]
        };
        let (kind, domain, dtype) = match kind_pick {
            0 => (
                OpKind::Gemm {
                    m: 16 * size,
                    n: 8 * size,
                    k: 8 * size,
                },
                Domain::Neural,
                DType::Int8,
            ),
            1 => (
                OpKind::VsaConv {
                    n_vec: 2 * size,
                    dim: 32 * size,
                },
                Domain::Symbolic,
                DType::Int4,
            ),
            2 => (
                OpKind::Elementwise {
                    elems: 64 * size,
                    func: EltFunc::Relu,
                },
                Domain::Neural,
                DType::Int8,
            ),
            3 => (
                OpKind::Reduce {
                    elems: 64 * size,
                    func: ReduceFunc::Sum,
                },
                Domain::Symbolic,
                DType::Int4,
            ),
            _ => (
                OpKind::Similarity {
                    n_vec: 2 * size,
                    dim: 32 * size,
                },
                Domain::Symbolic,
                DType::Int4,
            ),
        };
        ids.push(b.push(format!("op{i}"), kind, domain, dtype, &deps));
    }
    DataflowGraph::from_trace(b.finish(loops).unwrap())
}

/// Random graphs, configurations and mappings, one per seed.
#[test]
fn timeline_invariants_hold_for_random_graphs() {
    for seed in 0..256 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let specs: Vec<(usize, usize, usize)> = (0..rng.gen_range(1..10))
            .map(|_| {
                (
                    rng.gen_range(0..5),
                    rng.gen_range(1..4),
                    rng.gen_range(0..16),
                )
            })
            .collect();
        let loops = rng.gen_range(1..4);
        let g = build_graph(&specs, loops);
        let cfg = [
            ArrayConfig::new(8, 8, 2).unwrap(),
            ArrayConfig::new(16, 16, 4).unwrap(),
            ArrayConfig::new(32, 32, 8).unwrap(),
        ][rng.gen_range(0..3)];
        let (nl_seed, nv_seed) = (rng.gen_range(0..8), rng.gen_range(0..8));
        let n = cfg.n_subarrays();
        let nn = g.trace().nn_nodes().len();
        let vsa = g.trace().vsa_nodes().len();
        let mapping = if (nl_seed + nv_seed) % 4 == 0 {
            Mapping::sequential(nn, vsa, n)
        } else {
            Mapping::uniform(nn, vsa, 1 + nl_seed % n, 1 + nv_seed % n)
        };
        let opts = SimOptions {
            simd_lanes: 64,
            // A modest bus so some cases hit transfer stalls.
            transfer: Some(TransferModel::new(4.0)),
        };
        // The shared invariant checker does not know the seed; the test
        // harness shows this captured line when the case fails.
        eprintln!("timeline case seed {seed}");
        assert_timeline_invariants(&g, &schedule::run_pooled(&g, &cfg, &mapping, &opts));
    }
}
