//! Golden digests of the cycle-level scheduler.
//!
//! Every field a schedule exposes — each `ScheduledOp`, the claimed
//! sub-arrays, busy cycles, the makespan and the critical path — is
//! folded into one FNV-1a digest per case and compared against a pinned
//! value. `run_pooled` is covered on the four workloads' compiled U250
//! designs at several loop multipliers and on seeded random graphs, and
//! one Chrome-trace document is pinned byte for byte (its compact
//! re-rendering). Any change to scheduling order, tie-breaking or stall
//! attribution shows up here.
//!
//! The pretty JSON writer is pinned the same way: the rendered Chrome
//! trace of every `compile_designs` target (workload × device ×
//! precision, pooled schedule), one telemetry snapshot and one serving
//! trace are each folded into a digest of their `render_pretty` bytes.
//! The Gantt text is pinned on the same designs.

use nsflow::arch::memory::TransferModel;
use nsflow::arch::{ArrayConfig, Mapping, PrecisionConfig};
use nsflow::core::{CompileError, Design, NsFlow};
use nsflow::fpga::FpgaDevice;
use nsflow::graph::DataflowGraph;
use nsflow::sim::schedule::{run_pooled, Resource, Schedule, SimOptions};
use nsflow::sim::timeline::{BindKind, CriticalNode, CriticalPathReport};
use nsflow::telemetry::trace::{RequestEvent, ShedReason, TraceRecord, TraceSnapshot};
use nsflow::telemetry::{HistogramSnapshot, JsonValue, SpanSnapshot, TelemetrySnapshot};
use nsflow::tensor::rng::StdRng;
use nsflow::tensor::DType;
use nsflow::trace::{Domain, EltFunc, OpKind, ReduceFunc, TraceBuilder};
use nsflow::workloads::traces;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// FNV-1a of `text`'s bytes.
fn fnv_text(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.0
}

fn resource_code(r: Resource) -> u64 {
    match r {
        Resource::NnPartition => 0,
        Resource::VsaPartition => 1,
        Resource::Simd => 2,
    }
}

/// Folds every observable of `schedule` and its critical path.
fn digest(schedule: &Schedule, graph: &DataflowGraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(schedule.ops().len() as u64);
    for (i, so) in schedule.ops().iter().enumerate() {
        for v in [
            so.loop_idx as u64,
            so.op.index() as u64,
            so.start,
            so.end,
            resource_code(so.resource),
            so.dep_wait,
            so.resource_wait,
            so.transfer_stall,
        ] {
            h.u64(v);
        }
        let units = schedule.claimed_units(i);
        h.u64(units.len() as u64);
        for &u in units {
            h.u64(u64::from(u));
        }
    }
    let (nn, vsa, simd) = schedule.busy_cycles();
    for v in [nn, vsa, simd, schedule.total_cycles()] {
        h.u64(v);
    }
    h.u64(schedule.pool_units() as u64);
    // Was the sequential flag, always 0 for this scheduler; kept so no pin moves.
    h.u64(0);
    let path = schedule.critical_path(graph);
    h.u64(path.total_cycles);
    h.u64(path.nodes.len() as u64);
    for n in &path.nodes {
        let bound = match n.bound {
            BindKind::Origin => 0,
            BindKind::Dependency => 1,
            BindKind::Resource => 2,
        };
        for v in [
            n.index as u64,
            n.loop_idx as u64,
            n.op.index() as u64,
            resource_code(n.resource),
            n.cycles,
            n.transfer_stall,
            bound,
        ] {
            h.u64(v);
        }
    }
    h.0
}

fn designs() -> Vec<(&'static str, Design)> {
    traces::all()
        .into_iter()
        .map(|w| {
            let design = NsFlow::new().compile(w.trace).expect("U250 compile");
            (w.name, design)
        })
        .collect()
}

/// The design's graph with its loop count multiplied by `multiplier`.
fn batched(design: &Design, multiplier: usize) -> DataflowGraph {
    let trace = design.graph.trace();
    DataflowGraph::from_trace(
        trace
            .with_loop_count(trace.loop_count() * multiplier)
            .unwrap(),
    )
}

fn design_options(design: &Design) -> SimOptions {
    SimOptions {
        simd_lanes: design.config.simd_lanes,
        transfer: Some(TransferModel::default()),
    }
}

/// Compares computed `(case, digest)` rows against the pinned table and
/// prints the whole computed table on any mismatch.
fn check(computed: &[(String, u64)], pinned: &[(&str, u64)]) {
    let matches = computed.len() == pinned.len()
        && computed
            .iter()
            .zip(pinned)
            .all(|((case, d), (p_case, p_d))| case == p_case && d == p_d);
    if !matches {
        for (case, d) in computed {
            eprintln!("    (\"{case}\", {d:#018x}),");
        }
        panic!("schedule digests differ from the pinned table");
    }
}

const WORKLOAD_DIGESTS: [(&str, u64); 12] = [
    ("NVSA x1 pooled", 0x2957d944f36b80b2),
    ("NVSA x8 pooled", 0x10f9af96d655bc14),
    ("NVSA x64 pooled", 0x6c915ca39f27abcc),
    ("MIMONet x1 pooled", 0x3701a9ff56b1bb48),
    ("MIMONet x8 pooled", 0x582b06e40eafc4f8),
    ("MIMONet x64 pooled", 0x097d8c77bc2ca816),
    ("LVRF x1 pooled", 0xac5f753ec5910cda),
    ("LVRF x8 pooled", 0x7f5d03d4670c1650),
    ("LVRF x64 pooled", 0xb9ede252d5f94a69),
    ("PrAE x1 pooled", 0x63667b883fc31d83),
    ("PrAE x8 pooled", 0x28191d3406cf77f7),
    ("PrAE x64 pooled", 0xfca1d69832e9538a),
];

#[test]
fn workload_schedules_match_pinned_digests() {
    let mut computed = Vec::new();
    for (name, design) in designs() {
        let options = design_options(&design);
        for multiplier in [1, 8, 64] {
            let graph = batched(&design, multiplier);
            let pooled = run_pooled(&graph, design.array(), design.mapping(), &options);
            computed.push((
                format!("{name} x{multiplier} pooled"),
                digest(&pooled, &graph),
            ));
        }
    }
    check(&computed, &WORKLOAD_DIGESTS);
}

/// A seeded random DAG with every op class, fan-in up to three (inputs
/// may repeat), and a random mapping on a random array.
fn random_case(seed: u64) -> (DataflowGraph, ArrayConfig, Mapping, SimOptions) {
    let rng = &mut StdRng::seed_from_u64(seed);
    let n_sub = [1usize, 2, 3, 4, 8][rng.gen_range(0usize..5)];
    let cfg = ArrayConfig::new(
        8 << rng.gen_range(0usize..3),
        8 << rng.gen_range(0usize..3),
        n_sub,
    )
    .unwrap();
    let n_ops = rng.gen_range(2usize..14);
    let mut b = TraceBuilder::new(format!("random{seed}"));
    let mut ids = Vec::new();
    for i in 0..n_ops {
        let fan_in = if ids.is_empty() {
            0
        } else {
            rng.gen_range(0usize..4)
        };
        let inputs: Vec<_> = (0..fan_in)
            .map(|_| ids[rng.gen_range(0..ids.len())])
            .collect();
        let (kind, domain, dtype) = match rng.gen_range(0u32..5) {
            0 => (
                OpKind::Gemm {
                    m: rng.gen_range(8usize..300),
                    n: rng.gen_range(4usize..80),
                    k: rng.gen_range(4usize..80),
                },
                Domain::Neural,
                DType::Int8,
            ),
            1 => (
                OpKind::VsaConv {
                    n_vec: rng.gen_range(1usize..16),
                    dim: 1 << rng.gen_range(4u32..9),
                },
                Domain::Symbolic,
                DType::Int4,
            ),
            2 => (
                OpKind::Elementwise {
                    elems: rng.gen_range(1usize..5000),
                    func: EltFunc::Relu,
                },
                Domain::Neural,
                DType::Int8,
            ),
            3 => (
                OpKind::Reduce {
                    elems: rng.gen_range(1usize..5000),
                    func: ReduceFunc::Sum,
                },
                Domain::Symbolic,
                DType::Int4,
            ),
            _ => (
                OpKind::Similarity {
                    n_vec: rng.gen_range(1usize..16),
                    dim: rng.gen_range(16usize..512),
                },
                Domain::Symbolic,
                DType::Int4,
            ),
        };
        ids.push(b.push(format!("op{i}"), kind, domain, dtype, &inputs));
    }
    let loops = rng.gen_range(1usize..7);
    let graph = DataflowGraph::from_trace(b.finish(loops).unwrap());
    let trace = graph.trace();
    let mut pick = || rng.gen_range(1..=n_sub);
    let mapping = Mapping {
        n_l: trace.nn_nodes().iter().map(|_| pick()).collect(),
        n_v: trace.vsa_nodes().iter().map(|_| pick()).collect(),
        parallel: rng.gen_range(0u32..3) > 0,
    };
    let options = SimOptions {
        simd_lanes: 16 << rng.gen_range(0usize..3),
        transfer: (rng.gen_range(0u32..2) == 0).then(|| TransferModel::new(0.5)),
    };
    (graph, cfg, mapping, options)
}

const RANDOM_CASES: u64 = 48;

const RANDOM_DIGESTS: [(&str, u64); 1] = [("random pooled", 0xa96f45c00a10ca35)];

#[test]
fn random_graph_schedules_match_pinned_digests() {
    let mut pooled = Fnv::new();
    for seed in 0..RANDOM_CASES {
        let (graph, cfg, mapping, options) = random_case(seed);
        pooled.u64(digest(
            &run_pooled(&graph, &cfg, &mapping, &options),
            &graph,
        ));
    }
    check(&[("random pooled".to_string(), pooled.0)], &RANDOM_DIGESTS);
}

/// Cycles in which at least two of NN/VSA/SIMD have an op in flight,
/// counted one cycle at a time: the oracle for `classes_overlap_cycles`.
fn overlap_per_cycle(schedule: &Schedule) -> u64 {
    let mut active = vec![0u8; schedule.total_cycles() as usize];
    for so in schedule.ops() {
        for classes in &mut active[so.start as usize..so.end as usize] {
            *classes |= 1 << resource_code(so.resource);
        }
    }
    active.iter().filter(|c| c.count_ones() >= 2).count() as u64
}

#[test]
fn classes_overlap_matches_a_per_cycle_count() {
    let workloads = designs().into_iter().map(|(name, design)| {
        let options = design_options(&design);
        let s = run_pooled(&design.graph, design.array(), design.mapping(), &options);
        (name.to_string(), s)
    });
    let random = (0..RANDOM_CASES).map(|seed| {
        let (graph, cfg, mapping, options) = random_case(seed);
        (
            format!("random {seed}"),
            run_pooled(&graph, &cfg, &mapping, &options),
        )
    });
    let mut overlapping = 0;
    for (case, schedule) in workloads.chain(random) {
        let overlap = schedule.classes_overlap_cycles();
        assert_eq!(overlap, overlap_per_cycle(&schedule), "{case}");
        overlapping += usize::from(overlap > 0);
    }
    assert!(overlapping > 4, "only {overlapping} cases overlap at all");
}

const CHROME_TRACE_DIGESTS: [(&str, u64); 1] = [("LVRF x2 pooled", 0x9cdb7f9875869098)];

#[test]
fn chrome_traces_match_pinned_digests() {
    let workload = traces::lvrf();
    let design = NsFlow::new().compile(workload.trace).unwrap();
    let options = design_options(&design);
    let graph = batched(&design, 2);
    let pooled = run_pooled(&graph, design.array(), design.mapping(), &options);
    let text = pooled.to_chrome_trace(&graph).render_pretty();
    let rendered = fnv_text(&JsonValue::parse(&text).unwrap().render_compact());
    check(
        &[("LVRF x2 pooled".to_string(), rendered)],
        &CHROME_TRACE_DIGESTS,
    );
}

const PRETTY_DESIGN_DIGESTS: [(&str, u64); 14] = [
    ("NVSA U250 mixed", 0x21814eadb93d3c67),
    ("NVSA U250 int8", 0x21814eadb93d3c67),
    ("MIMONet U250 mixed", 0xa9f2df21172b4ef6),
    ("MIMONet U250 int8", 0xa9f2df21172b4ef6),
    ("MIMONet ZCU104 mixed", 0x6e73cf38b01d2342),
    ("MIMONet ZCU104 int8", 0x5f22eb3459d7d769),
    ("LVRF U250 mixed", 0x7c9710d72673b67b),
    ("LVRF U250 int8", 0x7c9710d72673b67b),
    ("LVRF ZCU104 mixed", 0x37aac2c28e9ea5a8),
    ("LVRF ZCU104 int8", 0x29312c3aa938a19a),
    ("PrAE U250 mixed", 0xc1b4748c84b7e773),
    ("PrAE U250 int8", 0xc1b4748c84b7e773),
    ("PrAE ZCU104 mixed", 0x6b925273d4594de7),
    ("PrAE ZCU104 int8", 0x789ed8d23b407d64),
];

/// Every `compile_designs` target (the four workloads × {U250, ZCU104}
/// × {mixed, int8}) that fits its device, labelled and scheduled by
/// `run_pooled`.
fn compiled_targets() -> Vec<(String, DataflowGraph, Schedule)> {
    let mut targets = Vec::new();
    for workload in traces::all() {
        for (board, device) in [
            ("U250", FpgaDevice::u250()),
            ("ZCU104", FpgaDevice::zcu104()),
        ] {
            for (label, precision) in [
                ("mixed", PrecisionConfig::mixed()),
                ("int8", PrecisionConfig::uniform(DType::Int8)),
            ] {
                let compiled = NsFlow::new()
                    .with_device(device.clone())
                    .with_precision(precision)
                    .compile(workload.trace.clone());
                let design = match compiled {
                    Ok(design) => design,
                    Err(CompileError::DeviceTooSmall(_)) => continue,
                    Err(e) => panic!("{} on {}: {e}", workload.name, device.name()),
                };
                let schedule = run_pooled(
                    &design.graph,
                    design.array(),
                    design.mapping(),
                    &design_options(&design),
                );
                let case = format!("{} {board} {label}", workload.name);
                targets.push((case, design.graph, schedule));
            }
        }
    }
    targets
}

/// Every `compile_designs` target rendered as a pretty Chrome trace.
#[test]
fn pretty_chrome_traces_of_compiled_designs_match_pinned_digests() {
    let computed: Vec<(String, u64)> = compiled_targets()
        .into_iter()
        .map(|(case, graph, schedule)| {
            let text = schedule.to_chrome_trace(&graph).render_pretty();
            (case, fnv_text(&text))
        })
        .collect();
    check(&computed, &PRETTY_DESIGN_DIGESTS);
}

const GANTT_DIGESTS: [(&str, u64); 30] = [
    ("NVSA x1", 0xd96b6adfe2755365),
    ("NVSA x3", 0x0b031c52bd48a18c),
    ("NVSA x8", 0x49dd06bb1e186aed),
    ("NVSA x17", 0x50f6560214f165f1),
    ("MIMONet x1", 0x05240e8a944578d5),
    ("MIMONet x3", 0xd2c5e0f8a82e8fef),
    ("MIMONet x8", 0x245af57389e1dce0),
    ("MIMONet x17", 0xd81c4f9af374f410),
    ("LVRF x1", 0xb504fc71301ad4d0),
    ("LVRF x3", 0x66719e9fd5eabac6),
    ("LVRF x8", 0xf89d77effd6d4810),
    ("LVRF x17", 0x85b46f93dee38c45),
    ("PrAE x1", 0xaaaf00520ddc621f),
    ("PrAE x3", 0xe28e372c8cdca936),
    ("PrAE x8", 0x9fdeaf0613b98bfc),
    ("PrAE x17", 0x7bf52a44d5a9e778),
    ("NVSA U250 mixed", 0xd96b6adfe2755365),
    ("NVSA U250 int8", 0xd96b6adfe2755365),
    ("MIMONet U250 mixed", 0x05240e8a944578d5),
    ("MIMONet U250 int8", 0x05240e8a944578d5),
    ("MIMONet ZCU104 mixed", 0x583a2ce52bef6f94),
    ("MIMONet ZCU104 int8", 0x0c242096eb91bc73),
    ("LVRF U250 mixed", 0xb504fc71301ad4d0),
    ("LVRF U250 int8", 0xb504fc71301ad4d0),
    ("LVRF ZCU104 mixed", 0x037d33096c47c51b),
    ("LVRF ZCU104 int8", 0x7a0638ae6db8e06a),
    ("PrAE U250 mixed", 0xaaaf00520ddc621f),
    ("PrAE U250 int8", 0xaaaf00520ddc621f),
    ("PrAE ZCU104 mixed", 0xf5fc7b6af0aea517),
    ("PrAE ZCU104 int8", 0x0de59859f58fd172),
];

/// The Gantt text of the four U250 designs at ×1/×3/×8/×17 and of every
/// `compile_designs` target.
#[test]
fn gantt_texts_match_pinned_digests() {
    let mut computed = Vec::new();
    for (name, design) in designs() {
        let options = design_options(&design);
        for multiplier in [1, 3, 8, 17] {
            let graph = batched(&design, multiplier);
            let schedule = run_pooled(&graph, design.array(), design.mapping(), &options);
            let text = schedule.to_gantt_text(&graph);
            computed.push((format!("{name} x{multiplier}"), fnv_text(&text)));
        }
    }
    for (case, graph, schedule) in compiled_targets() {
        computed.push((case, fnv_text(&schedule.to_gantt_text(&graph))));
    }
    check(&computed, &GANTT_DIGESTS);
}

/// A snapshot with every section, a bucket list too long to inline,
/// `u64::MAX`/negative values and names that need escaping.
fn sample_snapshot() -> TelemetrySnapshot {
    let mut snapshot = TelemetrySnapshot::default();
    snapshot
        .counters
        .insert("sim.ops_scheduled".into(), 390_720);
    snapshot.counters.insert("max".into(), u64::MAX);
    snapshot.counters.insert("quote\"back\\slash".into(), 0);
    snapshot.gauges.insert("dse.threads".into(), 1);
    snapshot.gauges.insert("ünïcode.gauge".into(), i64::MIN);
    snapshot.gauges.insert("tab\tnewline\n".into(), -1);
    snapshot.histograms.insert(
        "short".into(),
        HistogramSnapshot {
            count: 4,
            sum: 78,
            min: 9,
            max: 49,
            buckets: vec![(4, 3), (6, 1)],
        },
    );
    snapshot.histograms.insert(
        "long".into(),
        HistogramSnapshot {
            count: 390_720,
            sum: 2_608_034_808,
            min: 1,
            max: u64::MAX,
            buckets: (0u8..18).map(|i| (i, 1u64 << (2 * i))).collect(),
        },
    );
    snapshot.spans.insert(
        "sim.run_pooled".into(),
        SpanSnapshot {
            count: 620,
            total_ns: 23_919_683,
            max_ns: 138_123,
        },
    );
    snapshot
}

/// A seeded flight-recorder stream over every event kind: admitted,
/// shed, batched, executed, retried, failed and responded requests.
fn sample_serving_trace() -> TraceSnapshot {
    let rng = &mut StdRng::seed_from_u64(0x5e_7e);
    let mut records = Vec::new();
    let mut push = |trace_id: u64, ts: u64, event: RequestEvent| {
        let seq = records.len() as u64;
        records.push(TraceRecord {
            seq,
            trace_id,
            ts,
            event,
        });
    };
    let mut ts = 0u64;
    for id in 0..48u64 {
        ts += rng.gen_range(1u64..900);
        push(id, ts, RequestEvent::Admitted);
        if rng.gen_range(0u32..6) == 0 {
            let reason = ShedReason::all()[rng.gen_range(0..ShedReason::all().len())];
            push(id, ts + 1, RequestEvent::Shed { reason });
            continue;
        }
        push(id, ts + 2, RequestEvent::Enqueued);
        let formed = ts + rng.gen_range(3u64..4_000);
        let batch_id = id / 4;
        push(id, formed, RequestEvent::BatchFormed { batch_id, size: 4 });
        let worker = (batch_id % 3) as u32;
        let start = formed + rng.gen_range(0u64..500);
        push(id, start, RequestEvent::ExecStart { worker });
        let mut end = start + rng.gen_range(100u64..3_000);
        let retries = rng.gen_range(0u32..3);
        for attempt in 1..=retries {
            push(id, end, RequestEvent::Retried { attempt });
            end += rng.gen_range(100u64..3_000);
        }
        push(id, end, RequestEvent::ExecEnd { worker });
        if retries == 2 && rng.gen_range(0u32..2) == 0 {
            push(id, end, RequestEvent::Failed { attempts: 3 });
        } else {
            push(id, end + 1, RequestEvent::Responded);
        }
    }
    TraceSnapshot {
        records,
        dropped: 7,
    }
}

const PRETTY_DOCUMENT_DIGESTS: [(&str, u64); 2] = [
    ("snapshot", 0x23c15bdc7ae42c2a),
    ("serving trace", 0xb321129b471ccfe1),
];

#[test]
fn pretty_telemetry_documents_match_pinned_digests() {
    let serving = sample_serving_trace()
        .to_chrome_trace("golden \"serve\" é\u{1}", "tick")
        .render_pretty();
    check(
        &[
            (
                "snapshot".to_string(),
                fnv_text(&sample_snapshot().to_json()),
            ),
            ("serving trace".to_string(), fnv_text(&serving)),
        ],
        &PRETTY_DOCUMENT_DIGESTS,
    );
}

/// Panics unless parsing `text` and rendering it again gives `text`.
fn assert_canonical(case: &str, text: &str) {
    let parsed = JsonValue::parse(text).unwrap_or_else(|e| panic!("{case}: {e}"));
    assert!(
        parsed.render_pretty() == text,
        "{case}: not in canonical form"
    );
}

/// The Chrome-trace writer renders events straight to text; its output
/// must be exactly what the JSON writer makes of the parsed document.
#[test]
fn chrome_traces_are_in_canonical_pretty_form() {
    for workload in traces::all() {
        let design = NsFlow::new().compile(workload.trace).unwrap();
        let options = design_options(&design);
        let schedule = run_pooled(&design.graph, design.array(), design.mapping(), &options);
        let text = schedule.to_chrome_trace(&design.graph).render_pretty();
        assert_canonical(&format!("{} U250", workload.name), &text);
    }
    for seed in 0..RANDOM_CASES {
        let (graph, cfg, mapping, options) = random_case(seed);
        let text = run_pooled(&graph, &cfg, &mapping, &options)
            .to_chrome_trace(&graph)
            .render_pretty();
        assert_canonical(&format!("random seed {seed}"), &text);
    }
    let serving = sample_serving_trace()
        .to_chrome_trace("golden \"serve\" é\u{1}", "tick")
        .render_pretty();
    for cat in ["\"shed\"", "\"retry\"", "\"fail\""] {
        assert!(
            serving.contains(cat),
            "the serving trace has no {cat} event"
        );
    }
    assert_canonical("serving trace", &serving);
}

/// Which rule bound a critical-path node's start in the reference walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Started at cycle 0.
    Origin,
    /// The first input, in `inputs()` order, that ended at the start.
    Input,
    /// The op's previous loop instance ended at the start.
    PreviousInstance,
    /// The first completion at the start in the op's resource group.
    SameGroup,
    /// The first completion at the start in any group.
    AnyGroup,
}

/// The critical path by the definition: from the last finisher (ties
/// toward the smallest `(loop, op)` instance), step to the completion
/// that bound each start, trying the rules in [`Rule`] order. Inputs
/// and previous instances are looked up by instance, and "ended at `t`"
/// is a binary search in every op sorted by `(end, loop, op)`. Also
/// returns the rule that bound each node.
fn reference_critical_path(
    schedule: &Schedule,
    graph: &DataflowGraph,
) -> (CriticalPathReport, Vec<Rule>) {
    let ops = schedule.ops();
    if ops.is_empty() {
        return (CriticalPathReport::default(), Vec::new());
    }
    let trace = graph.trace();
    let n_ops = trace.ops().len();
    let instance = |i: usize| ops[i].loop_idx * n_ops + ops[i].op.index();
    let mut by_inst = vec![usize::MAX; trace.loop_count() * n_ops];
    for i in 0..ops.len() {
        by_inst[instance(i)] = i;
    }
    let ended = |loop_idx: usize, op: usize, t: u64| {
        let i = by_inst[loop_idx * n_ops + op];
        (ops[i].end == t).then_some(i)
    };
    let mut by_end: Vec<(u64, usize, usize)> = (0..ops.len())
        .map(|i| (ops[i].end, instance(i), i))
        .collect();
    by_end.sort_unstable();
    let ended_at = |t: u64| {
        let lo = by_end.partition_point(|e| e.0 < t);
        by_end[lo..]
            .iter()
            .take_while(move |e| e.0 == t)
            .map(|e| e.2)
    };
    let is_simd = |i: usize| ops[i].resource == Resource::Simd;

    let mut cur = (0..ops.len())
        .max_by_key(|&i| (ops[i].end, std::cmp::Reverse(instance(i))))
        .unwrap();
    let (mut nodes, mut rules) = (Vec::new(), Vec::new());
    loop {
        let so = ops[cur];
        let (rule, pred) = if so.start == 0 {
            (Rule::Origin, None)
        } else if let Some(i) =
            (trace.op(so.op).inputs().iter()).find_map(|d| ended(so.loop_idx, d.index(), so.start))
        {
            (Rule::Input, Some(i))
        } else if let Some(i) = (so.loop_idx > 0)
            .then(|| ended(so.loop_idx - 1, so.op.index(), so.start))
            .flatten()
        {
            (Rule::PreviousInstance, Some(i))
        } else if let Some(i) = ended_at(so.start).find(|&i| is_simd(i) == is_simd(cur)) {
            (Rule::SameGroup, Some(i))
        } else {
            let i = ended_at(so.start).next();
            assert!(i.is_some(), "no completion at cycle {}", so.start);
            (Rule::AnyGroup, i)
        };
        let bound = match rule {
            Rule::Origin => BindKind::Origin,
            Rule::Input | Rule::PreviousInstance => BindKind::Dependency,
            Rule::SameGroup | Rule::AnyGroup => BindKind::Resource,
        };
        nodes.push(CriticalNode {
            index: cur,
            loop_idx: so.loop_idx,
            op: so.op,
            resource: so.resource,
            cycles: so.end - so.start,
            transfer_stall: so.transfer_stall,
            bound,
        });
        rules.push(rule);
        match pred {
            Some(i) => cur = i,
            None => break,
        }
    }
    nodes.reverse();
    rules.reverse();
    let report = CriticalPathReport {
        nodes,
        total_cycles: schedule.total_cycles(),
    };
    (report, rules)
}

/// Panics unless `critical_path` equals the reference walk node for
/// node; returns the reference's rules.
fn assert_matches_reference(case: &str, schedule: &Schedule, graph: &DataflowGraph) -> Vec<Rule> {
    let (expected, rules) = reference_critical_path(schedule, graph);
    assert_eq!(schedule.critical_path(graph), expected, "{case}");
    assert_eq!(
        expected.attributed_cycles(),
        schedule.total_cycles(),
        "{case}"
    );
    rules
}

#[test]
fn critical_paths_match_the_reference_walk() {
    for (name, design) in designs() {
        let options = design_options(&design);
        for multiplier in [1, 8, 64] {
            let graph = batched(&design, multiplier);
            let schedule = run_pooled(&graph, design.array(), design.mapping(), &options);
            assert_matches_reference(&format!("{name} x{multiplier}"), &schedule, &graph);
        }
    }
    for seed in 0..RANDOM_CASES {
        let (graph, cfg, mapping, options) = random_case(seed);
        let schedule = run_pooled(&graph, &cfg, &mapping, &options);
        assert_matches_reference(&format!("random seed {seed}"), &schedule, &graph);
    }
}

/// Four completions tie at cycle 60 and two more at cycle 90, so each
/// rule must win against the ones after it. Pool ops are 8-row GEMMs on
/// one 8×8 sub-array (`22 + m` cycles); SIMD ops are one-lane `Relu`s
/// (one cycle per element).
///
/// | op | group | cycles | inputs | loop 0  | loop 1   |
/// |----|-------|--------|--------|---------|----------|
/// | a  | pool  | 30     |        | 0..30   | 30..60   |
/// | b  | pool  | 30     |        | 0..30   | 30..60   |
/// | d  | pool  | 45     |        | 0..45   | 45..90   |
/// | x  | SIMD  | 30     | b, a   | 30..60  | 60..90   |
/// | w  | SIMD  | 30     |        | 0..30   | 90..120  |
///
/// The path runs backwards from `w1`, the last finisher:
/// - `w1` waited for the SIMD unit since 30; at 90 the pool's `d1`
///   retires before `x1`, and the same-group `x1` binds;
/// - `x1` starts at 60, where its inputs `b1` and `a1`, its previous
///   instance `x0` and ops of both groups end; `x0` retires first, `a1`
///   before `b1`, and the first input in `inputs()` order, `b1`, binds;
/// - `b1` has no inputs; at 30 `a0` retires before `b0`, and its
///   previous instance `b0` binds;
/// - `b0` starts at 0.
///
/// The any-group rule never binds in a schedule `run_pooled` makes: a
/// start after cycle 0 follows either a dependency or a release of its
/// own group at that cycle.
fn tie_case() -> (DataflowGraph, ArrayConfig, Mapping, SimOptions) {
    let mut b = TraceBuilder::new("ties");
    let gemm = |m| OpKind::Gemm { m, n: 8, k: 8 };
    let relu = OpKind::Elementwise {
        elems: 30,
        func: EltFunc::Relu,
    };
    let a = b.push("a", gemm(8), Domain::Neural, DType::Int8, &[]);
    let b_op = b.push("b", gemm(8), Domain::Neural, DType::Int8, &[]);
    b.push("d", gemm(23), Domain::Neural, DType::Int8, &[]);
    b.push("x", relu, Domain::Neural, DType::Int8, &[b_op, a]);
    b.push("w", relu, Domain::Neural, DType::Int8, &[]);
    let graph = DataflowGraph::from_trace(b.finish(2).unwrap());
    let mapping = Mapping {
        n_l: vec![1; 3],
        n_v: Vec::new(),
        parallel: true,
    };
    let options = SimOptions {
        simd_lanes: 1,
        transfer: None,
    };
    (graph, ArrayConfig::new(8, 8, 3).unwrap(), mapping, options)
}

#[test]
fn every_tie_break_rule_binds_on_the_hand_built_path() {
    let (graph, cfg, mapping, options) = tie_case();
    let schedule = run_pooled(&graph, &cfg, &mapping, &options);
    let trace = graph.trace();
    let mut table: Vec<(&str, usize, u64, u64)> = (schedule.ops().iter())
        .map(|so| (trace.op(so.op).name(), so.loop_idx, so.start, so.end))
        .collect();
    table.sort_unstable();
    assert_eq!(
        table,
        [
            ("a", 0, 0, 30),
            ("a", 1, 30, 60),
            ("b", 0, 0, 30),
            ("b", 1, 30, 60),
            ("d", 0, 0, 45),
            ("d", 1, 45, 90),
            ("w", 0, 0, 30),
            ("w", 1, 90, 120),
            ("x", 0, 30, 60),
            ("x", 1, 60, 90),
        ]
    );
    let rules = assert_matches_reference("ties", &schedule, &graph);
    let path = schedule.critical_path(&graph);
    let nodes: Vec<(&str, usize, u64)> = (path.nodes.iter())
        .map(|n| {
            let so = schedule.ops()[n.index];
            (trace.op(n.op).name(), n.loop_idx, so.start)
        })
        .collect();
    assert_eq!(
        nodes,
        [("b", 0, 0), ("b", 1, 30), ("x", 1, 60), ("w", 1, 90)]
    );
    assert_eq!(
        rules,
        [
            Rule::Origin,
            Rule::PreviousInstance,
            Rule::Input,
            Rule::SameGroup
        ]
    );
}
