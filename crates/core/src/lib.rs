//! # nsflow-core
//!
//! The end-to-end NSFlow framework (paper Sec. III): given a workload's
//! execution trace, the **frontend** builds the dataflow graph, runs the
//! two-phase DSE and plans memory and SIMD sizing; the **backend**
//! instantiates the hardware template on an FPGA device model, checks
//! resources, and emits the design configuration + host schedule; the
//! resulting deployment runs on the cycle-level simulator.
//!
//! ```text
//! trace ──frontend──▶ Design ──deploy──▶ Deployment ──run──▶ RunReport
//!         (graph, DSE,          (resource check,     (cycle-level
//!          memory, SIMD)         config emission)     schedule)
//! ```
//!
//! # Examples
//!
//! ```
//! use nsflow_core::NsFlow;
//! use nsflow_workloads::traces;
//!
//! let workload = traces::mimonet();
//! let design = NsFlow::new().compile(workload.trace)?;
//! let report = design.deploy().run();
//! assert!(report.seconds > 0.0);
//! # Ok::<(), nsflow_core::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// The request-level fan-out utility ([`par::parallel_map`],
/// [`par::KernelOptions`]) the serving executor runs a batch's requests
/// on. Physically hosted in
/// `nsflow-tensor` (the dependency-free base crate) so every kernel crate
/// can reach it; re-exported here as the framework-level name.
pub use nsflow_tensor::par;

/// The workspace's one seeded random-number generator
/// ([`rng::StdRng`], [`rng::SplitMix64`], [`rng::mix64`]). Hosted in
/// `nsflow-tensor` next to [`par`]; re-exported here as the
/// framework-level name.
pub use nsflow_tensor::rng;

/// The workspace observability layer: metrics registry, span timers and
/// deterministic [`telemetry::TelemetrySnapshot`] JSON snapshots.
/// Physically hosted in `nsflow-telemetry`; re-exported here as the
/// framework-level name.
pub use nsflow_telemetry as telemetry;

use nsflow_arch::memory::{MemoryPlan, TransferModel};
use nsflow_arch::{analytical, simd, ArrayConfig, Mapping, PrecisionConfig};
use nsflow_dse::{explore, DseOptions, DseResult};
use nsflow_fpga::design::{host_schedule, DesignConfig};
use nsflow_fpga::resources::{estimate, max_pes_for, DesignResources, Utilization};
use nsflow_fpga::{FpgaDevice, FpgaError};
use nsflow_graph::DataflowGraph;
use nsflow_sim::schedule::{self, Schedule, SimOptions};
use nsflow_trace::ExecutionTrace;

/// Errors from [`NsFlow::compile`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The generated design does not fit the target device.
    DeviceTooSmall(FpgaError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::DeviceTooSmall(e) => write!(f, "design does not fit device: {e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::DeviceTooSmall(e) => Some(e),
        }
    }
}

/// Framework entry point with target-device and precision settings.
#[derive(Debug, Clone, PartialEq)]
pub struct NsFlow {
    device: FpgaDevice,
    precision: PrecisionConfig,
    max_simd_lanes: usize,
}

impl Default for NsFlow {
    fn default() -> Self {
        NsFlow::new()
    }
}

impl NsFlow {
    /// Framework targeting the paper's deployment (AMD U250, mixed
    /// INT8/INT4 precision).
    #[must_use]
    pub fn new() -> Self {
        NsFlow {
            device: FpgaDevice::u250(),
            precision: PrecisionConfig::mixed(),
            max_simd_lanes: 512,
        }
    }

    /// Selects a different target device.
    #[must_use]
    pub fn with_device(mut self, device: FpgaDevice) -> Self {
        self.device = device;
        self
    }

    /// Selects the per-domain precisions.
    #[must_use]
    pub fn with_precision(mut self, precision: PrecisionConfig) -> Self {
        self.precision = precision;
        self
    }

    /// Runs the frontend: trace → dataflow graph → two-phase DSE →
    /// memory/SIMD planning → resource check.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::DeviceTooSmall`] if no feasible design fits
    /// the device.
    pub fn compile(&self, trace: ExecutionTrace) -> Result<Design, CompileError> {
        let graph = DataflowGraph::from_trace(trace);

        // ① SIMD sizing needs an array-time target, which needs the DSE;
        // run the DSE at a provisional width first.
        let provisional_lanes = 64usize;
        let dse_opts = DseOptions {
            max_pes: self.pe_budget(provisional_lanes)?,
            simd_lanes: provisional_lanes,
            ..DseOptions::default()
        };
        let dse = explore(&graph, &dse_opts);

        // ② Minimize the SIMD width that still hides behind the array
        // (the paper's sizing rule), then re-evaluate the timing.
        let simd_ops: Vec<_> = graph
            .trace()
            .ops()
            .iter()
            .filter(|op| op.kind().is_simd_op())
            .map(|op| *op.kind())
            .collect();
        let array_time = dse.timing.t_nn.max(dse.timing.t_vsa).max(1);
        let lanes = simd::minimal_lanes(&simd_ops, array_time, self.max_simd_lanes);

        // A wider-than-provisional SIMD unit eats into the DSP budget; if
        // the design no longer fits, re-run the DSE against the corrected
        // PE budget.
        let plan = MemoryPlan::from_requirements(&graph.memory_requirements());
        let mut dse = dse;
        let mut resources = estimate(&dse.config, &self.precision, lanes, &plan);
        if resources.utilization_on(&self.device).is_err() && lanes > provisional_lanes {
            let corrected_opts = DseOptions {
                max_pes: self.pe_budget(lanes)?,
                simd_lanes: lanes,
                ..dse_opts
            };
            dse = explore(&graph, &corrected_opts);
            resources = estimate(&dse.config, &self.precision, lanes, &plan);
        }
        let timing = analytical::loop_timing(&graph, &dse.config, &dse.mapping, lanes);
        let utilization = resources
            .utilization_on(&self.device)
            .map_err(CompileError::DeviceTooSmall)?;

        let default_partition = (
            dse.mapping.n_l.first().copied().unwrap_or(0),
            dse.mapping.n_v.first().copied().unwrap_or(0),
        );
        let config = DesignConfig {
            workload: graph.trace().name().to_string(),
            array: dse.config,
            default_partition,
            simd_lanes: lanes,
            memory: plan,
            precision: self.precision,
            freq_hz: self.device.default_freq_hz,
        };
        Ok(Design {
            graph,
            dse,
            timing,
            config,
            resources,
            utilization,
        })
    }

    /// The DSE's PE budget next to a SIMD unit of `lanes` lanes. It
    /// leaves ~10% headroom on the binding resource for routing and
    /// timing closure — standard FPGA practice; it also matches the
    /// paper's ~89% DSP deployments.
    ///
    /// # Errors
    ///
    /// [`CompileError::DeviceTooSmall`] when not one PE fits.
    fn pe_budget(&self, lanes: usize) -> Result<usize, CompileError> {
        match (max_pes_for(&self.device, &self.precision, lanes) as f64 * 0.9) as usize {
            0 => Err(CompileError::DeviceTooSmall(FpgaError::ResourceOverflow {
                resource: "PE".to_string(),
                required: 1,
                available: 0,
            })),
            budget => Ok(budget),
        }
    }
}

/// A compiled design: everything the backend needs to deploy.
#[derive(Debug, Clone)]
pub struct Design {
    /// The dataflow graph the design was generated for.
    pub graph: DataflowGraph,
    /// The DSE outcome (configuration + mapping + exploration stats).
    pub dse: DseResult,
    /// Loop timing at the final SIMD width.
    pub timing: analytical::LoopTiming,
    /// The emitted design configuration.
    pub config: DesignConfig,
    /// Absolute resource demand.
    pub resources: DesignResources,
    /// Utilization on the target device.
    pub utilization: Utilization,
}

impl Design {
    /// The selected array configuration.
    #[must_use]
    pub fn array(&self) -> &ArrayConfig {
        &self.config.array
    }

    /// The selected mapping.
    #[must_use]
    pub fn mapping(&self) -> &Mapping {
        &self.dse.mapping
    }

    /// Renders the design-configuration file.
    #[must_use]
    pub fn config_text(&self) -> String {
        self.config.to_config_text()
    }

    /// Renders the host kernel schedule.
    #[must_use]
    pub fn host_schedule(&self) -> String {
        host_schedule(&self.graph, &self.dse.mapping)
    }

    /// Renders the parameterized SystemVerilog template bundle (the
    /// "pre-defined RTL with scaling parameters" the backend would hand to
    /// synthesis).
    #[must_use]
    pub fn rtl_text(&self) -> String {
        nsflow_fpga::rtl::emit_rtl(&self.config)
    }

    /// Instantiates the deployment (the bitstream-on-device analog).
    #[must_use]
    pub fn deploy(&self) -> Deployment {
        Deployment {
            graph: self.graph.clone(),
            array: self.config.array,
            mapping: self.dse.mapping.clone(),
            simd_lanes: self.config.simd_lanes,
            freq_hz: self.config.freq_hz,
        }
    }
}

/// A deployed design ready to execute workloads.
#[derive(Debug, Clone)]
pub struct Deployment {
    graph: DataflowGraph,
    array: ArrayConfig,
    mapping: Mapping,
    simd_lanes: usize,
    freq_hz: f64,
}

/// Outcome of a batched throughput run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Number of workload instances executed.
    pub tasks: usize,
    /// Cycles for the whole batch ([`Schedule::total_cycles`]).
    pub cycles: u64,
    /// Wall-clock seconds for the whole batch.
    pub total_seconds: f64,
    /// Sustained throughput, tasks per second.
    pub throughput_per_s: f64,
}

/// Outcome of one end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total cycles for all loop iterations.
    pub cycles: u64,
    /// Wall-clock seconds at the deployment frequency.
    pub seconds: f64,
    /// Temporal utilization of the array partitions.
    pub array_utilization: f64,
}

impl Deployment {
    /// Executes the full workload on the cycle-level scheduler.
    #[must_use]
    pub fn run(&self) -> RunReport {
        self.run_with(&SimOptions {
            simd_lanes: self.simd_lanes,
            transfer: Some(TransferModel::default()),
        })
    }

    /// Executes `tasks` back-to-back workload instances and reports
    /// aggregate throughput. Because successive instances pipeline
    /// through the sub-array pool exactly like loop iterations do, batch
    /// throughput exceeds `1 / single-task latency`.
    ///
    /// # Panics
    ///
    /// Panics if `tasks == 0`.
    #[must_use]
    pub fn run_batch(&self, tasks: usize) -> BatchReport {
        assert!(tasks > 0, "need at least one task");
        let total_loops = self.graph.trace().loop_count() * tasks;
        let batched = self
            .graph
            .trace()
            .with_loop_count(total_loops)
            .expect("nonzero loop count");
        let graph = DataflowGraph::from_trace(batched);
        let schedule = schedule::run_pooled(
            &graph,
            &self.array,
            &self.mapping,
            &SimOptions {
                simd_lanes: self.simd_lanes,
                transfer: Some(TransferModel::default()),
            },
        );
        let seconds = schedule.seconds_at(self.freq_hz);
        BatchReport {
            tasks,
            cycles: schedule.total_cycles(),
            total_seconds: seconds,
            throughput_per_s: tasks as f64 / seconds,
        }
    }

    /// Executes with custom simulation options.
    ///
    /// Uses the pooled AdArray scheduler ([`schedule::run_pooled`]): the
    /// sub-arrays form a capacity pool and each kernel claims its mapped
    /// allocation — runtime array folding as the backend performs it.
    #[must_use]
    pub fn run_with(&self, options: &SimOptions) -> RunReport {
        let schedule = schedule::run_pooled(&self.graph, &self.array, &self.mapping, options);
        self.report_from(&schedule)
    }

    /// The deployment clock, Hz.
    #[must_use]
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    fn report_from(&self, schedule: &Schedule) -> RunReport {
        RunReport {
            cycles: schedule.total_cycles(),
            seconds: schedule.seconds_at(self.freq_hz),
            array_utilization: schedule.array_utilization(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, OpKind, TraceBuilder};

    fn small_trace(loops: usize) -> ExecutionTrace {
        let mut b = TraceBuilder::new("small");
        let c = b.push(
            "conv",
            OpKind::Gemm {
                m: 1024,
                n: 64,
                k: 128,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let v = b.push(
            "bind",
            OpKind::VsaConv { n_vec: 8, dim: 512 },
            Domain::Symbolic,
            DType::Int4,
            &[c],
        );
        let _s = b.push(
            "sim",
            OpKind::Similarity {
                n_vec: 8,
                dim: 2048,
            },
            Domain::Symbolic,
            DType::Int4,
            &[v],
        );
        b.finish(loops).unwrap()
    }

    #[test]
    fn compile_produces_feasible_design() {
        let design = NsFlow::new().compile(small_trace(8)).unwrap();
        assert!(design.array().total_pes() <= 12_000);
        assert!(design.utilization.dsp_pct <= 100.0);
        assert!(design.config.simd_lanes >= 8);
    }

    #[test]
    fn config_text_round_trips_through_parser() {
        let design = NsFlow::new().compile(small_trace(4)).unwrap();
        let parsed = DesignConfig::parse(&design.config_text()).unwrap();
        assert_eq!(parsed, design.config);
    }

    #[test]
    fn host_schedule_mentions_every_op() {
        let design = NsFlow::new().compile(small_trace(2)).unwrap();
        let sched = design.host_schedule();
        for op in design.graph.trace().ops() {
            assert!(sched.contains(op.name()), "schedule missing {}", op.name());
        }
    }

    #[test]
    fn run_report_is_consistent() {
        let design = NsFlow::new().compile(small_trace(8)).unwrap();
        let dep = design.deploy();
        let report = dep.run();
        assert!(report.cycles > 0);
        assert!((report.seconds - report.cycles as f64 / dep.freq_hz()).abs() < 1e-12);
        assert!(report.array_utilization > 0.0 && report.array_utilization <= 1.0);
    }

    #[test]
    fn more_loops_cost_more_cycles() {
        let d4 = NsFlow::new()
            .compile(small_trace(4))
            .unwrap()
            .deploy()
            .run();
        let d8 = NsFlow::new()
            .compile(small_trace(8))
            .unwrap()
            .deploy()
            .run();
        assert!(d8.cycles > d4.cycles);
    }

    #[test]
    fn small_device_yields_smaller_design_or_error() {
        let trace = small_trace(4);
        let big = NsFlow::new().compile(trace.clone()).unwrap();
        match NsFlow::new()
            .with_device(FpgaDevice::zcu104())
            .compile(trace)
        {
            Ok(small) => {
                assert!(small.array().total_pes() < big.array().total_pes());
            }
            Err(CompileError::DeviceTooSmall(_)) => {} // also acceptable
        }
    }

    #[test]
    fn prae_on_zcu104_is_device_too_small_at_both_precisions() {
        use nsflow_trace::emitter::emit_trace;
        use nsflow_trace::parser::{parse_trace, ParsePrecision};
        // After the emit → parse round trip the PrAE trace needs a SIMD
        // unit so wide that not one PE fits next to it on the ZCU104: a
        // zero PE budget, which must be an error, not a DSE panic.
        let workload = nsflow_workloads::traces::prae();
        let trace = &workload.trace;
        let (text, registry) = emit_trace(trace);
        for precision in [
            PrecisionConfig::mixed(),
            PrecisionConfig::uniform(DType::Int8),
        ] {
            let parse_precision = ParsePrecision {
                neural: precision.neural,
                symbolic: precision.symbolic,
            };
            let parsed = parse_trace(
                &text,
                workload.name,
                &registry,
                parse_precision,
                trace.loop_count(),
            )
            .unwrap();
            let result = NsFlow::new()
                .with_device(FpgaDevice::zcu104())
                .with_precision(precision)
                .compile(parsed);
            assert!(
                matches!(result, Err(CompileError::DeviceTooSmall(_))),
                "{precision:?}: {:?}",
                result.map(|d| d.config.array)
            );
        }
    }

    #[test]
    fn batch_throughput_beats_inverse_latency() {
        let design = NsFlow::new().compile(small_trace(4)).unwrap();
        let dep = design.deploy();
        let batch = dep.run_batch(8);
        let single = dep.run().seconds;
        assert_eq!(batch.tasks, 8);
        assert!(batch.total_seconds > 0.0);
        assert!(
            batch.throughput_per_s >= 0.99 / single,
            "pipelined batch throughput {} should beat 1/latency {}",
            batch.throughput_per_s,
            1.0 / single
        );
    }

    #[test]
    fn uniform_precision_is_respected_in_config() {
        let p = PrecisionConfig::uniform(DType::Int8);
        let design = NsFlow::new()
            .with_precision(p)
            .compile(small_trace(2))
            .unwrap();
        assert_eq!(design.config.precision, p);
    }
}
