//! Deterministic virtual-time serving simulation.
//!
//! The threaded [`Server`](crate::server::Server) measures wall time, so
//! its latency numbers vary run to run — useless for a CI-gated
//! benchmark. This module drives the *same* serving core
//! (`ServeCore`: admission gates, batch formation, the attempt loop
//! and all bookkeeping) from a discrete-event simulation in the
//! architecture's **cycle clock**: arrivals are an open-loop seeded
//! Poisson-like process, execution costs come from a [`CostModel`]
//! table, and every metric (latency percentiles, throughput, shed rate,
//! batch-size histogram) is bit-reproducible given the seed.
//!
//! [`CostModel::from_arch`] prices a batch of `n` instances of a kind
//! with [`Deployment::run_batch(n)`](nsflow_core::Deployment::run_batch):
//! the same `run_pooled` list scheduler, transfer model and
//! double-buffered memory that produce every other cycle number in the
//! workspace. A mixed batch costs the sum of its per-kind entries. What
//! a batch amortizes is whatever that scheduler overlaps between
//! instances, and nothing more.
//!
//! Because the simulator knows a request's execution cost up front,
//! its deadline gate is cost-informed: a budget smaller than one
//! inference is shed at admission. Failed attempts hold their lane busy
//! through the backoff. Fault draws hash only `(seed, batch id,
//! attempt)`, so a chaos run is as bit-reproducible as a clean one.
//!
//! Interarrival draws come from the workspace's [`SplitMix64`], so the
//! simulated timeline depends only on the seed and the cost table — the
//! committed `baselines/BENCH_serve.json` depends only on this file, the
//! serving core and the cycle-level scheduler.

use std::collections::{BTreeMap, VecDeque};

use nsflow_core::NsFlow;
use nsflow_telemetry::trace::PhaseStats;
use nsflow_tensor::rng::SplitMix64;
use nsflow_workloads::traces;

use crate::batcher::{Batch, BatchPolicy, Batcher};
use crate::core::{CoreConfig, Driver, ServeCore, ServeReport};
use crate::executor::Executor;
use crate::request::{AdmissionError, Request, WorkloadKind, NO_DEADLINE};
use crate::robust::{FaultPlan, RetryPolicy};

/// Exponential draw with the given mean, floored at 1 tick.
fn exp_ticks(rng: &mut SplitMix64, mean: f64) -> u64 {
    let u = rng.next_f64();
    (-(1.0 - u).ln() * mean).round().max(1.0) as u64
}

/// The per-request seed the simulation derives from its run seed —
/// public so tests can re-execute a simulated request directly.
#[must_use]
pub fn request_seed(run_seed: u64, id: u64) -> u64 {
    run_seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Batch sizes [`CostModel::synthetic`] prices: 1 through this.
const SYNTHETIC_MAX_BATCH: usize = 64;

/// Per-workload batch costs for the virtual-time simulation: one table
/// per [`WorkloadKind`] of the cycles `n` instances cost as one batch,
/// for `n` in `1..=max_batch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// `cycles[kind.index()][n - 1]`: cycles one lane spends running `n`
    /// instances of `kind` as one batch.
    cycles: [Vec<u64>; 4],
}

impl CostModel {
    /// Prices batches of 1 through `max_batch` instances of each kind
    /// with the cycle-level scheduler: each workload trace is compiled
    /// for the paper-default U250 target and entry `n` is
    /// [`Deployment::run_batch(n)`](nsflow_core::Deployment::run_batch)'s
    /// cycle count.
    ///
    /// This runs four full compiles (DSE included) and `4 · max_batch`
    /// batched schedules; call it once and reuse.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`, or if a paper workload stops fitting
    /// the default device — that would be a regression elsewhere in the
    /// workspace.
    #[must_use]
    pub fn from_arch(max_batch: usize) -> Self {
        assert!(max_batch >= 1, "need at least one batch size");
        let cycles = WorkloadKind::all().map(|kind| {
            let workload = traces::by_name(kind.name()).expect("kind names match traces");
            let design = NsFlow::new()
                .compile(workload.trace)
                .expect("paper workloads fit the default device");
            let deployment = design.deploy();
            (1..=max_batch)
                .map(|n| deployment.run_batch(n).cycles.max(1))
                .collect()
        });
        CostModel { cycles }
    }

    /// A test fake with the same affine table for every kind: `n`
    /// instances cost `per_batch + n · per_item` cycles, for `n` up to 64.
    #[must_use]
    pub fn synthetic(per_item: u64, per_batch: u64) -> Self {
        let table: Vec<u64> = (1..=SYNTHETIC_MAX_BATCH as u64)
            .map(|n| per_batch + n * per_item.max(1))
            .collect();
        CostModel {
            cycles: [(); 4].map(|()| table.clone()),
        }
    }

    /// The largest batch the table prices.
    #[must_use]
    pub fn max_batch(&self) -> usize {
        self.cycles[0].len()
    }

    /// Cycles one lane spends running `n` instances of `kind` as one
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= self.max_batch()`.
    #[must_use]
    pub fn cycles(&self, kind: WorkloadKind, n: usize) -> u64 {
        self.cycles[kind.index()][n - 1]
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Open-loop arrivals to generate.
    pub requests: usize,
    /// Mean interarrival gap in cycles (exponential draws, floored at
    /// 1).
    pub mean_interarrival: u64,
    /// Workload mix; request `i` gets `kinds[i % kinds.len()]`.
    pub kinds: Vec<WorkloadKind>,
    /// Admission bound on *waiting* requests (batcher pending + formed
    /// batches not yet dispatched). Arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Batch-formation policy; `max_wait` is in cycles.
    pub policy: BatchPolicy,
    /// Parallel execution lanes (the worker pool analog).
    pub lanes: usize,
    /// Seed for the arrival process and request seeds.
    pub seed: u64,
    /// Deadline *budget* in cycles applied to every arrival (`None` =
    /// no deadlines). Enforced at admission (cost-informed) and before
    /// each execution attempt.
    pub deadline: Option<u64>,
    /// Retry policy for injected-fault failures (default: one attempt,
    /// inert).
    pub retry: RetryPolicy,
    /// Seeded fault-injection plan (default: injects nothing).
    pub faults: FaultPlan,
    /// Flight-recorder capacity: lifecycle trace events retained for
    /// the report's [`TraceSnapshot`](crate::TraceSnapshot) (≈ 6 events
    /// per served request; 0 disables tracing).
    pub trace_capacity: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            requests: 512,
            mean_interarrival: 100_000,
            kinds: vec![WorkloadKind::Nvsa],
            queue_capacity: 64,
            policy: BatchPolicy {
                max_batch: 8,
                max_wait: 200_000,
            },
            lanes: 4,
            seed: 0x5f10,
            deadline: None,
            retry: RetryPolicy::default(),
            faults: FaultPlan::default(),
            trace_capacity: 4096,
        }
    }
}

/// Everything one simulation run produced.
///
/// Conservation: `stats.submitted + stats.shed == requests`, and
/// `stats.completed + stats.failed + stats.expired == stats.submitted`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// What the serving core recorded, in cycles. Response answers are
    /// 0 unless an executor was supplied.
    pub serve: ServeReport,
    /// Cycle the last batch that answered requests completed, exact
    /// even where the responses' latencies saturate.
    pub makespan: u64,
    /// Latency distribution of completed requests (all-zero when
    /// nothing completed).
    pub latency: PhaseStats,
    /// batch size → number of batches (executed members).
    pub batch_hist: BTreeMap<usize, u64>,
    /// Completed requests per million cycles.
    pub throughput_per_mcycle: f64,
    /// Fraction of arrivals shed.
    pub shed_rate: f64,
}

/// One lane's side of the attempt loop: virtual cycles from the cost
/// model, answers from the optional executor.
struct Lane<'a> {
    time: u64,
    cost: &'a CostModel,
    executor: Option<&'a Executor>,
}

impl Driver for Lane<'_> {
    fn now(&self) -> u64 {
        self.time
    }

    fn wait(&mut self, ticks: u64) {
        self.time = self.time.saturating_add(ticks);
    }

    fn execute(&mut self, members: &[Request]) -> Vec<u64> {
        // A mixed batch runs each kind's instances as one sub-batch.
        let mut counts = [0usize; 4];
        for request in members {
            counts[request.kind.index()] += 1;
        }
        let cycles = WorkloadKind::all()
            .into_iter()
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .map(|(kind, n)| self.cost.cycles(kind, n))
            .sum();
        self.wait(cycles);
        members
            .iter()
            .map(|request| self.executor.map_or(0, |ex| ex.execute(request)))
            .collect()
    }
}

/// Runs the discrete-event simulation. When `executor` is supplied,
/// every dispatched request is also executed functionally (real NVSA /
/// MIMONet / LVRF / PrAE inference) so responses carry real answers;
/// timing is unaffected either way.
///
/// # Panics
///
/// Panics on a zero-lane, zero-request or empty-mix configuration, on a
/// `max_batch` the cost table does not price, or on a `max_batch` or
/// `trace_capacity` too large to allocate.
#[must_use]
pub fn run(config: &SimConfig, cost: &CostModel, executor: Option<&Executor>) -> SimReport {
    assert!(config.lanes >= 1, "need at least one lane");
    assert!(config.requests >= 1, "need at least one request");
    assert!(!config.kinds.is_empty(), "need at least one workload kind");
    assert!(
        config.policy.max_batch <= cost.max_batch(),
        "max_batch {} exceeds the cost table, which prices batches up to {}",
        config.policy.max_batch,
        cost.max_batch()
    );

    // Open-loop arrival schedule.
    let mut rng = SplitMix64::new(config.seed);
    let mut arrivals = Vec::with_capacity(config.requests);
    let mut t = 0u64;
    for i in 0..config.requests {
        t += exp_ticks(&mut rng, config.mean_interarrival as f64);
        arrivals.push(Request {
            deadline: config.deadline.map_or(NO_DEADLINE, |b| t.saturating_add(b)),
            attempts_allowed: config.retry.max_attempts.max(1),
            ..Request::new(
                i as u64,
                config.kinds[i % config.kinds.len()],
                request_seed(config.seed, i as u64),
                t,
            )
        });
    }

    let core = ServeCore::new(CoreConfig {
        retry: config.retry,
        faults: config.faults,
        trace_capacity: config.trace_capacity,
    })
    .expect("trace_capacity must be allocatable");
    let mut batcher = Batcher::new(config.policy).expect("max_batch must be allocatable");
    let mut ready: VecDeque<(u64, Batch)> = VecDeque::new();
    let mut waiting_in_ready = 0usize;
    let mut lanes = vec![0u64; config.lanes];
    let mut next_arrival = 0usize;
    let mut now = 0u64;

    loop {
        // Dispatch formed batches onto lanes that are free *now*
        // (lowest-index free lane first — a fixed tie-break keeps the
        // timeline deterministic). Each dispatch runs the full attempt
        // sequence synchronously in virtual time, holding the lane busy
        // throughout.
        while !ready.is_empty() {
            let Some(lane) = (0..lanes.len()).find(|&l| lanes[l] <= now) else {
                break;
            };
            let (batch_id, batch) = ready.pop_front().expect("checked nonempty");
            waiting_in_ready -= batch.len();
            let mut driver = Lane {
                time: now,
                cost,
                executor,
            };
            core.run_batch(batch_id, batch, lane as u32, &mut driver);
            lanes[lane] = driver.time;
        }

        // Advance to the next event: arrival, flush deadline, or (when
        // work is queued behind busy lanes) a lane becoming free.
        let mut next = u64::MAX;
        if next_arrival < arrivals.len() {
            next = next.min(arrivals[next_arrival].arrival);
        }
        if let Some(deadline) = batcher.next_deadline() {
            next = next.min(deadline);
        }
        if !ready.is_empty() {
            next = next.min(lanes.iter().copied().min().expect("lanes nonempty"));
        }
        if next == u64::MAX {
            break; // drained: no arrivals, nothing pending, nothing queued
        }
        now = now.max(next);

        if let Some(batch) = batcher.poll(now) {
            waiting_in_ready += batch.len();
            ready.push_back(core.form(batch));
        }

        // Admit (or shed) every arrival due by `now`. Capacity bounds
        // the requests waiting in the batcher and in formed batches.
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival <= now {
            let request = arrivals[next_arrival];
            next_arrival += 1;
            let full = batcher.pending() + waiting_in_ready >= config.queue_capacity;
            let admitted = core.admit(&request, cost.cycles(request.kind, 1), || {
                if full {
                    Err(AdmissionError::QueueFull {
                        capacity: config.queue_capacity,
                    })
                } else {
                    Ok(())
                }
            });
            if admitted.is_ok() {
                if let Some(batch) = batcher.offer(request, now) {
                    waiting_in_ready += batch.len();
                    ready.push_back(core.form(batch));
                }
            }
        }
    }

    let serve = core.report();
    let latency = PhaseStats::from_samples(serve.responses.iter().map(|r| r.latency()).collect());
    let makespan = serve.last_completion;
    // An executed batch of size n answers n requests.
    let mut batch_hist: BTreeMap<usize, u64> = BTreeMap::new();
    for response in &serve.responses {
        *batch_hist.entry(response.batch_size()).or_insert(0) += 1;
    }
    for (size, count) in &mut batch_hist {
        *count /= *size as u64;
    }
    SimReport {
        makespan,
        latency,
        batch_hist,
        throughput_per_mcycle: serve.stats.completed as f64 / makespan.max(1) as f64 * 1e6,
        shed_rate: serve.stats.shed as f64 / config.requests as f64,
        serve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SimConfig {
        SimConfig {
            requests: 64,
            mean_interarrival: 50,
            kinds: vec![WorkloadKind::Nvsa, WorkloadKind::Lvrf],
            queue_capacity: 16,
            policy: BatchPolicy {
                max_batch: 4,
                max_wait: 100,
            },
            lanes: 2,
            seed: 7,
            trace_capacity: 4096,
            ..SimConfig::default()
        }
    }

    fn chaos_config() -> SimConfig {
        SimConfig {
            requests: 128,
            mean_interarrival: 20,
            deadline: Some(50_000),
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base: 100,
                backoff_cap: 1_000,
                jitter_seed: 3,
            },
            faults: FaultPlan {
                seed: 0xbad,
                error_permille: 250,
                spike_permille: 150,
                spike_ticks: 2_000,
                stall_permille: 100,
                stall_ticks: 1_500,
            },
            ..quick_config()
        }
    }

    #[test]
    fn same_seed_same_report() {
        let cost = CostModel::synthetic(1_000, 200);
        let a = run(&quick_config(), &cost, None);
        let b = run(&quick_config(), &cost, None);
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_run_is_deterministic_and_conserves_requests() {
        let cost = CostModel::synthetic(1_000, 200);
        let a = run(&chaos_config(), &cost, None);
        let b = run(&chaos_config(), &cost, None);
        assert_eq!(a, b, "chaos must replay bit-identically");
        assert!(
            a.serve.stats.faults_injected > 0,
            "plan must fire at these rates"
        );
        assert!(
            a.serve.stats.retries > 0,
            "exec errors must trigger retries"
        );
        let stats = a.serve.stats;
        assert_eq!(stats.submitted + stats.shed, chaos_config().requests as u64);
        assert_eq!(
            stats.completed + stats.failed + stats.expired,
            stats.submitted,
            "every admitted request must be accounted for"
        );
        assert_eq!(a.serve.failed.len() as u64, stats.failed);
    }

    #[test]
    fn conservation_holds() {
        let cost = CostModel::synthetic(1_000, 200);
        let report = run(&quick_config(), &cost, None);
        let stats = report.serve.stats;
        assert_eq!(stats.submitted + stats.shed, quick_config().requests as u64);
        assert_eq!(stats.completed, stats.submitted, "inert: nothing lost");
        let hist_total: u64 = report
            .batch_hist
            .iter()
            .map(|(size, count)| *size as u64 * count)
            .sum();
        assert_eq!(hist_total, stats.completed);
        assert_eq!(report.batch_hist.values().sum::<u64>(), stats.batches);
    }

    #[test]
    fn overload_sheds_but_never_deadlocks() {
        let config = SimConfig {
            mean_interarrival: 1, // arrival rate far beyond capacity
            queue_capacity: 4,
            ..quick_config()
        };
        let cost = CostModel::synthetic(10_000, 1_000);
        let report = run(&config, &cost, None);
        assert!(report.serve.stats.shed > 0, "overload must shed");
        assert!(
            report.serve.stats.submitted > 0,
            "some requests must still complete"
        );
        assert!(report.shed_rate > 0.0 && report.shed_rate < 1.0);
    }

    #[test]
    fn infeasible_deadlines_shed_everything() {
        // Budget below one inference: the cost-informed admission gate
        // sheds every arrival; the empty run must report zeros, not
        // panic.
        let config = SimConfig {
            deadline: Some(500),
            ..quick_config()
        };
        let cost = CostModel::synthetic(1_000, 200);
        let report = run(&config, &cost, None);
        assert_eq!(report.serve.stats.shed, config.requests as u64);
        assert_eq!(report.serve.stats.submitted, 0);
        assert_eq!(report.serve.stats.completed, 0);
        assert_eq!(report.latency.max, 0);
        assert_eq!(report.throughput_per_mcycle, 0.0);
    }

    #[test]
    fn makespan_outlives_saturated_latencies() {
        // One batch of 2^33 cycles: every latency saturates at u32::MAX,
        // while the makespan is the batch's exact completion cycle.
        let config = SimConfig {
            requests: 1,
            ..quick_config()
        };
        let cost = CostModel::synthetic(1 << 33, 0);
        let report = run(&config, &cost, None);
        let arrival = report.serve.trace.records[0].ts;
        assert_eq!(report.serve.stats.completed, 1);
        assert_eq!(report.latency.max, u64::from(u32::MAX));
        assert_eq!(
            report.makespan,
            arrival + config.policy.max_wait + (1 << 33)
        );
    }

    #[test]
    fn certain_faults_exhaust_retries() {
        let config = SimConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_base: 10,
                backoff_cap: 100,
                jitter_seed: 0,
            },
            faults: FaultPlan {
                seed: 1,
                error_permille: 1000, // every attempt fails
                ..FaultPlan::default()
            },
            ..quick_config()
        };
        let cost = CostModel::synthetic(1_000, 200);
        let report = run(&config, &cost, None);
        let stats = report.serve.stats;
        assert_eq!(stats.completed, 0, "nothing can succeed");
        assert_eq!(stats.shed, 0, "faults never refuse an arrival");
        assert_eq!(stats.failed, stats.submitted);
        assert_eq!(stats.submitted, config.requests as u64);
        assert!(stats.retries > 0, "each member retries once");
        for f in &report.serve.failed {
            assert_eq!(f.attempts, 2, "budget fully consumed");
        }
    }

    #[test]
    fn from_arch_table_matches_the_scheduler() {
        let cost = CostModel::from_arch(8);
        assert_eq!(cost.max_batch(), 8);
        for kind in WorkloadKind::all() {
            let workload = traces::by_name(kind.name()).unwrap();
            let design = NsFlow::new().compile(workload.trace).unwrap();
            let deployment = design.deploy();
            for n in 1..=8 {
                assert_eq!(
                    cost.cycles(kind, n),
                    deployment.run_batch(n).cycles,
                    "{kind:?} batch of {n}"
                );
            }
            assert_eq!(cost.cycles(kind, 1), deployment.run().cycles, "{kind:?}");
        }
    }

    #[test]
    fn mixed_batch_costs_the_sum_of_its_per_kind_entries() {
        // Distinct tables per kind, none affine, so a mix-up shows.
        let cost = CostModel {
            cycles: [
                vec![100, 150, 190],
                vec![1_000, 1_700, 2_300],
                vec![7, 9, 11],
                vec![40_000, 60_000, 70_000],
            ],
        };
        let mut lane = Lane {
            time: 5,
            cost: &cost,
            executor: None,
        };
        let members: Vec<Request> = [
            WorkloadKind::Nvsa,
            WorkloadKind::Lvrf,
            WorkloadKind::Nvsa,
            WorkloadKind::Prae,
            WorkloadKind::Nvsa,
        ]
        .into_iter()
        .enumerate()
        .map(|(id, kind)| Request::new(id as u64, kind, 0, 0))
        .collect();
        assert_eq!(lane.execute(&members), vec![0; 5]);
        assert_eq!(lane.time, 5 + 190 + 7 + 40_000);
    }

    #[test]
    #[should_panic(expected = "max_batch 65 exceeds the cost table")]
    fn max_batch_beyond_the_cost_table_panics() {
        let config = SimConfig {
            policy: BatchPolicy {
                max_batch: SYNTHETIC_MAX_BATCH + 1,
                max_wait: 100,
            },
            ..quick_config()
        };
        let _ = run(&config, &CostModel::synthetic(1_000, 200), None);
    }

    #[test]
    fn trace_covers_every_lifecycle_and_phases_add_up() {
        let cost = CostModel::synthetic(1_000, 200);
        let report = run(&quick_config(), &cost, None);
        let serve = &report.serve;
        // 6 events per served request + 1 per shed, all retained.
        assert_eq!(
            serve.trace.len() as u64,
            serve.stats.submitted * 6 + serve.stats.shed
        );
        assert_eq!(serve.trace.dropped, 0);
        assert_eq!(serve.phases.exec.count, serve.stats.submitted);
        // Per-request: queue + batch + exec spans compose the latency.
        let worst =
            serve.phases.queue_wait.max + serve.phases.batch_wait.max + serve.phases.exec.max;
        assert!(report.latency.max <= worst);
        assert!(serve.phases.exec.p50 >= 1_000, "at least one item's cost");
    }

    #[test]
    fn zero_trace_capacity_disables_tracing() {
        let cost = CostModel::synthetic(1_000, 200);
        let config = SimConfig {
            trace_capacity: 0,
            ..quick_config()
        };
        let report = run(&config, &cost, None);
        assert!(report.serve.trace.is_empty());
        assert_eq!(report.serve.phases.exec.count, 0);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let cost = CostModel::synthetic(500, 100);
        let report = run(&quick_config(), &cost, None);
        assert!(report.latency.p50 <= report.latency.p95);
        assert!(report.latency.p95 <= report.latency.p99);
        assert!(report.latency.p99 <= report.latency.max);
        assert!(report.latency.mean > 0.0);
    }
}
