//! Functional batch execution of serving requests.
//!
//! Each [`WorkloadKind`] is served by the matching functional pipeline
//! from `nsflow-workloads`:
//!
//! | kind    | pipeline                                                |
//! |---------|---------------------------------------------------------|
//! | nvsa    | [`VsaReasoner`] over a RAVEN-like task                  |
//! | prae    | [`VsaReasoner`] over a PGM-difficulty task              |
//! | lvrf    | [`SparseReasoner`] (sparse block codes)                 |
//! | mimonet | [`SuperpositionMemory::measure`] retrieval              |
//!
//! **Determinism contract:** every random draw a request needs — task
//! generation, perception noise, MIMONet's chosen items — comes from an
//! RNG seeded with the request's own `seed` (salted per kind). The
//! reasoners' codebooks and MIMONet's item and key memories are built
//! once from fixed seeds; MIMONet's on first use, since a server that
//! never sees a MIMONet request need not pay for them. An answer
//! therefore depends *only* on `(kind, seed)` — never on batch
//! composition, worker count, arrival order, or which request built the
//! memory — which is what the determinism tests and the single-thread
//! CI cell assert.

use std::sync::OnceLock;

use nsflow_tensor::par::KernelOptions;
use nsflow_tensor::rng::StdRng;
use nsflow_workloads::raven;
use nsflow_workloads::reasoning::VsaReasoner;
use nsflow_workloads::sparse_reasoning::{SparsePipelineConfig, SparseReasoner};
use nsflow_workloads::suites::Suite;
use nsflow_workloads::superposition::{CapacityConfig, SuperpositionMemory};

use crate::error::ConfigError;
use crate::request::{Request, WorkloadKind};

/// Fixed codebook seeds: answers must not depend on which server
/// instance built the reasoners.
const NVSA_CODEBOOK_SEED: u64 = 0x6e76_7361; // "nvsa"
const PRAE_CODEBOOK_SEED: u64 = 0x7072_6165; // "prae"
const LVRF_CODEBOOK_SEED: u64 = 0x6c76_7266; // "lvrf"
const MIMONET_CODEBOOK_SEED: u64 = 0x6d69_6d6f; // "mimo"

/// Per-kind salt so the same client seed yields independent streams on
/// different workloads.
fn request_rng(kind: WorkloadKind, seed: u64) -> StdRng {
    let salt = match kind {
        WorkloadKind::Nvsa => 0x01,
        WorkloadKind::Mimonet => 0x02,
        WorkloadKind::Lvrf => 0x03,
        WorkloadKind::Prae => 0x04,
    };
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorConfig {
    /// How many of a batch's requests [`Executor::execute_batch`] runs at
    /// once, one request per thread. Each request itself runs on one
    /// thread, so answers are identical at every setting.
    pub kernels: KernelOptions,
    /// Elements per block for the serving reasoners. The serving
    /// default (32) halves the pipelines' footprint relative to the
    /// accuracy harness (64) — latency matters more than reproducing
    /// Tab. IV margins here.
    pub block_dim: usize,
    /// MIMONet superposition width per request (the width MIMONet's
    /// memory is built at).
    pub superposition: usize,
    /// MIMONet retrieval trials per request.
    pub trials: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            kernels: KernelOptions::auto(),
            block_dim: 32,
            superposition: 4,
            trials: 8,
        }
    }
}

impl ExecutorConfig {
    /// Variant that runs a batch's requests one after another.
    #[must_use]
    pub fn serial() -> Self {
        ExecutorConfig {
            kernels: KernelOptions::serial(),
            ..ExecutorConfig::default()
        }
    }

    /// Checks the bounds the workloads need before any request runs: a
    /// nonzero `block_dim`, and a `superposition` width MIMONet's item
    /// memory can fill with distinct items.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.block_dim == 0 {
            return Err(ConfigError::ZeroBlockDim);
        }
        let items = self.mimonet_memory().items;
        if self.superposition == 0 || self.superposition > items {
            return Err(ConfigError::SuperpositionOutOfRange {
                superposition: self.superposition,
                items,
            });
        }
        Ok(())
    }

    /// The geometry of MIMONet's item and key memories.
    fn mimonet_memory(&self) -> CapacityConfig {
        CapacityConfig {
            block_dim: self.block_dim,
            ..CapacityConfig::default()
        }
    }
}

/// Shared, thread-safe executor: codebooks and engines are built once
/// and reused by every worker.
#[derive(Debug)]
pub struct Executor {
    nvsa: VsaReasoner,
    prae: VsaReasoner,
    lvrf: SparseReasoner,
    /// Built by the first MIMONet request, from [`MIMONET_CODEBOOK_SEED`].
    mimonet: OnceLock<SuperpositionMemory>,
    config: ExecutorConfig,
}

impl Executor {
    /// Builds the per-workload reasoners from fixed codebook seeds.
    #[must_use]
    pub fn new(config: ExecutorConfig) -> Self {
        let nvsa_params = Suite::RavenLike.task_params();
        let nvsa_cfg = nsflow_workloads::reasoning::PipelineConfig {
            block_dim: config.block_dim,
            ..Suite::RavenLike.pipeline_config()
        };
        let nvsa = VsaReasoner::new(
            nvsa_params.attributes,
            nvsa_params.values,
            nvsa_cfg,
            &mut StdRng::seed_from_u64(NVSA_CODEBOOK_SEED),
        );

        let prae_params = Suite::PgmLike.task_params();
        let prae_cfg = nsflow_workloads::reasoning::PipelineConfig {
            block_dim: config.block_dim,
            ..Suite::PgmLike.pipeline_config()
        };
        let prae = VsaReasoner::new(
            prae_params.attributes,
            prae_params.values,
            prae_cfg,
            &mut StdRng::seed_from_u64(PRAE_CODEBOOK_SEED),
        );

        let lvrf_params = Suite::RavenLike.task_params();
        let lvrf_cfg = SparsePipelineConfig {
            block_dim: config.block_dim,
            ..SparsePipelineConfig::default()
        };
        let lvrf = SparseReasoner::new(
            lvrf_params.attributes,
            lvrf_params.values,
            lvrf_cfg,
            &mut StdRng::seed_from_u64(LVRF_CODEBOOK_SEED),
        );

        Executor {
            nvsa,
            prae,
            lvrf,
            mimonet: OnceLock::new(),
            config,
        }
    }

    /// MIMONet's item and key memories, built on first use.
    fn mimonet(&self) -> &SuperpositionMemory {
        self.mimonet.get_or_init(|| {
            SuperpositionMemory::new(
                self.config.mimonet_memory(),
                self.config.superposition,
                &mut StdRng::seed_from_u64(MIMONET_CODEBOOK_SEED),
            )
        })
    }

    /// Runs one request to completion and returns its scalar answer
    /// (candidate index for RPM workloads, accuracy permille for
    /// MIMONet).
    #[must_use]
    pub fn execute(&self, request: &Request) -> u64 {
        let mut rng = request_rng(request.kind, request.seed);
        match request.kind {
            WorkloadKind::Nvsa => {
                let task = raven::generate(&Suite::RavenLike.task_params(), &mut rng);
                self.nvsa.solve(&task, &mut rng) as u64
            }
            WorkloadKind::Prae => {
                let task = raven::generate(&Suite::PgmLike.task_params(), &mut rng);
                self.prae.solve(&task, &mut rng) as u64
            }
            WorkloadKind::Lvrf => {
                let task = raven::generate(&Suite::RavenLike.task_params(), &mut rng);
                self.lvrf.solve(&task, &mut rng) as u64
            }
            WorkloadKind::Mimonet => {
                let report = self.mimonet().measure(self.config.trials, &mut rng);
                (report.retrieval_accuracy * 1000.0).round() as u64
            }
        }
    }

    /// Executes every request in a batch and returns the answers in
    /// input order.
    ///
    /// Requests fan out over up to [`ExecutorConfig::kernels`] threads,
    /// one request per thread ([`nsflow_tensor::par::parallel_map`]);
    /// this is the one place the host runs work in parallel. Answers come
    /// back in input order and are identical at every thread count, so
    /// batching is invisible to clients.
    #[must_use]
    pub fn execute_batch(&self, requests: &[Request]) -> Vec<u64> {
        let threads = self.config.kernels.resolve().min(requests.len().max(1));
        nsflow_tensor::par::parallel_map(requests, threads, |request| self.execute(request))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: WorkloadKind, seed: u64) -> Request {
        Request::new(seed, kind, seed, 0)
    }

    #[test]
    fn answers_depend_only_on_kind_and_seed() {
        // Two independently built executors share codebooks (fixed seeds),
        // so the same request gets the same answer from either.
        let a = Executor::new(ExecutorConfig::default());
        let b = Executor::new(ExecutorConfig::default());
        for kind in WorkloadKind::all() {
            for seed in [0u64, 1, 42] {
                let r = req(kind, seed);
                assert_eq!(a.execute(&r), b.execute(&r), "{kind} seed {seed}");
            }
        }
    }

    #[test]
    fn batch_composition_does_not_change_answers() {
        // Four threads whatever the host or `NSFLOW_THREADS` says, so the
        // batch fan-out really runs in parallel here.
        let ex = Executor::new(ExecutorConfig {
            kernels: KernelOptions::with_threads(4),
            ..ExecutorConfig::default()
        });
        let batch: Vec<Request> = (0..8)
            .map(|s| req(WorkloadKind::all()[s as usize % 4], s))
            .collect();
        let solo: Vec<u64> = batch.iter().map(|r| ex.execute(r)).collect();
        assert_eq!(solo, ex.execute_batch(&batch));
    }
}
