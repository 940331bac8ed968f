//! Golden digests of the reasoners' answers.
//!
//! The VSA reasoners' kernels are free to change how they compute a
//! product (direct convolution, FFT, cached spectra, memoized pairs) but
//! not what they compute: every answer and every intermediate the
//! reasoner exposes must stay bit-identical. Two families of cases pin
//! that down, each folded into one FNV-1a digest per case:
//!
//! - the serving [`Executor`]'s answers for every workload kind over 64
//!   request seeds (the serving geometry, `block_dim` 32);
//! - [`VsaReasoner::solve_explained`] on every benchmark suite at the
//!   Tab. IV harness geometry (`block_dim` 64) and FP32, INT8 and INT4
//!   precision: the chosen candidate, the predicted and decoded
//!   attribute values, and the bit pattern of every candidate
//!   similarity.

use nsflow::serve::prelude::{Executor, ExecutorConfig, Request, WorkloadKind};
use nsflow::tensor::rng::StdRng;
use nsflow::workloads::accuracy::Precision;
use nsflow::workloads::raven::generate;
use nsflow::workloads::reasoning::{PipelineConfig, Solution, VsaReasoner};
use nsflow::workloads::suites::Suite;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn indices(&mut self, values: &[usize]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.u64(v as u64);
        }
    }
}

/// Request seeds per workload kind.
const SEEDS: u64 = 64;

/// Tasks solved per (suite, precision) case.
const TASKS: usize = 8;

/// Digest of the executor's answers per kind, in `WorkloadKind::all()`
/// order.
const EXECUTOR_DIGESTS: [(WorkloadKind, u64); 4] = [
    (WorkloadKind::Nvsa, 0x07bc_5d5e_32a8_e166),
    (WorkloadKind::Mimonet, 0x631b_3298_f5d0_6725),
    (WorkloadKind::Lvrf, 0xbd6a_79c6_3e99_2d01),
    (WorkloadKind::Prae, 0x2fca_607d_d9bb_5827),
];

/// Digest of `solve_explained` per suite (Tab. IV order) and precision.
const SOLVE_DIGESTS: [(Suite, &str, u64); 9] = [
    (Suite::RavenLike, "FP32", 0x0786_8f04_519b_3db7),
    (Suite::RavenLike, "INT8", 0xaada_77d4_c07a_40a3),
    (Suite::RavenLike, "INT4", 0x4400_186e_5393_33aa),
    (Suite::IRavenLike, "FP32", 0xb306_4906_85d7_a7d9),
    (Suite::IRavenLike, "INT8", 0x242f_844a_d0c8_c188),
    (Suite::IRavenLike, "INT4", 0xa71d_3600_77d6_85eb),
    (Suite::PgmLike, "FP32", 0x6314_af5d_b7bf_e92e),
    (Suite::PgmLike, "INT8", 0xfdfc_00c7_da40_f896),
    (Suite::PgmLike, "INT4", 0xf367_9b2c_0afd_c9b0),
];

fn precision(label: &str) -> Precision {
    [Precision::fp32(), Precision::int8(), Precision::int4()]
        .into_iter()
        .find(|p| p.label == label)
        .expect("pinned precision label")
}

fn fold_solution(h: &mut Fnv, s: &Solution) {
    h.u64(s.choice as u64);
    h.indices(&s.predicted);
    for row in &s.decoded_context {
        for cell in row {
            h.indices(cell);
        }
    }
    h.u64(s.candidate_sims.len() as u64);
    for sim in &s.candidate_sims {
        h.u64(u64::from(sim.to_bits()));
    }
}

#[test]
fn executor_answers_match_pinned_digests() {
    let executor = Executor::new(ExecutorConfig::default());
    let mut mismatches = Vec::new();
    for (kind, pinned) in EXECUTOR_DIGESTS {
        let mut h = Fnv::new();
        for seed in 0..SEEDS {
            h.u64(executor.execute(&Request::new(seed, kind, seed, 0)));
        }
        if h.0 != pinned {
            mismatches.push(format!("{kind}: {:#018x}", h.0));
        }
    }
    assert!(
        mismatches.is_empty(),
        "answer digests moved: {mismatches:?}"
    );
}

#[test]
fn solve_explained_matches_pinned_digests() {
    let mut mismatches = Vec::new();
    for (case, (suite, label, pinned)) in SOLVE_DIGESTS.into_iter().enumerate() {
        let p = precision(label);
        let params = suite.task_params();
        let config = PipelineConfig {
            block_dim: 64,
            neural_dtype: p.neural,
            symbolic_dtype: p.symbolic,
            ..suite.pipeline_config()
        };
        let mut rng = StdRng::seed_from_u64(0x7ab4 + case as u64);
        let reasoner = VsaReasoner::new(params.attributes, params.values, config, &mut rng);
        let mut h = Fnv::new();
        for _ in 0..TASKS {
            let task = generate(&params, &mut rng);
            fold_solution(&mut h, &reasoner.solve_explained(&task, &mut rng));
        }
        if h.0 != pinned {
            mismatches.push(format!("{} {label}: {:#018x}", suite.name(), h.0));
        }
    }
    assert!(mismatches.is_empty(), "solve digests moved: {mismatches:?}");
}
