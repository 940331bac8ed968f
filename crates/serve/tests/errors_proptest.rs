//! Seeded property tests over the error taxonomy and builder
//! validation: every error renders a non-empty message, fault plans
//! survive their textual spec format and arbitrary specs never panic the
//! parser, backoff is deterministic and bounded, and degenerate
//! configurations never build (all rejection paths return before any
//! thread spawns, so they are cheap enough to fuzz). Each property runs
//! over seeds `0..CASES`; a failure names its seed.

use nsflow_serve::batcher::BatchPolicy;
use nsflow_serve::{AdmissionError, ConfigError, FaultPlan, RetryPolicy, Server};
use nsflow_tensor::rng::StdRng;

/// Cases per property.
const CASES: u64 = 256;

fn admission_error(rng: &mut StdRng) -> AdmissionError {
    match rng.gen_range(0..3) {
        0 => AdmissionError::QueueFull {
            capacity: rng.next_u64() as usize,
        },
        1 => AdmissionError::ShuttingDown,
        _ => AdmissionError::DeadlineInfeasible {
            deadline: rng.next_u64(),
            now: rng.next_u64(),
        },
    }
}

#[test]
fn admission_errors_render_their_numbers() {
    for seed in 0..CASES {
        let err = admission_error(&mut StdRng::seed_from_u64(seed));
        let msg = err.to_string();
        let numbers = match err {
            AdmissionError::QueueFull { capacity } => vec![capacity.to_string()],
            AdmissionError::DeadlineInfeasible { deadline, now } => {
                vec![deadline.to_string(), now.to_string()]
            }
            AdmissionError::ShuttingDown => Vec::new(),
        };
        assert!(!msg.is_empty(), "seed {seed}");
        for n in numbers {
            assert!(msg.contains(&n), "seed {seed}: {msg:?} lacks {n}");
        }
    }
}

#[test]
fn fault_plan_spec_round_trips() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let plan = FaultPlan {
            seed: rng.next_u64(),
            error_permille: rng.gen_range(0..=400),
            spike_permille: rng.gen_range(0..=300),
            spike_ticks: rng.next_u64(),
            stall_permille: rng.gen_range(0..=300),
            stall_ticks: rng.next_u64(),
        };
        assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan), "seed {seed}");
    }
}

#[test]
fn oversubscribed_fault_rates_never_validate() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (error, spike, stall) = (
            rng.gen_range(0..=2_000),
            rng.gen_range(0..=2_000),
            rng.gen_range(0..=2_000),
        );
        let plan = FaultPlan {
            error_permille: error,
            spike_permille: spike,
            stall_permille: stall,
            ..FaultPlan::default()
        };
        let total_permille = error + spike + stall;
        if total_permille > 1000 {
            assert_eq!(
                plan.validate(),
                Err(ConfigError::FaultRateOutOfRange { total_permille }),
                "seed {seed}"
            );
        } else {
            assert!(plan.validate().is_ok(), "seed {seed}");
        }
    }
}

#[test]
fn overflowing_fault_rates_are_rejected_not_wrapped() {
    let spec = "error=18446744073709551615,spike=2:0";
    assert_eq!(
        FaultPlan::parse(spec),
        Err(ConfigError::FaultRateOutOfRange {
            total_permille: u64::MAX
        })
    );
    let plan = FaultPlan {
        error_permille: u64::MAX,
        spike_permille: u64::MAX,
        stall_permille: u64::MAX,
        ..FaultPlan::default()
    };
    assert!(plan.validate().is_err());
}

/// Spec-shaped text with random keys, separators and numbers, some of
/// them huge or malformed.
fn fault_spec_like(rng: &mut StdRng) -> String {
    const PIECES: [&str; 14] = [
        "seed",
        "error",
        "spike",
        "stall",
        "=",
        ":",
        ",",
        " ",
        "-",
        "x",
        "18446744073709551615",
        "18446744073709551616",
        "1000",
        "\u{e9}",
    ];
    let mut spec = String::new();
    for _ in 0..rng.gen_range(0..16) {
        if rng.gen_range(0..3) == 0 {
            spec.push_str(&rng.gen_range(0..2_000u64).to_string());
        } else {
            spec.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
        }
    }
    spec
}

#[test]
fn arbitrary_fault_specs_parse_or_return_typed_errors() {
    for seed in 0..CASES {
        let spec = fault_spec_like(&mut StdRng::seed_from_u64(seed));
        match FaultPlan::parse(&spec) {
            Ok(plan) => assert!(plan.validate().is_ok(), "seed {seed}: {spec:?}"),
            Err(ConfigError::FaultSpec(_) | ConfigError::FaultRateOutOfRange { .. }) => {}
            Err(other) => panic!("seed {seed}: {spec:?} gave {other:?}"),
        }
    }
}

#[test]
fn fault_rolls_are_pure_and_respect_inertness() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (plan_seed, batch_id, attempt) = (rng.next_u64(), rng.next_u64(), rng.gen_range(1..=8));
        let inert = FaultPlan {
            seed: plan_seed,
            ..FaultPlan::default()
        };
        assert!(inert.roll(batch_id, attempt).is_none(), "seed {seed}");
        let plan = FaultPlan {
            seed: plan_seed,
            error_permille: 300,
            spike_permille: 300,
            spike_ticks: 10,
            stall_permille: 300,
            stall_ticks: 10,
        };
        assert_eq!(
            plan.roll(batch_id, attempt),
            plan.roll(batch_id, attempt),
            "seed {seed}"
        );
    }
}

#[test]
fn backoff_is_deterministic_and_capped() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff_base: rng.gen_range(1..=1_000_000),
            backoff_cap: rng.gen_range(1..=1_000_000),
            jitter_seed: rng.next_u64(),
        };
        let (attempt, salt) = (rng.gen_range(1..=64), rng.next_u64());
        let wait = policy.backoff(attempt, salt);
        assert_eq!(
            wait,
            policy.backoff(attempt, salt),
            "seed {seed}: pure function"
        );
        // Capped wait plus at most half-of-cap jitter.
        let cap = policy.backoff_cap;
        assert!(wait <= cap + cap / 2, "seed {seed}");
        // A zero base disables backoff entirely.
        let immediate = RetryPolicy {
            backoff_base: 0,
            ..policy
        };
        assert_eq!(immediate.backoff(attempt, salt), 0, "seed {seed}");
    }
}

#[test]
fn zero_bounds_never_build() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        // Redraw until at least one bound is zero.
        let (queue_capacity, max_batch, workers) = loop {
            let bounds = (
                rng.gen_range(0..=4),
                rng.gen_range(0..=4),
                rng.gen_range(0..=4),
            );
            if bounds.0 == 0 || bounds.1 == 0 || bounds.2 == 0 {
                break bounds;
            }
        };
        let result = Server::builder()
            .queue_capacity(queue_capacity)
            .batch(BatchPolicy {
                max_batch,
                max_wait: 100,
            })
            .workers(workers)
            .build();
        // Checked in declaration order; the first zero bound names the
        // error.
        let expected = if queue_capacity == 0 {
            ConfigError::ZeroQueueCapacity
        } else if max_batch == 0 {
            ConfigError::ZeroMaxBatch
        } else {
            ConfigError::ZeroWorkers
        };
        assert_eq!(result.err(), Some(expected), "seed {seed}");
    }
}

#[test]
fn infeasible_default_deadlines_never_build() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let max_wait = rng.gen_range(1..=1_000_000);
        let deadline_gap = rng.gen_range(1..=1_000_000);
        // Any default deadline strictly below the batch window is
        // rejected with both bounds named.
        let deadline = max_wait - deadline_gap.min(max_wait);
        let result = Server::builder()
            .batch(BatchPolicy {
                max_batch: 4,
                max_wait,
            })
            .deadline_default(deadline)
            .build();
        assert_eq!(
            result.err(),
            Some(ConfigError::DeadlineShorterThanBatchWindow { deadline, max_wait }),
            "seed {seed}"
        );
    }
}

#[test]
fn config_errors_always_render() {
    for variant in 0..=7 {
        let err = match variant {
            0 => ConfigError::ZeroQueueCapacity,
            1 => ConfigError::ZeroMaxBatch,
            2 => ConfigError::ZeroWorkers,
            3 => ConfigError::ZeroRetryAttempts,
            4 => ConfigError::DeadlineShorterThanBatchWindow {
                deadline: 1,
                max_wait: 2,
            },
            5 => ConfigError::FaultRateOutOfRange {
                total_permille: 1_234,
            },
            6 => ConfigError::TooManyWorkers {
                workers: 1_000,
                max: 256,
            },
            _ => ConfigError::WorkerSpawn {
                worker: 3,
                reason: "resource temporarily unavailable".into(),
            },
        };
        assert!(!err.to_string().is_empty());
    }
}
