//! Robustness policies: bounded retries with deterministic backoff and
//! seeded fault injection.
//!
//! Everything in this module is **clock-agnostic** in the same spirit
//! as [`crate::batcher`]: callers pass the tick, batch and attempt in, nothing here reads a clock or an OS
//! entropy source. That is what lets the identical policy code run
//! under the threaded wall-clock server and the virtual-time simulator
//! ([`crate::simlab`]) — and what makes chaos runs bit-reproducible:
//! a [`FaultPlan`] draws every fault from a seeded hash of
//! `(batch id, attempt)`, so the same seed replays the same faults in
//! either driver.
//!
//! Both policies are **inert** unless configured: the default
//! [`RetryPolicy`] executes once and the default [`FaultPlan`] injects
//! nothing.

use std::fmt;

// All robustness randomness (fault draws, backoff jitter) funnels
// through this stateless hash so replays are exact.
use nsflow_tensor::rng::mix64;

use crate::error::ConfigError;

/// Bounded-retry policy with deterministic exponential backoff.
///
/// `max_attempts` counts *executions*, not re-executions: the default
/// of 1 means "execute once, never retry" and is completely inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total execution attempts a request is allowed (≥ 1).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in ticks; doubles per
    /// subsequent failure. 0 retries immediately.
    pub backoff_base: u64,
    /// Upper bound on a single backoff wait (0 = uncapped).
    pub backoff_cap: u64,
    /// Seed for the jitter added to each backoff wait.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: 0,
            backoff_cap: 0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Checks the policy's invariants.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroRetryAttempts`] when `max_attempts == 0`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_attempts == 0 {
            return Err(ConfigError::ZeroRetryAttempts);
        }
        Ok(())
    }

    /// Ticks to wait after failed attempt number `attempt` (1-based),
    /// before attempt `attempt + 1`. Deterministic: base · 2^(attempt−1),
    /// capped at `backoff_cap`, plus seeded jitter of at most half the
    /// capped wait. `salt` decorrelates concurrent retry streams (the
    /// server salts with the batch id).
    #[must_use]
    pub fn backoff(&self, attempt: u32, salt: u64) -> u64 {
        if self.backoff_base == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self.backoff_base.saturating_mul(1u64 << exp);
        let capped = if self.backoff_cap > 0 {
            raw.min(self.backoff_cap)
        } else {
            raw
        };
        let jitter = mix64(self.jitter_seed ^ salt ^ u64::from(attempt)) % (capped / 2 + 1);
        capped.saturating_add(jitter)
    }
}

/// One injected fault, as drawn from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The batch execution fails outright; surviving members are
    /// retried under the [`RetryPolicy`].
    ExecError,
    /// Execution succeeds but takes extra ticks (a slow batch).
    LatencySpike {
        /// Extra ticks added to the batch's execution time.
        extra: u64,
    },
    /// The worker stalls *before* executing (a hung lane): the batch
    /// succeeds but starts late.
    WorkerStall {
        /// Ticks the worker is stalled for.
        stall: u64,
    },
}

/// Seeded per-batch fault schedule.
///
/// Each batch execution attempt rolls once against the plan: a hash of
/// `(seed, batch id, attempt)` picks a fault (or none) with the
/// configured permille probabilities. The draw depends only on those
/// three values — not on thread timing — so the threaded server and
/// the simulator inject the *same* faults for the same seed, and a
/// chaos run replays bit-identically.
///
/// The default plan is all-zero and injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the fault draws.
    pub seed: u64,
    /// Probability (permille) that an attempt fails with
    /// [`Fault::ExecError`].
    pub error_permille: u64,
    /// Probability (permille) of a [`Fault::LatencySpike`].
    pub spike_permille: u64,
    /// Extra ticks a latency spike adds.
    pub spike_ticks: u64,
    /// Probability (permille) of a [`Fault::WorkerStall`].
    pub stall_permille: u64,
    /// Ticks a worker stall lasts.
    pub stall_ticks: u64,
}

impl FaultPlan {
    /// True when the plan can never inject a fault.
    #[must_use]
    pub(crate) fn is_inert(&self) -> bool {
        self.error_permille == 0 && self.spike_permille == 0 && self.stall_permille == 0
    }

    /// Checks the plan's invariants.
    ///
    /// # Errors
    ///
    /// [`ConfigError::FaultRateOutOfRange`] when the three permille
    /// rates sum past 1000 (a sum past `u64::MAX` reports `u64::MAX`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let total_permille = self
            .error_permille
            .checked_add(self.spike_permille)
            .and_then(|sum| sum.checked_add(self.stall_permille))
            .unwrap_or(u64::MAX);
        if total_permille > 1000 {
            return Err(ConfigError::FaultRateOutOfRange { total_permille });
        }
        Ok(())
    }

    /// Rolls the fault schedule for execution `attempt` (1-based) of
    /// batch `batch_id`. Pure: same plan, batch and attempt → same
    /// outcome, in every driver.
    #[must_use]
    pub fn roll(&self, batch_id: u64, attempt: u32) -> Option<Fault> {
        if self.is_inert() {
            return None;
        }
        let draw = mix64(
            self.seed
                ^ batch_id.wrapping_mul(0xa076_1d64_78bd_642f)
                ^ u64::from(attempt).wrapping_mul(0xe703_7ed1_a0b4_28db),
        ) % 1000;
        let spike_below = self.error_permille.saturating_add(self.spike_permille);
        if draw < self.error_permille {
            Some(Fault::ExecError)
        } else if draw < spike_below {
            Some(Fault::LatencySpike {
                extra: self.spike_ticks,
            })
        } else if draw < spike_below.saturating_add(self.stall_permille) {
            Some(Fault::WorkerStall {
                stall: self.stall_ticks,
            })
        } else {
            None
        }
    }

    /// Parses the CLI spec format: comma-separated `key=value` fields.
    ///
    /// - `seed=N` — fault-draw seed,
    /// - `error=P` — exec-error permille,
    /// - `spike=P:T` — latency-spike permille and extra ticks,
    /// - `stall=P:T` — worker-stall permille and stall ticks.
    ///
    /// Example: `seed=7,error=50,spike=100:25000,stall=10:100000`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::FaultSpec`] on unknown keys or malformed numbers,
    /// [`ConfigError::FaultRateOutOfRange`] when the rates sum past
    /// 1000.
    pub fn parse(spec: &str) -> Result<FaultPlan, ConfigError> {
        let bad = || ConfigError::FaultSpec(spec.to_string());
        let mut plan = FaultPlan::default();
        for field in spec.split(',').filter(|f| !f.is_empty()) {
            let (key, value) = field.split_once('=').ok_or_else(bad)?;
            let parse_u64 = |s: &str| s.trim().parse::<u64>().map_err(|_| bad());
            match key.trim() {
                "seed" => plan.seed = parse_u64(value)?,
                "error" => plan.error_permille = parse_u64(value)?,
                "spike" => {
                    let (p, t) = value.split_once(':').ok_or_else(bad)?;
                    plan.spike_permille = parse_u64(p)?;
                    plan.spike_ticks = parse_u64(t)?;
                }
                "stall" => {
                    let (p, t) = value.split_once(':').ok_or_else(bad)?;
                    plan.stall_permille = parse_u64(p)?;
                    plan.stall_ticks = parse_u64(t)?;
                }
                _ => return Err(bad()),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},error={},spike={}:{},stall={}:{}",
            self.seed,
            self.error_permille,
            self.spike_permille,
            self.spike_ticks,
            self.stall_permille,
            self.stall_ticks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policies_are_inert() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.max_attempts, 1);
        assert_eq!(retry.backoff(1, 0), 0);
        assert!(FaultPlan::default().is_inert());
        assert_eq!(FaultPlan::default().roll(0, 1), None);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 5,
            backoff_base: 100,
            backoff_cap: 1_000,
            jitter_seed: 42,
        };
        let b1 = policy.backoff(1, 7);
        let b2 = policy.backoff(2, 7);
        let b3 = policy.backoff(3, 7);
        assert_eq!(b1, policy.backoff(1, 7), "same inputs, same wait");
        // Base grows 100 → 200 → 400; jitter adds at most half.
        assert!((100..=150).contains(&b1), "b1 = {b1}");
        assert!((200..=300).contains(&b2), "b2 = {b2}");
        assert!((400..=600).contains(&b3), "b3 = {b3}");
        // Far attempts are capped at backoff_cap (+ half jitter).
        assert!(policy.backoff(30, 7) <= 1_500);
        // Different salts decorrelate.
        assert_ne!(policy.backoff(2, 1), policy.backoff(2, 2));
    }

    #[test]
    fn fault_rolls_replay_and_hit_configured_rates() {
        let plan = FaultPlan {
            seed: 0xc0ffee,
            error_permille: 200,
            spike_permille: 100,
            spike_ticks: 500,
            stall_permille: 50,
            stall_ticks: 900,
        };
        let (mut errors, mut spikes, mut stalls) = (0u32, 0u32, 0u32);
        for batch in 0..4000u64 {
            match plan.roll(batch, 1) {
                Some(Fault::ExecError) => errors += 1,
                Some(Fault::LatencySpike { extra }) => {
                    assert_eq!(extra, 500);
                    spikes += 1;
                }
                Some(Fault::WorkerStall { stall }) => {
                    assert_eq!(stall, 900);
                    stalls += 1;
                }
                None => {}
            }
            assert_eq!(plan.roll(batch, 1), plan.roll(batch, 1), "pure draw");
        }
        // 4000 draws at 200/100/50 permille: expect ~800/~400/~200.
        assert!((600..=1000).contains(&errors), "errors = {errors}");
        assert!((280..=520).contains(&spikes), "spikes = {spikes}");
        assert!((120..=280).contains(&stalls), "stalls = {stalls}");
        // Attempts draw independently.
        assert!((0..=4000).contains(&errors));
    }

    #[test]
    fn fault_plan_spec_round_trips() {
        let spec = "seed=7,error=50,spike=100:25000,stall=10:100000";
        let plan = FaultPlan::parse(spec).expect("valid spec");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.error_permille, 50);
        assert_eq!(plan.spike_permille, 100);
        assert_eq!(plan.spike_ticks, 25_000);
        assert_eq!(plan.stall_permille, 10);
        assert_eq!(plan.stall_ticks, 100_000);
        assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
        assert!(FaultPlan::parse("error=abc").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("spike=10").is_err(), "spike needs :ticks");
        assert_eq!(
            FaultPlan::parse("error=900,spike=200:5"),
            Err(ConfigError::FaultRateOutOfRange {
                total_permille: 1100
            })
        );
    }

    #[test]
    fn policy_validation_rejects_degenerate_bounds() {
        assert_eq!(
            RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            }
            .validate(),
            Err(ConfigError::ZeroRetryAttempts)
        );
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(FaultPlan::default().validate().is_ok());
    }
}
