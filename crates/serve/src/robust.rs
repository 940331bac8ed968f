//! Robustness policies: bounded retries with deterministic backoff,
//! seeded fault injection and load-watermark degradation.
//!
//! Everything in this module is a **clock-agnostic, allocation-light
//! state machine** in the same spirit as [`crate::batcher`]: callers
//! pass the current tick in, nothing here reads a clock or an OS
//! entropy source. That is what lets the identical policy code run
//! under the threaded wall-clock server and the virtual-time simulator
//! ([`crate::simlab`]) — and what makes chaos runs bit-reproducible:
//! a [`FaultPlan`] draws every fault from a seeded hash of
//! `(batch id, attempt)`, so the same seed replays the same faults in
//! either driver.
//!
//! All three policies are **inert** unless configured: the default
//! [`RetryPolicy`] executes once, the default [`FaultPlan`] injects
//! nothing, and degradation acts only when a [`DegradationPolicy`] is
//! set. A server built without explicit robustness configuration
//! behaves byte-for-byte like the pre-robustness runtime.

use std::fmt;

use nsflow_telemetry::trace::PhaseStats;
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

/// Graceful-degradation policy: when load crosses the high watermark,
/// shrink batches (bounding per-batch latency) and optionally shed
/// low-priority work; recover only after load has stayed below the low
/// watermark for `min_dwell` ticks (hysteresis, so the server does not
/// flap at the threshold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Queue depth (waiting requests) at which degraded mode engages.
    pub high_watermark: usize,
    /// Queue depth below which recovery *may* begin. Must be
    /// `< high_watermark`.
    pub low_watermark: usize,
    /// p95 of recent batch execution latency (ticks) that also engages
    /// degraded mode; 0 disables the latency trigger.
    pub exec_p95_limit: u64,
    /// `max_batch` bound applied while degraded. Must be in
    /// `1..=max_batch`.
    pub degraded_max_batch: usize,
    /// Shed [`Priority::Low`](crate::request::Priority::Low) work at
    /// admission while degraded.
    pub shed_low_priority: bool,
    /// Ticks load must stay calm before degraded mode disengages.
    pub min_dwell: u64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            high_watermark: 48,
            low_watermark: 16,
            exec_p95_limit: 0,
            degraded_max_batch: 2,
            shed_low_priority: true,
            min_dwell: 10_000,
        }
    }
}

impl DegradationPolicy {
    /// Checks the policy's invariants against the batch policy it will
    /// govern.
    ///
    /// # Errors
    ///
    /// [`ConfigError::InvertedWatermarks`] or
    /// [`ConfigError::DegradedBatchOutOfRange`].
    pub fn validate(&self, max_batch: usize) -> Result<(), ConfigError> {
        if self.low_watermark >= self.high_watermark {
            return Err(ConfigError::InvertedWatermarks {
                low: self.low_watermark,
                high: self.high_watermark,
            });
        }
        if self.degraded_max_batch == 0 || self.degraded_max_batch > max_batch {
            return Err(ConfigError::DegradedBatchOutOfRange {
                degraded: self.degraded_max_batch,
                max_batch,
            });
        }
        Ok(())
    }
}

/// Recent exec-latency samples kept for the p95 trigger.
const EXEC_WINDOW: usize = 32;

/// Tracks load against a [`DegradationPolicy`] and drives the
/// degraded/normal transitions with hysteresis.
#[derive(Debug, Clone)]
pub(crate) struct LoadMonitor {
    policy: DegradationPolicy,
    degraded: bool,
    /// Tick at which load last *became* calm (watermark + latency both
    /// below their recovery bounds); `None` while overloaded.
    calm_since: Option<u64>,
    exec_samples: [u64; EXEC_WINDOW],
    exec_len: usize,
    exec_next: usize,
    degraded_ticks: u64,
}

impl LoadMonitor {
    /// New monitor, starting in normal (non-degraded) mode.
    #[must_use]
    pub fn new(policy: DegradationPolicy) -> Self {
        LoadMonitor {
            policy,
            degraded: false,
            calm_since: None,
            exec_samples: [0; EXEC_WINDOW],
            exec_len: 0,
            exec_next: 0,
            degraded_ticks: 0,
        }
    }

    /// Feeds one batch execution latency sample (ticks).
    pub(crate) fn observe_exec(&mut self, latency: u64) {
        self.exec_samples[self.exec_next] = latency;
        self.exec_next = (self.exec_next + 1) % EXEC_WINDOW;
        self.exec_len = (self.exec_len + 1).min(EXEC_WINDOW);
    }

    /// p95 of the retained exec-latency window (0 with no samples).
    #[must_use]
    pub(crate) fn exec_p95(&self) -> u64 {
        PhaseStats::from_samples(self.exec_samples[..self.exec_len].to_vec()).p95
    }

    /// Re-evaluates degraded mode at tick `now` against the current
    /// queue depth. Engages immediately on overload; disengages only
    /// after `min_dwell` calm ticks. Returns whether the server is
    /// degraded after the update.
    pub fn update(&mut self, now: u64, queue_depth: usize) -> bool {
        let p95 = self.exec_p95();
        let latency_hot = self.policy.exec_p95_limit > 0 && p95 > self.policy.exec_p95_limit;
        let overloaded = queue_depth >= self.policy.high_watermark || latency_hot;
        if !self.degraded {
            if overloaded {
                self.degraded = true;
                self.calm_since = None;
            }
        } else {
            let calm = queue_depth <= self.policy.low_watermark && !latency_hot;
            if calm {
                let since = *self.calm_since.get_or_insert(now);
                if now.saturating_sub(since) >= self.policy.min_dwell {
                    self.degraded = false;
                    self.calm_since = None;
                }
            } else {
                self.calm_since = None;
            }
        }
        if self.degraded {
            self.degraded_ticks += 1;
        }
        self.degraded
    }

    /// The batch bound in effect: the policy's degraded bound while
    /// degraded, `normal` otherwise.
    #[must_use]
    pub(crate) fn effective_max_batch(&self, normal: usize) -> usize {
        if self.degraded {
            self.policy.degraded_max_batch.min(normal)
        } else {
            normal
        }
    }

    /// True when low-priority work should be shed at admission.
    #[must_use]
    pub(crate) fn sheds_low_priority(&self) -> bool {
        self.degraded && self.policy.shed_low_priority
    }

    /// Updates evaluated while degraded (the `serve.degraded_ticks`
    /// metric).
    #[must_use]
    pub fn degraded_ticks(&self) -> u64 {
        self.degraded_ticks
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
    fn degradation_hysteresis_requires_dwell() {
        let policy = DegradationPolicy {
            high_watermark: 8,
            low_watermark: 2,
            exec_p95_limit: 0,
            degraded_max_batch: 2,
            shed_low_priority: true,
            min_dwell: 100,
        };
        policy.validate(8).expect("valid policy");
        let mut monitor = LoadMonitor::new(policy);
        assert!(!monitor.update(0, 4), "below high watermark");
        assert!(monitor.update(10, 8), "high watermark engages");
        assert_eq!(monitor.effective_max_batch(8), 2);
        assert!(monitor.sheds_low_priority());
        // Calm but dwell not yet served: still degraded.
        assert!(monitor.update(20, 1));
        assert!(monitor.update(60, 2));
        // A load blip resets the dwell timer.
        assert!(monitor.update(80, 5));
        assert!(monitor.update(90, 1));
        assert!(monitor.update(150, 1), "dwell restarted at 90");
        assert!(!monitor.update(200, 1), "calm for >= 100 ticks");
        assert_eq!(monitor.effective_max_batch(8), 8);
        assert!(monitor.degraded_ticks() > 0);
    }

    #[test]
    fn degradation_latency_trigger_and_validation() {
        let policy = DegradationPolicy {
            high_watermark: 100,
            low_watermark: 10,
            exec_p95_limit: 500,
            degraded_max_batch: 1,
            shed_low_priority: false,
            min_dwell: 0,
        };
        let mut monitor = LoadMonitor::new(policy);
        for _ in 0..EXEC_WINDOW {
            monitor.observe_exec(1_000);
        }
        assert!(monitor.update(0, 0), "hot p95 engages degraded mode");
        assert!(!monitor.sheds_low_priority(), "shedding disabled");

        assert_eq!(
            DegradationPolicy {
                low_watermark: 8,
                high_watermark: 8,
                ..policy
            }
            .validate(8),
            Err(ConfigError::InvertedWatermarks { low: 8, high: 8 })
        );
        assert_eq!(
            DegradationPolicy {
                degraded_max_batch: 9,
                ..DegradationPolicy::default()
            }
            .validate(8),
            Err(ConfigError::DegradedBatchOutOfRange {
                degraded: 9,
                max_batch: 8
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
