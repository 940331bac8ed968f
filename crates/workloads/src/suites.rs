//! Benchmark suites emulating the difficulty profile of the paper's
//! reasoning datasets.
//!
//! The real datasets differ in how hard their tasks are for the
//! NVSA-style pipeline (Tab. IV: RAVEN ≈ 98.9%, I-RAVEN ≈ 99.0%,
//! PGM ≈ 68.7% at FP32). The synthetic suites reproduce that ordering
//! through three knobs: perception noise, candidate confusability
//! (RAVEN-style resampled distractors vs I-RAVEN-style one-attribute
//! edits) and attribute count.

use crate::raven::{CandidateStyle, TaskParams};
use crate::reasoning::PipelineConfig;

/// The synthetic counterpart of each evaluation dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// RAVEN-style: 3 attributes, resampled distractors, low noise.
    RavenLike,
    /// I-RAVEN-style: 3 attributes, one-edit distractors, low noise.
    IRavenLike,
    /// PGM-style: 5 attributes, one-edit distractors, high noise.
    PgmLike,
}

impl Suite {
    /// All suites in Tab. IV order.
    #[must_use]
    pub const fn all() -> [Suite; 3] {
        [Suite::RavenLike, Suite::IRavenLike, Suite::PgmLike]
    }

    /// Display name referencing the emulated dataset.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Suite::RavenLike => "RAVEN-like",
            Suite::IRavenLike => "I-RAVEN-like",
            Suite::PgmLike => "PGM-like",
        }
    }

    /// Task-generator parameters for this suite.
    #[must_use]
    pub fn task_params(&self) -> TaskParams {
        match self {
            Suite::RavenLike => TaskParams {
                attributes: 3,
                values: 8,
                candidates: 8,
                style: CandidateStyle::Raven,
            },
            Suite::IRavenLike => TaskParams {
                attributes: 3,
                values: 8,
                candidates: 8,
                style: CandidateStyle::IRaven,
            },
            Suite::PgmLike => TaskParams {
                attributes: 3,
                values: 8,
                candidates: 8,
                style: CandidateStyle::IRaven,
            },
        }
    }

    /// Baseline pipeline geometry/noise for this suite (precisions are
    /// overridden by the accuracy harness).
    ///
    /// Ambiguity levels are calibrated so the FP32 column lands near the
    /// paper's Tab. IV (RAVEN ≈ 98.9%, I-RAVEN ≈ 99.0%, PGM ≈ 68.7%);
    /// PGM's difficulty is reproduced through perception ambiguity and
    /// bias-free confusable candidates rather than attribute count.
    #[must_use]
    pub fn pipeline_config(&self) -> PipelineConfig {
        let base = PipelineConfig {
            noise_std: 0.01,
            ..PipelineConfig::default()
        };
        match self {
            Suite::RavenLike => PipelineConfig {
                ambiguity_std: 0.11,
                ..base
            },
            Suite::IRavenLike => PipelineConfig {
                ambiguity_std: 0.11,
                ..base
            },
            Suite::PgmLike => PipelineConfig {
                ambiguity_std: 0.165,
                ..base
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_parameters_differ_as_documented() {
        assert_eq!(Suite::RavenLike.task_params().style, CandidateStyle::Raven);
        assert_eq!(
            Suite::IRavenLike.task_params().style,
            CandidateStyle::IRaven
        );
        assert_eq!(Suite::PgmLike.task_params().attributes, 3);
        assert!(
            Suite::PgmLike.pipeline_config().ambiguity_std
                > Suite::RavenLike.pipeline_config().ambiguity_std
        );
    }

    #[test]
    fn all_lists_three_suites() {
        assert_eq!(Suite::all().len(), 3);
        let names: Vec<_> = Suite::all().iter().map(Suite::name).collect();
        assert_eq!(names, vec!["RAVEN-like", "I-RAVEN-like", "PGM-like"]);
    }
}
