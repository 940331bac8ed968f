use std::fmt;

/// Error type for trace construction and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// An op referenced an input id that does not precede it.
    DanglingInput {
        /// The op doing the referencing.
        op: String,
        /// The missing input id.
        input: usize,
    },
    /// A trace was finished with no ops.
    EmptyTrace,
    /// The loop count was zero.
    ZeroLoopCount,
    /// `loop_count × ops` op instances reach `u32::MAX` (or overflow),
    /// more than the scheduler can number.
    TooManyInstances {
        /// Ops per loop iteration.
        ops: usize,
        /// The requested loop count.
        loop_count: usize,
    },
    /// An op was constructed with a zero-sized dimension.
    ZeroDimension {
        /// The offending op name.
        op: String,
    },
    /// The parser could not understand a line.
    ParseLine {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The parser met a `call_module` target it has no registry entry for.
    UnknownModule {
        /// 1-based line number.
        line: usize,
        /// The module target name.
        target: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::DanglingInput { op, input } => {
                write!(
                    f,
                    "op {op} references input #{input} that does not precede it"
                )
            }
            TraceError::EmptyTrace => write!(f, "trace must contain at least one op"),
            TraceError::ZeroLoopCount => write!(f, "loop count must be at least 1"),
            TraceError::TooManyInstances { ops, loop_count } => write!(
                f,
                "loop count {loop_count} × {ops} ops must stay below {} op instances",
                u32::MAX
            ),
            TraceError::ZeroDimension { op } => {
                write!(f, "op {op} has a zero-sized dimension")
            }
            TraceError::ParseLine { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceError::UnknownModule { line, target } => {
                write!(
                    f,
                    "line {line}: call_module target {target} is not in the module registry"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }

    #[test]
    fn display_nonempty() {
        let errs = [
            TraceError::DanglingInput {
                op: "x".into(),
                input: 3,
            },
            TraceError::EmptyTrace,
            TraceError::ZeroLoopCount,
            TraceError::TooManyInstances {
                ops: 2,
                loop_count: 1 << 31,
            },
            TraceError::ZeroDimension { op: "x".into() },
            TraceError::ParseLine {
                line: 2,
                message: "bad".into(),
            },
            TraceError::UnknownModule {
                line: 4,
                target: "conv9".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
