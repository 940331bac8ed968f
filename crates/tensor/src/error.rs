use std::fmt;

/// Error type for numeric conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Quantization parameters could not be fitted (e.g. empty or non-finite
    /// input).
    InvalidQuantInput(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::InvalidQuantInput(msg) => {
                write!(f, "invalid quantization input: {msg}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let m = TensorError::InvalidQuantInput("empty".into()).to_string();
        assert!(!m.ends_with('.'), "no trailing period: {m}");
        assert!(
            m.chars().next().is_some_and(|c| c.is_lowercase()),
            "lowercase start: {m}"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
