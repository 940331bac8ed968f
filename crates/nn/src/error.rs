use std::fmt;

/// Error type for neural-network shape algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NnError {
    /// A layer received an input whose shape it cannot consume.
    ShapeMismatch {
        /// Name of the layer reporting the mismatch.
        layer: String,
        /// Expected input shape rendered as text.
        expected: String,
        /// Received input shape rendered as text.
        actual: String,
    },
    /// Layer hyper-parameters are internally inconsistent (e.g. kernel
    /// larger than padded input, zero channels).
    InvalidLayer(String),
    /// A model was built with no layers.
    EmptyModel,
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch {
                layer,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "layer {layer} expected input shape {expected}, got {actual}"
                )
            }
            NnError::InvalidLayer(msg) => write!(f, "invalid layer: {msg}"),
            NnError::EmptyModel => write!(f, "model must contain at least one layer"),
        }
    }
}

impl std::error::Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }

    #[test]
    fn display_nonempty() {
        assert!(!NnError::EmptyModel.to_string().is_empty());
        assert!(!NnError::InvalidLayer("zero channels".into())
            .to_string()
            .is_empty());
    }
}
