use std::fmt;

/// Row-major tensor shape.
///
/// # Examples
///
/// ```
/// use nsflow_tensor::Shape;
/// let s = Shape::new(vec![16, 64, 160, 160]);
/// assert_eq!(s.dims().len(), 4);
/// assert_eq!(s.volume(), 16 * 64 * 160 * 160);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimensions.
    #[must_use]
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Dimensions as a slice.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements (product of dimensions; 1 for rank 0).
    #[must_use]
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(vec![1, 4, 256]);
        assert_eq!(s.dims().len(), 3);
        assert_eq!(s.volume(), 1024);
    }

    #[test]
    fn scalar_shape_has_volume_one() {
        let s = Shape::new(vec![]);
        assert!(s.dims().is_empty());
        assert_eq!(s.volume(), 1);
    }

    #[test]
    fn display_renders_brackets() {
        assert_eq!(Shape::new(vec![7, 4, 256]).to_string(), "[7, 4, 256]");
        assert_eq!(Shape::new(vec![]).to_string(), "[]");
    }
}
