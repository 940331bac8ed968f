use crate::{DType, Result, Shape, TensorError};

/// Dense row-major `f32` tensor.
///
/// All functional computation in the reproduction (NN layers, VSA binding,
/// reasoning pipelines) runs on `f32` values; lower precisions are modeled
/// by *fake quantization* (quantize→dequantize round trips through
/// [`crate::quant::QuantParams`]), exactly as a quantization-aware software
/// stack would evaluate an INT8/INT4 FPGA datapath.
///
/// # Examples
///
/// ```
/// use nsflow_tensor::{Tensor, Shape};
/// let t = Tensor::zeros(Shape::matrix(2, 2));
/// assert_eq!(t.shape().volume(), 4);
/// assert_eq!(t.data(), &[0.0; 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and matching data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if shape.volume() != data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a zero-filled tensor.
    #[must_use]
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    #[must_use]
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Read-only view of the backing data (row-major).
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on rank or bound violation.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        let flat = self.shape.flatten_index(index)?;
        Ok(self.data[flat])
    }

    /// Sets the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on rank or bound violation.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = self.shape.flatten_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise multiplication (Hadamard product).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Applies `f` element-wise, producing a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Scales every element by `s`.
    #[must_use]
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean (L2) norm of all elements.
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Dot product with another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn dot(&self, rhs: &Tensor) -> Result<f32> {
        self.check_same_shape(rhs)?;
        Ok(self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum())
    }

    /// Bytes required to store this tensor at the given precision.
    #[must_use]
    pub fn storage_bytes(&self, dtype: DType) -> usize {
        dtype.storage_bytes(self.data.len())
    }

    fn check_same_shape(&self, rhs: &Tensor) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::IncompatibleShapes {
                lhs: self.shape.to_string(),
                rhs: rhs.shape.to_string(),
            });
        }
        Ok(())
    }

    fn zip_with(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        self.check_same_shape(rhs)?;
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(Shape::new(vec![]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(dims: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::new(dims), data).unwrap()
    }

    #[test]
    fn from_vec_validates_volume() {
        assert!(Tensor::from_vec(Shape::matrix(2, 2), vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(Shape::matrix(2, 2), vec![1.0; 4]).is_ok());
    }

    #[test]
    fn indexing_and_set() {
        let mut x = Tensor::zeros(Shape::matrix(2, 3));
        x.set(&[1, 2], 5.0).unwrap();
        assert_eq!(x.at(&[1, 2]).unwrap(), 5.0);
        assert_eq!(x.at(&[0, 0]).unwrap(), 0.0);
        assert!(x.at(&[2, 0]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = t(vec![3], vec![1.0, 2.0, 3.0]);
        let b = t(vec![3], vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        let c = t(vec![2], vec![0.0, 0.0]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn norm_is_euclidean() {
        let a = t(vec![2], vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn map_and_sum() {
        let a = t(vec![4], vec![1.0, -2.0, 3.0, -4.0]);
        let relu = a.map(|x| x.max(0.0));
        assert_eq!(relu.data(), &[1.0, 0.0, 3.0, 0.0]);
        assert_eq!(a.sum(), -2.0);
    }

    #[test]
    fn storage_bytes_respects_dtype() {
        let a = Tensor::zeros(Shape::vector(1024));
        assert_eq!(a.storage_bytes(DType::Fp32), 4096);
        assert_eq!(a.storage_bytes(DType::Int4), 512);
    }

    #[test]
    fn default_is_scalar_zero() {
        let d = Tensor::default();
        assert_eq!(d.shape().rank(), 0);
        assert_eq!(d.data(), &[0.0]);
    }
}
