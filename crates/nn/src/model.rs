use nsflow_tensor::{DType, Shape};

use crate::{GemmDims, LayerSpec, NnError, Result};

/// A sequential layer graph with a fixed input shape.
///
/// The model is shape-checked at construction: every layer must accept its
/// predecessor's output. All per-layer metadata (GEMM dims, FLOPs, weight
/// bytes) is derived once and cached, because the frontend trace extractor
/// queries it repeatedly while building the dataflow graph.
///
/// # Examples
///
/// ```
/// use nsflow_nn::{Model, LayerSpec, LayerKind};
/// use nsflow_tensor::Shape;
///
/// let m = Model::new(
///     "tiny",
///     Shape::new(vec![1, 3, 8, 8]),
///     vec![
///         LayerSpec::new("conv", LayerKind::Conv2d { in_ch: 3, out_ch: 4, kernel: 3, stride: 1, padding: 1 }),
///         LayerSpec::new("relu", LayerKind::Relu),
///     ],
/// )?;
/// assert_eq!(m.output_shape().dims(), &[1, 4, 8, 8]);
/// # Ok::<(), nsflow_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    name: String,
    input_shape: Shape,
    layers: Vec<LayerSpec>,
    /// `layer_shapes[i]` is the *input* shape of layer `i`;
    /// `layer_shapes[len]` is the model output shape.
    layer_shapes: Vec<Shape>,
}

impl Model {
    /// Builds and shape-checks a sequential model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyModel`] for an empty layer list and
    /// propagates the first shape error encountered while threading the
    /// input shape through the layers.
    pub fn new(
        name: impl Into<String>,
        input_shape: Shape,
        layers: Vec<LayerSpec>,
    ) -> Result<Self> {
        if layers.is_empty() {
            return Err(NnError::EmptyModel);
        }
        let mut layer_shapes = Vec::with_capacity(layers.len() + 1);
        let mut cur = input_shape.clone();
        for layer in &layers {
            layer_shapes.push(cur.clone());
            cur = layer.output_shape(&cur)?;
        }
        layer_shapes.push(cur);
        Ok(Model {
            name: name.into(),
            input_shape,
            layers,
            layer_shapes,
        })
    }

    /// The model's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared input shape.
    #[must_use]
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// Output shape after the final layer.
    #[must_use]
    pub fn output_shape(&self) -> &Shape {
        self.layer_shapes.last().expect("non-empty by construction")
    }

    /// The layers in execution order.
    #[must_use]
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Input shape of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= layers().len()`.
    #[must_use]
    pub fn layer_input_shape(&self, i: usize) -> &Shape {
        assert!(i < self.layers.len(), "layer index {i} out of range");
        &self.layer_shapes[i]
    }

    /// GEMM dimensions per layer (in order); `None` entries are SIMD-unit
    /// layers.
    #[must_use]
    pub fn gemm_dims(&self) -> Vec<Option<GemmDims>> {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                l.gemm_dims(&self.layer_shapes[i])
                    .expect("shapes validated at construction")
            })
            .collect()
    }

    /// Total FLOPs of one forward pass.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| l.flops(&self.layer_shapes[i]).expect("shapes validated"))
            .sum()
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn total_params(&self) -> u64 {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                l.param_count(&self.layer_shapes[i])
                    .expect("shapes validated")
            })
            .sum()
    }

    /// Total weight bytes at the given precision.
    #[must_use]
    pub fn total_weight_bytes(&self, dtype: DType) -> usize {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                l.weight_bytes(&self.layer_shapes[i], dtype)
                    .expect("shapes validated")
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    fn tiny() -> Model {
        Model::new(
            "tiny",
            Shape::new(vec![1, 3, 8, 8]),
            vec![
                LayerSpec::new(
                    "conv1",
                    LayerKind::Conv2d {
                        in_ch: 3,
                        out_ch: 4,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                ),
                LayerSpec::new("relu1", LayerKind::Relu),
                LayerSpec::new("pool", LayerKind::MaxPool2d { kernel: 2 }),
                LayerSpec::new(
                    "fc",
                    LayerKind::Linear {
                        in_features: 64,
                        out_features: 10,
                    },
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn empty_model_rejected() {
        assert_eq!(
            Model::new("e", Shape::new(vec![1]), vec![]).unwrap_err(),
            NnError::EmptyModel
        );
    }

    #[test]
    fn shapes_thread_through() {
        let m = tiny();
        assert_eq!(m.layer_input_shape(0).dims(), &[1, 3, 8, 8]);
        assert_eq!(m.layer_input_shape(3).dims(), &[1, 4, 4, 4]);
        assert_eq!(m.output_shape().dims(), &[1, 10]);
    }

    #[test]
    fn construction_fails_on_incompatible_chain() {
        let bad = Model::new(
            "bad",
            Shape::new(vec![1, 3, 8, 8]),
            vec![LayerSpec::new(
                "fc",
                LayerKind::Linear {
                    in_features: 999,
                    out_features: 1,
                },
            )],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn gemm_dims_align_with_layers() {
        let m = tiny();
        let dims = m.gemm_dims();
        assert_eq!(dims.len(), 4);
        assert!(dims[0].is_some());
        assert!(dims[1].is_none());
        assert!(dims[2].is_none());
        assert_eq!(dims[3].unwrap(), GemmDims { m: 1, n: 10, k: 64 });
    }

    #[test]
    fn totals_are_sums() {
        let m = tiny();
        assert_eq!(m.total_params(), (4 * 3 * 9 + 4) + (64 * 10 + 10));
        assert!(m.total_flops() > 0);
        assert_eq!(
            m.total_weight_bytes(DType::Fp32),
            4 * m.total_params() as usize
        );
    }
}
