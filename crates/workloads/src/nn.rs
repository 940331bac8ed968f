//! CNN layer and shape algebra for the traces' neural half.
//!
//! Every workload the paper evaluates pairs a CNN front end (ResNet-18 for
//! NVSA's perception, smaller backbones for MIMONet/LVRF/PrAE) with a
//! vector-symbolic back end. A [`Model`] threads its input [`Shape`]
//! through a sequential chain of [`LayerSpec`]s and derives each layer's
//! [`GemmDims`] — the `m, n, k` triples of the paper's AdArray runtime
//! function, eq. (1) — and the parameter count of Tab. IV's memory row.
//!
//! The backbones in [`models`] are built from constants, so a layer chain
//! that does not fit together is a bug in this crate: construction asserts
//! rather than returning an error.

pub(crate) mod models;

/// Row-major tensor shape.
#[derive(Debug, Clone)]
pub(crate) struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimensions.
    pub(crate) fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Dimensions as a slice.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements (product of dimensions; 1 for rank 0).
    pub(crate) fn volume(&self) -> usize {
        self.dims.iter().product()
    }
}

/// GEMM dimensions of a layer as mapped onto a systolic array.
///
/// Convolutions are lowered by im2col: `m` is the number of output pixels,
/// `k` the reduction length (`in_ch · k_h · k_w`) and `n` the number of
/// filters. These are the `d₁, d₂, d₃` ("layer dimensions m, n, k") in the
/// paper's AdArray runtime function, eq. (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GemmDims {
    /// Output rows (spatial positions × batch).
    pub(crate) m: usize,
    /// Output columns (filters / output features).
    pub(crate) n: usize,
    /// Reduction length.
    pub(crate) k: usize,
}

/// The kind and hyper-parameters of one layer.
#[derive(Debug)]
pub(crate) enum LayerKind {
    /// 2-D convolution over NCHW input.
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Output channels (filter count).
        out_ch: usize,
        /// Square kernel side.
        kernel: usize,
        /// Stride (same both axes).
        stride: usize,
        /// Zero padding (same both axes).
        padding: usize,
    },
    /// Fully connected layer.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Max pooling with square window.
    MaxPool2d {
        /// Window side (also used as stride).
        kernel: usize,
    },
    /// Global average pooling to 1×1.
    GlobalAvgPool,
    /// Batch normalization (shape preserving).
    BatchNorm2d,
    /// ReLU activation (shape preserving).
    Relu,
}

/// A named layer with derived shape/cost metadata.
#[derive(Debug)]
pub(crate) struct LayerSpec {
    name: String,
    kind: LayerKind,
}

impl LayerSpec {
    /// Creates a named layer.
    pub(crate) fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        LayerSpec {
            name: name.into(),
            kind,
        }
    }

    /// The layer's name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The layer's kind and hyper-parameters.
    pub(crate) fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// Output shape for a given NCHW (conv/pool) or `[batch, features]`
    /// (linear) input shape.
    ///
    /// # Panics
    ///
    /// Panics when the input rank or channel count is wrong, or when the
    /// hyper-parameters cannot produce a positive output size.
    pub(crate) fn output_shape(&self, input: &Shape) -> Shape {
        match &self.kind {
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                kernel,
                stride,
                padding,
            } => {
                let (b, c, h, w) = self.expect_nchw(input);
                self.check_input(c == *in_ch, &format!("[N, {in_ch}, H, W]"), input);
                let out = |size| conv_out(size, *kernel, *stride, *padding);
                let (Some(oh), Some(ow)) = (out(h), out(w)) else {
                    panic!("layer {}: kernel exceeds padded input", self.name);
                };
                assert!(*out_ch > 0, "layer {}: zero output channels", self.name);
                Shape::new(vec![b, *out_ch, oh, ow])
            }
            LayerKind::Linear {
                in_features,
                out_features,
            } => {
                let dims = input.dims();
                let feat: usize = dims.iter().skip(1).product();
                self.check_input(
                    !dims.is_empty() && feat == *in_features,
                    &format!("[N, {in_features}]"),
                    input,
                );
                Shape::new(vec![dims[0], *out_features])
            }
            LayerKind::MaxPool2d { kernel } => {
                let (b, c, h, w) = self.expect_nchw(input);
                assert!(
                    *kernel > 0 && h >= *kernel && w >= *kernel,
                    "layer {}: pool window exceeds input",
                    self.name
                );
                Shape::new(vec![b, c, h / kernel, w / kernel])
            }
            LayerKind::GlobalAvgPool => {
                let (b, c, _, _) = self.expect_nchw(input);
                Shape::new(vec![b, c])
            }
            LayerKind::BatchNorm2d | LayerKind::Relu => input.clone(),
        }
    }

    /// GEMM dimensions when this layer maps onto the systolic array;
    /// `None` for layers executed on the SIMD unit (pool/bn/relu).
    ///
    /// # Panics
    ///
    /// Panics where [`Self::output_shape`] does.
    pub(crate) fn gemm_dims(&self, input: &Shape) -> Option<GemmDims> {
        match &self.kind {
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                kernel,
                ..
            } => {
                let out = self.output_shape(input);
                let d = out.dims();
                let (b, oh, ow) = (d[0], d[2], d[3]);
                Some(GemmDims {
                    m: b * oh * ow,
                    n: *out_ch,
                    k: in_ch * kernel * kernel,
                })
            }
            LayerKind::Linear {
                in_features,
                out_features,
            } => Some(GemmDims {
                m: self.output_shape(input).dims()[0],
                n: *out_features,
                k: *in_features,
            }),
            LayerKind::MaxPool2d { .. }
            | LayerKind::GlobalAvgPool
            | LayerKind::BatchNorm2d
            | LayerKind::Relu => None,
        }
    }

    /// Trainable parameter count (weights + biases; BN has 2 per channel,
    /// which requires the input shape, hence the argument).
    ///
    /// # Panics
    ///
    /// Panics if a batch-norm input is not NCHW.
    pub(crate) fn param_count(&self, input: &Shape) -> u64 {
        match &self.kind {
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                kernel,
                ..
            } => (*out_ch as u64) * (*in_ch as u64) * (*kernel as u64).pow(2) + *out_ch as u64,
            LayerKind::Linear {
                in_features,
                out_features,
            } => (*in_features as u64) * (*out_features as u64) + *out_features as u64,
            LayerKind::BatchNorm2d => 2 * self.expect_nchw(input).1 as u64,
            LayerKind::MaxPool2d { .. } | LayerKind::GlobalAvgPool | LayerKind::Relu => 0,
        }
    }

    fn expect_nchw(&self, input: &Shape) -> (usize, usize, usize, usize) {
        let d = input.dims();
        self.check_input(d.len() == 4, "[N, C, H, W]", input);
        (d[0], d[1], d[2], d[3])
    }

    fn check_input(&self, fits: bool, expected: &str, actual: &Shape) {
        assert!(
            fits,
            "layer {} expected input shape {expected}, got {:?}",
            self.name,
            actual.dims()
        );
    }
}

fn conv_out(size: usize, kernel: usize, stride: usize, padding: usize) -> Option<usize> {
    let padded = size + 2 * padding;
    if kernel == 0 || stride == 0 || padded < kernel {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

/// A sequential layer graph with a fixed input shape.
///
/// The model is shape-checked at construction: every layer must accept its
/// predecessor's output. The per-layer shapes are derived once and kept,
/// because the trace builders query them layer by layer.
#[derive(Debug)]
pub(crate) struct Model {
    name: String,
    layers: Vec<LayerSpec>,
    /// `layer_shapes[i]` is the *input* shape of layer `i`;
    /// `layer_shapes[len]` is the model output shape.
    layer_shapes: Vec<Shape>,
}

impl Model {
    /// Builds and shape-checks a sequential model.
    ///
    /// # Panics
    ///
    /// Panics on an empty layer list and on the first layer that cannot
    /// consume its predecessor's output.
    pub(crate) fn new(name: impl Into<String>, input_shape: Shape, layers: Vec<LayerSpec>) -> Self {
        assert!(!layers.is_empty(), "model must contain at least one layer");
        let mut layer_shapes = Vec::with_capacity(layers.len() + 1);
        let mut cur = input_shape;
        for layer in &layers {
            let next = layer.output_shape(&cur);
            layer_shapes.push(cur);
            cur = next;
        }
        layer_shapes.push(cur);
        Model {
            name: name.into(),
            layers,
            layer_shapes,
        }
    }

    /// The model's name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Output shape after the final layer.
    pub(crate) fn output_shape(&self) -> &Shape {
        self.layer_shapes.last().expect("non-empty by construction")
    }

    /// The layers in execution order.
    pub(crate) fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Input shape of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= layers().len()`.
    pub(crate) fn layer_input_shape(&self, i: usize) -> &Shape {
        assert!(i < self.layers.len(), "layer index {i} out of range");
        &self.layer_shapes[i]
    }

    /// GEMM dimensions per layer (in order); `None` entries are SIMD-unit
    /// layers.
    pub(crate) fn gemm_dims(&self) -> Vec<Option<GemmDims>> {
        self.layers
            .iter()
            .zip(&self.layer_shapes)
            .map(|(l, input)| l.gemm_dims(input))
            .collect()
    }

    /// Total trainable parameters.
    pub(crate) fn total_params(&self) -> u64 {
        self.layers
            .iter()
            .zip(&self.layer_shapes)
            .map(|(l, input)| l.param_count(input))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(in_ch: usize, out_ch: usize, k: usize, s: usize, p: usize) -> LayerSpec {
        LayerSpec::new(
            "c",
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                kernel: k,
                stride: s,
                padding: p,
            },
        )
    }

    fn fc(in_features: usize, out_features: usize) -> LayerSpec {
        LayerSpec::new(
            "fc",
            LayerKind::Linear {
                in_features,
                out_features,
            },
        )
    }

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
                fc(64, 10),
            ],
        )
    }

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
    fn conv_output_shape_resnet_stem() {
        let out = conv(3, 64, 7, 2, 3).output_shape(&Shape::new(vec![1, 3, 224, 224]));
        assert_eq!(out.dims(), &[1, 64, 112, 112]);
    }

    #[test]
    fn conv_same_padding_preserves_hw() {
        let out = conv(64, 64, 3, 1, 1).output_shape(&Shape::new(vec![2, 64, 40, 40]));
        assert_eq!(out.dims(), &[2, 64, 40, 40]);
    }

    #[test]
    #[should_panic(expected = "layer c expected input shape [N, 3, H, W], got [1, 4, 8, 8]")]
    fn conv_rejects_wrong_channels() {
        let _ = conv(3, 8, 3, 1, 1).output_shape(&Shape::new(vec![1, 4, 8, 8]));
    }

    #[test]
    #[should_panic(expected = "layer c expected input shape [N, C, H, W], got [3, 8, 8]")]
    fn conv_rejects_wrong_rank() {
        let _ = conv(3, 8, 3, 1, 1).output_shape(&Shape::new(vec![3, 8, 8]));
    }

    #[test]
    #[should_panic(expected = "layer c: kernel exceeds padded input")]
    fn conv_rejects_kernel_larger_than_input() {
        let _ = conv(1, 1, 9, 1, 0).output_shape(&Shape::new(vec![1, 1, 4, 4]));
    }

    #[test]
    fn linear_flattens_trailing_dims() {
        let l = fc(512, 10);
        assert_eq!(l.output_shape(&Shape::new(vec![4, 512])).dims(), &[4, 10]);
        assert_eq!(
            l.output_shape(&Shape::new(vec![4, 8, 8, 8])).dims(),
            &[4, 10]
        );
    }

    #[test]
    #[should_panic(expected = "layer fc expected input shape [N, 512], got [4, 100]")]
    fn linear_rejects_wrong_feature_count() {
        let _ = fc(512, 10).output_shape(&Shape::new(vec![4, 100]));
    }

    #[test]
    fn pooling_shapes() {
        let p = LayerSpec::new("mp", LayerKind::MaxPool2d { kernel: 2 });
        let out = p.output_shape(&Shape::new(vec![1, 8, 16, 16]));
        assert_eq!(out.dims(), &[1, 8, 8, 8]);
        let g = LayerSpec::new("gap", LayerKind::GlobalAvgPool);
        let out = g.output_shape(&Shape::new(vec![1, 512, 5, 5]));
        assert_eq!(out.dims(), &[1, 512]);
    }

    #[test]
    fn gemm_dims_for_conv() {
        let g = conv(3, 64, 7, 2, 3).gemm_dims(&Shape::new(vec![1, 3, 160, 160]));
        assert_eq!(
            g,
            Some(GemmDims {
                m: 80 * 80,
                n: 64,
                k: 3 * 49
            })
        );
    }

    #[test]
    fn gemm_dims_none_for_simd_layers() {
        let r = LayerSpec::new("relu", LayerKind::Relu);
        assert_eq!(r.gemm_dims(&Shape::new(vec![1, 1, 2, 2])), None);
    }

    #[test]
    fn param_counts() {
        let c = conv(3, 64, 7, 2, 3);
        assert_eq!(
            c.param_count(&Shape::new(vec![1, 3, 160, 160])),
            64 * 3 * 49 + 64
        );
        assert_eq!(fc(512, 10).param_count(&Shape::new(vec![1, 512])), 5130);
        let bn = LayerSpec::new("bn", LayerKind::BatchNorm2d);
        assert_eq!(bn.param_count(&Shape::new(vec![1, 64, 8, 8])), 128);
    }

    #[test]
    #[should_panic(expected = "model must contain at least one layer")]
    fn empty_model_rejected() {
        let _ = Model::new("e", Shape::new(vec![1]), vec![]);
    }

    #[test]
    fn shapes_thread_through() {
        let m = tiny();
        assert_eq!(m.layer_input_shape(0).dims(), &[1, 3, 8, 8]);
        assert_eq!(m.layer_input_shape(3).dims(), &[1, 4, 4, 4]);
        assert_eq!(m.output_shape().dims(), &[1, 10]);
    }

    #[test]
    #[should_panic(expected = "layer fc expected input shape [N, 999], got [1, 3, 8, 8]")]
    fn construction_fails_on_incompatible_chain() {
        let _ = Model::new("bad", Shape::new(vec![1, 3, 8, 8]), vec![fc(999, 1)]);
    }

    #[test]
    fn gemm_dims_align_with_layers() {
        let dims = tiny().gemm_dims();
        assert_eq!(dims.len(), 4);
        assert!(dims[0].is_some());
        assert!(dims[1].is_none());
        assert!(dims[2].is_none());
        assert_eq!(dims[3], Some(GemmDims { m: 1, n: 10, k: 64 }));
    }

    #[test]
    fn total_params_sums_the_layers() {
        assert_eq!(tiny().total_params(), (4 * 3 * 9 + 4) + (64 * 10 + 10));
    }
}
