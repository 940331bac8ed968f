//! Functional executor for [`Model`]s.
//!
//! Executes each layer on real `f32` tensors: convolution via im2col +
//! the blocked [`crate::gemm::matmul_fast`] engine kernel, linear, max/
//! global-average pooling, batch norm (inference affine with unit
//! statistics) and ReLU. The executor exists to (a) validate the shape
//! algebra against real data movement and (b) drive the quantized
//! reasoning-accuracy experiments with genuine NN arithmetic.
//!
//! Weights are owned by [`Parameters`], generated deterministically from a
//! seed so every experiment is reproducible.

use nsflow_telemetry as telemetry;
use nsflow_tensor::rng::StdRng;
use nsflow_tensor::{Shape, Tensor};

use crate::{gemm, LayerKind, Model, NnError, Result};

/// Per-layer weights for a model.
#[derive(Debug, Clone, PartialEq)]
pub struct Parameters {
    /// `weights[i]` holds layer `i`'s filter/weight matrix (empty for
    /// parameter-free layers).
    weights: Vec<Vec<f32>>,
    /// `biases[i]` holds layer `i`'s bias vector (empty when absent).
    biases: Vec<Vec<f32>>,
}

impl Parameters {
    /// Draws He-style random weights for every layer of `model`.
    pub fn random(model: &Model, rng: &mut StdRng) -> Self {
        let mut weights = Vec::with_capacity(model.layers().len());
        let mut biases = Vec::with_capacity(model.layers().len());
        for (i, layer) in model.layers().iter().enumerate() {
            match layer.kind() {
                LayerKind::Conv2d {
                    in_ch,
                    out_ch,
                    kernel,
                    ..
                } => {
                    let fan_in = in_ch * kernel * kernel;
                    let std = (2.0 / fan_in as f32).sqrt();
                    weights.push(gaussianish(out_ch * fan_in, std, rng));
                    biases.push(vec![0.0; *out_ch]);
                }
                LayerKind::Linear {
                    in_features,
                    out_features,
                } => {
                    let std = (2.0 / *in_features as f32).sqrt();
                    weights.push(gaussianish(out_features * in_features, std, rng));
                    biases.push(vec![0.0; *out_features]);
                }
                LayerKind::BatchNorm2d => {
                    let c = model.layer_input_shape(i).dims()[1];
                    weights.push(vec![1.0; c]); // scale γ
                    biases.push(vec![0.0; c]); // shift β
                }
                LayerKind::MaxPool2d { .. } | LayerKind::GlobalAvgPool | LayerKind::Relu => {
                    weights.push(Vec::new());
                    biases.push(Vec::new());
                }
            }
        }
        Parameters { weights, biases }
    }

    /// Layer `i`'s weight buffer.
    #[must_use]
    pub fn weight(&self, i: usize) -> &[f32] {
        &self.weights[i]
    }

    /// Layer `i`'s bias buffer.
    #[must_use]
    pub fn bias(&self, i: usize) -> &[f32] {
        &self.biases[i]
    }

    /// Mutable weight buffer, for tests that pin a layer's weights.
    #[cfg(test)]
    fn weight_mut(&mut self, i: usize) -> &mut Vec<f32> {
        &mut self.weights[i]
    }
}

/// Sum of twelve uniforms, shifted — a cheap approximately-normal draw
/// that needs only uniform draws.
fn gaussianish(n: usize, std: f32, rng: &mut StdRng) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let s: f32 = (0..12).map(|_| rng.gen::<f32>()).sum::<f32>() - 6.0;
            s * std
        })
        .collect()
}

/// Runs a full forward pass of `model` with `params` on `input`.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] if `input` differs from the model's
/// declared input shape, and propagates per-layer shape errors.
pub fn forward(model: &Model, params: &Parameters, input: &Tensor) -> Result<Tensor> {
    let _span = telemetry::span!("nn.forward");
    if input.shape() != model.input_shape() {
        return Err(NnError::ShapeMismatch {
            layer: "<input>".into(),
            expected: model.input_shape().to_string(),
            actual: input.shape().to_string(),
        });
    }
    let mut x = input.clone();
    for (i, layer) in model.layers().iter().enumerate() {
        telemetry::counter!("nn.layers_executed").incr();
        x = forward_layer(layer.kind(), &x, params.weight(i), params.bias(i), layer)?;
    }
    Ok(x)
}

fn forward_layer(
    kind: &LayerKind,
    x: &Tensor,
    w: &[f32],
    b: &[f32],
    layer: &crate::LayerSpec,
) -> Result<Tensor> {
    let out_shape = layer.output_shape(x.shape())?;
    match kind {
        LayerKind::Conv2d {
            in_ch,
            out_ch,
            kernel,
            stride,
            padding,
        } => conv2d(
            x, w, b, *in_ch, *out_ch, *kernel, *stride, *padding, &out_shape,
        ),
        LayerKind::Linear {
            in_features,
            out_features,
        } => {
            let batch = out_shape.dims()[0];
            let mut out = Vec::with_capacity(batch * out_features);
            for bi in 0..batch {
                let row = &x.data()[bi * in_features..(bi + 1) * in_features];
                let y = gemm::matvec(w, row, *out_features, *in_features);
                out.extend(y.iter().zip(b).map(|(v, bias)| v + bias));
            }
            Ok(Tensor::from_vec(out_shape, out).expect("volume matches by construction"))
        }
        LayerKind::MaxPool2d { kernel } => Ok(maxpool(x, *kernel, &out_shape)),
        LayerKind::GlobalAvgPool => Ok(global_avg_pool(x, &out_shape)),
        LayerKind::BatchNorm2d => Ok(batchnorm(x, w, b)),
        LayerKind::Relu => Ok(x.map(|v| v.max(0.0))),
    }
}

#[allow(clippy::too_many_arguments)]
fn conv2d(
    x: &Tensor,
    w: &[f32],
    b: &[f32],
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    out_shape: &Shape,
) -> Result<Tensor> {
    let d = x.shape().dims();
    let (batch, h, width) = (d[0], d[2], d[3]);
    let od = out_shape.dims();
    let (oh, ow) = (od[2], od[3]);
    let k2 = kernel * kernel;
    let patch_len = in_ch * k2;

    let mut out = vec![0.0f32; out_shape.volume()];
    for bi in 0..batch {
        // im2col: rows = output pixels, cols = in_ch·k·k.
        let mut cols = vec![0.0f32; oh * ow * patch_len];
        for oy in 0..oh {
            for ox in 0..ow {
                let row = oy * ow + ox;
                for c in 0..in_ch {
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            let v =
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < width
                                {
                                    x.data()
                                        [((bi * in_ch + c) * h + iy as usize) * width + ix as usize]
                                } else {
                                    0.0
                                };
                            cols[row * patch_len + (c * k2 + ky * kernel + kx)] = v;
                        }
                    }
                }
            }
        }
        // GEMM: (oh·ow × patch) · (patch × out_ch). Weights are stored
        // out_ch-major, so multiply cols · wᵀ via matmul with B laid out
        // (patch × out_ch).
        let mut wt = vec![0.0f32; patch_len * out_ch];
        for oc in 0..out_ch {
            for p in 0..patch_len {
                wt[p * out_ch + oc] = w[oc * patch_len + p];
            }
        }
        let y = gemm::matmul_fast(&cols, &wt, oh * ow, patch_len, out_ch);
        // Scatter back to NCHW, adding bias.
        for oc in 0..out_ch {
            for pix in 0..oh * ow {
                out[((bi * out_ch + oc) * oh * ow) + pix] = y[pix * out_ch + oc] + b[oc];
            }
        }
    }
    Ok(Tensor::from_vec(out_shape.clone(), out).expect("volume matches by construction"))
}

fn maxpool(x: &Tensor, kernel: usize, out_shape: &Shape) -> Tensor {
    let d = x.shape().dims();
    let (batch, ch, h, w) = (d[0], d[1], d[2], d[3]);
    let od = out_shape.dims();
    let (oh, ow) = (od[2], od[3]);
    let mut out = vec![f32::NEG_INFINITY; out_shape.volume()];
    for bi in 0..batch {
        for c in 0..ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut m = f32::NEG_INFINITY;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = oy * kernel + ky;
                            let ix = ox * kernel + kx;
                            if iy < h && ix < w {
                                m = m.max(x.data()[((bi * ch + c) * h + iy) * w + ix]);
                            }
                        }
                    }
                    out[((bi * ch + c) * oh + oy) * ow + ox] = m;
                }
            }
        }
    }
    Tensor::from_vec(out_shape.clone(), out).expect("volume matches by construction")
}

fn global_avg_pool(x: &Tensor, out_shape: &Shape) -> Tensor {
    let d = x.shape().dims();
    let (batch, ch, h, w) = (d[0], d[1], d[2], d[3]);
    let mut out = vec![0.0f32; batch * ch];
    let denom = (h * w) as f32;
    for bi in 0..batch {
        for c in 0..ch {
            let start = (bi * ch + c) * h * w;
            out[bi * ch + c] = x.data()[start..start + h * w].iter().sum::<f32>() / denom;
        }
    }
    Tensor::from_vec(out_shape.clone(), out).expect("volume matches by construction")
}

fn batchnorm(x: &Tensor, gamma: &[f32], beta: &[f32]) -> Tensor {
    // Inference-mode affine with unit running statistics: y = γ·x + β.
    let d = x.shape().dims();
    let (batch, ch, h, w) = (d[0], d[1], d[2], d[3]);
    let mut out = x.data().to_vec();
    for bi in 0..batch {
        for c in 0..ch {
            let start = (bi * ch + c) * h * w;
            for v in &mut out[start..start + h * w] {
                *v = gamma[c] * *v + beta[c];
            }
        }
    }
    Tensor::from_vec(x.shape().clone(), out).expect("same shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{models, LayerSpec};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn forward_checks_input_shape() {
        let m = models::small_cnn(16, 1, 8);
        let p = Parameters::random(&m, &mut rng());
        let bad = Tensor::zeros(Shape::new(vec![1, 2, 16, 16]));
        assert!(forward(&m, &p, &bad).is_err());
    }

    #[test]
    fn forward_produces_declared_output_shape() {
        let m = models::small_cnn(16, 1, 8);
        let p = Parameters::random(&m, &mut rng());
        let x = Tensor::full(Shape::new(vec![1, 1, 16, 16]), 0.5);
        let y = forward(&m, &p, &x).unwrap();
        assert_eq!(y.shape(), m.output_shape());
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        // One 1×1 conv with weight 1, bias 0 == identity.
        let m = Model::new(
            "id",
            Shape::new(vec![1, 1, 3, 3]),
            vec![LayerSpec::new(
                "c",
                LayerKind::Conv2d {
                    in_ch: 1,
                    out_ch: 1,
                    kernel: 1,
                    stride: 1,
                    padding: 0,
                },
            )],
        )
        .unwrap();
        let mut p = Parameters::random(&m, &mut rng());
        p.weight_mut(0).copy_from_slice(&[1.0]);
        let x = Tensor::from_vec(
            Shape::new(vec![1, 1, 3, 3]),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        )
        .unwrap();
        let y = forward(&m, &p, &x).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_3x3_sum_kernel_counts_neighbors() {
        // All-ones 3×3 kernel with padding 1 on an all-ones input: interior
        // pixels see 9 neighbours, corners 4, edges 6.
        let m = Model::new(
            "sum",
            Shape::new(vec![1, 1, 3, 3]),
            vec![LayerSpec::new(
                "c",
                LayerKind::Conv2d {
                    in_ch: 1,
                    out_ch: 1,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
            )],
        )
        .unwrap();
        let mut p = Parameters::random(&m, &mut rng());
        p.weight_mut(0).iter_mut().for_each(|w| *w = 1.0);
        let x = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
        let y = forward(&m, &p, &x).unwrap();
        assert_eq!(y.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn relu_clamps_negative() {
        let m = Model::new(
            "r",
            Shape::new(vec![1, 1, 1, 2]),
            vec![LayerSpec::new("relu", LayerKind::Relu)],
        )
        .unwrap();
        let p = Parameters::random(&m, &mut rng());
        let x = Tensor::from_vec(Shape::new(vec![1, 1, 1, 2]), vec![-1.0, 2.0]).unwrap();
        assert_eq!(forward(&m, &p, &x).unwrap().data(), &[0.0, 2.0]);
    }

    #[test]
    fn maxpool_takes_window_max() {
        let m = Model::new(
            "p",
            Shape::new(vec![1, 1, 2, 2]),
            vec![LayerSpec::new("mp", LayerKind::MaxPool2d { kernel: 2 })],
        )
        .unwrap();
        let p = Parameters::random(&m, &mut rng());
        let x = Tensor::from_vec(Shape::new(vec![1, 1, 2, 2]), vec![1.0, 7.0, 3.0, 5.0]).unwrap();
        assert_eq!(forward(&m, &p, &x).unwrap().data(), &[7.0]);
    }

    #[test]
    fn global_avg_pool_averages() {
        let m = Model::new(
            "g",
            Shape::new(vec![1, 2, 2, 2]),
            vec![LayerSpec::new("gap", LayerKind::GlobalAvgPool)],
        )
        .unwrap();
        let p = Parameters::random(&m, &mut rng());
        let x = Tensor::from_vec(
            Shape::new(vec![1, 2, 2, 2]),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        )
        .unwrap();
        assert_eq!(forward(&m, &p, &x).unwrap().data(), &[2.5, 10.0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = models::small_cnn(16, 1, 8);
        let p1 = Parameters::random(&m, &mut StdRng::seed_from_u64(5));
        let p2 = Parameters::random(&m, &mut StdRng::seed_from_u64(5));
        assert_eq!(p1, p2);
    }

    #[test]
    fn stride_two_halves_resolution_functionally() {
        let m = Model::new(
            "s2",
            Shape::new(vec![1, 1, 8, 8]),
            vec![LayerSpec::new(
                "c",
                LayerKind::Conv2d {
                    in_ch: 1,
                    out_ch: 2,
                    kernel: 3,
                    stride: 2,
                    padding: 1,
                },
            )],
        )
        .unwrap();
        let p = Parameters::random(&m, &mut rng());
        let x = Tensor::full(Shape::new(vec![1, 1, 8, 8]), 1.0);
        let y = forward(&m, &p, &x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 4, 4]);
    }
}
