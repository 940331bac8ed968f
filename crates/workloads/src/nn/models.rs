//! Ready-made CNN backbones used by the paper's workloads.
//!
//! The builders return *sequentialized* layer graphs: residual skip
//! connections are folded into the main chain (their element-wise adds are
//! accounted as SIMD-unit work by the trace extractor, matching where they
//! execute on the NSFlow backend). Shape and arithmetic-cost totals match
//! the canonical architectures.

use super::{LayerKind, LayerSpec, Model, Shape};

fn conv(name: String, in_ch: usize, out_ch: usize, k: usize, s: usize, p: usize) -> LayerSpec {
    LayerSpec::new(
        name,
        LayerKind::Conv2d {
            in_ch,
            out_ch,
            kernel: k,
            stride: s,
            padding: p,
        },
    )
}

fn bn(name: String) -> LayerSpec {
    LayerSpec::new(name, LayerKind::BatchNorm2d)
}

fn relu(name: String) -> LayerSpec {
    LayerSpec::new(name, LayerKind::Relu)
}

/// ResNet-18 backbone (conv stem + 8 basic blocks + global average pool),
/// the perception front-end of NVSA (the paper's Listing 1 trace shows its
/// 160×160 activations).
///
/// `input_hw` is the square input resolution, `in_ch` the image channels.
/// The classifier head is omitted — the workloads replace it with their
/// own projection into VSA space.
///
/// # Panics
///
/// Panics if `input_hw < 32` (the stem and four stride-2 stages need it).
pub(crate) fn resnet18(input_hw: usize, in_ch: usize) -> Model {
    assert!(input_hw >= 32, "resnet18 needs input_hw >= 32");
    let mut layers = vec![
        conv("conv1".into(), in_ch, 64, 7, 2, 3),
        bn("bn1".into()),
        relu("relu1".into()),
        LayerSpec::new("maxpool", LayerKind::MaxPool2d { kernel: 2 }),
    ];

    let stages: [(usize, usize, usize); 4] =
        [(64, 64, 1), (64, 128, 2), (128, 256, 2), (256, 512, 2)];
    for (stage, &(in_c, out_c, first_stride)) in stages.iter().enumerate() {
        for block in 0..2 {
            let (bin, stride) = if block == 0 {
                (in_c, first_stride)
            } else {
                (out_c, 1)
            };
            let base = format!("layer{}_{block}", stage + 1);
            layers.push(conv(format!("{base}_conv1"), bin, out_c, 3, stride, 1));
            layers.push(bn(format!("{base}_bn1")));
            layers.push(relu(format!("{base}_relu1")));
            layers.push(conv(format!("{base}_conv2"), out_c, out_c, 3, 1, 1));
            layers.push(bn(format!("{base}_bn2")));
            layers.push(relu(format!("{base}_relu2")));
            if block == 0 && (stride != 1 || bin != out_c) {
                // Projection shortcut, sequentialized after the block.
                layers.push(conv(format!("{base}_downsample"), out_c, out_c, 1, 1, 0));
            }
        }
    }
    layers.push(LayerSpec::new("avgpool", LayerKind::GlobalAvgPool));
    Model::new(
        "resnet18",
        Shape::new(vec![1, in_ch, input_hw, input_hw]),
        layers,
    )
}

/// A compact 4-conv CNN used as the perception front-end in the smaller
/// workloads (LVRF and PrAE).
///
/// # Panics
///
/// Panics if `input_hw < 16`.
pub(crate) fn small_cnn(input_hw: usize, in_ch: usize, embedding: usize) -> Model {
    assert!(input_hw >= 16, "small_cnn needs input_hw >= 16");
    let layers = vec![
        conv("conv1".into(), in_ch, 32, 3, 2, 1),
        relu("relu1".into()),
        conv("conv2".into(), 32, 32, 3, 2, 1),
        relu("relu2".into()),
        conv("conv3".into(), 32, 64, 3, 2, 1),
        relu("relu3".into()),
        conv("conv4".into(), 64, 64, 3, 2, 1),
        relu("relu4".into()),
        LayerSpec::new("gap".to_string(), LayerKind::GlobalAvgPool),
        LayerSpec::new(
            "proj".to_string(),
            LayerKind::Linear {
                in_features: 64,
                out_features: embedding,
            },
        ),
    ];
    Model::new(
        "small_cnn",
        Shape::new(vec![1, in_ch, input_hw, input_hw]),
        layers,
    )
}

/// MIMONet-style backbone: a mid-size CNN that processes several
/// superposed inputs at once (computation-in-superposition), so its batch
/// dimension carries `superposition` bound channels.
///
/// # Panics
///
/// Panics if `input_hw < 32` or `superposition == 0`.
pub(crate) fn mimonet_backbone(input_hw: usize, superposition: usize) -> Model {
    assert!(input_hw >= 32, "mimonet_backbone needs input_hw >= 32");
    assert!(superposition > 0, "superposition must be nonzero");
    let layers = vec![
        conv("conv1".into(), 3, 64, 5, 2, 2),
        bn("bn1".into()),
        relu("relu1".into()),
        conv("conv2".into(), 64, 128, 3, 2, 1),
        bn("bn2".into()),
        relu("relu2".into()),
        conv("conv3".into(), 128, 256, 3, 2, 1),
        bn("bn3".into()),
        relu("relu3".into()),
        conv("conv4".into(), 256, 256, 3, 1, 1),
        relu("relu4".into()),
        LayerSpec::new("gap".to_string(), LayerKind::GlobalAvgPool),
        LayerSpec::new(
            "proj".to_string(),
            LayerKind::Linear {
                in_features: 256,
                out_features: 512,
            },
        ),
    ];
    Model::new(
        "mimonet_backbone",
        Shape::new(vec![superposition, 3, input_hw, input_hw]),
        layers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_output_is_512_features() {
        let m = resnet18(160, 3);
        assert_eq!(m.output_shape().dims(), &[1, 512]);
    }

    #[test]
    fn resnet18_param_count_in_expected_range() {
        // Canonical ResNet-18 has ~11.2M params (conv + fc); ours omits the
        // fc head and folds shortcuts, so expect 10M–13M.
        let m = resnet18(224, 3);
        let p = m.total_params();
        assert!((10_000_000..13_000_000).contains(&p), "params = {p}");
    }

    #[test]
    fn small_cnn_projects_to_embedding() {
        let m = small_cnn(32, 1, 256);
        assert_eq!(m.output_shape().dims(), &[1, 256]);
    }

    #[test]
    fn mimonet_batch_carries_superposition() {
        let m = mimonet_backbone(64, 4);
        assert_eq!(m.output_shape().dims(), &[4, 512]);
        assert_eq!(m.layer_input_shape(0).dims()[0], 4);
    }

    #[test]
    #[should_panic(expected = "resnet18 needs input_hw >= 32")]
    fn resnet18_rejects_tiny_input() {
        let _ = resnet18(16, 3);
    }
}
