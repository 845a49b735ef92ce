//! Residual networks (He et al. 2015), adapted to the accelerator's
//! constraints: the stripe pipeline runs stride-1 convolutions with
//! kernels up to the tile edge, so downsampling uses 2x2 max-pools
//! instead of stride-2 convolutions (both halve the spatial extent; the
//! pool keeps the stronger activation). Every convolution is ReLU-free
//! and followed by a [`LayerSpec::BatchNorm`] that quantization folds
//! into the conv weights, and projection shortcuts are 1x1 convs (in the
//! GEMM path, a transposed input). Input is a 3x32x32 image (CIFAR-style), classified
//! into 10 classes through global average pooling and one FC layer.
//!
//! In linear spec order a residual block reads:
//!
//! * identity block: `conv, bn, conv, bn, add(from: block input)`;
//! * downsampling block: the main path first (`maxpool, conv, bn, conv,
//!   bn`), then the projection shortcut re-opened with a
//!   [`LayerSpec::Ref`] on the block input (`ref, maxpool, conv1x1,
//!   bn`), and an `add` joining the two (`from:` the main path's end).

use crate::layer::{conv1x1, LayerRef, LayerSpec, NetworkSpec};
use zskip_tensor::Shape;

/// Stage widths (channels); spatial extent halves at each stage boundary.
const WIDTHS: [usize; 4] = [16, 32, 64, 128];

/// Output classes.
const CLASSES: usize = 10;

/// ResNet-18 (block pattern `[2, 2, 2, 2]`).
pub fn resnet18_spec() -> NetworkSpec {
    resnet_spec("resnet18", [2, 2, 2, 2])
}

/// ResNet-34 (block pattern `[3, 4, 6, 3]`).
pub fn resnet34_spec() -> NetworkSpec {
    resnet_spec("resnet34", [3, 4, 6, 3])
}

fn conv_bn(layers: &mut Vec<LayerSpec>, name: &str, in_c: usize, out_c: usize, relu: bool) {
    layers.push(LayerSpec::Conv {
        name: name.to_string(),
        in_c,
        out_c,
        k: 3,
        stride: 1,
        pad: 1,
        relu: false,
    });
    layers.push(LayerSpec::BatchNorm { name: format!("{name}_bn"), relu });
}

/// `conv, bn, conv, bn, add(from: block input)` at constant width.
fn identity_block(layers: &mut Vec<LayerSpec>, name: &str, w: usize) {
    let block_in = layers.len() - 1;
    conv_bn(layers, &format!("{name}_c1"), w, w, true);
    conv_bn(layers, &format!("{name}_c2"), w, w, false);
    layers.push(LayerSpec::Add {
        name: format!("{name}_add"),
        from: LayerRef::Layer(block_in),
        relu: true,
    });
}

/// Main path (`maxpool, conv, bn, conv, bn`), projection shortcut
/// (`ref, maxpool, conv1x1, bn`), then the join.
fn downsample_block(layers: &mut Vec<LayerSpec>, name: &str, w_in: usize, w_out: usize) {
    let block_in = layers.len() - 1;
    layers.push(LayerSpec::MaxPool { name: format!("{name}_pool"), k: 2, stride: 2 });
    conv_bn(layers, &format!("{name}_c1"), w_in, w_out, true);
    conv_bn(layers, &format!("{name}_c2"), w_out, w_out, false);
    let main_end = layers.len() - 1;
    layers.push(LayerSpec::Ref { name: format!("{name}_skip"), from: LayerRef::Layer(block_in) });
    layers.push(LayerSpec::MaxPool { name: format!("{name}_skip_pool"), k: 2, stride: 2 });
    layers.push(conv1x1(&format!("{name}_proj"), w_in, w_out));
    layers.push(LayerSpec::BatchNorm { name: format!("{name}_proj_bn"), relu: false });
    layers.push(LayerSpec::Add {
        name: format!("{name}_add"),
        from: LayerRef::Layer(main_end),
        relu: true,
    });
}

fn resnet_spec(name: &str, blocks: [usize; 4]) -> NetworkSpec {
    let mut layers = Vec::new();
    conv_bn(&mut layers, "stem", 3, WIDTHS[0], true);
    let mut w_in = WIDTHS[0];
    for (s, (&n, &w)) in blocks.iter().zip(&WIDTHS).enumerate() {
        for b in 0..n {
            let block = format!("b{}_{}", s + 1, b + 1);
            if s > 0 && b == 0 {
                downsample_block(&mut layers, &block, w_in, w);
            } else {
                identity_block(&mut layers, &block, w);
            }
        }
        w_in = w;
    }
    layers.push(LayerSpec::GlobalAvgPool { name: "gap".into() });
    layers.push(LayerSpec::Fc {
        name: "fc".into(),
        in_features: WIDTHS[3],
        out_features: CLASSES,
        relu: false,
    });
    layers.push(LayerSpec::Softmax);
    NetworkSpec { name: name.to_string(), input: Shape::new(3, 32, 32), layers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_shape_chain_is_valid() {
        let spec = resnet18_spec();
        let shapes = spec.shapes().expect("resnet18 must be shape-valid");
        assert_eq!(shapes[0], Shape::new(3, 32, 32));
        // The stage-4 output feeding the head: 128 channels at 4x4.
        let n = spec.layers.len();
        assert_eq!(shapes[n - 3], Shape::new(128, 4, 4));
        assert_eq!(*shapes.last().unwrap(), Shape::new(CLASSES, 1, 1));
        assert!(spec.has_branches());
        assert!(spec.has_batchnorm());
    }

    #[test]
    fn resnet34_shape_chain_is_valid() {
        let spec = resnet34_spec();
        assert!(spec.shapes().is_ok());
        assert!(spec.total_macs() > resnet18_spec().total_macs());
    }

    #[test]
    fn conv_counts_match_the_architecture() {
        // 18-layer pattern: 1 stem + 2 convs x (2+2+2+2) blocks + 3
        // projection shortcuts; 34-layer: 1 + 2 x (3+4+6+3) + 3.
        assert_eq!(resnet18_spec().conv_layers().len(), 20);
        assert_eq!(resnet34_spec().conv_layers().len(), 36);
        for spec in [resnet18_spec(), resnet34_spec()] {
            let pointwise = spec
                .conv_layers()
                .iter()
                .filter(|(_, l, _)| matches!(l, LayerSpec::Conv { k: 1, .. }))
                .count();
            assert_eq!(pointwise, 3, "{}: one projection per downsampling stage", spec.name);
        }
    }

    #[test]
    fn mac_counts_are_pinned() {
        // Per-stage identity convs all cost w^2 * hw^2 * 9 = 2,359,296 MACs
        // (width doubles exactly as the spatial extent halves); the stem,
        // three downsampling blocks, and the FC head make up the rest.
        assert_eq!(resnet18_spec().total_macs(), 35_046_656);
        assert_eq!(resnet34_spec().total_macs(), 72_795_392);
    }

    #[test]
    fn every_conv_is_relu_free_and_batchnormed() {
        let spec = resnet34_spec();
        for (i, l, _) in spec.conv_layers() {
            assert!(matches!(l, LayerSpec::Conv { relu: false, .. }), "{}", l.name());
            assert!(
                matches!(spec.layers[i + 1], LayerSpec::BatchNorm { .. }),
                "{} must feed a batch-norm",
                l.name()
            );
        }
    }
}
