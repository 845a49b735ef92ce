//! Layer specifications and shape inference.
//!
//! A [`NetworkSpec`] is a topologically-ordered layer list. Every layer
//! implicitly consumes the previous layer's output (the VGG-style linear
//! chain is the degenerate case), and two variants carry an *explicit*
//! second reference into earlier layers — [`LayerSpec::Ref`] re-emits an
//! earlier activation (opening a branch) and [`LayerSpec::Add`] joins the
//! running branch back into it (a residual skip connection). References
//! always point strictly backwards, so any spec that passes [`NetworkSpec::shapes`]
//! is a valid DAG in execution order by construction.

use std::fmt;
use zskip_tensor::{shape::conv_out_dim, Shape};

/// A reference to an earlier activation in the network: either the
/// network input or the output of a preceding layer (by absolute index).
///
/// Used by [`LayerSpec::Ref`] and [`LayerSpec::Add`]; a reference must
/// point *strictly before* the layer that carries it, which
/// [`NetworkSpec::shapes`] validates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerRef {
    /// The network input activation.
    Input,
    /// The output of the layer at this absolute index.
    Layer(usize),
}

impl fmt::Display for LayerRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerRef::Input => write!(f, "input"),
            LayerRef::Layer(i) => write!(f, "layer {i}"),
        }
    }
}

/// Specification of one network layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// 2-D convolution with square kernels, optional fused ReLU.
    Conv {
        /// Layer name, e.g. `"conv1_1"`.
        name: String,
        /// Input channels.
        in_c: usize,
        /// Output channels (number of filters).
        out_c: usize,
        /// Kernel edge length (3 for all of VGG-16).
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each spatial side.
        pad: usize,
        /// Whether ReLU is fused at the output.
        relu: bool,
    },
    /// Max pooling.
    MaxPool {
        /// Layer name, e.g. `"pool1"`.
        name: String,
        /// Pooling window edge length.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Fully connected layer, optional fused ReLU. Executed on the host
    /// processor in the paper's system ("We do not focus on fully connected
    /// layers").
    Fc {
        /// Layer name, e.g. `"fc6"`.
        name: String,
        /// Input features (flattened).
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Whether ReLU is fused at the output.
        relu: bool,
    },
    /// Softmax over the flattened activations.
    Softmax,
    /// Identity layer re-emitting an earlier activation, opening a skip
    /// branch: the layers after it run on the referenced activation while
    /// the main path's result stays alive for a later [`LayerSpec::Add`].
    Ref {
        /// Layer name, e.g. `"block2_skip"`.
        name: String,
        /// The activation this layer re-emits.
        from: LayerRef,
    },
    /// Elementwise addition of the previous layer's output with an
    /// earlier activation (the residual join), optional fused ReLU.
    /// Executed on the host processor, like FC layers.
    Add {
        /// Layer name, e.g. `"block2_add"`.
        name: String,
        /// The second operand (the first is the previous layer's output).
        from: LayerRef,
        /// Whether ReLU is fused at the output.
        relu: bool,
    },
    /// Global average pooling: each channel collapses to its spatial
    /// mean, yielding a `c x 1 x 1` output. Executed on the host.
    GlobalAvgPool {
        /// Layer name, e.g. `"gap"`.
        name: String,
    },
    /// Batch normalization over the previous convolution's output,
    /// optional fused ReLU. Never executed at inference time: quantization
    /// folds it into the preceding conv's weights (the standard
    /// conv→BN→ReLU deployment transform), so the conv must carry
    /// `relu: false` and feed only this layer.
    BatchNorm {
        /// Layer name, e.g. `"conv1_bn"`.
        name: String,
        /// Whether ReLU is fused at the output.
        relu: bool,
    },
}

impl LayerSpec {
    /// The layer's name (`"softmax"` for the softmax layer).
    pub fn name(&self) -> &str {
        match self {
            LayerSpec::Conv { name, .. }
            | LayerSpec::MaxPool { name, .. }
            | LayerSpec::Fc { name, .. }
            | LayerSpec::Ref { name, .. }
            | LayerSpec::Add { name, .. }
            | LayerSpec::GlobalAvgPool { name }
            | LayerSpec::BatchNorm { name, .. } => name,
            LayerSpec::Softmax => "softmax",
        }
    }

    /// The explicit second input of a `Ref`/`Add` layer, if any. Every
    /// layer also implicitly consumes the previous layer's output —
    /// except `Ref`, whose *only* input is the referenced activation.
    pub fn explicit_input(&self) -> Option<LayerRef> {
        match self {
            LayerSpec::Ref { from, .. } | LayerSpec::Add { from, .. } => Some(*from),
            _ => None,
        }
    }

    /// Output shape given an input shape.
    ///
    /// # Errors
    /// Returns [`ShapeError`] when the input shape is incompatible
    /// (channel mismatch, window larger than input, etc.).
    pub fn output_shape(&self, input: Shape) -> Result<Shape, ShapeError> {
        match self {
            LayerSpec::Conv { name, in_c, out_c, k, stride, pad, .. } => {
                nonzero(name, &[("in_c", *in_c), ("out_c", *out_c), ("k", *k), ("stride", *stride)])?;
                if input.c != *in_c {
                    return Err(ShapeError::new(name, format!("expected {in_c} input channels, got {}", input.c)));
                }
                let h = conv_out_dim(input.h, *k, *stride, *pad)
                    .ok_or_else(|| ShapeError::new(name, format!("kernel {k} does not fit height {}", input.h)))?;
                let w = conv_out_dim(input.w, *k, *stride, *pad)
                    .ok_or_else(|| ShapeError::new(name, format!("kernel {k} does not fit width {}", input.w)))?;
                Ok(Shape::new(*out_c, h, w))
            }
            LayerSpec::MaxPool { name, k, stride } => {
                nonzero(name, &[("k", *k), ("stride", *stride)])?;
                let h = conv_out_dim(input.h, *k, *stride, 0)
                    .ok_or_else(|| ShapeError::new(name, format!("window {k} does not fit height {}", input.h)))?;
                let w = conv_out_dim(input.w, *k, *stride, 0)
                    .ok_or_else(|| ShapeError::new(name, format!("window {k} does not fit width {}", input.w)))?;
                Ok(Shape::new(input.c, h, w))
            }
            LayerSpec::Fc { name, in_features, out_features, .. } => {
                nonzero(name, &[("in_features", *in_features), ("out_features", *out_features)])?;
                if input.len() != *in_features {
                    return Err(ShapeError::new(
                        name,
                        format!("expected {in_features} input features, got {}", input.len()),
                    ));
                }
                Ok(Shape::new(*out_features, 1, 1))
            }
            LayerSpec::Softmax => Ok(Shape::new(input.len(), 1, 1)),
            // Ref re-emits the referenced activation (the caller resolves
            // the reference and passes its shape as `input`); Add and
            // BatchNorm are elementwise. Operand-shape equality for Add
            // and BN placement are validated by [`NetworkSpec::shapes`].
            LayerSpec::Ref { .. } | LayerSpec::Add { .. } | LayerSpec::BatchNorm { .. } => Ok(input),
            LayerSpec::GlobalAvgPool { name } => {
                if input.h == 0 || input.w == 0 {
                    return Err(ShapeError::new(name, "empty spatial extent".to_string()));
                }
                Ok(Shape::new(input.c, 1, 1))
            }
        }
    }

    /// Multiply-accumulate operations this layer performs for an input
    /// shape. Pool/softmax layers report zero (the paper counts conv and FC
    /// work; GOPS figures count `2 x MACs` as operations).
    pub fn macs(&self, input: Shape) -> u64 {
        match self {
            LayerSpec::Conv { k, .. } => {
                let out = self.output_shape(input).expect("shape checked by caller");
                (out.len() as u64) * (input.c as u64) * (*k as u64) * (*k as u64)
            }
            LayerSpec::Fc { in_features, out_features, .. } => (*in_features as u64) * (*out_features as u64),
            // Elementwise/identity layers carry no multiply work: Add is
            // pure additions, GAP one division per channel, BN folds away
            // before inference.
            LayerSpec::MaxPool { .. }
            | LayerSpec::Softmax
            | LayerSpec::Ref { .. }
            | LayerSpec::Add { .. }
            | LayerSpec::GlobalAvgPool { .. }
            | LayerSpec::BatchNorm { .. } => 0,
        }
    }

    /// Whether this layer runs on the accelerator (conv/pool; padding is
    /// folded into conv here) rather than the host processor. Add and
    /// global average pooling run on the host like FC layers (the paper
    /// keeps non-conv work on the embedded ARM).
    pub fn on_accelerator(&self) -> bool {
        matches!(self, LayerSpec::Conv { .. } | LayerSpec::MaxPool { .. })
    }
}

/// An ordered list of layers with a fixed input shape.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Network name, e.g. `"vgg16"`.
    pub name: String,
    /// Shape of the network input.
    pub input: Shape,
    /// The layers, in execution order.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Validates the layer DAG and returns every intermediate shape
    /// (`shapes[0]` is the input, `shapes[i+1]` the output of layer `i`).
    ///
    /// Beyond per-layer shape inference this checks the graph structure:
    /// `Ref`/`Add` references must point strictly backwards, `Add`
    /// operands must have equal shapes, and a `BatchNorm` must directly
    /// follow a ReLU-free convolution that feeds nothing else (so the
    /// fold into the conv weights is well-defined).
    ///
    /// # Errors
    /// Returns the first [`ShapeError`] encountered.
    pub fn shapes(&self) -> Result<Vec<Shape>, ShapeError> {
        let mut shapes = vec![self.input];
        // Index of the first FC/softmax layer: past it activations live as
        // flat vectors, so feature-map layers and references into the head
        // are rejected (the head is a strictly linear tail).
        let mut flat_head: Option<usize> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let prev = *shapes.last().expect("non-empty");
            match layer {
                LayerSpec::Fc { .. } | LayerSpec::Softmax => {
                    flat_head.get_or_insert(i);
                }
                _ if flat_head.is_some() => {
                    return Err(ShapeError::new(
                        layer.name(),
                        "feature-map layers cannot follow the fully-connected head".to_string(),
                    ));
                }
                _ => {}
            }
            // Resolve the explicit reference, enforcing backward-only.
            let referenced = match layer.explicit_input() {
                Some(LayerRef::Input) => Some(self.input),
                Some(LayerRef::Layer(j)) => {
                    if j >= i {
                        return Err(ShapeError::new(
                            layer.name(),
                            format!("reference to layer {j} does not point strictly backwards"),
                        ));
                    }
                    if matches!(self.layers[j], LayerSpec::Fc { .. } | LayerSpec::Softmax) {
                        return Err(ShapeError::new(
                            layer.name(),
                            format!("reference into the fully-connected head ('{}')", self.layers[j].name()),
                        ));
                    }
                    Some(shapes[j + 1])
                }
                None => None,
            };
            let next = match layer {
                LayerSpec::Ref { .. } => referenced.expect("Ref carries a reference"),
                LayerSpec::Add { name, .. } => {
                    let r = referenced.expect("Add carries a reference");
                    if r != prev {
                        return Err(ShapeError::new(
                            name,
                            format!("operand shapes differ: {prev} (previous layer) vs {r} (referenced)"),
                        ));
                    }
                    if i == 0 {
                        return Err(ShapeError::new(name, "add has no previous layer".to_string()));
                    }
                    prev
                }
                LayerSpec::BatchNorm { name, .. } => {
                    let prev_foldable = matches!(
                        i.checked_sub(1).map(|p| &self.layers[p]),
                        Some(LayerSpec::Conv { relu: false, .. })
                    );
                    if !prev_foldable {
                        return Err(ShapeError::new(
                            name,
                            "batch-norm must directly follow a ReLU-free convolution".to_string(),
                        ));
                    }
                    // The conv's output must not be referenced elsewhere:
                    // folding rewrites it, so a second consumer would see
                    // post-BN values where it expected pre-BN ones.
                    let conv_idx = i - 1;
                    if let Some(user) = self.layers.iter().enumerate().find(|(j, l)| {
                        *j != i && l.explicit_input() == Some(LayerRef::Layer(conv_idx))
                    }) {
                        return Err(ShapeError::new(
                            name,
                            format!(
                                "folded conv '{}' is also referenced by '{}'",
                                self.layers[conv_idx].name(),
                                user.1.name()
                            ),
                        ));
                    }
                    layer.output_shape(prev)?
                }
                _ => layer.output_shape(prev)?,
            };
            shapes.push(next);
        }
        Ok(shapes)
    }

    /// Whether any layer carries an explicit reference (i.e. the spec is
    /// a genuine DAG rather than a linear chain).
    pub fn has_branches(&self) -> bool {
        self.layers.iter().any(|l| l.explicit_input().is_some())
    }

    /// Whether any layer is a [`LayerSpec::BatchNorm`] (i.e. quantization
    /// must fold before lowering).
    pub fn has_batchnorm(&self) -> bool {
        self.layers.iter().any(|l| matches!(l, LayerSpec::BatchNorm { .. }))
    }

    /// Total MACs for one inference.
    pub fn total_macs(&self) -> u64 {
        let shapes = self.shapes().expect("network must be shape-valid");
        self.layers.iter().zip(&shapes).map(|(l, &s)| l.macs(s)).sum()
    }

    /// The convolution layers with their input shapes, in order.
    pub fn conv_layers(&self) -> Vec<(usize, &LayerSpec, Shape)> {
        let shapes = self.shapes().expect("network must be shape-valid");
        self.layers
            .iter()
            .enumerate()
            .zip(&shapes)
            .filter(|((_, l), _)| matches!(l, LayerSpec::Conv { .. }))
            .map(|((i, l), &s)| (i, l, s))
            .collect()
    }
}

/// Error: a layer cannot accept its input shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Layer that rejected the shape.
    pub layer: String,
    /// Description of the mismatch.
    pub reason: String,
}

impl ShapeError {
    fn new(layer: &str, reason: String) -> Self {
        ShapeError { layer: layer.to_string(), reason }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer {}: {}", self.layer, self.reason)
    }
}

impl std::error::Error for ShapeError {}

/// Rejects a zero in a layer's declared geometry: an empty window, a
/// stride that never advances or a layer without channels has no output,
/// and the kernels downstream assume at least one of each.
fn nonzero(layer: &str, fields: &[(&str, usize)]) -> Result<(), ShapeError> {
    match fields.iter().find(|(_, value)| *value == 0) {
        Some((field, _)) => Err(ShapeError::new(layer, format!("'{field}' must be at least 1"))),
        None => Ok(()),
    }
}

/// Builds a conv layer spec with VGG-style 3x3/stride-1/pad-1 geometry.
pub fn conv3x3(name: &str, in_c: usize, out_c: usize) -> LayerSpec {
    LayerSpec::Conv { name: name.to_string(), in_c, out_c, k: 3, stride: 1, pad: 1, relu: true }
}

/// Builds a pointwise (1x1/stride-1/pad-0) conv layer spec, ReLU-free so
/// it can feed a [`LayerSpec::BatchNorm`] — the ResNet projection-shortcut
/// geometry. A 1x1 conv's lowering in the quantized GEMM path is a
/// transpose of its input.
pub fn conv1x1(name: &str, in_c: usize, out_c: usize) -> LayerSpec {
    LayerSpec::Conv { name: name.to_string(), in_c, out_c, k: 1, stride: 1, pad: 0, relu: false }
}

/// Builds a 2x2/stride-2 max-pool layer spec.
pub fn maxpool2x2(name: &str) -> LayerSpec {
    LayerSpec::MaxPool { name: name.to_string(), k: 2, stride: 2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_inference() {
        let l = conv3x3("c", 3, 64);
        assert_eq!(l.output_shape(Shape::new(3, 224, 224)).unwrap(), Shape::new(64, 224, 224));
    }

    #[test]
    fn conv_rejects_channel_mismatch() {
        let l = conv3x3("c", 3, 64);
        let err = l.output_shape(Shape::new(4, 8, 8)).unwrap_err();
        assert_eq!(err.layer, "c");
        assert!(err.to_string().contains("channels"));
    }

    #[test]
    fn pool_halves_dims() {
        let l = maxpool2x2("p");
        assert_eq!(l.output_shape(Shape::new(64, 224, 224)).unwrap(), Shape::new(64, 112, 112));
    }

    #[test]
    fn fc_flattens() {
        let l = LayerSpec::Fc { name: "fc".into(), in_features: 512 * 7 * 7, out_features: 4096, relu: true };
        assert_eq!(l.output_shape(Shape::new(512, 7, 7)).unwrap(), Shape::new(4096, 1, 1));
        assert!(l.output_shape(Shape::new(512, 7, 8)).is_err());
    }

    #[test]
    fn macs_of_first_vgg_layer() {
        let l = conv3x3("conv1_1", 3, 64);
        // 64 * 224 * 224 * 3 * 9 MACs.
        assert_eq!(l.macs(Shape::new(3, 224, 224)), 64 * 224 * 224 * 3 * 9);
    }

    #[test]
    fn network_shapes_chain() {
        let net = NetworkSpec {
            name: "tiny".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![
                conv3x3("c1", 3, 8),
                maxpool2x2("p1"),
                LayerSpec::Fc { name: "fc".into(), in_features: 8 * 4 * 4, out_features: 10, relu: false },
                LayerSpec::Softmax,
            ],
        };
        let shapes = net.shapes().unwrap();
        assert_eq!(shapes[1], Shape::new(8, 8, 8));
        assert_eq!(shapes[2], Shape::new(8, 4, 4));
        assert_eq!(shapes[3], Shape::new(10, 1, 1));
        assert_eq!(shapes[4], Shape::new(10, 1, 1));
        assert_eq!(net.conv_layers().len(), 1);
        assert!(net.total_macs() > 0);
    }

    #[test]
    fn on_accelerator_partitioning() {
        assert!(conv3x3("c", 1, 1).on_accelerator());
        assert!(maxpool2x2("p").on_accelerator());
        assert!(!LayerSpec::Softmax.on_accelerator());
        assert!(!LayerSpec::Fc { name: "f".into(), in_features: 1, out_features: 1, relu: false }.on_accelerator());
        assert!(!LayerSpec::Add { name: "a".into(), from: LayerRef::Input, relu: false }.on_accelerator());
        assert!(!LayerSpec::Ref { name: "r".into(), from: LayerRef::Input }.on_accelerator());
        assert!(!LayerSpec::GlobalAvgPool { name: "g".into() }.on_accelerator());
        assert!(!LayerSpec::BatchNorm { name: "b".into(), relu: true }.on_accelerator());
    }

    /// A minimal residual block: conv → conv, skip from the block input.
    fn residual_spec() -> NetworkSpec {
        NetworkSpec {
            name: "res".into(),
            input: Shape::new(4, 8, 8),
            layers: vec![
                conv3x3("c1", 4, 4),
                conv3x3("c2", 4, 4),
                LayerSpec::Add { name: "join".into(), from: LayerRef::Input, relu: true },
                LayerSpec::GlobalAvgPool { name: "gap".into() },
            ],
        }
    }

    #[test]
    fn residual_shapes_chain() {
        let spec = residual_spec();
        let shapes = spec.shapes().unwrap();
        assert_eq!(shapes[3], Shape::new(4, 8, 8), "add keeps the operand shape");
        assert_eq!(shapes[4], Shape::new(4, 1, 1), "gap collapses spatially");
        assert!(spec.has_branches());
        assert!(!spec.has_batchnorm());
    }

    #[test]
    fn ref_reemits_the_referenced_shape() {
        let spec = NetworkSpec {
            name: "branch".into(),
            input: Shape::new(2, 6, 6),
            layers: vec![
                maxpool2x2("p"),
                LayerSpec::Ref { name: "skip".into(), from: LayerRef::Input },
            ],
        };
        let shapes = spec.shapes().unwrap();
        assert_eq!(shapes[1], Shape::new(2, 3, 3));
        assert_eq!(shapes[2], Shape::new(2, 6, 6), "ref re-emits the input shape");
    }

    #[test]
    fn forward_references_are_rejected() {
        let spec = NetworkSpec {
            name: "bad".into(),
            input: Shape::new(2, 6, 6),
            layers: vec![
                LayerSpec::Ref { name: "skip".into(), from: LayerRef::Layer(1) },
                maxpool2x2("p"),
            ],
        };
        let err = spec.shapes().unwrap_err();
        assert!(err.reason.contains("strictly backwards"), "{err}");
    }

    #[test]
    fn add_rejects_mismatched_operands() {
        let spec = NetworkSpec {
            name: "bad".into(),
            input: Shape::new(2, 6, 6),
            layers: vec![
                maxpool2x2("p"),
                LayerSpec::Add { name: "join".into(), from: LayerRef::Input, relu: false },
            ],
        };
        let err = spec.shapes().unwrap_err();
        assert!(err.reason.contains("operand shapes differ"), "{err}");
    }

    #[test]
    fn batchnorm_requires_a_relu_free_conv() {
        let ok = NetworkSpec {
            name: "bn".into(),
            input: Shape::new(2, 6, 6),
            layers: vec![
                LayerSpec::Conv { name: "c".into(), in_c: 2, out_c: 3, k: 3, stride: 1, pad: 1, relu: false },
                LayerSpec::BatchNorm { name: "c_bn".into(), relu: true },
            ],
        };
        assert!(ok.shapes().is_ok());
        assert!(ok.has_batchnorm());
        let relu_conv = NetworkSpec {
            layers: vec![conv3x3("c", 2, 3), LayerSpec::BatchNorm { name: "c_bn".into(), relu: true }],
            ..ok.clone()
        };
        assert!(relu_conv.shapes().unwrap_err().reason.contains("ReLU-free"));
        let after_pool = NetworkSpec {
            layers: vec![maxpool2x2("p"), LayerSpec::BatchNorm { name: "bn".into(), relu: false }],
            ..ok.clone()
        };
        assert!(after_pool.shapes().is_err());
    }

    #[test]
    fn batchnorm_conv_must_not_feed_other_layers() {
        let spec = NetworkSpec {
            name: "bn".into(),
            input: Shape::new(2, 6, 6),
            layers: vec![
                LayerSpec::Conv { name: "c".into(), in_c: 2, out_c: 2, k: 3, stride: 1, pad: 1, relu: false },
                LayerSpec::BatchNorm { name: "c_bn".into(), relu: true },
                LayerSpec::Add { name: "join".into(), from: LayerRef::Layer(0), relu: false },
            ],
        };
        let err = spec.shapes().unwrap_err();
        assert!(err.reason.contains("also referenced"), "{err}");
    }
}
