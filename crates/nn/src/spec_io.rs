//! JSON network-spec loader and writer: new topologies without Rust code.
//!
//! The text format mirrors [`NetworkSpec`] directly — a name, an input
//! shape, and a layer array in execution order — except that
//! `ref`/`add` layers reference earlier layers **by name** (or
//! `"input"`), which the loader resolves to absolute indices. See
//! `docs/NETWORKS.md` for the full schema; `specs/resnet18.json` and
//! `specs/resnet34.json` are the in-repo exemplars, pinned byte-identical
//! to the [`crate::resnet`] builders by test.
//!
//! Parsing is strict: unknown fields, unknown `op` values, duplicate
//! layer names, and out-of-range numbers are rejected with a
//! [`SpecError`] naming the offending layer, and the loaded spec must
//! pass full DAG validation ([`NetworkSpec::shapes`]) before it is
//! returned. The CLI surfaces these as `error[spec.invalid]`.

use crate::layer::{LayerRef, LayerSpec, NetworkSpec};
use std::fmt;
use zskip_json::Json;
use zskip_tensor::Shape;

/// Error: a network-spec document could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What was wrong with the document.
    pub message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> Self {
        SpecError { message: message.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// One parsed layer object: checks field presence/types and tracks which
/// keys were consumed so leftovers can be rejected.
struct LayerObj<'a> {
    index: usize,
    op: &'a str,
    name: String,
    fields: &'a [(String, Json)],
    used: Vec<&'a str>,
}

impl<'a> LayerObj<'a> {
    fn err(&self, message: impl fmt::Display) -> SpecError {
        SpecError::new(format!("layer {} ('{}'): {}", self.index, self.name, message))
    }

    fn get(&mut self, key: &'a str) -> Option<&'a Json> {
        self.used.push(key);
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn usize_field(&mut self, key: &'a str) -> Result<usize, SpecError> {
        let v = self.get(key).ok_or_else(|| self.err(format!("missing field '{key}'")))?;
        v.as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| self.err(format!("field '{key}' must be a non-negative integer")))
    }

    fn bool_field(&mut self, key: &'a str) -> Result<bool, SpecError> {
        let v = self.get(key).ok_or_else(|| self.err(format!("missing field '{key}'")))?;
        v.as_bool().ok_or_else(|| self.err(format!("field '{key}' must be a boolean")))
    }

    /// Resolves the `from` field against the names of preceding layers.
    fn resolve_from(&mut self, earlier: &[String]) -> Result<LayerRef, SpecError> {
        let v = self.get("from").ok_or_else(|| self.err("missing field 'from'"))?;
        let target = v.as_str().ok_or_else(|| {
            self.err("field 'from' must be a layer name or \"input\"")
        })?;
        if target == "input" {
            return Ok(LayerRef::Input);
        }
        match earlier.iter().position(|n| n == target) {
            Some(j) => Ok(LayerRef::Layer(j)),
            None => Err(self.err(format!("'from' target '{target}' is not an earlier layer"))),
        }
    }

    fn reject_unknown(&self) -> Result<(), SpecError> {
        for (k, _) in self.fields {
            if !self.used.contains(&k.as_str()) {
                return Err(self.err(format!("unknown field '{k}'")));
            }
        }
        Ok(())
    }
}

impl NetworkSpec {
    /// Parses a network spec from its JSON text form and fully validates
    /// it (strict parsing plus [`NetworkSpec::shapes`] DAG validation).
    ///
    /// # Errors
    /// [`SpecError`] describing the first problem found.
    pub fn from_json(text: &str) -> Result<NetworkSpec, SpecError> {
        let doc = Json::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("missing string field 'name'"))?
            .to_string();
        let input = doc.get("input").ok_or_else(|| SpecError::new("missing field 'input'"))?;
        let dim = |key: &str| {
            input
                .get(key)
                .and_then(Json::as_u64)
                .filter(|&n| n > 0)
                .map(|n| n as usize)
                .ok_or_else(|| SpecError::new(format!("'input.{key}' must be a positive integer")))
        };
        let input = Shape::new(dim("c")?, dim("h")?, dim("w")?);
        let layer_objs = doc
            .get("layers")
            .and_then(Json::as_arr)
            .ok_or_else(|| SpecError::new("missing array field 'layers'"))?;

        let mut layers = Vec::with_capacity(layer_objs.len());
        let mut names: Vec<String> = Vec::with_capacity(layer_objs.len());
        for (index, obj) in layer_objs.iter().enumerate() {
            let fields = match obj {
                Json::Obj(fields) => fields,
                _ => return Err(SpecError::new(format!("layer {index}: not an object"))),
            };
            let op = obj
                .get("op")
                .and_then(Json::as_str)
                .ok_or_else(|| SpecError::new(format!("layer {index}: missing string field 'op'")))?;
            let name = match obj.get("name").and_then(Json::as_str) {
                Some(n) => n.to_string(),
                None if op == "softmax" => "softmax".to_string(),
                None => {
                    return Err(SpecError::new(format!("layer {index}: missing string field 'name'")))
                }
            };
            let mut l = LayerObj { index, op, name, fields, used: vec!["op", "name"] };
            if names.contains(&l.name) {
                return Err(l.err("duplicate layer name"));
            }
            let layer = match l.op {
                "conv" => LayerSpec::Conv {
                    name: l.name.clone(),
                    in_c: l.usize_field("in_c")?,
                    out_c: l.usize_field("out_c")?,
                    k: l.usize_field("k")?,
                    stride: l.usize_field("stride")?,
                    pad: l.usize_field("pad")?,
                    relu: l.bool_field("relu")?,
                },
                "maxpool" => LayerSpec::MaxPool {
                    name: l.name.clone(),
                    k: l.usize_field("k")?,
                    stride: l.usize_field("stride")?,
                },
                "fc" => LayerSpec::Fc {
                    name: l.name.clone(),
                    in_features: l.usize_field("in_features")?,
                    out_features: l.usize_field("out_features")?,
                    relu: l.bool_field("relu")?,
                },
                "softmax" => LayerSpec::Softmax,
                "ref" => LayerSpec::Ref { name: l.name.clone(), from: l.resolve_from(&names)? },
                "add" => LayerSpec::Add {
                    name: l.name.clone(),
                    from: l.resolve_from(&names)?,
                    relu: l.bool_field("relu")?,
                },
                "gap" => LayerSpec::GlobalAvgPool { name: l.name.clone() },
                "batchnorm" => {
                    LayerSpec::BatchNorm { name: l.name.clone(), relu: l.bool_field("relu")? }
                }
                other => return Err(l.err(format!("unknown op '{other}'"))),
            };
            l.reject_unknown()?;
            names.push(l.name.clone());
            layers.push(layer);
        }
        for (k, _) in match &doc {
            Json::Obj(fields) => fields.as_slice(),
            _ => return Err(SpecError::new("document must be a JSON object")),
        } {
            if !matches!(k.as_str(), "name" | "input" | "layers") {
                return Err(SpecError::new(format!("unknown top-level field '{k}'")));
            }
        }
        let spec = NetworkSpec { name, input, layers };
        spec.shapes().map_err(|e| SpecError::new(e.to_string()))?;
        Ok(spec)
    }

    /// Renders this spec in the JSON text form [`NetworkSpec::from_json`]
    /// parses (references are emitted by layer name). Round-trips exactly
    /// for any spec whose layer names are unique — which `from_json`
    /// enforces on the way back in.
    pub fn to_json(&self) -> String {
        let num = |n: usize| Json::Num(n as f64);
        let from_str = |from: &LayerRef| {
            Json::Str(match from {
                LayerRef::Input => "input".to_string(),
                LayerRef::Layer(j) => self.layers[*j].name().to_string(),
            })
        };
        let layers: Vec<Json> = self
            .layers
            .iter()
            .map(|l| {
                let mut fields: Vec<(&str, Json)> = Vec::new();
                match l {
                    LayerSpec::Conv { name, in_c, out_c, k, stride, pad, relu } => {
                        fields.push(("op", Json::Str("conv".into())));
                        fields.push(("name", Json::Str(name.clone())));
                        fields.push(("in_c", num(*in_c)));
                        fields.push(("out_c", num(*out_c)));
                        fields.push(("k", num(*k)));
                        fields.push(("stride", num(*stride)));
                        fields.push(("pad", num(*pad)));
                        fields.push(("relu", Json::Bool(*relu)));
                    }
                    LayerSpec::MaxPool { name, k, stride } => {
                        fields.push(("op", Json::Str("maxpool".into())));
                        fields.push(("name", Json::Str(name.clone())));
                        fields.push(("k", num(*k)));
                        fields.push(("stride", num(*stride)));
                    }
                    LayerSpec::Fc { name, in_features, out_features, relu } => {
                        fields.push(("op", Json::Str("fc".into())));
                        fields.push(("name", Json::Str(name.clone())));
                        fields.push(("in_features", num(*in_features)));
                        fields.push(("out_features", num(*out_features)));
                        fields.push(("relu", Json::Bool(*relu)));
                    }
                    LayerSpec::Softmax => {
                        fields.push(("op", Json::Str("softmax".into())));
                    }
                    LayerSpec::Ref { name, from } => {
                        fields.push(("op", Json::Str("ref".into())));
                        fields.push(("name", Json::Str(name.clone())));
                        fields.push(("from", from_str(from)));
                    }
                    LayerSpec::Add { name, from, relu } => {
                        fields.push(("op", Json::Str("add".into())));
                        fields.push(("name", Json::Str(name.clone())));
                        fields.push(("from", from_str(from)));
                        fields.push(("relu", Json::Bool(*relu)));
                    }
                    LayerSpec::GlobalAvgPool { name } => {
                        fields.push(("op", Json::Str("gap".into())));
                        fields.push(("name", Json::Str(name.clone())));
                    }
                    LayerSpec::BatchNorm { name, relu } => {
                        fields.push(("op", Json::Str("batchnorm".into())));
                        fields.push(("name", Json::Str(name.clone())));
                        fields.push(("relu", Json::Bool(*relu)));
                    }
                }
                Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            })
            .collect();
        let doc = Json::obj([
            ("name", Json::Str(self.name.clone())),
            (
                "input",
                Json::obj([
                    ("c", num(self.input.c)),
                    ("h", num(self.input.h)),
                    ("w", num(self.input.w)),
                ]),
            ),
            ("layers", Json::Arr(layers)),
        ]);
        let mut out = doc.to_string_pretty();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::{resnet18_spec, resnet34_spec};
    use crate::vgg16::vgg16_spec;

    #[test]
    fn builders_round_trip_through_json() {
        for spec in [vgg16_spec(), resnet18_spec(), resnet34_spec()] {
            let text = spec.to_json();
            let back = NetworkSpec::from_json(&text).expect("round-trip parse");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn minimal_linear_spec_parses() {
        let spec = NetworkSpec::from_json(
            r#"{
              "name": "tiny",
              "input": {"c": 3, "h": 8, "w": 8},
              "layers": [
                {"op": "conv", "name": "c1", "in_c": 3, "out_c": 4, "k": 3, "stride": 1, "pad": 1, "relu": true},
                {"op": "maxpool", "name": "p1", "k": 2, "stride": 2},
                {"op": "fc", "name": "fc", "in_features": 64, "out_features": 10, "relu": false},
                {"op": "softmax"}
              ]
            }"#,
        )
        .expect("valid spec");
        assert_eq!(spec.layers.len(), 4);
        assert_eq!(spec.input, Shape::new(3, 8, 8));
    }

    #[test]
    fn residual_references_resolve_by_name() {
        let spec = NetworkSpec::from_json(
            r#"{
              "name": "res",
              "input": {"c": 2, "h": 8, "w": 8},
              "layers": [
                {"op": "conv", "name": "c1", "in_c": 2, "out_c": 2, "k": 3, "stride": 1, "pad": 1, "relu": true},
                {"op": "add", "name": "join", "from": "input", "relu": true},
                {"op": "ref", "name": "skip", "from": "c1"},
                {"op": "add", "name": "join2", "from": "join", "relu": false}
              ]
            }"#,
        )
        .expect("valid spec");
        assert_eq!(spec.layers[1].explicit_input(), Some(LayerRef::Input));
        assert_eq!(spec.layers[2].explicit_input(), Some(LayerRef::Layer(0)));
        assert_eq!(spec.layers[3].explicit_input(), Some(LayerRef::Layer(1)));
    }

    fn expect_err(text: &str, needle: &str) {
        let err = NetworkSpec::from_json(text).expect_err("must be rejected");
        assert!(err.message.contains(needle), "'{}' not in '{}'", needle, err.message);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        expect_err("{", "invalid JSON");
        expect_err(r#"{"name": "x"}"#, "'input'");
        expect_err(r#"{"name": "x", "input": {"c": 0, "h": 8, "w": 8}, "layers": []}"#, "input.c");
        expect_err(
            r#"{"name": "x", "input": {"c": 1, "h": 8, "w": 8}, "layers": [{"op": "warp", "name": "w"}]}"#,
            "unknown op",
        );
        expect_err(
            r#"{"name": "x", "input": {"c": 1, "h": 8, "w": 8}, "layers": [{"op": "gap", "name": "g", "mode": 1}]}"#,
            "unknown field 'mode'",
        );
        expect_err(
            r#"{"name": "x", "input": {"c": 1, "h": 8, "w": 8}, "layers": [
                {"op": "gap", "name": "g"}, {"op": "gap", "name": "g"}]}"#,
            "duplicate layer name",
        );
        expect_err(
            r#"{"name": "x", "input": {"c": 1, "h": 8, "w": 8}, "layers": [
                {"op": "add", "name": "a", "from": "nope", "relu": false}]}"#,
            "not an earlier layer",
        );
        expect_err(
            r#"{"name": "x", "input": {"c": 1, "h": 8, "w": 8}, "layers": [], "extra": 1}"#,
            "unknown top-level field",
        );
        // Structurally well-formed but shape-invalid: DAG validation runs.
        expect_err(
            r#"{"name": "x", "input": {"c": 1, "h": 8, "w": 8}, "layers": [
                {"op": "maxpool", "name": "p", "k": 2, "stride": 2},
                {"op": "add", "name": "a", "from": "input", "relu": false}]}"#,
            "operand shapes differ",
        );
    }

    #[test]
    fn zero_sized_geometry_is_rejected_naming_the_field() {
        let one_layer = |layer: &str| {
            format!(r#"{{"name": "x", "input": {{"c": 3, "h": 8, "w": 8}}, "layers": [{layer}]}}"#)
        };
        let conv = |in_c, out_c, k, stride| {
            one_layer(&format!(
                r#"{{"op": "conv", "name": "c", "in_c": {in_c}, "out_c": {out_c}, "k": {k}, "stride": {stride}, "pad": 0, "relu": true}}"#
            ))
        };
        // `k: 0` used to pass validation and panic in the first kernel.
        expect_err(&conv(3, 4, 0, 1), "layer c: 'k' must be at least 1");
        expect_err(&conv(0, 4, 3, 1), "'in_c' must be at least 1");
        expect_err(&conv(3, 0, 3, 1), "'out_c' must be at least 1");
        expect_err(&conv(3, 4, 3, 0), "'stride' must be at least 1");
        expect_err(&one_layer(r#"{"op": "maxpool", "name": "p", "k": 0, "stride": 2}"#), "'k' must be at least 1");
        let fc = |i, o| {
            one_layer(&format!(r#"{{"op": "fc", "name": "f", "in_features": {i}, "out_features": {o}, "relu": false}}"#))
        };
        expect_err(&fc(0, 10), "'in_features' must be at least 1");
        expect_err(&fc(192, 0), "'out_features' must be at least 1");
    }

    /// Values a hand-written or fuzzed spec puts where a small positive
    /// count belongs.
    const DEGENERATE: [usize; 8] = [0, 1, 2, 3, 4, 7, 64, 4096];

    proptest::proptest! {
        /// Whatever counts a spec declares, loading it either fails with a
        /// `SpecError` (the CLI's `spec.invalid`) or yields a network with
        /// no zero count, non-empty activations and a plan — it never
        /// panics.
        #[test]
        fn degenerate_geometry_never_panics(
            conv in (0usize..8, 0usize..8, 0usize..8, 0usize..8, 0usize..8),
            pool in (0usize..8, 0usize..8),
            fc in (0usize..9, 0usize..8),
        ) {
            let d = |i: usize| DEGENERATE[i];
            let (in_c, out_c, k, stride, pad) = (d(conv.0), d(conv.1), d(conv.2), d(conv.3), d(conv.4));
            let (pool_k, pool_stride) = (d(pool.0), d(pool.1));
            // The ninth choice is the flattened size a valid chain reaches,
            // so some cases get past the FC layer's own length check.
            let flattened = zskip_tensor::shape::conv_out_dim(8, k, stride, pad)
                .and_then(|hw| zskip_tensor::shape::conv_out_dim(hw, pool_k, pool_stride, 0))
                .map_or(1, |hw| out_c * hw * hw);
            let in_features = DEGENERATE.get(fc.0).copied().unwrap_or(flattened);
            let text = format!(
                r#"{{"name": "fuzz", "input": {{"c": 3, "h": 8, "w": 8}}, "layers": [
                  {{"op": "conv", "name": "c", "in_c": {in_c}, "out_c": {out_c}, "k": {k}, "stride": {stride}, "pad": {pad}, "relu": true}},
                  {{"op": "maxpool", "name": "p", "k": {pool_k}, "stride": {pool_stride}}},
                  {{"op": "fc", "name": "f", "in_features": {in_features}, "out_features": {}, "relu": false}}
                ]}}"#,
                d(fc.1),
            );
            if let Ok(spec) = NetworkSpec::from_json(&text) {
                let counts = [in_c, out_c, k, stride, pool_k, pool_stride, in_features, d(fc.1)];
                proptest::prop_assert!(counts.iter().all(|&n| n > 0), "loaded with a zero count: {text}");
                let shapes = spec.shapes().expect("from_json validated the shapes");
                proptest::prop_assert!(shapes.iter().all(|s| !s.is_empty()), "{shapes:?}");
                proptest::prop_assert!(crate::plan::ExecPlan::build(&spec).is_ok());
            }
        }
    }
}
