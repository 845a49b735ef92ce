//! The versioned `TunedConfig` artifact: every tunable knob of a
//! [`Session`](crate::session::Session) plus the provenance of how the
//! tuner found it, serialized through `zskip-json`.
//!
//! The artifact is the tuner's output contract: `zskip tune` writes one,
//! [`SessionBuilder::from_tuned`](crate::session::SessionBuilder::from_tuned)
//! and the CLI's `--config <file>` flag load it, and
//! `zskip analyze --config` explains it. Serialization is canonical —
//! field order is fixed, floats render through the shared `zskip-json`
//! writer — so the determinism contract ("one workload → one
//! byte-identical artifact") holds at the byte level, not just
//! structurally.

use std::fs;
use std::path::Path;

use crate::error::Error;
use crate::exec::sched::Placement;
use crate::exec::BackendKind;
use crate::session::{SessionBuilder, DEFAULT_QUEUE_DEPTH};
use crate::tune::{Knob, KnobValue, KNOBS};
use zskip_hls::Variant;
use zskip_json::{Json, ToJson};
use zskip_nn::simd::KernelTier;

/// Current artifact schema version. Loaders reject other versions with
/// `config.invalid` rather than guessing at field semantics. Version 1
/// carried a `weight_cache` switch, version 2 the cycle simulator's
/// park-hysteresis knob, version 3 the serve loop's `max_batch` and
/// `batch_window_ms`, version 4 a seeded search's `seed`, `budget`,
/// `objective`, `searcher`, `evals` and `cache_hits` in its provenance.
pub const ARTIFACT_VERSION: u64 = 5;

/// How a [`TunedConfig`] came to be: the space whose sweep picked it and
/// the score it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Search-space name (`hls`, or a custom space's).
    pub space: String,
    /// The point's score: simulated seconds per image, lower is better.
    pub score: f64,
    /// Points the sweep scored (the space's cardinality).
    pub points: u64,
}

impl ToJson for Provenance {
    fn to_json(&self) -> Json {
        Json::obj([
            ("space", self.space.to_json()),
            ("score", self.score.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

/// The complete tunable configuration of a session: hardware side
/// (variant, instances, placement) and software side
/// (backend, threads, kernel tier, worker pool). This is the
/// search point the tuner moves through and the artifact it emits.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedConfig {
    /// HLS variant supplying the datapath geometry and clock.
    pub variant: Variant,
    /// Simulated accelerator instances (scale-out ladder).
    pub instances: usize,
    /// Execution backend.
    pub backend: BackendKind,
    /// Intra-image conv worker threads (cpu backend).
    pub threads: usize,
    /// Pinned SIMD kernel tier; `None` = process-wide dispatch.
    pub kernel: Option<KernelTier>,
    /// Multi-instance placement.
    pub placement: Placement,
    /// Batch-pool worker threads (0 = host auto).
    pub batch_workers: usize,
    /// Admission-control queue depth.
    pub queue_depth: usize,
    /// How the sweep found this point; `None` for hand-written configs.
    pub provenance: Option<Provenance>,
}

impl Default for TunedConfig {
    /// The out-of-the-box session: the paper's 256-opt variant on one
    /// instance with the [`SessionBuilder`] defaults — exactly what
    /// `Session::builder(AccelConfig::for_variant_instances(U256Opt, 1)).build()`
    /// gives you. Tuned scores are compared against this baseline.
    fn default() -> TunedConfig {
        TunedConfig {
            variant: Variant::U256Opt,
            instances: 1,
            backend: BackendKind::Model,
            threads: 1,
            kernel: None,
            placement: Placement::Auto,
            batch_workers: 0,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            provenance: None,
        }
    }
}

fn invalid(reason: impl std::fmt::Display) -> Error {
    Error::InvalidConfig(format!("tuned config: {reason}"))
}

impl Provenance {
    fn from_json(json: &Json) -> Result<Provenance, Error> {
        let field = |name: &str| {
            json.get(name).ok_or_else(|| invalid(format!("provenance missing field '{name}'")))
        };
        let int = |name: &str| {
            let value = field(name)?.as_u64();
            value.ok_or_else(|| invalid(format!("provenance {name} must be an integer")))
        };
        let text = |name: &str| {
            let value = field(name)?.as_str().map(str::to_string);
            value.ok_or_else(|| invalid(format!("provenance {name} must be a string")))
        };
        Ok(Provenance {
            space: text("space")?,
            score: field("score")?
                .as_f64()
                .ok_or_else(|| invalid("provenance score must be a number"))?,
            points: int("points")?,
        })
    }
}

/// The artifact's two fields that are not knobs.
const VERSION: &str = "version";
const PROVENANCE: &str = "provenance";

impl ToJson for TunedConfig {
    /// `version`, every [`KNOBS`] row in table order, then `provenance`
    /// when there is one.
    fn to_json(&self) -> Json {
        let mut fields = vec![(VERSION, ARTIFACT_VERSION.to_json())];
        fields.extend(KNOBS.iter().map(|knob| (knob.name, (knob.get)(self).to_json())));
        if let Some(p) = &self.provenance {
            fields.push((PROVENANCE, p.to_json()));
        }
        Json::obj(fields)
    }
}

impl TunedConfig {
    /// Parses an artifact from its JSON text.
    ///
    /// # Errors
    /// `config.invalid` on malformed JSON, a version mismatch, a missing,
    /// mistyped or out-of-range field, an unknown enum name, or a field
    /// this build does not know (a misspelt knob must not load as "knob
    /// left at its default").
    pub fn from_json_str(text: &str) -> Result<TunedConfig, Error> {
        TunedConfig::from_json(&Json::parse(text).map_err(invalid)?)
    }

    /// Parses an artifact from a parsed [`Json`] value.
    ///
    /// # Errors
    /// See [`TunedConfig::from_json_str`].
    pub fn from_json(json: &Json) -> Result<TunedConfig, Error> {
        let Json::Obj(fields) = json else { return Err(invalid("not a JSON object")) };
        let field =
            |name: &str| json.get(name).ok_or_else(|| invalid(format!("missing field '{name}'")));
        // The version first: another version's fields are not "unknown".
        match field(VERSION)?.as_u64() {
            Some(ARTIFACT_VERSION) => {}
            Some(version) => {
                return Err(invalid(format!(
                    "version {version} not supported (this build reads version {ARTIFACT_VERSION})"
                )))
            }
            None => return Err(invalid("field 'version' must be an integer")),
        }
        let known = |key: &str| key == VERSION || key == PROVENANCE || Knob::by_name(key).is_some();
        if let Some((key, _)) = fields.iter().find(|(key, _)| !known(key)) {
            return Err(invalid(format!("unknown field '{key}'")));
        }
        let mut config = TunedConfig::default();
        for knob in KNOBS.iter() {
            let json = field(knob.name)?;
            let value = KnobValue::from_json(json)
                .ok_or_else(|| "takes a whole number, a name or null".to_string());
            value.and_then(|v| (knob.set)(&mut config, v)).map_err(|e| {
                invalid(format!("field '{}' {e}, got {}", knob.name, json.to_string_compact()))
            })?;
        }
        config.provenance = json.get(PROVENANCE).map(Provenance::from_json).transpose()?;
        Ok(config)
    }

    /// The canonical serialized artifact text (what `save` writes).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    /// `config.invalid` wrapping the I/O failure (the unified error has
    /// no I/O arm; a config that cannot be persisted is unusable).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        let path = path.as_ref();
        fs::write(path, self.to_json_string())
            .map_err(|e| invalid(format!("cannot write {}: {e}", path.display())))
    }

    /// Reads an artifact from `path`.
    ///
    /// # Errors
    /// `config.invalid` on I/O failure or any parse failure
    /// (see [`TunedConfig::from_json_str`]).
    pub fn load(path: impl AsRef<Path>) -> Result<TunedConfig, Error> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)
            .map_err(|e| invalid(format!("cannot read {}: {e}", path.display())))?;
        TunedConfig::from_json_str(&text)
    }

    /// A [`SessionBuilder`] configured with every knob of this artifact,
    /// starting from
    /// [`AccelConfig::for_variant_instances`](crate::config::AccelConfig::for_variant_instances)
    /// of the variant/instances pair. Call `.build()` — which validates —
    /// or layer further overrides first. A zero `instances` (the field is
    /// public) has no cost-model point: the config keeps the zero, so
    /// `.build()` rejects it with `config.invalid`.
    pub fn session(&self) -> SessionBuilder {
        let mut config =
            crate::config::AccelConfig::for_variant_instances(self.variant, self.instances.max(1));
        config.instances = self.instances;
        let mut b = SessionBuilder::new(config)
            .backend(self.backend)
            .threads(self.threads)
            .placement(self.placement)
            .batch_workers(self.batch_workers)
            .queue_depth(self.queue_depth);
        if let Some(tier) = self.kernel {
            b = b.kernel(tier);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn provenance() -> Provenance {
        // Dyadic score: exact in f64 and in decimal.
        Provenance { space: "hls".into(), score: 0.001953125, points: 36 }
    }

    #[test]
    fn default_round_trips_byte_identically() {
        let config = TunedConfig::default();
        let text = config.to_json_string();
        let back = TunedConfig::from_json_str(&text).expect("parses");
        assert_eq!(back, config);
        assert_eq!(back.to_json_string(), text, "canonical form is a fixed point");
    }

    /// The knob lines of a provenance-less artifact: version 5 changed
    /// only what the provenance holds.
    #[test]
    fn default_artifact_text_is_pinned() {
        let golden = r#"{
  "version": 5,
  "variant": "256-opt",
  "instances": 1,
  "backend": "model",
  "threads": 1,
  "kernel": null,
  "placement": "auto",
  "batch_workers": 0,
  "queue_depth": 64
}"#;
        assert_eq!(TunedConfig::default().to_json_string(), golden);
    }

    #[test]
    fn provenance_round_trips() {
        let config = TunedConfig { provenance: Some(provenance()), ..TunedConfig::default() };
        let back = TunedConfig::from_json_str(&config.to_json_string()).expect("parses");
        assert_eq!(back, config);
    }

    #[test]
    fn rejects_malformed_artifacts() {
        for (text, why) in [
            ("not json", "parse failure"),
            (r#"{"version":99}"#, "future version"),
            (r#"{"version":5}"#, "missing fields"),
        ] {
            let err = TunedConfig::from_json_str(text).unwrap_err();
            assert_eq!(err.code(), "config.invalid", "{why}: {err}");
        }
        // An unknown enum name fails even with every field present; the
        // paper's 512-opt is 256-opt at two instances, not a variant.
        for name in ["999-opt", "512-opt"] {
            let text = TunedConfig::default().to_json_string().replace("\"256-opt\"", &format!("\"{name}\""));
            let err = TunedConfig::from_json_str(&text).unwrap_err();
            assert_eq!(err.code(), "config.invalid");
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    #[test]
    fn rejects_unknown_fields_by_name() {
        // A misspelt knob beside the real one, and one replacing it.
        let text = TunedConfig::default().to_json_string();
        for bad in [text.replacen("{", "{\n  \"thread\": 4,", 1), text.replace("\"threads\"", "\"thread\"")] {
            let err = TunedConfig::from_json_str(&bad).unwrap_err();
            assert_eq!(err.code(), "config.invalid");
            assert!(err.to_string().contains("unknown field 'thread'"), "{err}");
        }
        let err = TunedConfig::from_json_str("[1]").unwrap_err();
        assert_eq!(err.code(), "config.invalid");
    }

    #[test]
    fn a_version_3_artifact_and_its_batch_shaping_fields_are_refused_by_name() {
        // What the previous build wrote: refused for its version, not for
        // the fields this build no longer knows.
        let current = TunedConfig::default().to_json_string();
        let with_knobs = current
            .replace("  \"queue_depth\"", "  \"max_batch\": 8,\n  \"batch_window_ms\": 2,\n  \"queue_depth\"");
        let v3 = with_knobs.replace("\"version\": 5", "\"version\": 3");
        let err = TunedConfig::from_json_str(&v3).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("version 3 not supported (this build reads version 5)"), "{err}");
        // Hand-bumping the version does not bring the knobs back.
        let err = TunedConfig::from_json_str(&with_knobs).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("unknown field 'max_batch'"), "{err}");
    }

    /// The golden `zskip tune --hw 32` artifact the previous build wrote,
    /// verbatim: its seeded search's provenance fields are not read, the
    /// version is refused first.
    #[test]
    fn a_version_4_artifact_is_refused_by_its_version() {
        let v4 = r#"{
  "version": 4,
  "variant": "256-opt",
  "instances": 4,
  "backend": "model",
  "threads": 1,
  "kernel": null,
  "placement": "auto",
  "batch_workers": 0,
  "queue_depth": 64,
  "provenance": {
    "seed": 1523244553,
    "budget": 96,
    "objective": "cycles",
    "space": "hls",
    "searcher": "cd",
    "score": 0.008138193333333333,
    "evals": 12,
    "cache_hits": 5
  }
}"#;
        let err = TunedConfig::from_json_str(v4).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("version 4 not supported (this build reads version 5)"), "{err}");
        // Relabelled version 5 it still fails: its provenance lacks `points`.
        let err = TunedConfig::from_json_str(&v4.replace("\"version\": 4", "\"version\": 5")).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("provenance missing field 'points'"), "{err}");
    }

    #[test]
    fn zero_instances_never_reach_the_cost_model() {
        let text = TunedConfig::default().to_json_string().replace("\"instances\": 1", "\"instances\": 0");
        let err = TunedConfig::from_json_str(&text).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("field 'instances' must be at least 1"), "{err}");
        // The field is public, so `session()` has to fail closed too.
        let err = TunedConfig { instances: 0, ..TunedConfig::default() }.session().build().unwrap_err();
        assert_eq!(err.code(), "config.invalid");
    }

    #[test]
    fn session_applies_every_knob() {
        let config = TunedConfig {
            variant: Variant::U256Opt,
            instances: 4,
            backend: BackendKind::Cpu,
            threads: 2,
            kernel: Some(KernelTier::Scalar),
            placement: Placement::Pipeline,
            batch_workers: 2,
            queue_depth: 11,
            provenance: None,
        };
        let session = config.session().build().expect("valid");
        let d = session.driver();
        assert_eq!(d.backend, BackendKind::Cpu);
        assert_eq!(d.threads, 2);
        assert_eq!(d.kernel_tier, KernelTier::Scalar);
        assert_eq!(d.config, crate::config::AccelConfig::for_variant_instances(Variant::U256Opt, 4));
        let b = session.batch_config();
        assert_eq!(b.placement, Placement::Pipeline);
        assert_eq!(b.workers, 2);
        assert_eq!(b.queue_depth, 11);
    }

    /// Every JSON value a single-field mutation swaps in.
    const MUTANTS: [&str; 12] = [
        "null", "true", "0", "-1", "1.5", "1e300", "4294967296", "18446744073709551616", "\"\"",
        "\"cpu\"", "[]", "{}",
    ];

    const TOKENS: [&str; 16] = [
        "{", "}", "[", "]", ":", ",", "\"version\"", "5", "\"threads\"", "\"kernel\"", "null",
        "\"provenance\"", "\"points\"", "-", "\"", "true",
    ];

    proptest! {
        #[test]
        fn arbitrary_text_never_panics(
            bytes in prop::collection::vec(0u8..=255, 0..48),
            tokens in prop::collection::vec(0usize..TOKENS.len(), 0..32),
        ) {
            // Raw bytes rarely get past the JSON parser; token soup does.
            let soup: String = tokens.iter().map(|&t| TOKENS[t]).collect();
            for text in [String::from_utf8_lossy(&bytes).into_owned(), soup] {
                if let Err(e) = TunedConfig::from_json_str(&text) {
                    prop_assert_eq!(e.code(), "config.invalid");
                }
            }
        }

        #[test]
        fn single_field_mutations_never_panic(
            line in 1usize..15,
            mutant in 0usize..MUTANTS.len(),
            drop in prop::bool::ANY,
        ) {
            let valid = TunedConfig { provenance: Some(provenance()), ..TunedConfig::default() };
            let mut lines: Vec<String> = valid.to_json_string().lines().map(str::to_string).collect();
            prop_assume!(line < lines.len() - 1);
            if drop {
                lines.remove(line);
            } else if let Some((key, value)) = lines[line].clone().split_once(": ") {
                let comma = if value.ends_with(',') { "," } else { "" };
                lines[line] = format!("{key}: {}{comma}", MUTANTS[mutant]);
            }
            match TunedConfig::from_json_str(&lines.join("\n")) {
                // Loading is only the first edge: whatever loads must build or be refused.
                Ok(config) => if let Err(e) = config.session().build() {
                    prop_assert_eq!(e.code(), "config.invalid");
                },
                Err(e) => prop_assert_eq!(e.code(), "config.invalid"),
            }
        }
    }
}
