//! The knob table — the single declaration of every run knob — and the
//! search space built from it.
//!
//! [`KNOBS`] has one row per [`TunedConfig`] field: its artifact name, CLI
//! flag, a getter and a validating setter through [`KnobValue`], and, for
//! the hardware knobs, its candidates in the hls search space. The
//! artifact's JSON (`artifact.rs`), the space below, and the CLI's flag
//! groups, `--help` defaults, [`resolve`] precedence and knob printout
//! (`src/main.rs`) are loops over it. Adding a knob is one struct field,
//! its default, its line in [`TunedConfig::session`] and one row here.
//!
//! A space is an ordered list of [`Axis`] values (a knob plus explicit,
//! finite candidates — bounds *and* steps in one place); a [`Point`] is
//! one candidate index per axis. Every axis holds the session default, so
//! the default point denotes exactly [`TunedConfig::default`] — the
//! baseline the tuner's improvement is measured against.

use crate::error::Error;
use crate::exec::sched::Placement;
use crate::exec::BackendKind;
use crate::tune::TunedConfig;
use zskip_hls::Variant;
use zskip_json::{Json, ToJson};
use zskip_nn::simd::KernelTier;
use FlagGroup::{Network, Pool, Serve, Session, Shard};
use KnobValue::{Int, Name, Unset};

/// One knob value in transit between a [`TunedConfig`] field and its
/// spellings: JSON number / string / null in the artifact, and decimal /
/// name / the row's [`Knob::unset`] word on the CLI.
/// A value says what it is; whether its knob takes it is the setter's call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobValue<'a> {
    /// A count (threads, instances, milliseconds, ...).
    Int(u64),
    /// A name, meant as one of the knob type's own (`cpu`, `256-opt`).
    Name(&'a str),
    /// "Let the stack decide" (`kernel`).
    Unset,
}

impl ToJson for KnobValue<'_> {
    fn to_json(&self) -> Json {
        match *self {
            Int(n) => n.to_json(),
            Name(s) => s.to_json(),
            Unset => Json::Null,
        }
    }
}

/// The typed half of the setters: each refuses a value of another kind,
/// saying what the knob takes.
impl<'a> KnobValue<'a> {
    /// The artifact's spelling, read back; `None` for a fraction, a
    /// negative number, a bool, an array or an object.
    pub(crate) fn from_json(json: &'a Json) -> Option<KnobValue<'a>> {
        match json {
            Json::Null => Some(Unset),
            Json::Str(s) => Some(Name(s)),
            _ => json.as_u64().map(Int),
        }
    }

    fn int<T: TryFrom<u64>>(self) -> Result<T, String> {
        match self {
            Int(n) => T::try_from(n).map_err(|_| "is out of range".to_string()),
            _ => Err("takes a number".to_string()),
        }
    }

    /// The member of `all` this value names.
    fn pick<T: Copy>(self, all: &[T], name: impl Fn(T) -> &'static str) -> Result<T, String> {
        let found = match self {
            Name(s) => all.iter().copied().find(|&t| name(t) == s),
            _ => None,
        };
        let names = || all.iter().map(|&t| name(t)).collect::<Vec<_>>().join(" | ");
        found.ok_or_else(|| format!("takes {}", names()))
    }

    /// `Unset` as `None`, anything else through `some`.
    fn opt<T>(self, some: impl FnOnce(Self) -> Result<T, String>) -> Result<Option<T>, String> {
        match self {
            Unset => Ok(None),
            value => some(value).map(Some),
        }
    }
}

/// Which of the CLI's flag groups a knob's flag belongs to; each
/// subcommand lists the groups it accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagGroup {
    /// The accelerator variant, listed after `--network` / `--density`.
    Network,
    /// Backend, intra-image threads, kernel tier.
    Session,
    /// Multi-accelerator sharding (docs/SCHEDULER.md).
    Shard,
    /// The batch worker pool (`batch` and `serve`).
    Pool,
    /// Admission control (`serve` only).
    Serve,
}

/// A knob's command-line flag.
#[derive(Debug, Clone, Copy)]
pub struct KnobFlag {
    /// The flag (`--queue-depth`).
    pub name: &'static str,
    /// Metavariable shown in `--help`.
    pub metavar: &'static str,
    /// Which subcommands take it.
    pub group: FlagGroup,
    /// One-line `--help` text.
    pub help: &'static str,
}

/// One row of the knob table.
#[derive(Debug)]
pub struct Knob {
    /// Stable name: the artifact field, the report label, the docs row.
    pub name: &'static str,
    /// The CLI flag.
    pub flag: KnobFlag,
    /// The CLI word for [`KnobValue::Unset`] (`null` in the artifact);
    /// `None` when the knob always has a value.
    pub unset: Option<&'static str>,
    /// The CLI's default where it differs from [`TunedConfig::default`].
    pub cli_default: Option<KnobValue<'static>>,
    /// Reads the knob out of a config.
    pub get: fn(&TunedConfig) -> KnobValue<'static>,
    /// Writes the knob, rejecting values of the wrong kind or range.
    pub set: fn(&mut TunedConfig, KnobValue<'_>) -> Result<(), String>,
    /// Its ordered candidates in the hls space, `None` for a knob the
    /// tuner does not search. The space's axes are the rows that have
    /// one, in table order: the sweep's order, so of two equal scores
    /// the tuner keeps the point whose candidates come first.
    pub axis: Option<fn() -> Vec<KnobValue<'static>>>,
}

/// A row with a value always set and one default for library and CLI.
const fn knob(
    name: &'static str,
    flag: (&'static str, &'static str, FlagGroup, &'static str),
    get: fn(&TunedConfig) -> KnobValue<'static>,
    set: fn(&mut TunedConfig, KnobValue<'_>) -> Result<(), String>,
    axis: Option<fn() -> Vec<KnobValue<'static>>>,
) -> Knob {
    let flag = KnobFlag { name: flag.0, metavar: flag.1, group: flag.2, help: flag.3 };
    Knob { name, flag, unset: None, cli_default: None, get, set, axis }
}

fn ints(candidates: &[u64]) -> Vec<KnobValue<'static>> {
    candidates.iter().map(|&n| Int(n)).collect()
}

/// The knob table, in artifact field order. Columns: name; flag, metavar,
/// group, help; getter; setter (the closed name sets come from the value
/// type's own `ALL` and `name`); hls-space candidates.
pub static KNOBS: [Knob; 8] = [
    knob(
        "variant",
        ("--variant", "V", Network, "accelerator variant: 16-unopt | 256-unopt | 256-opt (the paper's 512-opt is 256-opt at --instances 2)"),
        |c| Name(c.variant.label()),
        |c, v| v.pick(&Variant::all(), |t| t.label()).map(|t| c.variant = t),
        // The paper's Fig. 6 axis.
        Some(|| Variant::all().iter().map(|v| Name(v.label())).collect()),
    ),
    knob(
        "instances",
        (
            "--instances",
            "N",
            Shard,
            "accelerator instances to schedule over (the bank RAM budget divides across them)",
        ),
        |c| Int(c.instances as u64),
        // The cost model has no zero-instance point; the upper bound (bank
        // capacity per instance) is the session builder's to check.
        |c, v| match v.int()? {
            0 => Err("must be at least 1".to_string()),
            n => {
                c.instances = n;
                Ok(())
            }
        },
        Some(|| ints(&[1, 2, 4])),
    ),
    knob(
        "backend",
        (
            "--backend",
            "B",
            Session,
            "execution backend: model | cpu (one path: golden walk, transaction-level stats) | cycle (cycle-exact)",
        ),
        |c| Name(c.backend.name()),
        |c, v| v.pick(&BackendKind::ALL, BackendKind::name).map(|b| c.backend = b),
        None,
    ),
    Knob {
        // The CLI runs on every core by default; the library default (the
        // tuner's baseline point) is one pinned thread.
        cli_default: Some(Int(0)),
        ..knob(
            "threads",
            (
                "--threads",
                "T",
                Session,
                "intra-image worker threads: cpu backend conv panels, cycle backend a pass's instructions (0 = host auto; model ignores)",
            ),
            |c| Int(c.threads as u64),
            |c, v| v.int().map(|n| c.threads = n),
            None,
        )
    },
    Knob {
        unset: Some("auto"),
        ..knob(
            "kernel",
            ("--kernel", "K", Session, "SIMD kernel tier: auto | scalar | sse2 | avx2 | avx512 | amx"),
            |c| c.kernel.map_or(Unset, |t| Name(t.name())),
            |c, v| v.opt(|v| v.pick(&KernelTier::ALL, KernelTier::name)).map(|t| c.kernel = t),
            None,
        )
    },
    knob(
        "placement",
        ("--placement", "P", Shard, "shard placement: auto | stripe | image | pipeline"),
        |c| Name(c.placement.name()),
        |c, v| v.pick(&Placement::ALL, Placement::name).map(|p| c.placement = p),
        Some(|| Placement::ALL.iter().map(|p| Name(p.name())).collect()),
    ),
    knob(
        "batch_workers",
        ("--workers", "N", Pool, "worker threads, one image at a time each (0 = auto)"),
        |c| Int(c.batch_workers as u64),
        |c, v| v.int().map(|n| c.batch_workers = n),
        None,
    ),
    knob(
        "queue_depth",
        ("--queue-depth", "N", Serve, "bounded submission-queue depth (admission control)"),
        |c| Int(c.queue_depth as u64),
        |c, v| v.int().map(|n| c.queue_depth = n),
        None,
    ),
];

impl Knob {
    /// The row with this artifact name.
    pub fn by_name(name: &str) -> Option<&'static Knob> {
        KNOBS.iter().find(|k| k.name == name)
    }

    /// The CLI spelling of `value`.
    pub fn text(&self, value: KnobValue<'_>) -> String {
        match value {
            Int(n) => n.to_string(),
            Name(s) => s.to_string(),
            Unset => self.unset.unwrap_or("unset").to_string(),
        }
    }

    /// Reads a CLI spelling: this row's unset word, a decimal, else a
    /// name.
    pub fn parse_text<'a>(&self, text: &'a str) -> KnobValue<'a> {
        if self.unset == Some(text) {
            return Unset;
        }
        text.parse().map_or(Name(text), Int)
    }

    /// Sets the knob from its CLI spelling; the error reads after the
    /// flag's name (`takes a number, got 'x'`).
    pub fn set_text(&self, config: &mut TunedConfig, text: &str) -> Result<(), String> {
        (self.set)(config, self.parse_text(text)).map_err(|e| {
            let or_unset = self.unset.map(|word| format!(" (or {word})")).unwrap_or_default();
            format!("{e}{or_unset}, got '{text}'")
        })
    }
}

/// The CLI's baseline when no artifact is loaded: [`TunedConfig::default`]
/// with each row's [`Knob::cli_default`] applied.
pub fn cli_defaults() -> TunedConfig {
    let mut config = TunedConfig::default();
    for knob in KNOBS.iter() {
        if let Some(value) = knob.cli_default {
            (knob.set)(&mut config, value).expect("the table's own default is valid");
        }
    }
    config
}

/// The CLI's one precedence rule, as a pure function: the `artifact`
/// (`--config`), when given, is the baseline, else [`cli_defaults`]; every
/// knob flag present in `flags` — `(flag, value)` pairs as typed, first
/// occurrence wins, other flags ignored — overrides its knob. Returns the
/// config in effect plus one note, in table order, per flag that *changed*
/// a loaded artifact's value (`--instances 1 shadows tuned '4'`): a tuned
/// artifact silently degraded by a stray flag is what this guards against.
///
/// # Errors
/// `config.invalid` naming the flag when a value is of the wrong kind or
/// out of range.
pub fn resolve(
    artifact: Option<TunedConfig>,
    flags: &[(&str, impl AsRef<str>)],
) -> Result<(TunedConfig, Vec<String>), Error> {
    let loaded = artifact.is_some();
    let mut config = artifact.unwrap_or_else(cli_defaults);
    let mut notes = Vec::new();
    for knob in KNOBS.iter() {
        let flag = knob.flag;
        let Some((_, text)) = flags.iter().find(|(f, _)| *f == flag.name) else { continue };
        let old = (knob.get)(&config);
        let set = knob.set_text(&mut config, text.as_ref());
        set.map_err(|e| Error::InvalidConfig(format!("{} {e}", flag.name)))?;
        let new = (knob.get)(&config);
        if loaded && new != old {
            let (new, old) = (knob.text(new), knob.text(old));
            notes.push(format!("{} {new} shadows tuned '{old}'", flag.name));
        }
    }
    Ok((config, notes))
}

/// One dimension of a [`SearchSpace`]: a knob and its ordered candidates
/// ([`SearchSpace::new`] validates them).
#[derive(Debug, Clone)]
pub struct Axis {
    /// The table row being searched.
    pub knob: &'static Knob,
    /// The values the sweep scores, in order.
    pub candidates: Vec<KnobValue<'static>>,
}

/// One position in a [`SearchSpace`]: a candidate index per axis.
pub type Point = Vec<usize>;

/// An ordered set of [`Axis`] values the sweep enumerates.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    name: String,
    axes: Vec<Axis>,
}

impl SearchSpace {
    /// A custom space from explicit axes (tests and ablations; the CLI
    /// uses [`SearchSpace::hls`]).
    ///
    /// # Errors
    /// `config.invalid` when an axis has no candidates, holds one its
    /// knob's setter rejects, omits the session default, or repeats a knob.
    pub fn new(name: impl Into<String>, axes: Vec<Axis>) -> Result<SearchSpace, Error> {
        let name = name.into();
        for (i, Axis { knob, candidates }) in axes.iter().enumerate() {
            let invalid = |what: String| {
                Error::InvalidConfig(format!("search space '{name}': knob '{}' {what}", knob.name))
            };
            let mut scratch = TunedConfig::default();
            let default = (knob.get)(&scratch);
            candidates.iter().try_for_each(|&c| (knob.set)(&mut scratch, c)).map_err(invalid)?;
            let flaw = if candidates.is_empty() {
                "has no candidates"
            } else if !candidates.contains(&default) {
                "omits the session default (the baseline must be representable)"
            } else if axes[..i].iter().any(|a| a.knob.name == knob.name) {
                "is a duplicate"
            } else {
                continue;
            };
            return Err(invalid(flaw.to_string()));
        }
        Ok(SearchSpace { name, axes })
    }

    /// The hardware space: the paper's three variants crossed with the
    /// scale-out ladder and placements — automated Fig. 6/7/8-style
    /// exploration, the paper's four design points included. Its axes are the [`KNOBS`] rows with candidates, in
    /// table order.
    pub fn hls() -> SearchSpace {
        let axes = KNOBS.iter().filter_map(|knob| Some(Axis { knob, candidates: knob.axis?() }));
        SearchSpace::new("hls", axes.collect()).expect("the table's space is valid")
    }

    /// The space's name (embedded in artifact provenance).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The axes, in sweep order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The [`TunedConfig`] a point denotes. Knobs outside this space keep
    /// their [`TunedConfig::default`] values.
    ///
    /// # Panics
    /// When the point's length or an index is out of range
    /// ([`SearchSpace::points`] only yields in-range points).
    pub fn config_at(&self, point: &Point) -> TunedConfig {
        assert_eq!(point.len(), self.axes.len(), "point arity matches the space");
        let mut config = TunedConfig::default();
        for (axis, &idx) in self.axes.iter().zip(point) {
            (axis.knob.set)(&mut config, axis.candidates[idx]).expect("validated candidate");
        }
        config
    }

    /// Total number of distinct points (the product of candidate counts).
    pub fn cardinality(&self) -> u128 {
        self.axes.iter().map(|a| a.candidates.len() as u128).product()
    }

    /// Every point, in axis order: the first axis slowest, the last
    /// fastest.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.cardinality()).map(|mut n| {
            let mut point = vec![0; self.axes.len()];
            for (index, axis) in point.iter_mut().zip(&self.axes).rev() {
                let len = axis.candidates.len() as u128;
                (*index, n) = ((n % len) as usize, n / len);
            }
            point
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DEFAULT_QUEUE_DEPTH;

    fn names(space: &SearchSpace) -> Vec<&'static str> {
        space.axes().iter().map(|a| a.knob.name).collect()
    }

    fn axis(name: &str, candidates: Vec<KnobValue<'static>>) -> Axis {
        Axis { knob: Knob::by_name(name).expect("row exists"), candidates }
    }

    #[test]
    fn hls_space_holds_the_default_and_its_documented_size() {
        let space = SearchSpace::hls();
        assert_eq!(space.name(), "hls");
        assert!(space.points().any(|p| space.config_at(&p) == TunedConfig::default()));
        assert_eq!(space.cardinality(), 36);
    }

    #[test]
    fn no_two_hls_points_build_the_same_driver() {
        let space = SearchSpace::hls();
        let mut seen = Vec::new();
        for point in space.points() {
            let config = space.config_at(&point);
            let session = config.session().build().expect("every hls point builds");
            let driver = (session.driver().config, config.placement);
            assert!(!seen.contains(&driver), "{config:?} builds an earlier point's driver");
            seen.push(driver);
        }
    }

    #[test]
    fn hls_axis_order_is_pinned() {
        // The sweep's order, and so which of two equal scores the tune
        // golden keeps, depends on it.
        assert_eq!(names(&SearchSpace::hls()), ["variant", "instances", "placement"]);
    }

    #[test]
    fn points_enumerate_the_space_once_with_the_last_axis_fastest() {
        let space = SearchSpace::hls();
        let points: Vec<Point> = space.points().collect();
        assert_eq!(points.len() as u128, space.cardinality());
        assert_eq!(points[..5], [vec![0, 0, 0], vec![0, 0, 1], vec![0, 0, 2], vec![0, 0, 3], vec![0, 1, 0]]);
        assert_eq!(points.last(), Some(&vec![2, 2, 3]));
        let mut sorted = points.clone();
        sorted.sort();
        assert_eq!(sorted, points, "lexicographic, so each point once");
        sorted.dedup();
        assert_eq!(sorted.len(), points.len());
    }

    #[test]
    fn config_at_moves_exactly_the_indexed_knobs() {
        let space = SearchSpace::hls();
        let point = vec![0, 0, 3]; // 16-unopt, 1 instance, pipeline
        let config = space.config_at(&point);
        assert_eq!(config.variant, Variant::U16Unopt);
        assert_eq!(config.placement, Placement::Pipeline);
        assert_eq!(config.instances, 1, "untouched knob keeps the default");
        assert_eq!(config.backend, TunedConfig::default().backend, "out-of-space knob untouched");
    }

    #[test]
    fn custom_space_rejects_degenerate_axes() {
        let threads = |candidates: &[u64]| axis("threads", ints(candidates));
        let err = SearchSpace::new("empty", vec![threads(&[])]).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        let err = SearchSpace::new("no-default", vec![threads(&[2, 4])]).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("session default"));
        let err = SearchSpace::new("dup", vec![threads(&[1, 2]), threads(&[1, 4])]).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("duplicate"));
        // A custom space may search what the built-in ones leave out.
        let cycle = axis("backend", vec![Name("model"), Name("cycle")]);
        let space = SearchSpace::new("ablation", vec![cycle, threads(&[1, 3])]).expect("valid");
        assert_eq!(space.config_at(&vec![1, 1]).backend, BackendKind::Cycle);
        assert_eq!(space.config_at(&vec![1, 1]).threads, 3);
    }

    #[test]
    fn custom_space_rejects_wrongly_typed_or_out_of_range_candidates() {
        assert!(Knob::by_name("thread").is_none());
        for (name, candidates) in [
            ("threads", vec![Int(1), Name("cpu")]),
            ("threads", vec![Int(1), Unset]),
            ("backend", vec![Name("model"), Name("gpu")]),
            ("kernel", vec![Unset, Int(1)]),
            ("instances", vec![Int(1), Int(0)]),
        ] {
            let err = SearchSpace::new("bad", vec![axis(name, candidates.clone())]).unwrap_err();
            assert_eq!(err.code(), "config.invalid", "{name} {candidates:?}");
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    #[test]
    fn row_names_and_flags_are_unique() {
        for (i, knob) in KNOBS.iter().enumerate() {
            for other in &KNOBS[..i] {
                assert_ne!(knob.name, other.name);
                assert_ne!(knob.flag.name, other.flag.name);
            }
            assert_eq!(Knob::by_name(knob.name).map(|k| k.name), Some(knob.name));
        }
    }

    #[test]
    fn every_row_round_trips_its_default_and_candidates_through_json_and_cli_text() {
        for knob in KNOBS.iter() {
            let mut values = vec![(knob.get)(&TunedConfig::default()), (knob.get)(&cli_defaults())];
            values.extend(knob.axis.map_or_else(Vec::new, |candidates| candidates()));
            for value in values {
                let mut config = TunedConfig::default();
                (knob.set)(&mut config, value).expect("own value is valid");
                assert_eq!((knob.get)(&config), value, "{}: get after set", knob.name);
                let json = Json::parse(&value.to_json().to_string_compact()).expect("valid json");
                assert_eq!(KnobValue::from_json(&json), Some(value), "{}: JSON", knob.name);
                assert_eq!(knob.parse_text(&knob.text(value)), value, "{}: text", knob.name);
            }
        }
    }

    #[test]
    fn rows_reject_foreign_spellings_saying_what_they_take() {
        let set = |name, text| {
            Knob::by_name(name).expect("row exists").set_text(&mut TunedConfig::default(), text)
        };
        assert_eq!(
            set("kernel", "neon").unwrap_err(),
            "takes scalar | sse2 | avx2 | avx512 | amx (or auto), got 'neon'"
        );
        assert_eq!(set("variant", "999").unwrap_err(), "takes 16-unopt | 256-unopt | 256-opt, got '999'");
        assert_eq!(set("variant", "512-opt").unwrap_err(), "takes 16-unopt | 256-unopt | 256-opt, got '512-opt'");
        assert_eq!(set("threads", "-1").unwrap_err(), "takes a number, got '-1'");
        assert_eq!(set("threads", "auto").unwrap_err(), "takes a number, got 'auto'");
        assert_eq!(set("instances", "0").unwrap_err(), "must be at least 1, got '0'");
        assert_eq!(set("kernel", "auto"), Ok(()));
        // A spelling is read the same way for every knob; the setter judges it.
        let threads = Knob::by_name("threads").expect("row exists");
        assert_eq!(threads.parse_text("off"), Name("off"));
        assert_eq!(threads.parse_text("007"), Int(7));
        assert_eq!(threads.parse_text("1e3"), Name("1e3"));
        assert_eq!(threads.parse_text("default"), Name("default"));
        for json in ["1.5", "-1", "true", "[]", "{}", "1e300"] {
            assert_eq!(KnobValue::from_json(&Json::parse(json).expect("json")), None, "{json}");
        }
    }

    #[test]
    fn library_and_cli_defaults_differ_only_where_the_table_says() {
        let (lib, cli) = (TunedConfig::default(), cli_defaults());
        assert_eq!((lib.threads, cli.threads), (1, 0), "tuner baseline vs host auto");
        assert_eq!(TunedConfig { threads: lib.threads, ..cli }, lib);
        assert_eq!(lib.queue_depth, DEFAULT_QUEUE_DEPTH);
    }

    fn tuned() -> TunedConfig {
        TunedConfig { instances: 4, backend: BackendKind::Cpu, threads: 2, ..TunedConfig::default() }
    }

    #[test]
    fn resolve_without_an_artifact_starts_from_the_cli_defaults() {
        let none: [(&str, &str); 0] = [];
        let resolved = resolve(None, &none).expect("resolves");
        assert_eq!(resolved, (cli_defaults(), vec![]));
        // Flags override silently: there is nothing tuned to shadow. Flags
        // that are not knobs are someone else's; the first occurrence wins.
        let flags = [("--hw", "32"), ("--threads", "3"), ("--kernel", "scalar"), ("--threads", "9")];
        let resolved = resolve(None, &flags).expect("resolves");
        let expected =
            TunedConfig { threads: 3, kernel: Some(KernelTier::Scalar), ..cli_defaults() };
        assert_eq!(resolved, (expected, vec![]));
    }

    #[test]
    fn resolve_keeps_an_artifact_and_notes_only_flags_that_change_it() {
        let none: [(&str, &str); 0] = [];
        let resolved = resolve(Some(tuned()), &none).expect("resolves");
        assert_eq!(resolved, (tuned(), vec![]));
        // Equal to the artifact (also when spelt differently): no note.
        let same = [("--instances", "04"), ("--backend", "cpu"), ("--kernel", "auto")];
        let resolved = resolve(Some(tuned()), &same).expect("resolves");
        assert_eq!(resolved, (tuned(), vec![]));
        // Differing: the flag wins, one note each, in table order.
        let differing = [("--kernel", "scalar"), ("--instances", "1"), ("--threads", "2")];
        let (config, notes) = resolve(Some(tuned()), &differing).expect("resolves");
        assert_eq!(config, TunedConfig { instances: 1, kernel: Some(KernelTier::Scalar), ..tuned() });
        assert_eq!(notes, ["--instances 1 shadows tuned '4'", "--kernel scalar shadows tuned 'auto'"]);
    }

    #[test]
    fn resolve_rejects_bad_values_naming_the_flag() {
        for (flag, value) in [
            ("--instances", "0"),
            ("--instances", "two"),
            ("--threads", "-1"),
            ("--backend", "gpu"),
            ("--kernel", "AVX2"),
            ("--workers", "on"),
            ("--placement", ""),
            ("--queue-depth", "1e3"),
        ] {
            for artifact in [None, Some(tuned())] {
                let err = resolve(artifact, &[(flag, value)]).unwrap_err();
                assert_eq!(err.code(), "config.invalid", "{flag} {value}");
                assert!(err.to_string().contains(flag), "{err}");
            }
        }
    }

    /// The docs' knob tables are written by hand; this keeps them equal to
    /// the table they describe.
    #[test]
    fn docs_list_every_knob_candidate_list_and_default() {
        let tuning = include_str!("../../../../docs/TUNING.md");
        let serving = include_str!("../../../../docs/SERVING.md");
        let (lib, cli) = (TunedConfig::default(), cli_defaults());
        for knob in KNOBS.iter() {
            let flag = format!("`{}`", knob.flag.name);
            let default = knob.text((knob.get)(&lib));
            let row = format!("| `{}` | {flag} | `{default}` |", knob.name);
            assert!(tuning.contains(&row), "docs/TUNING.md knob table lacks: {row}");
            if let Some(candidates) = knob.axis {
                let list: Vec<String> = candidates().into_iter().map(|c| knob.text(c)).collect();
                let cell = format!("{} ({})", knob.name, list.join("/"));
                let line = tuning.lines().find(|l| l.starts_with("| `hls`"));
                assert!(line.is_some_and(|l| l.contains(&cell)), "docs/TUNING.md `hls` row lacks: {cell}");
            }
            if matches!(knob.flag.group, FlagGroup::Pool | FlagGroup::Serve) {
                let row = format!("| {flag} | `{}` ", knob.text((knob.get)(&cli)));
                assert!(serving.contains(&row), "docs/SERVING.md flag table lacks: {row}");
            }
        }
        let cardinality = SearchSpace::hls().cardinality().to_string();
        let spaced: String = tuning.chars().filter(|c| *c != ' ').collect();
        let line = spaced.lines().find(|l| l.starts_with("|`hls`"));
        assert!(line.is_some_and(|l| l.ends_with(&format!("|{cardinality}|"))), "hls cardinality");
    }
}
