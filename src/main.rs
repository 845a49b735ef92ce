//! `zskip` — command-line front end to the simulated accelerator.
//!
//! ```text
//! zskip synth [variant|all]       HLS synthesis summary and area breakdown
//! zskip infer [flags]             run inference end to end, verify vs golden model
//! zskip batch [flags]             run a batch of inferences on a worker pool
//! zskip serve [flags]             serving daemon: NDJSON requests over stdio or TCP
//! zskip tune [flags]              hardware autotuner: scores every point (simulated time), emits a config artifact
//! zskip analyze [flags]           per-layer zero-skip packing analysis
//! zskip faults [flags]            fault-injection survivability campaign
//! zskip trace                     cycle-exact waveform of a small convolution
//! ```
//!
//! Every flag-taking subcommand supports `--help`; flags are declared
//! declaratively and parsed by a shared, panic-free parser. The run
//! knobs common to `infer`/`batch`/`serve`/`analyze` — variant, backend,
//! threads, kernel tier, sharding and the worker pool — are not declared
//! here at all: their flags, `--help` defaults, closed value sets and
//! printout come from the one knob table in
//! [`zskip::accel::tune`], by [`FlagGroup`]. All four resolve one
//! [`TunedConfig`] via [`resolve_config`] (a `--config` artifact, when
//! given, supplies the baseline and explicit flags override it; bad values
//! are rejected with the stable `config.invalid` code before any work
//! runs) and route through one [`Session`].

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use zskip::accel::serve::wire;
use zskip::accel::session::DEFAULT_QUEUE_DEPTH;
use zskip::accel::tune::{self, FlagGroup, KNOBS};
use zskip::accel::{
    AccelConfig, BackendKind, BatchReport, Placement, Provenance, SearchSpace, ServeEngine,
    Session, TunedConfig,
};
use zskip::hls::Variant;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::perf::AreaBreakdown;
use zskip::quant::DensityProfile;

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => { write_stdout(format_args!("\n")) };
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The one writer of every subcommand's stdout. A reader that went away
/// (`zskip tune | head -1`) ends the process quietly with exit 0 — what
/// it asked for it got — where `println!` would panic with exit 101; any
/// other write error is reported and exits 2, like every other failure
/// here.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => fail(&format!("cannot write to stdout: {e}")),
    }
}

/// One flag a subcommand accepts.
#[derive(Clone)]
struct Flag {
    name: &'static str,
    /// Metavariable for value-taking flags; `None` marks a boolean flag.
    metavar: Option<&'static str>,
    /// Default shown in `--help` (value-taking flags only).
    default: Option<Cow<'static, str>>,
    help: &'static str,
}

impl Flag {
    const fn val(
        name: &'static str,
        metavar: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag { name, metavar: Some(metavar), default: Some(Cow::Borrowed(default)), help }
    }

    const fn boolean(name: &'static str, help: &'static str) -> Flag {
        Flag { name, metavar: None, default: None, help }
    }
}

/// Where a run of a subcommand's flags comes from.
enum Flags {
    /// Flags only this front end knows (workload shape, files, seeds).
    Own(&'static [Flag]),
    /// The knob table's rows of one group, defaults rendered from
    /// [`tune::cli_defaults`].
    Knobs(FlagGroup),
}

/// One subcommand of the CLI. `run` receives the parsed flag values.
/// `flag_groups` lists flag tables in `--help` order — subcommands share
/// the groups below and the knob table's, so `--help`, parsing and
/// defaults stay in lockstep across subcommands.
struct Command {
    name: &'static str,
    usage_args: &'static str,
    summary: &'static str,
    flag_groups: &'static [Flags],
    run: fn(&Parsed),
}

impl Command {
    fn flags(&self) -> Vec<Flag> {
        let defaults = tune::cli_defaults();
        let knob_flag = |knob: &tune::Knob| {
            let f = knob.flag;
            let default = knob.text((knob.get)(&defaults));
            let (metavar, default) = (Some(f.metavar), Some(default.into()));
            Flag { name: f.name, metavar, default, help: f.help }
        };
        let mut flags = Vec::new();
        for group in self.flag_groups {
            match group {
                Flags::Own(own) => flags.extend_from_slice(own),
                Flags::Knobs(g) => flags.extend(KNOBS.iter().filter(|k| k.flag.group == *g).map(knob_flag)),
            }
        }
        flags
    }
}

const HW_HELP: &str = "input height/width of the synthetic network";

/// The synthetic-network flags shared by inference subcommands; the
/// `--variant` knob follows them.
const NETWORK_FLAGS: &[Flag] = &[
    Flag::val(
        "--network",
        "FILE",
        "vgg16",
        "JSON network-spec file (e.g. specs/resnet18.json; see docs/NETWORKS.md) instead of the built-in VGG-16",
    ),
    Flag::val("--density", "D", "dc", "weight density: 'dc' (deep-compression VGG-16 profile) or a fraction"),
];

/// The tuned-config artifact loader shared by `infer`/`batch`/`serve`/
/// `analyze`: the artifact supplies the baseline knobs, explicit flags
/// override it (with a shadowing warning). See docs/TUNING.md.
const CONFIG_FLAGS: &[Flag] = &[Flag::val(
    "--config",
    "FILE",
    "none",
    "tuned-config artifact from 'zskip tune' (explicit flags override its knobs)",
)];

const COMMANDS: &[Command] = &[
    Command {
        name: "synth",
        usage_args: "[variant|all]",
        summary: "HLS synthesis summary and area breakdown",
        flag_groups: &[],
        run: |p| synth(p.positional.first().map(String::as_str).unwrap_or("all")),
    },
    Command {
        name: "infer",
        usage_args: "[flags]",
        summary: "run inference end to end, verify vs the golden model",
        flag_groups: &[
            Flags::Own(&[
                Flag::val("--hw", "N", "64", HW_HELP),
                Flag::val("--seed", "S", "3", "input image seed (serve's {\"seed\":S} matches)"),
                Flag::boolean("--ternary", "quantize weights to ternary (-1/0/+1 magnitudes)"),
            ]),
            Flags::Own(NETWORK_FLAGS),
            Flags::Knobs(FlagGroup::Network),
            Flags::Knobs(FlagGroup::Session),
            Flags::Knobs(FlagGroup::Shard),
            Flags::Own(CONFIG_FLAGS),
        ],
        run: infer,
    },
    Command {
        name: "batch",
        usage_args: "[flags]",
        summary: "run a batch of inferences on a worker pool",
        flag_groups: &[
            Flags::Own(&[Flag::val("--n", "N", "8", "number of images in the batch")]),
            Flags::Knobs(FlagGroup::Pool),
            Flags::Own(&[Flag::val("--hw", "N", "32", HW_HELP)]),
            Flags::Own(NETWORK_FLAGS),
            Flags::Knobs(FlagGroup::Network),
            Flags::Knobs(FlagGroup::Session),
            Flags::Knobs(FlagGroup::Shard),
            Flags::Own(CONFIG_FLAGS),
        ],
        run: batch,
    },
    Command {
        name: "serve",
        usage_args: "[flags]",
        summary: "serving daemon: newline-delimited JSON requests over stdio or TCP",
        flag_groups: &[
            Flags::Own(&[
                Flag::val("--hw", "N", "32", HW_HELP),
                Flag::val("--tcp", "ADDR", "off", "listen on a TCP address (e.g. 127.0.0.1:0) instead of stdio"),
            ]),
            Flags::Own(NETWORK_FLAGS),
            Flags::Knobs(FlagGroup::Network),
            Flags::Knobs(FlagGroup::Session),
            Flags::Knobs(FlagGroup::Shard),
            Flags::Knobs(FlagGroup::Pool),
            Flags::Knobs(FlagGroup::Serve),
            Flags::Own(CONFIG_FLAGS),
        ],
        run: serve,
    },
    Command {
        name: "tune",
        usage_args: "[flags]",
        summary: "hardware autotuner: scores every point in simulated time; writes a loadable best-config artifact",
        flag_groups: &[
            Flags::Own(&[
                Flag::val("--out", "FILE", "tuned.json", "where to write the artifact"),
                Flag::val("--hw", "N", "32", HW_HELP),
            ]),
            Flags::Own(NETWORK_FLAGS),
        ],
        run: tune,
    },
    Command {
        name: "analyze",
        usage_args: "[flags]",
        summary: "per-layer zero-skip packing analysis",
        flag_groups: &[
            Flags::Own(NETWORK_FLAGS),
            Flags::Knobs(FlagGroup::Network),
            Flags::Knobs(FlagGroup::Shard),
            Flags::Own(CONFIG_FLAGS),
        ],
        run: analyze,
    },
    Command {
        name: "faults",
        usage_args: "[flags]",
        summary: "fault-injection survivability campaign (exit 1 unless all trials degrade gracefully)",
        flag_groups: &[Flags::Own(&[
            Flag::val("--hw", "N", "8", HW_HELP),
            Flag::val("--seed", "S", "7", "seed for synthetic weights and inputs"),
            Flag::boolean("--json", "emit the survivability report as JSON on stdout"),
        ])],
        run: faults,
    },
    Command {
        name: "trace",
        usage_args: "",
        summary: "cycle-exact waveform of a small convolution",
        flag_groups: &[],
        run: |_| trace(),
    },
];

/// Parsed arguments of one subcommand invocation.
struct Parsed {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positional: Vec<String>,
}

impl Parsed {
    fn get(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// Parses a numeric flag, exiting with a message (not a panic) on
    /// malformed input.
    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| fail(&format!("{name} takes a number, got '{v}'"))),
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("zskip: {msg}");
    std::process::exit(2);
}

/// Reports a library error — or a bad command-line value, as the
/// `Error::InvalidConfig` / `Error::Spec` the library would have raised —
/// with its stable docs/ERRORS.md code, so harnesses can match CLI and API
/// failures with one string.
fn fail_error(e: &zskip::Error) -> ! {
    fail(&format!("error[{}]: {e}", e.code()));
}

fn fail_invalid(msg: String) -> ! {
    fail_error(&zskip::Error::InvalidConfig(msg));
}

/// Rejects a bad `--network` spec file: unreadable file, malformed JSON
/// and DAG validation failures all land here.
fn fail_spec(path: &str, e: impl std::fmt::Display) -> ! {
    fail_error(&zskip::nn::SpecError { message: format!("{path}: {e}") }.into());
}

/// Loads and validates a `--network` JSON spec file.
fn load_spec(path: &str) -> zskip::nn::NetworkSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_spec(path, format!("cannot read: {e}")));
    zskip::nn::NetworkSpec::from_json(&text).unwrap_or_else(|e| fail_spec(path, e))
}

fn print_usage() {
    eprintln!("usage: zskip <command> [flags]  (zskip <command> --help for details)\n");
    for c in COMMANDS {
        eprintln!("  {:<10} {:<14} {}", c.name, c.usage_args, c.summary);
    }
}

fn print_command_help(cmd: &Command) {
    outln!("usage: zskip {} {}", cmd.name, cmd.usage_args);
    outln!("{}", cmd.summary);
    let flags = cmd.flags();
    if !flags.is_empty() {
        outln!("\nflags:");
        for f in &flags {
            let head = match f.metavar {
                Some(m) => format!("{} <{}>", f.name, m),
                None => f.name.to_string(),
            };
            let default = f.default.as_ref().map(|d| format!(" [default: {d}]")).unwrap_or_default();
            outln!("  {head:<24} {}{default}", f.help);
        }
    }
}

/// The shared table-driven flag parser: validates every argument against
/// the subcommand's flag table, handles `--help`, and never panics.
fn parse_args(cmd: &Command, args: &[String]) -> Parsed {
    let mut parsed = Parsed { values: Vec::new(), switches: Vec::new(), positional: Vec::new() };
    let flags = cmd.flags();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--help" || a == "-h" {
            print_command_help(cmd);
            std::process::exit(0);
        }
        if let Some(flag) = flags.iter().find(|f| f.name == a) {
            if flag.metavar.is_some() {
                let Some(v) = args.get(i + 1) else {
                    fail(&format!("{} requires a value (zskip {} --help)", flag.name, cmd.name));
                };
                parsed.values.push((flag.name, v.clone()));
                i += 2;
            } else {
                parsed.switches.push(flag.name);
                i += 1;
            }
        } else if a.starts_with('-') {
            fail(&format!("unknown flag {a} for '{}' (zskip {} --help)", cmd.name, cmd.name));
        } else {
            parsed.positional.push(a.clone());
            i += 1;
        }
    }
    parsed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd_name = args.first().map(String::as_str).unwrap_or("help");
    if cmd_name == "help" || cmd_name == "--help" || cmd_name == "-h" {
        print_usage();
        std::process::exit(0);
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == cmd_name) else {
        eprintln!("zskip: unknown command '{cmd_name}'\n");
        print_usage();
        std::process::exit(2);
    };
    let parsed = parse_args(cmd, &args[1..]);
    (cmd.run)(&parsed);
}

fn parse_density(p: &Parsed, layers: usize) -> DensityProfile {
    match p.get("--density").unwrap_or("dc") {
        // The deep-compression profile is 13 per-layer entries; a loaded
        // spec with a different conv count falls back to the profile's
        // mean density, applied uniformly.
        "dc" if layers == 13 => DensityProfile::deep_compression_vgg16(),
        "dc" => DensityProfile::uniform(layers, 0.35),
        d => match d.parse() {
            Ok(f) if f > 0.0 && f <= 1.0 => DensityProfile::uniform(layers, f),
            _ => fail_invalid(format!("--density takes 'dc' or a fraction in (0, 1], got '{d}'")),
        },
    }
}

/// A [`TunedConfig`] resolved from `--config` (when given) plus the
/// explicit CLI flags, which always win.
struct ResolvedConfig {
    config: TunedConfig,
    /// The artifact path, when `--config` was given.
    source: Option<String>,
    /// Shadowing notes: explicit flags that overrode a *differing*
    /// artifact knob. Already warned to stderr; `analyze` re-prints them.
    overrides: Vec<String>,
}

/// Resolves the session knobs every inference subcommand shares through
/// [`tune::resolve`]'s one precedence rule: the `--config` artifact is the
/// baseline (else the CLI defaults), explicit flags override it, and an
/// override that *changes* a loaded artifact's value warns on stderr.
fn resolve_config(p: &Parsed) -> ResolvedConfig {
    let source = p.get("--config").map(str::to_string);
    let artifact =
        source.as_ref().map(|path| TunedConfig::load(path).unwrap_or_else(|e| fail_error(&e)));
    let (config, overrides) = tune::resolve(artifact, &p.values).unwrap_or_else(|e| fail_error(&e));
    for w in &overrides {
        eprintln!("zskip: warning: {w} (artifact {})", source.as_deref().unwrap_or("?"));
    }
    ResolvedConfig { config, source, overrides }
}

/// Renders a config's knobs as two lines (shared by `tune`,
/// `analyze --config` and the `serve` banner).
fn tuned_knobs(c: &TunedConfig, indent: &str) -> String {
    let cell = |k: &tune::Knob| format!("{} {}", k.name, k.text((k.get)(c)));
    let lines = KNOBS.chunks(KNOBS.len() / 2).map(|row| {
        format!("{indent}{}", row.iter().map(cell).collect::<Vec<_>>().join(" | "))
    });
    lines.collect::<Vec<_>>().join("\n")
}

fn print_provenance(pr: &Provenance, indent: &str) {
    outln!(
        "{indent}the first minimum of the '{}' space's {} points: score {:.3e} s",
        pr.space, pr.points, pr.score,
    );
}

/// Builds the synthetic network the inference subcommands share: the
/// scaled VGG-16, or any `--network FILE` JSON spec. Same spec, seed and
/// calibration for `infer`, `batch` and `serve`, so a served request is
/// bit-comparable to a CLI inference.
fn build_network(p: &Parsed, hw: usize, ternary: bool) -> QuantizedNetwork {
    let spec = match p.get("--network") {
        Some(path) => load_spec(path),
        None if hw == 0 || !hw.is_multiple_of(32) => fail_invalid(format!(
            "--hw takes a positive multiple of 32 for the built-in VGG-16, got {hw}"
        )),
        None => zskip::nn::vgg16::vgg16_scaled_spec(hw),
    };
    let convs =
        spec.layers.iter().filter(|l| matches!(l, zskip::nn::LayerSpec::Conv { .. })).count();
    let density = parse_density(p, convs);
    let net = Network::synthetic(spec.clone(), &SyntheticModelConfig { seed: 1, density });
    let calib = synthetic_inputs(2, 1, spec.input);
    if ternary {
        net.quantize_ternary(&calib)
    } else {
        net.quantize(&calib)
    }
}

fn synth(which: &str) {
    let variants: Vec<Variant> =
        Variant::all().into_iter().filter(|v| which == "all" || which == v.label()).collect();
    if variants.is_empty() {
        let labels = Variant::all().map(|v| v.label()).join(" | ");
        fail(&format!("unknown variant {which} (use all | {labels})"));
    }
    for v in variants {
        let r = v.synthesize();
        outln!("== {v} ==");
        outln!(
            "  {} MACs/cycle, achieved {:.1} MHz, operating {:.1} MHz, peak {:.1} GOPS",
            v.macs_per_cycle(),
            r.achieved_fmax_mhz,
            r.operating_mhz,
            r.peak_gops()
        );
        outln!("  {}", r.utilization);
        if which != "all" {
            out!("{}", AreaBreakdown::from_synthesis(v.label(), &r).render());
        }
    }
}

fn infer(p: &Parsed) {
    let hw: usize = p.parse_num("--hw", 64);
    let seed: u64 = p.parse_num("--seed", 3);
    let resolved = resolve_config(p);
    let variant = resolved.config.variant;
    let backend = resolved.config.backend;

    let qnet = build_network(p, hw, p.has("--ternary"));
    outln!(
        "running {} on {} ({:.2} GMACs, {backend} backend)...",
        qnet.spec.name,
        variant,
        qnet.spec.total_macs() as f64 / 1e9
    );
    let input = synthetic_inputs(seed, 1, qnet.spec.input).pop().expect("one");

    let session = resolved.config.session().build().unwrap_or_else(|e| fail_error(&e));
    let config = session.driver().config;
    // One arena at the session's tier and width, for the run and for the
    // golden model's check of it.
    let mut arena = zskip::nn::Scratch::with_tier(session.kernel_tier());
    arena.set_threads(session.driver().threads);
    let report = if config.instances > 1 {
        let shard = session
            .run_batch(&qnet, std::slice::from_ref(&input))
            .unwrap_or_else(|e| fail_error(&e));
        outln!(
            "sharded over {} instances ({} placement): makespan {} cycles, {:.2}x vs one instance",
            shard.instances,
            shard.placement,
            shard.makespan_cycles,
            shard.speedup()
        );
        shard.items.into_iter().next().expect("one image in, one report out")
    } else {
        session.infer_scratch(&qnet, &input, &mut arena).unwrap_or_else(|e| fail_error(&e))
    };
    if let Some(diff) = golden_mismatch(&report.output, qnet.forward_quant_scratch(&input, &mut arena)) {
        fail(&format!("not bit-exact vs the software golden model: {diff}"));
    }
    outln!("bit-exact vs the software golden model");
    outln!(
        "{} cycles = {:.2} ms at {:.0} MHz; mean {:.1} / peak {:.1} effective GOPS; DDR {} MiB",
        report.total_cycles,
        report.total_cycles as f64 * config.cycle_seconds() * 1e3,
        config.clock_mhz,
        report.mean_gops(&config),
        report.peak_gops(&config),
        report.ddr_bytes >> 20
    );
    let top = zskip::nn::fc::argmax(&report.output).expect("non-empty");
    outln!("predicted class: {top}");
}

/// Where an accelerator output first departs from the golden model's, as
/// one line (`None` when they are equal).
fn golden_mismatch(output: &[zskip::quant::Sm8], golden: &[zskip::quant::Sm8]) -> Option<String> {
    if output.len() != golden.len() {
        return Some(format!("output has {} values, the golden model {}", output.len(), golden.len()));
    }
    let i = output.iter().zip(golden).position(|(o, g)| o != g)?;
    Some(format!("output[{i}] is {}, the golden model has {}", output[i].to_i32(), golden[i].to_i32()))
}

fn batch(p: &Parsed) {
    let hw: usize = p.parse_num("--hw", 32);
    let n: usize = p.parse_num("--n", 8);
    let resolved = resolve_config(p);
    let variant = resolved.config.variant;
    let backend = resolved.config.backend;

    let qnet = build_network(p, hw, false);
    let inputs = synthetic_inputs(3, n, qnet.spec.input);

    let session = resolved.config.session().build().unwrap_or_else(|e| fail_error(&e));
    outln!("running {} x {} on {} ({backend} backend)...", n, qnet.spec.name, variant);
    let t0 = std::time::Instant::now();
    let report = session.run_batch(&qnet, &inputs).unwrap_or_else(|e| fail_error(&e));
    let wall = t0.elapsed().as_secs_f64();
    if report.instances > 1 {
        print_shard_summary(&report, &session.driver().config);
    } else {
        outln!(
            "{} images in {:.2} s on {} workers ({:.2} images/s, {:.1} M simulated cycles/s)",
            n,
            wall,
            report.workers,
            n as f64 / wall,
            report.total_cycles() as f64 / wall / 1e6,
        );
    }
    for (i, r) in report.items.iter().enumerate() {
        let top = zskip::nn::fc::argmax(&r.output).expect("non-empty");
        outln!("  image {i}: {} cycles, predicted class {top}", r.total_cycles);
    }
}

/// Renders one sharded run's timeline: placement, throughput, and the
/// per-instance utilization split the scheduler achieved.
fn print_shard_summary(shard: &BatchReport, config: &AccelConfig) {
    outln!(
        "sharded {} images over {} instances ({} placement): makespan {} cycles, \
         {:.2}x vs one instance, {:.1} simulated images/s",
        shard.items.len(),
        shard.instances,
        shard.placement,
        shard.makespan_cycles,
        shard.speedup(),
        shard.images_per_s(config)
    );
    for (k, &busy) in shard.per_instance_busy.iter().enumerate() {
        let pct = if shard.makespan_cycles > 0 {
            busy as f64 / shard.makespan_cycles as f64 * 100.0
        } else {
            0.0
        };
        outln!("  instance {k}: {busy} busy cycles ({pct:.0}% of makespan)");
    }
    if shard.placement == Placement::Pipeline {
        for (layer, bubbles) in &shard.layer_bubbles {
            outln!("  stage '{layer}': {bubbles} bubble cycles waiting on upstream");
        }
        outln!(
            "  weight staging: {} cycles hidden behind compute, {} exposed",
            shard.staging_hidden_cycles, shard.staging_exposed_cycles
        );
    }
}

fn serve(p: &Parsed) {
    let hw: usize = p.parse_num("--hw", 32);
    let config = resolve_config(p).config;

    let qnet = Arc::new(build_network(p, hw, false));
    let session = config.session().build().unwrap_or_else(|e| fail_error(&e));
    // The banner goes to stderr: in stdio mode stdout is the protocol
    // channel and must carry nothing but response lines.
    eprintln!("zskip serve: {} (kernel tier {})", qnet.spec.name, session.kernel_tier());
    eprintln!("{}", tuned_knobs(&config, "  "));
    let shape = qnet.spec.input;
    let engine = ServeEngine::start(session, Arc::clone(&qnet));
    let handle = engine.handle();

    let protocol_errors = match p.get("--tcp") {
        Some(addr) if addr != "off" => serve_tcp(&handle, shape, addr),
        _ => {
            // Not `stdin().lock()`: StdinLock is !Send, and the reader
            // runs on the connection's scoped reader thread.
            let stdin = std::io::BufReader::new(std::io::stdin());
            let mut stdout = std::io::stdout();
            let summary = wire::serve_connection(&handle, shape, stdin, &mut stdout)
                .unwrap_or_else(|e| fail(&format!("stdio serve loop failed: {e}")));
            summary.protocol_errors
        }
    };

    // EOF or a shutdown op landed: drain what is queued, then report.
    let stats = engine.join();
    outln!("{}", wire::render_stats(&stats));
    eprintln!(
        "zskip serve: drained cleanly ({} served, {} failed, {} rejected, p50 {} us, p99 {} us)",
        stats.served,
        stats.failed,
        stats.rejected,
        stats.p50_us(),
        stats.p99_us()
    );
    if protocol_errors > 0 {
        eprintln!("zskip serve: {protocol_errors} protocol error(s)");
        std::process::exit(1);
    }
}

/// TCP mode: accepts connections until a client requests shutdown, one
/// handler thread per connection. Returns the total protocol errors.
fn serve_tcp(handle: &zskip::accel::ServeHandle, shape: zskip::tensor::Shape, addr: &str) -> u64 {
    use std::io::BufReader;
    use std::sync::atomic::{AtomicU64, Ordering};

    let listener =
        std::net::TcpListener::bind(addr).unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    let local = listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| addr.to_string());
    // Announce the bound address on stdout as a JSON line so harnesses
    // binding port 0 can discover the real port.
    use zskip::json::Json;
    outln!(
        "{}",
        Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::Str("listening".into())),
            ("addr", Json::Str(local.clone())),
        ])
        .to_string_compact()
    );
    eprintln!("zskip serve: listening on {local}");
    listener.set_nonblocking(true).unwrap_or_else(|e| fail(&format!("nonblocking accept: {e}")));
    let protocol_errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        while !handle.is_shutdown() {
            match listener.accept() {
                Ok((stream, peer)) => {
                    let handle = handle.clone();
                    let errors = &protocol_errors;
                    scope.spawn(move || {
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_nodelay(true);
                        let Ok(read_half) = stream.try_clone() else { return };
                        let mut writer = stream;
                        match wire::serve_connection(
                            &handle,
                            shape,
                            BufReader::new(read_half),
                            &mut writer,
                        ) {
                            Ok(summary) => {
                                errors.fetch_add(summary.protocol_errors, Ordering::Relaxed);
                            }
                            Err(e) => eprintln!("zskip serve: connection {peer} failed: {e}"),
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    eprintln!("zskip serve: accept failed: {e}");
                    break;
                }
            }
        }
        // Scope exit joins the per-connection threads: every connection's
        // responses flush before the final drain summary prints.
    });
    protocol_errors.load(Ordering::Relaxed)
}

/// `zskip tune`: score every point of the hls space in simulated
/// seconds per image, print the table, and write the first minimum as
/// the artifact that `--config <file>` / [`SessionBuilder::from_tuned`]
/// load back.
///
/// [`SessionBuilder::from_tuned`]: zskip::accel::SessionBuilder::from_tuned
fn tune(p: &Parsed) {
    let space = SearchSpace::hls();
    let hw: usize = p.parse_num("--hw", 32);
    let out = p.get("--out").unwrap_or("tuned.json").to_string();

    let qnet = build_network(p, hw, false);
    let input = synthetic_inputs(3, 1, qnet.spec.input).remove(0);
    let t0 = std::time::Instant::now();
    let rows = tune::sweep(&space, &qnet, &input);
    let elapsed = t0.elapsed().as_secs_f64();
    let best = tune::first_minimum(&rows);
    if let Err(e) = &best.result {
        fail_error(e);
    }
    // Written before the table prints, so a closed stdout cannot lose it.
    let artifact = best.artifact(&space);
    artifact.save(&out).unwrap_or_else(|e| fail_error(&e));
    outln!("scored {} on the '{}' space's {} points in {elapsed:.2} s", qnet.spec.name, space.name(), rows.len());
    let default = rows.iter().find(|r| r.config == TunedConfig::default()).expect("spaces hold the default");
    let mut header: Vec<&str> = space.axes().iter().map(|a| a.knob.name).collect();
    header.extend(["simulated s", "x default"]);
    outln!("  {}", header.iter().map(|h| format!("{h:<12}")).collect::<String>().trim_end());
    for row in &rows {
        let mut cells: Vec<String> = space.axes().iter().map(|a| a.knob.text((a.knob.get)(&row.config))).collect();
        match &row.result {
            Ok(_) => cells.extend([format!("{:.3e}", row.score), format!("{:.3}", row.score / default.score)]),
            Err(e) => cells.push(e.code().to_string()),
        }
        outln!("  {}", cells.iter().map(|c| format!("{c:<12}")).collect::<String>().trim_end());
    }
    outln!(
        "default {:.3e} s -> best {:.3e} s ({:.2}x)",
        default.score,
        best.score,
        default.score / best.score,
    );
    outln!("{}", tuned_knobs(&artifact, "  "));
    outln!("wrote {out} (load with --config {out} or SessionBuilder::from_tuned)");
}

/// `zskip analyze --network FILE`: prints the spec's layer DAG — shapes,
/// branch and join points, the execution plan's slot assignment and the
/// peak DDR-resident activation footprint.
fn analyze_network(path: &str) {
    use zskip::nn::{ExecPlan, LayerRef, LayerSpec};
    let spec = load_spec(path);
    let shapes = spec.shapes().unwrap_or_else(|e| fail_spec(path, e));
    let plan = ExecPlan::build(&spec).unwrap_or_else(|e| fail_spec(path, e));

    // Fan-out per producer: index 0 is the network input, i + 1 is layer
    // i's output. A producer with more than one consumer is a branch
    // point; `Add` layers are the joins.
    let mut fanout = vec![0usize; spec.layers.len() + 1];
    let producer = |r: LayerRef| match r {
        LayerRef::Input => 0,
        LayerRef::Layer(j) => j + 1,
    };
    for (i, layer) in spec.layers.iter().enumerate() {
        match layer {
            LayerSpec::Ref { from, .. } => fanout[producer(*from)] += 1,
            LayerSpec::Add { from, .. } => {
                fanout[producer(*from)] += 1;
                fanout[i] += 1; // the previous layer's output
            }
            _ => fanout[i] += 1,
        }
    }

    let s = spec.input;
    outln!(
        "{}: {} layers, input {}x{}x{}, {:.1} MMACs",
        spec.name,
        spec.layers.len(),
        s.c,
        s.h,
        s.w,
        spec.total_macs() as f64 / 1e6
    );
    outln!(
        "plan: {} activation slot(s), peak resident {} KiB{}\n",
        plan.slots,
        plan.peak_resident_bytes / 1024,
        plan.output_slot.map(|o| format!(", output in slot {o}")).unwrap_or_default(),
    );
    outln!("{:>4}  {:<16} {:<28} {:>12} {:>6}  notes", "#", "layer", "kind", "shape", "slot");
    for (i, layer) in spec.layers.iter().enumerate() {
        let relu_tag = |relu: bool| if relu { " +relu" } else { "" };
        let ref_name = |r: LayerRef| match r {
            LayerRef::Input => "input".to_string(),
            LayerRef::Layer(j) => spec.layers[j].name().to_string(),
        };
        let kind = match layer {
            LayerSpec::Conv { k, stride, pad, relu, .. } => {
                format!("conv {k}x{k}/{stride} pad {pad}{}", relu_tag(*relu))
            }
            LayerSpec::MaxPool { k, stride, .. } => format!("maxpool {k}x{k}/{stride}"),
            LayerSpec::Fc { relu, .. } => format!("fc (host){}", relu_tag(*relu)),
            LayerSpec::Softmax => "softmax (host)".to_string(),
            LayerSpec::Ref { from, .. } => format!("ref <- {}", ref_name(*from)),
            LayerSpec::Add { from, relu, .. } => {
                format!("add <- {}{} (join)", ref_name(*from), relu_tag(*relu))
            }
            LayerSpec::GlobalAvgPool { .. } => "global avgpool (host)".to_string(),
            LayerSpec::BatchNorm { relu, .. } => format!("batchnorm{} (folds)", relu_tag(*relu)),
        };
        let out = shapes[i + 1];
        let step = &plan.steps[i];
        let slot = match step.dst {
            Some(d) => format!("{d}"),
            None => "flat".to_string(),
        };
        let mut notes = Vec::new();
        if fanout[i + 1] > 1 {
            notes.push(format!("branch point ({} consumers)", fanout[i + 1]));
        }
        if !step.frees.is_empty() {
            let freed: Vec<String> = step.frees.iter().map(|f| f.to_string()).collect();
            notes.push(format!("frees slot {}", freed.join(", ")));
        }
        outln!(
            "{:>4}  {:<16} {:<28} {:>12} {:>6}  {}",
            i,
            layer.name(),
            kind,
            format!("{}x{}x{}", out.c, out.h, out.w),
            slot,
            notes.join("; ")
        );
    }
    if fanout[0] > 1 {
        outln!("\nnetwork input is a branch point ({} consumers)", fanout[0]);
    }
    outln!("\nper-slot high-water marks (KiB): {:?}", plan.slot_elems.iter().map(|e| e / 1024).collect::<Vec<_>>());
}

fn analyze(p: &Parsed) {
    use zskip::accel::LayerPackingStats;
    if let Some(path) = p.get("--network") {
        analyze_network(path);
        return;
    }
    let density = parse_density(p, 13);
    let resolved = resolve_config(p);
    let variant = resolved.config.variant;
    if let Some(path) = &resolved.source {
        outln!("tuned config: {path} (artifact v{})", zskip::accel::tune::ARTIFACT_VERSION);
        outln!("{}", tuned_knobs(&resolved.config, "  "));
        match &resolved.config.provenance {
            Some(pr) => print_provenance(pr, "  "),
            None => outln!("  no provenance recorded (hand-written artifact)"),
        }
        if resolved.overrides.is_empty() {
            outln!("  no CLI overrides: the artifact's knobs are in effect");
        } else {
            for w in &resolved.overrides {
                outln!("  override: {w}");
            }
        }
        outln!();
    }
    let config = AccelConfig::for_variant(variant);
    let qnet = zskip_bench::build_vgg16_with_density(density);
    outln!(
        "VGG-16 packing analysis ({} lanes, zero-skip floor 4 cycles/weight-tile)\n",
        config.lanes
    );
    outln!(
        "{:<9} {:>8} {:>10} {:>11} {:>9} {:>9} {:>8} {:>9}",
        "layer", "density", "scratch KB", "steps", "bubbles%", "skipped", "speedup", "vs ideal"
    );
    for (i, layer) in qnet.conv.iter().enumerate() {
        let name = zskip::nn::VGG16_CONV_NAMES.get(i).copied().unwrap_or("conv?");
        let s = LayerPackingStats::analyze(name, &layer.weights, &config);
        outln!(
            "{:<9} {:>8.3} {:>10} {:>11} {:>8.1}% {:>9} {:>7.2}x {:>8.2}x",
            s.name,
            s.density,
            s.scratchpad_bytes / 1024,
            s.lockstep_steps,
            s.bubble_fraction() * 100.0,
            s.skipped_channels,
            s.predicted_skip_speedup(),
            s.lockstep_steps.max(1) as f64 / s.ideal_steps.max(1) as f64,
        );
    }
    outln!("\n'vs ideal' is lockstep steps over per-lane-independent steps: the bubble");
    outln!("cost the paper's future-work filter grouping recovers.");

    // Software datapath: which SIMD kernel tier this host dispatches to,
    // and the golden model's steady-state allocation behaviour (a warmed
    // scratch arena with zero grow events performs zero heap allocations
    // per image — proven by the counting-allocator test, measured by
    // `kernel_bench`; see docs/KERNELS.md).
    use zskip::nn::simd::KernelTier;
    use zskip::nn::Scratch;
    let host_tiers: Vec<&str> = KernelTier::supported().iter().map(|t| t.name()).collect();
    outln!(
        "\nSoftware kernel tier: {} (host supports: {}; override with {}=<tier>)",
        zskip::nn::dispatch(),
        host_tiers.join(", "),
        zskip::nn::KERNEL_ENV
    );
    // What each tier needs, so that a fallback (an AVX-512 host without
    // VNNI runs avx2) is explained here.
    for tier in KernelTier::ALL {
        let needs = tier.required_features();
        let missing = tier.missing_features();
        outln!(
            "  {:<7} {}{}",
            format!("{tier}:"),
            if needs.is_empty() { "no CPU features".to_string() } else { needs.join("+") },
            if missing.is_empty() { String::new() } else { format!(" — missing {}", missing.join(", ")) }
        );
    }
    let surrogate = zskip::nn::vgg16::vgg16_scaled_spec(32);
    let snet = Network::synthetic(
        surrogate.clone(),
        &SyntheticModelConfig { seed: zskip_bench::HARNESS_SEED, density: DensityProfile::deep_compression_vgg16() },
    );
    let sq = snet.quantize(&synthetic_inputs(2, 1, surrogate.input));
    let probe = synthetic_inputs(3, 3, surrogate.input);
    let auto_workers = zskip::nn::ConvPool::auto_threads();
    outln!(
        "Intra-image conv workers: {auto_workers} at auto (host parallelism; --threads overrides) — \
         model and cpu backends: the golden walk's conv panels; cycle backend: a pass's instructions"
    );
    let mut arena = Scratch::new();
    arena.set_threads(auto_workers);
    for input in &probe {
        let _ = sq.forward_quant_scratch(input, &mut arena);
    }
    let steady = if arena.grow_events() <= 1 { "0" } else { "NONZERO (arena regrew!)" };
    outln!(
        "Scratch arena ({} images, vgg16-32 surrogate, {} worker(s)): {} grow event(s), {} KiB, steady-state heap allocations/image: {}",
        probe.len(),
        auto_workers,
        arena.grow_events(),
        arena.capacity_bytes() / 1024,
        steady
    );

    // Packed weights: one image through the cpu backend packs every conv
    // layer of the surrogate the way `infer` / `batch` do; the layers
    // hold their images, which drop with the network.
    let cpu = Session::builder(AccelConfig::for_variant(variant))
        .backend(BackendKind::Cpu)
        .build()
        .expect("cpu session builds");
    let _ = cpu.infer(&sq, &probe[0]).expect("surrogate image runs");
    outln!(
        "Packed weights resident on the vgg16-32 surrogate: {:.1} MiB at {} lanes \
         (images and tile indexes, held by its conv layers)",
        zskip::accel::packed_weight_bytes(&sq, &config) as f64 / (1 << 20) as f64,
        config.lanes
    );

    // Sharding: what the placement scheduler would do with this workload
    // at --instances N — chosen placement, the cost model's device and
    // derated clock, per-instance utilization, and (for the pipeline)
    // where the inter-stage bubbles sit.
    let instances = resolved.config.instances;
    let placement = resolved.config.placement;
    let cost = zskip::accel::CostModel::for_instances(variant, instances);
    outln!(
        "\nSharding at {} instance(s): {} at {:.1} MHz, ALM utilization {:.2}{}",
        cost.instances,
        cost.device,
        cost.clock_mhz,
        cost.alm_utilization,
        if cost.fits { "" } else { " (DOES NOT FIT)" }
    );
    let shard_config = AccelConfig::for_variant_instances(variant, instances);
    let shard_session = Session::builder(shard_config)
        .backend(BackendKind::Model)
        .placement(placement)
        .build()
        .expect("model session builds");
    let shard_inputs = synthetic_inputs(3, (2 * instances).max(4), surrogate.input);
    let shard = shard_session.run_batch(&sq, &shard_inputs).unwrap_or_else(|e| fail_error(&e));
    print_shard_summary(&shard, &shard_config);

    // Serving limits: what `zskip serve` defaults to on this build, so an
    // operator can size clients without starting the daemon.
    outln!("\nServe defaults: queue depth {DEFAULT_QUEUE_DEPTH} (admission control), one resident worker per host core");
    outln!("(override with zskip serve --queue-depth/--workers; full wire protocol in docs/SERVING.md)");
}

fn faults(p: &Parsed) {
    use zskip::accel::{run_campaign, CampaignConfig};
    let cfg = CampaignConfig { hw: p.parse_num("--hw", 8), seed: p.parse_num("--seed", 7) };
    let report = run_campaign(&cfg);
    if p.has("--json") {
        outln!("{}", report.to_json().to_string_pretty());
    } else {
        outln!("fault-injection campaign ({} trials)\n", report.trials.len());
        outln!("{:<20} {:<22} {:<17} detail", "site", "fault", "outcome");
        for t in &report.trials {
            outln!("{:<20} {:<22} {:<17} {}", t.site, t.fault, t.outcome.label(), t.detail);
        }
        let (identical, recovered, errors, vulnerable) = report.tally();
        outln!(
            "\n{} identical, {} recovered by retry, {} structured errors, {} vulnerable",
            identical, recovered, errors, vulnerable
        );
        outln!("verdict: {}", if report.survived() { "SURVIVED" } else { "VULNERABLE" });
    }
    if !report.survived() {
        std::process::exit(1);
    }
}

fn trace() {
    use std::num::NonZeroUsize;
    use zskip::accel::cycle::{self, RunOptions};
    use zskip::accel::{BankSet, ConvInstr, FmLayout, GroupWeights, Instruction};
    use zskip::hls::AccelArch;
    use zskip::nn::conv::QuantConvWeights;
    use zskip::quant::{Requantizer, Sm8};
    use zskip::tensor::{Shape, Tensor, TiledFeatureMap};

    let cfg = AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 1024 }, 100.0);
    // A tiny conv with uneven per-filter sparsity so the waveform shows
    // lockstep bubbles and the barrier convoy.
    let qw = QuantConvWeights::new(
        4,
        4,
        3,
        (0..144)
            .map(|i| {
                let filter = i / 36;
                if i % (filter + 2) == 0 { Sm8::ZERO } else { Sm8::from_i32_saturating((i % 9) - 4) }
            })
            .collect(),
        vec![0; 4],
        Requantizer::from_ratio(1.0 / 16.0),
        true,
    );
    let input = Tensor::from_fn(4, 8, 8, |c, y, x| Sm8::from_i32_saturating(((c + y + x) % 9) as i32 - 4)).padded(1);
    let tiled = TiledFeatureMap::from_tensor(&input);
    let in_layout = FmLayout::full(0, input.shape());
    let out_layout = FmLayout::full(in_layout.end(), Shape::new(4, 8, 8));
    let mut banks = BankSet::new(&cfg);
    in_layout.store(&mut banks, &tiled, 0..tiled.tiles_y());
    let gw = GroupWeights::from_filters(&qw, 0, 4);
    let instr = ConvInstr::for_group(&qw, 0, 4, &in_layout, 0, &out_layout, 0).expect("fits the instruction fields");
    let opts = RunOptions { max_cycles: 1_000_000, trace_cycles: NonZeroUsize::new(160), ..RunOptions::default() };
    let outcome = cycle::run(&cfg, banks, gw.as_bytes(), &[Instruction::Conv(instr)], &opts).expect("runs");
    let trace = outcome.trace.as_ref().expect("tracing was asked for");
    outln!("cycle-exact waveform of one conv instruction ({} cycles total)", outcome.cycles);
    outln!("legend: '#' busy, 'x' blocked on FIFO, '.' idle, ' ' done\n");
    out!("{}", trace.render(80));
    outln!("{}", outcome.report.render_utilization());
}

#[cfg(test)]
mod tests {
    use super::golden_mismatch;
    use zskip::quant::Sm8;

    fn sm8(values: &[i32]) -> Vec<Sm8> {
        values.iter().map(|&v| Sm8::from_i32_saturating(v)).collect()
    }

    #[test]
    fn golden_mismatch_names_the_first_differing_index_in_one_line() {
        assert_eq!(golden_mismatch(&sm8(&[1, -2, 3]), &sm8(&[1, -2, 3])), None);
        assert_eq!(golden_mismatch(&[], &[]), None);
        let diff = golden_mismatch(&sm8(&[1, -2, 3, 9]), &sm8(&[1, -2, 4, 8])).expect("differs");
        assert_eq!(diff, "output[2] is 3, the golden model has 4");
        let short = golden_mismatch(&sm8(&[1]), &sm8(&[1, 2])).expect("differs");
        assert_eq!(short, "output has 1 values, the golden model 2");
        assert!(!diff.contains('\n') && !short.contains('\n'));
    }
}
