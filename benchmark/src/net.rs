//! The networks and images the workloads run: the recipe of
//! `src/main.rs::build_network` (so an in-process result is bit-comparable
//! to what the CLI and the daemon compute) and the harness's own seeded
//! image generator.

use std::path::{Path, PathBuf};
use std::process::Command;

use zskip::accel::{BackendKind, Session, TunedConfig};
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::nn::{LayerSpec, NetworkSpec};
use zskip::quant::{DensityProfile, Sm8};
use zskip::tensor::{Shape, Tensor};

/// Input height/width of every workload (`--hw 32`).
pub const HW: usize = 32;
/// The ResNet-18 spec file the serve workload loads, relative to the
/// repo root (the harness runs from there).
pub const RESNET18_SPEC: &str = "specs/resnet18.json";
/// Distinct images a workload cycles through.
pub const IMAGES: usize = 8;

pub fn vgg16_spec() -> NetworkSpec {
    zskip::nn::vgg16::vgg16_scaled_spec(HW)
}

pub fn read_resnet18_spec() -> Result<String, String> {
    std::fs::read_to_string(RESNET18_SPEC)
        .map_err(|e| format!("cannot read {RESNET18_SPEC} (run from the repo root): {e}"))
}

/// The density `--density dc` resolves to for `spec`: the
/// deep-compression profile for 13 conv layers, its mean otherwise.
pub fn dc_density(spec: &NetworkSpec) -> DensityProfile {
    let convs = spec
        .layers
        .iter()
        .filter(|l| matches!(l, LayerSpec::Conv { .. }))
        .count();
    if convs == 13 {
        DensityProfile::deep_compression_vgg16()
    } else {
        DensityProfile::uniform(convs, 0.35)
    }
}

/// The float network of the CLI recipe (weight seed 1, density `dc`).
pub fn synthesize(spec: &NetworkSpec) -> Network {
    Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig {
            seed: 1,
            density: dc_density(spec),
        },
    )
}

/// Quantizes with the CLI's calibration image. Takes the float network
/// by value and drops it first thing after, as `src/main.rs` does: kept
/// alive it inflates every later allocation-heavy stage.
pub fn quantize(net: Network) -> QuantizedNetwork {
    let calib = synthetic_inputs(2, 1, net.spec.input);
    net.quantize(&calib)
}

pub fn build_network(spec: &NetworkSpec) -> QuantizedNetwork {
    quantize(synthesize(spec))
}

/// The session the CLI builds for `--backend B` with default knobs:
/// variant 256-opt, threads and workers 0 (host auto).
pub fn session(backend: BackendKind) -> Result<Session, String> {
    TunedConfig {
        backend,
        threads: 0,
        ..TunedConfig::default()
    }
    .session()
    .build()
    .map_err(|e| format!("session build failed: {e}"))
}

/// SplitMix64: the harness's own generator, so the benchmark's inputs do
/// not move when the program's `synthetic_inputs` does.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `n` images from `seed` with values `k/256`, `k` in `[-256, 255]`: in
/// `[-1, 1)` like mean-subtracted pixels, and exactly representable, so
/// the decimal text sent to the daemon parses back to the same `f32`.
pub fn images(seed: u64, n: usize, shape: Shape) -> Vec<Tensor<f32>> {
    let mut rng = SplitMix64(seed);
    (0..n)
        .map(|_| {
            Tensor::from_fn(shape.c, shape.h, shape.w, |_, _, _| {
                ((rng.next_u64() % 512) as i32 - 256) as f32 / 256.0
            })
        })
        .collect()
}

/// An activation tensor of `shape` with seeded values over the whole
/// Sm8 range (kernel probes; timing is value-independent).
pub fn activation(rng: &mut SplitMix64, shape: Shape) -> Tensor<Sm8> {
    Tensor::from_fn(shape.c, shape.h, shape.w, |_, _, _| {
        Sm8::from_i32_saturating((rng.next_u64() % 255) as i32 - 127)
    })
}

/// Builds `zskip` (release, offline) with the environment's cargo and
/// returns the binary's path. A no-op when it is already fresh.
pub fn build_cli() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/main.rs").is_file() {
        return Err("run from the repo root: ./Cargo.toml and ./src/main.rs must exist".into());
    }
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "zskip",
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build --release --bin zskip failed ({status})"
        ));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("zskip");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing after a successful build",
            bin.display()
        ))
    }
}
