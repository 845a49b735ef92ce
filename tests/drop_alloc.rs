//! A network's derived artifacts — each conv layer's packed image, the
//! session's recorded stats-only report — live on the network and the
//! session and are freed with them: a process that builds, runs and
//! drops one network after another keeps its live heap flat.
//!
//! The binary holds this one test: the counting allocator's live-byte
//! count must not see another test thread.

mod common;

use common::live_bytes;
use zskip::accel::{AccelConfig, BackendKind, Session};
use zskip::hls::AccelArch;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerRef, LayerSpec, NetworkSpec};
use zskip::nn::model::{Network, SyntheticModelConfig};
use zskip::quant::DensityProfile;
use zskip::tensor::Shape;

/// How far the live heap after the eighth drop may sit from where it sat
/// after the first: first-use state of the process (thread-locals, lazy
/// probes) is set up by the first round; one round's packed weights are
/// several times this.
const SLACK: usize = 16 << 10;

/// A VGG-style chain.
fn chain_spec() -> NetworkSpec {
    NetworkSpec {
        name: "chain".into(),
        input: Shape::new(3, 8, 8),
        layers: vec![
            conv3x3("c1", 3, 16),
            conv3x3("c2", 16, 32),
            maxpool2x2("p1"),
            conv3x3("c3", 32, 32),
            conv3x3("c4", 32, 64),
        ],
    }
}

/// A residual DAG: a skip from the stem joins two convs later.
fn dag_spec() -> NetworkSpec {
    NetworkSpec {
        name: "dag".into(),
        input: Shape::new(3, 8, 8),
        layers: vec![
            conv3x3("stem", 3, 32),
            conv3x3("b1", 32, 32),
            conv3x3("b2", 32, 32),
            LayerSpec::Add { name: "join".into(), from: LayerRef::Layer(0), relu: true },
            maxpool2x2("p1"),
            conv3x3("c3", 32, 64),
        ],
    }
}

#[test]
fn dropping_each_network_frees_what_its_runs_derived() {
    let config = AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 }, 100.0);
    let mut live = Vec::new();
    for seed in 0..8 {
        for spec in [chain_spec(), dag_spec()] {
            let density = DensityProfile::uniform(4, 0.5);
            let net = Network::synthetic(spec.clone(), &SyntheticModelConfig { seed, density });
            let qnet = net.quantize(&synthetic_inputs(seed, 1, spec.input));
            drop(net);
            let input = synthetic_inputs(seed + 100, 1, spec.input).remove(0);
            for backend in [BackendKind::Cpu, BackendKind::Cycle] {
                let session = Session::builder(config).backend(backend).build().expect("valid config");
                for _ in 0..2 {
                    session.infer(&qnet, &input).expect("runs");
                }
            }
        }
        live.push(live_bytes());
    }
    let (first, last) = (live[0], live[7]);
    assert!(last.abs_diff(first) <= SLACK, "live heap bytes after each round of drops: {live:?}");
}
