//! Pruning/zero-skipping exploration: sweep weight density and report
//! effective throughput and classification fidelity.
//!
//! Reproduces the paper's §V observation that pruning bought ~1.3x average
//! and ~2.2x peak effective throughput, and its caveat that "peak
//! throughput requires uniformly sparse filters applied concurrently for
//! even workload balancing" — compare the lockstep column against the
//! filter-grouping column (the paper's future work).
//!
//! ```sh
//! cargo run --release --example pruning_sweep
//! ```

use zskip::accel::{AccelConfig, BackendKind, Session};
use zskip::hls::Variant;
use zskip::nn::eval::{compare, synthetic_inputs};
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerSpec, NetworkSpec};
use zskip::nn::model::{Network, SyntheticModelConfig};
use zskip::quant::DensityProfile;
use zskip::tensor::Shape;

fn spec() -> NetworkSpec {
    NetworkSpec {
        name: "sweep-net".into(),
        input: Shape::new(3, 32, 32),
        layers: vec![
            conv3x3("conv1", 3, 32),
            conv3x3("conv2", 32, 32),
            maxpool2x2("pool1"),
            conv3x3("conv3", 32, 64),
            maxpool2x2("pool2"),
            LayerSpec::Fc { name: "fc".into(), in_features: 64 * 8 * 8, out_features: 10, relu: false },
        ],
    }
}

fn main() {
    let config = AccelConfig::for_variant_instances(Variant::U256Opt, 1);
    let inputs = synthetic_inputs(5, 10, spec().input);

    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>10}",
        "density", "cycles", "cycles(grp)", "mean GOPS", "top-1 agr"
    );
    let mut dense_cycles = None;
    for density in [1.0, 0.7, 0.5, 0.35, 0.25, 0.15, 0.08] {
        let net = Network::synthetic(
            spec(),
            &SyntheticModelConfig { seed: 21, density: DensityProfile::uniform(3, density) },
        );
        let calib = synthetic_inputs(6, 4, spec().input);
        let qnet = net.quantize(&calib);

        let builder = Session::builder(config).backend(BackendKind::Model);
        let report = builder.clone().build().unwrap().infer(&qnet, &inputs[0]).expect("fits");
        let greport = builder.filter_grouping(true).build().unwrap().infer(&qnet, &inputs[0]).expect("fits");

        let fidelity = compare(&net, &qnet, &inputs);
        let conv_cycles: u64 = report.conv_layers().map(|l| l.stats.total_cycles).sum();
        let gconv_cycles: u64 = greport.conv_layers().map(|l| l.stats.total_cycles).sum();
        dense_cycles.get_or_insert(conv_cycles);
        println!(
            "{:>8.2} {:>14} {:>14} {:>12.1} {:>9.0}%",
            density,
            conv_cycles,
            gconv_cycles,
            report.mean_gops(&config),
            fidelity.top1_agreement * 100.0
        );
    }
    let dense = dense_cycles.expect("at least one row");
    println!("\nzero-skip upper bound: 4x fewer cycles (the 4-cycle IFM quad-load floor");
    println!("limits savings to (16-4)/16 = 75%); dense run took {dense} cycles.");
}
