//! Batch inference on the parallel execution engine.
//!
//! Runs a batch of scaled VGG-16 inferences across a worker pool
//! pulling from one queue, then re-runs the same inputs sequentially to demonstrate
//! that the batch path is bit-identical and to measure the wall-clock
//! speedup from parallelism.
//!
//! ```sh
//! cargo run --release --example batch_inference
//! ```

use std::time::Instant;

use zskip::accel::{AccelConfig, BackendKind, Session};
use zskip::hls::Variant;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::model::{QuantizedNetwork, SyntheticModelConfig, WeightCode};
use zskip::nn::Scales;
use zskip::nn::vgg16::vgg16_scaled_spec;
use zskip::quant::DensityProfile;

fn main() {
    let spec = vgg16_scaled_spec(32);
    let calib = synthetic_inputs(7, 2, spec.input);
    let qnet = QuantizedNetwork::synthetic(
        &spec,
        &SyntheticModelConfig { seed: 42, density: DensityProfile::deep_compression_vgg16() },
        Scales::Calibrate(&calib),
        WeightCode::Int8,
    );

    let batch = 16;
    let inputs = synthetic_inputs(11, batch, spec.input);
    let session = Session::builder(AccelConfig::for_variant_instances(Variant::U256Opt, 1))
        .backend(BackendKind::Model)
        .batch_workers(0)
        .build()
        .unwrap();

    println!("== batch of {batch} x {} on the worker pool ==", spec.name);
    let t0 = Instant::now();
    let parallel = session.run_batch(&qnet, &inputs).expect("fits");
    let t_par = t0.elapsed().as_secs_f64();
    println!(
        "parallel:   {:.2} s on {} workers ({:.2} images/s, jobs/worker {:?})",
        t_par,
        parallel.workers,
        batch as f64 / t_par,
        parallel.per_worker_jobs
    );

    let t0 = Instant::now();
    let sequential: Vec<_> =
        inputs.iter().map(|input| session.infer(&qnet, input).expect("fits")).collect();
    let t_seq = t0.elapsed().as_secs_f64();
    println!("sequential: {:.2} s ({:.2} images/s)", t_seq, batch as f64 / t_seq);
    println!("speedup: {:.2}x", t_seq / t_par);

    for (par, seq) in parallel.items.iter().zip(&sequential) {
        assert_eq!(par.output, seq.output, "batch output must be bit-identical to sequential");
        assert_eq!(par.total_cycles, seq.total_cycles);
    }
    println!("all {batch} results bit-identical to the sequential runs");
}
