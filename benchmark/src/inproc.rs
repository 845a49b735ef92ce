//! `vgg16_warm` and `vgg16_cycle`: a host application holding a
//! `Session`, one client in a closed loop over 8 images — on the cpu
//! backend (host SIMD kernels) and on the cycle-exact backend (the
//! simulator).

use std::time::Instant;

use zskip::accel::{BackendKind, InferenceReport, Session};
use zskip::nn::model::QuantizedNetwork;
use zskip::nn::Scratch;
use zskip::quant::Sm8;

use crate::calib::HostSpeed;
use crate::child::proc_status_kib;
use crate::contract::{workload, Layers, Outcome, VGG16_CYCLE, VGG16_WARM};
use crate::spans::Recorder;
use crate::stats::{median, percentile, tail};
use crate::{net, probes, Opts, SETUP_REPS};

/// Untimed images before the loop: arena growth, worker-pool start,
/// weight packing.
fn warmups(backend: BackendKind) -> usize {
    if backend == BackendKind::Cycle {
        1
    } else {
        2
    }
}

/// Set-up as a host application pays it: network build + session build.
fn setup(backend: BackendKind) -> Result<(QuantizedNetwork, Session, f64), String> {
    let t = Instant::now();
    let qnet = net::build_network(&net::vgg16_spec());
    let session = net::session(backend)?;
    Ok((qnet, session, t.elapsed().as_secs_f64()))
}

pub fn run(backend: BackendKind, opts: &Opts) -> Result<Outcome, String> {
    let name = if backend == BackendKind::Cycle {
        VGG16_CYCLE
    } else {
        VGG16_WARM
    };
    let mut rec = Recorder::default();
    let mut layers = Layers::default();

    let host = HostSpeed::start();
    let setup_from = Instant::now();
    let mut setups = Vec::new();
    let (qnet, session) = if opts.trace {
        probes::traced_setup(&mut rec, &mut layers, None, backend)?
    } else {
        let mut built = None;
        for _ in 0..SETUP_REPS {
            // Drop the previous build first: two resident networks would
            // inflate the peak RSS this workload reports.
            drop(built.take());
            let (qnet, session, setup_s) = setup(backend)?;
            setups.push(setup_s);
            built = Some((qnet, session));
        }
        built.expect("SETUP_REPS >= 1")
    };
    let setup_to = Instant::now();

    let images = net::images(opts.seed, net::IMAGES, qnet.spec.input);
    let goldens: Vec<Vec<Sm8>> = images.iter().map(|img| qnet.forward_quant(img)).collect();

    let mut scratch = Scratch::new();
    for image in images.iter().take(warmups(backend)) {
        session
            .infer_scratch(&qnet, image, &mut scratch)
            .map_err(|e| format!("warm-up inference failed: {e}"))?;
    }

    // The timed closed loop. Reports are kept and checked afterwards.
    let mut results: Vec<(usize, f64, Result<InferenceReport, String>)> = Vec::new();
    let t0 = Instant::now();
    while results.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds {
        let i = results.len() % images.len();
        let span = opts.trace.then(|| {
            rec.enter(
                "client.image",
                session.driver().backend.name(),
                Some(results.len() as u64),
            )
        });
        let t = Instant::now();
        let result = session.infer_scratch(&qnet, &images[i], &mut scratch);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(id) = span {
            rec.exit(id);
        }
        results.push((i, ms, result.map_err(|e| e.to_string())));
    }
    let loop_end = Instant::now();
    let wall_s = loop_end.duration_since(t0).as_secs_f64();
    let speed = host.stop();
    let slow_setup = speed.slowdown(setup_from, setup_to);
    let slow = speed.slowdown(t0, loop_end);
    let peak_kib = proc_status_kib(std::process::id(), "VmHWM").unwrap_or(0);

    // Outside the timed region: every output against its golden, and the
    // simulated figures must be the same for every image.
    let limit_ms = workload(name).expect("defined").limit_ms;
    let first = results
        .iter()
        .find_map(|(_, _, r)| r.as_ref().ok())
        .ok_or("every inference failed")?;
    let (cycles, ddr_bytes) = (first.total_cycles, first.ddr_bytes);
    let mut failed = 0;
    let mut within = 0;
    for (i, ms, result) in &results {
        let ok = match result {
            Ok(r) if r.output != goldens[*i] => {
                Err("output differs from forward_quant golden".to_string())
            }
            Ok(r) if (r.total_cycles, r.ddr_bytes) != (cycles, ddr_bytes) => Err(format!(
                "cycles/DDR bytes vary between images: {} / {}",
                r.total_cycles, r.ddr_bytes
            )),
            Ok(_) => Ok(()),
            Err(e) => Err(e.clone()),
        };
        match ok {
            Ok(()) => within += usize::from(*ms / slow <= limit_ms),
            Err(why) => {
                failed += 1;
                eprintln!("{name}: image {i} failed: {why}");
            }
        }
    }
    let lat: Vec<f64> = results.iter().map(|r| r.1).collect();
    let n = lat.len();
    let tail_text = tail(&lat).map_or("(tail: fewer than 100 samples)".to_string(), |(p, v)| {
        format!("p{p} {v:.2}")
    });
    eprintln!(
        "{name}: n={n} raw ms/image: min {:.2} p25 {:.2} median {:.2} {tail_text}; {:.2} img/s; {failed} failed",
        percentile(&lat, 0.0),
        percentile(&lat, 25.0),
        median(&lat),
        n as f64 / wall_s,
    );
    eprintln!(
        "{name}: host slowdown {slow:.3} over the loop ({slow_setup:.3} over set-up), {}: at undisturbed host speed median {:.2} ms/image, {:.2} img/s, {:.3e} simulated cycles per host s",
        speed.describe(),
        median(&lat) / slow,
        n as f64 / wall_s * slow,
        cycles as f64 * n as f64 / wall_s * slow,
    );

    if !opts.trace {
        return Ok(Outcome {
            attempted: n as u64,
            failed,
            metrics: vec![
                ("setup_s", median(&setups) / slow_setup),
                ("latency_ms", median(&lat) / slow),
                ("images_per_s", n as f64 / wall_s * slow),
                ("within_limit_share", within as f64 / n as f64),
                ("peak_rss_mib", peak_kib as f64 / 1024.0),
                ("accel_cycles", cycles as f64),
                ("accel_ddr_bytes", ddr_bytes as f64),
            ],
        });
    }

    layers.set("host.slowdown", slow);
    layers.set("client.latency_ms_p50", median(&lat) / slow);
    layers.set("client.images_per_s", n as f64 / wall_s * slow);
    let image = &images[0];
    probes::accel(&mut rec, &mut layers, &qnet, image)?;
    if backend == BackendKind::Cycle {
        probes::sim(&mut rec, &mut layers, &qnet, image, median(&lat), first)?;
    } else {
        layers.set("client.warm_image_p90_ms", percentile(&lat, 90.0));
        probes::golden_warm(&mut rec, &mut layers, &qnet, &session, image);
        probes::cpu_decomposition(&mut rec, &mut layers, &qnet, &session, image, median(&lat))?;
    }
    crate::finish_trace(&rec, name)?;
    Ok(Outcome {
        attempted: n as u64,
        failed,
        metrics: layers.values(),
    })
}
