//! Counting-allocator proof that the daemon serves on resident, warm
//! workers: once each worker has run an image, a request through a
//! [`ServeHandle`](zskip::accel::ServeHandle) makes no allocation larger
//! than 1 KiB off the submitting thread except the one the driver owns by
//! contract (`tests/alloc_warm.rs`: the report's layer list, once; no
//! simulated DDR). A per-request arena, worker pool or thread
//! — what the batch-at-a-time engine paid — would regrow feature-map
//! sized buffers on some other thread and show here.
//!
//! A binary of its own with a single `#[test]`, so no concurrent test
//! thread allocates inside the measured window.

mod common;

use common::{big_allocations, exempt_this_thread, BIG};
use std::sync::{mpsc, Arc};
use zskip::accel::{AccelConfig, BackendKind, LayerReport, ServeEngine, ServeReply, Session};
use zskip::hls::Variant;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::model::{Network, SyntheticModelConfig};
use zskip::nn::NetworkSpec;
use zskip::quant::DensityProfile;

#[test]
fn a_warm_daemon_allocates_nothing_per_request_beyond_the_drivers_own() {
    const WORKERS: usize = 2;
    const REQUESTS: usize = 6;
    // This thread's input copies and reply channel are the client's, not
    // the daemon's.
    exempt_this_thread();
    let spec = format!("{}/specs/resnet18.json", env!("CARGO_MANIFEST_DIR"));
    let spec = NetworkSpec::from_json(&std::fs::read_to_string(spec).expect("the in-repo spec")).expect("valid");
    let density = DensityProfile::uniform(spec.conv_layers().len(), 0.35);
    let net = Network::synthetic(spec.clone(), &SyntheticModelConfig { seed: 1, density });
    let qnet = Arc::new(net.quantize(&synthetic_inputs(2, 1, spec.input)));
    let images = synthetic_inputs(3, REQUESTS, spec.input);

    // Two intra-image threads: a pool per request would show as well.
    let session = Session::builder(AccelConfig::for_variant(Variant::U256Opt))
        .backend(BackendKind::Cpu)
        .threads(2)
        .batch_workers(WORKERS)
        .build()
        .expect("a valid session");
    let engine = ServeEngine::start(session, Arc::clone(&qnet));
    let handle = engine.handle();
    // Room for every reply, so a send never allocates on a worker.
    let (tx, rx) = mpsc::sync_channel::<ServeReply>(REQUESTS);
    let submit = |i: usize| {
        let tx = tx.clone();
        handle
            .submit_with(format!("{i}"), images[i].clone(), Box::new(move |reply| tx.send(reply).expect("room")))
            .expect("admitted");
    };

    // Warm-up: each worker is parked in a completion until the other has
    // one too, so both have grown an arena (and the process has packed the
    // weights and filled the stats memo) before anything is measured.
    let barrier = Arc::new(std::sync::Barrier::new(WORKERS + 1));
    for image in &images[..WORKERS] {
        let barrier = Arc::clone(&barrier);
        let wait = move |reply: ServeReply| drop((reply.result.expect("runs"), barrier.wait()));
        handle.submit_with("warm", image.clone(), Box::new(wait)).expect("admitted");
    }
    barrier.wait();

    let mut replies = Vec::new();
    let sizes = big_allocations(|| {
        (0..REQUESTS).for_each(submit);
        replies.extend(rx.iter().take(REQUESTS));
    });
    let report = replies[0].result.as_ref().expect("runs");
    let layer_list = report.layers.capacity() * std::mem::size_of::<LayerReport>();
    assert_eq!(
        sizes,
        [layer_list; REQUESTS],
        "{REQUESTS} warm requests may each allocate their report's layer list once \
         ({layer_list} bytes) and nothing else above {BIG} bytes — no simulated DDR"
    );
    assert!(replies.iter().all(|r| r.result.as_ref().is_ok_and(|r| r.total_cycles == report.total_cycles)));
    assert_eq!(engine.join().served, (WORKERS + REQUESTS) as u64);
}
