//! Serving-daemon integration: concurrent requests through the real
//! `ServeEngine`, including a request that absorbs an injected transient
//! DMA fault. The contract under test is fault *isolation*: the poisoned
//! request errors with its stable `Error::code()` while every other
//! request in the same serving session completes bit-identical to a
//! direct `zskip infer` run. A second test drives the same engine over a
//! real localhost TCP socket through the newline-delimited JSON wire
//! protocol with concurrent clients; a third holds the cpu-backend
//! engine to `Session::infer` at every worker count.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};

use zskip::fault::{FaultKind, FaultPlan};
use zskip::hls::AccelArch;
use zskip::json::Json;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, NetworkSpec};
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::prelude::*;
use zskip::quant::DensityProfile;
use zskip::tensor::Shape;

fn small_net(hw: usize) -> QuantizedNetwork {
    let spec = NetworkSpec {
        name: "serve-it".into(),
        input: Shape::new(3, hw, hw),
        layers: vec![conv3x3("c1", 3, 4), maxpool2x2("p1"), conv3x3("c2", 4, 4)],
    };
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 17, density: DensityProfile::uniform(2, 0.5) },
    );
    net.quantize(&synthetic_inputs(18, 2, spec.input))
}

fn config() -> AccelConfig {
    AccelConfig::from_arch(
        &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
        100.0,
    )
}

/// One single-shot DMA parity fault lands in a six-request serving
/// session with retries disabled: exactly one request fails, with the
/// stable `dma.parity` code, and the other five are bit-identical to
/// direct inference on a fault-free session.
#[test]
fn faulted_request_errors_while_others_serve_bit_identical() {
    let qnet = Arc::new(small_net(8));
    let inputs = synthetic_inputs(21, 6, qnet.spec.input);

    // Golden outputs from a clean session — the `zskip infer` path.
    let clean = Session::builder(config()).backend(BackendKind::Model).build().unwrap();
    let golden: Vec<_> = inputs
        .iter()
        .map(|input| clean.infer(&qnet, input).expect("clean run succeeds").output)
        .collect();

    // The served session carries the fault plan. RetryPolicy::none()
    // keeps the worker loop from absorbing the (one-shot)
    // fault, so it must surface on exactly one request.
    let plan = FaultPlan::new().inject("dma:xfer", 1, FaultKind::DmaCorrupt { xor: 0x40 }).shared();
    let session = Session::builder(config())
        .backend(BackendKind::Model)
        .fault_plan(plan.clone())
        .retry(RetryPolicy::none())
        .build()
        .unwrap();
    let engine = ServeEngine::start(session, Arc::clone(&qnet));
    let handle = engine.handle();
    let (tx, rx) = mpsc::channel();
    for (i, input) in inputs.iter().enumerate() {
        handle.submit(format!("r{i}"), input.clone(), tx.clone()).expect("admitted");
    }
    drop(tx);

    let replies: Vec<ServeReply> = rx.iter().collect();
    assert_eq!(replies.len(), inputs.len(), "every accepted request completes exactly once");
    let mut failed = Vec::new();
    for reply in &replies {
        let idx: usize = reply.id[1..].parse().expect("id is r<index>");
        match &reply.result {
            Ok(report) => assert_eq!(
                report.output, golden[idx],
                "request {} must be bit-identical to direct inference",
                reply.id
            ),
            Err(e) => {
                assert_eq!(e.code(), "dma.parity", "stable code for the injected fault: {e}");
                failed.push(idx);
            }
        }
    }
    assert_eq!(failed.len(), 1, "the one-shot fault poisons exactly one request: {failed:?}");
    assert_eq!(plan.lock().expect("unpoisoned").fired().len(), 1, "the injection fired once");

    let stats = engine.join();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.served, (inputs.len() - 1) as u64);
    assert_eq!(stats.completed(), inputs.len() as u64);
}

/// Which worker runs which request must not show: on the cpu backend
/// the served outputs and cycle counts, and the batch engine's, equal
/// `Session::infer`'s at 1 to 4 workers — also when a one-shot `dma:xfer`
/// fault lands on one of them and a retry absorbs it.
#[test]
fn worker_count_never_shows_in_cpu_backend_results() {
    let qnet = Arc::new(small_net(8));
    let inputs = synthetic_inputs(33, 7, qnet.spec.input);
    let builder = || Session::builder(config()).backend(BackendKind::Cpu);
    let clean = builder().build().unwrap();
    let want: Vec<_> = inputs
        .iter()
        .map(|input| clean.infer(&qnet, input).map(|r| (r.output, r.total_cycles)).expect("clean run"))
        .collect();

    for workers in 1..=4 {
        for faulted in [false, true] {
            let what = format!("{workers} workers, faulted {faulted}");
            // The sixth DMA descriptor is the first image's, whoever runs it.
            let session = || {
                let plan = FaultPlan::new();
                let plan = if faulted { plan.inject("dma:xfer", 5, FaultKind::DmaCorrupt { xor: 0x40 }) } else { plan };
                let plan = plan.shared();
                (builder().batch_workers(workers).fault_plan(plan.clone()).build().unwrap(), plan)
            };
            let same = |got: &zskip::accel::InferenceReport, idx: usize| {
                assert_eq!((&got.output, got.total_cycles), (&want[idx].0, want[idx].1), "{what}: image {idx}");
            };

            let batch = session().0.run_batch_resilient(&qnet, &inputs);
            assert_eq!(batch.retries(), faulted as u64, "{what}: one retry per injected fault");
            for item in &batch.items {
                same(item.result.as_ref().expect("a retry absorbs the fault"), item.index);
            }
            if workers == 1 && faulted {
                // One worker takes the jobs in order.
                assert_eq!(batch.items.iter().map(|i| i.attempts).collect::<Vec<_>>(), [2, 1, 1, 1, 1, 1, 1]);
            }

            let (session, plan) = session();
            let engine = ServeEngine::start(session, Arc::clone(&qnet));
            let (tx, rx) = mpsc::channel();
            for (i, input) in inputs.iter().enumerate() {
                engine.handle().submit(format!("{i}"), input.clone(), tx.clone()).expect("admitted");
            }
            drop(tx);
            let replies: Vec<ServeReply> = rx.iter().collect();
            assert_eq!(replies.len(), inputs.len(), "{what}");
            for reply in replies {
                same(&reply.result.expect("a retry absorbs the fault"), reply.id.parse().expect("id is the index"));
            }
            assert_eq!(plan.lock().expect("unpoisoned").fired().len(), faulted as usize, "{what}");
            assert_eq!(engine.join().served, inputs.len() as u64, "{what}");
        }
    }
}

/// Reads newline-delimited JSON responses until the server closes the
/// connection.
fn read_replies(stream: &TcpStream) -> Vec<Json> {
    BufReader::new(stream)
        .lines()
        .map(|line| Json::parse(&line.expect("socket read")).expect("response line is JSON"))
        .collect()
}

/// Two concurrent TCP clients drive the wire protocol against one
/// engine: every seed-addressed request comes back `ok` with the output
/// of direct inference on the same seed, a garbage line gets the
/// `serve.protocol` code without disturbing its neighbours, and the
/// drain after shutdown loses nothing.
#[test]
fn tcp_clients_round_trip_concurrently() {
    let qnet = Arc::new(small_net(8));
    let shape = qnet.spec.input;
    let session = Session::builder(config()).backend(BackendKind::Model).build().unwrap();
    // Golden path: what `zskip infer --seed <s>` computes for each seed.
    let golden = |seed: u64| {
        let input = synthetic_inputs(seed, 1, shape).remove(0);
        let out = session.driver().run_network(&qnet, &input).expect("clean run").output;
        out.iter().map(|v| v.to_i32()).collect::<Vec<i32>>()
    };
    let want: Vec<(u64, Vec<i32>)> = (40..46).map(|s| (s, golden(s))).collect();

    let engine = ServeEngine::start(session, Arc::clone(&qnet));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound addr");

    std::thread::scope(|scope| {
        // Server: accept exactly two connections, one wire loop each.
        let handle = engine.handle();
        scope.spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().expect("accept");
                let handle = handle.clone();
                scope.spawn(move || {
                    let reader = BufReader::new(stream.try_clone().expect("clone socket"));
                    let mut writer = &stream;
                    wire::serve_connection(&handle, shape, reader, &mut writer)
                        .expect("connection io");
                });
            }
        });

        // Client A: three seeds, then a garbage line.
        let want_a = &want[..3];
        let a = scope.spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut w = &stream;
            for (seed, _) in want_a {
                writeln!(w, r#"{{"op":"infer","id":"s{seed}","seed":{seed}}}"#).expect("send");
            }
            writeln!(w, "this is not json").expect("send");
            stream.shutdown(Shutdown::Write).expect("half-close");
            read_replies(&stream)
        });
        // Client B: the other three seeds.
        let want_b = &want[3..];
        let b = scope.spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut w = &stream;
            for (seed, _) in want_b {
                writeln!(w, r#"{{"op":"infer","id":"s{seed}","seed":{seed}}}"#).expect("send");
            }
            stream.shutdown(Shutdown::Write).expect("half-close");
            read_replies(&stream)
        });

        let replies_a = a.join().expect("client a");
        let replies_b = b.join().expect("client b");
        assert_eq!(replies_a.len(), 4, "3 replies + 1 protocol error: {replies_a:?}");
        assert_eq!(replies_b.len(), 3);

        let all: Vec<&Json> = replies_a.iter().chain(&replies_b).collect();
        assert_eq!(
            all.iter()
                .filter(|j| j.get("code").and_then(Json::as_str) == Some("serve.protocol"))
                .count(),
            1,
            "the garbage line answers with the stable protocol code"
        );
        for (seed, want_out) in &want {
            let reply = all
                .iter()
                .find(|j| j.get("id").and_then(Json::as_str) == Some(&format!("s{seed}")))
                .unwrap_or_else(|| panic!("no reply for seed {seed}"));
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
            let got: Vec<i32> = reply
                .get("output")
                .and_then(Json::as_arr)
                .expect("output array")
                .iter()
                .map(|v| v.as_f64().expect("int") as i32)
                .collect();
            assert_eq!(&got, want_out, "seed {seed} served over TCP matches direct inference");
        }
    });

    let stats = engine.join();
    assert_eq!(stats.served, 6);
    assert_eq!(stats.failed, 0);
}
