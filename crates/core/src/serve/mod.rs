//! The inference serving daemon: a bounded submission queue in front of
//! resident workers.
//!
//! A [`ServeEngine`] owns `workers` long-lived threads
//! ([`BatchConfig::workers`](crate::session::BatchConfig::workers), 0 =
//! one per host core), each running the batch engine's
//! [worker loop](crate::batch) over one shared queue: a warm arena for
//! the thread's life, one request at a time. Producers (stdin reader, TCP
//! connection threads, tests) submit requests through a cloneable
//! [`ServeHandle`]; an idle worker wakes on the submit and starts at once,
//! and nothing is coalesced — no kernel shares work across a batch's
//! images, so holding a request back for company could only delay it.
//! Every request carries a completion callback, invoked exactly once with
//! a [`ServeReply`] — by the worker that ran the request, on that worker's
//! thread, the moment its own image is done: the inference report (or
//! error) plus per-request latency stats (queue wait, service time).
//!
//! Three properties the tests pin down:
//!
//! * **Backpressure, not collapse** — a submit against a full queue is
//!   rejected immediately with [`ServeError::Overloaded`]; queued and
//!   in-flight requests are unaffected.
//! * **Fault isolation** — a request that fails (an injected DMA parity
//!   fault, an image that panics its worker, a completion callback that
//!   panics) errors with its stable [`Error::code`] and is counted as
//!   failed; every other request completes bit-identical to `zskip infer`
//!   and the worker keeps serving.
//! * **Graceful shutdown** — [`ServeHandle::shutdown`] stops admission
//!   ([`ServeError::Shutdown`]) but the workers drain everything already
//!   queued before [`ServeEngine::join`] returns.
//!
//! The wire protocol (newline-delimited JSON over stdio or TCP) is a
//! thin layer over this engine; see [`wire`] and `docs/SERVING.md`.

mod histogram;
pub mod wire;

use std::borrow::Cow;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::batch::{effective_workers, lock, worker_loop, Job, JobQueue, Refused};
use crate::driver::{DriverError, InferenceReport};
use crate::error::Error;
use crate::session::{BatchConfig, Session};
use histogram::LogHistogram;
use zskip_nn::model::QuantizedNetwork;
use zskip_tensor::Tensor;

/// A serving-layer failure. Wrapped as [`Error::Serve`]; the stable
/// [`Error::code`] strings are `serve.overloaded`, `serve.shutdown`,
/// `serve.protocol` and `serve.bad-request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded submission queue is full: explicit backpressure. The
    /// client should retry later; nothing was enqueued.
    Overloaded {
        /// The configured queue depth that was exhausted.
        depth: usize,
    },
    /// The engine is shutting down and no longer admits requests.
    Shutdown,
    /// The request line was not valid JSON (framing-level failure).
    Protocol {
        /// Parser diagnostic.
        message: String,
    },
    /// Valid JSON, but not a valid request (unknown op, missing or
    /// ill-typed field, wrong image length), or a line too long to read
    /// (see [`wire::MAX_LINE_BYTES`]).
    BadRequest {
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "server overloaded: submission queue full ({depth} deep)")
            }
            ServeError::Shutdown => write!(f, "server is shutting down"),
            ServeError::Protocol { message } => write!(f, "protocol error: {message}"),
            ServeError::BadRequest { message } => write!(f, "bad request: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-request latency accounting, attached to every [`ServeReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestStats {
    /// Microseconds from the submit to a worker taking the request.
    pub queue_us: u64,
    /// Microseconds from there to this reply: the request's own service
    /// time, retries included. (The name is the wire field's: a reply used
    /// to wait for the slowest image of its batch.)
    pub batch_us: u64,
    /// Always 1: a worker runs one request at a time.
    pub batch_size: usize,
}

impl RequestStats {
    /// Total request latency: queue wait plus service time.
    pub fn total_us(&self) -> u64 {
        self.queue_us + self.batch_us
    }
}

/// The completion delivered to a request's callback: outcome plus stats.
#[derive(Debug)]
pub struct ServeReply {
    /// The client-chosen request id, echoed back verbatim.
    pub id: String,
    /// The inference report, or the error after retries were exhausted.
    pub result: Result<InferenceReport, Error>,
    /// Latency accounting for this request.
    pub stats: RequestStats,
}

/// Aggregate server-side counters, snapshot via [`ServeHandle::stats`]
/// and returned by [`ServeEngine::join`].
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests completed successfully.
    pub served: u64,
    /// Requests that completed with an error (after retries), or whose
    /// completion callback panicked.
    pub failed: u64,
    /// Requests rejected at admission ([`ServeError::Overloaded`] or
    /// [`ServeError::Shutdown`]).
    pub rejected: u64,
    /// Total request latencies (queue + service) in microseconds, one
    /// sample per completion: a fixed-size log histogram, so a daemon's
    /// 10^7-th request costs the memory of its 10th.
    latencies_us: LogHistogram,
}

impl ServeStats {
    /// Median total request latency in microseconds, read off the
    /// histogram: within 6.25 % of the exact order statistic.
    pub fn p50_us(&self) -> u64 {
        self.latencies_us.percentile(0.50)
    }

    /// 99th-percentile total request latency in microseconds (same
    /// resolution as [`ServeStats::p50_us`]).
    pub fn p99_us(&self) -> u64 {
        self.latencies_us.percentile(0.99)
    }

    /// Completions recorded (successes plus failures).
    pub fn completed(&self) -> u64 {
        self.served + self.failed
    }
}

/// What a request runs when it completes. Invoked exactly once, on the
/// thread of the worker that ran the request, before that worker takes its
/// next one — keep it cheap (a channel send, a line write). The request is
/// already counted in [`ServeHandle::stats`] when it runs. If it panics,
/// the request is re-counted as failed and the worker carries on.
pub type Completion = Box<dyn FnOnce(ServeReply) + Send + 'static>;

/// What a queued request's input travels with.
struct Ticket {
    id: String,
    enqueued: Instant,
    complete: Completion,
}

struct Shared {
    queue: JobQueue<'static, Ticket>,
    stats: Mutex<ServeStats>,
    config: BatchConfig,
}

impl Shared {
    /// The counters. Poison-tolerant: every update is a few integer adds
    /// that cannot panic part-way.
    fn stats(&self) -> MutexGuard<'_, ServeStats> {
        lock(&self.stats)
    }

    /// Counts the request a worker took at `taken` and has now finished,
    /// then hands its reply to its completion.
    fn complete(&self, ticket: Ticket, taken: Instant, result: Result<InferenceReport, DriverError>) {
        let stats = RequestStats {
            queue_us: taken.saturating_duration_since(ticket.enqueued).as_micros() as u64,
            batch_us: taken.elapsed().as_micros() as u64,
            batch_size: 1,
        };
        let ok = result.is_ok();
        {
            let mut counters = self.stats();
            if ok {
                counters.served += 1;
            } else {
                counters.failed += 1;
            }
            counters.latencies_us.record(stats.total_us());
        }
        // Outside the stats lock, so a callback may query handle.stats().
        let reply = ServeReply { id: ticket.id, result: result.map_err(Error::from), stats };
        let delivered = catch_unwind(AssertUnwindSafe(|| (ticket.complete)(reply)));
        if delivered.is_err() && ok {
            let mut counters = self.stats();
            counters.served -= 1;
            counters.failed += 1;
        }
    }
}

/// Cloneable submission side of a [`ServeEngine`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeHandle").field("config", &self.shared.config).finish()
    }
}

impl ServeHandle {
    /// Enqueues one request; `complete` fires exactly once when it has
    /// run. Admission control happens here, synchronously.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when the queue is at
    /// [`BatchConfig::queue_depth`](crate::session::BatchConfig::queue_depth);
    /// [`ServeError::Shutdown`] after [`ServeHandle::shutdown`]. In both
    /// cases nothing was enqueued and `complete` will never run.
    pub fn submit_with(
        &self,
        id: impl Into<String>,
        input: Tensor<f32>,
        complete: Completion,
    ) -> Result<(), Error> {
        let depth = self.shared.config.queue_depth;
        let ticket = Ticket { id: id.into(), enqueued: Instant::now(), complete };
        let refused = match self.shared.queue.push(Job { input: Cow::Owned(input), tag: ticket }, depth) {
            Ok(()) => return Ok(()),
            Err(Refused::Closed) => ServeError::Shutdown,
            Err(Refused::Full) => ServeError::Overloaded { depth },
        };
        self.shared.stats().rejected += 1;
        Err(refused.into())
    }

    /// [`ServeHandle::submit_with`] delivering the reply on a channel.
    ///
    /// # Errors
    /// See [`ServeHandle::submit_with`].
    pub fn submit(
        &self,
        id: impl Into<String>,
        input: Tensor<f32>,
        reply: mpsc::Sender<ServeReply>,
    ) -> Result<(), Error> {
        self.submit_with(id, input, Box::new(move |r| drop(reply.send(r))))
    }

    /// Stops admission and tells the workers to drain what is queued and
    /// exit. Idempotent; already-queued requests still complete.
    pub fn shutdown(&self) {
        self.shared.queue.close();
    }

    /// Whether [`ServeHandle::shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.shared.queue.is_closed()
    }

    /// Snapshot of the aggregate server counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats().clone()
    }

    /// Requests currently queued (no worker has taken them yet).
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// The batch configuration the engine was started with.
    pub fn config(&self) -> &BatchConfig {
        &self.shared.config
    }
}

/// The serving daemon's core: resident workers over a bounded queue.
/// Construct with [`ServeEngine::start`], stop with [`ServeEngine::join`].
pub struct ServeEngine {
    handle: ServeHandle,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeEngine").field("handle", &self.handle).finish()
    }
}

impl ServeEngine {
    /// Spawns the worker threads for `session` over `qnet`. Their count,
    /// the queue depth and the retry policy come from
    /// [`Session::batch_config`].
    pub fn start(session: Session, qnet: Arc<QuantizedNetwork>) -> ServeEngine {
        let config = *session.batch_config();
        let shared =
            Arc::new(Shared { queue: JobQueue::new([], false), stats: Mutex::default(), config });
        let workers = (0..effective_workers(config.workers, usize::MAX))
            .map(|w| {
                let (shared, driver, qnet) = (Arc::clone(&shared), session.driver().clone(), Arc::clone(&qnet));
                let serve = move || {
                    worker_loop(&shared.queue, &driver, &qnet, config.retry, |ticket, taken, outcome| {
                        shared.complete(ticket, taken, outcome.result)
                    })
                };
                std::thread::Builder::new()
                    .name(format!("zskip-serve-{w}"))
                    .spawn(serve)
                    .expect("spawn serve worker")
            })
            .collect();
        ServeEngine { handle: ServeHandle { shared }, workers }
    }

    /// The submission side; clone freely across producer threads.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Initiates shutdown (if not already requested), waits for the
    /// workers to drain every queued request, and returns the final
    /// counters. Every accepted request's completion has run by the time
    /// this returns.
    pub fn join(mut self) -> ServeStats {
        self.drain();
        self.handle.stats()
    }

    fn drain(&mut self) {
        self.handle.shutdown();
        for worker in self.workers.drain(..) {
            // A worker catches its requests' panics; one that died anyway
            // has nothing left to report.
            let _ = worker.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;
    use crate::driver::BackendKind;
    use crate::session::{Session, SessionBuilder};
    use zskip_hls::AccelArch;
    use zskip_nn::eval::synthetic_inputs;

    fn config() -> AccelConfig {
        AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
            100.0,
        )
    }

    fn builder() -> SessionBuilder {
        Session::builder(config()).backend(BackendKind::Model)
    }

    /// Submits a request whose completion parks its worker, and returns
    /// once the worker is parked there. Dropping the returned sender lets
    /// it go.
    fn park_a_worker(handle: &ServeHandle, input: Tensor<f32>) -> mpsc::Sender<()> {
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let complete = move |_| {
            parked_tx.send(()).expect("the test is listening");
            let _ = release_rx.recv();
        };
        handle.submit_with("parked", input, Box::new(complete)).expect("admitted");
        parked_rx.recv().expect("the worker reaches the completion");
        release_tx
    }

    #[test]
    fn serves_requests_bit_identical_to_direct_inference() {
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let session = builder().build().unwrap();
        let inputs = synthetic_inputs(6, 5, qnet.spec.input);
        let direct: Vec<_> = inputs
            .iter()
            .map(|i| session.infer(&qnet, i).expect("runs").output)
            .collect();
        let engine = ServeEngine::start(session, Arc::clone(&qnet));
        let handle = engine.handle();
        let (tx, rx) = mpsc::channel();
        for (i, input) in inputs.iter().enumerate() {
            handle.submit(format!("r{i}"), input.clone(), tx.clone()).expect("admitted");
        }
        drop(tx);
        let mut replies: Vec<ServeReply> = rx.iter().take(inputs.len()).collect();
        replies.sort_by(|a, b| a.id.cmp(&b.id));
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.id, format!("r{i}"));
            let report = reply.result.as_ref().expect("succeeds");
            assert_eq!(report.output, direct[i], "request {i} must match direct inference");
            assert_eq!(reply.stats.batch_size, 1);
        }
        let stats = engine.join();
        assert_eq!(stats.served, inputs.len() as u64);
        assert_eq!(stats.failed, 0);
        assert!(stats.p99_us() >= stats.p50_us());
    }

    #[test]
    fn a_million_latencies_cost_the_memory_of_ten() {
        // `Copy` data owns no heap memory, so the struct's size is all the
        // memory it has. The pattern is exhaustive: a new field must
        // answer here too.
        fn plain_data<T: Copy>(_: &T) {}
        let mut stats = ServeStats::default();
        (0..10).for_each(|i| stats.latencies_us.record(900 + i));
        let size = std::mem::size_of_val(&stats);
        assert!(stats.p50_us().abs_diff(905) <= 90, "{}", stats.p50_us());
        (0..1_000_000).for_each(|i| stats.latencies_us.record(9000 + i % 10));
        assert!(stats.p50_us().abs_diff(9005) <= 900, "the million are counted: {}", stats.p50_us());
        assert_eq!(std::mem::size_of_val(&stats), size);
        let ServeStats { served, failed, rejected, latencies_us } = &stats;
        plain_data(&(served, failed, rejected));
        plain_data(latencies_us);
    }

    #[test]
    fn a_reply_is_not_held_for_its_neighbours() {
        // One worker, A then B: A's completion runs before B is even
        // taken, so the engine has completed exactly one request there.
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let input = synthetic_inputs(1, 4, qnet.spec.input).remove(0);
        let engine = ServeEngine::start(builder().batch_workers(1).build().unwrap(), Arc::clone(&qnet));
        let handle = engine.handle();
        let release = park_a_worker(&handle, input.clone());
        let (tx, rx) = mpsc::channel();
        let seen = {
            let (handle, tx) = (handle.clone(), tx.clone());
            move |reply: ServeReply| drop(tx.send((reply.id, handle.stats().completed(), handle.queued())))
        };
        handle.submit_with("a", input.clone(), Box::new(seen.clone())).expect("admitted");
        handle.submit_with("b", input, Box::new(seen)).expect("admitted");
        drop((tx, release));
        let seen: Vec<_> = rx.iter().collect();
        // The parked request was the first completion.
        assert_eq!(seen, [("a".to_string(), 2, 1), ("b".to_string(), 3, 0)]);
        assert_eq!(engine.join().served, 3);
    }

    #[test]
    fn full_queue_rejects_with_overloaded_and_recovers() {
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let session = builder().queue_depth(2).batch_workers(1).build().unwrap();
        let input = synthetic_inputs(1, 2, qnet.spec.input).remove(0);
        let engine = ServeEngine::start(session, Arc::clone(&qnet));
        let handle = engine.handle();
        // With the only worker parked, depth 2 admits exactly two more.
        let release = park_a_worker(&handle, input.clone());
        let (tx, rx) = mpsc::channel();
        handle.submit("q0", input.clone(), tx.clone()).expect("admitted");
        handle.submit("q1", input.clone(), tx.clone()).expect("admitted");
        assert_eq!(handle.queued(), 2);
        let overloaded = handle.submit("q2", input, tx.clone()).unwrap_err();
        assert_eq!(overloaded.code(), "serve.overloaded");
        assert_eq!(
            overloaded,
            Error::Serve(ServeError::Overloaded { depth: 2 }),
            "the error names the exhausted depth"
        );
        drop((tx, release));
        // Shutdown drains the accepted requests; none are dropped.
        let stats = engine.join();
        assert_eq!(stats.served, 3);
        assert_eq!(stats.rejected, 1);
        let replies: Vec<ServeReply> = rx.iter().collect();
        assert_eq!(replies.len(), 2);
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_queued() {
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let input = synthetic_inputs(1, 3, qnet.spec.input).remove(0);
        let engine = ServeEngine::start(builder().batch_workers(1).build().unwrap(), Arc::clone(&qnet));
        let handle = engine.handle();
        // "a" is still queued, not running, when the shutdown lands.
        let release = park_a_worker(&handle, input.clone());
        let (tx, rx) = mpsc::channel();
        handle.submit("a", input.clone(), tx.clone()).expect("admitted");
        handle.shutdown();
        assert!(handle.is_shutdown());
        let err = handle.submit("b", input, tx.clone()).unwrap_err();
        assert_eq!(err.code(), "serve.shutdown");
        assert_eq!(handle.queued(), 1);
        drop((tx, release));
        let stats = engine.join();
        assert_eq!(stats.served, 2, "the queued request drains through shutdown");
        assert_eq!(stats.rejected, 1);
        let replies: Vec<ServeReply> = rx.iter().collect();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].id, "a");
    }

    #[test]
    fn a_panicking_completion_fails_its_own_request_and_the_worker_keeps_serving() {
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let input = synthetic_inputs(1, 5, qnet.spec.input).remove(0);
        let session = builder().batch_workers(1).build().unwrap();
        let want = session.infer(&qnet, &input).expect("runs").output;
        let engine = ServeEngine::start(session, Arc::clone(&qnet));
        let handle = engine.handle();
        // Nobody can be told about this one, so it is counted.
        handle.submit_with("boom", input.clone(), Box::new(|_| panic!("completion panics"))).expect("admitted");
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            handle.submit(format!("after{i}"), input.clone(), tx.clone()).expect("admitted");
        }
        drop(tx);
        let replies: Vec<ServeReply> = rx.iter().collect();
        assert_eq!(replies.len(), 10, "the one worker outlives the panic");
        for reply in &replies {
            assert_eq!(reply.result.as_ref().expect("served").output, want, "{}", reply.id);
        }
        let stats = engine.join();
        assert_eq!((stats.served, stats.failed), (10, 1));
    }
}
