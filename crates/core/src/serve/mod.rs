//! The inference serving daemon: a submission queue with adaptive
//! batching in front of the work-stealing batch engine.
//!
//! A [`ServeEngine`] owns one batcher thread and a bounded request queue.
//! Producers (stdin reader, TCP connection threads, tests) submit
//! requests through a cloneable [`ServeHandle`]; the batcher coalesces
//! whatever is queued into adaptive batches — dispatching as soon as
//! [`BatchConfig::max_batch`](crate::session::BatchConfig::max_batch)
//! requests are waiting, or when
//! [`BatchConfig::batch_window`](crate::session::BatchConfig::batch_window)
//! expires after the first request of a batch arrives — and runs each
//! batch through [`Session::run_batch_resilient`]. Every request carries
//! a completion callback, invoked exactly once with a [`ServeReply`]:
//! the inference report (or error) plus per-request latency stats (queue
//! wait, batch wall time, batch size).
//!
//! Three properties the tests pin down:
//!
//! * **Backpressure, not collapse** — a submit against a full queue is
//!   rejected immediately with [`ServeError::Overloaded`]; queued and
//!   in-flight requests are unaffected.
//! * **Fault isolation** — a request that fails (e.g. an injected DMA
//!   parity fault) errors with its stable [`Error::code`]; unrelated
//!   requests in the same batch complete bit-identical to `zskip infer`.
//! * **Graceful shutdown** — [`ServeHandle::shutdown`] stops admission
//!   ([`ServeError::Shutdown`]) but the batcher drains everything
//!   already queued before [`ServeEngine::join`] returns.
//!
//! The wire protocol (newline-delimited JSON over stdio or TCP) is a
//! thin layer over this engine; see [`wire`] and `docs/SERVING.md`.

mod histogram;
pub mod wire;

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::driver::InferenceReport;
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
    /// Microseconds the request waited queued before its batch dispatched.
    pub queue_us: u64,
    /// Wall microseconds of the batch the request ran in.
    pub batch_us: u64,
    /// How many requests were coalesced into that batch.
    pub batch_size: usize,
}

impl RequestStats {
    /// Total request latency: queue wait plus batch wall time.
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
    /// Requests that completed with an error (after retries).
    pub failed: u64,
    /// Requests rejected at admission ([`ServeError::Overloaded`] or
    /// [`ServeError::Shutdown`]).
    pub rejected: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Largest batch coalesced so far.
    pub max_batch_seen: usize,
    /// Total request latencies (queue + batch wall) in microseconds,
    /// one sample per completion: a fixed-size log histogram, so a
    /// daemon's 10^7-th request costs the memory of its 10th.
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

    /// Mean coalesced batch size (0.0 before the first dispatch).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed() as f64 / self.batches as f64
        }
    }
}

/// What a request runs when its batch completes. Invoked exactly once,
/// on the batcher thread — keep it cheap (a channel send, a line write).
pub type Completion = Box<dyn FnOnce(ServeReply) + Send + 'static>;

struct Pending {
    input: Tensor<f32>,
    ticket: Ticket,
}

/// What outlives a request's input once its batch is dispatched.
struct Ticket {
    id: String,
    enqueued: Instant,
    complete: Completion,
}

struct QueueState {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Wakes the batcher on submit and shutdown.
    bell: Condvar,
    stats: Mutex<ServeStats>,
    config: BatchConfig,
    shutdown_flag: AtomicBool,
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
    /// Enqueues one request; `complete` fires exactly once when its batch
    /// finishes. Admission control happens here, synchronously.
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
        let mut q = self.shared.queue.lock().unwrap();
        if q.shutdown {
            drop(q);
            self.shared.stats.lock().unwrap().rejected += 1;
            return Err(ServeError::Shutdown.into());
        }
        if q.pending.len() >= self.shared.config.queue_depth {
            drop(q);
            self.shared.stats.lock().unwrap().rejected += 1;
            return Err(ServeError::Overloaded { depth: self.shared.config.queue_depth }.into());
        }
        let ticket = Ticket { id: id.into(), enqueued: Instant::now(), complete };
        q.pending.push_back(Pending { input, ticket });
        drop(q);
        self.shared.bell.notify_all();
        Ok(())
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

    /// Stops admission and tells the batcher to drain what is queued and
    /// exit. Idempotent; already-queued requests still complete.
    pub fn shutdown(&self) {
        let mut q = self.shared.queue.lock().unwrap();
        q.shutdown = true;
        self.shared.shutdown_flag.store(true, Ordering::Release);
        drop(q);
        self.shared.bell.notify_all();
    }

    /// Whether [`ServeHandle::shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown_flag.load(Ordering::Acquire)
    }

    /// Snapshot of the aggregate server counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.lock().unwrap().clone()
    }

    /// Requests currently queued (not yet dispatched).
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().unwrap().pending.len()
    }

    /// The batch configuration the engine was started with.
    pub fn config(&self) -> &BatchConfig {
        &self.shared.config
    }
}

/// The serving daemon's core: one batcher thread over a bounded queue.
/// Construct with [`ServeEngine::start`], stop with [`ServeEngine::join`].
pub struct ServeEngine {
    handle: ServeHandle,
    batcher: Option<JoinHandle<()>>,
}

impl fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeEngine").field("handle", &self.handle).finish()
    }
}

impl ServeEngine {
    /// Spawns the batcher thread for `session` over `qnet`. The batch
    /// knobs come from [`Session::batch_config`].
    pub fn start(session: Session, qnet: Arc<QuantizedNetwork>) -> ServeEngine {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { pending: VecDeque::new(), shutdown: false }),
            bell: Condvar::new(),
            stats: Mutex::new(ServeStats::default()),
            config: *session.batch_config(),
            shutdown_flag: AtomicBool::new(false),
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(&shared, &session, &qnet))
        };
        ServeEngine { handle: ServeHandle { shared }, batcher: Some(batcher) }
    }

    /// The submission side; clone freely across producer threads.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Initiates shutdown (if not already requested), waits for the
    /// batcher to drain every queued request, and returns the final
    /// counters. Every accepted request's completion has run by the time
    /// this returns.
    pub fn join(mut self) -> ServeStats {
        self.handle.shutdown();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        self.handle.stats()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
    }
}

fn batcher_loop(shared: &Shared, session: &Session, qnet: &QuantizedNetwork) {
    let config = shared.config;
    loop {
        // Each request's input moves into the batch; its ticket waits.
        let (inputs, tickets): (Vec<Tensor<f32>>, Vec<Ticket>) = {
            let mut q = shared.queue.lock().unwrap();
            // Sleep until there is work or a drain-and-exit request.
            loop {
                if !q.pending.is_empty() {
                    break;
                }
                if q.shutdown {
                    return;
                }
                q = shared.bell.wait(q).unwrap();
            }
            // Adaptive coalescing: hold the batch open until the window
            // after the first request expires or the cutoff fills it.
            // During shutdown the window is skipped — drain fast.
            if !q.shutdown && q.pending.len() < config.max_batch && !config.batch_window.is_zero()
            {
                let deadline = Instant::now() + config.batch_window;
                loop {
                    let now = Instant::now();
                    if now >= deadline || q.pending.len() >= config.max_batch || q.shutdown {
                        break;
                    }
                    let (guard, wait) = shared.bell.wait_timeout(q, deadline - now).unwrap();
                    q = guard;
                    if wait.timed_out() {
                        break;
                    }
                }
            }
            let n = q.pending.len().min(config.max_batch);
            q.pending.drain(..n).map(|p| (p.input, p.ticket)).unzip()
        };
        let dispatched = Instant::now();
        let report = session.run_batch_resilient(qnet, &inputs);
        let batch_us = dispatched.elapsed().as_micros() as u64;
        let batch_size = tickets.len();
        let mut replies = Vec::with_capacity(batch_size);
        {
            let mut stats = shared.stats.lock().unwrap();
            stats.batches += 1;
            stats.max_batch_seen = stats.max_batch_seen.max(batch_size);
            for (ticket, item) in tickets.into_iter().zip(report.items) {
                let queue_us =
                    dispatched.saturating_duration_since(ticket.enqueued).as_micros() as u64;
                match &item.result {
                    Ok(_) => stats.served += 1,
                    Err(_) => stats.failed += 1,
                }
                let req = RequestStats { queue_us, batch_us, batch_size };
                stats.latencies_us.record(req.total_us());
                replies.push((ticket.complete, ServeReply {
                    id: ticket.id,
                    result: item.result.map_err(Error::from),
                    stats: req,
                }));
            }
        }
        // Completions run outside the stats lock so a callback may query
        // handle.stats() without deadlocking.
        for (complete, reply) in replies {
            complete(reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;
    use crate::driver::BackendKind;
    use crate::session::Session;
    use std::time::Duration;
    use zskip_hls::AccelArch;
    use zskip_nn::eval::synthetic_inputs;

    fn config() -> AccelConfig {
        AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
            100.0,
        )
    }

    fn session() -> Session {
        Session::builder(config())
            .backend(BackendKind::Model)
            .batch_window(Duration::from_millis(1))
            .build()
            .unwrap()
    }

    #[test]
    fn serves_requests_bit_identical_to_direct_inference() {
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let session = session();
        let inputs = synthetic_inputs(6, 5, qnet.spec.input);
        let direct: Vec<_> = inputs
            .iter()
            .map(|i| session.driver().run_network(&qnet, i).expect("runs").output)
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
            assert!(reply.stats.batch_size >= 1);
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
        let ServeStats { served, failed, rejected, batches, max_batch_seen, latencies_us } = &stats;
        plain_data(&(served, failed, rejected, batches, max_batch_seen));
        plain_data(latencies_us);
    }

    #[test]
    fn max_batch_caps_coalescing() {
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let session = Session::builder(config())
            .backend(BackendKind::Model)
            .max_batch(2)
            .batch_window(Duration::from_millis(50))
            .build()
            .unwrap();
        let inputs = synthetic_inputs(1, 5, qnet.spec.input);
        let engine = ServeEngine::start(session, Arc::clone(&qnet));
        let handle = engine.handle();
        let (tx, rx) = mpsc::channel();
        for (i, input) in inputs.iter().enumerate() {
            handle.submit(format!("{i}"), input.clone(), tx.clone()).expect("admitted");
        }
        drop(tx);
        let replies: Vec<ServeReply> = rx.iter().collect();
        assert_eq!(replies.len(), 5);
        assert!(replies.iter().all(|r| r.stats.batch_size <= 2));
        let stats = engine.join();
        assert!(stats.batches >= 3, "5 requests at max_batch=2 need >= 3 batches");
        assert!(stats.max_batch_seen <= 2);
    }

    #[test]
    fn full_queue_rejects_with_overloaded_and_recovers() {
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        // A long window and depth 2 let us fill the queue deterministically
        // before the batcher drains it.
        let session = Session::builder(config())
            .backend(BackendKind::Model)
            .queue_depth(2)
            .batch_window(Duration::from_secs(5))
            .max_batch(64)
            .build()
            .unwrap();
        let input = synthetic_inputs(1, 2, qnet.spec.input).remove(0);
        let engine = ServeEngine::start(session, Arc::clone(&qnet));
        let handle = engine.handle();
        let (tx, rx) = mpsc::channel();
        // The batcher may dequeue the first submit before the next lands,
        // so keep stuffing until a submit bounces; depth 2 guarantees it
        // happens within a few tries.
        let mut accepted = 0;
        let overloaded = loop {
            match handle.submit(format!("q{accepted}"), input.clone(), tx.clone()) {
                Ok(()) => accepted += 1,
                Err(e) => break e,
            }
            assert!(accepted < 16, "queue_depth=2 must bounce well before 16 submits");
        };
        assert_eq!(overloaded.code(), "serve.overloaded");
        assert_eq!(
            overloaded,
            Error::Serve(ServeError::Overloaded { depth: 2 }),
            "the error names the exhausted depth"
        );
        drop(tx);
        // Shutdown drains the accepted requests; none are dropped.
        let stats = engine.join();
        assert_eq!(stats.served, accepted as u64);
        assert_eq!(stats.rejected, 1);
        let replies: Vec<ServeReply> = rx.iter().collect();
        assert_eq!(replies.len(), accepted);
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_queued() {
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let session = Session::builder(config())
            .backend(BackendKind::Model)
            .batch_window(Duration::from_secs(5))
            .build()
            .unwrap();
        let input = synthetic_inputs(1, 3, qnet.spec.input).remove(0);
        let engine = ServeEngine::start(session, Arc::clone(&qnet));
        let handle = engine.handle();
        let (tx, rx) = mpsc::channel();
        handle.submit("a", input.clone(), tx.clone()).expect("admitted");
        handle.shutdown();
        assert!(handle.is_shutdown());
        let err = handle.submit("b", input, tx.clone()).unwrap_err();
        assert_eq!(err.code(), "serve.shutdown");
        drop(tx);
        let stats = engine.join();
        assert_eq!(stats.served, 1, "queued request drains through shutdown");
        let replies: Vec<ServeReply> = rx.iter().collect();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].id, "a");
    }
}
