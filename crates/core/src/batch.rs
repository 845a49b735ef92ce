//! The worker loop: the one way an image gets from a queue onto the
//! (simulated) accelerator, for a batch and for the serving daemon alike.
//!
//! The shape is the paper's own: long-lived threads joined by a FIFO in a
//! producer/consumer model, not a fork/join per unit of work. A
//! `JobQueue` is one `Mutex<VecDeque>` + `Condvar` (an image is a
//! millisecond or more of work, so a shared queue costs nothing); each
//! worker owns a warm [`Scratch`] arena for its whole life and pulls **one
//! job at a time** — an idle worker wakes on a push and starts at once,
//! and hands the outcome back the moment its own image is done, never
//! waiting for a neighbour's. [`run_batch_resilient`] runs the loop over a
//! queue filled up front (the caller is worker 0, the others are scoped
//! threads borrowing its inputs);
//! [`ServeEngine`](crate::serve::ServeEngine) keeps its workers and their
//! arenas alive between requests.
//!
//! Determinism: a job runs alone on one arena, every job is tagged with
//! its input index and results are reassembled in submission order, so the
//! batch output is bit-identical to running [`Driver::run_network`]
//! sequentially over the same inputs — regardless of worker count or of
//! which worker took which job. A property test in this module pins that
//! equivalence.
//!
//! A panic inside an image (a bug, by definition) is caught: that job
//! alone fails with [`DriverError::Panicked`], the worker swaps in a fresh
//! arena and goes on to the next job.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::driver::{Driver, DriverError, InferenceReport};
use zskip_nn::model::QuantizedNetwork;
use zskip_nn::Scratch;
use zskip_tensor::Tensor;

/// How one batch run went: the per-input reports (in submission order)
/// plus pool telemetry.
#[derive(Debug)]
pub struct BatchReport {
    /// One [`InferenceReport`] per input, in submission order.
    pub reports: Vec<InferenceReport>,
    /// Worker threads used.
    pub workers: usize,
    /// Jobs completed by each worker (sums to the input count).
    pub per_worker_jobs: Vec<usize>,
}

impl BatchReport {
    /// Total simulated accelerator cycles across all inputs.
    pub fn total_cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.total_cycles).sum()
    }
}

/// Retry policy for [`run_batch_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per input (minimum 1; 1 disables retries).
    pub max_attempts: u32,
    /// Simulated backoff charged before retry `k` (1-based):
    /// `base_backoff_cycles * 2^(k - 1)` accelerator cycles, saturating at
    /// `u64::MAX` — exponential, like a driver re-arming a wedged device
    /// with increasing patience.
    pub base_backoff_cycles: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, base_backoff_cycles: 1024 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (every error is final).
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, base_backoff_cycles: 0 }
    }

    /// Backoff charged before retry `retry` (1-based). Both fields are
    /// public, so neither the doubling count nor the product is bounded:
    /// the charge saturates instead of overflowing the shift.
    fn backoff_before_retry(&self, retry: u32) -> u64 {
        let factor = 1u64.checked_shl(retry - 1).unwrap_or(u64::MAX);
        self.base_backoff_cycles.saturating_mul(factor)
    }
}

/// How one input of a resilient batch fared.
#[derive(Debug)]
pub struct BatchItemReport {
    /// Submission index of the input.
    pub index: usize,
    /// Attempts spent (1 = first try succeeded or error was final).
    pub attempts: u32,
    /// Simulated backoff cycles charged across retries.
    pub backoff_cycles: u64,
    /// The final outcome: a report, or the last error after retries.
    pub result: Result<InferenceReport, DriverError>,
}

/// Report of a [`run_batch_resilient`] run: per-item outcomes in
/// submission order plus the same pool telemetry as [`BatchReport`].
/// A failing input never aborts the batch — the other inputs complete.
#[derive(Debug)]
pub struct ResilientBatchReport {
    /// One [`BatchItemReport`] per input, in submission order.
    pub items: Vec<BatchItemReport>,
    /// Worker threads used.
    pub workers: usize,
    /// Jobs completed by each worker (sums to the input count).
    pub per_worker_jobs: Vec<usize>,
    /// Always 0: workers share one queue, so there is nothing to steal.
    /// Read by the frozen `benchmark/` harness (`core.batch.steals`);
    /// goes when that probe does (ROADMAP item 7).
    pub steals: u64,
}

impl ResilientBatchReport {
    /// Inputs that ultimately succeeded.
    pub fn succeeded(&self) -> usize {
        self.items.iter().filter(|i| i.result.is_ok()).count()
    }

    /// `(index, error)` of every input that failed after retries.
    pub fn failures(&self) -> Vec<(usize, &DriverError)> {
        self.items.iter().filter_map(|i| i.result.as_ref().err().map(|e| (i.index, e))).collect()
    }

    /// Retries spent across the batch (attempts beyond the first).
    pub fn retries(&self) -> u64 {
        self.items.iter().map(|i| (i.attempts - 1) as u64).sum()
    }

    /// Simulated backoff cycles charged across the batch.
    pub fn backoff_cycles(&self) -> u64 {
        self.items.iter().map(|i| i.backoff_cycles).sum()
    }
}

/// Picks a worker count: `requested` if non-zero, else the machine's
/// available parallelism (at least 1), capped by the job count.
pub fn effective_workers(requested: usize, jobs: usize) -> usize {
    let n = if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    };
    n.clamp(1, jobs.max(1))
}

/// Locks `m` whether or not a previous holder panicked (the `par.rs`
/// idiom). Every call site states why its data is valid at every step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One image waiting for a worker: its input — borrowed from a batch's
/// caller, owned by a served request — and whatever the submitter wants
/// back with the outcome.
pub(crate) struct Job<'a, T> {
    pub input: Cow<'a, Tensor<f32>>,
    pub tag: T,
}

struct QueueState<'a, T> {
    pending: VecDeque<Job<'a, T>>,
    closed: bool,
}

/// Why [`JobQueue::push`] turned a job away.
pub(crate) enum Refused {
    /// `depth` jobs are already waiting.
    Full,
    /// [`JobQueue::close`] was called.
    Closed,
}

/// The FIFO between submitters and workers. Closing it stops admission;
/// workers drain what is queued and then leave their loop.
pub(crate) struct JobQueue<'a, T> {
    state: Mutex<QueueState<'a, T>>,
    /// Wakes one idle worker per push, all of them on close.
    bell: Condvar,
}

impl<'a, T> JobQueue<'a, T> {
    /// A queue holding `jobs`, closed or open to more.
    pub(crate) fn new(jobs: impl IntoIterator<Item = Job<'a, T>>, closed: bool) -> JobQueue<'a, T> {
        let state = QueueState { pending: jobs.into_iter().collect(), closed };
        JobQueue { state: Mutex::new(state), bell: Condvar::new() }
    }

    // Invariant for every `lock(&self.state)` below: each critical section
    // is one push, one pop or one flag store, so the state is valid at
    // every point a holder could have panicked.

    /// Enqueues `job` unless the queue is closed or already `depth` deep.
    pub(crate) fn push(&self, job: Job<'a, T>, depth: usize) -> Result<(), Refused> {
        let mut q = lock(&self.state);
        if q.closed {
            return Err(Refused::Closed);
        }
        if q.pending.len() >= depth {
            return Err(Refused::Full);
        }
        q.pending.push_back(job);
        drop(q);
        self.bell.notify_one();
        Ok(())
    }

    /// Stops admission. Idempotent; queued jobs still run.
    pub(crate) fn close(&self) {
        lock(&self.state).closed = true;
        self.bell.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }

    /// Jobs waiting for a worker.
    pub(crate) fn len(&self) -> usize {
        lock(&self.state).pending.len()
    }

    /// The oldest waiting job, sleeping until there is one; `None` once
    /// the queue is closed and drained.
    fn take(&self) -> Option<Job<'a, T>> {
        let mut q = lock(&self.state);
        loop {
            if let Some(job) = q.pending.pop_front() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self.bell.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// What became of one job: [`BatchItemReport`] without the index.
pub(crate) struct Outcome {
    pub attempts: u32,
    pub backoff_cycles: u64,
    pub result: Result<InferenceReport, DriverError>,
}

/// One worker's life: a warm arena, and one job at a time off `queue`
/// until it is closed and drained. `deliver` gets each job's tag, when the
/// worker took it and how it went, as soon as that job is done.
pub(crate) fn worker_loop<T>(
    queue: &JobQueue<'_, T>,
    driver: &Driver,
    qnet: &QuantizedNetwork,
    policy: RetryPolicy,
    mut deliver: impl FnMut(T, Instant, Outcome),
) {
    let mut scratch = Scratch::new();
    while let Some(Job { input, tag }) = queue.take() {
        let taken = Instant::now();
        let outcome = run_job(driver, qnet, &input, &mut scratch, policy);
        deliver(tag, taken, outcome);
    }
}

/// One job on `scratch`: up to [`RetryPolicy::max_attempts`] tries
/// (transient errors only — see [`DriverError::is_transient`]) with
/// exponential backoff.
fn run_job(
    driver: &Driver,
    qnet: &QuantizedNetwork,
    input: &Tensor<f32>,
    scratch: &mut Scratch,
    policy: RetryPolicy,
) -> Outcome {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempts = 0u32;
    let mut backoff_cycles = 0u64;
    let result = loop {
        attempts += 1;
        // Unwind-safe: of what the closure touches only the arena can be
        // left half-written, and a panic replaces it below.
        match catch_unwind(AssertUnwindSafe(|| driver.run_network_scratch(qnet, input, scratch))) {
            Ok(Ok(report)) => break Ok(report),
            Ok(Err(e)) if attempts < max_attempts && e.is_transient() => {
                backoff_cycles = backoff_cycles.saturating_add(policy.backoff_before_retry(attempts));
            }
            Ok(Err(e)) => break Err(e),
            Err(panic) => {
                *scratch = Scratch::new();
                let message = panic.downcast_ref::<&str>().map(|s| s.to_string());
                let message = message.or_else(|| panic.downcast_ref::<String>().cloned());
                break Err(DriverError::Panicked(message.unwrap_or_else(|| "non-string panic".into())));
            }
        }
    };
    Outcome { attempts, backoff_cycles, result }
}

/// Runs `inputs` through `qnet` on `workers` threads (0 = auto) and
/// returns per-input reports in submission order:
/// [`run_batch_resilient`] without retries, folded to all-or-nothing.
/// Every input runs to completion even when another fails.
///
/// # Errors
/// The failing input's [`DriverError`] — with several failures, the one
/// with the lowest input index, so the error is deterministic too.
pub fn run_batch(
    driver: &Driver,
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    workers: usize,
) -> Result<BatchReport, DriverError> {
    let ResilientBatchReport { items, workers, per_worker_jobs, steals: _ } =
        run_batch_resilient(driver, qnet, inputs, workers, RetryPolicy::none());
    let reports = items.into_iter().map(|item| item.result).collect::<Result<_, _>>()?;
    Ok(BatchReport { reports, workers, per_worker_jobs })
}

/// The batch engine: runs `inputs` through `qnet` on `workers` threads
/// (0 = auto, the caller counting as one), each running `worker_loop`
/// over one queue holding every input. A failing input poisons only
/// itself: every input gets up to [`RetryPolicy::max_attempts`] tries and
/// the report carries a per-item `Result` in submission order instead of
/// aborting. Successful items are bit-identical to a sequential
/// [`Driver::run_network`] run, regardless of worker count or failures
/// elsewhere in the batch.
pub fn run_batch_resilient(
    driver: &Driver,
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    workers: usize,
    policy: RetryPolicy,
) -> ResilientBatchReport {
    let workers = effective_workers(workers, inputs.len());
    let jobs = inputs.iter().enumerate().map(|(index, input)| Job { input: Cow::Borrowed(input), tag: index });
    let queue = JobQueue::new(jobs, true);
    let work = || {
        let mut mine = Vec::new();
        worker_loop(&queue, driver, qnet, policy, |index, _, Outcome { attempts, backoff_cycles, result }| {
            mine.push(BatchItemReport { index, attempts, backoff_cycles, result });
        });
        mine
    };
    let per_worker: Vec<Vec<BatchItemReport>> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut all = vec![work()];
        // The loop catches an image's panic itself, so this is a bug in
        // the loop: the caller's panic, not a lost result.
        all.extend(others.into_iter().map(|h| h.join().unwrap_or_else(|e| resume_unwind(e))));
        all
    });
    let per_worker_jobs = per_worker.iter().map(Vec::len).collect();
    let mut items: Vec<BatchItemReport> = per_worker.into_iter().flatten().collect();
    items.sort_by_key(|item| item.index);
    ResilientBatchReport { items, workers, per_worker_jobs, steals: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;
    use crate::driver::BackendKind;
    use proptest::prelude::*;
    use zskip_hls::Variant;
    use zskip_nn::eval::synthetic_inputs;
    use zskip_nn::model::{Network, SyntheticModelConfig};
    use zskip_quant::DensityProfile;

    fn driver(cfg: AccelConfig, backend: BackendKind) -> Driver {
        Driver::builder(cfg).backend(backend).build().expect("test config is valid")
    }

    fn small_qnet(hw: usize) -> QuantizedNetwork {
        use zskip_nn::layer::{LayerSpec, NetworkSpec};
        use zskip_tensor::Shape;
        let layers = vec![
            LayerSpec::Conv { name: "c0".into(), in_c: 2, out_c: 6, k: 3, stride: 1, pad: 1, relu: true },
            LayerSpec::MaxPool { name: "p".into(), k: 2, stride: 2 },
            LayerSpec::Conv { name: "c1".into(), in_c: 6, out_c: 4, k: 3, stride: 1, pad: 1, relu: false },
        ];
        let spec = NetworkSpec { name: "batch-test".into(), input: Shape::new(2, hw, hw), layers };
        let net = Network::synthetic(
            spec.clone(),
            &SyntheticModelConfig { seed: 5, density: DensityProfile::uniform(2, 0.5) },
        );
        let calib = synthetic_inputs(2, 1, spec.input);
        net.quantize(&calib)
    }

    #[test]
    fn empty_batch_is_fine() {
        let qnet = small_qnet(8);
        let driver = driver(AccelConfig::for_variant(Variant::U256Opt), BackendKind::Model);
        let r = run_batch(&driver, &qnet, &[], 4).expect("empty batch");
        assert!(r.reports.is_empty());
        assert_eq!(r.per_worker_jobs, [0]);
    }

    #[test]
    fn worker_autodetect_caps_at_job_count() {
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(2, 100), 2);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(0, 0), 1);
    }

    #[test]
    fn all_jobs_are_accounted_for() {
        let qnet = small_qnet(8);
        let spec_input = qnet.spec.input;
        let driver = driver(AccelConfig::for_variant(Variant::U256Opt), BackendKind::Model);
        let inputs = synthetic_inputs(11, 7, spec_input);
        let r = run_batch(&driver, &qnet, &inputs, 3).expect("runs");
        assert_eq!(r.reports.len(), 7);
        assert_eq!(r.per_worker_jobs.iter().sum::<usize>(), 7);
        assert_eq!(r.workers, 3);
        // Whichever worker took which job, items come back by input.
        let resilient = run_batch_resilient(&driver, &qnet, &inputs, 3, RetryPolicy::none());
        assert_eq!(resilient.items.iter().map(|i| i.index).collect::<Vec<_>>(), (0..7).collect::<Vec<_>>());
        for (item, report) in resilient.items.iter().zip(&r.reports) {
            assert_eq!(item.result.as_ref().expect("runs").output, report.output);
        }
    }

    #[test]
    fn a_panicking_image_fails_alone_and_its_worker_carries_on_with_a_fresh_arena() {
        let good = small_qnet(8);
        // Filters cut short: the kernels index past them and panic.
        let mut broken = small_qnet(8);
        broken.conv[0].weights.w.truncate(1);
        let inputs = synthetic_inputs(13, 3, good.spec.input);
        let driver = driver(AccelConfig::for_variant(Variant::U256Opt), BackendKind::Cpu);
        let want = driver.run_network(&good, &inputs[0]).expect("runs");

        // One arena across a good image, a panic, and a good image again.
        let mut scratch = Scratch::new();
        let policy = RetryPolicy::default();
        run_job(&driver, &good, &inputs[0], &mut scratch, policy).result.expect("runs");
        let panicked = run_job(&driver, &broken, &inputs[0], &mut scratch, policy);
        assert!(matches!(panicked.result, Err(DriverError::Panicked(_))), "{:?}", panicked.result);
        assert_eq!(panicked.attempts, 1, "a panic is a bug, not a transient fault");
        assert_eq!(crate::Error::from(panicked.result.unwrap_err()).code(), "driver.panicked");
        let after = run_job(&driver, &good, &inputs[0], &mut scratch, policy).result.expect("runs");
        assert_eq!((after.output, after.total_cycles), (want.output, want.total_cycles));

        // Through the engine nothing unwinds into the caller: each image
        // fails on its own, on the calling thread and on a spawned one.
        let report = run_batch_resilient(&driver, &broken, &inputs, 2, policy);
        assert_eq!(report.per_worker_jobs.iter().sum::<usize>(), 3);
        assert!(report.items.iter().all(|i| matches!(i.result, Err(DriverError::Panicked(_)))));
    }

    #[test]
    fn resilient_matches_sequential_when_fault_free() {
        let qnet = small_qnet(8);
        let spec_input = qnet.spec.input;
        let driver = driver(AccelConfig::for_variant(Variant::U256Opt), BackendKind::Model);
        let inputs = synthetic_inputs(21, 5, spec_input);
        let resilient = run_batch_resilient(&driver, &qnet, &inputs, 2, RetryPolicy::default());
        assert_eq!(resilient.succeeded(), 5);
        assert_eq!(resilient.retries(), 0);
        for (item, input) in resilient.items.iter().zip(&inputs) {
            let want = driver.run_network(&qnet, input).expect("sequential run");
            let got = item.result.as_ref().expect("fault-free item succeeds");
            assert_eq!(got.output, want.output);
            assert_eq!(item.attempts, 1);
            assert_eq!(item.backoff_cycles, 0);
        }
    }

    #[test]
    fn poisoned_item_retries_and_batch_stays_bit_exact() {
        use zskip_fault::{FaultKind, FaultPlan};
        let qnet = small_qnet(8);
        let spec_input = qnet.spec.input;
        let inputs = synthetic_inputs(31, 4, spec_input);
        let cfg = AccelConfig::for_variant(Variant::U256Opt);

        let clean = run_batch(&driver(cfg, BackendKind::Model), &qnet, &inputs, 2)
            .expect("fault-free reference");

        // One single-shot DMA parity fault: exactly one item of the batch
        // absorbs it (whichever reaches descriptor 3 first) and recovers
        // on retry because the fault is consumed.
        let plan = FaultPlan::new().inject("dma:xfer", 3, FaultKind::DmaCorrupt { xor: 0x40 }).shared();
        let driver = Driver::builder(cfg).fault_plan(plan).build().expect("valid config");
        let report = run_batch_resilient(&driver, &qnet, &inputs, 2, RetryPolicy::default());

        assert_eq!(report.succeeded(), 4, "all items complete: {:?}", report.failures());
        assert_eq!(report.retries(), 1, "exactly one item absorbed the fault");
        assert!(report.backoff_cycles() > 0);
        for (item, want) in report.items.iter().zip(&clean.reports) {
            let got = item.result.as_ref().expect("item succeeds");
            assert_eq!(got.output, want.output, "bit-identical to the fault-free run");
        }
    }

    #[test]
    fn poisoned_item_without_retries_fails_alone() {
        use zskip_fault::{FaultKind, FaultPlan};
        let qnet = small_qnet(8);
        let spec_input = qnet.spec.input;
        let inputs = synthetic_inputs(31, 4, spec_input);
        let cfg = AccelConfig::for_variant(Variant::U256Opt);
        let clean = run_batch(&driver(cfg, BackendKind::Model), &qnet, &inputs, 2)
            .expect("fault-free reference");

        let plan = FaultPlan::new().inject("dma:xfer", 3, FaultKind::DmaTruncate { tiles: 0 }).shared();
        let driver = Driver::builder(cfg).fault_plan(plan).build().expect("valid config");
        let report = run_batch_resilient(&driver, &qnet, &inputs, 2, RetryPolicy::none());

        assert_eq!(report.succeeded(), 3, "one poisoned item of 4");
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert!(matches!(failures[0].1, DriverError::Dma(_)), "structured error: {:?}", failures[0].1);
        // The surviving N-1 items are bit-identical to the fault-free run.
        for (item, want) in report.items.iter().zip(&clean.reports) {
            if let Ok(got) = &item.result {
                assert_eq!(got.output, want.output);
            }
        }
    }

    #[test]
    fn retry_exhaustion_surfaces_the_last_transient_error() {
        use zskip_fault::{FaultKind, FaultPlan};
        let qnet = small_qnet(8);
        let inputs = synthetic_inputs(41, 1, qnet.spec.input);
        let cfg = AccelConfig::for_variant(Variant::U256Opt);

        // Site counters are cumulative across runs sharing a plan, and a
        // fired fault aborts the run right after descriptor 0, 1, 2, ...
        // So injecting at the first `max_attempts` indices keeps the site
        // hot: every retry trips the next injection and the item runs out
        // of attempts.
        let policy = RetryPolicy { max_attempts: 3, base_backoff_cycles: 16 };
        let mut plan = FaultPlan::new();
        for at in 0..policy.max_attempts as u64 {
            plan = plan.inject("dma:xfer", at, FaultKind::DmaCorrupt { xor: 0x40 });
        }
        let plan = plan.shared();
        let driver = Driver::builder(cfg).fault_plan(plan.clone()).build().expect("valid config");
        let report = run_batch_resilient(&driver, &qnet, &inputs, 1, policy);

        assert_eq!(report.succeeded(), 0, "the hot site must exhaust every retry");
        let item = &report.items[0];
        assert_eq!(item.attempts, policy.max_attempts, "all attempts spent");
        assert!(
            matches!(item.result, Err(DriverError::Dma(_))),
            "the last transient error surfaces per-item: {:?}",
            item.result
        );
        assert!(item.result.as_ref().unwrap_err().is_transient());
        // Exponential backoff: 16 before attempt 2, 32 before attempt 3.
        assert_eq!(item.backoff_cycles, 16 + 32);
        assert_eq!(
            plan.lock().unwrap().fired().len(),
            policy.max_attempts as usize,
            "one injection per attempt"
        );
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing_the_shift() {
        use zskip_fault::{FaultKind, FaultPlan};
        let qnet = small_qnet(8);
        let inputs = synthetic_inputs(43, 1, qnet.spec.input);
        let cfg = AccelConfig::for_variant(Variant::U256Opt);

        // 80 attempts against a site that stays hot for all of them: the
        // charge before retry 65 would shift a u64 by 64.
        let policy = RetryPolicy { max_attempts: 80, base_backoff_cycles: 3 };
        let mut plan = FaultPlan::new();
        for _ in 0..policy.max_attempts {
            plan = plan.inject("dma:xfer", 0, FaultKind::DmaCorrupt { xor: 0x40 });
        }
        let driver = Driver::builder(cfg).fault_plan(plan.shared()).build().expect("valid config");
        let report = run_batch_resilient(&driver, &qnet, &inputs, 1, policy);

        let item = &report.items[0];
        assert_eq!(item.attempts, 80, "every attempt trips the hot site");
        assert!(item.result.is_err());
        assert_eq!(item.backoff_cycles, u64::MAX, "the charge saturates");
        // Below the overflow point the charge is still the exact doubling,
        // and a large base saturates rather than losing its high bits.
        assert_eq!(policy.backoff_before_retry(1), 3);
        assert_eq!(policy.backoff_before_retry(5), 3 << 4);
        let wide = RetryPolicy { max_attempts: 3, base_backoff_cycles: u64::MAX / 2 + 1 };
        assert_eq!(wide.backoff_before_retry(2), u64::MAX);
        assert_eq!(RetryPolicy::none().backoff_before_retry(80), 0, "zero base stays free");
    }

    #[test]
    fn run_batch_returns_the_lowest_index_error() {
        use zskip_hls::AccelArch;
        let qnet = small_qnet(8);
        // Banks sized for the 8x8 spec input. A wider image overflows them
        // in the first pad pass, and the `needed` word count of the
        // resulting LayerTooLarge grows with the width — so inputs 1 and 3
        // fail with distinguishable errors while 0 and 2 succeed.
        let cfg = AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 64 },
            100.0,
        );
        let driver = driver(cfg, BackendKind::Model);
        let good = synthetic_inputs(9, 2, qnet.spec.input);
        let inputs = vec![
            good[0].clone(),
            Tensor::zeros(2, 8, 800),
            good[1].clone(),
            Tensor::zeros(2, 8, 1600),
        ];
        let first = driver.run_network(&qnet, &inputs[1]).expect_err("input 1 overflows the banks");
        let later = driver.run_network(&qnet, &inputs[3]).expect_err("input 3 overflows the banks");
        assert_ne!(first, later, "the two failures must be distinguishable");
        driver.run_network(&qnet, &inputs[0]).expect("input 0 fits");

        for workers in [1, 4] {
            let err = run_batch(&driver, &qnet, &inputs, workers).expect_err("two inputs fail");
            assert_eq!(err, first, "workers {workers}: lowest failing index wins");
        }
    }

    #[test]
    fn cpu_backend_batch_matches_model_batch_bit_exact() {
        let qnet = small_qnet(8);
        let inputs = synthetic_inputs(51, 5, qnet.spec.input);
        let cfg = AccelConfig::for_variant(Variant::U256Opt);
        let model = run_batch(&driver(cfg, BackendKind::Model), &qnet, &inputs, 2)
            .expect("model batch runs");
        let cpu = run_batch(&driver(cfg, BackendKind::Cpu), &qnet, &inputs, 2)
            .expect("cpu batch runs");
        for (m, c) in model.reports.iter().zip(&cpu.reports) {
            assert_eq!(m.output, c.output, "bit-identical outputs");
            assert_eq!(m.total_cycles, c.total_cycles, "same closed-form cycle model");
        }
        // And through the resilient engine.
        let resilient = run_batch_resilient(
            &driver(cfg, BackendKind::Cpu),
            &qnet,
            &inputs,
            2,
            RetryPolicy::default(),
        );
        assert_eq!(resilient.succeeded(), inputs.len());
        for (item, want) in resilient.items.iter().zip(&model.reports) {
            assert_eq!(item.result.as_ref().expect("succeeds").output, want.output);
        }
    }

    #[test]
    fn multithreaded_cpu_batch_stays_bit_exact_with_nested_pools() {
        // Batch workers and intra-image conv workers compose: each batch
        // worker's private scratch arena spins up its own ConvPool, so a
        // 2-worker batch at --threads 3 runs 2x(1+2) threads total. The
        // result must still be bit-identical to the sequential model run.
        let qnet = small_qnet(8);
        let inputs = synthetic_inputs(61, 6, qnet.spec.input);
        let cfg = AccelConfig::for_variant(Variant::U256Opt);
        let model = run_batch(&driver(cfg, BackendKind::Model), &qnet, &inputs, 1)
            .expect("model batch runs");
        let mt_driver =
            Driver::builder(cfg).backend(BackendKind::Cpu).threads(3).build().expect("valid config");
        let mt = run_batch(&mt_driver, &qnet, &inputs, 2).expect("mt cpu batch runs");
        assert_eq!(mt.reports.len(), model.reports.len());
        for (m, c) in model.reports.iter().zip(&mt.reports) {
            assert_eq!(m.output, c.output, "bit-identical outputs at any worker split");
            assert_eq!(m.total_cycles, c.total_cycles, "same closed-form cycle model");
        }
    }

    #[test]
    fn structural_errors_are_not_retried() {
        use zskip_hls::AccelArch;
        let qnet = small_qnet(64);
        let inputs = synthetic_inputs(7, 2, qnet.spec.input);
        // Banks far too small for the layer: deterministic LayerTooLarge.
        let cfg = AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4 },
            100.0,
        );
        let driver = driver(cfg, BackendKind::Model);
        let report = run_batch_resilient(&driver, &qnet, &inputs, 2, RetryPolicy::default());
        assert_eq!(report.succeeded(), 0);
        for item in &report.items {
            assert_eq!(item.attempts, 1, "no retry for a structural error");
            assert!(matches!(item.result, Err(DriverError::LayerTooLarge { .. })));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn batch_matches_sequential_bit_exact(
            batch in 1usize..7,
            workers in 1usize..5,
            seed in 0u64..1000,
        ) {
            let qnet = small_qnet(8);
            let driver = driver(AccelConfig::for_variant(Variant::U256Opt), BackendKind::Model);
            let inputs = synthetic_inputs(seed, batch, qnet.spec.input);
            let parallel = run_batch(&driver, &qnet, &inputs, workers).expect("batch runs");
            for (input, got) in inputs.iter().zip(&parallel.reports) {
                let want = driver.run_network(&qnet, input).expect("sequential runs");
                prop_assert_eq!(&got.output, &want.output);
                prop_assert_eq!(got.total_cycles, want.total_cycles);
                prop_assert_eq!(got.ddr_bytes, want.ddr_bytes);
            }
        }
    }
}
