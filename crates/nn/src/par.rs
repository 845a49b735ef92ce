//! Intra-image worker pool for panel-decomposed conv/GEMM kernels.
//!
//! The paper's fastest configuration exploits *instance* parallelism — two
//! accelerator instances working different stripes of one image. The
//! software analogue is [`ConvPool`]: a small pool of persistent worker
//! threads that split one layer's output-filter-map (OFM) panels across
//! cores, so a single image uses the whole host CPU instead of one core.
//!
//! # Determinism
//!
//! Work is decomposed by **whole output channel**: panel `o` covers output
//! plane `o`, and whichever worker claims it computes that plane with the
//! *identical* tap order and accumulator as the single-threaded kernel.
//! Panels never share accumulators (each worker owns a disjoint slice of
//! the `Scratch` arena's accumulator plane), so the result is bit-exact at
//! any worker count by construction — the claim order only changes *which
//! thread* computes a plane, never *how*. Property tests in
//! `tests/kernel_tiers.rs` pin this across random shapes and worker counts.
//!
//! # Zero allocation
//!
//! Dispatching a job allocates nothing: the job is published as a raw wide
//! pointer to the caller's closure under a `Mutex`/`Condvar` pair (futex
//! based on Linux — no heap), and panels are claimed with a single
//! `fetch_add` each. The only allocations are pool construction (thread
//! spawn) and the first-image growth of per-worker arena slices — both
//! warmup, covered by the counting-allocator test `tests/alloc_free.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A raw wide pointer to the caller's panel closure. Only dereferenced
/// between job publication and the job's completion barrier, while the
/// closure provably outlives the job (see [`ConvPool::run`]).
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize, usize) + Sync));

// SAFETY: the pointee is `Sync` (required at the only construction site),
// and the pointer is only dereferenced while `run` keeps it alive.
unsafe impl Send for TaskRef {}

struct JobState {
    /// Bumped once per published job; workers track the last seq they ran.
    seq: u64,
    /// Number of panels in the current job.
    panels: usize,
    /// The current job's closure, cleared at the completion barrier.
    task: Option<TaskRef>,
    shutdown: bool,
}

struct Shared {
    job: Mutex<JobState>,
    start: Condvar,
    done: Condvar,
    /// Next unclaimed panel index (may overshoot `panels` by one per
    /// participant; claims at or past `panels` mean "no more work").
    next: AtomicUsize,
    /// Worker threads still executing the current job.
    running: AtomicUsize,
}

fn lock(m: &Mutex<JobState>) -> MutexGuard<'_, JobState> {
    // A poisoned lock means a worker panicked in a kernel — a bug the
    // oracle suite would catch; the state itself is still consistent.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A pool of persistent worker threads executing panel-decomposed kernel
/// jobs. See the [module docs](self) for the determinism and allocation
/// arguments.
///
/// `threads == 1` is the degenerate pool: no threads are spawned and
/// [`ConvPool::run`] executes inline, so single-threaded configurations
/// pay nothing.
pub struct ConvPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Least work, in rough nanoseconds, worth a run of its own
    /// ([`MIN_RUN_NS`] outside tests).
    min_run_ns: usize,
    /// Serializes concurrent `run` calls (e.g. two sessions holding a
    /// cloned `Scratch` and thus one pool): the job slot fits one job.
    run_gate: Mutex<()>,
}

/// Least work, in rough nanoseconds, worth handing to a pool worker:
/// waking one and waiting for it at the job's barrier costs tens of
/// microseconds when its core is idle and milliseconds when it is not, so
/// a kernel is cut into runs of at least this much (docs/KERNELS.md,
/// "Intra-image threads", has the measurement).
const MIN_RUN_NS: usize = 1 << 17;

impl ConvPool {
    /// Creates a pool with `threads` total participants: the calling
    /// thread plus `threads - 1` spawned workers. `0` is clamped to 1.
    pub fn new(threads: usize) -> Self {
        ConvPool::with_min_run(threads, MIN_RUN_NS)
    }

    /// A pool that cuts every kernel into `threads` runs however small:
    /// how the bit-identity tests reach every split point.
    #[cfg(test)]
    pub(crate) fn forced(threads: usize) -> Self {
        ConvPool::with_min_run(threads, 1)
    }

    fn with_min_run(threads: usize, min_run_ns: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            job: Mutex::new(JobState { seq: 0, panels: 0, task: None, shutdown: false }),
            start: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
        });
        let handles = (1..threads)
            .map(|w| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("zskip-conv-{w}"))
                    .spawn(move || worker_loop(&sh, w))
                    .expect("spawn conv pool worker")
            })
            .collect();
        let pool = ConvPool { shared, handles, threads, min_run_ns, run_gate: Mutex::new(()) };
        // An empty first job, so that every worker has started — its
        // thread's start-up allocations behind it — by the time the pool
        // is handed out: a layer too small to cut never wakes one.
        pool.run(threads, &|_, _| {});
        pool
    }

    /// How many contiguous runs to cut `items` items of about `ns` in all
    /// into: as many as are each worth a worker's wake-up — the rule
    /// [`Split::runs`] applies to set-up jobs — at least 1, at most one per
    /// participant or item.
    pub(crate) fn runs(&self, items: usize, ns: usize) -> usize {
        self.threads.min(ns / self.min_run_ns).min(items).max(1)
    }

    /// Total participants (caller + spawned workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The host's available parallelism (the `--threads 0` auto value).
    pub fn auto_threads() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// Runs `f(worker, panel)` for every `panel in 0..panels`, each panel
    /// exactly once, partitioned dynamically over the participants. The
    /// caller participates as worker `0`; spawned workers are `1..threads`.
    /// Blocks until every panel has completed. Allocation-free.
    ///
    /// `f` must tolerate any panel→worker assignment (the partition is
    /// claim-order dependent); bit-exactness holds when panels touch
    /// disjoint outputs and own per-worker accumulators.
    pub fn run(&self, panels: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        if self.threads == 1 || panels <= 1 {
            for p in 0..panels {
                f(0, p);
            }
            return;
        }
        let _gate = self.run_gate.lock().unwrap_or_else(|e| e.into_inner());
        let sh = &*self.shared;
        {
            let mut g = lock(&sh.job);
            sh.next.store(0, Ordering::Relaxed);
            sh.running.store(self.threads - 1, Ordering::Relaxed);
            g.panels = panels;
            // SAFETY: erasing the closure's lifetime. The completion guard
            // below blocks — even during unwinding — until every worker
            // has finished with the pointer, so it never dangles.
            g.task = Some(TaskRef(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize, usize) + Sync + '_),
                    *const (dyn Fn(usize, usize) + Sync + 'static),
                >(f as *const _)
            }));
            g.seq += 1;
            sh.start.notify_all();
        }
        // Dropped at return *or* unwind: waits until `running == 0`, so the
        // borrow of `f` cannot escape this frame.
        let _barrier = CompletionBarrier(sh);
        loop {
            let p = sh.next.fetch_add(1, Ordering::Relaxed);
            if p >= panels {
                break;
            }
            f(0, p);
        }
    }
}

struct CompletionBarrier<'a>(&'a Shared);

impl Drop for CompletionBarrier<'_> {
    fn drop(&mut self) {
        let mut g = lock(&self.0.job);
        while self.0.running.load(Ordering::Acquire) != 0 {
            g = self.0.done.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        g.task = None;
    }
}

impl Drop for ConvPool {
    fn drop(&mut self) {
        {
            let mut g = lock(&self.shared.job);
            g.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ConvPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConvPool").field("threads", &self.threads).finish()
    }
}

fn worker_loop(sh: &Shared, worker: usize) {
    let mut seen = 0u64;
    loop {
        let (task, panels) = {
            let mut g = lock(&sh.job);
            loop {
                if g.shutdown {
                    return;
                }
                // `task` is always `Some` while any worker has yet to see
                // the current seq: it is only cleared at the completion
                // barrier, which requires every worker's decrement first.
                if g.seq != seen {
                    if let Some(task) = g.task {
                        seen = g.seq;
                        break (task, g.panels);
                    }
                }
                g = sh.start.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        };
        loop {
            let p = sh.next.fetch_add(1, Ordering::Relaxed);
            if p >= panels {
                break;
            }
            // SAFETY: `run`'s completion barrier keeps the closure alive
            // until this worker's decrement below.
            unsafe { (*task.0)(worker, p) };
        }
        // Release: publishes this worker's panel writes to the caller,
        // which acquires via the `running` load in the barrier.
        if sh.running.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = lock(&sh.job);
            sh.done.notify_all();
        }
    }
}

/// A raw pointer that may cross threads. Used to hand each pool worker its
/// *disjoint* slice of a shared output or accumulator buffer; every use
/// site carries its own disjointness `// SAFETY` argument.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(*mut T);

// SAFETY: `SendPtr` is a plain address; the use sites guarantee disjoint
// access per worker/panel.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn new(p: *mut T) -> Self {
        SendPtr(p)
    }

    /// The wrapped pointer offset by `i` elements. Going through `self`
    /// (not the raw field) keeps closure captures on the `Sync` wrapper.
    ///
    /// # Safety
    /// Same contract as [`pointer::add`]: the offset must stay inside the
    /// original allocation.
    pub(crate) unsafe fn add(self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// How the model set-up and the accelerator's weight packer split one job
/// over scoped threads. The set-up is one walk over the spec
/// ([`crate::setup`]) that runs one layer at a time, and each of its steps
/// on that layer — the Gaussian fill, the pruning passes, the calibration
/// conv or FC, the max-abs scan and rounding — is one such job, cut into
/// runs by the same rule. Unlike the persistent [`ConvPool`] these jobs
/// run a handful of times per layer, so each spawns its threads and joins
/// them before returning.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    workers: usize,
    /// Least work, in rough nanoseconds, worth a thread of its own.
    min_work: usize,
}

impl Split {
    /// One run per host core, for jobs big enough to repay a thread spawn.
    pub fn auto() -> Split {
        Split { workers: ConvPool::auto_threads(), min_work: 1 << 18 }
    }

    /// Exactly `workers` runs however small the job: how the bit-identity
    /// tests reach every split point.
    #[cfg(test)]
    pub(crate) fn forced(workers: usize) -> Split {
        Split { workers, min_work: 1 }
    }

    /// How many contiguous runs to cut `items` items of about
    /// `ns_per_item` each into (at least 1, at most one per item).
    pub fn runs(self, items: usize, ns_per_item: usize) -> usize {
        self.workers.min(items.saturating_mul(ns_per_item) / self.min_work).min(items).max(1)
    }

    /// Items per run: `items` cut into [`Split::runs`] near-equal runs.
    pub fn run_len(self, items: usize, ns_per_item: usize) -> usize {
        items.div_ceil(self.runs(items, ns_per_item)).max(1)
    }
}

/// Calls `f` on every piece — the first on the calling thread, each other
/// on a scoped thread of its own — and returns the results in piece order.
/// Pieces are disjoint borrows (`chunks_mut`, zipped `chunks`), so the
/// split is safe code and every thread is joined before this returns.
pub fn scoped_map<P: Send, R: Send>(
    pieces: impl IntoIterator<Item = P>,
    f: impl Fn(P) -> R + Sync,
) -> Vec<R> {
    let mut pieces = pieces.into_iter();
    let Some(first) = pieces.next() else { return Vec::new() };
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = pieces.map(|p| s.spawn(move || f(p))).collect();
        let mut results = vec![f(first)];
        // A worker's panic is this call's panic, not a lost result.
        results.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))));
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_panel_runs_exactly_once_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let pool = ConvPool::new(threads);
            for panels in [0usize, 1, 2, 7, 64] {
                let hits: Vec<AtomicUsize> = (0..panels).map(|_| AtomicUsize::new(0)).collect();
                let max_worker = AtomicUsize::new(0);
                pool.run(panels, &|w, p| {
                    hits[p].fetch_add(1, Ordering::Relaxed);
                    max_worker.fetch_max(w, Ordering::Relaxed);
                });
                for (p, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "panel {p} threads {threads}");
                }
                assert!(max_worker.load(Ordering::Relaxed) < threads);
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = ConvPool::new(4);
        let total = AtomicU64::new(0);
        for job in 0..50u64 {
            pool.run(8, &|_, p| {
                total.fetch_add(job * 8 + p as u64, Ordering::Relaxed);
            });
        }
        let want: u64 = (0..50u64).map(|j| (0..8u64).map(|p| j * 8 + p).sum::<u64>()).sum();
        assert_eq!(total.load(Ordering::Relaxed), want);
    }

    #[test]
    fn degenerate_pool_runs_inline_on_worker_zero() {
        let pool = ConvPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.handles.is_empty());
        let workers = AtomicUsize::new(0);
        pool.run(5, &|w, _| {
            workers.fetch_max(w + 1, Ordering::Relaxed);
        });
        assert_eq!(workers.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_is_clamped_and_drop_joins_cleanly() {
        let pool = ConvPool::new(0);
        assert_eq!(pool.threads(), 1);
        drop(pool);
        let pool = ConvPool::new(3);
        pool.run(4, &|_, _| {});
        drop(pool); // must not hang
    }

    #[test]
    fn disjoint_writes_through_sendptr_partition_correctly() {
        let pool = ConvPool::new(4);
        let mut out = vec![0usize; 32];
        let ptr = SendPtr::new(out.as_mut_ptr());
        pool.run(32, &|w, p| {
            // SAFETY: each panel index is claimed exactly once, so slot `p`
            // has a single writer.
            unsafe { *ptr.add(p) = w + 100 * p };
        });
        for (p, &v) in out.iter().enumerate() {
            assert_eq!(v / 100, p);
            assert!(v % 100 < 4);
        }
    }

    #[test]
    fn scoped_map_keeps_piece_order_and_joins() {
        let mut data: Vec<usize> = (0..10).collect();
        let sums = scoped_map(data.chunks_mut(3).enumerate(), |(i, run)| {
            run.iter_mut().for_each(|v| *v += 100);
            (i, run.iter().sum::<usize>())
        });
        assert_eq!(sums, vec![(0, 303), (1, 312), (2, 321), (3, 109)]);
        assert_eq!(data[9], 109);
        assert!(scoped_map(std::iter::empty::<u8>(), |v| v).is_empty());
    }

    #[test]
    fn split_cuts_by_work_and_never_past_one_item_per_run() {
        let s = Split { workers: 4, min_work: 100 };
        assert_eq!(s.runs(10, 1), 1, "too little work for a thread");
        assert_eq!(s.runs(10, 25), 2);
        assert_eq!(s.runs(10, 1000), 4);
        assert_eq!(s.runs(3, 1000), 3);
        assert_eq!(s.runs(0, 1000), 1);
        assert_eq!(s.run_len(10, 1000), 3);
        assert_eq!(s.run_len(0, 1), 1, "chunk sizes must be non-zero");
        assert_eq!(Split::forced(8).runs(5, 1), 5);
    }
}
