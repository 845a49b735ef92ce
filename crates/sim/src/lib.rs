//! Cycle-level simulation of streaming hardware kernels connected by FIFOs.
//!
//! LegUp HLS synthesizes Pthreads producer/consumer software into spatial
//! hardware: each thread becomes a pipelined streaming kernel, and the
//! `LEGUP_PTHREAD_FIFO` queues become hardware FIFOs (paper §II-A). This
//! crate models that execution substrate at cycle granularity:
//!
//! * [`Fifo`] — a bounded queue with hardware port semantics: one push and
//!   one pop per cycle, pushes visible the *next* cycle (registered
//!   output), ports kept by cycle stamp;
//! * [`Kernel`] — a streaming kernel ticked once per cycle, reporting
//!   whether it did work, was blocked on a queue, idled, or finished;
//! * [`Engine`] — owns kernels and FIFOs, advances cycles, detects
//!   deadlock (naming the wedged FIFO), and aggregates statistics
//!   (per-kernel busy/blocked/idle cycles, user activity counters for the
//!   power model);
//! * [`Barrier`] — the Pthreads-barrier analogue used to synchronize the
//!   four accumulator units at each OFM tile position (paper §III-B1).
//!
//! # Example
//!
//! ```
//! use zskip_sim::{Engine, Fifo, FifoId, Kernel, Ctx, Progress};
//!
//! struct Producer { out: FifoId, left: u32 }
//! impl Kernel<u32> for Producer {
//!     fn name(&self) -> &str { "producer" }
//!     fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
//!         if self.left == 0 { return Progress::Done; }
//!         if ctx.fifos.try_push(self.out, self.left).is_ok() {
//!             self.left -= 1;
//!             Progress::Busy
//!         } else {
//!             Progress::Blocked
//!         }
//!     }
//! }
//!
//! struct Consumer { inp: FifoId, sum: u32, expect: u32 }
//! impl Kernel<u32> for Consumer {
//!     fn name(&self) -> &str { "consumer" }
//!     fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
//!         match ctx.fifos.try_pop(self.inp) {
//!             Some(v) => { self.sum += v; self.expect -= 1;
//!                          if self.expect == 0 { Progress::Done } else { Progress::Busy } }
//!             None => Progress::Blocked,
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! let q = engine.add_fifo(Fifo::new("q", 2));
//! engine.add_kernel(Box::new(Producer { out: q, left: 10 }));
//! engine.add_kernel(Box::new(Consumer { inp: q, sum: 0, expect: 10 }));
//! let report = engine.run(1_000).unwrap();
//! assert!(report.cycles > 10); // FIFO latency + backpressure
//! ```

pub mod barrier;
pub mod engine;
pub mod fifo;
pub mod stats;
pub mod trace;

pub use barrier::Barrier;
pub use engine::{
    ConfigError, Ctx, Engine, EngineBuilder, FifoSet, FifoSnapshot, Kernel, NullObserver, Observer, Progress,
    RunReport, SimError, TraceObserver,
};
pub use fifo::{Fifo, FifoId, PushError, StallPort};
pub use stats::{CounterId, Counters, KernelStats};
pub use trace::Trace;
