//! Host-speed calibration.
//!
//! The reference box is a 2-vCPU guest on a shared host. For minutes at a
//! time its neighbours slow every instruction stream by 10-40 %, which
//! shifts every sample of a 20 s run alike, so no median inside the run
//! removes it. While a workload is being timed, a sampler thread therefore
//! times a small fixed kernel of the harness's own every [`PERIOD`]. The
//! mean of those samples over the kernel's time on a quiet host
//! ([`NOMINAL_MS`]) is the *slowdown* the host imposed on that phase, and
//! every host-time metric is reported divided by it (a rate multiplied):
//! what the metric reads on the undisturbed reference box. The raw value
//! and the slowdown are printed beside it on stderr.
//!
//! The kernel belongs to the harness and never calls into the program, so
//! no change to the program moves it. It is far shorter than a scheduler
//! slice, so it runs unpreempted even while the program keeps both cores
//! busy, and it costs about 3 % of one core.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::net::SplitMix64;

/// How often the sampler runs the kernel.
pub const PERIOD: Duration = Duration::from_millis(10);
/// The mean sample of a quiet run on the reference box, in milliseconds:
/// quiet runs read a slowdown of 0.95 to 1.05.
pub const NOMINAL_MS: f64 = 0.25;
/// A sample counts for at most this many [`NOMINAL_MS`]. A neighbour slows
/// the kernel by a factor of two at worst; a sample far beyond that caught
/// a stall of the sampler thread in the act. Uncapped, such samples made
/// one run in forty read a slowdown of 1.86 while its raw latency was the
/// usual one.
pub const SAMPLE_CAP: f64 = 4.0;

/// Entries of the scalar part's lookup table (128 KiB: L2-resident).
const TABLE_LEN: usize = 1 << 16;
/// Steps of the scalar part per sample.
const SCALAR_STEPS: usize = 20_000;
/// Words of the streamed buffer (16 MiB: beyond L2, so a slice comes from
/// the shared last-level cache or from memory).
const STREAM_WORDS: usize = 2 << 20;
/// Slices the streamed buffer is read in, one per sample, in rotation.
const STREAM_SLICES: usize = 16;

/// The fixed work of one sample; the two parts take about the same time.
struct Kernel {
    table: Vec<u16>,
    stream: Vec<u64>,
}

impl Kernel {
    /// The process's one kernel. It is never dropped: glibc raises its
    /// mmap threshold when a block this large is freed, after which the
    /// program's own big temporaries stop paying for fresh pages -- a warm
    /// ResNet image in this process then reads 15 ms instead of 35.
    fn get() -> &'static Kernel {
        static KERNEL: OnceLock<Kernel> = OnceLock::new();
        KERNEL.get_or_init(|| {
            let mut rng = SplitMix64(0xca11b);
            Kernel {
                table: (0..TABLE_LEN).map(|_| rng.next_u64() as u16).collect(),
                stream: (0..STREAM_WORDS as u64).collect(),
            }
        })
    }

    /// A dependent multiply-add chain with a table lookup and an
    /// unpredictable branch per step: core speed, which a busy hyperthread
    /// sibling or a clock change takes away.
    fn scalar(&self) {
        let mut z = black_box(0x9e37_79b9_7f4a_7c15u64);
        let mut acc = 0u64;
        for _ in 0..SCALAR_STEPS {
            z = z
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .wrapping_add(0x94d0_49bb_1331_11eb);
            let v = u64::from(self.table[(z >> 48) as usize]);
            if v & 1 == 0 {
                acc = acc.wrapping_add(v ^ z);
            } else {
                acc ^= v.wrapping_mul(3);
            }
        }
        black_box(acc);
    }

    /// A streaming read of slice `k` of the big buffer: cache and memory
    /// bandwidth, which a neighbour's traffic takes away.
    fn stream(&self, k: usize) {
        let len = STREAM_WORDS / STREAM_SLICES;
        let at = (k % STREAM_SLICES) * len;
        let sum = black_box(&self.stream[at..at + len])
            .iter()
            .fold(0u64, |a, &x| a.wrapping_add(x));
        black_box(sum);
    }
}

/// The sampler thread, running from [`HostSpeed::start`] to
/// [`HostSpeed::stop`].
pub struct HostSpeed {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Samples>,
}

impl HostSpeed {
    pub fn start() -> HostSpeed {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let kernel = Kernel::get();
            let mut samples = Samples::default();
            while !flag.load(Ordering::Relaxed) {
                let woke = Instant::now();
                // An untimed pass first: a sampler that just woke an idle
                // core reads slower than one on a busy core, whatever the
                // host does.
                kernel.scalar();
                let t = Instant::now();
                kernel.scalar();
                kernel.stream(samples.ms.len());
                samples.ms.push(t.elapsed().as_secs_f64() * 1e3);
                samples.at.push(t);
                std::thread::sleep(PERIOD.saturating_sub(woke.elapsed()));
            }
            samples
        });
        HostSpeed { stop, handle }
    }

    /// Stops the sampler and returns what it measured.
    ///
    /// # Panics
    /// When the sampler thread panicked.
    pub fn stop(self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("the sampler thread panicked")
    }
}

/// The calibration samples of one run: when each started and how long
/// the kernel took, in milliseconds.
#[derive(Debug, Default)]
pub struct Samples {
    pub at: Vec<Instant>,
    pub ms: Vec<f64>,
}

impl Samples {
    /// `"<count> calibration samples, largest <x> ms"`, for the report.
    pub fn describe(&self) -> String {
        format!(
            "{} calibration samples, largest {:.2} ms",
            self.ms.len(),
            self.ms.iter().copied().fold(0.0, f64::max)
        )
    }

    /// The host's slowdown between `from` and `to`: the mean sample in
    /// that window, each capped at [`SAMPLE_CAP`], over [`NOMINAL_MS`].
    /// The mean, not the median: an operation of many milliseconds pays
    /// for every disturbance in its window, not for the typical one. 1.0
    /// when the window holds no sample (nothing to correct with).
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let window: Vec<f64> = self
            .at
            .iter()
            .zip(&self.ms)
            .filter(|(at, _)| (from..=to).contains(*at))
            .map(|(_, ms)| (ms / NOMINAL_MS).min(SAMPLE_CAP))
            .collect();
        if window.is_empty() {
            1.0
        } else {
            window.iter().sum::<f64>() / window.len() as f64
        }
    }
}
