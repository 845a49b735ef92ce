//! The addressable Gaussian stream behind [`crate::Network::synthetic`].
//!
//! A synthetic model is one long sequence of Box–Muller draws from one
//! seeded ChaCha8 stream. Drawn one at a time that is serial; but one
//! Box–Muller *attempt* consumes exactly two `next_u64` calls — 4 stream
//! words, a quarter of a ChaCha block — and ChaCha is a counter-mode
//! generator, so attempt `p` is words `4p .. 4p + 4` and any worker can
//! compute any range of attempts without the ones before it.
//!
//! The values a layer receives are the *accepted* attempts in order (an
//! attempt whose `u1` is within `f32::EPSILON` of zero is redrawn, about 3
//! in 2²⁴). So a fill is a pure filter of the attempt sequence: workers
//! evaluate contiguous attempt ranges side by side, each packing what it
//! accepts to the front of its own run; the runs are then compacted over
//! the holes and the shortfall is topped up from the attempts that follow.
//! Where a run starts in the *attempt* sequence is fixed by the attempts
//! before it, never by the weight index alone.

use crate::par::{self, Split};
use crate::simd::{self, KernelTier};
use rand::{RngCore, SeedableRng};
use rand_chacha::{ChaCha8Rng, Refill};

/// Stream words one Box–Muller attempt consumes (two `next_u64`).
const ATTEMPT_WORDS: usize = 4;
/// ChaCha block words per attempt-sized quarter.
const ATTEMPTS_PER_BLOCK: u64 = 16 / ATTEMPT_WORDS as u64;
/// Attempts a worker evaluates per refill of its word buffer (16 KiB).
const BATCH_ATTEMPTS: usize = 1024;
/// Rough cost of one draw (`ln`, `sqrt`, `cos` and 4 stream words).
const NS_PER_DRAW: usize = 20;

/// A stream of `u32` words addressable by attempt: the seam that lets the
/// forced-retry tests script the words an attempt sees.
pub(crate) trait WordSource: Sync {
    /// Writes the words of attempts `first .. first + out.len() / 4`.
    fn words(&self, first: u64, out: &mut [u32]);
}

/// The real source: the ChaCha8 stream of one seed.
pub(crate) struct ChaChaWords {
    /// The generator as seeded; every read seeks a clone of it.
    rng: ChaCha8Rng,
    refill: Refill,
}

impl ChaChaWords {
    /// The stream `ChaCha8Rng::seed_from_u64(seed)` yields, with whole
    /// blocks computed at the width of the process's kernel tier (so
    /// `ZSKIP_KERNEL=scalar` runs the scalar block function end to end).
    pub(crate) fn new(seed: u64) -> Self {
        let refill = match simd::dispatch() {
            KernelTier::Avx512 => Refill::Avx512,
            KernelTier::Avx2 => Refill::Avx2,
            KernelTier::Sse2 | KernelTier::Scalar => Refill::Portable,
        };
        ChaChaWords { rng: ChaCha8Rng::seed_from_u64(seed), refill }
    }
}

impl WordSource for ChaChaWords {
    fn words(&self, first: u64, out: &mut [u32]) {
        let mut rng = self.rng.clone();
        rng.set_block_pos(first / ATTEMPTS_PER_BLOCK);
        for _ in 0..(first % ATTEMPTS_PER_BLOCK) as usize * ATTEMPT_WORDS {
            rng.next_u32();
        }
        rng.fill_u32_with(self.refill, out);
    }
}

/// `rng.gen::<f32>()` of the `next_u64` whose high word is `word`: the top
/// 24 bits, uniform in `[0, 1)`.
#[inline]
fn unit_f32(word: u32) -> f32 {
    (word >> 8) as f32 * (1.0 / (1u64 << 24) as f32)
}

/// Evaluates attempts `first .. first + run.len()`, packing `scale` times
/// each accepted draw to the front of `run`. Returns how many it accepted;
/// the tail past that is unspecified.
fn fill_run(src: &impl WordSource, first: u64, run: &mut [f32], scale: f32) -> usize {
    let mut words = [0u32; BATCH_ATTEMPTS * ATTEMPT_WORDS];
    let mut kept = 0;
    for batch in (0..run.len()).step_by(BATCH_ATTEMPTS) {
        let n = BATCH_ATTEMPTS.min(run.len() - batch);
        let words = &mut words[..n * ATTEMPT_WORDS];
        src.words(first + batch as u64, words);
        for attempt in words.chunks_exact(ATTEMPT_WORDS) {
            // The two `gen::<f32>()` of one attempt: each takes the high
            // word of its `next_u64`, words 1 and 3.
            let u1 = unit_f32(attempt[1]);
            let u2 = unit_f32(attempt[3]);
            if u1 > f32::EPSILON {
                run[kept] = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * scale;
                kept += 1;
            }
        }
    }
    kept
}

/// Fills `out` with `scale` times the next `out.len()` standard Gaussian
/// draws of the stream, starting at attempt `*pos` and leaving `*pos` at
/// the first attempt not consumed — exactly the values and the position a
/// one-at-a-time Box–Muller loop over `src` produces.
pub(crate) fn fill_gaussian(src: &impl WordSource, pos: &mut u64, out: &mut [f32], scale: f32, split: Split) {
    let mut filled = 0;
    while filled < out.len() {
        // Evaluate as many attempts as values are missing, in parallel
        // runs. All accepted (nearly always): done in one round.
        let rest = &mut out[filled..];
        let run_len = split.run_len(rest.len(), NS_PER_DRAW);
        let first = *pos;
        let kept = par::scoped_map(rest.chunks_mut(run_len).enumerate(), |(r, run)| {
            fill_run(src, first + (r * run_len) as u64, run, scale)
        });
        *pos += rest.len() as u64;
        // Compact each run's accepted prefix over the holes rejected
        // attempts left in the runs before it; the next round tops up.
        let mut write = 0;
        for (r, &k) in kept.iter().enumerate() {
            if write != r * run_len {
                rest.copy_within(r * run_len..r * run_len + k, write);
            }
            write += k;
        }
        filled += write;
    }
}
